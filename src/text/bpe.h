#ifndef TELEKIT_TEXT_BPE_H_
#define TELEKIT_TEXT_BPE_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "text/vocab.h"

namespace telekit {
namespace text {

/// Options for BPE merge learning and tele-token extraction (Sec. IV-A3 of
/// the paper: candidate tele tokens are 2-4 character merges that appear
/// frequently in the tele corpus and are absent from the base vocabulary).
struct BpeOptions {
  /// Number of merge operations to learn.
  int num_merges = 200;
  /// Length bounds for extracted tele special tokens.
  int min_token_len = 2;
  int max_token_len = 4;
  /// Minimum corpus occurrences for an extracted token. (The paper uses
  /// 8000 on a 20M-sentence corpus; scale proportionally.)
  int min_frequency = 20;
};

/// Byte-pair-encoding learner over whitespace-tokenized words. Learns a
/// ranked merge table; supports segmenting unseen words and extracting the
/// high-frequency short merges the paper promotes to "tele special tokens"
/// (e.g. "RAN", "MML", "PGW").
class BpeLearner {
 public:
  explicit BpeLearner(const BpeOptions& options = BpeOptions())
      : options_(options) {}

  /// Reconstructs a fitted learner from serialized state (see
  /// Tokenizer::Save/Load).
  BpeLearner(const BpeOptions& options,
             std::vector<std::pair<std::string, std::string>> merges,
             std::vector<std::pair<std::string, int64_t>> symbol_freqs)
      : options_(options),
        merges_(std::move(merges)),
        symbol_freqs_(std::move(symbol_freqs)),
        fitted_(true) {
    BuildRankIndex();
  }

  /// Learns merges from the corpus. Must be called before Segment /
  /// ExtractTeleTokens.
  void Fit(const std::vector<std::string>& sentences);

  /// Learned merges in application order.
  const std::vector<std::pair<std::string, std::string>>& merges() const {
    return merges_;
  }

  /// Segments a word into BPE symbols by applying merges in rank order.
  std::vector<std::string> Segment(const std::string& word) const;

  /// Symbols satisfying the paper's tele-token constraints (length bounds,
  /// frequency threshold, not already in `base_vocab`), most frequent first.
  std::vector<std::string> ExtractTeleTokens(const Vocab& base_vocab) const;

  /// Corpus frequency of a learned symbol (0 if never formed).
  int64_t SymbolFrequency(const std::string& symbol) const;

  /// Serialized frequency table (merge order).
  const std::vector<std::pair<std::string, int64_t>>& symbol_freqs() const {
    return symbol_freqs_;
  }
  const BpeOptions& options() const { return options_; }

 private:
  // Fills rank_ from merges_; a pair listed twice keeps its first rank.
  void BuildRankIndex();

  BpeOptions options_;
  std::vector<std::pair<std::string, std::string>> merges_;
  // Merge pair -> its rank in merges_, built once by Fit and the load
  // constructor and read-only afterwards, so concurrent Segment calls
  // share it without a lock.
  std::map<std::pair<std::string, std::string>, int> rank_;
  // Frequency of each merged symbol at the time it was created.
  std::vector<std::pair<std::string, int64_t>> symbol_freqs_;
  bool fitted_ = false;
};

}  // namespace text
}  // namespace telekit

#endif  // TELEKIT_TEXT_BPE_H_
