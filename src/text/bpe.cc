#include "text/bpe.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "common/check.h"
#include "common/string_util.h"

namespace telekit {
namespace text {

namespace {

// A word as a sequence of current symbols plus its corpus frequency.
struct SymbolWord {
  std::vector<std::string> symbols;
  int64_t freq;
};

std::vector<std::string> CharSymbols(const std::string& word) {
  std::vector<std::string> symbols;
  symbols.reserve(word.size());
  for (char c : word) symbols.emplace_back(1, c);
  return symbols;
}

}  // namespace

void BpeLearner::Fit(const std::vector<std::string>& sentences) {
  merges_.clear();
  symbol_freqs_.clear();

  // Word frequency table over the whole corpus.
  std::unordered_map<std::string, int64_t> word_freq;
  for (const std::string& sentence : sentences) {
    for (const std::string& word : SplitString(sentence, ' ')) {
      if (word.size() >= 2) ++word_freq[word];
    }
  }
  std::vector<SymbolWord> words;
  words.reserve(word_freq.size());
  for (const auto& [word, freq] : word_freq) {
    words.push_back({CharSymbols(word), freq});
  }

  for (int merge = 0; merge < options_.num_merges; ++merge) {
    // Count adjacent symbol pairs weighted by word frequency. std::map gives
    // deterministic tie-breaking (lexicographically smallest pair wins).
    std::map<std::pair<std::string, std::string>, int64_t> pair_freq;
    for (const SymbolWord& w : words) {
      for (size_t i = 0; i + 1 < w.symbols.size(); ++i) {
        pair_freq[{w.symbols[i], w.symbols[i + 1]}] += w.freq;
      }
    }
    if (pair_freq.empty()) break;
    auto best = pair_freq.begin();
    for (auto it = pair_freq.begin(); it != pair_freq.end(); ++it) {
      if (it->second > best->second) best = it;
    }
    if (best->second < 2) break;  // nothing repeats; stop early
    const std::string merged = best->first.first + best->first.second;
    merges_.push_back(best->first);
    symbol_freqs_.emplace_back(merged, best->second);

    // Apply the merge in every word.
    for (SymbolWord& w : words) {
      std::vector<std::string> updated;
      updated.reserve(w.symbols.size());
      for (size_t i = 0; i < w.symbols.size(); ++i) {
        if (i + 1 < w.symbols.size() && w.symbols[i] == best->first.first &&
            w.symbols[i + 1] == best->first.second) {
          updated.push_back(merged);
          ++i;
        } else {
          updated.push_back(w.symbols[i]);
        }
      }
      w.symbols = std::move(updated);
    }
  }
  BuildRankIndex();
  fitted_ = true;
}

void BpeLearner::BuildRankIndex() {
  rank_.clear();
  for (size_t i = 0; i < merges_.size(); ++i) {
    rank_.emplace(merges_[i], static_cast<int>(i));
  }
}

std::vector<std::string> BpeLearner::Segment(const std::string& word) const {
  TELEKIT_CHECK(fitted_) << "BpeLearner::Fit must be called first";
  std::vector<std::string> symbols = CharSymbols(word);
  while (symbols.size() > 1) {
    int best_rank = static_cast<int>(merges_.size());
    size_t best_pos = 0;
    for (size_t i = 0; i + 1 < symbols.size(); ++i) {
      auto it = rank_.find({symbols[i], symbols[i + 1]});
      if (it != rank_.end() && it->second < best_rank) {
        best_rank = it->second;
        best_pos = i;
      }
    }
    if (best_rank == static_cast<int>(merges_.size())) break;
    symbols[best_pos] += symbols[best_pos + 1];
    symbols.erase(symbols.begin() + static_cast<long>(best_pos) + 1);
  }
  return symbols;
}

std::vector<std::string> BpeLearner::ExtractTeleTokens(
    const Vocab& base_vocab) const {
  TELEKIT_CHECK(fitted_) << "BpeLearner::Fit must be called first";
  std::vector<std::pair<std::string, int64_t>> candidates;
  for (const auto& [symbol, freq] : symbol_freqs_) {
    const int len = static_cast<int>(symbol.size());
    if (len < options_.min_token_len || len > options_.max_token_len) continue;
    if (freq < options_.min_frequency) continue;
    if (base_vocab.Contains(symbol)) continue;
    candidates.emplace_back(symbol, freq);
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  std::vector<std::string> tokens;
  tokens.reserve(candidates.size());
  for (const auto& [symbol, freq] : candidates) tokens.push_back(symbol);
  return tokens;
}

int64_t BpeLearner::SymbolFrequency(const std::string& symbol) const {
  for (const auto& [s, freq] : symbol_freqs_) {
    if (s == symbol) return freq;
  }
  return 0;
}

}  // namespace text
}  // namespace telekit
