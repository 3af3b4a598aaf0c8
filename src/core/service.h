#ifndef TELEKIT_CORE_SERVICE_H_
#define TELEKIT_CORE_SERVICE_H_

#include <memory>
#include <string>
#include <vector>

#include "core/ktelebert.h"
#include "core/telebert.h"
#include "kg/store.h"
#include "text/numeric.h"
#include "text/tokenizer.h"

namespace telekit {
namespace core {

/// Abstraction over everything that can turn an encoded input into a fixed
/// service vector: the pre-trained models and the baselines of the paper's
/// tables (random embeddings, averaged word embeddings).
class TextEncoder {
 public:
  virtual ~TextEncoder() = default;

  /// Service embedding of an encoded input.
  virtual std::vector<float> Encode(const text::EncodedInput& input) const = 0;

  /// Service embeddings of a batch: result i is Encode(*inputs[i]).
  virtual std::vector<std::vector<float>> EncodeBatch(
      const std::vector<const text::EncodedInput*>& inputs) const {
    std::vector<std::vector<float>> out;
    out.reserve(inputs.size());
    for (const text::EncodedInput* input : inputs) {
      out.push_back(Encode(*input));
    }
    return out;
  }

  /// Embedding dimensionality.
  virtual int dim() const = 0;
};

/// Adapter over TeleBert.
class TeleBertEncoder : public TextEncoder {
 public:
  explicit TeleBertEncoder(const TeleBert* model) : model_(model) {}
  std::vector<float> Encode(const text::EncodedInput& input) const override {
    return model_->ServiceVector(input);
  }
  int dim() const override { return model_->encoder().config().d_model; }

 private:
  const TeleBert* model_;
};

/// Adapter over KTeleBert.
class KTeleBertEncoder : public TextEncoder {
 public:
  explicit KTeleBertEncoder(const KTeleBert* model) : model_(model) {}
  std::vector<float> Encode(const text::EncodedInput& input) const override {
    return model_->ServiceVector(input);
  }
  int dim() const override { return model_->config().encoder.d_model; }

 private:
  const KTeleBert* model_;
};

/// "Random" baseline: a deterministic pseudo-random vector per input
/// (hashed from the token ids), drawn from a uniform distribution.
class RandomEncoder : public TextEncoder {
 public:
  RandomEncoder(int dim, uint64_t seed) : dim_(dim), seed_(seed) {}
  std::vector<float> Encode(const text::EncodedInput& input) const override;
  int dim() const override { return dim_; }

 private:
  int dim_;
  uint64_t seed_;
};

/// "Word Embeddings" baseline (Table VI): each word id gets a fixed random
/// vector; the input is represented by the average of its word vectors, so
/// word overlap alone provides signal.
class WordAveragingEncoder : public TextEncoder {
 public:
  WordAveragingEncoder(int dim, uint64_t seed) : dim_(dim), seed_(seed) {}
  std::vector<float> Encode(const text::EncodedInput& input) const override;
  int dim() const override { return dim_; }

 private:
  std::vector<float> WordVector(int token_id) const;

  int dim_;
  uint64_t seed_;
};

/// Service-delivery data formats (Sec. V-A3).
enum class ServiceMode {
  /// Pure literal name.
  kOnlyName,
  /// Name mapped to a Tele-KG entity by surface (adds its class).
  kEntityNoAttr,
  /// Entity mapping plus its attributes appended.
  kEntityWithAttr,
};

/// Builds prompt-wrapped inputs for downstream task names and encodes them
/// with any TextEncoder, following the paper's delivery paradigm: the
/// target name is wrapped in the Fig. 3 templates, optionally enriched with
/// the Tele-KG entity's class and attributes.
class ServiceEncoder {
 public:
  /// `store` and `normalizer` may be null; entity modes then degrade to
  /// only-name.
  ServiceEncoder(const TextEncoder* encoder, const text::Tokenizer* tokenizer,
                 const kg::TripleStore* store,
                 const text::MinMaxNormalizer* normalizer)
      : encoder_(encoder),
        tokenizer_(tokenizer),
        store_(store),
        normalizer_(normalizer) {}

  /// Prompt-wrapped encoded input for `name` under `mode`.
  text::EncodedInput BuildInput(const std::string& name,
                                ServiceMode mode) const;

  /// Service embedding of `name` under `mode`.
  std::vector<float> Encode(const std::string& name, ServiceMode mode) const;

  /// Service embeddings of a whole catalogue of names (BuildInput per
  /// name, then the encoder's EncodeBatch).
  std::vector<std::vector<float>> EncodeBatch(
      const std::vector<std::string>& names, ServiceMode mode) const;

  /// Encodes already-built inputs through the encoder's EncodeBatch.
  std::vector<std::vector<float>> EncodeInputs(
      const std::vector<const text::EncodedInput*>& inputs) const {
    return encoder_->EncodeBatch(inputs);
  }

  int dim() const { return encoder_->dim(); }

 private:
  const TextEncoder* encoder_;
  const text::Tokenizer* tokenizer_;
  const kg::TripleStore* store_;
  const text::MinMaxNormalizer* normalizer_;
};

}  // namespace core
}  // namespace telekit

#endif  // TELEKIT_CORE_SERVICE_H_
