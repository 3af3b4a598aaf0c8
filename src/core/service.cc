#include "core/service.h"

#include "common/check.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "synth/kg_gen.h"
#include "text/prompt.h"

namespace telekit {
namespace core {

namespace {

uint64_t HashIds(const std::vector<int>& ids, int length, uint64_t seed) {
  uint64_t h = seed ^ 0x9E3779B97F4A7C15ULL;
  for (int i = 0; i < length; ++i) {
    h ^= static_cast<uint64_t>(ids[static_cast<size_t>(i)]) + 0x9E3779B9ULL +
         (h << 6) + (h >> 2);
  }
  return h;
}

}  // namespace

std::vector<float> RandomEncoder::Encode(
    const text::EncodedInput& input) const {
  Rng rng(HashIds(input.ids, input.length, seed_));
  std::vector<float> out(static_cast<size_t>(dim_));
  for (float& v : out) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  return out;
}

std::vector<float> WordAveragingEncoder::WordVector(int token_id) const {
  Rng rng(seed_ * 1000003ULL + static_cast<uint64_t>(token_id));
  std::vector<float> out(static_cast<size_t>(dim_));
  for (float& v : out) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  return out;
}

std::vector<float> WordAveragingEncoder::Encode(
    const text::EncodedInput& input) const {
  std::vector<float> sum(static_cast<size_t>(dim_), 0.0f);
  int count = 0;
  for (int i = 0; i < input.length; ++i) {
    const int id = input.ids[static_cast<size_t>(i)];
    if (text::Vocab::IsSpecial(id)) continue;
    const std::vector<float> w = WordVector(id);
    for (int d = 0; d < dim_; ++d) {
      sum[static_cast<size_t>(d)] += w[static_cast<size_t>(d)];
    }
    ++count;
  }
  if (count > 0) {
    for (float& v : sum) v /= static_cast<float>(count);
  }
  return sum;
}

text::EncodedInput ServiceEncoder::BuildInput(const std::string& name,
                                              ServiceMode mode) const {
  TELEKIT_CHECK(tokenizer_ != nullptr);
  text::PromptBuilder builder;
  builder.Entity(name);
  if (mode != ServiceMode::kOnlyName && store_ != nullptr) {
    auto entity = store_->FindEntity(name);
    if (entity.ok()) {
      // Class membership via instanceOf (one hop).
      auto instance_of = store_->FindRelation(synth::TeleSchema::kInstanceOf);
      if (instance_of.ok()) {
        for (kg::EntityId cls : store_->Objects(*entity, *instance_of)) {
          builder.Attribute("type", store_->EntitySurface(cls));
          break;
        }
      }
      if (mode == ServiceMode::kEntityWithAttr) {
        for (const kg::StringAttribute& attr :
             store_->StringAttributesOf(*entity)) {
          if (attr.attribute == "code") continue;  // IDs carry no semantics
          builder.Attribute(attr.attribute, attr.value);
        }
        for (const kg::NumericAttribute& attr :
             store_->NumericAttributesOf(*entity)) {
          const float normalized =
              normalizer_ != nullptr
                  ? normalizer_->Normalize(attr.attribute, attr.value)
                  : 0.5f;
          builder.NumericAttribute(attr.attribute, normalized);
        }
      }
    }
  }
  return tokenizer_->Encode(builder.Build());
}

std::vector<float> ServiceEncoder::Encode(const std::string& name,
                                          ServiceMode mode) const {
  TELEKIT_CHECK(encoder_ != nullptr);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  static obs::Counter& calls = registry.GetCounter("service/encode_calls");
  static obs::Histogram& latency = registry.GetHistogram("service/encode_ms");
  calls.Increment();
  obs::ScopedTimer timer(latency);
  return encoder_->Encode(BuildInput(name, mode));
}

std::vector<std::vector<float>> ServiceEncoder::EncodeBatch(
    const std::vector<std::string>& names, ServiceMode mode) const {
  TELEKIT_CHECK(encoder_ != nullptr);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  static obs::Counter& calls = registry.GetCounter("service/encode_calls");
  static obs::Histogram& batch_rows =
      registry.GetHistogram("service/encode_batch_rows");
  calls.Increment(names.size());
  batch_rows.Observe(static_cast<double>(names.size()));
  std::vector<text::EncodedInput> inputs;
  inputs.reserve(names.size());
  for (const std::string& name : names) {
    inputs.push_back(BuildInput(name, mode));
  }
  std::vector<const text::EncodedInput*> pointers;
  pointers.reserve(inputs.size());
  for (const text::EncodedInput& input : inputs) pointers.push_back(&input);
  return encoder_->EncodeBatch(pointers);
}

}  // namespace core
}  // namespace telekit
