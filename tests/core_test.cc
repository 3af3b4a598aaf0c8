#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <set>

#include "common/rng.h"
#include "core/anenc.h"
#include "core/qencode.h"
#include "core/transformer.h"
#include "obs/metrics.h"
#include "tensor/compute_pool.h"
#include "tensor/gradcheck.h"
#include "tensor/ops.h"
#include "tensor/optimizer.h"
#include "tensor/simd.h"

namespace telekit {
namespace core {
namespace {

using tensor::Tensor;

EncoderConfig SmallConfig() {
  EncoderConfig config;
  config.vocab_size = 50;
  config.d_model = 16;
  config.num_heads = 2;
  config.num_layers = 2;
  config.ffn_dim = 32;
  config.max_len = 12;
  config.dropout = 0.0f;
  return config;
}

// --- LinearLayer / LayerNormParams -----------------------------------------------

TEST(LinearLayerTest, ShapeAndBias) {
  Rng rng(1);
  LinearLayer layer(3, 5, rng);
  Tensor x = Tensor::Zeros({2, 3});
  Tensor y = layer.Forward(x);
  EXPECT_EQ(y.shape(), (tensor::Shape{2, 5}));
  // Zero input -> bias (zero-initialized).
  for (float v : y.data()) EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(LinearLayerTest, ParametersNamed) {
  Rng rng(2);
  LinearLayer layer(2, 2, rng);
  auto params = layer.Parameters();
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params[0].first, "weight");
  EXPECT_EQ(params[1].first, "bias");
}

TEST(NamedParamsTest, PrefixingAndMapConversion) {
  Rng rng(3);
  LinearLayer layer(2, 2, rng);
  NamedParams out;
  AppendWithPrefix("block", layer.Parameters(), &out);
  EXPECT_EQ(out[0].first, "block.weight");
  auto map = ToTensorMap(out);
  EXPECT_EQ(map.size(), 2u);
  EXPECT_TRUE(map.count("block.bias"));
  EXPECT_EQ(TensorsOf(out).size(), 2u);
}

// --- MultiHeadSelfAttention --------------------------------------------------------

TEST(AttentionTest, OutputShapePreserved) {
  Rng rng(4);
  MultiHeadSelfAttention attn(16, 4, rng);
  Tensor x = Tensor::Randn({5, 16}, rng);
  Tensor y = attn.Forward(x);
  EXPECT_EQ(y.shape(), (tensor::Shape{5, 16}));
}

TEST(AttentionTest, GradientsReachAllProjections) {
  Rng rng(5);
  MultiHeadSelfAttention attn(8, 2, rng);
  Tensor x = Tensor::Randn({4, 8}, rng, 1.0f, true);
  tensor::Sum(tensor::Square(attn.Forward(x))).Backward();
  for (const auto& [name, p] : attn.Parameters()) {
    ASSERT_FALSE(p.grad().empty()) << name;
    float total = 0;
    for (float g : p.grad()) total += std::fabs(g);
    EXPECT_GT(total, 0.0f) << name;
  }
}

TEST(AttentionTest, PositionMixing) {
  // Token 0's output must depend on token 2's content.
  Rng rng(6);
  MultiHeadSelfAttention attn(8, 2, rng);
  Tensor a = Tensor::Randn({3, 8}, rng);
  Tensor b = a.Detach();
  b.mutable_data()[2 * 8 + 3] += 2.0f;  // perturb token 2
  Tensor ya = attn.Forward(a);
  Tensor yb = attn.Forward(b);
  float diff = 0;
  for (int j = 0; j < 8; ++j) diff += std::fabs(ya.at(0, j) - yb.at(0, j));
  EXPECT_GT(diff, 1e-5f);
}

// --- TransformerEncoder ---------------------------------------------------------------

TEST(EncoderTest, ForwardShapeTrimsPadding) {
  Rng rng(7);
  TransformerEncoder encoder(SmallConfig(), rng);
  std::vector<int> ids = {2, 20, 21, 3, 0, 0, 0, 0};  // 4 real + pads
  Tensor h = encoder.Forward(ids, 4, rng, false);
  EXPECT_EQ(h.shape(), (tensor::Shape{4, 16}));
}

TEST(EncoderTest, DeterministicInEvalMode) {
  Rng rng(8);
  TransformerEncoder encoder(SmallConfig(), rng);
  std::vector<int> ids = {2, 15, 16, 17, 3};
  Rng r1(1), r2(2);
  Tensor a = encoder.Forward(ids, 5, r1, false);
  Tensor b = encoder.Forward(ids, 5, r2, false);
  EXPECT_EQ(a.data(), b.data());
}

TEST(EncoderTest, PositionSensitive) {
  Rng rng(9);
  TransformerEncoder encoder(SmallConfig(), rng);
  Rng eval(0);
  Tensor a = encoder.Forward({2, 20, 21, 3}, 4, eval, false);
  Tensor b = encoder.Forward({2, 21, 20, 3}, 4, eval, false);
  // Swapping tokens changes the [CLS] representation.
  float diff = 0;
  for (int j = 0; j < 16; ++j) diff += std::fabs(a.at(0, j) - b.at(0, j));
  EXPECT_GT(diff, 1e-5f);
}

TEST(EncoderTest, EmbedOverridesReplaceRows) {
  Rng rng(10);
  EncoderConfig config = SmallConfig();
  TransformerEncoder encoder(config, rng);
  std::vector<int> ids = {2, 20, 12, 3};
  Rng eval(0);
  Tensor replacement = Tensor::Full({1, 16}, 3.0f);
  Tensor with = encoder.Embed(ids, 4, {{2, replacement}}, eval, false);
  Tensor without = encoder.Embed(ids, 4, {}, eval, false);
  // Row 2 differs, row 1 does not.
  float diff2 = 0, diff1 = 0;
  for (int j = 0; j < 16; ++j) {
    diff2 += std::fabs(with.at(2, j) - without.at(2, j));
    diff1 += std::fabs(with.at(1, j) - without.at(1, j));
  }
  EXPECT_GT(diff2, 1e-4f);
  EXPECT_LT(diff1, 1e-6f);
}

TEST(EncoderTest, OverrideGradientFlowsToExternalTensor) {
  Rng rng(11);
  TransformerEncoder encoder(SmallConfig(), rng);
  Tensor external = Tensor::Randn({1, 16}, rng, 1.0f, true);
  Rng eval(0);
  Tensor embedded = encoder.Embed({2, 20, 12, 3}, 4, {{2, external}}, eval,
                                  false);
  Tensor h = encoder.Encode(embedded, eval, false);
  tensor::Sum(tensor::Square(h)).Backward();
  ASSERT_FALSE(external.grad().empty());
  float total = 0;
  for (float g : external.grad()) total += std::fabs(g);
  EXPECT_GT(total, 0.0f);
}

// A training forward of the paper's 2-layer encoder (dropout on): the
// embedding's 5 nodes (lookup, position rows, add, layer norm, dropout),
// then per layer the q/k/v Linear nodes, Attention, the output Linear,
// dropout, AddLayerNorm, the FFN's Linear-Gelu-Linear, dropout and
// AddLayerNorm: 12 nodes. Unfused, a layer was 52 nodes (109 in all).
TEST(EncoderTest, TrainingForwardDispatchesTheFusedNodeCount) {
  EncoderConfig config;
  config.vocab_size = 50;
  config.max_len = 24;
  ASSERT_EQ(config.num_layers, 2);
  ASSERT_GT(config.dropout, 0.0f);
  Rng rng(13);
  TransformerEncoder encoder(config, rng);
  std::vector<int> ids(24);
  for (int i = 0; i < 24; ++i) ids[static_cast<size_t>(i)] = 2 + i;
  const obs::Counter& ops =
      obs::MetricsRegistry::Global().GetCounter("tensor/ops_dispatched");
  const uint64_t before = ops.value();
  Tensor h = encoder.Forward(ids, 24, rng, /*training=*/true);
  EXPECT_LE(ops.value() - before, 5u + 2u * 12u);
  tensor::Sum(h).Backward();
  for (const auto& [name, p] : encoder.Parameters()) {
    EXPECT_FALSE(p.grad().empty()) << name;
  }
}

// --- Rows-selected last layer ----------------------------------------------------

EncoderConfig TrainingConfig() {
  EncoderConfig config;  // d 64, 4 heads, 2 layers, FFN 128, dropout 0.1
  config.vocab_size = 50;
  config.max_len = 24;
  return config;
}

std::vector<int> Ids(int len) {
  std::vector<int> ids(static_cast<size_t>(len));
  for (int i = 0; i < len; ++i) ids[static_cast<size_t>(i)] = 2 + (7 * i) % 45;
  return ids;
}

// [CLS], every row, and two random strictly ascending subsets.
std::vector<std::vector<int>> RowSets(int len, uint64_t seed) {
  std::vector<std::vector<int>> sets = {{0}, {}};
  for (int i = 0; i < len; ++i) sets[1].push_back(i);
  Rng rng(seed);
  for (int trial = 0; trial < 2 && len > 1; ++trial) {
    std::vector<int> subset;
    for (int i = 0; i < len; ++i) {
      if (rng.Bernoulli(0.4)) subset.push_back(i);
    }
    if (subset.empty()) subset.push_back(len - 1);
    sets.push_back(subset);
  }
  return sets;
}

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

// Two accumulating training passes of a fresh encoder over `ids`, reading
// `rows` either by EncodeRows or by gathering them from Encode: each pass's
// rows and the stream's next draw, then every parameter's gradient.
std::vector<std::vector<float>> TrainRows(const std::vector<int>& ids,
                                          const std::vector<int>& rows,
                                          bool selected) {
  Rng init(5);
  TransformerEncoder encoder(TrainingConfig(), init);
  Rng rng(77), weights_rng(78);
  std::vector<std::vector<float>> out;
  const int len = static_cast<int>(ids.size());
  for (int pass = 0; pass < 2; ++pass) {
    Tensor embedded = encoder.Embed(ids, len, {}, rng, /*training=*/true);
    Tensor y = selected ? encoder.EncodeRows(embedded, rows, rng, true)
                        : tensor::GatherRows(encoder.Encode(embedded, rng, true),
                                             rows);
    const Tensor weights = Tensor::Randn(y.shape(), weights_rng);
    tensor::Sum(tensor::Mul(y, weights)).Backward();
    out.push_back(y.data());
    out.push_back({static_cast<float>(rng.NextU64() % 65536)});
  }
  for (const auto& [name, p] : encoder.Parameters()) out.push_back(p.grad());
  return out;
}

TEST(EncoderTest, EncodeRowsIsTheGatheredEncodeBitForBit) {
  const tensor::simd::Backend backend = tensor::simd::ActiveBackend();
  const int threads = tensor::ComputeThreads();
  for (int len : {1, 5, 24}) {
    const std::vector<int> ids = Ids(len);
    for (const std::vector<int>& rows : RowSets(len, 300 + len)) {
      for (tensor::simd::Backend b :
           {tensor::simd::Backend::kScalar, tensor::simd::DetectBackend()}) {
        tensor::simd::ForceBackend(b);
        tensor::SetComputeThreads(1);
        const auto want = TrainRows(ids, rows, /*selected=*/false);
        for (int t : {1, 2, 4}) {
          tensor::SetComputeThreads(t);
          const auto got = TrainRows(ids, rows, /*selected=*/true);
          ASSERT_EQ(got.size(), want.size());
          for (size_t i = 0; i < got.size(); ++i) {
            EXPECT_TRUE(SameBits(got[i], want[i]))
                << "entry " << i << " (0-3: rows and next draw per pass, "
                << "then parameter gradients) L=" << len
                << " rows=" << rows.size() << " on "
                << tensor::simd::BackendName(b) << " at " << t << " threads";
          }
        }
      }
    }
  }
  tensor::simd::ForceBackend(backend);
  tensor::SetComputeThreads(threads);
}

// The [CLS] training forward runs the last layer's Q, attention rows,
// output projection and FFN for one row: its GEMM flops, pinned.
TEST(EncoderTest, ClsTrainingForwardCountsFewerMatmulFlops) {
  const EncoderConfig config = TrainingConfig();
  Rng rng(13);
  TransformerEncoder encoder(config, rng);
  const uint64_t len = 24, d = 64, f = 128, heads = 4, hd = d / heads;
  // One layer's GEMM flops with `rows` query rows over `len` rows.
  const auto layer = [&](uint64_t rows) {
    return 2 * d * d * (2 * rows + 2 * len) + 4 * rows * d * f +
           heads * 4 * rows * len * hd;
  };
  const obs::Counter& flops =
      obs::MetricsRegistry::Global().GetCounter("tensor/matmul_flops");
  const std::vector<int> ids = Ids(24);
  Tensor embedded = encoder.Embed(ids, 24, {}, rng, /*training=*/true);
  uint64_t before = flops.value();
  encoder.Encode(embedded, rng, /*training=*/true);
  const uint64_t full = flops.value() - before;
  before = flops.value();
  encoder.EncodeRows(embedded, {0}, rng, /*training=*/true);
  const uint64_t cls = flops.value() - before;
  EXPECT_EQ(full, 2 * layer(len));
  EXPECT_EQ(cls, layer(len) + layer(1));
  EXPECT_LT(cls, full);
}

// Records each projection's row count, running the encoder's fp32 layers.
class RecordingLinear final : public InferenceLinear {
 public:
  RecordingLinear(const TransformerEncoder& encoder, bool every_row)
      : encoder_(encoder), every_row_(every_row) {}
  void Apply(int layer, Projection p, const float* x, int rows,
             float* out) const override {
    calls.push_back({layer, static_cast<int>(p), rows});
    encoder_.layer(layer).Linear(p).Infer(x, rows, out);
  }
  bool ObservesEveryRow() const override { return every_row_; }
  mutable std::vector<std::array<int, 3>> calls;  // {layer, projection, rows}

 private:
  const TransformerEncoder& encoder_;
  bool every_row_;
};

TEST(EncoderTest, InferClsRunsTheLastLayerForClsAlone) {
  Rng rng(14);
  TransformerEncoder encoder(SmallConfig(), rng);
  const std::vector<int> ids = {2, 20, 21, 22, 23, 24, 3};
  std::vector<float> plain(16), cls_only(16), every(16);
  encoder.InferCls(ids, 7, {}, plain.data());
  RecordingLinear last_cls(encoder, /*every_row=*/false);
  encoder.InferCls(ids, 7, {}, cls_only.data(), &last_cls);
  RecordingLinear all_rows(encoder, /*every_row=*/true);
  encoder.InferCls(ids, 7, {}, every.data(), &all_rows);
  ASSERT_EQ(last_cls.calls.size(), 2u * kProjections);
  for (const auto& [layer, p, rows] : last_cls.calls) {
    const bool shared = p == static_cast<int>(Projection::kKey) ||
                        p == static_cast<int>(Projection::kValue);
    EXPECT_EQ(rows, layer == 1 && !shared ? 1 : 7)
        << "layer " << layer << " projection " << p;
  }
  for (const auto& [layer, p, rows] : all_rows.calls) EXPECT_EQ(rows, 7);
  Rng eval(0);
  const Tensor full = encoder.Forward(ids, 7, eval, /*training=*/false);
  const std::vector<float> row0(full.data().begin(), full.data().begin() + 16);
  EXPECT_TRUE(SameBits(plain, row0));
  EXPECT_TRUE(SameBits(cls_only, row0));
  EXPECT_TRUE(SameBits(every, row0));
}

TEST(EncoderTest, MeanTokenEmbeddingShape) {
  Rng rng(12);
  TransformerEncoder encoder(SmallConfig(), rng);
  Tensor t = encoder.MeanTokenEmbedding({20, 21, 22});
  EXPECT_EQ(t.shape(), (tensor::Shape{1, 16}));
}

TEST(EncoderTest, ParameterCountConsistent) {
  Rng rng(13);
  TransformerEncoder encoder(SmallConfig(), rng);
  auto params = encoder.Parameters();
  std::set<std::string> names;
  for (const auto& [name, t] : params) names.insert(name);
  EXPECT_EQ(names.size(), params.size()) << "duplicate parameter names";
  // token, position, embed norm (2), per layer: attn 8 + norms 4 + ffn 4.
  EXPECT_EQ(params.size(), 2u + 2u + 2u * 16u);
}

// --- AnEnc ----------------------------------------------------------------------------

AnEncConfig SmallAnEnc() {
  AnEncConfig config;
  config.d_model = 16;
  config.num_meta = 4;
  config.num_layers = 2;
  config.lora_rank = 2;
  config.ffn_dim = 32;
  return config;
}

TEST(AnEncTest, OutputShape) {
  Rng rng(14);
  AnEnc anenc(SmallAnEnc(), rng);
  Tensor tag = Tensor::Randn({1, 16}, rng);
  Tensor h = anenc.Forward(tag, 0.7f);
  EXPECT_EQ(h.shape(), (tensor::Shape{1, 16}));
}

TEST(AnEncTest, ValueSensitivity) {
  Rng rng(15);
  AnEnc anenc(SmallAnEnc(), rng);
  Tensor tag = Tensor::Randn({1, 16}, rng);
  Tensor h1 = anenc.Forward(tag, 0.1f);
  Tensor h2 = anenc.Forward(tag, 0.9f);
  float diff = 0;
  for (int j = 0; j < 16; ++j) diff += std::fabs(h1.at(0, j) - h2.at(0, j));
  EXPECT_GT(diff, 1e-4f);
}

TEST(AnEncTest, TagSensitivity) {
  Rng rng(16);
  AnEnc anenc(SmallAnEnc(), rng);
  Tensor tag1 = Tensor::Randn({1, 16}, rng);
  Tensor tag2 = Tensor::Randn({1, 16}, rng);
  Tensor h1 = anenc.Forward(tag1, 0.5f);
  Tensor h2 = anenc.Forward(tag2, 0.5f);
  float diff = 0;
  for (int j = 0; j < 16; ++j) diff += std::fabs(h1.at(0, j) - h2.at(0, j));
  EXPECT_GT(diff, 1e-4f);
}

TEST(AnEncTest, MetaAttentionIsDistribution) {
  Rng rng(17);
  AnEnc anenc(SmallAnEnc(), rng);
  Tensor tag = Tensor::Randn({1, 16}, rng);
  auto attn = anenc.MetaAttention(tag);
  ASSERT_EQ(attn.size(), 4u);
  float total = 0;
  for (float a : attn) {
    EXPECT_GE(a, 0.0f);
    total += a;
  }
  EXPECT_NEAR(total, 1.0f, 1e-5f);
}

TEST(AnEncTest, OrthogonalPenaltySmallAtInit) {
  // Wv matrices start near identity, so the penalty starts near zero and
  // is strictly positive.
  Rng rng(18);
  AnEnc anenc(SmallAnEnc(), rng);
  const float penalty = anenc.OrthogonalPenalty().item();
  EXPECT_GT(penalty, 0.0f);
  EXPECT_LT(penalty, 1.0f);
}

TEST(AnEncTest, GradientsFlowToAllParameters) {
  Rng rng(19);
  AnEnc anenc(SmallAnEnc(), rng);
  Tensor tag = Tensor::Randn({1, 16}, rng);
  tensor::Sum(tensor::Square(anenc.Forward(tag, 0.4f))).Backward();
  int with_grad = 0;
  for (const auto& [name, p] : anenc.Parameters()) {
    if (!p.grad().empty()) {
      float total = 0;
      for (float g : p.grad()) total += std::fabs(g);
      // lora_up starts at zero, so lora_down's gradient is zero at init;
      // count parameters that did receive signal.
      with_grad += total > 0.0f;
    }
  }
  EXPECT_GT(with_grad, 10);
}

TEST(AnEncTest, TrainableToTargetEmbedding) {
  // Sanity: ANEnc can be optimized to map a value to a target vector.
  Rng rng(20);
  AnEnc anenc(SmallAnEnc(), rng);
  Tensor tag = Tensor::Randn({1, 16}, rng);
  Tensor target = Tensor::Randn({1, 16}, rng);
  tensor::Adam opt(0.01f);
  opt.AddParameters(TensorsOf(anenc.Parameters()));
  float first = 0, last = 0;
  for (int step = 0; step < 150; ++step) {
    opt.ZeroGrad();
    Tensor loss = tensor::MseLoss(anenc.Forward(tag, 0.3f), target);
    if (step == 0) first = loss.item();
    last = loss.item();
    loss.Backward();
    opt.Step();
  }
  EXPECT_LT(last, first * 0.5f);
}

TEST(AnEncTest, AdaptsToUnseenTagNames) {
  // The paper's motivating property (Sec. IV-B): because ANEnc routes
  // through attention over meta embeddings instead of per-field weights,
  // value structure learned on known tags transfers to tags never seen in
  // training. Train value-ordering on three tags, then check that a fresh
  // tag's embeddings still order by value.
  Rng rng(50);
  AnEnc anenc(SmallAnEnc(), rng);
  std::vector<Tensor> train_tags;
  for (int t = 0; t < 3; ++t) {
    train_tags.push_back(Tensor::Randn({1, 16}, rng));
  }
  tensor::Adam opt(0.01f);
  opt.AddParameters(TensorsOf(anenc.Parameters()));
  Rng train_rng(51);
  for (int step = 0; step < 120; ++step) {
    opt.ZeroGrad();
    std::vector<Tensor> embeddings;
    std::vector<float> values;
    for (int b = 0; b < 6; ++b) {
      const float v = static_cast<float>(train_rng.Uniform());
      const Tensor& tag =
          train_tags[static_cast<size_t>(train_rng.UniformInt(3))];
      embeddings.push_back(anenc.Forward(tag, v));
      values.push_back(v);
    }
    NumericContrastiveLoss(embeddings, values, 0.1f).Backward();
    opt.Step();
  }
  // Unseen tag: value-neighbors should be closer than value-extremes.
  Tensor unseen = Tensor::Randn({1, 16}, rng);
  auto distance = [&](float a, float b) {
    Tensor ha = anenc.Forward(unseen, a);
    Tensor hb = anenc.Forward(unseen, b);
    double sq = 0;
    for (int j = 0; j < 16; ++j) {
      const double d = ha.at(0, j) - hb.at(0, j);
      sq += d * d;
    }
    return std::sqrt(sq);
  };
  EXPECT_LT(distance(0.4f, 0.5f), distance(0.1f, 0.9f));
}

// --- NumericDecoder / TagClassifier -----------------------------------------------------

TEST(NumericDecoderTest, ScalarOutput) {
  Rng rng(21);
  NumericDecoder ndec(16, rng);
  Tensor h = Tensor::Randn({1, 16}, rng);
  Tensor v = ndec.Forward(h);
  EXPECT_EQ(v.shape(), (tensor::Shape{1}));
}

TEST(TagClassifierTest, LogitShape) {
  Rng rng(22);
  TagClassifier tgc(16, 7, rng);
  Tensor h = Tensor::Randn({1, 16}, rng);
  EXPECT_EQ(tgc.Forward(h).shape(), (tensor::Shape{1, 7}));
  EXPECT_EQ(tgc.num_tags(), 7);
}

// --- AutoWeightedLoss ---------------------------------------------------------------------

TEST(AutoWeightedLossTest, CombinesAndSkipsUndefined) {
  AutoWeightedLoss auto_loss(3);
  Tensor l1 = Tensor::Scalar(2.0f, true);
  Tensor l3 = Tensor::Scalar(1.0f, true);
  Tensor combined = auto_loss.Combine({l1, Tensor(), l3});
  // mu = 1: each term = 0.5 * L / (1 + eps) + log(2).
  const float expected = 0.5f * 2.0f / 1.0001f + std::log(2.0f) +
                         0.5f * 1.0f / 1.0001f + std::log(2.0f);
  EXPECT_NEAR(combined.item(), expected, 1e-3f);
}

TEST(AutoWeightedLossTest, LearnsToDownweightNoisyTask) {
  // Task 0 has large persistent loss, task 1 small: mu_0 should grow
  // beyond mu_1 so the noisy task is downweighted.
  AutoWeightedLoss auto_loss(2);
  tensor::Adam opt(0.05f);
  opt.AddParameters(TensorsOf(auto_loss.Parameters()));
  for (int step = 0; step < 200; ++step) {
    opt.ZeroGrad();
    Tensor noisy = Tensor::Scalar(5.0f);
    Tensor clean = Tensor::Scalar(0.1f);
    auto_loss.Combine({noisy, clean}).Backward();
    opt.Step();
  }
  auto weights = auto_loss.Weights();
  EXPECT_GT(std::fabs(weights[0]), std::fabs(weights[1]));
}

// --- NumericContrastiveLoss ------------------------------------------------------------------

TEST(NumericContrastiveTest, PrefersValueNeighbors) {
  // Embeddings already arranged so that value-neighbors are similar ->
  // loss should be lower than for shuffled embeddings.
  Rng rng(23);
  std::vector<float> values = {0.1f, 0.15f, 0.8f, 0.85f};
  std::vector<Tensor> aligned = {
      Tensor::FromData({1, 4}, {1, 0, 0, 0}),
      Tensor::FromData({1, 4}, {0.9f, 0.1f, 0, 0}),
      Tensor::FromData({1, 4}, {0, 0, 1, 0}),
      Tensor::FromData({1, 4}, {0, 0, 0.9f, 0.1f})};
  std::vector<Tensor> misaligned = {
      Tensor::FromData({1, 4}, {1, 0, 0, 0}),
      Tensor::FromData({1, 4}, {0, 0, 1, 0}),
      Tensor::FromData({1, 4}, {0.9f, 0.1f, 0, 0}),
      Tensor::FromData({1, 4}, {0, 0, 0.9f, 0.1f})};
  const float good = NumericContrastiveLoss(aligned, values, 0.1f).item();
  const float bad = NumericContrastiveLoss(misaligned, values, 0.1f).item();
  EXPECT_LT(good, bad);
}

TEST(NumericContrastiveTest, GradCheck) {
  std::vector<float> values = {0.2f, 0.5f, 0.9f};
  auto fn = [&](const std::vector<Tensor>& in) {
    std::vector<Tensor> rows;
    for (int i = 0; i < 3; ++i) rows.push_back(tensor::SliceRows(in[0], i, 1));
    return NumericContrastiveLoss(rows, values, 0.5f);
  };
  Rng rng(24);
  std::vector<Tensor> leaves = {Tensor::Randn({3, 5}, rng, 1.0f, true)};
  auto result = tensor::CheckGradients(fn, leaves);
  EXPECT_TRUE(result.passed) << result.detail;
}

// --- QuantizedEncoder --------------------------------------------------------

double Cosine(const std::vector<float>& a, const std::vector<float>& b) {
  double dot = 0.0, na = 0.0, nb = 0.0;
  EXPECT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    dot += static_cast<double>(a[i]) * b[i];
    na += static_cast<double>(a[i]) * a[i];
    nb += static_cast<double>(b[i]) * b[i];
  }
  return dot / (std::sqrt(na) * std::sqrt(nb) + 1e-12);
}

text::EncodedInput MakeInput(std::vector<int> ids) {
  text::EncodedInput input;
  input.length = static_cast<int>(ids.size());
  input.ids = std::move(ids);
  return input;
}

TEST(QuantizedLinearTest, MatchesFp32LayerWithinTolerance) {
  Rng rng(31);
  LinearLayer layer(16, 8, rng);
  NamedParams params = layer.Parameters();
  QuantizedLinear qlayer(params[0].second, params[1].second);
  EXPECT_EQ(qlayer.in_dim(), 16);
  EXPECT_EQ(qlayer.out_dim(), 8);

  Tensor x = Tensor::Randn({3, 16}, rng, 1.0f);
  Tensor y = layer.Forward(x);
  std::vector<float> qy(3 * 8);
  qlayer.Forward(x.data().data(), 3, qy.data());
  // Per-column weight + per-row activation scales: worst-case relative
  // error on a 16-wide dot is far under 2% of the activation magnitude.
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 8; ++c) {
      EXPECT_NEAR(qy[static_cast<size_t>(r) * 8 + c], y.at(r, c), 0.05f)
          << "r=" << r << " c=" << c;
    }
  }
}

TEST(QuantizedEncoderTest, ClsCosineCloseToFp32) {
  Rng rng(32);
  TransformerEncoder encoder(SmallConfig(), rng);
  QuantizedEncoder quantized(encoder);
  EXPECT_EQ(quantized.dim(), 16);

  const std::vector<std::vector<int>> sequences = {
      {2, 20, 21, 3}, {2, 15, 16, 17, 3}, {2, 40, 7, 12, 30, 3}, {2, 5, 3}};
  Rng eval(0);
  for (const std::vector<int>& ids : sequences) {
    Tensor fp32 = encoder.Forward(ids, static_cast<int>(ids.size()), eval,
                                  /*training=*/false);
    std::vector<float> cls(fp32.data().begin(), fp32.data().begin() + 16);
    const std::vector<float> int8 = quantized.Encode(MakeInput(ids));
    EXPECT_GE(Cosine(cls, int8), 0.98) << "ids[1]=" << ids[1];
  }
}

TEST(QuantizedEncoderTest, CalibrationKeepsCorpusParity) {
  Rng rng(33);
  TransformerEncoder encoder(SmallConfig(), rng);
  QuantizedEncoder quantized(encoder);

  std::vector<text::EncodedInput> corpus;
  for (int i = 0; i < 6; ++i) {
    corpus.push_back(MakeInput({2, 10 + i, 20 + i, 30 + i, 3}));
  }
  std::vector<const text::EncodedInput*> ptrs;
  std::vector<std::vector<float>> before;
  for (const auto& input : corpus) {
    ptrs.push_back(&input);
    before.push_back(quantized.Encode(input));
  }
  quantized.Calibrate(ptrs);
  // Calibration clips are maxima over this very corpus, so its own
  // quantization grids — and thus its embeddings — are unchanged.
  for (size_t i = 0; i < corpus.size(); ++i) {
    EXPECT_EQ(quantized.Encode(corpus[i]), before[i]) << "input " << i;
  }
}

// The int8 layers of `encoder`, observed and run as Calibrate runs them;
// `every_row` says whether the last layer sees every row or [CLS] alone.
class ObservingLinears final : public InferenceLinear {
 public:
  ObservingLinears(const TransformerEncoder& encoder, bool every_row)
      : every_row_(every_row) {
    for (int l = 0; l < encoder.config().num_layers; ++l) {
      for (int p = 0; p < kProjections; ++p) {
        const LinearLayer& fp32 =
            encoder.layer(l).Linear(static_cast<Projection>(p));
        linears.emplace_back(fp32.weight(), fp32.bias());
      }
    }
  }
  void Apply(int layer, Projection p, const float* x, int rows,
             float* out) const override {
    const QuantizedLinear& linear =
        linears[static_cast<size_t>(layer * kProjections + static_cast<int>(p))];
    linear.Observe(x, rows);
    linear.Forward(x, rows, out);
  }
  bool ObservesEveryRow() const override { return every_row_; }
  std::vector<QuantizedLinear> linears;

 private:
  bool every_row_;
};

// Calibration observes every row: its clips are an every-row forward's
// maxima, though serving runs the last layer for [CLS] alone. A [CLS]-only
// observation would clip the last layer's Q, output and FFN inputs lower.
TEST(QuantizedEncoderTest, CalibrationObservesEveryRow) {
  Rng rng(35);
  TransformerEncoder encoder(SmallConfig(), rng);
  QuantizedEncoder quantized(encoder);
  std::vector<text::EncodedInput> corpus;
  for (int i = 0; i < 6; ++i) {
    corpus.push_back(MakeInput({2, 10 + i, 20 + i, 30 + i, 40 - i, 3}));
  }
  std::vector<const text::EncodedInput*> ptrs;
  for (const auto& input : corpus) ptrs.push_back(&input);
  quantized.Calibrate(ptrs);
  ObservingLinears every_row(encoder, /*every_row=*/true);
  ObservingLinears cls_only(encoder, /*every_row=*/false);
  std::vector<float> cls(16);
  for (const auto& input : corpus) {
    encoder.InferCls(input.ids, input.length, {}, cls.data(), &every_row);
    encoder.InferCls(input.ids, input.length, {}, cls.data(), &cls_only);
  }
  bool cls_only_lower = false;
  for (int l = 0; l < 2; ++l) {
    for (int p = 0; p < kProjections; ++p) {
      const size_t i = static_cast<size_t>(l * kProjections + p);
      every_row.linears[i].FreezeCalibration();
      cls_only.linears[i].FreezeCalibration();
      EXPECT_EQ(quantized.linear(l, static_cast<Projection>(p)).clip(),
                every_row.linears[i].clip())
          << "layer " << l << " projection " << p;
      cls_only_lower = cls_only_lower ||
                       cls_only.linears[i].clip() < every_row.linears[i].clip();
    }
  }
  EXPECT_TRUE(cls_only_lower);
}

TEST(QuantizedEncoderTest, OverrideHookReplacesEmbeddingRows) {
  Rng rng(34);
  TransformerEncoder encoder(SmallConfig(), rng);
  QuantizedEncoder plain(encoder);
  int hook_calls = 0;
  QuantizedEncoder hooked(
      encoder, [&hook_calls](const text::EncodedInput& input) {
        ++hook_calls;
        std::vector<std::pair<int, std::vector<float>>> overrides;
        if (!input.numeric_slots.empty()) {
          overrides.emplace_back(input.numeric_slots[0].position,
                                 std::vector<float>(16, 0.5f));
        }
        return overrides;
      });

  text::EncodedInput with_slot = MakeInput({2, 20, 12, 3});
  with_slot.numeric_slots.push_back({2, "kpi", {20}, 0.7f});
  const std::vector<float> overridden = hooked.Encode(with_slot);
  EXPECT_EQ(hook_calls, 1);
  EXPECT_NE(overridden, plain.Encode(with_slot));

  // No numeric slots: the hook returns nothing and the outputs agree.
  text::EncodedInput no_slot = MakeInput({2, 20, 12, 3});
  EXPECT_EQ(hooked.Encode(no_slot), plain.Encode(no_slot));
}

}  // namespace
}  // namespace core
}  // namespace telekit
