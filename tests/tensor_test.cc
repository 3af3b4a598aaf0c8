#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <thread>

#include "common/rng.h"
#include "obs/metrics.h"
#include "tensor/compute_pool.h"
#include "tensor/ops.h"
#include "tensor/simd.h"
#include "tensor/serialize.h"
#include "tensor/tensor.h"

namespace telekit {
namespace tensor {
namespace {

// --- Construction --------------------------------------------------------------

TEST(TensorTest, ZerosShapeAndValues) {
  Tensor t = Tensor::Zeros({2, 3});
  EXPECT_EQ(t.rank(), 2);
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_EQ(t.dim(1), 3);
  EXPECT_EQ(t.size(), 6);
  for (int64_t i = 0; i < t.size(); ++i) EXPECT_EQ(t.at(i), 0.0f);
}

TEST(TensorTest, FullAndOnes) {
  EXPECT_EQ(Tensor::Ones({4}).at(3), 1.0f);
  EXPECT_EQ(Tensor::Full({2, 2}, -2.5f).at(1, 1), -2.5f);
}

TEST(TensorTest, FromDataRowMajor) {
  Tensor t = Tensor::FromData({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(t.at(0, 0), 1.0f);
  EXPECT_EQ(t.at(0, 1), 2.0f);
  EXPECT_EQ(t.at(1, 0), 3.0f);
  EXPECT_EQ(t.at(1, 1), 4.0f);
}

TEST(TensorTest, ScalarItem) {
  EXPECT_FLOAT_EQ(Tensor::Scalar(3.25f).item(), 3.25f);
}

TEST(TensorTest, NegativeDimIndexing) {
  Tensor t = Tensor::Zeros({5, 7});
  EXPECT_EQ(t.dim(-1), 7);
  EXPECT_EQ(t.dim(-2), 5);
}

TEST(TensorTest, RandnStats) {
  Rng rng(1);
  Tensor t = Tensor::Randn({100, 100}, rng, 2.0f);
  double sum = 0, sq = 0;
  for (float v : t.data()) {
    sum += v;
    sq += v * v;
  }
  const double n = static_cast<double>(t.size());
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(std::sqrt(sq / n), 2.0, 0.05);
}

TEST(TensorTest, EyeIsIdentity) {
  Tensor eye = Tensor::Eye(3);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      EXPECT_EQ(eye.at(i, j), i == j ? 1.0f : 0.0f);
    }
  }
}

TEST(TensorTest, GlorotWithinLimit) {
  Rng rng(2);
  Tensor w = Tensor::GlorotUniform(30, 40, rng);
  const float limit = std::sqrt(6.0f / 70.0f);
  for (float v : w.data()) {
    EXPECT_GE(v, -limit);
    EXPECT_LT(v, limit);
  }
}

TEST(TensorTest, CopyAliasesStorage) {
  Tensor a = Tensor::Zeros({2});
  Tensor b = a;
  b.mutable_data()[0] = 9.0f;
  EXPECT_EQ(a.at(static_cast<int64_t>(0)), 9.0f);
}

TEST(TensorTest, DetachCopies) {
  Tensor a = Tensor::Ones({2}, /*requires_grad=*/true);
  Tensor d = a.Detach();
  EXPECT_FALSE(d.requires_grad());
  d.mutable_data()[0] = 5.0f;
  EXPECT_EQ(a.at(static_cast<int64_t>(0)), 1.0f);
}

// --- Forward ops -----------------------------------------------------------------

TEST(OpsTest, MatMulKnownValues) {
  Tensor a = Tensor::FromData({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromData({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 2}));
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(OpsTest, MatMulIdentity) {
  Rng rng(3);
  Tensor a = Tensor::Randn({4, 4}, rng);
  Tensor c = MatMul(a, Tensor::Eye(4));
  for (int64_t i = 0; i < a.size(); ++i) EXPECT_FLOAT_EQ(c.at(i), a.at(i));
}

TEST(OpsTest, TransposeValues) {
  Tensor a = Tensor::FromData({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor t = Transpose(a);
  EXPECT_EQ(t.shape(), (Shape{3, 2}));
  EXPECT_FLOAT_EQ(t.at(0, 1), 4.0f);
  EXPECT_FLOAT_EQ(t.at(2, 0), 3.0f);
}

TEST(OpsTest, ReshapePreservesData) {
  Tensor a = Tensor::FromData({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = Reshape(a, {6});
  EXPECT_EQ(r.rank(), 1);
  EXPECT_FLOAT_EQ(r.at(static_cast<int64_t>(5)), 6.0f);
}

TEST(OpsTest, AddSameShape) {
  Tensor a = Tensor::FromData({2}, {1, 2});
  Tensor b = Tensor::FromData({2}, {10, 20});
  Tensor c = Add(a, b);
  EXPECT_FLOAT_EQ(c.at(static_cast<int64_t>(0)), 11.0f);
  EXPECT_FLOAT_EQ(c.at(static_cast<int64_t>(1)), 22.0f);
}

TEST(OpsTest, AddRowBroadcast) {
  Tensor a = Tensor::FromData({2, 2}, {1, 2, 3, 4});
  Tensor bias = Tensor::FromData({2}, {10, 100});
  Tensor c = Add(a, bias);
  EXPECT_FLOAT_EQ(c.at(0, 0), 11.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 102.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 13.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 104.0f);
}

TEST(OpsTest, AddScalarBroadcast) {
  Tensor a = Tensor::FromData({2, 2}, {1, 2, 3, 4});
  Tensor s = Tensor::Scalar(5.0f);
  Tensor c = Add(a, s);
  EXPECT_FLOAT_EQ(c.at(1, 1), 9.0f);
}

TEST(OpsTest, SubMulDiv) {
  Tensor a = Tensor::FromData({3}, {6, 8, 10});
  Tensor b = Tensor::FromData({3}, {2, 4, 5});
  EXPECT_FLOAT_EQ(Sub(a, b).at(static_cast<int64_t>(0)), 4.0f);
  EXPECT_FLOAT_EQ(Mul(a, b).at(static_cast<int64_t>(1)), 32.0f);
  EXPECT_FLOAT_EQ(Div(a, b).at(static_cast<int64_t>(2)), 2.0f);
}

TEST(OpsTest, ScalarArithmetic) {
  Tensor a = Tensor::FromData({2}, {1, -2});
  EXPECT_FLOAT_EQ(AddScalar(a, 3.0f).at(static_cast<int64_t>(1)), 1.0f);
  EXPECT_FLOAT_EQ(MulScalar(a, -2.0f).at(static_cast<int64_t>(0)), -2.0f);
  EXPECT_FLOAT_EQ(Neg(a).at(static_cast<int64_t>(1)), 2.0f);
}

TEST(OpsTest, ActivationValues) {
  Tensor x = Tensor::FromData({3}, {-1.0f, 0.0f, 2.0f});
  Tensor r = Relu(x);
  EXPECT_FLOAT_EQ(r.at(static_cast<int64_t>(0)), 0.0f);
  EXPECT_FLOAT_EQ(r.at(static_cast<int64_t>(2)), 2.0f);
  Tensor s = Sigmoid(Tensor::Scalar(0.0f));
  EXPECT_FLOAT_EQ(s.item(), 0.5f);
  Tensor t = Tanh(Tensor::Scalar(100.0f));
  EXPECT_NEAR(t.item(), 1.0f, 1e-6f);
  // GELU(0)=0, GELU(large) ~ identity.
  EXPECT_NEAR(Gelu(Tensor::Scalar(0.0f)).item(), 0.0f, 1e-6f);
  EXPECT_NEAR(Gelu(Tensor::Scalar(10.0f)).item(), 10.0f, 1e-3f);
}

TEST(OpsTest, LogSigmoidStable) {
  EXPECT_NEAR(LogSigmoid(Tensor::Scalar(0.0f)).item(), std::log(0.5f), 1e-6f);
  // Very negative input must not overflow to -inf incorrectly.
  const float v = LogSigmoid(Tensor::Scalar(-50.0f)).item();
  EXPECT_NEAR(v, -50.0f, 1e-3f);
  EXPECT_NEAR(LogSigmoid(Tensor::Scalar(50.0f)).item(), 0.0f, 1e-6f);
}

TEST(OpsTest, ExpLogSqrtSquare) {
  EXPECT_NEAR(Exp(Tensor::Scalar(1.0f)).item(), std::exp(1.0f), 1e-5f);
  EXPECT_NEAR(Log(Tensor::Scalar(std::exp(2.0f))).item(), 2.0f, 1e-5f);
  EXPECT_FLOAT_EQ(Sqrt(Tensor::Scalar(9.0f)).item(), 3.0f);
  EXPECT_FLOAT_EQ(Square(Tensor::Scalar(-3.0f)).item(), 9.0f);
}

TEST(OpsTest, Reductions) {
  Tensor a = Tensor::FromData({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_FLOAT_EQ(Sum(a).item(), 21.0f);
  EXPECT_FLOAT_EQ(Mean(a).item(), 3.5f);
  Tensor mr = MeanRows(a);
  EXPECT_EQ(mr.shape(), (Shape{3}));
  EXPECT_FLOAT_EQ(mr.at(static_cast<int64_t>(0)), 2.5f);
  EXPECT_FLOAT_EQ(mr.at(static_cast<int64_t>(2)), 4.5f);
  Tensor sc = SumCols(a);
  EXPECT_EQ(sc.shape(), (Shape{2}));
  EXPECT_FLOAT_EQ(sc.at(static_cast<int64_t>(0)), 6.0f);
  EXPECT_FLOAT_EQ(sc.at(static_cast<int64_t>(1)), 15.0f);
}

TEST(OpsTest, SoftmaxRowsSumToOne) {
  Tensor a = Tensor::FromData({2, 3}, {1, 2, 3, -1, 0, 1});
  Tensor s = Softmax(a);
  for (int i = 0; i < 2; ++i) {
    float total = 0;
    for (int j = 0; j < 3; ++j) total += s.at(i, j);
    EXPECT_NEAR(total, 1.0f, 1e-6f);
  }
  // Monotone in logits.
  EXPECT_GT(s.at(0, 2), s.at(0, 0));
}

TEST(OpsTest, SoftmaxShiftInvariant) {
  Tensor a = Tensor::FromData({1, 3}, {1, 2, 3});
  Tensor b = Tensor::FromData({1, 3}, {1001, 1002, 1003});
  Tensor sa = Softmax(a), sb = Softmax(b);
  for (int j = 0; j < 3; ++j) EXPECT_NEAR(sa.at(0, j), sb.at(0, j), 1e-6f);
}

TEST(OpsTest, LayerNormNormalizes) {
  Rng rng(5);
  Tensor x = Tensor::Randn({4, 16}, rng, 3.0f);
  Tensor g = Tensor::Ones({16});
  Tensor b = Tensor::Zeros({16});
  Tensor y = LayerNorm(x, g, b);
  for (int i = 0; i < 4; ++i) {
    float mean = 0, var = 0;
    for (int j = 0; j < 16; ++j) mean += y.at(i, j);
    mean /= 16;
    for (int j = 0; j < 16; ++j) {
      var += (y.at(i, j) - mean) * (y.at(i, j) - mean);
    }
    var /= 16;
    EXPECT_NEAR(mean, 0.0f, 1e-4f);
    EXPECT_NEAR(var, 1.0f, 1e-2f);
  }
}

TEST(OpsTest, LayerNormGainBiasApplied) {
  Tensor x = Tensor::FromData({1, 2}, {-1, 1});
  Tensor g = Tensor::FromData({2}, {2, 2});
  Tensor b = Tensor::FromData({2}, {10, 10});
  Tensor y = LayerNorm(x, g, b);
  EXPECT_NEAR(y.at(0, 0), 10.0f - 2.0f, 1e-3f);
  EXPECT_NEAR(y.at(0, 1), 10.0f + 2.0f, 1e-3f);
}

TEST(OpsTest, DropoutEvalIsIdentity) {
  Rng rng(6);
  Tensor x = Tensor::Ones({10});
  Tensor y = Dropout(x, 0.5f, rng, /*training=*/false);
  for (int64_t i = 0; i < 10; ++i) EXPECT_EQ(y.at(i), 1.0f);
}

TEST(OpsTest, DropoutTrainZerosAndRescales) {
  Rng rng(7);
  Tensor x = Tensor::Ones({2000});
  Tensor y = Dropout(x, 0.25f, rng, /*training=*/true);
  int zeros = 0;
  double total = 0;
  for (int64_t i = 0; i < y.size(); ++i) {
    const float v = y.at(i);
    EXPECT_TRUE(v == 0.0f || std::fabs(v - 1.0f / 0.75f) < 1e-6f);
    zeros += (v == 0.0f);
    total += v;
  }
  EXPECT_NEAR(zeros / 2000.0, 0.25, 0.05);
  EXPECT_NEAR(total / 2000.0, 1.0, 0.05);  // expectation preserved
}

TEST(OpsTest, ConcatRows) {
  Tensor a = Tensor::FromData({1, 2}, {1, 2});
  Tensor b = Tensor::FromData({2, 2}, {3, 4, 5, 6});
  Tensor c = ConcatRows({a, b});
  EXPECT_EQ(c.shape(), (Shape{3, 2}));
  EXPECT_FLOAT_EQ(c.at(2, 1), 6.0f);
}

TEST(OpsTest, ConcatRowsRank1AsRow) {
  Tensor a = Tensor::FromData({3}, {1, 2, 3});
  Tensor b = Tensor::FromData({3}, {4, 5, 6});
  Tensor c = ConcatRows({a, b});
  EXPECT_EQ(c.shape(), (Shape{2, 3}));
  EXPECT_FLOAT_EQ(c.at(1, 0), 4.0f);
}

TEST(OpsTest, ConcatCols) {
  Tensor a = Tensor::FromData({2, 1}, {1, 2});
  Tensor b = Tensor::FromData({2, 2}, {3, 4, 5, 6});
  Tensor c = ConcatCols({a, b});
  EXPECT_EQ(c.shape(), (Shape{2, 3}));
  EXPECT_FLOAT_EQ(c.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(c.at(0, 2), 4.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 5.0f);
}

TEST(OpsTest, ConcatVec) {
  Tensor c = ConcatVec({Tensor::FromData({2}, {1, 2}),
                        Tensor::FromData({1}, {3})});
  EXPECT_EQ(c.shape(), (Shape{3}));
  EXPECT_FLOAT_EQ(c.at(static_cast<int64_t>(2)), 3.0f);
}

TEST(OpsTest, SliceRowsAndCols) {
  Tensor a = Tensor::FromData({3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  Tensor r = SliceRows(a, 1, 2);
  EXPECT_EQ(r.shape(), (Shape{2, 3}));
  EXPECT_FLOAT_EQ(r.at(0, 0), 4.0f);
  Tensor c = SliceCols(a, 1, 1);
  EXPECT_EQ(c.shape(), (Shape{3, 1}));
  EXPECT_FLOAT_EQ(c.at(2, 0), 8.0f);
}

TEST(OpsTest, GatherRowsWithDuplicates) {
  Tensor a = Tensor::FromData({3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor g = GatherRows(a, {2, 0, 2});
  EXPECT_EQ(g.shape(), (Shape{3, 2}));
  EXPECT_FLOAT_EQ(g.at(0, 0), 5.0f);
  EXPECT_FLOAT_EQ(g.at(1, 1), 2.0f);
  EXPECT_FLOAT_EQ(g.at(2, 1), 6.0f);
}

TEST(OpsTest, RowExtracts) {
  Tensor a = Tensor::FromData({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = Row(a, 1);
  EXPECT_EQ(r.shape(), (Shape{3}));
  EXPECT_FLOAT_EQ(r.at(static_cast<int64_t>(2)), 6.0f);
}

TEST(OpsTest, L2NormalizeRowsUnitNorm) {
  Tensor a = Tensor::FromData({2, 2}, {3, 4, 0, 5});
  Tensor n = L2NormalizeRows(a);
  EXPECT_NEAR(n.at(0, 0), 0.6f, 1e-5f);
  EXPECT_NEAR(n.at(0, 1), 0.8f, 1e-5f);
  EXPECT_NEAR(n.at(1, 1), 1.0f, 1e-5f);
}

TEST(OpsTest, EmbeddingLookup) {
  Tensor table = Tensor::FromData({3, 2}, {0, 1, 10, 11, 20, 21});
  Tensor e = EmbeddingLookup(table, {1, 1, 2});
  EXPECT_EQ(e.shape(), (Shape{3, 2}));
  EXPECT_FLOAT_EQ(e.at(0, 1), 11.0f);
  EXPECT_FLOAT_EQ(e.at(2, 0), 20.0f);
}

// --- Losses ---------------------------------------------------------------------

TEST(LossTest, CrossEntropyUniformLogits) {
  Tensor logits = Tensor::Zeros({2, 4});
  Tensor loss = CrossEntropyWithLogits(logits, {0, 3});
  EXPECT_NEAR(loss.item(), std::log(4.0f), 1e-5f);
}

TEST(LossTest, CrossEntropyIgnoresMinusOne) {
  Tensor logits = Tensor::FromData({2, 2}, {100, 0, 0, 100});
  // Second row ignored; first row is (almost) perfectly correct.
  Tensor loss = CrossEntropyWithLogits(logits, {0, -1});
  EXPECT_NEAR(loss.item(), 0.0f, 1e-5f);
}

TEST(LossTest, CrossEntropyPenalizesWrongLabel) {
  Tensor logits = Tensor::FromData({1, 2}, {10, -10});
  const float good = CrossEntropyWithLogits(logits, {0}).item();
  const float bad = CrossEntropyWithLogits(logits, {1}).item();
  EXPECT_LT(good, 1e-4f);
  EXPECT_GT(bad, 10.0f);
}

TEST(LossTest, BceWithLogitsSymmetry) {
  Tensor z = Tensor::FromData({1}, {0.0f});
  EXPECT_NEAR(BceWithLogits(z, {1.0f}).item(), std::log(2.0f), 1e-5f);
  EXPECT_NEAR(BceWithLogits(z, {0.0f}).item(), std::log(2.0f), 1e-5f);
}

TEST(LossTest, LogisticLossCorrectSide) {
  Tensor s = Tensor::FromData({2}, {5.0f, -5.0f});
  // Correctly classified pairs have tiny loss.
  EXPECT_LT(LogisticLoss(s, {1.0f, -1.0f}).item(), 0.01f);
  // Misclassified pairs have large loss.
  EXPECT_GT(LogisticLoss(s, {-1.0f, 1.0f}).item(), 4.0f);
}

TEST(LossTest, MseZeroForEqual) {
  Tensor a = Tensor::FromData({3}, {1, 2, 3});
  EXPECT_FLOAT_EQ(MseLoss(a, a.Detach()).item(), 0.0f);
  Tensor b = Tensor::FromData({3}, {2, 3, 4});
  EXPECT_FLOAT_EQ(MseLoss(a, b).item(), 1.0f);
}

// --- Serialization -----------------------------------------------------------------

TEST(SerializeTest, SaveLoadRoundTrip) {
  const std::string path = ::testing::TempDir() + "/tensors.bin";
  TensorMap tensors;
  tensors["w"] = Tensor::FromData({2, 3}, {1, 2, 3, 4, 5, 6});
  tensors["b"] = Tensor::FromData({3}, {-1, 0, 1});
  ASSERT_TRUE(SaveTensorMap(tensors, path).ok());
  auto loaded = LoadTensorMap(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 2u);
  EXPECT_EQ(loaded->at("w").shape(), (Shape{2, 3}));
  EXPECT_FLOAT_EQ(loaded->at("w").at(1, 2), 6.0f);
  EXPECT_FLOAT_EQ(loaded->at("b").at(static_cast<int64_t>(0)), -1.0f);
  std::remove(path.c_str());
}

TEST(SerializeTest, LoadMissingFileFails) {
  auto loaded = LoadTensorMap("/nonexistent/path/x.bin");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(SerializeTest, RestoreIntoMatchingModel) {
  const std::string path = ::testing::TempDir() + "/restore.bin";
  TensorMap saved;
  saved["w"] = Tensor::FromData({2}, {7, 8});
  ASSERT_TRUE(SaveTensorMap(saved, path).ok());
  auto loaded = LoadTensorMap(path);
  ASSERT_TRUE(loaded.ok());
  TensorMap target;
  target["w"] = Tensor::Zeros({2}, /*requires_grad=*/true);
  ASSERT_TRUE(RestoreInto(*loaded, target).ok());
  EXPECT_FLOAT_EQ(target["w"].at(static_cast<int64_t>(1)), 8.0f);
  EXPECT_TRUE(target["w"].requires_grad());  // grad flag survives restore
  std::remove(path.c_str());
}

TEST(SerializeTest, RestoreShapeMismatchFails) {
  TensorMap source;
  source["w"] = Tensor::Zeros({2});
  TensorMap target;
  target["w"] = Tensor::Zeros({3});
  EXPECT_FALSE(RestoreInto(source, target).ok());
}

TEST(SerializeTest, RestoreMissingNameFails) {
  TensorMap source;
  TensorMap target;
  target["w"] = Tensor::Zeros({1});
  EXPECT_EQ(RestoreInto(source, target).code(), StatusCode::kNotFound);
}

// --- Row-wise op rank contract ----------------------------------------------

// Tensor constructors reject rank >= 3 up front, so reaching the row-wise
// ops with a bad rank requires wrapping a raw node — exactly what the ops'
// own checks defend against (they previously mis-strode such input as one
// flat row).
Tensor Rank3Tensor() {
  auto node = std::make_shared<internal::Node>();
  node->shape = {2, 3, 4};
  node->value.assign(24, 0.0f);
  return Tensor::FromNode(node);
}

TEST(OpsDeathTest, ConstructorRejectsRank3) {
  EXPECT_DEATH(Tensor::Zeros({2, 3, 4}), "rank <= 2");
}

TEST(OpsDeathTest, SoftmaxRejectsRank3) {
  EXPECT_DEATH(Softmax(Rank3Tensor()), "rank <= 2");
}

TEST(OpsDeathTest, LayerNormRejectsRank3) {
  Tensor gain = Tensor::Ones({4});
  Tensor bias = Tensor::Zeros({4});
  EXPECT_DEATH(LayerNorm(Rank3Tensor(), gain, bias, 1e-5f), "rank <= 2");
}

TEST(OpsDeathTest, L2NormalizeRowsRejectsRank3) {
  EXPECT_DEATH(L2NormalizeRows(Rank3Tensor(), 1e-6f), "rank <= 2");
}

// --- ComputePool determinism --------------------------------------------------

// Regions the ComputePool has fanned out so far (tensor/parallel_regions).
uint64_t ParallelRegions() {
  return obs::MetricsRegistry::Global()
      .GetCounter("tensor/parallel_regions")
      .value();
}

// Forward values + leaf gradients from one composite graph: tiled MatMul
// (forward and both backward transposes), Softmax, LayerNorm, GELU/Sigmoid
// and the elementwise broadcasts, the embedding gather/scatter with
// duplicate rows, and L2NormalizeRows. Only its MatMuls fan out over the
// pool (each is above the GEMM's two-chunk floor); the other kernels are
// plain loops at every thread count.
struct OpSuiteResult {
  std::vector<std::vector<float>> values;
  std::vector<std::vector<float>> grads;

  bool BitIdentical(const OpSuiteResult& other) const {
    if (values.size() != other.values.size() ||
        grads.size() != other.grads.size()) {
      return false;
    }
    auto same = [](const std::vector<float>& x, const std::vector<float>& y) {
      return x.size() == y.size() &&
             std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
    };
    for (size_t i = 0; i < values.size(); ++i) {
      if (!same(values[i], other.values[i])) return false;
    }
    for (size_t i = 0; i < grads.size(); ++i) {
      if (!same(grads[i], other.grads[i])) return false;
    }
    return true;
  }
};

OpSuiteResult RunOpSuite() {
  constexpr int kDim = 160;
  Rng rng(7);
  Tensor a = Tensor::Randn({kDim, kDim}, rng, 1.0f, true);
  Tensor b = Tensor::Randn({kDim, kDim}, rng, 1.0f, true);
  Tensor gain = Tensor::Randn({kDim}, rng, 1.0f, true);
  Tensor bias = Tensor::Randn({kDim}, rng, 1.0f, true);
  Tensor row = Tensor::Randn({kDim}, rng, 1.0f, true);
  Tensor table = Tensor::Randn({50, kDim}, rng, 1.0f, true);

  Tensor h = MatMul(a, b);
  Tensor hr = Add(h, row);  // kRow broadcast
  Tensor act = Gelu(hr);
  Tensor ln = LayerNorm(act, gain, bias, 1e-5f);
  Tensor sm = Softmax(ln);
  std::vector<int> indices;
  for (int i = 0; i < 1000; ++i) indices.push_back((i * 7) % 50);  // dups
  Tensor gathered = GatherRows(table, indices);
  Tensor cov = MatMul(Transpose(gathered), gathered);  // [kDim, kDim]
  Tensor mixed = Mul(sm, Sigmoid(MulScalar(cov, 0.01f)));  // kSame
  Tensor normed = L2NormalizeRows(mixed, 1e-6f);
  Tensor loss = Add(Mean(Square(normed)), Mean(Mul(normed, act)));
  loss.Backward();

  OpSuiteResult result;
  result.values = {h.data(),  act.data(),    ln.data(),  sm.data(),
                   cov.data(), normed.data(), loss.data()};
  result.grads = {a.grad(),   b.grad(),   gain.grad(),
                  bias.grad(), row.grad(), table.grad()};
  return result;
}

TEST(ComputePoolTest, OpSuiteBitIdenticalAcrossThreadCounts) {
  const int previous = ComputeThreads();
  SetComputeThreads(1);
  const OpSuiteResult serial = RunOpSuite();
  for (int threads : {2, 4}) {
    SetComputeThreads(threads);
    const uint64_t regions = ParallelRegions();
    const OpSuiteResult parallel = RunOpSuite();
    EXPECT_GT(ParallelRegions(), regions) << "threads=" << threads;
    EXPECT_TRUE(parallel.BitIdentical(serial))
        << "results diverged at compute_threads=" << threads;
  }
  SetComputeThreads(previous);
}

TEST(ComputePoolTest, RepeatedRunsAreDeterministic) {
  const int previous = ComputeThreads();
  SetComputeThreads(4);
  const OpSuiteResult first = RunOpSuite();
  const OpSuiteResult second = RunOpSuite();
  EXPECT_TRUE(first.BitIdentical(second));
  SetComputeThreads(previous);
}

TEST(ComputePoolTest, SetComputeThreadsRoundTrips) {
  const int previous = ComputeThreads();
  SetComputeThreads(3);
  EXPECT_EQ(ComputeThreads(), 3);
  SetComputeThreads(0);  // back to env / hardware default
  EXPECT_GE(ComputeThreads(), 1);
  SetComputeThreads(previous);
}

// Two threads multiply above the floor at once: one owns the pool, the
// other's regions run inline (the try-lock fallback); both keep the serial
// bits. Under TSan this is the suite's check of concurrent callers.
TEST(ComputePoolTest, ConcurrentMatMulsKeepSerialBits) {
  const int previous = ComputeThreads();
  Rng rng(29);
  std::vector<Tensor> as, bs;
  for (int t = 0; t < 2; ++t) {
    as.push_back(Tensor::Randn({128, 96}, rng, 1.0f));
    bs.push_back(Tensor::Randn({96, 160}, rng, 1.0f));
  }
  SetComputeThreads(1);
  std::vector<std::vector<float>> serial;
  for (int t = 0; t < 2; ++t) serial.push_back(MatMul(as[t], bs[t]).data());
  SetComputeThreads(4);
  const uint64_t regions = ParallelRegions();
  std::vector<int> mismatches(2, 0);
  std::vector<std::thread> callers;
  for (int t = 0; t < 2; ++t) {
    callers.emplace_back([&, t] {
      for (int rep = 0; rep < 50; ++rep) {
        if (MatMul(as[t], bs[t]).data() != serial[t]) ++mismatches[t];
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  EXPECT_GT(ParallelRegions(), regions);
  EXPECT_EQ(mismatches[0], 0);
  EXPECT_EQ(mismatches[1], 0);
  SetComputeThreads(previous);
}

TEST(ComputePoolTest, MatMulKnownValuesUnderThreads) {
  const int previous = ComputeThreads();
  SetComputeThreads(4);
  Tensor a = Tensor::FromData({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromData({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
  SetComputeThreads(previous);
}

// --- simd kernels ------------------------------------------------------------

/// Restores the process-wide backend on scope exit so SIMD tests cannot
/// leak a forced backend into later tests.
class BackendGuard {
 public:
  BackendGuard() : previous_(simd::ActiveBackend()) {}
  ~BackendGuard() { simd::ForceBackend(previous_); }

 private:
  simd::Backend previous_;
};

std::vector<float> RandomVec(int n, Rng& rng) {
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) x = static_cast<float>(rng.Normal(0.0, 1.0));
  return v;
}

// Sizes straddling the 8-lane AVX2 / 4-lane NEON width: remainder lanes,
// single element, exactly one vector, just over/under a vector.
const int kSimdSizes[] = {1, 3, 7, 8, 9, 16, 31, 100};

TEST(SimdKernelTest, VectorBackendAgreesWithScalarWithinEps) {
  if (simd::DetectBackend() == simd::Backend::kScalar) {
    GTEST_SKIP() << "no vector backend on this CPU/build";
  }
  BackendGuard guard;
  Rng rng(11);
  for (int n : kSimdSizes) {
    const std::vector<float> a = RandomVec(n, rng);
    const std::vector<float> b = RandomVec(n, rng);

    simd::ForceBackend(simd::Backend::kScalar);
    const float dot_s = simd::Dot(a.data(), b.data(), n);
    const float max_s = simd::ReduceMax(a.data(), n);
    const float sum_s = simd::ReduceSum(a.data(), n);
    const float ssq_s = simd::ReduceSumSqDiff(a.data(), 0.25f, n);
    std::vector<float> add_s(a.size()), axpy_s = b;
    simd::Add(a.data(), b.data(), add_s.data(), n);
    simd::Axpy(0.5f, a.data(), axpy_s.data(), n);

    simd::ForceBackend(simd::DetectBackend());
    const float dot_v = simd::Dot(a.data(), b.data(), n);
    const float max_v = simd::ReduceMax(a.data(), n);
    const float sum_v = simd::ReduceSum(a.data(), n);
    const float ssq_v = simd::ReduceSumSqDiff(a.data(), 0.25f, n);
    std::vector<float> add_v(a.size()), axpy_v = b;
    simd::Add(a.data(), b.data(), add_v.data(), n);
    simd::Axpy(0.5f, a.data(), axpy_v.data(), n);

    // Reductions reassociate into lanes: epsilon-bounded, not bit-equal.
    const float eps = 1e-4f * static_cast<float>(n);
    EXPECT_NEAR(dot_v, dot_s, eps) << "n=" << n;
    EXPECT_NEAR(sum_v, sum_s, eps) << "n=" << n;
    EXPECT_NEAR(ssq_v, ssq_s, eps) << "n=" << n;
    // Max is order-independent: bit-equal.
    EXPECT_EQ(max_v, max_s) << "n=" << n;
    // Per-element ops are bit-exact across backends...
    EXPECT_EQ(add_v, add_s) << "n=" << n;
    // ...except Axpy, where FMA fuses the multiply-add rounding.
    for (size_t i = 0; i < axpy_s.size(); ++i) {
      EXPECT_NEAR(axpy_v[i], axpy_s[i], 1e-5f) << "n=" << n << " i=" << i;
    }
  }
}

TEST(SimdKernelTest, ElementwiseKernelsBitExactAcrossBackends) {
  if (simd::DetectBackend() == simd::Backend::kScalar) {
    GTEST_SKIP() << "no vector backend on this CPU/build";
  }
  BackendGuard guard;
  Rng rng(12);
  for (int n : kSimdSizes) {
    const std::vector<float> a = RandomVec(n, rng);
    const std::vector<float> b = RandomVec(n, rng);
    std::vector<float> s(a.size()), v(a.size());

    const auto run_both = [&](auto kernel) {
      simd::ForceBackend(simd::Backend::kScalar);
      kernel(s.data());
      simd::ForceBackend(simd::DetectBackend());
      kernel(v.data());
      EXPECT_EQ(s, v) << "n=" << n;
    };
    run_both([&](float* out) { simd::Sub(a.data(), b.data(), out, n); });
    run_both([&](float* out) { simd::Mul(a.data(), b.data(), out, n); });
    run_both([&](float* out) { simd::ScaleTo(a.data(), 1.5f, out, n); });
    run_both([&](float* out) { simd::AddScalarTo(a.data(), -0.75f, out, n); });
    run_both([&](float* out) { simd::ReluTo(a.data(), out, n); });
  }
}

TEST(SimdKernelTest, EmptyInputsAreSafe) {
  BackendGuard guard;
  std::vector<float> out(1, 42.0f);
  EXPECT_EQ(simd::Dot(out.data(), out.data(), 0), 0.0f);
  EXPECT_EQ(simd::ReduceSum(out.data(), 0), 0.0f);
  simd::Add(out.data(), out.data(), out.data(), 0);
  simd::Axpy(2.0f, out.data(), out.data(), 0);
  EXPECT_EQ(out[0], 42.0f);
  EXPECT_EQ(simd::DotI8(nullptr, nullptr, 0), 0);
}

TEST(SimdKernelTest, NormalizeAffineMatchesScalarLayerNormPath) {
  if (simd::DetectBackend() == simd::Backend::kScalar) {
    GTEST_SKIP() << "no vector backend on this CPU/build";
  }
  BackendGuard guard;
  Rng rng(13);
  for (int n : kSimdSizes) {
    const std::vector<float> x = RandomVec(n, rng);
    const std::vector<float> gain = RandomVec(n, rng);
    const std::vector<float> bias = RandomVec(n, rng);
    const float mean = simd::ReduceSum(x.data(), n) / static_cast<float>(n);
    const float istd = 0.8f;
    std::vector<float> xhat_s(x.size()), out_s(x.size());
    std::vector<float> xhat_v(x.size()), out_v(x.size());
    simd::ForceBackend(simd::Backend::kScalar);
    simd::NormalizeAffine(x.data(), mean, istd, gain.data(), bias.data(),
                          xhat_s.data(), out_s.data(), n);
    simd::ForceBackend(simd::DetectBackend());
    simd::NormalizeAffine(x.data(), mean, istd, gain.data(), bias.data(),
                          xhat_v.data(), out_v.data(), n);
    for (size_t i = 0; i < x.size(); ++i) {
      EXPECT_NEAR(out_v[i], out_s[i], 1e-5f) << "n=" << n << " i=" << i;
      EXPECT_NEAR(xhat_v[i], xhat_s[i], 1e-6f) << "n=" << n << " i=" << i;
    }
  }
}

TEST(SimdKernelTest, DotI8BitIdenticalAcrossBackends) {
  if (simd::DetectBackend() == simd::Backend::kScalar) {
    GTEST_SKIP() << "no vector backend on this CPU/build";
  }
  BackendGuard guard;
  Rng rng(14);
  for (int n : kSimdSizes) {
    std::vector<int8_t> a(static_cast<size_t>(n)), b(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      a[static_cast<size_t>(i)] =
          static_cast<int8_t>(rng.UniformInt(255) - 127);
      b[static_cast<size_t>(i)] =
          static_cast<int8_t>(rng.UniformInt(255) - 127);
    }
    simd::ForceBackend(simd::Backend::kScalar);
    const int32_t scalar = simd::DotI8(a.data(), b.data(), n);
    simd::ForceBackend(simd::DetectBackend());
    // Integer accumulation: exact, so backends agree to the bit.
    EXPECT_EQ(simd::DotI8(a.data(), b.data(), n), scalar) << "n=" << n;
  }
}

TEST(SimdKernelTest, QuantizeRowProperties) {
  BackendGuard guard;
  Rng rng(15);
  // All-zero row quantizes to scale 0 and an all-zero payload.
  std::vector<int8_t> q(16);
  std::vector<float> zeros(16, 0.0f);
  EXPECT_EQ(simd::QuantizeRow(zeros.data(), 16, 0.0f, q.data()), 0.0f);
  for (int8_t v : q) EXPECT_EQ(v, 0);

  const std::vector<float> x = RandomVec(16, rng);
  float max_abs = 0.0f;
  for (float v : x) max_abs = std::max(max_abs, std::fabs(v));

  // Unclipped: scale = maxabs/127 and the round trip stays within scale/2.
  const float scale = simd::QuantizeRow(x.data(), 16, 0.0f, q.data());
  EXPECT_FLOAT_EQ(scale, max_abs / 127.0f);
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(static_cast<float>(q[i]) * scale, x[i], scale * 0.5f + 1e-7f);
    EXPECT_GE(q[i], -127);
    EXPECT_LE(q[i], 127);
  }

  // A clip below maxabs bounds the scale and saturates the outliers.
  const float clip = max_abs * 0.5f;
  const float clipped_scale = simd::QuantizeRow(x.data(), 16, clip, q.data());
  EXPECT_FLOAT_EQ(clipped_scale, clip / 127.0f);
  for (size_t i = 0; i < x.size(); ++i) {
    if (std::fabs(x[i]) >= clip) {
      EXPECT_EQ(std::abs(static_cast<int>(q[i])), 127) << "i=" << i;
    }
  }
}

// The backends a kernel test covers: scalar and the detected one.
std::vector<simd::Backend> TestedBackends() {
  std::vector<simd::Backend> backends = {simd::Backend::kScalar};
  if (simd::DetectBackend() != simd::Backend::kScalar) {
    backends.push_back(simd::DetectBackend());
  }
  return backends;
}

bool SameFloatBits(float a, float b) {
  return std::memcmp(&a, &b, sizeof(float)) == 0;
}

// GELU in double through the sigmoid form, which (unlike 1 + tanh(u))
// keeps its relative precision where GELU is tiny.
double GeluRef(double x) {
  const double u = std::sqrt(2.0 / M_PI) * (x + 0.044715 * x * x * x);
  return x / (1.0 + std::exp(-2.0 * u));
}

double GeluTanhRef(double x) {
  return std::tanh(std::sqrt(2.0 / M_PI) * (x + 0.044715 * x * x * x));
}

TEST(SimdKernelTest, GeluWithinStatedBoundOfDoubleReference) {
  BackendGuard guard;
  std::vector<float> x;
  for (int i = -120000; i <= 120000; ++i) x.push_back(i * 1e-4f);
  for (float v : {13.0f, 20.0f, 88.0f, 1e4f, 3e38f, -10.5f, -20.0f, -88.0f,
                  -1e4f, -3e38f, 1e-30f, -1e-30f, 1e-45f}) {
    x.push_back(v);
  }
  std::vector<float> y(x.size()), t(x.size());
  for (simd::Backend backend : TestedBackends()) {
    simd::ForceBackend(backend);
    simd::Gelu(x.data(), y.data(), t.data(), static_cast<int>(x.size()));
    for (size_t i = 0; i < x.size(); ++i) {
      ASSERT_LE(std::fabs(y[i] - GeluRef(x[i])), simd::kGeluMaxAbsError)
          << simd::BackendName(backend) << " x=" << x[i];
      ASSERT_LE(std::fabs(t[i] - GeluTanhRef(x[i])), simd::kGeluMaxAbsError)
          << simd::BackendName(backend) << " x=" << x[i];
    }
    const float inf = std::numeric_limits<float>::infinity();
    const float in[] = {0.0f, -0.0f, inf, -inf, std::nanf("")};
    float out[5], tanh_u[5];
    simd::Gelu(in, out, tanh_u, 5);
    EXPECT_EQ(out[0], 0.0f);
    EXPECT_EQ(out[1], 0.0f);
    EXPECT_EQ(tanh_u[0], 0.0f);
    EXPECT_EQ(out[2], inf);
    EXPECT_EQ(tanh_u[2], 1.0f);
    EXPECT_EQ(out[3], 0.0f);  // the limit; the formula itself gives NaN
    EXPECT_EQ(tanh_u[3], -1.0f);
    EXPECT_TRUE(std::isnan(out[4]));
    EXPECT_TRUE(std::isnan(tanh_u[4]));
  }
}

TEST(SimdKernelTest, ExpWithinStatedBoundOfDoubleReference) {
  BackendGuard guard;
  std::vector<float> x;
  for (float v = simd::kExpMin; v <= simd::kExpMax; v += 1e-3f) {
    x.push_back(v);
  }
  x.push_back(simd::kExpMax);
  std::vector<float> y(x.size());
  for (simd::Backend backend : TestedBackends()) {
    simd::ForceBackend(backend);
    simd::Exp(x.data(), y.data(), static_cast<int>(x.size()));
    for (size_t i = 0; i < x.size(); ++i) {
      const double ref = std::exp(static_cast<double>(x[i]));
      ASSERT_LE(std::fabs(y[i] - ref), simd::kExpMaxRelError * ref)
          << simd::BackendName(backend) << " x=" << x[i];
    }
    const float inf = std::numeric_limits<float>::infinity();
    const float in[] = {0.0f, -0.0f, inf, -inf, std::nanf(""), -87.4f, -1e30f,
                        88.4f, 1e30f};
    float out[9];
    simd::Exp(in, out, 9);
    EXPECT_EQ(out[0], 1.0f);
    EXPECT_EQ(out[1], 1.0f);
    EXPECT_EQ(out[2], inf);
    EXPECT_EQ(out[3], 0.0f);
    EXPECT_TRUE(std::isnan(out[4]));
    EXPECT_EQ(out[5], 0.0f);  // below FLT_MIN
    EXPECT_EQ(out[6], 0.0f);
    EXPECT_EQ(out[7], inf);
    EXPECT_EQ(out[8], inf);
  }
}

// An element's result must not depend on n or on where the element sits
// (a vector lane or the tail), or ParallelFor's chunking and the inference
// forward's row-wise calls could give other bits than a whole-tensor call.
TEST(SimdKernelTest, ApproximateKernelsIgnoreElementPosition) {
  BackendGuard guard;
  Rng rng(18);
  std::vector<float> x = RandomVec(37, rng);
  for (float& v : x) v *= 4.0f;
  for (simd::Backend backend : TestedBackends()) {
    simd::ForceBackend(backend);
    std::vector<float> gelu(x.size()), tanh_u(x.size()), exp(x.size());
    simd::Gelu(x.data(), gelu.data(), tanh_u.data(), 37);
    simd::Exp(x.data(), exp.data(), 37);
    for (int start = 0; start < 37; ++start) {
      for (int n : {1, 5, 8, 11}) {
        if (start + n > 37) continue;
        std::vector<float> g(n), t(n), e(n);
        simd::Gelu(x.data() + start, g.data(), t.data(), n);
        simd::Exp(x.data() + start, e.data(), n);
        for (int i = 0; i < n; ++i) {
          const size_t at = static_cast<size_t>(start + i);
          EXPECT_TRUE(SameFloatBits(g[i], gelu[at])) << "gelu at " << at;
          EXPECT_TRUE(SameFloatBits(t[i], tanh_u[at])) << "tanh at " << at;
          EXPECT_TRUE(SameFloatBits(e[i], exp[at])) << "exp at " << at;
        }
      }
    }
    // Without a tanh output, GELU's values are the same bits.
    std::vector<float> plain(x.size());
    simd::Gelu(x.data(), plain.data(), nullptr, 37);
    EXPECT_EQ(std::memcmp(plain.data(), gelu.data(), sizeof(float) * 37), 0);
  }
}

// The scalar loop the vector QuantizeRow must reproduce, byte for byte
// (x * inv clamped to ±128 so lround never overflows).
float QuantizeRowByLround(const float* x, int n, float clip, int8_t* out) {
  float max_abs = 0.0f;
  for (int i = 0; i < n; ++i) max_abs = std::max(max_abs, std::fabs(x[i]));
  if (clip > 0.0f) max_abs = std::min(max_abs, clip);
  if (max_abs == 0.0f) {
    for (int i = 0; i < n; ++i) out[i] = 0;
    return 0.0f;
  }
  const float inv = 127.0f / max_abs;
  for (int i = 0; i < n; ++i) {
    const float v = std::clamp(x[i] * inv, -128.0f, 128.0f);
    out[i] = static_cast<int8_t>(std::clamp<long>(std::lround(v), -127, 127));
  }
  return max_abs / 127.0f;
}

TEST(SimdKernelTest, VectorQuantizeRowMatchesScalarLoopByteForByte) {
  BackendGuard guard;
  Rng rng(19);
  for (simd::Backend backend : TestedBackends()) {
    simd::ForceBackend(backend);
    const auto check = [&](const std::vector<float>& x, float clip) {
      const int n = static_cast<int>(x.size());
      std::vector<int8_t> want(x.size()), got(x.size());
      const float want_scale =
          QuantizeRowByLround(x.data(), n, clip, want.data());
      const float got_scale = simd::QuantizeRow(x.data(), n, clip, got.data());
      ASSERT_TRUE(SameFloatBits(got_scale, want_scale))
          << simd::BackendName(backend) << " n=" << n << " clip=" << clip;
      ASSERT_EQ(got, want) << simd::BackendName(backend) << " n=" << n
                           << " clip=" << clip;
    };
    for (int row = 0; row < 20000; ++row) {
      const int n = 1 + static_cast<int>(rng.UniformInt(130));
      std::vector<float> x = RandomVec(n, rng);
      float max_abs = 0.0f;
      for (float v : x) max_abs = std::max(max_abs, std::fabs(v));
      // Unclipped, clipped (the outliers saturate) and a clip above max.
      const float clips[] = {0.0f, max_abs * 0.3f, max_abs * 2.0f};
      check(x, clips[row % 3]);
    }
    // Half-way ties k +- 1/2 for k = 0..126: with max |x| = 127 the scale is
    // exactly 1, so x * inv lands on each tie exactly; lround rounds away
    // from zero.
    std::vector<float> ties = {127.0f};
    for (int k = 0; k <= 126; ++k) {
      ties.push_back(k + 0.5f);
      ties.push_back(-(k + 0.5f));
      ties.push_back(k - 0.5f);
    }
    check(ties, 0.0f);
    std::vector<int8_t> q(ties.size());
    simd::QuantizeRow(ties.data(), static_cast<int>(ties.size()), 0.0f,
                      q.data());
    EXPECT_EQ(q[1], 1);    // 0.5 -> 1
    EXPECT_EQ(q[2], -1);   // -0.5 -> -1
    EXPECT_EQ(q[4], 2);    // 1.5 -> 2
    check(std::vector<float>(19, 0.0f), 0.0f);
    check({-0.0f, 0.0f, 1e-30f, -3.0f}, 0.0f);
    // Far past the clip: saturates with the value's own sign.
    check({1e30f, -1e30f, 0.25f, 7.0f, -7.0f, 1.0f, 2.0f, 3.0f, 4.0f}, 3.0f);
    simd::QuantizeRow(std::vector<float>{1e30f}.data(), 1, 3.0f, q.data());
    EXPECT_EQ(q[0], 127);
  }
}

// The vectorized MatMul must stay bit-identical across ComputePool thread
// counts: the chunk grid is fixed per (n, grain) and each chunk's result
// depends only on its operands. [64, 96] x [96, 80] (1 MFLOP) runs as one
// chunk; [128, 96] x [96, 160] (3.9 MFLOP) is above the floor and must fan
// out at 2 and 4 threads.
TEST(SimdKernelTest, MatMulBitIdenticalAcrossThreadCountsOnSimdPath) {
  BackendGuard guard;
  simd::ForceBackend(simd::DetectBackend());
  const int previous = ComputeThreads();
  Rng rng(16);
  for (const auto& [m, k, n] : {std::array{64, 96, 80},
                                std::array{128, 96, 160}}) {
    Tensor a = Tensor::Randn({m, k}, rng, 1.0f);
    Tensor b = Tensor::Randn({k, n}, rng, 1.0f);
    const bool fans_out = m == 128;
    SetComputeThreads(1);
    const std::vector<float> serial = MatMul(a, b).data();
    for (int threads : {2, 4}) {
      SetComputeThreads(threads);
      const uint64_t regions = ParallelRegions();
      EXPECT_EQ(MatMul(a, b).data(), serial)
          << "m=" << m << " threads=" << threads;
      if (fans_out) {
        EXPECT_GT(ParallelRegions(), regions)
            << "m=" << m << " threads=" << threads;
      }
    }
  }
  SetComputeThreads(previous);
}

// Bitwise equality (EXPECT_EQ on floats would let -0 match +0), naming the
// first element that differs.
::testing::AssertionResult SameBits(const std::vector<float>& got,
                                    const std::vector<float>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << "size " << got.size() << " vs " << want.size();
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(float)) != 0) {
      return ::testing::AssertionFailure()
             << "element " << i << ": " << got[i] << " vs " << want[i];
    }
  }
  return ::testing::AssertionSuccess();
}

// The GEMM tiles must give MatMul, forward and both backward products,
// exactly the bits of the per-element loops they replace on the same
// backend: k-ascending Axpy for C = A*B and dB = A^T*dC, one Dot per
// element for dA = dC*B^T. The shapes straddle the 6-row and 4-row tile
// edges, the 3-column Dot blocks, the 8/16-column tiles and the vector
// lane tails of both operands. The last one (2.7 MFLOP per product) is
// above the floor, so at 2 and 4 threads each of its three products fans
// out, over three chunks whose last is short.
TEST(SimdKernelTest, MatMulTilesMatchAxpyAndDotLoopsBitForBit) {
  BackendGuard guard;
  const int previous = ComputeThreads();
  std::vector<simd::Backend> backends = {simd::Backend::kScalar};
  if (simd::DetectBackend() != simd::Backend::kScalar) {
    backends.push_back(simd::DetectBackend());
  }
  std::vector<std::array<int, 3>> shapes;  // {m, n, k}
  for (int m : {1, 5, 6, 7, 13}) {
    for (int n : {1, 7, 8, 15, 16, 17, 33}) {
      for (int k : {1, 3, 64, 65}) shapes.push_back({m, n, k});
    }
  }
  shapes.push_back({37, 130, 70});
  shapes.push_back({70, 130, 150});
  Rng rng(17);
  for (simd::Backend backend : backends) {
    simd::ForceBackend(backend);
    for (const auto& [m, n, k] : shapes) {
      const Tensor a0 = Tensor::Randn({m, k}, rng, 1.0f);
      const Tensor b0 = Tensor::Randn({k, n}, rng, 1.0f);
      const Tensor dc = Tensor::Randn({m, n}, rng, 1.0f);
      const float* av = a0.data().data();
      const float* bv = b0.data().data();
      const float* gv = dc.data().data();
      std::vector<float> c_ref(static_cast<size_t>(m) * n, 0.0f);
      std::vector<float> da_ref(static_cast<size_t>(m) * k, 0.0f);
      std::vector<float> db_ref(static_cast<size_t>(k) * n, 0.0f);
      for (int i = 0; i < m; ++i) {
        for (int p = 0; p < k; ++p) {
          simd::Axpy(av[i * k + p], bv + p * n, c_ref.data() + i * n, n);
          da_ref[i * k + p] += simd::Dot(gv + i * n, bv + p * n, n);
        }
      }
      for (int p = 0; p < k; ++p) {
        for (int i = 0; i < m; ++i) {
          simd::Axpy(av[i * k + p], gv + i * n, db_ref.data() + p * n, n);
        }
      }
      const bool fans_out = m == 70;  // the shape above the floor
      for (int threads : {1, 2, 4}) {
        SetComputeThreads(threads);
        const uint64_t regions = ParallelRegions();
        Tensor a = Tensor::FromData({m, k}, a0.data(), true);
        Tensor b = Tensor::FromData({k, n}, b0.data(), true);
        Tensor c = MatMul(a, b);
        // d(sum(C .* dC))/dC is dC exactly (products with 1.0f).
        Sum(Mul(c, dc)).Backward();
        if (fans_out && threads > 1) {
          EXPECT_EQ(ParallelRegions(), regions + 3)
              << "m=" << m << " threads=" << threads;
        }
        const std::string where =
            std::string(simd::BackendName(backend)) +
            " m=" + std::to_string(m) + " n=" + std::to_string(n) +
            " k=" + std::to_string(k) + " threads=" + std::to_string(threads);
        EXPECT_TRUE(SameBits(c.data(), c_ref)) << "C = A*B, " << where;
        EXPECT_TRUE(SameBits(a.grad(), da_ref)) << "dA = dC*B^T, " << where;
        EXPECT_TRUE(SameBits(b.grad(), db_ref)) << "dB = A^T*dC, " << where;
      }
    }
  }
  SetComputeThreads(previous);
}

// The training-loop kernels against the loops they replaced (the dropout
// and layer-norm backwards, GELU's backward and Adam::Step, compiled here
// without FMA), byte for byte, on the scalar and the detected backend, at
// sizes that leave every lane tail.
TEST(SimdKernelTest, TrainingLoopKernelsMatchTheirScalarLoopsBitForBit) {
  BackendGuard guard;
  Rng rng(23);
  for (simd::Backend backend :
       {simd::Backend::kScalar, simd::DetectBackend()}) {
    simd::ForceBackend(backend);
    const std::string on = simd::BackendName(backend);
    for (int n : {1, 3, 7, 8, 9, 16, 31, 64, 100, 1000}) {
      const std::string where = on + " n=" + std::to_string(n);
      const std::vector<float> a = RandomVec(n, rng);
      const std::vector<float> b = RandomVec(n, rng);
      const std::vector<float> c = RandomVec(n, rng);
      const std::vector<float> d0 = RandomVec(n, rng);
      std::vector<float> t(static_cast<size_t>(n));
      for (float& x : t) x = static_cast<float>(rng.Uniform(-1.0, 1.0));

      std::vector<float> want = d0, got = d0;
      for (int i = 0; i < n; ++i) want[i] += a[i] * b[i];
      simd::MulAcc(a.data(), b.data(), got.data(), n);
      EXPECT_TRUE(SameBits(got, want)) << "MulAcc " << where;

      const float m1 = 0.125f, m2 = -0.3f, istd = 1.7f;
      want = d0;
      got = d0;
      for (int i = 0; i < n; ++i) {
        const float dxh = a[i] * b[i];
        want[i] += istd * (dxh - m1 - c[i] * m2);
      }
      simd::LayerNormDx(a.data(), b.data(), c.data(), m1, m2, istd,
                        got.data(), n);
      EXPECT_TRUE(SameBits(got, want)) << "LayerNormDx " << where;

      constexpr float kC = 0.7978845608028654f;  // sqrt(2/pi)
      want = d0;
      got = d0;
      for (int i = 0; i < n; ++i) {
        const float v = a[i];
        const float dinner = kC * (1.0f + 3.0f * 0.044715f * v * v);
        want[i] += b[i] * (0.5f * (1.0f + t[i]) +
                           0.5f * v * (1.0f - t[i] * t[i]) * dinner);
      }
      simd::GeluBackward(a.data(), t.data(), b.data(), got.data(), n);
      EXPECT_TRUE(SameBits(got, want)) << "GeluBackward " << where;

      // Adam, in each weight-decay mode, over two steps from zero moments.
      for (int mode = 0; mode < 3; ++mode) {
        const float lr = 1e-3f, beta1 = 0.9f, beta2 = 0.999f, eps = 1e-8f;
        const float wd = mode == 0 ? 0.0f : 0.01f;
        const bool decoupled = mode == 2;
        std::vector<float> w_want = c, w_got = c;
        std::vector<float> m_want(a.size(), 0.0f), v_want(a.size(), 0.0f);
        std::vector<float> m_got = m_want, v_got = v_want;
        for (int step = 1; step <= 2; ++step) {
          const std::vector<float>& grad = step == 1 ? a : b;
          const float bias1 = 1.0f - std::pow(beta1, static_cast<float>(step));
          const float bias2 = 1.0f - std::pow(beta2, static_cast<float>(step));
          for (int i = 0; i < n; ++i) {
            float g = grad[i];
            if (wd != 0.0f && !decoupled) g += wd * w_want[i];
            m_want[i] = beta1 * m_want[i] + (1.0f - beta1) * g;
            v_want[i] = beta2 * v_want[i] + (1.0f - beta2) * g * g;
            const float m_hat = m_want[i] / bias1;
            const float v_hat = v_want[i] / bias2;
            float update = lr * m_hat / (std::sqrt(v_hat) + eps);
            if (wd != 0.0f && decoupled) update += lr * wd * w_want[i];
            w_want[i] -= update;
          }
          simd::AdamStep adam;
          adam.beta1 = beta1;
          adam.beta2 = beta2;
          adam.bias1 = bias1;
          adam.bias2 = bias2;
          adam.lr = lr;
          adam.eps = eps;
          adam.coupled_decay = wd != 0.0f && !decoupled;
          adam.l2 = wd;
          adam.decoupled_decay = wd != 0.0f && decoupled;
          adam.lr_decay = lr * wd;
          simd::AdamUpdate(adam, grad.data(), m_got.data(), v_got.data(),
                           w_got.data(), n);
        }
        const std::string adam_where = where + " mode=" + std::to_string(mode);
        EXPECT_TRUE(SameBits(m_got, m_want)) << "Adam m " << adam_where;
        EXPECT_TRUE(SameBits(v_got, v_want)) << "Adam v " << adam_where;
        EXPECT_TRUE(SameBits(w_got, w_want)) << "Adam weights " << adam_where;
      }
    }
  }
}

// The AVX2 kernels' scalar tails fuse their multiply-adds explicitly, so the
// tail elements are std::fma's results whatever the optimisation level the
// kernels were compiled at.
TEST(SimdKernelTest, Avx2TailsAreFusedMultiplyAdds) {
  if (simd::DetectBackend() != simd::Backend::kAvx2) {
    GTEST_SKIP() << "no AVX2 backend on this CPU/build";
  }
  BackendGuard guard;
  simd::ForceBackend(simd::Backend::kAvx2);
  Rng rng(29);
  const int n = 5;  // all tail: no full 8-lane vector
  const std::vector<float> x = RandomVec(n, rng);
  const std::vector<float> y = RandomVec(n, rng);
  std::vector<float> axpy = y;
  simd::Axpy(0.3f, x.data(), axpy.data(), n);
  float dot = 0.0f, ssq = 0.0f;
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(axpy[i], std::fma(0.3f, x[i], y[i])) << "Axpy " << i;
    dot = std::fma(x[i], y[i], dot);
    ssq = std::fma(x[i] - 0.25f, x[i] - 0.25f, ssq);
  }
  EXPECT_EQ(simd::Dot(x.data(), y.data(), n), dot);
  EXPECT_EQ(simd::ReduceSumSqDiff(x.data(), 0.25f, n), ssq);
  std::vector<float> out(static_cast<size_t>(n));
  simd::NormalizeAffine(x.data(), 0.1f, 2.0f, y.data(), x.data(), nullptr,
                        out.data(), n);
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(out[i], std::fma((x[i] - 0.1f) * 2.0f, y[i], x[i]))
        << "NormalizeAffine " << i;
  }
}

}  // namespace
}  // namespace tensor
}  // namespace telekit
