#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <string>

#include "common/rng.h"
#include "tensor/compute_pool.h"
#include "tensor/gradcheck.h"
#include "tensor/ops.h"
#include "tensor/simd.h"
#include "tensor/tensor.h"

namespace telekit {
namespace tensor {
namespace {

// Convenience: random leaf with grad.
Tensor Leaf(const Shape& shape, uint64_t seed, float stddev = 1.0f) {
  Rng rng(seed);
  return Tensor::Randn(shape, rng, stddev, /*requires_grad=*/true);
}

// --- Hand-verified simple cases ----------------------------------------------

TEST(AutogradTest, SumBackwardIsOnes) {
  Tensor x = Tensor::FromData({3}, {1, 2, 3}, /*requires_grad=*/true);
  Sum(x).Backward();
  for (float g : x.grad()) EXPECT_FLOAT_EQ(g, 1.0f);
}

TEST(AutogradTest, MeanBackwardIsUniform) {
  Tensor x = Tensor::FromData({4}, {1, 2, 3, 4}, true);
  Mean(x).Backward();
  for (float g : x.grad()) EXPECT_FLOAT_EQ(g, 0.25f);
}

TEST(AutogradTest, ChainRuleThroughScale) {
  Tensor x = Tensor::FromData({2}, {3, 4}, true);
  // loss = sum(2x) -> d/dx = 2
  Sum(MulScalar(x, 2.0f)).Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 2.0f);
  EXPECT_FLOAT_EQ(x.grad()[1], 2.0f);
}

TEST(AutogradTest, SquareGradient) {
  Tensor x = Tensor::FromData({2}, {3, -5}, true);
  Sum(Square(x)).Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 6.0f);
  EXPECT_FLOAT_EQ(x.grad()[1], -10.0f);
}

TEST(AutogradTest, SharedInputAccumulates) {
  Tensor x = Tensor::FromData({1}, {3}, true);
  // loss = x*x -> grad = 2x = 6
  Sum(Mul(x, x)).Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 6.0f);
}

TEST(AutogradTest, DiamondGraphAccumulates) {
  Tensor x = Tensor::FromData({1}, {2}, true);
  Tensor a = MulScalar(x, 3.0f);
  Tensor b = Square(x);
  // loss = 3x + x^2 -> grad = 3 + 2x = 7
  Sum(Add(a, b)).Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 7.0f);
}

TEST(AutogradTest, NoGradLeafUntouched) {
  Tensor x = Tensor::FromData({2}, {1, 2}, true);
  Tensor c = Tensor::FromData({2}, {5, 5}, false);
  Sum(Mul(x, c)).Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 5.0f);
  EXPECT_TRUE(c.grad().empty());
}

TEST(AutogradTest, GradAccumulatesAcrossBackwardCalls) {
  Tensor x = Tensor::FromData({1}, {1}, true);
  Sum(MulScalar(x, 2.0f)).Backward();
  Sum(MulScalar(x, 3.0f)).Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 5.0f);
  x.ZeroGrad();
  EXPECT_FLOAT_EQ(x.grad()[0], 0.0f);
}

TEST(AutogradTest, MatMulKnownGradient) {
  Tensor a = Tensor::FromData({1, 2}, {1, 2}, true);
  Tensor b = Tensor::FromData({2, 1}, {3, 4}, true);
  Sum(MatMul(a, b)).Backward();  // loss = 1*3 + 2*4
  EXPECT_FLOAT_EQ(a.grad()[0], 3.0f);
  EXPECT_FLOAT_EQ(a.grad()[1], 4.0f);
  EXPECT_FLOAT_EQ(b.grad()[0], 1.0f);
  EXPECT_FLOAT_EQ(b.grad()[1], 2.0f);
}

TEST(AutogradTest, EmbeddingScatterAdd) {
  Tensor table = Tensor::Zeros({4, 2}, true);
  Tensor e = EmbeddingLookup(table, {1, 1, 3});
  Sum(e).Backward();
  // Row 1 referenced twice, row 3 once, rows 0/2 never.
  EXPECT_FLOAT_EQ(table.grad()[1 * 2 + 0], 2.0f);
  EXPECT_FLOAT_EQ(table.grad()[3 * 2 + 1], 1.0f);
  EXPECT_FLOAT_EQ(table.grad()[0], 0.0f);
  EXPECT_FLOAT_EQ(table.grad()[2 * 2], 0.0f);
}

// --- Finite-difference checks over every differentiable op ----------------------

TEST(GradCheckTest, MatMul) {
  auto fn = [](const std::vector<Tensor>& in) {
    return Sum(Square(MatMul(in[0], in[1])));
  };
  auto result = CheckGradients(fn, {Leaf({3, 4}, 10), Leaf({4, 2}, 11)});
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(GradCheckTest, TransposeReshape) {
  auto fn = [](const std::vector<Tensor>& in) {
    return Sum(Square(Reshape(Transpose(in[0]), {6})));
  };
  auto result = CheckGradients(fn, {Leaf({2, 3}, 12)});
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(GradCheckTest, AddSubMulDivSameShape) {
  auto fn = [](const std::vector<Tensor>& in) {
    Tensor d = Div(in[0], AddScalar(Square(in[1]), 1.0f));
    return Sum(Square(Add(Sub(in[0], in[1]), Mul(d, in[1]))));
  };
  auto result = CheckGradients(fn, {Leaf({2, 3}, 13), Leaf({2, 3}, 14)});
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(GradCheckTest, RowBroadcast) {
  auto fn = [](const std::vector<Tensor>& in) {
    return Sum(Square(Mul(Add(in[0], in[1]), in[1])));
  };
  auto result = CheckGradients(fn, {Leaf({3, 4}, 15), Leaf({4}, 16)});
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(GradCheckTest, ScalarBroadcast) {
  auto fn = [](const std::vector<Tensor>& in) {
    return Sum(Square(Mul(in[0], in[1])));
  };
  auto result = CheckGradients(fn, {Leaf({2, 2}, 17), Leaf({1}, 18)});
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(GradCheckTest, Activations) {
  auto fn = [](const std::vector<Tensor>& in) {
    Tensor h = Gelu(in[0]);
    h = Add(h, Relu(in[0]));
    h = Add(h, Tanh(in[0]));
    h = Add(h, Sigmoid(in[0]));
    return Sum(Square(h));
  };
  auto result = CheckGradients(fn, {Leaf({3, 3}, 19)});
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(GradCheckTest, ExpLogSqrtChain) {
  auto fn = [](const std::vector<Tensor>& in) {
    Tensor positive = AddScalar(Square(in[0]), 0.5f);
    return Sum(Add(Log(positive), Sqrt(positive)));
  };
  auto result = CheckGradients(fn, {Leaf({4}, 20)});
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(GradCheckTest, LogSigmoid) {
  auto fn = [](const std::vector<Tensor>& in) {
    return Sum(LogSigmoid(in[0]));
  };
  auto result = CheckGradients(fn, {Leaf({5}, 21, 2.0f)});
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(GradCheckTest, SoftmaxComposite) {
  auto fn = [](const std::vector<Tensor>& in) {
    // Weighted sum distinguishes coordinates.
    Tensor w = Tensor::FromData({2, 4}, {1, 2, 3, 4, -1, 0, 1, 2});
    return Sum(Mul(Softmax(in[0]), w));
  };
  auto result = CheckGradients(fn, {Leaf({2, 4}, 22)});
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(GradCheckTest, LayerNormAllParams) {
  auto fn = [](const std::vector<Tensor>& in) {
    Tensor w = Tensor::FromData({2, 4}, {1, -2, 3, 0.5, 2, 1, -1, 0});
    return Sum(Mul(LayerNorm(in[0], in[1], in[2]), w));
  };
  auto result = CheckGradients(
      fn, {Leaf({2, 4}, 23, 2.0f), Leaf({4}, 24), Leaf({4}, 25)});
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(GradCheckTest, ConcatAndSlice) {
  auto fn = [](const std::vector<Tensor>& in) {
    Tensor cat = ConcatRows({in[0], in[1]});
    Tensor cols = ConcatCols({SliceRows(cat, 0, 2), SliceRows(cat, 2, 2)});
    return Sum(Square(SliceCols(cols, 1, 3)));
  };
  auto result = CheckGradients(fn, {Leaf({2, 3}, 26), Leaf({2, 3}, 27)});
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(GradCheckTest, ConcatVecAndRow) {
  auto fn = [](const std::vector<Tensor>& in) {
    Tensor v = ConcatVec({Row(in[0], 0), Row(in[0], 1)});
    return Sum(Square(v));
  };
  auto result = CheckGradients(fn, {Leaf({2, 3}, 28)});
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(GradCheckTest, GatherRows) {
  auto fn = [](const std::vector<Tensor>& in) {
    return Sum(Square(GatherRows(in[0], {0, 2, 2, 1})));
  };
  auto result = CheckGradients(fn, {Leaf({3, 3}, 29)});
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(GradCheckTest, L2NormalizeRows) {
  auto fn = [](const std::vector<Tensor>& in) {
    Tensor w = Tensor::FromData({2, 3}, {1, 2, 3, -1, 0, 2});
    return Sum(Mul(L2NormalizeRows(in[0]), w));
  };
  auto result = CheckGradients(fn, {Leaf({2, 3}, 30)});
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(GradCheckTest, MeanRowsSumCols) {
  auto fn = [](const std::vector<Tensor>& in) {
    return Add(Sum(Square(MeanRows(in[0]))),
               Sum(Square(SumCols(in[0]))));
  };
  auto result = CheckGradients(fn, {Leaf({3, 4}, 31)});
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(GradCheckTest, CrossEntropy) {
  auto fn = [](const std::vector<Tensor>& in) {
    return CrossEntropyWithLogits(in[0], {1, -1, 0});
  };
  auto result = CheckGradients(fn, {Leaf({3, 4}, 32)});
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(GradCheckTest, BceWithLogits) {
  auto fn = [](const std::vector<Tensor>& in) {
    return BceWithLogits(in[0], {1.0f, 0.0f, 1.0f, 0.0f});
  };
  auto result = CheckGradients(fn, {Leaf({4}, 33)});
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(GradCheckTest, LogisticLoss) {
  auto fn = [](const std::vector<Tensor>& in) {
    return LogisticLoss(in[0], {1.0f, -1.0f, -1.0f});
  };
  auto result = CheckGradients(fn, {Leaf({3}, 34)});
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(GradCheckTest, MseLoss) {
  auto fn = [](const std::vector<Tensor>& in) {
    return MseLoss(in[0], in[1]);
  };
  auto result = CheckGradients(fn, {Leaf({2, 3}, 35), Leaf({2, 3}, 36)});
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(GradCheckTest, DeepComposite) {
  // A miniature MLP end-to-end: checks interaction of many ops at once.
  auto fn = [](const std::vector<Tensor>& in) {
    Tensor h = Gelu(MatMul(in[0], in[1]));
    Tensor g = Tensor::Ones({2});
    Tensor b = Tensor::Zeros({2});
    h = LayerNorm(h, g, b);
    Tensor logits = MatMul(h, in[2]);
    return CrossEntropyWithLogits(logits, {2, 0, 1});
  };
  auto result = CheckGradients(
      fn, {Leaf({3, 4}, 37), Leaf({4, 2}, 38), Leaf({2, 3}, 39)});
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(GradCheckTest, DropoutWithFixedSeedMask) {
  // Dropout gradients are checked with a deterministic mask by re-seeding
  // inside the closure so every evaluation sees the same mask.
  auto fn = [](const std::vector<Tensor>& in) {
    Rng rng(40);
    return Sum(Square(Dropout(in[0], 0.5f, rng, /*training=*/true)));
  };
  auto result = CheckGradients(fn, {Leaf({4, 4}, 41)});
  EXPECT_TRUE(result.passed) << result.detail;
}

// --- Fused nodes against the composite graphs they replace -------------------

// The composite graphs, from the ops each fused node replaces.
Tensor CompositeLinear(const Tensor& x, const Tensor& w, const Tensor& b) {
  return Add(MatMul(x, w), b);
}

Tensor CompositeAttention(const Tensor& q, const Tensor& k, const Tensor& v,
                          int num_heads) {
  const int hd = q.dim(1) / num_heads;
  const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
  std::vector<Tensor> heads;
  for (int h = 0; h < num_heads; ++h) {
    const Tensor qh = SliceCols(q, h * hd, hd);
    const Tensor kh = SliceCols(k, h * hd, hd);
    const Tensor vh = SliceCols(v, h * hd, hd);
    heads.push_back(MatMul(
        Softmax(MulScalar(MatMul(qh, Transpose(kh)), scale)), vh));
  }
  return ConcatCols(heads);
}

Tensor CompositeAddLayerNorm(const Tensor& x, const Tensor& y,
                             const Tensor& gain, const Tensor& bias) {
  return LayerNorm(Add(x, y), gain, bias);
}

// Forward values, then every input's gradient after two Backward passes
// (the second accumulates into gradients the first left non-zero). The
// loss weights each output element by its own random factor.
using Graph = std::function<Tensor(const std::vector<Tensor>&)>;

std::vector<std::vector<float>> RunGraph(const Graph& graph,
                                         const std::vector<Shape>& shapes,
                                         uint64_t seed) {
  Rng rng(seed);
  std::vector<Tensor> inputs;
  for (const Shape& shape : shapes) {
    inputs.push_back(Tensor::Randn(shape, rng, 1.0f, /*requires_grad=*/true));
  }
  std::vector<std::vector<float>> out;
  for (int pass = 0; pass < 2; ++pass) {
    const Tensor y = graph(inputs);
    const Tensor weights = Tensor::Randn(y.shape(), rng);
    Sum(Mul(y, weights)).Backward();
    if (pass == 0) out.push_back(y.data());
  }
  for (const Tensor& input : inputs) out.push_back(input.grad());
  return out;
}

// Runs `fused` and `composite` on the same inputs, on the scalar and the
// detected backend at 1, 2 and 4 compute threads, and requires the
// composite's forward values and gradients bit for bit.
void ExpectSameBits(const Graph& fused, const Graph& composite,
                    const std::vector<Shape>& shapes, const std::string& what) {
  const simd::Backend previous_backend = simd::ActiveBackend();
  const int previous_threads = ComputeThreads();
  for (simd::Backend backend :
       {simd::Backend::kScalar, simd::DetectBackend()}) {
    simd::ForceBackend(backend);
    SetComputeThreads(1);
    const auto want = RunGraph(composite, shapes, 7);
    for (int threads : {1, 2, 4}) {
      SetComputeThreads(threads);
      const auto got = RunGraph(fused, shapes, 7);
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].size(), want[i].size());
        EXPECT_EQ(std::memcmp(got[i].data(), want[i].data(),
                              got[i].size() * sizeof(float)),
                  0)
            << what << ": " << (i == 0 ? "value" : "gradient of input ")
            << (i == 0 ? "" : std::to_string(i - 1)) << " on "
            << simd::BackendName(backend) << " at " << threads
            << " threads";
      }
    }
  }
  simd::ForceBackend(previous_backend);
  SetComputeThreads(previous_threads);
}

TEST(FusedNodeTest, LinearIsMatMulThenAddBitForBit) {
  // n = 1 takes Add's scalar broadcast of the bias; 13 and 37 leave SIMD
  // lane and register-tile tails.
  for (int len : {1, 5, 24}) {
    for (auto [k, n] : {std::pair{64, 64}, std::pair{37, 13},
                        std::pair{64, 1}}) {
      ExpectSameBits(
          [](const std::vector<Tensor>& in) {
            return Linear(in[0], in[1], in[2]);
          },
          [](const std::vector<Tensor>& in) {
            return CompositeLinear(in[0], in[1], in[2]);
          },
          {{len, k}, {k, n}, {n}},
          "Linear L=" + std::to_string(len) + " " + std::to_string(k) + "x" +
              std::to_string(n));
    }
  }
}

TEST(FusedNodeTest, AttentionIsTheHeadByHeadGraphBitForBit) {
  for (int len : {1, 5, 24}) {
    for (int heads : {2, 4}) {
      for (int d : {64, 24}) {
        ExpectSameBits(
            [heads](const std::vector<Tensor>& in) {
              return Attention(in[0], in[1], in[2], heads);
            },
            [heads](const std::vector<Tensor>& in) {
              return CompositeAttention(in[0], in[1], in[2], heads);
            },
            {{len, d}, {len, d}, {len, d}},
            "Attention L=" + std::to_string(len) + " d=" +
                std::to_string(d) + " heads=" + std::to_string(heads));
      }
    }
  }
}

TEST(FusedNodeTest, AddLayerNormIsAddThenLayerNormBitForBit) {
  for (int len : {1, 5, 24}) {
    for (int d : {64, 13}) {
      ExpectSameBits(
          [](const std::vector<Tensor>& in) {
            return AddLayerNorm(in[0], in[1], in[2], in[3]);
          },
          [](const std::vector<Tensor>& in) {
            return CompositeAddLayerNorm(in[0], in[1], in[2], in[3]);
          },
          {{len, d}, {len, d}, {d}, {d}},
          "AddLayerNorm L=" + std::to_string(len) + " d=" +
              std::to_string(d));
    }
  }
}

// Add and Sub accumulate whole rows of the output gradient with the simd
// kernels. Against the per-element loop they replaced (flat index
// ascending, so a broadcast b sums its rows in order; a zero gradient
// skipped), for each broadcast of b, over two accumulating passes.
TEST(FusedNodeTest, AddAndSubBackwardMatchThePerElementLoop) {
  const simd::Backend previous = simd::ActiveBackend();
  for (simd::Backend backend :
       {simd::Backend::kScalar, simd::DetectBackend()}) {
    simd::ForceBackend(backend);
    for (const Shape& b_shape : {Shape{5, 7}, Shape{7}, Shape{1}}) {
      Rng rng(9);
      Tensor a = Tensor::Randn({5, 7}, rng, 1.0f, true);
      Tensor b = Tensor::Randn(b_shape, rng, 1.0f, true);
      Tensor c = Tensor::Randn(b_shape, rng, 1.0f, true);
      std::vector<float> ga(35, 0.0f), gb(b.size(), 0.0f), gc(c.size(), 0.0f);
      for (int pass = 0; pass < 2; ++pass) {
        const Tensor w = Tensor::Randn({5, 7}, rng);
        Sum(Mul(Sub(Add(a, b), c), w)).Backward();
        for (int i = 0; i < 35; ++i) {
          const int bi = b.size() == 35 ? i : b.size() == 7 ? i % 7 : 0;
          const float g = w.data()[i];  // Mul's gradient, 0 + 1 * w
          if (g == 0.0f) continue;
          ga[i] += g * 1.0f;
          gb[bi] += g * 1.0f;
          gc[bi] += g * -1.0f;
        }
      }
      const std::string where = ShapeToString(b_shape) + " on " +
                                simd::BackendName(backend);
      EXPECT_EQ(std::memcmp(a.grad().data(), ga.data(), 35 * sizeof(float)),
                0)
          << where;
      EXPECT_EQ(std::memcmp(b.grad().data(), gb.data(),
                            gb.size() * sizeof(float)),
                0)
          << where;
      EXPECT_EQ(std::memcmp(c.grad().data(), gc.data(),
                            gc.size() * sizeof(float)),
                0)
          << where;
    }
  }
  simd::ForceBackend(previous);
}

// --- Rows-selected nodes against the full nodes' rows -----------------------

// Strictly ascending row sets of an L-row sequence: [CLS] alone, every row,
// and two random subsets.
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

std::string RowsName(const std::vector<int>& rows) {
  std::string out = "{";
  for (int row : rows) out += std::to_string(row) + ",";
  return out + "}";
}

// Attention on the gathered query rows is the full node's rows: values and
// the q, k and v gradients, where the full node's other output rows take
// no gradient.
TEST(RowsSelectedTest, AttentionOnQueryRowsIsTheFullNodesRowsBitForBit) {
  for (int len : {1, 5, 24}) {
    for (const std::vector<int>& rows : RowSets(len, 100 + len)) {
      for (int heads : {2, 4}) {
        ExpectSameBits(
            [heads, rows](const std::vector<Tensor>& in) {
              return Attention(GatherRows(in[0], rows), in[1], in[2], heads);
            },
            [heads, rows](const std::vector<Tensor>& in) {
              return GatherRows(Attention(in[0], in[1], in[2], heads), rows);
            },
            {{len, 64}, {len, 64}, {len, 64}},
            "Attention L=" + std::to_string(len) + " rows=" + RowsName(rows) +
                " heads=" + std::to_string(heads));
      }
    }
  }
}

// DropoutRows on the gathered rows is the full Dropout's rows: values, the
// input gradient, and the generator's state afterwards.
TEST(RowsSelectedTest, DropoutRowsIsTheFullDropoutsRowsBitForBit) {
  for (int len : {1, 5, 24}) {
    for (const std::vector<int>& rows : RowSets(len, 200 + len)) {
      uint64_t next_draw[2] = {0, 0};
      const auto graph = [&rows, &next_draw, len](bool selected) {
        return [&rows, &next_draw, len,
                selected](const std::vector<Tensor>& in) {
          Rng rng(31);
          Tensor y = selected ? DropoutRows(GatherRows(in[0], rows), rows, len,
                                            0.3f, rng, /*training=*/true)
                              : GatherRows(Dropout(in[0], 0.3f, rng,
                                                   /*training=*/true),
                                           rows);
          next_draw[selected ? 1 : 0] = rng.NextU64();
          return y;
        };
      };
      const std::string what = "DropoutRows L=" + std::to_string(len) +
                               " rows=" + RowsName(rows);
      ExpectSameBits(graph(true), graph(false), {{len, 24}}, what);
      EXPECT_EQ(next_draw[1], next_draw[0]) << what << ": stream afterwards";
    }
  }
}

TEST(GradCheckTest, AttentionOnFewerQueryRows) {
  auto fn = [](const std::vector<Tensor>& in) {
    return Sum(Square(Attention(in[0], in[1], in[2], /*num_heads=*/2)));
  };
  auto result = CheckGradients(
      fn, {Leaf({2, 4}, 52), Leaf({3, 4}, 53), Leaf({3, 4}, 54)});
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(GradCheckTest, Linear) {
  auto fn = [](const std::vector<Tensor>& in) {
    return Sum(Square(Linear(in[0], in[1], in[2])));
  };
  auto result = CheckGradients(
      fn, {Leaf({3, 4}, 42), Leaf({4, 5}, 43), Leaf({5}, 44)});
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(GradCheckTest, Attention) {
  auto fn = [](const std::vector<Tensor>& in) {
    return Sum(Square(Attention(in[0], in[1], in[2], /*num_heads=*/2)));
  };
  auto result = CheckGradients(
      fn, {Leaf({3, 4}, 45), Leaf({3, 4}, 46), Leaf({3, 4}, 47)});
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(GradCheckTest, AddLayerNorm) {
  auto fn = [](const std::vector<Tensor>& in) {
    return Sum(Mul(AddLayerNorm(in[0], in[1], in[2], in[3]),
                   Tensor::FromData({2, 4}, {1, -2, 3, 0.5f, -1, 2, 0.25f,
                                             4})));
  };
  auto result = CheckGradients(fn, {Leaf({2, 4}, 48), Leaf({2, 4}, 49),
                                    Leaf({4}, 50), Leaf({4}, 51)});
  EXPECT_TRUE(result.passed) << result.detail;
}

}  // namespace
}  // namespace tensor
}  // namespace telekit
