#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <numeric>
#include <string>

#include "common/rng.h"
#include "core/ktelebert.h"
#include "core/model_zoo.h"
#include "core/service.h"
#include "core/telebert.h"
#include "obs/metrics.h"
#include "tensor/simd.h"
#include "tensor/compute_pool.h"
#include "tensor/ops.h"
#include "text/prompt.h"
#include "text/tokenizer.h"

namespace telekit {
namespace core {
namespace {

namespace simd = tensor::simd;

// Tiny fixture: a toy corpus and tokenizer shared by the tests.
struct Fixture {
  text::Tokenizer tokenizer{
      text::TokenizerOptions{.max_len = 16, .min_word_count = 1}};
  std::vector<std::string> corpus;
  std::vector<text::EncodedInput> encoded;

  Fixture() {
    for (int i = 0; i < 8; ++i) {
      corpus.push_back("the alarm triggers service loss quickly");
      corpus.push_back("session setup fails after the link drops");
      corpus.push_back("registration count remains stable all day");
      corpus.push_back("the gateway rejects roaming requests");
    }
    tokenizer.BuildVocab(corpus);
    for (const std::string& s : corpus) {
      encoded.push_back(tokenizer.EncodeSentence(s));
    }
  }

  EncoderConfig Config() const {
    EncoderConfig config;
    config.vocab_size = tokenizer.vocab().size();
    config.d_model = 32;
    config.num_heads = 2;
    config.num_layers = 1;
    config.ffn_dim = 64;
    config.max_len = 16;
    config.dropout = 0.1f;
    return config;
  }
};

Fixture& F() {
  static Fixture* const kFixture = new Fixture();
  return *kFixture;
}

// --- TeleBert ---------------------------------------------------------------------

TEST(TeleBertTest, PretrainingReducesLoss) {
  Rng rng(1);
  TeleBert model(F().Config(), rng);
  PretrainOptions options;
  options.steps = 40;
  options.batch_size = 8;
  options.learning_rate = 2e-3f;
  Rng train_rng(2);
  auto history =
      model.Pretrain(F().encoded, F().tokenizer.vocab(), options, train_rng);
  ASSERT_EQ(history.size(), 40u);
  // Average of the first 5 vs last 5 total losses.
  auto avg = [&](size_t begin, size_t end) {
    double total = 0;
    for (size_t i = begin; i < end; ++i) total += history[i].total_loss;
    return total / static_cast<double>(end - begin);
  };
  EXPECT_LT(avg(35, 40), avg(0, 5));
}

TEST(TeleBertTest, PlainMlmObjectiveAlsoTrains) {
  Rng rng(30);
  TeleBert model(F().Config(), rng);
  PretrainOptions options;
  options.steps = 40;
  options.batch_size = 8;
  options.learning_rate = 2e-3f;
  options.objective = PretrainObjective::kMlmOnly;
  Rng train_rng(31);
  auto history =
      model.Pretrain(F().encoded, F().tokenizer.vocab(), options, train_rng);
  ASSERT_EQ(history.size(), 40u);
  // No RTD under plain MLM; the MLM loss itself must fall.
  for (const auto& s : history) EXPECT_FLOAT_EQ(s.rtd_loss, 0.0f);
  auto avg = [&](size_t begin, size_t end) {
    double total = 0;
    for (size_t i = begin; i < end; ++i) total += history[i].mlm_loss;
    return total / static_cast<double>(end - begin);
  };
  EXPECT_LT(avg(35, 40), avg(0, 5));
}

TEST(TeleBertTest, ServiceVectorDeterministic) {
  Rng rng(3);
  TeleBert model(F().Config(), rng);
  auto v1 = model.ServiceVector(F().encoded[0]);
  auto v2 = model.ServiceVector(F().encoded[0]);
  EXPECT_EQ(v1, v2);
  EXPECT_EQ(static_cast<int>(v1.size()), F().Config().d_model);
}

// At the zoo's encoder shape no GEMM reaches the ComputePool's floor: one
// pre-train step and one full-length encode at 4 compute threads fan out
// no region. Inputs are max_len tokens over a zoo-sized vocabulary.
TEST(TeleBertTest, ZooShapeFansOutNoRegion) {
  const ZooConfig zoo;
  text::Tokenizer tokenizer(text::TokenizerOptions{
      .max_len = zoo.encoder.max_len, .min_word_count = 1});
  std::vector<std::string> corpus;
  for (int s = 0; s < 32; ++s) {
    std::string sentence;
    for (int w = 0; w < 30; ++w) {
      const int word = (s * 30 + w) % 460;
      sentence += std::string(sentence.empty() ? "" : " ") + "x" +
                  static_cast<char>('a' + word / 26) +
                  static_cast<char>('a' + word % 26);
    }
    corpus.push_back(sentence);
  }
  tokenizer.BuildVocab(corpus);
  std::vector<text::EncodedInput> encoded;
  for (const std::string& s : corpus) {
    encoded.push_back(tokenizer.EncodeSentence(s));
  }
  ASSERT_EQ(encoded[0].length, zoo.encoder.max_len);
  EncoderConfig config = zoo.encoder;
  config.vocab_size = tokenizer.vocab().size();
  Rng init(6);
  TeleBert model(config, init);
  PretrainOptions step = zoo.pretrain;
  step.steps = 1;
  const int threads = tensor::ComputeThreads();
  tensor::SetComputeThreads(4);
  const obs::Counter& regions =
      obs::MetricsRegistry::Global().GetCounter("tensor/parallel_regions");
  const uint64_t before = regions.value();
  Rng rng(7);
  model.Pretrain(encoded, tokenizer.vocab(), step, rng);
  model.ServiceVector(encoded[0]);
  EXPECT_EQ(regions.value(), before);
  tensor::SetComputeThreads(threads);
}

TEST(TeleBertTest, CheckpointRoundTrip) {
  Rng rng(4);
  TeleBert a(F().Config(), rng);
  Rng rng2(5);
  TeleBert b(F().Config(), rng2);
  // Different init -> different encodings.
  EXPECT_NE(a.ServiceVector(F().encoded[0]), b.ServiceVector(F().encoded[0]));
  ASSERT_TRUE(b.Restore(a.Checkpoint()).ok());
  EXPECT_EQ(a.ServiceVector(F().encoded[0]), b.ServiceVector(F().encoded[0]));
}

TEST(TeleBertTest, DomainPretrainingShapesSimilarity) {
  // After pre-training, two sentences sharing content words should be more
  // similar than unrelated ones (the property the tasks exploit).
  Rng rng(6);
  TeleBert model(F().Config(), rng);
  PretrainOptions options;
  options.steps = 120;
  options.batch_size = 8;
  options.learning_rate = 2e-3f;
  Rng train_rng(7);
  model.Pretrain(F().encoded, F().tokenizer.vocab(), options, train_rng);
  auto embed = [&](const std::string& s) {
    return model.ServiceVector(F().tokenizer.EncodeSentence(s));
  };
  auto cosine = [](const std::vector<float>& a, const std::vector<float>& b) {
    double dot = 0, na = 0, nb = 0;
    for (size_t i = 0; i < a.size(); ++i) {
      dot += a[i] * b[i];
      na += a[i] * a[i];
      nb += b[i] * b[i];
    }
    return dot / (std::sqrt(na) * std::sqrt(nb) + 1e-9);
  };
  const auto a1 = embed("the alarm triggers service loss");
  const auto a2 = embed("the alarm triggers service loss quickly");
  const auto b = embed("registration count remains stable");
  EXPECT_GT(cosine(a1, a2), cosine(a1, b));
}

// --- KTeleBert ----------------------------------------------------------------------

KTeleBertConfig KtbConfig(bool use_anenc = true) {
  KTeleBertConfig config;
  config.encoder = F().Config();
  config.anenc.d_model = config.encoder.d_model;
  config.anenc.num_meta = 4;
  config.anenc.num_layers = 1;
  config.anenc.ffn_dim = 32;
  config.use_anenc = use_anenc;
  config.num_tags = 3;
  config.ke_negatives = 2;
  return config;
}

text::EncodedInput NumericInput(float value) {
  return F().tokenizer.Encode(
      text::PromptBuilder().Kpi("registration count", value).Build());
}

ReTrainData SmallReTrainData() {
  ReTrainData data;
  for (int i = 0; i < 4; ++i) {
    data.causal_sentences.push_back(F().encoded[static_cast<size_t>(i)]);
    data.triple_sentences.push_back(
        F().tokenizer.Encode(text::PromptBuilder()
                                 .Entity("alarm a")
                                 .Relation("triggers")
                                 .Entity("service loss")
                                 .Build()));
  }
  for (int i = 0; i < 8; ++i) {
    data.machine_logs.push_back(
        NumericInput(static_cast<float>(i) / 8.0f));
    data.machine_log_tags.push_back(i % 3);
  }
  for (const char* name : {"alarm a", "service loss", "the gateway"}) {
    data.entity_inputs.push_back(F().tokenizer.Encode(
        text::PromptBuilder().Entity(name).Build()));
  }
  KeTriple triple;
  triple.head = data.entity_inputs[0];
  triple.relation = F().tokenizer.Encode(
      text::PromptBuilder().Relation("triggers").Build());
  triple.tail = data.entity_inputs[1];
  triple.head_id = 0;
  triple.tail_id = 1;
  data.ke_triples.push_back(triple);
  return data;
}

TEST(KTeleBertTest, HiddenHandlesNumericSlots) {
  Rng rng(8);
  KTeleBert model(KtbConfig(), rng);
  text::EncodedInput input = NumericInput(0.5f);
  ASSERT_FALSE(input.numeric_slots.empty());
  std::vector<tensor::Tensor> anenc_outputs;
  Rng eval(0);
  tensor::Tensor h = model.Hidden(input, eval, false, &anenc_outputs);
  EXPECT_EQ(h.dim(0), input.length);
  EXPECT_EQ(anenc_outputs.size(), input.numeric_slots.size());
}

TEST(KTeleBertTest, NumericValueChangesRepresentation) {
  Rng rng(9);
  KTeleBert model(KtbConfig(), rng);
  auto v1 = model.ServiceVector(NumericInput(0.1f));
  auto v2 = model.ServiceVector(NumericInput(0.9f));
  EXPECT_NE(v1, v2);
}

TEST(KTeleBertTest, WithoutAnEncIgnoresValue) {
  Rng rng(10);
  KTeleBert model(KtbConfig(/*use_anenc=*/false), rng);
  auto v1 = model.ServiceVector(NumericInput(0.1f));
  auto v2 = model.ServiceVector(NumericInput(0.9f));
  EXPECT_EQ(v1, v2);  // value only enters through ANEnc
}

// --- Rows-selected last layer ------------------------------------------------------

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

// `run(selected)` on the scalar and the detected backend: the selected run
// at 1, 2 and 4 compute threads must give the full run's bits.
void ExpectSelectedRowsSameBits(
    const std::function<std::vector<std::vector<float>>(bool)>& run,
    const std::string& what) {
  const simd::Backend backend = simd::ActiveBackend();
  const int threads = tensor::ComputeThreads();
  for (simd::Backend b : {simd::Backend::kScalar, simd::DetectBackend()}) {
    simd::ForceBackend(b);
    tensor::SetComputeThreads(1);
    const auto want = run(/*selected=*/false);
    for (int t : {1, 2, 4}) {
      tensor::SetComputeThreads(t);
      const auto got = run(/*selected=*/true);
      ASSERT_EQ(got.size(), want.size()) << what;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_TRUE(SameBits(got[i], want[i]))
            << what << ": entry " << i << " (0-3: rows and next draw per "
            << "pass, then parameter gradients) on " << simd::BackendName(b)
            << " at " << t << " threads";
      }
    }
  }
  simd::ForceBackend(backend);
  tensor::SetComputeThreads(threads);
}

// Two accumulating training passes: each pass's rows (from `forward`) and
// the stream's next draw, then every parameter's gradient. The loss weights
// each row element by its own random factor, plus `extra` (may be null).
std::vector<std::vector<float>> TwoPasses(
    const NamedParams& params,
    const std::function<tensor::Tensor(Rng&, std::vector<tensor::Tensor>*)>&
        forward) {
  Rng rng(77), weights_rng(78);
  std::vector<std::vector<float>> out;
  for (int pass = 0; pass < 2; ++pass) {
    std::vector<tensor::Tensor> extra;
    const tensor::Tensor y = forward(rng, &extra);
    const tensor::Tensor w = tensor::Tensor::Randn(y.shape(), weights_rng);
    tensor::Tensor loss = tensor::Sum(tensor::Mul(y, w));
    for (const tensor::Tensor& e : extra) {
      loss = tensor::Add(loss, tensor::Sum(e));
    }
    loss.Backward();
    out.push_back(y.data());
    out.push_back({static_cast<float>(rng.NextU64() % 65536)});
  }
  for (const auto& [name, p] : params) out.push_back(p.grad());
  return out;
}

EncoderConfig TwoLayerConfig() {
  EncoderConfig config = F().Config();
  config.num_layers = 2;
  return config;
}

TEST(TeleBertTest, EncodeClsIsRowZeroOfTheFullForwardBitForBit) {
  const text::EncodedInput& input = F().encoded[1];
  ExpectSelectedRowsSameBits(
      [&input](bool selected) {
        Rng init(3);
        TeleBert model(TwoLayerConfig(), init);
        return TwoPasses(model.Parameters(), [&](Rng& rng, auto*) {
          return selected ? model.EncodeCls(input, rng, /*training=*/true)
                          : tensor::SliceRows(model.Hidden(input, rng, true),
                                              0, 1);
        });
      },
      "TeleBERT [CLS]");
  // The served [CLS] (InferCls, whose last layer runs [CLS] alone) is row 0
  // of the full eval forward.
  Rng init(3);
  TeleBert model(TwoLayerConfig(), init);
  for (const text::EncodedInput& sentence : F().encoded) {
    Rng unused(0);
    const tensor::Tensor full = model.Hidden(sentence, unused, false);
    EXPECT_TRUE(SameBits(model.ServiceVector(sentence),
                         tensor::SliceRows(full, 0, 1).data()));
  }
}

// HiddenRows against the gathered Hidden, with numeric slots whose ANEnc
// rows also feed a loss of their own (as the tag and contrastive losses
// read them), so the backward meets the ANEnc branch from two sides.
TEST(KTeleBertTest, HiddenRowsIsTheGatheredHiddenBitForBit) {
  const text::EncodedInput input = NumericInput(0.4f);
  ASSERT_FALSE(input.numeric_slots.empty());
  const int slot = input.numeric_slots[0].position;
  ASSERT_GT(slot, 0);
  std::vector<int> all;
  for (int i = 0; i < input.length; ++i) all.push_back(i);
  for (const std::vector<int>& rows :
       {std::vector<int>{0}, std::vector<int>{slot}, std::vector<int>{0, slot},
        std::vector<int>{1, slot, input.length - 1}, all}) {
    ExpectSelectedRowsSameBits(
        [&input, &rows](bool selected) {
          KTeleBertConfig config = KtbConfig();
          config.encoder = TwoLayerConfig();
          Rng init(4);
          KTeleBert model(config, init);
          return TwoPasses(
              model.Parameters(),
              [&](Rng& rng, std::vector<tensor::Tensor>* anenc) {
                return selected
                           ? model.HiddenRows(input, rows, rng, true, anenc)
                           : tensor::GatherRows(
                                 model.Hidden(input, rng, true, anenc), rows);
              });
        },
        "KTeleBERT rows=" + std::to_string(rows.size()));
  }
  KTeleBertConfig config = KtbConfig();
  config.encoder = TwoLayerConfig();
  Rng init(4);
  KTeleBert model(config, init);
  Rng unused(0);
  const tensor::Tensor full = model.Hidden(input, unused, false);
  EXPECT_TRUE(SameBits(model.ServiceVector(input),
                       tensor::SliceRows(full, 0, 1).data()));
}

TEST(KTeleBertTest, InitializeFromTeleBertCopiesEncoder) {
  Rng rng(11);
  TeleBert telebert(F().Config(), rng);
  Rng rng2(12);
  KTeleBert ktb(KtbConfig(), rng2);
  ASSERT_TRUE(ktb.InitializeFromTeleBert(telebert).ok());
  // Plain-text encodings (no numeric slots) now agree.
  const auto& input = F().encoded[0];
  EXPECT_EQ(telebert.ServiceVector(input), ktb.ServiceVector(input));
}

TEST(KTeleBertTest, KeDistanceNonNegativeAndTrainable) {
  Rng rng(13);
  KTeleBert model(KtbConfig(), rng);
  ReTrainData data = SmallReTrainData();
  Rng eval(0);
  tensor::Tensor d = model.KeDistance(
      data.ke_triples[0].head, data.ke_triples[0].relation,
      data.ke_triples[0].tail, eval, false);
  EXPECT_GE(d.item(), 0.0f);
}

TEST(ReTrainerTest, StlRunsAndReducesLoss) {
  Rng rng(14);
  KTeleBert model(KtbConfig(), rng);
  ReTrainOptions options;
  options.strategy = TrainingStrategy::kStl;
  options.total_steps = 30;
  options.batch_size = 6;
  options.learning_rate = 1e-3f;
  ReTrainer trainer(model, options);
  Rng train_rng(15);
  auto history = trainer.Train(SmallReTrainData(), train_rng);
  ASSERT_EQ(history.size(), 30u);
  for (const ReTrainStats& s : history) {
    EXPECT_TRUE(s.ran_mask_task);
    EXPECT_FALSE(s.ran_ke_task);
  }
  auto avg = [&](size_t begin, size_t end) {
    double total = 0;
    for (size_t i = begin; i < end; ++i) total += history[i].total_loss;
    return total / static_cast<double>(end - begin);
  };
  EXPECT_LT(avg(25, 30), avg(0, 5));
}

TEST(ReTrainerTest, PmtlRunsBothTasksEveryStep) {
  Rng rng(16);
  KTeleBert model(KtbConfig(), rng);
  ReTrainOptions options;
  options.strategy = TrainingStrategy::kPmtl;
  options.total_steps = 6;
  options.batch_size = 4;
  options.ke_batch_size = 2;
  ReTrainer trainer(model, options);
  Rng train_rng(17);
  auto history = trainer.Train(SmallReTrainData(), train_rng);
  for (const ReTrainStats& s : history) {
    EXPECT_TRUE(s.ran_mask_task);
    EXPECT_TRUE(s.ran_ke_task);
    EXPECT_GT(s.ke_loss, 0.0f);
  }
}

TEST(ReTrainerTest, ImtlFollowsStagedSchedule) {
  Rng rng(18);
  KTeleBert model(KtbConfig(), rng);
  ReTrainOptions options;
  options.strategy = TrainingStrategy::kImtl;
  options.total_steps = 30;
  options.batch_size = 4;
  options.ke_batch_size = 2;
  ReTrainer trainer(model, options);
  Rng train_rng(19);
  auto history = trainer.Train(SmallReTrainData(), train_rng);
  // Stage 1 (first 40%): mask only.
  for (size_t i = 0; i < 12; ++i) {
    EXPECT_TRUE(history[i].ran_mask_task);
    EXPECT_FALSE(history[i].ran_ke_task);
  }
  // Later stages: KE appears.
  int ke_steps = 0;
  for (size_t i = 12; i < history.size(); ++i) {
    ke_steps += history[i].ran_ke_task;
  }
  EXPECT_GT(ke_steps, 5);
}

TEST(ReTrainerTest, KeLossFallsWithTraining) {
  Rng rng(20);
  KTeleBert model(KtbConfig(), rng);
  ReTrainOptions options;
  options.strategy = TrainingStrategy::kPmtl;
  options.total_steps = 25;
  options.batch_size = 2;
  options.ke_batch_size = 4;
  options.learning_rate = 1e-3f;
  ReTrainer trainer(model, options);
  Rng train_rng(21);
  auto history = trainer.Train(SmallReTrainData(), train_rng);
  double early = 0, late = 0;
  for (size_t i = 0; i < 5; ++i) early += history[i].ke_loss;
  for (size_t i = history.size() - 5; i < history.size(); ++i) {
    late += history[i].ke_loss;
  }
  EXPECT_LT(late, early);
}

TEST(KTeleBertTest, CheckpointRoundTrip) {
  Rng rng(22);
  KTeleBert a(KtbConfig(), rng);
  Rng rng2(23);
  KTeleBert b(KtbConfig(), rng2);
  ASSERT_TRUE(b.Restore(a.Checkpoint()).ok());
  EXPECT_EQ(a.ServiceVector(NumericInput(0.4f)),
            b.ServiceVector(NumericInput(0.4f)));
}

// --- Training arithmetic ----------------------------------------------------------------

// Every step's total loss of a short seeded run: a 2-layer TeleBERT
// pre-train (ELECTRA + SimCSE, dropout on), then a PMTL re-train of a
// KTeleBERT initialized from it (mask, numeric and KE losses every step).
std::vector<float> PretrainThenPmtlLosses() {
  EncoderConfig encoder = F().Config();
  encoder.num_layers = 2;
  Rng rng(41);
  TeleBert telebert(encoder, rng);
  PretrainOptions pretrain;
  pretrain.steps = 4;
  pretrain.batch_size = 4;
  Rng pretrain_rng(42);
  std::vector<float> losses;
  for (const PretrainStats& s : telebert.Pretrain(
           F().encoded, F().tokenizer.vocab(), pretrain, pretrain_rng)) {
    losses.push_back(s.total_loss);
  }
  KTeleBertConfig config = KtbConfig();
  config.encoder = encoder;
  Rng ktb_rng(43);
  KTeleBert model(config, ktb_rng);
  EXPECT_TRUE(model.InitializeFromTeleBert(telebert).ok());
  ReTrainOptions retrain;
  retrain.strategy = TrainingStrategy::kPmtl;
  retrain.total_steps = 4;
  retrain.batch_size = 4;
  retrain.ke_batch_size = 2;
  ReTrainer trainer(model, retrain);
  Rng retrain_rng(44);
  for (const ReTrainStats& s : trainer.Train(SmallReTrainData(), retrain_rng)) {
    losses.push_back(s.total_loss);
  }
  return losses;
}

void ExpectLossBits(const std::vector<float>& expected) {
  const std::vector<float> actual = PretrainThenPmtlLosses();
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(std::memcmp(&actual[i], &expected[i], sizeof(float)), 0)
        << "step " << i << ": " << std::hexfloat << actual[i] << " != "
        << expected[i];
  }
}

// The losses' bits, recorded before the encoder's training graph was fused
// into Linear / Attention / AddLayerNorm nodes (GCC 12, the Release
// build's -O2). A change to the training arithmetic (an op's kernel, a
// sum's order, the tape's backward order) fails here. The approximate GELU
// and exp kernels differ by backend, so each backend has its own record;
// NEON has none (its GEMM tiles are its own). The AVX2 record holds at -O1
// too: the AVX2 kernels' scalar tails fuse their multiply-adds explicitly
// (DESIGN.md §3).
TEST(TrainingArithmeticTest, PretrainThenPmtlLossBitsUnchanged) {
  const simd::Backend previous = simd::ActiveBackend();
  simd::ForceBackend(simd::Backend::kScalar);
  ExpectLossBits({0x1.a4494ep+2f, 0x1.7eec48p+2f, 0x1.55e332p+2f,
                  0x1.5b29d4p+2f, 0x1.5820dcp+3f, 0x1.5a22aap+3f,
                  0x1.0a9a9cp+3f, 0x1.60c71p+3f});
  if (simd::DetectBackend() == simd::Backend::kAvx2) {
    simd::ForceBackend(simd::Backend::kAvx2);
    ExpectLossBits({0x1.a4494ep+2f, 0x1.7eec48p+2f, 0x1.55e334p+2f,
                    0x1.5b29d2p+2f, 0x1.5820dap+3f, 0x1.5a2386p+3f,
                    0x1.0a9a98p+3f, 0x1.60c74p+3f});
  }
  simd::ForceBackend(previous);
}

// --- Service encoders -----------------------------------------------------------------

TEST(ServiceTest, RandomEncoderDeterministicPerName) {
  RandomEncoder enc(16, 7);
  auto input_a = F().tokenizer.EncodeSentence("alarm one");
  auto input_b = F().tokenizer.EncodeSentence("alarm two");
  EXPECT_EQ(enc.Encode(input_a), enc.Encode(input_a));
  EXPECT_NE(enc.Encode(input_a), enc.Encode(input_b));
  EXPECT_EQ(enc.dim(), 16);
}

TEST(ServiceTest, WordAveragingSharesWordSignal) {
  WordAveragingEncoder enc(32, 9);
  auto cosine = [](const std::vector<float>& a, const std::vector<float>& b) {
    double dot = 0, na = 0, nb = 0;
    for (size_t i = 0; i < a.size(); ++i) {
      dot += a[i] * b[i];
      na += a[i] * a[i];
      nb += b[i] * b[i];
    }
    return dot / (std::sqrt(na) * std::sqrt(nb) + 1e-9);
  };
  auto a = enc.Encode(F().tokenizer.EncodeSentence("the alarm triggers"));
  auto b = enc.Encode(F().tokenizer.EncodeSentence("the alarm drops"));
  auto c = enc.Encode(F().tokenizer.EncodeSentence("registration remains"));
  EXPECT_GT(cosine(a, b), cosine(a, c));
}

TEST(ServiceTest, OnlyNameModeWorksWithoutStore) {
  RandomEncoder enc(8, 1);
  ServiceEncoder service(&enc, &F().tokenizer, nullptr, nullptr);
  auto v = service.Encode("some alarm", ServiceMode::kOnlyName);
  EXPECT_EQ(v.size(), 8u);
  // Entity modes degrade gracefully without a store.
  auto v2 = service.Encode("some alarm", ServiceMode::kEntityWithAttr);
  EXPECT_EQ(v, v2);
}

}  // namespace
}  // namespace core
}  // namespace telekit
