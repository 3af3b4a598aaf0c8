#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>

#include "common/rng.h"
#include "text/bpe.h"
#include "text/masking.h"
#include "text/numeric.h"
#include "text/prompt.h"
#include "text/tokenizer.h"
#include "text/vocab.h"

namespace telekit {
namespace text {
namespace {

// --- Vocab ----------------------------------------------------------------------

TEST(VocabTest, SpecialTokensPreRegistered) {
  Vocab v;
  EXPECT_EQ(v.size(), SpecialTokens::kFirstRegular);
  EXPECT_EQ(v.Id("[CLS]"), SpecialTokens::kCls);
  EXPECT_EQ(v.Id("[MASK]"), SpecialTokens::kMask);
  EXPECT_EQ(v.Id("[ALM]"), SpecialTokens::kAlm);
  EXPECT_EQ(v.Id("[NUM]"), SpecialTokens::kNum);
  EXPECT_EQ(v.Id("|"), SpecialTokens::kBar);
}

TEST(VocabTest, AddIsIdempotent) {
  Vocab v;
  const int a = v.AddToken("alarm");
  const int b = v.AddToken("alarm");
  EXPECT_EQ(a, b);
  EXPECT_EQ(v.size(), SpecialTokens::kFirstRegular + 1);
}

TEST(VocabTest, UnknownMapsToUnk) {
  Vocab v;
  EXPECT_EQ(v.Id("zzz"), SpecialTokens::kUnk);
  EXPECT_FALSE(v.Contains("zzz"));
}

TEST(VocabTest, RoundTrip) {
  Vocab v;
  const int id = v.AddToken("PGW");
  EXPECT_EQ(v.Token(id), "PGW");
  EXPECT_EQ(v.Id("PGW"), id);
}

TEST(VocabTest, IsSpecialBoundary) {
  EXPECT_TRUE(Vocab::IsSpecial(SpecialTokens::kNum));
  EXPECT_TRUE(Vocab::IsSpecial(SpecialTokens::kBar));
  EXPECT_FALSE(Vocab::IsSpecial(SpecialTokens::kFirstRegular));
}

TEST(VocabTest, RegularTokensExcludeSpecials) {
  Vocab v;
  v.AddToken("x");
  v.AddToken("y");
  auto regular = v.RegularTokens();
  ASSERT_EQ(regular.size(), 2u);
  EXPECT_EQ(regular[0], "x");
}

// --- BPE ------------------------------------------------------------------------

std::vector<std::string> RepeatedCorpus() {
  // "PGW" and "MME" appear as substrings of many words.
  std::vector<std::string> corpus;
  for (int i = 0; i < 40; ++i) {
    corpus.push_back("PGW1 connects PGW2 and PGW3");
    corpus.push_back("MME node MME backup MME pool");
    corpus.push_back("the link from PGW4 to MME9 failed");
  }
  return corpus;
}

TEST(BpeTest, LearnsFrequentMerges) {
  BpeLearner bpe(BpeOptions{.num_merges = 50, .min_frequency = 10});
  bpe.Fit(RepeatedCorpus());
  EXPECT_FALSE(bpe.merges().empty());
  // "PGW" should be formed (frequency ~200 across the corpus).
  EXPECT_GT(bpe.SymbolFrequency("PG") + bpe.SymbolFrequency("PGW"), 0);
}

TEST(BpeTest, SegmentUsesLearnedMerges) {
  BpeLearner bpe(BpeOptions{.num_merges = 80, .min_frequency = 5});
  bpe.Fit(RepeatedCorpus());
  auto pieces = bpe.Segment("PGW7");
  // The whole "PGW" prefix should collapse into few pieces.
  EXPECT_LE(pieces.size(), 3u);
  std::string joined;
  for (const auto& p : pieces) joined += p;
  EXPECT_EQ(joined, "PGW7");
}

TEST(BpeTest, SegmentUnseenCharactersFallsBack) {
  BpeLearner bpe;
  bpe.Fit(RepeatedCorpus());
  auto pieces = bpe.Segment("@#");
  std::string joined;
  for (const auto& p : pieces) joined += p;
  EXPECT_EQ(joined, "@#");
}

TEST(BpeTest, ExtractTeleTokensRespectsConstraints) {
  BpeLearner bpe(BpeOptions{
      .num_merges = 80, .min_token_len = 2, .max_token_len = 4,
      .min_frequency = 50});
  bpe.Fit(RepeatedCorpus());
  Vocab base;
  base.AddToken("the");  // pretend base vocabulary entry
  auto tokens = bpe.ExtractTeleTokens(base);
  for (const auto& t : tokens) {
    EXPECT_GE(t.size(), 2u);
    EXPECT_LE(t.size(), 4u);
    EXPECT_FALSE(base.Contains(t));
    EXPECT_GE(bpe.SymbolFrequency(t), 50);
  }
  // "PGW" is a canonical candidate from this corpus.
  EXPECT_NE(std::find(tokens.begin(), tokens.end(), "PGW"), tokens.end());
}

TEST(BpeTest, DeterministicAcrossRuns) {
  BpeLearner a, b;
  a.Fit(RepeatedCorpus());
  b.Fit(RepeatedCorpus());
  EXPECT_EQ(a.merges(), b.merges());
}

TEST(BpeTest, DuplicateMergeKeepsItsFirstRank) {
  // ("a","b") is listed at ranks 0 and 2; at rank 0 it beats ("b","c").
  const BpeLearner bpe(BpeOptions{}, {{"a", "b"}, {"b", "c"}, {"a", "b"}},
                       {{"ab", 3}, {"bc", 2}, {"ab", 1}});
  EXPECT_EQ(bpe.Segment("abc"), (std::vector<std::string>{"ab", "c"}));
}

// --- Prompt ----------------------------------------------------------------------

TEST(PromptTest, AlarmTemplateShape) {
  PromptSequence p = PromptBuilder()
                         .Alarm("link down")
                         .Attribute("severity", "major")
                         .Build();
  // [ALM] text [ATTR] key | value
  ASSERT_EQ(p.size(), 6u);
  EXPECT_EQ(p[0].kind, PromptElement::Kind::kSpecial);
  EXPECT_EQ(p[0].special_id, SpecialTokens::kAlm);
  EXPECT_EQ(p[1].text, "link down");
  EXPECT_EQ(p[2].special_id, SpecialTokens::kAttr);
  EXPECT_EQ(p[4].special_id, SpecialTokens::kBar);
  EXPECT_EQ(p[5].text, "major");
}

TEST(PromptTest, KpiCarriesNumericSlot) {
  PromptSequence p = PromptBuilder().Kpi("registration rate", 0.75f).Build();
  ASSERT_EQ(p.size(), 4u);
  EXPECT_EQ(p[0].special_id, SpecialTokens::kKpi);
  EXPECT_EQ(p[2].special_id, SpecialTokens::kBar);
  EXPECT_EQ(p[3].kind, PromptElement::Kind::kNumeric);
  EXPECT_EQ(p[3].tag, "registration rate");
  EXPECT_FLOAT_EQ(p[3].value, 0.75f);
}

TEST(PromptTest, TripleTemplate) {
  PromptSequence p = PromptBuilder()
                         .Entity("alarm A")
                         .Relation("triggers")
                         .Entity("alarm B")
                         .Build();
  ASSERT_EQ(p.size(), 6u);
  EXPECT_EQ(p[0].special_id, SpecialTokens::kEnt);
  EXPECT_EQ(p[2].special_id, SpecialTokens::kRel);
  EXPECT_EQ(p[4].special_id, SpecialTokens::kEnt);
}

TEST(PromptTest, ToStringRendersTokens) {
  Vocab v;
  PromptSequence p =
      PromptBuilder().Alarm("x").NumericAttribute("count", 0.5f).Build();
  const std::string s = PromptToString(p, v);
  EXPECT_NE(s.find("[ALM]"), std::string::npos);
  EXPECT_NE(s.find("[ATTR]"), std::string::npos);
  EXPECT_NE(s.find("count"), std::string::npos);
}

// --- Tokenizer ---------------------------------------------------------------------

std::vector<std::string> TinyCorpus() {
  std::vector<std::string> corpus;
  for (int i = 0; i < 10; ++i) {
    corpus.push_back("the alarm triggers abnormal registration failures");
    corpus.push_back("network congestion points lead to service loss");
    corpus.push_back("the service recovers after the alarm clears");
  }
  return corpus;
}

Tokenizer MakeTokenizer(int max_len = 24) {
  Tokenizer tok(TokenizerOptions{.max_len = max_len, .min_word_count = 2});
  tok.BuildVocab(TinyCorpus());
  return tok;
}

TEST(TokenizerTest, SplitWordsStripsPunctuation) {
  auto words = Tokenizer::SplitWords("Hello, world! (test)");
  ASSERT_EQ(words.size(), 3u);
  EXPECT_EQ(words[0], "Hello");
  EXPECT_EQ(words[1], "world");
  EXPECT_EQ(words[2], "test");
}

TEST(TokenizerTest, FrequentWordsAreWholeTokens) {
  Tokenizer tok = MakeTokenizer();
  auto ids = tok.WordToIds("alarm");
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_GE(ids[0], SpecialTokens::kFirstRegular);
}

TEST(TokenizerTest, UnseenWordSegmentsNotUnk) {
  Tokenizer tok = MakeTokenizer();
  // A novel compound of in-corpus characters must segment without [UNK].
  auto ids = tok.WordToIds("alarmloss");
  EXPECT_GE(ids.size(), 1u);
  for (int id : ids) EXPECT_NE(id, SpecialTokens::kUnk);
  // A word with characters never seen in the corpus degrades to [UNK].
  auto unk_ids = tok.WordToIds("xyz@");
  EXPECT_NE(std::find(unk_ids.begin(), unk_ids.end(), SpecialTokens::kUnk),
            unk_ids.end());
}

TEST(TokenizerTest, EncodeSentenceFraming) {
  Tokenizer tok = MakeTokenizer();
  EncodedInput e = tok.EncodeSentence("the alarm triggers service loss");
  EXPECT_EQ(e.ids.front(), SpecialTokens::kCls);
  EXPECT_EQ(e.ids[static_cast<size_t>(e.length - 1)], SpecialTokens::kSep);
  EXPECT_EQ(static_cast<int>(e.ids.size()), tok.options().max_len);
  for (size_t i = static_cast<size_t>(e.length); i < e.ids.size(); ++i) {
    EXPECT_EQ(e.ids[i], SpecialTokens::kPad);
  }
  EXPECT_FALSE(e.word_spans.empty());
}

TEST(TokenizerTest, TruncationKeepsSepAndDropsOverflowSpans) {
  Tokenizer tok = MakeTokenizer(/*max_len=*/6);
  EncodedInput e = tok.EncodeSentence(
      "the alarm triggers abnormal registration failures again and again");
  EXPECT_EQ(static_cast<int>(e.ids.size()), 6);
  EXPECT_EQ(e.ids[5], SpecialTokens::kSep);
  for (const auto& [start, len] : e.word_spans) {
    EXPECT_LE(start + len, 5);
  }
}

TEST(TokenizerTest, PromptEncodingPlacesSpecials) {
  Tokenizer tok = MakeTokenizer();
  EncodedInput e = tok.Encode(PromptBuilder()
                                  .Alarm("service loss")
                                  .Attribute("severity", "major")
                                  .Build());
  // [CLS] [ALM] ... [ATTR] ... | ...
  EXPECT_EQ(e.ids[0], SpecialTokens::kCls);
  EXPECT_EQ(e.ids[1], SpecialTokens::kAlm);
  const auto& ids = e.ids;
  EXPECT_NE(std::find(ids.begin(), ids.end(), SpecialTokens::kAttr),
            ids.end());
  EXPECT_NE(std::find(ids.begin(), ids.end(), SpecialTokens::kBar), ids.end());
}

TEST(TokenizerTest, NumericSlotRecorded) {
  Tokenizer tok = MakeTokenizer();
  EncodedInput e =
      tok.Encode(PromptBuilder().Kpi("registration failures", 0.3f).Build());
  ASSERT_EQ(e.numeric_slots.size(), 1u);
  const NumericSlot& slot = e.numeric_slots[0];
  EXPECT_EQ(e.ids[static_cast<size_t>(slot.position)], SpecialTokens::kNum);
  EXPECT_FLOAT_EQ(slot.value, 0.3f);
  EXPECT_FALSE(slot.tag_ids.empty());
  EXPECT_EQ(slot.tag, "registration failures");
}

TEST(TokenizerTest, NumericSlotNeverInWordSpans) {
  Tokenizer tok = MakeTokenizer();
  EncodedInput e = tok.Encode(PromptBuilder()
                                  .Alarm("service loss")
                                  .NumericAttribute("count", 0.9f)
                                  .Build());
  ASSERT_EQ(e.numeric_slots.size(), 1u);
  const int num_pos = e.numeric_slots[0].position;
  for (const auto& [start, len] : e.word_spans) {
    EXPECT_TRUE(num_pos < start || num_pos >= start + len);
  }
}

TEST(TokenizerTest, DomainPhraseFormsSingleSpan) {
  Tokenizer tok = MakeTokenizer();
  tok.AddDomainPhrases({"network congestion points"});
  EncodedInput e = tok.EncodeSentence("network congestion points lead to");
  // First span covers all three phrase words.
  ASSERT_FALSE(e.word_spans.empty());
  EXPECT_EQ(e.word_spans[0].second, 3);
}

TEST(TokenizerTest, TeleTokenPromotion) {
  Tokenizer tok(TokenizerOptions{.max_len = 16, .min_word_count = 100});
  std::vector<std::string> corpus;
  for (int i = 0; i < 100; ++i) corpus.push_back("PGW7 MME3 PGW9 MME1");
  tok.BuildVocab(corpus, BpeOptions{.num_merges = 30, .min_frequency = 50});
  const int before = tok.vocab().size();
  auto added = tok.AddSpecialTeleTokens(10);
  EXPECT_EQ(tok.vocab().size(), before + static_cast<int>(added.size()));
  for (const auto& t : added) EXPECT_TRUE(tok.vocab().Contains(t));
}

// --- Tokenizer persistence --------------------------------------------------------

TEST(TokenizerIoTest, SaveLoadRoundTripEncodesIdentically) {
  Tokenizer tok = MakeTokenizer();
  tok.AddDomainPhrases({"network congestion points"});
  tok.AddSpecialTeleTokens(8);
  const std::string path = ::testing::TempDir() + "/tok.txt";
  ASSERT_TRUE(tok.Save(path).ok());
  auto loaded = Tokenizer::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->vocab().size(), tok.vocab().size());
  for (const std::string& sentence :
       {std::string("the alarm triggers service loss"),
        std::string("network congestion points lead to unseenword")}) {
    EncodedInput a = tok.EncodeSentence(sentence);
    EncodedInput b = loaded->EncodeSentence(sentence);
    EXPECT_EQ(a.ids, b.ids) << sentence;
    EXPECT_EQ(a.word_spans, b.word_spans) << sentence;
  }
  // Prompt encodings with numeric slots round-trip too.
  EncodedInput a = tok.Encode(
      PromptBuilder().Kpi("registration failures", 0.4f).Build());
  EncodedInput b = loaded->Encode(
      PromptBuilder().Kpi("registration failures", 0.4f).Build());
  EXPECT_EQ(a.ids, b.ids);
  ASSERT_EQ(b.numeric_slots.size(), 1u);
  EXPECT_EQ(a.numeric_slots[0].tag_ids, b.numeric_slots[0].tag_ids);
  std::remove(path.c_str());
}

TEST(TokenizerIoTest, LoadedBpeSegmentsUnseenWordsLikeTheFittedOne) {
  Tokenizer tok = MakeTokenizer();
  const std::string path = ::testing::TempDir() + "/tok_bpe.txt";
  ASSERT_TRUE(tok.Save(path).ok());
  auto loaded = Tokenizer::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->bpe().merges(), tok.bpe().merges());
  for (const std::string word :
       {"unseenword", "congestionpoints", "alarmx7", "serviceloss", "zq",
        "@#"}) {
    EXPECT_FALSE(tok.vocab().Contains(word)) << word;
    EXPECT_EQ(loaded->bpe().Segment(word), tok.bpe().Segment(word)) << word;
  }
  std::remove(path.c_str());
}

TEST(TokenizerIoTest, SaveUnbuiltFails) {
  Tokenizer tok;
  EXPECT_EQ(tok.Save(::testing::TempDir() + "/x.txt").code(),
            StatusCode::kFailedPrecondition);
}

TEST(TokenizerIoTest, LoadMissingOrCorruptFails) {
  EXPECT_EQ(Tokenizer::Load("/no/such/file").status().code(),
            StatusCode::kNotFound);
  const std::string path = ::testing::TempDir() + "/corrupt.txt";
  {
    std::ofstream out(path);
    out << "not a tokenizer\n";
  }
  EXPECT_EQ(Tokenizer::Load(path).status().code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

// --- Masking -----------------------------------------------------------------------

TEST(MaskingTest, LabelsMatchOriginalAtMaskedPositions) {
  Tokenizer tok = MakeTokenizer();
  EncodedInput e = tok.EncodeSentence("the alarm triggers service loss");
  Rng rng(1);
  MaskingOptions options;
  options.mask_rate = 0.4f;
  MaskedExample masked = ApplyMasking(e, tok.vocab(), options, rng);
  EXPECT_GT(masked.num_masked, 0);
  int labelled = 0;
  for (size_t i = 0; i < masked.labels.size(); ++i) {
    if (masked.labels[i] >= 0) {
      ++labelled;
      EXPECT_EQ(masked.labels[i], e.ids[i]);  // label = original token
    } else {
      EXPECT_EQ(masked.ids[i], e.ids[i]);  // untouched elsewhere
    }
  }
  EXPECT_EQ(labelled, masked.num_masked);
}

TEST(MaskingTest, NeverMasksSpecialsOrNumeric) {
  Tokenizer tok = MakeTokenizer();
  EncodedInput e = tok.Encode(PromptBuilder()
                                  .Alarm("service loss")
                                  .Kpi("registration failures", 0.5f)
                                  .Build());
  Rng rng(2);
  MaskingOptions options;
  options.mask_rate = 0.9f;  // aggressive; specials must still survive
  for (int trial = 0; trial < 20; ++trial) {
    MaskedExample masked = ApplyMasking(e, tok.vocab(), options, rng);
    EXPECT_EQ(masked.ids[0], SpecialTokens::kCls);
    for (size_t i = 0; i < masked.ids.size(); ++i) {
      if (Vocab::IsSpecial(e.ids[i]) && e.ids[i] != SpecialTokens::kUnk) {
        EXPECT_EQ(masked.ids[i], e.ids[i]);
        EXPECT_EQ(masked.labels[i], -1);
      }
    }
  }
}

TEST(MaskingTest, WholeWordMasksEntireSpan) {
  Tokenizer tok = MakeTokenizer();
  tok.AddDomainPhrases({"network congestion points"});
  EncodedInput e = tok.EncodeSentence("network congestion points lead to");
  Rng rng(3);
  MaskingOptions options;
  options.mask_rate = 0.05f;  // budget 1 -> exactly one unit selected
  options.strategy = MaskingStrategy::kWholeWord;
  options.mask_token_prob = 1.0f;
  options.random_token_prob = 0.0f;
  bool saw_phrase_mask = false;
  for (int trial = 0; trial < 50; ++trial) {
    MaskedExample masked = ApplyMasking(e, tok.vocab(), options, rng);
    // Per span: either fully labelled or fully unlabelled.
    for (const auto& [start, len] : e.word_spans) {
      int labelled = 0;
      for (int k = 0; k < len; ++k) {
        labelled += masked.labels[static_cast<size_t>(start + k)] >= 0;
      }
      EXPECT_TRUE(labelled == 0 || labelled == len);
      if (len == 3 && labelled == len) saw_phrase_mask = true;
    }
  }
  EXPECT_TRUE(saw_phrase_mask);
}

TEST(MaskingTest, HigherRateMasksMore) {
  Tokenizer tok = MakeTokenizer();
  EncodedInput e = tok.EncodeSentence(
      "the alarm triggers abnormal registration failures after congestion");
  Rng rng(4);
  MaskingOptions low;
  low.mask_rate = 0.15f;
  MaskingOptions high;
  high.mask_rate = 0.40f;
  int low_total = 0, high_total = 0;
  for (int i = 0; i < 100; ++i) {
    low_total += ApplyMasking(e, tok.vocab(), low, rng).num_masked;
    high_total += ApplyMasking(e, tok.vocab(), high, rng).num_masked;
  }
  EXPECT_GT(high_total, low_total);
}

TEST(MaskingTest, DynamicMaskingVariesAcrossCalls) {
  Tokenizer tok = MakeTokenizer();
  EncodedInput e = tok.EncodeSentence(
      "the alarm triggers abnormal registration failures after congestion");
  Rng rng(5);
  MaskingOptions options;
  options.mask_rate = 0.3f;
  std::set<std::vector<int>> patterns;
  for (int i = 0; i < 20; ++i) {
    patterns.insert(ApplyMasking(e, tok.vocab(), options, rng).labels);
  }
  EXPECT_GT(patterns.size(), 1u);
}

// --- MinMaxNormalizer ------------------------------------------------------------------

TEST(NormalizerTest, MapsToUnitInterval) {
  MinMaxNormalizer norm;
  norm.Observe("kpi", 10.0f);
  norm.Observe("kpi", 20.0f);
  EXPECT_FLOAT_EQ(norm.Normalize("kpi", 10.0f), 0.0f);
  EXPECT_FLOAT_EQ(norm.Normalize("kpi", 20.0f), 1.0f);
  EXPECT_FLOAT_EQ(norm.Normalize("kpi", 15.0f), 0.5f);
}

TEST(NormalizerTest, ClampsOutOfRange) {
  MinMaxNormalizer norm;
  norm.Observe("kpi", 0.0f);
  norm.Observe("kpi", 1.0f);
  EXPECT_FLOAT_EQ(norm.Normalize("kpi", -5.0f), 0.0f);
  EXPECT_FLOAT_EQ(norm.Normalize("kpi", 9.0f), 1.0f);
}

TEST(NormalizerTest, UnseenTagMidpoint) {
  MinMaxNormalizer norm;
  EXPECT_FLOAT_EQ(norm.Normalize("new field", 123.0f), 0.5f);
  EXPECT_FALSE(norm.HasTag("new field"));
}

TEST(NormalizerTest, ConstantFieldMidpoint) {
  MinMaxNormalizer norm;
  norm.Observe("c", 7.0f);
  norm.Observe("c", 7.0f);
  EXPECT_FLOAT_EQ(norm.Normalize("c", 7.0f), 0.5f);
}

TEST(NormalizerTest, SeparateTagsIndependent) {
  MinMaxNormalizer norm;
  norm.Observe("a", 0.0f);
  norm.Observe("a", 1.0f);
  norm.Observe("b", 100.0f);
  norm.Observe("b", 200.0f);
  EXPECT_FLOAT_EQ(norm.Normalize("a", 0.5f), 0.5f);
  EXPECT_FLOAT_EQ(norm.Normalize("b", 150.0f), 0.5f);
  EXPECT_EQ(norm.num_tags(), 2);
}

TEST(NormalizerTest, DenormalizeRoundTrip) {
  MinMaxNormalizer norm;
  norm.Observe("x", -10.0f);
  norm.Observe("x", 30.0f);
  const float n = norm.Normalize("x", 5.0f);
  EXPECT_NEAR(norm.Denormalize("x", n), 5.0f, 1e-4f);
}

}  // namespace
}  // namespace text
}  // namespace telekit
