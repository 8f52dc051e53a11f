// Tests for the attribute tokenizer/vocabulary and the evaluation metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "analysis/check.hpp"
#include "expr/tokenizer.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace nettag {
namespace {

TEST(Vocab, SpecialTokens) {
  Vocab v;
  EXPECT_EQ(v.id("[PAD]"), v.pad_id());
  EXPECT_EQ(v.id("[UNK]"), v.unk_id());
  EXPECT_EQ(v.id("[CLS]"), v.cls_id());
  EXPECT_NE(v.pad_id(), v.unk_id());
}

TEST(Vocab, KnownTokensDistinct) {
  Vocab v;
  EXPECT_NE(v.id("&"), v.id("|"));
  EXPECT_NE(v.id("nand2"), v.id("nor2"));
  EXPECT_NE(v.id("v0"), v.id("v1"));
  EXPECT_EQ(v.id("totally_unknown_token_xyz"), v.unk_id());
}

TEST(Vocab, IdTokenRoundTrip) {
  Vocab v;
  for (int i = 0; i < v.size(); ++i) {
    EXPECT_EQ(v.id(v.token(i)), i);
  }
}

TEST(Tokenizer, AnonymizesIdentifiersInOrder) {
  const auto toks = tokenize_text("U3 = !(R1|R2)");
  // U3 -> v0, R1 -> v1, R2 -> v2.
  const std::vector<std::string> expected = {"v0", "=", "!", "(",
                                             "v1", "|", "v2", ")"};
  EXPECT_EQ(toks, expected);
}

TEST(Tokenizer, SameStructureDifferentNamesSameTokens) {
  EXPECT_EQ(tokenize_text("U3 = !(R1|R2)"), tokenize_text("g9 = !(alpha|beta)"));
}

TEST(Tokenizer, RepeatedIdentifierSameSlot) {
  const auto toks = tokenize_text("(R2|!R2)");
  const std::vector<std::string> expected = {"(", "v0", "|", "!", "v0", ")"};
  EXPECT_EQ(toks, expected);
}

TEST(Tokenizer, KeywordsPassThrough) {
  const auto toks = tokenize_text("gate nand2 area b3");
  const std::vector<std::string> expected = {"gate", "nand2", "area", "b3"};
  EXPECT_EQ(toks, expected);
}

TEST(Tokenizer, NumbersCollapse) {
  const auto toks = tokenize_text("delay 123 cap 4.5 0 1");
  const std::vector<std::string> expected = {"delay", "<num>", "cap",
                                             "<num>", "0", "1"};
  EXPECT_EQ(toks, expected);
}

TEST(Tokenizer, EncodeTruncates) {
  Vocab v;
  const auto ids = encode_text(v, "(a&b&c&d&e)", 5);
  EXPECT_EQ(ids.size(), 5u);
}

TEST(Tokenizer, BucketTokenMonotonic) {
  const std::string lo = bucket_token(0.001, 0.001, 10.0);
  const std::string hi = bucket_token(9.9, 0.001, 10.0);
  EXPECT_EQ(lo, "b0");
  EXPECT_EQ(hi, "b" + std::to_string(Vocab::kNumBuckets - 1));
  // Clamping outside the range.
  EXPECT_EQ(bucket_token(1e-9, 0.001, 10.0), "b0");
  EXPECT_EQ(bucket_token(1e9, 0.001, 10.0),
            "b" + std::to_string(Vocab::kNumBuckets - 1));
}

TEST(Metrics, PerfectClassification) {
  const std::vector<int> y = {0, 1, 2, 1, 0};
  const auto rep = classification_report(y, y);
  EXPECT_DOUBLE_EQ(rep.accuracy, 1.0);
  EXPECT_DOUBLE_EQ(rep.precision, 1.0);
  EXPECT_DOUBLE_EQ(rep.recall, 1.0);
  EXPECT_DOUBLE_EQ(rep.f1, 1.0);
  EXPECT_EQ(rep.num_classes, 3u);
}

TEST(Metrics, KnownConfusion) {
  // true: two 0s, two 1s; pred: one 0 right, one 0 as 1, both 1s right.
  const std::vector<int> yt = {0, 0, 1, 1};
  const std::vector<int> yp = {0, 1, 1, 1};
  const auto rep = classification_report(yt, yp);
  EXPECT_DOUBLE_EQ(rep.accuracy, 0.75);
  // class0: P=1, R=0.5; class1: P=2/3, R=1. macro P=5/6, R=0.75.
  EXPECT_NEAR(rep.precision, 5.0 / 6.0, 1e-12);
  EXPECT_NEAR(rep.recall, 0.75, 1e-12);
}

TEST(Metrics, SpuriousPredictedClassPenalizesMacroAverages) {
  // Class 2 never occurs in the ground truth but is predicted once. It must
  // enter the macro average as a 0-precision / 0-recall term rather than
  // being dropped (historically the average ran over y_true classes only,
  // so a model hallucinating an extra class paid no macro penalty).
  const std::vector<int> yt = {0, 0, 1, 1};
  const std::vector<int> yp = {0, 2, 1, 1};
  const auto rep = classification_report(yt, yp);
  EXPECT_EQ(rep.num_classes, 3u);
  EXPECT_DOUBLE_EQ(rep.accuracy, 0.75);
  // class0: P=1, R=0.5; class1: P=1, R=1; class2: P=0 (1 FP), R=0 (no truth).
  EXPECT_NEAR(rep.precision, (1.0 + 1.0 + 0.0) / 3.0, 1e-12);
  EXPECT_NEAR(rep.recall, (0.5 + 1.0 + 0.0) / 3.0, 1e-12);
  // class0: F1 = 2*1*0.5/1.5 = 2/3; class1: 1; class2: 0.
  EXPECT_NEAR(rep.f1, (2.0 / 3.0 + 1.0 + 0.0) / 3.0, 1e-12);
}

TEST(Metrics, UnionMatchesTrueClassesWhenNoSpuriousPredictions) {
  // When predictions stay inside the true label set, the union fix is a
  // no-op: same report as the historical y_true-classes-only average.
  const std::vector<int> yt = {3, 3, 5, 5, 5};
  const std::vector<int> yp = {3, 5, 5, 5, 3};
  const auto rep = classification_report(yt, yp);
  EXPECT_EQ(rep.num_classes, 2u);
  // class3: P=0.5, R=0.5; class5: P=2/3, R=2/3.
  EXPECT_NEAR(rep.precision, (0.5 + 2.0 / 3.0) / 2.0, 1e-12);
  EXPECT_NEAR(rep.recall, (0.5 + 2.0 / 3.0) / 2.0, 1e-12);
}

TEST(Metrics, EmptyInputSafe) {
  const auto rep = classification_report({}, {});
  EXPECT_EQ(rep.num_samples, 0u);
  EXPECT_DOUBLE_EQ(rep.accuracy, 0.0);
}

TEST(Metrics, BinaryReport) {
  // positives: 3 (2 found), negatives: 2 (1 correct).
  const std::vector<int> yt = {1, 1, 1, 0, 0};
  const std::vector<int> yp = {1, 1, 0, 0, 1};
  const auto rep = binary_report(yt, yp);
  EXPECT_NEAR(rep.sensitivity, 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(rep.specificity, 0.5, 1e-12);
  EXPECT_NEAR(rep.balanced_accuracy, (2.0 / 3.0 + 0.5) / 2.0, 1e-12);
}

TEST(Metrics, PearsonPerfectCorrelation) {
  const std::vector<double> a = {1, 2, 3, 4};
  const std::vector<double> b = {2, 4, 6, 8};
  EXPECT_NEAR(pearson(a, b), 1.0, 1e-12);
  const std::vector<double> c = {8, 6, 4, 2};
  EXPECT_NEAR(pearson(a, c), -1.0, 1e-12);
}

TEST(Metrics, PearsonZeroVariance) {
  const std::vector<double> a = {1, 1, 1};
  const std::vector<double> b = {1, 2, 3};
  EXPECT_DOUBLE_EQ(pearson(a, b), 0.0);
}

TEST(Metrics, RegressionReportKnownValues) {
  const std::vector<double> yt = {100, 200};
  const std::vector<double> yp = {110, 180};
  const auto rep = regression_report(yt, yp);
  EXPECT_NEAR(rep.mape, 10.0, 1e-9);  // (10% + 10%) / 2
  EXPECT_NEAR(rep.mae, 15.0, 1e-9);
  EXPECT_NEAR(rep.rmse, std::sqrt((100.0 + 400.0) / 2.0), 1e-9);
}

TEST(Metrics, MapeSkipsNearZeroTargets) {
  const std::vector<double> yt = {0.0, 100.0};
  const std::vector<double> yp = {5.0, 110.0};
  const auto rep = regression_report(yt, yp);
  EXPECT_NEAR(rep.mape, 10.0, 1e-9);  // only the 100 target counts
}

// Vectors of different sizes are a caller bug; each report throws a
// CheckError naming both sizes rather than aborting the process.
TEST(Metrics, ClassificationReportRejectsSizeMismatch) {
  EXPECT_THROW(classification_report({1, 0, 1}, {1, 0}), CheckError);
}

TEST(Metrics, BinaryReportRejectsSizeMismatch) {
  EXPECT_THROW(binary_report({1}, {1, 0}), CheckError);
}

TEST(Metrics, PearsonRejectsSizeMismatch) {
  try {
    pearson({1, 2, 3}, {1, 2});
    FAIL() << "size mismatch accepted";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("3 values against 2"),
              std::string::npos)
        << e.what();
  }
}

TEST(Metrics, RegressionReportRejectsSizeMismatch) {
  EXPECT_THROW(regression_report({1.0, 2.0}, {1.0}), CheckError);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1000), b.uniform_int(0, 1000));
  }
}

TEST(Rng, SampleIndicesDistinct) {
  Rng rng(3);
  const auto idx = rng.sample_indices(100, 30);
  EXPECT_EQ(idx.size(), 30u);
  std::set<std::size_t> uniq(idx.begin(), idx.end());
  EXPECT_EQ(uniq.size(), 30u);
  for (std::size_t i : idx) EXPECT_LT(i, 100u);
}

TEST(Rng, SampleIndicesClamped) {
  Rng rng(3);
  EXPECT_EQ(rng.sample_indices(5, 50).size(), 5u);
}

TEST(Rng, ShuffleKeepsElements) {
  Rng rng(9);
  std::vector<int> v = {1, 2, 3, 4, 5};
  auto orig = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

}  // namespace
}  // namespace nettag
