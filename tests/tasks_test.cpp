// Tests for the fine-tuning heads, GBDT, and the four downstream task
// runners (smoke-level on tiny corpora; the statistical claims live in the
// bench binaries).
#include <gtest/gtest.h>

#include <cmath>

#include "core/pretrain.hpp"
#include "tasks/aig_encoders.hpp"
#include "tasks/finetune.hpp"
#include "tasks/gbdt.hpp"
#include "tasks/task1.hpp"
#include "tasks/task2.hpp"
#include "tasks/task3.hpp"
#include "tasks/task4.hpp"

namespace nettag {
namespace {

TEST(ClassifierHead, LearnsLinearlySeparableData) {
  Rng rng(1);
  const int n = 200;
  Mat x(n, 4);
  std::vector<int> y(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const int cls = i % 3;
    for (int j = 0; j < 4; ++j) {
      x.at(i, j) = static_cast<float>(rng.normal(cls == j ? 2.0 : 0.0, 0.3));
    }
    y[static_cast<std::size_t>(i)] = cls;
  }
  FinetuneOptions fo;
  fo.steps = 400;
  ClassifierHead head(4, 3, fo, rng);
  head.fit(x, y, rng);
  const auto pred = head.predict(x);
  const auto rep = classification_report(y, pred);
  EXPECT_GT(rep.accuracy, 0.95);
}

TEST(ClassifierHead, WeightedSamplingHandlesImbalance) {
  Rng rng(2);
  // 95:5 imbalance; weighted head must still find the minority class.
  const int n = 200;
  Mat x(n, 2);
  std::vector<int> y(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const int cls = i < 190 ? 0 : 1;
    x.at(i, 0) = static_cast<float>(rng.normal(cls * 3.0, 0.4));
    x.at(i, 1) = static_cast<float>(rng.normal(0, 0.4));
    y[static_cast<std::size_t>(i)] = cls;
  }
  FinetuneOptions fo;
  fo.steps = 400;
  fo.class_weighted = true;
  ClassifierHead head(2, 2, fo, rng);
  head.fit(x, y, rng);
  const auto rep = binary_report(y, head.predict(x));
  EXPECT_GT(rep.sensitivity, 0.9);
}

TEST(ClassifierHead, InputScaleInvariance) {
  // A feature on a wildly different scale must not break training (this was
  // a real bug: raw nanosecond clock values next to unit-scale embeddings).
  // The label needs both features, so the head cannot ignore the wide one.
  Rng rng(4);
  const int n = 200;
  Mat x(n, 2);
  std::vector<int> y(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    x.at(i, 0) = static_cast<float>(rng.normal(0, 1));
    x.at(i, 1) = static_cast<float>(rng.normal(0, 1) * 1000.0 + 5000.0);
    y[static_cast<std::size_t>(i)] =
        0.002 * (x.at(i, 1) - 5000.0) + x.at(i, 0) > 0 ? 1 : 0;
  }
  FinetuneOptions fo;
  fo.steps = 600;
  ClassifierHead head(2, 2, fo, rng);
  head.fit(x, y, rng);
  EXPECT_GT(classification_report(y, head.predict(x)).accuracy, 0.95);
}

TEST(Gbdt, FitsNonlinearFunction) {
  Rng rng(5);
  const int n = 400;
  Mat x(n, 2);
  std::vector<double> y(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    x.at(i, 0) = static_cast<float>(rng.uniform(-2, 2));
    x.at(i, 1) = static_cast<float>(rng.uniform(-2, 2));
    y[static_cast<std::size_t>(i)] =
        (x.at(i, 0) > 0 ? 3.0 : -1.0) + 0.5 * x.at(i, 1);
  }
  GbdtRegressor gbdt;
  gbdt.fit(x, y, rng);
  const std::vector<double> pred = gbdt.predict(x);
  const auto rep = regression_report(y, pred);
  EXPECT_GT(rep.pearson_r, 0.9);
  // Shrinkage leaves a ten-tree fit of these draws 0.41 from the targets
  // on average and the full fit 0.035: the bound holds only if the boosting
  // loop grew well past ten trees.
  double abs_err = 0;
  for (int i = 0; i < n; ++i) {
    abs_err += std::abs(pred[static_cast<std::size_t>(i)] -
                        y[static_cast<std::size_t>(i)]);
  }
  EXPECT_LT(abs_err / n, 0.1);
}

TEST(Gbdt, EmptyAndConstantInputsSafe) {
  Rng rng(6);
  GbdtRegressor gbdt;
  gbdt.fit(Mat(), {}, rng);
  // No trees: every row predicts the zero base.
  EXPECT_EQ(gbdt.predict(Mat(3, 1)), std::vector<double>(3, 0.0));
  // Constant targets: prediction equals the constant.
  Mat x(20, 1);
  std::vector<double> y(20, 7.0);
  gbdt.fit(x, y, rng);
  const auto pred = gbdt.predict(x);
  for (double p : pred) EXPECT_NEAR(p, 7.0, 0.5);
}

TEST(Finetune, ColumnStatsFloorPreventsBlowup) {
  Mat x(3, 2);
  x.at(0, 0) = 1.f;
  x.at(1, 0) = 2.f;
  x.at(2, 0) = 3.f;
  // Column 1 is constant -> raw std ~0; the floor must keep it bounded.
  x.at(0, 1) = x.at(1, 1) = x.at(2, 1) = 5.f;
  std::vector<float> mean, std;
  fit_column_stats(x, &mean, &std);
  const Mat z = apply_column_stats(x, mean, std);
  for (float v : z.v) EXPECT_LT(std::abs(v), 100.f);
}

TEST(Finetune, VstackRejectsEmptyInput) {
  EXPECT_THROW(vstack({}), CheckError);
}

TEST(Finetune, VstackRejectsRowOfAnotherWidth) {
  EXPECT_THROW(vstack({Mat(1, 3), Mat(1, 2)}), CheckError);
  EXPECT_THROW(vstack({Mat(1, 2), Mat(1, 3)}), CheckError);
}

TEST(ClassifierHead, FitRejectsRowLabelCountMismatch) {
  Rng rng(5);
  FinetuneOptions fo;
  fo.steps = 1;
  ClassifierHead head(2, 2, fo, rng);
  EXPECT_THROW(head.fit(Mat(4, 2), {0, 1, 0}, rng), CheckError);
}

TEST(ClassifierHead, FitRejectsLabelOutsideClassRange) {
  Rng rng(6);
  FinetuneOptions fo;
  fo.steps = 1;
  ClassifierHead head(2, 2, fo, rng);
  EXPECT_THROW(head.fit(Mat(3, 2), {0, 2, 1}, rng), CheckError);
  EXPECT_THROW(head.fit(Mat(3, 2), {0, -1, 1}, rng), CheckError);
}

// --- task runner smoke tests (tiny corpus, reduced budgets) -----------------

struct TaskFixture : public ::testing::Test {
  void SetUp() override {
    Rng rng(31);
    CorpusOptions co;
    co.designs_per_family = 2;
    corpus = build_corpus(co, rng);
    model = std::make_unique<NetTag>(NetTagConfig{}, 7);
    PretrainOptions po;
    po.expr_steps = 20;
    po.tag_steps = 15;
    po.aux_steps = 5;
    po.max_expressions = 200;
    po.max_cones = 24;
    Rng prng(32);
    pretrain(*model, corpus, po, prng);
  }
  Corpus corpus;
  std::unique_ptr<NetTag> model;
};

TEST_F(TaskFixture, Task1ProducesValidReports) {
  Rng rng(33);
  Task1Options o;
  o.num_test_designs = 3;
  o.gnn_steps = 30;
  o.head.steps = 150;
  const Task1Result res = run_task1(*model, corpus, o, rng);
  EXPECT_FALSE(res.rows.empty());
  for (const Task1Row& row : res.rows) {
    EXPECT_GE(row.nettag.accuracy, 0.0);
    EXPECT_LE(row.nettag.accuracy, 1.0);
    EXPECT_GE(row.gnnre.accuracy, 0.0);
    EXPECT_LE(row.gnnre.accuracy, 1.0);
  }
}

TEST_F(TaskFixture, Task2ProducesValidReports) {
  Rng rng(34);
  Task2Options o;
  o.gnn_steps = 30;
  o.head.steps = 150;
  const Task2Result res = run_task2(*model, corpus, o, rng);
  for (const Task2Row& row : res.rows) {
    EXPECT_GE(row.nettag.balanced_accuracy, 0.0);
    EXPECT_LE(row.nettag.balanced_accuracy, 1.0);
  }
}

TEST_F(TaskFixture, Task3ProducesValidReports) {
  Rng rng(35);
  Task3Options o;
  o.num_test_designs = 3;
  o.gnn_steps = 30;
  const Task3Result res = run_task3(*model, corpus, o, rng);
  for (const Task3Row& row : res.rows) {
    EXPECT_GE(row.nettag.pearson_r, -1.0);
    EXPECT_LE(row.nettag.pearson_r, 1.0);
    EXPECT_GE(row.nettag.mape, 0.0);
    EXPECT_TRUE(std::isfinite(row.nettag.mape));
    EXPECT_TRUE(std::isfinite(row.gnn.mape));
  }
}

TEST_F(TaskFixture, Task4ProducesFinitePredictions) {
  Rng rng(36);
  Task4Options o;
  o.gnn_steps = 40;
  const Task4Result res = run_task4(*model, corpus, o, rng);
  for (const Task4Cell* cell : {&res.area_wo_opt, &res.area_w_opt,
                                &res.power_wo_opt, &res.power_w_opt}) {
    EXPECT_TRUE(std::isfinite(cell->tool.mape));
    EXPECT_TRUE(std::isfinite(cell->gnn.mape));
    EXPECT_TRUE(std::isfinite(cell->nettag.mape));
    EXPECT_GT(cell->nettag.num_samples, 0u);
  }
}

TEST_F(TaskFixture, AigComparisonRuns) {
  Rng rng(37);
  AigCompareOptions o;
  o.pretrain_steps = 15;
  o.head.steps = 120;
  const AigCompareResult res = run_aig_comparison(*model, corpus, o, rng);
  EXPECT_GE(res.nettag.accuracy, 0.0);
  EXPECT_LE(res.nettag.accuracy, 1.0);
  EXPECT_GE(res.fgnn.accuracy, 0.0);
  EXPECT_GE(res.deepgate.accuracy, 0.0);
  EXPECT_GE(res.expr_llm_only.accuracy, 0.0);
}

}  // namespace
}  // namespace nettag
