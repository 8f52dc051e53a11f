#include "train.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>

#include "analysis/lint.hpp"
#include "core/corpus_stream.hpp"
#include "netlist/cone.hpp"
#include "physical/flow.hpp"
#include "rtlgen/hierarchy.hpp"
#include "tasks/finetune.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"

namespace benchkit {

namespace fs = std::filesystem;

TrainSize tiny_train_size() {
  TrainSize s;
  s.designs_per_family = 1;
  s.designs_per_shard = 2;
  s.expr_steps = 8;
  s.tag_steps = 8;
  s.fit_steps = 60;
  return s;
}

namespace {

double since_s(std::int64_t t0) { return static_cast<double>(now_ns() - t0) * 1e-9; }

nettag::plan::Stats plan_minus(const nettag::plan::Stats& a,
                               const nettag::plan::Stats& b) {
  nettag::plan::Stats d = a;
  d.tapes_recorded -= b.tapes_recorded;
  d.plans_installed -= b.plans_installed;
  d.verifier_rejects -= b.verifier_rejects;
  d.replays -= b.replays;
  d.divergences -= b.divergences;
  d.mallocs_avoided -= b.mallocs_avoided;
  d.heap_mat_allocs -= b.heap_mat_allocs;
  return d;
}


void check_curve(const char* name, const std::vector<float>& losses,
                 std::size_t shards, PipelineRun* run) {
  if (losses.empty()) {
    run->ok = false;
    run->errors.push_back(std::string(name) + " loss curve is empty");
    return;
  }
  for (float l : losses) {
    if (!std::isfinite(l)) {
      run->ok = false;
      run->errors.push_back(std::string(name) + " loss is not finite");
      return;
    }
  }
  // "Ends below where it started", per shard: streaming training spends a
  // contiguous slice of the steps on each shard and restarts on its unseen
  // cones, so the curve rises at every shard boundary. Averaged over the
  // shards, the first loss of a slice must exceed the mean of the slice's
  // second half. (One curve-wide comparison failed on some seeds, when the
  // last shard's restart spike outweighed a low first step.)
  const std::size_t n = losses.size();
  const std::size_t slices = std::max<std::size_t>(1, std::min(shards, n / 2));
  double start = 0, end = 0;
  for (std::size_t s = 0; s < slices; ++s) {
    const std::size_t lo = s * n / slices, hi = (s + 1) * n / slices;
    const std::size_t mid = lo + (hi - lo + 1) / 2;
    start += losses[lo];
    double tail = 0;
    for (std::size_t i = mid; i < hi; ++i) tail += losses[i];
    end += tail / static_cast<double>(hi - mid);
  }
  if (!(end < start)) {
    run->ok = false;
    run->errors.push_back(std::string(name) + " loss did not decrease");
  }
}

nettag::StreamOptions stream_options(const TrainSize& size) {
  nettag::StreamOptions sopt;
  sopt.designs_per_family = size.designs_per_family;
  sopt.designs_per_shard = size.designs_per_shard;
  sopt.hierarchical = true;
  // Many small hierarchical designs of fixed width rather than a few large
  // ones: shards, and so peak memory, stay alike.
  sopt.hierarchy.levels = 2;
  sopt.hierarchy.min_blocks_per_level = 2;
  sopt.hierarchy.max_blocks_per_level = 2;
  sopt.hierarchy.shared_blocks = 1;
  return sopt;
}

}  // namespace

PipelineRun run_pipeline(std::uint64_t seed, const TrainSize& size,
                         const std::string& workdir,
                         const std::string& checkpoint_prefix) {
  PipelineRun run;
  const std::string dir = workdir + "/corpus";
  fs::remove_all(dir);

  const std::int64_t t0 = now_ns();
  // --- generate -> lint -> write (sharded, hierarchical) --------------------
  std::int64_t last = t0;
  const nettag::StreamProgress progress = nettag::build_corpus_stream(
      dir, stream_options(size), kCorpusSeed, [&](const nettag::ShardStats& s) {
        const std::int64_t now = now_ns();
        run.shard_commit_ms.push_back(static_cast<double>(now - last) * 1e-6);
        last = now;
        run.shard_bytes += s.bytes;
      });
  run.designs = progress.designs;
  run.cones = progress.cones;
  run.gates = progress.gates;
  run.shards = progress.shards_written;
  run.expressions = progress.expressions;
  run.corpus_s = since_s(t0);

  nettag::NetTag model(nettag::NetTagConfig{}, seed ^ 0x7a67);
  run.setup_s = since_s(t0);

  // --- pretrain --------------------------------------------------------------
  const nettag::plan::Stats plan0 = nettag::plan::stats_snapshot();
  std::int64_t t = now_ns();
  const nettag::ShardedCorpus corpus(dir);
  nettag::PretrainOptions po;
  po.expr_steps = size.expr_steps;
  po.tag_steps = size.tag_steps;
  po.objective_align = false;
  po.aux_steps = 0;
  nettag::Rng rng(seed ^ 0x5eed);
  run.report = nettag::pretrain_streaming(model, corpus, po, rng);
  run.pretrain_s = since_s(t);

  // --- finetune: cone features + Task-2 head ---------------------------------
  t = now_ns();
  struct DesignCones {
    std::vector<nettag::Mat> x;
    std::vector<int> y;
    bool has_state = false, has_data = false;
  };
  std::vector<DesignCones> per_design;
  for (std::size_t s = 0; s < corpus.num_shards(); ++s) {
    const std::int64_t l0 = now_ns();
    const nettag::ShardedCorpus::Shard shard = corpus.load(s);
    run.shard_load_ms.push_back(static_cast<double>(now_ns() - l0) * 1e-6);
    // Designs fan out over the pool, as tasks/task2 extracts its features.
    const auto& designs = shard.corpus.designs;
    std::vector<DesignCones> dcs(designs.size());
    std::vector<std::vector<double>> lat(designs.size());
    nettag::ThreadPool::instance().run_indexed(designs.size(), [&](std::size_t d) {
      for (const nettag::ConeSample& c : designs[d].cones) {
        const std::int64_t c0 = now_ns();
        dcs[d].x.push_back(model.cone_feature(c.cone));
        lat[d].push_back(static_cast<double>(now_ns() - c0) * 1e-6);
        dcs[d].y.push_back(c.is_state_reg ? 1 : 0);
        (c.is_state_reg ? dcs[d].has_state : dcs[d].has_data) = true;
      }
    });
    for (std::size_t d = 0; d < designs.size(); ++d) {
      run.cone_feature_ms.insert(run.cone_feature_ms.end(), lat[d].begin(), lat[d].end());
      for (int y : dcs[d].y) run.state_cones += static_cast<std::size_t>(y);
      per_design.push_back(std::move(dcs[d]));
    }
  }
  run.features_s = since_s(t);

  // Held-out split: a quarter of the designs (at least one), chosen by the
  // seed among those holding both register kinds.
  std::vector<std::size_t> order(per_design.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  nettag::Rng split(seed ^ 0x7e57);
  split.shuffle(order);
  const std::size_t want_test = std::max<std::size_t>(1, per_design.size() / 4);
  std::vector<bool> is_test(per_design.size(), false);
  std::size_t tests = 0;
  for (std::size_t d : order) {
    if (tests < want_test && per_design[d].has_state && per_design[d].has_data) {
      is_test[d] = true;
      ++tests;
    }
  }
  std::vector<nettag::Mat> train_x, test_x;
  std::vector<int> train_y, test_y;
  for (std::size_t d = 0; d < per_design.size(); ++d) {
    auto& xs = is_test[d] ? test_x : train_x;
    auto& ys = is_test[d] ? test_y : train_y;
    xs.insert(xs.end(), per_design[d].x.begin(), per_design[d].x.end());
    ys.insert(ys.end(), per_design[d].y.begin(), per_design[d].y.end());
  }
  run.train_cones = train_y.size();
  run.test_cones = test_y.size();

  t = now_ns();
  nettag::FinetuneOptions fo;
  fo.steps = size.fit_steps;
  fo.class_weighted = true;
  nettag::Rng head_rng(seed ^ 0x4ead);
  nettag::ClassifierHead head(model.cone_feature_dim(), 2, fo, head_rng);
  if (!train_x.empty()) head.fit(nettag::vstack(train_x), train_y, head_rng);
  run.fit_s = since_s(t);
  run.fit_step_ms = run.fit_s * 1e3 / std::max(1, size.fit_steps);

  // --- held-out eval ----------------------------------------------------------
  t = now_ns();
  if (!test_x.empty()) {
    const std::vector<int> pred = head.predict(nettag::vstack(test_x));
    run.balanced_accuracy = nettag::binary_report(test_y, pred).balanced_accuracy;
  }
  run.eval_s = since_s(t);
  run.wall_s = since_s(t0);
  run.plan_delta = plan_minus(nettag::plan::stats_snapshot(), plan0);
  run.training_steps = run.report.expr_losses.size() +
                       run.report.tag_losses.size() +
                       static_cast<std::uint64_t>(size.fit_steps);

  // --- output checks ------------------------------------------------------------
  check_curve("expr", run.report.expr_losses, run.shards, &run);
  check_curve("tag", run.report.tag_losses, run.shards, &run);
  if (test_x.empty() || train_x.empty()) {
    run.ok = false;
    run.errors.push_back("no held-out design holds both register kinds");
  } else if (run.balanced_accuracy < kTask2Floor) {
    run.ok = false;
    run.errors.push_back("held-out Task-2 balanced accuracy " +
                         std::to_string(run.balanced_accuracy) + " < floor " +
                         std::to_string(kTask2Floor));
  }
  if (!checkpoint_prefix.empty()) nettag::save_checkpoint(model, checkpoint_prefix);
  fs::remove_all(dir);
  return run;
}

Metrics train_layer_metrics(const PipelineRun& run, std::uint64_t seed,
                            int designs) {
  Metrics m;
  auto per = [](double total, double n) { return n > 0 ? total / n : 0.0; };
  m["corpus.shard_commit_ms"] = {mean(run.shard_commit_ms), "ms"};
  m["corpus.shard_load_ms"] = {mean(run.shard_load_ms), "ms"};
  m["pretrain.expr_step_ms"] = {per(run.report.seconds_step1 * 1e3, static_cast<double>(run.report.expr_losses.size())), "ms"};
  m["pretrain.tag_step_ms"] = {per(run.report.seconds_step2 * 1e3, static_cast<double>(run.report.tag_losses.size())), "ms"};
  m["finetune.fit_step_ms"] = {run.fit_step_ms, "ms"};
  m["nn.plan.replays"] = {static_cast<double>(run.plan_delta.replays), "count"};
  m["nn.plan.divergences"] = {static_cast<double>(run.plan_delta.divergences), "count"};
  m["nn.plan.heap_mat_allocs_per_unit"] = {per(static_cast<double>(run.plan_delta.heap_mat_allocs), static_cast<double>(run.training_steps)), "count"};

  // Direct timings on designs from the same generator and flow settings.
  const auto& families = nettag::benchmark_families();
  double gen_ms = 0, flow_ms = 0, extract_us = 0, lint_us = 0;
  std::size_t cones = 0;
  for (int i = 0; i < designs; ++i) {
    nettag::Rng rng(seed * 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(i) + 1);
    std::int64_t t0 = now_ns();
    const nettag::GeneratedDesign d = nettag::generate_hierarchical_design(
        families[static_cast<std::size_t>(i) % families.size()],
        nettag::HierarchyOptions{}, rng, "h" + std::to_string(i));
    gen_ms += static_cast<double>(now_ns() - t0) * 1e-6;
    t0 = now_ns();
    (void)nettag::run_physical_flow(d.netlist, rng, false, 0.0,
                                    nettag::CorpusOptions{}.placement_passes);
    flow_ms += static_cast<double>(now_ns() - t0) * 1e-6;
    t0 = now_ns();
    const std::vector<nettag::RegisterCone> rcs =
        nettag::extract_register_cones(d.netlist, 120);
    extract_us += static_cast<double>(now_ns() - t0) * 1e-3;
    t0 = now_ns();
    for (const nettag::RegisterCone& rc : rcs) (void)nettag::lint_netlist(rc.cone);
    lint_us += static_cast<double>(now_ns() - t0) * 1e-3;
    cones += rcs.size();
  }
  m["rtlgen.generate_ms"] = {per(gen_ms, designs), "ms"};
  m["physical.flow_ms"] = {per(flow_ms, designs), "ms"};
  m["netlist.extract_cone_us"] = {per(extract_us, static_cast<double>(cones)), "us"};
  m["analysis.lint_us"] = {per(lint_us, static_cast<double>(cones)), "us"};
  return m;
}

}  // namespace benchkit
