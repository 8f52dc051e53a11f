// benchkit — the C++ half of the repository benchmark (see README.md).
//
//   benchkit --workload NAME --seed N --seconds S --trace 0|1
//            --serve-bin PATH --model PREFIX --workdir DIR [--smoke]
//
// Runs one workload and prints one JSON report line on stdout: the metrics
// (end-to-end with --trace 0, per-layer with --trace 1), operations
// attempted / failed, output checks, measured input properties and, for
// traced runs, the per-layer self-time table. benchmark/run.py builds this
// program, adds the host block and prints the driver's result line.
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>

#include "common.hpp"
#include "core/tag.hpp"
#include "expr/tokenizer.hpp"
#include "inputs.hpp"
#include "loadgen.hpp"
#include "netlist/io.hpp"
#include "nn/gemm.hpp"
#include "replay.hpp"
#include "serve/json.hpp"
#include "train.hpp"
#include "util/parallel.hpp"

using namespace benchkit;

namespace {

struct Args {
  Workload workload = Workload::kColdCircuits;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  bool pipeline_once = false;  ///< internal: one train pipeline, then exit
  std::string serve_bin, model, workdir;
};

[[noreturn]] void usage_exit(const char* why) {
  std::fprintf(stderr,
               "benchkit: %s\nusage: benchkit --workload NAME --seed N "
               "--seconds S --trace 0|1 --serve-bin PATH --model PREFIX "
               "--workdir DIR [--smoke]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (flag == "--pipeline-once") {
      a.pipeline_once = true;
      continue;
    }
    if (i + 1 >= argc) usage_exit(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    if (flag == "--workload") {
      if (!parse_workload(v, &a.workload)) usage_exit(("unknown workload " + v).c_str());
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (flag == "--trace") {
      a.trace = v == "1";
    } else if (flag == "--serve-bin") {
      a.serve_bin = v;
    } else if (flag == "--model") {
      a.model = v;
    } else if (flag == "--workdir") {
      a.workdir = v;
    } else {
      usage_exit(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || a.workdir.empty() || a.seconds <= 0) {
    usage_exit("--workload, --workdir and a positive --seconds are required");
  }
  if (is_serve(a.workload) && (a.serve_bin.empty() || a.model.empty())) {
    usage_exit("serve workloads need --serve-bin and --model");
  }
  return a;
}

InputSize input_size(bool smoke) {
  InputSize s;
  if (smoke) {
    s.cold_designs = 120;
    s.hot_cones = 40;
    s.stdin_cones = 120;
  }
  return s;
}

/// Requests wall_s is the time for: under a second on a 4-core host.
std::size_t wall_batch(Workload w, bool smoke) {
  switch (w) {
    case Workload::kColdCircuits: return smoke ? 10 : 150;
    case Workload::kHotCones: return smoke ? 200 : 10000;
    default: return smoke ? 20 : 500;
  }
}

/// Mean tokens per text attribute over a sample of request netlists.
double tokens_per_attr(const Inputs& in, const std::string& model_prefix) {
  if (in.items.empty() || model_prefix.empty()) return 0;
  const nettag::NetTagConfig cfg = nettag::read_checkpoint_config(model_prefix);
  nettag::Vocab vocab;
  double tokens = 0, attrs = 0;
  for (std::size_t i = 0; i < in.items.size() && i < 40; ++i) {
    const nettag::TagGraph tag =
        nettag::build_tag(nettag::netlist_from_string(in.items[i].netlist), cfg.k_hop);
    for (const std::string& a : tag.attrs) {
      tokens += static_cast<double>(nettag::encode_text(
          vocab, a, static_cast<std::size_t>(cfg.expr_llm.max_len)).size());
      attrs += 1;
    }
  }
  return attrs > 0 ? tokens / attrs : 0;
}

ServeRunConfig serve_config(const Args& a, const Inputs& in) {
  ServeRunConfig c;
  c.serve_bin = a.serve_bin;
  c.model_prefix = a.model;
  c.workdir = a.workdir;
  c.use_stdin = in.workload == Workload::kStdinCones;
  c.connections = c.use_stdin ? 1 : 4;
  c.windows = a.smoke ? 1 : std::max(1, static_cast<int>(a.seconds / 2));
  c.seconds = a.seconds;
  c.warmup_seconds = a.smoke ? 0.3 : 1.0;
  // One pass over the stdin cones; cold designs never repeat, so their
  // warm-up is what fills the text cache with the attributes they share.
  c.warmup_requests = a.smoke ? 0 : c.use_stdin ? in.items.size() : 500;
  c.setup_spawns = a.smoke ? 1 : 11;
  c.wall_batch = wall_batch(in.workload, a.smoke);
  return c;
}

JsonObj serve_properties(const ServeRunResult& r, const Inputs& in,
                         double tokens) {
  const double tc_hits = r.delta({"text_cache", "hits"});
  const double tc_misses = r.delta({"text_cache", "misses"});
  const double n = static_cast<double>(std::max<std::uint64_t>(r.attempted, 1));
  JsonObj p;
  p.integer("distinct_items", static_cast<long long>(in.items.size()))
      .integer("source_designs", static_cast<long long>(in.designs.size()))
      .integer("collision_pairs", in.workload == Workload::kHotCones
                                      ? static_cast<long long>((in.items.size() / 4 - in.hot_main_cones) / 2)
                                      : 0)
      .num("result_cache_hit_share", static_cast<double>(r.cached_responses) / n)
      .num("text_cache_hit_share", tc_hits + tc_misses > 0 ? tc_hits / (tc_hits + tc_misses) : 0)
      .num("renamed_resubmission_share", static_cast<double>(r.renamed_requests) / n)
      .num("gates_per_request", r.gates_per_request)
      .num("registers_per_request", r.registers_per_request)
      .num("tokens_per_attr", tokens)
      .num("response_bytes_per_response",
           r.succeeded ? static_cast<double>(r.response_bytes) / static_cast<double>(r.succeeded) : 0)
      .integer("wrapped_requests", static_cast<long long>(r.wrapped_requests));
  return p;
}

JsonObj serve_checks(const ServeRunResult& r) {
  JsonObj c;
  c.integer("protocol_errors", static_cast<long long>(r.protocol_errors))
      .integer("too_busy", static_cast<long long>(r.too_busy))
      .integer("replays_byte_compared", static_cast<long long>(r.identity_compared))
      .integer("replay_mismatches", static_cast<long long>(r.identity_mismatches))
      .integer("embeddings_checked", r.embed_checked)
      .integer("embedding_failures", r.embed_failures)
      .num("embedding_max_abs_diff", r.embed_max_abs_diff)
      .num("embedding_tolerance", kEmbedTolerance)
      .raw("errors", json_strings(r.check_errors));
  return c;
}

/// Adds the metrics of `from` that `into` lacks; returns their names.
std::vector<std::string> add_missing(Metrics* into, const Metrics& from) {
  std::vector<std::string> added;
  for (const auto& [name, m] : from) {
    if (into->emplace(name, m).second) added.push_back(name);
  }
  return added;
}

Metrics serve_end_to_end(const ServeRunResult& r) {
  Metrics m;
  m["setup_s"] = {median(r.setup_samples_s), "s"};
  m["qps"] = {r.qps, "1/s"};
  m["latency_p50_ms"] = {r.latency_p50_ms, "ms"};
  m["latency_p99_ms"] = {r.latency_p99_ms, "ms"};
  m["wall_s"] = {r.wall_s, "s"};
  m["peak_rss_mb"] = {r.peak_rss_mb, "MB"};
  return m;
}

JsonObj pipeline_json(const PipelineRun& p) {
  JsonObj j;
  j.num("wall_s", p.wall_s)
      .num("setup_s", p.setup_s)
      .num("corpus_s", p.corpus_s)
      .num("pretrain_s", p.pretrain_s)
      .num("features_s", p.features_s)
      .num("fit_s", p.fit_s)
      .num("eval_s", p.eval_s)
      .integer("designs", static_cast<long long>(p.designs))
      .integer("cones", static_cast<long long>(p.cones))
      .integer("gates", static_cast<long long>(p.gates))
      .integer("shards", static_cast<long long>(p.shards))
      .integer("shard_bytes", static_cast<long long>(p.shard_bytes))
      .integer("expressions", static_cast<long long>(p.expressions))
      .integer("train_cones", static_cast<long long>(p.train_cones))
      .integer("test_cones", static_cast<long long>(p.test_cones))
      .num("state_register_share", p.cones ? static_cast<double>(p.state_cones) / static_cast<double>(p.cones) : 0)
      .num("expr_loss_first", p.report.expr_loss_first)
      .num("expr_loss_last", p.report.expr_loss_last)
      .num("tag_loss_first", p.report.tag_loss_first)
      .num("tag_loss_last", p.report.tag_loss_last)
      .raw("expr_losses", json_array(std::vector<double>(p.report.expr_losses.begin(), p.report.expr_losses.end())))
      .raw("tag_losses", json_array(std::vector<double>(p.report.tag_losses.begin(), p.report.tag_losses.end())))
      .num("task2_balanced_accuracy", p.balanced_accuracy)
      .num("task2_floor", kTask2Floor)
      .boolean("checks_ok", p.ok);
  return j;
}

/// One pipeline run as the parent sees it (in-process or from a child).
struct RepSummary {
  double wall_s = 0, setup_s = 0, cones_per_s = 0, peak_rss_mb = 0;
  bool ok = false;
  std::vector<double> latencies_ms;
  std::vector<std::string> errors;
  std::string json;  ///< the run's report entry
};

RepSummary summarize(const PipelineRun& p, double rss_mb) {
  RepSummary r;
  r.wall_s = p.wall_s;
  r.setup_s = p.setup_s;
  r.cones_per_s = p.wall_s > 0 ? static_cast<double>(p.cones) / p.wall_s : 0;
  r.peak_rss_mb = rss_mb;
  r.ok = p.ok;
  r.latencies_ms = p.cone_feature_ms;
  r.errors = p.errors;
  r.json = pipeline_json(p).num("peak_rss_mb", rss_mb).dump();
  return r;
}

/// Parses what `--pipeline-once` prints.
RepSummary parse_rep(const std::string& text) {
  nettag::serve::Json j;
  std::string error;
  if (!nettag::serve::Json::parse(text, &j, &error)) {
    throw std::runtime_error("bad pipeline report: " + error);
  }
  RepSummary r;
  auto num = [&](const char* key) {
    const nettag::serve::Json* v = j.find(key);
    return v ? v->as_number() : 0.0;
  };
  r.wall_s = num("wall_s");
  r.setup_s = num("setup_s");
  r.cones_per_s = r.wall_s > 0 ? num("cones") / r.wall_s : 0;
  r.peak_rss_mb = num("peak_rss_mb");
  r.ok = j.find("checks_ok") && j.find("checks_ok")->as_bool();
  if (const nettag::serve::Json* lat = j.find("cone_feature_ms")) {
    for (const nettag::serve::Json& v : lat->items()) r.latencies_ms.push_back(v.as_number());
  }
  if (const nettag::serve::Json* errs = j.find("errors")) {
    for (const nettag::serve::Json& v : errs->items()) r.errors.push_back(v.as_string());
  }
  // The report keeps the run's figures, not its latency samples.
  nettag::serve::Json kept = nettag::serve::Json::object();
  for (const char* key : {"wall_s", "setup_s", "corpus_s", "pretrain_s", "features_s",
                          "fit_s", "eval_s", "designs", "cones", "gates", "shards",
                          "shard_bytes", "expressions", "train_cones", "test_cones",
                          "state_register_share", "expr_loss_first", "expr_loss_last",
                          "tag_loss_first", "tag_loss_last", "expr_losses", "tag_losses",
                          "task2_balanced_accuracy", "task2_floor", "checks_ok",
                          "peak_rss_mb"}) {
    if (const nettag::serve::Json* v = j.find(key)) kept.set(key, *v);
  }
  r.json = kept.dump();
  return r;
}

std::string self_path() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) throw std::runtime_error("cannot resolve /proc/self/exe");
  return std::string(buf, static_cast<std::size_t>(n));
}

/// `--pipeline-once`: one training pipeline in this fresh process, printed
/// as one JSON object (figures, latency samples, checks).
int pipeline_once(const Args& a) {
  const PipelineRun p = run_pipeline(a.seed, a.smoke ? tiny_train_size() : TrainSize{},
                                     a.workdir);
  std::printf("%s\n", pipeline_json(p)
                          .num("peak_rss_mb", peak_rss_mb())
                          .raw("cone_feature_ms", json_array(p.cone_feature_ms))
                          .raw("errors", json_strings(p.errors))
                          .dump()
                          .c_str());
  return 0;
}

int run(const Args& a) {
  ::mkdir(a.workdir.c_str(), 0755);
  JsonObj report;
  report.str("workload", workload_name(a.workload))
      .integer("seed", static_cast<long long>(a.seed))
      .integer("trace", a.trace ? 1 : 0)
      .boolean("smoke", a.smoke)
      .obj("process", JsonObj()
                          .str("simd_backend", nettag::simd_backend_name())
                          .integer("pool_width", nettag::parallel_width()));
  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  Metrics metrics;
  std::vector<std::string> errors;

  if (is_serve(a.workload)) {
    const Inputs in = make_inputs(a.workload, a.seed, input_size(a.smoke));
    const ServeRunConfig cfg = serve_config(a, in);
    const ServeRunResult r = run_serve(cfg, in);
    attempted = r.attempted;
    failed = r.failed;
    correct = r.failed == 0 && r.protocol_errors == 0 && r.check_errors.empty() &&
              r.embed_checked > 0 && r.succeeded > 0;
    for (const std::string& e : r.check_errors) errors.push_back(e);
    const Metrics e2e = serve_end_to_end(r);
    report.obj("end_to_end", metrics_json(e2e))
        .obj("load", JsonObj()
                         .str("loop", "closed")
                         .integer("connections", cfg.use_stdin ? 1 : cfg.connections)
                         .integer("server_threads", kServerThreads)
                         .str("transport", cfg.use_stdin ? "stdin pipe" : "unix socket")
                         .integer("windows", cfg.windows)
                         .num("warmup_s", r.warmup_s)
                         .integer("warmup_requests", static_cast<long long>(r.warmup_requests))
                         .num("measured_s", r.window_s)
                         .integer("wall_batch_requests", static_cast<long long>(cfg.wall_batch))
                         .raw("window_qps", json_array(r.window_qps))
                         .raw("window_p50_ms", json_array(r.window_p50_ms))
                         .raw("setup_samples_s", json_array(r.setup_samples_s))
                         .integer("latency_samples", static_cast<long long>(r.latencies_ms.size()))
                         .boolean("p99_has_10_beyond", supports_quantile(r.latencies_ms.size(), 0.99))
                         .integer("p99_runs_of_1000", static_cast<long long>(r.p99_runs))
                         .integer("succeeded", static_cast<long long>(r.succeeded)))
        .obj("properties", serve_properties(r, in, tokens_per_attr(in, a.model)))
        .obj("checks", serve_checks(r));
    if (!a.trace) {
      metrics = e2e;
    } else {
      ReplayConfig rc;
      rc.model_prefix = a.model;
      rc.daemon_layout = !cfg.use_stdin;
      rc.warm_seconds = a.smoke ? 0.2 : 0.7;
      rc.pass_seconds = a.smoke ? 0.3 : 1.2;
      rc.spans_path = a.workdir + "/spans.ndjson";
      LayerReport layers = serve_layers(rc, in, r);
      metrics = layers.metrics;
      correct = correct && layers.ok;
      for (const std::string& e : layers.errors) errors.push_back(e);
      // Train-only layers, measured by a small pipeline probe on this seed.
      const PipelineRun probe =
          run_pipeline(a.seed, tiny_train_size(), a.workdir);
      const std::vector<std::string> probed =
          add_missing(&metrics, train_layer_metrics(probe, a.seed, 1));
      report.obj("trace_report", layers.detail).raw("probe_layers", json_strings(probed));
    }
  } else {
    // train_pipeline: one pipeline per fresh process (a user runs one per
    // process; a second in-process run would replay plans the first
    // recorded), repeated until the window is spent; medians over runs.
    // The traced run trains once in-process and keeps the PipelineRun.
    std::vector<RepSummary> reps;
    std::vector<PipelineRun> runs;
    const TrainSize size = a.smoke ? tiny_train_size() : TrainSize{};
    report.integer("corpus_seed", static_cast<long long>(kCorpusSeed));
    const std::int64_t t0 = now_ns();
    if (a.trace) {
      runs.push_back(run_pipeline(a.seed, size, a.workdir, a.workdir + "/trained"));
      reps.push_back(summarize(runs.back(), peak_rss_mb()));
    } else {
      do {
        std::string out;
        std::vector<std::string> args = {
            self_path(), "--workload", "train_pipeline", "--seed", std::to_string(a.seed),
            "--seconds", "1", "--workdir", a.workdir, "--pipeline-once"};
        if (a.smoke) args.push_back("--smoke");
        if (!capture_output(args, a.workdir + "/pipeline.log", &out)) {
          throw std::runtime_error("pipeline process failed; see " + a.workdir + "/pipeline.log");
        }
        reps.push_back(parse_rep(out));
      } while (static_cast<double>(now_ns() - t0) * 1e-9 < a.seconds);
    }
    std::vector<double> walls, setups, rates, rss, latencies;
    std::string rep_json = "[";
    for (const RepSummary& rs : reps) {
      ++attempted;
      if (!rs.ok) ++failed;
      for (const std::string& e : rs.errors) errors.push_back(e);
      walls.push_back(rs.wall_s);
      setups.push_back(rs.setup_s);
      rates.push_back(rs.cones_per_s);
      rss.push_back(rs.peak_rss_mb);
      latencies.insert(latencies.end(), rs.latencies_ms.begin(), rs.latencies_ms.end());
      rep_json += (rep_json.size() > 1 ? "," : "") + rs.json;
    }
    correct = failed == 0;
    Metrics e2e;
    e2e["setup_s"] = {median(setups), "s"};
    e2e["qps"] = {median(rates), "1/s"};
    e2e["latency_p50_ms"] = {quantile(latencies, 0.5), "ms"};
    e2e["latency_p99_ms"] = {quantile(latencies, 0.99), "ms"};
    e2e["wall_s"] = {median(walls), "s"};
    e2e["peak_rss_mb"] = {median(rss), "MB"};
    report.obj("end_to_end", metrics_json(e2e))
        .obj("load", JsonObj()
                         .str("loop", "closed (one pipeline at a time, each in a fresh process)")
                         .integer("pipeline_runs", static_cast<long long>(reps.size()))
                         .integer("latency_samples", static_cast<long long>(latencies.size()))
                         .boolean("p99_has_10_beyond", supports_quantile(latencies.size(), 0.99)))
        .raw("pipeline_runs", rep_json + "]");
    if (!a.trace) {
      metrics = e2e;
    } else {
      metrics = train_layer_metrics(runs.front(), a.seed, a.smoke ? 1 : 2);
      // Serve-side layers: the model this run trained, served by the
      // shipped daemon to one client over register cones from the same
      // generator, then replayed in-process.
      Args probe_args = a;
      probe_args.model = a.workdir + "/trained";
      Inputs in = make_inputs(Workload::kStdinCones, a.seed, InputSize{0, 0, 300});
      ServeRunConfig cfg = serve_config(probe_args, in);
      cfg.use_stdin = false;
      cfg.connections = 1;
      cfg.windows = 1;
      cfg.seconds = a.smoke ? 0.5 : 2.0;
      cfg.warmup_seconds = 0.3;
      cfg.setup_spawns = 1;
      cfg.wall_batch = 1;
      const ServeRunResult r = run_serve(cfg, in);
      ReplayConfig rc;
      rc.model_prefix = probe_args.model;
      rc.daemon_layout = true;
      rc.warm_seconds = 0.2;
      rc.pass_seconds = a.smoke ? 0.2 : 0.5;
      rc.spans_path = a.workdir + "/spans.ndjson";
      LayerReport layers = serve_layers(rc, in, r);
      const bool probe_ok = layers.ok && r.failed == 0 && r.check_errors.empty();
      correct = correct && probe_ok;
      for (const std::string& e : r.check_errors) errors.push_back("probe: " + e);
      for (const std::string& e : layers.errors) errors.push_back("probe: " + e);
      const std::vector<std::string> probed = add_missing(&metrics, layers.metrics);
      report.obj("trace_report", layers.detail)
          .obj("probe_checks", serve_checks(r))
          .raw("probe_layers", json_strings(probed));
    }
  }

  if (errors.size() > 20) errors.resize(20);
  report.boolean("correct", correct)
      .integer("attempted", static_cast<long long>(attempted))
      .integer("failed", static_cast<long long>(failed))
      .obj("metrics", metrics_json(metrics))
      .raw("errors", json_strings(errors));
  std::printf("%s\n", report.dump().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const char* check = std::getenv("NETTAG_CHECK");
  if (check != nullptr && std::strcmp(check, "0") != 0 && check[0] != '\0') {
    std::fprintf(stderr,
                 "benchkit: refusing to run with NETTAG_CHECK set: deep checks "
                 "disable planning and measure a different program\n");
    return 2;
  }
  try {
    return args.pipeline_once ? pipeline_once(args) : run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchkit: %s\n", e.what());
    return 1;
  }
}
