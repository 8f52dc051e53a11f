#include "replay.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>

#include "analysis/lint.hpp"
#include "core/tag.hpp"
#include "expr/tokenizer.hpp"
#include "netlist/cone.hpp"
#include "netlist/io.hpp"
#include "nn/tape.hpp"
#include "serve/admission.hpp"
#include "serve/cache.hpp"
#include "serve/canonical.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace benchkit {

namespace serve = nettag::serve;
using nettag::Mat;
using nettag::NetTag;
using nettag::Netlist;

namespace {

/// Daemon defaults the replay mirrors (tools/nettag_serve, net/daemon.hpp).
constexpr std::size_t kShards = 4;
constexpr std::size_t kResultCacheEntries = 256;
constexpr std::size_t kMaxConeGates = 120;

/// FNV-1a, as the daemon's shard router hashes the replica name.
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Counts gathered while replaying (model-side input properties).
struct Counts {
  std::uint64_t attrs = 0, attr_tokens = 0;
  std::uint64_t encodes = 0;
  std::uint64_t embeds = 0, embed_nodes = 0;
  std::uint64_t requests = 0, hits = 0, failures = 0;
  ShapeCounts text_shapes, tag_shapes;
};

/// One pass's fresh server-side state: model (own text cache), admission,
/// result-cache partitions.
struct State {
  std::unique_ptr<NetTag> model;
  serve::ServeMetrics metrics;
  std::unique_ptr<serve::Admission> admission;
  std::vector<std::unique_ptr<serve::ResultCache>> caches;

  State(const std::string& prefix, bool daemon_layout) {
    model = nettag::load_checkpoint(prefix);
    if (daemon_layout) model->text_cache().set_partitions(kShards);
    admission = std::make_unique<serve::Admission>(serve::AdmissionConfig{},
                                                   &metrics);
    const std::size_t parts = daemon_layout ? kShards : 1;
    for (std::size_t i = 0; i < parts; ++i) {
      caches.push_back(
          std::make_unique<serve::ResultCache>(kResultCacheEntries / parts));
    }
  }
};

/// NetTag::embed, call for call, with a span around each public call it
/// makes. `plan_scope` mirrors whether the daemon's call runs with an active
/// planning scope (it does not inside embed_circuit's pool tasks).
NetTag::ConeEmbedding traced_embed(State& st, Tracer& tr, const Netlist& nl,
                                   std::int64_t rid, bool plan_scope,
                                   Counts* counts) {
  ScopedSpan embed_span(tr, "core.embed", rid);
  NetTag& model = *st.model;
  const nettag::NetTagConfig& cfg = model.config();
  nettag::TagGraph tag;
  {
    ScopedSpan s(tr, "core.build_tag", rid);
    tag = nettag::build_tag(nl, cfg.k_hop);
  }
  const int n = tag.num_nodes();
  const int d = cfg.expr_llm.out_dim;
  const int phys = tag.phys.cols;
  Mat feats(n, model.tag_in_dim());
  {
    ScopedSpan s(tr, "core.input_features", rid);
    for (int i = 0; i < n; ++i) {
      const std::vector<int> ids = nettag::encode_text(
          model.vocab(), tag.attrs[static_cast<std::size_t>(i)],
          static_cast<std::size_t>(cfg.expr_llm.max_len));
      std::string key;
      key.reserve(ids.size() * 2);
      for (int id : ids) {
        key.push_back(static_cast<char>(id & 0xff));
        key.push_back(static_cast<char>((id >> 8) & 0xff));
      }
      ++counts->attrs;
      counts->attr_tokens += ids.size();
      std::vector<float> row;
      if (!model.text_cache().lookup(key, &row)) {
        {
          ScopedSpan enc(tr, "model.text_encoder", rid);
          const nettag::Tensor emb = model.expr_llm().encode_ids(ids);
          row.assign(emb->value.v.begin(), emb->value.v.end());
        }
        ++counts->encodes;
        text_encoder_shapes(cfg.expr_llm,
                            std::max<int>(1, static_cast<int>(ids.size())),
                            &counts->text_shapes);
        model.text_cache().insert(key, row);
      }
      for (int j = 0; j < d; ++j) feats.at(i, j) = row[static_cast<std::size_t>(j)];
      for (int j = 0; j < phys; ++j) feats.at(i, d + j) = tag.phys.at(i, j);
    }
  }
  NetTag::ConeEmbedding emb;
  {
    ScopedSpan s(tr, "model.tagformer", rid);
    std::optional<nettag::plan::PlanScope> scope;
    if (plan_scope) {
      scope.emplace("embed|" + std::to_string(feats.rows) + "|" +
                    std::to_string(feats.cols));
    }
    const nettag::TagFormer::Output out = model.forward_features(feats, tag.edges);
    if (plan_scope) {
      nettag::plan::keep_alive(out.nodes);
      nettag::plan::keep_alive(out.cls);
    }
    emb.nodes = out.nodes->value;
    emb.cls = out.cls->value;
  }
  emb.inputs = std::move(feats);
  ++counts->embeds;
  counts->embed_nodes += static_cast<std::uint64_t>(n);
  tagformer_shapes(cfg, model.tag_in_dim(), n, &counts->tag_shapes);
  return emb;
}

/// NetTag::embed_circuit as the benchmark's serial-pool server runs it: cones
/// embedded one after another on the calling thread, each inside its
/// planning scope.
Mat traced_embed_circuit(State& st, Tracer& tr, const Netlist& nl,
                         std::int64_t rid, Counts* counts) {
  ScopedSpan s(tr, "core.embed_circuit", rid);
  const std::vector<nettag::GateId> regs = nl.registers();
  if (regs.empty()) return traced_embed(st, tr, nl, rid, true, counts).cls;
  Mat sum(1, st.model->embedding_dim());
  for (const nettag::GateId reg : regs) {
    nettag::RegisterCone rc;
    {
      ScopedSpan c(tr, "netlist.extract_cone", rid);
      rc = nettag::extract_cone(nl, reg, kMaxConeGates);
    }
    const Mat cls = traced_embed(st, tr, rc.cone, rid, true, counts).cls;
    for (int j = 0; j < sum.cols; ++j) sum.at(0, j) += cls.at(0, j);
  }
  return sum;
}

/// The daemon's transport + shard path for one request line (the stdin path
/// when !daemon_layout): parse, route, admit, cache, model, render.
std::string replay_one(State& st, Tracer& tr, bool daemon_layout,
                       const std::string& line, std::int64_t rid,
                       Counts* counts) {
  ScopedSpan root(tr, "request", rid);
  ++counts->requests;
  serve::Request req;
  {
    ScopedSpan s(tr, "serve.parse_request", rid);
    req = serve::parse_request(line);
  }
  std::size_t shard = 0;
  if (daemon_layout) {
    ScopedSpan s(tr, "net.route", rid);
    auto parsed = std::make_shared<Netlist>(
        nettag::netlist_from_string(req.netlist_text));
    shard = static_cast<std::size_t>(
                serve::structural_hash(*parsed, 3, false) ^
                fnv1a(serve::kDefaultModelName)) %
            st.caches.size();
    req.pre_parsed = std::move(parsed);
  }
  serve::Response resp;
  resp.id = req.id;
  resp.op = req.op;
  Netlist local;
  const Netlist* nl = nullptr;
  {
    ScopedSpan s(tr, "serve.admit", rid);
    nl = st.admission->admit(req, &local, &resp);
  }
  if (nl == nullptr) {
    ++counts->failures;
    ScopedSpan s(tr, "serve.render", rid);
    return serve::render_response(resp);
  }
  serve::CacheKey key;
  {
    ScopedSpan s(tr, "serve.cache_key", rid);
    key = serve::cache_key(*nl, serve::op_name(req.op), req.k_hop,
                           kMaxConeGates, req.task,
                           req.op == serve::Op::kEmbedGates);
  }
  serve::ResultCache& cache = *st.caches[shard];
  std::string payload;
  bool hit = false;
  {
    ScopedSpan s(tr, "serve.result_cache", rid);
    hit = cache.lookup(key.key, key.fingerprint, &payload);
  }
  if (hit) {
    ++counts->hits;
  } else {
    const std::string dim = std::to_string(st.model->embedding_dim());
    if (req.op == serve::Op::kEmbedCircuit) {
      const Mat circuit = traced_embed_circuit(st, tr, *nl, rid, counts);
      ScopedSpan s(tr, "serve.render", rid);
      payload = "{\"dim\":" + dim + ",\"registers\":" +
                std::to_string(nl->registers().size()) +
                ",\"circuit\":" + serve::mat_to_json(circuit) + "}";
    } else {
      const NetTag::ConeEmbedding emb =
          traced_embed(st, tr, *nl, rid, true, counts);
      ScopedSpan s(tr, "serve.render", rid);
      payload = "{\"dim\":" + dim;
      if (req.op == serve::Op::kEmbedGates) {
        payload += ",\"nodes\":" + serve::mat_to_json(emb.nodes);
      }
      payload += ",\"cls\":" + serve::mat_to_json(emb.cls) + "}";
    }
    ScopedSpan s(tr, "serve.result_cache", rid);
    cache.insert(key.key, key.fingerprint, payload);
  }
  ScopedSpan s(tr, "serve.render", rid);
  resp.result_json = std::move(payload);
  resp.cached = hit;
  return serve::render_response(resp);
}

/// The replayed request sequence: cold designs in order, the hot streams of
/// the four connections interleaved, stdin cones in order.
std::vector<std::size_t> replay_sequence(const Inputs& inputs, std::size_t max_len,
                                         int connections) {
  std::vector<RequestStream> streams;
  for (int c = 0; c < connections; ++c) streams.emplace_back(inputs, c);
  std::vector<std::size_t> seq;
  for (std::size_t k = 0; k < max_len; ++k) {
    seq.push_back(streams[k % streams.size()].next(k));
  }
  return seq;
}

struct PassResult {
  double seconds = 0;  ///< measured part only
  std::vector<double> request_us;
  Counts counts;
};

/// How many leading requests of the sequence warm caches untimed, and how
/// many after them are measured. Fixed by the reference pass, shared by the
/// replays.
struct PassPlan {
  std::size_t warm = 0;
  std::size_t count = 0;
};

std::string request_line(const Inputs& inputs,
                         const std::vector<std::size_t>& seq, std::size_t k) {
  return "{\"id\":\"r" + std::to_string(k) + inputs.items[seq[k]].body;
}

/// The reference pass over the real in-process serving path — per request
/// the daemon's transport work (parse_request, netlist parse, route hash,
/// render) around Server::process_on on the router's cache partition, or
/// the stdin loop's Server::submit_line_async. Its per-request times are
/// what the client round trip is compared with; its warm-up and time
/// budget fix the PassPlan of the replays.
PassResult reference_pass(const ReplayConfig& cfg, const Inputs& inputs,
                          const std::vector<std::size_t>& seq, double warm_s,
                          double budget_s, PassPlan* plan) {
  serve::ServerConfig sc;
  sc.text_cache_entries = nettag::TextEmbeddingCache::kDefaultEntries;
  if (cfg.daemon_layout) sc.text_cache_partitions = kShards;
  serve::Server server(sc);
  std::string error;
  if (!server.load_model(serve::kDefaultModelName, cfg.model_prefix, -1, &error)) {
    throw std::runtime_error("cannot load " + cfg.model_prefix + ": " + error);
  }
  std::vector<std::unique_ptr<serve::ResultCache>> parts;
  for (std::size_t i = 0; i < kShards; ++i) {
    parts.push_back(std::make_unique<serve::ResultCache>(kResultCacheEntries / kShards));
  }
  PassResult p;
  std::int64_t t0 = now_ns();
  bool measuring = false;
  for (std::size_t k = 0; k < seq.size(); ++k) {
    const std::string line = request_line(inputs, seq, k);
    const std::int64_t r0 = now_ns();
    std::string out;
    if (cfg.daemon_layout) {
      serve::Request req = serve::parse_request(line);
      auto parsed = std::make_shared<Netlist>(
          nettag::netlist_from_string(req.netlist_text));
      const std::size_t shard = static_cast<std::size_t>(
          (serve::structural_hash(*parsed, 3, false) ^
           fnv1a(serve::kDefaultModelName)) % kShards);
      req.pre_parsed = std::move(parsed);
      out = serve::render_response(server.process_on(req, parts[shard].get()));
    } else {
      out = serve::render_response(server.submit_line_async(line).get());
    }
    const std::int64_t r1 = now_ns();
    if (!measuring) {
      plan->warm = k + 1;
      if (static_cast<double>(r1 - t0) * 1e-9 >= warm_s) {
        measuring = true;
        t0 = r1;
      }
      continue;
    }
    p.request_us.push_back(static_cast<double>(r1 - r0) * 1e-3);
    if (static_cast<double>(r1 - t0) * 1e-9 >= budget_s) break;
  }
  plan->count = p.request_us.size();
  p.seconds = static_cast<double>(now_ns() - t0) * 1e-9;
  return p;
}

/// One replay pass from fresh server state: the plan's warm-up requests
/// untraced and untimed, then its measured requests through `tr`.
PassResult replay_pass(const ReplayConfig& cfg, const Inputs& inputs,
                       const std::vector<std::size_t>& seq,
                       const PassPlan& plan, Tracer& tr) {
  State st(cfg.model_prefix, cfg.daemon_layout);
  PassResult p;
  Tracer off(false);
  Counts warm_counts;
  for (std::size_t k = 0; k < plan.warm && k < seq.size(); ++k) {
    replay_one(st, off, cfg.daemon_layout, request_line(inputs, seq, k),
               static_cast<std::int64_t>(k), &warm_counts);
  }
  const std::int64_t t0 = now_ns();
  for (std::size_t k = plan.warm; k < plan.warm + plan.count && k < seq.size(); ++k) {
    const std::string line = request_line(inputs, seq, k);
    const std::int64_t r0 = now_ns();
    replay_one(st, tr, cfg.daemon_layout, line, static_cast<std::int64_t>(k),
               &p.counts);
    p.request_us.push_back(static_cast<double>(now_ns() - r0) * 1e-3);
  }
  p.seconds = static_cast<double>(now_ns() - t0) * 1e-9;
  return p;
}

/// Time per call of `fn` over `items`, in microseconds.
template <typename Fn>
double time_each_us(const std::vector<const Item*>& items, Fn fn) {
  if (items.empty()) return 0;
  const std::int64_t t0 = now_ns();
  for (const Item* it : items) fn(*it);
  return static_cast<double>(now_ns() - t0) * 1e-3 /
         static_cast<double>(items.size());
}

/// Counter delta between two `stats` snapshots at a path of object keys.
double delta(const serve::Json& before, const serve::Json& after,
             std::initializer_list<const char*> path) {
  const serve::Json* a = &before;
  const serve::Json* b = &after;
  for (const char* key : path) {
    a = a ? a->find(key) : nullptr;
    b = b ? b->find(key) : nullptr;
  }
  return (b ? b->as_number() : 0.0) - (a ? a->as_number() : 0.0);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

LayerReport serve_layers(const ReplayConfig& cfg, const Inputs& inputs,
                         const ServeRunResult& e2e) {
  LayerReport rep;
  Metrics& m = rep.metrics;
  const int connections =
      inputs.workload == Workload::kHotCones && cfg.daemon_layout ? 4 : 1;
  const std::size_t max_len =
      inputs.workload == Workload::kHotCones ? 200000 : inputs.items.size();
  const std::vector<std::size_t> seq = replay_sequence(inputs, max_len, connections);

  // Pass A runs the real in-process server path and fixes the warm-up and
  // measured request counts; B (traced) and C (untraced) replay the same
  // requests from fresh state, so B/C - 1 is the tracing overhead.
  PassPlan plan;
  const PassResult a =
      reference_pass(cfg, inputs, seq, cfg.warm_seconds, cfg.pass_seconds, &plan);
  Tracer traced(true), off_c(false);
  const nettag::plan::Stats plan0 = nettag::plan::stats_snapshot();
  const PassResult b = replay_pass(cfg, inputs, seq, plan, traced);
  const nettag::plan::Stats plan1 = nettag::plan::stats_snapshot();
  const PassResult c = replay_pass(cfg, inputs, seq, plan, off_c);
  if (!cfg.spans_path.empty()) traced.write_ndjson(cfg.spans_path);
  const std::size_t count = plan.count;

  // --- self time per layer, coverage, overhead -----------------------------
  const auto layers = traced.self_times();
  double root_total = 0, root_self = 0;
  if (auto it = layers.find("request"); it != layers.end()) {
    root_total = it->second.total_ns;
    root_self = it->second.self_ns;
  }
  JsonObj table;
  for (const auto& [name, t] : layers) {
    table.obj(name, JsonObj()
                        .integer("calls", static_cast<long long>(t.calls))
                        .num("self_ms", t.self_ns * 1e-6)
                        .num("total_ms", t.total_ns * 1e-6)
                        .num("self_share", ratio(t.self_ns, root_total)));
  }
  const double coverage = ratio(root_total - root_self, root_total);
  const double overhead = ratio(b.seconds, c.seconds) - 1.0;
  auto per_call = [&](const char* name, double scale, bool self) {
    auto it = layers.find(name);
    if (it == layers.end() || it->second.calls == 0) return 0.0;
    return (self ? it->second.self_ns : it->second.total_ns) * scale /
           static_cast<double>(it->second.calls);
  };
  auto self_of = [&](const char* name) {
    auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second.self_ns;
  };

  m["serve.parse_request_us"] = {per_call("serve.parse_request", 1e-3, true), "us"};
  m["serve.cache_key_us"] = {per_call("serve.cache_key", 1e-3, true), "us"};
  m["serve.render_us"] = {per_call("serve.render", 1e-3, true), "us"};
  m["serve.admit_us"] = {per_call("serve.admit", 1e-3, true), "us"};
  m["core.build_tag_us"] = {per_call("core.build_tag", 1e-3, true), "us"};
  m["core.embed_ms"] = {per_call("core.embed", 1e-6, false), "ms"};
  m["model.text_encoder.encode_us"] = {per_call("model.text_encoder", 1e-3, true), "us"};
  m["model.tagformer.forward_us"] = {per_call("model.tagformer", 1e-3, true), "us"};
  m["core.input_features_us"] = {per_call("core.input_features", 1e-3, true), "us"};
  const double text_s = self_of("model.text_encoder") * 1e-9;
  const double tag_s = self_of("model.tagformer") * 1e-9;
  m["model.text_encoder.gflops"] = {ratio(shape_flops(b.counts.text_shapes), text_s) * 1e-9, "GFLOP/s"};
  m["model.tagformer.gflops"] = {ratio(shape_flops(b.counts.tag_shapes), tag_s) * 1e-9, "GFLOP/s"};
  m["model.text_encode_share"] = {ratio(text_s, text_s + tag_s), "frac"};
  m["model.text_encoder.tokens_per_attr"] = {ratio(static_cast<double>(b.counts.attr_tokens), static_cast<double>(b.counts.attrs)), "count"};
  m["model.tagformer.nodes_per_cone"] = {ratio(static_cast<double>(b.counts.embed_nodes), static_cast<double>(b.counts.embeds)), "count"};
  m["trace.coverage_frac"] = {coverage, "frac"};
  m["trace.overhead_frac"] = {overhead, "frac"};

  // --- GEMM throughput at this workload's shapes -----------------------------
  ShapeCounts all = b.counts.text_shapes;
  for (const auto& [shape, n] : b.counts.tag_shapes) all[shape] += n;
  m["nn.gemm_nn.gflops"] = {gemm_gflops(all, 0), "GFLOP/s"};
  m["nn.gemm_nt.gflops"] = {gemm_gflops(all, 1), "GFLOP/s"};
  m["nn.gemm_tn.gflops"] = {gemm_gflops(all, 2), "GFLOP/s"};

  // --- side timings: layers that run inside another layer's call -------------
  std::vector<const Item*> distinct;
  {
    std::vector<bool> seen(inputs.items.size(), false);
    for (std::size_t k = 0; k < count && distinct.size() < 400; ++k) {
      if (!seen[seq[k]]) {
        seen[seq[k]] = true;
        distinct.push_back(&inputs.items[seq[k]]);
      }
    }
  }
  std::vector<Netlist> parsed;
  for (const Item* it : distinct) parsed.push_back(nettag::netlist_from_string(it->netlist));
  {
    std::size_t i = 0;
    const double lint_us = time_each_us(distinct, [&](const Item&) {
      (void)nettag::lint_netlist(parsed[i++]);
    });
    m["analysis.lint_us"] = {lint_us, "us"};
  }
  if (cfg.daemon_layout) {
    m["net.route_us"] = {per_call("net.route", 1e-3, true), "us"};
  } else {
    // No transport thread on the stdin path: the same parse + hash, timed
    // directly on the replayed requests.
    m["net.route_us"] = {time_each_us(distinct, [](const Item& it) {
      const Netlist nl = nettag::netlist_from_string(it.netlist);
      (void)serve::structural_hash(nl, 3, false);
    }), "us"};
  }
  if (layers.count("netlist.extract_cone")) {
    m["netlist.extract_cone_us"] = {per_call("netlist.extract_cone", 1e-3, true), "us"};
  } else {
    m["netlist.extract_cone_us"] = {ratio(inputs.extract_us_total, static_cast<double>(inputs.cones_extracted)), "us"};
  }
  if (layers.count("core.embed_circuit")) {
    m["core.embed_circuit_ms"] = {per_call("core.embed_circuit", 1e-6, false), "ms"};
  } else {
    // Cone workloads: the circuits their cones were cut from, through the
    // public embed_circuit (pool fan-out).
    State st(cfg.model_prefix, cfg.daemon_layout);
    const std::size_t designs = std::min<std::size_t>(inputs.designs.size(), 8);
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < designs; ++i) {
      (void)st.model->embed_circuit(inputs.designs[i], kMaxConeGates);
    }
    m["core.embed_circuit_ms"] = {ratio(static_cast<double>(now_ns() - t0) * 1e-6, static_cast<double>(designs)), "ms"};
  }
  m["rtlgen.generate_ms"] = {ratio(inputs.generate_ms_total, static_cast<double>(inputs.designs_generated)), "ms"};

  // Batcher overhead: Server::submit (Batcher -> pool worker -> process)
  // minus Server::process_on for the same request on a cold result cache.
  // Each sample gets a fresh server (so submit cannot hit an entry a renamed
  // twin left), and a first process_on warms the text cache so both timed
  // calls do equal model work.
  {
    serve::ServerConfig sc;
    sc.text_cache_entries = nettag::TextEmbeddingCache::kDefaultEntries;
    std::vector<double> overhead_us;
    const std::int64_t t_end = now_ns() + 600'000'000;
    for (std::size_t i = 0; i < distinct.size() && (overhead_us.size() < 8 || now_ns() < t_end); ++i) {
      serve::Server server(sc, nettag::load_checkpoint(cfg.model_prefix));
      const serve::Request req = serve::parse_request(
          "{\"id\":\"b" + std::to_string(i) + distinct[i]->body);
      serve::ResultCache warm(16), cold(16);
      server.process_on(req, &warm);
      const std::int64_t t0 = now_ns();
      server.process_on(req, &cold);
      const std::int64_t t1 = now_ns();
      server.submit(req);
      const std::int64_t t2 = now_ns();
      overhead_us.push_back(static_cast<double>((t2 - t1) - (t1 - t0)) * 1e-3);
    }
    m["serve.batcher_overhead_us"] = {median(overhead_us), "us"};
  }

  // --- counter deltas of the end-to-end windows -----------------------------
  const double requests = static_cast<double>(std::max<std::uint64_t>(e2e.attempted, 1));
  double rc_hits = 0, rc_misses = 0, rc_collisions = 0, rc_evictions = 0;
  double submitted = 0, shed = 0, waited = 0, hist_total = 0;
  bool sharded = false;
  for (const auto& [before, after] : e2e.stats) {
    const serve::Json* shards_a = before.find("shards");
    const serve::Json* shards_b = after.find("shards");
    if (!shards_a || !shards_b || shards_a->items().size() != shards_b->items().size()) {
      continue;
    }
    sharded = true;
    for (std::size_t i = 0; i < shards_b->items().size(); ++i) {
      const serve::Json& sa = shards_a->items()[i];
      const serve::Json& sb = shards_b->items()[i];
      rc_hits += delta(sa, sb, {"result_cache", "hits"});
      rc_misses += delta(sa, sb, {"result_cache", "misses"});
      rc_collisions += delta(sa, sb, {"result_cache", "collisions"});
      rc_evictions += delta(sa, sb, {"result_cache", "evictions"});
      submitted += delta(sa, sb, {"submitted"});
      shed += delta(sa, sb, {"shed"});
      const serve::Json* ha = sa.find("queue_depth_histogram");
      const serve::Json* hb = sb.find("queue_depth_histogram");
      if (ha && hb && ha->items().size() == hb->items().size()) {
        for (std::size_t d = 0; d < hb->items().size(); ++d) {
          const double n = hb->items()[d].as_number() - ha->items()[d].as_number();
          hist_total += n;
          if (d > 0) waited += n;
        }
      }
    }
  }
  if (sharded) {
    m["net.bytes_out_per_response"] = {ratio(e2e.delta({"transport", "bytes_out"}), e2e.delta({"transport", "responses_out"})), "bytes"};
  } else {
    // stdin: one serial pipe, so no shard queue and nothing to shed.
    rc_hits = e2e.delta({"result_cache", "hits"});
    rc_misses = e2e.delta({"result_cache", "misses"});
    rc_collisions = e2e.delta({"result_cache", "collisions"});
    rc_evictions = e2e.delta({"result_cache", "evictions"});
    m["net.bytes_out_per_response"] = {ratio(static_cast<double>(e2e.response_bytes), static_cast<double>(e2e.succeeded)), "bytes"};
  }
  m["net.queue_wait_frac"] = {ratio(waited, hist_total), "frac"};
  m["net.shed_frac"] = {ratio(shed, submitted), "frac"};
  m["serve.result_cache.hit_frac"] = {ratio(rc_hits, rc_hits + rc_misses), "frac"};
  m["serve.result_cache.collision_frac"] = {ratio(rc_collisions, rc_hits + rc_misses), "frac"};
  const double tc_hits = e2e.delta({"text_cache", "hits"});
  const double tc_misses = e2e.delta({"text_cache", "misses"});
  m["core.text_cache.hit_frac"] = {ratio(tc_hits, tc_hits + tc_misses), "frac"};
  m["core.text_cache.evictions_per_request"] = {e2e.delta({"text_cache", "evictions"}) / requests, "count"};
  m["nn.plan.replays"] = {e2e.delta({"memory_plan", "replays"}), "count"};
  m["nn.plan.divergences"] = {e2e.delta({"memory_plan", "divergences"}), "count"};
  m["nn.plan.heap_mat_allocs_per_unit"] = {e2e.delta({"memory_plan", "heap_mat_allocs"}) / requests, "count"};

  // Client round trip versus the same work in-process.
  std::vector<double> client_us;
  for (double ms : e2e.latencies_ms) client_us.push_back(ms * 1e3);
  m["net.rtt_overhead_us"] = {median(client_us) - median(a.request_us), "us"};

  // --- report detail ---------------------------------------------------------
  JsonObj replay;
  replay.integer("warm_requests", static_cast<long long>(plan.warm))
      .integer("requests", static_cast<long long>(count))
      .num("traced_s", b.seconds)
      .num("untraced_s", c.seconds)
      .num("reference_s", a.seconds)
      .num("reference_request_p50_us", median(a.request_us))
      .num("reference_request_p99_us", quantile(a.request_us, 0.99))
      .num("replay_request_p50_us", median(c.request_us))
      .num("coverage_frac", coverage)
      .num("tracing_overhead_frac", overhead)
      .num("result_cache_hit_frac", ratio(static_cast<double>(b.counts.hits), static_cast<double>(b.counts.requests)))
      .integer("text_encodes", static_cast<long long>(b.counts.encodes))
      .num("text_encoder_gflop", shape_flops(b.counts.text_shapes) * 1e-9)
      .num("tagformer_gflop", shape_flops(b.counts.tag_shapes) * 1e-9)
      .num("text_encoder_self_s", text_s)
      .num("tagformer_self_s", tag_s)
      .integer("plan_replays", static_cast<long long>(plan1.replays - plan0.replays))
      .integer("plan_tapes_recorded", static_cast<long long>(plan1.tapes_recorded - plan0.tapes_recorded))
      .integer("plan_heap_mat_allocs", static_cast<long long>(plan1.heap_mat_allocs - plan0.heap_mat_allocs))
      .integer("failures", static_cast<long long>(b.counts.failures));
  JsonObj window;
  window.num("result_cache_hits", rc_hits)
      .num("result_cache_misses", rc_misses)
      .num("result_cache_collisions", rc_collisions)
      .num("result_cache_evictions", rc_evictions)
      .num("text_cache_hits", tc_hits)
      .num("text_cache_misses", tc_misses)
      .num("plan_tapes_recorded", e2e.delta({"memory_plan", "tapes_recorded"}))
      .num("submitted", submitted)
      .num("shed", shed);
  rep.detail.obj("replay", replay).obj("stats_window", window).obj("layers", table);
  if (b.counts.failures > 0) {
    rep.ok = false;
    rep.errors.push_back("in-process replay rejected requests");
  }

  // Replay fidelity: the traced path must compute exactly what NetTag does.
  {
    State st(cfg.model_prefix, cfg.daemon_layout);
    const std::unique_ptr<NetTag> ref = nettag::load_checkpoint(cfg.model_prefix);
    Tracer none(false);
    Counts scratch;
    for (std::size_t i = 0; i < std::min<std::size_t>(parsed.size(), 4); ++i) {
      const bool circuit = distinct[i]->op == "embed_circuit";
      const Mat got = circuit ? traced_embed_circuit(st, none, parsed[i], 0, &scratch)
                              : traced_embed(st, none, parsed[i], 0, true, &scratch).cls;
      const Mat want = circuit ? ref->embed_circuit(parsed[i], kMaxConeGates)
                               : ref->embed(parsed[i]).cls;
      if (got.v != want.v) {
        rep.ok = false;
        rep.errors.push_back("traced replay differs from NetTag on item " + std::to_string(i));
      }
    }
  }
  return rep;
}

}  // namespace benchkit
