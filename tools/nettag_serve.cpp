// nettag_serve — the NetTAG embedding inference daemon.
//
// Modes:
//   nettag_serve --model SPEC [flags]     load one replica per --model flag
//                                         and serve newline-delimited JSON
//                                         requests on stdin, one JSON
//                                         response line on stdout per request
//                                         (docs/ARCHITECTURE.md §7.1, §12)
//   nettag_serve --model SPEC --listen ADDR
//                                         socket daemon (docs §11): serve the
//                                         same NDJSON protocol to concurrent
//                                         clients on a unix path or TCP port,
//                                         with too_busy load shedding
//   nettag_serve --connect ADDR           client: forward stdin request lines
//                                         to a running daemon, print response
//                                         lines on stdout
//   nettag_serve --help                   usage (exit 0)
//
// A servable checkpoint comes from tools/nettag_train, e.g.
//   nettag_train --out PREFIX --tiny --no-align --expr-steps 12 --tag-steps 10
//
// Flags (serve):
//   --model SPEC           `[NAME=]PREFIX`, repeatable: one replica per flag,
//                          each from its own checkpoint prefix, each
//                          independently hot-reloadable. NAME defaults to
//                          "default" (the replica requests without a
//                          "model" field target)
//   --max-gates N          admission size bound (default 20000)
//   --cache-entries N      result-cache bound (default 256): one cache that
//                          the stdin loop and every daemon worker share
//   --text-cache-entries N frozen-text-embedding cache bound (default 4096;
//                          one cache shared by all replicas and reloads)
//   --reject-warnings      strict admission: lint warnings also reject
// Flags (daemon):
//   --listen ADDR          unix:/path/to.sock or host:port (port 0 = pick one)
//   --shards N             worker threads draining one request queue
//                          (default 4, at most 256)
//   --queue-depth K        queue bound per worker: the queue holds N x K
//                          netlist ops, beyond which they are shed with
//                          too_busy (default 64, at most 4096)
//
// A count flag outside its range exits 2 with a message naming the flag.
//
// Exits 0 on EOF, a `shutdown` request, or SIGTERM/SIGINT — the signal path
// drains: the stdin loop finishes the request it is on and the daemon
// finishes every queued request, flushes responses, and prints final metrics
// to stderr. A `reload` request hot-swaps one replica from a checkpoint
// prefix (default: the prefix that replica was loaded from) without dropping
// in-flight work; `model_load`/`model_unload` add and remove replicas at
// runtime. Bad requests are per-request error responses, never daemon
// failures. The stdin loop is deliberately serial — each line is processed
// to completion before the next is read, so a replayed request file yields
// byte-identical output. Concurrent requests run across daemon workers.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "net/client.hpp"
#include "net/daemon.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"
#include "util/signal.hpp"

using namespace nettag;

namespace {

void usage(std::FILE* to) {
  std::fprintf(to,
               "usage: nettag_serve --model [NAME=]PREFIX ...\n"
               "                    [--max-gates N]\n"
               "                    [--cache-entries N] [--text-cache-entries N]\n"
               "                    [--reject-warnings]\n"
               "                    [--listen ADDR [--shards N] [--queue-depth K]]\n"
               "       nettag_serve --connect ADDR\n"
               "       nettag_serve --help\n"
               "\n"
               "Serves gate/cone/circuit embeddings and task predictions for\n"
               "pre-trained NetTAG checkpoints over newline-delimited JSON\n"
               "on stdin/stdout, or — with --listen unix:/path or host:port —\n"
               "as a socket daemon for concurrent clients. --model is\n"
               "repeatable: each flag loads one named replica (default name\n"
               "\"default\"), independently hot-reloadable and addressable by\n"
               "the request \"model\" field. --connect bridges stdin/stdout\n"
               "to a running daemon. --text-cache-entries (default %zu)\n"
               "bounds the one text-embedding cache all replicas share, and\n"
               "--cache-entries (default %zu) the one result cache that the\n"
               "stdin loop and every daemon worker share. --shards (default\n"
               "4, at most %zu) counts the daemon's worker threads, which\n"
               "drain one request queue; --queue-depth (default 64, at most\n"
               "%zu) is per worker, so the queue holds shards x depth netlist\n"
               "ops before it sheds with too_busy. See docs/ARCHITECTURE.md\n"
               "sections 7, 11 and 12 for the protocol grammar, error\n"
               "taxonomy, `stats` fields, daemon design, and the model\n"
               "registry.\n",
               TextEmbeddingCache::kDefaultEntries,
               serve::ServerConfig{}.cache_entries, net::ShardPool::kMaxShards,
               net::ShardPool::kMaxQueueDepth);
}

/// Builds a server with one registered replica per --model spec. Replicas
/// load through the same registry path as the `model_load` op and share the
/// registry's one text cache (config.text_cache_entries entries). Null on
/// any load failure (the error names the spec).
std::unique_ptr<serve::Server> build_server(
    const std::vector<cli::ModelSpec>& specs, serve::ServerConfig config) {
  auto server = std::make_unique<serve::Server>(std::move(config));
  for (const cli::ModelSpec& spec : specs) {
    std::string error;
    if (!server->load_model(spec.name, spec.prefix, -1, &error)) {
      std::fprintf(stderr,
                   "nettag_serve: cannot load checkpoint '%s' (model '%s'): "
                   "%s\n",
                   spec.prefix.c_str(), spec.name.c_str(), error.c_str());
      return nullptr;
    }
    // Pin a snapshot for the startup line: the one-per-replica twin of the
    // old single-model message, dim included (checkpoints can differ).
    const std::shared_ptr<const NetTag> model = server->model_snapshot(spec.name);
    std::fprintf(stderr,
                 "nettag_serve: model '%s' loaded from '%s' (embedding dim "
                 "%d)\n",
                 spec.name.c_str(), spec.prefix.c_str(),
                 model ? model->embedding_dim() : 0);
  }
  return server;
}

int run_serve(const std::vector<cli::ModelSpec>& specs,
              serve::ServerConfig config) {
  std::unique_ptr<serve::Server> server_ptr =
      build_server(specs, std::move(config));
  if (!server_ptr) return 2;
  serve::Server& server = *server_ptr;
  std::fprintf(stderr,
               "nettag_serve: awaiting NDJSON requests on stdin\n");

  // SIGTERM/SIGINT drain instead of killing mid-response: the handlers are
  // installed *without* SA_RESTART, so a signal arriving while getline
  // blocks interrupts the read and the loop exits; a signal arriving while
  // a request is processing lets that request finish and its response flush
  // (the next getline then fails with EINTR). Either way the last response
  // written is complete, never truncated.
  const std::atomic<bool>* stop = install_stop_signals_interrupting();

  // The wire transport is deliberately serial: one pipe is one client, and
  // processing each line to completion before reading the next makes the
  // response stream fully deterministic (a replayed request file always
  // yields identical bytes, cache flags included). Concurrent clients are
  // the socket daemon's job (--listen).
  std::string line;
  while (!server.shutdown_requested() &&
         !stop->load(std::memory_order_relaxed) &&
         std::getline(std::cin, line)) {
    if (line.empty()) continue;
    std::cout << server.handle_line(line) << "\n";
    std::cout.flush();
  }
  std::fprintf(stderr, "nettag_serve: %s, exiting\n",
               server.shutdown_requested()
                   ? "shutdown requested"
                   : (stop->load(std::memory_order_relaxed)
                          ? "stop signal received, in-flight request drained"
                          : "stdin closed"));
  return 0;
}

int run_daemon(const std::vector<cli::ModelSpec>& specs,
               serve::ServerConfig config, net::DaemonConfig dcfg) {
  std::unique_ptr<serve::Server> server_ptr =
      build_server(specs, std::move(config));
  if (!server_ptr) return 2;
  serve::Server& server = *server_ptr;
  net::Daemon daemon(server, dcfg);
  std::string error;
  if (!daemon.start(&error)) {
    std::fprintf(stderr, "nettag_serve: cannot listen on '%s': %s\n",
                 dcfg.listen.spec().c_str(), error.c_str());
    return 2;
  }
  if (dcfg.listen.kind == cli::ListenAddress::Kind::kTcp) {
    // Print the *resolved* port so `--listen host:0` callers (tests, CI)
    // can find the daemon.
    std::fprintf(stderr,
                 "nettag_serve: %zu model(s) loaded; listening on %s:%u "
                 "(%zu shards, queue depth %zu)\n",
                 specs.size(), dcfg.listen.host.c_str(),
                 static_cast<unsigned>(daemon.tcp_port()), dcfg.shards,
                 dcfg.queue_depth);
  } else {
    std::fprintf(stderr,
                 "nettag_serve: %zu model(s) loaded; listening on %s "
                 "(%zu shards, queue depth %zu)\n",
                 specs.size(), dcfg.listen.spec().c_str(), dcfg.shards,
                 dcfg.queue_depth);
  }
  const std::atomic<bool>* stop = install_stop_signals_interrupting();
  return daemon.run(stop);
}

int run_client(const std::string& spec) {
  net::Client client;
  std::string error;
  if (!client.connect(spec, &error)) {
    std::fprintf(stderr, "nettag_serve: --connect %s: %s\n", spec.c_str(),
                 error.c_str());
    return 2;
  }
  std::string line, response;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    if (!client.request(line, &response, &error)) {
      std::fprintf(stderr, "nettag_serve: %s\n", error.c_str());
      return 1;
    }
    std::cout << response << "\n";
    std::cout.flush();
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<cli::ModelSpec> model_specs;
  std::string connect_spec;
  serve::ServerConfig config;
  net::DaemonConfig dcfg;
  bool daemon_mode = false;

  auto need_value = [&](int i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "nettag_serve: %s requires a value\n", argv[i]);
      usage(stderr);
      std::exit(2);
    }
    return argv[i + 1];
  };
  auto need_count = [&](int i, long long max = 1LL << 40) -> std::size_t {
    long long v = 0;
    std::string err;
    if (!cli::parse_int(need_value(i), 1, max, &v, &err)) {
      std::fprintf(stderr, "nettag_serve: %s: %s\n", argv[i], err.c_str());
      std::exit(2);
    }
    return static_cast<std::size_t>(v);
  };

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (!std::strcmp(arg, "--help") || !std::strcmp(arg, "-h")) {
      usage(stdout);
      return 0;
    } else if (!std::strcmp(arg, "--model")) {
      cli::ModelSpec spec;
      std::string err;
      if (!cli::parse_model_spec(need_value(i), &spec, &err)) {
        std::fprintf(stderr, "nettag_serve: --model: %s\n", err.c_str());
        usage(stderr);
        return 2;
      }
      model_specs.push_back(std::move(spec));
      ++i;
    } else if (!std::strcmp(arg, "--max-gates")) {
      config.max_gates = need_count(i);
      ++i;
    } else if (!std::strcmp(arg, "--cache-entries")) {
      config.cache_entries = need_count(i);
      ++i;
    } else if (!std::strcmp(arg, "--text-cache-entries")) {
      config.text_cache_entries = need_count(i);
      ++i;
    } else if (!std::strcmp(arg, "--reject-warnings")) {
      config.reject_warnings = true;
    } else if (!std::strcmp(arg, "--listen")) {
      std::string err;
      if (!cli::parse_listen_address(need_value(i), &dcfg.listen, &err)) {
        std::fprintf(stderr, "nettag_serve: --listen: %s\n", err.c_str());
        usage(stderr);
        return 2;
      }
      daemon_mode = true;
      ++i;
    } else if (!std::strcmp(arg, "--shards")) {
      dcfg.shards = need_count(i, net::ShardPool::kMaxShards);
      ++i;
    } else if (!std::strcmp(arg, "--queue-depth")) {
      dcfg.queue_depth = need_count(i, net::ShardPool::kMaxQueueDepth);
      ++i;
    } else if (!std::strcmp(arg, "--connect")) {
      connect_spec = need_value(i);
      ++i;
    } else {
      std::fprintf(stderr, "nettag_serve: unknown flag %s\n", arg);
      usage(stderr);
      return 2;
    }
  }

  if (!connect_spec.empty()) {
    if (!model_specs.empty() || daemon_mode) {
      std::fprintf(stderr,
                   "nettag_serve: --connect excludes --model/--listen\n");
      return 2;
    }
    return run_client(connect_spec);
  }
  if (model_specs.empty()) {
    usage(stderr);
    return 2;
  }
  for (std::size_t a = 1; a < model_specs.size(); ++a) {
    for (std::size_t b = 0; b < a; ++b) {
      if (model_specs[a].name == model_specs[b].name) {
        std::fprintf(stderr, "nettag_serve: duplicate --model name '%s'\n",
                     model_specs[a].name.c_str());
        return 2;
      }
    }
  }
  // Each replica's startup checkpoint doubles as its default `reload`
  // target (the registry stores it), so a prefix-less reload request
  // re-reads whatever that replica was started from — the common "the
  // trainer just updated the checkpoint" case.
  if (daemon_mode) {
    return run_daemon(model_specs, std::move(config), std::move(dcfg));
  }
  return run_serve(model_specs, std::move(config));
}
