// Tests for the src/net daemon subsystem: --listen and --seed parsing, NDJSON
// framing, the worker queue with too_busy load shedding, the socket daemon
// end-to-end over unix and TCP transports, graceful drain with in-flight
// work, and the SIGTERM-drains-before-exit contract of the serve path.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/nettag.hpp"
#include "net/client.hpp"
#include "net/daemon.hpp"
#include "net/framing.hpp"
#include "net/shard.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"
#include "util/signal.hpp"

namespace nettag {
namespace {

using net::Client;
using net::Daemon;
using net::DaemonConfig;
using net::LineBuffer;
using net::ShardPool;
using serve::ErrorCode;
using serve::Json;
using serve::Op;
using serve::Request;
using serve::Response;
using serve::Server;
using serve::ServerConfig;

// --- util/cli listen-address parsing ---------------------------------------

TEST(ListenAddress, AcceptsUnixAndTcpSpecs) {
  cli::ListenAddress a;
  std::string err;
  ASSERT_TRUE(cli::parse_listen_address("unix:/tmp/nettag.sock", &a, &err))
      << err;
  EXPECT_EQ(a.kind, cli::ListenAddress::Kind::kUnix);
  EXPECT_EQ(a.path, "/tmp/nettag.sock");
  EXPECT_EQ(a.spec(), "unix:/tmp/nettag.sock");

  ASSERT_TRUE(cli::parse_listen_address("127.0.0.1:8080", &a, &err)) << err;
  EXPECT_EQ(a.kind, cli::ListenAddress::Kind::kTcp);
  EXPECT_EQ(a.host, "127.0.0.1");
  EXPECT_EQ(a.port, 8080);

  // Port 0 is valid: bind ephemeral, read the real port back.
  ASSERT_TRUE(cli::parse_listen_address("localhost:0", &a, &err)) << err;
  EXPECT_EQ(a.port, 0);
}

TEST(ListenAddress, RejectsMalformedSpecs) {
  const char* bad[] = {
      "",            // empty
      "unix:",       // empty path
      "noport",      // no colon
      ":123",        // empty host
      "host:",       // empty port
      "host:abc",    // non-numeric port
      "host:70000",  // port out of range
      "host:-1",     // negative port
      "a:b:c",       // two colons without unix: prefix
      "[::1]:80",    // IPv6 not supported
  };
  for (const char* spec : bad) {
    cli::ListenAddress a;
    std::string err;
    EXPECT_FALSE(cli::parse_listen_address(spec, &a, &err))
        << "accepted: " << spec;
    EXPECT_FALSE(err.empty()) << spec;
  }
}

// --- util/cli --model replica specs -------------------------------------------

TEST(Cli, ParseModelSpec) {
  const struct {
    const char* text;
    const char* name;
    const char* prefix;
  } good[] = {
      {"ckpt", "default", "ckpt"},
      {"a=ckpt", "a", "ckpt"},
      // "dir/x" is no replica name, so the whole value is a path.
      {"dir/x=y", "default", "dir/x=y"},
      // There is no backend suffix: the text after ',' is part of the path.
      {"ckpt,quantize", "default", "ckpt,quantize"},
  };
  for (const auto& c : good) {
    cli::ModelSpec spec;
    std::string err;
    ASSERT_TRUE(cli::parse_model_spec(c.text, &spec, &err))
        << c.text << ": " << err;
    EXPECT_EQ(spec.name, c.name) << c.text;
    EXPECT_EQ(spec.prefix, c.prefix) << c.text;
  }
  for (const char* text : {"=ckpt", "a=", ""}) {
    cli::ModelSpec spec;
    std::string err;
    EXPECT_FALSE(cli::parse_model_spec(text, &spec, &err))
        << "accepted: '" << text << "'";
    EXPECT_FALSE(err.empty()) << text;
  }
}

// --- util/cli unsigned parsing (--seed) -------------------------------------

TEST(ParseU64, DecimalUnlessExplicitHexPrefix) {
  const std::pair<const char*, std::uint64_t> good[] = {
      {"10", 10},
      {"010", 10},  // a leading zero is not octal
      {"08", 8},
      {"0", 0},
      {"0x5eed", 0x5eed},
      {"0X10", 16},
      {"18446744073709551615", UINT64_MAX},
  };
  for (const auto& [text, want] : good) {
    std::uint64_t v = 0;
    std::string err;
    ASSERT_TRUE(cli::parse_u64(text, &v, &err)) << text << ": " << err;
    EXPECT_EQ(v, want) << text;
  }
}

TEST(ParseU64, RejectsSignsBlanksBarePrefixAndOverflow) {
  const char* bad[] = {
      "",     "-1",    " 7",  "+7",    "7 ",  "12abc",
      "0x",   "0x-5",  "0x 5", "0x0x5", "0xg", "1e3",
      "18446744073709551616",  // 2^64
      "0x10000000000000000",   // 2^64
  };
  for (const char* text : bad) {
    std::uint64_t v = 0;
    std::string err;
    EXPECT_FALSE(cli::parse_u64(text, &v, &err))
        << "accepted: '" << text << "'";
    EXPECT_FALSE(err.empty()) << text;
  }
}

// --- net/framing ------------------------------------------------------------

TEST(LineBuffer, ReassemblesFragmentedLines) {
  LineBuffer buf(1024);
  std::string line;
  ASSERT_TRUE(buf.feed("{\"op\":\"pi", 9));
  EXPECT_FALSE(buf.next_line(&line));
  ASSERT_TRUE(buf.feed("ng\"}\n{\"op\":\"stats\"}\n{", 21));
  ASSERT_TRUE(buf.next_line(&line));
  EXPECT_EQ(line, "{\"op\":\"ping\"}");
  ASSERT_TRUE(buf.next_line(&line));
  EXPECT_EQ(line, "{\"op\":\"stats\"}");
  EXPECT_FALSE(buf.next_line(&line));
  EXPECT_EQ(buf.pending_bytes(), 1u);
}

TEST(LineBuffer, StripsCarriageReturn) {
  LineBuffer buf(64);
  std::string line;
  ASSERT_TRUE(buf.feed("hello\r\n", 7));
  ASSERT_TRUE(buf.next_line(&line));
  EXPECT_EQ(line, "hello");
}

TEST(LineBuffer, OversizedUnterminatedLinePoisonsBuffer) {
  LineBuffer buf(16);
  const std::string big(17, 'x');  // no newline in sight
  EXPECT_FALSE(buf.feed(big.data(), big.size()));
  EXPECT_TRUE(buf.overflowed());
  // Poisoned: further bytes are dropped.
  EXPECT_FALSE(buf.feed("a\n", 2));
  std::string line;
  EXPECT_FALSE(buf.next_line(&line));
}

TEST(LineBuffer, OversizedLineFedInChunksStillPoisons) {
  // The daemon drains lines after every read: feed() and next_line()
  // alternate. The bound must apply to the whole accumulated unterminated
  // line, not just the bytes each feed appends.
  LineBuffer buf(16);
  std::string line;
  bool overflowed = false;
  for (int i = 0; i < 8 && !overflowed; ++i) {
    overflowed = !buf.feed("xxxxxxxx", 8);  // 8-byte chunks, never a newline
    if (!overflowed) EXPECT_FALSE(buf.next_line(&line));
  }
  EXPECT_TRUE(overflowed);
  EXPECT_TRUE(buf.overflowed());
  EXPECT_FALSE(buf.feed("a\n", 2));  // poisoned: further bytes are dropped
  EXPECT_FALSE(buf.next_line(&line));
}

TEST(LineBuffer, CompleteLineWithinBoundSurvivesIncrementalFeeds) {
  LineBuffer buf(16);
  std::string line;
  for (int i = 0; i < 16; ++i) ASSERT_TRUE(buf.feed("x", 1));
  ASSERT_TRUE(buf.feed("\n", 1));  // newline lands exactly at the bound
  ASSERT_TRUE(buf.next_line(&line));
  EXPECT_EQ(line, std::string(16, 'x'));
}

// --- worker queue + shedding ------------------------------------------------

const char* kAndNetlist =
    "module m source synthetic\n"
    "port a\nport b\n"
    "gate AND2 g1 a b out\n"
    "endmodule\n";

// Same structure as kAndNetlist with every name changed.
const char* kAndRenamed =
    "module other source synthetic\n"
    "port x\nport y\n"
    "gate AND2 zz x y out\n"
    "endmodule\n";

const char* kOrNetlist =
    "module m source synthetic\n"
    "port a\nport b\n"
    "gate OR2 g1 a b out\n"
    "endmodule\n";

NetTagConfig tiny_config() {
  NetTagConfig cfg;
  cfg.expr_llm = TextEncoderConfig::tiny();
  cfg.tag_d_model = 32;
  cfg.out_dim = 24;
  return cfg;
}

std::unique_ptr<Server> make_server(ServerConfig sc = {},
                                    std::uint64_t seed = 21) {
  return std::make_unique<Server>(
      sc, std::make_unique<NetTag>(tiny_config(), seed));
}

Request embed_request(const char* text, Op op = Op::kEmbedGates) {
  Request r;
  r.op = op;
  r.netlist_text = text;
  return r;
}

/// ShardPool::submit with the completion delivered through a future.
std::future<Response> pool_submit(ShardPool& pool, Request request) {
  auto done = std::make_shared<std::promise<Response>>();
  std::future<Response> future = done->get_future();
  pool.submit(std::move(request),
              [done](Response r) { done->set_value(std::move(r)); });
  return future;
}

TEST(ShardPool, NoRequestWaitsWhileAWorkerIsIdle) {
  auto server = make_server();
  // A task head that holds its worker until the test opens the latch.
  std::promise<void> latch;
  const std::shared_future<void> open = latch.get_future().share();
  std::atomic<bool> entered{false};
  server->register_task(
      "hold", [open, &entered](const NetTag&, const Netlist&) {
        entered.store(true);
        open.wait();
        return std::vector<double>{1.0};
      });
  ShardPool pool(*server, 2, 4);

  Request predict = embed_request(kAndNetlist, Op::kPredict);
  predict.task = "hold";
  auto held = pool_submit(pool, std::move(predict));
  for (int i = 0; i < 2000 && !entered.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // The same netlist again: the second worker is idle, so it must take the
  // request instead of leaving it queued behind the held one.
  auto second = pool_submit(pool, embed_request(kAndNetlist));
  const bool second_done = second.wait_for(std::chrono::seconds(10)) ==
                           std::future_status::ready;
  const bool first_held = held.wait_for(std::chrono::seconds(0)) !=
                          std::future_status::ready;
  latch.set_value();
  EXPECT_TRUE(entered.load());
  EXPECT_TRUE(second_done) << "embed_gates waited behind the held predict";
  EXPECT_TRUE(first_held);
  const Response embed = second.get();
  EXPECT_TRUE(embed.ok()) << embed.error_message;
  const Response head = held.get();
  EXPECT_TRUE(head.ok()) << head.error_message;
}

TEST(ShardPool, SaturatedQueueShedsWithTooBusy) {
  auto server = make_server();
  const std::size_t kWorkers = 2, kDepth = 2;
  const std::size_t kCapacity = kWorkers * kDepth;
  ShardPool pool(*server, kWorkers, kDepth);
  pool.pause();  // workers hold; the queue fills deterministically

  std::vector<std::future<Response>> accepted;
  for (std::size_t i = 0; i < kCapacity; ++i) {
    accepted.push_back(pool_submit(pool, embed_request(kAndNetlist)));
  }
  // The queue is now full: the next netlist op must shed, inline.
  auto shed = pool_submit(pool, embed_request(kOrNetlist));
  ASSERT_EQ(shed.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const Response busy = shed.get();
  EXPECT_EQ(busy.error, ErrorCode::kTooBusy);
  EXPECT_FALSE(busy.error_message.empty());

  // Control ops are never shed, even at a full queue.
  Request stats;
  stats.op = Op::kStats;
  auto stats_future = pool_submit(pool, std::move(stats));
  EXPECT_NE(stats_future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);  // queued, not shed

  const ShardPool::QueueStats counters = pool.stats();
  EXPECT_EQ(counters.workers, kWorkers);
  EXPECT_EQ(counters.shed, 1u);
  EXPECT_EQ(counters.submitted, kCapacity + 2);
  EXPECT_EQ(counters.queue_depth, kCapacity + 1);
  // One bucket per depth 0..capacity; the last holds the full-queue
  // observations (the shed op and the stats op).
  ASSERT_EQ(counters.queue_depth_histogram.size(), kCapacity + 1);
  EXPECT_EQ(counters.queue_depth_histogram.back(), 2u);

  pool.resume();
  for (auto& f : accepted) {
    const Response r = f.get();
    EXPECT_TRUE(r.ok()) << r.error_message;
  }
  EXPECT_TRUE(stats_future.get().ok());
}

TEST(ShardPool, StatsCountARequestBeforeItsResponseIsDelivered) {
  auto server = make_server();
  // Declared before the pool, so the worker that fulfils it is joined first.
  std::promise<ShardPool::QueueStats> seen;
  std::future<ShardPool::QueueStats> seen_future = seen.get_future();
  ShardPool pool(*server, 1, 4);
  Request ping;
  ping.op = Op::kPing;
  pool.submit(std::move(ping),
              [&](Response) { seen.set_value(pool.stats()); });
  const ShardPool::QueueStats during = seen_future.get();
  EXPECT_EQ(during.submitted, 1u);
  EXPECT_EQ(during.processed, 1u);
  EXPECT_EQ(during.queue_depth, 0u);
}

// --- daemon end-to-end ------------------------------------------------------

std::string unique_sock_path(const char* tag) {
  return "/tmp/nettag_test_" + std::string(tag) + "_" +
         std::to_string(static_cast<long>(::getpid())) + ".sock";
}

/// Daemon + server + background run() thread, torn down via the stop flag.
struct DaemonFixture {
  std::unique_ptr<Server> server;
  std::unique_ptr<Daemon> daemon;
  std::atomic<bool> stop{false};
  std::thread runner;
  int run_result = -1;

  explicit DaemonFixture(DaemonConfig cfg, ServerConfig sc = {}) {
    server = make_server(sc);
    daemon = std::make_unique<Daemon>(*server, cfg);
    std::string error;
    if (!daemon->start(&error)) {
      ADD_FAILURE() << "daemon.start: " << error;
      return;
    }
    runner = std::thread([this] { run_result = daemon->run(&stop); });
  }

  ~DaemonFixture() {
    if (runner.joinable()) {
      stop.store(true);
      runner.join();
    }
  }
};

std::string request_line(const std::string& id, const char* op,
                         const char* netlist) {
  Json j = Json::object();
  j.set("id", id);
  j.set("op", op);
  if (netlist) j.set("netlist", netlist);
  return j.dump();
}

TEST(Daemon, ServesConcurrentClientsOverUnixSocket) {
  const std::string path = unique_sock_path("unix");
  DaemonConfig cfg;
  std::string err;
  ASSERT_TRUE(cli::parse_listen_address(("unix:" + path).c_str(), &cfg.listen,
                                        &err))
      << err;
  cfg.shards = 2;
  cfg.queue_depth = 16;
  cfg.poll_interval_ms = 20;
  DaemonFixture fx(cfg);
  ASSERT_TRUE(fx.runner.joinable());

  Client client;
  ASSERT_TRUE(client.connect("unix:" + path, &err)) << err;
  std::string response;
  ASSERT_TRUE(client.request(request_line("p1", "ping", nullptr), &response,
                             &err))
      << err;
  Json j;
  ASSERT_TRUE(Json::parse(response, &j, &err)) << err << ": " << response;
  EXPECT_EQ(j.find("id")->as_string(), "p1");
  EXPECT_EQ(j.find("status")->as_string(), "ok");

  // First embed computes; the renamed isomorphic resubmission must replay
  // from the server's result cache, whichever worker takes it.
  ASSERT_TRUE(client.request(request_line("e1", "embed_gates", kAndNetlist),
                             &response, &err))
      << err;
  ASSERT_TRUE(Json::parse(response, &j, &err)) << response;
  ASSERT_EQ(j.find("status")->as_string(), "ok") << response;
  EXPECT_FALSE(j.find("cached")->as_bool());
  ASSERT_TRUE(client.request(request_line("e2", "embed_gates", kAndRenamed),
                             &response, &err))
      << err;
  ASSERT_TRUE(Json::parse(response, &j, &err)) << response;
  ASSERT_EQ(j.find("status")->as_string(), "ok") << response;
  EXPECT_TRUE(j.find("cached")->as_bool()) << response;

  // A second concurrent client works the same daemon.
  Client other;
  ASSERT_TRUE(other.connect("unix:" + path, &err)) << err;
  ASSERT_TRUE(other.request(request_line("o1", "embed_gates", kOrNetlist),
                            &response, &err))
      << err;
  ASSERT_TRUE(Json::parse(response, &j, &err)) << response;
  EXPECT_EQ(j.find("status")->as_string(), "ok") << response;

  // Stats carries the transport and queue sections the daemon registered.
  ASSERT_TRUE(client.request(request_line("s1", "stats", nullptr), &response,
                             &err))
      << err;
  ASSERT_TRUE(Json::parse(response, &j, &err)) << response;
  const Json* result = j.find("result");
  ASSERT_NE(result, nullptr) << response;
  const Json* transport = result->find("transport");
  ASSERT_NE(transport, nullptr) << response;
  EXPECT_GE(transport->find("accepts")->as_int(), 2);
  EXPECT_GE(transport->find("responses_out")->as_int(), 4);
  const Json* queue = result->find("queue");
  ASSERT_NE(queue, nullptr) << response;
  EXPECT_EQ(queue->find("workers")->as_int(), 2);

  // Malformed line → structured error response, connection stays usable.
  ASSERT_TRUE(client.request("this is not json", &response, &err)) << err;
  ASSERT_TRUE(Json::parse(response, &j, &err)) << response;
  EXPECT_EQ(j.find("status")->as_string(), "error");
  ASSERT_TRUE(client.request(request_line("p2", "ping", nullptr), &response,
                             &err))
      << err;
}

TEST(Daemon, BindsEphemeralTcpPortAndServes) {
  DaemonConfig cfg;
  std::string err;
  ASSERT_TRUE(cli::parse_listen_address("127.0.0.1:0", &cfg.listen, &err))
      << err;
  cfg.shards = 1;
  cfg.poll_interval_ms = 20;
  DaemonFixture fx(cfg);
  ASSERT_TRUE(fx.runner.joinable());
  ASSERT_GT(fx.daemon->tcp_port(), 0);

  Client client;
  ASSERT_TRUE(client.connect(
      "127.0.0.1:" + std::to_string(fx.daemon->tcp_port()), &err))
      << err;
  std::string response;
  ASSERT_TRUE(client.request(request_line("t1", "ping", nullptr), &response,
                             &err))
      << err;
  Json j;
  ASSERT_TRUE(Json::parse(response, &j, &err)) << response;
  EXPECT_EQ(j.find("status")->as_string(), "ok");
}

TEST(Daemon, SlowReaderExceedingWriteBufferBoundIsClosed) {
  const std::string path = unique_sock_path("slowreader");
  DaemonConfig cfg;
  std::string err;
  ASSERT_TRUE(cli::parse_listen_address(("unix:" + path).c_str(), &cfg.listen,
                                        &err))
      << err;
  cfg.shards = 1;
  cfg.poll_interval_ms = 20;
  cfg.max_wbuf_bytes = 1;  // any rendered response trips the bound
  DaemonFixture fx(cfg);
  ASSERT_TRUE(fx.runner.joinable());

  Client client;
  ASSERT_TRUE(client.connect("unix:" + path, &err)) << err;
  ASSERT_TRUE(client.send_line(request_line("w1", "ping", nullptr), &err))
      << err;
  // The over-bound response is still flushed before the close...
  std::string response;
  ASSERT_TRUE(client.read_line(&response, &err)) << err;
  Json j;
  ASSERT_TRUE(Json::parse(response, &j, &err)) << response;
  EXPECT_EQ(j.find("id")->as_string(), "w1");
  // ...then the daemon closes the connection rather than buffering further
  // output for a client that is not keeping up.
  EXPECT_FALSE(client.read_line(&response, &err));
  EXPECT_EQ(fx.daemon->transport_stats().slow_reader_closed, 1u);
}

TEST(Daemon, ShutdownRequestDrainsAndStopsRunLoop) {
  const std::string path = unique_sock_path("shutdown");
  DaemonConfig cfg;
  std::string err;
  ASSERT_TRUE(cli::parse_listen_address(("unix:" + path).c_str(), &cfg.listen,
                                        &err))
      << err;
  cfg.shards = 1;
  cfg.poll_interval_ms = 20;
  DaemonFixture fx(cfg);
  ASSERT_TRUE(fx.runner.joinable());

  Client client;
  ASSERT_TRUE(client.connect("unix:" + path, &err)) << err;
  std::string response;
  // The shutdown op's own response is part of the drain contract.
  ASSERT_TRUE(client.request(request_line("q1", "shutdown", nullptr),
                             &response, &err))
      << err;
  Json j;
  ASSERT_TRUE(Json::parse(response, &j, &err)) << response;
  EXPECT_EQ(j.find("status")->as_string(), "ok");
  fx.runner.join();
  EXPECT_EQ(fx.run_result, 0);
}

TEST(Daemon, StopFlagDrainsInFlightRequestsBeforeExit) {
  const std::string path = unique_sock_path("drain");
  DaemonConfig cfg;
  std::string err;
  ASSERT_TRUE(cli::parse_listen_address(("unix:" + path).c_str(), &cfg.listen,
                                        &err))
      << err;
  cfg.shards = 1;
  cfg.queue_depth = 8;
  cfg.poll_interval_ms = 20;
  DaemonFixture fx(cfg);
  ASSERT_TRUE(fx.runner.joinable());

  // Hold the shard worker so the request is verifiably in-flight when the
  // stop flag (the SIGTERM path) lands.
  fx.daemon->shard_pool()->pause();
  Client client;
  ASSERT_TRUE(client.connect("unix:" + path, &err)) << err;
  ASSERT_TRUE(client.send_line(request_line("d1", "embed_gates", kAndNetlist),
                               &err))
      << err;
  // Wait until the daemon has read and queued the request.
  for (int i = 0; i < 200 && fx.daemon->shard_pool()->pending() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GT(fx.daemon->shard_pool()->pending(), 0u);

  fx.stop.store(true);  // SIGTERM equivalent: drain, don't drop
  fx.daemon->shard_pool()->resume();

  std::string response;
  ASSERT_TRUE(client.read_line(&response, &err)) << err;
  Json j;
  ASSERT_TRUE(Json::parse(response, &j, &err)) << response;
  EXPECT_EQ(j.find("id")->as_string(), "d1");
  EXPECT_EQ(j.find("status")->as_string(), "ok") << response;

  fx.runner.join();
  EXPECT_EQ(fx.run_result, 0);
}

TEST(Daemon, ThrowingTaskHeadAnswersInternalAndKeepsServing) {
  const std::string path = unique_sock_path("throw");
  DaemonConfig cfg;
  std::string err;
  ASSERT_TRUE(cli::parse_listen_address(("unix:" + path).c_str(), &cfg.listen,
                                        &err))
      << err;
  cfg.shards = 1;
  cfg.poll_interval_ms = 20;
  DaemonFixture fx(cfg);
  ASSERT_TRUE(fx.runner.joinable());
  fx.server->register_task(
      "boom", [](const NetTag&, const Netlist&) -> std::vector<double> {
        throw std::runtime_error("head failed");
      });

  Client client;
  ASSERT_TRUE(client.connect("unix:" + path, &err)) << err;
  Json predict = Json::object();
  predict.set("id", "t1");
  predict.set("op", "predict");
  predict.set("netlist", kAndNetlist);
  predict.set("task", "boom");
  std::string response;
  ASSERT_TRUE(client.request(predict.dump(), &response, &err)) << err;
  Json j;
  ASSERT_TRUE(Json::parse(response, &j, &err)) << response;
  EXPECT_EQ(j.find("id")->as_string(), "t1");
  EXPECT_EQ(j.find("status")->as_string(), "error") << response;
  EXPECT_EQ(j.find("error")->find("code")->as_string(), "internal");
  EXPECT_EQ(j.find("error")->find("message")->as_string(), "head failed");

  // The shard worker survived: the same connection keeps being served.
  ASSERT_TRUE(client.request(request_line("t2", "ping", nullptr), &response,
                             &err))
      << err;
  ASSERT_TRUE(Json::parse(response, &j, &err)) << response;
  EXPECT_EQ(j.find("status")->as_string(), "ok") << response;
}

TEST(Daemon, WorkersShareTheServersResultCache) {
  const std::string path = unique_sock_path("cache");
  DaemonConfig cfg;
  std::string err;
  ASSERT_TRUE(cli::parse_listen_address(("unix:" + path).c_str(), &cfg.listen,
                                        &err))
      << err;
  cfg.shards = 2;
  cfg.queue_depth = 8;
  cfg.poll_interval_ms = 20;
  ServerConfig sc;
  sc.cache_entries = 37;  // odd: a split across two workers would show
  DaemonFixture fx(cfg, sc);
  ASSERT_TRUE(fx.runner.joinable());

  Client client;
  ASSERT_TRUE(client.connect("unix:" + path, &err)) << err;
  std::string response;
  Json j;
  int n = 0;
  // Each resubmission, renamed or not, replays its original entry whichever
  // worker runs it.
  for (const auto& [text, cached] :
       {std::pair{kAndNetlist, false}, std::pair{kAndRenamed, true},
        std::pair{kOrNetlist, false}, std::pair{kOrNetlist, true}}) {
    ASSERT_TRUE(client.request(
        request_line("e" + std::to_string(n++), "embed_gates", text),
        &response, &err))
        << err;
    ASSERT_TRUE(Json::parse(response, &j, &err)) << response;
    ASSERT_EQ(j.find("status")->as_string(), "ok") << response;
    EXPECT_EQ(j.find("cached")->as_bool(), cached) << response;
  }
  ASSERT_TRUE(client.request(request_line("s", "stats", nullptr), &response,
                             &err))
      << err;
  ASSERT_TRUE(Json::parse(response, &j, &err)) << response;
  const Json* result = j.find("result");
  ASSERT_NE(result, nullptr) << response;
  EXPECT_EQ(result->find("shards"), nullptr) << response;

  // The top-level result_cache is the server's one cache, unsplit.
  const Json* cache = result->find("result_cache");
  ASSERT_NE(cache, nullptr) << response;
  const serve::ResultCache::Stats own = fx.server->cache().stats();
  EXPECT_EQ(own.capacity, 37u);
  EXPECT_EQ(own.hits, 2u);
  EXPECT_EQ(own.misses, 2u);
  EXPECT_EQ(cache->find("capacity")->as_number(), 37.0);
  EXPECT_EQ(cache->find("entries")->as_number(),
            static_cast<double>(own.entries));
  EXPECT_EQ(cache->find("hits")->as_number(), static_cast<double>(own.hits));
  EXPECT_EQ(cache->find("misses")->as_number(),
            static_cast<double>(own.misses));
  EXPECT_EQ(cache->find("evictions")->as_number(),
            static_cast<double>(own.evictions));
  EXPECT_EQ(cache->find("collisions")->as_number(),
            static_cast<double>(own.collisions));

  const Json* queue = result->find("queue");
  ASSERT_NE(queue, nullptr) << response;
  EXPECT_EQ(queue->find("workers")->as_int(), 2);
  EXPECT_EQ(queue->find("submitted")->as_int(), 5);  // four embeds + stats
  EXPECT_EQ(queue->find("shed")->as_int(), 0);
  // The stats op itself is still in flight; a worker may not have counted
  // the last embed as processed yet, but every request is in one place.
  EXPECT_GE(queue->find("queue_depth")->as_int(), 1);
  EXPECT_EQ(queue->find("processed")->as_int() +
                queue->find("queue_depth")->as_int(),
            5);
  const Json* hist = queue->find("queue_depth_histogram");
  ASSERT_NE(hist, nullptr) << response;
  EXPECT_EQ(hist->items().size(), 2u * 8u + 1u);
}

TEST(Daemon, DestructionAfterDrainTimeoutWithQueuedWorkIsSafe) {
  const std::string path = unique_sock_path("dtor");
  DaemonConfig cfg;
  std::string err;
  ASSERT_TRUE(cli::parse_listen_address(("unix:" + path).c_str(), &cfg.listen,
                                        &err))
      << err;
  cfg.shards = 1;
  cfg.poll_interval_ms = 20;
  cfg.drain_timeout_ms = 100;  // give up on the paused shard quickly
  auto fx = std::make_unique<DaemonFixture>(cfg);
  ASSERT_TRUE(fx->runner.joinable());
  fx->daemon->shard_pool()->pause();  // the queued request never completes

  Client client;
  ASSERT_TRUE(client.connect("unix:" + path, &err)) << err;
  ASSERT_TRUE(client.send_line(request_line("d1", "embed_gates", kAndNetlist),
                               &err))
      << err;
  for (int i = 0; i < 200 && fx->daemon->shard_pool()->pending() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GT(fx->daemon->shard_pool()->pending(), 0u);

  fx->stop.store(true);
  fx->runner.join();  // drain times out with the request still queued
  // Destroying the daemon now tears the shard pool down first; pool teardown
  // answers the leftover request through the completion queue, which must
  // still be alive (TSan/ASan guard the member destruction order here).
  fx.reset();
}

// --- SIGTERM during in-flight requests (serve path regression) -------------

TEST(StopSignals, SigtermDuringInFlightBatchStillYieldsWellFormedResponses) {
  const std::atomic<bool>* stop = install_stop_signals();
  stop_signal_flag()->store(false);

  auto server = make_server();
  ShardPool pool(*server, 2, 8);
  pool.pause();  // requests queue; they run on resume
  std::vector<std::future<Response>> futures;
  futures.push_back(pool_submit(
      pool, serve::parse_request(
                request_line("b1", "embed_gates", kAndNetlist))));
  futures.push_back(pool_submit(
      pool, serve::parse_request(
                request_line("b2", "embed_gates", kOrNetlist))));

  // SIGTERM lands while both requests are in flight. The handler only sets
  // the flag — processing must complete and produce well-formed responses.
  std::raise(SIGTERM);
  EXPECT_TRUE(stop->load());
  pool.resume();

  for (auto& f : futures) {
    const Response r = f.get();
    EXPECT_TRUE(r.ok()) << r.error_message;
    Json j;
    std::string err;
    ASSERT_TRUE(Json::parse(serve::render_response(r), &j, &err)) << err;
    EXPECT_EQ(j.find("status")->as_string(), "ok");
  }
  stop_signal_flag()->store(false);  // don't leak the stop into other tests
}

TEST(StopSignals, InterruptingVariantSharesTheSameFlag) {
  const std::atomic<bool>* stop = install_stop_signals_interrupting();
  stop_signal_flag()->store(false);
  std::raise(SIGINT);
  EXPECT_TRUE(stop->load());
  stop_signal_flag()->store(false);
  // Restore the restarting handlers for any later test using them.
  install_stop_signals();
}

}  // namespace
}  // namespace nettag
