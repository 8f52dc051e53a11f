// Tests for the NetTAG-Serve subsystem (src/serve): JSON wire format,
// canonical structural hashing, the LRU primitives, and the full server —
// concurrent callers, caching, admission gate, error taxonomy, and
// observability.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <limits>

#include "analysis/check.hpp"
#include "core/nettag.hpp"
#include "net/shard.hpp"
#include "netlist/io.hpp"
#include "nn/gemm.hpp"
#include "serve/cache.hpp"
#include "serve/canonical.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/lru.hpp"

namespace nettag {
namespace {

using serve::ErrorCode;
using serve::Json;
using serve::Op;
using serve::Request;
using serve::Response;
using serve::Server;
using serve::ServerConfig;

// --- util/lru ---------------------------------------------------------------

TEST(LruMap, EvictsLeastRecentlyUsed) {
  LruMap<int, int> lru(2);
  EXPECT_EQ(lru.put(1, 10), 0u);
  EXPECT_EQ(lru.put(2, 20), 0u);
  ASSERT_NE(lru.get(1), nullptr);  // promotes 1; 2 is now oldest
  EXPECT_EQ(lru.put(3, 30), 1u);
  EXPECT_EQ(lru.get(2), nullptr);
  ASSERT_NE(lru.get(1), nullptr);
  EXPECT_EQ(*lru.get(1), 10);
  ASSERT_NE(lru.get(3), nullptr);
}

TEST(LruMap, PutReplacesWithoutGrowth) {
  LruMap<std::string, int> lru(4);
  lru.put("a", 1);
  lru.put("b", 2);
  lru.put("a", 7);  // replace, no growth
  EXPECT_EQ(lru.size(), 2u);
  EXPECT_EQ(*lru.get("a"), 7);
}

// --- serve/json -------------------------------------------------------------

TEST(ServeJson, ParsesNestedDocument) {
  Json doc;
  std::string err;
  ASSERT_TRUE(Json::parse(
      R"({"op":"embed","k":3,"flags":[true,null,-2.5],"msg":"a\"b\nc"})", &doc,
      &err))
      << err;
  EXPECT_EQ(doc.find("op")->as_string(), "embed");
  EXPECT_EQ(doc.find("k")->as_int(), 3);
  ASSERT_TRUE(doc.find("flags")->is_array());
  EXPECT_EQ(doc.find("flags")->items().size(), 3u);
  EXPECT_DOUBLE_EQ(doc.find("flags")->items()[2].as_number(), -2.5);
  EXPECT_EQ(doc.find("msg")->as_string(), "a\"b\nc");
}

TEST(ServeJson, RejectsMalformedInput) {
  Json doc;
  std::string err;
  for (const char* bad :
       {"", "{", "{\"a\":}", "[1,]", "{\"a\":1} trailing", "nul", "\"\\u12\""}) {
    EXPECT_FALSE(Json::parse(bad, &doc, &err)) << bad;
    EXPECT_FALSE(err.empty());
  }
}

TEST(ServeJson, DumpRoundTrips) {
  Json obj = Json::object();
  obj.set("n", 42);
  obj.set("x", 1.5);
  obj.set("s", "hi");
  Json arr = Json::array();
  arr.push_back(true);
  arr.push_back(Json());
  obj.set("a", std::move(arr));
  Json back;
  std::string err;
  ASSERT_TRUE(Json::parse(obj.dump(), &back, &err)) << err;
  EXPECT_EQ(back.find("n")->as_int(), 42);
  EXPECT_DOUBLE_EQ(back.find("x")->as_number(), 1.5);
  EXPECT_EQ(back.find("s")->as_string(), "hi");
  EXPECT_TRUE(back.find("a")->items()[0].as_bool());
  EXPECT_TRUE(back.find("a")->items()[1].is_null());
}

TEST(ServeJson, NumberFormatting) {
  EXPECT_EQ(serve::json_number(3.0), "3");
  EXPECT_EQ(serve::json_number(-17.0), "-17");
  EXPECT_EQ(serve::json_number(0.5), "0.5");
}

TEST(ServeJson, AsIntSaturatesInsteadOfUndefinedCast) {
  Json doc;
  std::string err;
  ASSERT_TRUE(Json::parse(R"({"big":1e300,"small":-1e300,"k":3})", &doc, &err))
      << err;
  EXPECT_EQ(doc.find("big")->as_int(),
            std::numeric_limits<long long>::max());
  EXPECT_EQ(doc.find("small")->as_int(),
            std::numeric_limits<long long>::min());
  EXPECT_EQ(doc.find("k")->as_int(), 3);
  EXPECT_EQ(Json("nope").as_int(7), 7);  // wrong type → fallback
}

// --- serve/canonical --------------------------------------------------------

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

TEST(Canonical, HashIsNameInvariant) {
  const Netlist a = netlist_from_string(kAndNetlist);
  const Netlist b = netlist_from_string(kAndRenamed);
  EXPECT_EQ(serve::structural_hash(a), serve::structural_hash(b));
}

TEST(Canonical, HashSeparatesDifferentStructure) {
  const Netlist a = netlist_from_string(kAndNetlist);
  const Netlist b = netlist_from_string(kOrNetlist);
  EXPECT_NE(serve::structural_hash(a), serve::structural_hash(b));
}

TEST(Canonical, HashIsFaninOrderSensitive) {
  // MUX2 pins are (A, B, S): swapping distinguishable fanins (an inverter
  // vs a port — two bare ports would just be a renaming) changes which pin
  // carries which cone, and the hash must see it even though the gate
  // multiset is identical.
  const Netlist m1 = netlist_from_string(
      "module m source synthetic\nport p\nport q\nport s\n"
      "gate INV n1 p\ngate MUX2 g1 n1 q s out\nendmodule\n");
  const Netlist m2 = netlist_from_string(
      "module m source synthetic\nport p\nport q\nport s\n"
      "gate INV n1 p\ngate MUX2 g1 q n1 s out\nendmodule\n");
  EXPECT_NE(serve::structural_hash(m1), serve::structural_hash(m2));
}

// Two independent gates off the same ports; the two variants differ only in
// gate declaration order (isomorphic, reordered).
const char* kPairAB =
    "module m source synthetic\n"
    "port a\nport b\n"
    "gate AND2 g1 a b out\n"
    "gate OR2 g2 a b out\n"
    "endmodule\n";

const char* kPairBA =
    "module m source synthetic\n"
    "port a\nport b\n"
    "gate OR2 g2 a b out\n"
    "gate AND2 g1 a b out\n"
    "endmodule\n";

TEST(Canonical, OrderSensitiveFoldSeparatesReorderedDeclarations) {
  const Netlist ab = netlist_from_string(kPairAB);
  const Netlist ba = netlist_from_string(kPairBA);
  // Pooled results may be shared across reordering...
  EXPECT_EQ(serve::structural_hash(ab), serve::structural_hash(ba));
  // ...but per-node results are declaration-ordered, so the order-sensitive
  // fold must address them separately.
  EXPECT_NE(serve::structural_hash(ab, 3, true),
            serve::structural_hash(ba, 3, true));
  // Renaming alone never affects either fold.
  const Netlist a1 = netlist_from_string(kAndNetlist);
  const Netlist a2 = netlist_from_string(kAndRenamed);
  EXPECT_EQ(serve::structural_hash(a1, 3, true),
            serve::structural_hash(a2, 3, true));
}

TEST(Canonical, FingerprintIsExactPerOrderMode) {
  const Netlist ab = netlist_from_string(kPairAB);
  const Netlist ba = netlist_from_string(kPairBA);
  // Canonical (label-sorted) order makes reordered isomorphic netlists
  // fingerprint identically; declaration order keeps them apart.
  EXPECT_EQ(serve::canonical_fingerprint(ab, false),
            serve::canonical_fingerprint(ba, false));
  EXPECT_NE(serve::canonical_fingerprint(ab, true),
            serve::canonical_fingerprint(ba, true));
  // Renaming never enters the fingerprint; structure always does.
  EXPECT_EQ(serve::canonical_fingerprint(netlist_from_string(kAndNetlist), true),
            serve::canonical_fingerprint(netlist_from_string(kAndRenamed), true));
  EXPECT_NE(serve::canonical_fingerprint(netlist_from_string(kAndNetlist), false),
            serve::canonical_fingerprint(netlist_from_string(kOrNetlist), false));
}

TEST(Canonical, CacheKeyIncludesOpAndParams) {
  const Netlist a = netlist_from_string(kAndNetlist);
  EXPECT_NE(serve::cache_key(a, "embed_gates", 0, 120, "", true).key,
            serve::cache_key(a, "embed_cone", 0, 120, "", false).key);
  EXPECT_NE(serve::cache_key(a, "embed_gates", 0, 120, "", true).key,
            serve::cache_key(a, "embed_gates", 3, 120, "", true).key);
  EXPECT_NE(serve::cache_key(a, "predict", 0, 120, "area", false).key,
            serve::cache_key(a, "predict", 0, 120, "power", false).key);
}

// --- serve/cache ------------------------------------------------------------

TEST(ResultCache, KeyCollisionRejectedByFingerprint) {
  serve::ResultCache cache(4);
  cache.insert("k", "fp-a", "payload-a");
  std::string out;
  EXPECT_TRUE(cache.lookup("k", "fp-a", &out));
  EXPECT_EQ(out, "payload-a");
  // Same key, different exact structure: a WL hash collision must read as a
  // miss, never replay the other circuit's payload.
  EXPECT_FALSE(cache.lookup("k", "fp-b", &out));
  const serve::ResultCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.collisions, 1u);
}

// --- serve/protocol ---------------------------------------------------------

TEST(Protocol, ParseRequestErrorTaxonomy) {
  EXPECT_EQ(serve::parse_request("garbage").parse_error, ErrorCode::kBadJson);
  EXPECT_EQ(serve::parse_request("[1,2]").parse_error, ErrorCode::kBadJson);
  EXPECT_EQ(serve::parse_request("{\"id\":\"x\"}").parse_error,
            ErrorCode::kBadRequest);  // missing op
  EXPECT_EQ(serve::parse_request("{\"op\":\"nope\"}").parse_error,
            ErrorCode::kBadRequest);
  EXPECT_EQ(serve::parse_request("{\"op\":\"embed_gates\"}").parse_error,
            ErrorCode::kBadRequest);  // missing netlist
  EXPECT_EQ(serve::parse_request(
                "{\"op\":\"embed_gates\",\"netlist\":\"m\",\"k_hop\":99}")
                .parse_error,
            ErrorCode::kBadRequest);
  const Request ok = serve::parse_request(
      "{\"id\":7,\"op\":\"ping\"}");
  EXPECT_EQ(ok.parse_error, ErrorCode::kNone);
  EXPECT_EQ(ok.op, Op::kPing);
  EXPECT_EQ(ok.id, "7");  // numeric ids echo textually
}

TEST(Protocol, MistypedFieldsAreRejectedNotDefaulted) {
  // A present-but-wrong-typed field must be bad_request, not a silent
  // default parameter (which would also poison the result cache).
  for (const char* bad : {
           R"({"op":"embed_gates","netlist":123})",
           R"({"op":"embed_gates","netlist":"m","k_hop":"3"})",
           R"({"op":"embed_gates","netlist":"m","k_hop":1.5})",
           R"({"op":"embed_gates","netlist":"m","k_hop":1e300})",
           R"({"op":"embed_circuit","netlist":"m","max_cone_gates":true})",
           R"({"op":"embed_circuit","netlist":"m","max_cone_gates":2.5})",
           R"({"op":"predict","netlist":"m","task":7})",
       }) {
    EXPECT_EQ(serve::parse_request(bad).parse_error, ErrorCode::kBadRequest)
        << bad;
  }
  const Request ok = serve::parse_request(
      R"({"op":"embed_gates","netlist":"m","k_hop":3,"max_cone_gates":64})");
  EXPECT_EQ(ok.parse_error, ErrorCode::kNone);
  EXPECT_EQ(ok.k_hop, 3);
  EXPECT_EQ(ok.max_cone_gates, 64u);
}

TEST(Protocol, MatJsonRoundTripIsBitExact) {
  Mat m(2, 3);
  m.v = {1.0f, -0.333333343f, 2.5e-7f, 3.14159274f, 0.0f, -1e9f};
  Json j;
  std::string err;
  ASSERT_TRUE(Json::parse(serve::mat_to_json(m), &j, &err)) << err;
  Mat back;
  ASSERT_TRUE(serve::mat_from_json(j, &back));
  ASSERT_EQ(back.rows, 2);
  ASSERT_EQ(back.cols, 3);
  for (std::size_t i = 0; i < m.v.size(); ++i) {
    EXPECT_EQ(m.v[i], back.v[i]) << "lane " << i;  // %.9g round-trips floats
  }
}

// --- model text cache (satellite: bounded LRU) ------------------------------

TEST(TextCache, BoundedWithCounters) {
  TextEmbeddingCache cache(2);
  std::vector<float> row{1.0f, 2.0f};
  std::vector<float> out;
  EXPECT_FALSE(cache.lookup("a", &out));
  cache.insert("a", row);
  EXPECT_TRUE(cache.lookup("a", &out));
  EXPECT_EQ(out, row);
  cache.insert("b", {3.0f});
  EXPECT_TRUE(cache.lookup("a", &out));  // promotes "a" over "b"
  cache.insert("c", {4.0f});             // evicts "b", the least recent
  EXPECT_FALSE(cache.lookup("b", &out));
  EXPECT_TRUE(cache.lookup("a", &out));
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(TextCache, ConcurrentLookupsAndInsertsStayBoundedAndCounted) {
  // Shard workers share one cache: lookups and inserts from several threads
  // must keep every counter exact, every hit correct and the size bounded.
  constexpr std::size_t kCapacity = 16;
  constexpr int kThreads = 4, kLookups = 2000, kKeys = 40;
  TextEmbeddingCache cache(kCapacity);
  std::atomic<int> wrong_rows{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<float> row;
      for (int i = 0; i < kLookups; ++i) {
        const int k = (7 * t + i) % kKeys;
        const std::string key = "k" + std::to_string(k);
        if (cache.lookup(key, &row)) {
          if (row != std::vector<float>{static_cast<float>(k)}) ++wrong_rows;
        } else {
          cache.insert(key, {static_cast<float>(k)});
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(wrong_rows.load(), 0);
  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<std::uint64_t>(kThreads) * kLookups);
  // More distinct keys than capacity went in, so the cache ends full; every
  // insert of an absent key either grew it or evicted one entry.
  EXPECT_EQ(cache.capacity(), kCapacity);
  EXPECT_EQ(cache.size(), kCapacity);
  EXPECT_GT(cache.evictions(), 0u);
  EXPECT_LE(cache.size() + cache.evictions(), cache.misses());
}

TEST(TextCache, ModelHonoursConfiguredBound) {
  NetTagConfig cfg;
  cfg.expr_llm = TextEncoderConfig::tiny();
  cfg.text_cache_entries = 3;
  const NetTag model(cfg, 11);
  // Distinct structures → distinct attribute texts → distinct cache keys.
  const char* texts[] = {
      kAndNetlist, kOrNetlist,
      "module m source synthetic\nport a\ngate INV g1 a out\nendmodule\n",
      "module m source synthetic\nport a\nport b\ngate XOR2 g1 a b out\n"
      "endmodule\n",
  };
  for (const char* t : texts) model.embed(netlist_from_string(t));
  EXPECT_LE(model.text_cache().size(), 3u);
  EXPECT_GT(model.text_cache().evictions(), 0u);
}

TEST(TextCache, WrongWidthSharedRowFailsTheEmbed) {
  // Two replicas of different text widths behind one cache and one salt (a
  // registry-key collision): the narrow model fills the rows, and the wide
  // model's embed must throw instead of reading past a 32-float row.
  NetTagConfig narrow_cfg;
  narrow_cfg.expr_llm = TextEncoderConfig::tiny();
  narrow_cfg.expr_llm.out_dim = 32;
  NetTagConfig wide_cfg = narrow_cfg;
  wide_cfg.expr_llm.out_dim = 48;
  NetTag narrow(narrow_cfg, 3);
  NetTag wide(wide_cfg, 3);
  const auto shared = std::make_shared<TextEmbeddingCache>();
  narrow.share_text_cache(shared, "same|");
  wide.share_text_cache(shared, "same|");
  const Netlist nl = netlist_from_string(kAndNetlist);
  EXPECT_EQ(narrow.embed(nl).inputs.cols, narrow.tag_in_dim());
  try {
    wide.embed(nl);
    FAIL() << "a 32-wide cached row reached a 48-wide model";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("32"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("48"), std::string::npos) << e.what();
  }
}

// --- server -----------------------------------------------------------------

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

TEST(Server, EmbedMatchesOfflineModelBitwise) {
  auto server = make_server();
  const NetTag offline(tiny_config(), 21);  // same seed → identical weights

  const Response resp = server->submit(embed_request(kAndNetlist));
  ASSERT_TRUE(resp.ok()) << resp.error_message;
  Json result;
  std::string err;
  ASSERT_TRUE(Json::parse(resp.result_json, &result, &err)) << err;
  Mat nodes, cls;
  ASSERT_TRUE(serve::mat_from_json(*result.find("nodes"), &nodes));
  ASSERT_TRUE(serve::mat_from_json(*result.find("cls"), &cls));

  const NetTag::ConeEmbedding ref =
      offline.embed(netlist_from_string(kAndNetlist));
  ASSERT_EQ(nodes.v.size(), ref.nodes.v.size());
  for (std::size_t i = 0; i < ref.nodes.v.size(); ++i) {
    EXPECT_EQ(nodes.v[i], ref.nodes.v[i]) << "node lane " << i;
  }
  ASSERT_EQ(cls.v.size(), ref.cls.v.size());
  for (std::size_t i = 0; i < ref.cls.v.size(); ++i) {
    EXPECT_EQ(cls.v[i], ref.cls.v[i]) << "cls lane " << i;
  }
}

TEST(Server, CacheHitReplaysIdenticalBytesForIsomorphicInput) {
  auto server = make_server();
  const Response first = server->submit(embed_request(kAndNetlist));
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.cached);
  // Renamed isomorphic netlist: same canonical hash → byte-identical replay.
  const Response second = server->submit(embed_request(kAndRenamed));
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.cached);
  EXPECT_EQ(first.result_json, second.result_json);
  EXPECT_EQ(server->cache().stats().hits, 1u);
  EXPECT_EQ(server->cache().stats().misses, 1u);
}

TEST(Server, ReorderedIsomorphicNetlistRecomputesPerGateRows) {
  auto server = make_server();
  const NetTag offline(tiny_config(), 21);

  const Response first = server->submit(embed_request(kPairAB));
  ASSERT_TRUE(first.ok()) << first.error_message;
  EXPECT_FALSE(first.cached);

  // Same circuit with the two gates declared in the opposite order: a cached
  // replay would hand each gate the other's embedding row, so embed_gates
  // must miss and recompute against the submitted declaration order.
  const Response second = server->submit(embed_request(kPairBA));
  ASSERT_TRUE(second.ok()) << second.error_message;
  EXPECT_FALSE(second.cached);
  Json result;
  std::string err;
  ASSERT_TRUE(Json::parse(second.result_json, &result, &err)) << err;
  Mat nodes;
  ASSERT_TRUE(serve::mat_from_json(*result.find("nodes"), &nodes));
  const NetTag::ConeEmbedding ref =
      offline.embed(netlist_from_string(kPairBA));
  ASSERT_EQ(nodes.v.size(), ref.nodes.v.size());
  for (std::size_t i = 0; i < ref.nodes.v.size(); ++i) {
    EXPECT_EQ(nodes.v[i], ref.nodes.v[i]) << "node lane " << i;
  }

  // Pooled ops carry no per-gate rows, so they may still share across the
  // reordering (fingerprints agree via canonical label order).
  const Response c1 = server->submit(embed_request(kPairAB, Op::kEmbedCone));
  ASSERT_TRUE(c1.ok()) << c1.error_message;
  const Response c2 = server->submit(embed_request(kPairBA, Op::kEmbedCone));
  ASSERT_TRUE(c2.ok()) << c2.error_message;
  EXPECT_TRUE(c2.cached);
  EXPECT_EQ(c1.result_json, c2.result_json);
  EXPECT_EQ(server->cache().stats().collisions, 0u);
}

TEST(Server, ErrorTaxonomyNeverThrows) {
  ServerConfig sc;
  sc.max_gates = 3;
  sc.reject_warnings = true;
  auto server = make_server(sc);

  // bad_json / bad_request via the wire path.
  Json resp;
  std::string err;
  ASSERT_TRUE(Json::parse(server->handle_line("{{{"), &resp, &err)) << err;
  EXPECT_EQ(resp.find("error")->find("code")->as_string(), "bad_json");
  ASSERT_TRUE(
      Json::parse(server->handle_line("{\"op\":\"fly\"}"), &resp, &err));
  EXPECT_EQ(resp.find("error")->find("code")->as_string(), "bad_request");

  // bad_request on a *recognized* op with an invalid field: the request
  // must short-circuit before the netlist reader, cache, or model see it.
  ASSERT_TRUE(Json::parse(
      server->handle_line(
          R"({"op":"embed_gates","netlist":"m","k_hop":"3"})"),
      &resp, &err));
  EXPECT_EQ(resp.find("status")->as_string(), "error");
  EXPECT_EQ(resp.find("error")->find("code")->as_string(), "bad_request");
  EXPECT_EQ(server->cache().stats().misses, 0u);

  // parse_error: unknown cell type.
  const Response bad_cell = server->submit(embed_request(
      "module m source synthetic\nport a\ngate FOO g1 a out\nendmodule\n"));
  EXPECT_EQ(bad_cell.error, ErrorCode::kParseError);
  EXPECT_FALSE(bad_cell.error_message.empty());

  // too_large: 4 gates > max_gates=3.
  const Response big = server->submit(embed_request(
      "module m source synthetic\nport a\nport b\ngate AND2 g1 a b\n"
      "gate INV g2 g1 out\nendmodule\n"));
  EXPECT_EQ(big.error, ErrorCode::kTooLarge);

  // lint_rejected (strict mode): dead gate → NL004 floating-net warning.
  ServerConfig small;
  small.reject_warnings = true;
  auto strict = make_server(small);
  const Response dead = strict->submit(embed_request(
      "module m source synthetic\nport a\nport b\ngate AND2 used a b out\n"
      "gate OR2 dead a b\nendmodule\n"));
  EXPECT_EQ(dead.error, ErrorCode::kLintRejected);
  EXPECT_FALSE(dead.detail.empty());

  // unknown_task — and it must not occupy a cache entry.
  Request pr = embed_request(kAndNetlist, Op::kPredict);
  pr.task = "unregistered";
  EXPECT_EQ(strict->submit(std::move(pr)).error, ErrorCode::kUnknownTask);
  EXPECT_EQ(strict->cache().stats().misses, 0u);
}

TEST(Server, LenientModeAdmitsWarnings) {
  auto server = make_server();  // reject_warnings defaults to false
  const Response dead = server->submit(embed_request(
      "module m source synthetic\nport a\nport b\ngate AND2 used a b out\n"
      "gate OR2 dead a b\nendmodule\n"));
  EXPECT_TRUE(dead.ok()) << dead.error_message;
}

/// An AND2/INV ladder of `depth` rungs whose every name carries `prefix`:
/// equal depths under different prefixes are renamed isomorphs.
std::string ladder_netlist(int depth, const std::string& prefix) {
  std::string a = prefix + "a", b = prefix + "b";
  std::string text = "module " + prefix + " source synthetic\nport " + a +
                     "\nport " + b + "\n";
  for (int i = 0; i < depth; ++i) {
    const std::string n1 = prefix + "n" + std::to_string(2 * i);
    const std::string n2 = prefix + "n" + std::to_string(2 * i + 1);
    text += "gate AND2 " + n1 + " " + a + " " + b + "\n";
    text += "gate INV " + n2 + " " + n1 + "\n";
    a = n1;
    b = n2;
  }
  return text + "gate OR2 " + prefix + "y " + a + " " + b + " out\nendmodule\n";
}

TEST(Server, ConcurrentSubmitMatchesSerialBytes) {
  // Distinct ladders, each also renamed, as per-gate and pooled requests:
  // concurrent callers race on one result cache, the text cache and the
  // shared thread pool, and renamed twins may hit or miss depending on
  // timing — the result bytes must not depend on any of it.
  std::vector<std::string> texts;
  std::vector<Op> ops;
  for (int depth = 1; depth <= 8; ++depth) {
    for (const char* prefix : {"p", "q"}) {
      for (const Op op : {Op::kEmbedGates, Op::kEmbedCone}) {
        texts.push_back(ladder_netlist(depth, prefix));
        ops.push_back(op);
      }
    }
  }
  auto serial = make_server();
  std::vector<std::string> expected;
  for (std::size_t i = 0; i < texts.size(); ++i) {
    const Response r = serial->submit(embed_request(texts[i].c_str(), ops[i]));
    ASSERT_TRUE(r.ok()) << r.error_message;
    expected.push_back(r.result_json);
  }

  auto server = make_server();
  std::vector<Response> got(texts.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 8; ++c) {
    clients.emplace_back([&] {
      for (std::size_t i = next++; i < texts.size(); i = next++) {
        got[i] = server->submit(embed_request(texts[i].c_str(), ops[i]));
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (std::size_t i = 0; i < texts.size(); ++i) {
    ASSERT_TRUE(got[i].ok()) << i << ": " << got[i].error_message;
    EXPECT_EQ(got[i].result_json, expected[i]) << "request " << i;
  }
  const serve::ResultCache::Stats cache = server->cache().stats();
  EXPECT_EQ(cache.hits + cache.misses, texts.size());
  EXPECT_EQ(server->metrics().snapshot().requests_ok, texts.size());
}

TEST(Server, PredictUsesRegisteredHead) {
  auto server = make_server();
  server->register_task("gate_count",
                        [](const NetTag&, const Netlist& nl) {
                          return std::vector<double>{
                              static_cast<double>(nl.size())};
                        });
  Request r = embed_request(kAndNetlist, Op::kPredict);
  r.task = "gate_count";
  const Response resp = server->submit(std::move(r));
  ASSERT_TRUE(resp.ok()) << resp.error_message;
  Json result;
  std::string err;
  ASSERT_TRUE(Json::parse(resp.result_json, &result, &err)) << err;
  EXPECT_EQ(result.find("task")->as_string(), "gate_count");
  ASSERT_EQ(result.find("scores")->items().size(), 1u);
  EXPECT_DOUBLE_EQ(result.find("scores")->items()[0].as_number(), 3.0);
}

TEST(Server, StatsExposeAllSections) {
  auto server = make_server();
  server->submit(embed_request(kAndNetlist));
  server->submit(embed_request(kAndRenamed));  // cache hit
  server->handle_line("{{{");                  // one error
  Request sr;
  sr.op = Op::kStats;
  const Response stats = server->submit(std::move(sr));
  ASSERT_TRUE(stats.ok());
  Json j;
  std::string err;
  ASSERT_TRUE(Json::parse(stats.result_json, &j, &err)) << err;
  for (const char* field :
       {"uptime_seconds", "requests_total", "requests_ok", "requests_error",
        "qps", "latency_ms", "stage_seconds", "result_cache", "text_cache"}) {
    EXPECT_NE(j.find(field), nullptr) << field;
  }
  for (const char* p : {"p50", "p90", "p99", "max"}) {
    EXPECT_NE(j.find("latency_ms")->find(p), nullptr) << p;
  }
  for (const char* s :
       {"parse", "lint", "tag_build", "text_encode", "tagformer"}) {
    EXPECT_NE(j.find("stage_seconds")->find(s), nullptr) << s;
  }
  EXPECT_GT(j.find("result_cache")->find("hit_rate")->as_number(), 0.0);
  EXPECT_NE(j.find("result_cache")->find("collisions"), nullptr);
  EXPECT_GE(j.find("requests_error")->as_int(), 1);
  EXPECT_GT(j.find("stage_seconds")->find("tagformer")->as_number(), 0.0);
  ASSERT_NE(j.find("simd"), nullptr);
  EXPECT_EQ(j.find("simd")->as_string(), simd_backend_name());
}

TEST(Server, ShutdownSetsFlagAndStillAnswers) {
  auto server = make_server();
  EXPECT_FALSE(server->shutdown_requested());
  const std::string line = server->handle_line("{\"op\":\"shutdown\"}");
  EXPECT_TRUE(server->shutdown_requested());
  Json j;
  std::string err;
  ASSERT_TRUE(Json::parse(line, &j, &err)) << err;
  EXPECT_EQ(j.find("status")->as_string(), "ok");
}

// --- hot reload --------------------------------------------------------------

Request reload_request(const std::string& prefix = "") {
  Request r;
  r.op = Op::kReload;
  r.model_prefix = prefix;
  return r;
}

/// Saves a servable checkpoint for a tiny model built from `seed`.
std::string save_tiny_checkpoint(const std::string& prefix,
                                 std::uint64_t seed) {
  const NetTag model(tiny_config(), seed);
  save_checkpoint(model, prefix);
  return prefix;
}

void remove_tiny_checkpoint(const std::string& prefix) {
  for (const char* suffix : {".ckpt", ".exprllm.bin", ".tagformer.bin"}) {
    std::remove((prefix + suffix).c_str());
  }
}

TEST(Server, ReloadSameWeightsKeepsCacheHits) {
  const std::string prefix = save_tiny_checkpoint("/tmp/nettag_reload_same", 21);
  ServerConfig sc;
  sc.model_prefix = prefix;
  Server server(sc, load_checkpoint(prefix));

  const Response first = server.submit(embed_request(kAndNetlist));
  ASSERT_TRUE(first.ok()) << first.error_message;
  EXPECT_FALSE(first.cached);

  // Prefix-less reload falls back to the configured default, which holds the
  // same weights — every cache entry must stay live.
  const Response rl = server.submit(reload_request());
  ASSERT_TRUE(rl.ok()) << rl.error_message;
  Json j;
  std::string err;
  ASSERT_TRUE(Json::parse(rl.result_json, &j, &err)) << err;
  EXPECT_FALSE(j.find("params_changed")->as_bool());
  EXPECT_EQ(server.reloads(), 1u);

  const Response second = server.submit(embed_request(kAndNetlist));
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.cached);
  EXPECT_EQ(second.result_json, first.result_json);
  remove_tiny_checkpoint(prefix);
}

TEST(Server, ReloadNewWeightsNeverReplaysStaleEntries) {
  const std::string old_prefix =
      save_tiny_checkpoint("/tmp/nettag_reload_old", 21);
  const std::string new_prefix =
      save_tiny_checkpoint("/tmp/nettag_reload_new", 3737);  // different weights
  ServerConfig sc;
  sc.model_prefix = old_prefix;
  Server server(sc, load_checkpoint(old_prefix));

  const Response before = server.submit(embed_request(kAndNetlist));
  ASSERT_TRUE(before.ok());

  const Response rl = server.submit(reload_request(new_prefix));
  ASSERT_TRUE(rl.ok()) << rl.error_message;
  Json j;
  std::string err;
  ASSERT_TRUE(Json::parse(rl.result_json, &j, &err)) << err;
  EXPECT_TRUE(j.find("params_changed")->as_bool());

  // Same netlist, new generation: must be recomputed (never the old bytes),
  // and then cached under the new weights.
  const Response after = server.submit(embed_request(kAndNetlist));
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after.cached);
  EXPECT_NE(after.result_json, before.result_json);
  const Response again = server.submit(embed_request(kAndNetlist));
  EXPECT_TRUE(again.cached);
  EXPECT_EQ(again.result_json, after.result_json);

  remove_tiny_checkpoint(old_prefix);
  remove_tiny_checkpoint(new_prefix);
}

TEST(Server, FailedReloadKeepsServingOldModel) {
  const std::string prefix = save_tiny_checkpoint("/tmp/nettag_reload_keep", 21);
  ServerConfig sc;
  sc.model_prefix = prefix;
  Server server(sc, load_checkpoint(prefix));
  const Response before = server.submit(embed_request(kAndNetlist));
  ASSERT_TRUE(before.ok());

  const Response rl =
      server.submit(reload_request("/tmp/definitely_missing_nettag_ckpt"));
  EXPECT_EQ(rl.error, ErrorCode::kReloadFailed);
  EXPECT_EQ(server.reloads(), 0u);

  // The old generation (and its cache entries) keep answering.
  const Response after = server.submit(embed_request(kAndNetlist));
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after.cached);
  EXPECT_EQ(after.result_json, before.result_json);
  remove_tiny_checkpoint(prefix);
}

TEST(Server, ReloadWithoutAnyPrefixRejected) {
  auto server = make_server();  // no config.model_prefix
  const Response rl = server->submit(reload_request());
  EXPECT_EQ(rl.error, ErrorCode::kBadRequest);
}

TEST(Server, StatsReportReloadFields) {
  auto server = make_server();
  const Response stats = server->submit([] {
    Request r;
    r.op = Op::kStats;
    return r;
  }());
  ASSERT_TRUE(stats.ok());
  Json j;
  std::string err;
  ASSERT_TRUE(Json::parse(stats.result_json, &j, &err)) << err;
  ASSERT_NE(j.find("reloads"), nullptr);
  EXPECT_EQ(j.find("reloads")->as_int(), 0);
  ASSERT_NE(j.find("weights_crc32"), nullptr);
  EXPECT_EQ(j.find("weights_crc32")->as_string().size(), 8u);
}

TEST(ServeJson, NumberRoundTripsDoublesExactly) {
  // 0.1 needs 17 significant digits as a double; a float-widened value
  // (0.25f) stays on the short %.9g path; integral stays integral.
  for (const double v : {0.1, 1.0 / 3.0, 6.02214076e23, 1e-300,
                         static_cast<double>(0.3f), 42.0}) {
    const std::string s = serve::json_number(v);
    EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
  }
  EXPECT_EQ(serve::json_number(0.5), "0.5");  // short spellings stay short
  EXPECT_EQ(serve::json_number(std::numeric_limits<double>::quiet_NaN()),
            "null");
  EXPECT_EQ(serve::json_number(std::numeric_limits<double>::infinity()),
            "null");
}

TEST(ServeJson, AsNumberSaturatesNonFinite) {
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).as_number(),
            std::numeric_limits<double>::max());
  EXPECT_EQ(Json(-std::numeric_limits<double>::infinity()).as_number(),
            -std::numeric_limits<double>::max());
  EXPECT_EQ(Json(std::numeric_limits<double>::quiet_NaN()).as_number(7.0),
            7.0);
  // Overflowing literals parse to Inf via strtod and must not escape as Inf.
  Json doc;
  std::string err;
  ASSERT_TRUE(Json::parse(R"({"x":1e999})", &doc, &err)) << err;
  EXPECT_EQ(doc.find("x")->as_number(), std::numeric_limits<double>::max());
}

TEST(Protocol, ReloadRequestParsing) {
  const Request ok = serve::parse_request(
      R"({"op":"reload","model_prefix":"/tmp/ck"})");
  EXPECT_EQ(ok.op, Op::kReload);
  EXPECT_EQ(ok.parse_error, ErrorCode::kNone);
  EXPECT_EQ(ok.model_prefix, "/tmp/ck");

  const Request bare = serve::parse_request(R"({"op":"reload"})");
  EXPECT_EQ(bare.parse_error, ErrorCode::kNone);  // default prefix may apply
  EXPECT_TRUE(bare.model_prefix.empty());

  const Request empty = serve::parse_request(
      R"({"op":"reload","model_prefix":""})");
  EXPECT_EQ(empty.parse_error, ErrorCode::kBadRequest);
  const Request mistyped = serve::parse_request(
      R"({"op":"reload","model_prefix":7})");
  EXPECT_EQ(mistyped.parse_error, ErrorCode::kBadRequest);
}

// --- multi-replica registry (protocol v2) ------------------------------------

Request model_request(const char* text, const std::string& model,
                      Op op = Op::kEmbedGates) {
  Request r = embed_request(text, op);
  r.model = model;
  return r;
}

TEST(Protocol, ModelFieldSelectsReplicaAndDefaultsWhenAbsent) {
  const Request named = serve::parse_request(
      R"({"op":"embed_gates","netlist":"m","model":"alt"})");
  EXPECT_EQ(named.parse_error, ErrorCode::kNone);
  EXPECT_EQ(named.model, "alt");

  // v1 line: no "model" field leaves the member empty (the server maps that
  // to the "default" replica — nothing is rewritten at parse time).
  const Request v1 = serve::parse_request(
      R"({"op":"embed_gates","netlist":"m"})");
  EXPECT_EQ(v1.parse_error, ErrorCode::kNone);
  EXPECT_TRUE(v1.model.empty());

  const Request empty = serve::parse_request(
      R"({"op":"embed_gates","netlist":"m","model":""})");
  EXPECT_EQ(empty.parse_error, ErrorCode::kBadRequest);
  const Request mistyped = serve::parse_request(
      R"({"op":"embed_gates","netlist":"m","model":7})");
  EXPECT_EQ(mistyped.parse_error, ErrorCode::kBadRequest);
  EXPECT_EQ(mistyped.parse_message, "'model' must be a non-empty string");
}

TEST(Protocol, UnknownOrMisplacedFieldsNameTheOffender) {
  // A field the grammar has never heard of names itself in the error (a typo
  // like "khop" must not silently run — and cache — a default-parameter run).
  const Request unknown = serve::parse_request(
      R"({"op":"embed_gates","netlist":"m","khop":3})");
  EXPECT_EQ(unknown.parse_error, ErrorCode::kBadRequest);
  EXPECT_EQ(unknown.parse_message, "unknown field 'khop' for op 'embed_gates'");

  // A known field on the wrong op is a distinct diagnostic.
  const Request misplaced =
      serve::parse_request(R"({"op":"ping","netlist":"m"})");
  EXPECT_EQ(misplaced.parse_error, ErrorCode::kBadRequest);
  EXPECT_EQ(misplaced.parse_message,
            "field 'netlist' is not accepted by op 'ping'");

  // model_load takes no backend switch: 'quantize' is unknown there.
  const Request q = serve::parse_request(
      R"({"op":"model_load","model":"a","model_prefix":"/tmp/ck","quantize":true})");
  EXPECT_EQ(q.parse_error, ErrorCode::kBadRequest);
  EXPECT_EQ(q.parse_message, "unknown field 'quantize' for op 'model_load'");

  // "id" and "op" are exempt from the table on every op.
  const Request ok = serve::parse_request(R"({"id":"7","op":"ping"})");
  EXPECT_EQ(ok.parse_error, ErrorCode::kNone);
}

TEST(Protocol, AdminOpFieldRequirements) {
  const Request load = serve::parse_request(
      R"({"op":"model_load","model":"a","model_prefix":"/tmp/ck"})");
  EXPECT_EQ(load.parse_error, ErrorCode::kNone);
  EXPECT_EQ(load.op, Op::kModelLoad);
  EXPECT_EQ(load.model, "a");
  EXPECT_EQ(load.model_prefix, "/tmp/ck");

  const Request no_prefix =
      serve::parse_request(R"({"op":"model_load","model":"a"})");
  EXPECT_EQ(no_prefix.parse_error, ErrorCode::kBadRequest);
  EXPECT_EQ(no_prefix.parse_message,
            "op 'model_load' requires field 'model_prefix'");
  const Request no_model =
      serve::parse_request(R"({"op":"model_unload"})");
  EXPECT_EQ(no_model.parse_error, ErrorCode::kBadRequest);
  EXPECT_EQ(no_model.parse_message, "op 'model_unload' requires field 'model'");

  const Request list = serve::parse_request(R"({"op":"model_list"})");
  EXPECT_EQ(list.parse_error, ErrorCode::kNone);
  EXPECT_EQ(list.op, Op::kModelList);
}

TEST(Server, TwoReplicasServeIndependently) {
  const std::string pa = save_tiny_checkpoint("/tmp/nettag_replica_a", 21);
  const std::string pb = save_tiny_checkpoint("/tmp/nettag_replica_b", 3737);
  Server server{ServerConfig{}};
  std::string err;
  ASSERT_TRUE(server.load_model("a", pa, -1, &err)) << err;
  ASSERT_TRUE(server.load_model("b", pb, -1, &err)) << err;
  EXPECT_EQ(server.registry().size(), 2u);
  EXPECT_NE(server.model_snapshot("a"), nullptr);
  EXPECT_EQ(server.model_snapshot("missing"), nullptr);

  // Distinct weights → distinct bytes, and neither run replays the other's
  // cache entry even though the netlist (and so the WL hash) is identical.
  const Response ra = server.submit(model_request(kAndNetlist, "a"));
  ASSERT_TRUE(ra.ok()) << ra.error_message;
  EXPECT_FALSE(ra.cached);
  const Response rb = server.submit(model_request(kAndNetlist, "b"));
  ASSERT_TRUE(rb.ok()) << rb.error_message;
  EXPECT_FALSE(rb.cached);
  EXPECT_NE(ra.result_json, rb.result_json);

  // Within one replica the isomorphic resubmission still replays.
  const Response ra2 = server.submit(model_request(kAndRenamed, "a"));
  ASSERT_TRUE(ra2.ok());
  EXPECT_TRUE(ra2.cached);
  EXPECT_EQ(ra2.result_json, ra.result_json);

  remove_tiny_checkpoint(pa);
  remove_tiny_checkpoint(pb);
}

TEST(Server, ReloadOneReplicaKeepsOtherReplicasCacheLive) {
  const std::string pa = save_tiny_checkpoint("/tmp/nettag_iso_a", 21);
  const std::string pa2 = save_tiny_checkpoint("/tmp/nettag_iso_a2", 5150);
  const std::string pb = save_tiny_checkpoint("/tmp/nettag_iso_b", 3737);
  Server server{ServerConfig{}};
  std::string err;
  ASSERT_TRUE(server.load_model("a", pa, -1, &err)) << err;
  ASSERT_TRUE(server.load_model("b", pb, -1, &err)) << err;

  const Response a1 = server.submit(model_request(kAndNetlist, "a"));
  const Response b1 = server.submit(model_request(kAndNetlist, "b"));
  ASSERT_TRUE(a1.ok() && b1.ok());

  // Hot-swap replica "a" to different weights over the wire.
  Request rl;
  rl.op = Op::kReload;
  rl.model = "a";
  rl.model_prefix = pa2;
  const Response rr = server.submit(std::move(rl));
  ASSERT_TRUE(rr.ok()) << rr.error_message;
  Json j;
  ASSERT_TRUE(Json::parse(rr.result_json, &j, &err)) << err;
  EXPECT_TRUE(j.find("params_changed")->as_bool());
  EXPECT_EQ(server.reloads(), 1u);

  // "b" was untouched: its cache entry replays byte-identically.
  const Response b2 = server.submit(model_request(kAndRenamed, "b"));
  ASSERT_TRUE(b2.ok());
  EXPECT_TRUE(b2.cached);
  EXPECT_EQ(b2.result_json, b1.result_json);

  // "a" serves the new generation: recomputed, different bytes.
  const Response a2 = server.submit(model_request(kAndNetlist, "a"));
  ASSERT_TRUE(a2.ok());
  EXPECT_FALSE(a2.cached);
  EXPECT_NE(a2.result_json, a1.result_json);

  remove_tiny_checkpoint(pa);
  remove_tiny_checkpoint(pa2);
  remove_tiny_checkpoint(pb);
}

TEST(Server, UnknownModelIsStructuredError) {
  auto server = make_server();  // only the "default" replica
  const Response r = server->submit(model_request(kAndNetlist, "nope"));
  EXPECT_EQ(r.error, ErrorCode::kUnknownModel);
  EXPECT_NE(r.error_message.find("nope"), std::string::npos);

  Json j;
  std::string err;
  ASSERT_TRUE(Json::parse(
      server->handle_line(
          R"({"op":"embed_gates","netlist":"module m source synthetic\n)"
          R"(port a\ngate INV g1 a out\nendmodule\n","model":"nope"})"),
      &j, &err))
      << err;
  EXPECT_EQ(j.find("error")->find("code")->as_string(), "unknown_model");
  // Reload of an unknown name takes the same taxonomy path.
  Request rl;
  rl.op = Op::kReload;
  rl.model = "nope";
  rl.model_prefix = "/tmp/whatever";
  EXPECT_EQ(server->submit(std::move(rl)).error, ErrorCode::kUnknownModel);
}

TEST(Server, ModelAdminLifecycleOverTheWire) {
  const std::string p = save_tiny_checkpoint("/tmp/nettag_admin_ck", 21);
  Server server{ServerConfig{}};
  Json j;
  std::string err;

  // Empty registry: listable, and netlist traffic answers unknown_model.
  ASSERT_TRUE(Json::parse(server.handle_line(R"({"op":"model_list"})"), &j,
                          &err))
      << err;
  EXPECT_EQ(j.find("result")->find("models")->items().size(), 0u);
  EXPECT_EQ(server.submit(model_request(kAndNetlist, "a")).error,
            ErrorCode::kUnknownModel);

  ASSERT_TRUE(Json::parse(
      server.handle_line(R"({"op":"model_load","model":"a","model_prefix":")" +
                         p + R"("})"),
      &j, &err))
      << err;
  ASSERT_EQ(j.find("status")->as_string(), "ok") << j.dump();
  EXPECT_TRUE(j.find("result")->find("loaded")->as_bool());
  EXPECT_FALSE(j.find("result")->find("replaced")->as_bool());
  EXPECT_TRUE(server.submit(model_request(kAndNetlist, "a")).ok());

  // Loading the same name again replaces in place.
  ASSERT_TRUE(Json::parse(
      server.handle_line(R"({"op":"model_load","model":"a","model_prefix":")" +
                         p + R"("})"),
      &j, &err))
      << err;
  EXPECT_TRUE(j.find("result")->find("replaced")->as_bool());

  ASSERT_TRUE(Json::parse(server.handle_line(R"({"op":"model_list"})"), &j,
                          &err))
      << err;
  const auto& rows = j.find("result")->find("models")->items();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].find("name")->as_string(), "a");
  EXPECT_EQ(rows[0].find("prefix")->as_string(), p);

  ASSERT_TRUE(Json::parse(
      server.handle_line(R"({"op":"model_unload","model":"a"})"), &j, &err))
      << err;
  EXPECT_TRUE(j.find("result")->find("unloaded")->as_bool());
  // Gone: unload again and serve both answer unknown_model.
  ASSERT_TRUE(Json::parse(
      server.handle_line(R"({"op":"model_unload","model":"a"})"), &j, &err))
      << err;
  EXPECT_EQ(j.find("error")->find("code")->as_string(), "unknown_model");
  EXPECT_EQ(server.submit(model_request(kAndNetlist, "a")).error,
            ErrorCode::kUnknownModel);
  // A bad checkpoint path fails closed without registering anything.
  ASSERT_TRUE(Json::parse(
      server.handle_line(
          R"({"op":"model_load","model":"x","model_prefix":"/tmp/no_such_ck"})"),
      &j, &err))
      << err;
  EXPECT_EQ(j.find("status")->as_string(), "error");
  EXPECT_EQ(server.registry().size(), 0u);
  remove_tiny_checkpoint(p);
}

TEST(Server, ModelUnloadDrainsQueuedRequestsWithUnknownModel) {
  const std::string p = save_tiny_checkpoint("/tmp/nettag_unload_ck", 21);
  Server server{ServerConfig{}};
  std::string err;
  ASSERT_TRUE(server.load_model("a", p, -1, &err)) << err;

  // Queue traffic for "a" behind a paused worker pool, then unload the
  // replica out from under it. The queued requests must drain as
  // unknown_model — never crash into a dangling model pointer.
  net::ShardPool pool(server, 1, 8);
  pool.pause();
  std::vector<std::future<Response>> queued;
  for (int i = 0; i < 4; ++i) {
    auto done = std::make_shared<std::promise<Response>>();
    queued.push_back(done->get_future());
    pool.submit(model_request(kAndNetlist, "a"),
                [done](Response r) { done->set_value(std::move(r)); });
  }
  ASSERT_TRUE(server.unload_model("a"));
  pool.resume();
  for (auto& f : queued) {
    const Response r = f.get();
    EXPECT_EQ(r.error, ErrorCode::kUnknownModel);
    EXPECT_EQ(r.error_message, "no model loaded under 'a'");
  }
  // The server stays healthy afterwards.
  Request ping;
  ping.op = Op::kPing;
  EXPECT_TRUE(server.submit(std::move(ping)).ok());
  remove_tiny_checkpoint(p);
}

TEST(Server, V1LinesReplayByteIdenticalOnMultiModelServer) {
  const std::string alt = save_tiny_checkpoint("/tmp/nettag_v1_alt", 3737);
  auto v1 = make_server();  // plain single-model server, seed 21
  auto v2 = make_server();  // same default replica...
  std::string err;
  ASSERT_TRUE(v2->load_model("alt", alt, -1, &err)) << err;  // ...plus one

  // A deterministic v1 session: ok paths, a cached replay, and every parse /
  // admin error shape. None of the lines mention "model".
  const std::vector<std::string> lines = {
      R"({"id":"1","op":"embed_gates","netlist":"module m source synthetic\n)"
      R"(port a\nport b\ngate AND2 g1 a b out\nendmodule\n"})",
      R"({"id":"2","op":"embed_cone","netlist":"module m source synthetic\n)"
      R"(port a\nport b\ngate AND2 g1 a b out\nendmodule\n","k_hop":2})",
      R"({"id":"3","op":"embed_gates","netlist":"module other source )"
      R"(synthetic\nport x\nport y\ngate AND2 zz x y out\nendmodule\n"})",
      R"({"id":"4","op":"ping"})",
      R"({"id":"5","op":"reload"})",  // no default prefix configured → error
      R"({"id":"6","op":"embed_gates"})",
      R"({"id":"7","op":"fly"})",
      "{{{",
  };
  for (const std::string& line : lines) {
    // Perturb the v2 server with traffic on the extra replica between every
    // v1 line: it must never leak into the default replica's responses.
    ASSERT_TRUE(v2->submit(model_request(kOrNetlist, "alt")).ok());
    EXPECT_EQ(v1->handle_line(line), v2->handle_line(line)) << line;
  }
}

TEST(Server, StatsReportPerReplicaSectionAndDefaults) {
  const std::string pa = save_tiny_checkpoint("/tmp/nettag_stats_a", 21);
  const std::string pb = save_tiny_checkpoint("/tmp/nettag_stats_b", 3737);
  Server server{ServerConfig{}};
  std::string err;
  ASSERT_TRUE(server.load_model("a", pa, -1, &err)) << err;
  ASSERT_TRUE(server.load_model("b", pb, -1, &err)) << err;
  ASSERT_TRUE(server.submit(model_request(kAndNetlist, "a")).ok());
  ASSERT_TRUE(server.submit(model_request(kAndRenamed, "a")).ok());  // hit

  Json j;
  ASSERT_TRUE(Json::parse(server.stats_json(), &j, &err)) << err;
  const Json* models = j.find("models");
  ASSERT_NE(models, nullptr);
  ASSERT_EQ(models->items().size(), 2u);
  const Json& a = models->items()[0];  // registry rows sort by name
  EXPECT_EQ(a.find("name")->as_string(), "a");
  EXPECT_EQ(a.find("requests")->as_int(), 2);
  EXPECT_EQ(a.find("cache_hits")->as_int(), 1);
  EXPECT_EQ(a.find("cache_misses")->as_int(), 1);
  EXPECT_EQ(a.find("weights_crc32")->as_string().size(), 8u);
  const Json& b = models->items()[1];
  EXPECT_EQ(b.find("name")->as_string(), "b");
  EXPECT_EQ(b.find("requests")->as_int(), 0);

  // Effective request defaults are echoed (the deduped max_cone_gates bound
  // among them), and the v1 top-level weight fields only describe a replica
  // actually named "default" — absent here.
  const Json* defaults = j.find("defaults");
  ASSERT_NE(defaults, nullptr);
  EXPECT_EQ(defaults->find("max_cone_gates")->as_int(),
            static_cast<std::int64_t>(serve::kDefaultMaxConeGates));
  EXPECT_EQ(defaults->find("max_gates")->as_int(), 20000);
  EXPECT_EQ(j.find("weights_crc32"), nullptr);

  remove_tiny_checkpoint(pa);
  remove_tiny_checkpoint(pb);
}

/// The `text_cache` section of a server's `stats`.
struct TextCacheCounts {
  std::int64_t entries = 0, capacity = 0, hits = 0, misses = 0;
};

TextCacheCounts text_cache_counts(const Server& server) {
  Json j;
  std::string err;
  EXPECT_TRUE(Json::parse(server.stats_json(), &j, &err)) << err;
  const Json* tc = j.find("text_cache");
  if (tc == nullptr) {
    ADD_FAILURE() << "stats has no text_cache section";
    return {};
  }
  return {tc->find("entries")->as_int(), tc->find("capacity")->as_int(),
          tc->find("hits")->as_int(), tc->find("misses")->as_int()};
}

TEST(Server, TextCacheIsOneSaltedCacheAcrossReplicasAndReloads) {
  const std::string pa = save_tiny_checkpoint("/tmp/nettag_text_cache_a", 21);
  const std::string pb =
      save_tiny_checkpoint("/tmp/nettag_text_cache_b", 3737);  // other weights
  ServerConfig sc;
  sc.text_cache_entries = 64;
  Server server{sc};
  std::string err;

  // The registry creates the cache with the first replica.
  Json j;
  ASSERT_TRUE(Json::parse(server.stats_json(), &j, &err)) << err;
  EXPECT_EQ(j.find("text_cache"), nullptr);
  ASSERT_TRUE(server.load_model("a", pa, -1, &err)) << err;
  const TextCacheCounts empty = text_cache_counts(server);
  EXPECT_EQ(empty.capacity, 64);
  EXPECT_EQ(empty.entries, 0);

  ASSERT_TRUE(server.submit(model_request(kAndNetlist, "a")).ok());
  const TextCacheCounts after_a = text_cache_counts(server);
  EXPECT_GT(after_a.misses, 0);
  EXPECT_GT(after_a.entries, 0);

  // A second replica of the same checkpoint misses the result cache (its
  // keys carry its own name) but hits every text row "a" encoded.
  ASSERT_TRUE(server.load_model("a_twin", pa, -1, &err)) << err;
  const Response twin = server.submit(model_request(kAndNetlist, "a_twin"));
  ASSERT_TRUE(twin.ok()) << twin.error_message;
  EXPECT_FALSE(twin.cached);
  const TextCacheCounts after_twin = text_cache_counts(server);
  EXPECT_EQ(after_twin.misses, after_a.misses);
  EXPECT_GT(after_twin.hits, after_a.hits);
  EXPECT_EQ(after_twin.entries, after_a.entries);

  // Other weights salt other keys: the same netlist misses exactly as often
  // as it did on the empty cache, and adds its own rows.
  ASSERT_TRUE(server.load_model("b", pb, -1, &err)) << err;
  ASSERT_TRUE(server.submit(model_request(kAndNetlist, "b")).ok());
  const TextCacheCounts after_b = text_cache_counts(server);
  EXPECT_EQ(after_b.misses - after_twin.misses, after_a.misses);
  EXPECT_EQ(after_b.hits - after_twin.hits, after_a.hits);
  EXPECT_EQ(after_b.entries, 2 * after_a.entries);

  // A reload keeps the cache, entries and capacity alike, and the reloaded
  // replica hits its rows (embed_cone misses the result cache).
  Request rl;
  rl.op = Op::kReload;
  rl.model = "a";
  const Response rr = server.submit(std::move(rl));
  ASSERT_TRUE(rr.ok()) << rr.error_message;
  const TextCacheCounts after_reload = text_cache_counts(server);
  EXPECT_EQ(after_reload.entries, after_b.entries);
  EXPECT_EQ(after_reload.capacity, 64);
  const Response cone =
      server.submit(model_request(kAndNetlist, "a", Op::kEmbedCone));
  ASSERT_TRUE(cone.ok()) << cone.error_message;
  EXPECT_FALSE(cone.cached);
  const TextCacheCounts after_cone = text_cache_counts(server);
  EXPECT_EQ(after_cone.misses, after_reload.misses);
  EXPECT_GT(after_cone.hits, after_reload.hits);

  remove_tiny_checkpoint(pa);
  remove_tiny_checkpoint(pb);
}

}  // namespace
}  // namespace nettag
