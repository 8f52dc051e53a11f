#include "core/corpus_stream.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <exception>
#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "analysis/lint.hpp"
#include "netlist/io.hpp"
#include "util/atomic_io.hpp"
#include "util/checksum.hpp"
#include "util/cli.hpp"
#include "util/numbers.hpp"
#include "util/parallel.hpp"
#include "util/words.hpp"

namespace nettag {

namespace {

constexpr const char* kManifestName = "corpus.manifest";
constexpr const char* kManifestFormat = "nettag-corpus-v1";
constexpr const char* kShardHeader = "nettag-shard v1";

std::string shard_filename(std::size_t index) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "shard_%05zu.nls", index);
  return buf;
}

std::string join_names(const std::vector<FamilyProfile>& fams) {
  std::string out;
  for (const FamilyProfile& f : fams) {
    if (!out.empty()) out += ',';
    out += f.name;
  }
  return out;
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == ',') {
      out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

/// The option record stored in (and validated against) the manifest. A
/// resumed run with different options would silently produce a corpus that
/// matches neither configuration — refuse instead.
std::vector<std::pair<std::string, std::string>> config_entries(
    const StreamOptions& o, std::uint64_t seed) {
  return {
      {"format", kManifestFormat},
      {"seed", std::to_string(seed)},
      {"families", join_names(benchmark_families())},
      {"designs_per_family", std::to_string(o.designs_per_family)},
      {"designs_per_shard", std::to_string(o.designs_per_shard)},
      {"hierarchical", o.hierarchical ? "1" : "0"},
      {"k_hop", std::to_string(o.corpus.k_hop)},
      {"max_cone_gates", std::to_string(kMaxConeGates)},
      {"with_physical", o.corpus.with_physical ? "1" : "0"},
      {"placement_passes", std::to_string(o.corpus.placement_passes)},
      {"hier_levels", std::to_string(o.hierarchy.levels)},
      {"hier_min_blocks", std::to_string(o.hierarchy.min_blocks_per_level)},
      {"hier_max_blocks", std::to_string(o.hierarchy.max_blocks_per_level)},
      {"hier_shared", std::to_string(o.hierarchy.shared_blocks)},
  };
}

// --- shard serialization -----------------------------------------------------

void write_blob(std::ostream& os, const std::string& tag,
                const std::string& bytes) {
  os << tag << ' ' << bytes.size() << '\n' << bytes << '\n';
}

/// One design's block of a shard, from its `design` line through
/// `enddesign`. A shard is its header line, its designs' blocks in design
/// order and the `end` line, so the blocks are built independently.
std::string serialize_design(const DesignSample& ds,
                             const std::vector<std::vector<std::string>>& es) {
  std::ostringstream os;
  os << "design " << ds.gen.netlist.name() << ' ' << ds.gen.netlist.source()
     << '\n';
  os << "labels";
  for (const double label :
       {ds.area_wo_opt, ds.power_wo_opt, ds.area_w_opt, ds.power_w_opt,
        ds.tool_area, ds.tool_power, ds.pr_runtime_seconds}) {
    os << ' ' << format_double(label).view();
  }
  os << '\n';
  write_blob(os, "rtl", ds.gen.rtl_text);
  // unordered_map order is not stable across implementations; sort so the
  // shard bytes are a pure function of (seed, options).
  std::vector<std::pair<std::string, std::string>> regs(
      ds.gen.reg_rtl.begin(), ds.gen.reg_rtl.end());
  std::sort(regs.begin(), regs.end());
  os << "regrtl " << regs.size() << '\n';
  for (const auto& [reg, text] : regs) write_blob(os, "reg " + reg, text);
  write_blob(os, "netlist", netlist_to_string(ds.gen.netlist));
  os << "cones " << ds.cones.size() << '\n';
  for (std::size_t c = 0; c < ds.cones.size(); ++c) {
    const ConeSample& cs = ds.cones[c];
    os << "cone " << cs.register_name << ' ' << (cs.is_state_reg ? 1 : 0)
       << ' ' << (cs.has_layout ? 1 : 0) << ' '
       << format_double(cs.slack_label).view() << ' '
       << format_double(cs.clock_period).view() << '\n';
    write_blob(os, "rtl", cs.rtl_text);
    write_blob(os, "conenet", netlist_to_string(cs.cone));
    os << "exprs " << es[c].size() << '\n';
    for (const std::string& e : es[c]) os << "e " << e << '\n';
    os << "layout " << cs.layout.node_feats.size() << ' '
       << cs.layout.edges.size() << '\n';
    for (const auto& nf : cs.layout.node_feats) {
      os << 'n';
      for (double f : nf) os << ' ' << format_double(f).view();
      os << '\n';
    }
    for (const auto& [u, v] : cs.layout.edges) {
      os << "g " << u << ' ' << v << '\n';
    }
    os << "endcone\n";
  }
  os << "enddesign\n";
  return os.str();
}

/// Designs per pool lane that one window of shards holds at least when the
/// pool has more than one lane (see build_corpus_stream; at width 1 a
/// window is one shard): a region is as slow as its slowest item, so each
/// lane needs several designs to even out the large ones. On the benchmark's
/// corpus (16 hierarchical designs, 4 per shard; 4-vCPU Xeon VM, pool width
/// 4, 10 interleaved builds each) a build took a median 0.221 s shard by
/// shard, 0.145 s with 2 designs per lane (2-shard windows) and 0.123 s
/// with 4 (one 4-shard window), at a peak RSS of 24-27, 26-29 and 31-34 MB.
constexpr std::size_t kDesignsPerLane = 4;

/// A design's relative size, known before it is generated: its family's
/// stage span times its width span. It ranks chipyard (230) over vexriscv
/// (128), itc99 (77) and opencores (42), the order of their measured
/// production times.
int size_estimate(const FamilyProfile& f) {
  return (f.min_stages + f.max_stages) * (f.min_width + f.max_width);
}

/// What a window keeps of one design once its pool item ends: its block of
/// shard text, its lint report and its counts. The DesignSample is freed in
/// the item.
struct DesignBlock {
  std::string name;  ///< the netlist's name, which prefixes its lint findings
  LintReport lint;
  /// Produced and linted, so an `error` came from embedding or serializing.
  bool linted = false;
  std::string text;  ///< empty when lint found errors
  std::size_t cones = 0;
  std::size_t gates = 0;
  std::size_t expressions = 0;
  std::exception_ptr error;
};

/// Generates and assembles design `index` on its own `rng`, lints it, and
/// when it is clean derives its cones' expressions and serializes it. An
/// exception is kept in the block rather than thrown, so the caller can
/// report the failures of a window in shard order.
DesignBlock produce_block(std::size_t index, const StreamOptions& options,
                          Rng& rng) {
  DesignBlock b;
  try {
    const std::vector<FamilyProfile>& fams = benchmark_families();
    const FamilyProfile& profile = fams[index % fams.size()];
    const std::string name = profile.name +
                             (options.hierarchical ? "_h" : "_d") +
                             std::to_string(index / fams.size());
    GeneratedDesign gen =
        options.hierarchical
            ? generate_hierarchical_design(profile, options.hierarchy, rng,
                                           name)
            : generate_design(profile, rng, name);
    const DesignSample ds =
        make_design_sample(std::move(gen), options.corpus, rng);
    b.name = ds.gen.netlist.name();
    b.lint = lint_design(ds);
    b.linted = true;
    if (b.lint.has_errors()) return b;
    // Embed: every cone's expressions are derived once; readers reuse them.
    const std::vector<std::vector<std::string>> exprs =
        design_expressions(ds, options.corpus.k_hop);
    b.text = serialize_design(ds, exprs);
    b.cones = ds.cones.size();
    b.gates = ds.gen.netlist.size();
    for (const auto& ce : exprs) b.expressions += ce.size();
  } catch (...) {
    b.error = std::current_exception();
  }
  return b;
}

// --- shard parsing -----------------------------------------------------------

/// memchr is vectorized in libc; std::count over a 2 MB shard took 2.5x
/// as long.
std::size_t count_newlines(std::string_view s) {
  std::size_t n = 0;
  const char* p = s.data();
  const char* const end = p + s.size();
  while (const void* hit =
             std::memchr(p, '\n', static_cast<std::size_t>(end - p))) {
    p = static_cast<const char*>(hit) + 1;
    ++n;
  }
  return n;
}

/// Reads a std::size_t the way `std::istream >> std::size_t` does (libstdc++,
/// C locale): optional space, an optional sign, then digits up to the first
/// non-digit, which stays unread. A minus sign wraps modulo 2^64; no digits,
/// or a value past 2^64 - 1, fails.
bool next_size(Words& ws, std::size_t* out) {
  std::string_view& r = ws.rest;
  std::size_t i = 0;
  while (i < r.size() && is_space(r[i])) ++i;
  const bool minus = i < r.size() && r[i] == '-';
  if (i < r.size() && (r[i] == '-' || r[i] == '+')) ++i;
  const std::size_t first = i;
  std::size_t v = 0;
  for (; i < r.size() && r[i] >= '0' && r[i] <= '9'; ++i) {
    const auto d = static_cast<std::size_t>(r[i] - '0');
    if (v > (std::numeric_limits<std::size_t>::max() - d) / 10) return false;
    v = v * 10 + d;
  }
  if (i == first) return false;
  r.remove_prefix(i);
  *out = minus ? 0 - v : v;
  return true;
}

/// Line/byte-tracking cursor over a shard body, so every rejection names the
/// exact location. Lines and blobs are views into the body.
struct Cursor {
  std::string_view text;
  const std::string& path;
  std::size_t pos = 0;
  std::size_t line = 1;
  std::size_t newlines = 0;  ///< '\n' bytes in text, for lines_left()

  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("shard " + path + ": " + why + " (line " +
                             std::to_string(line) + ", byte offset " +
                             std::to_string(pos) + ")");
  }

  std::string_view next_line() {
    if (pos >= text.size()) fail("unexpected end of shard");
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) fail("unterminated line");
    const std::string_view out = text.substr(pos, nl - pos);
    pos = nl + 1;
    ++line;
    return out;
  }

  /// Whole lines after the cursor.
  std::size_t lines_left() const { return newlines - (line - 1); }

  /// Rejects a count of items that each take at least one line when the
  /// lines left cannot hold them, before anything is reserved for them.
  void check_count(std::size_t n, const char* what) const {
    if (n > lines_left()) {
      fail(std::string(what) + " count " + std::to_string(n) +
           " exceeds the " + std::to_string(lines_left()) + " lines left");
    }
  }

  /// n raw bytes plus their trailing newline.
  std::string_view take_blob(std::size_t n, const char* past_end) {
    if (n >= text.size() - pos) fail(past_end);
    const std::string_view bytes = text.substr(pos, n);
    pos += n;
    if (text[pos] != '\n') fail("blob missing trailing newline");
    ++pos;
    line += count_newlines(bytes) + 1;
    return bytes;
  }

  /// Reads a `<tag> <n>` header line then n raw bytes plus the trailing
  /// newline.
  std::string_view read_blob(const char* tag) {
    const std::string_view header = next_line();
    Words ws{header};
    std::size_t n = 0;
    if (ws.next() != tag || !next_size(ws, &n)) {
      fail("expected '" + std::string(tag) + " <bytes>', got '" +
           std::string(header) + "'");
    }
    return take_blob(n, "blob extends past end of shard");
  }
};

double next_double(const Cursor& cur, Words& ws, const char* what) {
  const std::string_view w = ws.next();
  if (w.empty()) cur.fail(std::string("missing ") + what);
  double v = 0;
  if (!parse_double(w, &v)) {
    cur.fail(std::string("bad ") + what + ": " + std::string(w));
  }
  return v;
}

long next_long(const Cursor& cur, Words& ws, const char* what, long lo,
               long hi) {
  const std::string_view w = ws.next();
  if (w.empty()) cur.fail(std::string("missing ") + what);
  const char* const end = w.data() + w.size();
  long v = 0;
  const std::from_chars_result r = std::from_chars(w.data(), end, v);
  if (r.ec != std::errc() || r.ptr != end || v < lo || v > hi) {
    cur.fail(std::string("bad ") + what + ": " + std::string(w));
  }
  return v;
}

/// A block of a shard that parse_shard's structural pass skips and parses
/// afterwards, as one item of a pool region: an embedded netlist, or a
/// cone's layout lines. `pos` and `line` are where a serial reader stands
/// when it parses the block (past a netlist's blob, at a layout's first
/// line), so an error names the same location.
struct DeferredBlock {
  enum Kind { kDesignNetlist, kConeNetlist, kLayout };
  Kind kind = kDesignNetlist;
  std::size_t design = 0, cone = 0;
  std::size_t pos = 0, line = 0;
  std::string_view blob;             ///< a netlist's text
  std::size_t nodes = 0, edges = 0;  ///< a layout's line counts
};

/// Parses `block` into its design or cone of `shard`, which the structural
/// pass has already sized, so the region's items write disjoint fields.
void parse_deferred(const DeferredBlock& block, std::string_view body,
                    const std::string& path, ShardedCorpus::Shard& shard) {
  Cursor cur{body, path, block.pos, block.line};
  DesignSample& ds = shard.corpus.designs[block.design];
  if (block.kind == DeferredBlock::kDesignNetlist) {
    try {
      ds.gen.netlist = read_netlist(block.blob);
    } catch (const std::exception& e) {
      cur.fail(std::string("embedded netlist: ") + e.what());
    }
    return;
  }
  ConeSample& cone = ds.cones[block.cone];
  if (block.kind == DeferredBlock::kConeNetlist) {
    try {
      cone.cone = read_netlist(block.blob);
    } catch (const std::exception& e) {
      cur.fail(std::string("embedded cone netlist: ") + e.what());
    }
    return;
  }
  cone.layout.node_feats.reserve(block.nodes);
  for (std::size_t nidx = 0; nidx < block.nodes; ++nidx) {
    Words ns{cur.next_line()};
    if (ns.next() != "n") cur.fail("expected layout node line");
    std::array<double, 6> feats{};
    for (double& f : feats) f = next_double(cur, ns, "node feature");
    cone.layout.node_feats.push_back(feats);
  }
  for (std::size_t eidx = 0; eidx < block.edges; ++eidx) {
    Words gs{cur.next_line()};
    if (gs.next() != "g") cur.fail("expected layout edge line");
    const long u = next_long(cur, gs, "edge endpoint", 0,
                             static_cast<long>(block.nodes) - 1);
    const long v = next_long(cur, gs, "edge endpoint", 0,
                             static_cast<long>(block.nodes) - 1);
    cone.layout.edges.emplace_back(static_cast<int>(u), static_cast<int>(v));
  }
}

/// The structural pass of parse_shard over the body after its header line:
/// every line, count, blob, expression and header field, in file order. It
/// fills `shard` except for the blocks it appends to `deferred`, and
/// throws at the first structural error.
void parse_structure(Cursor& cur, std::size_t want_designs,
                     const std::string& listed_by,
                     ShardedCorpus::Shard& shard,
                     std::vector<DeferredBlock>& deferred) {
  while (true) {
    const std::string_view head = cur.next_line();
    if (head.starts_with("end ")) {
      Words ws{head.substr(4)};
      std::size_t n = 0;
      if (!next_size(ws, &n) || n != shard.corpus.designs.size()) {
        cur.fail("design count mismatch in end marker");
      }
      if (n != want_designs) {
        cur.fail(std::to_string(n) + " designs differ from " +
                 std::to_string(want_designs) + ", listed by " + listed_by);
      }
      break;
    }
    Words hw{head};
    const std::string_view tag = hw.next(), name = hw.next(),
                           family = hw.next();
    if (family.empty() || tag != "design") {
      cur.fail("expected 'design <name> <family>', got '" + std::string(head) +
               "'");
    }
    const std::size_t d = shard.corpus.designs.size();
    DesignSample& ds = shard.corpus.designs.emplace_back();
    std::vector<std::vector<std::string>>& design_exprs =
        shard.exprs.emplace_back();

    Words ls{cur.next_line()};
    if (ls.next() != "labels") cur.fail("expected labels line");
    ds.area_wo_opt = next_double(cur, ls, "area_wo_opt");
    ds.power_wo_opt = next_double(cur, ls, "power_wo_opt");
    ds.area_w_opt = next_double(cur, ls, "area_w_opt");
    ds.power_w_opt = next_double(cur, ls, "power_w_opt");
    ds.tool_area = next_double(cur, ls, "tool_area");
    ds.tool_power = next_double(cur, ls, "tool_power");
    ds.pr_runtime_seconds = next_double(cur, ls, "pr_runtime_seconds");

    ds.gen.rtl_text = cur.read_blob("rtl");
    Words rs{cur.next_line()};
    std::size_t nregs = 0;
    if (rs.next() != "regrtl" || !next_size(rs, &nregs)) {
      cur.fail("expected 'regrtl <count>'");
    }
    cur.check_count(nregs, "regrtl");
    for (std::size_t r = 0; r < nregs; ++r) {
      // Blob tag carries the register name: "reg <name> <bytes>".
      const std::string_view header = cur.next_line();
      Words hs{header};
      const std::string_view htag = hs.next(), reg = hs.next();
      std::size_t nbytes = 0;
      if (reg.empty() || !next_size(hs, &nbytes) || htag != "reg") {
        cur.fail("expected 'reg <name> <bytes>', got '" + std::string(header) +
                 "'");
      }
      ds.gen.reg_rtl[std::string(reg)] =
          cur.take_blob(nbytes, "register RTL blob extends past end of shard");
    }
    const std::string_view netlist = cur.read_blob("netlist");
    deferred.push_back({DeferredBlock::kDesignNetlist, d, 0, cur.pos,
                        cur.line, netlist});

    Words cs{cur.next_line()};
    std::size_t ncones = 0;
    if (cs.next() != "cones" || !next_size(cs, &ncones)) {
      cur.fail("expected 'cones <count>'");
    }
    cur.check_count(ncones, "cones");
    for (std::size_t c = 0; c < ncones; ++c) {
      Words hs{cur.next_line()};
      ConeSample& cone = ds.cones.emplace_back();
      cone.family = family;
      cone.design = name;
      const std::string_view htag = hs.next(), reg = hs.next();
      if (reg.empty() || htag != "cone") {
        cur.fail("expected 'cone <register> ...'");
      }
      cone.register_name = reg;
      cone.is_state_reg = next_long(cur, hs, "is_state_reg", 0, 1) != 0;
      cone.has_layout = next_long(cur, hs, "has_layout", 0, 1) != 0;
      cone.slack_label = next_double(cur, hs, "slack_label");
      cone.clock_period = next_double(cur, hs, "clock_period");
      cone.rtl_text = cur.read_blob("rtl");
      const std::string_view conenet = cur.read_blob("conenet");
      deferred.push_back({DeferredBlock::kConeNetlist, d, c, cur.pos,
                          cur.line, conenet});
      Words es{cur.next_line()};
      std::size_t nexprs = 0;
      if (es.next() != "exprs" || !next_size(es, &nexprs)) {
        cur.fail("expected 'exprs <count>'");
      }
      cur.check_count(nexprs, "exprs");
      std::vector<std::string>& cexprs = design_exprs.emplace_back();
      cexprs.reserve(nexprs);
      for (std::size_t e = 0; e < nexprs; ++e) {
        const std::string_view el = cur.next_line();
        if (!el.starts_with("e ")) cur.fail("expected 'e <expression>'");
        cexprs.emplace_back(el.substr(2));
      }
      Words lgs{cur.next_line()};
      std::size_t nnodes = 0, nedges = 0;
      if (lgs.next() != "layout" || !next_size(lgs, &nnodes) ||
          !next_size(lgs, &nedges)) {
        cur.fail("expected 'layout <nodes> <edges>'");
      }
      cur.check_count(nnodes, "layout node");
      cur.check_count(nedges, "layout edge");
      cur.check_count(nnodes + nedges, "layout line");
      deferred.push_back({DeferredBlock::kLayout, d, c, cur.pos, cur.line,
                          {}, nnodes, nedges});
      // The count check leaves a whole line for each of these.
      for (std::size_t l = 0; l < nnodes + nedges; ++l) cur.next_line();
      if (cur.next_line() != "endcone") cur.fail("expected 'endcone'");
    }
    if (cur.next_line() != "enddesign") cur.fail("expected 'enddesign'");
  }
  if (cur.pos != cur.text.size()) cur.fail("trailing bytes after end marker");
}

/// Parses one shard's text, which must carry the checksum `want_crc` and
/// hold `want_designs` designs, as its manifest row (`listed_by`, "corpus
/// manifest <path>: line <n>, key 'shard<i>'") says.
///
/// One serial pass reads the structure; the embedded netlists and the
/// layouts it defers are then parsed as the items of one pool region, each
/// writing only its own field. A serial reader would have stopped at the
/// first error in file order, and every deferred block lies before the
/// point where the structural pass stopped, so the error reported is the
/// first failed block's, else the structural pass's: the same at any
/// width.
ShardedCorpus::Shard parse_shard(std::string_view text,
                                 const std::string& path,
                                 const std::vector<std::string>& families,
                                 std::string_view want_crc,
                                 std::size_t want_designs,
                                 const std::string& listed_by) {
  // Checksum first: a truncated or bit-flipped shard must be rejected before
  // any of it is interpreted.
  Cursor probe{text, path};
  if (text.empty() || text.back() != '\n') {
    probe.pos = text.size();
    probe.line = count_newlines(text) + 1;
    probe.fail("truncated shard: no trailing newline");
  }
  const std::size_t prev_nl = text.rfind('\n', text.size() - 2);
  const std::size_t last_start = prev_nl == std::string::npos ? 0 : prev_nl + 1;
  const std::string_view last =
      text.substr(last_start, text.size() - 1 - last_start);
  probe.pos = last_start;
  probe.line = count_newlines(text.substr(0, last_start)) + 1;
  if (!last.starts_with("checksum ")) {
    probe.fail("truncated shard: final line is not a checksum");
  }
  const std::string_view body = text.substr(0, last_start);
  if (crc32_hex(crc32(body.data(), body.size())) != last.substr(9)) {
    probe.fail("checksum mismatch: shard is corrupt");
  }
  // An intact shard can still be the wrong one: another shard's file copied
  // over this one passes its own checksum.
  if (last.substr(9) != want_crc) {
    probe.fail("checksum " + std::string(last.substr(9)) + " differs from " +
               std::string(want_crc) + ", listed by " + listed_by);
  }

  Cursor cur{body, path};
  cur.newlines = probe.line - 1;
  if (cur.next_line() != kShardHeader) {
    cur.fail(std::string("bad shard header, expected '") + kShardHeader + "'");
  }

  ShardedCorpus::Shard shard;
  shard.corpus.families = families;
  std::vector<DeferredBlock> deferred;
  std::exception_ptr structural;
  try {
    parse_structure(cur, want_designs, listed_by, shard, deferred);
  } catch (...) {
    structural = std::current_exception();
  }
  std::vector<std::exception_ptr> errors(deferred.size());
  ThreadPool::instance().run_indexed(deferred.size(), [&](std::size_t k) {
    try {
      parse_deferred(deferred[k], body, path, shard);
    } catch (...) {
      errors[k] = std::current_exception();
    }
  });
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  if (structural) std::rethrow_exception(structural);
  return shard;
}

}  // namespace

// --- writer ------------------------------------------------------------------

StreamProgress build_corpus_stream(
    const std::string& dir, const StreamOptions& options, std::uint64_t seed,
    const std::function<void(const ShardStats&)>& on_shard) {
  if (options.designs_per_family < 1 || options.designs_per_shard < 1) {
    throw std::invalid_argument(
        "build_corpus_stream: designs_per_family and designs_per_shard must "
        "be >= 1");
  }
  ::mkdir(dir.c_str(), 0755);  // EEXIST is fine

  const std::vector<FamilyProfile>& fams = benchmark_families();
  const std::size_t total_designs =
      fams.size() * static_cast<std::size_t>(options.designs_per_family);
  const std::size_t dps = static_cast<std::size_t>(options.designs_per_shard);
  const std::size_t shards_total = (total_designs + dps - 1) / dps;
  const std::string manifest_path = dir + "/" + std::string(kManifestName);

  // Resume: trust only the manifest's committed-shard list, and only when it
  // records exactly the configuration we are running with.
  std::size_t committed = 0;
  std::vector<std::string> shard_rows;
  if (::access(manifest_path.c_str(), F_OK) == 0) {
    const KeyValues kv =
        load_manifest(manifest_path, "corpus manifest " + manifest_path);
    for (const auto& [key, want] : config_entries(options, seed)) {
      const std::string got = kv.has(key) ? kv.get(key) : "<missing>";
      if (got != want) {
        throw std::runtime_error(
            "corpus manifest " + manifest_path + ": option '" + key +
            "' is '" + got + "' but this run uses '" + want +
            "' — refusing to resume a different corpus");
      }
    }
    const std::uint64_t listed = kv.get_u64("shards");
    if (listed > shards_total) {
      kv.fail("shards", "lists more shards than this configuration produces");
    }
    committed = static_cast<std::size_t>(listed);
    for (std::size_t s = 0; s < committed; ++s) {
      shard_rows.push_back(kv.get("shard" + std::to_string(s)));
    }
  }

  auto write_manifest = [&](bool complete) {
    std::vector<std::pair<std::string, std::string>> entries =
        config_entries(options, seed);
    entries.emplace_back("shards", std::to_string(shard_rows.size()));
    for (std::size_t s = 0; s < shard_rows.size(); ++s) {
      entries.emplace_back("shard" + std::to_string(s), shard_rows[s]);
    }
    entries.emplace_back("complete", complete ? "1" : "0");
    save_manifest(manifest_path, entries);
  };

  StreamProgress progress;
  progress.shards_total = shards_total;
  Rng root(seed);
  for (std::size_t s = 0; s < committed; ++s) {
    // Committed by a previous run: consume this shard's RNG forks so the
    // remaining shards regenerate bit-identically, but do no work.
    const std::size_t designs =
        std::min(total_designs, (s + 1) * dps) - s * dps;
    for (std::size_t i = 0; i < designs; ++i) (void)root.fork();
    ++progress.shards_skipped;
    if (on_shard) {
      ShardStats st;
      st.index = s;
      st.path = dir + "/" + shard_filename(s);
      st.designs = designs;
      st.skipped = true;
      on_shard(st);
    }
  }

  // At width 1 the region runs inline and gains nothing from a longer
  // window, which would only hold (and a kill lose) more shards.
  const std::size_t lanes =
      static_cast<std::size_t>(ThreadPool::instance().width());
  const std::size_t window =
      lanes == 1
          ? 1
          : std::max<std::size_t>(1, (kDesignsPerLane * lanes + dps - 1) / dps);
  const std::size_t halt =
      static_cast<std::size_t>(std::max(0, options.halt_after_shards));
  for (std::size_t s0 = committed; s0 < shards_total;) {
    if (halt > 0 && progress.shards_written >= halt) {
      write_manifest(/*complete=*/false);
      return progress;
    }
    std::size_t s1 = std::min(shards_total, s0 + window);
    if (halt > 0) s1 = std::min(s1, s0 + (halt - progress.shards_written));

    // Produce, lint, embed and serialize the window's designs on the pool,
    // one item per design. The designs' Rng forks are taken in global
    // design order first, so each design's bytes depend on (seed, options,
    // design index) alone and every shard is the same at any pool width.
    // The items start largest first, ties in design order, so the region
    // does not wait on a large design that started last; blocks stay
    // indexed by design.
    const std::size_t lo = s0 * dps;
    const std::size_t hi = std::min(total_designs, s1 * dps);
    std::vector<Rng> rngs;
    rngs.reserve(hi - lo);
    for (std::size_t i = lo; i < hi; ++i) rngs.push_back(root.fork());
    std::vector<std::size_t> order(hi - lo);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return size_estimate(fams[(lo + a) % fams.size()]) >
                              size_estimate(fams[(lo + b) % fams.size()]);
                     });
    std::vector<DesignBlock> blocks(hi - lo);
    ThreadPool::instance().run_indexed(order.size(), [&](std::size_t j) {
      const std::size_t k = order[j];
      blocks[k] = produce_block(lo + k, options, rngs[k]);
    });

    // Commit the window's shards in order on this thread, each as if it had
    // been produced alone.
    for (std::size_t s = s0; s < s1; ++s) {
      const std::size_t first = s * dps - lo;
      const std::size_t last = std::min(hi, (s + 1) * dps) - lo;
      // A shard fails as it would have shard by shard: a design that could
      // not be produced, then the lint gate (the one build_corpus applies
      // corpus-wide, here per shard), then a design that could not be
      // embedded or serialized. Every earlier shard is committed.
      for (std::size_t k = first; k < last; ++k) {
        if (blocks[k].error && !blocks[k].linted) {
          std::rethrow_exception(blocks[k].error);
        }
      }
      LintReport lint;
      for (std::size_t k = first; k < last; ++k) {
        lint.merge(blocks[k].lint, blocks[k].name);
      }
      enforce_clean(lint, "corpus shard " + std::to_string(s));
      for (std::size_t k = first; k < last; ++k) {
        if (blocks[k].error) std::rethrow_exception(blocks[k].error);
      }

      ShardStats st;
      st.index = s;
      st.path = dir + "/" + shard_filename(s);
      st.designs = last - first;
      // Each block is freed once joined, so the window's text shrinks as
      // its shards commit.
      std::string body = std::string(kShardHeader) + '\n';
      for (std::size_t k = first; k < last; ++k) {
        body += blocks[k].text;
        std::string().swap(blocks[k].text);
        st.cones += blocks[k].cones;
        st.gates += blocks[k].gates;
        st.expressions += blocks[k].expressions;
      }
      body += "end " + std::to_string(st.designs) + '\n';
      const std::string crc = crc32_hex(crc32(body));
      body += "checksum " + crc + '\n';
      write_file_atomically(st.path, body);
      st.bytes = body.size();
      shard_rows.push_back(shard_filename(s) + " " + crc + " " +
                           std::to_string(st.designs));
      write_manifest(/*complete=*/shard_rows.size() == shards_total);

      ++progress.shards_written;
      progress.designs += st.designs;
      progress.cones += st.cones;
      progress.gates += st.gates;
      progress.expressions += st.expressions;
      if (on_shard) on_shard(st);
    }
    s0 = s1;
  }
  progress.complete = shard_rows.size() == shards_total;
  return progress;
}

// --- reader ------------------------------------------------------------------

ShardedCorpus::ShardedCorpus(const std::string& dir)
    : dir_(dir), manifest_path_(dir + "/" + std::string(kManifestName)) {
  const KeyValues kv = load_manifest(
      manifest_path_, "corpus manifest " + manifest_path_, &checksum_);
  if (kv.get("format") != kManifestFormat) {
    kv.fail("format", "unsupported format '" + kv.get("format") + "'");
  }
  seed_ = kv.get_u64("seed");
  k_hop_ = static_cast<int>(kv.get_int("k_hop", 0, 1 << 20));
  families_ = split_csv(kv.get("families"));
  if (families_.empty()) kv.fail("families", "empty family list");
  complete_ = kv.get_bool("complete");
  const std::uint64_t nshards = kv.get_u64("shards");
  for (std::uint64_t s = 0; s < nshards; ++s) {
    const std::string key = "shard" + std::to_string(s);
    const std::string& row = kv.get(key);
    Words ws{row};
    const std::string_view filename = ws.next();
    const std::string_view crc = ws.next();
    const std::string_view designs = ws.next();
    if (designs.empty() || !ws.next().empty()) {
      kv.fail(key, "malformed shard row '" + row +
                       "', expected '<file> <crc32> <designs>'");
    }
    std::uint64_t count = 0;
    std::string err;
    if (!cli::parse_u64(std::string(designs).c_str(), &count, &err)) {
      kv.fail(key, err);
    }
    shards_.push_back({dir + "/" + std::string(filename), std::string(crc),
                       static_cast<std::size_t>(count), kv.line(key)});
    total_designs_ += count;
  }
}

ShardedCorpus::Shard ShardedCorpus::load(std::size_t index) const {
  if (index >= shards_.size()) {
    throw std::out_of_range("shard index " + std::to_string(index) +
                            " out of range (have " +
                            std::to_string(shards_.size()) + ")");
  }
  const ShardRow& row = shards_[index];
  return parse_shard(read_whole_file(row.path), row.path, families_,
                     row.crc, row.designs,
                     "corpus manifest " + manifest_path_ + ": line " +
                         std::to_string(row.line) + ", key 'shard" +
                         std::to_string(index) + "'");
}

}  // namespace nettag
