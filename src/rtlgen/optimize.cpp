#include "rtlgen/optimize.hpp"

#include <deque>
#include <functional>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

namespace nettag {

namespace {

bool is_source_type(CellType t) {
  return t == CellType::kPort || t == CellType::kConst0 ||
         t == CellType::kConst1 || t == CellType::kDff;
}

}  // namespace

// ---------------------------------------------------------------------------
// cleanup
// ---------------------------------------------------------------------------

Netlist cleanup(const Netlist& in) {
  constexpr int kUnknown = -1, kZero = 0, kOne = 1;
  const std::size_t n = in.size();
  std::vector<int> cv(n, kUnknown);   // constant value analysis
  std::vector<GateId> repl(n);        // alias after collapsing BUF / INV-INV
  for (std::size_t i = 0; i < n; ++i) repl[i] = static_cast<GateId>(i);

  auto resolved = [&](GateId id) { return repl[static_cast<std::size_t>(id)]; };

  for (GateId id : in.topo_order()) {
    const Gate& g = in.gate(id);
    if (g.type == CellType::kConst0) {
      cv[static_cast<std::size_t>(id)] = kZero;
      continue;
    }
    if (g.type == CellType::kConst1) {
      cv[static_cast<std::size_t>(id)] = kOne;
      continue;
    }
    if (is_source_type(g.type)) continue;

    // Constant folding over resolved fanins.
    bool all_const = true;
    std::vector<bool> bits;
    for (GateId f : g.fanins) {
      const int v = cv[static_cast<std::size_t>(resolved(f))];
      if (v == kUnknown) {
        all_const = false;
        break;
      }
      bits.push_back(v == kOne);
    }
    if (all_const) {
      cv[static_cast<std::size_t>(id)] = cell_eval(g.type, bits) ? kOne : kZero;
      continue;
    }
    // Partial constant simplifications that produce aliases.
    const auto rf = [&](std::size_t k) { return resolved(g.fanins[k]); };
    const auto cvf = [&](std::size_t k) { return cv[static_cast<std::size_t>(rf(k))]; };
    switch (g.type) {
      case CellType::kBuf:
        repl[static_cast<std::size_t>(id)] = rf(0);
        break;
      case CellType::kInv: {
        const Gate& src = in.gate(rf(0));
        if (src.type == CellType::kInv) {
          repl[static_cast<std::size_t>(id)] = resolved(src.fanins[0]);
        }
        break;
      }
      case CellType::kAnd2:
        if (cvf(0) == kOne) repl[static_cast<std::size_t>(id)] = rf(1);
        else if (cvf(1) == kOne) repl[static_cast<std::size_t>(id)] = rf(0);
        else if (cvf(0) == kZero || cvf(1) == kZero)
          cv[static_cast<std::size_t>(id)] = kZero;
        break;
      case CellType::kOr2:
        if (cvf(0) == kZero) repl[static_cast<std::size_t>(id)] = rf(1);
        else if (cvf(1) == kZero) repl[static_cast<std::size_t>(id)] = rf(0);
        else if (cvf(0) == kOne || cvf(1) == kOne)
          cv[static_cast<std::size_t>(id)] = kOne;
        break;
      default:
        break;
    }
  }

  // Liveness: everything reachable backward from POs and register D-pins.
  std::unordered_set<GateId> live;
  std::deque<GateId> work;
  auto mark = [&](GateId id) {
    const GateId r = resolved(id);
    if (cv[static_cast<std::size_t>(r)] != kUnknown) return;  // becomes const
    if (live.insert(r).second) work.push_back(r);
  };
  for (const Gate& g : in.gates()) {
    if (g.type == CellType::kPort || g.type == CellType::kDff) {
      live.insert(g.id);
      work.push_back(g.id);
    }
    if (g.is_primary_output) mark(g.id);
  }
  while (!work.empty()) {
    const GateId id = work.front();
    work.pop_front();
    for (GateId f : in.gate(id).fanins) mark(f);
  }

  // Rebuild keeping only live, non-aliased gates.
  Netlist out(in.name());
  out.set_source(in.source());
  std::unordered_map<GateId, GateId> map;  // old id -> new id
  GateId c0 = kNoGate, c1 = kNoGate;
  auto new_const = [&](bool v) {
    GateId& slot = v ? c1 : c0;
    if (slot == kNoGate) {
      slot = out.add_gate(v ? CellType::kConst1 : CellType::kConst0,
                          v ? "__c1" : "__c0", {});
    }
    return slot;
  };
  auto new_node_of = [&](GateId old) {
    const GateId r = resolved(old);
    const int v = cv[static_cast<std::size_t>(r)];
    if (v != kUnknown) return new_const(v == kOne);
    return map.at(r);
  };

  GateId placeholder = kNoGate;
  for (const Gate& g : in.gates()) {
    if (g.type == CellType::kPort) {
      const GateId nid = out.add_port(g.name);
      out.gate(nid).rtl_block = g.rtl_block;
      map[g.id] = nid;
    } else if (g.type == CellType::kDff) {
      if (placeholder == kNoGate) {
        placeholder = out.add_gate(CellType::kConst0, "__cl_ph", {});
      }
      const GateId nid = out.add_gate(CellType::kDff, g.name, {placeholder});
      Gate& ng = out.gate(nid);
      ng.rtl_block = g.rtl_block;
      ng.is_state_reg = g.is_state_reg;
      map[g.id] = nid;
    }
  }
  for (GateId id : in.topo_order()) {
    const Gate& g = in.gate(id);
    if (map.count(id) || is_source_type(g.type)) continue;
    if (resolved(id) != id) continue;                          // aliased away
    if (cv[static_cast<std::size_t>(id)] != kUnknown) continue;  // const-folded
    if (!live.count(id)) continue;                             // dead
    std::vector<GateId> fanins;
    fanins.reserve(g.fanins.size());
    for (GateId f : g.fanins) fanins.push_back(new_node_of(f));
    const GateId nid = out.add_gate(g.type, g.name, fanins);
    Gate& ng = out.gate(nid);
    ng.rtl_block = g.rtl_block;
    map[id] = nid;
  }
  for (const Gate& g : in.gates()) {
    if (g.type == CellType::kDff) {
      out.replace_fanin(map.at(g.id), placeholder, new_node_of(g.fanins[0]));
    }
    if (g.is_primary_output) {
      out.mark_output(new_node_of(g.id));
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// logic_rewrite
// ---------------------------------------------------------------------------

namespace {

/// Helper building fresh uniquely-named gates in the output netlist.
class FreshGates {
 public:
  explicit FreshGates(Netlist& nl) : nl_(nl) {}

  GateId make(CellType type, const std::vector<GateId>& fanins,
              const std::string& label) {
    std::string name;
    do {
      name = "w" + std::to_string(counter_++);
    } while (nl_.find(name) != kNoGate);
    const GateId id = nl_.add_gate(type, name, fanins);
    nl_.gate(id).rtl_block = label;
    return id;
  }

 private:
  Netlist& nl_;
  int counter_ = 0;
};

}  // namespace

Netlist logic_rewrite(const Netlist& in, Rng& rng, double intensity) {
  Netlist res(in.name());
  res.set_source(in.source());
  FreshGates fresh(res);
  std::unordered_map<GateId, GateId> map;
  GateId placeholder = kNoGate;

  for (const Gate& g : in.gates()) {
    if (g.type == CellType::kPort) {
      const GateId n = res.add_port(g.name);
      res.gate(n).rtl_block = g.rtl_block;
      map[g.id] = n;
    } else if (g.type == CellType::kConst0 || g.type == CellType::kConst1) {
      map[g.id] = res.add_gate(g.type, g.name, {});
    } else if (g.type == CellType::kDff) {
      if (placeholder == kNoGate) {
        placeholder = res.add_gate(CellType::kConst0, "__rw_ph", {});
      }
      const GateId n = res.add_gate(CellType::kDff, g.name, {placeholder});
      Gate& ng = res.gate(n);
      ng.rtl_block = g.rtl_block;
      ng.is_state_reg = g.is_state_reg;
      map[g.id] = n;
    }
  }

  for (GateId id : in.topo_order()) {
    const Gate& g = in.gate(id);
    if (map.count(id)) {
      if (g.is_primary_output) res.mark_output(map.at(id));
      continue;
    }
    std::vector<GateId> f;
    f.reserve(g.fanins.size());
    for (GateId x : g.fanins) f.push_back(map.at(x));
    const std::string& lb = g.rtl_block;
    auto mk = [&](CellType t, const std::vector<GateId>& ins) {
      return fresh.make(t, ins, lb);
    };

    GateId n = kNoGate;
    const bool rewrite = rng.chance(intensity);
    if (rewrite) {
      switch (g.type) {
        case CellType::kAnd2:
          n = rng.chance(0.5) ? mk(CellType::kInv, {mk(CellType::kNand2, f)})
                              : mk(CellType::kNor2, {mk(CellType::kInv, {f[0]}),
                                                     mk(CellType::kInv, {f[1]})});
          break;
        case CellType::kNand2:
          n = rng.chance(0.5)
                  ? mk(CellType::kInv, {mk(CellType::kAnd2, f)})
                  : mk(CellType::kOr2, {mk(CellType::kInv, {f[0]}),
                                        mk(CellType::kInv, {f[1]})});
          break;
        case CellType::kOr2:
          n = rng.chance(0.5) ? mk(CellType::kInv, {mk(CellType::kNor2, f)})
                              : mk(CellType::kNand2, {mk(CellType::kInv, {f[0]}),
                                                      mk(CellType::kInv, {f[1]})});
          break;
        case CellType::kNor2:
          n = rng.chance(0.5)
                  ? mk(CellType::kInv, {mk(CellType::kOr2, f)})
                  : mk(CellType::kAnd2, {mk(CellType::kInv, {f[0]}),
                                         mk(CellType::kInv, {f[1]})});
          break;
        case CellType::kXor2: {
          const GateId na = mk(CellType::kInv, {f[0]});
          const GateId nb = mk(CellType::kInv, {f[1]});
          n = mk(CellType::kOr2, {mk(CellType::kAnd2, {f[0], nb}),
                                  mk(CellType::kAnd2, {na, f[1]})});
          break;
        }
        case CellType::kXnor2:
          n = mk(CellType::kInv, {mk(CellType::kXor2, f)});
          break;
        case CellType::kMux2:
          // (A,B,S): S?B:A == AOI22(!S, !A, S, !B)
          n = mk(CellType::kAoi22, {mk(CellType::kInv, {f[2]}),
                                    mk(CellType::kInv, {f[0]}), f[2],
                                    mk(CellType::kInv, {f[1]})});
          break;
        case CellType::kAnd3:
          n = mk(CellType::kAnd2, {mk(CellType::kAnd2, {f[0], f[1]}), f[2]});
          break;
        case CellType::kAnd4:
          n = mk(CellType::kAnd2, {mk(CellType::kAnd2, {f[0], f[1]}),
                                   mk(CellType::kAnd2, {f[2], f[3]})});
          break;
        case CellType::kOr3:
          n = mk(CellType::kOr2, {mk(CellType::kOr2, {f[0], f[1]}), f[2]});
          break;
        case CellType::kOr4:
          n = mk(CellType::kOr2, {mk(CellType::kOr2, {f[0], f[1]}),
                                  mk(CellType::kOr2, {f[2], f[3]})});
          break;
        case CellType::kNand3:
          n = mk(CellType::kNand2, {mk(CellType::kAnd2, {f[0], f[1]}), f[2]});
          break;
        case CellType::kNand4:
          n = mk(CellType::kNand2, {mk(CellType::kAnd2, {f[0], f[1]}),
                                    mk(CellType::kAnd2, {f[2], f[3]})});
          break;
        case CellType::kNor3:
          n = mk(CellType::kNor2, {mk(CellType::kOr2, {f[0], f[1]}), f[2]});
          break;
        case CellType::kNor4:
          n = mk(CellType::kNor2, {mk(CellType::kOr2, {f[0], f[1]}),
                                   mk(CellType::kOr2, {f[2], f[3]})});
          break;
        case CellType::kMaj3: {
          // maj(a,b,c) = ab | c(a^b)
          const GateId ab = mk(CellType::kAnd2, {f[0], f[1]});
          const GateId x = mk(CellType::kXor2, {f[0], f[1]});
          n = mk(CellType::kOr2, {ab, mk(CellType::kAnd2, {f[2], x})});
          break;
        }
        case CellType::kAoi21:
          n = mk(CellType::kNor2, {mk(CellType::kAnd2, {f[0], f[1]}), f[2]});
          break;
        case CellType::kAoi22:
          n = mk(CellType::kNor2, {mk(CellType::kAnd2, {f[0], f[1]}),
                                   mk(CellType::kAnd2, {f[2], f[3]})});
          break;
        case CellType::kOai21:
          n = mk(CellType::kNand2, {mk(CellType::kOr2, {f[0], f[1]}), f[2]});
          break;
        case CellType::kOai22:
          n = mk(CellType::kNand2, {mk(CellType::kOr2, {f[0], f[1]}),
                                    mk(CellType::kOr2, {f[2], f[3]})});
          break;
        default:
          break;
      }
    }
    if (n == kNoGate) {
      // Copy the gate as-is (keep its name where possible).
      if (res.find(g.name) == kNoGate) {
        n = res.add_gate(g.type, g.name, f);
        res.gate(n).rtl_block = g.rtl_block;
      } else {
        n = fresh.make(g.type, f, g.rtl_block);
      }
    }
    // Occasionally add a double-inverter pair on the output.
    if (rng.chance(intensity * 0.25)) {
      n = mk(CellType::kInv, {mk(CellType::kInv, {n})});
    }
    if (g.is_primary_output) res.mark_output(n);
    map[id] = n;
  }

  for (const Gate& g : in.gates()) {
    if (g.type != CellType::kDff) continue;
    res.replace_fanin(map.at(g.id), placeholder, map.at(g.fanins[0]));
  }
  return res;
}

// ---------------------------------------------------------------------------
// insert_buffers
// ---------------------------------------------------------------------------

Netlist insert_buffers(const Netlist& in, int max_fanout) {
  Netlist out = in;  // value copy
  int counter = 0;
  // Iterate over the original gate count: newly added buffers are checked in
  // later outer passes only if needed (buffer fanout <= max_fanout by
  // construction).
  const std::size_t original = out.size();
  for (std::size_t i = 0; i < original; ++i) {
    const GateId id = static_cast<GateId>(i);
    // Snapshot sinks: replace_fanin mutates fanout lists.
    const std::vector<GateId> sinks = out.gate(id).fanouts;
    if (static_cast<int>(sinks.size()) <= max_fanout) continue;
    // Leave the first max_fanout sinks on the original driver; move the rest
    // to buffers in groups of max_fanout.
    std::size_t next = static_cast<std::size_t>(max_fanout);
    while (next < sinks.size()) {
      std::string name;
      do {
        name = "buf" + std::to_string(counter++);
      } while (out.find(name) != kNoGate);
      const GateId buf = out.add_gate(CellType::kBuf, name, {id});
      out.gate(buf).rtl_block = out.gate(id).rtl_block;
      for (std::size_t k = 0; k < static_cast<std::size_t>(max_fanout) &&
                              next < sinks.size();
           ++k, ++next) {
        out.replace_fanin(sinks[next], id, buf);
      }
    }
  }
  return out;
}

}  // namespace nettag
