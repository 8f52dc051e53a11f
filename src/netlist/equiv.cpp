#include "netlist/equiv.hpp"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "expr/bdd.hpp"

namespace nettag {

namespace {

/// Builds BDDs for every gate output of a netlist within a shared manager,
/// treating ports and register Q-pins as BDD variables named after the gate.
std::vector<BddRef> build_all(BddManager& mgr, const Netlist& nl) {
  std::vector<BddRef> f(nl.size(), BddManager::kFalse);
  for (GateId id : nl.topo_order()) {
    const Gate& g = nl.gate(id);
    switch (g.type) {
      case CellType::kPort:
      case CellType::kDff:
        f[static_cast<std::size_t>(id)] = mgr.var(g.name);
        continue;
      case CellType::kConst0:
        f[static_cast<std::size_t>(id)] = BddManager::kFalse;
        continue;
      case CellType::kConst1:
        f[static_cast<std::size_t>(id)] = BddManager::kTrue;
        continue;
      default:
        break;
    }
    // Lower each cell through its Boolean definition using the BDD ops.
    const auto& in = g.fanins;
    auto b = [&](std::size_t k) { return f[static_cast<std::size_t>(in[k])]; };
    BddRef r = BddManager::kFalse;
    switch (g.type) {
      case CellType::kInv: r = mgr.bdd_not(b(0)); break;
      case CellType::kBuf: r = b(0); break;
      case CellType::kAnd2: r = mgr.bdd_and(b(0), b(1)); break;
      case CellType::kAnd3: r = mgr.bdd_and(mgr.bdd_and(b(0), b(1)), b(2)); break;
      case CellType::kAnd4:
        r = mgr.bdd_and(mgr.bdd_and(b(0), b(1)), mgr.bdd_and(b(2), b(3)));
        break;
      case CellType::kNand2: r = mgr.bdd_not(mgr.bdd_and(b(0), b(1))); break;
      case CellType::kNand3:
        r = mgr.bdd_not(mgr.bdd_and(mgr.bdd_and(b(0), b(1)), b(2)));
        break;
      case CellType::kNand4:
        r = mgr.bdd_not(
            mgr.bdd_and(mgr.bdd_and(b(0), b(1)), mgr.bdd_and(b(2), b(3))));
        break;
      case CellType::kOr2: r = mgr.bdd_or(b(0), b(1)); break;
      case CellType::kOr3: r = mgr.bdd_or(mgr.bdd_or(b(0), b(1)), b(2)); break;
      case CellType::kOr4:
        r = mgr.bdd_or(mgr.bdd_or(b(0), b(1)), mgr.bdd_or(b(2), b(3)));
        break;
      case CellType::kNor2: r = mgr.bdd_not(mgr.bdd_or(b(0), b(1))); break;
      case CellType::kNor3:
        r = mgr.bdd_not(mgr.bdd_or(mgr.bdd_or(b(0), b(1)), b(2)));
        break;
      case CellType::kNor4:
        r = mgr.bdd_not(
            mgr.bdd_or(mgr.bdd_or(b(0), b(1)), mgr.bdd_or(b(2), b(3))));
        break;
      case CellType::kXor2: r = mgr.bdd_xor(b(0), b(1)); break;
      case CellType::kXnor2: r = mgr.bdd_not(mgr.bdd_xor(b(0), b(1))); break;
      case CellType::kMux2: r = mgr.ite(b(2), b(1), b(0)); break;
      case CellType::kAoi21:
        r = mgr.bdd_not(mgr.bdd_or(mgr.bdd_and(b(0), b(1)), b(2)));
        break;
      case CellType::kAoi22:
        r = mgr.bdd_not(
            mgr.bdd_or(mgr.bdd_and(b(0), b(1)), mgr.bdd_and(b(2), b(3))));
        break;
      case CellType::kOai21:
        r = mgr.bdd_not(mgr.bdd_and(mgr.bdd_or(b(0), b(1)), b(2)));
        break;
      case CellType::kOai22:
        r = mgr.bdd_not(
            mgr.bdd_and(mgr.bdd_or(b(0), b(1)), mgr.bdd_or(b(2), b(3))));
        break;
      case CellType::kMaj3:
        r = mgr.bdd_or(mgr.bdd_or(mgr.bdd_and(b(0), b(1)), mgr.bdd_and(b(0), b(2))),
                       mgr.bdd_and(b(1), b(2)));
        break;
      default:
        break;
    }
    f[static_cast<std::size_t>(id)] = r;
  }
  return f;
}

}  // namespace

EquivResult check_equivalence(const Netlist& a, const Netlist& b) {
  EquivResult res;
  // Boundary matching: registers must correspond one-to-one by name.
  std::map<std::string, GateId> regs_a, regs_b;
  for (GateId r : a.registers()) regs_a[a.gate(r).name] = r;
  for (GateId r : b.registers()) regs_b[b.gate(r).name] = r;
  if (regs_a.size() != regs_b.size()) {
    res.error = "register count mismatch";
    return res;
  }
  for (const auto& [name, id] : regs_a) {
    (void)id;
    if (!regs_b.count(name)) {
      res.error = "register '" + name + "' missing on one side";
      return res;
    }
  }

  // Shared manager with a canonical variable order: sorted source names.
  BddManager mgr;
  std::vector<std::string> sources;
  for (const Gate& g : a.gates()) {
    if (g.type == CellType::kPort || g.type == CellType::kDff) {
      sources.push_back(g.name);
    }
  }
  std::sort(sources.begin(), sources.end());
  for (const std::string& s : sources) mgr.var_index(s);

  const std::vector<BddRef> fa = build_all(mgr, a);
  const std::vector<BddRef> fb = build_all(mgr, b);

  // Checkpoints: register D-inputs...
  for (const auto& [name, ra] : regs_a) {
    const GateId rb = regs_b.at(name);
    const BddRef da = fa[static_cast<std::size_t>(a.gate(ra).fanins[0])];
    const BddRef db = fb[static_cast<std::size_t>(b.gate(rb).fanins[0])];
    ++res.checkpoints;
    if (da != db) {
      res.mismatch = name;
      return res;
    }
  }
  // ... and primary outputs, matched by driving-gate name where both sides
  // expose the same name (renamed outputs after resynthesis are skipped —
  // register checkpoints still cover the sequential behaviour).
  std::map<std::string, GateId> outs_b;
  for (const Gate& g : b.gates()) {
    if (g.is_primary_output) outs_b[g.name] = g.id;
  }
  for (const Gate& g : a.gates()) {
    if (!g.is_primary_output) continue;
    auto it = outs_b.find(g.name);
    if (it == outs_b.end()) continue;
    ++res.checkpoints;
    if (fa[static_cast<std::size_t>(g.id)] != fb[static_cast<std::size_t>(it->second)]) {
      res.mismatch = g.name;
      return res;
    }
  }
  res.equivalent = true;
  return res;
}

}  // namespace nettag
