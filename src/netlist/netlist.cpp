#include "netlist/netlist.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <string>

#include "analysis/check.hpp"

namespace nettag {

GateId Netlist::add_port(const std::string& name) {
  return add_gate(CellType::kPort, name, {});
}

GateId Netlist::add_gate(CellType type, const std::string& name,
                         const std::vector<GateId>& fanins) {
  if (static_cast<int>(fanins.size()) != cell_info(type).num_inputs) {
    throw std::invalid_argument("add_gate: arity mismatch for " +
                                std::string(cell_info(type).name) + " '" + name +
                                "'");
  }
  if (by_name_.count(name)) {
    throw std::invalid_argument("add_gate: duplicate name '" + name + "'");
  }
  const GateId id = static_cast<GateId>(gates_.size());
  Gate g;
  g.id = id;
  g.type = type;
  g.name = name;
  g.fanins = fanins;
  for (GateId f : fanins) {
    if (f < 0 || f >= id) {
      // Forward references are allowed only via explicit later rewiring;
      // normal construction is in topological creation order.
      if (f < 0 || static_cast<std::size_t>(f) >= gates_.size()) {
        throw std::invalid_argument("add_gate: fanin out of range");
      }
    }
    gates_[static_cast<std::size_t>(f)].fanouts.push_back(id);
  }
  by_name_[name] = id;
  gates_.push_back(std::move(g));
  return id;
}

GateId Netlist::add_register(const std::string& name) {
  if (by_name_.count(name)) {
    throw std::invalid_argument("add_register: duplicate name '" + name + "'");
  }
  const GateId id = static_cast<GateId>(gates_.size());
  Gate g;
  g.id = id;
  g.type = CellType::kDff;
  g.name = name;
  by_name_[name] = id;
  gates_.push_back(std::move(g));
  return id;
}

void Netlist::connect_register(GateId reg, GateId driver) {
  Gate& g = gate(reg);
  if (g.type != CellType::kDff || !g.fanins.empty()) {
    throw std::invalid_argument("connect_register: '" + g.name +
                                "' is not an unconnected register");
  }
  if (driver < 0 || static_cast<std::size_t>(driver) >= gates_.size()) {
    throw std::invalid_argument("connect_register: driver out of range");
  }
  g.fanins.push_back(driver);
  gate(driver).fanouts.push_back(reg);
}

void Netlist::replace_fanin(GateId id, GateId old_fanin, GateId new_fanin) {
  // Invariant: fanout lists hold one entry per sink *pin*, so a gate with two
  // pins on the same net appears twice in that net's fanouts.
  Gate& g = gate(id);
  int replaced = 0;
  for (GateId& f : g.fanins) {
    if (f == old_fanin) {
      f = new_fanin;
      ++replaced;
    }
  }
  if (replaced == 0) return;
  auto& old_fo = gate(old_fanin).fanouts;
  for (int k = 0; k < replaced; ++k) {
    auto it = std::find(old_fo.begin(), old_fo.end(), id);
    NETTAG_CHECK(it != old_fo.end(),
                 "replace_fanin: " + gate(old_fanin).name +
                     " lists no fanout to " + g.name + " for fanin " +
                     std::to_string(k + 1) + " of " +
                     std::to_string(replaced) + " it replaces");
    old_fo.erase(it);
    gate(new_fanin).fanouts.push_back(id);
  }
}

GateId Netlist::find(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? kNoGate : it->second;
}

namespace {
bool is_source(CellType t) {
  return t == CellType::kPort || t == CellType::kConst0 ||
         t == CellType::kConst1 || t == CellType::kDff;
}
}  // namespace

std::vector<GateId> Netlist::topo_order() const {
  std::vector<GateId> order;
  order.reserve(gates_.size());
  std::vector<int> pending(gates_.size(), 0);
  std::deque<GateId> ready;
  for (const Gate& g : gates_) {
    if (is_source(g.type)) {
      ready.push_back(g.id);
    } else {
      pending[static_cast<std::size_t>(g.id)] = static_cast<int>(g.fanins.size());
      if (g.fanins.empty()) ready.push_back(g.id);
    }
  }
  while (!ready.empty()) {
    const GateId id = ready.front();
    ready.pop_front();
    order.push_back(id);
    for (GateId fo : gates_[static_cast<std::size_t>(id)].fanouts) {
      const Gate& sink = gates_[static_cast<std::size_t>(fo)];
      if (is_source(sink.type)) continue;  // DFF D-pins do not propagate
      if (--pending[static_cast<std::size_t>(fo)] == 0) ready.push_back(fo);
    }
  }
  if (order.size() != gates_.size()) {
    throw std::runtime_error("topo_order: combinational cycle in netlist '" +
                             name_ + "'");
  }
  return order;
}

std::vector<GateId> Netlist::registers() const {
  std::vector<GateId> out;
  for (const Gate& g : gates_) {
    if (g.type == CellType::kDff) out.push_back(g.id);
  }
  return out;
}

void Netlist::validate() const {
  for (const Gate& g : gates_) {
    if (static_cast<int>(g.fanins.size()) != cell_info(g.type).num_inputs) {
      throw std::runtime_error("validate: arity mismatch on " + g.name);
    }
    for (GateId f : g.fanins) {
      if (f < 0 || static_cast<std::size_t>(f) >= gates_.size()) {
        throw std::runtime_error("validate: dangling fanin on " + g.name);
      }
    }
    auto it = by_name_.find(g.name);
    if (it == by_name_.end() || it->second != g.id) {
      throw std::runtime_error("validate: name index broken for " + g.name);
    }
  }
  // Fanout lists must mirror fanin pins with multiplicity.
  std::vector<std::size_t> pin_count(gates_.size(), 0);
  for (const Gate& g : gates_) {
    for (GateId f : g.fanins) pin_count[static_cast<std::size_t>(f)]++;
  }
  for (const Gate& g : gates_) {
    if (g.fanouts.size() != pin_count[static_cast<std::size_t>(g.id)]) {
      throw std::runtime_error("validate: fanout multiset broken on " + g.name);
    }
  }
  topo_order();  // throws on combinational cycles
}

ExprPtr khop_expression(const Netlist& nl, GateId id, int k) {
  const Gate& g = nl.gate(id);
  if (g.type == CellType::kConst0) return Expr::constant(false);
  if (g.type == CellType::kConst1) return Expr::constant(true);
  if (k <= 0 || is_source(g.type)) {
    return Expr::var(g.name);
  }
  std::vector<ExprPtr> ins;
  ins.reserve(g.fanins.size());
  for (GateId f : g.fanins) ins.push_back(khop_expression(nl, f, k - 1));
  return cell_function(g.type, ins);
}

int logic_depth(const Netlist& nl, std::vector<int>* depth) {
  std::vector<int> own;
  std::vector<int>& d = depth ? *depth : own;
  d.assign(nl.size(), 0);
  int deepest = 0;
  for (GateId id : nl.topo_order()) {
    const Gate& g = nl.gate(id);
    if (g.type == CellType::kDff) continue;
    int level = 0;
    for (GateId f : g.fanins) {
      level = std::max(level, d[static_cast<std::size_t>(f)] + 1);
    }
    d[static_cast<std::size_t>(id)] = level;
    deepest = std::max(deepest, level);
  }
  return deepest;
}

std::vector<bool> simulate(const Netlist& nl, const std::vector<bool>& sources) {
  NETTAG_CHECK(sources.size() == nl.size(),
               "simulate: " + std::to_string(sources.size()) +
                   " source values for " + std::to_string(nl.size()) +
                   " gates of " + nl.name());
  std::vector<bool> value(nl.size(), false);
  for (GateId id : nl.topo_order()) {
    const Gate& g = nl.gate(id);
    if (is_source(g.type)) {
      if (g.type == CellType::kConst0) {
        value[static_cast<std::size_t>(id)] = false;
      } else if (g.type == CellType::kConst1) {
        value[static_cast<std::size_t>(id)] = true;
      } else {
        value[static_cast<std::size_t>(id)] = sources[static_cast<std::size_t>(id)];
      }
      continue;
    }
    std::vector<bool> ins;
    ins.reserve(g.fanins.size());
    for (GateId f : g.fanins) ins.push_back(value[static_cast<std::size_t>(f)]);
    value[static_cast<std::size_t>(id)] = cell_eval(g.type, ins);
  }
  return value;
}

}  // namespace nettag
