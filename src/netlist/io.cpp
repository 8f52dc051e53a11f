#include "netlist/io.hpp"

#include <istream>
#include <iterator>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "util/words.hpp"

namespace nettag {

namespace {

void write_attrs(std::ostream& os, const Gate& g) {
  if (!g.rtl_block.empty()) os << " block=" << g.rtl_block;
  if (g.is_state_reg) os << " state";
  if (g.is_primary_output) os << " out";
}

}  // namespace

void write_netlist(std::ostream& os, const Netlist& nl) {
  os << "module " << nl.name();
  if (!nl.source().empty()) os << " source " << nl.source();
  os << "\n";
  // Sources first: ports, constants, register declarations (Q pins).
  for (const Gate& g : nl.gates()) {
    switch (g.type) {
      case CellType::kPort:
        os << "port " << g.name;
        write_attrs(os, g);
        os << "\n";
        break;
      case CellType::kConst0:
      case CellType::kConst1:
        os << "gate " << cell_info(g.type).name << ' ' << g.name;
        write_attrs(os, g);
        os << "\n";
        break;
      case CellType::kDff:
        os << "reg " << g.name;
        write_attrs(os, g);
        os << "\n";
        break;
      default:
        break;
    }
  }
  // Combinational gates in topological order.
  for (GateId id : nl.topo_order()) {
    const Gate& g = nl.gate(id);
    if (g.type == CellType::kPort || g.type == CellType::kConst0 ||
        g.type == CellType::kConst1 || g.type == CellType::kDff) {
      continue;
    }
    os << "gate " << cell_info(g.type).name << ' ' << g.name;
    for (GateId f : g.fanins) os << ' ' << nl.gate(f).name;
    write_attrs(os, g);
    os << "\n";
  }
  // Register D connections last (they may reference any gate).
  for (const Gate& g : nl.gates()) {
    if (g.type != CellType::kDff) continue;
    os << "drive " << g.name << ' ' << nl.gate(g.fanins[0]).name << "\n";
  }
  os << "endmodule\n";
}

std::string netlist_to_string(const Netlist& nl) {
  std::ostringstream ss;
  write_netlist(ss, nl);
  return ss.str();
}

Netlist read_netlist(std::string_view text) {
  Netlist nl;
  int lineno = 0;
  bool in_module = false, done = false;
  auto where = [&lineno] {
    return "read_netlist: line " + std::to_string(lineno) + ": ";
  };
  auto fail = [&where](const std::string& why) {
    throw std::runtime_error(where() + why);
  };
  // Netlist's lookups and constructors take std::string; these buffers keep
  // their capacity from line to line.
  std::string name, other;
  std::vector<GateId> fanins;
  auto read_attrs = [&](Words& ws, GateId id) {
    for (std::string_view attr = ws.next(); !attr.empty(); attr = ws.next()) {
      if (attr == "state") {
        nl.gate(id).is_state_reg = true;
      } else if (attr == "out") {
        nl.mark_output(id);
      } else if (attr.starts_with("block=")) {
        nl.gate(id).rtl_block = attr.substr(6);
      } else {
        fail("unknown attribute '" + std::string(attr) + "'");
      }
    }
  };

  // Lines end at '\n', as std::getline splits them; a final line without
  // one still counts.
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t nl_at = text.find('\n', pos);
    if (nl_at == std::string_view::npos) nl_at = text.size();
    Words ws{text.substr(pos, nl_at - pos)};
    pos = nl_at + 1;
    ++lineno;
    const std::string_view word = ws.next();
    if (word.empty() || word[0] == '#') continue;
    if (word == "module") {
      const std::string_view mname = ws.next();
      if (mname.empty()) fail("module without name");
      nl.set_name(std::string(mname));
      const std::string_view key = ws.next();
      if (!key.empty()) {
        if (key != "source") fail("unexpected token after module name");
        const std::string_view src = ws.next();
        if (src.empty()) fail("source without value");
        nl.set_source(std::string(src));
      }
      in_module = true;
      continue;
    }
    if (!in_module) fail("content before module header");
    if (word == "endmodule") {
      done = true;
      break;
    }

    // Netlist reports an unknown cell, a duplicate name or a second drive
    // of one register as std::invalid_argument; add the line and rethrow.
    try {
      if (word == "port") {
        name = ws.next();
        if (name.empty()) fail("port without name");
        read_attrs(ws, nl.add_port(name));
      } else if (word == "reg") {
        name = ws.next();
        if (name.empty()) fail("reg without name");
        read_attrs(ws, nl.add_register(name));
      } else if (word == "drive") {
        name = ws.next();
        other = ws.next();
        if (name.empty() || other.empty()) fail("malformed drive");
        const GateId r = nl.find(name);
        const GateId d = nl.find(other);
        if (r == kNoGate) fail("drive of unknown register '" + name + "'");
        if (d == kNoGate) fail("drive from unknown signal '" + other + "'");
        nl.connect_register(r, d);
      } else if (word == "gate") {
        const std::string_view cell = ws.next();
        name = ws.next();
        if (cell.empty() || name.empty()) fail("gate without cell/name");
        const CellType type = cell_type_from_name(std::string(cell));
        const int arity = cell_info(type).num_inputs;
        fanins.clear();
        for (int i = 0; i < arity; ++i) {
          other = ws.next();
          if (other.empty()) fail("missing fanin on " + name);
          const GateId f = nl.find(other);
          if (f == kNoGate) fail("unknown fanin '" + other + "' on " + name);
          fanins.push_back(f);
        }
        read_attrs(ws, nl.add_gate(type, name, fanins));
      } else {
        fail("unknown directive '" + std::string(word) + "'");
      }
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(where() + e.what());
    }
  }
  if (!done) fail("missing endmodule");
  // Every declared register must have been driven.
  for (const Gate& g : nl.gates()) {
    if (g.type == CellType::kDff && g.fanins.empty()) {
      throw std::runtime_error("read_netlist: register '" + g.name +
                               "' never driven");
    }
  }
  return nl;
}

Netlist read_netlist(std::istream& is) {
  const std::string text((std::istreambuf_iterator<char>(is)),
                         std::istreambuf_iterator<char>());
  return read_netlist(std::string_view(text));
}

Netlist netlist_from_string(const std::string& text) {
  return read_netlist(std::string_view(text));
}

}  // namespace nettag
