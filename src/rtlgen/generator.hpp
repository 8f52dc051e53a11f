// Synthetic design generator: the data-collection substitute.
//
// The paper pre-trains on netlists synthesized from ITC99 / OpenCores /
// Chipyard / VexRiscv RTL. We cannot ship those, so this module generates
// random-but-structured designs in four benchmark *families* whose relative
// size statistics follow Table II's shape (OpenCores smallest, Chipyard
// largest). Each design composes datapath blocks (adders, multipliers,
// comparators, muxes, shifters, parity/reduce trees, encoders/decoders) with
// sequential elements (pipeline registers, FSM controllers, counters, LFSRs,
// CRC units), then runs a technology-diversification rewrite and cleanup —
// mimicking what Design Compiler emits. Ground truth (per-gate RTL block,
// state-register flags, per-register RTL cone text) rides along.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "netlist/netlist.hpp"
#include "rtlgen/synthesizer.hpp"
#include "util/rng.hpp"

namespace nettag {

/// One generated design with all cross-stage artifacts.
struct GeneratedDesign {
  Netlist netlist;
  std::string rtl_text;  ///< full-design pseudo-Verilog
  /// register gate name -> RTL text of the statements driving it
  std::unordered_map<std::string, std::string> reg_rtl;
};

/// Knobs controlling the flavour of one benchmark family.
struct FamilyProfile {
  std::string name;        ///< "itc99", "opencores", "chipyard", "vexriscv"
  int min_stages = 3;      ///< datapath depth
  int max_stages = 6;
  int min_width = 2;       ///< bus width
  int max_width = 4;
  double fsm_prob = 0.5;   ///< chance the design contains an FSM controller
  double counter_prob = 0.4;
  double lfsr_prob = 0.2;
  double crc_prob = 0.2;
  double mul_weight = 1.0; ///< relative frequency of multiplier stages
  double register_prob = 0.55;  ///< chance a stage output is registered
  double rewrite_intensity = 0.25;  ///< tech-map cell diversification
};

/// The four benchmark families (shape follows paper Table II).
const std::vector<FamilyProfile>& benchmark_families();

/// Profile lookup by name; throws std::invalid_argument if unknown.
const FamilyProfile& family_profile(const std::string& name);

/// One RTL block: optional FSM / counter / LFSR / CRC sequential units plus
/// `stages` weighted datapath stages over `inputs` (every bus must be
/// `width` bits). The reusable unit both the flat generator and the
/// hierarchical composer (rtlgen/hierarchy.hpp) build designs from.
struct BlockResult {
  /// Every bus the block produced, starting with `inputs`; later entries
  /// come from later stages (pick from the back for "block outputs").
  std::vector<Bus> pool;
  std::vector<Bus> ctrl;  ///< 1-bit control signals (FSM outputs, compares)
};

BlockResult build_block(Synthesizer& syn, const FamilyProfile& profile,
                        Rng& rng, std::vector<Bus> inputs, int width,
                        int stages);

/// Shared tail of every generator: takes the synthesized netlist, applies
/// technology diversification (`logic_rewrite`) + cleanup, validates, and
/// lints. `context` names the caller in lint diagnostics.
GeneratedDesign finalize_design(Synthesizer& syn, const FamilyProfile& profile,
                                Rng& rng, const std::string& design_name,
                                const std::string& context);

/// Generates one design. The result's netlist is validated, cleaned up and
/// cell-diversified; it always contains at least one register.
GeneratedDesign generate_design(const FamilyProfile& profile, Rng& rng,
                                const std::string& design_name);

}  // namespace nettag
