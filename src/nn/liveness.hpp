// Liveness analysis over a recorded autograd tape.
//
// Timeline model: forward ops define buffers at times 0..N-1 in tape order;
// the j-th recorded backward event runs at time N+j. Every buffer gets a
// [def, last-use] interval:
//
//   value[i]  defined at i; used by each forward consumer j at time j, by
//             op i's own backward if its closure reads the output value
//             (tanh, sigmoid, softmax, normalize read o->value), and by each
//             consumer j's backward if that op's closure reads parent values
//             (matmul, mul, relu, gelu, layer_norm, mse, attention_heads
//             read p->value).
//   grad[i]   defined (zero-filled) at i alongside the node; written by each
//             consumer's backward (gradient accumulation — repeated parents
//             simply accumulate twice into the same buffer) and read by op
//             i's own backward; dead after op i's backward event. A node
//             whose closure never ran this step (unreachable from the
//             backward roots, or an inference-only sweep) has grad dead at
//             its def.
//   temp[i,k] defined at i, read only by op i's backward closure.
//
// Which closures read which buffers comes from the per-op trait table
// (backward_reads); unknown op names get the fully conservative {true,true}.
#pragma once

#include <string>
#include <vector>

#include "nn/tape.hpp"

namespace nettag::plan {

/// What an op's backward closure reads beyond its own output gradient.
struct BwdReads {
  bool own_value = true;      ///< closure reads o->value
  bool parent_values = true;  ///< closure reads parent->value buffers
};

/// Trait lookup by op name; unknown names are fully conservative.
BwdReads backward_reads(const std::string& op);

struct Interval {
  long def = 0;
  long last = 0;
  bool overlaps(const Interval& o) const { return def <= o.last && o.def <= last; }
};

struct LivenessResult {
  std::vector<Interval> value;               ///< per tape entry
  std::vector<Interval> grad;                ///< valid iff entry requires_grad
  std::vector<std::vector<Interval>> temps;  ///< per entry, per temp
  long horizon = 0;                          ///< N + backward event count
};

LivenessResult analyze_liveness(const Tape& tape);

}  // namespace nettag::plan
