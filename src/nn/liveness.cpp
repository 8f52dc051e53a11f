#include "nn/liveness.hpp"

#include <algorithm>
#include <unordered_map>

namespace nettag::plan {

BwdReads backward_reads(const std::string& op) {
  // Derived from the closures in nn/tensor.cpp. Keep in sync when adding ops;
  // an op missing here is treated conservatively (its buffers live through
  // the whole backward phase), which only costs slab bytes, never safety.
  static const std::unordered_map<std::string, BwdReads> kTable = {
      {"matmul", {false, true}},       {"add", {false, false}},
      {"add_rowvec", {false, false}},  {"sub", {false, false}},
      {"mul", {false, true}},          {"scale", {false, false}},
      {"relu", {false, true}},         {"gelu", {false, true}},
      {"tanh", {true, false}},         {"sigmoid", {true, false}},
      {"transpose", {false, false}},   {"concat_cols", {false, false}},
      {"concat_rows", {false, false}}, {"slice_rows", {false, false}},
      {"mean_rows", {false, false}},   {"sum_rows", {false, false}},
      {"softmax_rows", {true, false}}, {"layer_norm", {false, true}},
      {"embedding", {false, false}},   {"normalize_rows", {true, false}},
      {"dropout", {false, false}},     {"cross_entropy", {false, false}},
      {"mse_loss", {false, true}},     {"attention_heads", {false, true}},
  };
  const auto it = kTable.find(op);
  if (it == kTable.end()) return BwdReads{true, true};
  return it->second;
}

LivenessResult analyze_liveness(const Tape& tape) {
  const long n = static_cast<long>(tape.entries.size());
  LivenessResult out;
  out.value.resize(tape.entries.size());
  out.grad.resize(tape.entries.size());
  out.temps.resize(tape.entries.size());
  out.horizon = n + static_cast<long>(tape.bwd_order.size());

  // Latest backward event time per slot (a closure can run more than once
  // when several backward sweeps share subgraph nodes).
  std::vector<long> bwd_time(tape.entries.size(), -1);
  for (std::size_t j = 0; j < tape.bwd_order.size(); ++j) {
    const int slot = tape.bwd_order[j];
    if (slot >= 0 && slot < n) {
      bwd_time[static_cast<std::size_t>(slot)] =
          std::max(bwd_time[static_cast<std::size_t>(slot)],
                   n + static_cast<long>(j));
    }
  }

  for (long i = 0; i < n; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    out.value[ui] = {i, i};
    out.grad[ui] = {i, i};
    const long bt = bwd_time[ui];
    const BwdReads own = backward_reads(tape.entries[ui].op);
    if (bt >= 0) {
      if (own.own_value) out.value[ui].last = std::max(out.value[ui].last, bt);
      // The closure reads o->grad at its own event, which is also the last
      // touch of the gradient buffer.
      out.grad[ui].last = std::max(out.grad[ui].last, bt);
    }
    out.temps[ui].reserve(tape.entries[ui].temps.size());
    for (std::size_t k = 0; k < tape.entries[ui].temps.size(); ++k) {
      out.temps[ui].push_back({i, bt >= 0 ? std::max(i, bt) : i});
    }
  }

  // Backward roots are the nodes handed to run_backward — step loops read
  // their values after the sweep (loss logging), so pin them to the horizon.
  for (const int slot : tape.bwd_roots) {
    if (slot >= 0 && slot < n) {
      out.value[static_cast<std::size_t>(slot)].last = out.horizon;
    }
  }
  // Explicitly kept nodes (keep_alive): the scope owner reads their buffers
  // after the step, e.g. embedding outputs returned to the caller.
  for (const int slot : tape.kept) {
    if (slot >= 0 && slot < n) {
      const auto us = static_cast<std::size_t>(slot);
      out.value[us].last = out.horizon;
      out.grad[us].last = out.horizon;
    }
  }

  // Consumer edges: op j reading/writing parent i's buffers.
  for (long j = 0; j < n; ++j) {
    const auto uj = static_cast<std::size_t>(j);
    const BwdReads rj = backward_reads(tape.entries[uj].op);
    const long bt = bwd_time[uj];
    for (const int p : tape.entries[uj].parents) {
      if (p < 0 || p >= n) continue;
      const auto up = static_cast<std::size_t>(p);
      // forward read of the parent value at time j
      out.value[up].last = std::max(out.value[up].last, j);
      if (bt >= 0) {
        // backward of consumer j: reads parent values if the closure does,
        // and accumulates into the parent gradient either way.
        if (rj.parent_values) {
          out.value[up].last = std::max(out.value[up].last, bt);
        }
        if (tape.entries[up].requires_grad) {
          out.grad[up].last = std::max(out.grad[up].last, bt);
        }
      }
    }
  }
  return out;
}

}  // namespace nettag::plan
