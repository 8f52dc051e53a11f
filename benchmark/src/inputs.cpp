#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_map>
#include <unordered_set>

#include "common.hpp"
#include "netlist/cone.hpp"
#include "netlist/io.hpp"
#include "rtlgen/generator.hpp"
#include "serve/canonical.hpp"

namespace benchkit {

using nettag::Netlist;
using nettag::Rng;

bool parse_workload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kColdCircuits, Workload::kHotCones,
                     Workload::kStdinCones, Workload::kTrain}) {
    if (name == workload_name(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kColdCircuits: return "serve_cold_circuits";
    case Workload::kHotCones: return "serve_hot_cones";
    case Workload::kStdinCones: return "serve_stdin_cones";
    case Workload::kTrain: return "train_pipeline";
  }
  return "?";
}

bool is_serve(Workload w) { return w != Workload::kTrain; }

namespace {

/// Seed of design `index` of a workload: independent of generation order.
std::uint64_t design_seed(std::uint64_t seed, std::uint64_t salt,
                          std::uint64_t index) {
  std::uint64_t x = seed * 0x9e3779b97f4a7c15ull ^ (salt << 40) ^ index;
  x ^= x >> 31;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 29;
  return x;
}

Item make_item(const std::string& op, const Netlist& nl, int group,
               bool renamed) {
  Item it;
  it.op = op;
  it.netlist = nettag::netlist_to_string(nl);
  it.body = "\",\"op\":\"" + op + "\",\"netlist\":" + json_quote(it.netlist) + "}";
  it.group = group;
  it.gates = static_cast<int>(nl.size());
  it.registers = static_cast<int>(nl.registers().size());
  it.renamed = renamed;
  return it;
}

/// Same structure and declaration order, every instance name permuted.
Netlist permute_names(const Netlist& nl, Rng& rng) {
  std::vector<std::size_t> perm(nl.size());
  std::iota(perm.begin(), perm.end(), 0);
  rng.shuffle(perm);
  Netlist out = nl;
  for (std::size_t i = 0; i < nl.size(); ++i) {
    out.gate(static_cast<nettag::GateId>(i)).name =
        "u" + std::to_string(perm[i]);
  }
  return out;
}

/// Flat design `index` of this workload (`salt` keeps workloads apart),
/// round-robin over the four families, timing rtlgen.
Netlist generate_one(Inputs* in, std::uint64_t salt, int index) {
  const auto& families = nettag::benchmark_families();
  Rng rng(design_seed(in->seed, salt, static_cast<std::uint64_t>(index)));
  const std::int64_t t0 = now_ns();
  nettag::GeneratedDesign d = nettag::generate_design(
      families[static_cast<std::size_t>(index) % families.size()], rng,
      "d" + std::to_string(index));
  in->generate_ms_total += static_cast<double>(now_ns() - t0) * 1e-6;
  ++in->designs_generated;
  return std::move(d.netlist);
}

/// Collects `want` structurally distinct register cones (120-gate cap, the
/// corpus default) of `lo`..`hi` gates from successive designs, timing the
/// extraction. Distinct means distinct canonical fingerprints, so no two
/// pool cones share a result-cache entry.
std::vector<Netlist> collect_cones(Inputs* in, std::uint64_t salt, int want,
                                   int lo, int hi, bool order_sensitive) {
  std::vector<Netlist> cones;
  std::unordered_set<std::string> seen;
  for (int index = 0; static_cast<int>(cones.size()) < want; ++index) {
    in->designs.push_back(generate_one(in, salt, index));
    const std::int64_t t0 = now_ns();
    std::vector<nettag::RegisterCone> rcs =
        nettag::extract_register_cones(in->designs.back(), 120);
    in->extract_us_total += static_cast<double>(now_ns() - t0) * 1e-3;
    in->cones_extracted += rcs.size();
    for (nettag::RegisterCone& rc : rcs) {
      const int gates = static_cast<int>(rc.cone.size());
      if (gates < lo || gates > hi || static_cast<int>(cones.size()) >= want) continue;
      if (!seen.insert(nettag::serve::canonical_fingerprint(rc.cone, order_sensitive))
               .second) {
        continue;
      }
      cones.push_back(std::move(rc.cone));
    }
  }
  return cones;
}

/// The hot pool: `want` cones of the hot size band, no two sharing a
/// canonical fingerprint, of which up to kCollisionPairs pairs share a WL
/// cache key (a key hit rejected by fingerprint). Collisions occur naturally
/// in rtlgen output but how many and how popular depends on the seed; the
/// pool fixes their number and RequestStream fixes their ranks, so every
/// seed sees a like collision load. Returns cones in pool order: the
/// collision-free cones first, then the pairs.
std::vector<Netlist> hot_pool(Inputs* in, int want) {
  std::vector<Netlist> single;
  std::vector<std::pair<std::size_t, Netlist>> partners;  // (single index, cone)
  std::unordered_set<std::string> fingerprints;
  std::unordered_map<std::uint64_t, std::size_t> by_key;
  std::unordered_set<std::size_t> paired;
  const auto done = [&] {
    const int pairs = static_cast<int>(partners.size());
    return static_cast<int>(single.size()) - pairs >= want - 2 * pairs &&
           pairs >= std::min(kCollisionPairs, want / 8);
  };
  for (int index = 0; !done(); ++index) {
    if (index >= kMaxPoolDesigns && static_cast<int>(single.size()) >= want) break;
    in->designs.push_back(generate_one(in, 2, index));
    const std::int64_t t0 = now_ns();
    std::vector<nettag::RegisterCone> rcs =
        nettag::extract_register_cones(in->designs.back(), 120);
    in->extract_us_total += static_cast<double>(now_ns() - t0) * 1e-3;
    in->cones_extracted += rcs.size();
    for (nettag::RegisterCone& rc : rcs) {
      const int gates = static_cast<int>(rc.cone.size());
      if (gates < kHotMinGates || gates > kHotMaxGates) continue;
      if (!fingerprints.insert(nettag::serve::canonical_fingerprint(rc.cone, false))
               .second) {
        continue;
      }
      const std::uint64_t key = nettag::serve::structural_hash(rc.cone, 3, false);
      auto it = by_key.find(key);
      if (it == by_key.end()) {
        by_key.emplace(key, single.size());
        single.push_back(std::move(rc.cone));
      } else if (static_cast<int>(partners.size()) < kCollisionPairs &&
                 paired.insert(it->second).second) {
        partners.emplace_back(it->second, std::move(rc.cone));
      }
    }
  }
  std::vector<Netlist> pool;
  const std::size_t main = static_cast<std::size_t>(want) - 2 * partners.size();
  for (std::size_t i = 0; i < single.size() && pool.size() < main; ++i) {
    if (!paired.count(i)) pool.push_back(single[i]);
  }
  in->hot_main_cones = pool.size();
  for (auto& [partner, cone] : partners) {
    pool.push_back(single[partner]);
    pool.push_back(std::move(cone));
  }
  return pool;
}

}  // namespace

Inputs make_inputs(Workload w, std::uint64_t seed, const InputSize& size) {
  Inputs in;
  in.workload = w;
  in.seed = seed;
  switch (w) {
    case Workload::kColdCircuits: {
      for (int index = 0; static_cast<int>(in.designs.size()) < size.cold_designs; ++index) {
        Netlist nl = generate_one(&in, 1, index);
        const int gates = static_cast<int>(nl.size());
        if (gates >= kColdMinGates && gates <= kColdMaxGates) in.designs.push_back(std::move(nl));
      }
      for (std::size_t i = 0; i < in.designs.size(); ++i) {
        in.items.push_back(make_item("embed_circuit", in.designs[i],
                                     static_cast<int>(i), false));
      }
      break;
    }
    case Workload::kHotCones: {
      Rng rename_rng(design_seed(seed, 20, 0));
      int cone_index = 0;
      for (const Netlist& cone : hot_pool(&in, size.hot_cones)) {
        const Netlist renamed = permute_names(cone, rename_rng);
        // Layout per cone: [cone, gates, cone renamed, gates renamed]; a
        // renamed resubmission must replay its original's bytes.
        in.items.push_back(make_item("embed_cone", cone, 2 * cone_index, false));
        in.items.push_back(make_item("embed_gates", cone, 2 * cone_index + 1, false));
        in.items.push_back(make_item("embed_cone", renamed, 2 * cone_index, true));
        in.items.push_back(make_item("embed_gates", renamed, 2 * cone_index + 1, true));
        ++cone_index;
      }
      break;
    }
    case Workload::kStdinCones: {
      std::vector<Netlist> cones = collect_cones(
          &in, 3, size.stdin_cones, kStdinMinGates, kStdinMaxGates, true);
      Rng order(design_seed(seed, 30, 0));
      order.shuffle(cones);
      for (std::size_t i = 0; i < cones.size(); ++i) {
        in.items.push_back(
            make_item("embed_gates", cones[i], static_cast<int>(i), false));
      }
      break;
    }
    case Workload::kTrain:
      break;  // the pipeline generates its own corpus from the seed
  }
  return in;
}

RequestStream::RequestStream(const Inputs& inputs, int connection)
    : inputs_(inputs),
      rng_(design_seed(inputs.seed, 40, static_cast<std::uint64_t>(connection))) {
  if (inputs.workload == Workload::kHotCones) {
    const std::size_t cones = inputs.items.size() / 4;
    const std::size_t main = inputs.hot_main_cones;
    zipf_cdf_.resize(cones);
    double total = 0;
    for (std::size_t r = 0; r < cones; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfAlpha);
      zipf_cdf_[r] = total;
    }
    for (double& c : zipf_cdf_) c /= total;
    // One popularity order shared by every connection (that is what makes
    // the head hot), stratified by cone size: rank r draws from size stratum
    // r mod kStrata, so every seed puts the same size mix at the head.
    std::vector<std::size_t> by_size(main);
    std::iota(by_size.begin(), by_size.end(), 0);
    std::stable_sort(by_size.begin(), by_size.end(), [&](std::size_t a, std::size_t b) {
      return inputs.items[4 * a].gates < inputs.items[4 * b].gates;
    });
    constexpr std::size_t kStrata = 8;
    std::vector<std::vector<std::size_t>> strata(kStrata);
    for (std::size_t i = 0; i < main; ++i) {
      strata[i * kStrata / main].push_back(by_size[i]);
    }
    Rng order(design_seed(inputs.seed, 41, 0));
    for (auto& stratum : strata) order.shuffle(stratum);
    std::vector<std::size_t> next(kStrata, 0);
    for (std::size_t r = 0; rank_to_cone_.size() < main; ++r) {
      const std::size_t k = r % kStrata;
      if (next[k] < strata[k].size()) rank_to_cone_.push_back(strata[k][next[k]++]);
    }
    // Colliding pairs sit at fixed, adjacent ranks.
    for (std::size_t p = 0; main + 2 * p + 1 < cones; ++p) {
      const std::size_t at = std::min(rank_to_cone_.size(), kCollisionRanks[p % 4]);
      rank_to_cone_.insert(rank_to_cone_.begin() + static_cast<std::ptrdiff_t>(at),
                           {main + 2 * p, main + 2 * p + 1});
    }
  }
}

std::size_t RequestStream::next(std::uint64_t shared_counter_value) {
  const std::size_t n = inputs_.items.size();
  switch (inputs_.workload) {
    case Workload::kColdCircuits:
      return static_cast<std::size_t>(shared_counter_value % n);
    case Workload::kHotCones: {
      const double u = rng_.uniform();
      std::size_t rank = static_cast<std::size_t>(
          std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
          zipf_cdf_.begin());
      if (rank >= zipf_cdf_.size()) rank = zipf_cdf_.size() - 1;
      const std::size_t cone = rank_to_cone_[rank];
      const std::size_t op = rng_.chance(kGatesShare) ? 1 : 0;
      const std::size_t variant = rng_.chance(kRenamedShare) ? 2 : 0;
      return 4 * cone + op + variant;
    }
    case Workload::kStdinCones:
    default:
      return cursor_++ % n;
  }
}

}  // namespace benchkit
