#include "nn/tape.hpp"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "analysis/check.hpp"
#include "analysis/plan_verify.hpp"
#include "nn/arena.hpp"
#include "nn/liveness.hpp"
#include "nn/memplan.hpp"
#include "util/parallel.hpp"

namespace nettag::plan {

namespace {

constexpr std::size_t kMaxSignatures = 512;
constexpr std::size_t kMaxTapeOps = 100000;

enum class EntryState { kRecording, kRecorded, kReady, kDisabled };

struct Entry {
  EntryState state = EntryState::kRecording;
  Tape tape;
  std::shared_ptr<const MemPlan> plan;
  bool verifier_ok = false;
  std::string verdict;
};

struct Registry {
  std::mutex mu;
  std::unordered_map<std::string, std::shared_ptr<Entry>> map;
};

Registry& registry() {
  static auto* r = new Registry;  // leaked: outlives all scopes at shutdown
  return *r;
}

std::atomic<int> g_enabled{-1};  // -1 = env var not resolved yet
std::atomic<bool> g_corrupt{false};

std::atomic<unsigned long long> g_tapes_recorded{0};
std::atomic<unsigned long long> g_plans_installed{0};
std::atomic<unsigned long long> g_verifier_rejects{0};
std::atomic<unsigned long long> g_replays{0};
std::atomic<unsigned long long> g_divergences{0};
std::atomic<unsigned long long> g_buffers_planned{0};
std::atomic<unsigned long long> g_buffers_coalesced{0};

/// Runs liveness + planning + verification over a recorded tape and installs
/// the plan (or disables the signature on a failed verdict). Deferred to the
/// signature's first re-encounter so one-shot graphs — signatures that never
/// recur — pay only the cheap recording bookkeeping, never the planner.
/// Caller holds the registry lock.
void plan_and_install(Entry& e) {
  const LivenessResult live = analyze_liveness(e.tape);
  MemPlan plan =
      plan_memory(e.tape, live, g_corrupt.load(std::memory_order_relaxed));
  const PlanVerdict verdict = verify_plan(e.tape, plan);
  e.verifier_ok = verdict.ok;
  e.verdict = verdict.summary();
  if (verdict.ok) {
    g_plans_installed.fetch_add(1, std::memory_order_relaxed);
    g_buffers_planned.fetch_add(plan.buffers_planned,
                                std::memory_order_relaxed);
    g_buffers_coalesced.fetch_add(plan.buffers_coalesced,
                                  std::memory_order_relaxed);
    e.plan = std::make_shared<const MemPlan>(std::move(plan));
    e.state = EntryState::kReady;
  } else {
    // Refused plan: the signature stays on per-op heap allocation.
    e.state = EntryState::kDisabled;
    g_verifier_rejects.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace

struct PlanScope::Impl {
  std::string signature;
  std::shared_ptr<Entry> entry;
  bool recording = false;
  int unwind_depth = 0;
  // --- recording state ---
  Tape rec;
  std::vector<std::pair<int, int>> pending_temps;
  bool pending_value = false;
  int pending_r = 0;
  int pending_c = 0;
  // --- replay state ---
  std::shared_ptr<const MemPlan> plan;  // immutable once Ready
  const Tape* tape = nullptr;           // &entry->tape, immutable once Ready
  char* base = nullptr;
  std::size_t cap = 0;
  std::size_t cursor = 0;   // next tape entry to match
  std::size_t temp_i = 0;   // temps of the current entry consumed so far
  std::size_t root_i = 0;   // backward roots consumed so far
  bool diverged = false;
  // every planned node, for slot reset and divergence materialization
  std::vector<std::weak_ptr<Node>> nodes;
};

namespace {

thread_local PlanScope::Impl* t_scope = nullptr;

/// The active scope for planner hooks: none inside pool tasks, so graph
/// building dispatched to (or drained by) the thread pool is never taped.
PlanScope::Impl* cur() {
  PlanScope::Impl* s = t_scope;
  if (s == nullptr || ThreadPool::in_worker()) return nullptr;
  return s;
}

/// Copies `m`'s storage back to the heap if it was served from this scope's
/// arena slab. Used on divergence so no buffer can alias another.
void heapify(PlanScope::Impl* s, Mat& m) {
  if (m.v.empty()) return;
  const char* p = reinterpret_cast<const char*>(m.v.data());
  if (p < s->base || p >= s->base + s->cap) return;
  FloatVec tmp(m.v.begin(), m.v.end());  // allocator is disarmed: heap copy
  m.v.swap(tmp);
}

/// Replay diverged from the tape: copy every still-live planned buffer back
/// to the heap, stop serving the arena, and count the diagnostic. Execution
/// continues with per-op heap allocation (bit-identical, just slower).
void diverge(PlanScope::Impl* s) {
  if (s->diverged) return;
  s->diverged = true;
  g_divergences.fetch_add(1, std::memory_order_relaxed);
  disarm();
  for (auto& w : s->nodes) {
    if (auto n = w.lock()) {
      heapify(s, n->value);
      heapify(s, n->grad);
    }
  }
}

/// True when the current replay cursor entry matches (shape, parent slots).
/// Called before the op kernel runs, so a planned output buffer is only
/// handed out when every buffer the kernel will read is live at this tape
/// time under the installed plan.
bool replay_value_matches(PlanScope::Impl* s, int r, int c,
                          std::size_t n_parents,
                          const Node* const* parents) {
  const TapeEntry& e = s->tape->entries[s->cursor];
  if (e.rows != r || e.cols != c || !e.value_planned) return false;
  if (e.parents.size() != n_parents) return false;
  for (std::size_t k = 0; k < n_parents; ++k) {
    if (e.parents[k] != parents[k]->plan_slot) return false;
  }
  return true;
}

Mat replay_out(PlanScope::Impl* s, int r, int c, const Mat* copy_src,
               std::size_t n_parents, const Node* const* parents) {
  auto heap_out = [&]() { return copy_src ? Mat(*copy_src) : Mat(r, c); };
  if (s->diverged) return heap_out();
  if (s->cursor >= s->tape->entries.size() ||
      !replay_value_matches(s, r, c, n_parents, parents)) {
    diverge(s);
    return heap_out();
  }
  const std::size_t slot = s->plan->per_entry[s->cursor].value;
  const std::size_t bytes =
      static_cast<std::size_t>(r) * static_cast<std::size_t>(c) * sizeof(float);
  if (slot == kHeapSlot || bytes == 0) return heap_out();
  arm(s->base + slot, bytes);
  if (copy_src != nullptr) {
    Mat m;
    m.rows = r;
    m.cols = c;
    m.v = FloatVec(copy_src->v.begin(), copy_src->v.end());
    disarm();
    return m;
  }
  Mat m(r, c);
  disarm();
  return m;
}

Mat record_out(PlanScope::Impl* s, int r, int c, const Mat* copy_src) {
  s->pending_value = true;
  s->pending_r = r;
  s->pending_c = c;
  return copy_src ? Mat(*copy_src) : Mat(r, c);
}

}  // namespace

// --- global switches ---------------------------------------------------------

bool planning_enabled() {
  int v = g_enabled.load(std::memory_order_relaxed);
  if (v < 0) {
    const char* s = std::getenv("NETTAG_PLAN");
    v = (s != nullptr && s[0] == '0' && s[1] == '\0') ? 0 : 1;
    g_enabled.store(v, std::memory_order_relaxed);
  }
  return v == 1;
}

void set_planning_enabled(bool enabled) {
  g_enabled.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

void set_test_plan_corruption(bool corrupt) {
  g_corrupt.store(corrupt, std::memory_order_relaxed);
}

void reset_for_tests() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lk(reg.mu);
  reg.map.clear();
  g_tapes_recorded.store(0);
  g_plans_installed.store(0);
  g_verifier_rejects.store(0);
  g_replays.store(0);
  g_divergences.store(0);
  g_buffers_planned.store(0);
  g_buffers_coalesced.store(0);
}

Stats stats_snapshot() {
  Stats s;
  s.enabled = planning_enabled();
  s.tapes_recorded = g_tapes_recorded.load(std::memory_order_relaxed);
  s.plans_installed = g_plans_installed.load(std::memory_order_relaxed);
  s.verifier_rejects = g_verifier_rejects.load(std::memory_order_relaxed);
  s.replays = g_replays.load(std::memory_order_relaxed);
  s.divergences = g_divergences.load(std::memory_order_relaxed);
  s.buffers_planned = g_buffers_planned.load(std::memory_order_relaxed);
  s.buffers_coalesced = g_buffers_coalesced.load(std::memory_order_relaxed);
  s.mallocs_avoided = arena_served_allocs();
  s.heap_mat_allocs = heap_mat_allocs();
  s.slab_bytes = slab_bytes_reserved();
  return s;
}

// --- per-step scope ----------------------------------------------------------

PlanScope::PlanScope(std::string signature) {
  if (!planning_enabled() || deep_checks_enabled() ||
      ThreadPool::in_worker() || t_scope != nullptr) {
    return;
  }
  Registry& reg = registry();
  std::shared_ptr<Entry> entry;
  bool record = false;
  {
    std::lock_guard<std::mutex> lk(reg.mu);
    auto it = reg.map.find(signature);
    if (it == reg.map.end()) {
      if (reg.map.size() >= kMaxSignatures) return;
      entry = std::make_shared<Entry>();
      reg.map.emplace(signature, entry);
      record = true;  // this scope owns the recording
    } else {
      entry = it->second;
      // First re-encounter of a recorded signature: plan + verify now.
      if (entry->state == EntryState::kRecorded) plan_and_install(*entry);
      if (entry->state != EntryState::kReady) return;  // busy or disabled
    }
  }
  impl_ = std::make_unique<Impl>();
  impl_->signature = std::move(signature);
  impl_->entry = std::move(entry);
  impl_->unwind_depth = std::uncaught_exceptions();
  if (record) {
    impl_->recording = true;
  } else {
    impl_->plan = impl_->entry->plan;
    impl_->tape = &impl_->entry->tape;
    char* base = thread_arena(impl_->plan->slab_bytes);
    if (base == nullptr) {  // slab registry exhausted: replay without arena
      impl_.reset();
      return;
    }
    impl_->base = base;
    impl_->cap = impl_->plan->slab_bytes;
    g_replays.fetch_add(1, std::memory_order_relaxed);
  }
  t_scope = impl_.get();
}

PlanScope::~PlanScope() {
  if (!impl_) return;
  Impl* s = impl_.get();
  if (t_scope == s) t_scope = nullptr;
  disarm();
  const bool unwinding = std::uncaught_exceptions() > s->unwind_depth;
  // Slots must never leak into a later scope's parent matching, and any
  // planned node that outlives the step is copied back to the heap: the next
  // scope on this thread reuses the same arena slab. Well-structured steps
  // free their whole graph before the scope, so this usually copies nothing.
  for (auto& w : s->nodes) {
    if (auto n = w.lock()) {
      n->plan_slot = -1;
      if (!s->recording) {
        heapify(s, n->value);
        heapify(s, n->grad);
      }
    }
  }
  if (s->recording) {
    if (unwinding || s->rec.entries.empty() ||
        s->rec.entries.size() > kMaxTapeOps) {
      // Aborted, empty, or oversized recording: release the claim so a
      // later clean step may re-record this signature.
      std::lock_guard<std::mutex> lk(registry().mu);
      registry().map.erase(s->signature);
      return;
    }
    // Store the tape only; planning + verification run lazily at the
    // signature's first re-encounter (plan_and_install), so a signature
    // that is never seen again costs nothing beyond this bookkeeping.
    g_tapes_recorded.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lk(registry().mu);
    Entry& e = *s->entry;
    e.tape = std::move(s->rec);
    e.state = EntryState::kRecorded;
  } else {
    if (!s->diverged && !unwinding && s->cursor != s->tape->entries.size()) {
      // The step built fewer ops than the tape. Nothing stale was read (all
      // built ops matched), but the signature is unstable — disable it.
      diverge(s);
    }
    if (s->diverged) {
      std::lock_guard<std::mutex> lk(registry().mu);
      s->entry->state = EntryState::kDisabled;
      s->entry->verdict = "disabled after replay divergence";
    }
  }
}

// --- hooks called from nn/tensor.cpp -----------------------------------------

Mat out_mat(int r, int c, std::initializer_list<const Node*> parents) {
  PlanScope::Impl* s = cur();
  if (s == nullptr) return Mat(r, c);
  if (s->recording) return record_out(s, r, c, nullptr);
  return replay_out(s, r, c, nullptr, parents.size(), parents.begin());
}

Mat out_copy(const Mat& src, std::initializer_list<const Node*> parents) {
  PlanScope::Impl* s = cur();
  if (s == nullptr) return Mat(src);
  if (s->recording) return record_out(s, src.rows, src.cols, &src);
  return replay_out(s, src.rows, src.cols, &src, parents.size(),
                    parents.begin());
}

Mat out_mat(int r, int c, const std::vector<Tensor>& parents) {
  PlanScope::Impl* s = cur();
  if (s == nullptr) return Mat(r, c);
  if (s->recording) return record_out(s, r, c, nullptr);
  std::vector<const Node*> raw;
  raw.reserve(parents.size());
  for (const Tensor& p : parents) raw.push_back(p.get());
  return replay_out(s, r, c, nullptr, raw.size(), raw.data());
}

Mat tmp_mat(int r, int c) {
  PlanScope::Impl* s = cur();
  if (s == nullptr) return Mat(r, c);
  if (s->recording) {
    s->pending_temps.emplace_back(r, c);
    return Mat(r, c);
  }
  if (s->diverged) return Mat(r, c);
  if (s->cursor >= s->tape->entries.size()) {
    diverge(s);
    return Mat(r, c);
  }
  const TapeEntry& e = s->tape->entries[s->cursor];
  if (s->temp_i >= e.temps.size() || e.temps[s->temp_i].first != r ||
      e.temps[s->temp_i].second != c) {
    diverge(s);
    return Mat(r, c);
  }
  const std::size_t slot = s->plan->per_entry[s->cursor].temps[s->temp_i];
  ++s->temp_i;
  const std::size_t bytes =
      static_cast<std::size_t>(r) * static_cast<std::size_t>(c) * sizeof(float);
  if (slot == kHeapSlot || bytes == 0) return Mat(r, c);
  arm(s->base + slot, bytes);
  Mat m(r, c);
  disarm();
  return m;
}

int pre_op(const char* op, Mat& value, const std::vector<Tensor>& parents,
           bool requires_grad) {
  PlanScope::Impl* s = cur();
  if (s == nullptr) return -1;
  if (s->recording) {
    TapeEntry e;
    e.op = op;
    e.rows = value.rows;
    e.cols = value.cols;
    e.requires_grad = requires_grad;
    e.value_planned = s->pending_value && s->pending_r == value.rows &&
                      s->pending_c == value.cols;
    s->pending_value = false;
    e.parents.reserve(parents.size());
    for (const Tensor& p : parents) e.parents.push_back(p->plan_slot);
    e.temps = std::move(s->pending_temps);
    s->pending_temps.clear();
    s->rec.entries.push_back(std::move(e));
    return static_cast<int>(s->rec.entries.size()) - 1;
  }
  if (s->diverged) {
    heapify(s, value);
    return -1;
  }
  bool match = s->cursor < s->tape->entries.size();
  if (match) {
    const TapeEntry& e = s->tape->entries[s->cursor];
    match = e.op == op && e.rows == value.rows && e.cols == value.cols &&
            e.requires_grad == requires_grad &&
            e.parents.size() == parents.size() &&
            e.temps.size() == s->temp_i;  // every recorded temp was requested
    for (std::size_t k = 0; match && k < parents.size(); ++k) {
      match = e.parents[k] == parents[k]->plan_slot;
    }
  }
  if (!match) {
    diverge(s);
    heapify(s, value);
    return -1;
  }
  if (requires_grad) {
    const std::size_t slot = s->plan->per_entry[s->cursor].grad;
    const std::size_t bytes = static_cast<std::size_t>(value.rows) *
                              static_cast<std::size_t>(value.cols) *
                              sizeof(float);
    // The very next allocation is the node's eager gradient (Node ctor).
    if (slot != kHeapSlot && bytes > 0) arm(s->base + slot, bytes);
  }
  const int slot = static_cast<int>(s->cursor);
  ++s->cursor;
  s->temp_i = 0;
  return slot;
}

void post_op(int slot, const Tensor& node) {
  PlanScope::Impl* s = cur();
  if (s == nullptr) return;
  disarm();  // a zero-size or heap-slot gradient never consumed the arm
  if (slot < 0) return;
  node->plan_slot = slot;
  s->nodes.emplace_back(node);
}

void keep_alive(const Tensor& node) {
  PlanScope::Impl* s = cur();
  if (s == nullptr || node == nullptr) return;
  if (s->recording && node->plan_slot >= 0) {
    s->rec.kept.push_back(node->plan_slot);
  }
  // Replays inherit the pin from the installed plan: the liveness pass built
  // it with these slots held to the horizon, so there is nothing to do.
}

void on_backward_begin(Node* root) {
  PlanScope::Impl* s = cur();
  if (s == nullptr) return;
  if (s->recording) {
    s->rec.bwd_roots.push_back(root->plan_slot);
    return;
  }
  if (s->diverged) return;
  if (s->root_i >= s->tape->bwd_roots.size() ||
      s->tape->bwd_roots[s->root_i] != root->plan_slot) {
    // A backward sweep the tape did not see (or from a different root) would
    // read buffers the liveness model already declared dead — materialize
    // before any closure runs.
    diverge(s);
    return;
  }
  ++s->root_i;
}

void on_backward_exec(Node* node) {
  PlanScope::Impl* s = cur();
  if (s == nullptr || !s->recording) return;
  if (node->plan_slot >= 0) s->rec.bwd_order.push_back(node->plan_slot);
}

// --- introspection -----------------------------------------------------------

std::vector<TapeReport> tape_reports() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lk(reg.mu);
  std::vector<TapeReport> out;
  out.reserve(reg.map.size());
  for (const auto& [sig, entry] : reg.map) {
    TapeReport r;
    r.signature = sig;
    switch (entry->state) {
      case EntryState::kRecording: r.state = "recording"; break;
      case EntryState::kRecorded: r.state = "recorded"; break;
      case EntryState::kReady: r.state = "ready"; break;
      case EntryState::kDisabled: r.state = "disabled"; break;
    }
    r.tape = entry->tape;
    r.plan = entry->plan;
    r.verifier_ok = entry->verifier_ok;
    r.verifier_verdict = entry->verdict;
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace nettag::plan
