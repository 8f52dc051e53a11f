#include "serve/registry.hpp"

#include <stdexcept>
#include <utility>

#include "util/checksum.hpp"

namespace nettag::serve {

ModelRegistry::ModelRegistry(std::size_t text_cache_entries)
    : text_cache_entries_(text_cache_entries) {}

std::string ReplicaSnapshot::cache_tag() const {
  std::string tag = "|m";
  tag += name;
  tag += "|w";
  tag += crc32_hex(params_crc);
  return tag;
}

std::uint32_t ModelRegistry::prepare(NetTag& model) const {
  const std::uint32_t crc = params_fingerprint(model);
  // Salt the shared text cache's keys with the weights CRC: cached rows are
  // encoder outputs, so two weight sets must never share them, while two
  // replicas of one checkpoint should.
  model.share_text_cache(text_cache(), "w" + crc32_hex(crc) + "|");
  return crc;
}

void ModelRegistry::add(const std::string& name, std::unique_ptr<NetTag> model,
                        const std::string& prefix) {
  auto rep = std::make_shared<Replica>();
  rep->name = name;
  rep->prefix = prefix;
  std::shared_ptr<NetTag> shared(std::move(model));
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!text_cache_) {
      text_cache_ = std::make_shared<TextEmbeddingCache>(text_cache_entries_);
    }
  }
  rep->params_crc = prepare(*shared);
  rep->model = std::move(shared);
  std::lock_guard<std::mutex> lk(mu_);
  replicas_[name] = std::move(rep);
}

bool ModelRegistry::load(const std::string& name, const std::string& prefix,
                         std::string* error) {
  std::unique_ptr<NetTag> model;
  try {
    model = load_checkpoint(prefix);
  } catch (const std::exception& e) {
    if (error != nullptr) *error = e.what();
    return false;
  }
  add(name, std::move(model), prefix);
  return true;
}

bool ModelRegistry::unload(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  return replicas_.erase(name) > 0;
}

ReloadOutcome ModelRegistry::reload(const std::string& name,
                                    const std::string& prefix_override) {
  ReloadOutcome outcome;
  std::shared_ptr<Replica> rep = find(name);
  if (!rep) {
    outcome.error = ErrorCode::kUnknownModel;
    outcome.message = "no model loaded under '" + name + "'";
    return outcome;
  }
  // One reload per replica at a time; reloads of *different* replicas (and
  // all request traffic) proceed concurrently. The slow checkpoint load
  // happens outside mu_, so snapshots keep being served and only the
  // pointer swap itself synchronizes with them.
  std::lock_guard<std::mutex> reload_lk(rep->reload_mu);
  std::string prefix = prefix_override;
  if (prefix.empty()) {
    std::lock_guard<std::mutex> lk(mu_);
    prefix = rep->prefix;
  }
  if (prefix.empty()) {
    outcome.error = ErrorCode::kBadRequest;
    outcome.message =
        "reload needs 'model_prefix' (server has no configured default)";
    return outcome;
  }
  try {
    std::shared_ptr<NetTag> fresh = load_checkpoint(prefix);
    const std::uint32_t crc = prepare(*fresh);
    {
      std::lock_guard<std::mutex> lk(mu_);
      auto it = replicas_.find(name);
      if (it == replicas_.end() || it->second != rep) {
        // Unloaded (or replaced by model_load) while we were reading the
        // checkpoint: drop the fresh model, keep the registry's view.
        outcome.error = ErrorCode::kUnknownModel;
        outcome.message = "model '" + name + "' was unloaded during reload";
        return outcome;
      }
      outcome.params_changed = crc != rep->params_crc;
      rep->model = std::move(fresh);
      rep->params_crc = crc;
    }
    rep->counters->reloads.fetch_add(1, std::memory_order_relaxed);
    total_reloads_.fetch_add(1, std::memory_order_relaxed);
    outcome.ok = true;
    outcome.prefix = prefix;
    outcome.params_crc = crc;
  } catch (const std::exception& e) {
    outcome.error = ErrorCode::kReloadFailed;
    outcome.message = e.what();
  }
  return outcome;
}

bool ModelRegistry::snapshot(const std::string& name,
                             ReplicaSnapshot* out) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = replicas_.find(name);
  if (it == replicas_.end()) return false;
  const Replica& rep = *it->second;
  out->name = rep.name;
  out->model = rep.model;
  out->params_crc = rep.params_crc;
  out->counters = rep.counters;
  return true;
}

bool ModelRegistry::has(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  return replicas_.count(name) > 0;
}

std::vector<ReplicaInfo> ModelRegistry::list() const {
  std::vector<ReplicaInfo> out;
  std::lock_guard<std::mutex> lk(mu_);
  out.reserve(replicas_.size());
  for (const auto& entry : replicas_) {
    const Replica& rep = *entry.second;
    ReplicaInfo info;
    info.name = rep.name;
    info.prefix = rep.prefix;
    info.params_crc = rep.params_crc;
    info.reloads = rep.counters->reloads.load(std::memory_order_relaxed);
    info.requests = rep.counters->requests.load(std::memory_order_relaxed);
    info.cache_hits = rep.counters->cache_hits.load(std::memory_order_relaxed);
    info.cache_misses =
        rep.counters->cache_misses.load(std::memory_order_relaxed);
    out.push_back(std::move(info));
  }
  return out;
}

std::shared_ptr<TextEmbeddingCache> ModelRegistry::text_cache() const {
  std::lock_guard<std::mutex> lk(mu_);
  return text_cache_;
}

std::shared_ptr<ModelRegistry::Replica> ModelRegistry::find(
    const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = replicas_.find(name);
  return it == replicas_.end() ? nullptr : it->second;
}

}  // namespace nettag::serve
