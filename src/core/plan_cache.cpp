#include "core/plan_cache.h"

#include "obs/metrics.h"

namespace odn::core {
namespace {

// Process-wide cache accounting (DESIGN.md §6 naming scheme). All
// increments happen on serial cache-access sections whose execution count
// is thread-count invariant, so the totals snapshot identically for any
// ODN_THREADS.
struct PlanCacheMetrics {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& insertions;
  obs::Counter& evictions;

  static PlanCacheMetrics& instance() {
    static obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
    static PlanCacheMetrics metrics{
        registry.counter("odn_plan_cache_hits_total"),
        registry.counter("odn_plan_cache_misses_total"),
        registry.counter("odn_plan_cache_insertions_total"),
        registry.counter("odn_plan_cache_evictions_total")};
    return metrics;
  }
};

}  // namespace

PlanCache::PlanCache(std::size_t capacity) : entries_(capacity) {}

const DeploymentPlan* PlanCache::find(const MemoKey& key) {
  const DeploymentPlan* hit = entries_.find(key);
  PlanCacheMetrics& metrics = PlanCacheMetrics::instance();
  if (hit != nullptr) {
    ++stats_.hits;
    metrics.hits.inc();
  } else {
    ++stats_.misses;
    metrics.misses.inc();
  }
  return hit;
}

void PlanCache::insert(MemoKey key, const DeploymentPlan& plan) {
  const std::uint64_t before = entries_.evictions();
  entries_.insert(std::move(key), plan);
  const std::uint64_t evicted = entries_.evictions() - before;
  ++stats_.insertions;
  stats_.evictions += evicted;
  PlanCacheMetrics& metrics = PlanCacheMetrics::instance();
  metrics.insertions.inc();
  if (evicted > 0) metrics.evictions.inc(evicted);
}

PlanCacheStats PlanCache::stats() const noexcept { return stats_; }

}  // namespace odn::core
