// Bounded LRU cache of controller DeploymentPlans keyed by the exact
// canonical encoding of the (state, request-set) sub-instance — the
// cross-epoch / cross-cell reuse layer of DESIGN.md §8.
//
// Soundness: probe/plan solves are pure functions of the encoded key
// (controller options, discounted capacities, ledger usage, deployed
// blocks, radio, catalog, requests), so a hit returns bytes bit-identical
// to what a cold solve would produce — the differential suite
// (tests/core/test_warm_start_equivalence.cpp) enforces this per step.
// Task names are the one cosmetic exception: keys are name-blind and the
// controller rewrites the cached plan's task names positionally on reuse.
//
// Sharing: one PlanCache may be shared by every cell of a
// ClusterDispatcher (probes of identical sub-instances collapse across
// cells). Access must stay on serial sections — the dispatcher's probe
// fan-out looks up and inserts serially and only solves misses in
// parallel — which also keeps hit/miss counts ODN_THREADS-invariant.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/controller.h"
#include "core/lru_map.h"

namespace odn::core {

struct PlanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
};

class PlanCache {
 public:
  explicit PlanCache(std::size_t capacity);

  // Counts a hit or miss (locally and on the odn_plan_cache_* counters).
  // The returned pointer is valid until the next insert() or clear().
  const DeploymentPlan* find(const MemoKey& key);
  void insert(MemoKey key, const DeploymentPlan& plan);

  std::size_t size() const noexcept { return entries_.size(); }
  std::size_t capacity() const noexcept { return entries_.capacity(); }
  PlanCacheStats stats() const noexcept;
  void clear() { entries_.clear(); }

 private:
  LruMap<DeploymentPlan> entries_;
  PlanCacheStats stats_;
};

}  // namespace odn::core
