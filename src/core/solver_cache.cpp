#include "core/solver_cache.h"

#include "obs/metrics.h"

namespace odn::core {
namespace {

// Memo accounting. Lookup/insert sites run on serial sections with
// thread-count-invariant execution counts (solvers consult memos outside
// their parallel fan-outs), so these totals snapshot identically for any
// ODN_THREADS.
struct SolverCacheMetrics {
  obs::Counter& clique_hits;
  obs::Counter& clique_misses;
  obs::Counter& branch_hits;
  obs::Counter& branch_misses;
  obs::Counter& solve_hits;
  obs::Counter& solve_misses;
  obs::Counter& evictions;

  static SolverCacheMetrics& instance() {
    static obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
    static SolverCacheMetrics metrics{
        registry.counter("odn_solver_cache_clique_hits_total"),
        registry.counter("odn_solver_cache_clique_misses_total"),
        registry.counter("odn_solver_cache_branch_hits_total"),
        registry.counter("odn_solver_cache_branch_misses_total"),
        registry.counter("odn_solver_cache_solve_hits_total"),
        registry.counter("odn_solver_cache_solve_misses_total"),
        registry.counter("odn_solver_cache_evictions_total")};
    return metrics;
  }
};

}  // namespace

SolverCache::SolverCache() : SolverCache(Options{}) {}

SolverCache::SolverCache(Options options)
    : cliques_(options.clique_capacity),
      branches_(options.branch_capacity),
      solves_(options.solve_capacity) {}

const SolverCache::CliqueEntry* SolverCache::find_clique(
    const MemoKey& key) {
  const CliqueEntry* hit = cliques_.find(key);
  SolverCacheMetrics& metrics = SolverCacheMetrics::instance();
  if (hit != nullptr) {
    ++stats_.clique_hits;
    metrics.clique_hits.inc();
  } else {
    ++stats_.clique_misses;
    metrics.clique_misses.inc();
  }
  return hit;
}

void SolverCache::insert_clique(MemoKey key, CliqueEntry entry) {
  const std::uint64_t before = cliques_.evictions();
  cliques_.insert(std::move(key), std::move(entry));
  const std::uint64_t evicted = cliques_.evictions() - before;
  stats_.evictions += evicted;
  if (evicted > 0) SolverCacheMetrics::instance().evictions.inc(evicted);
}

const SolverCache::BranchEntry* SolverCache::find_branch(
    const MemoKey& key) {
  const BranchEntry* hit = branches_.find(key);
  SolverCacheMetrics& metrics = SolverCacheMetrics::instance();
  if (hit != nullptr) {
    ++stats_.branch_hits;
    metrics.branch_hits.inc();
  } else {
    ++stats_.branch_misses;
    metrics.branch_misses.inc();
  }
  return hit;
}

void SolverCache::insert_branch(MemoKey key, BranchEntry entry) {
  const std::uint64_t before = branches_.evictions();
  branches_.insert(std::move(key), std::move(entry));
  const std::uint64_t evicted = branches_.evictions() - before;
  stats_.evictions += evicted;
  if (evicted > 0) SolverCacheMetrics::instance().evictions.inc(evicted);
}

const DotSolution* SolverCache::find_solve(const MemoKey& key) {
  const DotSolution* hit = solves_.find(key);
  SolverCacheMetrics& metrics = SolverCacheMetrics::instance();
  if (hit != nullptr) {
    ++stats_.solve_hits;
    metrics.solve_hits.inc();
  } else {
    ++stats_.solve_misses;
    metrics.solve_misses.inc();
  }
  return hit;
}

void SolverCache::insert_solve(MemoKey key, const DotSolution& solution) {
  const std::uint64_t before = solves_.evictions();
  solves_.insert(std::move(key), solution);
  const std::uint64_t evicted = solves_.evictions() - before;
  stats_.evictions += evicted;
  if (evicted > 0) SolverCacheMetrics::instance().evictions.inc(evicted);
}

SolverCacheStats SolverCache::stats() const noexcept { return stats_; }

void SolverCache::clear() {
  cliques_.clear();
  branches_.clear();
  solves_.clear();
}

}  // namespace odn::core
