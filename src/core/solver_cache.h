// Per-controller memoization inside the DOT solvers (DESIGN.md §8):
//
//  - clique memo: a task's filtered-and-sorted clique depends only on the
//    (catalog, task) encoding, not on the rest of the instance, so tree
//    construction reuses cliques across epochs and across sibling
//    instances (the stored vertices are task_index-free; the tree patches
//    the index on reuse);
//  - branch (z, r) memo: BranchOptimizer::optimize + evaluate is a pure
//    function of (globals, decision-vector size, the chosen (task,
//    option) pairs) — rejected/skipped tasks don't enter the optimization
//    — so beam branches and first-fit branches reuse sub-solutions even
//    when tasks outside the chosen set churned;
//  - full-solve memo: the complete DotSolution keyed by solver options +
//    the whole instance encoding (the warm path for unchanged epochs).
//
// All keys are exact canonical encodings (core/fingerprint.h), except that
// the clique/branch keys compress their catalog component to the 128-bit
// digest of its exact encoding (a process works against a handful of
// catalogs; the differential suite hammers exactly this compression). The
// cache is owned by one controller and must only be touched from serial
// sections — solvers look memos up before and insert after any parallel
// fan-out, which keeps hit/miss counts ODN_THREADS-invariant.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/lru_map.h"
#include "core/solution.h"
#include "core/tree.h"

namespace odn::core {

struct SolverCacheStats {
  std::uint64_t clique_hits = 0;
  std::uint64_t clique_misses = 0;
  std::uint64_t branch_hits = 0;
  std::uint64_t branch_misses = 0;
  std::uint64_t solve_hits = 0;
  std::uint64_t solve_misses = 0;
  std::uint64_t evictions = 0;
};

class SolverCache {
 public:
  struct Options {
    std::size_t clique_capacity = 4096;
    std::size_t branch_capacity = 2048;
    std::size_t solve_capacity = 128;
  };

  SolverCache();
  explicit SolverCache(Options options);

  // One task's feasibility-filtered, invariant-sorted clique. Stored with
  // task_index unset (the same task can sit at different indices in
  // different instances); SolutionTree patches it on reuse.
  struct CliqueEntry {
    std::vector<TreeVertex> vertices;
    std::size_t filtered = 0;
  };
  const CliqueEntry* find_clique(const MemoKey& key);
  void insert_clique(MemoKey key, CliqueEntry entry);

  // One optimized branch: the (z, r) decisions and their evaluated cost.
  struct BranchEntry {
    std::vector<TaskDecision> decisions;
    CostBreakdown cost;
  };
  const BranchEntry* find_branch(const MemoKey& key);
  void insert_branch(MemoKey key, BranchEntry entry);

  const DotSolution* find_solve(const MemoKey& key);
  void insert_solve(MemoKey key, const DotSolution& solution);

  SolverCacheStats stats() const noexcept;
  void clear();

 private:
  LruMap<CliqueEntry> cliques_;
  LruMap<BranchEntry> branches_;
  LruMap<DotSolution> solves_;
  SolverCacheStats stats_;
};

}  // namespace odn::core
