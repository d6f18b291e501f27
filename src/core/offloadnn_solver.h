// The OffloaDNN heuristic — paper Sec. IV-B.
//
// Exploits the clique invariant (vertices sorted by increasing inference
// compute time) and selects the *first* branch: walking layers from the
// highest-priority task down, it picks at each layer the leftmost vertex
// that keeps cumulative unique-block memory within M; if no vertex fits,
// the task gets no path (rejected). One per-branch (z, r) optimization run
// then yields the final solution. Complexity O(T²) in the number of tasks
// (each layer scans a constant-bounded clique; the branch optimizer is
// O(T) per task).
//
// An optional beam-search extension (beam_width > 1) keeps the k best
// partial branches ranked by committed resource cost and optimizes each
// complete branch, returning the cheapest — a future-work-flavoured knob
// benchmarked in bench/bench_ablation_ordering.cpp.
#pragma once

#include <cstddef>
#include <string_view>

#include "core/solution.h"
#include "core/tree.h"

namespace odn::core {

class SolverCache;

// How each clique is ordered before first-fit selection — the design
// choice the paper motivates (inference-compute-time ordering); the other
// orderings exist for the ablation study.
enum class CliqueOrdering {
  kInferenceTime,  // the paper's choice
  kMemory,         // smallest unique path memory first
  kAccuracy,       // highest accuracy first (quality-greedy)
  kNone,           // catalog order (no sorting)
};

struct OffloadnnOptions {
  CliqueOrdering ordering = CliqueOrdering::kInferenceTime;
  std::size_t beam_width = 1;  // 1 = the paper's first-branch selection
};

class OffloadnnSolver {
 public:
  explicit OffloadnnSolver(OffloadnnOptions options = {});

  DotSolution solve(const DotInstance& instance) const;
  // Warm-startable solve: `cache` memoizes cliques, per-branch (z, r)
  // sub-solutions and full solutions across calls (DESIGN.md §8). The
  // result is bit-identical to the cold overload for any cache state —
  // keys are exact instance encodings, so a hit proves equality. Pass the
  // owning controller's cache from serial contexts only.
  DotSolution solve(const DotInstance& instance, SolverCache* cache) const;
  // As above, with the instance catalog's key digest precomputed by the
  // caller — the one O(blocks) key component, so callers that already know
  // it (the controller composes it from the caller catalog's digest and
  // the deployed-block patch) skip the encode entirely. `catalog_fp` must
  // identify instance.catalog's content: pass catalog_digest(...) or a
  // composed lineage digest that is injective over the content.
  // `encoded_tasks`, when given, must be EncodedTaskSet(instance.tasks):
  // the solve key, the branch-memo prefix and the clique keys splice it
  // instead of re-encoding the request set.
  DotSolution solve(const DotInstance& instance, SolverCache* cache,
                    const Fingerprint* catalog_fp,
                    const EncodedTaskSet* encoded_tasks = nullptr) const;

 private:
  DotSolution solve_first_branch(const DotInstance& instance,
                                 const SolutionTree& tree, SolverCache* cache,
                                 std::string_view branch_prefix) const;
  DotSolution solve_beam(const DotInstance& instance,
                         const SolutionTree& tree, SolverCache* cache,
                         std::string_view branch_prefix) const;

  OffloadnnOptions options_;
};

}  // namespace odn::core
