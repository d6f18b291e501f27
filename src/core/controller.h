// The OffloaDNN controller — the Fig. 4 workflow.
//
// Mobile devices submit task admission requests (step 1); the controller
// pulls DNN block availability and resource capacities (step 2), solves the
// DOT problem (step 3), allocates radio slices and computing resources
// (step 4), deploys the selected DNN blocks (step 5) and reports the
// admitted task rates back to the devices (step 6). Step 7 (input
// transmission and inference) is carried out by the emulator in odn_sim.
//
// The controller also supports the paper's dynamic extension (Sec. III-B,
// final remark): newly requested tasks can be admitted incrementally by
// treating already-deployed blocks as free (zero memory and training cost)
// and discounting the committed capacities.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/fingerprint.h"
#include "core/lru_map.h"
#include "core/offloadnn_solver.h"
#include "core/optimal_solver.h"
#include "core/solution.h"
#include "core/solver_cache.h"
#include "edge/resources.h"

namespace odn::core {

class PlanCache;

// Warm-start/caching knobs (DESIGN.md §8). Defaults keep every cache on:
// cached paths return results bit-identical to a cold solve (the
// differential suite enforces this), so the only observable differences
// are speed and the odn_*_cache_* metrics.
struct CacheOptions {
  // Memoize whole DeploymentPlans keyed by the exact (state, request-set)
  // encoding. The cluster dispatcher replaces the per-controller cache
  // with one shared across cells.
  bool plan_cache = true;
  std::size_t plan_capacity = 256;
  // Memoize cliques, per-branch (z, r) sub-solutions and full solutions
  // inside the solvers.
  bool solver_cache = true;
  SolverCache::Options solver{};
};

struct TaskPlan {
  std::string task_name;
  bool admitted = false;
  double admission_ratio = 0.0;
  double admitted_rate = 0.0;  // z_τ · λ_τ, images/s the device may send
  std::size_t slice_rbs = 0;
  std::vector<edge::BlockIndex> blocks;  // execution path at the edge
  double expected_latency_s = 0.0;       // model-predicted end-to-end
  double latency_bound_s = 0.0;          // the task's L_τ requirement
  double accuracy = 0.0;
  double inference_time_s = 0.0;         // Σ c(s) over the path
  double input_bits = 0.0;               // β(q) per image
  // Flight-recorder correlation id carried from TaskSpec.correlation.
  // Like task_name, it is caller-facing metadata: plan-cache keys are
  // blind to it and cache hits rewrite it positionally; ~0 = unset.
  std::uint64_t correlation = ~std::uint64_t{0};
};

struct DeploymentPlan {
  DotSolution solution;
  std::vector<TaskPlan> tasks;
  std::vector<edge::BlockIndex> deployed_blocks;  // distinct, newly deployed
  double memory_committed_bytes = 0.0;
  double compute_committed_s = 0.0;
  std::size_t rbs_committed = 0;
};

// Thread rule: a controller is touched by one thread at a time, const
// probes included — they write the `mutable` accelerators (solver memo,
// patched-catalog memo) without locks. Concurrent probes must therefore
// target different controllers, as the cluster fan-out does (each cell in
// exactly one lane).
class OffloadnnController {
 public:
  struct Options {
    bool use_optimal_solver = false;  // exhaustive DOT solve (small scale)
    OffloadnnOptions heuristic{};     // heuristic configuration otherwise
    double alpha = 0.5;
    CacheOptions cache{};
  };

  OffloadnnController(const edge::EdgeResources& resources,
                      edge::RadioModel radio, Options options);
  OffloadnnController(const edge::EdgeResources& resources,
                      edge::RadioModel radio);

  // One-shot admission: solve DOT for the request set against the full
  // capacities, commit the allocation, and return the plan. Resets any
  // previous deployment.
  DeploymentPlan admit(const edge::DnnCatalog& catalog,
                       const std::vector<DotTask>& requests);

  // Incremental admission: already-deployed blocks cost nothing, committed
  // resources are discounted. Admitted tasks add to the deployment. The
  // optional `digest` (must equal catalog_digest(catalog)) saves the
  // O(blocks) catalog encode the cache keys otherwise pay — callers that
  // issue many admissions against one catalog compute it once. Likewise
  // the optional `encoded` (must equal EncodedTaskSet(requests)) saves
  // the request-set encode: callers that plan one request set on several
  // cells or attempts encode it once. `requests` is copied only when the
  // plan cache misses (the solver needs its own DotInstance).
  DeploymentPlan admit_incremental(const edge::DnnCatalog& catalog,
                                   const std::vector<DotTask>& requests,
                                   const Fingerprint* digest = nullptr,
                                   const EncodedTaskSet* encoded = nullptr);

  // Dry-run of admit_incremental: solves the same discounted instance and
  // returns the plan admit_incremental would commit, without mutating the
  // controller. The cluster dispatcher's cost_probe placement fans these
  // out across cells (const = safe to probe sibling cells concurrently);
  // determinism follows from the solve being the exact code path the
  // subsequent admission runs. `digest` and `encoded` as in
  // admit_incremental.
  DeploymentPlan probe_incremental(
      const edge::DnnCatalog& catalog, const std::vector<DotTask>& requests,
      const Fingerprint* digest = nullptr,
      const EncodedTaskSet* encoded = nullptr) const;

  // probe_incremental with the plan cache bypassed (the solver memos still
  // apply). The cluster dispatcher solves shared-cache misses through this
  // in parallel, keeping every access to the shared cache itself serial.
  DeploymentPlan probe_incremental_uncached(
      const edge::DnnCatalog& catalog, const std::vector<DotTask>& requests,
      const Fingerprint* digest = nullptr,
      const EncodedTaskSet* encoded = nullptr) const;

  // Canonical cache key of the incremental sub-instance `requests` against
  // the current committed state (options, discounted capacities, ledger
  // usage, deployed blocks, radio, catalog digest, request set). Equal
  // keys guarantee bit-identical probe results; the cluster dispatcher
  // groups per-cell probes by this key to deduplicate the fan-out. The
  // optional precomputed `digest` (must be catalog_digest(catalog)) and
  // `encoded` (must be EncodedTaskSet(requests)) let that fan-out encode
  // the catalog and the request once instead of once per cell.
  MemoKey probe_cache_key(const edge::DnnCatalog& catalog,
                          const std::vector<DotTask>& requests,
                          const Fingerprint* digest = nullptr,
                          const EncodedTaskSet* encoded = nullptr) const;

  // Replaces the plan cache (by default a private per-controller one) —
  // the dispatcher points every cell at one shared instance so identical
  // probes collapse across cells. nullptr disables plan caching.
  void set_plan_cache(std::shared_ptr<PlanCache> cache);
  const std::shared_ptr<PlanCache>& plan_cache() const noexcept {
    return plan_cache_;
  }
  const SolverCache* solver_cache() const noexcept {
    return solver_cache_.get();
  }

  // Task departure (dynamic churn): releases the task's radio slice and
  // compute commitment and undeploys blocks no other active task uses.
  // Returns false when no active task has that name.
  bool release(const std::string& task_name);

  // Names of the currently active (admitted, not released) tasks.
  std::vector<std::string> active_tasks() const;

  // Swaps the radio model used by future solves (fault injection: a
  // degraded or restored cell radio). Existing commitments are untouched —
  // the caller re-validates active tasks by releasing and re-admitting
  // them under the new model.
  void set_radio(const edge::RadioModel& radio) { radio_ = radio; }
  const edge::RadioModel& radio() const noexcept { return radio_; }

  const edge::ResourceLedger& ledger() const noexcept { return ledger_; }
  const std::vector<edge::BlockIndex>& deployed_blocks() const noexcept {
    return deployed_blocks_;
  }

  void reset();

 private:
  // Per-task resource commitment, recorded at admission so departures can
  // return exactly what the task took.
  struct TaskCommitment {
    std::string name;
    double compute_s = 0.0;    // z λ Σc
    double shared_rbs = 0.0;   // z · r
    std::vector<edge::BlockIndex> blocks;
  };

  // Solve-and-assemble phase: builds the (possibly discounted) instance,
  // runs the solver and produces the full plan. Const — commits nothing
  // (the caches it warms are accelerators whose hits are bit-identical to
  // cold solves, so probe results stay semantically const).
  DeploymentPlan plan(const edge::DnnCatalog& catalog,
                      const std::vector<DotTask>& requests, bool incremental,
                      bool use_plan_cache, const Fingerprint* digest,
                      const EncodedTaskSet* encoded) const;
  // The canonical encoding plan() keys its cache on: exact in every
  // component except the catalog, which enters as its 128-bit digest.
  MemoKey plan_key(const edge::DnnCatalog& catalog,
                   const EncodedTaskSet& requests, bool incremental,
                   const Fingerprint& catalog_fp) const;
  // Commitment phase: records the plan's admitted tasks as active
  // commitments and rebuilds the ledger. `catalog` supplies block memory.
  void commit(const DeploymentPlan& plan, const edge::DnnCatalog& catalog);
  // Recomputes the ledger and deployed-block list from active_tasks_.
  void rebuild_ledger();
  // `catalog` with every deployed block's µ and ct zeroed — the catalog an
  // incremental solve sees. Memoized: rebuilt when the caller's block
  // table (by identity) differs from the last call, and patched in place,
  // O(changed blocks), when only the deployed set differs.
  const edge::DnnCatalog& patched_catalog(
      const edge::DnnCatalog& catalog) const;

  edge::EdgeResources resources_;
  edge::RadioModel radio_;
  Options options_;
  edge::ResourceLedger ledger_;
  std::vector<edge::BlockIndex> deployed_blocks_;
  std::vector<TaskCommitment> active_;
  // rebuild_ledger()'s seen-block marks, indexed by block; all zero
  // between calls (reused so a rebuild allocates nothing).
  std::vector<unsigned char> block_marks_;
  // Memory of every block ever seen at admission (release needs it after
  // the admitting catalog has gone out of scope).
  std::unordered_map<edge::BlockIndex, double> block_memory_;
  // Solve accelerators (DESIGN.md §8), mutable behind const probes. Both
  // survive reset(): entries are keyed by the full state, so stale keys
  // can never falsely hit — warmth only ever changes speed, not bits.
  mutable std::shared_ptr<PlanCache> plan_cache_;
  mutable std::unique_ptr<SolverCache> solver_cache_;
  // patched_catalog() memo: the patched catalog, the caller catalog it was
  // built from (a copy, which pins that block table) and the deployed set
  // it zeroed.
  mutable edge::DnnCatalog patched_;
  mutable edge::DnnCatalog patched_source_;
  mutable std::vector<edge::BlockIndex> patched_deployed_;
};

}  // namespace odn::core
