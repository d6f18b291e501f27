// Multi-cell federation of the serving runtime: the shared ServingLoop
// (runtime/serving_loop.h) drives the churn workload against a
// ClusterDispatcher instead of a single controller. Arrivals are placed
// by the configured policy (with spillover), rejections enter the shared
// retry/backoff policy, and at every epoch boundary each cell's live
// deployment is measured by its own EdgeEmulator stream. When a cell's
// epoch measurement shows SLO violations, up to migration_batch of its
// lowest-priority active jobs are probed on sibling cells and moved when a
// probe admits (flash-crowd migration) — a move is release + re-admit, so
// per-cell ledgers can never be violated by migration.
//
// Determinism contract: given equal (catalog, cells, templates, options,
// trace), two runs produce byte-identical cluster JSON reports for any
// ODN_THREADS setting and for serial vs parallel cost_probe fan-out —
// cells own independent ledgers, probe results reduce in fixed cell order
// with strict `<` tie-breaking, and every stochastic draw comes from
// seeded per-(epoch, cell) Rng streams.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster_stats.h"
#include "cluster/dispatcher.h"
#include "runtime/serving_loop.h"
#include "runtime/workload.h"

namespace odn::cluster {

struct ClusterOptions : runtime::LoopOptions {
  // A non-empty fault plan (LoopOptions::faults) must match the cluster's
  // cell count. Enabled scheduling runs the preemption ladder on an
  // arrival the dispatcher rejects, per cell in the order the dispatcher
  // tried them (preferred first, then accepting siblings when spillover
  // is on).
  DispatcherOptions dispatch{};
  // Flash-crowd migration: after an epoch measurement, every cell with
  // SLO violations offers its migration_batch lowest-priority active jobs
  // to the sibling cells (highest normalized headroom first).
  bool migrate_on_slo = true;
  std::size_t migration_batch = 2;

  void validate() const;
};

class ClusterRuntime {
 public:
  ClusterRuntime(edge::DnnCatalog catalog, std::vector<CellSpec> cells,
                 edge::RadioModel radio,
                 std::vector<core::DotTask> templates,
                 ClusterOptions options = {});

  // Replays the trace from t=0 on freshly reset cells and returns the
  // cluster accounting report.
  ClusterReport run(const runtime::WorkloadTrace& trace);

  std::size_t class_of(double priority) const noexcept {
    return options_.class_of(priority);
  }

  const ClusterDispatcher& dispatcher() const noexcept { return dispatcher_; }
  ClusterDispatcher& dispatcher() noexcept { return dispatcher_; }

 private:
  class Backend;  // the loop's dispatcher placement backend

  edge::DnnCatalog catalog_;
  edge::RadioModel radio_;
  std::vector<core::DotTask> templates_;
  ClusterOptions options_;
  ClusterDispatcher dispatcher_;
};

}  // namespace odn::cluster
