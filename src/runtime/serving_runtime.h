// Long-horizon serving runtime — the subsystem that runs the paper's
// Sec. III-B dynamic scenario over time instead of as a one-shot solve.
//
// The shared ServingLoop (runtime/serving_loop.h) drives a churn workload
// against one controller: arrivals run the controller's incremental
// admission (or, under scheduling, the preemption ladder), and every epoch
// the live deployment is emulated to collect *measured* latencies, which
// feed the per-priority-class SLO accounting in RuntimeReport.
//
// Determinism contract: given equal (catalog, resources, templates,
// options, trace), two runs produce byte-identical JSON reports for any
// ODN_THREADS setting — the controller's parallel plan assembly is
// bit-identical to serial (see util/thread_pool.h) and every stochastic
// draw comes from seeded Rng instances owned by this loop.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/controller.h"
#include "model/batching.h"
#include "obs/alerts.h"
#include "runtime/serving_loop.h"
#include "runtime/stats.h"
#include "runtime/workload.h"

namespace odn::runtime {

struct RuntimeOptions : LoopOptions {
  // A non-empty fault plan (LoopOptions::faults) must target one cell.
  //
  // Epoch-boundary request batching (model/batching.h). Disabled is a
  // strict no-op: admission probes keep compute_scale = 1.0 and the epoch
  // emulator takes its exact pre-batching code path, so the report stays
  // byte-identical for any ODN_THREADS.
  model::BatchingOptions batching{};
  // SLO burn-rate alerting (obs/alerts.h), evaluated over the per-class
  // violation counters at every epoch boundary. Disabled is a strict
  // no-op: the report stays byte-identical (no "alerts" block) and the
  // epoch loop pays one null check.
  obs::AlertOptions alerts{};

  void validate() const;
};

class ServingRuntime {
 public:
  ServingRuntime(edge::DnnCatalog catalog, edge::EdgeResources resources,
                 edge::RadioModel radio,
                 std::vector<core::DotTask> templates,
                 RuntimeOptions options = {});

  // Replays the trace from t=0 on a freshly reset controller and returns
  // the accounting report. The trace's template_count must match the
  // template set handed to the constructor.
  RuntimeReport run(const WorkloadTrace& trace);

  // Priority-class index of a template priority (exposed for tests).
  std::size_t class_of(double priority) const noexcept {
    return options_.class_of(priority);
  }

  const core::OffloadnnController& controller() const noexcept {
    return controller_;
  }

 private:
  class Backend;  // the loop's single-controller placement backend

  edge::DnnCatalog catalog_;
  edge::EdgeResources resources_;
  edge::RadioModel radio_;
  std::vector<core::DotTask> templates_;
  RuntimeOptions options_;
  core::OffloadnnController controller_;
};

}  // namespace odn::runtime
