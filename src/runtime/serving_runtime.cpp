#include "runtime/serving_runtime.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

#include "core/plan_cache.h"
#include "core/solver_cache.h"
#include "obs/trace.h"
#include "util/fmt.h"
#include "util/logging.h"
#include "util/mathx.h"
#include "util/stopwatch.h"

namespace odn::runtime {

// The single-cell placement backend: one controller, gated by the fault
// injector's cell-0 state.
class ServingRuntime::Backend final : public PlacementBackend {
 public:
  Backend(ServingRuntime& runtime, RuntimeReport& report)
      : PlacementBackend(Traits{"ServingRuntime", "runtime",
                                "runtime.epoch", "runtime.admit",
                                "odn_runtime_epochs_total", true, true}),
        rt_(runtime),
        live_radio_(runtime.radio_),
        report_(report) {}

  std::size_t cell_count() const noexcept override { return 1; }
  Cell cell(std::size_t) override {
    return {rt_.controller_, live_radio_, rt_.resources_.compute_capacity_s,
            report_.watermarks, loop().books().classes};
  }

  // A crashed or budget-exhausted cell rejects without solving; the
  // rejection enters the same backoff machinery as a capacity miss. Under
  // scheduling the ladder is the whole admission (rung 1 is the plain
  // probe).
  Placement place(const core::DotTask& task, double now, bool ladder) override {
    if (!loop().injector().state(0).accepting()) return {};
    if (ladder) {
      sched::ControllerSchedHost host(rt_.controller_, rt_.catalog_,
                                      loop().catalog_digest());
      return loop().run_ladder(0, host, task, now);
    }
    const core::DeploymentPlan plan = rt_.controller_.admit_incremental(
        rt_.catalog_, {task}, loop().catalog_digest());
    if (plan.tasks.size() != 1 || !plan.tasks[0].admitted) return {};
    return Placement{true, 0, false, plan.tasks[0]};
  }
  bool release(const std::string& name) override {
    return rt_.controller_.release(name);
  }

  void crash(std::size_t) override { rt_.controller_.reset(); }
  void derate_radio(std::size_t, double factor) override {
    live_radio_ = factor == 1.0 ? rt_.radio_ : rt_.radio_.scaled(factor);
    rt_.controller_.set_radio(live_radio_);
  }

  void close_epoch(double now, std::size_t epoch, EpochMeasure& m,
                   const util::Stopwatch& watch) override {
    EpochSnapshot snapshot{now, m.active_tasks,
                           rt_.controller_.deployed_blocks().size(),
                           m.samples(), /*p95_latency_s=*/0.0,
                           m.slo_violations, m.gpu_busy_fraction};
    if (!m.latencies.empty())
      snapshot.p95_latency_s = util::percentile(std::move(m.latencies), 95.0);
    loop().seal_epoch(now, epoch, snapshot.samples, snapshot.p95_latency_s);
    snapshot.measure_wall_s = watch.elapsed_seconds();
    report_.timeline.push_back(snapshot);
  }

  void finish() override {
    report_.deployed_blocks_at_end = rt_.controller_.deployed_blocks().size();
  }

 private:
  ServingRuntime& rt_;
  edge::RadioModel live_radio_;  // derated while a radio fault is active
  RuntimeReport& report_;
};

void RuntimeOptions::validate() const {
  validate_loop("RuntimeOptions");
  if (!faults.empty() && faults.cell_count != 1)
    throw std::invalid_argument(
        "RuntimeOptions: fault plan targets more than one cell");
  if (batching.enabled) batching.validate();
  if (alerts.enabled) {
    alerts.validate();
    if (epoch_s <= 0.0)
      throw std::invalid_argument(
          "RuntimeOptions: alerting needs a positive epoch cadence");
  }
}

ServingRuntime::ServingRuntime(edge::DnnCatalog catalog,
                               edge::EdgeResources resources,
                               edge::RadioModel radio,
                               std::vector<core::DotTask> templates,
                               RuntimeOptions options)
    : catalog_(std::move(catalog)),
      resources_(resources),
      radio_(radio),
      templates_(std::move(templates)),
      options_(std::move(options)),
      controller_(resources_, radio_, options_.controller) {
  options_.validate();
  if (templates_.empty())
    throw std::invalid_argument("ServingRuntime: no task templates");
  // Batching-aware admission probes: scale every template option's
  // compute cost to the expected amortized per-request cost, so the solver
  // and dispatcher admit against coalesced dispatches. Strict no-op when
  // batching is disabled (apply_batching_probe returns untouched).
  model::apply_batching_probe(templates_, options_.batching);
}

RuntimeReport ServingRuntime::run(const WorkloadTrace& trace) {
  ODN_TRACE_SPAN("runtime", "runtime.run");
  util::Stopwatch run_watch;
  controller_.reset();
  // A previous faulted run may have left the controller's radio derated;
  // every run starts from the base model.
  controller_.set_radio(radio_);

  RuntimeReport report;
  report.trace_name = trace.name;
  report.seed = options_.seed;
  report.horizon_s = trace.horizon_s;
  report.watermarks.memory_capacity_bytes = resources_.memory_capacity_bytes;
  report.watermarks.compute_capacity_s = resources_.compute_capacity_s;
  report.watermarks.rb_capacity = resources_.total_rbs;

  Backend backend(*this, report);
  ServingLoop loop(options_, options_.batching, options_.alerts, templates_,
                   catalog_, backend);
  loop.run(trace);
  loop.move_books(report);
  report.batching = loop.books().batching;
  report.alerts = std::move(loop.books().alerts);
  report.run_wall_s = run_watch.elapsed_seconds();

  util::log_info("runtime",
                 "churn run '{}': {} events, {} epochs, {}/{} admitted, "
                 "{} SLO violations, {} active at end",
                 trace.name, report.events_processed, report.epochs,
                 report.total_admitted(), report.total_arrivals(),
                 report.total_slo_violations(), report.active_at_end);
  // Warm-start accounting (DESIGN.md §8). Purely informational: hits are
  // bit-identical to cold solves, so these numbers never change a report.
  if (const std::shared_ptr<core::PlanCache>& plans = controller_.plan_cache()) {
    const core::PlanCacheStats s = plans->stats();
    util::log_info("runtime", "plan cache: {} hits, {} misses, {} evictions",
                   s.hits, s.misses, s.evictions);
  }
  if (const core::SolverCache* memo = controller_.solver_cache()) {
    const core::SolverCacheStats s = memo->stats();
    util::log_info("runtime",
                   "solver memos: cliques {}/{}, branches {}/{}, "
                   "solves {}/{} (hits/misses), {} evictions",
                   s.clique_hits, s.clique_misses, s.branch_hits,
                   s.branch_misses, s.solve_hits, s.solve_misses,
                   s.evictions);
  }
  return report;
}

}  // namespace odn::runtime
