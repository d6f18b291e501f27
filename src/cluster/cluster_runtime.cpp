#include "cluster/cluster_runtime.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sched/policy.h"
#include "util/fmt.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace odn::cluster {

using runtime::Job;
using runtime::Placement;

// The cluster placement backend: the dispatcher places (policy +
// spillover over the accepting cells) and owns each cell's controller and
// radio; the report keeps per-cell books; epochs add the migration pass.
//
// It is also the preemption ladder's host for the cell it ladders on:
// probes are const dry-runs on that cell's controller, commits go through
// ClusterDispatcher::admit_on and releases through the dispatcher's owner
// map, so the ladder can never leave ownership bookkeeping and cell
// ledgers disagreeing.
class ClusterRuntime::Backend final : public runtime::PlacementBackend,
                                     public sched::SchedHost {
 public:
  Backend(ClusterRuntime& runtime, ClusterReport& report)
      : PlacementBackend(Traits{"ClusterRuntime", "cluster", "cluster.epoch",
                                nullptr, "odn_cluster_epochs_total", false,
                                false}),
        dispatcher_(runtime.dispatcher_),
        catalog_(runtime.catalog_),
        options_(runtime.options_),
        report_(report) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
    migrations_attempted_ =
        &registry.counter("odn_cluster_migrations_attempted_total");
    migrations_done_ = &registry.counter("odn_cluster_migrations_total");
    migrations_no_target_ =
        &registry.counter("odn_cluster_migration_no_target_total");
  }

  std::size_t cell_count() const noexcept override {
    return dispatcher_.cell_count();
  }
  // Each cell measures with its own effective radio (derated while a radio
  // fault is active; identical to the shared model otherwise).
  Cell cell(std::size_t index) override {
    const EdgeCell& edge_cell = dispatcher_.cell(index);
    CellReport& books = report_.cells[index];
    return {edge_cell.controller(), edge_cell.radio(),
            edge_cell.resources().compute_capacity_s, books.watermarks,
            books.classes};
  }

  // Plain placement over the accepting cells. Under scheduling, when every
  // accepting cell rejects it, walk the same cell order the dispatcher
  // tried (preferred first, then accepting siblings when spillover is on)
  // and let the preemption ladder downgrade or evict lower-priority jobs
  // served there. Cells with nothing served need no ladder — the plain
  // rejection already is the rung-1 answer.
  Placement place(const core::DotTask& task, double now, bool ladder) override {
    const AdmissionOutcome outcome =
        dispatcher_.admit(catalog_, task, loop().catalog_digest());
    Placement placed{outcome.admitted, outcome.cell, outcome.spilled,
                     outcome.plan, sched::SchedAction::kAdmit};
    const std::size_t preferred = outcome.preferred_cell;
    if (!ladder || placed.admitted || preferred == kNoCell) return placed;
    std::vector<std::size_t> order{preferred};
    if (options_.dispatch.spillover)
      for (std::size_t i = 0; i < cell_count(); ++i)
        if (i != preferred && dispatcher_.accepting(i)) order.push_back(i);
    for (const std::size_t cell : order) {
      if (loop().served(cell).empty()) continue;
      ladder_cell_ = cell;
      Placement laddered = loop().run_ladder(cell, *this, task, now);
      laddered.spilled = cell != preferred;
      if (laddered.admitted) return laddered;
      placed.ladder_ran = true;
    }
    return placed;
  }
  void count_admission(const Placement& placed) override {
    CellReport& cell = report_.cells[placed.cell];
    ++(placed.spilled ? cell.admitted_spillover : cell.admitted_preferred);
  }
  bool release(const std::string& name) override {
    return dispatcher_.release(name) != kNoCell;
  }
  core::DeploymentPlan probe(
      std::vector<core::DotTask> requests) const override {
    return dispatcher_.cell(ladder_cell_).controller().probe_incremental(
        catalog_, std::move(requests), loop().catalog_digest());
  }
  core::DeploymentPlan commit(std::vector<core::DotTask> requests) override {
    return dispatcher_.admit_on(ladder_cell_, catalog_, std::move(requests),
                                loop().catalog_digest());
  }

  void crash(std::size_t cell) override { dispatcher_.crash_cell(cell); }
  void derate_radio(std::size_t cell, double factor) override {
    dispatcher_.cell(cell).set_radio_derate(factor);
  }
  // The admission gate follows the injector state (a recovered cell may
  // still be budget-exhausted, and vice versa).
  void sync_gate(std::size_t cell) override {
    dispatcher_.set_accepting(cell, loop().injector().state(cell).accepting());
  }

  void close_epoch(double now, std::size_t epoch, runtime::EpochMeasure& m,
                   const util::Stopwatch& watch) override {
    ClusterEpochSnapshot snapshot{now, m.active_tasks, m.samples(),
                                  m.slo_violations};
    for (const std::size_t violations : m.violations_by_cell)
      if (violations > 0) ++snapshot.cells_violating;
    if (options_.migrate_on_slo && cell_count() > 1)
      migrate(now, m.violations_by_cell, snapshot);
    loop().seal_epoch(now, epoch, snapshot.samples,
                      static_cast<double>(snapshot.slo_violations));
    snapshot.measure_wall_s = watch.elapsed_seconds();
    report_.timeline.push_back(snapshot);
  }

  void finish() override {
    for (std::size_t i = 0; i < cell_count(); ++i) {
      report_.cells[i].active_at_end = loop().served(i).size();
      report_.cells[i].deployed_blocks_at_end =
          dispatcher_.cell(i).controller().deployed_blocks().size();
    }
  }

 private:
  // Flash-crowd migration: cells under SLO pressure shed their
  // lowest-priority jobs to the sibling with the most headroom that
  // accepts the probe (fixed cell order — deterministic).
  void migrate(double now, const std::vector<std::size_t>& violations_by_cell,
               ClusterEpochSnapshot& snapshot) {
    for (std::size_t source = 0; source < cell_count(); ++source) {
      if (violations_by_cell[source] == 0) continue;
      // Candidates: jobs served at `source`, lowest effective priority
      // first (ties: lower trace id — deterministic).
      const util::IndexSet& served = loop().served(source);
      std::vector<std::size_t> candidates(served.begin(), served.end());
      std::sort(candidates.begin(), candidates.end(),
                [&](std::size_t a, std::size_t b) {
                  const Job& ja = loop().job(a);
                  const Job& jb = loop().job(b);
                  if (ja.priority != jb.priority)
                    return ja.priority < jb.priority;
                  return ja.trace_id < jb.trace_id;
                });
      if (candidates.size() > options_.migration_batch)
        candidates.resize(options_.migration_batch);

      for (const std::size_t job_index : candidates) {
        Job& job = loop().job(job_index);
        ++report_.migration.attempted;
        migrations_attempted_->inc();
        // Target order: highest normalized headroom first, index breaking
        // ties (strict > comparison keeps it deterministic).
        std::vector<std::size_t> targets;
        for (std::size_t i = 0; i < cell_count(); ++i)
          if (i != source) targets.push_back(i);
        std::sort(targets.begin(), targets.end(),
                  [&](std::size_t a, std::size_t b) {
                    const double ha = dispatcher_.cell(a).normalized_headroom();
                    const double hb = dispatcher_.cell(b).normalized_headroom();
                    if (ha != hb) return ha > hb;
                    return a < b;
                  });
        bool moved = false;
        for (const std::size_t target : targets) {
          core::TaskPlan migrated_plan;
          if (!dispatcher_.migrate(catalog_, job.admitted_task, job.name,
                                   target, &migrated_plan,
                                   loop().catalog_digest()))
            continue;
          loop().flight(now, obs::FlightEventKind::kMigration, job.trace_id,
                        target, static_cast<std::uint64_t>(source));
          loop().set_state(job_index, Job::State::kActive, target);
          job.plan = migrated_plan;
          ++report_.migration.migrated;
          migrations_done_->inc();
          ++report_.cells[source].migrations_out;
          ++report_.cells[target].migrations_in;
          ++snapshot.migrations;
          loop().observe_all();
          moved = true;
          break;
        }
        if (!moved) {
          ++report_.migration.no_target;
          migrations_no_target_->inc();
        }
      }
    }
  }

  ClusterDispatcher& dispatcher_;
  const edge::DnnCatalog& catalog_;
  const ClusterOptions& options_;
  ClusterReport& report_;
  std::size_t ladder_cell_ = kNoCell;  // the cell the ladder runs on
  obs::Counter* migrations_attempted_ = nullptr;
  obs::Counter* migrations_done_ = nullptr;
  obs::Counter* migrations_no_target_ = nullptr;
};

void ClusterOptions::validate() const {
  validate_loop("ClusterOptions");
  if (migrate_on_slo && migration_batch == 0)
    throw std::invalid_argument(
        "ClusterOptions: migration enabled with zero batch");
}

ClusterRuntime::ClusterRuntime(edge::DnnCatalog catalog,
                               std::vector<CellSpec> cells,
                               edge::RadioModel radio,
                               std::vector<core::DotTask> templates,
                               ClusterOptions options)
    : catalog_(std::move(catalog)),
      radio_(radio),
      templates_(std::move(templates)),
      options_(std::move(options)),
      dispatcher_(std::move(cells), radio_, options_.controller,
                  options_.dispatch) {
  options_.validate();
  if (templates_.empty())
    throw std::invalid_argument("ClusterRuntime: no task templates");
  if (!options_.faults.empty() &&
      options_.faults.cell_count != dispatcher_.cell_count())
    throw std::invalid_argument(util::fmt(
        "ClusterRuntime: fault plan targets {} cells, cluster has {}",
        options_.faults.cell_count, dispatcher_.cell_count()));
}

ClusterReport ClusterRuntime::run(const runtime::WorkloadTrace& trace) {
  ODN_TRACE_SPAN("cluster", "cluster.run");
  util::Stopwatch run_watch;
  dispatcher_.reset();
  const std::size_t cell_count = dispatcher_.cell_count();
  const std::size_t class_count = options_.class_names.size();

  ClusterReport report;
  report.trace_name = trace.name;
  report.seed = options_.seed;
  report.horizon_s = trace.horizon_s;
  report.policy = placement_policy_name(options_.dispatch.policy);
  report.spillover = options_.dispatch.spillover;
  report.cells.resize(cell_count);
  for (std::size_t i = 0; i < cell_count; ++i) {
    CellReport& cell = report.cells[i];
    const EdgeCell& edge_cell = dispatcher_.cell(i);
    cell.name = edge_cell.name();
    cell.classes.resize(class_count);
    for (std::size_t c = 0; c < class_count; ++c)
      cell.classes[c].name = options_.class_names[c];
    cell.watermarks.memory_capacity_bytes =
        edge_cell.resources().memory_capacity_bytes;
    cell.watermarks.compute_capacity_s =
        edge_cell.resources().compute_capacity_s;
    cell.watermarks.rb_capacity = edge_cell.resources().total_rbs;
  }

  // Batching and alerting are single-cell options today; the loop runs
  // with both disabled.
  const model::BatchingOptions no_batching;
  const obs::AlertOptions no_alerts;
  Backend backend(*this, report);
  runtime::ServingLoop loop(options_, no_batching, no_alerts, templates_,
                            catalog_, backend);
  loop.run(trace);
  loop.move_books(report);
  report.run_wall_s = run_watch.elapsed_seconds();

  util::log_info("cluster",
                 "cluster run '{}': {} cells, policy {}, {} events, "
                 "{} epochs, {}/{} admitted, {} migrations, {} SLO "
                 "violations, {} active at end",
                 trace.name, cell_count, report.policy,
                 report.events_processed, report.epochs,
                 report.total_admitted(), report.total_arrivals(),
                 report.migration.migrated, report.total_slo_violations(),
                 report.active_at_end);
  return report;
}

}  // namespace odn::cluster
