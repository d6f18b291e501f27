#include "cluster/cluster_runtime.h"

#include <algorithm>
#include <queue>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "fault/injector.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sched/conservation.h"
#include "sched/deadline_monitor.h"
#include "sched/policy.h"
#include "sim/emulator.h"
#include "util/fmt.h"
#include "util/index_set.h"
#include "util/logging.h"
#include "util/mathx.h"
#include "util/stopwatch.h"

namespace odn::cluster {
namespace {

enum class LoopEventKind : std::uint8_t {
  kArrival,
  kDeparture,
  kRetry,
  kEpoch,
};

struct LoopEvent {
  double time = 0.0;
  std::uint64_t sequence = 0;  // deterministic tie-break: push order
  LoopEventKind kind = LoopEventKind::kArrival;
  std::size_t job = 0;  // index into the jobs vector (epoch index for kEpoch)

  bool operator>(const LoopEvent& other) const noexcept {
    if (time != other.time) return time > other.time;
    return sequence > other.sequence;
  }
};

struct Job {
  std::uint64_t trace_id = 0;
  std::size_t template_index = 0;
  std::size_t class_index = 0;
  std::string name;
  std::size_t attempts = 0;
  // Effective priority and admit-by deadline. Without scheduling (or QoS
  // annotations) these mirror the template priority and the configured
  // default, so every pre-sched code path reads identical values.
  double priority = 0.0;
  double deadline_s = 0.0;
  // Displaced by a fault (crash / radio re-validation): retries route to
  // the readmission path and all accounting goes to the fault ledger.
  bool readmitting = false;
  // Ladder outcomes (scheduling only): evicted by the preemption rung /
  // re-shaped by the downgrade rung. Like `readmitting`, sched_preempted
  // routes the job's retries to the sched readmission path.
  bool sched_preempted = false;
  bool sched_downgraded = false;
  std::size_t cell = kNoCell;  // owning cell while kActive
  enum class State : std::uint8_t {
    kPending,
    kActive,
    kRejected,
    kDeparted,
  } state = State::kPending;
  core::TaskPlan plan;        // valid while kActive
  core::DotTask admitted_task;  // the (possibly downgraded) admitted spec
};

// Same SplitMix64-style odd-constant mix as the single-cell runtime; the
// stream index interleaves (epoch, cell) so every cell of every epoch gets
// an independent, reproducible emulation stream.
std::uint64_t epoch_seed(std::uint64_t base, std::size_t stream) noexcept {
  return base + 0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(stream) + 1);
}

// Ladder host over one dispatcher cell. Probes are const dry-runs on that
// cell's controller; commits go through ClusterDispatcher::admit_on and
// releases through the dispatcher's owner map, so the ladder can never
// leave ownership bookkeeping and cell ledgers disagreeing.
class DispatcherSchedHost final : public sched::SchedHost {
 public:
  DispatcherSchedHost(ClusterDispatcher& dispatcher, std::size_t cell,
                      const edge::DnnCatalog& catalog,
                      const core::Fingerprint* digest)
      : dispatcher_(dispatcher),
        cell_(cell),
        catalog_(catalog),
        digest_(digest) {}

  core::DeploymentPlan probe(
      std::vector<core::DotTask> requests) const override {
    return dispatcher_.cell(cell_).controller().probe_incremental(
        catalog_, std::move(requests), digest_);
  }
  core::DeploymentPlan commit(std::vector<core::DotTask> requests) override {
    return dispatcher_.admit_on(cell_, catalog_, std::move(requests),
                                digest_);
  }
  bool release(const std::string& name) override {
    return dispatcher_.release(name) != kNoCell;
  }

 private:
  ClusterDispatcher& dispatcher_;
  std::size_t cell_;
  const edge::DnnCatalog& catalog_;
  const core::Fingerprint* digest_;
};

}  // namespace

void ClusterOptions::validate() const {
  if (epoch_s < 0.0)
    throw std::invalid_argument("ClusterOptions: negative epoch");
  if (epoch_s > 0.0 && emulation_window_s <= 0.0)
    throw std::invalid_argument(
        "ClusterOptions: non-positive emulation window");
  if (class_names.size() != class_boundaries.size() + 1)
    throw std::invalid_argument(
        "ClusterOptions: class_names must be one longer than boundaries");
  if (!std::is_sorted(class_boundaries.begin(), class_boundaries.end()))
    throw std::invalid_argument(
        "ClusterOptions: class boundaries must be ascending");
  if (migrate_on_slo && migration_batch == 0)
    throw std::invalid_argument(
        "ClusterOptions: migration enabled with zero batch");
  if (!faults.empty()) {
    faults.validate();
    if (epoch_s <= 0.0)
      throw std::invalid_argument(
          "ClusterOptions: fault plan needs a positive epoch cadence");
  }
  if (sched.enabled) sched.validate();
  retry.validate();
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

std::size_t ClusterRuntime::class_of(double priority) const noexcept {
  std::size_t index = 0;
  while (index < options_.class_boundaries.size() &&
         priority >= options_.class_boundaries[index])
    ++index;
  return index;
}

ClusterReport ClusterRuntime::run(const runtime::WorkloadTrace& trace) {
  ODN_TRACE_SPAN("cluster", "cluster.run");
  util::Stopwatch run_watch;
  trace.validate();
  if (trace.template_count != templates_.size())
    throw std::invalid_argument(util::fmt(
        "ClusterRuntime: trace indexes {} templates, runtime has {}",
        trace.template_count, templates_.size()));

  dispatcher_.reset();
  const std::size_t cell_count = dispatcher_.cell_count();
  const std::size_t class_count = options_.class_names.size();

  // The catalog is fixed for the whole run: one digest up front serves
  // every admission's and migration's cache keys instead of one O(blocks)
  // encode per call. Skipped when no cache would read it.
  core::Fingerprint catalog_fp;
  const core::Fingerprint* catalog_fp_ptr = nullptr;
  if (dispatcher_.plan_cache() != nullptr ||
      (cell_count > 0 &&
       dispatcher_.cell(0).controller().solver_cache() != nullptr)) {
    catalog_fp = core::catalog_digest(catalog_);
    catalog_fp_ptr = &catalog_fp;
  }

  ClusterReport report;
  report.trace_name = trace.name;
  report.seed = options_.seed;
  report.horizon_s = trace.horizon_s;
  report.policy = placement_policy_name(options_.dispatch.policy);
  report.spillover = options_.dispatch.spillover;
  report.classes.resize(class_count);
  for (std::size_t c = 0; c < class_count; ++c)
    report.classes[c].name = options_.class_names[c];
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

  auto observe_cell = [&](std::size_t i) {
    const edge::ResourceLedger& ledger =
        dispatcher_.cell(i).controller().ledger();
    runtime::ResourceWatermarks& w = report.cells[i].watermarks;
    w.peak_memory_bytes =
        std::max(w.peak_memory_bytes, ledger.memory_used_bytes());
    w.peak_compute_s = std::max(w.peak_compute_s, ledger.compute_used_s());
    w.peak_rbs = std::max(w.peak_rbs, ledger.rbs_used());
  };

  // Fault injection: the injector replays the plan at epoch boundaries;
  // recovery re-places displaced jobs through the dispatcher (policy +
  // spillover over the accepting cells). Fault metrics only enter the
  // global registry when a plan is configured.
  fault::FaultInjector injector(options_.faults);
  report.faults.enabled = !options_.faults.empty();
  obs::Counter* fault_events_total = nullptr;
  obs::Counter* fault_displaced_total = nullptr;
  obs::Counter* fault_replacements_total = nullptr;
  obs::Counter* fault_rejections_total = nullptr;
  if (!injector.idle()) {
    obs::MetricsRegistry& fault_registry = obs::MetricsRegistry::global();
    fault_events_total = &fault_registry.counter("odn_fault_events_total");
    fault_displaced_total =
        &fault_registry.counter("odn_fault_displaced_total");
    fault_replacements_total =
        &fault_registry.counter("odn_fault_replacements_total");
    fault_rejections_total =
        &fault_registry.counter("odn_fault_rejections_total");
  }

  // Preemption/deadline scheduling (src/sched/). The ladder runs on this
  // serial loop against one cell at a time, in the same order the
  // dispatcher tried them; like fault metrics, sched metrics only enter
  // the registry when the feature is on, so disabled runs keep their exact
  // metric series set and report bytes.
  const bool sched_on = options_.sched.enabled;
  report.sched.enabled = sched_on;
  sched::DeadlineMonitor deadline_monitor;
  obs::Counter* sched_probes_total = nullptr;
  obs::Counter* sched_preemptions_total = nullptr;
  obs::Counter* sched_downgrades_total = nullptr;
  obs::Counter* sched_readmissions_total = nullptr;
  obs::Counter* sched_rejections_total = nullptr;
  if (sched_on) {
    obs::MetricsRegistry& sched_registry = obs::MetricsRegistry::global();
    sched_probes_total = &sched_registry.counter("odn_sched_probes_total");
    sched_preemptions_total =
        &sched_registry.counter("odn_sched_preemptions_total");
    sched_downgrades_total =
        &sched_registry.counter("odn_sched_downgrades_total");
    sched_readmissions_total =
        &sched_registry.counter("odn_sched_readmissions_total");
    sched_rejections_total =
        &sched_registry.counter("odn_sched_ladder_rejections_total");
  }

  // Flight-recorder hook: every record site sits on this serial event
  // loop, so the event stream is identical for any ODN_THREADS. One
  // relaxed load + branch when the recorder is disabled.
  auto flight = [&](double now, obs::FlightEventKind kind,
                    std::uint64_t task, std::int64_t cell,
                    std::uint64_t count = 0, double value = 0.0,
                    const char* detail = "") {
    if (!obs::flight_enabled()) return;
    obs::FlightEvent event;
    event.time_s = now;
    event.kind = kind;
    event.task = task;
    event.cell = cell;
    event.count = count;
    event.value = value;
    event.detail = detail;
    obs::flight_record(event);
  };

  // Materialize jobs and seed the calendar (same deterministic ordering
  // discipline as the single-cell runtime: trace order, then epochs, with
  // the sequence counter breaking same-instant ties in push order).
  std::vector<Job> jobs;
  std::unordered_map<std::uint64_t, std::size_t> job_by_trace_id;
  std::priority_queue<LoopEvent, std::vector<LoopEvent>,
                      std::greater<LoopEvent>>
      calendar;
  std::uint64_t sequence = 0;

  for (const runtime::WorkloadEvent& event : trace.events) {
    if (event.kind == runtime::WorkloadEventKind::kArrival) {
      Job job;
      job.trace_id = event.job_id;
      job.template_index = event.template_index;
      const core::DotTask& tmpl = templates_[event.template_index];
      // QoS annotations only take effect under scheduling; otherwise the
      // job mirrors its template exactly (pre-sched byte identity).
      const bool use_qos = sched_on && event.has_qos;
      job.priority = use_qos ? event.priority : tmpl.spec.priority;
      job.deadline_s =
          use_qos ? event.deadline_s : options_.sched.default_deadline_s;
      job.class_index = class_of(job.priority);
      job.name = util::fmt("job-{}/{}", event.job_id, tmpl.spec.name);
      if (sched_on)
        deadline_monitor.track(event.job_id, event.time_s, job.deadline_s);
      job_by_trace_id.emplace(event.job_id, jobs.size());
      calendar.push(LoopEvent{event.time_s, sequence++,
                              LoopEventKind::kArrival, jobs.size()});
      jobs.push_back(std::move(job));
    } else {
      calendar.push(LoopEvent{event.time_s, sequence++,
                              LoopEventKind::kDeparture,
                              job_by_trace_id.at(event.job_id)});
    }
  }
  std::size_t epoch_count = 0;
  if (options_.epoch_s > 0.0) {
    for (double t = options_.epoch_s; t <= trace.horizon_s + 1e-9;
         t += options_.epoch_s)
      calendar.push(LoopEvent{std::min(t, trace.horizon_s), sequence++,
                              LoopEventKind::kEpoch, epoch_count++});
  }

  // Per-cell served-job index: the ascending indices of the kActive jobs
  // each cell serves. Every per-cell walk (conservation, ladder candidates,
  // crash displacement, epoch measurement, migration candidates) iterates
  // it instead of scanning every job of the trace, so that work is
  // O(served jobs). Ascending job index is the order the full scan
  // produced, which keeps every report byte-identical. set_state is the
  // only writer of Job::state and Job::cell (kNoCell unless kActive).
  std::vector<util::IndexSet> active_by_cell(cell_count);
  auto set_state = [&](std::size_t job_index, Job::State state,
                       std::size_t cell = kNoCell) {
    Job& job = jobs[job_index];
    if (job.state == Job::State::kActive)
      active_by_cell[job.cell].erase(job_index);
    job.state = state;
    job.cell = state == Job::State::kActive ? cell : kNoCell;
    if (state == Job::State::kActive) active_by_cell[cell].insert(job_index);
  };

  // No-orphaned-resources conservation: after every ladder application and
  // at each epoch boundary, every cell's ledger and deployed blocks must
  // re-derive exactly from the plans it currently serves
  // (sched/conservation.h). A violation is an internal invariant break.
  auto check_conservation = [&](const char* where) {
    if (!sched_on) return;
    for (std::size_t i = 0; i < cell_count; ++i) {
      std::vector<std::pair<std::string, const core::TaskPlan*>> served;
      served.reserve(active_by_cell[i].size());
      for (const std::size_t j : active_by_cell[i])
        served.emplace_back(jobs[j].name, &jobs[j].plan);
      if (const auto violation = sched::find_orphaned_resources(
              dispatcher_.cell(i).controller(), served, catalog_))
        throw std::logic_error(
            util::fmt("ClusterRuntime: orphaned resources on cell {} {}: {}",
                      i, where, *violation));
    }
  };

  // Applies ladder victim outcomes to the cluster's books: re-shaped plans
  // replace the served ones (same cell), preempted jobs lose their cell
  // and re-enter placement through the sched readmission path (first retry
  // after one backoff interval).
  auto apply_victims = [&](const std::vector<sched::VictimOutcome>& victims,
                           double now) {
    for (const sched::VictimOutcome& outcome : victims) {
      const std::size_t victim_index = job_by_trace_id.at(outcome.id);
      Job& victim = jobs[victim_index];
      switch (outcome.fate) {
        case sched::VictimOutcome::Fate::kDowngraded:
          flight(now, obs::FlightEventKind::kDowngrade, victim.trace_id,
                 static_cast<std::int64_t>(victim.cell), 0,
                 outcome.plan.accuracy, "ladder");
          victim.plan = outcome.plan;
          victim.admitted_task = outcome.task;
          victim.sched_downgraded = true;
          ++report.sched.downgrades;
          sched_downgrades_total->inc();
          deadline_monitor.on_downgraded(victim.trace_id);
          break;
        case sched::VictimOutcome::Fate::kRestored:
          // Rolled back — same spec, freshly solved plan, same cell.
          victim.plan = outcome.plan;
          victim.admitted_task = outcome.task;
          break;
        case sched::VictimOutcome::Fate::kPreempted: {
          flight(now, obs::FlightEventKind::kPreemption, victim.trace_id,
                 static_cast<std::int64_t>(victim.cell), 0, 0.0, "ladder");
          set_state(victim_index, Job::State::kPending);
          victim.sched_preempted = true;
          victim.attempts = 0;
          ++report.sched.preemptions;
          sched_preemptions_total->inc();
          deadline_monitor.on_preempted(victim.trace_id);
          const double retry_at = now + options_.retry.retry_delay_s(1);
          if (retry_at > trace.horizon_s) break;  // preempted-pending
          ++report.sched.readmission_retries;
          calendar.push(LoopEvent{retry_at, sequence++,
                                  LoopEventKind::kRetry, victim_index});
          break;
        }
      }
    }
  };

  auto attempt_admission = [&](std::size_t job_index, double now) {
    Job& job = jobs[job_index];
    runtime::ClassStats& stats = report.classes[job.class_index];
    ++job.attempts;

    core::DotTask task = templates_[job.template_index];
    task.spec.name = job.name;
    task.spec.correlation = job.trace_id;
    if (sched_on) task.spec.priority = job.priority;
    const bool downgraded = options_.retry.downgrades(job.attempts);
    if (downgraded)
      task = runtime::downgraded_task(std::move(task), options_.retry);

    const AdmissionOutcome outcome =
        dispatcher_.admit(catalog_, task, catalog_fp_ptr);
    for (std::size_t i = 0; i < cell_count; ++i) observe_cell(i);

    if (outcome.admitted) {
      set_state(job_index, Job::State::kActive, outcome.cell);
      job.plan = outcome.plan;
      job.admitted_task = std::move(task);
      ++stats.admitted;
      if (job.attempts == 1)
        ++stats.admitted_first_try;
      else
        ++stats.admitted_after_retry;
      if (downgraded) ++stats.admitted_downgraded;
      CellReport& cell = report.cells[outcome.cell];
      if (outcome.spilled)
        ++cell.admitted_spillover;
      else
        ++cell.admitted_preferred;
      flight(now, obs::FlightEventKind::kAdmission, job.trace_id,
             static_cast<std::int64_t>(outcome.cell), job.attempts,
             job.plan.accuracy, downgraded ? "downgraded" : "");
      if (sched_on) {
        ++report.sched.admitted_plain;
        deadline_monitor.on_admitted(job.trace_id, now, downgraded);
        check_conservation("after plain admission");
      }
      return;
    }

    // Ladder fallback: every accepting cell rejected the plain placement.
    // Walk the same cell order the dispatcher tried (preferred first, then
    // accepting siblings when spillover is on) and let the preemption
    // ladder downgrade or evict lower-priority jobs served there. Cells
    // with nothing served need no ladder — the plain rejection above
    // already is the rung-1 answer.
    if (sched_on && outcome.preferred_cell != kNoCell) {
      std::vector<std::size_t> order;
      order.push_back(outcome.preferred_cell);
      if (options_.dispatch.spillover)
        for (std::size_t i = 0; i < cell_count; ++i)
          if (i != outcome.preferred_cell && dispatcher_.accepting(i))
            order.push_back(i);
      bool ladder_ran = false;
      for (const std::size_t cell_index : order) {
        // Candidates point at the served jobs' specs, which stay put until
        // apply_victims runs after the ladder returns.
        const util::IndexSet& served_here = active_by_cell[cell_index];
        if (served_here.empty()) continue;
        std::vector<sched::SchedCandidate> candidates;
        candidates.reserve(served_here.size());
        for (const std::size_t j : served_here) {
          const Job& served = jobs[j];
          candidates.push_back(sched::SchedCandidate{
              served.trace_id, served.priority, &served.admitted_task,
              served.sched_downgraded});
        }
        ladder_ran = true;
        DispatcherSchedHost host(dispatcher_, cell_index, catalog_,
                                 catalog_fp_ptr);
        const sched::LadderOutcome ladder = sched::run_preemption_ladder(
            host, task, candidates, options_.sched);
        report.sched.probes += ladder.probes;
        report.sched.rollbacks += ladder.rollbacks;
        sched_probes_total->inc(ladder.probes);
        apply_victims(ladder.victims, now);
        for (std::size_t i = 0; i < cell_count; ++i) observe_cell(i);
        if (ladder.action != sched::SchedAction::kReject) {
          set_state(job_index, Job::State::kActive, cell_index);
          job.plan = ladder.plan;
          job.admitted_task = std::move(task);
          ++stats.admitted;
          if (job.attempts == 1)
            ++stats.admitted_first_try;
          else
            ++stats.admitted_after_retry;
          if (downgraded) ++stats.admitted_downgraded;
          CellReport& cell = report.cells[cell_index];
          if (cell_index == outcome.preferred_cell)
            ++cell.admitted_preferred;
          else
            ++cell.admitted_spillover;
          switch (ladder.action) {
            case sched::SchedAction::kAdmit:
              ++report.sched.admitted_plain;
              break;
            case sched::SchedAction::kDowngrade:
              ++report.sched.admitted_by_downgrade;
              break;
            case sched::SchedAction::kPreempt:
              ++report.sched.admitted_by_preemption;
              break;
            case sched::SchedAction::kReject:
              break;
          }
          flight(now, obs::FlightEventKind::kAdmission, job.trace_id,
                 static_cast<std::int64_t>(cell_index), job.attempts,
                 job.plan.accuracy, downgraded ? "downgraded" : "");
          deadline_monitor.on_admitted(job.trace_id, now, downgraded);
          check_conservation("after ladder admission");
          return;
        }
        check_conservation("after ladder rejection");
      }
      if (ladder_ran) {
        ++report.sched.ladder_rejected;
        sched_rejections_total->inc();
      }
    }

    if (job.attempts >= options_.retry.max_attempts) {
      set_state(job_index, Job::State::kRejected);
      ++stats.rejected_final;
      flight(now, obs::FlightEventKind::kRejection, job.trace_id, -1,
             job.attempts, 0.0, "exhausted");
      if (sched_on) deadline_monitor.on_rejected(job.trace_id);
      return;
    }
    const double retry_at = now + options_.retry.retry_delay_s(job.attempts);
    if (retry_at > trace.horizon_s) return;  // horizon ends the backoff
    ++stats.retries_scheduled;
    flight(now, obs::FlightEventKind::kRetryScheduled, job.trace_id, -1,
           job.attempts, retry_at);
    calendar.push(
        LoopEvent{retry_at, sequence++, LoopEventKind::kRetry, job_index});
  };

  // Readmission of a displaced job: the dispatcher re-places it over the
  // accepting cells (preferred cell first, spillover next — "spillover
  // first"), and only exhausted attempts reject ("reject last"). All
  // accounting goes to the fault ledger; the job's admission lifecycle
  // counters were settled at first admission.
  auto attempt_readmission = [&](std::size_t job_index, double now) {
    ODN_TRACE_SPAN("fault", "fault.readmit");
    Job& job = jobs[job_index];
    ++job.attempts;

    core::DotTask task = job.admitted_task;  // keeps any prior downgrade
    const bool downgraded = options_.retry.downgrades(job.attempts);
    if (downgraded)
      task = runtime::downgraded_task(std::move(task), options_.retry);

    const AdmissionOutcome outcome =
        dispatcher_.admit(catalog_, task, catalog_fp_ptr);
    for (std::size_t i = 0; i < cell_count; ++i) observe_cell(i);

    if (outcome.admitted) {
      set_state(job_index, Job::State::kActive, outcome.cell);
      job.readmitting = false;
      job.plan = outcome.plan;
      job.admitted_task = std::move(task);
      if (job.attempts == 1)
        ++report.faults.displaced_replaced;
      else
        ++report.faults.displaced_readmitted;
      fault_replacements_total->inc();
      flight(now, obs::FlightEventKind::kReadmission, job.trace_id,
             static_cast<std::int64_t>(outcome.cell), job.attempts,
             job.plan.accuracy, downgraded ? "downgraded" : "fault");
      if (sched_on)
        deadline_monitor.on_readmitted(job.trace_id, now, downgraded);
      return;
    }
    if (job.attempts >= options_.retry.max_attempts) {
      set_state(job_index, Job::State::kRejected);
      ++report.faults.displaced_rejected;
      fault_rejections_total->inc();
      flight(now, obs::FlightEventKind::kRejection, job.trace_id, -1,
             job.attempts, 0.0, "fault_exhausted");
      if (sched_on) deadline_monitor.on_rejected(job.trace_id);
      return;
    }
    const double retry_at = now + options_.retry.retry_delay_s(job.attempts);
    if (retry_at > trace.horizon_s) return;  // stays displaced-pending
    ++report.faults.readmission_retries;
    flight(now, obs::FlightEventKind::kRetryScheduled, job.trace_id, -1,
           job.attempts, retry_at, "fault");
    calendar.push(
        LoopEvent{retry_at, sequence++, LoopEventKind::kRetry, job_index});
  };

  // Readmission attempt for a ladder-preempted job: plain dispatcher
  // placement (policy + spillover; no cascading ladder — an evicted job
  // must not evict others) with the same bounded-backoff / downgrade
  // policy, accounted to the sched ledger.
  auto attempt_sched_readmission = [&](std::size_t job_index, double now) {
    ODN_TRACE_SPAN("sched", "sched.readmit");
    Job& job = jobs[job_index];
    ++job.attempts;

    core::DotTask task = job.admitted_task;  // the shape it was serving at
    const bool downgraded = options_.retry.downgrades(job.attempts);
    if (downgraded)
      task = runtime::downgraded_task(std::move(task), options_.retry);

    const AdmissionOutcome outcome =
        dispatcher_.admit(catalog_, task, catalog_fp_ptr);
    for (std::size_t i = 0; i < cell_count; ++i) observe_cell(i);

    if (outcome.admitted) {
      set_state(job_index, Job::State::kActive, outcome.cell);
      job.sched_preempted = false;  // this preemption is resolved
      job.plan = outcome.plan;
      job.admitted_task = std::move(task);
      ++report.sched.preempted_readmitted;
      sched_readmissions_total->inc();
      flight(now, obs::FlightEventKind::kReadmission, job.trace_id,
             static_cast<std::int64_t>(outcome.cell), job.attempts,
             job.plan.accuracy, downgraded ? "downgraded" : "sched");
      deadline_monitor.on_readmitted(job.trace_id, now, downgraded);
      return;
    }
    if (job.attempts >= options_.retry.max_attempts) {
      set_state(job_index, Job::State::kRejected);
      ++report.sched.preempted_rejected;
      flight(now, obs::FlightEventKind::kRejection, job.trace_id, -1,
             job.attempts, 0.0, "sched_exhausted");
      deadline_monitor.on_rejected(job.trace_id);
      return;
    }
    const double retry_at = now + options_.retry.retry_delay_s(job.attempts);
    if (retry_at > trace.horizon_s) return;  // stays preempted-pending
    ++report.sched.readmission_retries;
    flight(now, obs::FlightEventKind::kRetryScheduled, job.trace_id, -1,
           job.attempts, retry_at, "sched");
    calendar.push(
        LoopEvent{retry_at, sequence++, LoopEventKind::kRetry, job_index});
  };

  // Active jobs of one cell in displacement order: highest priority first
  // (they re-place against the surviving capacity first), ties by trace id.
  auto displacement_order = [&](std::size_t cell) {
    std::vector<std::size_t> order(active_by_cell[cell].begin(),
                                   active_by_cell[cell].end());
    // job.priority equals the template priority whenever scheduling (or
    // QoS) is off, so the order is unchanged on pre-sched configurations.
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (jobs[a].priority != jobs[b].priority)
        return jobs[a].priority > jobs[b].priority;
      return jobs[a].trace_id < jobs[b].trace_id;
    });
    return order;
  };

  auto displace = [&](std::size_t job_index, double now) {
    Job& job = jobs[job_index];
    flight(now, obs::FlightEventKind::kDisplacement, job.trace_id,
           job.cell == kNoCell ? -1 : static_cast<std::int64_t>(job.cell));
    set_state(job_index, Job::State::kPending);
    job.readmitting = true;
    // A fault displacement supersedes a pending ladder preemption: the
    // job re-enters through the fault readmission path.
    job.sched_preempted = false;
    job.attempts = 0;
    ++report.faults.displaced;
    fault_displaced_total->inc();
    if (sched_on) {
      ++report.sched.fault_displacements;
      deadline_monitor.on_preempted(job.trace_id);
    }
  };

  // Fault application at the epoch boundary: replay every due event, run
  // its recovery action and re-sync the dispatcher's admission gate with
  // the injector's per-cell state.
  auto apply_faults = [&](double now) {
    if (injector.idle()) return;
    const std::vector<fault::FaultEvent> events = injector.advance(now);
    if (events.empty()) return;
    ODN_TRACE_SPAN("fault", "fault.apply");
    for (const fault::FaultEvent& event : events) {
      report.faults.record_event(event.kind);
      fault_events_total->inc();
      flight(now, obs::FlightEventKind::kFault, obs::kNoFlightTask,
             static_cast<std::int64_t>(event.cell), 0, event.magnitude,
             fault::fault_event_kind_name(event.kind));
      switch (event.kind) {
        case fault::FaultEventKind::kCellCrash: {
          // The cell's controller state is lost; every task it served is
          // displaced and re-placed over the surviving cells.
          const std::vector<std::size_t> order =
              displacement_order(event.cell);
          dispatcher_.crash_cell(event.cell);
          observe_cell(event.cell);
          for (const std::size_t j : order) displace(j, now);
          for (const std::size_t j : order) attempt_readmission(j, now);
          break;
        }
        case fault::FaultEventKind::kRadioDegrade: {
          // Admissions on this cell were solved against the nominal
          // radio; release them and re-run admission under the derated
          // model (they may land back on the same cell at a lower rate,
          // or spill to a sibling).
          dispatcher_.cell(event.cell).set_radio_derate(event.magnitude);
          const std::vector<std::size_t> order =
              displacement_order(event.cell);
          for (const std::size_t j : order) {
            if (dispatcher_.release(jobs[j].name) == kNoCell)
              throw std::logic_error(util::fmt(
                  "ClusterRuntime: displaced job '{}' unknown to dispatcher",
                  jobs[j].name));
          }
          observe_cell(event.cell);
          for (const std::size_t j : order) displace(j, now);
          for (const std::size_t j : order) attempt_readmission(j, now);
          break;
        }
        case fault::FaultEventKind::kRadioRestore:
          dispatcher_.cell(event.cell).set_radio_derate(1.0);
          break;
        case fault::FaultEventKind::kCellRecover:
        case fault::FaultEventKind::kLatencyInflate:
        case fault::FaultEventKind::kLatencyRestore:
        case fault::FaultEventKind::kBudgetExhaust:
        case fault::FaultEventKind::kBudgetRestore:
          break;
      }
      // Admission gate follows the injector state (a recovered cell may
      // still be budget-exhausted, and vice versa).
      dispatcher_.set_accepting(event.cell,
                                injector.state(event.cell).accepting());
    }
  };

  // Epoch boundary: measure every cell's live deployment with its own
  // emulator stream, then run the migration pass over the cells that
  // showed violations (fixed cell order — deterministic).
  // Epoch + migration accounting in the global registry; all increments
  // happen on the serial event loop (deterministic for any ODN_THREADS).
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  obs::Counter& epochs_total = registry.counter("odn_cluster_epochs_total");
  obs::Counter& migrations_attempted =
      registry.counter("odn_cluster_migrations_attempted_total");
  obs::Counter& migrations_done =
      registry.counter("odn_cluster_migrations_total");
  obs::Counter& migrations_no_target =
      registry.counter("odn_cluster_migration_no_target_total");

  auto measure_epoch = [&](double now, std::size_t epoch_index) {
    ODN_TRACE_SPAN("cluster", "cluster.epoch");
    util::Stopwatch epoch_watch;
    ClusterEpochSnapshot snapshot;
    snapshot.time_s = now;
    std::vector<std::size_t> violations_by_cell(cell_count, 0);

    for (std::size_t i = 0; i < cell_count; ++i) {
      core::DeploymentPlan live;
      std::unordered_map<std::string, std::size_t> class_by_name;
      live.tasks.reserve(active_by_cell[i].size());
      for (const std::size_t j : active_by_cell[i]) {
        live.tasks.push_back(jobs[j].plan);
        class_by_name.emplace(jobs[j].name, jobs[j].class_index);
      }
      snapshot.active_tasks += live.tasks.size();
      if (live.tasks.empty()) continue;

      sim::EmulatorOptions emu_options;
      emu_options.duration_s = options_.emulation_window_s;
      emu_options.seed =
          epoch_seed(options_.seed, epoch_index * cell_count + i);
      emu_options.poisson_arrivals = options_.poisson_emulation;
      emu_options.flight_time_base_s = now;
      emu_options.flight_cell = static_cast<std::int64_t>(i);
      // Each cell measures with its own effective radio (derated while a
      // radio fault is active; identical to the shared model otherwise).
      sim::EdgeEmulator emulator(
          std::move(live), dispatcher_.cell(i).radio(),
          dispatcher_.cell(i).resources().compute_capacity_s, emu_options);
      const sim::EmulationReport measured = emulator.run();

      // Latency inflation scales measured samples at accounting time; a
      // factor of 1 is the bit-exact identity.
      const double latency_factor =
          injector.idle() ? 1.0 : injector.state(i).latency_factor;
      CellReport& cell = report.cells[i];
      for (const sim::TaskTrace& task_trace : measured.tasks) {
        const std::size_t class_index = class_by_name.at(task_trace.task_name);
        runtime::ClassStats& stats = cell.classes[class_index];
        std::size_t violations = 0;
        for (const sim::LatencySample& sample : task_trace.samples) {
          const double measured_s = latency_factor == 1.0
                                        ? sample.latency_s
                                        : sample.latency_s * latency_factor;
          stats.latency_samples_s.push_back(measured_s);
          if (measured_s > task_trace.latency_bound_s) ++violations;
        }
        stats.slo_violations += violations;
        violations_by_cell[i] += violations;
        snapshot.slo_violations += violations;
        snapshot.samples += task_trace.samples.size();
        if (violations > 0)
          flight(now, obs::FlightEventKind::kSloViolation,
                 task_trace.correlation, static_cast<std::int64_t>(i),
                 violations, task_trace.latency_bound_s);
      }
      if (violations_by_cell[i] > 0) ++snapshot.cells_violating;
    }

    // Per-fault-class SLO impact: a violating cell's violations count
    // toward every fault class locally active on it; a nominal cell under
    // pressure while a sibling is down counts as crash impact, and only
    // fault-free epochs/cells land in the clear bucket.
    if (!injector.idle() && snapshot.slo_violations > 0) {
      bool any_down = false;
      for (std::size_t i = 0; i < cell_count; ++i)
        if (!injector.state(i).up) any_down = true;
      for (std::size_t i = 0; i < cell_count; ++i) {
        const std::size_t violations = violations_by_cell[i];
        if (violations == 0) continue;
        const fault::CellFaultState& cell_state = injector.state(i);
        bool attributed = false;
        if (cell_state.bandwidth_factor != 1.0) {
          report.faults.violations_during_radio += violations;
          attributed = true;
        }
        if (cell_state.latency_factor != 1.0) {
          report.faults.violations_during_latency += violations;
          attributed = true;
        }
        if (cell_state.budget_exhausted) {
          report.faults.violations_during_budget += violations;
          attributed = true;
        }
        if (!attributed) {
          if (any_down)
            report.faults.violations_during_crash += violations;
          else
            report.faults.violations_clear += violations;
        }
      }
    }

    // Flash-crowd migration: cells under SLO pressure shed their
    // lowest-priority jobs to the sibling with the most headroom that
    // accepts the probe.
    if (options_.migrate_on_slo && cell_count > 1) {
      for (std::size_t source = 0; source < cell_count; ++source) {
        if (violations_by_cell[source] == 0) continue;

        // Candidates: active jobs at `source`, lowest priority first
        // (ties: lower trace id — deterministic).
        std::vector<std::size_t> candidates(active_by_cell[source].begin(),
                                            active_by_cell[source].end());
        // Effective priority (mirrors the template when sched/QoS is off,
        // so pre-sched migration order is unchanged).
        std::sort(candidates.begin(), candidates.end(),
                  [&](std::size_t a, std::size_t b) {
                    if (jobs[a].priority != jobs[b].priority)
                      return jobs[a].priority < jobs[b].priority;
                    return jobs[a].trace_id < jobs[b].trace_id;
                  });
        if (candidates.size() > options_.migration_batch)
          candidates.resize(options_.migration_batch);

        for (const std::size_t job_index : candidates) {
          Job& job = jobs[job_index];
          ++report.migration.attempted;
          migrations_attempted.inc();

          // Target order: highest normalized headroom first, index
          // breaking ties (strict > comparison keeps it deterministic).
          std::vector<std::size_t> targets;
          for (std::size_t i = 0; i < cell_count; ++i)
            if (i != source) targets.push_back(i);
          std::sort(targets.begin(), targets.end(),
                    [&](std::size_t a, std::size_t b) {
                      const double ha =
                          dispatcher_.cell(a).normalized_headroom();
                      const double hb =
                          dispatcher_.cell(b).normalized_headroom();
                      if (ha != hb) return ha > hb;
                      return a < b;
                    });

          bool moved = false;
          for (const std::size_t target : targets) {
            core::TaskPlan migrated_plan;
            if (dispatcher_.migrate(catalog_, job.admitted_task, job.name,
                                    target, &migrated_plan, catalog_fp_ptr)) {
              flight(now, obs::FlightEventKind::kMigration, job.trace_id,
                     static_cast<std::int64_t>(target),
                     static_cast<std::uint64_t>(source));
              set_state(job_index, Job::State::kActive, target);
              job.plan = migrated_plan;
              ++report.migration.migrated;
              migrations_done.inc();
              ++report.cells[source].migrations_out;
              ++report.cells[target].migrations_in;
              ++snapshot.migrations;
              observe_cell(source);
              observe_cell(target);
              moved = true;
              break;
            }
          }
          if (!moved) {
            ++report.migration.no_target;
            migrations_no_target.inc();
          }
        }
      }
    }

    flight(now, obs::FlightEventKind::kEpochSeal, obs::kNoFlightTask, -1,
           snapshot.samples, static_cast<double>(snapshot.slo_violations));
    snapshot.measure_wall_s = epoch_watch.elapsed_seconds();
    report.timeline.push_back(snapshot);
    ++report.epochs;
    epochs_total.inc();
  };

  while (!calendar.empty()) {
    const LoopEvent event = calendar.top();
    calendar.pop();
    ++report.events_processed;

    switch (event.kind) {
      case LoopEventKind::kArrival: {
        const Job& job = jobs[event.job];
        ++report.classes[job.class_index].arrivals;
        flight(event.time, obs::FlightEventKind::kArrival, job.trace_id, -1,
               job.template_index, sched_on ? job.deadline_s : 0.0);
        attempt_admission(event.job, event.time);
        break;
      }
      case LoopEventKind::kRetry: {
        // A departure or the final rejection may have landed during the
        // backoff; only still-pending jobs retry. Displaced jobs retry
        // through the fault readmission path, ladder-preempted jobs
        // through the sched readmission path.
        if (jobs[event.job].state == Job::State::kPending) {
          if (jobs[event.job].readmitting)
            attempt_readmission(event.job, event.time);
          else if (jobs[event.job].sched_preempted)
            attempt_sched_readmission(event.job, event.time);
          else
            attempt_admission(event.job, event.time);
        }
        break;
      }
      case LoopEventKind::kDeparture: {
        Job& job = jobs[event.job];
        flight(event.time, obs::FlightEventKind::kDeparture, job.trace_id,
               job.state == Job::State::kActive
                   ? static_cast<std::int64_t>(job.cell)
                   : -1,
               0, 0.0,
               job.state == Job::State::kActive    ? "serving"
               : job.state == Job::State::kPending ? "pending"
                                                   : "after_rejection");
        if (job.state == Job::State::kActive) {
          const std::size_t cell = dispatcher_.release(job.name);
          if (cell == kNoCell)
            throw std::logic_error(util::fmt(
                "ClusterRuntime: active job '{}' unknown to dispatcher",
                job.name));
          ++report.cells[cell].classes[job.class_index].departures;
          observe_cell(cell);
        } else if (job.state == Job::State::kPending) {
          if (job.readmitting)
            ++report.faults.displaced_departed;
          else if (job.sched_preempted)
            ++report.sched.preempted_departed;
          else
            ++report.classes[job.class_index].departed_before_admission;
        }
        set_state(event.job, Job::State::kDeparted);
        if (sched_on) deadline_monitor.on_departed(job.trace_id);
        break;
      }
      case LoopEventKind::kEpoch: {
        apply_faults(event.time);
        measure_epoch(event.time, event.job);
        if (sched_on) {
          report.sched.timeline.push_back(
              deadline_monitor.snapshot(event.time));
          check_conservation("at epoch boundary");
        }
        break;
      }
    }
  }

  for (const Job& job : jobs) {
    if (job.state == Job::State::kPending) {
      if (job.readmitting)
        ++report.faults.displaced_pending_at_end;
      else if (job.sched_preempted)
        ++report.sched.preempted_pending_at_end;
      else
        ++report.classes[job.class_index].pending_at_end;
    }
    if (job.state == Job::State::kActive) {
      ++report.active_at_end;
      ++report.cells[job.cell].active_at_end;
    }
  }
  for (std::size_t i = 0; i < cell_count; ++i)
    report.cells[i].deployed_blocks_at_end =
        dispatcher_.cell(i).controller().deployed_blocks().size();
  if (sched_on) {
    deadline_monitor.finalize(report.sched);
    check_conservation("at end of run");
  }
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
