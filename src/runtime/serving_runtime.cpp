#include "runtime/serving_runtime.h"

#include <algorithm>
#include <memory>
#include <queue>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "core/fingerprint.h"
#include "core/plan_cache.h"
#include "core/solver_cache.h"
#include "fault/injector.h"
#include "obs/alerts.h"
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

namespace odn::runtime {
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
  std::size_t job = 0;  // index into the jobs vector (unused for kEpoch)

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
  // A displaced job (fault recovery) retries through the same backoff
  // machinery but keeps its fault accounting separate from the admission
  // lifecycle counters — the readmitting flag routes it.
  bool readmitting = false;
  // Ladder outcomes (scheduling only): evicted by the preemption rung /
  // re-shaped by the downgrade rung. Like `readmitting`, sched_preempted
  // routes the job's retries to the sched readmission path.
  bool sched_preempted = false;
  bool sched_downgraded = false;
  enum class State : std::uint8_t {
    kPending,   // awaiting first attempt or in retry backoff
    kActive,    // admitted, serving
    kRejected,  // attempts exhausted
    kDeparted,  // released (or left while pending)
  } state = State::kPending;
  core::TaskPlan plan;          // valid while kActive
  core::DotTask admitted_task;  // the (possibly downgraded) admitted spec
};

// Epoch emulation seeds: one independent stream per epoch, derived from
// the base seed with a SplitMix64-style odd-constant mix.
std::uint64_t epoch_seed(std::uint64_t base, std::size_t epoch) noexcept {
  return base + 0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(epoch) + 1);
}

}  // namespace

void RuntimeOptions::validate() const {
  if (epoch_s < 0.0)
    throw std::invalid_argument("RuntimeOptions: negative epoch");
  if (epoch_s > 0.0 && emulation_window_s <= 0.0)
    throw std::invalid_argument(
        "RuntimeOptions: non-positive emulation window");
  if (class_names.size() != class_boundaries.size() + 1)
    throw std::invalid_argument(
        "RuntimeOptions: class_names must be one longer than boundaries");
  if (!std::is_sorted(class_boundaries.begin(), class_boundaries.end()))
    throw std::invalid_argument(
        "RuntimeOptions: class boundaries must be ascending");
  if (!faults.empty()) {
    faults.validate();
    if (faults.cell_count != 1)
      throw std::invalid_argument(
          "RuntimeOptions: fault plan targets more than one cell");
    if (epoch_s <= 0.0)
      throw std::invalid_argument(
          "RuntimeOptions: fault plan needs a positive epoch cadence");
  }
  if (sched.enabled) sched.validate();
  if (batching.enabled) batching.validate();
  if (alerts.enabled) {
    alerts.validate();
    if (epoch_s <= 0.0)
      throw std::invalid_argument(
          "RuntimeOptions: alerting needs a positive epoch cadence");
  }
  retry.validate();
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

std::size_t ServingRuntime::class_of(double priority) const noexcept {
  std::size_t index = 0;
  while (index < options_.class_boundaries.size() &&
         priority >= options_.class_boundaries[index])
    ++index;
  return index;
}

// Per-priority-class metric handles, resolved once per run() so the event
// loop increments through cached pointers instead of registry lookups.
struct ClassCounters {
  obs::Counter* arrivals;
  obs::Counter* admissions;
  obs::Counter* rejections;
  obs::Counter* retries;
  obs::Counter* slo_violations;
};

RuntimeReport ServingRuntime::run(const WorkloadTrace& trace) {
  ODN_TRACE_SPAN("runtime", "runtime.run");
  util::Stopwatch run_watch;
  trace.validate();
  if (trace.template_count != templates_.size())
    throw std::invalid_argument(util::fmt(
        "ServingRuntime: trace indexes {} templates, runtime has {}",
        trace.template_count, templates_.size()));

  controller_.reset();
  // A previous faulted run may have left the controller's radio derated;
  // every run starts from the base model.
  controller_.set_radio(radio_);

  // The catalog is fixed for the whole run, so every admission's cache
  // keys share one catalog digest — encode it once here instead of once
  // per admission. Skipped when no cache would ever read it (cold runs
  // pay nothing).
  core::Fingerprint catalog_fp;
  const core::Fingerprint* catalog_fp_ptr = nullptr;
  if (controller_.plan_cache() != nullptr ||
      controller_.solver_cache() != nullptr) {
    catalog_fp = core::catalog_digest(catalog_);
    catalog_fp_ptr = &catalog_fp;
  }

  RuntimeReport report;
  report.trace_name = trace.name;
  report.seed = options_.seed;
  report.horizon_s = trace.horizon_s;
  report.classes.resize(options_.class_names.size());
  for (std::size_t c = 0; c < options_.class_names.size(); ++c)
    report.classes[c].name = options_.class_names[c];
  report.watermarks.memory_capacity_bytes = resources_.memory_capacity_bytes;
  report.watermarks.compute_capacity_s = resources_.compute_capacity_s;
  report.watermarks.rb_capacity = resources_.total_rbs;

  // Global-registry counters mirror the ClassStats accounting (DESIGN.md
  // §6). Everything below increments on the serial event loop, so the
  // snapshots are byte-identical for any ODN_THREADS.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  std::vector<ClassCounters> class_metrics;
  class_metrics.reserve(options_.class_names.size());
  for (const std::string& class_name : options_.class_names) {
    const obs::Labels labels{{"class", class_name}};
    class_metrics.push_back(ClassCounters{
        &registry.counter("odn_runtime_arrivals_total", labels),
        &registry.counter("odn_runtime_admissions_total", labels),
        &registry.counter("odn_runtime_rejections_total", labels),
        &registry.counter("odn_runtime_retries_total", labels),
        &registry.counter("odn_runtime_slo_violations_total", labels)});
  }
  obs::Counter& epochs_total = registry.counter("odn_runtime_epochs_total");
  obs::Counter& samples_total =
      registry.counter("odn_runtime_emulation_samples_total");
  obs::Histogram& epoch_latency = registry.histogram(
      "odn_runtime_epoch_latency_seconds",
      {0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0});

  // Fault injection: the injector replays the configured plan at epoch
  // boundaries; live_radio tracks the (possibly derated) radio the
  // emulator measures with. Fault metrics only enter the global registry
  // when a plan is configured, so fault-free metric snapshots keep their
  // exact series set.
  fault::FaultInjector injector(options_.faults);
  report.faults.enabled = !options_.faults.empty();
  edge::RadioModel live_radio = radio_;
  obs::Counter* fault_events_total = nullptr;
  obs::Counter* fault_displaced_total = nullptr;
  obs::Counter* fault_replacements_total = nullptr;
  obs::Counter* fault_rejections_total = nullptr;
  if (!injector.idle()) {
    fault_events_total = &registry.counter("odn_fault_events_total");
    fault_displaced_total = &registry.counter("odn_fault_displaced_total");
    fault_replacements_total =
        &registry.counter("odn_fault_replacements_total");
    fault_rejections_total =
        &registry.counter("odn_fault_rejections_total");
  }

  // Preemption/deadline scheduling (src/sched/). Everything the scheduler
  // does runs on this serial loop through the same probe/commit machinery
  // as plain admission; like fault metrics, sched metrics only enter the
  // registry when the feature is on, so disabled runs keep their exact
  // metric series set and report bytes.
  const bool sched_on = options_.sched.enabled;
  report.sched.enabled = sched_on;
  sched::DeadlineMonitor deadline_monitor;
  sched::ControllerSchedHost sched_host(controller_, catalog_,
                                        catalog_fp_ptr);
  obs::Counter* sched_probes_total = nullptr;
  obs::Counter* sched_preemptions_total = nullptr;
  obs::Counter* sched_downgrades_total = nullptr;
  obs::Counter* sched_readmissions_total = nullptr;
  obs::Counter* sched_rejections_total = nullptr;
  if (sched_on) {
    sched_probes_total = &registry.counter("odn_sched_probes_total");
    sched_preemptions_total =
        &registry.counter("odn_sched_preemptions_total");
    sched_downgrades_total =
        &registry.counter("odn_sched_downgrades_total");
    sched_readmissions_total =
        &registry.counter("odn_sched_readmissions_total");
    sched_rejections_total =
        &registry.counter("odn_sched_ladder_rejections_total");
  }

  // Epoch-boundary batching (model/batching.h). Like fault and sched
  // metrics, batching counters only enter the registry when the feature is
  // on, so disabled runs keep their exact metric series set.
  const bool batching_on = options_.batching.enabled;
  report.batching.enabled = batching_on;
  obs::Counter* batch_dispatches_total = nullptr;
  obs::Counter* batch_coalesced_total = nullptr;
  if (batching_on) {
    for (const core::DotTask& tmpl : templates_)
      for (const core::PathOption& option : tmpl.options)
        report.batching.probe_scale_min = std::min(
            report.batching.probe_scale_min, option.compute_scale);
    batch_dispatches_total =
        &registry.counter("odn_batch_dispatches_total");
    batch_coalesced_total =
        &registry.counter("odn_batch_coalesced_requests_total");
  }

  // SLO burn-rate alerting (obs/alerts.h). The engine only sees the
  // integer per-class counts the serial epoch loop accumulates, so its
  // record stream is byte-identical for any ODN_THREADS; disabled runs pay
  // one null check per epoch and keep their exact report bytes.
  report.alerts.enabled = options_.alerts.enabled;
  std::unique_ptr<obs::BurnRateAlertEngine> alert_engine;
  if (options_.alerts.enabled)
    alert_engine = std::make_unique<obs::BurnRateAlertEngine>(
        options_.alerts, options_.class_names);

  // Flight-recorder hook: every site below runs on this serial event loop,
  // so the recorded stream (and any timeline built from it) is identical
  // for any ODN_THREADS. One relaxed load + branch when disabled.
  auto flight = [&](double now, obs::FlightEventKind kind,
                    std::uint64_t task, std::uint64_t count = 0,
                    double value = 0.0, const char* detail = "") {
    if (!obs::flight_enabled()) return;
    obs::FlightEvent event;
    event.time_s = now;
    event.kind = kind;
    event.task = task;
    event.cell = 0;  // the serving runtime is a single-cell world
    event.count = count;
    event.value = value;
    event.detail = detail;
    obs::flight_record(event);
  };

  auto observe_ledger = [&] {
    const edge::ResourceLedger& ledger = controller_.ledger();
    report.watermarks.peak_memory_bytes = std::max(
        report.watermarks.peak_memory_bytes, ledger.memory_used_bytes());
    report.watermarks.peak_compute_s =
        std::max(report.watermarks.peak_compute_s, ledger.compute_used_s());
    report.watermarks.peak_rbs =
        std::max(report.watermarks.peak_rbs, ledger.rbs_used());
  };

  // Materialize jobs and seed the calendar. Trace events are pushed in
  // trace order, epoch events afterwards: the sequence counter makes
  // same-instant ordering deterministic (churn first, then measurement).
  std::vector<Job> jobs;
  std::unordered_map<std::uint64_t, std::size_t> job_by_trace_id;
  std::priority_queue<LoopEvent, std::vector<LoopEvent>,
                      std::greater<LoopEvent>>
      calendar;
  std::uint64_t sequence = 0;

  for (const WorkloadEvent& event : trace.events) {
    if (event.kind == WorkloadEventKind::kArrival) {
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

  // Served-job index: the ascending indices of every kActive job. Each
  // hot-path walk (conservation, ladder candidates, displacement, epoch
  // measurement) iterates it instead of scanning every job of the trace,
  // so per-admission and per-epoch work is O(served jobs). Ascending job
  // index is the order the full scan produced, which keeps every report
  // byte-identical. set_state is the only writer of Job::state.
  util::IndexSet active;
  auto set_state = [&](std::size_t job_index, Job::State state) {
    Job& job = jobs[job_index];
    if (job.state == Job::State::kActive) active.erase(job_index);
    job.state = state;
    if (state == Job::State::kActive) active.insert(job_index);
  };

  // No-orphaned-resources conservation: after every ladder application and
  // at each epoch boundary, the controller's ledger and deployed blocks
  // must re-derive exactly from the currently-served plans
  // (sched/conservation.h). A violation is an internal invariant break.
  auto check_conservation = [&](const char* where) {
    if (!sched_on) return;
    std::vector<std::pair<std::string, const core::TaskPlan*>> served;
    served.reserve(active.size());
    for (const std::size_t j : active)
      served.emplace_back(jobs[j].name, &jobs[j].plan);
    if (const auto violation =
            sched::find_orphaned_resources(controller_, served, catalog_))
      throw std::logic_error(util::fmt(
          "ServingRuntime: orphaned resources {}: {}", where, *violation));
  };

  // Applies ladder victim outcomes to the runtime's books: re-shaped plans
  // replace the served ones, preempted jobs re-enter admission through the
  // sched readmission path (first retry after one backoff interval).
  auto apply_victims = [&](const std::vector<sched::VictimOutcome>& victims,
                           double now) {
    for (const sched::VictimOutcome& outcome : victims) {
      const std::size_t victim_index = job_by_trace_id.at(outcome.id);
      Job& victim = jobs[victim_index];
      switch (outcome.fate) {
        case sched::VictimOutcome::Fate::kDowngraded:
          victim.plan = outcome.plan;
          victim.admitted_task = outcome.task;
          victim.sched_downgraded = true;
          ++report.sched.downgrades;
          sched_downgrades_total->inc();
          flight(now, obs::FlightEventKind::kDowngrade, victim.trace_id, 0,
                 outcome.plan.accuracy, "ladder");
          deadline_monitor.on_downgraded(victim.trace_id);
          break;
        case sched::VictimOutcome::Fate::kRestored:
          // Rolled back — same spec, freshly solved plan.
          victim.plan = outcome.plan;
          victim.admitted_task = outcome.task;
          break;
        case sched::VictimOutcome::Fate::kPreempted: {
          set_state(victim_index, Job::State::kPending);
          victim.sched_preempted = true;
          victim.attempts = 0;
          ++report.sched.preemptions;
          sched_preemptions_total->inc();
          flight(now, obs::FlightEventKind::kPreemption, victim.trace_id,
                 0, 0.0, "ladder");
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

  // One admission attempt for `job` at time `now`; schedules the retry on
  // rejection.
  auto attempt_admission = [&](std::size_t job_index, double now) {
    ODN_TRACE_SPAN("runtime", "runtime.admit");
    Job& job = jobs[job_index];
    ClassStats& stats = report.classes[job.class_index];
    ClassCounters& counters = class_metrics[job.class_index];
    ++job.attempts;

    core::DotTask task = templates_[job.template_index];
    task.spec.name = job.name;
    // Correlation for flight-recorder timelines; like the name, it never
    // enters the solve or the plan-cache keys.
    task.spec.correlation = job.trace_id;
    if (sched_on) task.spec.priority = job.priority;
    const bool downgraded = options_.retry.downgrades(job.attempts);
    if (downgraded) task = downgraded_task(std::move(task), options_.retry);

    // A crashed or budget-exhausted cell rejects without solving; the
    // rejection enters the same backoff machinery as a capacity miss.
    bool admitted = false;
    core::TaskPlan task_plan;
    if (injector.state(0).accepting()) {
      if (sched_on) {
        // Preemption ladder: probe-as-is first, then downgrade or evict
        // lower-priority served jobs (see sched/policy.h). Victim outcomes
        // apply even when the arrival is rejected (rollback re-shapes).
        // Candidates point at the served jobs' specs, which stay put until
        // apply_victims runs after the ladder returns.
        std::vector<sched::SchedCandidate> candidates;
        candidates.reserve(active.size());
        for (const std::size_t j : active) {
          const Job& served = jobs[j];
          candidates.push_back(sched::SchedCandidate{
              served.trace_id, served.priority, &served.admitted_task,
              served.sched_downgraded});
        }
        const sched::LadderOutcome outcome = sched::run_preemption_ladder(
            sched_host, task, candidates, options_.sched);
        report.sched.probes += outcome.probes;
        report.sched.rollbacks += outcome.rollbacks;
        sched_probes_total->inc(outcome.probes);
        apply_victims(outcome.victims, now);
        observe_ledger();
        switch (outcome.action) {
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
            ++report.sched.ladder_rejected;
            sched_rejections_total->inc();
            break;
        }
        if (outcome.action != sched::SchedAction::kReject) {
          admitted = true;
          task_plan = outcome.plan;
        }
      } else {
        const core::DeploymentPlan plan =
            controller_.admit_incremental(catalog_, {task}, catalog_fp_ptr);
        observe_ledger();
        if (plan.tasks.size() == 1 && plan.tasks[0].admitted) {
          admitted = true;
          task_plan = plan.tasks[0];
        }
      }
    }

    if (admitted) {
      set_state(job_index, Job::State::kActive);
      job.plan = std::move(task_plan);
      job.admitted_task = std::move(task);
      ++stats.admitted;
      counters.admissions->inc();
      if (job.attempts == 1)
        ++stats.admitted_first_try;
      else
        ++stats.admitted_after_retry;
      if (downgraded) ++stats.admitted_downgraded;
      flight(now, obs::FlightEventKind::kAdmission, job.trace_id,
             job.attempts, job.plan.accuracy,
             downgraded ? "downgraded" : "");
      if (sched_on) {
        deadline_monitor.on_admitted(job.trace_id, now, downgraded);
        check_conservation("after ladder admission");
      }
      return;
    }
    if (sched_on) check_conservation("after ladder rejection");

    if (job.attempts >= options_.retry.max_attempts) {
      set_state(job_index, Job::State::kRejected);
      ++stats.rejected_final;
      counters.rejections->inc();
      flight(now, obs::FlightEventKind::kRejection, job.trace_id,
             job.attempts, 0.0, "exhausted");
      if (sched_on) deadline_monitor.on_rejected(job.trace_id);
      return;
    }
    const double retry_at =
        now + options_.retry.retry_delay_s(job.attempts);
    if (retry_at > trace.horizon_s) {
      // The horizon ends before the backoff expires: the job never gets
      // another shot. It stays pending; counted at the end.
      return;
    }
    ++stats.retries_scheduled;
    counters.retries->inc();
    flight(now, obs::FlightEventKind::kRetryScheduled, job.trace_id,
           job.attempts, retry_at);
    calendar.push(
        LoopEvent{retry_at, sequence++, LoopEventKind::kRetry, job_index});
  };

  // Readmission attempt for a displaced job: same bounded-backoff /
  // accuracy-downgrade policy as first admission, but all accounting goes
  // to the fault ledger — the job's admission lifecycle counters were
  // settled when it was first admitted.
  auto attempt_readmission = [&](std::size_t job_index, double now) {
    ODN_TRACE_SPAN("fault", "fault.readmit");
    Job& job = jobs[job_index];
    ++job.attempts;

    core::DotTask task = job.admitted_task;  // keeps any prior downgrade
    const bool downgraded = options_.retry.downgrades(job.attempts);
    if (downgraded) task = downgraded_task(std::move(task), options_.retry);

    bool admitted = false;
    core::TaskPlan task_plan;
    if (injector.state(0).accepting()) {
      const core::DeploymentPlan plan =
          controller_.admit_incremental(catalog_, {task}, catalog_fp_ptr);
      observe_ledger();
      if (plan.tasks.size() == 1 && plan.tasks[0].admitted) {
        admitted = true;
        task_plan = plan.tasks[0];
      }
    }

    if (admitted) {
      set_state(job_index, Job::State::kActive);
      job.readmitting = false;
      job.plan = std::move(task_plan);
      job.admitted_task = std::move(task);
      if (job.attempts == 1)
        ++report.faults.displaced_replaced;
      else
        ++report.faults.displaced_readmitted;
      fault_replacements_total->inc();
      flight(now, obs::FlightEventKind::kReadmission, job.trace_id,
             job.attempts, job.plan.accuracy,
             downgraded ? "downgraded" : "fault");
      if (sched_on)
        deadline_monitor.on_readmitted(job.trace_id, now, downgraded);
      return;
    }
    if (job.attempts >= options_.retry.max_attempts) {
      set_state(job_index, Job::State::kRejected);
      ++report.faults.displaced_rejected;
      fault_rejections_total->inc();
      flight(now, obs::FlightEventKind::kRejection, job.trace_id,
             job.attempts, 0.0, "fault_exhausted");
      if (sched_on) deadline_monitor.on_rejected(job.trace_id);
      return;
    }
    const double retry_at = now + options_.retry.retry_delay_s(job.attempts);
    if (retry_at > trace.horizon_s) return;  // stays displaced-pending
    ++report.faults.readmission_retries;
    flight(now, obs::FlightEventKind::kRetryScheduled, job.trace_id,
           job.attempts, retry_at, "fault");
    calendar.push(
        LoopEvent{retry_at, sequence++, LoopEventKind::kRetry, job_index});
  };

  // Readmission attempt for a ladder-preempted job: plain admission (no
  // cascading ladder — an evicted job must not evict others) with the same
  // bounded-backoff / downgrade policy, accounted to the sched ledger.
  auto attempt_sched_readmission = [&](std::size_t job_index, double now) {
    ODN_TRACE_SPAN("sched", "sched.readmit");
    Job& job = jobs[job_index];
    ++job.attempts;

    core::DotTask task = job.admitted_task;  // the shape it was serving at
    const bool downgraded = options_.retry.downgrades(job.attempts);
    if (downgraded) task = downgraded_task(std::move(task), options_.retry);

    bool admitted = false;
    core::TaskPlan task_plan;
    if (injector.state(0).accepting()) {
      const core::DeploymentPlan plan =
          controller_.admit_incremental(catalog_, {task}, catalog_fp_ptr);
      observe_ledger();
      if (plan.tasks.size() == 1 && plan.tasks[0].admitted) {
        admitted = true;
        task_plan = plan.tasks[0];
      }
    }

    if (admitted) {
      set_state(job_index, Job::State::kActive);
      job.sched_preempted = false;  // this preemption is resolved
      job.plan = std::move(task_plan);
      job.admitted_task = std::move(task);
      ++report.sched.preempted_readmitted;
      sched_readmissions_total->inc();
      flight(now, obs::FlightEventKind::kReadmission, job.trace_id,
             job.attempts, job.plan.accuracy,
             downgraded ? "downgraded" : "sched");
      deadline_monitor.on_readmitted(job.trace_id, now, downgraded);
      return;
    }
    if (job.attempts >= options_.retry.max_attempts) {
      set_state(job_index, Job::State::kRejected);
      ++report.sched.preempted_rejected;
      flight(now, obs::FlightEventKind::kRejection, job.trace_id,
             job.attempts, 0.0, "sched_exhausted");
      deadline_monitor.on_rejected(job.trace_id);
      return;
    }
    const double retry_at = now + options_.retry.retry_delay_s(job.attempts);
    if (retry_at > trace.horizon_s) return;  // stays preempted-pending
    ++report.sched.readmission_retries;
    flight(now, obs::FlightEventKind::kRetryScheduled, job.trace_id,
           job.attempts, retry_at, "sched");
    calendar.push(
        LoopEvent{retry_at, sequence++, LoopEventKind::kRetry, job_index});
  };

  // Active jobs in displacement order: highest priority first (they grab
  // the surviving capacity first), ties by trace id — deterministic.
  // job.priority equals the template priority whenever scheduling (or QoS)
  // is off, so the order is unchanged on pre-sched configurations.
  auto displacement_order = [&] {
    std::vector<std::size_t> order(active.begin(), active.end());
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (jobs[a].priority != jobs[b].priority)
        return jobs[a].priority > jobs[b].priority;
      return jobs[a].trace_id < jobs[b].trace_id;
    });
    return order;
  };

  auto displace = [&](std::size_t job_index, double now) {
    Job& job = jobs[job_index];
    set_state(job_index, Job::State::kPending);
    job.readmitting = true;
    // A fault displacement supersedes a pending ladder preemption: the
    // job re-enters through the fault readmission path.
    job.sched_preempted = false;
    job.attempts = 0;
    ++report.faults.displaced;
    fault_displaced_total->inc();
    flight(now, obs::FlightEventKind::kDisplacement, job.trace_id);
    if (sched_on) {
      ++report.sched.fault_displacements;
      deadline_monitor.on_preempted(job.trace_id);
    }
  };

  // Fault application at the epoch boundary: replay every due event, run
  // its recovery action, and account the transition.
  auto apply_faults = [&](double now) {
    if (injector.idle()) return;
    const std::vector<fault::FaultEvent> events = injector.advance(now);
    if (events.empty()) return;
    ODN_TRACE_SPAN("fault", "fault.apply");
    for (const fault::FaultEvent& event : events) {
      report.faults.record_event(event.kind);
      fault_events_total->inc();
      flight(now, obs::FlightEventKind::kFault, obs::kNoFlightTask, 0,
             event.magnitude, fault::fault_event_kind_name(event.kind));
      switch (event.kind) {
        case fault::FaultEventKind::kCellCrash: {
          // The cell's state is lost: reset the controller and displace
          // every active job. The cell stops accepting until recovery, so
          // readmission attempts back off until then.
          const std::vector<std::size_t> order = displacement_order();
          controller_.reset();
          observe_ledger();
          for (const std::size_t j : order) displace(j, now);
          for (const std::size_t j : order) attempt_readmission(j, now);
          break;
        }
        case fault::FaultEventKind::kRadioDegrade: {
          // Admissions were solved against the nominal radio; re-run them
          // under the derated model (release everything, then readmit in
          // priority order — failures enter the backoff/downgrade policy).
          live_radio = radio_.scaled(event.magnitude);
          controller_.set_radio(live_radio);
          const std::vector<std::size_t> order = displacement_order();
          for (const std::size_t j : order) {
            if (!controller_.release(jobs[j].name))
              throw std::logic_error(util::fmt(
                  "ServingRuntime: displaced job '{}' unknown to controller",
                  jobs[j].name));
          }
          observe_ledger();
          for (const std::size_t j : order) displace(j, now);
          for (const std::size_t j : order) attempt_readmission(j, now);
          break;
        }
        case fault::FaultEventKind::kRadioRestore:
          live_radio = radio_;
          controller_.set_radio(live_radio);
          break;
        case fault::FaultEventKind::kCellRecover:
        case fault::FaultEventKind::kLatencyInflate:
        case fault::FaultEventKind::kLatencyRestore:
        case fault::FaultEventKind::kBudgetExhaust:
        case fault::FaultEventKind::kBudgetRestore:
          // State-only transitions: the injector's per-cell state gates
          // admission (accepting()) and measurement (latency_factor).
          break;
      }
    }
  };

  // Epoch measurement: assemble the live deployment and emulate it.
  auto measure_epoch = [&](double now, std::size_t epoch_index) {
    ODN_TRACE_SPAN("runtime", "runtime.epoch");
    util::Stopwatch epoch_watch;
    EpochSnapshot snapshot;
    snapshot.time_s = now;
    snapshot.deployed_blocks = controller_.deployed_blocks().size();

    // Per-class counts for this epoch alone — the alert engine's input
    // (the ClassStats totals accumulate across the whole run).
    std::vector<std::uint64_t> epoch_class_samples(report.classes.size(), 0);
    std::vector<std::uint64_t> epoch_class_violations(report.classes.size(),
                                                      0);

    core::DeploymentPlan live;
    std::unordered_map<std::string, std::size_t> class_by_name;
    live.tasks.reserve(active.size());
    for (const std::size_t j : active) {
      live.tasks.push_back(jobs[j].plan);
      class_by_name.emplace(jobs[j].name, jobs[j].class_index);
    }
    snapshot.active_tasks = live.tasks.size();

    if (!live.tasks.empty()) {
      sim::EmulatorOptions emu_options;
      emu_options.duration_s = options_.emulation_window_s;
      emu_options.seed = epoch_seed(options_.seed, epoch_index);
      emu_options.poisson_arrivals = options_.poisson_emulation;
      emu_options.batching = options_.batching;
      emu_options.flight_time_base_s = now;
      emu_options.flight_cell = 0;
      sim::EdgeEmulator emulator(std::move(live), live_radio,
                                 resources_.compute_capacity_s, emu_options);
      const sim::EmulationReport measured = emulator.run();
      if (batching_on) {
        report.batching.dispatches += measured.batch_dispatches;
        report.batching.coalesced_requests += measured.coalesced_requests;
        report.batching.max_batch = std::max(report.batching.max_batch,
                                             measured.max_batch_observed);
        batch_dispatches_total->inc(measured.batch_dispatches);
        batch_coalesced_total->inc(measured.coalesced_requests);
      }

      // Latency inflation scales the measured samples at accounting time
      // (a factor of 1 is the bit-exact identity, so fault-free epochs
      // reproduce the pre-fault bytes).
      const double latency_factor =
          injector.idle() ? 1.0 : injector.state(0).latency_factor;
      std::vector<double> epoch_latencies;
      for (const sim::TaskTrace& task_trace : measured.tasks) {
        const std::size_t class_index =
            class_by_name.at(task_trace.task_name);
        ClassStats& stats = report.classes[class_index];
        std::size_t violations = 0;
        for (const sim::LatencySample& sample : task_trace.samples) {
          const double measured_s = latency_factor == 1.0
                                        ? sample.latency_s
                                        : sample.latency_s * latency_factor;
          stats.latency_samples_s.push_back(measured_s);
          epoch_latencies.push_back(measured_s);
          // Emulated (virtual-time) latencies: deterministic per seed, so
          // the histogram buckets snapshot identically across thread counts.
          epoch_latency.observe(measured_s);
          if (measured_s > task_trace.latency_bound_s) ++violations;
        }
        stats.slo_violations += violations;
        snapshot.slo_violations += violations;
        class_metrics[class_index].slo_violations->inc(violations);
        epoch_class_samples[class_index] += task_trace.samples.size();
        epoch_class_violations[class_index] += violations;
        if (violations > 0)
          flight(now, obs::FlightEventKind::kSloViolation,
                 task_trace.correlation, violations,
                 task_trace.latency_bound_s);
      }
      snapshot.samples = epoch_latencies.size();
      snapshot.p95_latency_s =
          epoch_latencies.empty()
              ? 0.0
              : util::percentile(std::move(epoch_latencies), 95.0);
      snapshot.gpu_busy_fraction = measured.gpu_busy_fraction;

      // Per-fault-class SLO impact: attribute this epoch's violations to
      // every fault class active on the cell (clear when nominal).
      if (!injector.idle() && snapshot.slo_violations > 0) {
        const fault::CellFaultState& cell_state = injector.state(0);
        bool attributed = false;
        if (!cell_state.up) {
          report.faults.violations_during_crash += snapshot.slo_violations;
          attributed = true;
        }
        if (cell_state.bandwidth_factor != 1.0) {
          report.faults.violations_during_radio += snapshot.slo_violations;
          attributed = true;
        }
        if (cell_state.latency_factor != 1.0) {
          report.faults.violations_during_latency += snapshot.slo_violations;
          attributed = true;
        }
        if (cell_state.budget_exhausted) {
          report.faults.violations_during_budget += snapshot.slo_violations;
          attributed = true;
        }
        if (!attributed)
          report.faults.violations_clear += snapshot.slo_violations;
      }
    }
    samples_total.inc(snapshot.samples);
    flight(now, obs::FlightEventKind::kEpochSeal, obs::kNoFlightTask,
           snapshot.samples, snapshot.p95_latency_s);

    // Burn-rate evaluation at every boundary, including task-free epochs
    // (empty epochs slide the windows). One null check when disabled.
    const std::size_t emitted = obs::maybe_observe_epoch(
        alert_engine.get(), epoch_index + 1, now, epoch_class_samples,
        epoch_class_violations);
    if (emitted > 0 && obs::flight_enabled()) {
      const std::vector<obs::AlertRecord>& records =
          alert_engine->log().records;
      for (std::size_t r = records.size() - emitted; r < records.size(); ++r)
        flight(now, obs::FlightEventKind::kAlert, obs::kNoFlightTask,
               records[r].epoch, records[r].fast_burn,
               records[r].firing ? "fire" : "resolve");
    }

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
        Job& job = jobs[event.job];
        ++report.classes[job.class_index].arrivals;
        class_metrics[job.class_index].arrivals->inc();
        // The arrival's value carries the admit-by deadline the monitor
        // tracks (zero when scheduling is off — no deadline semantics).
        flight(event.time, obs::FlightEventKind::kArrival, job.trace_id,
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
        ClassStats& stats = report.classes[job.class_index];
        flight(event.time, obs::FlightEventKind::kDeparture, job.trace_id,
               0, 0.0,
               job.state == Job::State::kActive  ? "serving"
               : job.state == Job::State::kPending ? "pending"
                                                   : "after_rejection");
        if (job.state == Job::State::kActive) {
          if (!controller_.release(job.name))
            throw std::logic_error(util::fmt(
                "ServingRuntime: active job '{}' unknown to controller",
                job.name));
          ++stats.departures;
          observe_ledger();
        } else if (job.state == Job::State::kPending) {
          if (job.readmitting)
            ++report.faults.displaced_departed;
          else if (job.sched_preempted)
            ++report.sched.preempted_departed;
          else
            ++stats.departed_before_admission;
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
    if (job.state == Job::State::kActive) ++report.active_at_end;
  }
  report.deployed_blocks_at_end = controller_.deployed_blocks().size();
  if (sched_on) {
    deadline_monitor.finalize(report.sched);
    check_conservation("at end of run");
  }
  if (alert_engine) report.alerts = alert_engine->log();
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
