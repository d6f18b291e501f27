#include "runtime/serving_loop.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/fingerprint.h"
#include "obs/trace.h"
#include "sched/conservation.h"
#include "sim/emulator.h"
#include "util/fmt.h"

namespace odn::runtime {
namespace {

// Epoch emulation seeds: one independent stream per (epoch, cell), derived
// from the base seed with a SplitMix64-style odd-constant mix. The stream
// index epoch·cells + cell is the plain epoch index on a single cell.
std::uint64_t epoch_seed(std::uint64_t base, std::size_t stream) noexcept {
  return base + 0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(stream) + 1);
}

void inc(obs::Counter* counter, std::uint64_t n = 1) noexcept {
  if (counter != nullptr) counter->inc(n);
}

}  // namespace

std::size_t LoopOptions::class_of(double priority) const noexcept {
  std::size_t index = 0;
  while (index < class_boundaries.size() && priority >= class_boundaries[index])
    ++index;
  return index;
}

void LoopOptions::validate_loop(const char* owner) const {
  auto fail = [owner](const char* what) {
    throw std::invalid_argument(util::fmt("{}: {}", owner, what));
  };
  if (epoch_s < 0.0) fail("negative epoch");
  if (epoch_s > 0.0 && emulation_window_s <= 0.0)
    fail("non-positive emulation window");
  if (class_names.size() != class_boundaries.size() + 1)
    fail("class_names must be one longer than boundaries");
  if (!std::is_sorted(class_boundaries.begin(), class_boundaries.end()))
    fail("class boundaries must be ascending");
  if (!faults.empty()) {
    faults.validate();
    if (epoch_s <= 0.0) fail("fault plan needs a positive epoch cadence");
  }
  if (sched.enabled) sched.validate();
  retry.validate();
}

ServingLoop::ServingLoop(const LoopOptions& options,
                         const model::BatchingOptions& batching,
                         const obs::AlertOptions& alerts,
                         const std::vector<core::DotTask>& templates,
                         const edge::DnnCatalog& catalog,
                         PlacementBackend& backend)
    : options_(options),
      batching_(batching),
      templates_(templates),
      catalog_(catalog),
      backend_(backend),
      injector_(options.faults),
      active_(backend.cell_count()) {
  backend_.loop_ = this;
  if (!active_.empty()) {
    const core::OffloadnnController& controller = backend_.cell(0).controller;
    cached_ = controller.plan_cache() != nullptr ||
              controller.solver_cache() != nullptr;
  }
  if (cached_) digest_ = core::catalog_digest(catalog_);
  const std::size_t class_count = options_.class_names.size();
  books_.classes.resize(class_count);
  for (std::size_t c = 0; c < class_count; ++c)
    books_.classes[c].name = options_.class_names[c];
  epoch_class_samples_.assign(class_count, 0);
  epoch_class_violations_.assign(class_count, 0);

  // Everything below increments on the serial event loop, so the metric
  // snapshots are byte-identical for any ODN_THREADS (DESIGN.md §6).
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  auto series = [&registry](bool on, const char* name,
                            const obs::Labels& labels = {}) {
    return on ? &registry.counter(name, labels) : nullptr;
  };
  const bool runtime_series = backend_.traits().runtime_metrics;
  class_metrics_.resize(class_count);
  for (std::size_t c = 0; c < class_count; ++c) {
    const obs::Labels labels{{"class", options_.class_names[c]}};
    class_metrics_[c] = ClassCounters{
        series(runtime_series, "odn_runtime_arrivals_total", labels),
        series(runtime_series, "odn_runtime_admissions_total", labels),
        series(runtime_series, "odn_runtime_rejections_total", labels),
        series(runtime_series, "odn_runtime_retries_total", labels),
        series(runtime_series, "odn_runtime_slo_violations_total", labels)};
  }
  samples_total_ =
      series(runtime_series, "odn_runtime_emulation_samples_total");
  if (runtime_series)
    epoch_latency_ = &registry.histogram(
        "odn_runtime_epoch_latency_seconds",
        {0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0});
  epochs_total_ = series(true, backend_.traits().epochs_metric);

  const bool faults_on = !injector_.idle();
  books_.faults.enabled = !options_.faults.empty();
  fault_events_total_ = series(faults_on, "odn_fault_events_total");
  fault_displaced_total_ = series(faults_on, "odn_fault_displaced_total");
  fault_replacements_total_ = series(faults_on, "odn_fault_replacements_total");
  fault_rejections_total_ = series(faults_on, "odn_fault_rejections_total");

  books_.sched.enabled = sched_on();
  sched_probes_total_ = series(sched_on(), "odn_sched_probes_total");
  sched_preemptions_total_ = series(sched_on(), "odn_sched_preemptions_total");
  sched_downgrades_total_ = series(sched_on(), "odn_sched_downgrades_total");
  sched_readmissions_total_ =
      series(sched_on(), "odn_sched_readmissions_total");
  sched_rejections_total_ =
      series(sched_on(), "odn_sched_ladder_rejections_total");

  books_.batching.enabled = batching_.enabled;
  batch_dispatches_total_ =
      series(batching_.enabled, "odn_batch_dispatches_total");
  batch_coalesced_total_ =
      series(batching_.enabled, "odn_batch_coalesced_requests_total");
  if (batching_.enabled)
    for (const core::DotTask& tmpl : templates_)
      for (const core::PathOption& option : tmpl.options)
        books_.batching.probe_scale_min =
            std::min(books_.batching.probe_scale_min, option.compute_scale);

  // SLO burn-rate alerting sees only the integer per-class counts of the
  // serial epoch loop; disabled runs pay one null check per epoch.
  books_.alerts.enabled = alerts.enabled;
  if (alerts.enabled)
    alert_engine_ = std::make_unique<obs::BurnRateAlertEngine>(
        alerts, options_.class_names);
}

void ServingLoop::push(double time, LoopEventKind kind, std::size_t job) {
  calendar_.push(LoopEvent{time, sequence_++, kind, job});
}

// Trace events are pushed in trace order, epoch events afterwards: the
// sequence counter makes same-instant ordering deterministic (churn first,
// then measurement).
void ServingLoop::materialize(const WorkloadTrace& trace) {
  for (const WorkloadEvent& event : trace.events) {
    if (event.kind != WorkloadEventKind::kArrival) {
      push(event.time_s, LoopEventKind::kDeparture,
           job_by_trace_id_.at(event.job_id));
      continue;
    }
    Job job;
    job.trace_id = event.job_id;
    job.template_index = event.template_index;
    const core::DotTask& tmpl = templates_[event.template_index];
    // QoS annotations only take effect under scheduling; otherwise the
    // job mirrors its template exactly (pre-sched byte identity).
    const bool use_qos = sched_on() && event.has_qos;
    job.priority = use_qos ? event.priority : tmpl.spec.priority;
    job.deadline_s =
        use_qos ? event.deadline_s : options_.sched.default_deadline_s;
    job.class_index = options_.class_of(job.priority);
    job.name = util::fmt("job-{}/{}", event.job_id, tmpl.spec.name);
    if (sched_on())
      deadline_monitor_.track(event.job_id, event.time_s, job.deadline_s);
    job_by_trace_id_.emplace(event.job_id, jobs_.size());
    push(event.time_s, LoopEventKind::kArrival, jobs_.size());
    jobs_.push_back(std::move(job));
  }
  std::size_t epoch_count = 0;
  if (options_.epoch_s > 0.0) {
    for (double t = options_.epoch_s; t <= trace.horizon_s + 1e-9;
         t += options_.epoch_s)
      push(std::min(t, trace.horizon_s), LoopEventKind::kEpoch, epoch_count++);
  }
}

void ServingLoop::set_state(std::size_t index, Job::State state,
                            std::size_t cell) {
  Job& job = jobs_[index];
  if (job.state == Job::State::kActive) active_[job.cell].erase(index);
  job.state = state;
  job.cell = state == Job::State::kActive ? cell : kNoCell;
  if (state == Job::State::kActive) active_[cell].insert(index);
}

// Flight-recorder hook: every site runs on this serial loop, so the
// recorded stream is identical for any ODN_THREADS. One relaxed load +
// branch when disabled.
void ServingLoop::flight(double now, obs::FlightEventKind kind,
                         std::uint64_t task, std::size_t cell,
                         std::uint64_t count, double value,
                         const char* detail) const {
  if (!obs::flight_enabled()) return;
  const std::int64_t flight_cell = backend_.traits().flight_cell_zero ? 0
                                   : cell == kNoCell ? -1
                                   : static_cast<std::int64_t>(cell);
  obs::flight_record(
      obs::FlightEvent{now, kind, task, flight_cell, count, value, detail});
}

void ServingLoop::observe_all() {
  for (std::size_t i = 0; i < active_.size(); ++i) {
    const PlacementBackend::Cell cell = backend_.cell(i);
    const edge::ResourceLedger& ledger = cell.controller.ledger();
    ResourceWatermarks& w = cell.watermarks;
    w.peak_memory_bytes =
        std::max(w.peak_memory_bytes, ledger.memory_used_bytes());
    w.peak_compute_s = std::max(w.peak_compute_s, ledger.compute_used_s());
    w.peak_rbs = std::max(w.peak_rbs, ledger.rbs_used());
  }
}

// No-orphaned-resources conservation: after every sched admission attempt
// and at each epoch boundary, every cell's ledger and deployed blocks must
// re-derive exactly from the plans it serves (sched/conservation.h). A
// violation is an internal invariant break.
void ServingLoop::check_conservation(const char* where) const {
  if (!sched_on()) return;
  for (std::size_t i = 0; i < active_.size(); ++i) {
    std::vector<std::pair<std::string, const core::TaskPlan*>> served;
    served.reserve(active_[i].size());
    for (const std::size_t j : active_[i])
      served.emplace_back(jobs_[j].name, &jobs_[j].plan);
    if (const auto violation = sched::find_orphaned_resources(
            backend_.cell(i).controller, served, catalog_))
      throw std::logic_error(
          util::fmt("{}: orphaned resources on cell {} {}: {}",
                    backend_.traits().owner, i, where, *violation));
  }
}

// Candidates point at the served jobs' specs, which stay put until
// apply_victims runs after the ladder returns.
Placement ServingLoop::run_ladder(std::size_t cell, sched::SchedHost& host,
                                  const core::DotTask& task, double now) {
  std::vector<sched::SchedCandidate> candidates;
  candidates.reserve(active_[cell].size());
  for (const std::size_t j : active_[cell]) {
    const Job& served = jobs_[j];
    candidates.push_back(sched::SchedCandidate{
        served.trace_id, served.priority, &served.admitted_task,
        served.sched_downgraded});
  }
  const sched::LadderOutcome outcome =
      sched::run_preemption_ladder(host, task, candidates, options_.sched);
  books_.sched.probes += outcome.probes;
  books_.sched.rollbacks += outcome.rollbacks;
  sched_probes_total_->inc(outcome.probes);
  apply_victims(outcome.victims, now);
  Placement placement;
  placement.ladder_ran = true;
  placement.action = outcome.action;
  if (outcome.action != sched::SchedAction::kReject) {
    placement.admitted = true;
    placement.cell = cell;
    placement.plan = outcome.plan;
  }
  return placement;
}

// Re-shaped plans replace the served ones (same cell); preempted jobs lose
// their cell and re-enter through the sched readmission books (first retry
// after one backoff interval).
void ServingLoop::apply_victims(
    const std::vector<sched::VictimOutcome>& victims, double now) {
  for (const sched::VictimOutcome& outcome : victims) {
    const std::size_t victim_index = job_by_trace_id_.at(outcome.id);
    Job& victim = jobs_[victim_index];
    switch (outcome.fate) {
      case sched::VictimOutcome::Fate::kDowngraded:
        flight(now, obs::FlightEventKind::kDowngrade, victim.trace_id,
               victim.cell, 0, outcome.plan.accuracy, "ladder");
        victim.plan = outcome.plan;
        victim.admitted_task = outcome.task;
        victim.sched_downgraded = true;
        ++books_.sched.downgrades;
        sched_downgrades_total_->inc();
        deadline_monitor_.on_downgraded(victim.trace_id);
        break;
      case sched::VictimOutcome::Fate::kRestored:
        // Rolled back — same spec, freshly solved plan.
        victim.plan = outcome.plan;
        victim.admitted_task = outcome.task;
        break;
      case sched::VictimOutcome::Fate::kPreempted: {
        flight(now, obs::FlightEventKind::kPreemption, victim.trace_id,
               victim.cell, 0, 0.0, "ladder");
        set_state(victim_index, Job::State::kPending);
        victim.sched_preempted = true;
        victim.attempts = 0;
        ++books_.sched.preemptions;
        sched_preemptions_total_->inc();
        deadline_monitor_.on_preempted(victim.trace_id);
        const double retry_at = now + options_.retry.retry_delay_s(1);
        if (retry_at > horizon_s_) break;  // preempted-pending
        ++books_.sched.readmission_retries;
        push(retry_at, LoopEventKind::kRetry, victim_index);
        break;
      }
    }
  }
}

// A pending job's attempt, booked by why it is pending: displaced jobs
// (fault recovery) to the fault ledger, ladder-preempted jobs to the sched
// ledger, everyone else to the admission lifecycle of its class.
void ServingLoop::attempt(std::size_t index, double now) {
  Job& job = jobs_[index];
  const Route route = job.readmitting       ? Route::kFault
                      : job.sched_preempted ? Route::kSched
                                            : Route::kAdmission;
  const bool first = route == Route::kAdmission;
  std::optional<obs::SpanScope> span;
  if (route == Route::kFault)
    span.emplace("fault", "fault.readmit");
  else if (route == Route::kSched)
    span.emplace("sched", "sched.readmit");
  else if (backend_.traits().admit_span != nullptr)
    span.emplace(backend_.traits().span_category, backend_.traits().admit_span);
  static constexpr const char* kTag[] = {"", "fault", "sched"};
  static constexpr const char* kExhausted[] = {"exhausted", "fault_exhausted",
                                               "sched_exhausted"};
  const auto r = static_cast<std::size_t>(route);
  ClassStats& stats = books_.classes[job.class_index];
  ClassCounters& counters = class_metrics_[job.class_index];
  ++job.attempts;

  // Readmissions keep the shape the job was serving at (including any
  // prior downgrade); a first admission instantiates its template.
  core::DotTask task = first ? templates_[job.template_index]
                             : job.admitted_task;
  if (first) {
    task.spec.name = job.name;
    // Correlation for flight-recorder timelines; like the name, it never
    // enters the solve or the plan-cache keys.
    task.spec.correlation = job.trace_id;
    if (sched_on()) task.spec.priority = job.priority;
  }
  const bool downgraded = options_.retry.downgrades(job.attempts);
  if (downgraded) task = downgraded_task(std::move(task), options_.retry);

  // Readmissions never cascade through the ladder: an evicted or
  // displaced job must not evict others.
  const bool ladder = first && sched_on();
  Placement placed = backend_.place(task, now, ladder);
  observe_all();
  if (ladder && placed.admitted) {
    ++(placed.action == sched::SchedAction::kAdmit ? books_.sched.admitted_plain
       : placed.action == sched::SchedAction::kDowngrade
           ? books_.sched.admitted_by_downgrade
           : books_.sched.admitted_by_preemption);
  } else if (ladder && placed.ladder_ran) {
    ++books_.sched.ladder_rejected;
    sched_rejections_total_->inc();
  }

  if (placed.admitted) {
    set_state(index, Job::State::kActive, placed.cell);
    job.plan = std::move(placed.plan);
    job.admitted_task = std::move(task);
    if (first) {
      ++stats.admitted;
      ++(job.attempts == 1 ? stats.admitted_first_try
                           : stats.admitted_after_retry);
      if (downgraded) ++stats.admitted_downgraded;
      inc(counters.admissions);
      backend_.count_admission(placed);
      flight(now, obs::FlightEventKind::kAdmission, job.trace_id,
             placed.cell, job.attempts, job.plan.accuracy,
             downgraded ? "downgraded" : "");
      if (sched_on())
        deadline_monitor_.on_admitted(job.trace_id, now, downgraded);
      check_conservation("after admission");
      return;
    }
    if (route == Route::kFault) {
      job.readmitting = false;
      ++(job.attempts == 1 ? books_.faults.displaced_replaced
                           : books_.faults.displaced_readmitted);
      fault_replacements_total_->inc();
    } else {
      job.sched_preempted = false;  // this preemption is resolved
      ++books_.sched.preempted_readmitted;
      sched_readmissions_total_->inc();
    }
    flight(now, obs::FlightEventKind::kReadmission, job.trace_id,
           placed.cell, job.attempts, job.plan.accuracy,
           downgraded ? "downgraded" : kTag[r]);
    if (sched_on())
      deadline_monitor_.on_readmitted(job.trace_id, now, downgraded);
    return;
  }
  if (ladder) check_conservation("after rejection");

  if (job.attempts >= options_.retry.max_attempts) {
    set_state(index, Job::State::kRejected);
    ++(first                     ? stats.rejected_final
       : route == Route::kFault ? books_.faults.displaced_rejected
                                : books_.sched.preempted_rejected);
    inc(first                     ? counters.rejections
        : route == Route::kFault ? fault_rejections_total_
                                 : nullptr);
    flight(now, obs::FlightEventKind::kRejection, job.trace_id, kNoCell,
           job.attempts, 0.0, kExhausted[r]);
    if (sched_on()) deadline_monitor_.on_rejected(job.trace_id);
    return;
  }
  // The horizon may end before the backoff expires: the job never gets
  // another shot and stays pending; counted at the end.
  const double retry_at = now + options_.retry.retry_delay_s(job.attempts);
  if (retry_at > horizon_s_) return;
  ++(first                     ? stats.retries_scheduled
     : route == Route::kFault ? books_.faults.readmission_retries
                              : books_.sched.readmission_retries);
  if (first) inc(counters.retries);
  flight(now, obs::FlightEventKind::kRetryScheduled, job.trace_id, kNoCell,
         job.attempts, retry_at, kTag[r]);
  push(retry_at, LoopEventKind::kRetry, index);
}

// Fault application at the epoch boundary: replay every due event, run its
// recovery action and account the transition. A crash loses the cell's
// state; a radio degradation re-runs the cell's admissions under the
// derated model. Either way the cell's jobs are displaced and readmitted
// in displacement order; failures enter the backoff/downgrade policy.
void ServingLoop::apply_faults(double now) {
  if (injector_.idle()) return;
  const std::vector<fault::FaultEvent> events = injector_.advance(now);
  if (events.empty()) return;
  ODN_TRACE_SPAN("fault", "fault.apply");
  for (const fault::FaultEvent& event : events) {
    books_.faults.record_event(event.kind);
    fault_events_total_->inc();
    flight(now, obs::FlightEventKind::kFault, obs::kNoFlightTask, event.cell,
           0, event.magnitude, fault::fault_event_kind_name(event.kind));
    const bool crash = event.kind == fault::FaultEventKind::kCellCrash;
    if (crash || event.kind == fault::FaultEventKind::kRadioDegrade) {
      if (!crash) backend_.derate_radio(event.cell, event.magnitude);
      // Displacement order: highest priority first (they grab the
      // surviving capacity first), ties by trace id — deterministic.
      // job.priority equals the template priority whenever scheduling (or
      // QoS) is off, so the order is unchanged on pre-sched configurations.
      std::vector<std::size_t> order(active_[event.cell].begin(),
                                     active_[event.cell].end());
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        if (jobs_[a].priority != jobs_[b].priority)
          return jobs_[a].priority > jobs_[b].priority;
        return jobs_[a].trace_id < jobs_[b].trace_id;
      });
      if (crash) {
        backend_.crash(event.cell);
      } else {
        for (const std::size_t j : order)
          if (!backend_.release(jobs_[j].name))
            throw std::logic_error(util::fmt(
                "{}: displaced job '{}' unknown to its cell",
                backend_.traits().owner, jobs_[j].name));
      }
      observe_all();
      for (const std::size_t j : order) {
        Job& job = jobs_[j];
        flight(now, obs::FlightEventKind::kDisplacement, job.trace_id,
               job.cell);
        set_state(j, Job::State::kPending);
        job.readmitting = true;
        // A fault displacement supersedes a pending ladder preemption: the
        // job re-enters through the fault readmission books.
        job.sched_preempted = false;
        job.attempts = 0;
        ++books_.faults.displaced;
        fault_displaced_total_->inc();
        if (sched_on()) {
          ++books_.sched.fault_displacements;
          deadline_monitor_.on_preempted(job.trace_id);
        }
      }
      for (const std::size_t j : order) attempt(j, now);
    } else if (event.kind == fault::FaultEventKind::kRadioRestore) {
      backend_.derate_radio(event.cell, 1.0);
    }
    // Other transitions are state-only: the injector's per-cell state
    // gates admission and scales measurement (latency_factor).
    backend_.sync_gate(event.cell);
  }
}

void ServingLoop::depart(std::size_t index, double now) {
  Job& job = jobs_[index];
  flight(now, obs::FlightEventKind::kDeparture, job.trace_id, job.cell, 0, 0.0,
         job.state == Job::State::kActive    ? "serving"
         : job.state == Job::State::kPending ? "pending"
                                             : "after_rejection");
  if (job.state == Job::State::kActive) {
    if (!backend_.release(job.name))
      throw std::logic_error(
          util::fmt("{}: active job '{}' unknown to its cell",
                    backend_.traits().owner, job.name));
    ++backend_.cell(job.cell).classes[job.class_index].departures;
    observe_all();
  } else if (job.state == Job::State::kPending) {
    if (job.readmitting)
      ++books_.faults.displaced_departed;
    else if (job.sched_preempted)
      ++books_.sched.preempted_departed;
    else
      ++books_.classes[job.class_index].departed_before_admission;
  }
  set_state(index, Job::State::kDeparted);
  if (sched_on()) deadline_monitor_.on_departed(job.trace_id);
}

// Epoch boundary: emulate every cell's live deployment with its own
// stream, account the measured samples to the cell's books, attribute
// violations to active faults, then hand over to the backend's extras.
void ServingLoop::epoch(double now, std::size_t index) {
  const PlacementBackend::Traits& traits = backend_.traits();
  const obs::SpanScope span(traits.span_category, traits.epoch_span);
  const util::Stopwatch watch;
  EpochMeasure m;
  m.violations_by_cell.assign(active_.size(), 0);
  std::fill(epoch_class_samples_.begin(), epoch_class_samples_.end(), 0);
  std::fill(epoch_class_violations_.begin(), epoch_class_violations_.end(), 0);
  for (std::size_t i = 0; i < active_.size(); ++i) {
    core::DeploymentPlan live;
    std::unordered_map<std::string, std::size_t> class_by_name;
    live.tasks.reserve(active_[i].size());
    for (const std::size_t j : active_[i]) {
      live.tasks.push_back(jobs_[j].plan);
      class_by_name.emplace(jobs_[j].name, jobs_[j].class_index);
    }
    m.active_tasks += live.tasks.size();
    if (live.tasks.empty()) continue;

    sim::EmulatorOptions emu_options;
    emu_options.duration_s = options_.emulation_window_s;
    emu_options.seed = epoch_seed(options_.seed, index * active_.size() + i);
    emu_options.poisson_arrivals = options_.poisson_emulation;
    emu_options.batching = batching_;
    emu_options.flight_time_base_s = now;
    emu_options.flight_cell =
        backend_.traits().flight_cell_zero ? 0 : static_cast<std::int64_t>(i);
    const PlacementBackend::Cell cell = backend_.cell(i);
    sim::EdgeEmulator emulator(std::move(live), cell.radio,
                               cell.compute_capacity_s, emu_options);
    const sim::EmulationReport measured = emulator.run();
    m.gpu_busy_fraction = measured.gpu_busy_fraction;
    if (batching_.enabled) {
      books_.batching.dispatches += measured.batch_dispatches;
      books_.batching.coalesced_requests += measured.coalesced_requests;
      books_.batching.max_batch =
          std::max(books_.batching.max_batch, measured.max_batch_observed);
      batch_dispatches_total_->inc(measured.batch_dispatches);
      batch_coalesced_total_->inc(measured.coalesced_requests);
    }

    // Latency inflation scales the measured samples at accounting time (a
    // factor of 1 is the bit-exact identity, so fault-free epochs reproduce
    // the pre-fault bytes).
    const double latency_factor =
        injector_.idle() ? 1.0 : injector_.state(i).latency_factor;
    for (const sim::TaskTrace& task_trace : measured.tasks) {
      const std::size_t class_index = class_by_name.at(task_trace.task_name);
      ClassStats& stats = cell.classes[class_index];
      std::size_t violations = 0;
      for (const sim::LatencySample& sample : task_trace.samples) {
        const double measured_s = latency_factor == 1.0
                                      ? sample.latency_s
                                      : sample.latency_s * latency_factor;
        stats.latency_samples_s.push_back(measured_s);
        m.latencies.push_back(measured_s);
        // Emulated (virtual-time) latencies: deterministic per seed, so the
        // histogram buckets snapshot identically across thread counts.
        if (epoch_latency_ != nullptr) epoch_latency_->observe(measured_s);
        if (measured_s > task_trace.latency_bound_s) ++violations;
      }
      stats.slo_violations += violations;
      m.violations_by_cell[i] += violations;
      m.slo_violations += violations;
      inc(class_metrics_[class_index].slo_violations, violations);
      epoch_class_samples_[class_index] += task_trace.samples.size();
      epoch_class_violations_[class_index] += violations;
      if (violations > 0)
        flight(now, obs::FlightEventKind::kSloViolation,
               task_trace.correlation, i, violations,
               task_trace.latency_bound_s);
    }
  }

  if (!injector_.idle() && m.slo_violations > 0) {
    // Per-fault-class SLO impact: a violating cell's violations count toward
    // every fault class locally active on it; a nominal cell's violations
    // while some cell is down count as crash impact, and only fault-free
    // epochs and cells land in the clear bucket. (A crashed cell serves
    // nothing — the crash displaced its jobs and its gate refuses
    // readmission — so it never reports violations itself.)
    bool any_down = false;
    for (std::size_t i = 0; i < active_.size(); ++i)
      if (!injector_.state(i).up) any_down = true;
    fault::FaultStats& f = books_.faults;
    for (std::size_t i = 0; i < active_.size(); ++i) {
      const std::size_t violations = m.violations_by_cell[i];
      if (violations == 0) continue;
      const fault::CellFaultState& state = injector_.state(i);
      const bool radio = state.bandwidth_factor != 1.0;
      const bool latency = state.latency_factor != 1.0;
      if (radio) f.violations_during_radio += violations;
      if (latency) f.violations_during_latency += violations;
      if (state.budget_exhausted) f.violations_during_budget += violations;
      if (!radio && !latency && !state.budget_exhausted)
        (any_down ? f.violations_during_crash : f.violations_clear) +=
            violations;
    }
  }
  backend_.close_epoch(now, index, m, watch);
  ++books_.epochs;
  epochs_total_->inc();
}

void ServingLoop::seal_epoch(double now, std::size_t epoch,
                             std::size_t samples, double seal_value) {
  inc(samples_total_, samples);
  flight(now, obs::FlightEventKind::kEpochSeal, obs::kNoFlightTask, kNoCell,
         samples, seal_value);
  // Burn-rate evaluation at every boundary, including task-free epochs
  // (empty epochs slide the windows). One null check when disabled.
  const std::size_t emitted = obs::maybe_observe_epoch(
      alert_engine_.get(), epoch + 1, now, epoch_class_samples_,
      epoch_class_violations_);
  if (emitted > 0 && obs::flight_enabled()) {
    const std::vector<obs::AlertRecord>& records = alert_engine_->log().records;
    for (std::size_t r = records.size() - emitted; r < records.size(); ++r)
      flight(now, obs::FlightEventKind::kAlert, obs::kNoFlightTask, kNoCell,
             records[r].epoch, records[r].fast_burn,
             records[r].firing ? "fire" : "resolve");
  }
}

void ServingLoop::run(const WorkloadTrace& trace) {
  trace.validate();
  if (trace.template_count != templates_.size())
    throw std::invalid_argument(util::fmt(
        "{}: trace indexes {} templates, runtime has {}",
        backend_.traits().owner, trace.template_count, templates_.size()));
  horizon_s_ = trace.horizon_s;
  materialize(trace);

  while (!calendar_.empty()) {
    const LoopEvent event = calendar_.top();
    calendar_.pop();
    ++books_.events_processed;

    switch (event.kind) {
      case LoopEventKind::kArrival: {
        const Job& job = jobs_[event.job];
        ++books_.classes[job.class_index].arrivals;
        inc(class_metrics_[job.class_index].arrivals);
        // The arrival's value carries the admit-by deadline the monitor
        // tracks (zero when scheduling is off — no deadline semantics).
        flight(event.time, obs::FlightEventKind::kArrival, job.trace_id,
               kNoCell, job.template_index, sched_on() ? job.deadline_s : 0.0);
        attempt(event.job, event.time);
        break;
      }
      case LoopEventKind::kRetry:
        // A departure or the final rejection may have landed during the
        // backoff; only still-pending jobs retry.
        if (jobs_[event.job].state == Job::State::kPending)
          attempt(event.job, event.time);
        break;
      case LoopEventKind::kDeparture:
        depart(event.job, event.time);
        break;
      case LoopEventKind::kEpoch:
        apply_faults(event.time);
        epoch(event.time, event.job);
        if (sched_on()) {
          books_.sched.timeline.push_back(
              deadline_monitor_.snapshot(event.time));
          check_conservation("at epoch boundary");
        }
        break;
    }
  }

  for (const Job& job : jobs_) {
    if (job.state == Job::State::kPending) {
      if (job.readmitting)
        ++books_.faults.displaced_pending_at_end;
      else if (job.sched_preempted)
        ++books_.sched.preempted_pending_at_end;
      else
        ++books_.classes[job.class_index].pending_at_end;
    }
    if (job.state == Job::State::kActive) ++books_.active_at_end;
  }
  if (sched_on()) {
    deadline_monitor_.finalize(books_.sched);
    check_conservation("at end of run");
  }
  if (alert_engine_) books_.alerts = alert_engine_->log();
  backend_.finish();
}

}  // namespace odn::runtime
