// The serving event loop shared by the single-cell ServingRuntime and the
// multi-cell ClusterRuntime (DESIGN.md §4d).
//
// A deterministic, seedable discrete-event loop advances simulated time
// over a churn workload: arrivals and retries go through one admission
// attempt (bounded attempts, exponential backoff, accuracy downgrade on
// the final try) whose books depend on why the job is pending — first
// admission, fault readmission or ladder readmission. Departures release
// the job's commitment. At every epoch boundary the loop replays due
// faults, emulates each cell's live deployment with its own seeded stream
// and accounts the measured latencies per priority class.
//
// Where the job runs is the PlacementBackend's business: the single
// controller (ServingRuntime) or the ClusterDispatcher (ClusterRuntime).
// The backend owns only what differs between the two — sched admission,
// fault recovery on its cells, per-cell books and the epoch extras.
//
// Determinism contract: every state change happens on this serial loop
// and every stochastic draw comes from a seeded per-(epoch, cell) stream,
// so reports, flight dumps and metric snapshots are byte-identical for
// any ODN_THREADS.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/controller.h"
#include "fault/injector.h"
#include "model/batching.h"
#include "obs/alerts.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "runtime/retry_policy.h"
#include "runtime/stats.h"
#include "runtime/workload.h"
#include "sched/conservation.h"
#include "sched/deadline_monitor.h"
#include "sched/options.h"
#include "sched/policy.h"
#include "util/index_set.h"
#include "util/stopwatch.h"

namespace odn::runtime {

inline constexpr std::size_t kNoCell = std::numeric_limits<std::size_t>::max();

// Options every serving loop shares (RuntimeOptions and ClusterOptions
// add their backend's own on top).
struct LoopOptions {
  // Base seed for the epoch emulations (each epoch and cell derives its
  // own stream, so measurements are independent but reproducible).
  std::uint64_t seed = 2024;
  // Epoch cadence: every epoch_s of simulated time the live deployment is
  // measured by the emulator; 0 disables measurement entirely.
  double epoch_s = 10.0;
  // Emulated wall-clock per measurement epoch.
  double emulation_window_s = 5.0;
  // Poisson request arrivals inside the emulator (bursty measurement
  // traffic); false falls back to deterministic 1/rate spacing.
  bool poisson_emulation = true;
  RetryPolicy retry{};
  // Priority classes: priority < boundaries[0] maps to class_names[0],
  // boundaries[i-1] <= p < boundaries[i] to class_names[i], and
  // p >= boundaries.back() to class_names.back(). Sizes must satisfy
  // class_names.size() == boundaries.size() + 1.
  std::vector<double> class_boundaries{0.35, 0.7};
  std::vector<std::string> class_names{"low", "medium", "high"};
  core::OffloadnnController::Options controller{};
  // Deterministic fault schedule, applied at epoch boundaries. An empty
  // plan is a strict no-op (report bytes identical to a fault-free build
  // of the options). A non-empty plan needs a positive epoch cadence.
  fault::FaultPlan faults{};
  // Preemption- and deadline-aware scheduling (src/sched/). Disabled is a
  // strict no-op: the loop takes the exact pre-sched code path and the
  // report stays byte-identical.
  sched::SchedOptions sched{};

  // Priority-class index of a priority.
  std::size_t class_of(double priority) const noexcept;

 protected:
  // Throws std::invalid_argument("<owner>: ...") on a bad shared field.
  void validate_loop(const char* owner) const;
};

enum class LoopEventKind { kArrival, kDeparture, kRetry, kEpoch };

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
  // A displaced job (fault recovery) retries through the same backoff
  // machinery but keeps its fault accounting separate from the admission
  // lifecycle counters — the readmitting flag routes it.
  bool readmitting = false;
  // Ladder outcomes (scheduling only): evicted by the preemption rung /
  // re-shaped by the downgrade rung. Like `readmitting`, sched_preempted
  // routes the job's retries to the sched readmission books.
  bool sched_preempted = false;
  bool sched_downgraded = false;
  std::size_t cell = kNoCell;  // serving cell while kActive
  enum class State : std::uint8_t {
    kPending,   // awaiting first attempt or in retry backoff
    kActive,    // admitted, serving
    kRejected,  // attempts exhausted
    kDeparted,  // released (or left while pending)
  } state = State::kPending;
  core::TaskPlan plan;          // valid while kActive
  core::DotTask admitted_task;  // the (possibly downgraded) admitted spec
};

// Result of one placement try.
struct Placement {
  bool admitted = false;
  std::size_t cell = kNoCell;  // serving cell when admitted
  bool spilled = false;        // admitted away from the preferred cell
  core::TaskPlan plan;         // valid when admitted
  // Sched admission only: the ladder action to count, and whether any
  // ladder ran (ladder_rejected counts only then).
  sched::SchedAction action = sched::SchedAction::kReject;
  bool ladder_ran = false;
};

// One epoch's shared measurement, handed to the backend's epoch extras.
struct EpochMeasure {
  std::size_t active_tasks = 0;
  std::size_t slo_violations = 0;
  std::vector<std::size_t> violations_by_cell;
  std::vector<double> latencies;    // every measured sample this epoch
  double gpu_busy_fraction = 0.0;   // last emulated cell's

  std::size_t samples() const noexcept { return latencies.size(); }
};

class ServingLoop;

// The per-runtime half of the loop: where jobs are placed, which books a
// cell's measurements land in, and what an epoch adds on top.
class PlacementBackend {
 public:
  struct Traits {
    const char* owner;           // error-message prefix
    const char* span_category;   // epoch span category
    const char* epoch_span;      // epoch span name
    const char* admit_span;      // span around a first admission, or null
    const char* epochs_metric;   // epoch counter series
    bool runtime_metrics;        // odn_runtime_* class/sample/latency series
    bool flight_cell_zero;       // every flight event carries cell 0
  };

  explicit PlacementBackend(Traits traits) : traits_(traits) {}
  virtual ~PlacementBackend() = default;
  PlacementBackend(const PlacementBackend&) = delete;
  PlacementBackend& operator=(const PlacementBackend&) = delete;

  const Traits& traits() const noexcept { return traits_; }

  // What the loop reads and writes of one cell.
  struct Cell {
    const core::OffloadnnController& controller;
    const edge::RadioModel& radio;  // the radio the cell measures with
    double compute_capacity_s;
    ResourceWatermarks& watermarks;
    std::vector<ClassStats>& classes;  // books of the jobs served there
  };

  virtual std::size_t cell_count() const noexcept = 0;
  virtual Cell cell(std::size_t index) = 0;

  // One placement try. `ladder` is set for a first admission under
  // scheduling (ServingLoop::run_ladder runs the preemption ladder on one
  // cell); every other attempt is a plain placement. The loop observes
  // the watermarks afterwards.
  virtual Placement place(const core::DotTask& task, double now,
                          bool ladder) = 0;
  // Book-keeping for a successful first admission.
  virtual void count_admission(const Placement&) {}
  virtual bool release(const std::string& name) = 0;

  // Fault recovery on one cell.
  virtual void crash(std::size_t cell) = 0;
  virtual void derate_radio(std::size_t cell, double factor) = 0;
  // After every applied fault event on `cell`.
  virtual void sync_gate(std::size_t) {}

  // Epoch extras: called after the shared measurement; must call
  // ServingLoop::seal_epoch exactly once.
  virtual void close_epoch(double now, std::size_t epoch, EpochMeasure& measure,
                           const util::Stopwatch& watch) = 0;
  // End of run, after the loop's own end counts.
  virtual void finish() {}

 protected:
  ServingLoop& loop() noexcept { return *loop_; }
  const ServingLoop& loop() const noexcept { return *loop_; }

 private:
  friend class ServingLoop;
  Traits traits_;
  ServingLoop* loop_ = nullptr;
};

// Report fields both runtimes keep; the loop writes them, the runtime
// moves them into its report.
struct LoopBooks {
  std::vector<ClassStats> classes;
  fault::FaultStats faults;
  sched::SchedStats sched;
  BatchingStats batching;
  obs::AlertLog alerts;
  std::size_t events_processed = 0;
  std::size_t epochs = 0;
  std::size_t active_at_end = 0;
};

class ServingLoop {
 public:
  // `batching` and `alerts` are the single cell's; the cluster passes
  // disabled defaults. Every reference must outlive the loop.
  ServingLoop(const LoopOptions& options,
              const model::BatchingOptions& batching,
              const obs::AlertOptions& alerts,
              const std::vector<core::DotTask>& templates,
              const edge::DnnCatalog& catalog, PlacementBackend& backend);

  // Replays `trace` from t=0 and fills books().
  void run(const WorkloadTrace& trace);

  LoopBooks& books() noexcept { return books_; }
  // Moves the books both reports share into `report`.
  template <typename Report>
  void move_books(Report& report) {
    report.classes = std::move(books_.classes);
    report.faults = std::move(books_.faults);
    report.sched = std::move(books_.sched);
    report.events_processed = books_.events_processed;
    report.epochs = books_.epochs;
    report.active_at_end = books_.active_at_end;
  }
  // The run's catalog digest, or null when no cache would read it.
  const core::Fingerprint* catalog_digest() const noexcept {
    return cached_ ? &digest_ : nullptr;
  }
  const fault::FaultInjector& injector() const noexcept { return injector_; }
  bool sched_on() const noexcept { return options_.sched.enabled; }

  Job& job(std::size_t index) { return jobs_[index]; }
  // Ascending indices of the jobs `cell` serves.
  const util::IndexSet& served(std::size_t cell) const {
    return active_[cell];
  }
  // The only writer of Job::state and Job::cell (kNoCell unless kActive).
  void set_state(std::size_t index, Job::State state,
                 std::size_t cell = kNoCell);

  // Records a flight event; `cell` is a backend cell or kNoCell.
  void flight(double now, obs::FlightEventKind kind, std::uint64_t task,
              std::size_t cell = kNoCell, std::uint64_t count = 0,
              double value = 0.0, const char* detail = "") const;
  // Raises every cell's watermarks to its ledger's current use.
  void observe_all();
  // Runs the preemption ladder against the jobs `cell` serves and applies
  // its victim outcomes. The placement carries the ladder's action.
  Placement run_ladder(std::size_t cell, sched::SchedHost& host,
                       const core::DotTask& task, double now);
  // Epoch seal flight event plus burn-rate alert evaluation.
  void seal_epoch(double now, std::size_t epoch, std::size_t samples,
                  double seal_value);

 private:
  enum class Route : std::uint8_t { kAdmission, kFault, kSched };

  void materialize(const WorkloadTrace& trace);
  void push(double time, LoopEventKind kind, std::size_t job);
  void attempt(std::size_t index, double now);
  void apply_victims(const std::vector<sched::VictimOutcome>& victims,
                     double now);
  void apply_faults(double now);
  void depart(std::size_t index, double now);
  void epoch(double now, std::size_t index);
  void check_conservation(const char* where);

  // Null handles (series not registered) are skipped by the increments.
  struct ClassCounters {
    obs::Counter* arrivals = nullptr;
    obs::Counter* admissions = nullptr;
    obs::Counter* rejections = nullptr;
    obs::Counter* retries = nullptr;
    obs::Counter* slo_violations = nullptr;
  };

  const LoopOptions& options_;
  const model::BatchingOptions& batching_;
  const std::vector<core::DotTask>& templates_;
  const edge::DnnCatalog& catalog_;
  PlacementBackend& backend_;
  // The catalog is fixed for the whole run, so every admission's and
  // migration's cache keys share one digest, encoded once; skipped when
  // no cache would ever read it (cold runs pay nothing).
  bool cached_ = false;
  core::Fingerprint digest_;
  double horizon_s_ = 0.0;

  LoopBooks books_;
  fault::FaultInjector injector_;
  sched::DeadlineMonitor deadline_monitor_;
  std::unique_ptr<obs::BurnRateAlertEngine> alert_engine_;

  std::vector<Job> jobs_;
  std::unordered_map<std::uint64_t, std::size_t> job_by_trace_id_;
  std::priority_queue<LoopEvent, std::vector<LoopEvent>,
                      std::greater<LoopEvent>>
      calendar_;
  std::uint64_t sequence_ = 0;
  // Per-cell served-job index: the ascending indices of the kActive jobs
  // each cell serves. Every per-cell walk (conservation, ladder
  // candidates, displacement, epoch measurement, migration candidates)
  // iterates it instead of scanning every job of the trace, so that work
  // is O(served jobs); ascending job index is the order a full scan
  // produces.
  std::vector<util::IndexSet> active_;
  // The conservation check's per-cell book and scratch, reused so a check
  // allocates nothing once they have grown.
  std::vector<sched::ServedTask> book_;
  sched::ConservationCheck conservation_;
  // Per-class counts for the current epoch alone (the alert engine's
  // input; ClassStats totals accumulate across the whole run).
  std::vector<std::uint64_t> epoch_class_samples_;
  std::vector<std::uint64_t> epoch_class_violations_;

  // Metric handles, resolved once so the loop increments through cached
  // pointers. Feature series (fault, sched, batching) and the
  // odn_runtime_* family are registered only when in use, so every
  // configuration keeps its exact series set.
  std::vector<ClassCounters> class_metrics_;
  obs::Counter* epochs_total_ = nullptr;
  obs::Counter* samples_total_ = nullptr;
  obs::Histogram* epoch_latency_ = nullptr;
  obs::Counter* fault_events_total_ = nullptr;
  obs::Counter* fault_displaced_total_ = nullptr;
  obs::Counter* fault_replacements_total_ = nullptr;
  obs::Counter* fault_rejections_total_ = nullptr;
  obs::Counter* sched_probes_total_ = nullptr;
  obs::Counter* sched_preemptions_total_ = nullptr;
  obs::Counter* sched_downgrades_total_ = nullptr;
  obs::Counter* sched_readmissions_total_ = nullptr;
  obs::Counter* sched_rejections_total_ = nullptr;
  obs::Counter* batch_dispatches_total_ = nullptr;
  obs::Counter* batch_coalesced_total_ = nullptr;
};

}  // namespace odn::runtime
