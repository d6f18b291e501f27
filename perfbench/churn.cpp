// The two churn workloads: a seeded arrival trace replayed through the
// single-cell serving runtime (cell_churn) or the eight-cell cluster
// runtime (cluster_churn). One timed call builds the runtime, runs the
// whole trace and serializes the report; throughput is simulated arrivals
// per host second over that call.
#include <cmath>
#include <cstdint>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "bench.h"
#include "cluster/cell.h"
#include "cluster/cluster_runtime.h"
#include "core/scenarios.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "reference.h"
#include "runtime/serving_runtime.h"
#include "runtime/stats.h"
#include "runtime/workload.h"
#include "stage_table.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using namespace odn;

// Horizons fixed by the workload definitions: 1,000 epochs for the single
// cell (long enough that per-arrival cost growth with the number of jobs
// already seen dominates), 300 epochs for the cluster.
constexpr double kCellHorizonS = 10000.0;
constexpr double kClusterHorizonS = 3000.0;
constexpr std::size_t kClusterCells = 8;

runtime::WorkloadOptions arrival_process(std::uint64_t seed,
                                         double horizon_s) {
  runtime::WorkloadOptions workload;
  workload.horizon_s = horizon_s;
  workload.seed = seed;
  workload.arrival_rate_per_s = 1.2;
  workload.mean_holding_s = 25.0;
  workload.burst_count = 2;
  workload.burst_arrivals_mean = 8.0;
  workload.burst_span_s = 3.0;
  return workload;
}

runtime::RetryPolicy retry_policy() {
  runtime::RetryPolicy retry;
  retry.max_attempts = 3;
  retry.backoff_s = 2.0;
  retry.downgrade_final_attempt = true;
  return retry;
}

// What one timed call produced, for the checks and metrics.
struct CallOutput {
  std::string report_json;
  std::size_t arrivals = 0;
  std::size_t admitted = 0;
  std::size_t latency_samples = 0;
  std::size_t slo_violations = 0;
};

void check_lifecycle(const std::vector<runtime::ClassStats>& classes,
                     std::size_t trace_arrivals, Result& result) {
  std::size_t arrivals = 0;
  bool balanced = true;
  for (const runtime::ClassStats& c : classes) {
    balanced = balanced &&
               c.arrivals == c.admitted + c.rejected_final +
                                 c.departed_before_admission +
                                 c.pending_at_end &&
               c.admitted == c.admitted_first_try + c.admitted_after_retry;
    arrivals += c.arrivals;
  }
  result.check("lifecycle counters partition each class's arrivals",
               balanced);
  result.check("class arrivals sum to trace arrivals",
               arrivals == trace_arrivals);
}

std::size_t sample_count(const std::vector<runtime::ClassStats>& classes) {
  std::size_t samples = 0;
  for (const runtime::ClassStats& c : classes)
    samples += c.latency_samples_s.size();
  return samples;
}

struct CellInputs {
  core::DotInstance scenario;
  runtime::WorkloadTrace trace;
};

CellInputs cell_setup(std::uint64_t seed) {
  CellInputs in;
  {
    ODN_TRACE_SPAN("perfbench", "core.scenario");
    in.scenario = core::make_large_scenario(core::RequestRate::kLow);
  }
  runtime::WorkloadOptions workload = arrival_process(seed, kCellHorizonS);
  workload.qos.enabled = true;
  workload.qos.deadline_tightness = 0.5;
  workload.qos.priority_mix = {1.0, 1.0, 1.0};  // balanced
  {
    ODN_TRACE_SPAN("perfbench", "runtime.workload");
    in.trace = runtime::generate_workload(in.scenario.tasks.size(), workload);
  }
  return in;
}

CallOutput cell_call(const CellInputs& in, std::uint64_t seed,
                     Result& result) {
  ODN_TRACE_SPAN("perfbench", StageTable::kRootSpan);
  runtime::RuntimeOptions options;
  options.seed = seed;
  options.epoch_s = 10.0;
  options.emulation_window_s = 5.0;
  options.retry = retry_policy();
  options.sched.enabled = true;
  options.alerts.enabled = true;
  runtime::ServingRuntime serving(in.scenario.catalog, in.scenario.resources,
                                  in.scenario.radio, in.scenario.tasks,
                                  options);
  const runtime::RuntimeReport report = serving.run(in.trace);
  CallOutput out;
  {
    ODN_TRACE_SPAN("perfbench", "runtime.report");
    out.report_json = report.to_json();
  }
  out.arrivals = report.total_arrivals();
  out.admitted = report.total_admitted();
  out.latency_samples = sample_count(report.classes);
  out.slo_violations = report.total_slo_violations();

  check_lifecycle(report.classes, in.trace.arrival_count(), result);
  const sched::SchedStats& s = report.sched;
  result.check("sched buckets partition arrivals",
               s.met + s.missed + s.preempted + s.downgraded + s.rejected ==
                   out.arrivals);
  result.check("every preemption resolves in one bucket",
               s.preemptions == s.preempted_readmitted +
                                    s.preempted_rejected +
                                    s.preempted_departed +
                                    s.preempted_pending_at_end);
  result.check("report has one snapshot per epoch",
               report.timeline.size() == report.epochs);
  return out;
}

struct ClusterInputs {
  core::DotInstance scenario;
  std::vector<cluster::CellSpec> cells;
  runtime::WorkloadTrace trace;
};

ClusterInputs cluster_setup(std::uint64_t seed) {
  ClusterInputs in;
  {
    ODN_TRACE_SPAN("perfbench", "core.scenario");
    in.scenario = core::make_large_scenario(core::RequestRate::kLow);
  }
  // Per-cell envelope: the single-server capacities scaled to 1.3/N, so
  // the cluster is ~30% over-provisioned in aggregate while single cells
  // overload under bursts (spillover and migration territory).
  edge::EdgeResources base = in.scenario.resources;
  const double slice = 1.3 / static_cast<double>(kClusterCells);
  base.memory_capacity_bytes *= slice;
  base.compute_capacity_s *= slice;
  base.training_budget_s *= slice;
  base.total_rbs = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(
             static_cast<double>(base.total_rbs) * slice)));
  {
    ODN_TRACE_SPAN("perfbench", "cluster.make_cells");
    in.cells = cluster::make_cells(kClusterCells, base, seed, 0.35);
  }
  {
    ODN_TRACE_SPAN("perfbench", "runtime.workload");
    in.trace = runtime::generate_workload(
        in.scenario.tasks.size(), arrival_process(seed, kClusterHorizonS));
  }
  return in;
}

CallOutput cluster_call(const ClusterInputs& in, std::uint64_t seed,
                        Result& result) {
  ODN_TRACE_SPAN("perfbench", StageTable::kRootSpan);
  cluster::ClusterOptions options;
  options.seed = seed;
  options.epoch_s = 10.0;
  options.emulation_window_s = 5.0;
  options.retry = retry_policy();
  options.dispatch.policy = cluster::PlacementPolicy::kCostProbe;
  options.dispatch.parallel_probe = true;
  options.migrate_on_slo = true;
  cluster::ClusterRuntime runtime(in.scenario.catalog, in.cells,
                                  in.scenario.radio, in.scenario.tasks,
                                  options);
  const cluster::ClusterReport report = runtime.run(in.trace);
  CallOutput out;
  {
    ODN_TRACE_SPAN("perfbench", "runtime.report");
    out.report_json = report.to_json();
  }
  out.arrivals = report.total_arrivals();
  out.admitted = report.total_admitted();
  const std::vector<runtime::ClassStats> all = report.aggregate_classes();
  out.latency_samples = sample_count(all);
  out.slo_violations = report.total_slo_violations();

  check_lifecycle(report.classes, in.trace.arrival_count(), result);
  std::size_t placed = 0, moved_in = 0, moved_out = 0;
  for (const cluster::CellReport& cell : report.cells) {
    placed += cell.admitted_preferred + cell.admitted_spillover;
    moved_in += cell.migrations_in;
    moved_out += cell.migrations_out;
  }
  result.check("cell placements sum to cluster admissions",
               placed == out.admitted);
  result.check("migrations balance across cells",
               moved_in == report.migration.migrated &&
                   moved_out == report.migration.migrated &&
                   report.migration.migrated + report.migration.no_target <=
                       report.migration.attempted);
  std::size_t retries = 0;
  for (const runtime::ClassStats& c : report.classes)
    retries += c.retries_scheduled;
  result.check("every trace event, retry and epoch processed once",
               report.events_processed ==
                   in.trace.events.size() + retries + report.epochs);
  return out;
}

// Per-layer metrics of the churn layers from one traced call.
void report_churn_layers(const StageTable& table,
                         const std::map<std::string, std::uint64_t>& counts,
                         const CallOutput& out, double call_s,
                         Result& result) {
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  auto p = [&](const std::string& span, double q) {
    return percentile(table.at(span).durations_us, q);
  };

  // runtime
  const std::vector<double>& admits = table.at("runtime.admit").durations_us;
  const std::size_t tenth = admits.size() / 10;
  result.metric("runtime.admit.self_s", table.self_s("runtime.admit"), "s");
  result.metric("runtime.admit.calls",
                static_cast<double>(table.at("runtime.admit").count), "count");
  result.metric("runtime.admit.p50_us", p("runtime.admit", 0.5), "us");
  result.metric("runtime.admit.p99_us", p("runtime.admit", 0.99), "us");
  result.metric("runtime.admit.p50_us.first_tenth",
                median({admits.begin(), admits.begin() + tenth}), "us");
  result.metric("runtime.admit.p50_us.last_tenth",
                median({admits.end() - tenth, admits.end()}), "us");
  result.metric("runtime.epoch.self_s", table.self_s("runtime.epoch"), "s");
  result.metric("runtime.report_s", table.self_s("runtime.report"), "s");
  result.metric("runtime.workload_s", table.self_s("runtime.workload"), "s");
  result.metric("runtime.arrivals", static_cast<double>(out.arrivals),
                "count");
  result.metric("runtime.admit_ratio",
                ratio(static_cast<double>(out.admitted),
                      static_cast<double>(out.arrivals)),
                "ratio");
  result.metric("runtime.latency_samples",
                static_cast<double>(out.latency_samples), "count");
  result.metric("runtime.slo_met_ratio",
                1.0 - ratio(static_cast<double>(out.slo_violations),
                            static_cast<double>(out.latency_samples)),
                "ratio");

  // sched
  const double probes =
      static_cast<double>(counter(counts, "odn_sched_probes_total"));
  result.metric("sched.probes", probes, "count");
  result.metric("sched.probes_per_arrival",
                ratio(probes, static_cast<double>(out.arrivals)), "ratio");
  result.metric("sched.readmit.self_s", table.self_s("sched.readmit"), "s");

  // core
  result.metric("core.scenario_s", table.self_s("core.scenario"), "s");
  result.metric("controller.plan.self_s", table.self_s("controller.plan"),
                "s");
  result.metric("controller.plan.calls",
                static_cast<double>(table.at("controller.plan").count),
                "count");
  result.metric("controller.plan.p50_us", p("controller.plan", 0.5), "us");
  result.metric("controller.plan.p99_us", p("controller.plan", 0.99), "us");
  result.metric("controller.probe.self_s",
                table.self_s("controller.probe_incremental"), "s");
  result.metric("controller.commit.self_s", table.self_s("controller.commit"),
                "s");
  result.metric("controller.release.self_s",
                table.self_s("controller.release"), "s");
  result.metric("solver.offloadnn.self_s", table.self_s("solver.offloadnn"),
                "s");
  result.metric("solver.warm.self_s", table.self_s("solver.warm"), "s");
  const double solves = static_cast<double>(
      counter(counts, "odn_solver_offloadnn_solves_total"));
  result.metric("solver.solves", solves, "count");
  result.metric(
      "solver.vertices_per_solve",
      ratio(static_cast<double>(counter(
                counts, "odn_solver_offloadnn_vertices_visited_total")),
            solves),
      "ratio");
  auto hit_ratio = [&](const std::string& metric, const std::string& hits,
                       const std::string& misses) {
    const double h = static_cast<double>(counter(counts, hits));
    const double lookups = h + static_cast<double>(counter(counts, misses));
    result.metric(metric + ".lookups", lookups, "count");
    result.metric(metric + ".hit_ratio", ratio(h, lookups), "ratio");
  };
  hit_ratio("plan_cache", "odn_plan_cache_hits_total",
            "odn_plan_cache_misses_total");
  hit_ratio("solver_cache.branch", "odn_solver_cache_branch_hits_total",
            "odn_solver_cache_branch_misses_total");
  hit_ratio("solver_cache.clique", "odn_solver_cache_clique_hits_total",
            "odn_solver_cache_clique_misses_total");

  // sim
  const double requests =
      static_cast<double>(counter(counts, "odn_sim_requests_total"));
  result.metric("sim.emulate.self_s", table.self_s("sim.emulate"), "s");
  result.metric("sim.emulate.p50_us", p("sim.emulate", 0.5), "us");
  result.metric("sim.requests", requests, "count");
  result.metric(
      "sim.ns_per_request",
      ratio(static_cast<double>(table.at("sim.emulate").self_ns), requests),
      "ns");

  // cluster
  result.metric("cluster.make_cells_s", table.self_s("cluster.make_cells"),
                "s");
  result.metric("cluster.probe.self_s", table.self_s("cluster.probe"), "s");
  result.metric("cluster.migrate.self_s", table.self_s("cluster.migrate"),
                "s");
  result.metric("cluster.admit.self_s", table.self_s("cluster.admit"), "s");
  result.metric("cluster.epoch.self_s", table.self_s("cluster.epoch"), "s");
  const double placements = static_cast<double>(
      counter(counts, "odn_cluster_placement_attempts_total"));
  const double cell_probes = static_cast<double>(
      counter(counts, "odn_cluster_probe_admits_total") +
      counter(counts, "odn_cluster_probe_rejects_total"));
  const double probe_hits = static_cast<double>(
      counter(counts, "odn_cluster_probe_cache_hits_total"));
  result.metric("cluster.placements", placements, "count");
  result.metric("cluster.probes", cell_probes, "count");
  result.metric("cluster.probes_per_placement",
                ratio(cell_probes, placements), "ratio");
  result.metric("cluster.probe_cache_hit_ratio",
                ratio(probe_hits, cell_probes), "ratio");
  result.metric("cluster.probe_dedup_saved",
                static_cast<double>(
                    counter(counts, "odn_cluster_probe_dedup_saved_total")),
                "count");

  // util pool
  const double threads = static_cast<double>(util::global_thread_count());
  result.metric("pool.parallel_for.self_s",
                table.self_s("pool.parallel_for"), "s");
  result.metric("pool.task.self_s", table.self_s("pool.task"), "s");
  result.metric("pool.dispatches",
                static_cast<double>(
                    counter(counts, "odn_pool_parallel_for_total")),
                "count");
  result.metric("pool.busy_share",
                ratio(static_cast<double>(table.at("pool.task").total_ns) *
                          1e-9,
                      threads * call_s),
                "ratio");
}

// Set-up repeated (repeat_setup), then timed calls until `seconds` have
// passed (at least two, so the in-process determinism check runs). Every
// call is bracketed by reference-kernel timings and its throughput is
// normalized by them (reference.h). With --trace 1: a warm-up call, an
// untraced call, then one traced call folded into the stage table.
template <class Inputs>
void drive(const Args& args, Result& result,
           const std::function<Inputs()>& setup,
           const std::function<CallOutput(const Inputs&, Result&)>& call) {
  std::vector<double> setup_s;
  obs::set_tracing_enabled(args.trace);
  const Inputs inputs = repeat_setup(args.trace, setup, setup_s);
  obs::set_tracing_enabled(false);

  std::string first_report;
  CallTimes times;
  auto timed = [&](bool traced) {
    obs::MetricsRegistry::global().reset_values();
    obs::set_tracing_enabled(traced);
    const Clock::time_point start = Clock::now();
    CallOutput out;
    ++result.attempted;
    try {
      out = call(inputs, result);
    } catch (const std::exception& error) {
      obs::set_tracing_enabled(false);
      std::cerr << "call failed: " << error.what() << "\n";
      ++result.exceptions;
      result.check("timed call completes", false);
      return out;
    }
    const double seconds = seconds_since(start);
    obs::set_tracing_enabled(false);
    times.record(static_cast<double>(out.arrivals), seconds);
    if (first_report.empty()) {
      first_report = out.report_json;
      result.digest(args.workload + ".report",
                    fnv1a(first_report.data(), first_report.size()));
    }
    result.check("in-process runs produce byte-identical reports",
                 out.report_json == first_report);
    return out;
  };

  const Clock::time_point loop_start = Clock::now();
  if (args.trace) {
    timed(false);  // warm-up: the first call in a process runs cold
    timed(false);
    const CallOutput out = timed(true);
    const auto counts = counter_snapshot();
    StageTable table;
    table.drain();
    if (times.seconds.size() == 3) {  // a failed call recorded no time
      report_churn_layers(table, counts, out, times.seconds[2], result);
      report_trace(table, times.normalized_s(2), times.normalized_s(1),
                   result);
    }
  } else {
    while (times.seconds.size() < 2 ||
           seconds_since(loop_start) < args.seconds)
      timed(false);
    result.metric("setup_s", median(setup_s), "s");
    result.metric("throughput_per_s", median(times.rate), "1/s");
  }
  std::cout << args.workload << ": " << times.seconds.size()
            << " calls of median " << median(times.seconds)
            << " s; arrivals per host second " << median(times.raw_rate)
            << ", normalized " << median(times.rate)
            << "; normalized setup median " << median(setup_s) << " s over "
            << setup_s.size() << " batches, reference " << times.reference_s
            << " s\n  setup batches:";
  for (const double s : setup_s) std::cout << " " << s;
  std::cout << "\n  normalized arrivals/s per call:";
  for (const double r : times.rate) std::cout << " " << r;
  std::cout << "\n";
}

}  // namespace

void run_cell_churn(const Args& args, Result& result) {
  util::set_thread_count(1);
  drive<CellInputs>(
      args, result, [&] { return cell_setup(args.seed); },
      [&](const CellInputs& in, Result& r) {
        return cell_call(in, args.seed, r);
      });
}

void run_cluster_churn(const Args& args, Result& result) {
  // The untraced run stays on one thread: on a shared host each thread's
  // core slows independently, and a pool call waits for its slowest lane,
  // which the reference timing on the calling thread cannot see. The
  // traced run uses two threads, so the pool layer is measured there.
  util::set_thread_count(args.trace ? 2 : 1);
  drive<ClusterInputs>(
      args, result, [&] { return cluster_setup(args.seed); },
      [&](const ClusterInputs& in, Result& r) {
        return cluster_call(in, args.seed, r);
      });
}

}  // namespace perfbench
