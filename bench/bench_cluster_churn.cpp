// Multi-cell cluster churn bench — the serving workload of
// bench_preempt_churn (without sched flags) sharded across N heterogeneous
// cells behind the ClusterDispatcher. Each cell gets a seeded slice of the
// large-scale envelope (slightly over-provisioned in aggregate, so single
// cells overload and the run exercises placement, spillover and
// flash-crowd migration). Emits the machine-readable cluster JSON report
// on stdout (human progress on stderr). Deterministic: equal (--cells,
// --seed, --policy, --horizon, fault plan) produce byte-identical reports
// for any ODN_THREADS setting and for --probe serial vs parallel.
//
// A fault source replays a deterministic fault schedule at epoch
// boundaries (cell crash/recover, radio degradation, latency inflation,
// solver-budget exhaustion); the report gains a "faults" block with the
// recovery ledger and per-fault-class SLO impact. Sources, highest
// precedence first: --faults <file> loads an ODN-FAULTS schedule,
// --fault-seed S generates one over the horizon, and the ODN_FAULTS
// environment variable acts as a default --faults. With no source the
// plan is empty and the run is fault-free.
//
//   $ ./bench_cluster_churn [--cells N] [--seed S] [--policy P]
//                           [--horizon S] [--probe serial|parallel]
//                           [--no-migration] [--fault-seed S]
//                           [--faults plan.txt] [--out report.json]
//
// Malformed numbers and any set-up or run error print a message and exit 2.
#include <cstdint>
#include <cstdlib>
#include <cmath>
#include <exception>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "churn_cli.h"
#include "cluster/cluster_runtime.h"
#include "core/scenarios.h"
#include "fault/fault_plan.h"
#include "obs/session.h"
#include "runtime/workload.h"
#include "util/logging.h"

namespace {

int run(int argc, char** argv) {
  using namespace odn;

  std::size_t cells = 4;
  std::uint64_t seed = 7;
  double horizon_s = 60.0;
  std::string policy = "least_loaded";
  std::string probe = "parallel";
  bool migration = true;
  std::string out_path;
  bool have_fault_seed = false;
  std::uint64_t fault_seed = 0;
  std::string fault_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--cells" && i + 1 < argc) {
      cells = static_cast<std::size_t>(bench::parse_u64(arg, argv[++i]));
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = bench::parse_u64(arg, argv[++i]);
    } else if (arg == "--horizon" && i + 1 < argc) {
      horizon_s = bench::parse_double(arg, argv[++i], /*positive=*/true);
    } else if (arg == "--policy" && i + 1 < argc) {
      policy = argv[++i];
    } else if (arg == "--probe" && i + 1 < argc) {
      probe = argv[++i];
    } else if (arg == "--no-migration") {
      migration = false;
    } else if (arg == "--fault-seed" && i + 1 < argc) {
      fault_seed = bench::parse_u64(arg, argv[++i]);
      have_fault_seed = true;
    } else if (arg == "--faults" && i + 1 < argc) {
      fault_path = argv[++i];
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: " << argv[0]
                << " [--cells N] [--seed S] [--policy first_fit|"
                   "least_loaded|cost_probe] [--horizon S]"
                   " [--probe serial|parallel] [--no-migration]"
                   " [--fault-seed S] [--faults plan.txt]"
                   " [--out report.json]\n";
      return 2;
    }
  }
  if (cells == 0 || (probe != "serial" && probe != "parallel"))
    throw std::invalid_argument("bad --cells or --probe value");
  if (fault_path.empty() && !have_fault_seed) {
    if (const char* env = std::getenv("ODN_FAULTS"); env && *env)
      fault_path = env;
  }

  util::set_log_level(util::LogLevel::kWarn);

  fault::FaultPlan plan;
  if (!fault_path.empty()) {
    try {
      plan = fault::read_fault_plan_file(fault_path);
    } catch (const std::exception& e) {
      throw std::runtime_error("cannot load fault plan '" + fault_path +
                               "': " + e.what());
    }
    if (plan.cell_count != cells)
      throw std::invalid_argument(
          "fault plan is for " + std::to_string(plan.cell_count) +
          " cells, bench runs " + std::to_string(cells));
  } else if (have_fault_seed) {
    fault::FaultPlanOptions fault_options;
    fault_options.seed = fault_seed;
    fault_options.horizon_s = horizon_s;
    plan = fault::generate_fault_plan(cells, fault_options);
  }
  if (!plan.empty())
    std::cerr << "bench_cluster_churn: fault plan '" << plan.name << "', "
              << plan.events.size() << " events over " << plan.horizon_s
              << " s\n";

  const core::DotInstance scenario =
      core::make_large_scenario(core::RequestRate::kLow);

  // Per-cell envelope: the single-server capacities scaled to 1.3/N so the
  // aggregate is ~30 % over-provisioned but every individual cell is small
  // enough to overload under bursts — spillover and migration territory.
  edge::EdgeResources base = scenario.resources;
  const double slice = 1.3 / static_cast<double>(cells);
  base.memory_capacity_bytes *= slice;
  base.compute_capacity_s *= slice;
  base.training_budget_s *= slice;
  base.total_rbs = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(
             static_cast<double>(base.total_rbs) * slice)));

  runtime::WorkloadOptions workload;
  workload.horizon_s = horizon_s;
  workload.seed = seed;
  workload.arrival_rate_per_s = 1.2;
  workload.mean_holding_s = 25.0;
  workload.burst_count = 2;
  workload.burst_arrivals_mean = 8.0;
  workload.burst_span_s = 3.0;
  const runtime::WorkloadTrace trace =
      runtime::generate_workload(scenario.tasks.size(), workload);
  std::cerr << "bench_cluster_churn: trace '" << trace.name << "', "
            << trace.events.size() << " events (" << trace.arrival_count()
            << " arrivals) over " << trace.horizon_s << " s, " << cells
            << " cells, policy " << policy << "\n";

  cluster::ClusterOptions options;
  options.seed = seed;
  options.epoch_s = 10.0;
  options.emulation_window_s = 5.0;
  options.retry.max_attempts = 3;
  options.retry.backoff_s = 2.0;
  options.retry.downgrade_final_attempt = true;
  options.dispatch.policy = cluster::parse_placement_policy(policy);
  options.dispatch.parallel_probe = probe == "parallel";
  options.migrate_on_slo = migration;
  options.faults = plan;

  cluster::ClusterRuntime runtime(
      scenario.catalog,
      cluster::make_cells(cells, base, seed, /*spread=*/0.35),
      scenario.radio, scenario.tasks, options);
  const cluster::ClusterReport report = runtime.run(trace);

  report.write_json(std::cout);
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "bench_cluster_churn: cannot open " << out_path << "\n";
      return 1;
    }
    report.write_json(out);
    std::cerr << "bench_cluster_churn: report written to " << out_path
              << "\n";
  }
  std::cerr << "bench_cluster_churn: " << report.total_admitted() << "/"
            << report.total_arrivals() << " jobs admitted, "
            << report.migration.migrated << "/"
            << report.migration.attempted << " migrations, "
            << report.total_slo_violations() << " SLO violations across "
            << report.epochs << " epochs\n";
  if (report.faults.enabled)
    std::cerr << "bench_cluster_churn: " << report.faults.events_applied
              << " fault events, " << report.faults.displaced
              << " displaced (" << report.faults.displaced_replaced
              << " replaced, " << report.faults.displaced_readmitted
              << " readmitted, " << report.faults.displaced_rejected
              << " rejected)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // ODN_TRACE=<path> / ODN_METRICS=<path> dump a Perfetto trace and a
  // Prometheus snapshot at exit; stdout stays pure report JSON.
  odn::obs::EnvSession obs_session;
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "bench_cluster_churn: " << e.what() << "\n";
    return 2;
  }
}
