// Byte-identity pins for feature compositions of the serving event loop
// that no bench golden covers: the single cell with scheduling + a seeded
// fault plan + burn-rate alerts, the single cell with batching on the
// mixed ResNet/transformer catalog, and a three-cell cluster with
// scheduling + a seeded fault plan, spillover on and off.
//
// Each run pins three artifacts against tests/golden/loop_*: the report
// JSON, the flight-recorder dump and the Prometheus export of the global
// metrics registry (values reset before the run). Every run is repeated
// at one and at four pool threads; both must reproduce the same bytes.
//
// The metric export lists every series registered in the process, so each
// TEST must run in its own process (ctest runs every discovered gtest case
// separately). On a mismatch the actual bytes are written next to the
// test's working directory as <golden>.actual for inspection.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>

#include "cluster/cell.h"
#include "cluster/cluster_runtime.h"
#include "core/scenarios.h"
#include "fault/fault_plan.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "runtime/serving_runtime.h"
#include "runtime/workload.h"
#include "util/thread_pool.h"

namespace odn {
namespace {

std::string read_golden(const std::string& file) {
  std::ifstream in(std::string(ODN_SOURCE_DIR) + "/tests/golden/" + file,
                   std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void expect_golden(const std::string& file, const std::string& actual,
                   std::size_t threads) {
  const std::string expected = read_golden(file);
  if (expected == actual) return;
  std::ofstream(file + ".actual", std::ios::binary) << actual;
  ADD_FAILURE() << file << " differs at " << threads
                << " thread(s); actual bytes written to " << file
                << ".actual";
}

// Runs `run` (which returns the report JSON) with a clean flight ring and
// zeroed metric values, at one and at four threads, and compares the three
// artifacts with the goldens named `<stem>.{report.json,flight.json,prom}`.
void pin_run(const std::string& stem,
             const std::function<std::string()>& run) {
  obs::FlightRecorder& flight = obs::FlightRecorder::global();
  flight.set_capacity(1u << 17);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    util::set_thread_count(threads);
    obs::MetricsRegistry::global().reset_values();
    flight.reset();
    flight.set_enabled(true);
    const std::string report = run();
    flight.set_enabled(false);
    std::stringstream prom;
    obs::MetricsRegistry::global().write_prometheus(prom);
    expect_golden(stem + ".report.json", report, threads);
    expect_golden(stem + ".flight.json", flight.to_json(), threads);
    expect_golden(stem + ".prom", prom.str(), threads);
  }
  util::set_thread_count(1);
}

runtime::WorkloadTrace qos_trace(std::size_t templates, double horizon) {
  runtime::WorkloadOptions options;
  options.horizon_s = horizon;
  options.seed = 7;
  options.arrival_rate_per_s = 1.4;
  options.mean_holding_s = 12.0;
  options.qos.enabled = true;
  options.qos.deadline_tightness = 0.8;
  return runtime::generate_workload(templates, options);
}

fault::FaultPlan seeded_plan(std::size_t cells, double horizon) {
  fault::FaultPlanOptions options;
  options.seed = 7;
  options.horizon_s = horizon;
  options.mean_outage_s = 6.0;
  options.mean_degradation_s = 8.0;
  options.mean_inflation_s = 8.0;
  options.mean_exhaustion_s = 5.0;
  return fault::generate_fault_plan(cells, options);
}

edge::EdgeResources squeezed(edge::EdgeResources resources) {
  resources.memory_capacity_bytes *= 0.6;
  resources.compute_capacity_s *= 0.6;
  resources.total_rbs = std::max<std::size_t>(1, resources.total_rbs / 2);
  return resources;
}

TEST(LoopGoldens, CellSchedFaultsAlerts) {
  constexpr double kHorizon = 60.0;
  const core::DotInstance instance = core::make_small_scenario(5);
  runtime::RuntimeOptions options;
  options.epoch_s = 5.0;
  options.retry.max_attempts = 3;
  options.retry.backoff_s = 1.0;
  options.sched.enabled = true;
  options.faults = seeded_plan(1, kHorizon);
  options.alerts.enabled = true;
  options.alerts.fast_window_epochs = 2;
  options.alerts.slow_window_epochs = 6;
  const runtime::WorkloadTrace trace = qos_trace(5, kHorizon);
  pin_run("loop_cell_sched_faults_alerts", [&] {
    runtime::ServingRuntime runtime(instance.catalog,
                                    squeezed(instance.resources),
                                    instance.radio, instance.tasks, options);
    const runtime::RuntimeReport report = runtime.run(trace);
    // The composition must actually exercise every feature it pins.
    EXPECT_GT(report.sched.probes, 0u);
    EXPECT_GT(report.faults.events_applied, 0u);
    EXPECT_GT(report.faults.displaced, 0u);
    EXPECT_FALSE(report.alerts.records.empty());
    return report.to_json();
  });
}

TEST(LoopGoldens, CellBatchingMixedCatalog) {
  const core::DotInstance instance =
      core::make_mixed_scenario(8, core::RequestRate::kMedium);
  runtime::RuntimeOptions options;
  options.batching.enabled = true;
  runtime::WorkloadOptions workload;
  workload.horizon_s = 30.0;
  workload.seed = 7;
  workload.arrival_rate_per_s = 1.0;
  workload.mean_holding_s = 15.0;
  const runtime::WorkloadTrace trace = runtime::generate_workload(8, workload);
  pin_run("loop_cell_batching_mixed", [&] {
    runtime::ServingRuntime runtime(instance.catalog, instance.resources,
                                    instance.radio, instance.tasks, options);
    const runtime::RuntimeReport report = runtime.run(trace);
    EXPECT_GT(report.batching.coalesced_requests, 0u);
    return report.to_json();
  });
}

void pin_cluster(const std::string& stem, bool spillover) {
  constexpr double kHorizon = 60.0;
  constexpr std::size_t kCells = 3;
  const core::DotInstance instance = core::make_small_scenario(5);
  cluster::ClusterOptions options;
  options.epoch_s = 5.0;
  options.retry.max_attempts = 3;
  options.retry.backoff_s = 1.0;
  options.sched.enabled = true;
  options.faults = seeded_plan(kCells, kHorizon);
  options.dispatch.spillover = spillover;
  const runtime::WorkloadTrace trace = qos_trace(5, kHorizon);
  pin_run(stem, [&] {
    cluster::ClusterRuntime runtime(
        instance.catalog,
        cluster::make_cells(kCells, squeezed(instance.resources), 5),
        instance.radio, instance.tasks, options);
    const cluster::ClusterReport report = runtime.run(trace);
    EXPECT_GT(report.sched.probes, 0u);
    EXPECT_GT(report.faults.displaced, 0u);
    return report.to_json();
  });
}

TEST(LoopGoldens, ClusterSchedFaultsSpillover) {
  pin_cluster("loop_cluster_sched_faults_spill", true);
}

TEST(LoopGoldens, ClusterSchedFaultsNoSpillover) {
  pin_cluster("loop_cluster_sched_faults_nospill", false);
}

}  // namespace
}  // namespace odn
