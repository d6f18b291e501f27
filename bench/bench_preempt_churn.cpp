// Preemption churn bench — the serving runtime under deadline/priority
// QoS-annotated overload, sweeping deadline tightness and priority mix
// through the preemption ladder (src/sched/).
//
// Without any sched flag (--tightness / --mix) this is the plain
// long-horizon churn bench: the serving runtime over the large-scale
// scenario (Table IV) under sustained Poisson arrivals with flash-crowd
// bursts, no QoS annotation, scheduling disabled. Jobs arrive faster than
// the edge can hold them, so the run exercises the full admission
// lifecycle (incremental admits, bounded retries with backoff,
// accuracy-downgraded final attempts, departures, epoch-boundary emulated
// measurement); the golden_runtime_churn_* ctests pin its report.
//
// With sched flags it runs one full serving run per (tightness, mix)
// combination — QoS-annotated workload, preemption ladder enabled — and
// emits a sweep document embedding every run's report. Deterministic:
// equal seeds produce byte-identical output for any ODN_THREADS setting.
//
// Diagnosis artifacts (single-run only — error when the sweep would run
// more than one combination): --alerts enables the SLO burn-rate engine
// (adds the report's "alerts" block), --flight-out dumps the flight
// recorder's event ring, --timeline-out the per-task journey records
// derived from it, and --alerts-out the standalone alert log. All three
// are byte-identical for any ODN_THREADS (every record site is on the
// serial event loop).
//
// --perf-out (single run only) writes a small wall-clock summary
// (epoch-measurement mean / p99 and total run time) as an
// odn-bench-perf/1 document — the input of tools/check_bench_baseline.py,
// kept out of the report so the golden-compared stdout stays free of
// wall-clock noise.
//
//   $ ./bench_preempt_churn [--seed N] [--horizon S] [--out sweep.json]
//       [--tightness T]... [--mix balanced|high|low]...
//       [--max-victims K] [--no-downgrade] [--no-preempt]
//       [--alerts] [--flight-out f.json] [--timeline-out t.json]
//       [--alerts-out a.json] [--perf-out perf.json]
//
// Malformed numbers and any set-up or run error print a message and exit 2.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <ostream>
#include <string>
#include <vector>

#include "churn_cli.h"
#include "core/scenarios.h"
#include "obs/flight.h"
#include "obs/session.h"
#include "obs/timeline.h"
#include "runtime/serving_runtime.h"
#include "runtime/stats.h"
#include "runtime/workload.h"
#include "util/logging.h"
#include "util/mathx.h"

namespace {

struct SweepConfig {
  std::uint64_t seed = 7;
  double horizon_s = 90.0;
  std::string out_path;
  std::vector<double> tightness;   // empty + empty mixes => plain churn
  std::vector<std::string> mixes;
  std::size_t max_victims = 2;
  bool allow_downgrade = true;
  bool allow_preempt = true;
  bool alerts = false;             // burn-rate engine (adds "alerts" block)
  std::string flight_out;          // flight-record dump (single run only)
  std::string timeline_out;        // task-timeline export (single run only)
  std::string alerts_out;          // standalone alert log (single run only)
  std::string perf_out;            // wall-clock summary (single run only)
};

// Priority-mix presets: band weights for WorkloadQosOptions::priority_mix
// (low / medium / high priority thirds of [0, 1)).
std::vector<double> mix_weights(const std::string& name) {
  if (name == "balanced") return {1.0, 1.0, 1.0};
  if (name == "high") return {1.0, 1.0, 3.0};
  if (name == "low") return {3.0, 1.0, 1.0};
  return {};
}

// The plain churn workload + runtime configuration; the sweep only ever
// adds QoS annotation and sched options on top, so the no-sched run keeps
// the plain churn report bytes.
odn::runtime::WorkloadOptions base_workload(const SweepConfig& config) {
  odn::runtime::WorkloadOptions workload;
  workload.horizon_s = config.horizon_s;
  workload.seed = config.seed;
  workload.arrival_rate_per_s = 1.2;
  workload.mean_holding_s = 25.0;
  workload.burst_count = 2;
  workload.burst_arrivals_mean = 8.0;
  workload.burst_span_s = 3.0;
  return workload;
}

odn::runtime::RuntimeOptions base_options(const SweepConfig& config) {
  odn::runtime::RuntimeOptions options;
  options.seed = config.seed;
  options.epoch_s = 10.0;
  options.emulation_window_s = 5.0;
  options.retry.max_attempts = 3;
  options.retry.backoff_s = 2.0;
  options.retry.downgrade_final_attempt = true;
  return options;
}

odn::runtime::RuntimeReport run_once(const odn::core::DotInstance& scenario,
                                     const SweepConfig& config,
                                     double tightness,
                                     const std::string& mix) {
  using namespace odn;
  runtime::WorkloadOptions workload = base_workload(config);
  runtime::RuntimeOptions options = base_options(config);
  const bool sched = tightness > 0.0;
  if (sched) {
    workload.qos.enabled = true;
    workload.qos.deadline_tightness = tightness;
    workload.qos.priority_mix = mix_weights(mix);
    options.sched.enabled = true;
    options.sched.max_victims = config.max_victims;
    options.sched.allow_downgrade = config.allow_downgrade;
    options.sched.allow_preempt = config.allow_preempt;
  }
  options.alerts.enabled = config.alerts;
  const runtime::WorkloadTrace trace =
      runtime::generate_workload(scenario.tasks.size(), workload);
  std::cerr << "bench_preempt_churn: trace '" << trace.name << "', "
            << trace.events.size() << " events (" << trace.arrival_count()
            << " arrivals), tightness "
            << (sched ? runtime::json_double(tightness) : std::string("off"))
            << ", mix " << (sched ? mix : std::string("n/a")) << "\n";
  runtime::ServingRuntime serving(scenario.catalog, scenario.resources,
                                  scenario.radio, scenario.tasks, options);
  return serving.run(trace);
}

void write_sweep_json(std::ostream& out, const SweepConfig& config,
                      const std::vector<double>& tightness,
                      const std::vector<std::string>& mixes,
                      const std::vector<odn::runtime::RuntimeReport>& reports) {
  using odn::runtime::json_double;
  out << "{\n";
  out << "  \"schema\": \"odn-preempt-sweep/1\",\n";
  out << "  \"seed\": " << config.seed << ",\n";
  out << "  \"horizon_s\": " << json_double(config.horizon_s) << ",\n";
  out << "  \"runs\": [\n";
  std::size_t index = 0;
  for (std::size_t t = 0; t < tightness.size(); ++t) {
    for (std::size_t m = 0; m < mixes.size(); ++m, ++index) {
      out << "    {\n";
      out << "      \"tightness\": " << json_double(tightness[t]) << ",\n";
      out << "      \"mix\": \"" << mixes[m] << "\",\n";
      out << "      \"report\": ";
      reports[index].write_json(out);  // ends with "}\n"
      out << "    }" << (index + 1 < reports.size() ? "," : "") << "\n";
    }
  }
  out << "  ]\n";
  out << "}\n";
}

// The odn-bench-perf/1 wall-clock summary of one run (the document
// bench/baselines/runtime_churn_perf.json gates).
void write_perf_json(std::ostream& out, std::uint64_t seed,
                     const odn::runtime::RuntimeReport& report) {
  using odn::runtime::json_double;
  std::vector<double> measure_s;
  measure_s.reserve(report.timeline.size());
  for (const odn::runtime::EpochSnapshot& e : report.timeline)
    measure_s.push_back(e.measure_wall_s);
  double mean_s = 0.0;
  for (const double s : measure_s) mean_s += s;
  if (!measure_s.empty()) mean_s /= static_cast<double>(measure_s.size());
  const double p99_s =
      measure_s.empty() ? 0.0 : odn::util::percentile(measure_s, 99.0);
  out << "{\n";
  out << "  \"schema\": \"odn-bench-perf/1\",\n";
  out << "  \"bench\": \"runtime_churn\",\n";
  out << "  \"seed\": " << seed << ",\n";
  out << "  \"epochs\": " << report.epochs << ",\n";
  out << "  \"metrics\": {\n";
  out << "    \"epoch_measure_mean_s\": " << json_double(mean_s) << ",\n";
  out << "    \"epoch_measure_p99_s\": " << json_double(p99_s) << ",\n";
  out << "    \"run_wall_s\": " << json_double(report.run_wall_s) << "\n";
  out << "  }\n";
  out << "}\n";
}

int run(int argc, char** argv) {
  using namespace odn;

  SweepConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seed" && i + 1 < argc) {
      config.seed = bench::parse_u64(arg, argv[++i]);
    } else if (arg == "--horizon" && i + 1 < argc) {
      config.horizon_s = bench::parse_double(arg, argv[++i], /*positive=*/true);
    } else if (arg == "--out" && i + 1 < argc) {
      config.out_path = argv[++i];
    } else if (arg == "--tightness" && i + 1 < argc) {
      config.tightness.push_back(
          bench::parse_double(arg, argv[++i], /*positive=*/true));
    } else if (arg == "--mix" && i + 1 < argc) {
      const std::string mix = argv[++i];
      if (mix_weights(mix).empty()) {
        std::cerr << "bench_preempt_churn: unknown mix '" << mix
                  << "' (want balanced|high|low)\n";
        return 2;
      }
      config.mixes.push_back(mix);
    } else if (arg == "--max-victims" && i + 1 < argc) {
      config.max_victims =
          static_cast<std::size_t>(bench::parse_u64(arg, argv[++i]));
    } else if (arg == "--no-downgrade") {
      config.allow_downgrade = false;
    } else if (arg == "--no-preempt") {
      config.allow_preempt = false;
    } else if (arg == "--alerts") {
      config.alerts = true;
    } else if (arg == "--flight-out" && i + 1 < argc) {
      config.flight_out = argv[++i];
    } else if (arg == "--timeline-out" && i + 1 < argc) {
      config.timeline_out = argv[++i];
    } else if (arg == "--alerts-out" && i + 1 < argc) {
      config.alerts_out = argv[++i];
    } else if (arg == "--perf-out" && i + 1 < argc) {
      config.perf_out = argv[++i];
    } else {
      std::cerr << "usage: " << argv[0]
                << " [--seed N] [--horizon S] [--out sweep.json]"
                   " [--tightness T]... [--mix balanced|high|low]..."
                   " [--max-victims K] [--no-downgrade] [--no-preempt]"
                   " [--alerts] [--flight-out f.json]"
                   " [--timeline-out t.json] [--alerts-out a.json]"
                   " [--perf-out perf.json]\n";
      return 2;
    }
  }

  // The diagnosis artifacts describe exactly one run; a sweep would
  // interleave several runs' events in one ring.
  const std::size_t run_count =
      config.tightness.empty() && config.mixes.empty()
          ? 1
          : std::max<std::size_t>(config.tightness.size(), 1) *
                std::max<std::size_t>(config.mixes.size(), 1);
  if ((!config.flight_out.empty() || !config.timeline_out.empty() ||
       !config.alerts_out.empty() || !config.perf_out.empty()) &&
      run_count > 1) {
    std::cerr << "bench_preempt_churn: --flight-out/--timeline-out/"
                 "--alerts-out/--perf-out need a single run, sweep has "
              << run_count << "\n";
    return 2;
  }
  if (!config.alerts_out.empty() && !config.alerts) {
    std::cerr << "bench_preempt_churn: --alerts-out requires --alerts\n";
    return 2;
  }
  if (!config.flight_out.empty() || !config.timeline_out.empty()) {
    // Big enough that preempt-churn horizons never evict (the dump's
    // "dropped" field stays 0, so timelines are complete).
    obs::FlightRecorder::global().set_capacity(65536);
    obs::FlightRecorder::global().set_enabled(true);
  }

  util::set_log_level(util::LogLevel::kWarn);

  const core::DotInstance scenario =
      core::make_large_scenario(core::RequestRate::kLow);

  // Writes the single-run diagnosis artifacts (flight record, task
  // timelines, alert log). Returns false on any I/O failure.
  auto write_artifacts = [&](const runtime::RuntimeReport& report) {
    if (!config.flight_out.empty() &&
        !obs::dump_flight_record(config.flight_out)) {
      std::cerr << "bench_preempt_churn: cannot open " << config.flight_out
                << "\n";
      return false;
    }
    if (!config.timeline_out.empty()) {
      const std::vector<obs::FlightEvent> events =
          obs::FlightRecorder::global().snapshot();
      if (!obs::write_timelines_json(config.timeline_out,
                                     obs::build_task_timelines(events))) {
        std::cerr << "bench_preempt_churn: cannot open "
                  << config.timeline_out << "\n";
        return false;
      }
    }
    if (!config.alerts_out.empty()) {
      std::ofstream out(config.alerts_out);
      if (!out) {
        std::cerr << "bench_preempt_churn: cannot open " << config.alerts_out
                  << "\n";
        return false;
      }
      out << "{\n  \"schema\": \"odn-alert-log/1\",\n  \"alerts\": ";
      runtime::write_alert_log_json(out, report.alerts, "  ");
      out << "\n}\n";
    }
    if (!config.perf_out.empty()) {
      std::ofstream perf(config.perf_out);
      if (!perf) {
        std::cerr << "bench_preempt_churn: cannot open " << config.perf_out
                  << "\n";
        return false;
      }
      write_perf_json(perf, config.seed, report);
      std::cerr << "bench_preempt_churn: perf summary written to "
                << config.perf_out << "\n";
    }
    return true;
  };

  // No sched flags at all: the plain churn run (plain report on stdout).
  if (config.tightness.empty() && config.mixes.empty()) {
    const runtime::RuntimeReport report = run_once(scenario, config, 0.0, "");
    report.write_json(std::cout);
    if (!config.out_path.empty()) {
      std::ofstream out(config.out_path);
      if (!out) {
        std::cerr << "bench_preempt_churn: cannot open " << config.out_path
                  << "\n";
        return 1;
      }
      report.write_json(out);
    }
    if (!write_artifacts(report)) return 1;
    std::cerr << "bench_preempt_churn: no-op run (scheduling off), "
              << report.total_admitted() << "/" << report.total_arrivals()
              << " jobs admitted\n";
    return 0;
  }
  if (config.tightness.empty()) config.tightness.push_back(1.0);
  if (config.mixes.empty()) config.mixes.emplace_back("balanced");

  std::vector<runtime::RuntimeReport> reports;
  reports.reserve(config.tightness.size() * config.mixes.size());
  for (const double tightness : config.tightness)
    for (const std::string& mix : config.mixes)
      reports.push_back(run_once(scenario, config, tightness, mix));

  write_sweep_json(std::cout, config, config.tightness, config.mixes,
                   reports);
  if (!config.out_path.empty()) {
    std::ofstream out(config.out_path);
    if (!out) {
      std::cerr << "bench_preempt_churn: cannot open " << config.out_path
                << "\n";
      return 1;
    }
    write_sweep_json(out, config, config.tightness, config.mixes, reports);
  }
  if (!write_artifacts(reports.back())) return 1;
  std::size_t preemptions = 0, downgrades = 0;
  for (const runtime::RuntimeReport& report : reports) {
    preemptions += report.sched.preemptions;
    downgrades += report.sched.downgrades;
  }
  std::cerr << "bench_preempt_churn: " << reports.size() << " runs, "
            << preemptions << " preemptions, " << downgrades
            << " downgrades\n";
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
    std::cerr << "bench_preempt_churn: " << e.what() << "\n";
    return 2;
  }
}
