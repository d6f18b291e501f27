// Benchmark program: runs one workload for a fixed time and prints, as the
// last line of stdout, one JSON object with the keys correct, attempted,
// failed and metrics. See README.md in this directory for the workloads
// and metrics; run.py builds this binary and is the command to use.
//
//   odn_perfbench --workload cell_churn|cluster_churn|shape_nn
//                 [--seed N] [--seconds S] [--trace 0|1]
//                 [--digests digests.txt] [--commit ID]
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.h"
#include "nn/gemm_kernel.h"
#include "util/logging.h"
#include "util/thread_pool.h"

#ifndef ODN_PERF_BUILD_TYPE
#define ODN_PERF_BUILD_TYPE ""
#endif

namespace perfbench {

void Result::check(const std::string& name, bool ok) {
  ++checks_run_;
  if (!ok && std::find(failed_checks_.begin(), failed_checks_.end(), name) ==
                 failed_checks_.end())
    failed_checks_.push_back(name);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1,
                              values.size()) - 1;
  return values[index];
}

std::pair<double, double> tail_percentile(const std::vector<double>& values) {
  for (const double q : {0.99, 0.9}) {
    const double beyond = (1.0 - q) * static_cast<double>(values.size());
    if (beyond >= 10.0) return {q, percentile(values, q)};
  }
  return {0.5, median(values)};
}

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t hash = seed;
  for (std::size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

}  // namespace perfbench

namespace {

using perfbench::Args;
using perfbench::Result;

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

// Shortest round-trip text of a double ("all its digits").
std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char digits[64];
  const auto result = std::to_chars(digits, digits + sizeof(digits), value);
  return std::string(digits, result.ptr);
}

// digests.txt: one "<name> <16 hex digits>" pair per line; '#' comments.
std::map<std::string, std::uint64_t> read_digests(const std::string& path) {
  std::map<std::string, std::uint64_t> digests;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name, hex;
    if (fields >> name >> hex)
      digests[name] = std::strtoull(hex.c_str(), nullptr, 16);
  }
  return digests;
}

std::string hex64(std::uint64_t value) {
  std::ostringstream out;
  out << std::hex << std::setw(16) << std::setfill('0') << value;
  return out.str();
}

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --workload cell_churn|cluster_churn|shape_nn [--seed N]"
               " [--seconds S] [--trace 0|1] [--digests FILE]"
               " [--commit ID]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      args.workload = value;
    } else if (arg == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      args.trace = value == "1";
    } else if (arg == "--digests") {
      args.digests_path = value;
    } else if (arg == "--commit") {
      commit = value;
    } else {
      return usage(argv[0]);
    }
  }
  if (!(args.seconds > 0.0) || args.seconds > 600.0) return usage(argv[0]);

  const std::string build_type = ODN_PERF_BUILD_TYPE;
  if (build_type != "Release") {
    std::cerr << "odn_perfbench: refusing to measure a '" << build_type
              << "' build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 3;
  }

  odn::util::set_log_level(odn::util::LogLevel::kWarn);

  Result result;
  try {
    if (args.workload == "cell_churn") {
      perfbench::run_cell_churn(args, result);
    } else if (args.workload == "cluster_churn") {
      perfbench::run_cluster_churn(args, result);
    } else if (args.workload == "shape_nn") {
      perfbench::run_shape_nn(args, result);
    } else {
      return usage(argv[0]);
    }
  } catch (const std::exception& error) {
    std::cerr << "odn_perfbench: " << args.workload << " aborted: "
              << error.what() << "\n";
    return 1;
  }

  // Default-seed outputs must match their recorded digests bit for bit
  // (the repository's determinism contract across GEMM lanes and
  // ODN_THREADS values).
  if (args.seed == perfbench::kDefaultSeed) {
    const auto recorded = read_digests(args.digests_path);
    for (const auto& [name, value] : result.digests()) {
      const auto found = recorded.find(name);
      result.check("digest " + name,
                   found != recorded.end() && found->second == value);
    }
  }
  for (const auto& [name, value] : result.digests())
    std::cout << "digest " << name << " " << hex64(value) << "\n";

  const std::size_t failed =
      result.correct() ? result.exceptions : result.attempted;
  if (!args.trace) {
    result.metric("peak_rss_mb", perfbench::peak_rss_mb(), "MB");
    result.metric("ok_ratio",
                  result.attempted == 0
                      ? 0.0
                      : 1.0 - static_cast<double>(failed) /
                                  static_cast<double>(result.attempted),
                  "ratio");
  }

  std::cout << "stamp {\"cpu\": " << json_string(cpu_model())
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"gemm_lane\": "
            << json_string(odn::nn::gemm_lane_name(
                   odn::nn::gemm_resolve_lane()))
            << ", \"odn_threads\": " << odn::util::global_thread_count()
            << ", \"build_type\": " << json_string(build_type)
            << ", \"commit\": " << json_string(commit)
            << ", \"workload\": " << json_string(args.workload)
            << ", \"seed\": " << args.seed << "}\n";
  std::cout << "checks " << result.checks_run() << " run, "
            << result.failed_checks().size() << " failed\n";
  for (const std::string& name : result.failed_checks())
    std::cout << "FAILED check: " << name << "\n";

  std::cout << "{\"correct\": " << (result.correct() ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result.metrics()) {
    std::cout << (first ? "" : ", ") << json_string(name)
              << ": {\"value\": " << json_number(metric.value)
              << ", \"unit\": " << json_string(metric.unit) << "}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return 0;
}
