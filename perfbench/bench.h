// Shared pieces of the benchmark program: command-line arguments, the
// result a workload fills in, timing and small statistics helpers.
//
// A workload run is a closed loop: set-up is repeated a few times (its
// median is `setup_s`), then timed calls into the library are replayed
// back to back for the requested number of seconds. Every call's output
// is checked; a failed check marks every operation of the run as failed.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 7;
  double seconds = 10.0;
  bool trace = false;
  // Recorded digests of the default-seed outputs (digests.txt).
  std::string digests_path;
};

// Seed whose outputs have recorded digests; every other seed is checked
// only by the invariants.
inline constexpr std::uint64_t kDefaultSeed = 7;

struct Metric {
  double value = 0.0;
  std::string unit;
};

class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = Metric{value, unit};
  }
  // Records one output check; a false check fails the whole run.
  void check(const std::string& name, bool ok);
  // Records the digest of one default-seed output under `name`.
  void digest(const std::string& name, std::uint64_t value) {
    digests_[name] = value;
  }

  bool correct() const noexcept { return failed_checks_.empty(); }
  const std::vector<std::string>& failed_checks() const noexcept {
    return failed_checks_;
  }
  std::size_t checks_run() const noexcept { return checks_run_; }
  const std::map<std::string, Metric>& metrics() const noexcept {
    return metrics_;
  }
  const std::map<std::string, std::uint64_t>& digests() const noexcept {
    return digests_;
  }

  // Timed library operations (run() calls, forward passes, ...). An
  // operation that throws is counted here and in `exceptions`.
  std::size_t attempted = 0;
  std::size_t exceptions = 0;

 private:
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::uint64_t> digests_;
  std::vector<std::string> failed_checks_;
  std::size_t checks_run_ = 0;
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Median of `values` (mean of the middle two for even counts); 0 if empty.
double median(std::vector<double> values);

// Nearest-rank percentile, q in (0, 1]; 0 if empty.
double percentile(std::vector<double> values, double q);

// Highest of p99 / p90 / p50 whose rank leaves at least ten samples beyond
// it, as {q, value}; {0.5, median} when there are fewer than 20 samples.
std::pair<double, double> tail_percentile(const std::vector<double>& values);

// 64-bit FNV-1a, chained through `seed` so several buffers fold into one.
std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t seed = 0xcbf29ce484222325ULL);

// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

// Workload entry points (churn.cpp, shape.cpp). Each fills `result`.
void run_cell_churn(const Args& args, Result& result);
void run_cluster_churn(const Args& args, Result& result);
void run_shape_nn(const Args& args, Result& result);

}  // namespace perfbench
