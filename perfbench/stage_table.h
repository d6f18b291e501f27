// Folds the tracer's spans into a stage table, and snapshots the metrics
// registry's work counters.
//
// The library already emits spans (ODN_TRACE_SPAN) at its layer
// boundaries and counts work in obs::MetricsRegistry::global(); the
// benchmark only switches tracing on, wraps its own calls in spans of
// category "perfbench", and drains the buffered events through
// obs::write_trace_json. Folding happens per thread: a span's self time is
// its duration minus the durations of the spans directly nested in it on
// the same thread, so the self times of a root span and everything nested
// in it sum exactly to the root's duration (timestamps are integral
// nanoseconds). Spans on pool worker threads have no parent on their own
// thread; they are folded the same way but kept out of the root sums.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Result;

struct StageStats {
  std::uint64_t self_ns = 0;
  std::uint64_t total_ns = 0;
  std::size_t count = 0;
  // Inclusive duration of every call, in begin order (microseconds).
  std::vector<double> durations_us;
};

class StageTable {
 public:
  // Name of the benchmark's own root span around every timed call.
  static constexpr const char* kRootSpan = "perfbench.call";

  // Drains every buffered trace event and folds it into the table.
  void drain();

  // Stats of one span name; an all-zero entry when it never ran.
  const StageStats& at(const std::string& name) const;
  double self_s(const std::string& name) const {
    return static_cast<double>(at(name).self_ns) * 1e-9;
  }

  // Sum of root-span durations, and the sum of the self times of the
  // root spans and of every span nested in them on the root's thread.
  // The two are equal when the stage table accounts for all wall time.
  std::uint64_t root_ns() const noexcept { return root_ns_; }
  std::uint64_t root_self_sum_ns() const noexcept { return root_self_ns_; }
  std::size_t events() const noexcept { return events_; }

  const std::map<std::string, StageStats>& stages() const noexcept {
    return stages_;
  }

 private:
  std::map<std::string, StageStats> stages_;
  std::uint64_t root_ns_ = 0;
  std::uint64_t root_self_ns_ = 0;
  std::size_t events_ = 0;
};

// Prints one row per span name, by descending self time: calls, self and
// inclusive seconds, p50/p99 per call, and self time as a share of the
// root spans.
void print_stage_table(const StageTable& table, std::ostream& out);

// Emits the trace.* metrics of one traced run (overhead of the traced
// call over the untraced one, both given as normalized seconds; root time;
// unaccounted time), checks that the stage table accounts for the root
// spans, and prints the table.
void report_trace(const StageTable& table, double traced_s,
                  double untraced_s, Result& result);

// Counter values of the global metrics registry, summed over label sets
// (histograms and gauges are skipped).
std::map<std::string, std::uint64_t> counter_snapshot();

// Value of `name` in a snapshot, 0 when absent.
std::uint64_t counter(const std::map<std::string, std::uint64_t>& snapshot,
                      const std::string& name);

}  // namespace perfbench
