// Host-speed reference: a fixed kernel owned by the benchmark (it calls no
// library code), timed around every timed call. The shared host this
// benchmark was built on changes speed by up to 2x in phases lasting
// seconds to tens of seconds; dividing each call's wall time by the
// reference time measured next to it cancels a large part of that drift
// (README.md gives the spreads with and without it). Normalized
// times read as seconds on a host that runs the reference in
// kReferenceNominalS.
#pragma once

#include <vector>

#include "bench.h"

namespace perfbench {

// Roughly the reference time on the host the baseline was recorded on
// (README.md); normalized times are scaled back to seconds with it.
inline constexpr double kReferenceNominalS = 0.05;

// Median wall time of three reference runs, in seconds.
double reference_seconds();

// `seconds` measured next to a reference time of `reference_s`, rescaled
// to the nominal reference host.
inline double normalized(double seconds, double reference_s) {
  return seconds * kReferenceNominalS / reference_s;
}

// The timed calls of one run. Each call's rate is normalized by the mean of
// the reference timings taken just before and just after it.
struct CallTimes {
  std::vector<double> seconds;   // wall time per call
  std::vector<double> raw_rate;  // work units per wall second
  std::vector<double> rate;      // work units per normalized second
  double reference_s = reference_seconds();  // latest reference timing

  // Records a call that did `work` units in `call_s` seconds, then times
  // the reference that closes this call and opens the next.
  void record(double work, double call_s) {
    const double after = reference_seconds();
    seconds.push_back(call_s);
    raw_rate.push_back(work / call_s);
    rate.push_back(work / normalized(call_s, 0.5 * (reference_s + after)));
    reference_s = after;
  }

  // Normalized duration of call `i`.
  double normalized_s(std::size_t i) const {
    return seconds[i] * raw_rate[i] / rate[i];
  }
};

// Runs `setup` once when tracing. Otherwise runs it in batches of at least
// 0.25 s (one call at minimum), with a reference timing between batches,
// until there are three batches and one second of set-up time. Appends
// each batch's normalized time per call to `seconds` and returns the last
// product.
template <class Setup>
auto repeat_setup(bool traced, Setup&& setup, std::vector<double>& seconds) {
  if (traced) {
    const Clock::time_point start = Clock::now();
    auto product = setup();
    seconds.push_back(seconds_since(start));
    return product;
  }
  CallTimes batches;
  double total = 0.0;
  for (;;) {
    const Clock::time_point start = Clock::now();
    auto product = setup();
    int calls = 1;
    for (; seconds_since(start) < 0.25; ++calls) product = setup();
    const double batch = seconds_since(start);
    batches.record(calls, batch);
    seconds.push_back(1.0 / batches.rate.back());
    total += batch;
    if (seconds.size() >= 3 && total >= 1.0) return product;
  }
}

}  // namespace perfbench
