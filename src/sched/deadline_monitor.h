// The deadline monitor: classifies every arriving job into exactly one SLO
// bucket from the events the runtime already processes serially.
//
// Bucket precedence (first match wins):
//   rejected   — never served at all (final rejection, departed before
//                admission, or the horizon hit while still queued)
//   preempted  — served at some point, evicted, and never served again
//   missed     — first admission landed after arrival + deadline
//   downgraded — served to completion, but re-shaped to a cheaper (z, r)
//                at some point, or evicted and later readmitted
//   met        — served within deadline at the requested shape throughout
//
// Because the precedence is total and every tracked job matches one rung,
//   met + missed + preempted + downgraded + rejected == arrivals
// holds by construction (the property test pins it across seeds).
//
// The monitor keeps its epoch-snapshot counts current on every call: each
// mutation subtracts the job's old classification and adds the new one, so
// snapshot() and finalize() cost O(1) however many jobs a run tracks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>

#include "sched/sched_stats.h"

namespace odn::sched {

enum class DeadlineBucket : std::uint8_t {
  kMet,
  kMissed,
  kPreempted,
  kDowngraded,
  kRejected,
};

// Stable lowercase bucket names ("met", "missed", ...). The obs task
// timelines derive the same partition independently from flight events
// (obs::classify_journey); the sched property tests cross-check the two.
const char* bucket_name(DeadlineBucket bucket) noexcept;

class DeadlineMonitor {
 public:
  // Registers an arrival. `deadline_s` is the admit-by deadline relative
  // to `arrival_s` (from the trace's QoS annotation or the configured
  // default).
  void track(std::uint64_t job, double arrival_s, double deadline_s);

  // First (or repeat) admission at `now`. `downgraded` marks admissions at
  // a reduced shape (the retry policy's final-attempt downgrade).
  void on_admitted(std::uint64_t job, double now, bool downgraded);
  // The ladder re-shaped this served job to a cheaper (z, r).
  void on_downgraded(std::uint64_t job);
  // Evicted — by the ladder or by a fault displacement.
  void on_preempted(std::uint64_t job);
  // Back in service after an eviction. `downgraded` as in on_admitted.
  void on_readmitted(std::uint64_t job, double now, bool downgraded);
  // Admission or readmission attempts exhausted.
  void on_rejected(std::uint64_t job);
  // The job's departure event fired (serving or not).
  void on_departed(std::uint64_t job);

  // Classification of one tracked job in its current state.
  DeadlineBucket bucket(std::uint64_t job) const;

  // Epoch-boundary classification of every tracked job (see
  // SchedEpochBuckets for the serving/pending split). O(1).
  SchedEpochBuckets snapshot(double now) const;

  // End-of-run: adds every job's final bucket to `stats` (a job still
  // pending has never been served, so it counts as rejected). O(1).
  void finalize(SchedStats& stats) const;

  std::size_t tracked() const noexcept { return entries_.size(); }

 private:
  struct Entry {
    double arrival_s = 0.0;
    double deadline_s = 0.0;
    bool admitted = false;          // ever served
    double first_admitted_s = 0.0;
    bool serving = false;           // served right now
    bool departed_serving = false;  // departure fired while serving
    bool ever_preempted = false;
    bool ever_downgraded = false;
    bool departed = false;
    bool rejected_final = false;
  };

  Entry& entry(std::uint64_t job);
  const Entry& entry(std::uint64_t job) const;
  static DeadlineBucket classify(const Entry& e);
  // Adds (or, with add == false, removes) `e`'s snapshot classification
  // to counts_.
  void count(const Entry& e, bool add);
  // Applies `mutate` to the job's entry, moving it between the counts.
  template <typename Mutate>
  void update(std::uint64_t job, Mutate mutate);

  std::unordered_map<std::uint64_t, Entry> entries_;
  SchedEpochBuckets counts_;  // time_s unused
};

}  // namespace odn::sched
