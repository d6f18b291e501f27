// DeadlineMonitor incremental-count property test. The monitor keeps its
// snapshot counts current on every call instead of reclassifying every
// tracked job at each epoch; this suite drives seeded random call sequences
// and, after every call, compares snapshot() against a brute-force
// reclassification of a reference copy of every job's state — the loop
// snapshot() itself ran before the counts became incremental. Sequences
// are arbitrary on purpose (admitting a departed job, rejecting a serving
// one, ...): the counts must follow the entries whatever the call order.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>

#include "sched/deadline_monitor.h"
#include "sched/sched_stats.h"
#include "util/rng.h"

namespace odn::sched {
namespace {

// Reference model: the monitor's per-job state, updated by the same rules
// as the documented calls, and classified with the documented precedence.
struct RefEntry {
  double arrival_s = 0.0;
  double deadline_s = 0.0;
  bool admitted = false;
  double first_admitted_s = 0.0;
  bool serving = false;
  bool departed_serving = false;
  bool ever_preempted = false;
  bool ever_downgraded = false;
  bool departed = false;
  bool rejected_final = false;
};

DeadlineBucket ref_classify(const RefEntry& e) {
  if (!e.admitted) return DeadlineBucket::kRejected;
  if (!e.serving && !e.departed_serving) return DeadlineBucket::kPreempted;
  if (e.deadline_s > 0.0 && e.first_admitted_s > e.arrival_s + e.deadline_s)
    return DeadlineBucket::kMissed;
  if (e.ever_downgraded || e.ever_preempted)
    return DeadlineBucket::kDowngraded;
  return DeadlineBucket::kMet;
}

void ref_admit(RefEntry& e, double now, bool downgraded) {
  if (!e.admitted) {
    e.admitted = true;
    e.first_admitted_s = now;
  }
  e.serving = true;
  if (downgraded) e.ever_downgraded = true;
}

// The brute-force snapshot: walk every tracked job and reclassify it.
SchedEpochBuckets brute_force_snapshot(
    const std::map<std::uint64_t, RefEntry>& entries, double now) {
  SchedEpochBuckets s;
  s.time_s = now;
  for (const auto& [job, e] : entries) {
    (void)job;
    if (e.serving) ++s.serving;
    if (!e.admitted && !e.rejected_final && !e.departed) {
      ++s.pending;
      continue;
    }
    switch (ref_classify(e)) {
      case DeadlineBucket::kMet: ++s.met; break;
      case DeadlineBucket::kMissed: ++s.missed; break;
      case DeadlineBucket::kPreempted: ++s.preempted; break;
      case DeadlineBucket::kDowngraded: ++s.downgraded; break;
      case DeadlineBucket::kRejected: ++s.rejected; break;
    }
  }
  return s;
}

void expect_equal(const SchedEpochBuckets& got, const SchedEpochBuckets& want) {
  EXPECT_EQ(got.time_s, want.time_s);
  EXPECT_EQ(got.met, want.met);
  EXPECT_EQ(got.missed, want.missed);
  EXPECT_EQ(got.preempted, want.preempted);
  EXPECT_EQ(got.downgraded, want.downgraded);
  EXPECT_EQ(got.rejected, want.rejected);
  EXPECT_EQ(got.serving, want.serving);
  EXPECT_EQ(got.pending, want.pending);
}

// One seeded random run: `initial` jobs tracked up front with arrivals
// spread over the run (the runtimes track the whole trace before the first
// event, so most start out tracked but not yet arrived), more tracked as
// the run goes, and `steps` random lifecycle calls.
void run_sequence(std::uint64_t seed, std::size_t initial, std::size_t steps) {
  SCOPED_TRACE(::testing::Message() << "seed " << seed);
  util::Rng rng(seed);
  DeadlineMonitor monitor;
  std::map<std::uint64_t, RefEntry> ref;
  std::uint64_t next_job = 0;
  double now = 0.0;

  auto track = [&](double arrival_s) {
    // Zero deadlines ("no deadline") and tight ones both occur.
    const double deadline_s =
        rng.bernoulli(0.2) ? 0.0 : rng.uniform(0.0, 5.0);
    monitor.track(next_job, arrival_s, deadline_s);
    RefEntry& e = ref[next_job];
    e.arrival_s = arrival_s;
    e.deadline_s = deadline_s;
    ++next_job;
  };
  for (std::size_t i = 0; i < initial; ++i) track(rng.uniform(0.0, 100.0));
  expect_equal(monitor.snapshot(now), brute_force_snapshot(ref, now));

  for (std::size_t step = 0; step < steps; ++step) {
    now += rng.exponential(2.0);
    const std::uint64_t job =
        static_cast<std::uint64_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(next_job) - 1));
    RefEntry& e = ref.at(job);
    const bool downgraded = rng.bernoulli(0.3);
    switch (rng.uniform_int(0, 7)) {
      case 0:
        track(now + rng.uniform(0.0, 50.0));
        break;
      case 1:
        monitor.on_admitted(job, now, downgraded);
        ref_admit(e, now, downgraded);
        break;
      case 2:
        monitor.on_downgraded(job);
        e.ever_downgraded = true;
        break;
      case 3:
        monitor.on_preempted(job);
        e.serving = false;
        e.ever_preempted = true;
        break;
      case 4:
        monitor.on_readmitted(job, now, downgraded);
        ref_admit(e, now, downgraded);
        break;
      case 5:
        monitor.on_rejected(job);
        e.rejected_final = true;
        e.serving = false;
        break;
      case 6:
        monitor.on_departed(job);
        e.departed = true;
        if (e.serving) {
          e.departed_serving = true;
          e.serving = false;
        }
        break;
      default:
        // Admissions dominate real runs; weight them up.
        monitor.on_admitted(job, now, false);
        ref_admit(e, now, false);
        break;
    }
    expect_equal(monitor.snapshot(now), brute_force_snapshot(ref, now));
    if (::testing::Test::HasFailure()) return;  // first divergence only
  }

  // Every job's individual bucket agrees with the reference too.
  for (const auto& [job, e] : ref)
    EXPECT_EQ(monitor.bucket(job), ref_classify(e)) << "job " << job;

  // finalize() still partitions the tracked arrivals, and matches the
  // brute-force final classification (pending jobs were never served, so
  // they land in rejected).
  SchedStats stats;
  monitor.finalize(stats);
  SchedStats want;
  for (const auto& [job, e] : ref) {
    (void)job;
    switch (ref_classify(e)) {
      case DeadlineBucket::kMet: ++want.met; break;
      case DeadlineBucket::kMissed: ++want.missed; break;
      case DeadlineBucket::kPreempted: ++want.preempted; break;
      case DeadlineBucket::kDowngraded: ++want.downgraded; break;
      case DeadlineBucket::kRejected: ++want.rejected; break;
    }
  }
  EXPECT_EQ(stats.met, want.met);
  EXPECT_EQ(stats.missed, want.missed);
  EXPECT_EQ(stats.preempted, want.preempted);
  EXPECT_EQ(stats.downgraded, want.downgraded);
  EXPECT_EQ(stats.rejected, want.rejected);
  EXPECT_EQ(stats.met + stats.missed + stats.preempted + stats.downgraded +
                stats.rejected,
            monitor.tracked());
  EXPECT_EQ(monitor.tracked(), ref.size());
}

TEST(DeadlineSnapshot, IncrementalCountsMatchBruteForceAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    run_sequence(seed, /*initial=*/25, /*steps=*/400);
    if (HasFailure()) return;
  }
}

TEST(DeadlineSnapshot, StartsWithEveryTrackedJobPending) {
  // The runtimes track the whole trace up front: before any arrival is
  // served, every job is pending and nothing is bucketed yet.
  DeadlineMonitor monitor;
  for (std::uint64_t job = 0; job < 12; ++job)
    monitor.track(job, 10.0 * static_cast<double>(job), 5.0);
  const SchedEpochBuckets snapshot = monitor.snapshot(0.0);
  EXPECT_EQ(snapshot.pending, 12u);
  EXPECT_EQ(snapshot.met + snapshot.missed + snapshot.preempted +
                snapshot.downgraded + snapshot.rejected + snapshot.serving,
            0u);
}

TEST(DeadlineSnapshot, LongSequencesFromFewJobsRevisitEveryState) {
  // Few jobs and many calls: each job cycles through every state many
  // times, so any transition the counts mishandle accumulates.
  for (std::uint64_t seed = 100; seed < 110; ++seed) {
    run_sequence(seed, /*initial=*/3, /*steps=*/2000);
    if (HasFailure()) return;
  }
}

}  // namespace
}  // namespace odn::sched
