// Workload generator + trace IO: determinism, round-trip exactness and
// the checked-in golden trace that pins generator output across
// platforms and refactors.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>

#include "runtime/workload.h"

namespace odn::runtime {
namespace {

WorkloadOptions golden_options() {
  // Must stay in sync with tests/runtime/golden_trace.odntrace (regenerate
  // with write_trace if the generator intentionally changes).
  WorkloadOptions options;
  options.horizon_s = 30.0;
  options.seed = 42;
  options.arrival_rate_per_s = 1.0;
  options.mean_holding_s = 10.0;
  options.burst_count = 1;
  options.burst_arrivals_mean = 5.0;
  options.burst_span_s = 2.0;
  return options;
}

TEST(Workload, GeneratorIsDeterministic) {
  const WorkloadTrace a = generate_workload(5, golden_options());
  const WorkloadTrace b = generate_workload(5, golden_options());
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i)
    EXPECT_TRUE(a.events[i] == b.events[i]) << "event " << i;
}

TEST(Workload, DifferentSeedsDiffer) {
  WorkloadOptions other = golden_options();
  other.seed = 43;
  const WorkloadTrace a = generate_workload(5, golden_options());
  const WorkloadTrace b = generate_workload(5, other);
  bool identical = a.events.size() == b.events.size();
  if (identical)
    for (std::size_t i = 0; i < a.events.size(); ++i)
      identical = identical && a.events[i] == b.events[i];
  EXPECT_FALSE(identical);
}

TEST(Workload, GeneratedTraceIsValidAndSorted) {
  const WorkloadTrace trace = generate_workload(5, golden_options());
  EXPECT_NO_THROW(trace.validate());
  EXPECT_GT(trace.arrival_count(), 10u);
  EXPECT_GT(trace.departure_count(), 0u);
  EXPECT_LE(trace.departure_count(), trace.arrival_count());
  for (std::size_t i = 1; i < trace.events.size(); ++i)
    EXPECT_LE(trace.events[i - 1].time_s, trace.events[i].time_s);
}

TEST(Workload, SaveLoadRoundTripIsExact) {
  const WorkloadTrace trace = generate_workload(5, golden_options());
  std::stringstream buffer;
  write_trace(trace, buffer);
  const WorkloadTrace loaded = read_trace(buffer);

  EXPECT_EQ(loaded.name, trace.name);
  EXPECT_DOUBLE_EQ(loaded.horizon_s, trace.horizon_s);
  EXPECT_EQ(loaded.template_count, trace.template_count);
  ASSERT_EQ(loaded.events.size(), trace.events.size());
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "event " << i);
    // %.17g round-trips doubles exactly — no tolerance.
    EXPECT_EQ(loaded.events[i].time_s, trace.events[i].time_s);
    EXPECT_EQ(loaded.events[i].kind, trace.events[i].kind);
    EXPECT_EQ(loaded.events[i].job_id, trace.events[i].job_id);
    EXPECT_EQ(loaded.events[i].template_index,
              trace.events[i].template_index);
  }
}

TEST(Workload, GoldenTracePinsGeneratorDeterminism) {
  const WorkloadTrace golden = read_trace_file(
      std::string(ODN_SOURCE_DIR) + "/tests/runtime/golden_trace.odntrace");
  const WorkloadTrace generated = generate_workload(5, golden_options());

  EXPECT_DOUBLE_EQ(golden.horizon_s, generated.horizon_s);
  EXPECT_EQ(golden.template_count, generated.template_count);
  ASSERT_EQ(golden.events.size(), generated.events.size());
  for (std::size_t i = 0; i < golden.events.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "event " << i);
    EXPECT_EQ(golden.events[i].kind, generated.events[i].kind);
    EXPECT_EQ(golden.events[i].job_id, generated.events[i].job_id);
    EXPECT_EQ(golden.events[i].template_index,
              generated.events[i].template_index);
    // Event times come through libm (log in the exponential sampler);
    // allow a hair of cross-platform slack while pinning the sequence.
    EXPECT_NEAR(golden.events[i].time_s, generated.events[i].time_s, 1e-9);
  }
}

TEST(Workload, BurstsAddArrivals) {
  WorkloadOptions quiet = golden_options();
  quiet.burst_count = 0;
  WorkloadOptions bursty = golden_options();
  bursty.burst_count = 4;
  bursty.burst_arrivals_mean = 10.0;
  const WorkloadTrace a = generate_workload(3, quiet);
  const WorkloadTrace b = generate_workload(3, bursty);
  EXPECT_GT(b.arrival_count(), a.arrival_count());
}

TEST(Workload, TemplateWeightsShapeTheMix) {
  WorkloadOptions options = golden_options();
  options.template_weights = {0.0, 0.0, 1.0};  // only template 2 arrives
  const WorkloadTrace trace = generate_workload(3, options);
  for (const WorkloadEvent& event : trace.events)
    EXPECT_EQ(event.template_index, 2u);
}

TEST(Workload, ValidateRejectsBrokenTraces) {
  WorkloadTrace trace;
  trace.horizon_s = 10.0;
  trace.template_count = 1;

  // Departure for a job that never arrived.
  trace.events = {{1.0, WorkloadEventKind::kDeparture, 0, 0}};
  EXPECT_THROW(trace.validate(), std::invalid_argument);

  // Template index out of range.
  trace.events = {{1.0, WorkloadEventKind::kArrival, 0, 7}};
  EXPECT_THROW(trace.validate(), std::invalid_argument);

  // Unsorted times.
  trace.events = {{5.0, WorkloadEventKind::kArrival, 0, 0},
                  {1.0, WorkloadEventKind::kArrival, 1, 0}};
  EXPECT_THROW(trace.validate(), std::invalid_argument);

  // Event past the horizon.
  trace.events = {{11.0, WorkloadEventKind::kArrival, 0, 0}};
  EXPECT_THROW(trace.validate(), std::invalid_argument);

  // A well-formed trace passes.
  trace.events = {{1.0, WorkloadEventKind::kArrival, 0, 0},
                  {2.0, WorkloadEventKind::kDeparture, 0, 0}};
  EXPECT_NO_THROW(trace.validate());
}

TEST(Workload, ReadRejectsMalformedInput) {
  {
    std::stringstream in("not a trace\n");
    EXPECT_THROW(read_trace(in), std::runtime_error);
  }
  {
    std::stringstream in(
        "ODN-TRACE 1\nname x\nhorizon 10\ntemplates 1\nevents 1\n"
        "event 1.0 Q 0 0\n");
    EXPECT_THROW(read_trace(in), std::runtime_error);
  }
  {
    std::stringstream in(
        "ODN-TRACE 1\nname x\nhorizon 10\ntemplates 1\nevents 2\n"
        "event 1.0 A 0 0\n");
    EXPECT_THROW(read_trace(in), std::runtime_error);
  }
}

TEST(Workload, ReadFailsOnAHostileEventCountWithoutAllocating) {
  // The header claims 2^60 events but the file holds one: the parser must
  // fail on the missing record (its std::runtime_error with a line number)
  // instead of reserving memory for the claimed count.
  std::stringstream in(
      "ODN-TRACE 1\nname x\nhorizon 10\ntemplates 1\n"
      "events 1152921504606846976\nevent 1.0 A 0 0\n");
  EXPECT_THROW(read_trace(in), std::runtime_error);
}

TEST(Workload, ValidateRejectsNonFiniteNumbers) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  WorkloadTrace trace;
  trace.template_count = 1;
  for (const double horizon : {kNan, kInf, -1.0}) {
    trace.horizon_s = horizon;  // every comparison with NaN is false
    EXPECT_THROW(trace.validate(), std::invalid_argument) << horizon;
  }

  trace.horizon_s = 10.0;
  trace.events = {{kNan, WorkloadEventKind::kArrival, 0, 0}};
  EXPECT_THROW(trace.validate(), std::invalid_argument);

  WorkloadEvent event{1.0, WorkloadEventKind::kArrival, 0, 0};
  event.has_qos = true;
  event.deadline_s = 5.0;
  event.priority = kNan;
  trace.events = {event};
  EXPECT_THROW(trace.validate(), std::invalid_argument);
}

// Each non-finite field, fed through the parser, fails with the parser's
// std::runtime_error naming the line.
TEST(Workload, ReadRejectsNonFiniteNumbers) {
  const std::string header = "ODN-TRACE 1\nname x\n";
  const std::string inputs[] = {
      header + "horizon nan\ntemplates 1\nevents 0\n",
      header + "horizon inf\ntemplates 1\nevents 0\n",
      header + "horizon 10\ntemplates 1\nevents 1\nevent nan A 0 0\n",
      header + "horizon 10\ntemplates 1\nevents 1\n"
               "event 1.0 A 0 0 qos 5.0 nan\n",
  };
  for (const std::string& input : inputs) {
    std::stringstream in(input);
    try {
      (void)read_trace(in);
      ADD_FAILURE() << "accepted: " << input;
    } catch (const std::runtime_error& error) {
      EXPECT_EQ(std::string(error.what()).rfind("read_trace: line ", 0), 0u)
          << error.what();
    }
  }
}

TEST(Workload, GeneratorRejectsBadOptions) {
  WorkloadOptions options;
  EXPECT_THROW(generate_workload(0, options), std::invalid_argument);
  options.horizon_s = -1.0;
  EXPECT_THROW(generate_workload(1, options), std::invalid_argument);
  options = WorkloadOptions{};
  options.template_weights = {1.0, 2.0};  // wrong arity for 3 templates
  EXPECT_THROW(generate_workload(3, options), std::invalid_argument);
}

// --- QoS annotation (deadline-aware serving, src/sched/) ----------------

WorkloadOptions qos_options(double tightness = 1.0) {
  WorkloadOptions options = golden_options();
  options.qos.enabled = true;
  options.qos.deadline_tightness = tightness;
  return options;
}

TEST(WorkloadQos, AnnotationLeavesTheBaseTraceBitIdentical) {
  // The annotation layer draws from its own derived Rng stream applied
  // after sorting, so times, job ids and templates must not move — the
  // same trace serves sched-on and sched-off runs.
  const WorkloadTrace plain = generate_workload(5, golden_options());
  const WorkloadTrace annotated = generate_workload(5, qos_options());
  ASSERT_EQ(plain.events.size(), annotated.events.size());
  for (std::size_t i = 0; i < plain.events.size(); ++i) {
    const WorkloadEvent& p = plain.events[i];
    const WorkloadEvent& a = annotated.events[i];
    EXPECT_EQ(p.time_s, a.time_s) << "event " << i;
    EXPECT_EQ(p.kind, a.kind) << "event " << i;
    EXPECT_EQ(p.job_id, a.job_id) << "event " << i;
    EXPECT_EQ(p.template_index, a.template_index) << "event " << i;
    if (a.kind == WorkloadEventKind::kArrival) {
      EXPECT_TRUE(a.has_qos) << "event " << i;
      EXPECT_GE(a.deadline_s, qos_options().qos.min_deadline_s);
      EXPECT_GE(a.priority, 0.0);
      EXPECT_LE(a.priority, 1.0);
    } else {
      EXPECT_FALSE(a.has_qos) << "event " << i;
    }
  }
  EXPECT_FALSE(plain.has_qos());
  EXPECT_TRUE(annotated.has_qos());
}

TEST(WorkloadQos, RoundTripIsExact) {
  const WorkloadTrace trace = generate_workload(5, qos_options());
  std::stringstream buffer;
  write_trace(trace, buffer);
  const WorkloadTrace loaded = read_trace(buffer);
  EXPECT_TRUE(loaded.has_qos());
  ASSERT_EQ(loaded.events.size(), trace.events.size());
  for (std::size_t i = 0; i < trace.events.size(); ++i)
    EXPECT_TRUE(loaded.events[i] == trace.events[i]) << "event " << i;
}

TEST(WorkloadQos, TightnessScalesDeadlinesWithoutMovingPriorities) {
  const WorkloadTrace tight = generate_workload(5, qos_options(0.5));
  const WorkloadTrace loose = generate_workload(5, qos_options(2.0));
  ASSERT_EQ(tight.events.size(), loose.events.size());
  bool deadlines_differ = false;
  for (std::size_t i = 0; i < tight.events.size(); ++i) {
    if (tight.events[i].kind != WorkloadEventKind::kArrival) continue;
    // Tightness only scales the exponential's mean: the draw count is
    // unchanged, so the priority stream is untouched.
    EXPECT_EQ(tight.events[i].priority, loose.events[i].priority)
        << "event " << i;
    deadlines_differ |=
        tight.events[i].deadline_s != loose.events[i].deadline_s;
  }
  EXPECT_TRUE(deadlines_differ);
}

TEST(WorkloadQos, PriorityMixSkewsTheBands) {
  WorkloadOptions options = qos_options();
  options.qos.priority_mix = {1.0, 0.0, 0.0};  // everything low-priority
  const WorkloadTrace trace = generate_workload(5, options);
  for (const WorkloadEvent& event : trace.events) {
    if (event.kind != WorkloadEventKind::kArrival) continue;
    EXPECT_LT(event.priority, 1.0 / 3.0 + 1e-12);
  }
}

TEST(WorkloadQos, ValidateRejectsMixedAnnotation) {
  // All-or-nothing: silently defaulting the unannotated half would skew
  // every deadline bucket, so validate() must refuse.
  WorkloadTrace trace;
  trace.horizon_s = 10.0;
  trace.template_count = 1;
  WorkloadEvent annotated{1.0, WorkloadEventKind::kArrival, 0, 0};
  annotated.has_qos = true;
  annotated.deadline_s = 5.0;
  annotated.priority = 0.5;
  const WorkloadEvent bare{2.0, WorkloadEventKind::kArrival, 1, 0};
  trace.events = {annotated, bare};
  EXPECT_THROW(trace.validate(), std::invalid_argument);

  // Fully annotated passes.
  WorkloadEvent second = annotated;
  second.time_s = 2.0;
  second.job_id = 1;
  trace.events = {annotated, second};
  EXPECT_NO_THROW(trace.validate());
}

TEST(WorkloadQos, ValidateRejectsQosOutOfRange) {
  WorkloadTrace trace;
  trace.horizon_s = 10.0;
  trace.template_count = 1;
  WorkloadEvent event{1.0, WorkloadEventKind::kArrival, 0, 0};
  event.has_qos = true;
  event.deadline_s = 0.0;  // non-positive deadline
  event.priority = 0.5;
  trace.events = {event};
  EXPECT_THROW(trace.validate(), std::invalid_argument);

  event.deadline_s = 5.0;
  event.priority = 1.5;  // priority outside [0, 1]
  trace.events = {event};
  EXPECT_THROW(trace.validate(), std::invalid_argument);
}

TEST(WorkloadQos, ValidateRejectsAnnotatedDepartures) {
  WorkloadTrace trace;
  trace.horizon_s = 10.0;
  trace.template_count = 1;
  WorkloadEvent arrival{1.0, WorkloadEventKind::kArrival, 0, 0};
  arrival.has_qos = true;
  arrival.deadline_s = 5.0;
  arrival.priority = 0.5;
  WorkloadEvent departure{2.0, WorkloadEventKind::kDeparture, 0, 0};
  departure.has_qos = true;
  departure.deadline_s = 5.0;
  departure.priority = 0.5;
  trace.events = {arrival, departure};
  EXPECT_THROW(trace.validate(), std::invalid_argument);
}

TEST(WorkloadQos, ReadRejectsMalformedQosRecords) {
  {
    // qos suffix on a departure record.
    std::stringstream in(
        "ODN-TRACE 1\nname x\nhorizon 10\ntemplates 1\nevents 2\n"
        "event 1.0 A 0 0 qos 5.0 0.5\n"
        "event 2.0 D 0 0 qos 5.0 0.5\n");
    EXPECT_THROW(read_trace(in), std::runtime_error);
  }
  {
    // Truncated annotation (missing priority).
    std::stringstream in(
        "ODN-TRACE 1\nname x\nhorizon 10\ntemplates 1\nevents 1\n"
        "event 1.0 A 0 0 qos 5.0\n");
    EXPECT_THROW(read_trace(in), std::runtime_error);
  }
  {
    // Unknown suffix token.
    std::stringstream in(
        "ODN-TRACE 1\nname x\nhorizon 10\ntemplates 1\nevents 1\n"
        "event 1.0 A 0 0 slo 5.0 0.5\n");
    EXPECT_THROW(read_trace(in), std::runtime_error);
  }
  {
    // Mixed annotation across arrivals (all-or-nothing at read time too).
    std::stringstream in(
        "ODN-TRACE 1\nname x\nhorizon 10\ntemplates 1\nevents 2\n"
        "event 1.0 A 0 0 qos 5.0 0.5\n"
        "event 2.0 A 1 0\n");
    EXPECT_THROW(read_trace(in), std::runtime_error);
  }
}

TEST(WorkloadQos, AnnotateRejectsBadOptions) {
  WorkloadTrace trace = generate_workload(5, golden_options());
  WorkloadQosOptions qos;
  qos.mean_deadline_s = 0.0;
  EXPECT_THROW(annotate_qos(trace, qos, 1), std::invalid_argument);
  qos = WorkloadQosOptions{};
  qos.min_deadline_s = -1.0;
  EXPECT_THROW(annotate_qos(trace, qos, 1), std::invalid_argument);
  qos = WorkloadQosOptions{};
  qos.deadline_tightness = 0.0;
  EXPECT_THROW(annotate_qos(trace, qos, 1), std::invalid_argument);
  qos = WorkloadQosOptions{};
  qos.priority_mix = {1.0, -1.0};
  EXPECT_THROW(annotate_qos(trace, qos, 1), std::invalid_argument);
  qos = WorkloadQosOptions{};
  qos.priority_mix = {0.0, 0.0};
  EXPECT_THROW(annotate_qos(trace, qos, 1), std::invalid_argument);
}

}  // namespace
}  // namespace odn::runtime
