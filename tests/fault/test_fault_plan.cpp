// FaultPlan: generator determinism, validation of the per-(cell, class)
// alternation discipline, and the exact write/read round-trip of the
// ODN-FAULTS text format.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>

#include "fault/fault_plan.h"
#include "runtime/serving_runtime.h"

namespace odn::fault {
namespace {

FaultPlan tiny_plan() {
  FaultPlan plan;
  plan.name = "tiny";
  plan.horizon_s = 40.0;
  plan.cell_count = 2;
  plan.events = {
      {5.0, FaultEventKind::kCellCrash, 0, 1.0},
      {9.25, FaultEventKind::kRadioDegrade, 1, 0.4375},
      {12.0, FaultEventKind::kCellRecover, 0, 1.0},
      {20.0, FaultEventKind::kRadioRestore, 1, 1.0},
      {22.5, FaultEventKind::kLatencyInflate, 0, 2.5},
      {30.0, FaultEventKind::kBudgetExhaust, 1, 1.0},
  };
  return plan;
}

TEST(FaultPlan, EmptyPlanValidates) {
  const FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_NO_THROW(plan.validate());
}

TEST(FaultPlan, WellFormedPlanValidates) {
  EXPECT_NO_THROW(tiny_plan().validate());
}

TEST(FaultPlan, RejectsUnsortedEvents) {
  FaultPlan plan = tiny_plan();
  std::swap(plan.events[0], plan.events[2]);
  EXPECT_THROW(plan.validate(), std::invalid_argument);
}

TEST(FaultPlan, RejectsOutOfRangeCell) {
  FaultPlan plan = tiny_plan();
  plan.events[0].cell = 2;
  EXPECT_THROW(plan.validate(), std::invalid_argument);
}

TEST(FaultPlan, RejectsEventBeyondHorizon) {
  FaultPlan plan = tiny_plan();
  plan.events.back().time_s = 41.0;
  EXPECT_THROW(plan.validate(), std::invalid_argument);
}

TEST(FaultPlan, RejectsRecoveryWithoutOnset) {
  FaultPlan plan;
  plan.horizon_s = 10.0;
  plan.cell_count = 1;
  plan.events = {{2.0, FaultEventKind::kCellRecover, 0, 1.0}};
  EXPECT_THROW(plan.validate(), std::invalid_argument);
}

TEST(FaultPlan, RejectsDoubleOnsetOfSameClass) {
  FaultPlan plan;
  plan.horizon_s = 10.0;
  plan.cell_count = 1;
  plan.events = {{2.0, FaultEventKind::kCellCrash, 0, 1.0},
                 {4.0, FaultEventKind::kCellCrash, 0, 1.0}};
  EXPECT_THROW(plan.validate(), std::invalid_argument);
}

// Hostile cell counts: validate() tracks open faults only for the cells
// the events touch, so a plan file's `cells` line cannot make it allocate
// (or overflow a cell * 4 index) in proportion to the stated count.
constexpr std::size_t kHugeCells = std::numeric_limits<std::size_t>::max();

TEST(FaultPlan, HugeCellCountValidatesWithoutPerCellAllocation) {
  FaultPlan plan;
  plan.horizon_s = 10.0;
  plan.cell_count = kHugeCells;
  plan.events = {{2.0, FaultEventKind::kCellCrash, kHugeCells - 1, 1.0},
                 {4.0, FaultEventKind::kCellRecover, kHugeCells - 1, 1.0}};
  EXPECT_NO_THROW(plan.validate());
}

TEST(FaultPlan, HugeCellCountStillChecksAlternation) {
  FaultPlan plan;
  plan.horizon_s = 10.0;
  plan.cell_count = kHugeCells;
  plan.events = {{2.0, FaultEventKind::kCellRecover, kHugeCells - 1, 1.0}};
  EXPECT_THROW(plan.validate(), std::invalid_argument);
}

TEST(FaultPlan, CellsWhoseTimesFourWrapAreDistinct) {
  // Cells 1 and 2^62 + 1 share a slot under a wrapping cell * 4 index; a
  // crash on each is two independent onsets, not a double onset.
  const std::size_t aliased = (kHugeCells / 4) + 2;
  FaultPlan plan;
  plan.horizon_s = 10.0;
  plan.cell_count = kHugeCells;
  plan.events = {{2.0, FaultEventKind::kCellCrash, 1, 1.0},
                 {2.0, FaultEventKind::kCellCrash, aliased, 1.0}};
  EXPECT_NO_THROW(plan.validate());
}

TEST(FaultPlan, RuntimesRejectAHugeCellCount) {
  // A huge plan validates cheaply, but no runtime serves that many cells:
  // the single-cell runtime refuses it before any per-cell state exists.
  FaultPlan plan;
  plan.horizon_s = 10.0;
  plan.cell_count = kHugeCells;
  plan.events = {{2.0, FaultEventKind::kCellCrash, 0, 1.0}};
  runtime::RuntimeOptions options;
  options.faults = plan;
  EXPECT_THROW(options.validate(), std::invalid_argument);
}

TEST(FaultPlan, AllowsMissingRecoveryAtHorizon) {
  FaultPlan plan;
  plan.horizon_s = 10.0;
  plan.cell_count = 1;
  plan.events = {{8.0, FaultEventKind::kCellCrash, 0, 1.0}};
  EXPECT_NO_THROW(plan.validate());
}

TEST(FaultPlan, RejectsBadMagnitudes) {
  FaultPlan degrade;
  degrade.horizon_s = 10.0;
  degrade.events = {{1.0, FaultEventKind::kRadioDegrade, 0, 0.0}};
  EXPECT_THROW(degrade.validate(), std::invalid_argument);

  FaultPlan inflate;
  inflate.horizon_s = 10.0;
  inflate.events = {{1.0, FaultEventKind::kLatencyInflate, 0, 0.5}};
  EXPECT_THROW(inflate.validate(), std::invalid_argument);

  FaultPlan crash;
  crash.horizon_s = 10.0;
  crash.events = {{1.0, FaultEventKind::kCellCrash, 0, 2.0}};
  EXPECT_THROW(crash.validate(), std::invalid_argument);
}

TEST(FaultPlan, RejectsNonFiniteNumbers) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double horizon : {kNan, kInf}) {
    FaultPlan plan;
    plan.cell_count = 1;
    plan.horizon_s = horizon;  // every comparison with NaN is false
    EXPECT_THROW(plan.validate(), std::invalid_argument) << horizon;
  }

  FaultPlan at_nan = tiny_plan();
  at_nan.events = {{kNan, FaultEventKind::kCellCrash, 0, 1.0}};
  EXPECT_THROW(at_nan.validate(), std::invalid_argument);

  for (const double factor : {kInf, kNan}) {
    FaultPlan inflate = tiny_plan();
    inflate.events = {{1.0, FaultEventKind::kLatencyInflate, 0, factor}};
    EXPECT_THROW(inflate.validate(), std::invalid_argument) << factor;
  }
}

TEST(FaultPlanGenerator, GeneratedPlansValidate) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    FaultPlanOptions options;
    options.seed = seed;
    const FaultPlan plan = generate_fault_plan(3, options);
    SCOPED_TRACE(plan.name);
    EXPECT_NO_THROW(plan.validate());
    EXPECT_EQ(plan.cell_count, 3u);
  }
}

TEST(FaultPlanGenerator, DeterministicForEqualSeeds) {
  FaultPlanOptions options;
  options.seed = 99;
  const FaultPlan a = generate_fault_plan(4, options);
  const FaultPlan b = generate_fault_plan(4, options);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i)
    EXPECT_TRUE(a.events[i] == b.events[i]) << "event " << i;
}

TEST(FaultPlanGenerator, SeedsDiverge) {
  FaultPlanOptions a_options, b_options;
  a_options.seed = 1;
  b_options.seed = 2;
  const FaultPlan a = generate_fault_plan(4, a_options);
  const FaultPlan b = generate_fault_plan(4, b_options);
  bool differ = a.events.size() != b.events.size();
  for (std::size_t i = 0; !differ && i < a.events.size(); ++i)
    differ = !(a.events[i] == b.events[i]);
  EXPECT_TRUE(differ);
}

TEST(FaultPlanGenerator, CoversEveryFaultClassByDefault) {
  FaultPlanOptions options;
  options.seed = 7;
  const FaultPlan plan = generate_fault_plan(2, options);
  bool crash = false, radio = false, latency = false, budget = false;
  for (const FaultEvent& event : plan.events) {
    crash |= event.kind == FaultEventKind::kCellCrash;
    radio |= event.kind == FaultEventKind::kRadioDegrade;
    latency |= event.kind == FaultEventKind::kLatencyInflate;
    budget |= event.kind == FaultEventKind::kBudgetExhaust;
  }
  EXPECT_TRUE(crash);
  EXPECT_TRUE(radio);
  EXPECT_TRUE(latency);
  EXPECT_TRUE(budget);
}

TEST(FaultPlanIo, ExactRoundTrip) {
  const FaultPlan plan = tiny_plan();
  std::stringstream stream;
  write_fault_plan(plan, stream);
  const FaultPlan parsed = read_fault_plan(stream);

  EXPECT_EQ(parsed.name, plan.name);
  EXPECT_EQ(parsed.horizon_s, plan.horizon_s);
  EXPECT_EQ(parsed.cell_count, plan.cell_count);
  ASSERT_EQ(parsed.events.size(), plan.events.size());
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    SCOPED_TRACE(i);
    // Bit-exact: times and magnitudes serialize with max_digits10.
    EXPECT_TRUE(parsed.events[i] == plan.events[i]);
  }
}

TEST(FaultPlanIo, GeneratedPlanRoundTripsBitExactly) {
  FaultPlanOptions options;
  options.seed = 1234;
  const FaultPlan plan = generate_fault_plan(3, options);
  ASSERT_FALSE(plan.empty());

  std::stringstream first;
  write_fault_plan(plan, first);
  const FaultPlan parsed = read_fault_plan(first);
  std::stringstream second;
  write_fault_plan(parsed, second);
  EXPECT_EQ(first.str(), second.str());
}

TEST(FaultPlanIo, RejectsGarbage) {
  std::stringstream stream("not a fault plan\n");
  EXPECT_THROW(read_fault_plan(stream), std::runtime_error);
}

TEST(FaultPlanIo, HostileEventCountFailsWithoutAllocating) {
  // The header claims 2^60 events but the file holds one: the parser must
  // fail on the missing record (its std::runtime_error with a line number)
  // instead of reserving memory for the claimed count.
  std::stringstream stream(
      "ODN-FAULTS 1\nname x\nhorizon 10\ncells 1\n"
      "events 1152921504606846976\nevent 2 crash 0 1\n");
  EXPECT_THROW(read_fault_plan(stream), std::runtime_error);
}

TEST(FaultPlanIo, HostileCellCountParsesCheaplyOrFails) {
  // cells = SIZE_MAX: a malformed plan fails validation (surfaced as the
  // parser's std::runtime_error), a well-formed one parses without any
  // per-cell allocation.
  const std::string max = std::to_string(kHugeCells);
  {
    std::stringstream stream("ODN-FAULTS 1\nname x\nhorizon 10\ncells " +
                             max + "\nevents 1\nevent 2 recover 7 1\n");
    EXPECT_THROW(read_fault_plan(stream), std::runtime_error);
  }
  {
    std::stringstream stream("ODN-FAULTS 1\nname x\nhorizon 10\ncells " +
                             max + "\nevents 1\nevent 2 crash 7 1\n");
    const FaultPlan plan = read_fault_plan(stream);
    EXPECT_EQ(plan.cell_count, kHugeCells);
    EXPECT_EQ(plan.events.size(), 1u);
  }
}

// Each non-finite field, fed through the parser, fails with the parser's
// std::runtime_error naming the line.
TEST(FaultPlanIo, RejectsNonFiniteNumbers) {
  const std::string header = "ODN-FAULTS 1\nname x\n";
  const std::string inputs[] = {
      header + "horizon nan\ncells 1\nevents 0\n",
      header + "horizon inf\ncells 1\nevents 0\n",
      header + "horizon 10\ncells 1\nevents 1\nevent nan crash 0 1\n",
      header + "horizon 10\ncells 1\nevents 1\n"
               "event 2 latency_inflate 0 inf\n",
  };
  for (const std::string& input : inputs) {
    std::stringstream stream(input);
    try {
      (void)read_fault_plan(stream);
      ADD_FAILURE() << "accepted: " << input;
    } catch (const std::runtime_error& error) {
      EXPECT_EQ(std::string(error.what()).rfind("read_fault_plan: line ", 0),
                0u)
          << error.what();
    }
  }
}

TEST(FaultPlanIo, MissingFileThrows) {
  EXPECT_THROW(read_fault_plan_file("/nonexistent/faults.txt"),
               std::runtime_error);
}

}  // namespace
}  // namespace odn::fault
