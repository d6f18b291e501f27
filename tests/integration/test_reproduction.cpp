// The paper's quantitative claims, asserted as reproduction invariants.
// Each test names the figure/claim it guards; tolerances are generous —
// the *shape* must hold (who wins, by roughly what factor), not the exact
// testbed numbers.
#include <gtest/gtest.h>

#include "baseline/semoran.h"
#include "core/offloadnn_solver.h"
#include "core/optimal_solver.h"
#include "core/scenarios.h"

namespace odn {
namespace {

using core::DotInstance;
using core::DotSolution;
using core::RequestRate;

TEST(Fig6, HeuristicOrdersOfMagnitudeFasterThanOptimum) {
  const DotInstance instance = core::make_small_scenario(5);
  const DotSolution heuristic = core::OffloadnnSolver{}.solve(instance);
  const DotSolution optimal = core::OptimalSolver{}.solve(instance);
  // Paper: "over one order of magnitude less" already beyond T = 1.
  EXPECT_GT(optimal.solve_time_s, 10.0 * heuristic.solve_time_s);
}

// The wall-clock comparison runs alone (RUN_SERIAL, tests/CMakeLists.txt);
// the work the runtime stands for, branches explored, must grow too.
TEST(Fig6, OptimumRuntimeGrowsWithTasks) {
  double previous = 0.0;
  std::size_t previous_branches = 0;
  for (const std::size_t num_tasks : {2u, 3u, 4u, 5u}) {
    const DotInstance instance = core::make_small_scenario(num_tasks);
    const DotSolution optimal = core::OptimalSolver{}.solve(instance);
    EXPECT_GT(optimal.solve_time_s, previous);
    EXPECT_GT(optimal.branches_explored, previous_branches)
        << "T=" << num_tasks;
    previous = optimal.solve_time_s;
    previous_branches = optimal.branches_explored;
  }
}

TEST(Fig7, HeuristicCostWithinModestFactorOfOptimum) {
  for (const std::size_t num_tasks : {1u, 2u, 3u, 4u, 5u}) {
    const DotInstance instance = core::make_small_scenario(num_tasks);
    const DotSolution heuristic = core::OffloadnnSolver{}.solve(instance);
    const DotSolution optimal = core::OptimalSolver{}.solve(instance);
    // Paper: "matches the optimum very closely"; we allow 25 % headroom.
    EXPECT_LE(heuristic.cost.objective, optimal.cost.objective * 1.25)
        << "T=" << num_tasks;
  }
}

TEST(Fig7, MemoryStaysWellBelowBudget) {
  // Paper: memory usage at most ~64 % of the 8 GB budget in the small
  // scenario.
  const DotInstance instance = core::make_small_scenario(5);
  const DotSolution heuristic = core::OffloadnnSolver{}.solve(instance);
  EXPECT_LT(heuristic.cost.memory_fraction, 0.75);
}

TEST(Fig8, HeuristicMatchesOptimumWeightedAdmission) {
  for (const std::size_t num_tasks : {1u, 3u, 5u}) {
    const DotInstance instance = core::make_small_scenario(num_tasks);
    const DotSolution heuristic = core::OffloadnnSolver{}.solve(instance);
    const DotSolution optimal = core::OptimalSolver{}.solve(instance);
    EXPECT_NEAR(heuristic.cost.weighted_admission,
                optimal.cost.weighted_admission, 0.05)
        << "T=" << num_tasks;
  }
}

TEST(Fig8, HeuristicInferenceComputeNotWorseThanOptimum) {
  // Paper Fig. 8 (right): OffloaDNN's compute-time vertex ordering gives
  // it *lower* inference compute usage than the optimum.
  const DotInstance instance = core::make_small_scenario(5);
  const DotSolution heuristic = core::OffloadnnSolver{}.solve(instance);
  const DotSolution optimal = core::OptimalSolver{}.solve(instance);
  EXPECT_LE(heuristic.cost.inference_compute_s,
            optimal.cost.inference_compute_s * 1.05);
}

TEST(Fig9, LowLoadAdmitsEverythingVsSixteen) {
  const DotInstance instance = core::make_large_scenario(RequestRate::kLow);
  const DotSolution ours = core::OffloadnnSolver{}.solve(instance);
  const DotSolution theirs = baseline::SemOranSolver{}.solve(instance);
  EXPECT_EQ(ours.cost.admitted_tasks, 20u);
  EXPECT_EQ(theirs.cost.admitted_tasks, 16u);
}

TEST(Fig9, HighLoadShowsDiminishingPartialAdmission) {
  const DotInstance instance = core::make_large_scenario(RequestRate::kHigh);
  const DotSolution ours = core::OffloadnnSolver{}.solve(instance);
  // Top-priority tasks fully admitted.
  for (std::size_t t = 0; t < 8; ++t)
    EXPECT_NEAR(ours.decisions[t].admission_ratio, 1.0, 1e-6) << t;
  // A diminishing fractional tail exists.
  std::size_t partial = 0;
  double previous = 2.0;
  for (std::size_t t = 8; t < 20; ++t) {
    const double z = ours.decisions[t].admission_ratio;
    if (z > 0.0 && z < 1.0) {
      ++partial;
      EXPECT_LE(z, previous + 1e-9);
      previous = z;
    }
  }
  EXPECT_GE(partial, 3u);
  // And the lowest-priority tasks are rejected outright.
  EXPECT_DOUBLE_EQ(ours.decisions[19].admission_ratio, 0.0);
}

TEST(Fig10, AdmissionUpliftNearPaperHeadline) {
  // Paper: +26.9 % admitted offloaded tasks on average.
  double ours_total = 0.0;
  double theirs_total = 0.0;
  for (const RequestRate rate :
       {RequestRate::kLow, RequestRate::kMedium, RequestRate::kHigh}) {
    const DotInstance instance = core::make_large_scenario(rate);
    ours_total += static_cast<double>(
        core::OffloadnnSolver{}.solve(instance).cost.admitted_tasks);
    theirs_total += static_cast<double>(
        baseline::SemOranSolver{}.solve(instance).cost.admitted_tasks);
  }
  const double uplift = ours_total / theirs_total - 1.0;
  EXPECT_GT(uplift, 0.15);
  EXPECT_LT(uplift, 0.45);
}

TEST(Fig10, MemorySavingNearPaperHeadline) {
  // Paper: 82.5 % memory saving.
  const DotInstance instance =
      core::make_large_scenario(RequestRate::kMedium);
  const DotSolution ours = core::OffloadnnSolver{}.solve(instance);
  const DotSolution theirs = baseline::SemOranSolver{}.solve(instance);
  const double saving = 1.0 - ours.cost.memory_bytes /
                                  theirs.cost.memory_bytes;
  EXPECT_GT(saving, 0.7);
  EXPECT_LT(saving, 0.95);
}

TEST(Fig10, InferenceComputeSavingNearPaperHeadline) {
  // Paper: 77.3 % per-inference compute saving.
  const DotInstance instance =
      core::make_large_scenario(RequestRate::kMedium);
  const DotSolution ours = core::OffloadnnSolver{}.solve(instance);
  const DotSolution theirs = baseline::SemOranSolver{}.solve(instance);
  // Compare per admitted request: Σzλc / Σzλ.
  double ours_rate = 0.0;
  double theirs_rate = 0.0;
  for (std::size_t t = 0; t < 20; ++t) {
    ours_rate += ours.decisions[t].admission_ratio *
                 instance.tasks[t].spec.request_rate;
    theirs_rate += theirs.decisions[t].admission_ratio *
                   instance.tasks[t].spec.request_rate;
  }
  const double ours_per_req = ours.cost.inference_compute_s / ours_rate;
  const double theirs_per_req = theirs.cost.inference_compute_s / theirs_rate;
  const double saving = 1.0 - ours_per_req / theirs_per_req;
  EXPECT_GT(saving, 0.55);
  EXPECT_LT(saving, 0.9);
}

TEST(Fig10, MemoryFlatAcrossLoadForOffloadnn) {
  // Paper: OffloaDNN memory usage is (nearly) identical at low and medium
  // load — the same tree branch is selected.
  const DotSolution low = core::OffloadnnSolver{}.solve(
      core::make_large_scenario(RequestRate::kLow));
  const DotSolution medium = core::OffloadnnSolver{}.solve(
      core::make_large_scenario(RequestRate::kMedium));
  EXPECT_NEAR(low.cost.memory_bytes / medium.cost.memory_bytes, 1.0, 0.1);
}

TEST(Fig10, DotCostRisesWithLoad) {
  // Paper reports DOT cost [0.35, 0.44, 0.74] for low/medium/high: the
  // ordering (monotone growth) is the invariant.
  double previous = 0.0;
  for (const RequestRate rate :
       {RequestRate::kLow, RequestRate::kMedium, RequestRate::kHigh}) {
    const DotSolution ours =
        core::OffloadnnSolver{}.solve(core::make_large_scenario(rate));
    EXPECT_GT(ours.cost.objective, previous);
    previous = ours.cost.objective;
  }
}

TEST(Headline, RadioSavingSmallButPresent) {
  // Paper: 4.4 % average radio saving.
  double ours_sum = 0.0;
  double theirs_sum = 0.0;
  for (const RequestRate rate :
       {RequestRate::kLow, RequestRate::kMedium, RequestRate::kHigh}) {
    const DotInstance instance = core::make_large_scenario(rate);
    ours_sum += core::OffloadnnSolver{}.solve(instance).cost.radio_fraction;
    theirs_sum +=
        baseline::SemOranSolver{}.solve(instance).cost.radio_fraction;
  }
  EXPECT_LT(ours_sum, theirs_sum);          // we use less radio overall
  EXPECT_GT(ours_sum, theirs_sum * 0.75);   // but only modestly less
}

}  // namespace
}  // namespace odn
