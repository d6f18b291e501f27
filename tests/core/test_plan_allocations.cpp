// Allocation budgets of the controller's plan path: heap allocations are a
// machine-independent work counter (ROADMAP item 1), so the bookkeeping a
// plan call pays around its solve is pinned here as ceilings. This binary
// replaces global operator new with a counting one; each case counts the
// allocations of one call on the large scenario after a warm-up call put
// every cache and lazily built registry entry in place:
//  - a plan-cache-hit probe_incremental;
//  - a warm-miss probe (plan-cache miss, solver memos warm);
//  - an admit_incremental that admits nothing (state unchanged).
// A ceiling that fails means the plan path started allocating per call
// again (key regrowth, request copies on a hit, throw-away hash sets).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "allocation_counter.h"
#include "core/controller.h"
#include "core/fingerprint.h"
#include "core/plan_cache.h"
#include "core/scenarios.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace odn::core {
namespace {

// Ceilings: the counts measured with GCC 12's libstdc++ (the same in the
// Release and ASan trees). Before the plan path stopped re-encoding keys
// and copying requests, the same calls made 25, 57 and 36 allocations;
// the warm miss made 39 until its new-block scan stopped building a hash
// set and the task assembly stopped converting to a std::function.
constexpr std::uint64_t kHitProbeCeiling = 7;
constexpr std::uint64_t kWarmMissProbeCeiling = 34;
constexpr std::uint64_t kAdmitNothingCeiling = 5;

using odn::testing::allocations_of;

class PlanAllocations : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // One lane (no pool dispatch) and no log lines: what is counted is the
    // plan path itself.
    util::set_thread_count(1);
    util::set_log_level(util::LogLevel::kWarn);
  }

  PlanAllocations()
      : world_(make_large_scenario(RequestRate::kLow)),
        digest_(catalog_digest(world_.catalog)) {}

  // A controller with three tasks deployed, so probes solve against a
  // patched catalog and discounted capacities.
  OffloadnnController loaded_controller() const {
    OffloadnnController::Options options;
    options.alpha = world_.alpha;
    OffloadnnController controller(world_.resources, world_.radio, options);
    for (std::size_t t = 0; t < 3; ++t)
      (void)controller.admit_incremental(world_.catalog, {world_.tasks[t]},
                                         &digest_);
    return controller;
  }

  DotInstance world_;
  Fingerprint digest_;
};

TEST_F(PlanAllocations, PlanCacheHitProbe) {
  const OffloadnnController controller = loaded_controller();
  const std::vector<DotTask> requests{world_.tasks[5]};
  DeploymentPlan plan =
      controller.probe_incremental(world_.catalog, requests, &digest_);
  const std::uint64_t count = allocations_of([&] {
    plan = controller.probe_incremental(world_.catalog, requests, &digest_);
  });
  RecordProperty("allocations", static_cast<int>(count));
  EXPECT_LE(count, kHitProbeCeiling);
  ASSERT_EQ(plan.tasks.size(), 1u);
}

TEST_F(PlanAllocations, WarmMissProbe) {
  OffloadnnController controller = loaded_controller();
  const std::vector<DotTask> requests{world_.tasks[5]};
  DeploymentPlan plan =
      controller.probe_incremental(world_.catalog, requests, &digest_);
  // A fresh plan cache misses; the solver memos stay warm.
  controller.set_plan_cache(std::make_shared<PlanCache>(16));
  const std::uint64_t count = allocations_of([&] {
    plan = controller.probe_incremental(world_.catalog, requests, &digest_);
  });
  RecordProperty("allocations", static_cast<int>(count));
  EXPECT_LE(count, kWarmMissProbeCeiling);
  EXPECT_EQ(controller.plan_cache()->stats().misses, 1u);
  ASSERT_EQ(plan.tasks.size(), 1u);
}

TEST_F(PlanAllocations, AdmitThatAdmitsNothing) {
  OffloadnnController controller = loaded_controller();
  // No option reaches accuracy 1.0, so every vertex is filtered out.
  DotTask hopeless = world_.tasks[5];
  hopeless.spec.min_accuracy = 1.0;
  const std::vector<DotTask> requests{hopeless};
  DeploymentPlan plan =
      controller.admit_incremental(world_.catalog, requests, &digest_);
  ASSERT_FALSE(plan.tasks.at(0).admitted);
  const std::uint64_t count = allocations_of([&] {
    plan = controller.admit_incremental(world_.catalog, requests, &digest_);
  });
  RecordProperty("allocations", static_cast<int>(count));
  EXPECT_LE(count, kAdmitNothingCeiling);
  EXPECT_FALSE(plan.tasks.at(0).admitted);
}

}  // namespace
}  // namespace odn::core
