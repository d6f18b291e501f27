// Allocation budgets of one sched admission on a warm single cell with
// about thirty served tasks (the load a churn run's cell carries):
//  - the no-orphaned-resources check the runtimes run after every sched
//    admission attempt must allocate nothing once its buffers have grown;
//  - a rung-1 ladder admission (probe + commit of one arrival) is pinned
//    as a ceiling.
// Each case counts one call after a warm-up call put every cache, scratch
// buffer and lazily built registry entry in place (allocation_counter.h
// replaces global operator new in this binary).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "../core/allocation_counter.h"
#include "core/controller.h"
#include "core/fingerprint.h"
#include "core/scenarios.h"
#include "sched/conservation.h"
#include "sched/policy.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace odn::sched {
namespace {

// The rung-1 count measured with GCC 12's libstdc++ (the same under
// ASan): two plan-cache hits (probe, then commit), the arrival's one
// request-set copy, the commitment and the outcome's plan. It was 72 while
// probe and commit each took their own copy of the request set.
constexpr std::uint64_t kRungOneAdmitCeiling = 45;

using odn::testing::allocations_of;

class SchedAllocations : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // One lane (no pool dispatch) and no log lines: what is counted is the
    // admission path itself.
    util::set_thread_count(1);
    util::set_log_level(util::LogLevel::kWarn);
  }

  // Serves the large scenario's tasks under distinct job names and
  // correlations, as a runtime does, until `kServed` are admitted.
  SchedAllocations()
      : world_(core::make_large_scenario(core::RequestRate::kLow)),
        digest_(core::catalog_digest(world_.catalog)),
        controller_(world_.resources, world_.radio, options()) {
    for (std::size_t job = 0; plans_.size() < kServed && job < 200; ++job) {
      core::DotTask task = world_.tasks[job % world_.tasks.size()];
      task.spec.name = "job-" + std::to_string(job) + "/" + task.spec.name;
      task.spec.correlation = job;
      const core::DeploymentPlan plan =
          controller_.admit_incremental(world_.catalog, {task}, &digest_);
      if (!plan.tasks.at(0).admitted) continue;
      plans_.push_back(plan.tasks.at(0));
      last_served_ = task;
    }
    plans_.shrink_to_fit();
    for (const core::TaskPlan& plan : plans_)
      book_.push_back({plan.task_name, &plan});
  }

  core::OffloadnnController::Options options() const {
    core::OffloadnnController::Options opts;
    opts.alpha = world_.alpha;
    return opts;
  }

  static constexpr std::size_t kServed = 30;

  core::DotInstance world_;
  core::Fingerprint digest_;
  core::OffloadnnController controller_;
  std::vector<core::TaskPlan> plans_;
  std::vector<ServedTask> book_;
  core::DotTask last_served_;
};

TEST_F(SchedAllocations, ConservationCheckAllocatesNothingWhenWarm) {
  ASSERT_GE(plans_.size(), 25u);
  ConservationCheck check;
  ASSERT_FALSE(
      check.find_orphaned_resources(controller_, book_, world_.catalog));
  const std::uint64_t count = allocations_of([&] {
    EXPECT_FALSE(
        check.find_orphaned_resources(controller_, book_, world_.catalog));
  });
  RecordProperty("allocations", static_cast<int>(count));
  EXPECT_EQ(count, 0u);
}

TEST_F(SchedAllocations, RungOneAdmission) {
  ASSERT_GE(plans_.size(), 25u);
  // An arrival that fits as-is, so the ladder probes it once and commits
  // it: the last served task leaves, and the same spec arrives as a new
  // job into the state it was admitted into.
  ASSERT_TRUE(controller_.release(last_served_.spec.name));
  core::DotTask arrival = last_served_;
  arrival.spec.name = "job-arrival/" + arrival.spec.name;
  arrival.spec.correlation = 1000;
  ControllerSchedHost host(controller_, world_.catalog, &digest_);
  const LadderOutcome warm =
      run_preemption_ladder(host, arrival, {}, SchedOptions{});
  ASSERT_EQ(warm.action, SchedAction::kAdmit);
  ASSERT_TRUE(controller_.release(arrival.spec.name));

  LadderOutcome outcome;
  const std::uint64_t count = allocations_of([&] {
    outcome = run_preemption_ladder(host, arrival, {}, SchedOptions{});
  });
  RecordProperty("allocations", static_cast<int>(count));
  EXPECT_EQ(outcome.action, SchedAction::kAdmit);
  EXPECT_EQ(outcome.probes, 1u);
  EXPECT_LE(count, kRungOneAdmitCeiling);
}

}  // namespace
}  // namespace odn::sched
