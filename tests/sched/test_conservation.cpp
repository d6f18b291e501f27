// The no-orphaned-resources check still bites: each test serves a few real
// tasks on a controller, corrupts the caller's book in one way and asserts
// that the check reports the matching violation with its exact message.
// The runtimes turn any such report into a std::logic_error, so these are
// the faults a leaked or dropped commitment would surface as.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "../core/invariant_check.h"
#include "core/controller.h"
#include "core/scenarios.h"
#include "sched/conservation.h"

namespace odn::sched {
namespace {

class ConservationMutation : public ::testing::Test {
 protected:
  ConservationMutation()
      : instance_(core::make_small_scenario(5)),
        controller_(instance_.resources, instance_.radio) {
    // Distinct correlations, as a runtime's trace ids are.
    for (std::size_t t = 0; t < 3; ++t) {
      core::DotTask task = instance_.tasks[t];
      task.spec.correlation = 100 + t;
      const core::DeploymentPlan plan =
          controller_.admit_incremental(instance_.catalog, {task});
      EXPECT_TRUE(plan.tasks.at(0).admitted) << task.spec.name;
      plans_.push_back(plan.tasks.at(0));
    }
  }

  // The honest book: every served task with its committed plan.
  std::vector<ServedTask> book() const {
    std::vector<ServedTask> served;
    for (const core::TaskPlan& plan : plans_)
      served.push_back({plan.task_name, &plan});
    return served;
  }

  std::string violation(const std::vector<ServedTask>& served) {
    return check_.find_orphaned_resources(controller_, served,
                                          instance_.catalog)
        .value_or("");
  }

  const std::string& name(std::size_t t) const { return plans_[t].task_name; }

  core::DotInstance instance_;
  core::OffloadnnController controller_;
  std::vector<core::TaskPlan> plans_;
  ConservationCheck check_;
};

TEST_F(ConservationMutation, HonestBookBalances) {
  odn::testing::check_no_orphaned_resources(controller_, book(),
                                            instance_.catalog);
  // Book order does not matter; the check is reusable.
  std::vector<ServedTask> reversed = book();
  std::swap(reversed.front(), reversed.back());
  EXPECT_EQ(violation(reversed), "");
  EXPECT_EQ(violation(book()), "");
}

TEST_F(ConservationMutation, TaskServedTwiceInTheBook) {
  std::vector<ServedTask> served = book();
  served.push_back(served[1]);
  EXPECT_EQ(violation(served),
            "task '" + name(1) + "' served twice in the caller's book");
}

TEST_F(ConservationMutation, ControllerTaskMissingFromTheBook) {
  core::TaskPlan ghost = plans_[2];
  ghost.task_name = "ghost";
  ghost.correlation = 999;
  std::vector<ServedTask> served = book();
  served[2] = {ghost.task_name, &ghost};
  EXPECT_EQ(violation(served), "controller serves task '" + name(2) +
                                   "' the caller's book does not");
}

TEST_F(ConservationMutation, NameMismatchIsNotAMatch) {
  // Same correlation, different name: names are compared byte for byte.
  std::vector<ServedTask> served = book();
  const std::string renamed = name(0) + "x";
  served[0].name = renamed;
  EXPECT_EQ(violation(served), "controller serves task '" + name(0) +
                                   "' the caller's book does not");
}

TEST_F(ConservationMutation, BookTaskTheControllerDoesNotServe) {
  core::TaskPlan ghost = plans_[0];
  ghost.task_name = "ghost";
  ghost.correlation = 999;
  std::vector<ServedTask> served = book();
  served.push_back({ghost.task_name, &ghost});
  EXPECT_EQ(violation(served),
            "controller serves 3 tasks but the caller's book has 4");
}

TEST_F(ConservationMutation, ControllerServesATaskTwice) {
  // The controller admits a task already active under the same name and
  // correlation; a book with one more distinct task has the same size.
  core::DotTask again = instance_.tasks[0];
  again.spec.correlation = 100;
  ASSERT_TRUE(controller_.admit_incremental(instance_.catalog, {again})
                  .tasks.at(0)
                  .admitted);
  core::TaskPlan ghost = plans_[0];
  ghost.task_name = "ghost";
  ghost.correlation = 999;
  std::vector<ServedTask> served = book();
  served.push_back({ghost.task_name, &ghost});
  EXPECT_EQ(violation(served),
            "controller serves task '" + name(0) + "' twice");
}

TEST_F(ConservationMutation, SkewedAdmittedRateIsAComputeMismatch) {
  core::TaskPlan skewed = plans_[1];
  skewed.admitted_rate *= 1.5;
  std::vector<ServedTask> served = book();
  served[1].plan = &skewed;
  EXPECT_EQ(violation(served).rfind("compute mismatch: ledger holds ", 0), 0u)
      << violation(served);
}

TEST_F(ConservationMutation, ExtraBlockIsAMemoryMismatch) {
  const std::vector<edge::BlockIndex>& deployed = controller_.deployed_blocks();
  edge::BlockIndex extra = 0;
  while (std::binary_search(deployed.begin(), deployed.end(), extra)) ++extra;
  ASSERT_LT(extra, instance_.catalog.block_count());
  ASSERT_GT(instance_.catalog.block(extra).memory_bytes, 0.0);
  core::TaskPlan grown = plans_[0];
  grown.blocks.push_back(extra);
  std::vector<ServedTask> served = book();
  served[0].plan = &grown;
  EXPECT_EQ(violation(served).rfind("memory mismatch: ledger holds ", 0), 0u)
      << violation(served);

  // With the block's memory zeroed, memory balances and the deployed set
  // is what differs.
  edge::DnnCatalog zeroed = instance_.catalog;
  zeroed.mark_deployed(extra);
  EXPECT_EQ(check_.find_orphaned_resources(controller_, served, zeroed)
                .value_or(""),
            "deployed-block mismatch: controller has " +
                std::to_string(deployed.size()) +
                " blocks, served tasks re-derive " +
                std::to_string(deployed.size() + 1));
}

TEST_F(ConservationMutation, SkewedSliceIsAnRbMismatch) {
  core::TaskPlan skewed = plans_[2];
  skewed.slice_rbs += 1000;
  std::vector<ServedTask> served = book();
  served[2].plan = &skewed;
  const std::string message = violation(served);
  EXPECT_EQ(message.rfind("RB mismatch: ledger holds " +
                              std::to_string(controller_.ledger().rbs_used()) +
                              ", served tasks re-derive ",
                          0),
            0u)
      << message;
}

TEST_F(ConservationMutation, AViolationLeavesNoScratchBehind) {
  // A mismatch is reported after every served block was marked; a mark
  // left behind would make the next check skip that block's memory.
  core::TaskPlan skewed = plans_[0];
  skewed.admitted_rate *= 2.0;
  std::vector<ServedTask> served = book();
  served[0].plan = &skewed;
  EXPECT_EQ(violation(served).rfind("compute mismatch", 0), 0u);
  EXPECT_EQ(violation(book()), "");
}

}  // namespace
}  // namespace odn::sched
