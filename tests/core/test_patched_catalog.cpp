// The controller's patched-catalog memo: an incremental plan solves against
// the caller's catalog with every deployed block zeroed, and the controller
// keeps that patched catalog across plans. Reuse must be invisible: after
// every change of deployed set or catalog, a long-lived controller must
// produce the bytes a fresh controller replaying the same commits produces.
// The fresh controller probes an equal but separately built catalog, so its
// memo is always rebuilt for the final state and cannot share a staleness
// with the long-lived one. Each case is run with the plan cache on and off
// (off, every probe reaches the memo).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/controller.h"
#include "core/scenarios.h"
#include "solver_equivalence.h"

namespace odn::core {
namespace {

class PatchedCatalog : public ::testing::TestWithParam<bool> {
 protected:
  PatchedCatalog()
      : world_(make_large_scenario(RequestRate::kLow)),
        twin_(scaled_catalog(1.0)) {}

  OffloadnnController make_controller() const {
    OffloadnnController::Options options;
    options.alpha = world_.alpha;
    options.cache.plan_cache = GetParam();
    return OffloadnnController(world_.resources, world_.radio, options);
  }

  DotTask named(std::size_t index, const std::string& name) const {
    DotTask task = world_.tasks[index];
    task.spec.name = name;
    return task;
  }

  void admit(OffloadnnController& controller, const edge::DnnCatalog& catalog,
             std::size_t index) const {
    (void)controller.admit_incremental(
        catalog, {named(index, "admitted-" + std::to_string(index))});
  }

  // Serialized probes of every task against the controller's current state.
  std::string probe_all(const OffloadnnController& controller,
                        const edge::DnnCatalog& catalog) const {
    std::string out;
    for (std::size_t t = 0; t < world_.tasks.size(); ++t)
      out += odn::testing::serialize_plan(controller.probe_incremental(
          catalog, {named(t, "probe-" + std::to_string(t))}));
    return out;
  }

  // The world's catalog with every block's costs scaled: the same block
  // count and kinds, different content.
  edge::DnnCatalog scaled_catalog(double factor) const {
    edge::DnnCatalog catalog;
    for (edge::CatalogBlock block : world_.catalog.blocks()) {
      block.inference_time_s *= factor;
      block.memory_bytes *= factor;
      block.training_cost_s *= factor;
      catalog.add_block(std::move(block));
    }
    return catalog;
  }

  DotInstance world_;
  // world_.catalog's content in a table of its own.
  edge::DnnCatalog twin_;
};

TEST_P(PatchedCatalog, ProbeAfterReleaseShrinksDeployedSet) {
  OffloadnnController reused = make_controller();
  for (std::size_t t = 0; t < 3; ++t) admit(reused, world_.catalog, t);
  const std::size_t deployed_before = reused.deployed_blocks().size();
  (void)probe_all(reused, world_.catalog);  // memo built for three tasks
  ASSERT_TRUE(reused.release("admitted-1"));
  ASSERT_LT(reused.deployed_blocks().size(), deployed_before);

  OffloadnnController fresh = make_controller();
  for (std::size_t t = 0; t < 3; ++t) admit(fresh, world_.catalog, t);
  ASSERT_TRUE(fresh.release("admitted-1"));

  EXPECT_EQ(probe_all(reused, world_.catalog), probe_all(fresh, twin_));
  EXPECT_EQ(odn::testing::serialize_state(reused),
            odn::testing::serialize_state(fresh));
}

TEST_P(PatchedCatalog, ProbeAfterReset) {
  OffloadnnController reused = make_controller();
  for (std::size_t t = 0; t < 4; ++t) admit(reused, world_.catalog, t);
  ASSERT_FALSE(reused.deployed_blocks().empty());
  (void)probe_all(reused, world_.catalog);
  reused.reset();

  const OffloadnnController fresh = make_controller();
  EXPECT_EQ(probe_all(reused, world_.catalog), probe_all(fresh, twin_));

  // Commits after the reset rebuild the memo from scratch as well.
  OffloadnnController fresh_after = make_controller();
  admit(reused, world_.catalog, 5);
  admit(fresh_after, world_.catalog, 5);
  EXPECT_EQ(probe_all(reused, world_.catalog), probe_all(fresh_after, twin_));
}

TEST_P(PatchedCatalog, PlanAgainstDifferentCatalogWithSameBlockCount) {
  const edge::DnnCatalog other = scaled_catalog(0.5);
  ASSERT_EQ(other.block_count(), world_.catalog.block_count());

  OffloadnnController reused = make_controller();
  admit(reused, world_.catalog, 0);
  admit(reused, world_.catalog, 1);
  ASSERT_FALSE(reused.deployed_blocks().empty());
  (void)probe_all(reused, world_.catalog);  // memo built for world_.catalog

  OffloadnnController fresh = make_controller();
  admit(fresh, world_.catalog, 0);
  admit(fresh, world_.catalog, 1);

  const std::string on_other = probe_all(reused, other);
  EXPECT_EQ(on_other, probe_all(fresh, other));
  // Same deployed set, so only the table identity tells the two apart.
  EXPECT_NE(on_other, probe_all(fresh, world_.catalog));
  // And back: the memo follows the caller's catalog both ways.
  EXPECT_EQ(probe_all(reused, world_.catalog), probe_all(fresh, twin_));

  // An admission against the other catalog commits the same bytes too.
  admit(reused, other, 2);
  admit(fresh, other, 2);
  EXPECT_EQ(odn::testing::serialize_state(reused),
            odn::testing::serialize_state(fresh));
  EXPECT_EQ(probe_all(reused, other), probe_all(fresh, other));
}

TEST_P(PatchedCatalog, CallerMutatingItsCatalogIsSeen) {
  edge::DnnCatalog catalog = world_.catalog;
  OffloadnnController reused = make_controller();
  admit(reused, catalog, 0);
  (void)probe_all(reused, catalog);

  // The memo pins the caller's table, so this write clones it: the caller
  // sees a new table and the memo must notice.
  for (edge::BlockIndex b = 0; b < catalog.block_count(); b += 3)
    catalog.mark_deployed(b);

  OffloadnnController fresh = make_controller();
  admit(fresh, world_.catalog, 0);
  EXPECT_EQ(probe_all(reused, catalog), probe_all(fresh, catalog));
}

// The memo follows deployed-set changes in place (restoring blocks that
// left, zeroing blocks that joined). Walk it through sets that grow,
// shrink, swap (blocks leave and join between two plans) and empty out;
// after every step a fresh controller that replays the same admissions
// and releases must probe the same bytes and hold the same state.
TEST_P(PatchedCatalog, GrowShrinkSwapSequencesMatchAFreshController) {
  struct Step {
    bool admit;
    std::size_t task;
  };
  const std::vector<Step> steps{
      {true, 0},  {true, 1},  {true, 2},   // grow
      {false, 1},                          // shrink
      {true, 3},  {false, 0},              // swap: 3 joins as 0 leaves
      {true, 4},  {false, 2}, {false, 3},  // swap again
      {false, 4},                          // empty
      {true, 5},  {true, 0},  {false, 5},  // regrow, swap
  };
  auto apply = [&](OffloadnnController& controller, const Step& step) {
    if (step.admit) {
      admit(controller, world_.catalog, step.task);
    } else {
      ASSERT_TRUE(
          controller.release("admitted-" + std::to_string(step.task)));
    }
  };

  OffloadnnController reused = make_controller();
  std::vector<std::vector<edge::BlockIndex>> seen_sets;
  for (std::size_t s = 0; s < steps.size(); ++s) {
    apply(reused, steps[s]);
    seen_sets.push_back(reused.deployed_blocks());

    OffloadnnController fresh = make_controller();
    for (std::size_t r = 0; r <= s; ++r) apply(fresh, steps[r]);
    EXPECT_EQ(probe_all(reused, world_.catalog), probe_all(fresh, twin_))
        << "after step " << s;
    EXPECT_EQ(odn::testing::serialize_state(reused),
              odn::testing::serialize_state(fresh))
        << "after step " << s;
  }
  // The walk really moved the deployed set both ways, and emptied it.
  EXPECT_LT(seen_sets[3].size(), seen_sets[2].size());
  EXPECT_TRUE(seen_sets[9].empty());
  EXPECT_NE(seen_sets[5], seen_sets[3]);
}

INSTANTIATE_TEST_SUITE_P(PlanCache, PatchedCatalog, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "On" : "Off";
                         });

}  // namespace
}  // namespace odn::core
