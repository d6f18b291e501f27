// Preemption-ladder unit tests (DESIGN.md §9). The scripted FakeHost pins
// the ladder's control flow exactly — rung order, victim eligibility and
// ordering, the max_victims cap, rollback in reverse release order, and
// the gone-set that keeps a failed restore from being released twice. The
// ControllerSchedHost tests then run the same ladder against the real
// solver and close the loop with the no-orphaned-resources invariant.
#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/controller.h"
#include "core/scenarios.h"
#include "../core/invariant_check.h"
#include "sched/conservation.h"
#include "sched/policy.h"

namespace odn::sched {
namespace {

// A deterministic capacity-model host: a task costs weight(name) *
// min_accuracy, a request set is admitted all-or-nothing when the joint
// cost fits the remaining capacity. Accuracy-proportional cost makes the
// downgrade rung meaningful (a relaxed floor is genuinely cheaper), and a
// per-name recommit weight models the non-monotone-solver case where a
// rollback no longer fits.
class FakeHost final : public SchedHost {
 public:
  double capacity = 10.0;
  std::unordered_map<std::string, double> weight;
  std::unordered_map<std::string, double> recommit_weight;
  std::vector<std::string> release_log;

  double cost(const core::DotTask& task) const {
    const auto penalized = recommit_weight.find(task.spec.name);
    const double w =
        (penalized != recommit_weight.end() &&
         released_once_.count(task.spec.name) != 0)
            ? penalized->second
            : weight.at(task.spec.name);
    return w * task.spec.min_accuracy;
  }

  double used() const {
    double total = 0.0;
    for (const auto& [name, c] : served_) {
      (void)name;
      total += c;
    }
    return total;
  }

  bool serves(const std::string& name) const {
    for (const auto& [served_name, c] : served_) {
      (void)c;
      if (served_name == name) return true;
    }
    return false;
  }

  std::size_t served_count() const { return served_.size(); }

  core::DeploymentPlan probe(
      const std::vector<core::DotTask>& requests) const override {
    return plan_for(requests, fits(requests));
  }

  core::DeploymentPlan commit(
      const std::vector<core::DotTask>& requests) override {
    const bool admitted = fits(requests);
    if (admitted)
      for (const core::DotTask& task : requests)
        served_.emplace_back(task.spec.name, cost(task));
    return plan_for(requests, admitted);
  }

  bool release(const std::string& name) override {
    for (auto it = served_.begin(); it != served_.end(); ++it) {
      if (it->first == name) {
        served_.erase(it);
        released_once_.insert(name);
        release_log.push_back(name);
        return true;
      }
    }
    return false;
  }

 private:
  bool fits(const std::vector<core::DotTask>& requests) const {
    double joint = 0.0;
    for (const core::DotTask& task : requests) joint += cost(task);
    return used() + joint <= capacity + 1e-12;
  }

  core::DeploymentPlan plan_for(const std::vector<core::DotTask>& requests,
                                bool admitted) const {
    core::DeploymentPlan plan;
    for (const core::DotTask& task : requests) {
      core::TaskPlan entry;
      entry.task_name = task.spec.name;
      entry.admitted = admitted;
      entry.accuracy = task.spec.min_accuracy;
      plan.tasks.push_back(std::move(entry));
    }
    return plan;
  }

  std::vector<std::pair<std::string, double>> served_;
  std::unordered_set<std::string> released_once_;
};

core::DotTask make_task(const std::string& name, double priority,
                        double min_accuracy = 1.0) {
  core::DotTask task;
  task.spec.name = name;
  task.spec.priority = priority;
  task.spec.min_accuracy = min_accuracy;
  return task;
}

// Candidates only point at their tasks (SchedCandidate's lifetime
// contract), so the tests park every candidate task here. A deque never
// relocates its elements on push_back, so each pointer stays valid for the
// rest of the test binary.
const core::DotTask* stable_task(core::DotTask task) {
  static std::deque<core::DotTask> storage;
  storage.push_back(std::move(task));
  return &storage.back();
}

SchedCandidate make_candidate(std::uint64_t id, double priority,
                              core::DotTask task) {
  SchedCandidate candidate;
  candidate.id = id;
  candidate.priority = priority;
  candidate.task = stable_task(std::move(task));
  return candidate;
}

const VictimOutcome* find_victim(const LadderOutcome& outcome,
                                 std::uint64_t id) {
  for (const VictimOutcome& victim : outcome.victims)
    if (victim.id == id) return &victim;
  return nullptr;
}

TEST(PreemptionLadder, AdmitsAsIsWhenTheArrivalFits) {
  FakeHost host;
  host.weight = {{"arrival", 3.0}};

  const LadderOutcome outcome = run_preemption_ladder(
      host, make_task("arrival", 0.5), {}, SchedOptions{});

  EXPECT_EQ(outcome.action, SchedAction::kAdmit);
  EXPECT_EQ(outcome.plan.task_name, "arrival");
  EXPECT_TRUE(outcome.plan.admitted);
  EXPECT_TRUE(outcome.victims.empty());
  EXPECT_EQ(outcome.probes, 1u);
  EXPECT_EQ(outcome.rollbacks, 0u);
  EXPECT_TRUE(host.serves("arrival"));
}

TEST(PreemptionLadder, RungOneAdmitLeavesPresentCandidatesUntouched) {
  // Served candidates are offered, but the arrival fits as-is: the ladder
  // must stop at rung 1 without releasing anyone or reporting any victim
  // outcome, and the candidates' tasks stay exactly as the caller holds
  // them (the ladder reads them through the pointer, never writes).
  FakeHost host;
  host.weight = {{"a", 2.0}, {"b", 2.0}, {"arrival", 3.0}};
  host.commit({make_task("a", 0.1, 0.9)});
  host.commit({make_task("b", 0.2)});

  const std::vector<SchedCandidate> candidates = {
      make_candidate(1, 0.1, make_task("a", 0.1, 0.9)),
      make_candidate(2, 0.2, make_task("b", 0.2)),
  };
  const LadderOutcome outcome = run_preemption_ladder(
      host, make_task("arrival", 0.9), candidates, SchedOptions{});

  EXPECT_EQ(outcome.action, SchedAction::kAdmit);
  EXPECT_TRUE(outcome.plan.admitted);
  EXPECT_TRUE(outcome.victims.empty());
  EXPECT_EQ(outcome.probes, 1u);
  EXPECT_EQ(outcome.rollbacks, 0u);
  EXPECT_TRUE(host.release_log.empty());
  EXPECT_TRUE(host.serves("a"));
  EXPECT_TRUE(host.serves("b"));
  EXPECT_TRUE(host.serves("arrival"));
  EXPECT_EQ(candidates[0].task->spec.name, "a");
  EXPECT_DOUBLE_EQ(candidates[0].task->spec.min_accuracy, 0.9);
  EXPECT_EQ(candidates[1].task->spec.name, "b");
}

TEST(PreemptionLadder, VictimOrderIsPriorityThenIdAndHigherIsUntouchable) {
  // a (prio .2) and b (prio .1) are eligible, c (prio .9) is not. The
  // downgrade rung cannot help (downgraded victims stay too expensive at
  // factor .9) so the ladder rolls back and preempts — releasing b before
  // a both times, lowest priority first.
  FakeHost host;
  host.weight = {{"a", 4.0}, {"b", 4.0}, {"c", 2.0}, {"arrival", 6.0}};
  host.commit({make_task("a", 0.2)});
  host.commit({make_task("b", 0.1)});
  host.commit({make_task("c", 0.9)});

  // Candidate order deliberately scrambled: the ladder must sort.
  const std::vector<SchedCandidate> candidates = {
      make_candidate(1, 0.2, make_task("a", 0.2)),
      make_candidate(3, 0.9, make_task("c", 0.9)),
      make_candidate(2, 0.1, make_task("b", 0.1)),
  };

  const LadderOutcome outcome = run_preemption_ladder(
      host, make_task("arrival", 0.5), candidates, SchedOptions{});

  EXPECT_EQ(outcome.action, SchedAction::kPreempt);
  EXPECT_TRUE(outcome.plan.admitted);
  // Downgrade releases b, a; rollback restores a, b; preempt releases
  // b, a again — never c.
  const std::vector<std::string> expected_log = {"b", "a", "b", "a"};
  EXPECT_EQ(host.release_log, expected_log);
  EXPECT_EQ(outcome.probes, 5u);     // rung 1 + two per victim rung
  EXPECT_EQ(outcome.rollbacks, 2u);  // the downgrade rung's restores
  ASSERT_EQ(outcome.victims.size(), 2u);
  for (const std::uint64_t id : {1u, 2u}) {
    const VictimOutcome* victim = find_victim(outcome, id);
    ASSERT_NE(victim, nullptr);
    EXPECT_EQ(victim->fate, VictimOutcome::Fate::kPreempted);
  }
  EXPECT_TRUE(host.serves("c"));
  EXPECT_TRUE(host.serves("arrival"));
  EXPECT_FALSE(host.serves("a"));
  EXPECT_FALSE(host.serves("b"));
}

TEST(PreemptionLadder, DowngradeRungReshapesTheVictimInstead) {
  // victim costs 9 at floor .9; at factor .5 the downgraded shape costs
  // 4.5 and the joint set {arrival 5, victim' 4.5} fits capacity 13 — the
  // ladder stops at rung 2 without evicting anyone.
  FakeHost host;
  host.capacity = 13.0;
  host.weight = {{"victim", 10.0}, {"arrival", 10.0}};
  host.commit({make_task("victim", 0.1, 0.9)});

  SchedOptions options;
  options.downgrade_accuracy_factor = 0.5;
  const LadderOutcome outcome = run_preemption_ladder(
      host, make_task("arrival", 0.8, 0.5),
      {make_candidate(7, 0.1, make_task("victim", 0.1, 0.9))}, options);

  EXPECT_EQ(outcome.action, SchedAction::kDowngrade);
  EXPECT_TRUE(outcome.plan.admitted);
  EXPECT_EQ(outcome.probes, 2u);
  EXPECT_EQ(outcome.rollbacks, 0u);
  ASSERT_EQ(outcome.victims.size(), 1u);
  const VictimOutcome& victim = outcome.victims[0];
  EXPECT_EQ(victim.id, 7u);
  EXPECT_EQ(victim.fate, VictimOutcome::Fate::kDowngraded);
  // The recorded task is the re-shaped spec the victim now serves under.
  EXPECT_DOUBLE_EQ(victim.task.spec.min_accuracy, 0.45);
  EXPECT_TRUE(victim.plan.admitted);
  EXPECT_TRUE(host.serves("victim"));
  EXPECT_TRUE(host.serves("arrival"));
}

TEST(PreemptionLadder, MaxVictimsCapsTheRungAndRejectRestoresThem) {
  // Both evictions would be needed, but max_victims = 1 only allows one —
  // the ladder must reject and put the released victim back unchanged.
  FakeHost host;
  host.weight = {{"v1", 4.0}, {"v2", 4.0}, {"arrival", 9.0}};
  host.commit({make_task("v1", 0.1)});
  host.commit({make_task("v2", 0.2)});

  SchedOptions options;
  options.allow_downgrade = false;
  options.max_victims = 1;
  const LadderOutcome outcome = run_preemption_ladder(
      host, make_task("arrival", 0.9),
      {make_candidate(1, 0.1, make_task("v1", 0.1)),
       make_candidate(2, 0.2, make_task("v2", 0.2))},
      options);

  EXPECT_EQ(outcome.action, SchedAction::kReject);
  EXPECT_EQ(outcome.probes, 2u);  // rung 1, then one eviction probe
  EXPECT_EQ(outcome.rollbacks, 1u);
  ASSERT_EQ(outcome.victims.size(), 1u);
  EXPECT_EQ(outcome.victims[0].id, 1u);
  EXPECT_EQ(outcome.victims[0].fate, VictimOutcome::Fate::kRestored);
  EXPECT_TRUE(outcome.victims[0].plan.admitted);
  EXPECT_TRUE(host.serves("v1"));
  EXPECT_TRUE(host.serves("v2"));
  EXPECT_FALSE(host.serves("arrival"));
}

TEST(PreemptionLadder, FailedRollbackGoesToGoneSetAndFreesItsCapacity) {
  // The downgrade rung fails and the victim's restore no longer fits (its
  // recommit weight exploded — the non-monotone-solver caveat). The victim
  // must surface exactly once as kPreempted, and the preempt rung must NOT
  // release it again: its capacity is already free, which is precisely why
  // the arrival now fits.
  FakeHost host;
  host.weight = {{"victim", 4.0}, {"arrival", 9.0}};
  host.recommit_weight = {{"victim", 100.0}};
  host.commit({make_task("victim", 0.1)});

  const LadderOutcome outcome = run_preemption_ladder(
      host, make_task("arrival", 0.9),
      {make_candidate(5, 0.1, make_task("victim", 0.1))}, SchedOptions{});

  EXPECT_EQ(outcome.action, SchedAction::kPreempt);
  EXPECT_TRUE(outcome.plan.admitted);
  EXPECT_EQ(outcome.rollbacks, 1u);  // the restore was attempted once
  ASSERT_EQ(outcome.victims.size(), 1u);
  EXPECT_EQ(outcome.victims[0].id, 5u);
  EXPECT_EQ(outcome.victims[0].fate, VictimOutcome::Fate::kPreempted);
  // One release from the downgrade rung only — the gone-set skipped the
  // preempt rung's release.
  const std::vector<std::string> expected_log = {"victim"};
  EXPECT_EQ(host.release_log, expected_log);
  EXPECT_TRUE(host.serves("arrival"));
  EXPECT_FALSE(host.serves("victim"));
}

TEST(PreemptionLadder, EqualOrHigherPriorityIsNeverEligible) {
  FakeHost host;
  host.weight = {{"peer", 8.0}, {"senior", 2.0}, {"arrival", 9.0}};
  host.commit({make_task("peer", 0.5)});
  host.commit({make_task("senior", 0.9)});

  const LadderOutcome outcome = run_preemption_ladder(
      host, make_task("arrival", 0.5),
      {make_candidate(1, 0.5, make_task("peer", 0.5)),
       make_candidate(2, 0.9, make_task("senior", 0.9))},
      SchedOptions{});

  EXPECT_EQ(outcome.action, SchedAction::kReject);
  EXPECT_EQ(outcome.probes, 1u);  // no eligible victims, no extra probes
  EXPECT_TRUE(outcome.victims.empty());
  EXPECT_TRUE(outcome.rollbacks == 0u);
  EXPECT_TRUE(host.release_log.empty());
}

TEST(PreemptionLadder, MinPriorityGapWidensTheEligibilityBar) {
  FakeHost host;
  host.weight = {{"junior", 8.0}, {"arrival", 9.0}};
  host.commit({make_task("junior", 0.25)});

  SchedOptions options;
  options.min_priority_gap = 0.3;  // 0.25 + 0.3 >= 0.5 — not eligible
  const LadderOutcome outcome = run_preemption_ladder(
      host, make_task("arrival", 0.5),
      {make_candidate(1, 0.25, make_task("junior", 0.25))}, options);

  EXPECT_EQ(outcome.action, SchedAction::kReject);
  EXPECT_EQ(outcome.probes, 1u);
  EXPECT_TRUE(host.release_log.empty());
}

TEST(PreemptionLadder, DisabledRungsDegenerateToAdmitOrReject) {
  FakeHost host;
  host.weight = {{"victim", 8.0}, {"arrival", 9.0}};
  host.commit({make_task("victim", 0.1)});

  SchedOptions options;
  options.allow_downgrade = false;
  options.allow_preempt = false;
  const LadderOutcome outcome = run_preemption_ladder(
      host, make_task("arrival", 0.9),
      {make_candidate(1, 0.1, make_task("victim", 0.1))}, options);

  EXPECT_EQ(outcome.action, SchedAction::kReject);
  EXPECT_EQ(outcome.probes, 1u);
  EXPECT_TRUE(outcome.victims.empty());
  EXPECT_TRUE(host.serves("victim"));
}

TEST(PreemptionLadder, DowngradeSpecRelaxesOnlyTheAccuracyFloor) {
  core::DotTask task = make_task("t", 0.7, 0.8);
  task.spec.request_rate = 3.0;
  const core::DotTask relaxed = downgrade_spec(task, 0.9);
  EXPECT_DOUBLE_EQ(relaxed.spec.min_accuracy, 0.8 * 0.9);
  EXPECT_EQ(relaxed.spec.name, "t");
  EXPECT_DOUBLE_EQ(relaxed.spec.priority, 0.7);
  EXPECT_DOUBLE_EQ(relaxed.spec.request_rate, 3.0);
}

// --- Against the real controller ---------------------------------------

class ControllerLadderTest : public ::testing::Test {
 protected:
  ControllerLadderTest()
      : instance_(core::make_small_scenario(5)),
        controller_(instance_.resources, instance_.radio),
        host_(controller_, instance_.catalog) {}

  core::DotInstance instance_;
  core::OffloadnnController controller_;
  ControllerSchedHost host_;
};

TEST_F(ControllerLadderTest, AdmitPlanMatchesTheLedgerExactly) {
  const LadderOutcome outcome = run_preemption_ladder(
      host_, instance_.tasks[0], {}, SchedOptions{});
  ASSERT_EQ(outcome.action, SchedAction::kAdmit);

  // The committed plan the ladder hands back IS the ledger's view: the
  // no-orphaned-resources re-derivation must balance bit-for-bit.
  const std::vector<ServedTask> served = {
      {instance_.tasks[0].spec.name, &outcome.plan}};
  odn::testing::check_no_orphaned_resources(controller_, served, instance_.catalog,
                                    "after ladder admit");

  // And a book that forgets the task must be flagged as an orphan.
  const auto violation = ConservationCheck{}.find_orphaned_resources(
      controller_, {}, instance_.catalog);
  EXPECT_TRUE(violation.has_value());
}

TEST_F(ControllerLadderTest, InfeasibleArrivalRollsBackToTheExactState) {
  // Serve task 0, then offer an arrival whose latency bound no plan can
  // meet. The ladder walks every rung (task 0 is eligible) and must end in
  // kReject with task 0 restored — controller state conserved.
  const LadderOutcome seeded = run_preemption_ladder(
      host_, instance_.tasks[0], {}, SchedOptions{});
  ASSERT_EQ(seeded.action, SchedAction::kAdmit);

  core::DotTask impossible = instance_.tasks[1];
  impossible.spec.priority = 0.95;
  impossible.spec.max_latency_s = 1e-9;  // transmission alone exceeds this

  SchedCandidate candidate;
  candidate.id = 0;
  candidate.priority = 0.0;  // strictly below the arrival: eligible
  candidate.task = &instance_.tasks[0];

  const LadderOutcome outcome = run_preemption_ladder(
      host_, impossible, {candidate}, SchedOptions{});

  EXPECT_EQ(outcome.action, SchedAction::kReject);
  EXPECT_GT(outcome.rollbacks, 0u);
  ASSERT_EQ(outcome.victims.size(), 1u);
  ASSERT_EQ(outcome.victims[0].fate, VictimOutcome::Fate::kRestored);

  // The restored plan (re-solved at rollback) balances against the ledger.
  const std::vector<ServedTask> served = {
      {instance_.tasks[0].spec.name, &outcome.victims[0].plan}};
  odn::testing::check_no_orphaned_resources(controller_, served, instance_.catalog,
                                    "after ladder reject");
  const std::vector<std::string> active = controller_.active_tasks();
  ASSERT_EQ(active.size(), 1u);
  EXPECT_EQ(active[0], instance_.tasks[0].spec.name);
}

}  // namespace
}  // namespace odn::sched
