#include "sched/policy.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>
#include <utility>

namespace odn::sched {
namespace {

const core::TaskPlan* find_task_plan(const core::DeploymentPlan& plan,
                                     const std::string& name) {
  for (const core::TaskPlan& task : plan.tasks)
    if (task.task_name == name) return &task;
  return nullptr;
}

bool all_admitted(const core::DeploymentPlan& plan, std::size_t expected) {
  if (plan.tasks.size() != expected) return false;
  for (const core::TaskPlan& task : plan.tasks)
    if (!task.admitted) return false;
  return true;
}

// Records `outcome`, replacing any earlier entry for the same candidate —
// a victim released twice (downgrade rollback, then preemption) must
// surface its final state exactly once.
void upsert(std::vector<VictimOutcome>& outcomes, VictimOutcome outcome) {
  for (VictimOutcome& existing : outcomes) {
    if (existing.id == outcome.id) {
      existing = std::move(outcome);
      return;
    }
  }
  outcomes.push_back(std::move(outcome));
}

[[noreturn]] void fail_probe_commit_divergence(const std::string& name) {
  // probe_incremental is documented to return exactly the plan the commit
  // applies; a divergence here means the determinism contract broke.
  throw std::logic_error(
      "preemption ladder: probe admitted '" + name +
      "' but the matching commit did not (probe/commit divergence)");
}

}  // namespace

const char* sched_action_name(SchedAction action) noexcept {
  switch (action) {
    case SchedAction::kAdmit:
      return "admit";
    case SchedAction::kDowngrade:
      return "downgrade";
    case SchedAction::kPreempt:
      return "preempt";
    case SchedAction::kReject:
      return "reject";
  }
  return "unknown";
}

core::DotTask downgrade_spec(core::DotTask task, double factor) {
  task.spec.min_accuracy *= factor;
  return task;
}

LadderOutcome run_preemption_ladder(
    SchedHost& host, const core::DotTask& arrival,
    const std::vector<SchedCandidate>& candidates,
    const SchedOptions& options) {
  LadderOutcome out;
  // The one-task request set rungs 1 and 3 probe and commit, built once.
  const std::vector<core::DotTask> single{arrival};

  auto probe = [&](const std::vector<core::DotTask>& requests) {
    ++out.probes;
    return host.probe(requests);
  };
  auto release_or_throw = [&](const SchedCandidate& victim) {
    if (!host.release(victim.task->spec.name))
      throw std::logic_error("preemption ladder: candidate '" +
                             victim.task->spec.name + "' is not served");
  };

  // Rung 1: admit as-is.
  if (all_admitted(probe(single), 1)) {
    const core::DeploymentPlan committed = host.commit(single);
    const core::TaskPlan* plan = find_task_plan(committed, arrival.spec.name);
    if (plan == nullptr || !plan->admitted)
      fail_probe_commit_divergence(arrival.spec.name);
    out.action = SchedAction::kAdmit;
    out.plan = *plan;
    return out;
  }

  // Victim order: lowest effective priority first (they cost the arrival's
  // class the least), ties broken by trace id — fully deterministic.
  std::vector<const SchedCandidate*> eligible;
  for (const SchedCandidate& c : candidates)
    if (c.priority + options.min_priority_gap < arrival.spec.priority)
      eligible.push_back(&c);
  std::sort(eligible.begin(), eligible.end(),
            [](const SchedCandidate* a, const SchedCandidate* b) {
              if (a->priority != b->priority)
                return a->priority < b->priority;
              return a->id < b->id;
            });

  // Victims whose rollback failed to re-admit (see header caveat): their
  // capacity is already free, so later rungs must not release them again.
  std::unordered_set<std::uint64_t> gone;

  // Restores `released` victims in reverse release order. A restore that
  // no longer fits becomes a preemption.
  auto rollback = [&](const std::vector<const SchedCandidate*>& released) {
    for (auto it = released.rbegin(); it != released.rend(); ++it) {
      const SchedCandidate* victim = *it;
      ++out.rollbacks;
      const core::DeploymentPlan restored = host.commit({*victim->task});
      const core::TaskPlan* plan =
          find_task_plan(restored, victim->task->spec.name);
      if (plan != nullptr && plan->admitted) {
        upsert(out.victims,
               VictimOutcome{victim->id, VictimOutcome::Fate::kRestored,
                             *victim->task, *plan});
      } else {
        gone.insert(victim->id);
        upsert(out.victims,
               VictimOutcome{victim->id, VictimOutcome::Fate::kPreempted,
                             *victim->task, core::TaskPlan{}});
      }
    }
  };

  // Rung 2: accuracy-downgrade. Release victims cumulatively (cheapest
  // first) and probe the joint set {arrival, downgraded victims} so the
  // solver re-shapes every victim and fits the arrival in one solve.
  if (options.allow_downgrade && options.max_victims > 0) {
    std::vector<const SchedCandidate*> pool;
    for (const SchedCandidate* c : eligible)
      if (!c->downgraded) pool.push_back(c);
    if (pool.size() > options.max_victims) pool.resize(options.max_victims);

    std::vector<const SchedCandidate*> released;
    std::vector<core::DotTask> downgraded;
    for (const SchedCandidate* victim : pool) {
      release_or_throw(*victim);
      released.push_back(victim);
      downgraded.push_back(downgrade_spec(
          *victim->task, options.downgrade_accuracy_factor));

      std::vector<core::DotTask> requests;
      requests.reserve(1 + downgraded.size());
      requests.push_back(arrival);
      for (const core::DotTask& d : downgraded) requests.push_back(d);
      if (!all_admitted(probe(requests), requests.size())) continue;

      const core::DeploymentPlan committed = host.commit(requests);
      const core::TaskPlan* arrival_plan =
          find_task_plan(committed, arrival.spec.name);
      if (arrival_plan == nullptr || !arrival_plan->admitted)
        fail_probe_commit_divergence(arrival.spec.name);
      for (std::size_t i = 0; i < released.size(); ++i) {
        const core::TaskPlan* victim_plan =
            find_task_plan(committed, released[i]->task->spec.name);
        if (victim_plan == nullptr || !victim_plan->admitted)
          fail_probe_commit_divergence(released[i]->task->spec.name);
        upsert(out.victims,
               VictimOutcome{released[i]->id,
                             VictimOutcome::Fate::kDowngraded, downgraded[i],
                             *victim_plan});
      }
      out.action = SchedAction::kDowngrade;
      out.plan = *arrival_plan;
      return out;
    }
    rollback(released);
  }

  // Rung 3: preempt outright. Same victim order (downgraded tasks are now
  // fair game too), probing {arrival} alone after each eviction.
  if (options.allow_preempt && options.max_victims > 0) {
    std::vector<const SchedCandidate*> pool = eligible;
    if (pool.size() > options.max_victims) pool.resize(options.max_victims);

    std::vector<const SchedCandidate*> released;
    for (const SchedCandidate* victim : pool) {
      if (gone.count(victim->id) == 0) {
        release_or_throw(*victim);
        released.push_back(victim);
      }
      if (!all_admitted(probe(single), 1)) continue;

      const core::DeploymentPlan committed = host.commit(single);
      const core::TaskPlan* plan =
          find_task_plan(committed, arrival.spec.name);
      if (plan == nullptr || !plan->admitted)
        fail_probe_commit_divergence(arrival.spec.name);
      for (const SchedCandidate* evicted : released)
        upsert(out.victims,
               VictimOutcome{evicted->id, VictimOutcome::Fate::kPreempted,
                             *evicted->task, core::TaskPlan{}});
      out.action = SchedAction::kPreempt;
      out.plan = *plan;
      return out;
    }
    rollback(released);
  }

  // Rung 4: reject. Victim outcomes still matter — rollbacks may have
  // re-shaped plans (kRestored) or failed outright (kPreempted).
  out.action = SchedAction::kReject;
  return out;
}

}  // namespace odn::sched
