// The preemption ladder — the per-arrival scheduling decision.
//
// On each arrival the ladder walks up to three rungs, each driven by
// probe_incremental dry-runs against the live controller state and settled
// by the existing serial commit path:
//
//   1. admit as-is        — probe {arrival}; commit when it fits.
//   2. accuracy-downgrade — release the cheapest lower-priority served
//                           tasks one at a time and probe the joint set
//                           {arrival, downgraded victims}; the victims'
//                           min_accuracy is relaxed so the solver can
//                           re-shape them to a cheaper (z, r) / shallower
//                           path. Commit the joint set when it fits.
//   3. preempt            — release lower-priority served tasks outright,
//                           probing {arrival} after each, and commit when
//                           it fits. Evicted victims re-enter admission
//                           through the runtime's retry machinery.
//   4. reject             — nothing helped; roll every still-released
//                           victim back to its original shape.
//
// Every probe and commit happens on the caller's (serial) event loop, and
// probe_incremental returns exactly the plan the following commit applies,
// so the decision sequence is a pure function of (controller state,
// arrival, candidates) — byte-identical for any ODN_THREADS.
//
// Rollback caveat: re-committing a rolled-back victim re-solves its
// admission against the current state. The heuristic solver is not
// guaranteed monotone, so in rare states the restore itself can fail; the
// ladder then reports that victim as preempted rather than leaving the
// controller and the runtime's books disagreeing (the no-orphaned-resources
// invariant is checked after every ladder application).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/controller.h"
#include "core/dot_problem.h"
#include "core/fingerprint.h"
#include "sched/options.h"

namespace odn::sched {

// The controller surface the ladder needs. ServingRuntime binds it to one
// controller; ClusterRuntime binds it to one cell behind the dispatcher so
// ownership bookkeeping stays consistent.
class SchedHost {
 public:
  virtual ~SchedHost() = default;
  // Dry-run: the plan a subsequent commit of `requests` would apply.
  virtual core::DeploymentPlan probe(
      const std::vector<core::DotTask>& requests) const = 0;
  // Commits `requests` (only admitted tasks take effect) and returns the
  // applied plan.
  virtual core::DeploymentPlan commit(
      const std::vector<core::DotTask>& requests) = 0;
  // Releases a served task's commitment; false when unknown.
  virtual bool release(const std::string& name) = 0;
};

// SchedHost over a bare OffloadnnController (the single-cell runtime and
// the unit tests). `digest`, when given, must equal catalog_digest(catalog).
class ControllerSchedHost : public SchedHost {
 public:
  ControllerSchedHost(core::OffloadnnController& controller,
                      const edge::DnnCatalog& catalog,
                      const core::Fingerprint* digest = nullptr)
      : controller_(controller), catalog_(catalog), digest_(digest) {}

  core::DeploymentPlan probe(
      const std::vector<core::DotTask>& requests) const override {
    return controller_.probe_incremental(catalog_, requests, digest_);
  }
  core::DeploymentPlan commit(
      const std::vector<core::DotTask>& requests) override {
    return controller_.admit_incremental(catalog_, requests, digest_);
  }
  bool release(const std::string& name) override {
    return controller_.release(name);
  }

 private:
  core::OffloadnnController& controller_;
  const edge::DnnCatalog& catalog_;
  const core::Fingerprint* digest_;
};

// A served task the ladder may act on.
//
// Lifetime: `task` is a non-owning view of the caller's record of the
// served spec (the runtimes point it at the job's admitted task, so
// building the candidate list copies no DotTask). The pointee must stay
// alive and unmodified until run_preemption_ladder returns; the ladder
// only reads it, and copies it into any VictimOutcome it reports, so the
// caller may update its records from the outcome afterwards.
struct SchedCandidate {
  std::uint64_t id = 0;    // trace job id — the deterministic tie-break
  double priority = 0.0;   // effective job priority (QoS or template)
  const core::DotTask* task = nullptr;  // spec currently served (not owned)
  bool downgraded = false; // already re-shaped by an earlier ladder
};

enum class SchedAction : std::uint8_t {
  kAdmit,      // fit as-is
  kDowngrade,  // fit after re-shaping victims to cheaper (z, r)
  kPreempt,    // fit after evicting victims
  kReject,     // no rung fit
};
const char* sched_action_name(SchedAction action) noexcept;

// What happened to one candidate. Even on kReject the caller must apply
// these: a rolled-back victim serves under a freshly solved plan
// (kRestored), and a failed rollback leaves it preempted.
struct VictimOutcome {
  enum class Fate : std::uint8_t { kDowngraded, kPreempted, kRestored };
  std::uint64_t id = 0;
  Fate fate = Fate::kRestored;
  core::DotTask task;    // spec the task now serves under (not kPreempted)
  core::TaskPlan plan;   // committed plan (meaningless for kPreempted)
};

struct LadderOutcome {
  SchedAction action = SchedAction::kReject;
  core::TaskPlan plan;   // the arrival's committed plan when admitted
  std::vector<VictimOutcome> victims;  // one entry per touched candidate
  std::size_t probes = 0;              // probe_incremental dry-runs issued
  std::size_t rollbacks = 0;           // victim restores committed
};

// `task` with its accuracy floor relaxed by `factor` — the re-shape handed
// to the solver for downgrade victims.
core::DotTask downgrade_spec(core::DotTask task, double factor);

// Runs the ladder for `arrival` against `candidates` (the currently served
// jobs; every `task` non-null, see SchedCandidate). Serial; mutates host
// state through commit/release only, never the candidates' tasks.
LadderOutcome run_preemption_ladder(SchedHost& host,
                                    const core::DotTask& arrival,
                                    const std::vector<SchedCandidate>& candidates,
                                    const SchedOptions& options);

}  // namespace odn::sched
