// Reusable DOT constraint-invariant checker for test suites.
//
// `check_dot_invariants` re-derives every formulation constraint —
// (1b) memory with shared-once block accounting, (1c) compute,
// (1d) time-shared RBs / (1e) per-slice bandwidth, (1f) accuracy and
// (1g) end-to-end latency — directly from the instance components,
// independently of DotEvaluator::violations, and raises one labelled
// gtest failure per violated constraint. Deliberately a second
// implementation: a bookkeeping bug shared by a solver and the evaluator
// cannot hide from it. Tolerances match the evaluator's admission
// contract (absolute kTol plus one ulp-scale relative slack) so anything
// the stack admits must pass here bit-for-bit.
//
// Used by the solver fuzz suite, the controller churn suite and the
// fault-injection suites (every surviving placement after a
// crash/degrade recovery pass must still satisfy all constraints).
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <span>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/controller.h"
#include "core/dot_problem.h"
#include "core/solution.h"
#include "sched/conservation.h"

namespace odn::testing {

// Checks one task's local constraints and accumulates its resource usage;
// the caller checks the capacity constraints over the accumulated totals.
struct DotUsage {
  double memory_bytes = 0.0;
  double compute_s = 0.0;
  double shared_rbs = 0.0;
  std::unordered_set<edge::BlockIndex> active_blocks;
};

inline void check_task_invariants(const core::DotTask& task,
                                  const core::TaskDecision& decision,
                                  const edge::DnnCatalog& catalog,
                                  const edge::RadioModel& radio,
                                  DotUsage& usage) {
  constexpr double kTol = 1e-9;
  const std::string& name = task.spec.name;

  EXPECT_GE(decision.admission_ratio, -kTol)
      << "task '" << name << "': z below 0";
  EXPECT_LE(decision.admission_ratio, 1.0 + kTol)
      << "task '" << name << "': z above 1";
  if (!decision.admitted()) return;

  ASSERT_LT(decision.option_index, task.options.size())
      << "task '" << name << "': bad option index";
  const core::PathOption& option = task.options[decision.option_index];
  const double z = decision.admission_ratio;

  // (1f) accuracy: the selected path must meet the task's floor.
  EXPECT_GE(option.accuracy + kTol, task.spec.min_accuracy)
      << "task '" << name << "': accuracy " << option.accuracy
      << " below required " << task.spec.min_accuracy << " (1f)";

  // (1e) slice bandwidth: admitted offered load fits the allocated RBs.
  const double offered_bits =
      z * task.spec.request_rate * option.input_bits;
  const double slice_bits =
      radio.bits_per_rb_per_second(task.spec.snr_db) *
      static_cast<double>(decision.rbs);
  EXPECT_LE(offered_bits, slice_bits * (1.0 + 1e-9) + kTol)
      << "task '" << name << "': offered " << offered_bits
      << " b/s exceeds slice " << slice_bits << " b/s (1e)";

  // (1g) end-to-end latency: transmission + inference within the bound.
  ASSERT_GT(decision.rbs, 0u)
      << "task '" << name << "': admitted with 0 RBs";
  const double latency =
      radio.transmission_time_s(option.input_bits, decision.rbs,
                                task.spec.snr_db) +
      option.inference_time_s;
  EXPECT_LE(latency, task.spec.max_latency_s * (1.0 + 1e-9) + kTol)
      << "task '" << name << "': latency " << latency
      << " s exceeds bound " << task.spec.max_latency_s << " s (1g)";

  usage.compute_s += z * task.spec.request_rate * option.inference_time_s;
  usage.shared_rbs += z * static_cast<double>(decision.rbs);
  // (1b) shared-once accounting: an active block's memory counts exactly
  // once no matter how many admitted paths traverse it.
  for (const edge::BlockIndex b : option.path.blocks)
    if (usage.active_blocks.insert(b).second)
      usage.memory_bytes += catalog.block(b).memory_bytes;
}

inline void check_capacity_invariants(const DotUsage& usage,
                                      const edge::EdgeResources& resources,
                                      const std::string& context) {
  EXPECT_LE(usage.memory_bytes,
            resources.memory_capacity_bytes * (1.0 + 1e-9))
      << context << ": memory " << usage.memory_bytes
      << " B exceeds capacity " << resources.memory_capacity_bytes
      << " B (1b)";
  EXPECT_LE(usage.compute_s, resources.compute_capacity_s * (1.0 + 1e-9))
      << context << ": compute " << usage.compute_s
      << " s exceeds capacity " << resources.compute_capacity_s
      << " s (1c)";
  EXPECT_LE(usage.shared_rbs,
            static_cast<double>(resources.total_rbs) * (1.0 + 1e-9))
      << context << ": time-shared RBs " << usage.shared_rbs
      << " exceed capacity " << resources.total_rbs << " (1d)";
}

// Full constraint sweep for a solution over the given task set.
inline void check_dot_invariants(const std::vector<core::DotTask>& tasks,
                                 const std::vector<core::TaskDecision>& decisions,
                                 const edge::DnnCatalog& catalog,
                                 const edge::EdgeResources& resources,
                                 const edge::RadioModel& radio,
                                 const std::string& context = "solution") {
  ASSERT_EQ(decisions.size(), tasks.size())
      << context << ": decision vector size mismatch";
  DotUsage usage;
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    SCOPED_TRACE(::testing::Message() << context << ", task " << t);
    check_task_invariants(tasks[t], decisions[t], catalog, radio, usage);
  }
  check_capacity_invariants(usage, resources, context);
}

inline void check_dot_invariants(const core::DotInstance& instance,
                                 const std::vector<core::TaskDecision>& decisions,
                                 const std::string& context = "solution") {
  check_dot_invariants(instance.tasks, decisions, instance.catalog,
                       instance.resources, instance.radio, context);
}

// Controller-facing variant: a DeploymentPlan's embedded solution must
// satisfy every constraint against the request set it was solved for.
inline void check_plan_invariants(const core::DeploymentPlan& plan,
                                  const std::vector<core::DotTask>& requests,
                                  const edge::DnnCatalog& catalog,
                                  const edge::EdgeResources& resources,
                                  const edge::RadioModel& radio,
                                  const std::string& context = "plan") {
  check_dot_invariants(requests, plan.solution.decisions, catalog, resources,
                       radio, context);
}

// Early-exit catalog invariants (model-zoo extension). For every task:
// each option's path must be architecture-uniform (validate_path rejects
// mixed paths), and every transformer early-exit option — a path shorter
// than the task's deepest transformer path — must (a) reuse the shared
// trunk by block-index identity, i.e. its trunk blocks form a prefix of
// some deeper option's blocks, so memory counts once and ct(s) amortizes;
// (b) cost strictly less inference time than the deepest path; and
// (c) never exceed the best full-depth accuracy (the exit penalty rule).
inline void check_early_exit_invariants(const core::DotInstance& instance) {
  for (const core::DotTask& task : instance.tasks) {
    SCOPED_TRACE(task.spec.name);
    std::vector<const core::PathOption*> vit_options;
    for (const core::PathOption& option : task.options) {
      EXPECT_NO_THROW(instance.catalog.validate_path(option.path))
          << "path '" << option.path.name << "' is not architecture-uniform";
      if (instance.catalog.path_architecture(option.path) ==
          edge::Architecture::kTransformer)
        vit_options.push_back(&option);
    }
    if (vit_options.empty()) continue;

    std::size_t full_depth = 0;
    double best_full_accuracy = 0.0;
    double max_full_time = 0.0;
    for (const core::PathOption* option : vit_options)
      full_depth = std::max(full_depth, option->path.blocks.size());
    for (const core::PathOption* option : vit_options) {
      if (option->path.blocks.size() != full_depth) continue;
      best_full_accuracy = std::max(best_full_accuracy, option->path.accuracy);
      max_full_time = std::max(
          max_full_time,
          instance.catalog.path_inference_time_s(option->path));
    }

    for (const core::PathOption* option : vit_options) {
      if (option->path.blocks.size() == full_depth) continue;
      SCOPED_TRACE(option->path.name);
      // (a) trunk (all blocks but the exit head) is a shared prefix of a
      // deeper option, by block index.
      const std::size_t trunk = option->path.blocks.size() - 1;
      bool prefix_found = false;
      for (const core::PathOption* deeper : vit_options) {
        if (deeper->path.blocks.size() <= option->path.blocks.size())
          continue;
        bool match = true;
        for (std::size_t i = 0; i < trunk && match; ++i)
          match = deeper->path.blocks[i] == option->path.blocks[i];
        if (match) {
          prefix_found = true;
          break;
        }
      }
      EXPECT_TRUE(prefix_found)
          << "exit path shares no trunk prefix with a deeper path";
      // (b) exiting early must actually be cheaper.
      EXPECT_LT(instance.catalog.path_inference_time_s(option->path),
                max_full_time);
      // (c) and pay an accuracy penalty relative to the best full depth.
      EXPECT_LE(option->path.accuracy, best_full_accuracy);
    }
  }
}

// No-orphaned-resources conservation rule: the controller's ledger and
// deployed-block set must re-derive *exactly* (same arithmetic, same
// rounding, no tolerance) from the plans the caller believes are being
// served. Anything else means a preemption / downgrade / crash-recovery
// path leaked or dropped a commitment. `served` pairs each served task's
// name with its committed plan, in any order.
inline void check_no_orphaned_resources(
    const core::OffloadnnController& controller,
    std::span<const sched::ServedTask> served,
    const edge::DnnCatalog& catalog,
    const std::string& context = "controller") {
  const auto violation = sched::ConservationCheck{}.find_orphaned_resources(
      controller, served, catalog);
  EXPECT_FALSE(violation.has_value())
      << context << ": orphaned resources: "
      << (violation ? *violation : std::string{});
}

}  // namespace odn::testing
