#include "sched/conservation.h"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "util/fmt.h"
#include "util/json.h"

namespace odn::sched {
namespace {

template <typename A, typename B>
bool key_less(const A& a, const B& b) {
  return std::tie(a.correlation, a.name) < std::tie(b.correlation, b.name);
}

}  // namespace

std::optional<std::string> ConservationCheck::find_orphaned_resources(
    const core::OffloadnnController& controller,
    std::span<const ServedTask> book, const edge::DnnCatalog& catalog) {
  sorted_.clear();
  for (const ServedTask& task : book)
    sorted_.push_back(Entry{task.plan->correlation, task.name, task.plan,
                            /*matched=*/false});
  std::sort(sorted_.begin(), sorted_.end(),
            [](const Entry& a, const Entry& b) { return key_less(a, b); });
  const auto same_key = [](const Entry& a, const Entry& b) {
    return a.correlation == b.correlation && a.name == b.name;
  };
  if (std::adjacent_find(sorted_.begin(), sorted_.end(), same_key) !=
      sorted_.end()) {
    // Failure path: name the first entry, in book order, booked before.
    for (std::size_t i = 1; i < book.size(); ++i)
      for (std::size_t j = 0; j < i; ++j)
        if (book[j].name == book[i].name &&
            book[j].plan->correlation == book[i].plan->correlation)
          return util::fmt("task '{}' served twice in the caller's book",
                           book[i].name);
  }

  const std::size_t served = controller.commitments().size();
  if (served != sorted_.size())
    return util::fmt(
        "controller serves {} tasks but the caller's book has {}", served,
        sorted_.size());
  return compare(controller, catalog);
}

std::optional<std::string> ConservationCheck::compare(
    const core::OffloadnnController& controller,
    const edge::DnnCatalog& catalog) {
  // Resolve every commitment to its booked plan, in admission order. The
  // sizes match, so a book entry left unmatched shows up as a commitment
  // that resolves to nothing or to an entry already taken.
  plans_.clear();
  for (const core::OffloadnnController::Commitment& commitment :
       controller.commitments()) {
    const auto it = std::lower_bound(
        sorted_.begin(), sorted_.end(), commitment,
        [](const Entry& a, const auto& b) { return key_less(a, b); });
    if (it == sorted_.end() || it->correlation != commitment.correlation ||
        it->name != commitment.name)
      return util::fmt(
          "controller serves task '{}' the caller's book does not",
          commitment.name);
    if (it->matched)
      return util::fmt("controller serves task '{}' twice", commitment.name);
    it->matched = true;
    plans_.push_back(it->plan);
  }

  // Mirrors OffloadnnController::commit + rebuild_ledger term for term:
  // same per-task products, same accumulation order, same first-seen
  // memory accounting, so equal inputs produce bit-identical sums.
  double compute = 0.0;
  double shared_rbs = 0.0;
  double memory = 0.0;
  for (const core::TaskPlan* plan : plans_) {
    // The products must round to double *before* the adds, exactly like
    // the controller's stored Commitment fields — an FMA-contracted
    // multiply-add would round once instead of twice and drift a ulp from
    // the ledger (the sched CMakeLists compiles this file with
    // -ffp-contract=off to pin that).
    const double task_compute = plan->admitted_rate * plan->inference_time_s;
    const double task_shared_rbs =
        plan->admission_ratio * static_cast<double>(plan->slice_rbs);
    compute += task_compute;
    shared_rbs += task_shared_rbs;
    for (const edge::BlockIndex b : plan->blocks) {
      if (b >= block_marks_.size()) block_marks_.resize(b + std::size_t{1});
      if (block_marks_[b] != 0) continue;
      const double bytes = catalog.block(b).memory_bytes;
      block_marks_[b] = 1;
      blocks_.push_back(b);
      memory += bytes;
    }
  }
  const auto rbs = static_cast<std::size_t>(std::ceil(shared_rbs - 1e-9));

  // The derived blocks are distinct, so the sets are equal when the counts
  // are and the controller's list is strictly ascending (as a sorted
  // derivation would be) with every block marked.
  const std::vector<edge::BlockIndex>& deployed = controller.deployed_blocks();
  const std::size_t derived_blocks = blocks_.size();
  bool same_blocks = deployed.size() == derived_blocks;
  for (std::size_t i = 0; same_blocks && i < deployed.size(); ++i)
    same_blocks = deployed[i] < block_marks_.size() &&
                  block_marks_[deployed[i]] != 0 &&
                  (i == 0 || deployed[i - 1] < deployed[i]);
  // Clear the marks before any report, so the next check starts from zeros.
  for (const edge::BlockIndex b : blocks_) block_marks_[b] = 0;
  blocks_.clear();

  const edge::ResourceLedger& ledger = controller.ledger();
  if (compute != ledger.compute_used_s())
    return util::fmt(
        "compute mismatch: ledger holds {} s, served tasks re-derive {} s",
        util::json_double(ledger.compute_used_s()),
        util::json_double(compute));
  if (memory != ledger.memory_used_bytes())
    return util::fmt(
        "memory mismatch: ledger holds {} B, served tasks re-derive {} B",
        util::json_double(ledger.memory_used_bytes()),
        util::json_double(memory));
  if (rbs != ledger.rbs_used())
    return util::fmt(
        "RB mismatch: ledger holds {}, served tasks re-derive {}",
        ledger.rbs_used(), rbs);
  if (!same_blocks)
    return util::fmt(
        "deployed-block mismatch: controller has {} blocks, served tasks "
        "re-derive {}",
        deployed.size(), derived_blocks);
  return std::nullopt;
}

}  // namespace odn::sched
