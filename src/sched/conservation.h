// No-orphaned-resources conservation check.
//
// After any preempt/downgrade/readmit sequence, the controller's ledger and
// deployed-block set must re-derive *exactly* (bit-for-bit, not within a
// tolerance) from the plans of the currently-served tasks. The check walks
// the controller's commitments in admission order, resolves each one to
// the caller's booked plan, and replays rebuild_ledger's sums over those
// plans: the same per-task products, the same accumulation order, and the
// block memory summed in first-seen order. Any difference means a
// commitment leaked (an evicted task still holds resources) or went
// missing (a served task lost its backing commitment).
//
// A book entry is keyed by its plan's correlation id and its name, so a
// runtime whose jobs carry distinct correlations (their trace ids) resolves
// a commitment with integer compares plus one byte-for-byte name compare.
// Names still decide the match: an entry whose correlation matches but
// whose name differs is not the commitment's task. One check costs
// O(served tasks · log + their blocks) and, once its buffers have grown to
// the largest book and block index seen, allocates nothing unless it
// reports a violation.
//
// Runtimes self-check this after every sched admission attempt, at epoch
// boundaries and at the end of the run when scheduling is enabled;
// tests/core/invariant_check.h wraps it in gtest assertions for the test
// suites.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/controller.h"
#include "edge/dnn_catalog.h"

namespace odn::sched {

// One task of the caller's book: the name it serves under and the plan it
// was committed with. Both are views of the caller's records and must stay
// valid for the duration of the check.
struct ServedTask {
  std::string_view name;
  const core::TaskPlan* plan = nullptr;
};

// Reusable checker: it keeps its scratch buffers between calls, so a
// caller that checks after every admission holds one and pays no
// allocation per check.
class ConservationCheck {
 public:
  // Checks `controller` against `book`, the tasks the caller serves on it
  // (any order, every plan non-null). Returns a description of the first
  // violation, or nullopt when every resource re-derives exactly.
  std::optional<std::string> find_orphaned_resources(
      const core::OffloadnnController& controller,
      std::span<const ServedTask> book, const edge::DnnCatalog& catalog);

 private:
  struct Entry {
    std::uint64_t correlation;
    std::string_view name;
    const core::TaskPlan* plan;
    bool matched;
  };

  std::optional<std::string> compare(
      const core::OffloadnnController& controller,
      const edge::DnnCatalog& catalog);

  std::vector<Entry> sorted_;  // the book, by (correlation, name)
  std::vector<const core::TaskPlan*> plans_;  // in commitment order
  // Distinct blocks of the booked plans in first-seen order, and their
  // marks indexed by block (all zero between calls).
  std::vector<edge::BlockIndex> blocks_;
  std::vector<unsigned char> block_marks_;
};

}  // namespace odn::sched
