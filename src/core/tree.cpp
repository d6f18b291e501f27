#include "core/tree.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "core/fingerprint.h"
#include "core/solver_cache.h"

namespace odn::core {
namespace {

// Clique-memo key: a task's clique depends only on the task itself and the
// catalog (spec thresholds filter, catalog times/memory sort), so the key
// is the exact task encoding prefixed with the catalog digest. 'Q' tags
// the key space apart from the branch/solve memos sharing the cache.
MemoKey clique_key(const Fingerprint& catalog_digest,
                   std::string_view task_bytes) {
  CanonicalWriter writer;
  writer.reserve(1 + 2 * 8 + task_bytes.size());
  writer.u8(0x51);  // 'Q'
  writer.u64(catalog_digest.hi);
  writer.u64(catalog_digest.lo);
  writer.raw(task_bytes);
  return MemoKey(writer.take());
}

}  // namespace

SolutionTree::SolutionTree(const DotInstance& instance)
    : SolutionTree(instance, nullptr) {}

SolutionTree::SolutionTree(const DotInstance& instance, SolverCache* cache)
    : SolutionTree(instance, cache, nullptr) {}

SolutionTree::SolutionTree(const DotInstance& instance, SolverCache* cache,
                           const Fingerprint* digest,
                           const EncodedTaskSet* encoded_tasks)
    : instance_(instance) {
  if (!instance.finalized())
    throw std::logic_error("SolutionTree: instance not finalized");

  Fingerprint catalog_digest;
  std::optional<EncodedTaskSet> local_tasks;
  if (cache != nullptr) {
    catalog_digest =
        digest != nullptr ? *digest : core::catalog_digest(instance.catalog);
    if (encoded_tasks == nullptr)
      encoded_tasks = &local_tasks.emplace(instance.tasks);
  }

  layers_.reserve(instance.tasks.size());
  for (const std::size_t task_index : instance.priority_order()) {
    const DotTask& task = instance.tasks[task_index];

    std::optional<MemoKey> key;
    if (cache != nullptr) {
      key.emplace(clique_key(catalog_digest, encoded_tasks->task(task_index)));
      if (const SolverCache::CliqueEntry* hit = cache->find_clique(*key)) {
        // Stored vertices carry whatever task_index the task had when the
        // entry was built; patch in this instance's index.
        std::vector<TreeVertex> clique = hit->vertices;
        for (TreeVertex& vertex : clique) vertex.task_index = task_index;
        filtered_ += hit->filtered;
        total_vertices_ += clique.size();
        layers_.push_back(std::move(clique));
        continue;
      }
    }

    std::vector<TreeVertex> clique;
    std::size_t filtered_here = 0;
    clique.reserve(task.options.size());
    for (std::size_t o = 0; o < task.options.size(); ++o) {
      const PathOption& option = task.options[o];
      // Feasibility filters (1f) and the compute-time part of (1g).
      if (option.accuracy + 1e-12 < task.spec.min_accuracy ||
          option.inference_time_s >= task.spec.max_latency_s) {
        ++filtered_here;
        continue;
      }
      clique.push_back(TreeVertex{
          .task_index = task_index,
          .option_index = o,
          .inference_time_s = option.inference_time_s,
          .accuracy = option.accuracy,
          .memory_bytes = instance.catalog.path_memory_bytes(option.path),
          .input_bits = option.input_bits,
      });
    }
    // The clique invariant: vertices ordered by increasing inference
    // compute time (ties: lower memory, then lower input bits — so a
    // compressed variant of the same path sorts first, then stable by
    // option).
    std::stable_sort(clique.begin(), clique.end(),
                     [](const TreeVertex& a, const TreeVertex& b) {
                       if (a.inference_time_s != b.inference_time_s)
                         return a.inference_time_s < b.inference_time_s;
                       if (a.memory_bytes != b.memory_bytes)
                         return a.memory_bytes < b.memory_bytes;
                       return a.input_bits < b.input_bits;
                     });
    if (cache != nullptr)
      cache->insert_clique(std::move(*key),
                           SolverCache::CliqueEntry{clique, filtered_here});
    filtered_ += filtered_here;
    total_vertices_ += clique.size();
    layers_.push_back(std::move(clique));
  }
}

std::span<const TreeVertex> SolutionTree::layer(
    std::size_t layer_index) const {
  if (layer_index >= layers_.size())
    throw std::out_of_range("SolutionTree::layer: bad index");
  return layers_[layer_index];
}

std::size_t SolutionTree::layer_task(std::size_t layer_index) const {
  if (layer_index >= layers_.size())
    throw std::out_of_range("SolutionTree::layer_task: bad index");
  return instance_.priority_order()[layer_index];
}

double SolutionTree::branch_count_estimate() const noexcept {
  double estimate = 1.0;
  for (const auto& clique : layers_)
    estimate *= static_cast<double>(std::max<std::size_t>(1, clique.size()));
  return estimate;
}

}  // namespace odn::core
