#include "core/offloadnn_solver.h"

#include <algorithm>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/branch_optimizer.h"
#include "core/fingerprint.h"
#include "core/solver_cache.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace odn::core {
namespace {

// Tree-traversal accounting. The traversal phases are serial (only the
// per-branch (z, r) optimization fans out), so every count is
// thread-count invariant; sites accumulate locally and publish once per
// solve to keep the hot loops free of atomics.
struct SolverMetrics {
  obs::Counter& solves;
  obs::Counter& vertices_visited;
  obs::Counter& branches_pruned;  // memory-overflow vertex skips
  obs::Counter& cliques_built;    // tree layers ranked per solve
  obs::Counter& beam_branches;    // branches handed to the optimizer

  static SolverMetrics& instance() {
    static obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
    static SolverMetrics metrics{
        registry.counter("odn_solver_offloadnn_solves_total"),
        registry.counter("odn_solver_offloadnn_vertices_visited_total"),
        registry.counter("odn_solver_offloadnn_branches_pruned_total"),
        registry.counter("odn_solver_offloadnn_cliques_built_total"),
        registry.counter("odn_solver_offloadnn_beam_branches_total")};
    return metrics;
  }
};

// A clique in the requested ablation ordering: the tree's own span for the
// default (already the tree invariant), otherwise a re-ranked copy held
// in `storage`.
std::span<const TreeVertex> ordered_clique(std::span<const TreeVertex> clique,
                                           CliqueOrdering ordering,
                                           std::vector<TreeVertex>& storage) {
  if (ordering == CliqueOrdering::kInferenceTime) return clique;
  storage.assign(clique.begin(), clique.end());
  switch (ordering) {
    case CliqueOrdering::kInferenceTime:
      break;
    case CliqueOrdering::kMemory:
      std::stable_sort(storage.begin(), storage.end(),
                       [](const TreeVertex& a, const TreeVertex& b) {
                         return a.memory_bytes < b.memory_bytes;
                       });
      break;
    case CliqueOrdering::kAccuracy:
      std::stable_sort(storage.begin(), storage.end(),
                       [](const TreeVertex& a, const TreeVertex& b) {
                         return a.accuracy > b.accuracy;
                       });
      break;
    case CliqueOrdering::kNone:
      std::stable_sort(storage.begin(), storage.end(),
                       [](const TreeVertex& a, const TreeVertex& b) {
                         return a.option_index < b.option_index;
                       });
      break;
  }
  return storage;
}

// Branch-memo key prefix: everything BranchOptimizer::optimize +
// DotEvaluator::evaluate read besides the per-task choices — the globals,
// the catalog (as its precomputed digest) and every task's encoding
// (rejected tasks still enter the objective through their priority and
// rate). 'B' tags the key space.
std::string branch_key_prefix(const DotInstance& instance,
                              const Fingerprint& catalog_digest,
                              const EncodedTaskSet& tasks) {
  CanonicalWriter writer;
  writer.reserve(1 + 8 + kResourcesEncodingBytes + kRadioEncodingBytes +
                 2 * 8 + tasks.bytes().size());
  writer.u8(0x42);  // 'B'
  writer.f64(instance.alpha);
  encode_resources(writer, instance.resources);
  encode_radio(writer, instance.radio);
  writer.u64(catalog_digest.hi);
  writer.u64(catalog_digest.lo);
  writer.raw(tasks.bytes());
  return writer.take();
}

MemoKey branch_key(std::string_view prefix,
                   const std::vector<BranchChoice>& choices) {
  CanonicalWriter writer;
  writer.reserve(prefix.size() + 8 + 9 * choices.size());
  writer.raw(prefix);
  writer.size(choices.size());
  for (const BranchChoice& choice : choices) {
    writer.boolean(choice.has_value());
    writer.size(choice.has_value() ? *choice : 0);
  }
  return MemoKey(writer.take());
}

}  // namespace

OffloadnnSolver::OffloadnnSolver(OffloadnnOptions options)
    : options_(options) {
  if (options_.beam_width == 0)
    throw std::invalid_argument("OffloadnnSolver: beam width must be >= 1");
}

DotSolution OffloadnnSolver::solve(const DotInstance& instance) const {
  return solve(instance, nullptr);
}

DotSolution OffloadnnSolver::solve(const DotInstance& instance,
                                   SolverCache* cache) const {
  return solve(instance, cache, nullptr);
}

DotSolution OffloadnnSolver::solve(const DotInstance& instance,
                                   SolverCache* cache,
                                   const Fingerprint* catalog_fp,
                                   const EncodedTaskSet* encoded_tasks) const {
  ODN_TRACE_SPAN("solver", "solver.offloadnn");
  util::Stopwatch watch;
  SolverMetrics& metrics = SolverMetrics::instance();

  // The catalog is the one O(blocks) key component; encode it at most once
  // per solve (not at all when the caller precomputed it) and share the
  // digest across the solve key, the branch-memo prefix and the tree's
  // clique keys. The request set is likewise encoded at most once (not at
  // all when the caller passes its encoding) and spliced into each key.
  Fingerprint digest;
  std::optional<EncodedTaskSet> local_tasks;
  std::optional<MemoKey> solve_key;
  if (cache != nullptr) {
    digest = catalog_fp != nullptr ? *catalog_fp
                                   : catalog_digest(instance.catalog);
    if (encoded_tasks == nullptr)
      encoded_tasks = &local_tasks.emplace(instance.tasks);
    CanonicalWriter writer;
    writer.reserve(1 + 1 + 8 + 8 + kResourcesEncodingBytes +
                   kRadioEncodingBytes + 2 * 8 + 8 +
                   encoded_tasks->bytes().size());
    writer.u8(0x4F);  // 'O': this solver's full-solve key space
    writer.u8(static_cast<std::uint8_t>(options_.ordering));
    writer.size(options_.beam_width);
    writer.f64(instance.alpha);
    encode_resources(writer, instance.resources);
    encode_radio(writer, instance.radio);
    writer.u64(digest.hi);
    writer.u64(digest.lo);
    writer.size(instance.catalog.block_count());
    writer.raw(encoded_tasks->bytes());
    solve_key.emplace(writer.take());
    if (const DotSolution* hit = cache->find_solve(*solve_key)) {
      ODN_TRACE_SPAN("solver", "solver.warm");
      metrics.solves.inc();
      DotSolution solution = *hit;
      solution.solve_time_s = watch.elapsed_seconds();
      return solution;
    }
  }

  const SolutionTree tree(instance, cache,
                          cache != nullptr ? &digest : nullptr,
                          encoded_tasks);
  metrics.solves.inc();
  metrics.cliques_built.inc(tree.num_layers());
  std::string branch_prefix;
  if (cache != nullptr)
    branch_prefix = branch_key_prefix(instance, digest, *encoded_tasks);
  DotSolution solution =
      options_.beam_width == 1
          ? solve_first_branch(instance, tree, cache, branch_prefix)
          : solve_beam(instance, tree, cache, branch_prefix);
  solution.solve_time_s = watch.elapsed_seconds();
  if (cache != nullptr) cache->insert_solve(std::move(*solve_key), solution);
  return solution;
}

DotSolution OffloadnnSolver::solve_first_branch(
    const DotInstance& instance, const SolutionTree& tree, SolverCache* cache,
    std::string_view branch_prefix) const {
  std::vector<BranchChoice> choices(instance.tasks.size());
  std::vector<std::uint32_t> block_use(instance.catalog.block_count(), 0);
  double memory_used = 0.0;
  std::size_t visited = 0;
  std::size_t pruned = 0;
  std::vector<TreeVertex> reordered;

  for (std::size_t layer = 0; layer < tree.num_layers(); ++layer) {
    const std::size_t task_index = tree.layer_task(layer);
    const std::span<const TreeVertex> clique =
        ordered_clique(tree.layer(layer), options_.ordering, reordered);

    for (const TreeVertex& vertex : clique) {
      const PathOption& option =
          instance.tasks[task_index].options[vertex.option_index];
      ++visited;
      double memory_delta = 0.0;
      for (const edge::BlockIndex b : option.path.blocks)
        if (block_use[b] == 0)
          memory_delta += instance.catalog.block(b).memory_bytes;
      if (memory_used + memory_delta >
          instance.resources.memory_capacity_bytes * (1.0 + 1e-12)) {
        ++pruned;
        continue;  // this vertex would overflow memory; try the next one
      }
      choices[task_index] = vertex.option_index;
      memory_used += memory_delta;
      for (const edge::BlockIndex b : option.path.blocks) ++block_use[b];
      break;  // first-fit: the leftmost feasible vertex wins
    }
  }
  SolverMetrics& metrics = SolverMetrics::instance();
  metrics.vertices_visited.inc(visited);
  metrics.branches_pruned.inc(pruned);
  metrics.beam_branches.inc(1);

  DotSolution solution;
  solution.solver_name = "OffloaDNN";
  solution.branches_explored = 1;

  std::optional<MemoKey> key;
  if (cache != nullptr) {
    key.emplace(branch_key(branch_prefix, choices));
    if (const SolverCache::BranchEntry* hit = cache->find_branch(*key)) {
      ODN_TRACE_SPAN("solver", "solver.warm");
      solution.decisions = hit->decisions;
      solution.cost = hit->cost;
      return solution;
    }
  }

  const BranchOptimizer optimizer(instance);
  const DotEvaluator evaluator(instance);
  solution.decisions = optimizer.optimize(choices);
  solution.cost = evaluator.evaluate(solution.decisions);
  if (cache != nullptr)
    cache->insert_branch(
        std::move(*key),
        SolverCache::BranchEntry{solution.decisions, solution.cost});
  return solution;
}

DotSolution OffloadnnSolver::solve_beam(const DotInstance& instance,
                                        const SolutionTree& tree,
                                        SolverCache* cache,
                                        std::string_view branch_prefix)
    const {
  struct PartialBranch {
    std::vector<BranchChoice> choices;
    std::vector<std::uint32_t> block_use;
    double memory_used = 0.0;
    double committed_cost = 0.0;  // training/Ct + inference-time proxy
  };

  PartialBranch root;
  root.choices.assign(instance.tasks.size(), std::nullopt);
  root.block_use.assign(instance.catalog.block_count(), 0);
  std::vector<PartialBranch> beam{std::move(root)};
  std::size_t visited = 0;
  std::size_t pruned = 0;
  std::vector<TreeVertex> reordered;

  for (std::size_t layer = 0; layer < tree.num_layers(); ++layer) {
    const std::size_t task_index = tree.layer_task(layer);
    const std::span<const TreeVertex> clique =
        ordered_clique(tree.layer(layer), options_.ordering, reordered);

    std::vector<PartialBranch> expanded;
    for (const PartialBranch& parent : beam) {
      bool extended = false;
      for (const TreeVertex& vertex : clique) {
        const PathOption& option =
            instance.tasks[task_index].options[vertex.option_index];
        ++visited;
        double memory_delta = 0.0;
        double training_delta = 0.0;
        for (const edge::BlockIndex b : option.path.blocks)
          if (parent.block_use[b] == 0) {
            memory_delta += instance.catalog.block(b).memory_bytes;
            training_delta += instance.catalog.block(b).training_cost_s;
          }
        if (parent.memory_used + memory_delta >
            instance.resources.memory_capacity_bytes * (1.0 + 1e-12)) {
          ++pruned;
          continue;
        }
        PartialBranch child = parent;
        child.choices[task_index] = vertex.option_index;
        child.memory_used += memory_delta;
        child.committed_cost +=
            training_delta / instance.resources.training_budget_s +
            instance.tasks[task_index].spec.request_rate *
                option.inference_time_s /
                instance.resources.compute_capacity_s;
        for (const edge::BlockIndex b : option.path.blocks)
          ++child.block_use[b];
        expanded.push_back(std::move(child));
        extended = true;
        if (expanded.size() >= options_.beam_width * 4) break;
      }
      if (!extended) expanded.push_back(parent);  // task skipped
    }

    std::stable_sort(expanded.begin(), expanded.end(),
                     [](const PartialBranch& a, const PartialBranch& b) {
                       return a.committed_cost < b.committed_cost;
                     });
    if (expanded.size() > options_.beam_width)
      expanded.resize(options_.beam_width);
    beam = std::move(expanded);
  }
  SolverMetrics& metrics = SolverMetrics::instance();
  metrics.vertices_visited.inc(visited);
  metrics.branches_pruned.inc(pruned);
  metrics.beam_branches.inc(beam.size());

  const BranchOptimizer optimizer(instance);
  const DotEvaluator evaluator(instance);

  // The per-branch (z, r) optimizations are independent; memo-resolved
  // branches are settled serially up front (keeping every cache access
  // off the pool), the rest fan out over the pool, and the results are
  // min-reduced in beam order with strict '<', which matches the serial
  // loop's tie-breaking exactly for any thread count.
  struct BranchResult {
    std::vector<TaskDecision> decisions;
    CostBreakdown cost;
  };
  std::vector<BranchResult> optimized(beam.size());
  std::vector<std::optional<MemoKey>> keys(beam.size());
  std::vector<std::size_t> pending;
  pending.reserve(beam.size());
  for (std::size_t i = 0; i < beam.size(); ++i) {
    if (cache != nullptr) {
      keys[i].emplace(branch_key(branch_prefix, beam[i].choices));
      if (const SolverCache::BranchEntry* hit =
              cache->find_branch(*keys[i])) {
        optimized[i].decisions = hit->decisions;
        optimized[i].cost = hit->cost;
        continue;
      }
    }
    pending.push_back(i);
  }
  util::global_parallel_for(pending.size(), [&](std::size_t k) {
    const std::size_t i = pending[k];
    optimized[i].decisions = optimizer.optimize(beam[i].choices);
    optimized[i].cost = evaluator.evaluate(optimized[i].decisions);
  });
  if (cache != nullptr)
    for (const std::size_t i : pending)
      cache->insert_branch(
          std::move(*keys[i]),
          SolverCache::BranchEntry{optimized[i].decisions,
                                   optimized[i].cost});

  DotSolution best;
  best.solver_name = "OffloaDNN-beam";
  bool have_best = false;
  for (BranchResult& branch : optimized) {
    if (!have_best || branch.cost.objective < best.cost.objective) {
      best.decisions = std::move(branch.decisions);
      best.cost = branch.cost;
      have_best = true;
    }
  }
  if (!have_best) {
    best.decisions.assign(instance.tasks.size(), TaskDecision{});
    best.cost = evaluator.evaluate(best.decisions);
  }
  best.branches_explored = beam.size();
  return best;
}

}  // namespace odn::core
