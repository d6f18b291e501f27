#include "core/controller.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "core/fingerprint.h"
#include "core/plan_cache.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace odn::core {
namespace {

// Controller-level admission accounting (DESIGN.md §6 naming scheme).
// Counter increments happen on the serial plan/commit path or inside the
// cluster probe fan-out, whose per-cell call counts are thread-count
// invariant — so these totals snapshot identically for any ODN_THREADS.
struct ControllerMetrics {
  obs::Counter& plans;
  obs::Counter& probes;
  obs::Counter& commits;
  obs::Counter& admissions;
  obs::Counter& rejections;
  obs::Counter& releases;
  obs::Histogram& expected_latency;

  static ControllerMetrics& instance() {
    static obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
    static ControllerMetrics metrics{
        registry.counter("odn_controller_plans_total"),
        registry.counter("odn_controller_probes_total"),
        registry.counter("odn_controller_commits_total"),
        registry.counter("odn_controller_admissions_total"),
        registry.counter("odn_controller_rejections_total"),
        registry.counter("odn_controller_releases_total"),
        registry.histogram("odn_controller_expected_latency_seconds",
                           {0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0})};
    return metrics;
  }
};

}  // namespace

OffloadnnController::OffloadnnController(const edge::EdgeResources& resources,
                                         edge::RadioModel radio,
                                         Options options)
    : resources_(resources),
      radio_(radio),
      options_(options),
      ledger_(resources) {
  if (options_.cache.plan_cache)
    plan_cache_ = std::make_shared<PlanCache>(options_.cache.plan_capacity);
  if (options_.cache.solver_cache)
    solver_cache_ = std::make_unique<SolverCache>(options_.cache.solver);
}

void OffloadnnController::set_plan_cache(std::shared_ptr<PlanCache> cache) {
  plan_cache_ = std::move(cache);
}

OffloadnnController::OffloadnnController(const edge::EdgeResources& resources,
                                         edge::RadioModel radio)
    : OffloadnnController(resources, radio, Options{}) {}

void OffloadnnController::reset() {
  ledger_.reset();
  deployed_blocks_.clear();
  active_.clear();
  block_memory_.clear();
}

void OffloadnnController::rebuild_ledger() {
  ledger_.reset();
  deployed_blocks_.clear();

  // Distinct blocks in first-seen order (the order memory is summed in);
  // the marks are cleared before anything can throw, so the next rebuild
  // starts from all zeros.
  double compute = 0.0;
  double shared_rbs = 0.0;
  for (const TaskCommitment& task : active_) {
    compute += task.compute_s;
    shared_rbs += task.shared_rbs;
    for (const edge::BlockIndex b : task.blocks) {
      if (b >= block_marks_.size()) block_marks_.resize(b + std::size_t{1});
      if (block_marks_[b] != 0) continue;
      block_marks_[b] = 1;
      deployed_blocks_.push_back(b);
    }
  }
  for (const edge::BlockIndex b : deployed_blocks_) block_marks_[b] = 0;
  double memory = 0.0;
  for (const edge::BlockIndex b : deployed_blocks_)
    memory += block_memory_.at(b);
  std::sort(deployed_blocks_.begin(), deployed_blocks_.end());
  const auto rbs =
      static_cast<std::size_t>(std::ceil(shared_rbs - 1e-9));
  if (!ledger_.try_commit(compute, memory, rbs))
    throw std::logic_error(
        "OffloadnnController: rebuild exceeded capacity (invariant broken)");
}

bool OffloadnnController::release(const std::string& task_name) {
  const auto it =
      std::find_if(active_.begin(), active_.end(),
                   [&](const TaskCommitment& task) {
                     return task.name == task_name;
                   });
  if (it == active_.end()) return false;
  ODN_TRACE_SPAN("controller", "controller.release");
  active_.erase(it);
  rebuild_ledger();
  ControllerMetrics::instance().releases.inc();
  util::log_info("controller", "released task '{}': {} blocks deployed, "
                 "{:.1f} MB resident",
                 task_name, deployed_blocks_.size(),
                 ledger_.memory_used_bytes() / 1e6);
  return true;
}

std::vector<std::string> OffloadnnController::active_tasks() const {
  std::vector<std::string> names;
  names.reserve(active_.size());
  for (const TaskCommitment& task : active_) names.push_back(task.name);
  return names;
}

DeploymentPlan OffloadnnController::admit(
    const edge::DnnCatalog& catalog, const std::vector<DotTask>& requests) {
  reset();
  DeploymentPlan result =
      plan(catalog, requests, /*incremental=*/false, /*use_plan_cache=*/true,
           /*digest=*/nullptr, /*encoded=*/nullptr);
  commit(result, catalog);
  return result;
}

DeploymentPlan OffloadnnController::admit_incremental(
    const edge::DnnCatalog& catalog, const std::vector<DotTask>& requests,
    const Fingerprint* digest, const EncodedTaskSet* encoded) {
  DeploymentPlan result =
      plan(catalog, requests, /*incremental=*/true, /*use_plan_cache=*/true,
           digest, encoded);
  commit(result, catalog);
  return result;
}

DeploymentPlan OffloadnnController::probe_incremental(
    const edge::DnnCatalog& catalog, const std::vector<DotTask>& requests,
    const Fingerprint* digest, const EncodedTaskSet* encoded) const {
  ODN_TRACE_SPAN("controller", "controller.probe_incremental");
  ControllerMetrics::instance().probes.inc();
  return plan(catalog, requests, /*incremental=*/true,
              /*use_plan_cache=*/true, digest, encoded);
}

DeploymentPlan OffloadnnController::probe_incremental_uncached(
    const edge::DnnCatalog& catalog, const std::vector<DotTask>& requests,
    const Fingerprint* digest, const EncodedTaskSet* encoded) const {
  ODN_TRACE_SPAN("controller", "controller.probe_incremental");
  ControllerMetrics::instance().probes.inc();
  return plan(catalog, requests, /*incremental=*/true,
              /*use_plan_cache=*/false, digest, encoded);
}

MemoKey OffloadnnController::probe_cache_key(
    const edge::DnnCatalog& catalog, const std::vector<DotTask>& requests,
    const Fingerprint* digest, const EncodedTaskSet* encoded) const {
  const Fingerprint catalog_fp =
      digest != nullptr ? *digest : catalog_digest(catalog);
  if (encoded != nullptr)
    return plan_key(catalog, *encoded, /*incremental=*/true, catalog_fp);
  return plan_key(catalog, EncodedTaskSet(requests), /*incremental=*/true,
                  catalog_fp);
}

MemoKey OffloadnnController::plan_key(const edge::DnnCatalog& catalog,
                                      const EncodedTaskSet& requests,
                                      bool incremental,
                                      const Fingerprint& catalog_fp) const {
  CanonicalWriter writer;
  // Exactly the bytes written below: four one-byte fields, beam width and
  // alpha; resources and ledger usage; radio and deployed blocks; catalog
  // digest and block count; the request set.
  writer.reserve(4 + 2 * 8 + kResourcesEncodingBytes + 3 * 8 +
                 kRadioEncodingBytes + 8 + 4 * deployed_blocks_.size() +
                 2 * 8 + 8 + requests.bytes().size());
  writer.u8(2);  // key-format version (2: catalog digest-compressed)
  writer.boolean(incremental);
  writer.boolean(options_.use_optimal_solver);
  writer.u8(static_cast<std::uint8_t>(options_.heuristic.ordering));
  writer.size(options_.heuristic.beam_width);
  writer.f64(options_.alpha);
  encode_resources(writer, resources_);
  writer.f64(ledger_.compute_used_s());
  writer.f64(ledger_.memory_used_bytes());
  writer.size(ledger_.rbs_used());
  encode_radio(writer, radio_);
  writer.size(deployed_blocks_.size());
  for (const edge::BlockIndex b : deployed_blocks_) writer.u32(b);
  writer.u64(catalog_fp.hi);
  writer.u64(catalog_fp.lo);
  writer.size(catalog.block_count());
  writer.raw(requests.bytes());
  return MemoKey(writer.take());
}

const edge::DnnCatalog& OffloadnnController::patched_catalog(
    const edge::DnnCatalog& catalog) const {
  // Already-deployed blocks are free: they are resident and trained (the
  // paper's dynamic-scenario rule). The memo's source copy pins the
  // caller's table (a shared table is never mutated in place), so table
  // identity proves equal content.
  if (!patched_source_.shares_blocks_with(catalog)) {
    // A new caller table: zero the deployed blocks of a fresh copy (the
    // first write clones the shared table once).
    patched_source_ = catalog;
    patched_ = catalog;
    patched_deployed_.clear();
  }
  if (patched_deployed_ == deployed_blocks_) return patched_;

  // Same table, new deployed set: restore the blocks that left it and zero
  // the blocks that joined — O(changed) writes to the memo's own table,
  // with the content a fresh patch would have. Both sets are sorted. An
  // out-of-range block throws before any write, leaving the memo intact.
  if (!deployed_blocks_.empty() &&
      deployed_blocks_.back() >= catalog.block_count())
    (void)catalog.block(*std::lower_bound(
        deployed_blocks_.begin(), deployed_blocks_.end(),
        static_cast<edge::BlockIndex>(catalog.block_count())));
  auto old_it = patched_deployed_.begin();
  auto new_it = deployed_blocks_.begin();
  while (old_it != patched_deployed_.end() || new_it != deployed_blocks_.end()) {
    if (new_it == deployed_blocks_.end() ||
        (old_it != patched_deployed_.end() && *old_it < *new_it)) {
      patched_.unmark_deployed(*old_it++, patched_source_);
    } else if (old_it == patched_deployed_.end() || *new_it < *old_it) {
      patched_.mark_deployed(*new_it++);
    } else {
      ++old_it;
      ++new_it;
    }
  }
  patched_deployed_ = deployed_blocks_;
  return patched_;
}

DeploymentPlan OffloadnnController::plan(const edge::DnnCatalog& catalog,
                                         const std::vector<DotTask>& requests,
                                         bool incremental, bool use_plan_cache,
                                         const Fingerprint* digest,
                                         const EncodedTaskSet* encoded) const {
  ODN_TRACE_SPAN("controller", "controller.plan");
  ControllerMetrics::instance().plans.inc();

  // Warm path: an exact-key hit is a proof that state and request set are
  // identical to a previously solved plan, so the cached bytes ARE the
  // cold result. Keys are name-blind (names never enter the solve), so
  // the caller-facing task names are rewritten positionally; the latency
  // histogram is replayed to keep its totals equal to the cold path's.
  PlanCache* cache = use_plan_cache ? plan_cache_.get() : nullptr;
  SolverCache* const memo = solver_cache_.get();

  // The caller catalog's digest — the one O(blocks) key component — is
  // computed at most once per plan and shared by the plan key and (through
  // the deployed-block composition below) the solver memo keys. Callers
  // that fan many plans out against one catalog pass it in and the encode
  // disappears entirely. The request set's encoding is shared the same
  // way: made here at most once, spliced into every key of this plan.
  Fingerprint caller_fp;
  std::optional<EncodedTaskSet> local_tasks;
  if (cache != nullptr || memo != nullptr) {
    caller_fp = digest != nullptr ? *digest : catalog_digest(catalog);
    if (encoded == nullptr) encoded = &local_tasks.emplace(requests);
  }

  std::optional<MemoKey> cache_key;
  if (cache != nullptr) {
    cache_key.emplace(plan_key(catalog, *encoded, incremental, caller_fp));
    if (const DeploymentPlan* hit = cache->find(*cache_key)) {
      ODN_TRACE_SPAN("solver", "solver.warm");
      DeploymentPlan result = *hit;
      for (std::size_t t = 0; t < requests.size(); ++t) {
        result.tasks[t].task_name = requests[t].spec.name;
        result.tasks[t].correlation = requests[t].spec.correlation;
        if (result.tasks[t].admitted)
          ControllerMetrics::instance().expected_latency.observe(
              result.tasks[t].expected_latency_s);
      }
      return result;
    }
  }

  // Step 2: assemble the DOT inputs — block availability and the (possibly
  // discounted) resource capacities. Catalogs share their block table, so
  // either assignment is O(1).
  DotInstance instance;
  instance.name = incremental ? "controller-incremental" : "controller";
  instance.catalog = incremental ? patched_catalog(catalog) : catalog;
  instance.tasks = requests;
  instance.resources = resources_;
  instance.radio = radio_;
  instance.alpha = options_.alpha;

  if (incremental) {
    instance.resources.memory_capacity_bytes = std::max(
        1.0, resources_.memory_capacity_bytes - ledger_.memory_used_bytes());
    instance.resources.compute_capacity_s = std::max(
        1e-9, resources_.compute_capacity_s - ledger_.compute_used_s());
    instance.resources.total_rbs =
        resources_.total_rbs > ledger_.rbs_used()
            ? resources_.total_rbs - ledger_.rbs_used()
            : 1;
  }
  instance.finalize();

  // Step 3: solve DOT (warm-started through the solver memos when on).
  // The solver keys on the *instance* catalog, which differs from the
  // caller's exactly when the deployed-block patch rebuilt it — in that
  // case the digest is composed from the caller digest and the deployed
  // set (which together determine the patched content) in O(deployed),
  // instead of re-encoding the patched catalog in O(blocks).
  Fingerprint instance_fp = caller_fp;
  if (memo != nullptr && incremental && !deployed_blocks_.empty()) {
    CanonicalWriter patch_writer;
    patch_writer.u8(0x50);  // 'P': patched-catalog digest lineage
    patch_writer.u64(caller_fp.hi);
    patch_writer.u64(caller_fp.lo);
    patch_writer.size(deployed_blocks_.size());
    for (const edge::BlockIndex b : deployed_blocks_) patch_writer.u32(b);
    instance_fp = patch_writer.fingerprint();
  }
  // instance.tasks is a copy of `requests`, so their encoding serves the
  // solver's keys too.
  DotSolution solution;
  if (options_.use_optimal_solver) {
    solution = OptimalSolver{}.solve(
        instance, memo, memo != nullptr ? &instance_fp : nullptr, encoded);
  } else {
    solution = OffloadnnSolver{options_.heuristic}.solve(
        instance, memo, memo != nullptr ? &instance_fp : nullptr, encoded);
  }

  // Steps 4-6: allocate resources, deploy blocks, compute per-task plans.
  // Plan assembly splits into a parallel phase — each task's plan (with its
  // latency-model evaluation) is built independently into its own slot —
  // and a serial aggregation phase that walks the plans in task order, so
  // the bookkeeping is identical for any thread count. Nothing here
  // mutates the controller: commit() applies the result.
  DeploymentPlan result;
  result.solution = std::move(solution);
  const std::vector<TaskDecision>& decisions = result.solution.decisions;
  std::unordered_set<edge::BlockIndex> new_blocks;
  double shared_rbs = 0.0;

  std::vector<TaskPlan> task_plans(instance.tasks.size());
  util::global_parallel_for(instance.tasks.size(), [&](std::size_t t) {
    const DotTask& task = instance.tasks[t];
    const TaskDecision& decision = decisions[t];
    TaskPlan& task_plan = task_plans[t];
    task_plan.task_name = task.spec.name;
    task_plan.correlation = task.spec.correlation;
    task_plan.latency_bound_s = task.spec.max_latency_s;
    task_plan.admitted = decision.admitted();
    if (decision.admitted()) {
      const PathOption& option = task.options[decision.option_index];
      task_plan.admission_ratio = decision.admission_ratio;
      task_plan.admitted_rate =
          decision.admission_ratio * task.spec.request_rate;
      task_plan.slice_rbs = decision.rbs;
      task_plan.blocks = option.path.blocks;
      task_plan.expected_latency_s =
          instance.end_to_end_latency_s(task, option, decision.rbs);
      task_plan.accuracy = option.accuracy;
      task_plan.inference_time_s = option.inference_time_s;
      task_plan.input_bits = option.input_bits;
      // Safe from parallel lanes: histogram accumulators commute, and the
      // set of observed values is partition-independent.
      ControllerMetrics::instance().expected_latency.observe(
          task_plan.expected_latency_s);
    }
  });

  for (std::size_t t = 0; t < instance.tasks.size(); ++t) {
    const TaskDecision& decision = decisions[t];
    if (decision.admitted()) {
      const PathOption& option =
          instance.tasks[t].options[decision.option_index];
      shared_rbs +=
          decision.admission_ratio * static_cast<double>(decision.rbs);
      for (const edge::BlockIndex b : option.path.blocks) {
        const bool already_deployed = std::binary_search(
            deployed_blocks_.begin(), deployed_blocks_.end(), b);
        if (!already_deployed) new_blocks.insert(b);
      }
    }
  }
  result.tasks = std::move(task_plans);

  for (const edge::BlockIndex b : new_blocks) {
    result.deployed_blocks.push_back(b);
    // Memory is charged from the *original* catalog (the zeroed copies in
    // the incremental instance only affect the solver's view).
    result.memory_committed_bytes += catalog.block(b).memory_bytes;
  }
  std::sort(result.deployed_blocks.begin(), result.deployed_blocks.end());
  result.compute_committed_s = result.solution.cost.inference_compute_s;
  result.rbs_committed =
      static_cast<std::size_t>(std::ceil(shared_rbs - 1e-9));
  if (cache != nullptr) cache->insert(std::move(*cache_key), result);
  return result;
}

void OffloadnnController::commit(const DeploymentPlan& plan,
                                 const edge::DnnCatalog& catalog) {
  ODN_TRACE_SPAN("controller", "controller.commit");
  ControllerMetrics& metrics = ControllerMetrics::instance();
  metrics.commits.inc();
  for (const TaskPlan& task : plan.tasks) {
    if (task.admitted)
      metrics.admissions.inc();
    else
      metrics.rejections.inc();
  }
  bool admitted_any = false;
  for (const TaskPlan& task : plan.tasks) {
    if (!task.admitted) continue;
    admitted_any = true;
    for (const edge::BlockIndex b : task.blocks)
      block_memory_[b] = catalog.block(b).memory_bytes;
    active_.push_back(TaskCommitment{
        .name = task.task_name,
        .compute_s = task.admitted_rate * task.inference_time_s,
        .shared_rbs = task.admission_ratio *
                      static_cast<double>(task.slice_rbs),
        .blocks = task.blocks});
  }

  // The solver honoured the (discounted) capacities, so rebuilding the
  // ledger from the active-task commitments must succeed; a throw here
  // indicates an internal inconsistency rather than a user error. With
  // nothing admitted the commitments are unchanged, and so is the ledger
  // every earlier rebuild (or reset) left.
  if (admitted_any) rebuild_ledger();

  util::log_info("controller",
                 "{} admission: {}/{} tasks admitted, {:.1f} MB deployed, "
                 "{} RBs, obj {:.4f}",
                 plan.solution.solver_name, plan.solution.cost.admitted_tasks,
                 plan.tasks.size(), plan.memory_committed_bytes / 1e6,
                 plan.rbs_committed, plan.solution.cost.objective);
}

}  // namespace odn::core
