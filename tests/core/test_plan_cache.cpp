// LruMap + PlanCache unit suite: recency/eviction order, overwrite
// semantics, local-stats/obs-metrics agreement, and the determinism
// property that cache capacity never changes what a controller returns —
// only how fast (eviction pressure at capacity 1 vs unbounded-for-the-run
// capacity must produce byte-identical plans).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/controller.h"
#include "core/lru_map.h"
#include "core/plan_cache.h"
#include "core/scenarios.h"
#include "obs/metrics.h"
#include "solver_equivalence.h"

namespace odn::core {
namespace {

TEST(LruMap, RejectsZeroCapacity) {
  EXPECT_THROW(LruMap<int>(0), std::invalid_argument);
}

TEST(LruMap, EvictsLeastRecentlyUsedInOrder) {
  LruMap<int> map(3);
  map.insert("a", 1);
  map.insert("b", 2);
  map.insert("c", 3);
  EXPECT_EQ(map.size(), 3u);
  EXPECT_EQ(map.mru_key(), "c");
  EXPECT_EQ(map.lru_key(), "a");

  // Touching "a" promotes it; "b" becomes the eviction victim.
  ASSERT_NE(map.find("a"), nullptr);
  EXPECT_EQ(map.mru_key(), "a");
  EXPECT_EQ(map.lru_key(), "b");

  map.insert("d", 4);
  EXPECT_EQ(map.size(), 3u);
  EXPECT_EQ(map.evictions(), 1u);
  EXPECT_EQ(map.find("b"), nullptr) << "LRU entry survived";
  EXPECT_NE(map.find("a"), nullptr);
  EXPECT_NE(map.find("c"), nullptr);
  EXPECT_NE(map.find("d"), nullptr);
}

TEST(LruMap, OverwriteUpdatesInPlaceWithoutEviction) {
  LruMap<int> map(2);
  map.insert("a", 1);
  map.insert("b", 2);
  map.insert("a", 10);  // overwrite, not a new entry
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map.evictions(), 0u);
  EXPECT_EQ(*map.find("a"), 10);
  EXPECT_EQ(map.mru_key(), "a");
}

TEST(LruMap, FindPromotesSurvivorsUnderPressure) {
  LruMap<int> map(2);
  map.insert("hot", 1);
  map.insert("cold1", 2);
  for (int i = 0; i < 10; ++i) {
    ASSERT_NE(map.find("hot"), nullptr) << "round " << i;
    map.insert("cold" + std::to_string(i + 2), i);
  }
  // "hot" survived ten eviction rounds because every round re-touched it.
  EXPECT_NE(map.find("hot"), nullptr);
  EXPECT_EQ(map.evictions(), 10u);
}

// Memo keys are ~700-byte canonical encodings that mostly differ late:
// keys sharing a long prefix, differing only in their last byte, or being
// a prefix of one another must never alias.
TEST(LruMap, LongSharedPrefixKeysNeverAlias) {
  const std::string prefix(700, '\x5a');
  const auto with_tail = [](std::string key, std::string_view tail) {
    key.append(tail);
    return key;
  };
  const std::vector<std::string> keys{
      prefix,
      with_tail(prefix, "a"),
      with_tail(prefix, "b"),
      with_tail(prefix, std::string_view("\0", 1)),
      with_tail(prefix, "ab"),
      with_tail(std::string(699, '\x5a'), "a")};
  LruMap<int> map(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i)
    map.insert(keys[i], static_cast<int>(i));
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const int* hit = map.find(keys[i]);
    ASSERT_NE(hit, nullptr) << "key " << i;
    EXPECT_EQ(*hit, static_cast<int>(i)) << "key " << i;
    // A hashed key and a plain view of the same bytes reach one entry.
    EXPECT_EQ(map.find(MemoKey(keys[i])), hit) << "key " << i;
  }
  EXPECT_EQ(map.find(with_tail(prefix, "c")), nullptr);
  EXPECT_EQ(map.find(std::string(701, '\x5a')), nullptr);
  EXPECT_EQ(map.evictions(), 0u);
}

// The index compares every byte after the hash: a forged equal hash over
// different bytes is a different key.
TEST(LruMap, EqualHashesWithDifferentBytesAreDifferentKeys) {
  const MemoKeyRef a{"key-a", 42};
  const MemoKeyRef b{"key-b", 42};
  EXPECT_FALSE(a == b);
  EXPECT_TRUE(a == (MemoKeyRef{"key-a", 42}));
  EXPECT_FALSE(a == (MemoKeyRef{"key-a", 43}));
  EXPECT_EQ(MemoKey("abc").hash(), MemoKey::hash_of("abc"));
  EXPECT_EQ(MemoKey("abc"), MemoKey("abc"));
  EXPECT_FALSE(MemoKey("abc") == MemoKey("abd"));
}

// Hashed-key insertions keep the plain-string semantics: eviction order,
// in-place overwrite, and the stored key trimmed to its exact size.
TEST(LruMap, HashedKeysKeepEvictionOrderAndOverwrite) {
  LruMap<int> map(2);
  map.insert(MemoKey(std::string(40, 'a')), 1);
  map.insert(MemoKey(std::string(40, 'b')), 2);
  map.insert(MemoKey(std::string(40, 'a')), 10);  // overwrite, promotes
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map.evictions(), 0u);
  EXPECT_EQ(map.lru_key(), std::string(40, 'b'));
  map.insert(MemoKey(std::string(40, 'c')), 3);
  EXPECT_EQ(map.evictions(), 1u);
  EXPECT_EQ(map.find(std::string(40, 'b')), nullptr);
  EXPECT_EQ(*map.find(std::string(40, 'a')), 10);

  std::string roomy;
  roomy.reserve(4096);
  roomy.assign(700, 'r');
  map.insert(MemoKey(std::move(roomy)), 4);
  EXPECT_EQ(map.mru_key().size(), 700u);
  EXPECT_EQ(map.mru_key().capacity(), 700u);
}

TEST(LruMap, EmptyKeyAccessorsThrow) {
  LruMap<int> map(2);
  EXPECT_THROW(map.mru_key(), std::logic_error);
  EXPECT_THROW(map.lru_key(), std::logic_error);
}

DeploymentPlan make_plan(const std::string& name) {
  DeploymentPlan plan;
  plan.solution.solver_name = name;
  plan.tasks.push_back(TaskPlan{name, true, 1.0, 2.0, 3, {0, 1}, 0.1, 0.2,
                                0.9, 0.05, 1e5});
  return plan;
}

// Local stats and the global obs counters must move in lockstep: the
// exported odn_plan_cache_* totals are deltas of exactly these events.
TEST(PlanCache, StatsMatchObsCounterDeltas) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  const std::uint64_t hits0 =
      registry.counter("odn_plan_cache_hits_total").value();
  const std::uint64_t misses0 =
      registry.counter("odn_plan_cache_misses_total").value();
  const std::uint64_t insertions0 =
      registry.counter("odn_plan_cache_insertions_total").value();
  const std::uint64_t evictions0 =
      registry.counter("odn_plan_cache_evictions_total").value();

  PlanCache cache(2);
  EXPECT_EQ(cache.find(MemoKey("k1")), nullptr);  // miss
  cache.insert(MemoKey("k1"), make_plan("p1"));   // insertion
  EXPECT_NE(cache.find(MemoKey("k1")), nullptr);  // hit
  cache.insert(MemoKey("k2"), make_plan("p2"));   // insertion
  cache.insert(MemoKey("k3"), make_plan("p3"));   // insertion + eviction
  EXPECT_EQ(cache.find(MemoKey("k1")), nullptr);  // miss (evicted)

  const PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.insertions, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.capacity(), 2u);

  EXPECT_EQ(registry.counter("odn_plan_cache_hits_total").value() - hits0,
            stats.hits);
  EXPECT_EQ(
      registry.counter("odn_plan_cache_misses_total").value() - misses0,
      stats.misses);
  EXPECT_EQ(registry.counter("odn_plan_cache_insertions_total").value() -
                insertions0,
            stats.insertions);
  EXPECT_EQ(registry.counter("odn_plan_cache_evictions_total").value() -
                evictions0,
            stats.evictions);
}

// Plan keys are written at their exact size (the builder reserves what it
// will write), so they never regrow and the cache stores them untrimmed —
// with and without deployed blocks in the key.
TEST(PlanCache, ProbeKeysAreBuiltAtExactSize) {
  const DotInstance world = make_large_scenario(RequestRate::kLow);
  OffloadnnController::Options options;
  options.alpha = world.alpha;
  OffloadnnController controller(world.resources, world.radio, options);
  for (std::size_t t = 0; t < 4; ++t) {
    const std::vector<DotTask> requests{world.tasks[t], world.tasks[t + 4]};
    const MemoKey key = controller.probe_cache_key(world.catalog, requests);
    EXPECT_EQ(key.bytes().capacity(), key.bytes().size()) << "step " << t;
    // A caller-supplied encoding splices to the very same key.
    const EncodedTaskSet encoded(requests);
    EXPECT_EQ(key, controller.probe_cache_key(world.catalog, requests,
                                              nullptr, &encoded));
    (void)controller.admit_incremental(world.catalog, {world.tasks[t]});
  }
  EXPECT_FALSE(controller.deployed_blocks().empty());
}

TEST(PlanCache, StoresPlansByValue) {
  PlanCache cache(4);
  cache.insert(MemoKey("k"), make_plan("stored"));
  const DeploymentPlan* hit = cache.find(MemoKey("k"));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(odn::testing::serialize_plan(*hit),
            odn::testing::serialize_plan(make_plan("stored")));
}

// Eviction pressure never changes bytes: a controller with a capacity-1
// plan cache (evicting on almost every insert) must emit exactly the
// transcript of one with room for the whole run. Capacity changes only
// hit rates, never results.
TEST(PlanCache, EvictionPressureDoesNotChangePlans) {
  const DotInstance world = testing::random_instance(21);
  const auto transcript = [&](std::size_t capacity) {
    OffloadnnController::Options options;
    options.alpha = world.alpha;
    options.cache.plan_capacity = capacity;
    options.cache.solver.clique_capacity = capacity;
    options.cache.solver.branch_capacity = capacity;
    options.cache.solver.solve_capacity = capacity;
    OffloadnnController controller(world.resources, world.radio, options);
    std::string log;
    for (std::size_t step = 0; step < 40; ++step) {
      DotTask task = world.tasks[step % world.tasks.size()];
      task.spec.name = "t" + std::to_string(step);
      log += odn::testing::serialize_plan(
          controller.probe_incremental(world.catalog, {task}));
      log += odn::testing::serialize_plan(
          controller.admit_incremental(world.catalog, {task}));
      if (step % 4 == 3) controller.release("t" + std::to_string(step));
    }
    return log;
  };
  const std::string tiny = transcript(1);
  EXPECT_EQ(transcript(4096), tiny);
}

}  // namespace
}  // namespace odn::core
