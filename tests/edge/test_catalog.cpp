#include "edge/dnn_catalog.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/fingerprint.h"

namespace odn::edge {
namespace {

DnnCatalog sample_catalog() {
  DnnCatalog catalog;
  catalog.add_block({"shared-1", BlockKind::kSharedBase, 1.0e-3, 10e6, 0.0});
  catalog.add_block({"shared-2", BlockKind::kSharedBase, 2.0e-3, 20e6, 0.0});
  catalog.add_block({"ft-3", BlockKind::kFineTuned, 3.0e-3, 30e6, 50.0});
  catalog.add_block({"pruned-4", BlockKind::kPruned, 1.0e-3, 8e6, 60.0});
  return catalog;
}

void expect_costs(const DnnCatalog& catalog, BlockIndex b, double memory,
                  double training) {
  EXPECT_EQ(catalog.block(b).memory_bytes, memory) << "block " << b;
  EXPECT_EQ(catalog.block(b).training_cost_s, training) << "block " << b;
}

TEST(DnnCatalog, AddAndLookup) {
  DnnCatalog catalog;
  const BlockIndex index =
      catalog.add_block({"b", BlockKind::kSharedBase, 1e-3, 1e6, 0.0});
  EXPECT_EQ(index, 0u);
  EXPECT_EQ(catalog.block_count(), 1u);
  EXPECT_EQ(catalog.block(index).name, "b");
}

TEST(DnnCatalog, BadIndexThrows) {
  const DnnCatalog catalog;
  EXPECT_THROW(catalog.block(0), std::out_of_range);
}

TEST(DnnCatalog, NegativeCostsRejected) {
  DnnCatalog catalog;
  EXPECT_THROW(
      catalog.add_block({"x", BlockKind::kSharedBase, -1.0, 1e6, 0.0}),
      std::invalid_argument);
  EXPECT_THROW(
      catalog.add_block({"x", BlockKind::kSharedBase, 1.0, -1e6, 0.0}),
      std::invalid_argument);
  EXPECT_THROW(
      catalog.add_block({"x", BlockKind::kSharedBase, 1.0, 1e6, -1.0}),
      std::invalid_argument);
}

TEST(DnnCatalog, PathInferenceTimeSumsAllBlocks) {
  const DnnCatalog catalog = sample_catalog();
  DnnPath path{"p", {0, 1, 2, 3}, 0.9};
  EXPECT_NEAR(catalog.path_inference_time_s(path), 7.0e-3, 1e-12);
}

TEST(DnnCatalog, PathMemoryCountsDistinctBlocksOnce) {
  const DnnCatalog catalog = sample_catalog();
  DnnPath path{"p", {0, 0, 1}, 0.8};  // block 0 referenced twice
  EXPECT_NEAR(catalog.path_memory_bytes(path), 30e6, 1.0);
}

TEST(DnnCatalog, PathTrainingCostCountsDistinctBlocksOnce) {
  const DnnCatalog catalog = sample_catalog();
  DnnPath path{"p", {2, 3, 3}, 0.8};
  EXPECT_NEAR(catalog.path_training_cost_s(path), 110.0, 1e-9);
}

TEST(DnnCatalog, SharedBlocksCostNothingToTrain) {
  const DnnCatalog catalog = sample_catalog();
  DnnPath path{"p", {0, 1}, 0.7};
  EXPECT_DOUBLE_EQ(catalog.path_training_cost_s(path), 0.0);
}

TEST(DnnCatalog, ValidatePathChecksBlocksAndAccuracy) {
  const DnnCatalog catalog = sample_catalog();
  DnnPath empty{"e", {}, 0.5};
  EXPECT_THROW(catalog.validate_path(empty), std::invalid_argument);
  DnnPath bad_block{"b", {99}, 0.5};
  EXPECT_THROW(catalog.validate_path(bad_block), std::out_of_range);
  DnnPath bad_accuracy{"a", {0}, 1.5};
  EXPECT_THROW(catalog.validate_path(bad_accuracy), std::invalid_argument);
  DnnPath good{"g", {0, 1}, 0.9};
  EXPECT_NO_THROW(catalog.validate_path(good));
}

TEST(DnnPath, HelpersMatchCatalogMethods) {
  const DnnCatalog catalog = sample_catalog();
  DnnPath path{"p", {1, 2}, 0.8};
  EXPECT_DOUBLE_EQ(path.inference_time_s(catalog.blocks()),
                   catalog.path_inference_time_s(path));
  EXPECT_DOUBLE_EQ(path.unique_memory_bytes(catalog.blocks()),
                   catalog.path_memory_bytes(path));
}

// Repeated blocks count once, at their first occurrence, so the sum runs
// in path order: µ1 + µ0 + µ3 here, whatever the repeats around them.
TEST(DnnPath, UniqueMemoryOfRepeatedBlocksSumsFirstOccurrencesInOrder) {
  const DnnCatalog catalog = sample_catalog();
  const DnnPath path{"repeats", {1, 0, 1, 3, 0, 1}, 0.7};
  const double expected = (20e6 + 10e6) + 8e6;
  EXPECT_EQ(path.unique_memory_bytes(catalog.blocks()), expected);
  EXPECT_EQ(catalog.path_memory_bytes(path), expected);
  EXPECT_EQ(catalog.path_training_cost_s(path), (0.0 + 0.0) + 60.0);
}

// Paths past the scan limit take the hash-set route; both routes agree
// (in value and in summation order) on the same distinct-block sequence.
TEST(DnnPath, LongRepeatedPathMatchesItsShortForm) {
  DnnCatalog catalog;
  std::vector<BlockIndex> distinct;
  for (int b = 0; b < 12; ++b)
    distinct.push_back(catalog.add_block(
        {std::to_string(b), BlockKind::kFineTuned, 1e-3,
         1e6 * (1.0 + 0.37 * b), 3.0 + 0.11 * b}));
  DnnPath long_path{"long", {}, 0.5};
  for (int round = 0; round < 8; ++round)  // 96 blocks, 12 distinct
    for (const BlockIndex b : distinct) long_path.blocks.push_back(b);
  const DnnPath short_path{"short", distinct, 0.5};
  EXPECT_EQ(catalog.path_memory_bytes(long_path),
            catalog.path_memory_bytes(short_path));
  EXPECT_EQ(catalog.path_training_cost_s(long_path),
            catalog.path_training_cost_s(short_path));
}

TEST(DnnCatalog, UnmarkDeployedRestoresTheOriginalCosts) {
  const DnnCatalog original = sample_catalog();
  DnnCatalog patched = original;
  patched.mark_deployed(2);
  patched.mark_deployed(3);
  patched.unmark_deployed(2, original);
  expect_costs(patched, 2, 30e6, 50.0);
  expect_costs(patched, 3, 0.0, 0.0);
  expect_costs(original, 3, 8e6, 60.0);  // the source never changed
  patched.unmark_deployed(3, original);
  EXPECT_EQ(core::catalog_digest(patched), core::catalog_digest(original));
  EXPECT_THROW(patched.unmark_deployed(9, original), std::out_of_range);
}

// Copy-on-write block table: copies share it, and a mutation on either
// side must never show through on the other.
void expect_same_blocks(const DnnCatalog& a, const DnnCatalog& b) {
  ASSERT_EQ(a.block_count(), b.block_count());
  for (BlockIndex i = 0; i < a.block_count(); ++i) {
    EXPECT_EQ(a.block(i).name, b.block(i).name);
    EXPECT_EQ(a.block(i).kind, b.block(i).kind);
    EXPECT_EQ(a.block(i).inference_time_s, b.block(i).inference_time_s);
    EXPECT_EQ(a.block(i).memory_bytes, b.block(i).memory_bytes);
    EXPECT_EQ(a.block(i).training_cost_s, b.block(i).training_cost_s);
    EXPECT_EQ(a.block(i).architecture, b.block(i).architecture);
  }
  EXPECT_EQ(core::catalog_digest(a), core::catalog_digest(b));
}

TEST(DnnCatalogCopyOnWrite, CopiesShareUntilMutated) {
  const DnnCatalog original = sample_catalog();
  const DnnCatalog copy = original;
  EXPECT_TRUE(copy.shares_blocks_with(original));
  expect_same_blocks(copy, original);
}

TEST(DnnCatalogCopyOnWrite, MarkDeployedOnCopyLeavesOriginal) {
  const DnnCatalog original = sample_catalog();
  const DnnCatalog pristine = sample_catalog();  // separately built
  const core::Fingerprint digest = core::catalog_digest(original);

  DnnCatalog copy = original;
  copy.mark_deployed(2);
  EXPECT_FALSE(copy.shares_blocks_with(original));
  EXPECT_EQ(copy.block(2).memory_bytes, 0.0);
  EXPECT_EQ(copy.block(2).training_cost_s, 0.0);
  expect_same_blocks(original, pristine);
  EXPECT_EQ(core::catalog_digest(original), digest);
  EXPECT_NE(core::catalog_digest(copy), digest);
}

TEST(DnnCatalogCopyOnWrite, MarkDeployedOnOriginalLeavesCopy) {
  DnnCatalog original = sample_catalog();
  const DnnCatalog copy = original;
  const core::Fingerprint digest = core::catalog_digest(copy);

  original.mark_deployed(0);
  EXPECT_FALSE(copy.shares_blocks_with(original));
  EXPECT_EQ(original.block(0).memory_bytes, 0.0);
  expect_same_blocks(copy, sample_catalog());
  EXPECT_EQ(core::catalog_digest(copy), digest);
}

TEST(DnnCatalogCopyOnWrite, AddBlockOnEitherSideLeavesTheOther) {
  DnnCatalog original = sample_catalog();
  DnnCatalog copy = original;
  const core::Fingerprint digest = core::catalog_digest(original);

  copy.add_block({"extra", BlockKind::kClassifier, 1e-4, 1e5, 1.0});
  EXPECT_EQ(copy.block_count(), 5u);
  expect_same_blocks(original, sample_catalog());
  EXPECT_EQ(core::catalog_digest(original), digest);

  const DnnCatalog before_add = copy;
  original.add_block({"other", BlockKind::kPruned, 2e-4, 2e5, 2.0});
  EXPECT_EQ(original.block(4).name, "other");
  expect_same_blocks(copy, before_add);
  EXPECT_EQ(copy.block(4).name, "extra");
}

TEST(DnnCatalogCopyOnWrite, UnsharedTableMutatesInPlace) {
  DnnCatalog catalog = sample_catalog();
  {
    const DnnCatalog copy = catalog;
    catalog.mark_deployed(1);  // shared: clones
  }
  // The copy is gone, so the table is this catalog's alone; further
  // mutation must not disturb a copy taken afterwards either.
  catalog.mark_deployed(3);
  const DnnCatalog snapshot = catalog;
  catalog.mark_deployed(0);
  EXPECT_EQ(snapshot.block(0).memory_bytes, 10e6);
  EXPECT_EQ(snapshot.block(1).memory_bytes, 0.0);
  EXPECT_EQ(snapshot.block(3).memory_bytes, 0.0);
  EXPECT_EQ(catalog.block(0).memory_bytes, 0.0);
}

TEST(DnnCatalogCopyOnWrite, MovedFromCatalogReadsEmpty) {
  DnnCatalog source = sample_catalog();
  const DnnCatalog moved = std::move(source);
  EXPECT_EQ(moved.block_count(), 4u);
  // A moved-from catalog is valid and empty; it can be refilled.
  EXPECT_EQ(source.block_count(), 0u);
  EXPECT_TRUE(source.blocks().empty());
  EXPECT_EQ(source.add_block({"b", BlockKind::kSharedBase, 1e-3, 1e6, 0.0}),
            0u);
}

}  // namespace
}  // namespace odn::edge
