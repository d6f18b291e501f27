#include "edge/dnn_catalog.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

#include "util/fmt.h"

namespace odn::edge {

const char* architecture_name(Architecture architecture) {
  switch (architecture) {
    case Architecture::kResNet:
      return "resnet";
    case Architecture::kTransformer:
      return "transformer";
  }
  return "unknown";
}

double DnnPath::inference_time_s(
    const std::vector<CatalogBlock>& blocks_table) const {
  double total = 0.0;
  for (const BlockIndex b : blocks) total += blocks_table.at(b).inference_time_s;
  return total;
}

namespace {

// Σ cost(b) over the path's distinct blocks, each counted at its first
// occurrence, so the floating-point sum runs in path order. Paths are a
// handful of blocks: a scan of the earlier ones allocates nothing. Long
// paths (only a hostile instance file builds one) take a hash set, so the
// sum stays linear in the path length.
template <class Cost>
double sum_distinct(const std::vector<BlockIndex>& path, Cost cost) {
  constexpr std::size_t kScanLimit = 32;
  double total = 0.0;
  if (path.size() <= kScanLimit) {
    for (auto it = path.begin(); it != path.end(); ++it)
      if (std::find(path.begin(), it, *it) == it) total += cost(*it);
    return total;
  }
  std::unordered_set<BlockIndex> seen;
  for (const BlockIndex b : path)
    if (seen.insert(b).second) total += cost(b);
  return total;
}

}  // namespace

double DnnPath::unique_memory_bytes(
    const std::vector<CatalogBlock>& blocks_table) const {
  return sum_distinct(blocks, [&](BlockIndex b) {
    return blocks_table.at(b).memory_bytes;
  });
}

std::vector<CatalogBlock>& DnnCatalog::own_blocks() {
  if (blocks_ == nullptr)
    blocks_ = std::make_shared<std::vector<CatalogBlock>>();
  else if (blocks_.use_count() > 1)
    blocks_ = std::make_shared<std::vector<CatalogBlock>>(*blocks_);
  return *blocks_;
}

const std::vector<CatalogBlock>& DnnCatalog::blocks() const noexcept {
  static const std::vector<CatalogBlock> kEmpty;
  return blocks_ != nullptr ? *blocks_ : kEmpty;
}

BlockIndex DnnCatalog::add_block(CatalogBlock block) {
  if (block.inference_time_s < 0.0 || block.memory_bytes < 0.0 ||
      block.training_cost_s < 0.0)
    throw std::invalid_argument(
        util::fmt("DnnCatalog: negative cost on block '{}'", block.name));
  std::vector<CatalogBlock>& table = own_blocks();
  table.push_back(std::move(block));
  return static_cast<BlockIndex>(table.size() - 1);
}

void DnnCatalog::mark_deployed(BlockIndex index) {
  if (index >= block_count())
    throw std::out_of_range(
        util::fmt("DnnCatalog: block index {} out of {}", index,
                  block_count()));
  CatalogBlock& block = own_blocks()[index];
  block.memory_bytes = 0.0;
  block.training_cost_s = 0.0;
}

void DnnCatalog::unmark_deployed(BlockIndex index,
                                 const DnnCatalog& original) {
  (void)block(index);  // range check
  const CatalogBlock& source = original.block(index);
  CatalogBlock& block = own_blocks()[index];
  block.memory_bytes = source.memory_bytes;
  block.training_cost_s = source.training_cost_s;
}

const CatalogBlock& DnnCatalog::block(BlockIndex index) const {
  if (index >= block_count())
    throw std::out_of_range(
        util::fmt("DnnCatalog: block index {} out of {}", index,
                  block_count()));
  return (*blocks_)[index];
}

double DnnCatalog::path_inference_time_s(const DnnPath& path) const {
  return path.inference_time_s(blocks());
}

double DnnCatalog::path_memory_bytes(const DnnPath& path) const {
  return path.unique_memory_bytes(blocks());
}

double DnnCatalog::path_training_cost_s(const DnnPath& path) const {
  return sum_distinct(path.blocks, [&](BlockIndex b) {
    return block(b).training_cost_s;
  });
}

Architecture DnnCatalog::path_architecture(const DnnPath& path) const {
  if (path.blocks.empty())
    throw std::invalid_argument(
        util::fmt("DnnCatalog: path '{}' has no blocks", path.name));
  return block(path.blocks.front()).architecture;
}

void DnnCatalog::validate_path(const DnnPath& path) const {
  if (path.blocks.empty())
    throw std::invalid_argument(
        util::fmt("DnnCatalog: path '{}' has no blocks", path.name));
  for (const BlockIndex b : path.blocks) (void)block(b);
  const Architecture architecture = block(path.blocks.front()).architecture;
  for (const BlockIndex b : path.blocks) {
    if (block(b).architecture != architecture)
      throw std::invalid_argument(util::fmt(
          "DnnCatalog: path '{}' mixes architectures ({} block '{}' on a {} "
          "path)",
          path.name, architecture_name(block(b).architecture), block(b).name,
          architecture_name(architecture)));
  }
  if (path.accuracy < 0.0 || path.accuracy > 1.0)
    throw std::invalid_argument(
        util::fmt("DnnCatalog: path '{}' accuracy {} outside [0,1]",
                  path.name, path.accuracy));
}

}  // namespace odn::edge
