#include "edge/dnn_catalog.h"

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

double DnnPath::unique_memory_bytes(
    const std::vector<CatalogBlock>& blocks_table) const {
  std::unordered_set<BlockIndex> seen;
  double total = 0.0;
  for (const BlockIndex b : blocks)
    if (seen.insert(b).second) total += blocks_table.at(b).memory_bytes;
  return total;
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
  std::unordered_set<BlockIndex> seen;
  double total = 0.0;
  for (const BlockIndex b : path.blocks)
    if (seen.insert(b).second) total += block(b).training_cost_s;
  return total;
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
