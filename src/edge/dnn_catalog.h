// The edge DNN repository (Fig. 4): dynamic DNN structures d ∈ D, their
// blocks s^d ∈ S^d, and the paths π^d usable to execute tasks.
//
// A *block* is one or more DNN layers (here: a ResNet layer-block or the
// classifier head), possibly a pruned or fine-tuned variant. Blocks carry
// the experimentally characterized inference compute time c(s), memory
// footprint µ(s) and training cost ct(s). Blocks are identified by catalog
// index: two paths that reference the same index *share* the block, which
// is what makes memory count once and training cost amortize.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace odn::edge {

using BlockIndex = std::uint32_t;

enum class BlockKind : std::uint8_t {
  kSharedBase,   // pretrained, frozen, shareable; ct = 0
  kFineTuned,    // task/DNN-specific fine-tuned variant; ct > 0
  kPruned,       // fine-tuned then structurally pruned; ct > 0, smaller c/µ
  kClassifier,   // task-specific head
};

// Backbone family a block belongs to. Paths must be architecture-uniform:
// a transformer exit head cannot ride on ResNet trunk blocks. Memory
// sharing still works only through block-index identity, so the tag adds
// no sharing semantics — it gates path composition and lets scenarios
// assign architectures per task (the model-zoo extension).
enum class Architecture : std::uint8_t {
  kResNet,
  kTransformer,
};

const char* architecture_name(Architecture architecture);

struct CatalogBlock {
  std::string name;
  BlockKind kind = BlockKind::kSharedBase;
  double inference_time_s = 0.0;  // c(s): per-inference compute time
  double memory_bytes = 0.0;      // µ(s): resident memory when deployed
  double training_cost_s = 0.0;   // ct(s): one-off (fine-)tuning cost
  // Backbone family the block belongs to; paths never mix architectures.
  // Last member so positional aggregate initializers predating the field
  // keep meaning what they said (they default to kResNet).
  Architecture architecture = Architecture::kResNet;
};

// A path π on a DNN structure: the ordered block sequence executing one
// inference, with its experimentally measured accuracy at full input
// quality.
struct DnnPath {
  std::string name;
  std::vector<BlockIndex> blocks;  // four blocks per path in the paper
  double accuracy = 0.0;           // a(π) at full quality

  double inference_time_s(const std::vector<CatalogBlock>& blocks_table) const;
  double unique_memory_bytes(
      const std::vector<CatalogBlock>& blocks_table) const;
};

// Copies of a catalog share one block table (copy-on-write): copying is
// O(1), and add_block / mark_deployed clone the table only while another
// catalog still reads it, so no copy ever observes another's mutation.
// Several threads may read or copy one catalog at once; a write needs
// exclusive access to that catalog object only, not to its copies.
class DnnCatalog {
 public:
  BlockIndex add_block(CatalogBlock block);

  const CatalogBlock& block(BlockIndex index) const;
  std::size_t block_count() const noexcept {
    return blocks_ != nullptr ? blocks_->size() : 0;
  }
  const std::vector<CatalogBlock>& blocks() const noexcept;

  // Zeroes µ(s) and ct(s) for an already-deployed block: it is resident
  // and trained, so an incremental solve sees it as free (the paper's
  // dynamic-scenario rule). Only this catalog changes: copies that share
  // its table keep the original costs. The controller applies this to its
  // own patched copy of the caller's catalog, never to the caller's.
  void mark_deployed(BlockIndex index);
  // Undoes mark_deployed: copies µ(s) and ct(s) of block `index` back from
  // `original`, the catalog this one was patched from. Lets the controller
  // move its patched copy to a new deployed set in O(changed blocks)
  // instead of re-cloning the table.
  void unmark_deployed(BlockIndex index, const DnnCatalog& original);

  // True when both catalogs read the very same block table — identity,
  // not equal content. A table is never mutated while shared, so a holder
  // of a copy can use this to tell that `other` still has that content.
  bool shares_blocks_with(const DnnCatalog& other) const noexcept {
    return blocks_ == other.blocks_;
  }

  // Sum of c(s) over a path's blocks.
  double path_inference_time_s(const DnnPath& path) const;
  // Sum of µ(s) over the path's *distinct* blocks.
  double path_memory_bytes(const DnnPath& path) const;
  // Sum of ct(s) over the path's distinct blocks.
  double path_training_cost_s(const DnnPath& path) const;

  // The single architecture every block of the path shares.
  Architecture path_architecture(const DnnPath& path) const;

  void validate_path(const DnnPath& path) const;

 private:
  // The table this catalog may write: cloned first while it is shared.
  std::vector<CatalogBlock>& own_blocks();

  // nullptr reads as the empty table (default-constructed or moved-from).
  std::shared_ptr<std::vector<CatalogBlock>> blocks_;
};

}  // namespace odn::edge
