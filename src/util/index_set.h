// A set of vector indices kept in ascending order, backed by a sorted
// vector. The event loops use it as the index of their served jobs: a walk
// over the set visits exactly the indices a full scan of the job vector
// would keep, in the same order, at O(set size) instead of O(all jobs).
// Insert and erase shift the tail, which is cheap for the few dozen jobs a
// cell serves at once.
#pragma once

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace odn::util {

class IndexSet {
 public:
  using const_iterator = std::vector<std::size_t>::const_iterator;

  // Adds `index`; throws std::logic_error when it is already present.
  void insert(std::size_t index) {
    const auto it = std::lower_bound(items_.begin(), items_.end(), index);
    if (it != items_.end() && *it == index)
      throw std::logic_error("IndexSet: index inserted twice");
    items_.insert(it, index);
  }

  // Removes `index`; throws std::logic_error when it is absent.
  void erase(std::size_t index) {
    const auto it = std::lower_bound(items_.begin(), items_.end(), index);
    if (it == items_.end() || *it != index)
      throw std::logic_error("IndexSet: erasing an absent index");
    items_.erase(it);
  }

  std::size_t size() const noexcept { return items_.size(); }
  bool empty() const noexcept { return items_.empty(); }
  const_iterator begin() const noexcept { return items_.begin(); }
  const_iterator end() const noexcept { return items_.end(); }

 private:
  std::vector<std::size_t> items_;  // strictly ascending
};

}  // namespace odn::util
