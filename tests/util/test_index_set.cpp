// IndexSet: the ascending served-job index of the event loops. A walk must
// visit exactly the indices a filtered full scan would, in the same order,
// whatever order they were inserted and erased in.
#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "util/index_set.h"
#include "util/rng.h"

namespace odn::util {
namespace {

std::vector<std::size_t> contents(const IndexSet& set) {
  return {set.begin(), set.end()};
}

TEST(IndexSet, IteratesInAscendingOrderWhateverTheInsertOrder) {
  IndexSet set;
  for (const std::size_t i : {7u, 2u, 9u, 0u, 4u}) set.insert(i);
  EXPECT_EQ(contents(set), (std::vector<std::size_t>{0, 2, 4, 7, 9}));
  set.erase(4);
  set.erase(0);
  EXPECT_EQ(contents(set), (std::vector<std::size_t>{2, 7, 9}));
  EXPECT_EQ(set.size(), 3u);
}

TEST(IndexSet, DoubleInsertAndAbsentEraseThrow) {
  IndexSet set;
  set.insert(3);
  EXPECT_THROW(set.insert(3), std::logic_error);
  EXPECT_THROW(set.erase(5), std::logic_error);
  set.erase(3);
  EXPECT_TRUE(set.empty());
  EXPECT_THROW(set.erase(3), std::logic_error);
}

TEST(IndexSet, MatchesAFilteredFullScanUnderRandomChurn) {
  // The event loops' contract: iterating the set equals scanning a flag
  // vector in index order and keeping the set flags.
  Rng rng(17);
  std::vector<bool> flag(200, false);
  IndexSet set;
  for (int step = 0; step < 5000; ++step) {
    const auto i = static_cast<std::size_t>(rng.uniform_int(0, 199));
    if (flag[i])
      set.erase(i);
    else
      set.insert(i);
    flag[i] = !flag[i];
    if (step % 97 != 0) continue;
    std::vector<std::size_t> scan;
    for (std::size_t j = 0; j < flag.size(); ++j)
      if (flag[j]) scan.push_back(j);
    ASSERT_EQ(contents(set), scan) << "step " << step;
  }
}

}  // namespace
}  // namespace odn::util
