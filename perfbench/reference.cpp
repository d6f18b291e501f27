#include "reference.h"

#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench.h"

namespace perfbench {
namespace {

std::uint64_t next(std::uint64_t& state) {
  state = state * 6364136223846793005ULL + 1442695040888963407ULL;
  return state >> 17;
}

// One random cycle through 32 MiB of indices (Sattolo's shuffle of the
// identity): following it is bound by cache and memory latency, like the
// serving loop's walks over plans and caches.
const std::vector<std::uint32_t>& chase_cycle() {
  static const std::vector<std::uint32_t> cycle = [] {
    std::vector<std::uint32_t> link((32u << 20) / sizeof(std::uint32_t));
    std::iota(link.begin(), link.end(), 0u);
    std::uint64_t state = 3;
    for (std::size_t i = link.size() - 1; i > 0; --i)
      std::swap(link[i], link[next(state) % i]);
    return link;
  }();
  return cycle;
}

// Fixed work in three parts of similar length: a pointer chase over the
// cycle, a hash map under insert/find/erase churn over a million-key space
// (both like the serving loop), and a small dense matrix product (like the
// network layers). Returns a checksum.
std::uint64_t reference_work() {
  const std::vector<std::uint32_t>& cycle = chase_cycle();
  std::uint32_t at = 0;
  for (int step = 0; step < 90000; ++step) at = cycle[at];

  std::uint64_t state = 9;
  std::uint64_t checksum = at;
  std::unordered_map<std::uint64_t, std::uint64_t> map;
  map.reserve(1 << 20);
  for (int op = 0; op < 180000; ++op) {
    const std::uint64_t key = next(state) & 0xfffff;
    switch (next(state) % 3) {
      case 0: map[key] = key * 3 + 1; break;
      case 1: {
        const auto found = map.find(key);
        if (found != map.end()) checksum += found->second;
        break;
      }
      default: map.erase(key); break;
    }
  }
  checksum += map.size();

  constexpr std::size_t n = 96;
  std::vector<float> a(n * n), b(n * n), c(n * n, 0.0f);
  for (std::size_t i = 0; i < n * n; ++i) {
    a[i] = static_cast<float>(next(state) % 100) * 1e-2f;
    b[i] = static_cast<float>(next(state) % 100) * 1e-4f;
  }
  for (int rep = 0; rep < 200; ++rep)
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t k = 0; k < n; ++k) {
        const float aik = a[i * n + k];
        for (std::size_t j = 0; j < n; ++j) c[i * n + j] += aik * b[k * n + j];
      }
  for (const float v : c) checksum += static_cast<std::uint64_t>(v);
  return checksum;
}

}  // namespace

double reference_seconds() {
  static const std::uint64_t expected = reference_work();
  std::vector<double> seconds;
  for (int run = 0; run < 3; ++run) {
    const Clock::time_point start = Clock::now();
    const std::uint64_t checksum = reference_work();
    seconds.push_back(seconds_since(start));
    if (checksum != expected)
      throw std::runtime_error("reference kernel is not deterministic");
  }
  return median(seconds);
}

}  // namespace perfbench
