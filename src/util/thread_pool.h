// Fixed-size thread pool with a parallel-for helper and a process-wide
// shared instance used by every hot path (GEMM, convolution batching, the
// solver branch fan-out, controller plan assembly).
//
// Tasks must not throw across the pool boundary; parallel_for captures the
// first exception and rethrows it on the caller thread.
//
// Determinism contract: every caller of global_parallel_for partitions its
// work so that distinct indices touch disjoint output state and the
// per-index arithmetic is independent of the partitioning. Under that
// discipline the parallel result is bit-identical to the serial one, so
// ODN_THREADS=1 (or set_thread_count(1)) is an exact escape hatch — the
// differential tests in tests/nn/test_parallel_gemm.cpp and
// tests/core/test_parallel_solvers.cpp enforce it.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "util/function_ref.h"

namespace odn::util {

class ThreadPool {
 public:
  // worker_count == 0 means hardware_concurrency (clamped to at least 1).
  explicit ThreadPool(std::size_t worker_count = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t worker_count() const noexcept { return workers_.size(); }

  // Enqueue a task; returns immediately.
  void submit(std::function<void()> task);

  // Block until every submitted task has finished.
  void wait_idle();

  // Run body(i) for i in [0, count), partitioned in contiguous chunks across
  // the pool plus the calling thread. Blocks until all iterations complete.
  // The first exception thrown by any iteration is rethrown here. Called
  // from inside a pool task (or a parallel_for lane), it degrades to a
  // serial loop — nested dispatch would deadlock on wait_idle.
  void parallel_for(std::size_t count, FunctionRef<void(std::size_t)> body);

  // True on the calling thread while it executes a pool task or a
  // parallel_for lane. Hot paths use it to serialize nested parallelism.
  static bool in_parallel_region() noexcept;

  // Process-wide shared pool (lazily constructed).
  static ThreadPool& shared();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
};

// The pool every parallel hot path dispatches to. Sizing, in precedence
// order: the last set_thread_count() value, the ODN_THREADS environment
// variable, hardware_concurrency. A size of 1 disables parallel dispatch
// entirely (global_parallel_for runs the loop on the caller).
ThreadPool& global_pool();

// Effective worker count of the global pool (resolving env/hardware even
// before the pool is first used).
std::size_t global_thread_count();

// Replace the global pool with one of `count` workers (0 = re-resolve from
// ODN_THREADS / hardware). set_thread_count(1) is the determinism escape
// hatch: every hot path then runs serially. Must not be called while
// parallel work is in flight.
void set_thread_count(std::size_t count);

// Run body(i) for i in [0, count) on the global pool, or serially when the
// pool is serial (one thread), the count is trivial, or the caller is
// already inside a parallel region. Bit-identical results either way as
// long as distinct indices touch disjoint state. `body` is taken by
// reference, so a call allocates nothing on the serial path.
void global_parallel_for(std::size_t count,
                         FunctionRef<void(std::size_t)> body);

}  // namespace odn::util
