// A persistent fixed-size worker pool with a fork-join parallel_for_workers.
//
// Both concurrent components of the library sit on this pool: the trial
// fleet (engine::run_fleet, S21) runs one claim loop per worker, and the
// verification kernel (S22) dispatches one task per block of frontier
// nodes of each exploration wave. Work items are claimed from a shared
// atomic counter, so the pool imposes no assignment of items to threads —
// callers that need determinism (both of the above) must make every
// item's *result* a pure function of its index, never of the executing
// thread.
//
// The calling thread participates in the loop, so a pool of size 1 spawns
// no threads at all and parallel_for_workers degenerates to a plain loop.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ppde::engine {

class WorkerPool {
 public:
  /// `threads` = total workers including the caller; 0 means
  /// std::thread::hardware_concurrency(). Spawns `threads - 1` threads.
  explicit WorkerPool(unsigned threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Total workers (spawned threads + the calling thread).
  unsigned workers() const { return workers_; }

  /// Run body(worker, i) for every i in [0, count), distributing indices
  /// over all workers, and block until every call returned. `worker` is
  /// the stable index of the executing worker (0 = the calling thread,
  /// 1..workers()−1 = spawned threads), so callers can keep per-worker
  /// scratch without thread-local storage; item *results* must still be
  /// pure functions of the item index. `body` must be safe to invoke
  /// concurrently from different threads. If any call throws, the
  /// remaining indices still run and the *first* exception (in order of
  /// detection) is rethrown here after the join. Not reentrant.
  void parallel_for_workers(
      std::uint64_t count,
      const std::function<void(unsigned worker, std::uint64_t)>& body);

 private:
  void worker_loop(unsigned worker);
  void run_indices(unsigned worker);

  unsigned workers_ = 1;
  std::vector<std::thread> threads_;

  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(unsigned, std::uint64_t)>* body_ =
      nullptr;               // guarded
  std::uint64_t count_ = 0;  // guarded
  std::uint64_t generation_ = 0;                              // guarded
  unsigned pending_ = 0;                                      // guarded
  bool stop_ = false;                                         // guarded
  std::exception_ptr first_error_;                            // guarded
  std::atomic<std::uint64_t> next_{0};
};

}  // namespace ppde::engine
