#include "engine/pool.hpp"

#include <algorithm>

namespace ppde::engine {

WorkerPool::WorkerPool(unsigned threads) {
  workers_ = threads != 0
                 ? threads
                 : std::max(1u, std::thread::hardware_concurrency());
  threads_.reserve(workers_ - 1);
  for (unsigned i = 0; i + 1 < workers_; ++i)
    threads_.emplace_back([this, worker = i + 1] { worker_loop(worker); });
}

WorkerPool::~WorkerPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

void WorkerPool::run_indices(unsigned worker) {
  for (std::uint64_t i;
       (i = next_.fetch_add(1, std::memory_order_relaxed)) < count_;) {
    try {
      (*body_)(worker, i);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
  }
}

void WorkerPool::worker_loop(unsigned worker) {
  std::uint64_t seen_generation = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    work_cv_.wait(lock, [&] {
      return stop_ || generation_ != seen_generation;
    });
    if (stop_) return;
    seen_generation = generation_;
    lock.unlock();
    run_indices(worker);
    lock.lock();
    if (--pending_ == 0) done_cv_.notify_all();
  }
}

void WorkerPool::parallel_for_workers(
    std::uint64_t count,
    const std::function<void(unsigned, std::uint64_t)>& body) {
  if (count == 0) return;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    body_ = &body;
    count_ = count;
    first_error_ = nullptr;
    pending_ = workers_ - 1;
    next_.store(0, std::memory_order_relaxed);
    ++generation_;
  }
  if (workers_ > 1) work_cv_.notify_all();
  run_indices(0);  // the calling thread participates as worker 0
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [&] { return pending_ == 0; });
  body_ = nullptr;
  if (first_error_) {
    const std::exception_ptr error = first_error_;
    first_error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

}  // namespace ppde::engine
