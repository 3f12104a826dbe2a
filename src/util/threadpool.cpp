#include "util/threadpool.hpp"

#include <algorithm>
#include <exception>

namespace prpb::util {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  std::future<void> future = packaged.get_future();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    queue_.push(std::move(packaged));
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();  // exceptions land in the future
  }
}

void parallel_for_chunks(
    ThreadPool& pool, std::uint64_t begin, std::uint64_t end,
    const std::function<void(std::uint64_t, std::uint64_t)>& body) {
  if (begin >= end) return;
  const std::uint64_t total = end - begin;
  const std::uint64_t chunks =
      std::min<std::uint64_t>(total, std::max<std::uint64_t>(1, pool.size() * 4));
  const std::uint64_t chunk = (total + chunks - 1) / chunks;
  std::vector<std::future<void>> futures;
  futures.reserve(chunks);
  for (std::uint64_t lo = begin; lo < end; lo += chunk) {
    const std::uint64_t hi = std::min(end, lo + chunk);
    futures.push_back(pool.submit([&body, lo, hi] { body(lo, hi); }));
  }
  // Wait for every chunk before rethrowing the first failure: a chunk
  // still queued or running would otherwise call `body` after the
  // caller's frame, which owns it, is gone.
  std::exception_ptr first_error;
  for (auto& future : futures) {
    try {
      future.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

void parallel_for(ThreadPool& pool, std::uint64_t begin, std::uint64_t end,
                  const std::function<void(std::uint64_t)>& body) {
  parallel_for_chunks(pool, begin, end,
                      [&body](std::uint64_t lo, std::uint64_t hi) {
                        for (std::uint64_t i = lo; i < hi; ++i) body(i);
                      });
}

}  // namespace prpb::util
