// Fixed-size thread pool with a blocking task queue, plus parallel_for /
// parallel_for_chunks helpers that block until all iterations complete.
// Used by the `parallel` backend and the pooled radix sort; with one
// hardware thread everything degrades gracefully to serial execution.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace prpb::util {

class ThreadPool {
 public:
  /// `threads == 0` means hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  ~ThreadPool();

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Enqueues a task; the returned future reports completion/exception.
  std::future<void> submit(std::function<void()> task);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::packaged_task<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Runs body(i) for i in [begin, end) across `pool`, splitting the range into
/// roughly 4×threads chunks. Blocks until done; rethrows the first exception.
void parallel_for(ThreadPool& pool, std::uint64_t begin, std::uint64_t end,
                  const std::function<void(std::uint64_t)>& body);

/// Runs body(chunk_begin, chunk_end) once per chunk. Lower overhead than
/// parallel_for when the body can vectorize over a range.
void parallel_for_chunks(
    ThreadPool& pool, std::uint64_t begin, std::uint64_t end,
    const std::function<void(std::uint64_t, std::uint64_t)>& body);

}  // namespace prpb::util
