#include "dist/comm.hpp"

#include <exception>
#include <thread>

#include "util/error.hpp"

namespace prpb::dist {

Cluster::Cluster(std::size_t ranks) : ranks_(ranks) {
  util::require(ranks >= 1, "Cluster: need at least one rank");
  reduce_slots_.resize(ranks, nullptr);
  mailboxes_.assign(ranks, std::vector<gen::EdgeList>(ranks));
  stats_.resize(ranks);
}

void Cluster::barrier_wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  const std::uint64_t my_generation = generation_;
  if (!first_error_ && ++arrived_ == ranks_) {
    arrived_ = 0;
    ++generation_;
    cv_.notify_all();
    return;
  }
  cv_.wait(lock, [this, my_generation] {
    return generation_ != my_generation || first_error_;
  });
  // A barrier that completed before the abort still counts; one that
  // never will (a rank has left) throws instead of waiting forever.
  if (generation_ == my_generation) {
    throw util::PipelineError("cluster aborted: another rank failed");
  }
}

void Cluster::abort(std::exception_ptr error) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!first_error_) first_error_ = std::move(error);
  cv_.notify_all();
}

void Cluster::run(const std::function<void(Communicator&)>& body) {
  stats_.assign(ranks_, CommStats{});
  arrived_ = 0;
  first_error_ = nullptr;
  std::vector<std::thread> threads;
  threads.reserve(ranks_);
  for (std::size_t r = 0; r < ranks_; ++r) {
    threads.emplace_back([this, &body, r] {
      Communicator comm(*this, r);
      try {
        body(comm);
      } catch (...) {
        abort(std::current_exception());
      }
      stats_[r] = comm.stats();
    });
  }
  for (auto& thread : threads) thread.join();
  if (first_error_) std::rethrow_exception(first_error_);
}

std::uint64_t Cluster::total_bytes() const {
  std::uint64_t total = 0;
  for (const auto& s : stats_) total += s.bytes_sent;
  return total;
}

std::size_t Communicator::size() const { return cluster_->size(); }

void Communicator::barrier() {
  ++stats_.collective_calls;
  cluster_->barrier_wait();
}

void Communicator::allreduce_sum(std::vector<double>& data) {
  ++stats_.collective_calls;
  // Every rank ships its full vector (the paper's "summed across all
  // processors and broadcast back"): P·N·8 bytes of traffic per call.
  stats_.bytes_sent += data.size() * sizeof(double);
  {
    const std::lock_guard<std::mutex> lock(cluster_->mutex_);
    cluster_->reduce_slots_[rank_] = &data;
  }
  cluster_->barrier_wait();
  if (rank_ == 0) {
    auto& acc = cluster_->reduce_accumulator_;
    acc.assign(data.size(), 0.0);
    for (std::size_t r = 0; r < size(); ++r) {
      const auto* slot = cluster_->reduce_slots_[r];
      util::ensure(slot != nullptr && slot->size() == data.size(),
                   "allreduce_sum: mismatched participation");
      for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += (*slot)[i];
    }
  }
  cluster_->barrier_wait();
  data = cluster_->reduce_accumulator_;
  cluster_->barrier_wait();  // everyone copied before scratch reuse
}

gen::EdgeList Communicator::alltoallv(std::vector<gen::EdgeList> outboxes) {
  ++stats_.collective_calls;
  util::require(outboxes.size() == size(),
                "alltoallv: one outbox per rank required");
  for (std::size_t dst = 0; dst < size(); ++dst) {
    if (dst != rank_) {
      stats_.bytes_sent += outboxes[dst].size() * sizeof(gen::Edge);
    }
  }
  {
    const std::lock_guard<std::mutex> lock(cluster_->mutex_);
    cluster_->mailboxes_[rank_] = std::move(outboxes);
  }
  cluster_->barrier_wait();
  gen::EdgeList inbox;
  for (std::size_t src = 0; src < size(); ++src) {
    const auto& box = cluster_->mailboxes_[src][rank_];
    inbox.insert(inbox.end(), box.begin(), box.end());
  }
  cluster_->barrier_wait();  // everyone read before mailboxes are reused
  return inbox;
}

}  // namespace prpb::dist
