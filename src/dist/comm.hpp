// Simulated message-passing cluster.
//
// The paper analyzes parallel decompositions ("each processor holds a set
// of rows... the in-degree info will need to be aggregated and the selected
// vertices for elimination broadcast"; "each processor would compute its
// own value of r that would be summed across all processors and broadcast
// back"). We do not have a cluster, so we simulate one: P ranks run as
// threads against a Communicator offering the MPI-shaped collectives those
// decompositions need — barrier, allreduce, alltoallv — with per-rank byte
// accounting so the communication volume the paper reasons about is
// measurable.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <vector>

#include "gen/edge.hpp"

namespace prpb::dist {

struct CommStats {
  std::uint64_t bytes_sent = 0;       ///< payload bytes this rank shipped
  std::uint64_t collective_calls = 0; ///< collectives this rank entered
};

class Cluster;

/// Per-rank handle to the simulated cluster. All collectives are
/// bulk-synchronous: every rank must call them in the same order.
class Communicator {
 public:
  [[nodiscard]] std::size_t rank() const { return rank_; }
  [[nodiscard]] std::size_t size() const;

  void barrier();

  /// Element-wise sum across ranks; every rank ends with the global sum.
  /// Vectors must have identical sizes on all ranks.
  void allreduce_sum(std::vector<double>& data);

  /// Personalized all-to-all: outboxes[r] is sent to rank r; the return
  /// value concatenates every rank's box addressed to this rank, ordered
  /// by source rank.
  gen::EdgeList alltoallv(std::vector<gen::EdgeList> outboxes);

  [[nodiscard]] const CommStats& stats() const { return stats_; }

 private:
  friend class Cluster;
  Communicator(Cluster& cluster, std::size_t rank)
      : cluster_(&cluster), rank_(rank) {}

  Cluster* cluster_;
  std::size_t rank_;
  CommStats stats_;
};

/// Owns the shared collective state and spawns one thread per rank.
class Cluster {
 public:
  explicit Cluster(std::size_t ranks);

  [[nodiscard]] std::size_t size() const { return ranks_; }

  /// Runs `body(comm)` on every rank concurrently; returns when all ranks
  /// finish. A rank that throws aborts the cluster: every collective on
  /// the other ranks, pending or later, throws util::PipelineError
  /// instead of waiting for the failed rank. Rethrows the first rank
  /// exception (the original failure, never the aborts it caused).
  /// Per-rank stats from the run are available via last_stats()
  /// afterwards.
  void run(const std::function<void(Communicator&)>& body);

  [[nodiscard]] const std::vector<CommStats>& last_stats() const {
    return stats_;
  }
  /// Total payload bytes across all ranks in the last run.
  [[nodiscard]] std::uint64_t total_bytes() const;

 private:
  friend class Communicator;

  void barrier_wait();
  /// Marks the cluster aborted and wakes every barrier waiter.
  void abort(std::exception_ptr error);

  std::size_t ranks_;
  // generation-counted barrier
  std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t arrived_ = 0;
  std::uint64_t generation_ = 0;
  std::exception_ptr first_error_;  ///< set once per run; aborts the rest
  // collective scratch (valid between the surrounding barriers)
  std::vector<std::vector<double>*> reduce_slots_;
  std::vector<double> reduce_accumulator_;
  std::vector<std::vector<gen::EdgeList>> mailboxes_;  // [src][dst]
  std::vector<CommStats> stats_;
};

}  // namespace prpb::dist
