// Partitioned parallel discrete-event simulation with a conservative-
// lookahead merge (Chandy–Misra–Bryant-style safe windows).
//
// K worker partitions each own a full single-threaded engine — their own
// timing wheel (or heap) and EventArena — and a disjoint slice of the
// simulated population. The coordinator repeatedly:
//
//   1. drains every cross-partition mailbox at a merge barrier,
//      scheduling the delivered posts into their destination engines in
//      a deterministic order (sorted by (when, stamp, from, seq));
//   2. computes the global horizon T = min over partitions of the next
//      pending event time, and the safe window [T, T + lookahead);
//   3. fires each partition's window in parallel (one task per
//      partition on a private thread pool), during which partitions may
//      post() new cross-partition events — but only at or beyond their
//      local now() + lookahead, so nothing a peer does inside the same
//      window can land in the past of anyone's already-processed range.
//
// `lookahead` is the minimum cross-partition delivery latency — for
// simulations wired through net::Channel, the channels' latency_floor().
// Three regimes:
//   * finite, positive — the normal conservative window protocol above;
//   * zero            — degenerates to lockstep: each round processes
//     exactly one global timestamp, and same-time posts are delivered
//     at the next barrier (still at that timestamp);
//   * SimTime::max()  — partitions are declared fully independent;
//     post() is an error and each partition runs to completion with a
//     single final barrier (bench_scale's sharded capacity sweep).
//
// Determinism (DESIGN.md §12): a run is byte-reproducible at any thread
// schedule, and per-lane event histories are identical at any partition
// count K as long as (a) mutable state is confined to one lane, (b)
// cross-lane traffic goes through post() with unique (when, stamp) keys
// per receiver, and (c) the run()/run_until() call sequence is the same
// — window boundaries depend only on the global event set and the
// lookahead, never on K or on which worker ran what.
// tests/sim_partition_test.cpp holds K ∈ {1,2,4,8} to byte-identical
// transcripts under both scheduler backends for 50 seeds.
//
// K = 1 (the OFFLOAD_SIM_PARTITIONS default) never spawns a thread and
// fires events in exactly the order a plain Simulation would, so the
// single-partition configuration is bit-for-bit the sequential engine.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/sim/simulation.h"
#include "src/util/spsc_mailbox.h"
#include "src/util/thread_pool.h"

namespace offload::sim {

class PartitionedSimulation {
 public:
  struct Options {
    /// Worker partitions. 1 (default) runs inline on the caller.
    int partitions = 1;
    /// Engine backend per partition (the heap is the tests' reference).
    SchedulerKind scheduler = SchedulerKind::kWheel;
    /// Conservative lookahead: the minimum cross-partition delivery
    /// latency. SimTime::max() forbids post() entirely.
    SimTime lookahead = SimTime::max();
  };

  /// Partition count from OFFLOAD_SIM_PARTITIONS (default 1), the wheel
  /// backend, lookahead = SimTime::max().
  PartitionedSimulation();
  explicit PartitionedSimulation(Options options);
  PartitionedSimulation(const PartitionedSimulation&) = delete;
  PartitionedSimulation& operator=(const PartitionedSimulation&) = delete;
  ~PartitionedSimulation();

  /// OFFLOAD_SIM_PARTITIONS as an int in [1, 256]; default 1. Throws
  /// std::invalid_argument on anything else.
  static int partitions_from_env();

  int partitions() const { return static_cast<int>(parts_.size()); }
  SimTime lookahead() const { return lookahead_; }

  /// Partition-local engine: schedule/cancel/now for actors living in
  /// partition `p`. Before run() any thread may touch any partition;
  /// during run() only partition p's own events may use it — the only
  /// legal cross-partition interaction is post().
  Simulation& partition(int p) { return parts_[p]->engine; }

  /// The committed global horizon: the start of the most recent safe
  /// window (or the run_until deadline when that is later). Monotone
  /// nondecreasing; every partition has fired all events below it.
  SimTime now() const { return committed_; }

  /// Schedule `fn` at absolute time `when` in partition `to`, from code
  /// currently executing in (or setting up) partition `from`. Requires
  /// when >= partition(from).now() + lookahead — exactly the boundary is
  /// legal. `stamp` breaks equal-`when` delivery ties deterministically
  /// across partition counts: deliveries are merged in
  /// (when, stamp, from, seq) order, so give stamps that are unique per
  /// (receiver, when) — e.g. (sender lane id, per-lane counter) — and
  /// the merged order is independent of K. There is no cross-partition
  /// cancel: to cancel a remote event, post a message asking its owner
  /// to cancel the handle it holds.
  void post(int from, int to, SimTime when, std::uint64_t stamp, EventFn fn);

  /// Run until every engine and mailbox is empty. Returns events fired.
  std::size_t run();

  /// Run until idle or the next safe window would start past `deadline`
  /// (events at exactly `deadline` still fire). Partition clocks and
  /// now() advance to `deadline`, like Simulation::run_until.
  std::size_t run_until(SimTime deadline);

  /// Pending events across all engines plus undrained posts. Exact when
  /// no run is in flight.
  std::size_t pending() const;

  std::uint64_t rounds() const { return rounds_; }          ///< merge barriers
  std::uint64_t events_fired() const { return total_fired_; }

 private:
  struct Post {
    SimTime when;
    std::uint64_t stamp = 0;
    std::uint32_t from = 0;
    std::uint64_t seq = 0;  ///< per-sender-partition post counter
    EventFn fn;
  };

  struct Partition {
    explicit Partition(SchedulerKind kind) : engine(kind) {}
    Simulation engine;
    std::uint64_t post_seq = 0;
    std::size_t fired_this_round = 0;
  };

  util::SpscMailbox<Post>& mailbox(int from, int to) {
    return *mail_[static_cast<std::size_t>(from) * parts_.size() + to];
  }
  /// Merge barrier: deliver every undrained post into its destination
  /// engine in (when, stamp, from, seq) order. Single-threaded.
  void drain_mailboxes();
  /// Fire one safe window [t, cutoff] on every partition in parallel.
  void fire_window(SimTime cutoff);

  SimTime lookahead_;
  SimTime committed_;
  std::uint64_t rounds_ = 0;
  std::uint64_t total_fired_ = 0;
  std::vector<std::unique_ptr<Partition>> parts_;
  std::vector<std::unique_ptr<util::SpscMailbox<Post>>> mail_;
  std::vector<Post> drain_scratch_;
  std::unique_ptr<util::ThreadPool> pool_;  ///< null when partitions == 1
};

}  // namespace offload::sim
