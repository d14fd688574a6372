// Discrete-event simulation engine. Single-threaded, deterministic:
// events at equal timestamps fire in scheduling order (FIFO tie-break by a
// monotonically increasing sequence number).
//
// Two interchangeable scheduler backends share one slab arena of intrusive
// event nodes (src/sim/event_arena.h):
//
//   "wheel" (default) — hierarchical timing wheel + calendar overflow
//     (src/sim/timing_wheel.h). O(1) schedule/cancel, amortized O(1)
//     fire; built for millions of pending events (bench_micro_sim pins
//     the speedup, bench_scale runs 10^6 simulated clients on it).
//   "heap"            — the classic binary heap over (when, seq) keys.
//     Kept as the differential-testing reference: tests/sim_test.cpp
//     asserts both backends produce identical firing orders over
//     randomized schedule/cancel workloads.
//
// The wheel is the default; tests pass SchedulerKind::kHeap to the
// constructor to run the reference. Either way cancellation destroys the
// event's closure eagerly (captured state is released at cancel time, not
// when the entry happens to drain) and firing moves the closure out of the
// arena slot — no per-event heap allocation for captures up to
// util::UniqueFunction::kInlineBytes.
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "src/sim/event_arena.h"
#include "src/sim/time.h"
#include "src/sim/timing_wheel.h"
#include "src/util/unique_function.h"

namespace offload::sim {

using EventFn = util::UniqueFunction;

enum class SchedulerKind { kHeap, kWheel };

/// Handle to a scheduled event; allows cancellation. Generation-tagged:
/// once the event fires or is cancelled its arena slot retires this
/// handle, so stale cancels are O(1) "no".
class EventHandle {
 public:
  EventHandle() = default;
  bool valid() const { return index_ != 0 || gen_ != 0; }

 private:
  friend class Simulation;
  EventHandle(std::uint32_t index, std::uint32_t gen)
      : index_(index), gen_(gen) {}
  std::uint32_t index_ = 0;
  std::uint32_t gen_ = 0;  ///< arena generations are never 0
};

/// The event loop. Actors capture a reference to this and schedule
/// continuations; `run()` drains the queue in timestamp order.
class Simulation {
 public:
  explicit Simulation(SchedulerKind kind = SchedulerKind::kWheel);
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  SimTime now() const { return now_; }
  SchedulerKind scheduler() const { return kind_; }

  /// Schedule `fn` to run `delay` after the current time.
  EventHandle schedule(SimTime delay, EventFn fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Schedule `fn` at an absolute simulated time (must not be in the past).
  EventHandle schedule_at(SimTime when, EventFn fn);

  /// Cancel a pending event. Returns false if it already ran or was
  /// cancelled before. The event's closure (and everything it captured)
  /// is destroyed before this returns.
  bool cancel(EventHandle handle);

  /// Run until the queue is empty. Returns the number of events fired.
  std::size_t run();

  /// Run until the queue is empty or simulated time would exceed `deadline`.
  /// Events at exactly `deadline` still fire.
  std::size_t run_until(SimTime deadline);

  /// Fire the single next event, if any. Returns false when idle.
  bool step();

  /// Timestamp of the earliest pending event, or SimTime::max() when the
  /// queue is empty. Never runs user code (it may advance wheel cursors
  /// and prune cancelled tombstones). The partitioned engine
  /// (src/sim/partition.h) uses this to compute conservative windows.
  SimTime next_event_time();

  std::size_t pending() const { return pending_; }

  /// Arena introspection for benches/tests: slabs ever allocated and the
  /// total node capacity they hold (stable across steady-state churn).
  std::uint64_t arena_slabs() const { return arena_.slab_allocations(); }
  std::size_t arena_capacity() const { return arena_.capacity(); }

 private:
  struct HeapKey {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t index;
  };
  struct Later {
    bool operator()(const HeapKey& a, const HeapKey& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  bool fire_next();
  /// Next live event in firing order, or nullptr. Heap backend: lazily
  /// pops stale (cancelled) keys. Never runs user code.
  EventNode* peek_next();

  SimTime now_;
  std::uint64_t next_seq_ = 1;
  std::size_t pending_ = 0;
  SchedulerKind kind_;
  EventArena arena_;
  TimingWheel wheel_{arena_};
  std::priority_queue<HeapKey, std::vector<HeapKey>, Later> heap_;
};

}  // namespace offload::sim
