// Direct coverage for the discrete-event engine: FIFO determinism, cancel
// semantics (including eager closure destruction), run_until edge cases,
// the slab arena, UniqueFunction storage, timing-wheel cascading/overflow,
// and the heap-vs-wheel differential that pins both backends to identical
// firing orders over randomized schedule/cancel workloads.
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/sim/simulation.h"
#include "src/sim/workload.h"
#include "src/util/rng.h"
#include "src/util/unique_function.h"

namespace offload::sim {
namespace {

using offload::util::Pcg32;
using offload::util::UniqueFunction;

class SimulationBackends : public ::testing::TestWithParam<SchedulerKind> {};

INSTANTIATE_TEST_SUITE_P(Schedulers, SimulationBackends,
                         ::testing::Values(SchedulerKind::kHeap,
                                           SchedulerKind::kWheel),
                         [](const auto& info) {
                           return info.param == SchedulerKind::kHeap
                                      ? "heap"
                                      : "wheel";
                         });

TEST_P(SimulationBackends, FiresInTimestampOrder) {
  Simulation sim(GetParam());
  std::vector<int> order;
  sim.schedule(SimTime::millis(30), [&] { order.push_back(3); });
  sim.schedule(SimTime::millis(10), [&] { order.push_back(1); });
  sim.schedule(SimTime::millis(20), [&] { order.push_back(2); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), SimTime::millis(30));
}

TEST_P(SimulationBackends, FifoTieBreakAtEqualTimestamps) {
  Simulation sim(GetParam());
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    sim.schedule(SimTime::millis(7), [&order, i] { order.push_back(i); });
  }
  sim.run();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST_P(SimulationBackends, ZeroDelayDuringCallbackFiresAfterBatch) {
  Simulation sim(GetParam());
  std::vector<int> order;
  sim.schedule(SimTime::millis(1), [&] {
    order.push_back(1);
    sim.schedule(SimTime::zero(), [&] { order.push_back(3); });
  });
  sim.schedule(SimTime::millis(1), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST_P(SimulationBackends, CancelPreventsFiringAndReportsCorrectly) {
  Simulation sim(GetParam());
  int fired = 0;
  EventHandle h = sim.schedule(SimTime::millis(5), [&] { ++fired; });
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_TRUE(sim.cancel(h));
  EXPECT_FALSE(sim.cancel(h));  // double-cancel
  EXPECT_EQ(sim.pending(), 0u);
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST_P(SimulationBackends, CancelAfterFireReturnsFalse) {
  Simulation sim(GetParam());
  int fired = 0;
  EventHandle h = sim.schedule(SimTime::millis(5), [&] { ++fired; });
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(sim.cancel(h));
}

TEST_P(SimulationBackends, CancelFromInsideOwnCallbackIsFalse) {
  Simulation sim(GetParam());
  EventHandle h;
  bool cancel_result = true;
  h = sim.schedule(SimTime::millis(1),
                   [&] { cancel_result = sim.cancel(h); });
  sim.run();
  EXPECT_FALSE(cancel_result);
}

TEST_P(SimulationBackends, InvalidHandleCancelIsFalse) {
  Simulation sim(GetParam());
  EXPECT_FALSE(sim.cancel(EventHandle{}));
}

TEST_P(SimulationBackends, CancelReleasesCapturedStatePromptly) {
  // The whole point of eager closure destruction: captured shared state
  // (channels, snapshots) dies at cancel time, not when the entry is
  // lazily popped much later.
  Simulation sim(GetParam());
  auto token = std::make_shared<int>(7);
  EventHandle h = sim.schedule(SimTime::millis(5), [token] { (void)*token; });
  sim.schedule(SimTime::seconds(100.0), [] {});  // queue stays non-empty
  EXPECT_EQ(token.use_count(), 2);
  EXPECT_TRUE(sim.cancel(h));
  EXPECT_EQ(token.use_count(), 1) << "closure must be destroyed at cancel";
  sim.run();
}

TEST_P(SimulationBackends, CancelAfterRunUntilLookaheadReleasesPromptly) {
  // run_until may have already staged the next event internally (the
  // wheel drains slots into a due batch); cancelling it afterwards must
  // still release captures immediately and prevent firing.
  Simulation sim(GetParam());
  auto token = std::make_shared<int>(7);
  int fired = 0;
  EventHandle h =
      sim.schedule(SimTime::millis(10), [token, &fired] { ++fired; });
  EXPECT_EQ(sim.run_until(SimTime::millis(1)), 0u);
  EXPECT_TRUE(sim.cancel(h));
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(sim.pending(), 0u);
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST_P(SimulationBackends, RunUntilFiresEventsAtExactlyTheDeadline) {
  Simulation sim(GetParam());
  int fired = 0;
  sim.schedule(SimTime::millis(5), [&] { ++fired; });
  sim.schedule(SimTime::millis(10), [&] { ++fired; });
  sim.schedule(SimTime::millis(15), [&] { ++fired; });
  EXPECT_EQ(sim.run_until(SimTime::millis(10)), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), SimTime::millis(10));
  EXPECT_EQ(sim.pending(), 1u);
}

TEST_P(SimulationBackends, RunUntilAdvancesNowToDeadlineWhenIdle) {
  Simulation sim(GetParam());
  EXPECT_EQ(sim.run_until(SimTime::seconds(3.0)), 0u);
  EXPECT_EQ(sim.now(), SimTime::seconds(3.0));
  // Scheduling relative to the advanced clock works.
  int fired = 0;
  sim.schedule(SimTime::millis(1), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), SimTime::seconds(3.0) + SimTime::millis(1));
}

TEST_P(SimulationBackends, ScheduleEarlierThanStagedEventAfterRunUntil) {
  // After a run_until lookahead the wheel cursor can sit on a far event;
  // a later schedule at an *earlier* absolute time must still fire first.
  Simulation sim(GetParam());
  std::vector<int> order;
  sim.schedule_at(SimTime::seconds(10.0), [&] { order.push_back(10); });
  sim.run_until(SimTime::seconds(1.0));
  sim.schedule_at(SimTime::seconds(2.0), [&] { order.push_back(2); });
  sim.schedule_at(SimTime::seconds(5.0), [&] { order.push_back(5); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{2, 5, 10}));
}

TEST_P(SimulationBackends, PastScheduleThrows) {
  Simulation sim(GetParam());
  sim.schedule(SimTime::millis(5), [] {});
  sim.run();
  EXPECT_EQ(sim.now(), SimTime::millis(5));
  EXPECT_THROW(sim.schedule_at(SimTime::millis(1), [] {}), std::logic_error);
}

TEST_P(SimulationBackends, StepFiresExactlyOneEvent) {
  Simulation sim(GetParam());
  int fired = 0;
  sim.schedule(SimTime::millis(1), [&] { ++fired; });
  sim.schedule(SimTime::millis(2), [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(sim.step());
}

TEST_P(SimulationBackends, FarFutureAndBlockBoundaryOrdering) {
  // Exercise the wheel's calendar overflow (different 2^32 ns blocks) and
  // exact block-boundary timestamps; the heap backend provides the
  // trivially-correct reference semantics for the same test body.
  Simulation sim(GetParam());
  const std::int64_t kBlock = std::int64_t{1} << 32;  // ~4.29 s in ns
  std::vector<int> order;
  auto at = [&](std::int64_t ns, int id) {
    sim.schedule_at(SimTime::nanos(ns), [&order, id] { order.push_back(id); });
  };
  at(3 * kBlock + 17, 6);
  at(kBlock - 1, 1);
  at(kBlock, 2);
  at(kBlock + 1, 3);
  at(2 * kBlock, 4);
  at(2 * kBlock, 5);        // FIFO with id 4
  at(90 * kBlock + 123, 7); // ~6.4 simulated minutes out
  EXPECT_EQ(sim.run(), 7u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(sim.now(), SimTime::nanos(90 * kBlock + 123));
}

TEST_P(SimulationBackends, DirectDrainAtBlockTopDoesNotStrandOverflow) {
  // Regression: draining the top level-2 slot of a block used to park the
  // cursor into the NEXT 2^32 ns block while the calendar still held that
  // block's bucket. A follow-up scheduled from inside the drained
  // callback then entered the wheel levels and fired ahead of the
  // stranded bucket — out of timestamp order, with now() moving
  // backwards when the bucket finally migrated.
  Simulation sim(GetParam());
  const std::int64_t kBlock = std::int64_t{1} << 32;
  std::vector<int> order;
  std::vector<std::int64_t> fired_at;
  auto record = [&](int id) {
    order.push_back(id);
    fired_at.push_back(sim.now().ns());
  };
  sim.schedule_at(SimTime::nanos(kBlock + 5), [&] { record(1); });
  sim.schedule_at(SimTime::nanos(kBlock - 50), [&] {
    record(2);
    sim.schedule_at(SimTime::nanos(kBlock + 1000), [&] { record(3); });
  });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{2, 1, 3}));
  EXPECT_EQ(fired_at, (std::vector<std::int64_t>{kBlock - 50, kBlock + 5,
                                                 kBlock + 1000}));
  EXPECT_EQ(sim.now(), SimTime::nanos(kBlock + 1000));
}

TEST_P(SimulationBackends, Level1DirectDrainAtBlockTopDoesNotStrand) {
  // Same carry bug via the level-1 direct-drain path: the first event
  // parks the cursor at the start of the block's top 2^16 ns window, the
  // second then sits in level-1 slot 255 whose drain would carry into
  // the next block.
  Simulation sim(GetParam());
  const std::int64_t kBlock = std::int64_t{1} << 32;
  std::vector<int> order;
  std::int64_t last_ns = 0;
  auto record = [&](int id) {
    order.push_back(id);
    EXPECT_GE(sim.now().ns(), last_ns) << "now() must never move backwards";
    last_ns = sim.now().ns();
  };
  sim.schedule_at(SimTime::nanos(kBlock + 5), [&] { record(3); });
  sim.schedule_at(SimTime::nanos(kBlock - 2 * 65536 + 7), [&] { record(1); });
  sim.schedule_at(SimTime::nanos(kBlock - 100), [&] {
    record(2);
    sim.schedule_at(SimTime::nanos(kBlock + 1000), [&] { record(4); });
  });
  EXPECT_EQ(sim.run(), 4u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(sim.now(), SimTime::nanos(kBlock + 1000));
}

TEST_P(SimulationBackends, EqualFarTimestampScheduledAcrossAdvances) {
  // A and B share a far timestamp; B is scheduled later (after the clock
  // moved), so it must fire second even though it entered the wheel at a
  // lower level than A did.
  Simulation sim(GetParam());
  std::vector<char> order;
  SimTime target = SimTime::seconds(30.0);
  sim.schedule_at(target, [&] { order.push_back('A'); });
  sim.schedule_at(SimTime::seconds(29.0), [&] {
    sim.schedule_at(target, [&] { order.push_back('B'); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<char>{'A', 'B'}));
}

TEST(SimulationArena, SlabIsRecycledUnderChurn) {
  Simulation sim(SchedulerKind::kWheel);
  // Steady-state schedule→fire churn with one outstanding event must
  // never grow the arena past its first slab.
  for (int i = 0; i < 10000; ++i) {
    sim.schedule(SimTime::micros(3), [] {});
    sim.run();
  }
  EXPECT_EQ(sim.arena_slabs(), 1u);
  EXPECT_EQ(sim.arena_capacity(), EventArena::kSlabNodes);
}

TEST(SimulationArena, GenerationSkipsZeroOnWrap) {
  // Generation 0 is the universal "invalid handle" encoding, so a slot
  // whose generation counter wraps must land on 1, never 0 — otherwise a
  // default EventHandle could suddenly resolve to a live event.
  EventArena arena;
  EventNode* node = arena.allocate(SimTime::nanos(1), 1, [] {});
  const std::uint32_t index = node->index;
  node->gen = 0xffffffffu;  // fast-forward a lifetime of churn
  EXPECT_EQ(arena.resolve(index, 0xffffffffu), node);
  arena.release(node);
  EXPECT_EQ(node->gen, 1u) << "wrap must skip generation 0";
  EXPECT_EQ(arena.resolve(index, 0u), nullptr);
}

TEST(SimulationArena, CancelAfterGenerationWrapIsStale) {
  // A handle minted just before the wrap must stay stale after the slot
  // is recycled, even though the raw index is reused.
  EventArena arena;
  EventNode* node = arena.allocate(SimTime::nanos(1), 1, [] {});
  const std::uint32_t index = node->index;
  node->gen = 0xffffffffu;
  arena.release(node);  // old occupant retired; gen wrapped to 1

  EventNode* reused = arena.allocate(SimTime::nanos(2), 2, [] {});
  ASSERT_EQ(reused, node) << "free list must hand the slot back";
  EXPECT_EQ(arena.resolve(index, 0xffffffffu), nullptr)
      << "pre-wrap handle must not resurrect the recycled slot";
  EXPECT_EQ(arena.resolve(index, 1u), reused);
  arena.release(reused);
  // Freed slot (seq == 0): even a matching generation must not resolve.
  EXPECT_EQ(arena.resolve(index, node->gen), nullptr);
}

TEST(SimulationDefaults, WheelIsTheDefaultBackend) {
  // The heap is reachable only through the explicit constructor.
  EXPECT_EQ(Simulation().scheduler(), SchedulerKind::kWheel);
  EXPECT_EQ(Simulation(SchedulerKind::kHeap).scheduler(), SchedulerKind::kHeap);
}

// ---------------------------------------------------------------------------
// UniqueFunction

TEST(UniqueFunctionTest, SmallCapturesStayInline) {
  int x = 0;
  UniqueFunction f([&x] { ++x; });
  EXPECT_TRUE(f.is_inline());
  f();
  EXPECT_EQ(x, 1);
}

TEST(UniqueFunctionTest, LargeCapturesFallBackToHeap) {
  std::array<char, 128> big{};
  big[0] = 'a';
  int calls = 0;
  UniqueFunction f([big, &calls] { calls += big[0] == 'a' ? 1 : 0; });
  EXPECT_FALSE(f.is_inline());
  f();
  EXPECT_EQ(calls, 1);
}

TEST(UniqueFunctionTest, MoveTransfersOwnership) {
  auto token = std::make_shared<int>(1);
  UniqueFunction a([token] { (void)*token; });
  EXPECT_EQ(token.use_count(), 2);
  UniqueFunction b(std::move(a));
  EXPECT_EQ(token.use_count(), 2) << "move must not copy the capture";
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(b);
  b();
  b.reset();
  EXPECT_EQ(token.use_count(), 1);
}

TEST(UniqueFunctionTest, MoveOnlyCapturesWork) {
  auto owned = std::make_unique<int>(41);
  int seen = 0;
  UniqueFunction f([owned = std::move(owned), &seen] { seen = *owned + 1; });
  UniqueFunction g(std::move(f));
  g();
  EXPECT_EQ(seen, 42);
}

TEST(UniqueFunctionTest, AssignmentDestroysPreviousCallable) {
  auto first = std::make_shared<int>(1);
  UniqueFunction f([first] { (void)*first; });
  EXPECT_EQ(first.use_count(), 2);
  f = UniqueFunction([] {});
  EXPECT_EQ(first.use_count(), 1);
}

// ---------------------------------------------------------------------------
// Heap-vs-wheel differential: identical firing order over randomized
// schedule / cancel / run_until workloads, including chained events that
// schedule follow-ups from inside callbacks.

struct DifferentialSim {
  Simulation sim;
  std::vector<int> fired;
  std::vector<EventHandle> handles;

  explicit DifferentialSim(SchedulerKind kind) : sim(kind) {}

  void schedule_recording(std::int64_t delay_ns, int id, int chain_depth) {
    handles.push_back(sim.schedule(SimTime::nanos(delay_ns), [this, id,
                                                             chain_depth] {
      fired.push_back(id);
      if (chain_depth > 0) {
        // Deterministic follow-up derived from the parent id.
        std::int64_t gap = 1 + (id * 2654435761LL) % 5000000;
        schedule_recording(gap, id + 1000000 * chain_depth, chain_depth - 1);
      }
    }));
  }
};

void RunDifferentialWorkload(std::uint64_t seed, int steps) {
  DifferentialSim heap(SchedulerKind::kHeap);
  DifferentialSim wheel(SchedulerKind::kWheel);
  Pcg32 rng(seed, 0xd1ff);
  int next_id = 0;
  // Delay scales from nanoseconds to tens of simulated seconds, so the
  // wheel sees level-0 hits, cascades, and calendar-overflow migrations.
  const std::int64_t scales[] = {0, 100, 50000, 7000000, 900000000,
                                 30000000000};
  for (int step = 0; step < steps; ++step) {
    std::uint32_t op = rng.next_below(100);
    if (op < 55) {
      std::int64_t base = scales[rng.next_below(6)];
      std::int64_t delay = base + rng.next_below(1000);
      int chain = rng.next_below(10) == 0 ? 2 : 0;
      int id = next_id++;
      heap.schedule_recording(delay, id, chain);
      wheel.schedule_recording(delay, id, chain);
    } else if (op < 75 && !heap.handles.empty()) {
      std::uint32_t pick =
          rng.next_below(static_cast<std::uint32_t>(heap.handles.size()));
      bool a = heap.sim.cancel(heap.handles[pick]);
      bool b = wheel.sim.cancel(wheel.handles[pick]);
      ASSERT_EQ(a, b) << "cancel result diverged at step " << step;
    } else if (op < 90) {
      SimTime until =
          heap.sim.now() + SimTime::nanos(rng.next_below(2000000000));
      std::size_t a = heap.sim.run_until(until);
      std::size_t b = wheel.sim.run_until(until);
      ASSERT_EQ(a, b) << "run_until fired-count diverged at step " << step;
    } else {
      ASSERT_EQ(heap.sim.step(), wheel.sim.step());
    }
    ASSERT_EQ(heap.sim.pending(), wheel.sim.pending());
    ASSERT_EQ(heap.sim.now().ns(), wheel.sim.now().ns());
  }
  heap.sim.run();
  wheel.sim.run();
  ASSERT_EQ(heap.fired.size(), wheel.fired.size());
  ASSERT_EQ(heap.fired, wheel.fired);
  EXPECT_EQ(heap.sim.now().ns(), wheel.sim.now().ns());
}

TEST(SchedulerDifferential, IdenticalFiringOrderAcrossBackends) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunDifferentialWorkload(seed, 600);
  }
}

TEST(SchedulerDifferential, BlockBoundaryClusteredOrdering) {
  // Timestamps clustered tightly around 2^32 ns block boundaries, so the
  // top slots of every wheel level — the direct-drain paths whose cursor
  // parking can carry across a block — are hit constantly while the next
  // block's overflow bucket is pending, and chained follow-ups land in
  // that bucket's block from inside callbacks.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    DifferentialSim heap(SchedulerKind::kHeap);
    DifferentialSim wheel(SchedulerKind::kWheel);
    Pcg32 rng(seed, 0xb10c);
    const std::int64_t kBlock = std::int64_t{1} << 32;
    int next_id = 0;
    for (int round = 1; round <= 4; ++round) {
      for (int i = 0; i < 300; ++i) {
        std::int64_t target = round * kBlock - 70000 +
                              static_cast<std::int64_t>(rng.next_below(80000));
        std::int64_t now = heap.sim.now().ns();
        if (target < now) target = now;
        int chain = rng.next_below(8) == 0 ? 1 : 0;
        int id = next_id++;
        heap.schedule_recording(target - now, id, chain);
        wheel.schedule_recording(target - now, id, chain);
      }
      SimTime until = SimTime::nanos(round * kBlock + 500);
      std::size_t a = heap.sim.run_until(until);
      std::size_t b = wheel.sim.run_until(until);
      ASSERT_EQ(a, b) << "run_until fired-count diverged in round " << round;
      ASSERT_EQ(heap.sim.now().ns(), wheel.sim.now().ns());
    }
    heap.sim.run();
    wheel.sim.run();
    ASSERT_EQ(heap.fired, wheel.fired);
    EXPECT_EQ(heap.sim.now().ns(), wheel.sim.now().ns());
  }
}

TEST(SchedulerDifferential, HeavyEqualTimestampContention) {
  // Many events collapsing onto few distinct timestamps: the strongest
  // FIFO stress for the wheel's slot-drain sorting.
  DifferentialSim heap(SchedulerKind::kHeap);
  DifferentialSim wheel(SchedulerKind::kWheel);
  Pcg32 rng(99, 0xc0);
  for (int i = 0; i < 3000; ++i) {
    std::int64_t delay = 1000000 * static_cast<std::int64_t>(rng.next_below(5));
    heap.schedule_recording(delay, i, 0);
    wheel.schedule_recording(delay, i, 0);
  }
  heap.sim.run();
  wheel.sim.run();
  ASSERT_EQ(heap.fired, wheel.fired);
}

// ---------------------------------------------------------------------------
// Workload generator: determinism and knob behaviour.

TEST(WorkloadGenerator, DeterministicStreamAcrossRunsAndBackends) {
  auto collect = [](SchedulerKind kind) {
    Simulation sim(kind);
    workload::Config cfg;
    cfg.clients = 200;
    cfg.seed = 7;
    cfg.arrivals.session_rate_per_s = 50;
    cfg.arrivals.pattern = workload::ArrivalConfig::Pattern::kBursty;
    cfg.session.cache_ttl_s = 5;
    std::vector<std::tuple<std::int64_t, std::uint64_t, bool>> seen;
    workload::Generator gen(sim, cfg, [&](const workload::Request& r) {
      seen.emplace_back(r.at.ns(), r.client, r.cold_model);
    });
    gen.start(SimTime::seconds(20.0));
    sim.run();
    return seen;
  };
  auto a = collect(SchedulerKind::kWheel);
  auto b = collect(SchedulerKind::kWheel);
  auto c = collect(SchedulerKind::kHeap);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "same seed must reproduce the byte-identical stream";
  EXPECT_EQ(a, c) << "the stream must not depend on the scheduler backend";
}

TEST(WorkloadGenerator, ColdWarmMixFollowsCacheTtl) {
  Simulation sim(SchedulerKind::kWheel);
  workload::Config cfg;
  cfg.clients = 10;
  cfg.seed = 3;
  cfg.arrivals.session_rate_per_s = 20;
  cfg.session.cache_ttl_s = 1e9;  // never expires: only first touch is cold
  workload::Generator gen(sim, cfg, [](const workload::Request&) {});
  gen.start(SimTime::seconds(30.0));
  sim.run();
  EXPECT_GT(gen.sessions_started(), 50u);
  EXPECT_LE(gen.cold_sessions(), 10u) << "at most one cold session per client";
  EXPECT_GT(gen.cold_sessions(), 0u);
}

TEST(WorkloadGenerator, WarmStartFractionPreSeedsCaches) {
  workload::Config cfg;
  cfg.clients = 500;
  cfg.seed = 11;
  cfg.arrivals.session_rate_per_s = 100;
  cfg.session.cache_ttl_s = 1e9;
  auto cold_count = [&cfg](double warm_fraction) {
    Simulation sim(SchedulerKind::kWheel);
    cfg.session.warm_start_fraction = warm_fraction;
    workload::Generator gen(sim, cfg, [](const workload::Request&) {});
    gen.start(SimTime::seconds(10.0));
    sim.run();
    return gen.cold_sessions();
  };
  std::uint64_t all_cold = cold_count(0.0);
  std::uint64_t mostly_warm = cold_count(0.9);
  EXPECT_LT(mostly_warm * 3, all_cold)
      << "pre-seeded caches must slash cold sessions";
}

TEST(WorkloadGenerator, FlashCrowdRaisesArrivalRateInWindow) {
  auto sessions_in = [](bool flash, double lo, double hi) {
    Simulation sim(SchedulerKind::kWheel);
    workload::Config cfg;
    cfg.clients = 1000;
    cfg.seed = 5;
    cfg.arrivals.session_rate_per_s = 30;
    if (flash) cfg.arrivals.flash_crowds = {{10.0, 5.0, 8.0}};
    std::uint64_t count = 0;
    workload::Generator gen(sim, cfg, [&](const workload::Request& r) {
      double t = r.at.to_seconds();
      if (r.index_in_session == 0 && t >= lo && t < hi) ++count;
    });
    gen.start(SimTime::seconds(30.0));
    sim.run();
    return count;
  };
  std::uint64_t quiet = sessions_in(false, 10.0, 15.0);
  std::uint64_t crowd = sessions_in(true, 10.0, 15.0);
  EXPECT_GT(crowd, quiet * 4) << "8x flash crowd must dominate the window";
}

TEST(WorkloadGenerator, DeviceClassesCoverPopulationByWeight) {
  Simulation sim(SchedulerKind::kWheel);
  workload::Config cfg;
  cfg.clients = 5000;
  cfg.seed = 17;
  workload::Generator gen(sim, cfg, [](const workload::Request&) {});
  std::vector<int> counts(workload::default_device_classes().size(), 0);
  for (std::uint64_t c = 0; c < cfg.clients; ++c) {
    ++counts[gen.device_class_of(c)];
  }
  // Weights 0.35 / 0.45 / 0.20 — allow generous sampling slack.
  EXPECT_NEAR(counts[0] / 5000.0, 0.35, 0.05);
  EXPECT_NEAR(counts[1] / 5000.0, 0.45, 0.05);
  EXPECT_NEAR(counts[2] / 5000.0, 0.20, 0.05);
}

}  // namespace
}  // namespace offload::sim
