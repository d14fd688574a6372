// Differential suite for the partitioned parallel engine
// (src/sim/partition.h). The spine: a seeded mixed workload of 8 lanes —
// local schedules, equal-time pairs, cancels, and cross-lane posts — run
// at K ∈ {1, 2, 4, 8} partitions under both scheduler backends, with the
// per-lane event transcripts required to be byte-identical to the K = 1
// reference for 50 seeds. Around the spine: lookahead-boundary legality
// (exactly now + L is the first legal post time), cross-partition cancel
// via owner messages, the zero-lookahead lockstep degenerate mode, the
// K = 1 ⇔ plain-Simulation equivalence, and the workload generator's
// shard stability (same client id → same shard slice at any K; the
// merged K-way arrival stream is byte-identical to K = 1).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/net/channel.h"
#include "src/sim/partition.h"
#include "src/sim/simulation.h"
#include "src/sim/workload.h"
#include "src/util/rng.h"

namespace offload::sim {
namespace {

constexpr int kLanes = 8;
const SimTime kLookahead = SimTime::millis(1);

// ---------------------------------------------------------------------------
// Mixed-workload harness. Each lane owns its transcript, RNG, and handle
// list; a lane's state is only ever touched by events firing on the lane's
// own partition, so the harness is data-race-free at any K (TSan runs it).

struct Harness;

struct Lane {
  Harness* h = nullptr;
  int id = 0;
  int part = 0;
  std::uint64_t budget = 0;
  util::Pcg32 rng;
  std::string transcript;
  std::int64_t last_ns = -1;
  int monotonic_violations = 0;
  std::uint64_t ticks = 0;
  std::uint64_t next_stamp = 0;
  std::vector<EventHandle> handles;
  bool cancels_enabled = true;
};

struct Harness {
  PartitionedSimulation psim;
  std::array<Lane, kLanes> lanes;

  Harness(int k, SchedulerKind kind, SimTime lookahead, std::uint64_t seed,
          std::uint64_t budget)
      : psim(PartitionedSimulation::Options{k, kind, lookahead}) {
    for (int i = 0; i < kLanes; ++i) {
      Lane& lane = lanes[i];
      lane.h = this;
      lane.id = i;
      lane.part = i * k / kLanes;  // contiguous lane → partition blocks
      lane.budget = budget;
      lane.rng = util::Pcg32(seed, 100 + static_cast<std::uint64_t>(i));
    }
  }
};

void tick(Lane& lane, std::uint64_t tag);

EventFn make_tick(Lane* lane, std::uint64_t tag) {
  return [lane, tag] { tick(*lane, tag); };
}

void tick(Lane& lane, std::uint64_t tag) {
  Simulation& eng = lane.h->psim.partition(lane.part);
  const std::int64_t now_ns = eng.now().ns();
  if (now_ns < lane.last_ns) ++lane.monotonic_violations;
  lane.last_ns = now_ns;
  char buf[64];
  std::snprintf(buf, sizeof buf, "t=%lld tag=%llu\n",
                static_cast<long long>(now_ns),
                static_cast<unsigned long long>(tag));
  lane.transcript += buf;
  ++lane.ticks;
  if (lane.ticks >= lane.budget) return;

  // Tags are (lane, tick index, action) — unique, and a pure function of
  // the lane's own history, so transcripts can be compared across K.
  const std::uint64_t base =
      (static_cast<std::uint64_t>(lane.id) << 40) | (lane.ticks << 8);
  const std::uint32_t u = lane.rng.next_below(100);
  if (u < 50) {
    // Local follow-up somewhere in the next 5 ms (spans ~5 windows).
    SimTime delay = SimTime::nanos(1 + lane.rng.next_below(5'000'000));
    lane.handles.push_back(eng.schedule(delay, make_tick(&lane, base | 1)));
  } else if (u < 75) {
    // Cross-lane post (any target: remote, co-resident, or self). The
    // stamp (sender lane, counter) is unique per receiver/when at any K.
    Lane& target = lane.h->lanes[lane.rng.next_below(kLanes)];
    SimTime when = eng.now() + lane.h->psim.lookahead() +
                   SimTime::nanos(lane.rng.next_below(5'000'000));
    std::uint64_t stamp =
        (static_cast<std::uint64_t>(lane.id) << 48) | lane.next_stamp++;
    lane.h->psim.post(lane.part, target.part, when, stamp,
                      make_tick(&target, base | 2));
  } else if (u < 85 && lane.cancels_enabled && !lane.handles.empty()) {
    // Cancel a random earlier local handle; it may already have fired,
    // and whether it did is a deterministic fact of the schedule.
    std::size_t idx = lane.rng.next_below(
        static_cast<std::uint32_t>(lane.handles.size()));
    bool ok = eng.cancel(lane.handles[idx]);
    std::snprintf(buf, sizeof buf, "cancel idx=%zu ok=%d\n", idx, ok ? 1 : 0);
    lane.transcript += buf;
  } else {
    // Equal-time pair: FIFO within the lane must hold at any K.
    SimTime delay = SimTime::nanos(1 + lane.rng.next_below(5'000'000));
    lane.handles.push_back(eng.schedule(delay, make_tick(&lane, base | 3)));
    lane.handles.push_back(eng.schedule(delay, make_tick(&lane, base | 4)));
  }
}

void seed_harness(Harness& h) {
  // Two local seed events per lane, plus one pre-run post from lane 0 to
  // every lane (delivered at the first merge barrier).
  for (Lane& lane : h.lanes) {
    Simulation& eng = h.psim.partition(lane.part);
    for (int j = 0; j < 2; ++j) {
      SimTime at = SimTime::nanos(1 + lane.rng.next_below(2'000'000));
      eng.schedule_at(at, make_tick(&lane, (static_cast<std::uint64_t>(
                                               lane.id)
                                            << 40) |
                                               static_cast<std::uint64_t>(j)));
    }
  }
  if (h.psim.lookahead() != SimTime::max()) {
    Lane& sender = h.lanes[0];
    for (int i = 0; i < kLanes; ++i) {
      SimTime when = h.psim.lookahead() + SimTime::nanos(137 * (i + 1));
      std::uint64_t stamp =
          (static_cast<std::uint64_t>(sender.id) << 48) | sender.next_stamp++;
      h.psim.post(sender.part, h.lanes[i].part, when, stamp,
                  make_tick(&h.lanes[i], 0xfee0u | static_cast<unsigned>(i)));
    }
  }
}

struct RunResult {
  std::array<std::string, kLanes> transcripts;
  std::int64_t now_ns = 0;
  std::uint64_t rounds = 0;
  std::uint64_t fired = 0;
};

RunResult run_mixed(std::uint64_t seed, int k, SchedulerKind kind) {
  Harness h(k, kind, kLookahead, seed, /*budget=*/40);
  seed_harness(h);
  h.psim.run();
  EXPECT_EQ(h.psim.pending(), 0u);
  RunResult r;
  for (int i = 0; i < kLanes; ++i) {
    EXPECT_EQ(h.lanes[i].monotonic_violations, 0)
        << "lane " << i << " observed time going backwards";
    r.transcripts[i] = std::move(h.lanes[i].transcript);
  }
  r.now_ns = h.psim.now().ns();
  r.rounds = h.psim.rounds();
  r.fired = h.psim.events_fired();
  return r;
}

// The spine: 50 seeds × K ∈ {1,2,4,8} × {wheel, heap}. Every per-lane
// transcript, the committed horizon, the window count, and the total
// fired count must match the K = 1 reference byte for byte.
TEST(SimPartitionDifferential, TranscriptsMatchSinglePartitionFor50Seeds) {
  for (SchedulerKind kind : {SchedulerKind::kWheel, SchedulerKind::kHeap}) {
    const char* backend = kind == SchedulerKind::kWheel ? "wheel" : "heap";
    for (std::uint64_t seed = 0; seed < 50; ++seed) {
      RunResult ref = run_mixed(seed, 1, kind);
      EXPECT_GT(ref.fired, 0u);
      for (int k : {2, 4, 8}) {
        RunResult got = run_mixed(seed, k, kind);
        for (int lane = 0; lane < kLanes; ++lane) {
          ASSERT_EQ(got.transcripts[lane], ref.transcripts[lane])
              << backend << " seed=" << seed << " K=" << k
              << " lane=" << lane;
        }
        EXPECT_EQ(got.now_ns, ref.now_ns)
            << backend << " seed=" << seed << " K=" << k;
        EXPECT_EQ(got.rounds, ref.rounds)
            << backend << " seed=" << seed << " K=" << k;
        EXPECT_EQ(got.fired, ref.fired)
            << backend << " seed=" << seed << " K=" << k;
      }
    }
  }
}

// Both backends agree with each other too (the partitioned layer sits on
// the same (when, seq) contract the backends already share).
TEST(SimPartitionDifferential, BackendsAgreeUnderPartitioning) {
  for (std::uint64_t seed : {3u, 17u, 41u}) {
    RunResult wheel = run_mixed(seed, 4, SchedulerKind::kWheel);
    RunResult heap = run_mixed(seed, 4, SchedulerKind::kHeap);
    for (int lane = 0; lane < kLanes; ++lane) {
      EXPECT_EQ(wheel.transcripts[lane], heap.transcripts[lane])
          << "seed=" << seed << " lane=" << lane;
    }
    EXPECT_EQ(wheel.fired, heap.fired);
  }
}

// ---------------------------------------------------------------------------
// K = 1 is bit-for-bit the sequential engine: the same local-only script
// on a plain Simulation and on partition(0) of a 1-partition engine.

std::string run_local_script(Simulation& sim, std::size_t (*drain)(void*),
                             void* ctx, std::uint64_t seed) {
  std::string transcript;
  util::Pcg32 rng(seed, 7);
  struct Node {
    Simulation* sim;
    std::string* out;
    util::Pcg32* rng;
    int remaining;
  };
  auto node = std::make_unique<Node>(Node{&sim, &transcript, &rng, 200});
  Node* n = node.get();
  std::vector<EventHandle> handles;
  // Self-sustaining churn: each event logs, then schedules 0–2 successors
  // and occasionally cancels an old handle.
  std::function<void()> step = [n, &handles, &step] {
    char buf[48];
    std::snprintf(buf, sizeof buf, "t=%lld\n",
                  static_cast<long long>(n->sim->now().ns()));
    *n->out += buf;
    if (--n->remaining <= 0) return;
    std::uint32_t u = n->rng->next_below(10);
    for (std::uint32_t j = 0; j <= u % 2; ++j) {
      handles.push_back(n->sim->schedule(
          SimTime::nanos(1 + n->rng->next_below(900'000)), [&step] { step(); }));
    }
    if (u >= 8 && !handles.empty()) {
      std::size_t idx = n->rng->next_below(
          static_cast<std::uint32_t>(handles.size()));
      bool ok = n->sim->cancel(handles[idx]);
      std::snprintf(buf, sizeof buf, "cancel=%d\n", ok ? 1 : 0);
      *n->out += buf;
    }
  };
  for (int j = 0; j < 4; ++j) {
    sim.schedule_at(SimTime::nanos(100 + 37 * j), [&step] { step(); });
  }
  std::size_t fired = drain(ctx);
  char buf[48];
  std::snprintf(buf, sizeof buf, "fired=%zu\n", fired);
  transcript += buf;
  return transcript;
}

TEST(SimPartition, SinglePartitionMatchesPlainSimulation) {
  for (SchedulerKind kind : {SchedulerKind::kWheel, SchedulerKind::kHeap}) {
    Simulation plain(kind);
    std::string a = run_local_script(
        plain, [](void* s) { return static_cast<Simulation*>(s)->run(); },
        &plain, 11);

    PartitionedSimulation psim(
        PartitionedSimulation::Options{1, kind, SimTime::max()});
    std::string b = run_local_script(
        psim.partition(0),
        [](void* p) { return static_cast<PartitionedSimulation*>(p)->run(); },
        &psim, 11);
    EXPECT_EQ(a, b);
  }
}

// ---------------------------------------------------------------------------
// Lookahead boundary: exactly now + L is the first legal post time, both
// at setup (now = 0) and from inside a firing event.

TEST(SimPartition, PostAtExactLookaheadBoundaryIsLegal) {
  PartitionedSimulation psim(
      PartitionedSimulation::Options{2, SchedulerKind::kWheel, kLookahead});
  std::string log;
  psim.post(0, 1, kLookahead, 1, [&log] { log += "boundary\n"; });
  EXPECT_THROW(
      psim.post(0, 1, kLookahead - SimTime::nanos(1), 2, [] {}),
      std::logic_error);

  // From inside an event at t = 5 ms the bound moves with the clock.
  bool threw_inside = false;
  psim.partition(0).schedule_at(
      SimTime::millis(5), [&psim, &log, &threw_inside] {
        SimTime now = psim.partition(0).now();
        try {
          psim.post(0, 1, now + kLookahead - SimTime::nanos(1), 3, [] {});
        } catch (const std::logic_error&) {
          threw_inside = true;
        }
        psim.post(0, 1, now + kLookahead, 4, [&log] { log += "inside\n"; });
      });
  psim.run();
  EXPECT_TRUE(threw_inside);
  EXPECT_EQ(log, "boundary\ninside\n");
  EXPECT_EQ(psim.pending(), 0u);
}

TEST(SimPartition, IndependentPartitionsRejectPosts) {
  PartitionedSimulation psim(PartitionedSimulation::Options{
      2, SchedulerKind::kWheel, SimTime::max()});
  EXPECT_THROW(psim.post(0, 1, SimTime::millis(1), 1, [] {}),
               std::logic_error);
  EXPECT_THROW(psim.post(0, 2, SimTime::millis(1), 1, [] {}),
               std::out_of_range);
  EXPECT_THROW(psim.post(-1, 0, SimTime::millis(1), 1, [] {}),
               std::out_of_range);
}

// The lookahead for channel-connected actors is the channel's latency
// floor: a ping-pong at exactly that spacing crosses a partition pair at
// every hop and lands on the expected timestamps.
TEST(SimPartition, LookaheadFromChannelLatencyFloor) {
  net::ChannelConfig cc;
  cc.a_to_b.latency = SimTime::millis(2);
  cc.b_to_a.latency = SimTime::millis(5);
  ASSERT_EQ(net::latency_floor(cc), SimTime::millis(2));

  PartitionedSimulation psim(PartitionedSimulation::Options{
      2, SchedulerKind::kWheel, net::latency_floor(cc)});
  std::array<std::string, 2> logs;
  struct Ctx {
    PartitionedSimulation* psim;
    std::array<std::string, 2>* logs;
    SimTime hop;
    std::uint64_t stamp = 100;
  } ctx{&psim, &logs, net::latency_floor(cc)};

  std::function<void(int, int)> bounce = [&ctx, &bounce](int side, int left) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "t=%lld\n",
                  static_cast<long long>(
                      ctx.psim->partition(side).now().ns()));
    (*ctx.logs)[side] += buf;
    if (left == 0) return;
    int peer = 1 - side;
    ctx.psim->post(side, peer,
                   ctx.psim->partition(side).now() + ctx.hop, ctx.stamp++,
                   [&bounce, peer, left] { bounce(peer, left - 1); });
  };
  psim.partition(0).schedule_at(SimTime::zero(),
                                [&bounce] { bounce(0, 6); });
  psim.run();
  EXPECT_EQ(logs[0], "t=0\nt=4000000\nt=8000000\nt=12000000\n");
  EXPECT_EQ(logs[1], "t=2000000\nt=6000000\nt=10000000\n");
}

// ---------------------------------------------------------------------------
// Cross-partition cancel: there is no remote cancel primitive — the
// canceller posts a message and the owner cancels its own handle. Both
// the in-time cancel and the too-late (stale) cancel must read the same
// at every K.

TEST(SimPartition, CrossPartitionCancelViaOwnerMessage) {
  std::string reference;
  for (int k : {1, 2, 4, 8}) {
    PartitionedSimulation psim(
        PartitionedSimulation::Options{k, SchedulerKind::kWheel, kLookahead});
    const int owner_part = k - 1;
    Simulation& owner = psim.partition(owner_part);
    std::string log;
    // E at 10 ms will be cancelled in time; F at 3 ms fires before its
    // cancel message arrives at 8 ms.
    EventHandle e = owner.schedule_at(SimTime::millis(10),
                                      [&log] { log += "E fired\n"; });
    EventHandle f = owner.schedule_at(SimTime::millis(3),
                                      [&log] { log += "F fired\n"; });
    psim.post(0, owner_part, SimTime::millis(2), 1, [&owner, &log, e] {
      char buf[32];
      std::snprintf(buf, sizeof buf, "cancel E ok=%d\n",
                    owner.cancel(e) ? 1 : 0);
      log += buf;
    });
    psim.post(0, owner_part, SimTime::millis(8), 2, [&owner, &log, f] {
      char buf[32];
      std::snprintf(buf, sizeof buf, "cancel F ok=%d\n",
                    owner.cancel(f) ? 1 : 0);
      log += buf;
    });
    psim.run();
    EXPECT_EQ(log, "cancel E ok=1\nF fired\ncancel F ok=0\n") << "K=" << k;
    if (k == 1) {
      reference = log;
    } else {
      EXPECT_EQ(log, reference) << "K=" << k;
    }
  }
}

// ---------------------------------------------------------------------------
// Zero lookahead: the protocol degenerates to lockstep — one global
// timestamp per round, same-time posts delivered at the next barrier but
// still at that timestamp.

TEST(SimPartition, ZeroLookaheadFallsBackToLockstep) {
  std::vector<std::string> reference;
  std::uint64_t reference_rounds = 0;
  for (int k : {1, 2, 4}) {
    PartitionedSimulation psim(PartitionedSimulation::Options{
        k, SchedulerKind::kWheel, SimTime::zero()});
    std::vector<std::string> logs(4);  // 4 logical actors, actor a → a*k/4
    struct Hop {
      PartitionedSimulation* psim;
      std::vector<std::string>* logs;
      int k;
    } ctx{&psim, &logs, k};
    std::function<void(int, int)> hop = [&ctx, &hop](int actor, int left) {
      int part = actor * ctx.k / 4;
      char buf[48];
      std::snprintf(buf, sizeof buf, "t=%lld hop=%d\n",
                    static_cast<long long>(
                        ctx.psim->partition(part).now().ns()),
                    left);
      (*ctx.logs)[actor] += buf;
      if (left == 0) return;
      int next = (actor + 1) % 4;
      ctx.psim->post(part, next * ctx.k / 4,
                     ctx.psim->partition(part).now(),  // same timestamp
                     static_cast<std::uint64_t>(left),
                     [&hop, next, left] { hop(next, left - 1); });
    };
    psim.partition(0).schedule_at(SimTime::micros(1),
                                  [&hop] { hop(0, 10); });
    psim.run();
    // Every hop happened at exactly t = 1 us.
    for (const std::string& log : logs) {
      for (std::size_t pos = log.find("t="); pos != std::string::npos;
           pos = log.find("t=", pos + 1)) {
        EXPECT_EQ(log.compare(pos, 7, "t=1000 "), 0) << log;
      }
    }
    EXPECT_EQ(psim.now(), SimTime::micros(1));
    EXPECT_EQ(psim.events_fired(), 11u);
    if (k == 1) {
      reference = logs;
      reference_rounds = psim.rounds();
    } else {
      EXPECT_EQ(logs, reference) << "K=" << k;
      EXPECT_EQ(psim.rounds(), reference_rounds) << "K=" << k;
    }
  }
}

// ---------------------------------------------------------------------------
// Chunked driving: run_until in fixed steps keeps now() == deadline and
// monotone, and the engine drains completely by the horizon.

TEST(SimPartition, RunUntilChunksAdvanceMonotonically) {
  Harness h(4, SchedulerKind::kWheel, kLookahead, /*seed=*/7, /*budget=*/40);
  // Cancels off: a chunk deadline can split a window, which may reorder
  // exact equal-time local-vs-message ties; without cancels that cannot
  // change which events exist, only tie order (unobservable here).
  for (Lane& lane : h.lanes) lane.cancels_enabled = false;
  seed_harness(h);
  SimTime deadline = SimTime::zero();
  std::int64_t prev = -1;
  for (int i = 0; i < 200 && h.psim.pending() > 0; ++i) {
    deadline = deadline + SimTime::millis(7);
    h.psim.run_until(deadline);
    EXPECT_EQ(h.psim.now(), deadline);
    EXPECT_GT(h.psim.now().ns(), prev);
    prev = h.psim.now().ns();
  }
  EXPECT_EQ(h.psim.pending(), 0u);
  for (const Lane& lane : h.lanes) {
    EXPECT_EQ(lane.monotonic_violations, 0);
  }
}

TEST(SimPartition, PartitionsFromEnvValidation) {
  // No env var set in the test binary → default 1 partition.
  PartitionedSimulation psim;
  EXPECT_GE(psim.partitions(), 1);
  EXPECT_EQ(psim.lookahead(), SimTime::max());
  EXPECT_EQ(psim.partition(0).scheduler(), SchedulerKind::kWheel);
}

// ---------------------------------------------------------------------------
// Workload sharding (src/sim/workload.h): shard membership is a pure
// function of (client, population, shard_count) and the per-shard request
// streams — and therefore their deterministic merge — are identical no
// matter how many partitions the shards are spread across.

TEST(WorkloadSharding, ShardRangesPartitionThePopulation) {
  for (std::uint64_t n : {1ull, 7ull, 1000ull, 10'003ull}) {
    for (std::uint32_t count : {1u, 2u, 3u, 4u, 8u}) {
      EXPECT_EQ(workload::shard_begin(n, 0, count), 0u);
      EXPECT_EQ(workload::shard_begin(n, count, count), n);
      for (std::uint32_t s = 0; s < count; ++s) {
        EXPECT_LE(workload::shard_begin(n, s, count),
                  workload::shard_begin(n, s + 1, count));
      }
      for (std::uint64_t c = 0; c < n; ++c) {
        std::uint32_t s = workload::shard_of(c, n, count);
        ASSERT_LT(s, count);
        ASSERT_LE(workload::shard_begin(n, s, count), c);
        ASSERT_LT(c, workload::shard_begin(n, s + 1, count));
      }
    }
  }
}

TEST(WorkloadSharding, GeneratorOwnsExactlyItsShardRange) {
  const std::uint64_t n = 4000;
  const std::uint32_t kShards = 4;
  Simulation sim(SchedulerKind::kWheel);
  for (std::uint32_t s = 0; s < kShards; ++s) {
    workload::Config cfg;
    cfg.clients = n;
    cfg.seed = 9;
    cfg.shard_count = kShards;
    cfg.shard_index = s;
    workload::Generator gen(sim, cfg, [](const workload::Request&) {});
    EXPECT_EQ(gen.shard_client_begin(), workload::shard_begin(n, s, kShards));
    EXPECT_EQ(gen.shard_client_end(),
              workload::shard_begin(n, s + 1, kShards));
  }
}

struct ShardStreams {
  std::array<std::string, 4> per_shard;
  std::string merged;
};

ShardStreams run_sharded_workload(int k) {
  const std::uint32_t kShards = 4;
  PartitionedSimulation psim(PartitionedSimulation::Options{
      k, SchedulerKind::kWheel, SimTime::max()});
  ShardStreams out;
  struct Record {
    std::int64_t at;
    std::uint32_t shard;
    std::uint64_t idx;
    std::string line;
  };
  std::array<std::vector<Record>, 4> records;
  std::vector<std::unique_ptr<workload::Generator>> gens;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    workload::Config cfg;
    cfg.clients = 4000;
    cfg.seed = 99;
    cfg.shard_count = kShards;
    cfg.shard_index = s;
    cfg.arrivals.session_rate_per_s = 200;
    cfg.arrivals.diurnal.enabled = true;
    cfg.arrivals.diurnal.period_s = 60;
    cfg.arrivals.flash_crowds = {{20.0, 5.0, 3.0}};
    cfg.session.warm_start_fraction = 0.3;
    int part = static_cast<int>(s) * k / static_cast<int>(kShards);
    auto* recs = &records[s];
    gens.push_back(std::make_unique<workload::Generator>(
        psim.partition(part), cfg, [recs, s](const workload::Request& r) {
          char buf[96];
          std::snprintf(buf, sizeof buf,
                        "s=%u t=%lld c=%llu sess=%llu i=%u cold=%d dc=%u\n",
                        s, static_cast<long long>(r.at.ns()),
                        static_cast<unsigned long long>(r.client),
                        static_cast<unsigned long long>(r.session),
                        r.index_in_session, r.cold_model ? 1 : 0,
                        r.device_class);
          recs->push_back(Record{r.at.ns(), s,
                                 static_cast<std::uint64_t>(recs->size()),
                                 buf});
        }));
    gens.back()->start(SimTime::seconds(40.0));
  }
  psim.run();
  std::vector<Record> all;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    for (Record& r : records[s]) out.per_shard[s] += r.line;
    for (Record& r : records[s]) all.push_back(std::move(r));
  }
  std::sort(all.begin(), all.end(), [](const Record& a, const Record& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.shard != b.shard) return a.shard < b.shard;
    return a.idx < b.idx;
  });
  for (const Record& r : all) out.merged += r.line;
  return out;
}

TEST(WorkloadSharding, MergedShardStreamIsPartitionCountInvariant) {
  ShardStreams ref = run_sharded_workload(1);
  EXPECT_FALSE(ref.merged.empty());
  // Every emitted client sits inside its shard's range.
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_FALSE(ref.per_shard[s].empty()) << "shard " << s;
  }
  for (int k : {2, 4}) {
    ShardStreams got = run_sharded_workload(k);
    for (std::uint32_t s = 0; s < 4; ++s) {
      ASSERT_EQ(got.per_shard[s], ref.per_shard[s])
          << "K=" << k << " shard=" << s;
    }
    EXPECT_EQ(got.merged, ref.merged) << "K=" << k;
  }
}

// A 1-shard generator on partition 0 of a 1-partition engine emits the
// byte-identical stream a plain Simulation produces — the K = 1 engine
// pass-through, observed at the workload layer.
TEST(WorkloadSharding, SingleShardOnPartitionedEngineMatchesPlain) {
  auto run = [](Simulation& sim, std::size_t (*drain)(void*), void* ctx) {
    workload::Config cfg;
    cfg.clients = 1000;
    cfg.seed = 21;
    cfg.arrivals.session_rate_per_s = 80;
    std::string stream;
    workload::Generator gen(sim, cfg, [&stream](const workload::Request& r) {
      char buf[80];
      std::snprintf(buf, sizeof buf, "t=%lld c=%llu i=%u cold=%d\n",
                    static_cast<long long>(r.at.ns()),
                    static_cast<unsigned long long>(r.client),
                    r.index_in_session, r.cold_model ? 1 : 0);
      stream += buf;
    });
    gen.start(SimTime::seconds(20.0));
    drain(ctx);
    return stream;
  };
  Simulation plain(SchedulerKind::kWheel);
  std::string a = run(
      plain, [](void* s) { return static_cast<Simulation*>(s)->run(); },
      &plain);
  PartitionedSimulation psim(PartitionedSimulation::Options{
      1, SchedulerKind::kWheel, SimTime::max()});
  std::string b = run(
      psim.partition(0),
      [](void* p) { return static_cast<PartitionedSimulation*>(p)->run(); },
      &psim);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace offload::sim
