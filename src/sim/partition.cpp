#include "src/sim/partition.h"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>

namespace offload::sim {

namespace {

constexpr int kMaxPartitions = 256;

}  // namespace

int PartitionedSimulation::partitions_from_env() {
  const char* env = std::getenv("OFFLOAD_SIM_PARTITIONS");
  if (env == nullptr || *env == '\0') return 1;
  char* end = nullptr;
  long v = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || v < 1 || v > kMaxPartitions) {
    throw std::invalid_argument(
        "OFFLOAD_SIM_PARTITIONS must be an integer in [1, 256]");
  }
  return static_cast<int>(v);
}

PartitionedSimulation::PartitionedSimulation()
    : PartitionedSimulation(Options{partitions_from_env(),
                                    SchedulerKind::kWheel, SimTime::max()}) {}

PartitionedSimulation::PartitionedSimulation(Options options)
    : lookahead_(options.lookahead) {
  if (options.partitions < 1 || options.partitions > kMaxPartitions) {
    throw std::invalid_argument(
        "PartitionedSimulation: partitions must be in [1, 256]");
  }
  if (lookahead_ < SimTime::zero()) {
    throw std::invalid_argument(
        "PartitionedSimulation: lookahead must be >= 0");
  }
  const auto k = static_cast<std::size_t>(options.partitions);
  parts_.reserve(k);
  for (std::size_t p = 0; p < k; ++p) {
    parts_.push_back(std::make_unique<Partition>(options.scheduler));
  }
  mail_.reserve(k * k);
  for (std::size_t i = 0; i < k * k; ++i) {
    mail_.push_back(std::make_unique<util::SpscMailbox<Post>>());
  }
  if (k > 1) pool_ = std::make_unique<util::ThreadPool>(k);
}

PartitionedSimulation::~PartitionedSimulation() = default;

void PartitionedSimulation::post(int from, int to, SimTime when,
                                 std::uint64_t stamp, EventFn fn) {
  const int k = partitions();
  if (from < 0 || from >= k || to < 0 || to >= k) {
    throw std::out_of_range("PartitionedSimulation::post: bad partition");
  }
  if (lookahead_ == SimTime::max()) {
    throw std::logic_error(
        "PartitionedSimulation::post: partitions were declared independent "
        "(lookahead = SimTime::max()); construct with the real channel "
        "latency floor to enable cross-partition traffic");
  }
  // The conservative bound: nothing may land closer than `lookahead_`
  // ahead of the sender's clock, or it could fall inside a range a peer
  // already fired this window. Exactly the boundary is legal.
  SimTime sender_now = parts_[from]->engine.now();
  if (when - sender_now < lookahead_) {
    throw std::logic_error(
        "PartitionedSimulation::post: when violates the conservative "
        "lookahead bound (when < sender now + lookahead)");
  }
  Partition& sender = *parts_[from];
  mailbox(from, to).push(
      Post{when, stamp, static_cast<std::uint32_t>(from),
           sender.post_seq++, std::move(fn)});
}

void PartitionedSimulation::drain_mailboxes() {
  const int k = partitions();
  for (int to = 0; to < k; ++to) {
    drain_scratch_.clear();
    for (int from = 0; from < k; ++from) {
      mailbox(from, to).drain(
          [this](Post&& post) { drain_scratch_.push_back(std::move(post)); });
    }
    if (drain_scratch_.empty()) continue;
    // Deterministic merge order. (when, stamp) is the cross-K-stable
    // part of the key; (from, seq) breaks any remaining ties
    // reproducibly for a fixed K.
    std::sort(drain_scratch_.begin(), drain_scratch_.end(),
              [](const Post& a, const Post& b) {
                if (a.when != b.when) return a.when < b.when;
                if (a.stamp != b.stamp) return a.stamp < b.stamp;
                if (a.from != b.from) return a.from < b.from;
                return a.seq < b.seq;
              });
    Simulation& engine = parts_[to]->engine;
    for (Post& post : drain_scratch_) {
      engine.schedule_at(post.when, std::move(post.fn));
    }
    drain_scratch_.clear();
  }
}

void PartitionedSimulation::fire_window(SimTime cutoff) {
  const int k = partitions();
  if (k == 1) {
    parts_[0]->fired_this_round = parts_[0]->engine.run_until(cutoff);
  } else {
    auto body = [this, cutoff](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t p = lo; p < hi; ++p) {
        parts_[p]->fired_this_round = parts_[p]->engine.run_until(cutoff);
      }
    };
    pool_->parallel_for(0, k, 1, util::RangeFn(body));
  }
  for (int p = 0; p < k; ++p) total_fired_ += parts_[p]->fired_this_round;
}

std::size_t PartitionedSimulation::run_until(SimTime deadline) {
  const std::uint64_t fired_before = total_fired_;
  while (true) {
    // Merge barrier: everything posted before this point (setup posts
    // included, on the first pass) becomes schedulable now.
    drain_mailboxes();
    SimTime t = SimTime::max();
    for (auto& part : parts_) {
      t = std::min(t, part->engine.next_event_time());
    }
    if (t == SimTime::max() || t > deadline) break;
    committed_ = std::max(committed_, t);
    // Safe window [t, cutoff], cutoff inclusive. Zero lookahead
    // degenerates to lockstep over single timestamps; infinite lookahead
    // (independent partitions) runs each engine straight to the deadline.
    SimTime cutoff;
    if (lookahead_ == SimTime::max()) {
      cutoff = deadline;
    } else if (lookahead_ == SimTime::zero()) {
      cutoff = t;
    } else {
      const std::int64_t ns = t.ns();
      const std::int64_t la = lookahead_.ns();
      const std::int64_t end =
          ns > std::numeric_limits<std::int64_t>::max() - la
              ? std::numeric_limits<std::int64_t>::max()
              : ns + la - 1;
      cutoff = std::min(SimTime::nanos(end), deadline);
    }
    fire_window(cutoff);
    ++rounds_;
  }
  if (deadline != SimTime::max()) {
    // Mirror Simulation::run_until: idle clocks still advance to the
    // deadline so relative scheduling after the call behaves uniformly.
    for (auto& part : parts_) part->engine.run_until(deadline);
    committed_ = std::max(committed_, deadline);
  }
  return static_cast<std::size_t>(total_fired_ - fired_before);
}

std::size_t PartitionedSimulation::run() {
  return run_until(SimTime::max());
}

std::size_t PartitionedSimulation::pending() const {
  std::size_t n = 0;
  for (const auto& part : parts_) n += part->engine.pending();
  for (const auto& mb : mail_) n += mb->in_flight();
  return n;
}

}  // namespace offload::sim
