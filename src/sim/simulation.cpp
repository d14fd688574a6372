#include "src/sim/simulation.h"

#include <cstdio>
#include <stdexcept>

namespace offload::sim {

std::string SimTime::str() const {
  char buf[64];
  double s = to_seconds();
  if (ns_ >= 1000000000 || ns_ <= -1000000000) {
    std::snprintf(buf, sizeof(buf), "%.3fs", s);
  } else if (ns_ >= 1000000 || ns_ <= -1000000) {
    std::snprintf(buf, sizeof(buf), "%.3fms", s * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%lldns", static_cast<long long>(ns_));
  }
  return buf;
}

Simulation::Simulation(SchedulerKind kind) : kind_(kind) {}

EventHandle Simulation::schedule_at(SimTime when, EventFn fn) {
  if (when < now_) {
    throw std::logic_error("Simulation::schedule_at: time is in the past");
  }
  std::uint64_t seq = next_seq_++;
  EventNode* node = arena_.allocate(when, seq, std::move(fn));
  ++pending_;
  if (kind_ == SchedulerKind::kWheel) {
    wheel_.insert(TimingWheel::Record{
        static_cast<std::uint64_t>(when.ns()), seq, node->index});
  } else {
    heap_.push(HeapKey{when, seq, node->index});
  }
  return EventHandle(node->index, node->gen);
}

bool Simulation::cancel(EventHandle handle) {
  if (!handle.valid()) return false;
  EventNode* node = arena_.resolve(handle.index_, handle.gen_);
  if (node == nullptr) return false;
  --pending_;
  // Both backends keep (when, seq, index) records, not the node: the
  // record stays behind as a tombstone and is skipped lazily (the live
  // seq no longer matches); the closure and the node are reclaimed now.
  arena_.release(node);
  return true;
}

EventNode* Simulation::peek_next() {
  if (kind_ == SchedulerKind::kWheel) return wheel_.peek();
  while (!heap_.empty()) {
    const HeapKey& key = heap_.top();
    EventNode* node = arena_.at(key.index);
    if (node->seq == key.seq) return node;  // live (seqs are unique)
    heap_.pop();                            // cancelled: slot was recycled
  }
  return nullptr;
}

bool Simulation::fire_next() {
  EventNode* node;
  if (kind_ == SchedulerKind::kWheel) {
    node = wheel_.pop();  // one scan, not peek-then-pop
    if (node == nullptr) return false;
  } else {
    node = peek_next();
    if (node == nullptr) return false;
    heap_.pop();
  }
  now_ = node->when;
  --pending_;
  // Tombstone the slot before running user code, so a cancel of this very
  // event from inside its own callback is a clean "already fired" no (the
  // sequence number no longer matches, and resolve() treats seq == 0 as
  // free). The closure runs in place — no move of the inline capture
  // buffer — and the node is recycled right after; the node cannot be
  // handed out again mid-callback because it is not on the free list yet.
  node->seq = 0;
  node->fn.consume();  // invoke + destroy, one dispatch
  arena_.release(node);
  return true;
}

std::size_t Simulation::run() {
  std::size_t fired = 0;
  while (fire_next()) ++fired;
  return fired;
}

std::size_t Simulation::run_until(SimTime deadline) {
  std::size_t fired = 0;
  while (true) {
    EventNode* node = peek_next();
    if (node == nullptr || node->when > deadline) break;
    if (fire_next()) ++fired;
  }
  if (now_ < deadline) now_ = deadline;
  return fired;
}

bool Simulation::step() { return fire_next(); }

SimTime Simulation::next_event_time() {
  EventNode* node = peek_next();
  return node == nullptr ? SimTime::max() : node->when;
}

}  // namespace offload::sim
