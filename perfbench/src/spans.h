// In-memory span log for the traced benchmark run. Spans are recorded
// around the benchmark's own calls into each library module (nothing under
// src/ is instrumented), kept in memory, and written out as JSON lines when
// the run ends. A layer's self time is its spans' durations minus the part
// covered by their child spans.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds between two steady-clock points.
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Span {
  std::string name;   ///< e.g. "util.crc32"
  std::string layer;  ///< module under src/, or "bench" for harness spans
  double start_ms = 0;
  double end_ms = 0;
  int parent = -1;    ///< index into the log, -1 for a root
  std::uint64_t op = 0;
  /// Calls folded into this span. Population windows aggregate every
  /// route/submit call of a window into one span whose duration is the
  /// summed call time, so memory stays bounded.
  std::uint64_t calls = 1;

  double duration_ms() const { return end_ms - start_ms; }
};

class SpanLog {
 public:
  SpanLog() : epoch_(Clock::now()) {}

  double now_ms() const { return ms_between(epoch_, Clock::now()); }

  int open(std::string name, std::string layer, int parent, std::uint64_t op);
  void close(int index);
  /// Record an already-measured (possibly aggregated) span.
  int add(std::string name, std::string layer, int parent, std::uint64_t op,
          double start_ms, double end_ms, std::uint64_t calls);

  const std::vector<Span>& spans() const { return spans_; }
  const Span& at(int index) const { return spans_.at(index); }

  /// Self time per layer over spans [first, end): duration minus the
  /// durations of direct children.
  std::map<std::string, double> self_ms_by_layer(std::size_t first = 0) const;
  /// Summed durations per span name over spans [first, end).
  std::map<std::string, double> ms_by_name(std::size_t first = 0) const;

  /// Write every span as one JSON object per line. Returns false on I/O
  /// failure.
  bool write_jsonl(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// RAII span; a null log makes it a no-op, so untraced runs pay one
/// branch per site.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, std::string layer, int parent,
             std::uint64_t op)
      : log_(log),
        index_(log ? log->open(std::move(name), std::move(layer), parent, op)
                   : -1) {}
  ~ScopedSpan() {
    if (log_) log_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int index() const { return index_; }

 private:
  SpanLog* log_;
  int index_;
};

}  // namespace perfbench
