// Shared types of the perfbench program: command-line options, the report a
// workload hands back, and the closed-loop round runner.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "perfbench/src/spans.h"
#include "src/util/stats.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Smallest run that still produces every metric (the benchmark's own
  /// tests use it): the minimum rounds, a small population.
  bool tiny = false;
  /// Test hook: swap the reference label of every image but image 0 for a
  /// wrong one, so the per-op correctness gate must fail.
  bool corrupt_reference = false;
  /// Where the traced run writes its spans (JSON lines); "" = nowhere.
  std::string spans_out;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload run reports. `end_to_end` is filled by untraced runs,
/// `per_layer` by traced runs; `notes` are human-readable lines printed
/// before the JSON result.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure reasons
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> notes;

  void fail(const std::string& why) {
    ++failed;
    if (failures.size() < 8) failures.push_back(why);
  }
  void e2e(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Set up `reps` times and keep the last result; returns the median set-up
/// time in seconds. Before each timed `setup`, `reset` drops the previous
/// state, so no set-up times a teardown.
double median_setup_s(int reps, const std::function<void()>& reset,
                      const std::function<void()>& setup);

/// Measurement over whole rounds. Round 0 always runs (untraced; in a
/// traced run it is the reference for the tracing overhead, and round 1,
/// the first traced round, runs too). Further rounds run while another is
/// expected to fit in `opt.seconds`; a tiny run stops at the minimum.
/// Returns the measured seconds.
double run_rounds(const Options& opt,
                  const std::function<void(int round)>& round);

/// Wall-clock end-to-end metrics shared by every workload: ops/s, median
/// and tail op time, with sample counts in the notes. `tail_pct` is fixed
/// per workload, so it never jumps between runs: the highest percentile
/// with at least ten samples beyond it at the benchmark's run length that
/// also sits inside one op kind's cost band (see README.md).
void add_wall_metrics(Report& report, const offload::util::Samples& op_ms,
                      double measured_s, double tail_pct);

/// Per-layer self times (`<layer>.self_ms`, per op) for every library
/// module, from SpanLog::self_ms_by_layer totals over `ops` traced ops.
void add_self_times(Report& report, const std::map<std::string, double>& self,
                    double ops);

/// Tracing overhead: median traced real-call span minus the median
/// untraced op wall time, both measured in the same run.
void add_trace_overhead(Report& report,
                        const offload::util::Samples& traced_real_ms,
                        const offload::util::Samples& untraced_op_ms);

/// Peak resident set of this process, in MB.
double peak_rss_mb();

/// splitmix64 finalizer: derives independent sub-seeds from the run seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

}  // namespace perfbench
