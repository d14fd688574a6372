#include "perfbench/src/common.h"

#include <sys/resource.h>

#include <cstdio>

namespace perfbench {

namespace {

const char* const kLayers[] = {"util", "sim",  "obs",   "net",  "nn",
                               "jsvm", "serve", "edge", "fleet", "core"};

double time_s(const std::function<void()>& fn) {
  const auto t0 = Clock::now();
  fn();
  return ms_between(t0, Clock::now()) / 1e3;
}

}  // namespace

double median_setup_s(int reps, const std::function<void()>& reset,
                      const std::function<void()>& setup) {
  offload::util::Samples s;
  for (int i = 0; i < reps; ++i) {
    reset();
    s.add(time_s(setup));
  }
  return s.median();
}

double run_rounds(const Options& opt,
                  const std::function<void(int round)>& round) {
  const int min_rounds = opt.trace ? 2 : 1;
  double measured_s = 0;
  for (int done = 0;; ++done) {
    if (done >= min_rounds &&
        (opt.tiny || measured_s + measured_s / done > opt.seconds)) {
      return measured_s;
    }
    measured_s += time_s([&] { round(done); });
  }
}

void add_wall_metrics(Report& report, const offload::util::Samples& op_ms,
                      double measured_s, double tail_pct) {
  const std::size_t n = op_ms.count();
  report.e2e("ops_per_s", measured_s > 0 ? static_cast<double>(n) / measured_s
                                         : 0,
             "1/s");
  report.e2e("op_wall_ms_p50", n ? op_ms.percentile(50) : 0, "ms");
  report.e2e("op_wall_ms_tail", n ? op_ms.percentile(tail_pct) : 0, "ms");
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "op_wall_ms_tail is p%g over %zu timed ops (%.0f samples "
                "beyond it)",
                tail_pct, n,
                static_cast<double>(n) * (100.0 - tail_pct) / 100.0);
  report.notes.emplace_back(buf);
}

void add_self_times(Report& report, const std::map<std::string, double>& self,
                    double ops) {
  for (const char* layer : kLayers) {
    auto it = self.find(layer);
    report.layer(std::string(layer) + ".self_ms",
                 it == self.end() ? 0.0 : it->second / ops, "ms");
  }
}

void add_trace_overhead(Report& report,
                        const offload::util::Samples& traced_real_ms,
                        const offload::util::Samples& untraced_op_ms) {
  const double traced = traced_real_ms.count() ? traced_real_ms.median() : 0;
  const double untraced = untraced_op_ms.count() ? untraced_op_ms.median() : 0;
  report.layer("trace.real_call_ms_p50", traced, "ms");
  report.layer("trace.untraced_op_ms_p50", untraced, "ms");
  report.layer("trace.overhead_ms", traced - untraced, "ms");
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
