// perfbench: the offload pipeline benchmark.
//
//   perfbench --workload cold_presend|warm_stream|population --seed N
//             --seconds S --trace 0|1 [--tiny] [--corrupt-reference]
//             [--spans-out PATH]
//
// Prints a run header, human-readable notes and every metric, then, as the
// last line of stdout, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exits non-zero when any op failed its correctness gate.
#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>

#include "perfbench/src/workloads.h"
#include "src/nn/kernels.h"
#include "src/sim/partition.h"
#include "src/util/thread_pool.h"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Report;

/// End-to-end metrics in the JSON result (every workload reports them;
/// ratios that are zero on a healthy run are printed above it instead).
const char* const kEndToEnd[] = {
    "setup_s",           "ops_per_s",         "op_wall_ms_p50",
    "op_wall_ms_tail",   "peak_rss_mb",       "sim_latency_s_p50",
    "sim_latency_s_p99", "sim_edge_ratio"};

/// Per-layer metrics in the JSON result, with their units. A layer a
/// workload does not exercise reports 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
const LayerMetric kPerLayer[] = {
    {"core.dnn_client_s", "s"},
    {"core.capture_client_s", "s"},
    {"core.tx_up_s", "s"},
    {"core.restore_server_s", "s"},
    {"core.dnn_server_s", "s"},
    {"core.capture_server_s", "s"},
    {"core.queue_wait_s", "s"},
    {"core.tx_down_s", "s"},
    {"core.restore_client_s", "s"},
    {"jsvm.capture_ms", "ms"},
    {"jsvm.restore_ms", "ms"},
    {"jsvm.snapshot_bytes", "bytes"},
    {"jsvm.heap_objects", "count"},
    {"nn.forward_ms", "ms"},
    {"nn.forward_front_ms", "ms"},
    {"nn.weights_encode_ms", "ms"},
    {"nn.weights_decode_ms", "ms"},
    {"nn.weight_bytes", "bytes"},
    {"util.crc32_ms", "ms"},
    {"util.crc32_mb_per_s", "MB/s"},
    {"net.msg_encode_ms", "ms"},
    {"net.msg_decode_ms", "ms"},
    {"net.bytes_up", "bytes"},
    {"net.bytes_down", "bytes"},
    {"net.messages", "count"},
    {"edge.verify_payload_ms", "ms"},
    {"edge.model_store_ms", "ms"},
    {"edge.model_instantiate_ms", "ms"},
    {"edge.snapshots_executed", "count"},
    {"obs.spans_per_op", "count"},
    {"obs.metric_series", "count"},
    {"sim.dispatch_ms", "ms"},
    {"sim.events_per_window", "count"},
    {"sim.workload.requests", "count"},
    {"sim.workload.cold_sessions", "count"},
    {"serve.submit_us", "us"},
    {"serve.launches", "count"},
    {"serve.rejected", "count"},
    {"serve.peak_queue_depth", "count"},
    {"serve.queue_wait_s_p99", "s"},
    {"fleet.route_us", "us"},
    {"fleet.max_server_share", "ratio"},
    {"util.self_ms", "ms"},
    {"sim.self_ms", "ms"},
    {"obs.self_ms", "ms"},
    {"net.self_ms", "ms"},
    {"nn.self_ms", "ms"},
    {"jsvm.self_ms", "ms"},
    {"serve.self_ms", "ms"},
    {"edge.self_ms", "ms"},
    {"fleet.self_ms", "ms"},
    {"core.self_ms", "ms"},
    {"trace.real_call_ms_p50", "ms"},
    {"trace.untraced_op_ms_p50", "ms"},
    {"trace.overhead_ms", "ms"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "cold_presend|warm_stream|population --seed N --seconds S "
               "--trace 0|1 [--tiny] [--corrupt-reference] [--spans-out P]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      o.trace = value() == "1";
    } else if (a == "--tiny") {
      o.tiny = true;
    } else if (a == "--corrupt-reference") {
      o.corrupt_reference = true;
    } else if (a == "--spans-out") {
      o.spans_out = value();
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

std::string affinity_list() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return "?";
  std::string out;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &set)) continue;
    int end = c;
    while (end + 1 < CPU_SETSIZE && CPU_ISSET(end + 1, &set)) ++end;
    if (!out.empty()) out += ",";
    out += std::to_string(c);
    if (end > c) out += "-" + std::to_string(end);
    c = end;
  }
  return out;
}

void print_header(const Options& o) {
  std::printf("# perfbench  workload=%s seed=%llu seconds=%g trace=%d%s\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0, o.tiny ? " (tiny)" : "");
  std::printf("# host       nproc=%ld affinity=%s build=%s\n",
              sysconf(_SC_NPROCESSORS_ONLN), affinity_list().c_str(),
              PERFBENCH_BUILD_TYPE);
  std::printf(
      "# effective  OFFLOAD_THREADS=%zu OFFLOAD_KERNELS=%s "
      "OFFLOAD_SIM_PARTITIONS=%d\n",
      offload::util::default_thread_count(),
      offload::nn::kernel_backend_name(offload::nn::active_kernel_backend()),
      offload::sim::PartitionedSimulation::partitions_from_env());
}

void print_metric(const Metric& m) {
  std::printf("  %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  print_header(opt);
  std::fflush(stdout);

  Report rep;
  try {
    if (opt.workload == "cold_presend") {
      rep = perfbench::run_cold_presend(opt);
    } else if (opt.workload == "warm_stream") {
      rep = perfbench::run_warm_stream(opt);
    } else if (opt.workload == "population") {
      rep = perfbench::run_population(opt);
    } else {
      usage(("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }

  for (const std::string& n : rep.notes) std::printf("# %s\n", n.c_str());
  for (const std::string& f : rep.failures) {
    std::printf("# FAILED %s\n", f.c_str());
  }
  std::printf("# ops        attempted=%llu succeeded=%llu failed=%llu "
              "failed_ratio=%.6g\n",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.attempted - rep.failed),
              static_cast<unsigned long long>(rep.failed),
              rep.attempted ? static_cast<double>(rep.failed) /
                                  static_cast<double>(rep.attempted)
                            : 0.0);

  const auto& reported = opt.trace ? rep.per_layer : rep.end_to_end;
  std::map<std::string, Metric> by_name;
  for (const Metric& m : reported) by_name[m.name] = m;
  std::printf("# %s metrics:\n", opt.trace ? "per-layer" : "end-to-end");
  for (const Metric& m : reported) print_metric(m);
  if (!opt.trace) {
    print_metric({"failed_ratio",
                  rep.attempted ? static_cast<double>(rep.failed) /
                                      static_cast<double>(rep.attempted)
                                : 0.0,
                  "ratio"});
  }

  std::string json = "{\"correct\": ";
  json += rep.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(rep.attempted);
  json += ", \"failed\": " + std::to_string(rep.failed);
  json += ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const char* name, const char* unit) {
    auto it = by_name.find(name);
    const Metric m =
        it != by_name.end() ? it->second : Metric{name, 0.0, unit};
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    if (!first) json += ", ";
    first = false;
    json += "\"" + json_escape(m.name) + "\": {\"value\": " + buf +
            ", \"unit\": \"" + json_escape(m.unit) + "\"}";
  };
  if (opt.trace) {
    for (const LayerMetric& m : kPerLayer) emit(m.name, m.unit);
  } else {
    for (const char* n : kEndToEnd) emit(n, "");
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return rep.failed == 0 ? 0 : 1;
}
