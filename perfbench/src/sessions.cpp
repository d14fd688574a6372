// cold_presend and warm_stream: real OffloadingRuntime sessions over the
// three paper apps × {full, partial}, checked against local references.
//
// Traced runs add a replay of each op's stages through the public entry
// points of util, nn, net, edge and jsvm, on the op's own model and image.
// Calls inside OffloadingRuntime::run() cannot be wrapped without touching
// the library, so the replay measures what one call of each stage costs,
// not how many times the pipeline repeats it (the pipeline CRCs each
// pre-sent byte several times; the replay does it once per hop).
#include <malloc.h>

#include <algorithm>
#include <memory>
#include <span>
#include <stdexcept>
#include <string_view>

#include "perfbench/src/apps.h"
#include "perfbench/src/workloads.h"
#include "src/core/trace_breakdown.h"
#include "src/edge/protocol.h"
#include "src/jsvm/snapshot.h"
#include "src/net/message.h"
#include "src/nn/model_io.h"
#include "src/util/bytes.h"
#include "src/util/crc32.h"
#include "src/util/rng.h"

namespace perfbench {
namespace {

namespace core = offload::core;
namespace edge = offload::edge;
namespace jsvm = offload::jsvm;
namespace net = offload::net;
namespace nn = offload::nn;
namespace sim = offload::sim;
namespace util = offload::util;

constexpr std::size_t kImagesPerModel = 3;
/// Warm clicks per session in one round.
constexpr int kWarmClicksPerSession = 2;

/// What one op produced: the gate verdict, the modeled outcome and the
/// per-op counters read from the runtime.
struct OpOutcome {
  bool fallback = false;
  double sim_latency_s = 0;
  core::InferenceBreakdown bd;
  std::uint64_t bytes_up = 0;
  std::uint64_t bytes_down = 0;
  std::uint64_t messages = 0;
  std::uint64_t snapshots_executed = 0;
  std::uint64_t spans = 0;
  std::uint64_t metric_series = 0;
};

/// Counts the replay accumulates for one op.
struct ReplayCounts {
  std::uint64_t weight_bytes = 0;
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t heap_objects = 0;
  std::uint64_t crc_bytes = 0;
};

struct PlannedOp {
  OpKind kind;
  std::size_t image = 0;
};

/// Round `round`: every app × mode kind `repeats` times in a seeded order,
/// each showing a seeded image from the pool. Whole rounds keep the op mix
/// identical from run to run.
std::vector<PlannedOp> plan_round(std::uint64_t seed, int round, int repeats) {
  util::Pcg32 rng(
      mix_seed(seed, 0x726f756e64ULL + static_cast<unsigned>(round)), 7);
  std::vector<PlannedOp> ops;
  for (int r = 0; r < repeats; ++r) {
    for (std::size_t k = 0; k < kOpKinds; ++k) ops.push_back({op_kind(k), 0});
  }
  for (std::size_t i = ops.size() - 1; i > 0; --i) {
    std::swap(ops[i], ops[rng.next_below(static_cast<std::uint32_t>(i + 1))]);
  }
  for (PlannedOp& op : ops) {
    op.image = rng.next_below(static_cast<std::uint32_t>(kImagesPerModel));
  }
  return ops;
}

/// Where the replay's spans go (null log = untraced).
struct Tr {
  SpanLog* log = nullptr;
  int parent = -1;
  std::uint64_t op = 0;
};

template <class F>
decltype(auto) timed(const Tr& t, const char* name, const char* layer, F&& f) {
  ScopedSpan span(t.log, name, layer, t.parent, t.op);
  return f();
}

/// One hop of a message: CRC stamp, wire encode, decode, receiver verify.
net::Message ship(const Tr& t, net::Message msg, ReplayCounts& c) {
  timed(t, "util.crc32", "util", [&] {
    msg.crc = util::crc32(std::span<const std::uint8_t>(msg.payload));
  });
  c.crc_bytes += msg.payload.size();
  util::Bytes wire =
      timed(t, "net.msg_encode", "net", [&] { return msg.encode(); });
  msg = {};
  net::Message got = timed(t, "net.msg_decode", "net",
                           [&] { return net::Message::decode(wire); });
  timed(t, "edge.verify_payload", "edge", [&] { edge::verify_payload(got); });
  return got;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

/// Pre-send replay: encode the weights, ship them, store and instantiate
/// them on the edge. Returns the edge's model store.
std::shared_ptr<edge::ModelStore> replay_presend(const Tr& t,
                                                 const ModelCase& mc,
                                                 bool partial,
                                                 ReplayCounts& c) {
  std::vector<nn::ModelFile> files = timed(t, "nn.weights_encode", "nn", [&] {
    return partial ? nn::model_files_rear_only(*mc.net, mc.cut)
                   : nn::model_files(*mc.net);
  });
  c.weight_bytes += nn::total_size(files);
  net::Message msg;
  msg.type = net::MessageType::kModelFiles;
  msg.name = mc.app;
  {
    edge::ModelFilesPayload out;
    out.files = std::move(files);
    msg.payload =
        timed(t, "edge.payload_encode", "edge", [&] { return out.encode(); });
  }
  edge::ModelFilesPayload in;
  {
    net::Message got = ship(t, std::move(msg), c);
    in = timed(t, "edge.payload_decode", "edge", [&] {
      return edge::ModelFilesPayload::decode(std::span(got.payload));
    });
  }
  timed(t, "nn.weights_decode", "nn", [&] {
    std::unique_ptr<nn::Network> decoded;
    for (const nn::ModelFile& f : in.files) {
      if (ends_with(f.name, ".desc")) {
        decoded = nn::parse_description(util::to_string(std::span(f.content)));
      }
    }
    if (!decoded) throw std::runtime_error("replay: no model description");
    for (const nn::ModelFile& f : in.files) {
      if (ends_with(f.name, ".weights")) {
        nn::load_weights(*decoded, std::span(f.content));
      }
    }
  });
  auto store = std::make_shared<edge::ModelStore>();
  timed(t, "edge.model_store", "edge",
        [&] { store->store_files(std::move(in.files)); });
  timed(t, "edge.model_instantiate", "edge",
        [&] { store->instantiate(mc.app); });
  return store;
}

/// Snapshot shipped between pages: payload encode, one hop, decode.
edge::SnapshotPayload ship_snapshot(const Tr& t, const ModelCase& mc,
                                    bool partial, net::MessageType type,
                                    std::string program, ReplayCounts& c) {
  edge::SnapshotPayload out;
  out.cut = partial ? mc.cut : UINT64_MAX;
  out.program = std::move(program);
  net::Message msg;
  msg.type = type;
  msg.name = mc.app;
  msg.payload =
      timed(t, "edge.payload_encode", "edge", [&] { return out.encode(); });
  out = {};
  net::Message got = ship(t, std::move(msg), c);
  return timed(t, "edge.payload_decode", "edge", [&] {
    return edge::SnapshotPayload::decode(std::span(got.payload));
  });
}

void count_snapshot(const jsvm::SnapshotResult& snap, ReplayCounts& c) {
  c.snapshot_bytes += snap.program.size();
  c.heap_objects += snap.stats.objects + snap.stats.arrays;
}

/// Offload replay: run the app to its offload point on a client page,
/// capture, ship, restore on a fresh edge page, run the DNN stages
/// directly, capture the edge page and restore it on a fresh client page.
/// The edge page is captured right after restore (its events are not run,
/// because running them would fold the DNN into the jsvm span), so the
/// result-direction capture sees the same heap as the real result.
void replay_offload(const Tr& t, const ModelCase& mc, bool partial,
                    std::size_t image,
                    const std::shared_ptr<edge::ModelStore>& client_store,
                    const std::shared_ptr<edge::ModelStore>& edge_store,
                    ReplayCounts& c) {
  const nn::Tensor& img = mc.images.at(image);
  edge::BrowserHost client(nn::DeviceProfile::embedded_client(), client_store);
  if (partial) client.set_partition_cut(mc.app, mc.cut);
  jsvm::Interpreter& ci = client.interp();
  ci.eval_program(partial ? mc.partial_source : mc.full_source, mc.app);
  ci.run_events();
  client.add_image("input", img);
  ci.enqueue_event(ci.document().get_element_by_id("btn"), "click",
                   jsvm::Undefined{});
  const std::string event = offload_event(partial);
  ci.offload_hook = [&event](const jsvm::PendingEvent& ev) {
    return ev.type == event;
  };
  ci.run_events();
  if (!ci.take_pending_offload()) {
    throw std::runtime_error("replay: app never reached its offload point");
  }

  jsvm::SnapshotResult up = timed(t, "jsvm.capture", "jsvm",
                                  [&] { return jsvm::capture_snapshot(ci); });
  count_snapshot(up, c);
  edge::SnapshotPayload at_edge =
      ship_snapshot(t, mc, partial, net::MessageType::kSnapshot,
                    std::move(up.program), c);

  edge::BrowserHost server(nn::DeviceProfile::edge_server(), edge_store);
  if (partial) server.set_partition_cut(mc.app, mc.cut);
  timed(t, "jsvm.restore", "jsvm",
        [&] { jsvm::restore_snapshot(server.interp(), at_edge.program); });
  at_edge = {};

  const std::shared_ptr<nn::Network> edge_net = edge_store->instantiate(mc.app);
  if (partial) {
    nn::Tensor feature = timed(t, "nn.forward_front", "nn", [&] {
      return mc.net->forward_front(img, mc.cut);
    });
    timed(t, "nn.forward", "nn",
          [&] { return edge_net->forward_rear(feature, mc.cut); });
  } else {
    timed(t, "nn.forward", "nn", [&] { return edge_net->forward(img); });
  }

  jsvm::SnapshotResult down =
      timed(t, "jsvm.capture", "jsvm",
            [&] { return jsvm::capture_snapshot(server.interp()); });
  count_snapshot(down, c);
  edge::SnapshotPayload back =
      ship_snapshot(t, mc, partial, net::MessageType::kResultSnapshot,
                    std::move(down.program), c);
  edge::BrowserHost adopt(nn::DeviceProfile::embedded_client(), client_store);
  timed(t, "jsvm.restore", "jsvm",
        [&] { jsvm::restore_snapshot(adopt.interp(), back.program); });
}

/// Lines in the metrics dump = metric series in the registry.
std::uint64_t metric_series(const offload::obs::Obs& obs) {
  const std::string dump = obs.metrics.dump_text();
  return static_cast<std::uint64_t>(std::count(dump.begin(), dump.end(), '\n'));
}

/// Model stores holding each app's full files (client pages load the
/// model from these in the replay).
std::vector<std::shared_ptr<edge::ModelStore>> full_stores(
    const std::vector<ModelCase>& models) {
  std::vector<std::shared_ptr<edge::ModelStore>> out;
  for (const ModelCase& mc : models) {
    auto store = std::make_shared<edge::ModelStore>();
    store->store_files(nn::model_files(*mc.net));
    store->instantiate(mc.app);
    out.push_back(std::move(store));
  }
  return out;
}

/// Accumulates a session workload's measurements and turns them into the
/// report.
struct SessionStats {
  util::Samples op_ms;    ///< untraced op wall times
  util::Samples real_ms;  ///< traced real-call span durations
  std::vector<OpOutcome> det;  ///< ops of the deterministic round
  ReplayCounts det_replay;     ///< replay counts of the deterministic round
  std::uint64_t traced_ops = 0;
  std::size_t first_traced_span = 0;
  double measured_s = 0;
  double rss_mb = 0;  ///< peak resident set through set-up and round 0

  void check(Report& rep, const std::string& what, bool offloaded,
             bool local_fallback, const std::string& got,
             const std::string& want) const {
    if (!offloaded || local_fallback) {
      rep.fail(what + ": did not complete on the edge");
    } else if (got != want) {
      rep.fail(what + ": result '" + got + "', reference '" + want + "'");
    }
  }

  void report(Report& rep, const Options& opt, const SpanLog& log,
              double setup_s, double tail_pct) const;
};

void SessionStats::report(Report& rep, const Options& opt, const SpanLog& log,
                          double setup_s, double tail_pct) const {
  util::Samples latency;
  std::uint64_t fallbacks = 0;
  for (const OpOutcome& o : det) {
    latency.add(o.sim_latency_s);
    if (o.fallback) ++fallbacks;
  }
  const double n_det = det.empty() ? 1.0 : static_cast<double>(det.size());
  if (!opt.trace) {
    rep.e2e("setup_s", setup_s, "s");
    add_wall_metrics(rep, op_ms, measured_s, tail_pct);
    rep.e2e("peak_rss_mb", rss_mb, "MB");
    rep.e2e("sim_latency_s_p50", latency.count() ? latency.percentile(50) : 0,
            "s");
    rep.e2e("sim_latency_s_p99", latency.count() ? latency.percentile(99) : 0,
            "s");
    rep.e2e("sim_fallback_ratio", static_cast<double>(fallbacks) / n_det,
            "ratio");
    rep.e2e("sim_edge_ratio", 1.0 - static_cast<double>(fallbacks) / n_det,
            "ratio");
    return;
  }

  rep.notes.push_back(
      "per-layer times of util/nn/net/edge/jsvm come from a replay of each "
      "op's stages through the modules' public entry points: they measure "
      "the cost of one call, not how often the pipeline repeats it");
  const auto mean_bd = [&](double core::InferenceBreakdown::*field) {
    double sum = 0;
    for (const OpOutcome& o : det) sum += o.bd.*field;
    return sum / n_det;
  };
  const auto mean_count = [&](std::uint64_t OpOutcome::*field) {
    double sum = 0;
    for (const OpOutcome& o : det) sum += static_cast<double>(o.*field);
    return sum / n_det;
  };
  using Bd = core::InferenceBreakdown;
  rep.layer("core.dnn_client_s", mean_bd(&Bd::dnn_execution_client), "s");
  rep.layer("core.capture_client_s", mean_bd(&Bd::snapshot_capture_client),
            "s");
  rep.layer("core.tx_up_s", mean_bd(&Bd::transmission_up), "s");
  rep.layer("core.restore_server_s", mean_bd(&Bd::snapshot_restore_server),
            "s");
  rep.layer("core.dnn_server_s", mean_bd(&Bd::dnn_execution_server), "s");
  rep.layer("core.capture_server_s", mean_bd(&Bd::snapshot_capture_server),
            "s");
  rep.layer("core.queue_wait_s", mean_bd(&Bd::server_queue_wait), "s");
  rep.layer("core.tx_down_s", mean_bd(&Bd::transmission_down), "s");
  rep.layer("core.restore_client_s", mean_bd(&Bd::snapshot_restore_client),
            "s");

  const auto totals = log.ms_by_name(first_traced_span);
  const double ops = traced_ops ? static_cast<double>(traced_ops) : 1.0;
  auto per_op_ms = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second / ops;
  };
  rep.layer("jsvm.capture_ms", per_op_ms("jsvm.capture"), "ms");
  rep.layer("jsvm.restore_ms", per_op_ms("jsvm.restore"), "ms");
  rep.layer("jsvm.snapshot_bytes",
            static_cast<double>(det_replay.snapshot_bytes) / n_det, "bytes");
  rep.layer("jsvm.heap_objects",
            static_cast<double>(det_replay.heap_objects) / n_det, "count");
  rep.layer("nn.forward_ms", per_op_ms("nn.forward"), "ms");
  rep.layer("nn.forward_front_ms", per_op_ms("nn.forward_front"), "ms");
  rep.layer("nn.weights_encode_ms", per_op_ms("nn.weights_encode"), "ms");
  rep.layer("nn.weights_decode_ms", per_op_ms("nn.weights_decode"), "ms");
  rep.layer("nn.weight_bytes",
            static_cast<double>(det_replay.weight_bytes) / n_det, "bytes");
  const double crc_ms = per_op_ms("util.crc32");
  rep.layer("util.crc32_ms", crc_ms, "ms");
  rep.layer("util.crc32_mb_per_s",
            crc_ms > 0 ? static_cast<double>(det_replay.crc_bytes) / n_det /
                             1e6 / (crc_ms / 1e3)
                       : 0,
            "MB/s");
  rep.layer("net.msg_encode_ms", per_op_ms("net.msg_encode"), "ms");
  rep.layer("net.msg_decode_ms", per_op_ms("net.msg_decode"), "ms");
  rep.layer("net.bytes_up", mean_count(&OpOutcome::bytes_up), "bytes");
  rep.layer("net.bytes_down", mean_count(&OpOutcome::bytes_down), "bytes");
  rep.layer("net.messages", mean_count(&OpOutcome::messages), "count");
  rep.layer("edge.verify_payload_ms", per_op_ms("edge.verify_payload"), "ms");
  rep.layer("edge.model_store_ms", per_op_ms("edge.model_store"), "ms");
  rep.layer("edge.model_instantiate_ms", per_op_ms("edge.model_instantiate"),
            "ms");
  rep.layer("edge.snapshots_executed",
            mean_count(&OpOutcome::snapshots_executed), "count");
  rep.layer("obs.spans_per_op", mean_count(&OpOutcome::spans), "count");
  rep.layer("obs.metric_series", mean_count(&OpOutcome::metric_series),
            "count");

  const auto self = log.self_ms_by_layer(first_traced_span);
  add_self_times(rep, self, ops);
  add_trace_overhead(rep, real_ms, op_ms);
}

}  // namespace

// ---------------------------------------------------------------------------
// cold_presend
// ---------------------------------------------------------------------------

Report run_cold_presend(const Options& opt) {
  Report rep;
  std::vector<ModelCase> models;
  std::vector<std::shared_ptr<edge::ModelStore>> client_stores;
  const auto reset = [&] {
    client_stores.clear();
    models.clear();
    malloc_trim(0);  // hand freed model memory back before the next set-up
  };
  const double setup_s = median_setup_s(opt.tiny ? 1 : 3, reset, [&] {
    models = build_model_cases(opt.seed, kImagesPerModel,
                               opt.corrupt_reference);
    if (opt.trace) client_stores = full_stores(models);
  });

  SpanLog log;
  SessionStats st;
  const int det_round = opt.trace ? 1 : 0;
  std::uint64_t op_id = 0;
  st.measured_s = run_rounds(opt, [&](int round) {
    const bool traced = opt.trace && round > 0;
    if (traced && st.traced_ops == 0) st.first_traced_span = log.spans().size();
    for (const PlannedOp& op : plan_round(opt.seed, round, 1)) {
      ++rep.attempted;
      ++op_id;
      const ModelCase& mc = models[op.kind.model];
      const std::string what = op_kind_name(models, op.kind) + " image " +
                               std::to_string(op.image);
      try {
        Tr t{traced ? &log : nullptr, -1, op_id};
        ScopedSpan root(t.log, "op " + what, "bench", -1, op_id);
        t.parent = root.index();
        OpOutcome o;
        const auto t0 = Clock::now();
        {
          ScopedSpan real(t.log, "core.run", "core", t.parent, op_id);
          auto rt = std::make_unique<core::OffloadingRuntime>(
              make_runtime_config(mc, op.kind.partial),
              make_bundle(mc, op.kind.partial, op.image));
          const core::RunResult r = rt->run();
          st.check(rep, what, r.offloaded, r.timeline.local_fallback,
                   r.result_text, mc.expected[op.image]);
          o.fallback = !r.offloaded || r.timeline.local_fallback;
          o.sim_latency_s = r.inference_seconds;
          o.bd = r.breakdown;
          {
            ScopedSpan read(t.log, "obs.read", "obs", real.index(), op_id);
            const auto& ep = *rt->client_link().endpoints[0];
            o.bytes_up = ep.bytes_sent();
            o.bytes_down = ep.bytes_received();
            o.messages = rt->obs().metrics.counter("net.attempts");
            o.snapshots_executed = static_cast<std::uint64_t>(
                rt->server().stats().snapshots_executed);
            o.spans = rt->obs().trace.size();
            o.metric_series = metric_series(rt->obs());
          }
        }
        const double wall_ms = ms_between(t0, Clock::now());
        if (traced) {
          st.real_ms.add(wall_ms);
          ScopedSpan replay(t.log, "replay", "bench", t.parent, op_id);
          Tr rtr{t.log, replay.index(), op_id};
          ReplayCounts c;
          auto edge_store = replay_presend(rtr, mc, op.kind.partial, c);
          replay_offload(rtr, mc, op.kind.partial, op.image,
                         client_stores[op.kind.model], edge_store, c);
          ++st.traced_ops;
          if (round == det_round) {
            st.det_replay.weight_bytes += c.weight_bytes;
            st.det_replay.snapshot_bytes += c.snapshot_bytes;
            st.det_replay.heap_objects += c.heap_objects;
            st.det_replay.crc_bytes += c.crc_bytes;
          }
        } else {
          st.op_ms.add(wall_ms);
        }
        if (round == det_round) st.det.push_back(o);
      } catch (const std::exception& e) {
        rep.fail(what + ": " + e.what());
      }
    }
    // Sessions leak part of their memory, so the peak is read after the
    // fixed first round, never after a speed-dependent number of rounds.
    if (round == 0) st.rss_mb = peak_rss_mb();
  });
  rep.notes.push_back("cold_presend: one op = new session (model pre-send + "
                      "one after-ACK offload), closed loop, 1 caller");
  // 12-36 ops per run: no percentile above the median has ten beyond it.
  st.report(rep, opt, log, setup_s, 50);
  if (!opt.spans_out.empty()) log.write_jsonl(opt.spans_out);
  return rep;
}

// ---------------------------------------------------------------------------
// warm_stream
// ---------------------------------------------------------------------------

Report run_warm_stream(const Options& opt) {
  Report rep;
  std::vector<ModelCase> models;
  std::vector<std::shared_ptr<edge::ModelStore>> stores;
  std::vector<std::unique_ptr<core::OffloadingRuntime>> sessions;
  const auto reset = [&] {
    sessions.clear();
    stores.clear();
    models.clear();
    malloc_trim(0);  // hand freed model memory back before the next set-up
  };
  // Two set-ups, not three: each pre-sends six models, and the library
  // keeps ~0.6 GB of every torn-down set of sessions (see BASELINE.md).
  const double setup_s = median_setup_s(opt.tiny ? 1 : 2, reset, [&] {
    models = build_model_cases(opt.seed, kImagesPerModel,
                               opt.corrupt_reference);
    if (opt.trace) stores = full_stores(models);
    // Each session pre-sends its model and runs one warm-up inference.
    for (std::size_t k = 0; k < kOpKinds; ++k) {
      const OpKind kind = op_kind(k);
      const ModelCase& mc = models[kind.model];
      auto rt = std::make_unique<core::OffloadingRuntime>(
          make_runtime_config(mc, kind.partial),
          make_bundle(mc, kind.partial, 0));
      const core::RunResult r = rt->run();
      if (!r.offloaded || r.result_text != mc.expected[0]) {
        throw std::runtime_error("warm-up of " + op_kind_name(models, kind) +
                                 " gave '" + r.result_text + "', reference '" +
                                 mc.expected[0] + "'");
      }
      sessions.push_back(std::move(rt));
    }
  });

  SpanLog log;
  SessionStats st;
  const int det_round = opt.trace ? 1 : 0;
  std::uint64_t op_id = 0;
  st.measured_s = run_rounds(opt, [&](int round) {
    const bool traced = opt.trace && round > 0;
    if (traced && st.traced_ops == 0) st.first_traced_span = log.spans().size();
    for (const PlannedOp& op :
         plan_round(opt.seed, round, kWarmClicksPerSession)) {
      ++rep.attempted;
      ++op_id;
      const std::size_t k = op.kind.model * 2 + (op.kind.partial ? 1 : 0);
      core::OffloadingRuntime& rt = *sessions[k];
      const ModelCase& mc = models[op.kind.model];
      const std::string what = op_kind_name(models, op.kind) + " click image " +
                               std::to_string(op.image);
      try {
        Tr t{traced ? &log : nullptr, -1, op_id};
        ScopedSpan root(t.log, "op " + what, "bench", -1, op_id);
        t.parent = root.index();
        const auto& ep = *rt.client_link().endpoints[0];
        const std::uint64_t up0 = ep.bytes_sent();
        const std::uint64_t down0 = ep.bytes_received();
        const std::uint64_t msg0 = rt.obs().metrics.counter("net.attempts");
        const int exec0 = rt.server().stats().snapshots_executed;
        const std::size_t spans0 = rt.obs().trace.size();

        const auto t0 = Clock::now();
        {
          ScopedSpan real(t.log, "core.click", "core", t.parent, op_id);
          rt.client().browser().add_image("input", mc.images[op.image]);
          rt.client().click_at(rt.simulation().now() +
                               sim::SimTime::seconds(2));
          rt.simulation().run();
        }
        const double wall_ms = ms_between(t0, Clock::now());

        OpOutcome o;
        const edge::ClientTimeline& tl = rt.client().timeline();
        if (!rt.client().finished()) {
          throw std::runtime_error("click stalled (inference never finished)");
        }
        st.check(rep, what, tl.offloaded, tl.local_fallback,
                 rt.client().result_text(), mc.expected[op.image]);
        o.fallback = !tl.offloaded || tl.local_fallback;
        o.sim_latency_s = tl.inference_seconds();
        {
          ScopedSpan bd(t.log, "core.breakdown", "core", t.parent, op_id);
          o.bd = core::breakdown_from_trace(rt.obs().trace,
                                            rt.client().last_trace_id());
        }
        {
          ScopedSpan read(t.log, "obs.read", "obs", t.parent, op_id);
          o.bytes_up = ep.bytes_sent() - up0;
          o.bytes_down = ep.bytes_received() - down0;
          o.messages = rt.obs().metrics.counter("net.attempts") - msg0;
          o.snapshots_executed = static_cast<std::uint64_t>(
              rt.server().stats().snapshots_executed - exec0);
          o.spans = rt.obs().trace.size() - spans0;
          o.metric_series = metric_series(rt.obs());
        }
        if (traced) {
          st.real_ms.add(wall_ms);
          ScopedSpan replay(t.log, "replay", "bench", t.parent, op_id);
          Tr rtr{t.log, replay.index(), op_id};
          ReplayCounts c;
          replay_offload(rtr, mc, op.kind.partial, op.image,
                         stores[op.kind.model], stores[op.kind.model], c);
          ++st.traced_ops;
          if (round == det_round) {
            st.det_replay.snapshot_bytes += c.snapshot_bytes;
            st.det_replay.heap_objects += c.heap_objects;
            st.det_replay.crc_bytes += c.crc_bytes;
          }
        } else {
          st.op_ms.add(wall_ms);
        }
        if (round == det_round) st.det.push_back(o);
      } catch (const std::exception& e) {
        rep.fail(what + ": " + e.what());
      }
    }
    // Sessions leak part of their memory, so the peak is read after the
    // fixed first round, never after a speed-dependent number of rounds.
    if (round == 0) st.rss_mb = peak_rss_mb();
  });
  rep.notes.push_back("warm_stream: one op = one click on a warm session "
                      "(model already on the edge), closed loop, 1 caller");
  // 60-160 clicks per run in six equal kinds: p75 has 15+ clicks beyond it
  // and sits mid-band in the second-slowest kind.
  st.report(rep, opt, log, setup_s, 75);
  if (!opt.spans_out.empty()) log.write_jsonl(opt.spans_out);
  return rep;
}

}  // namespace perfbench
