// Failure-injection tests: lossy links, jitter, bare servers, and protocol
// robustness under adverse conditions the edge environment implies.
#include <gtest/gtest.h>

#include "src/core/offload.h"

namespace offload::core {
namespace {

nn::BenchmarkModel tiny_model() {
  return {"TinyCNN", &nn::build_tiny_cnn_default, 17, 32};
}

/// A stand-in edge on `endpoint`: ACKs every model upload and answers
/// every snapshot with the control name `prefix` + app, counting them.
struct ScriptedEdge {
  ScriptedEdge(net::Endpoint& endpoint, std::string prefix)
      : prefix(std::move(prefix)) {
    endpoint.set_handler([this, &endpoint](const net::Message& m) {
      net::Message out;
      out.name = m.name;
      if (m.type == net::MessageType::kModelFiles) {
        out.type = net::MessageType::kAck;
      } else if (m.type == net::MessageType::kSnapshot) {
        ++snapshots;
        out.type = net::MessageType::kControl;
        out.name = this->prefix + m.name;
      } else {
        return;
      }
      endpoint.send(std::move(out));
    });
  }
  std::string prefix;
  int snapshots = 0;
};

TEST(FailureInjection, MalformedRedirectIsAnUnusableTarget) {
  // "redirect:abc:<app>" names no server. It must not be read as server 0:
  // supervised, the client retries its own server and only then fails
  // over; unsupervised, it finishes locally.
  for (bool supervised : {true, false}) {
    SCOPED_TRACE(supervised ? "supervised" : "unsupervised");
    sim::Simulation sim;
    auto link0 = net::Channel::make(sim, net::ChannelConfig{}, "c0", "edge0");
    auto link1 = net::Channel::make(sim, net::ChannelConfig{}, "c1", "edge1");
    edge::EdgeServerConfig server_config;
    server_config.ack_snapshots = true;
    edge::EdgeServer server0(sim, link0->b(), server_config);
    ScriptedEdge edge1(link1->b(), "redirect:abc:");
    edge::ClientConfig config;
    config.supervisor.enabled = supervised;
    config.supervisor.hedge_after = sim::SimTime::zero();
    config.route = [](std::uint64_t) {
      return std::vector<std::size_t>{1, 0};
    };
    edge::ClientDevice client(sim, link0->a(), config,
                              make_benchmark_app(tiny_model(), false));
    client.attach_server(link1->a());
    client.start();
    client.click_at(sim::SimTime::seconds(5));
    sim.run();

    ASSERT_TRUE(client.finished());
    EXPECT_EQ(client.supervisor_stats().redirects, 0);
    if (supervised) {
      // Every attempt went to server 1; the failover then reached 0.
      EXPECT_EQ(edge1.snapshots, config.supervisor.max_attempts);
      EXPECT_EQ(client.supervisor_stats().failovers, 1);
      EXPECT_TRUE(client.timeline().offloaded);
      EXPECT_EQ(client.timeline().server_index, 0);
    } else {
      EXPECT_EQ(edge1.snapshots, 1);
      EXPECT_TRUE(client.timeline().local_fallback);
      EXPECT_FALSE(client.timeline().offloaded);
    }
  }
}

TEST(FailureInjection, RejectedSnapshotFallsBackLocallyWithoutRetry) {
  // The server could not run our snapshot: resending the same bytes fails
  // again, and the server is healthy. Finish locally, once, with no retry
  // and no breaker failure.
  const std::string local =
      run_scenario(tiny_model(), Scenario::kClientOnly).result_text;
  for (bool supervised : {true, false}) {
    SCOPED_TRACE(supervised ? "supervised" : "unsupervised");
    sim::Simulation sim;
    auto link = net::Channel::make(sim, net::ChannelConfig{});
    ScriptedEdge edge(link->b(), "rejected:");
    edge::ClientConfig config;
    config.supervisor.enabled = supervised;
    edge::ClientDevice client(sim, link->a(), config,
                              make_benchmark_app(tiny_model(), false));
    client.start();
    client.click_at(sim::SimTime::seconds(5));
    sim.run();

    ASSERT_TRUE(client.finished());
    EXPECT_EQ(edge.snapshots, 1);
    EXPECT_TRUE(client.timeline().local_fallback);
    EXPECT_FALSE(client.timeline().offloaded);
    EXPECT_EQ(client.result_text(), local);
    EXPECT_EQ(client.supervisor_stats().retries, 0);
    EXPECT_EQ(client.breaker(0).consecutive_failures(), 0);
    EXPECT_EQ(client.supervisor_stats().local_fallbacks, supervised ? 1 : 0);
  }
}

TEST(FailureInjection, OffloadSurvivesLossyLink) {
  edge::AppBundle bundle = make_benchmark_app(tiny_model(), false);
  RuntimeConfig config;
  config.channel.a_to_b.loss_rate = 0.2;
  config.channel.b_to_a.loss_rate = 0.2;
  config.channel.reliable = true;
  config.channel.retransmit_timeout = sim::SimTime::millis(100);
  config.click_at = after_ack_click_time(*bundle.network, false, 0, 30e6);
  OffloadingRuntime runtime(config, std::move(bundle));
  RunResult result = runtime.run();
  EXPECT_TRUE(result.offloaded);
  RunResult clean = run_scenario(tiny_model(), Scenario::kOffloadAfterAck);
  // Same answer, possibly slower (retransmissions).
  EXPECT_EQ(result.result_text, clean.result_text);
  EXPECT_GE(result.inference_seconds, clean.inference_seconds);
}

TEST(FailureInjection, HeavyLossStillCompletesWithRetransmits) {
  edge::AppBundle bundle = make_benchmark_app(tiny_model(), false);
  RuntimeConfig config;
  config.channel.a_to_b.loss_rate = 0.5;
  config.channel.reliable = true;
  config.channel.retransmit_timeout = sim::SimTime::millis(50);
  config.channel.max_retransmits = 64;
  config.click_at = after_ack_click_time(*bundle.network, false, 0, 30e6) +
                    sim::SimTime::seconds(30);  // margin for lost uploads
  OffloadingRuntime runtime(config, std::move(bundle));
  RunResult result = runtime.run();
  EXPECT_TRUE(result.offloaded);
  EXPECT_FALSE(result.result_text.empty());
}

TEST(FailureInjection, JitterDoesNotBreakOrdering) {
  // Per-message jitter delays arrivals but the protocol must still work
  // (our links are FIFO per direction; jitter only shifts latency).
  edge::AppBundle bundle = make_benchmark_app(tiny_model(), false);
  RuntimeConfig config;
  config.channel.a_to_b.jitter = sim::SimTime::millis(40);
  config.channel.b_to_a.jitter = sim::SimTime::millis(40);
  config.click_at = after_ack_click_time(*bundle.network, false, 0, 30e6);
  OffloadingRuntime runtime(config, std::move(bundle));
  RunResult result = runtime.run();
  EXPECT_TRUE(result.offloaded);
  RunResult clean = run_scenario(tiny_model(), Scenario::kOffloadAfterAck);
  EXPECT_EQ(result.result_text, clean.result_text);
}

TEST(FailureInjection, AsymmetricBandwidth) {
  // Uplink-constrained Wi-Fi: the snapshot upload dominates; the return
  // path is fast.
  edge::AppBundle bundle = make_benchmark_app(tiny_model(), false);
  RuntimeConfig config;
  config.channel.a_to_b.bandwidth_bps = 5e6;
  config.channel.b_to_a.bandwidth_bps = 100e6;
  config.click_at = after_ack_click_time(*bundle.network, false, 0, 5e6);
  OffloadingRuntime runtime(config, std::move(bundle));
  RunResult result = runtime.run();
  EXPECT_TRUE(result.offloaded);
  EXPECT_GT(result.breakdown.transmission_up,
            result.breakdown.transmission_down * 3);
}

TEST(FailureInjection, DiffAfterServerRestartRecovers) {
  // Differential offloading when the server "restarts" (drops sessions)
  // between inferences: version miss → need_full → full resend works.
  edge::AppBundle bundle = make_benchmark_app(tiny_model(), false);
  RuntimeConfig config;
  config.client.differential_snapshots = true;
  config.server.keep_sessions = false;  // models a stateless/restarted server
  config.click_at = after_ack_click_time(*bundle.network, false, 0, 30e6);
  OffloadingRuntime runtime(config, std::move(bundle));
  RunResult first = runtime.run();
  runtime.client().click_at(runtime.simulation().now() +
                            sim::SimTime::seconds(2));
  runtime.simulation().run();
  EXPECT_TRUE(runtime.client().finished());
  EXPECT_EQ(runtime.client().result_text(), first.result_text);
  EXPECT_GE(runtime.server().stats().diff_version_misses, 1);
}

TEST(FailureInjection, ModelMissingOnServerRepliesGracefully) {
  // A snapshot arriving without any model pre-send and without bundled
  // model files must not hang OR kill the server: __loadModel throws
  // inside the restore run, and the server answers with a typed
  // "model_missing:" control reply so the client can re-presend (this is
  // also how clients detect a crashed-and-restarted server).
  sim::Simulation sim;
  auto channel = net::Channel::make(sim, net::ChannelConfig{});
  edge::EdgeServer server(sim, channel->b());
  std::vector<std::string> replies;
  channel->a().set_handler(
      [&](const net::Message& m) { replies.push_back(m.name); });
  // Craft a minimal snapshot that calls __loadModel for an unknown app.
  edge::SnapshotPayload payload;
  payload.program = "(function() { m = __loadModel(\"ghost\"); })();\n";
  net::Message msg;
  msg.type = net::MessageType::kSnapshot;
  msg.name = "ghost";
  msg.payload = payload.encode();
  channel->a().send(std::move(msg));
  sim.run();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0], "model_missing:ghost");
  EXPECT_EQ(server.stats().model_missing_replies, 1);
  EXPECT_EQ(server.stats().snapshots_executed, 0);
}

TEST(FailureInjection, PrimaryCrashFailsOverToSpareServer) {
  // Mid-session handoff under failure: the primary crashes right after
  // the click, the supervisor's deadlines fire, the circuit breaker
  // opens, and the inference migrates along the fleet candidate list to
  // the spare server (model re-presend + snapshot replay — snapshots are
  // self-contained, so nothing else moves). The answer must match the
  // no-fault run.
  edge::AppBundle bundle = make_benchmark_app(tiny_model(), false);
  RuntimeConfig config;
  config.client.supervisor.enabled = true;
  // No hedging: this test is about the failover path, and a local hedge
  // would win the race long before the breaker gives up on the primary.
  config.client.supervisor.hedge_after = sim::SimTime::zero();
  config.fleet.spares = 1;
  config.click_at = after_ack_click_time(*bundle.network, false, 0, 30e6);
  fault::CrashSpec crash;
  crash.first_at = config.click_at + sim::SimTime::millis(1);
  crash.downtime = sim::SimTime::seconds(600);  // stays dead
  fault::FaultPlanConfig faults;
  faults.crashes.push_back(crash);
  config.faults = faults;
  OffloadingRuntime runtime(config, std::move(bundle));
  RunResult result = runtime.run();

  EXPECT_TRUE(result.offloaded);
  EXPECT_EQ(result.timeline.server_index, 1);
  EXPECT_GE(runtime.client().supervisor_stats().failovers, 1);
  ASSERT_EQ(runtime.fleet().servers_up(), 2u);
  EXPECT_GE(runtime.fleet().server(1).stats().snapshots_executed, 1);
  EXPECT_EQ(runtime.server().stats().snapshots_executed, 0);

  RunResult clean = run_scenario(tiny_model(), Scenario::kOffloadAfterAck);
  EXPECT_EQ(result.result_text, clean.result_text);
}

TEST(FailureInjection, UnreliableChannelCanStallApp) {
  // With reliability off and certain loss, the offload stalls and the
  // runtime reports it rather than spinning.
  edge::AppBundle bundle = make_benchmark_app(tiny_model(), false);
  RuntimeConfig config;
  config.channel.a_to_b.loss_rate = 0.999;
  config.channel.reliable = false;
  config.click_at = sim::SimTime::seconds(0.05);
  OffloadingRuntime runtime(config, std::move(bundle));
  EXPECT_THROW(runtime.run(), std::runtime_error);
}

}  // namespace
}  // namespace offload::core
