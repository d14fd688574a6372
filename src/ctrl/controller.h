// Online partition-point controller (the ROADMAP's "DynO-style" item):
// closes the loop between live telemetry and the per-inference DNN cut.
// The paper picks the cut once, at click time, from a static
// Neurosurgeon-style cost model; this controller re-selects it for every
// inference — and re-cuts mid-flight when the supervisor reports a failed
// attempt — from what the system actually observed: the measured upload
// bandwidth (net::BandwidthEstimator), the target server's queue depth and
// batch-formation wait (serve::Scheduler pull accessors), and the fleet's
// per-server outstanding counts.
//
// One adaptive policy, selected by ControllerConfig::policy (the
// OFFLOAD_CTRL env knob):
//   drift  — the static partitioner estimate per candidate cut (the
//            labeled input/conv/pool cut points, mirroring
//            core::labeled_cut_points, plus the full-local arm), times an
//            EWMA correction factor learned per (server, cut) from observed
//            end-to-end latencies, plus a queue-occupancy wait term.
// kStatic disables the controller entirely: behavior is bit-for-bit the
// paper's click-time choice.
//
// Determinism rules (DESIGN §9): the controller draws no random numbers.
// Every decision is a pure function of the constructor arguments and the
// sequence of decide()/record() calls — no wall clock, no pointer
// iteration, no ambient state. Two controllers fed the same call sequence
// produce bit-identical decisions at any OFFLOAD_THREADS.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string_view>
#include <vector>

#include "src/nn/cost_model.h"
#include "src/nn/network.h"
#include "src/nn/partition.h"

namespace offload::ctrl {

enum class PolicyKind : std::uint8_t {
  kStatic = 0,  ///< controller off: the click-time static cut is used
  kDrift,       ///< drift-corrected cost model
};

const char* policy_name(PolicyKind kind);
/// Parses "static" / "drift"; throws std::invalid_argument on anything
/// else.
PolicyKind parse_policy(std::string_view name);

struct ControllerConfig {
  PolicyKind policy = PolicyKind::kStatic;
  /// When false (the default), apply_env() lets OFFLOAD_CTRL override
  /// policy at client construction. Benches that sweep policies explicitly
  /// set true.
  bool ignore_env = false;

  /// Override policy from the environment (no-op when ignore_env).
  /// Unknown OFFLOAD_CTRL values throw std::invalid_argument.
  void apply_env();
  bool active() const { return policy != PolicyKind::kStatic; }
};

/// A snapshot of the telemetry feeding one decision. The client fills
/// bandwidth from its estimator; the runtime's signals hook fills the
/// server-side fields from the scheduler/fleet pull accessors.
struct LinkSignals {
  double bandwidth_bps = 0;     ///< <= 0: the caller's estimator default
  std::size_t queue_depth = 0;  ///< serve::Scheduler::queue_depth()
  int lanes = 1;                ///< serve::Scheduler::lanes()
  double batch_wait_s = 0;      ///< serve::Scheduler::recent_batch_wait_s()
  int outstanding = 0;          ///< fleet::EdgeFleet::outstanding_for(k)
  /// Jobs this server currently has escalated up-tier and still awaits
  /// results for (tier::Topology::outstanding_relays(k)). Each one is load
  /// the queue gauges no longer show; 0 (tier off) leaves predictions
  /// bit-identical.
  int escalations = 0;
};

struct Decision {
  std::size_t cut = SIZE_MAX;  ///< node index to split at (valid when !local)
  bool local = false;          ///< run the whole inference on the client
  std::size_t arm = 0;         ///< candidate index (arms() order)
  std::size_t server = 0;      ///< server the decision was made for
  double predicted_s = 0;      ///< controller's latency prediction
};

/// Feedback for one finished (or superseded) decision. `predicted_s` must
/// echo the Decision's, so the drift policy can learn observed/predicted.
struct Outcome {
  std::size_t server = 0;
  std::size_t arm = 0;
  bool local = false;
  bool ok = true;         ///< the decision's path produced the result
  double observed_s = 0;  ///< end-to-end latency (or time wasted, on !ok)
  double predicted_s = 0;
};

class CutController {
 public:
  /// `net` is the app's network; the cost models are the same per-device
  /// fits the static partitioner uses (LayerCostModel::profile_device).
  /// Built only for the adaptive policy (drift).
  CutController(std::shared_ptr<const nn::Network> net,
                nn::LayerCostModel client, nn::LayerCostModel server);

  /// Candidate cuts, in ascending node order: the input/conv/pool cut
  /// points (mirroring core::labeled_cut_points) plus the final node (the
  /// full-local arm, always last).
  const std::vector<std::size_t>& arms() const { return arms_; }

  /// Select the cut for a fresh inference toward `server`.
  Decision decide(std::size_t server, const LinkSignals& signals);
  /// Re-select after `failed_attempts` failed sends of the cut currently
  /// in flight: network-dependent terms are escalated so repeated failures
  /// walk toward deeper cuts and finally full-local.
  Decision redecide(std::size_t server, const LinkSignals& signals,
                    int failed_attempts);
  /// Feed back what one decision actually cost. Exactly one Outcome per
  /// Decision: at inference finish, or when a re-cut supersedes it.
  void record(const Outcome& outcome);

  /// EWMA drift-correction factor for (server, arm); 1.0 until trained.
  double correction(std::size_t server, std::size_t arm) const;
  std::uint64_t decisions() const { return decisions_; }
  std::uint64_t outcomes() const { return outcomes_; }

 private:
  /// Static partitioner predictions per arm at these signals, with the
  /// escalation factor applied to the network-dependent terms.
  std::vector<double> predict(const LinkSignals& signals,
                              double escalation) const;
  Decision pick(std::size_t server, const LinkSignals& signals,
                double escalation);
  std::vector<double>& corrections_for(std::size_t server);

  std::shared_ptr<const nn::Network> net_;
  nn::LayerCostModel client_cost_;
  nn::LayerCostModel server_cost_;
  nn::Partitioner partitioner_;
  std::vector<std::size_t> arms_;      ///< arm index -> cut
  std::vector<bool> arm_denatures_;    ///< per arm (full-local counts)
  /// Per-server learned state, keyed by server index (ordered map: dumps
  /// and iteration are deterministic).
  std::map<std::size_t, std::vector<double>> correction_;
  std::uint64_t decisions_ = 0;
  std::uint64_t outcomes_ = 0;
};

}  // namespace offload::ctrl
