// Client-side offload supervision primitives: per-phase deadlines,
// exponential backoff with deterministic jitter, and a per-server circuit
// breaker. The paper's protocol assumes the edge server answers; these
// pieces make the client robust when it does not — messages lost beyond
// ARQ, a crashed or stalled server, corrupted payloads — while changing
// nothing when every reply arrives in time.
//
// The state machine itself lives in ClientDevice (it needs the realm, the
// in-flight snapshot and the timeline); this header holds the reusable,
// sim-free pieces so they can be unit-tested in isolation. Everything is
// driven by explicit `now` arguments and a seeded PCG32 stream: two runs
// with the same seed make identical decisions, bit for bit.
#pragma once

#include <cstdint>

#include "src/sim/time.h"
#include "src/util/rng.h"

namespace offload::edge {

/// Knobs for the offload supervisor. Disabled by default: the degenerate
/// configuration reproduces the paper's runs unchanged.
struct SupervisorConfig {
  bool enabled = false;

  // --- Per-phase deadlines (zero disables that watchdog) ---
  /// Model pre-send → ACK.
  sim::SimTime presend_deadline = sim::SimTime::seconds(30.0);
  /// Snapshot sent → ControlKind::kAccepted receipt.
  sim::SimTime upload_deadline = sim::SimTime::seconds(5.0);
  /// kAccepted → kDone (queue wait + execution on the server).
  sim::SimTime execute_deadline = sim::SimTime::seconds(15.0);
  /// kDone → result snapshot fully received.
  sim::SimTime download_deadline = sim::SimTime::seconds(5.0);
  /// The server sends kAccepted/kDone phase receipts
  /// (EdgeServerConfig::ack_snapshots — the runtime enables it whenever the
  /// supervisor is on). When false, the three snapshot phases collapse into
  /// one watchdog of their summed budget, so a server that never acks does
  /// not trip spurious per-phase timeouts.
  bool expect_phase_acks = true;

  // --- Retries ---
  /// Snapshot delivery attempts per inference, including the first.
  int max_attempts = 4;
  sim::SimTime backoff_base = sim::SimTime::millis(100);
  double backoff_factor = 2.0;
  sim::SimTime backoff_cap = sim::SimTime::seconds(2.0);
  /// Jitter: each wait is scaled by a deterministic factor drawn uniformly
  /// from [1 - jitter, 1 + jitter].
  double jitter = 0.2;
  std::uint64_t jitter_seed = 1;

  // --- Hedged local execution ---
  /// When an offload has been in flight this long with no result, start
  /// the inference locally as well and take whichever finishes first.
  /// Zero disables hedging.
  sim::SimTime hedge_after = sim::SimTime::seconds(8.0);

  // --- Circuit breaker (per server) ---
  /// Consecutive failures that open the breaker.
  int breaker_threshold = 3;
  /// Open → half-open cooldown: while open, offloads short-circuit to the
  /// secondary server or local execution.
  sim::SimTime breaker_cooldown = sim::SimTime::seconds(10.0);
  /// Successes needed in half-open before the breaker closes again.
  int breaker_probe_successes = 1;
};

/// Exponential backoff with deterministic jitter. `delay(attempt)` for
/// attempt = 1, 2, ... is base * factor^(attempt-1), capped, then scaled
/// by a jitter factor from the seeded stream. Two instances with the same
/// config produce the same sequence.
class RetryBackoff {
 public:
  explicit RetryBackoff(const SupervisorConfig& config,
                        std::uint64_t stream = 0xba0cull);

  /// The wait before retry number `attempt` (1-based). Consumes one draw
  /// from the jitter stream, so call it exactly once per retry.
  sim::SimTime delay(int attempt);

 private:
  sim::SimTime base_;
  double factor_;
  sim::SimTime cap_;
  double jitter_;
  util::Pcg32 rng_;
};

/// Classic three-state circuit breaker, driven by explicit simulated time.
///
///   closed    — requests flow; `threshold` consecutive failures open it.
///   open      — requests are refused until `cooldown` has elapsed.
///   half-open — after the cooldown, `allow()` admits probe requests;
///               `probe_successes` successes close the breaker, any
///               failure re-opens it (and restarts the cooldown).
class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };

  CircuitBreaker() = default;
  CircuitBreaker(int threshold, sim::SimTime cooldown, int probe_successes);
  explicit CircuitBreaker(const SupervisorConfig& config);

  /// The state as of `now` (open becomes half-open once cooled down).
  State state(sim::SimTime now) const;

  /// May a request be sent now? True when closed or half-open. Half-open
  /// admits at most `probe_successes` in-flight probes at a time, so a
  /// burst cannot stampede a barely-recovered server.
  bool allow(sim::SimTime now);

  void record_success(sim::SimTime now);
  void record_failure(sim::SimTime now);

  int consecutive_failures() const { return consecutive_failures_; }
  /// Times the breaker transitioned closed/half-open → open.
  int times_opened() const { return times_opened_; }

 private:
  void open(sim::SimTime now);

  int threshold_ = 3;
  sim::SimTime cooldown_ = sim::SimTime::seconds(10.0);
  int probe_successes_ = 1;

  State state_ = State::kClosed;
  sim::SimTime opened_at_;
  int consecutive_failures_ = 0;
  int half_open_successes_ = 0;
  int probes_in_flight_ = 0;
  int times_opened_ = 0;
};

/// Counters the supervisor accumulates across an app's lifetime (all
/// inferences). Per-inference observations live in ClientTimeline.
struct SupervisorStats {
  int retries = 0;             ///< snapshot re-sends after a failure signal
  int deadline_expiries = 0;   ///< phase watchdogs that fired
  int hedges_started = 0;
  int hedge_local_wins = 0;
  int hedge_remote_wins = 0;
  int breaker_opens = 0;
  int breaker_short_circuits = 0;  ///< offloads skipped: breaker open
  int failovers = 0;           ///< switched primary ↔ secondary server
  int redirects = 0;           ///< server-directed migrations followed
                               ///< (kRedirect replies with a usable target)
  int model_represends = 0;    ///< crash recovery: model pushed again
  int local_fallbacks = 0;     ///< inferences finished locally by the
                               ///< supervisor after remote attempts failed
                               ///< or a final verdict (kOverloaded,
                               ///< kExpired, kRejected)
  double backoff_wait_s = 0;   ///< total time spent waiting between retries
  double recovery_s = 0;       ///< total time spent re-presending models
};

}  // namespace offload::edge
