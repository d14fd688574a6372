// Typed requests, replies, and per-request timing for the serving
// scheduler. Two job shapes flow through one queue:
//
//  - *opaque* jobs: a precomputed busy time (the snapshot restore + execute
//    + capture path of the edge server). Never fused — each one is a full
//    JS VM execution with its own realm.
//  - *inference* jobs: (model, cut, feature tensor). Jobs that agree on
//    model and cut may be fused into one batched rear-range forward.
#pragma once

#include <cstdint>
#include <functional>

#include "src/nn/tensor.h"
#include "src/sim/time.h"

namespace offload::serve {

/// Why a submission was refused admission.
enum class RejectReason {
  kQueueFull,     ///< pending queue at its configured bound — load shed
  kUnknownModel,  ///< inference job names a model never registered
};

const char* reject_reason_name(RejectReason reason);

/// Typed load-shed reply. The edge server forwards this to the client as
/// an edge::ControlKind::kOverloaded reply; clients fall back to local
/// execution.
struct Reject {
  RejectReason reason = RejectReason::kQueueFull;
  std::size_t queue_depth = 0;  ///< pending jobs at the moment of rejection
};

/// Per-request latency breakdown, filled by the scheduler.
///
/// The wait is split at `available` = max(submitted, replica-free-since):
/// time before `available` the request was blocked behind other work
/// (queue wait); time after it the replica sat idle on purpose while the
/// batch formed (batch wait). Under the degenerate single-replica FIFO
/// configuration batch wait is identically zero and queue wait reproduces
/// the old reservation model bit-for-bit.
struct RequestTiming {
  sim::SimTime submitted;
  sim::SimTime dispatched;
  sim::SimTime completed;
  double queue_wait_s = 0;  ///< waited for a replica (contention)
  double batch_wait_s = 0;  ///< replica free, held for batch formation
  double compute_s = 0;     ///< fused-launch time (shared by the batch)
  int batch_size = 1;       ///< jobs fused into the launch that ran this one
  int replica = 0;          ///< lane index that executed the job
  /// Obs span id of the lane-busy span covering this job's launch (0 when
  /// the scheduler has no obs sink). Lets callers parent their own
  /// sub-spans (e.g. the edge server's restore/execute/capture) inside
  /// the lane interval.
  std::uint64_t busy_span = 0;

  double total_s() const { return (completed - submitted).to_seconds(); }
};

/// Completion callback for opaque jobs, invoked at the completion sim-time.
using OpaqueDoneFn = std::function<void(const RequestTiming&)>;
/// Expiry callback: the job's deadline passed while it was still queued
/// and the scheduler cancelled it (SchedulerConfig::drop_expired). The
/// timing records submitted and the cancellation time (`completed`); no
/// compute ever ran.
using ExpiredFn = std::function<void(const RequestTiming&)>;
/// Completion callback for inference jobs: this request's slice of the
/// batched output, plus timing.
using InferDoneFn = std::function<void(nn::Tensor output,
                                       const RequestTiming&)>;

/// Outcome of a submit call. Admission is decided synchronously.
struct SubmitResult {
  bool admitted = false;
  std::uint64_t id = 0;  ///< admission sequence number (valid if admitted)
  Reject reject;         ///< valid if !admitted
};

}  // namespace offload::serve
