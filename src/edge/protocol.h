// Payload codecs for the offloading protocol messages. Wire framing (type,
// name, checksum) lives in net::Message; these encode the bodies, and the
// control-name codec below encodes the typed replies that travel in the
// message name ("overloaded:<app>", "redirect:<target>:<app>", ...).
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/net/message.h"
#include "src/nn/model_io.h"

namespace offload::edge {

/// A received message failed its payload CRC check: the bytes were damaged
/// in flight. Typed so the offload supervisor can treat it as a retryable
/// delivery fault rather than a protocol bug.
class PayloadCorruptError : public std::runtime_error {
 public:
  explicit PayloadCorruptError(const net::Message& message);
};

/// True if `message.payload` still matches the CRC stamped at send time.
bool payload_intact(const net::Message& message);

/// Throws PayloadCorruptError unless payload_intact(message). Every edge
/// endpoint calls this before decoding a payload-bearing message, so
/// corruption is rejected instead of silently accepted.
void verify_payload(const net::Message& message);

/// Every typed reply the edge protocol carries in a message name. The
/// kControl kinds travel as "<name>:<app>"; kHave and kInstalled are the
/// two prefixed kAck variants (a plain post-store ACK is named just
/// "<app>" and decodes to kUnknown). kRedirect carries a server index:
/// "redirect:<target>:<app>".
enum class ControlKind : std::uint8_t {
  kUnknown,         ///< unparseable, unprefixed, or an unknown prefix
  kAccepted,        ///< snapshot admitted: the upload phase is over
  kDone,            ///< execution finished: only the download remains
  kOverloaded,      ///< shed at admission (queue full)
  kExpired,         ///< cancelled past its queue or relay deadline
  kNeedFull,        ///< differential snapshot against an unknown baseline
  kModelMissing,    ///< the snapshot needs a model the server lacks
  kSendFiles,       ///< offer partly missed; body = FileListPayload
  kCorruptPayload,  ///< the server's CRC check rejected our bytes
  kNotInstalled,    ///< no offloading system yet: ship a VM overlay
  kRedirect,        ///< a draining server names a peer to re-target
  kRejected,        ///< the snapshot cannot run (parse, script, cut): final
  kHave,            ///< (kAck) the blob cache covered the whole offer
  kInstalled,       ///< (kAck) the VM overlay is installed
};

/// A decoded control name.
struct Control {
  ControlKind kind = ControlKind::kUnknown;
  std::string app;
  /// kRedirect only: the attached-server index to re-target. Unset when
  /// the redirect's target field is missing or not a decimal number.
  std::optional<std::size_t> target;
};

/// The message carrying `control`: kAck for kHave/kInstalled, kControl
/// otherwise, named "<prefix>:<app>" ("redirect:<target>:<app>").
/// `body` is the kSendFiles FileListPayload; every other kind has none.
net::Message encode_control(const Control& control, util::Bytes body = {});

/// Classify a received message's name. Never throws: an unknown prefix, a
/// name without one, or a kind arriving in the wrong message type decodes
/// to kUnknown.
Control decode_control(const net::Message& message);

/// Body of a kModelFiles message: the pre-sent model file bundle.
struct ModelFilesPayload {
  std::vector<nn::ModelFile> files;

  util::Bytes encode() const;
  /// The encoding of a payload holding `files`, without first copying
  /// them into one.
  static util::Bytes encode_files(std::span<const nn::ModelFile> files);
  static ModelFilesPayload decode(std::span<const std::uint8_t> data);
};

/// Body of a kModelOffer message: per-file content digests of a pre-send.
/// A server that already caches a blob under the same digest (uploaded by
/// any client since its last crash) skips that file's body entirely — the
/// Nth client's warmup shrinks from the model size to digest size.
struct ModelOfferPayload {
  struct Entry {
    std::string name;           ///< model file name, e.g. "tinycnn.weights"
    std::uint64_t digest = 0;   ///< fnv1a of the file content
    std::uint64_t bytes = 0;    ///< content size (for bytes-saved stats)
  };
  std::vector<Entry> files;

  util::Bytes encode() const;
  static ModelOfferPayload decode(std::span<const std::uint8_t> data);
};

/// Body of a ControlKind::kSendFiles reply: the subset of offered files the
/// server does not hold and needs uploaded in full.
struct FileListPayload {
  std::vector<std::string> names;

  util::Bytes encode() const;
  static FileListPayload decode(std::span<const std::uint8_t> data);
};

/// Body of a kSnapshot / kResultSnapshot message: the snapshot program
/// plus the partition point (SIZE_MAX when full inference), which the
/// serving browser needs to run inference_rear on the right layer range.
/// For repeat offloads the program may be a *differential* snapshot that
/// applies to the session state the server kept — `base_version` names the
/// common baseline (fingerprint version) it patches.
struct SnapshotPayload {
  std::uint64_t cut = UINT64_MAX;
  bool differential = false;
  std::uint64_t base_version = 0;
  std::string program;

  util::Bytes encode() const;
  static SnapshotPayload decode(std::span<const std::uint8_t> data);
};

}  // namespace offload::edge
