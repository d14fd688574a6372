#include "src/edge/protocol.h"

#include <charconv>
#include <string_view>
#include <iterator>
#include <utility>

#include "src/util/crc32.h"

namespace offload::edge {

namespace {

/// The one name table, indexed by ControlKind: encode and decode both read
/// it, so a kind's wire bytes cannot drift between sender and receiver.
constexpr std::string_view kNames[] = {
    "",  // kUnknown: no wire name
    "accepted", "done", "overloaded", "expired", "need_full",
    "model_missing", "send_files", "corrupt_payload", "not_installed",
    "redirect", "rejected", "have", "installed",
};
static_assert(std::size(kNames) ==
              static_cast<std::size_t>(ControlKind::kInstalled) + 1);

net::MessageType message_type_of(ControlKind kind) {
  return kind == ControlKind::kHave || kind == ControlKind::kInstalled
             ? net::MessageType::kAck
             : net::MessageType::kControl;
}

}  // namespace

net::Message encode_control(const Control& control, util::Bytes body) {
  if (control.kind == ControlKind::kUnknown ||
      (control.kind == ControlKind::kRedirect && !control.target)) {
    throw std::invalid_argument("encode_control: no wire name");
  }
  net::Message msg;
  msg.type = message_type_of(control.kind);
  msg.name = std::string(kNames[static_cast<std::size_t>(control.kind)]);
  msg.name += ":";
  if (control.kind == ControlKind::kRedirect) {
    msg.name += std::to_string(*control.target) + ":";
  }
  msg.name += control.app;
  msg.payload = std::move(body);
  return msg;
}

Control decode_control(const net::Message& message) {
  Control out;
  const std::string_view name = message.name;
  const std::size_t colon = name.find(':');
  if (colon == std::string_view::npos) return out;
  for (std::size_t k = 1; k < std::size(kNames); ++k) {
    const auto kind = static_cast<ControlKind>(k);
    if (kNames[k] != name.substr(0, colon) ||
        message_type_of(kind) != message.type) {
      continue;
    }
    out.kind = kind;
    std::string_view rest = name.substr(colon + 1);
    const std::size_t sep = rest.find(':');
    if (kind == ControlKind::kRedirect && sep != std::string_view::npos) {
      // "<target>:<app>": a target that is not a plain decimal size_t
      // (empty, signed, trailing bytes, overflow) decodes as unset.
      std::size_t target = 0;
      const char* end = rest.data() + sep;
      const auto [ptr, ec] = std::from_chars(rest.data(), end, target);
      if (sep > 0 && ec == std::errc() && ptr == end) out.target = target;
      rest = rest.substr(sep + 1);
    }
    out.app = std::string(rest);
    break;
  }
  return out;
}

PayloadCorruptError::PayloadCorruptError(const net::Message& message)
    : std::runtime_error(std::string("corrupt payload in ") +
                         net::message_type_name(message.type) +
                         " message '" + message.name + "'") {}

bool payload_intact(const net::Message& message) {
  return message.crc == util::crc32(message.payload);
}

void verify_payload(const net::Message& message) {
  if (!payload_intact(message)) throw PayloadCorruptError(message);
}

util::Bytes ModelFilesPayload::encode() const { return encode_files(files); }

util::Bytes ModelFilesPayload::encode_files(
    std::span<const nn::ModelFile> files) {
  util::BinaryWriter w;
  w.varint(files.size());
  for (const auto& f : files) {
    w.str(f.name);
    w.blob(std::span(f.content));
  }
  return std::move(w).take();
}

ModelFilesPayload ModelFilesPayload::decode(
    std::span<const std::uint8_t> data) {
  util::BinaryReader r(data);
  ModelFilesPayload out;
  std::uint64_t count = r.varint();
  out.files.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    nn::ModelFile f;
    f.name = r.str();
    f.content = r.blob();
    out.files.push_back(std::move(f));
  }
  return out;
}

util::Bytes ModelOfferPayload::encode() const {
  util::BinaryWriter w;
  w.varint(files.size());
  for (const auto& f : files) {
    w.str(f.name);
    w.u64(f.digest);
    w.u64(f.bytes);
  }
  return std::move(w).take();
}

ModelOfferPayload ModelOfferPayload::decode(
    std::span<const std::uint8_t> data) {
  util::BinaryReader r(data);
  ModelOfferPayload out;
  std::uint64_t count = r.varint();
  out.files.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    Entry e;
    e.name = r.str();
    e.digest = r.u64();
    e.bytes = r.u64();
    out.files.push_back(std::move(e));
  }
  return out;
}

util::Bytes FileListPayload::encode() const {
  util::BinaryWriter w;
  w.varint(names.size());
  for (const auto& n : names) w.str(n);
  return std::move(w).take();
}

FileListPayload FileListPayload::decode(std::span<const std::uint8_t> data) {
  util::BinaryReader r(data);
  FileListPayload out;
  std::uint64_t count = r.varint();
  out.names.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) out.names.push_back(r.str());
  return out;
}

util::Bytes SnapshotPayload::encode() const {
  util::BinaryWriter w;
  w.u64(cut);
  w.u8(differential ? 1 : 0);
  w.u64(base_version);
  w.str(program);
  return std::move(w).take();
}

SnapshotPayload SnapshotPayload::decode(std::span<const std::uint8_t> data) {
  util::BinaryReader r(data);
  SnapshotPayload out;
  out.cut = r.u64();
  out.differential = r.u8() != 0;
  out.base_version = r.u64();
  out.program = r.str();
  return out;
}

}  // namespace offload::edge
