// Throughput of the byte primitives every pre-sent model byte goes
// through: CRC-32 (the old byte-at-a-time table loop, kept here as the
// baseline row, against the slice-by-8 and PCLMUL kernels), fp32 array
// write/read (per-float calls vs the bulk f32s), the FNV-1a content
// digest, AgeNet's weights encode/decode, and the ModelFilesPayload
// encode/decode of its ~46 MB pre-send bundle.
//
// Emits BENCH_micro_bytes.json: per (primitive, variant) the bytes
// processed, reps, mean/p95/best wall time, GB/s at the mean, and a
// checksum of the result. Rows of one primitive must agree on the
// checksum; that is the byte-identity contract of the faster variants.
// OFFLOAD_BENCH_REPS sets the reps (default 7). With
// OFFLOAD_BENCH_DETERMINISTIC=1 the timing fields are zeroed so the CI
// double-run gate can diff the file byte-for-byte.
#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/json_writer.h"
#include "src/edge/protocol.h"
#include "src/nn/model_io.h"
#include "src/nn/models.h"
#include "src/util/bytes.h"
#include "src/util/crc32.h"
#include "src/util/hash.h"
#include "src/util/rng.h"
#include "src/util/stats.h"

namespace {

using namespace offload;

/// The CRC-32 every payload byte went through before the sliced kernels:
/// one table lookup per byte.
std::uint32_t crc32_bytewise(std::span<const std::uint8_t> data) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t state = 0xffffffffu;
  for (std::uint8_t b : data) state = table[(state ^ b) & 0xff] ^ (state >> 8);
  return ~state;
}

int reps_from_env() {
  const char* s = std::getenv("OFFLOAD_BENCH_REPS");
  const int n = s ? std::atoi(s) : 0;
  return n > 0 ? n : 7;
}

struct Row {
  std::string primitive;
  std::string variant;
  std::uint64_t bytes = 0;
  util::Samples ms;
  std::uint64_t checksum = 0;
};

/// Times `run` once as a warm-up and then `reps` times; `sum` maps its
/// result to the row's checksum outside the timed region.
template <class Run, class Sum>
Row measure(std::string primitive, std::string variant, std::uint64_t bytes,
            int reps, Run run, Sum sum) {
  auto out = run();
  Row row{std::move(primitive), std::move(variant), bytes, {}, sum(out)};
  for (int i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    auto next = run();
    const auto t1 = std::chrono::steady_clock::now();
    row.ms.add(std::chrono::duration<double, std::milli>(t1 - t0).count());
    out = std::move(next);
  }
  if (sum(out) != row.checksum) {
    std::fprintf(stderr, "%s/%s: checksum changed between reps\n",
                 row.primitive.c_str(), row.variant.c_str());
    std::exit(1);
  }
  return row;
}

std::uint64_t crc_of_floats(const std::vector<float>& v) {
  return util::crc32(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(v.data()), v.size() * 4));
}

}  // namespace

int main() {
  const bool deterministic =
      std::getenv("OFFLOAD_BENCH_DETERMINISTIC") != nullptr;
  const int reps = reps_from_env();

  // AgeNet's full bundle is the largest pre-send of the three paper apps.
  const auto net = nn::build_agenet();
  const std::vector<nn::ModelFile> files = nn::model_files(*net);
  const util::Bytes& weights = files.back().content;
  const std::uint64_t n = weights.size();

  // Pseudo-random fp32 bit patterns (NaNs and denormals included) for the
  // array rows, the same byte count as the weights file.
  std::vector<float> floats(n / 4);
  {
    util::Pcg32 rng(11);
    for (float& f : floats) f = std::bit_cast<float>(rng.next_u32());
  }
  const std::uint64_t fbytes = floats.size() * 4;

  const auto same = [](std::uint64_t v) { return v; };
  const auto crc_of_bytes = [](const util::Bytes& b) {
    return std::uint64_t{util::crc32(std::span(b))};
  };

  std::vector<Row> rows;
  rows.push_back(measure(
      "crc32", "table_bytewise", n, reps,
      [&] { return std::uint64_t{crc32_bytewise(weights)}; }, same));
  for (util::Crc32Kernel k :
       {util::Crc32Kernel::kSliceBy8, util::Crc32Kernel::kPclmul}) {
    if (!util::crc32_kernel_available(k)) continue;
    rows.push_back(measure(
        "crc32", util::crc32_kernel_name(k), n, reps,
        [&] { return std::uint64_t{util::crc32(weights, k)}; }, same));
  }

  rows.push_back(measure(
      "f32_write", "per_float", fbytes, reps,
      [&] {
        util::BinaryWriter w;
        for (float f : floats) w.f32(f);
        return std::move(w).take();
      },
      crc_of_bytes));
  rows.push_back(measure(
      "f32_write", "f32s", fbytes, reps,
      [&] {
        util::BinaryWriter w;
        w.f32s(floats);
        return std::move(w).take();
      },
      crc_of_bytes));
  util::Bytes encoded;
  {
    util::BinaryWriter w;
    w.f32s(floats);
    encoded = std::move(w).take();
  }
  std::vector<float> back(floats.size());
  const auto crc_of_back = [&](int) { return crc_of_floats(back); };
  rows.push_back(measure(
      "f32_read", "per_float", fbytes, reps,
      [&] {
        util::BinaryReader r(encoded);
        for (float& f : back) f = r.f32();
        return 0;
      },
      crc_of_back));
  rows.push_back(measure(
      "f32_read", "f32s", fbytes, reps,
      [&] {
        util::BinaryReader r(encoded);
        r.f32s(back);
        return 0;
      },
      crc_of_back));

  rows.push_back(measure(
      "fnv1a", "bytewise", n, reps,
      [&] { return util::fnv1a(std::span(weights)); }, same));

  rows.push_back(measure(
      "weights_encode", "save_weights", n, reps,
      [&] { return nn::save_weights(*net); }, crc_of_bytes));
  auto target = nn::parse_description(nn::save_description(*net));
  rows.push_back(measure(
      "weights_decode", "load_weights", n, reps,
      [&] {
        nn::load_weights(*target, std::span(weights));
        return 0;
      },
      [&](int) { return crc_of_bytes(nn::save_weights(*target)); }));

  const util::Bytes payload = edge::ModelFilesPayload::encode_files(files);
  const std::uint64_t pbytes = payload.size();
  rows.push_back(measure(
      "model_files_payload", "encode", pbytes, reps,
      [&] { return edge::ModelFilesPayload::encode_files(files); },
      crc_of_bytes));
  rows.push_back(measure(
      "model_files_payload", "decode", pbytes, reps,
      [&] { return edge::ModelFilesPayload::decode(payload); },
      [&](const edge::ModelFilesPayload& p) {
        return crc_of_bytes(edge::ModelFilesPayload::encode_files(p.files));
      }));

  std::vector<bench::JsonObject> json;
  bool agree = true;
  std::printf("%-28s %-15s %10s %5s %9s %9s %8s  %s\n", "primitive", "variant",
              "bytes", "reps", "mean_ms", "p95_ms", "GB/s", "checksum");
  for (const Row& r : rows) {
    for (const Row& first : rows) {
      if (first.primitive != r.primitive) continue;
      if (first.checksum != r.checksum) {
        std::fprintf(stderr, "%s: %s and %s disagree\n", r.primitive.c_str(),
                     first.variant.c_str(), r.variant.c_str());
        agree = false;
      }
      break;
    }
    const double mean = r.ms.mean();
    const double gbps =
        mean > 0 ? static_cast<double>(r.bytes) / (mean * 1e6) : 0.0;
    char sum_hex[24];
    std::snprintf(sum_hex, sizeof sum_hex, "%016llx",
                  static_cast<unsigned long long>(r.checksum));
    std::printf("%-28s %-15s %10llu %5d %9.3f %9.3f %8.3f  %s\n",
                r.primitive.c_str(), r.variant.c_str(),
                static_cast<unsigned long long>(r.bytes), reps, mean,
                r.ms.percentile(95), gbps, sum_hex);
    bench::JsonObject o;
    o.set("primitive", r.primitive)
        .set("variant", r.variant)
        .set("bytes", static_cast<std::int64_t>(r.bytes))
        .set("reps", reps)
        .set("mean_ms", deterministic ? 0.0 : mean, "%.4f")
        .set("p95_ms", deterministic ? 0.0 : r.ms.percentile(95), "%.4f")
        .set("best_ms", deterministic ? 0.0 : r.ms.percentile(0), "%.4f")
        .set("gb_per_s", deterministic ? 0.0 : gbps, "%.3f")
        .set("checksum", std::string(sum_hex));
    json.push_back(std::move(o));
  }
  const bool written = bench::write_json_array("BENCH_micro_bytes.json", json);
  return written && agree ? 0 : 1;
}
