// CRC-32 (IEEE 802.3 polynomial) used for integrity checks on snapshots,
// model files and VM overlay chunks.
//
// Two kernels compute the same values: a portable slice-by-8 table walk,
// and a carry-less-multiply fold (x86 PCLMULQDQ) picked at run time when
// the CPU has it. The table kernel is the fallback and the oracle the
// fold is tested against.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

namespace offload::util {

enum class Crc32Kernel {
  kSliceBy8,  ///< eight 256-entry tables, 8 input bytes per step
  kPclmul,    ///< 4x128-bit carry-less-multiply fold + Barrett reduction
};

const char* crc32_kernel_name(Crc32Kernel k);

/// True if `k` can run on this CPU (kSliceBy8 always can). Crc32 and
/// crc32() use kPclmul when it is available, otherwise kSliceBy8.
bool crc32_kernel_available(Crc32Kernel k);

/// Incremental CRC-32 accumulator.
class Crc32 {
 public:
  void update(std::span<const std::uint8_t> data);
  void update(std::string_view data);
  std::uint32_t value() const { return ~state_; }

 private:
  std::uint32_t state_ = 0xffffffffu;
};

/// One-shot CRC-32 of a byte span.
std::uint32_t crc32(std::span<const std::uint8_t> data);
std::uint32_t crc32(std::string_view data);

/// One-shot CRC-32 through a pinned kernel, so tests and benches can
/// compare kernels. Throws std::invalid_argument if `k` is unavailable.
std::uint32_t crc32(std::span<const std::uint8_t> data, Crc32Kernel k);

}  // namespace offload::util
