#include "src/util/crc32.h"

#include <array>
#include <cstddef>
#include <stdexcept>
#include <string>

#include "src/util/bytes.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define OFFLOAD_CRC32_PCLMUL 1
#endif

namespace offload::util {
namespace {

constexpr std::uint32_t kPoly = 0xedb88320u;  // reflected 0x04c11db7

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

// tables[0] is the classic byte table; tables[k][b] is the CRC of byte b
// followed by k zero bytes, so eight lookups advance the state 8 bytes.
constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? kPoly ^ (c >> 1) : (c >> 1);
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = t[k - 1][i];
      t[k][i] = (prev >> 8) ^ t[0][prev & 0xff];
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

inline std::uint32_t load_le32(const std::uint8_t* p) {
  // Byte-wise assembly keeps the kernel endian-neutral; compilers fold it
  // into one load on little-endian targets.
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint32_t update_slice8(std::uint32_t state, const std::uint8_t* p,
                            std::size_t n) {
  const auto& t = kTables;
  while (n >= 8) {
    const std::uint32_t lo = load_le32(p) ^ state;
    const std::uint32_t hi = load_le32(p + 4);
    state = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^
            t[5][(lo >> 16) & 0xff] ^ t[4][lo >> 24] ^ t[3][hi & 0xff] ^
            t[2][(hi >> 8) & 0xff] ^ t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) state = t[0][(state ^ *p++) & 0xff] ^ (state >> 8);
  return state;
}

#ifdef OFFLOAD_CRC32_PCLMUL

// Folding constants for the reflected IEEE polynomial (Gopal et al., "Fast
// CRC Computation for Generic Polynomials Using PCLMULQDQ", Intel 2009):
// the 512-bit (4-lane) and 128-bit (1-lane) fold pairs, the 64-bit
// reduction constant, and the Barrett pair P' and mu.
alignas(16) constexpr std::uint64_t kK1K2[2] = {0x0154442bd4, 0x01c6e41596};
alignas(16) constexpr std::uint64_t kK3K4[2] = {0x01751997d0, 0x00ccaa009e};
alignas(16) constexpr std::uint64_t kK5K0[2] = {0x0163cd6124, 0x0000000000};
alignas(16) constexpr std::uint64_t kPolyMu[2] = {0x01db710641, 0x01f7011641};

__attribute__((target("pclmul,sse4.1"))) inline __m128i fold(__m128i acc,
                                                             __m128i k,
                                                             __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

/// Advances `state` over `n` bytes; n >= 64 and a multiple of 16.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t update_pclmul(
    std::uint32_t state, const std::uint8_t* p, std::size_t n) {
  auto load = [](const std::uint8_t* q) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(q));
  };
  __m128i x1 =
      _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i x2 = load(p + 16);
  __m128i x3 = load(p + 32);
  __m128i x4 = load(p + 48);
  p += 64;
  n -= 64;

  __m128i k = _mm_load_si128(reinterpret_cast<const __m128i*>(kK1K2));
  for (; n >= 64; p += 64, n -= 64) {
    x1 = fold(x1, k, load(p));
    x2 = fold(x2, k, load(p + 16));
    x3 = fold(x3, k, load(p + 32));
    x4 = fold(x4, k, load(p + 48));
  }

  // Four lanes into one, then the 16-byte remainder blocks.
  k = _mm_load_si128(reinterpret_cast<const __m128i*>(kK3K4));
  x1 = fold(x1, k, x2);
  x1 = fold(x1, k, x3);
  x1 = fold(x1, k, x4);
  for (; n >= 16; p += 16, n -= 16) x1 = fold(x1, k, load(p));

  // 128 -> 64 bits.
  const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);
  __m128i t = _mm_clmulepi64_si128(x1, k, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), t);
  k = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(kK5K0));
  t = _mm_srli_si128(x1, 4);
  x1 = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k, 0x00);
  x1 = _mm_xor_si128(x1, t);

  // Barrett reduction to 32 bits.
  k = _mm_load_si128(reinterpret_cast<const __m128i*>(kPolyMu));
  t = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), k, 0x00);
  x1 = _mm_xor_si128(x1, t);
  return static_cast<std::uint32_t>(_mm_extract_epi32(x1, 1));
}

bool cpu_has_pclmul() {
  static const bool ok =
      __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  return ok;
}

#endif  // OFFLOAD_CRC32_PCLMUL

std::uint32_t update_with(Crc32Kernel k, std::uint32_t state,
                          std::span<const std::uint8_t> data) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
#ifdef OFFLOAD_CRC32_PCLMUL
  if (k == Crc32Kernel::kPclmul && n >= 64) {
    const std::size_t bulk = n & ~std::size_t{15};
    state = update_pclmul(state, p, bulk);
    p += bulk;
    n -= bulk;
  }
#else
  (void)k;
#endif
  return update_slice8(state, p, n);
}

}  // namespace

const char* crc32_kernel_name(Crc32Kernel k) {
  switch (k) {
    case Crc32Kernel::kSliceBy8:
      return "slice8";
    case Crc32Kernel::kPclmul:
      return "pclmul";
  }
  return "?";
}

bool crc32_kernel_available(Crc32Kernel k) {
  if (k == Crc32Kernel::kSliceBy8) return true;
#ifdef OFFLOAD_CRC32_PCLMUL
  return cpu_has_pclmul();
#else
  return false;
#endif
}

void Crc32::update(std::span<const std::uint8_t> data) {
  static const Crc32Kernel active =
      crc32_kernel_available(Crc32Kernel::kPclmul) ? Crc32Kernel::kPclmul
                                                   : Crc32Kernel::kSliceBy8;
  state_ = update_with(active, state_, data);
}

void Crc32::update(std::string_view data) { update(as_bytes(data)); }

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  Crc32 c;
  c.update(data);
  return c.value();
}

std::uint32_t crc32(std::string_view data) { return crc32(as_bytes(data)); }

std::uint32_t crc32(std::span<const std::uint8_t> data, Crc32Kernel k) {
  if (!crc32_kernel_available(k)) {
    throw std::invalid_argument(std::string("crc32: kernel ") +
                                crc32_kernel_name(k) +
                                " is not available on this CPU");
  }
  return ~update_with(k, 0xffffffffu, data);
}

}  // namespace offload::util
