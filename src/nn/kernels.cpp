// Kernel backend registry: CPU detection, the CPU-driven default and the
// per-backend ops tables. Kernel bodies live in kernels_scalar.cpp /
// kernels_simd.cpp; this TU has no float math of its own.
#include "src/nn/kernels.h"

#include <atomic>

#include "src/nn/kernels_impl.h"

namespace offload::nn {
namespace {

KernelOps make_scalar_ops() {
  KernelOps ops;
  ops.kind = KernelBackend::kScalar;
  ops.name = "scalar";
  ops.gemm_mr = 4;
  ops.gemm_nr = 8;
  ops.gemm_tile = &detail::scalar_gemm_tile;
  ops.fc_rows = &detail::scalar_fc_rows;
  ops.relu_range = &detail::scalar_relu_range;
  ops.pool_plane = &detail::scalar_pool_plane;
  ops.lrn_row = &detail::scalar_lrn_row;
  return ops;
}

struct Tables {
  KernelOps scalar = make_scalar_ops();
  KernelOps simd = detail::make_simd_ops();
};

const Tables& tables() {
  static const Tables t;
  return t;
}

std::atomic<KernelBackend>& active_slot() {
  static std::atomic<KernelBackend> slot{
      cpu_supports_simd() ? KernelBackend::kSimd : KernelBackend::kScalar};
  return slot;
}

}  // namespace

const char* kernel_backend_name(KernelBackend k) {
  switch (k) {
    case KernelBackend::kScalar:
      return "scalar";
    case KernelBackend::kSimd:
      return "simd";
  }
  return "?";
}

bool cpu_supports_simd() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool cpu_supports_avx512() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx512f");
#else
  return false;
#endif
}

KernelBackend active_kernel_backend() {
  return active_slot().load(std::memory_order_relaxed);
}

KernelBackend set_kernel_backend(KernelBackend k) {
  return active_slot().exchange(k, std::memory_order_relaxed);
}

const KernelOps& kernel_ops(KernelBackend k) {
  const Tables& t = tables();
  return k == KernelBackend::kSimd ? t.simd : t.scalar;
}

}  // namespace offload::nn
