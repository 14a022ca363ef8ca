// NEON / AdvSIMD flavor of the collapse kernels (2 doubles / register —
// one complex amplitude per register, four accumulator registers for
// the canonical fold).
//
// AdvSIMD is baseline on AArch64, so this TU gates on the architecture
// itself (plus -DMBQ_TU_NEON from the build); x86 builds get the
// nullptr factory.  vmulq/vaddq are plain (non-fused) IEEE ops, and the
// global -ffp-contract=off keeps the compiler from re-fusing them.

#include "mbq/sim/collapse_kernels.h"

#if defined(MBQ_TU_NEON) && defined(__aarch64__)

#include <arm_neon.h>

#include "mbq/sim/collapse_kernels_vec.h"

namespace mbq::detail {
namespace {

struct NeonTraits {
  using R = double;
  static constexpr int kW = 2;
  using V = float64x2_t;

  static V load(const double* p) noexcept { return vld1q_f64(p); }
  static void store(double* p, V v) noexcept { vst1q_f64(p, v); }
  static V set1(double x) noexcept { return vdupq_n_f64(x); }
  static V zero() noexcept { return vdupq_n_f64(0.0); }
  static V add(V a, V b) noexcept { return vaddq_f64(a, b); }
  static V mul(V a, V b) noexcept { return vmulq_f64(a, b); }
  /// [re, im] -> [im, re].
  static V swap_pairs(V v) noexcept { return vextq_f64(v, v, 1); }
  static V xor_signs(V v, V m) noexcept {
    return vreinterpretq_f64_u64(
        veorq_u64(vreinterpretq_u64_f64(v), vreinterpretq_u64_f64(m)));
  }
  /// Negate the re lane (stream-even position) only.
  static V neg_even(V v) noexcept {
    return xor_signs(v, vreinterpretq_f64_u64(vcombine_u64(
                            vdup_n_u64(kSignBit), vdup_n_u64(0))));
  }
};

/// f32 flavor: 4 floats / register (two complex amplitudes), four
/// accumulator registers for the canonical 16-lane fold.
struct NeonTraitsF32 {
  using R = float;
  static constexpr int kW = 4;
  using V = float32x4_t;

  static V load(const float* p) noexcept { return vld1q_f32(p); }
  static void store(float* p, V v) noexcept { vst1q_f32(p, v); }
  static V set1(float x) noexcept { return vdupq_n_f32(x); }
  static V zero() noexcept { return vdupq_n_f32(0.0f); }
  static V add(V a, V b) noexcept { return vaddq_f32(a, b); }
  static V mul(V a, V b) noexcept { return vmulq_f32(a, b); }
  /// Swap within each 64-bit (re,im) pair.
  static V swap_pairs(V v) noexcept { return vrev64q_f32(v); }
  static V xor_signs(V v, V m) noexcept {
    return vreinterpretq_f32_u32(
        veorq_u32(vreinterpretq_u32_f32(v), vreinterpretq_u32_f32(m)));
  }
  /// Negate the re lanes (stream-even positions) only.
  static V neg_even(V v) noexcept {
    const uint32_t m[4] = {kSignBitU<float>, 0, kSignBitU<float>, 0};
    return xor_signs(v, vreinterpretq_f32_u32(vld1q_u32(m)));
  }
};

}  // namespace

const CollapseKernels* neon_kernels_impl() noexcept {
  return make_vec_table<NeonTraits>(SimdIsa::Neon);
}

const CollapseKernelsF32* neon_kernels_f32_impl() noexcept {
  return make_vec_table<NeonTraitsF32>(SimdIsa::Neon);
}

}  // namespace mbq::detail

#else  // !MBQ_TU_NEON

namespace mbq::detail {
const CollapseKernels* neon_kernels_impl() noexcept { return nullptr; }
const CollapseKernelsF32* neon_kernels_f32_impl() noexcept { return nullptr; }
}  // namespace mbq::detail

#endif
