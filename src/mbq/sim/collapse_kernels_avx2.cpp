// AVX2 flavor of the collapse kernels (4 doubles / register).
//
// Compiled with -mavx2 and -DMBQ_TU_AVX2 when the toolchain supports it
// (see CMakeLists); otherwise this TU degrades to a nullptr factory so
// the build links unchanged on any platform.  No FMA: the bitwise
// contract requires the same separate mul+add the scalar path performs.

#include "mbq/sim/collapse_kernels.h"

#if defined(MBQ_TU_AVX2)

#include <immintrin.h>

#include "mbq/sim/collapse_kernels_vec.h"

namespace mbq::detail {
namespace {

struct Avx2Traits {
  using R = double;
  static constexpr int kW = 4;
  using V = __m256d;

  static V load(const double* p) noexcept { return _mm256_loadu_pd(p); }
  static void store(double* p, V v) noexcept { _mm256_storeu_pd(p, v); }
  static V set1(double x) noexcept { return _mm256_set1_pd(x); }
  static V zero() noexcept { return _mm256_setzero_pd(); }
  static V add(V a, V b) noexcept { return _mm256_add_pd(a, b); }
  static V mul(V a, V b) noexcept { return _mm256_mul_pd(a, b); }
  /// [re0,im0,re1,im1] -> [im0,re0,im1,re1] (swap within 128-bit pairs).
  static V swap_pairs(V v) noexcept { return _mm256_permute_pd(v, 0b0101); }
  static V xor_signs(V v, V m) noexcept { return _mm256_xor_pd(v, m); }
  /// Negate the re lanes (stream-even positions) only.
  static V neg_even(V v) noexcept {
    return _mm256_xor_pd(
        v, _mm256_castsi256_pd(_mm256_set_epi64x(
               0, static_cast<long long>(kSignBit), 0,
               static_cast<long long>(kSignBit))));
  }
  /// Split the 2+2 amplitudes of v0:v1 into their bit-0-clear and
  /// bit-0-set members (q = 0 is the only in-register stride): the low
  /// and high 128-bit halves.
  struct Deinterleave {
    explicit Deinterleave(int /*q*/) noexcept {}
    void operator()(V v0, V v1, V& lo, V& hi) const noexcept {
      lo = _mm256_permute2f128_pd(v0, v1, 0x20);
      hi = _mm256_permute2f128_pd(v0, v1, 0x31);
    }
  };
};

/// f32 flavor: 8 floats / register, half the canonical 16-lane fold in
/// one accumulator register.  Same op-for-op structure as the f64
/// traits — only the element width changes.
struct Avx2TraitsF32 {
  using R = float;
  static constexpr int kW = 8;
  using V = __m256;

  static V load(const float* p) noexcept { return _mm256_loadu_ps(p); }
  static void store(float* p, V v) noexcept { _mm256_storeu_ps(p, v); }
  static V set1(float x) noexcept { return _mm256_set1_ps(x); }
  static V zero() noexcept { return _mm256_setzero_ps(); }
  static V add(V a, V b) noexcept { return _mm256_add_ps(a, b); }
  static V mul(V a, V b) noexcept { return _mm256_mul_ps(a, b); }
  /// Swap within each 64-bit (re,im) pair: imm 0b10110001 = 2,3,0,1.
  static V swap_pairs(V v) noexcept { return _mm256_permute_ps(v, 0b10110001); }
  static V xor_signs(V v, V m) noexcept { return _mm256_xor_ps(v, m); }
  /// Negate the re lanes (stream-even positions) only.
  static V neg_even(V v) noexcept {
    const int s = static_cast<int>(kSignBitU<float>);
    return _mm256_xor_ps(
        v, _mm256_castsi256_ps(_mm256_set_epi32(0, s, 0, s, 0, s, 0, s)));
  }
  /// Split the 4+4 amplitudes of v0:v1 into their bit-q-clear and
  /// bit-q-set members, moving whole 64-bit (re, im) pairs: q = 1 takes
  /// the 128-bit halves, q = 0 unpacks even/odd amplitudes and restores
  /// ascending order with a cross-lane permute.
  struct Deinterleave {
    int q;
    explicit Deinterleave(int qq) noexcept : q(qq) {}
    void operator()(V v0, V v1, V& lo, V& hi) const noexcept {
      const __m256d d0 = _mm256_castps_pd(v0);
      const __m256d d1 = _mm256_castps_pd(v1);
      if (q == 0) {
        // unpack: [a0 a4 a2 a6] / [a1 a5 a3 a7]; 0xD8 picks 0, 2, 1, 3.
        lo = _mm256_castpd_ps(
            _mm256_permute4x64_pd(_mm256_unpacklo_pd(d0, d1), 0xD8));
        hi = _mm256_castpd_ps(
            _mm256_permute4x64_pd(_mm256_unpackhi_pd(d0, d1), 0xD8));
      } else {
        lo = _mm256_castpd_ps(_mm256_permute2f128_pd(d0, d1, 0x20));
        hi = _mm256_castpd_ps(_mm256_permute2f128_pd(d0, d1, 0x31));
      }
    }
  };
};

}  // namespace

const CollapseKernels* avx2_kernels_impl() noexcept {
  return make_vec_table<Avx2Traits>(SimdIsa::Avx2);
}

const CollapseKernelsF32* avx2_kernels_f32_impl() noexcept {
  return make_vec_table<Avx2TraitsF32>(SimdIsa::Avx2);
}

}  // namespace mbq::detail

#else  // !MBQ_TU_AVX2

namespace mbq::detail {
const CollapseKernels* avx2_kernels_impl() noexcept { return nullptr; }
const CollapseKernelsF32* avx2_kernels_f32_impl() noexcept { return nullptr; }
}  // namespace mbq::detail

#endif
