// Scalar reference flavor of the collapse kernels.
//
// This TU defines the CANONICAL results: every vector flavor must
// reproduce these bit-for-bit (verify_kernels enforces it at dispatch).
// The folds keep kFoldLanes<R> running lane accumulators indexed by the
// global element-stream position mod L and combine them in the fixed
// tree documented in collapse_kernels.h — which is exactly what one
// vector register (or two, or four) of lane partials computes, so the
// scalar path is slower but never different.  The whole TU is templated
// over the element type R (double and float instantiations).

#include <cstdint>

#include "mbq/common/bits.h"
#include "mbq/sim/collapse_kernels.h"

namespace mbq {
namespace {

/// The canonical fold accumulator (see collapse_kernels.h): 8 lanes for
/// double, 16 for float.
template <class R>
struct FoldAcc {
  static constexpr int kL = kFoldLanes<R>;
  R a[kL] = {};
  std::uint64_t m = 0;  // global element-stream position

  void add(R d) noexcept {
    a[m & (kL - 1)] += d * d;
    ++m;
  }
  void add(const std::complex<R>& v) noexcept {
    add(v.real());
    add(v.imag());
  }
  R combine() const noexcept { return fold_combine<R>(a); }
};

template <class R>
R s_fold_norms(const std::complex<R>* x, std::uint64_t n) {
  FoldAcc<R> acc;
  for (std::uint64_t i = 0; i < n; ++i) acc.add(x[i]);
  return acc.combine();
}

template <class R>
R s_fold_norms_scaled(const std::complex<R>* x, std::uint64_t n, R s) {
  FoldAcc<R> acc;
  for (std::uint64_t i = 0; i < n; ++i) acc.add(x[i] * s);
  return acc.combine();
}

template <class R>
R s_prep_total_fold(const std::complex<R>* x, std::uint64_t n, R s) {
  // Two sweeps, ONE carried accumulator set: the doubled register's
  // upper half differs only in signs, which square away bitwise.
  FoldAcc<R> acc;
  for (std::uint64_t i = 0; i < n; ++i) acc.add(x[i] * s);
  for (std::uint64_t i = 0; i < n; ++i) acc.add(x[i] * s);
  return acc.combine();
}

template <class R>
R s_scale_fold(std::complex<R>* x, std::uint64_t n, R inv) {
  FoldAcc<R> acc;
  for (std::uint64_t i = 0; i < n; ++i) {
    x[i] *= inv;
    acc.add(x[i]);
  }
  return acc.combine();
}

// ---- projection sweeps ----------------------------------------------------
// The three projection shapes share one sweep body each; the kWrite
// mode parameter selects the fold pass (both outcomes, nothing stored;
// outcome m has effects e[2m], e[2m+1]) or the write pass (the outcome
// whose effects are e[0], e[1], scaled by inv and stored, folding what
// is stored).

/// A FoldAcc's lanes as locals for a sweep's hot loop, which feeds them
/// one lane group at a time: kG = kL/2 amplitudes, slot t folding into
/// lanes 2t and 2t + 1, exactly as FoldAcc::add would from a group
/// boundary.  The loops over a group are unrolled, so every index is a
/// constant and the lanes stay in registers, where FoldAcc's running
/// position keeps them in memory.
template <class R>
struct GroupFold {
  static constexpr int kL = kFoldLanes<R>;
  static constexpr int kG = kL / 2;
  R a[kL];
  void load(const FoldAcc<R>& f) noexcept {
#pragma GCC unroll 16
    for (int j = 0; j < kL; ++j) a[j] = f.a[j];
  }
  /// Hands the lanes back after `groups` whole groups.
  void store(FoldAcc<R>& f, std::uint64_t groups) const noexcept {
#pragma GCC unroll 16
    for (int j = 0; j < kL; ++j) f.a[j] = a[j];
    f.m += groups * kL;
  }
  void add(int t, const std::complex<R>& v) noexcept {
    a[2 * t] += v.real() * v.real();
    a[2 * t + 1] += v.imag() * v.imag();
  }
};

/// Runs body(i, fold) for i in [b, e): body computes index i's values
/// and folds value v into accumulator j (a constant) by fold(j, v).  The
/// kN accumulators share one stream position; from a group boundary,
/// whole lane groups fold through GroupFold lanes, and the rest (a tail
/// shorter than a group, or everything off a boundary) through acc.
template <int kN, class R, class Body>
void fold_sweep(std::uint64_t b, std::uint64_t e, FoldAcc<R>* acc,
                Body&& body) {
  constexpr int kG = GroupFold<R>::kG;
  std::uint64_t i = b;
  if (acc[0].m % FoldAcc<R>::kL == 0) {
    const std::uint64_t groups = (e - b) / kG;
    GroupFold<R> g[kN];
#pragma GCC unroll 4
    for (int j = 0; j < kN; ++j) g[j].load(acc[j]);
    for (std::uint64_t n = 0; n < groups; ++n, i += kG) {
#pragma GCC unroll 16
      for (int t = 0; t < kG; ++t)
        body(i + t, [&](int j, const std::complex<R>& v) { g[j].add(t, v); });
    }
#pragma GCC unroll 4
    for (int j = 0; j < kN; ++j) g[j].store(acc[j], groups);
  }
  for (; i < e; ++i)
    body(i, [&](int j, const std::complex<R>& v) { acc[j].add(v); });
}

/// Fold-pass outcomes (2) or write-pass outcomes (1).
template <bool kWrite>
inline constexpr int kOutcomes = kWrite ? 1 : 2;

/// measure_remove sweep over pair ranks [0, pairs): acc[m] folds outcome
/// m (fold pass) or the stored outcome (write pass, acc[0]).
template <bool kWrite, class R>
void s_pairs_sweep(const std::complex<R>* x, std::complex<R>* out,
                   std::uint64_t pairs, int q, const std::complex<R>* e, R inv,
                   FoldAcc<R>* acc) {
  constexpr int kM = kOutcomes<kWrite>;
  const std::uint64_t stride = std::uint64_t{1} << q;
  EffKind kinds[2 * kM];
  for (int j = 0; j < 2 * kM; ++j) kinds[j] = eff_kind(e[j]);
  fold_sweep<kM>(std::uint64_t{0}, pairs, acc, [&](std::uint64_t k,
                                                  auto&& fold) {
    const std::uint64_t i0 = insert_zero_bit(k, q);
    const std::complex<R> u0 = x[i0];
    const std::complex<R> u1 = x[i0 | stride];
    std::complex<R> v =
        eff_mul(kinds[0], e[0], u0) + eff_mul(kinds[1], e[1], u1);
    if constexpr (kWrite) {
      v *= inv;
      out[k] = v;
    } else {
      fold(1, eff_mul(kinds[2], e[2], u0) + eff_mul(kinds[3], e[3], u1));
    }
    fold(0, v);
  });
}

template <class R>
void s_pairs_fold(const std::complex<R>* x, std::uint64_t pairs, int q,
                  const std::complex<R>* e, R* folds) {
  FoldAcc<R> acc[2];
  s_pairs_sweep<false, R>(x, nullptr, pairs, q, e, R(1), acc);
  for (int m = 0; m < 2; ++m) folds[m] = acc[m].combine();
}

template <class R>
R s_pairs_write(const std::complex<R>* x, std::complex<R>* out,
                std::uint64_t pairs, int q, std::complex<R> e0,
                std::complex<R> e1, R inv) {
  const std::complex<R> e[2] = {e0, e1};
  FoldAcc<R> acc;
  s_pairs_sweep<true>(x, out, pairs, q, e, inv, &acc);
  return acc.combine();
}

/// Gadget sweep over [i_begin, i_end); the fold pass also folds low = s·x
/// into acc[0] and outcome m into acc[1 + m].
template <bool kWrite, class R>
void s_prep_sweep(const std::complex<R>* x, std::complex<R>* out,
                  std::uint64_t i_begin, std::uint64_t i_end,
                  std::uint64_t pmask, const std::complex<R>* e, R s, R inv,
                  FoldAcc<R>* acc) {
  constexpr int kM = kOutcomes<kWrite>;
  EffKind kinds[2 * kM];
  for (int j = 0; j < 2 * kM; ++j) kinds[j] = eff_kind(e[j]);
  fold_sweep<kWrite ? 1 : 3>(i_begin, i_end, acc, [&](std::uint64_t i,
                                                      auto&& fold) {
    const std::complex<R> low = x[i] * s;
    const std::complex<R> up = parity64(i & pmask) ? -low : low;
    std::complex<R> v =
        eff_mul(kinds[0], e[0], low) + eff_mul(kinds[1], e[1], up);
    if constexpr (kWrite) {
      v *= inv;
      out[i] = v;
      fold(0, v);
    } else {
      fold(0, low);
      fold(1, v);
      fold(2, eff_mul(kinds[2], e[2], low) + eff_mul(kinds[3], e[3], up));
    }
  });
}

template <class R>
void s_prep_fold(const std::complex<R>* x, std::uint64_t i_begin,
                 std::uint64_t i_end, std::uint64_t pmask,
                 const std::complex<R>* e, R s, R* folds) {
  FoldAcc<R> acc[3];
  s_prep_sweep<false, R>(x, nullptr, i_begin, i_end, pmask, e, s, R(1), acc);
  for (int j = 0; j < 3; ++j) folds[j] = acc[j].combine();
}

template <class R>
R s_prep_write(const std::complex<R>* x, std::complex<R>* out,
               std::uint64_t i_begin, std::uint64_t i_end, std::uint64_t pmask,
               std::complex<R> e0, std::complex<R> e1, R s, R inv) {
  const std::complex<R> e[2] = {e0, e1};
  FoldAcc<R> acc;
  s_prep_sweep<true>(x, out, i_begin, i_end, pmask, e, s, inv, &acc);
  return acc.combine();
}

/// Which output halves a teleport sweep computes: Both folds the lower
/// half of outcome m into acc[m] and the upper into acc[kM + m]; Lower
/// or Upper alone fold into acc[m].
enum class Halves { Both, Lower, Upper };

/// Teleport sweep over pair ranks [r_begin, r_end); the write pass folds
/// what it stores unless fold_stored is false.
template <bool kWrite, Halves H, class R>
void s_teleport_sweep(const std::complex<R>* x, std::complex<R>* out,
                      std::uint64_t dim, int q, std::uint64_t pmask,
                      const std::complex<R>* e, R s, R inv,
                      std::uint64_t r_begin, std::uint64_t r_end,
                      FoldAcc<R>* acc, bool fold_stored = true) {
  constexpr int kM = kOutcomes<kWrite>;
  constexpr int kHi = H == Halves::Both ? kM : 0;  // first upper-half acc
  const std::uint64_t stride = std::uint64_t{1} << q;
  const std::uint64_t rest_count = dim / 2;
  const std::uint64_t pm_low = pmask & (stride - 1);
  const int pm_q = static_cast<int>((pmask >> q) & 1);
  EffKind kinds[2 * kM];
  for (int j = 0; j < 2 * kM; ++j) kinds[j] = eff_kind(e[j]);
  // i0 = insert_zero_bit(r, q); the sign of the upper half is
  // parity(i0 & pmask), since bit q of i0 is clear.  With no partner
  // below q it is constant over each block of 2^q ranks.
  std::uint64_t block = ~std::uint64_t{0};
  int ph = 0;
  fold_sweep<H == Halves::Both ? 2 * kM : kM>(
      r_begin, r_end, acc, [&](std::uint64_t r, auto&& fold) {
        const std::uint64_t i0 = insert_zero_bit(r, q);
        if (pm_low != 0 || (r >> q) != block) {
          block = r >> q;
          ph = parity64(i0 & pmask);
        }
        const std::complex<R> u0 = x[i0] * s;
        const std::complex<R> u1 = x[i0 | stride] * s;
        auto outcome = [&](int m, const std::complex<R>& a,
                           const std::complex<R>& b) {
          if constexpr (H != Halves::Upper) {
            std::complex<R> v = a + b;
            if constexpr (kWrite) {
              v *= inv;
              out[r] = v;
            }
            if (fold_stored) fold(m, v);
          }
          if constexpr (H != Halves::Lower) {
            std::complex<R> v = (ph ? -a : a) + ((ph ^ pm_q) ? -b : b);
            if constexpr (kWrite) {
              v *= inv;
              out[rest_count + r] = v;
            }
            if (fold_stored) fold(kHi + m, v);
          }
        };
        outcome(0, eff_mul(kinds[0], e[0], u0), eff_mul(kinds[1], e[1], u1));
        if constexpr (!kWrite)
          outcome(1, eff_mul(kinds[2], e[2], u0), eff_mul(kinds[3], e[3], u1));
      });
}

template <class R>
void s_teleport_fold(const std::complex<R>* x, std::uint64_t dim, int q,
                     std::uint64_t pmask, const std::complex<R>* e, R s,
                     std::uint64_t r_begin, std::uint64_t r_end, bool carry,
                     R* folds) {
  FoldAcc<R> acc[4];  // lower 0, lower 1, upper 0, upper 1
  if (carry) {  // lower half first, the upper half continuing its lanes
    s_teleport_sweep<false, Halves::Lower, R>(x, nullptr, dim, q, pmask, e, s,
                                              R(1), r_begin, r_end, acc);
    s_teleport_sweep<false, Halves::Upper, R>(x, nullptr, dim, q, pmask, e, s,
                                              R(1), r_begin, r_end, acc);
  } else {
    s_teleport_sweep<false, Halves::Both, R>(x, nullptr, dim, q, pmask, e, s,
                                             R(1), r_begin, r_end, acc);
  }
  for (int m = 0; m < 2; ++m) {
    folds[2 * m] = acc[m].combine();
    folds[2 * m + 1] = carry ? R(0) : acc[2 + m].combine();
  }
}

template <class R>
void s_teleport_write(const std::complex<R>* x, std::complex<R>* out,
                      std::uint64_t dim, int q, std::uint64_t pmask,
                      std::complex<R> e0, std::complex<R> e1, R s, R inv,
                      std::uint64_t r_begin, std::uint64_t r_end, R* folds) {
  const std::complex<R> e[2] = {e0, e1};
  FoldAcc<R> acc[2];  // lower, upper
  s_teleport_sweep<true, Halves::Both>(x, out, dim, q, pmask, e, s, inv,
                                       r_begin, r_end, acc, folds != nullptr);
  if (folds == nullptr) return;
  folds[0] = acc[0].combine();
  folds[1] = acc[1].combine();
}

template <class R>
R s_add_plus_cz(std::complex<R>* x, std::uint64_t old_dim, std::uint64_t pmask,
                R s) {
  FoldAcc<R> acc;
  for (std::uint64_t i = 0; i < old_dim; ++i) {
    x[i] *= s;
    acc.add(x[i]);
  }
  for (std::uint64_t i = 0; i < old_dim; ++i) {
    std::complex<R> v = x[i];
    if (parity64(i & pmask)) v = -v;
    x[old_dim + i] = v;
    acc.add(v);
  }
  return acc.combine();
}

template <class R>
R s_mirror_cz_range(std::complex<R>* x, std::uint64_t old_dim,
                    std::uint64_t i_begin, std::uint64_t i_end,
                    std::uint64_t pmask) {
  FoldAcc<R> acc;
  for (std::uint64_t i = i_begin; i < i_end; ++i) {
    std::complex<R> v = x[i];
    if (parity64(i & pmask)) v = -v;
    x[old_dim + i] = v;
    acc.add(v);
  }
  return acc.combine();
}

template <class R>
void s_sign_pass(std::complex<R>* x, std::uint64_t n, std::uint64_t eq_mask,
                 std::uint64_t par_mask, bool negate) {
  for (std::uint64_t j = 0; j < n; ++j) {
    const bool eq = eq_mask != 0 && (j & eq_mask) == eq_mask;
    if (eq ^ (parity64(j & par_mask) != 0) ^ negate) x[j] = -x[j];
  }
}

template <class R>
void s_cz_masks_pass(std::complex<R>* x, std::uint64_t n,
                     const std::uint64_t* pair_masks, int count) {
  for (std::uint64_t i = 0; i < n; ++i) {
    int flips = 0;
    for (int m = 0; m < count; ++m)
      flips ^= static_cast<int>((i & pair_masks[m]) == pair_masks[m]);
    if (flips) x[i] = -x[i];
  }
}

template <class R>
void s_pauli_swap_pass(std::complex<R>* x, std::uint64_t n,
                       std::uint64_t xmask, std::uint64_t zmask,
                       std::uint64_t eq_mask, bool negate) {
  const int hb = 63 - std::countl_zero(xmask);
  for (std::uint64_t j = 0; j < n; ++j) {
    if (get_bit(j, hb)) continue;  // each {j, j^xmask} pair handled once
    const std::uint64_t j2 = j ^ xmask;
    const bool eq_j2 = eq_mask != 0 && (j2 & eq_mask) == eq_mask;
    const bool eq_j = eq_mask != 0 && (j & eq_mask) == eq_mask;
    const bool flip_j = eq_j2 ^ (parity64(j & zmask) != 0) ^ negate;
    const bool flip_j2 = eq_j ^ (parity64(j2 & zmask) != 0) ^ negate;
    const std::complex<R> t = x[j];
    x[j] = flip_j ? -x[j2] : x[j2];
    x[j2] = flip_j2 ? -t : t;
  }
}

template <class R>
void s_pauli_swap_range(std::complex<R>* x, std::uint64_t xmask,
                        std::uint64_t zmask, std::uint64_t eq_mask, bool negate,
                        std::uint64_t p_begin, std::uint64_t p_end) {
  // The full pass visits j ascending with bit hb clear — exactly
  // j = insert_zero_bit(p, hb) for pair rank p ascending.
  const int hb = 63 - std::countl_zero(xmask);
  for (std::uint64_t p = p_begin; p < p_end; ++p) {
    const std::uint64_t j = insert_zero_bit(p, hb);
    const std::uint64_t j2 = j ^ xmask;
    const bool eq_j2 = eq_mask != 0 && (j2 & eq_mask) == eq_mask;
    const bool eq_j = eq_mask != 0 && (j & eq_mask) == eq_mask;
    const bool flip_j = eq_j2 ^ (parity64(j & zmask) != 0) ^ negate;
    const bool flip_j2 = eq_j ^ (parity64(j2 & zmask) != 0) ^ negate;
    const std::complex<R> t = x[j];
    x[j] = flip_j ? -x[j2] : x[j2];
    x[j2] = flip_j2 ? -t : t;
  }
}

template <class R>
void s_phase_pass(std::complex<R>* x, std::uint64_t n, int q,
                  std::complex<R> e) {
  const std::uint64_t stride = std::uint64_t{1} << q;
  const std::uint64_t pairs = n / 2;
  for (std::uint64_t k = 0; k < pairs; ++k) {
    const std::uint64_t i1 = insert_zero_bit(k, q) | stride;
    x[i1] = cmul(e, x[i1]);
  }
}

template <class R>
constexpr CollapseKernelsT<R> kScalarTable = {
    SimdIsa::Scalar,
    s_fold_norms<R>,
    s_fold_norms_scaled<R>,
    s_prep_total_fold<R>,
    s_scale_fold<R>,
    s_pairs_fold<R>,
    s_pairs_write<R>,
    s_prep_fold<R>,
    s_prep_write<R>,
    s_teleport_fold<R>,
    s_teleport_write<R>,
    s_add_plus_cz<R>,
    s_sign_pass<R>,
    s_cz_masks_pass<R>,
    s_pauli_swap_pass<R>,
    s_phase_pass<R>,
    s_mirror_cz_range<R>,
    s_pauli_swap_range<R>,
};

}  // namespace

const CollapseKernels& scalar_kernels() noexcept {
  return kScalarTable<double>;
}

const CollapseKernelsF32& scalar_kernels_f32() noexcept {
  return kScalarTable<float>;
}

template <>
const CollapseKernelsT<double>& scalar_kernels_t<double>() noexcept {
  return kScalarTable<double>;
}

template <>
const CollapseKernelsT<float>& scalar_kernels_t<float>() noexcept {
  return kScalarTable<float>;
}

}  // namespace mbq
