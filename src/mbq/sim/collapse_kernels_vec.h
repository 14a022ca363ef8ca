#pragma once
// Shared vector implementation of the collapse kernels.
//
// Each ISA TU (collapse_kernels_{avx2,avx512,neon}.cpp) supplies a small
// Traits type — an element type R (double or float), W elements per
// register plus load/store/add/mul and two sign-bit xors, and
// optionally a Deinterleave permute (below) — and instantiates
// make_vec_table<Traits>.  Everything else (lane bookkeeping, effect
// products, delegation rules) lives here ONCE, so the flavors cannot
// drift apart.
//
// Bitwise identity with the scalar reference comes from two facts:
//  * elementwise ops (mul/add/xor per lane) are the same IEEE operations
//    the scalar kernel performs, in the same per-element order — complex
//    products use explicit mul+add (never FMA), negation is a sign-bit
//    xor (exact), and a−b is computed as a+(−b) (IEEE-identical);
//  * folds keep the canonical kFoldLanes<R> lane accumulators in vector
//    registers: a W-wide chunk at stream position m (m ≡ 0 mod W) adds
//    its squares to lanes m..m+W−1 mod L, which is exactly what the
//    scalar reference's running lanes receive.
// Shapes that would break lane alignment (sizes not a multiple of L/2
// amplitudes) delegate to the scalar table — same bits, just slower;
// real registers are powers of two so that never triggers past small
// dims.
//
// IN-REGISTER PAIRS.  When the measured wire's stride is narrower than
// the register (q < log2 of the complex lanes per register), both
// members of a pair sit in the same 2·W-element block.  The pair
// kernels (pairs_fold/pairs_write, teleport_fold/teleport_write) load
// the block as two registers and split it with the traits'
// Deinterleave(q) into its bit-q-clear and bit-q-set members, each in
// ascending pair-rank order; the arithmetic after the split is the
// wide-stride arithmetic unchanged, and the outputs stay contiguous in
// rank order, so the fold lanes do not move.  A flavor without
// Deinterleave (NEON today) keeps delegating these strides to scalar,
// as do the other narrow-stride kernels (phase_pass, pauli swaps with
// low xmask bits).  The teleports still delegate when a CZ partner
// sits below the measured wire (the mixer J chains never produce that
// shape).

#include <algorithm>
#include <bit>
#include <cstdint>
#include <type_traits>

#include "mbq/common/bits.h"
#include "mbq/sim/collapse_kernels.h"

namespace mbq::detail {

inline constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;

/// The unsigned integer carrying R's sign bit.
template <class R>
using UIntOf = std::conditional_t<sizeof(R) == 8, std::uint64_t, std::uint32_t>;

template <class R>
inline constexpr UIntOf<R> kSignBitU = UIntOf<R>{1} << (sizeof(R) * 8 - 1);

/// For a Deinterleave(q) built from a two-source permute: the element of
/// the register pair v0:v1 (elements 0..2W−1, v1 second) that lands in
/// element e of the bit-q-clear half (hi = false) or the bit-q-set half.
constexpr int split_source(int e, int q, bool hi) noexcept {
  const std::uint64_t amp = insert_zero_bit(std::uint64_t(e / 2), q) |
                            (hi ? std::uint64_t{1} << q : 0);
  return static_cast<int>(2 * amp) + (e & 1);
}

template <class T>
struct VecKernels {
  using R = typename T::R;            // element type (double or float)
  using C = std::complex<R>;
  using U = UIntOf<R>;
  static constexpr int kW = T::kW;    // elements per register
  static constexpr int kWc = kW / 2;  // complex amplitudes per register
  static constexpr int kL = kFoldLanes<R>;  // canonical fold lanes
  static constexpr int kQ = kL / 2;   // delegation quantum, in amplitudes
  using V = typename T::V;
  /// Whether the flavor can split in-register pairs (stride < kWc).
  static constexpr bool kSplits = requires { typename T::Deinterleave; };

  // std::complex<R> is array-layout-compatible with R[2].
  static const R* dp(const C* x) noexcept {
    return reinterpret_cast<const R*>(x);
  }
  static R* dp(C* x) noexcept { return reinterpret_cast<R*>(x); }

  static constexpr R sign_word(bool flip) noexcept {
    return std::bit_cast<R>(flip ? kSignBitU<R> : U{0});
  }

  /// The canonical kL-lane fold held in kL/W vector registers; add()
  /// consumes one W-wide chunk (stream position multiple of W, fed in
  /// ascending order from a position ≡ 0 mod kL).
  struct Acc {
    static constexpr int kNV = kL / kW;
    V v[kNV];
    int slot = 0;
    Acc() noexcept {
      for (int i = 0; i < kNV; ++i) v[i] = T::zero();
    }
    void add(V x) noexcept {
      v[slot] = T::add(v[slot], T::mul(x, x));
      slot = (slot + 1) & (kNV - 1);
    }
    R combine() const noexcept {
      alignas(64) R a[kL];
      for (int i = 0; i < kNV; ++i) T::store(a + i * kW, v[i]);
      return fold_combine<R>(a);
    }
  };

  /// Broadcast measurement effect; apply() performs per complex lane
  /// exactly the scalar eff_mul (Generic re uses a+(−b), IEEE-identical
  /// to the scalar a−b).
  struct Eff {
    EffKind k;
    V er, ei;
    explicit Eff(C e) noexcept
        : k(eff_kind(e)), er(T::set1(e.real())), ei(T::set1(e.imag())) {}
    /// apply() for a kind fixed at compile time (K must equal k).
    template <EffKind K>
    V apply_as(V u) const noexcept {
      if constexpr (K == EffKind::Real)
        return T::mul(u, er);
      else if constexpr (K == EffKind::Imag)
        return T::neg_even(T::mul(T::swap_pairs(u), ei));
      else
        return T::add(T::mul(u, er),
                      T::neg_even(T::mul(T::swap_pairs(u), ei)));
    }
    V apply(V u) const noexcept {
      switch (k) {
        case EffKind::Real:
          return apply_as<EffKind::Real>(u);
        case EffKind::Imag:
          return apply_as<EffKind::Imag>(u);
        default:
          return apply_as<EffKind::Generic>(u);
      }
    }
  };

  /// Per-chunk sign masks for (−1)^parity(i & pmask) over kWc
  /// consecutive amplitudes: the low pmask bits fix a pattern within the
  /// chunk, the high bits a per-chunk base parity selecting m[0] or m[1].
  struct PairSigns {
    V m[2];
    std::uint64_t pm_hi;
    explicit PairSigns(std::uint64_t pmask) noexcept {
      const std::uint64_t pm_lo = pmask & (std::uint64_t(kWc) - 1);
      pm_hi = pmask & ~(std::uint64_t(kWc) - 1);
      alignas(64) R b0[kW], b1[kW];
      for (int t = 0; t < kWc; ++t) {
        const bool bit = parity64(std::uint64_t(t) & pm_lo) != 0;
        b0[2 * t] = b0[2 * t + 1] = sign_word(bit);
        b1[2 * t] = b1[2 * t + 1] = sign_word(!bit);
      }
      m[0] = T::load(b0);
      m[1] = T::load(b1);
    }
    V at(std::uint64_t base) const noexcept {
      return m[parity64(base & pm_hi)];
    }
  };

  /// Calls body(k, u0, u1) for pair ranks k = k_begin, k_begin + kWc,
  /// ... < k_end (k_begin a multiple of kWc), where u0 / u1 hold the kWc
  /// amplitudes x[i0] / x[i0 | 1<<q], i0 = insert_zero_bit(k + t, q),
  /// t = 0..kWc−1.  A wide stride reads two contiguous runs; an
  /// in-register stride reads the 2·kWc-amplitude block at 2k and splits
  /// it.  Callers send in-register strides to scalar unless kSplits.
  template <class Body>
  static void for_pairs(const R* p, int q, std::uint64_t k_begin,
                        std::uint64_t k_end, Body&& body) {
    const std::uint64_t stride = std::uint64_t{1} << q;
    if (stride >= std::uint64_t(kWc)) {
      for (std::uint64_t k = k_begin; k < k_end; k += kWc) {
        const std::uint64_t i0 = insert_zero_bit(k, q);
        body(k, T::load(p + 2 * i0), T::load(p + 2 * (i0 | stride)));
      }
    } else if constexpr (kSplits) {
      const typename T::Deinterleave split(q);
      for (std::uint64_t k = k_begin; k < k_end; k += kWc) {
        V u0, u1;
        split(T::load(p + 4 * k), T::load(p + 4 * k + kW), u0, u1);
        body(k, u0, u1);
      }
    }
  }

  /// True when a pair kernel at stride 2^q must delegate to scalar.
  static bool narrow_unsplit(int q) noexcept {
    return !kSplits && (std::uint64_t{1} << q) < std::uint64_t(kWc);
  }

  /// The ± signs of a teleport's upper half, per lane of the kWc-rank
  /// step at r: a is negated when parity(i0 & pmask) is odd, b when that
  /// parity differs from bit q of pmask.  With pmask clear below q,
  /// i0(r + t) = i0(r) | insert_zero_bit(t, q) (disjoint bits), so the
  /// parity splits into a per-step base and a fixed in-step lane pattern
  /// — constant for wide strides, varying when a partner bit lands
  /// inside an in-register block.
  struct TeleportSigns {
    V a[2], b[2];
    std::uint64_t pmask;
    TeleportSigns(int q, std::uint64_t pm) noexcept : pmask(pm) {
      const bool pm_q = ((pm >> q) & 1) != 0;
      alignas(64) R ba[2][kW], bb[2][kW];
      for (int t = 0; t < kWc; ++t) {
        const bool lane =
            parity64(insert_zero_bit(std::uint64_t(t), q) & pm) != 0;
        for (int h = 0; h < 2; ++h) {
          ba[h][2 * t] = ba[h][2 * t + 1] = sign_word(lane ^ (h != 0));
          bb[h][2 * t] = bb[h][2 * t + 1] =
              sign_word(lane ^ (h != 0) ^ pm_q);
        }
      }
      for (int h = 0; h < 2; ++h) {
        a[h] = T::load(ba[h]);
        b[h] = T::load(bb[h]);
      }
    }
    /// Sign-flip (exact, like the scalar −a) of the step at i0 = i0(r).
    V upper(V av, V bv, std::uint64_t i0) const noexcept {
      const int h = parity64(i0 & pmask);
      return T::add(T::xor_signs(av, a[h]), T::xor_signs(bv, b[h]));
    }
  };

  /// How a projection sweep forms its outcomes — the mode parameter of
  /// the three sweep bodies below (see the projection entries in
  /// collapse_kernels.h):
  ///   Write  — the outcome with effects (e[0], e[1]), scaled by inv and
  ///            stored; the stored values are folded;
  ///   Fold   — both outcomes from their four effect products, folded;
  ///   Mirror, Swap — both outcomes folded from outcome 0's two products
  ///            (see EffPairing); Swap only for the gadget, whose two
  ///            products share one input.
  /// Write, Mirror and Swap take the effect kinds as template arguments
  /// (see with_kinds), so their loops branch on no kind; Fold keeps the
  /// per-vector dispatch.
  enum class Pass { Write, Fold, Mirror, Swap };

  /// Calls body.template operator()<P, K0, K1>() with the kinds of e[0]
  /// and e[1] as K0, K1 (unused by Fold).
  template <Pass P, class Body>
  static void with_kinds(const C* e, Body&& body) {
    if constexpr (P == Pass::Fold) {
      body.template operator()<P, EffKind::Generic, EffKind::Generic>();
    } else {
      auto second = [&]<EffKind K0>() {
        switch (eff_kind(e[1])) {
          case EffKind::Real:
            body.template operator()<P, K0, EffKind::Real>();
            return;
          case EffKind::Imag:
            body.template operator()<P, K0, EffKind::Imag>();
            return;
          default:
            body.template operator()<P, K0, EffKind::Generic>();
            return;
        }
      };
      switch (eff_kind(e[0])) {
        case EffKind::Real:
          second.template operator()<EffKind::Real>();
          return;
        case EffKind::Imag:
          second.template operator()<EffKind::Imag>();
          return;
        default:
          second.template operator()<EffKind::Generic>();
          return;
      }
    }
  }

  /// with_kinds for a fold pass over effects e[0..3]: Mirror or (when
  /// kSwap, the gadget) Swap if outcome 1's effects rearrange outcome
  /// 0's, else Fold.
  template <bool kSwap, class Body>
  static void fold_with(const C* e, Body&& body) {
    const EffPairing pairing = eff_pairing(e);
    if (pairing == EffPairing::Mirror) {
      with_kinds<Pass::Mirror>(e, body);
      return;
    }
    if constexpr (kSwap) {
      if (pairing == EffPairing::Swap) {
        with_kinds<Pass::Swap>(e, body);
        return;
      }
    }
    with_kinds<Pass::Fold>(e, body);
  }

  /// Stores v·inv (Write) and folds what the pass defines: the stored
  /// value, or (fold passes) v itself.
  template <Pass P>
  static void emit(R* o, V v, V inv, Acc& acc, bool fold = true) noexcept {
    if constexpr (P == Pass::Write) {
      v = T::mul(v, inv);
      T::store(o, v);
    }
    if (fold) acc.add(v);
  }

  static V negate(V v) noexcept { return T::xor_signs(v, T::set1(R(-0.0))); }

  /// The measure_remove sweep over pair ranks [0, pairs): acc[m] folds
  /// outcome m (fold passes) or the stored outcome (Write, acc[0]).
  template <Pass P, EffKind K0, EffKind K1>
  static void pairs_steps(const C* x, C* out, std::uint64_t pairs, int q,
                          const C* e, R inv, Acc* acc) {
    constexpr bool kFold = P == Pass::Fold;
    R* o = dp(out);
    const V iv = T::set1(inv);
    const Eff f0(e[0]), f1(e[1]);
    const Eff f2(e[kFold ? 2 : 0]), f3(e[kFold ? 3 : 1]);
    // Accumulate in locals (kept in registers; written back at the end).
    Acc a0 = acc[0], a1;
    if constexpr (P != Pass::Write) a1 = acc[1];
    for_pairs(dp(x), q, 0, pairs, [&](std::uint64_t k, V u0, V u1) {
      if constexpr (kFold) {
        a0.add(T::add(f0.apply(u0), f1.apply(u1)));
        a1.add(T::add(f2.apply(u0), f3.apply(u1)));
      } else {
        const V a = f0.template apply_as<K0>(u0);
        const V b = f1.template apply_as<K1>(u1);
        emit<P>(o + 2 * k, T::add(a, b), iv, a0);
        if constexpr (P == Pass::Mirror) a1.add(T::add(a, negate(b)));
      }
    });
    acc[0] = a0;
    if constexpr (P != Pass::Write) acc[1] = a1;
  }

  /// The gadget sweep over [i_begin, i_end): fold passes fold low = s·x
  /// into acc[0] and outcome m into acc[1 + m]; Write folds into acc[0].
  template <Pass P, EffKind K0, EffKind K1>
  static void prep_steps(const C* x, C* out, std::uint64_t i_begin,
                         std::uint64_t i_end, std::uint64_t pmask, const C* e,
                         R s, R inv, Acc* acc) {
    constexpr bool kFold = P == Pass::Fold;
    const R* p = dp(x);
    R* o = dp(out);
    const V sv = T::set1(s);
    const V iv = T::set1(inv);
    const Eff f0(e[0]), f1(e[1]);
    const Eff f2(e[kFold ? 2 : 0]), f3(e[kFold ? 3 : 1]);
    const PairSigns signs(pmask);
    Acc a0 = acc[0], a1, a2;
    if constexpr (P != Pass::Write) {
      a1 = acc[1];
      a2 = acc[2];
    }
    for (std::uint64_t i = i_begin; i < i_end; i += kWc) {
      const V low = T::mul(T::load(p + 2 * i), sv);
      const V sign = signs.at(i);
      if constexpr (P == Pass::Write) {
        const V up = T::xor_signs(low, sign);  // sign BEFORE effect
        emit<P>(o + 2 * i,
                T::add(f0.template apply_as<K0>(low),
                       f1.template apply_as<K1>(up)),
                iv, a0);
      } else if constexpr (kFold) {
        const V up = T::xor_signs(low, sign);
        a0.add(low);
        a1.add(T::add(f0.apply(low), f1.apply(up)));
        a2.add(T::add(f2.apply(low), f3.apply(up)));
      } else {
        // Both products of low; the up half's sign moves onto them.
        const V a = f0.template apply_as<K0>(low);
        const V b = f1.template apply_as<K1>(low);
        const V sb = T::xor_signs(b, sign);
        a0.add(low);
        a1.add(T::add(a, sb));
        if constexpr (P == Pass::Mirror)
          a2.add(T::add(a, negate(sb)));
        else
          a2.add(T::add(b, T::xor_signs(a, sign)));
      }
    }
    acc[0] = a0;
    if constexpr (P != Pass::Write) {
      acc[1] = a1;
      acc[2] = a2;
    }
  }

  /// The teleport sweep over pair ranks [r_begin, r_end), both
  /// multiples of kWc: lower out[r] = a + b and upper out[dim/2 + r] =
  /// ±a ± b with a, b the scaled effect products of each outcome the
  /// pass computes.  Only the halves whose accumulators (lo[m] / hi[m])
  /// are given are computed; the write pass folds what it stores unless
  /// fold_stored is false.
  template <Pass P, EffKind K0, EffKind K1>
  static void teleport_steps(const C* x, C* out, std::uint64_t dim, int q,
                             std::uint64_t pmask, const C* e, R s, R inv,
                             std::uint64_t r_begin, std::uint64_t r_end,
                             Acc* lo, Acc* hi, bool fold_stored = true) {
    constexpr bool kFold = P == Pass::Fold;
    constexpr int kM = P == Pass::Write ? 1 : 2;
    const std::uint64_t rest_count = dim / 2;
    R* o = dp(out);
    const V sv = T::set1(s);
    const V iv = T::set1(inv);
    const Eff f0(e[0]), f1(e[1]);
    const Eff f2(e[kFold ? 2 : 0]), f3(e[kFold ? 3 : 1]);
    const TeleportSigns signs(q, pmask);
    // Accumulate in locals (kept in registers; the caller's are written
    // back once at the end).
    const bool do_lo = lo != nullptr, do_hi = hi != nullptr;
    Acc l[kM], h[kM];
    for (int m = 0; m < kM; ++m) {
      if (do_lo) l[m] = lo[m];
      if (do_hi) h[m] = hi[m];
    }
    for_pairs(dp(x), q, r_begin, r_end, [&](std::uint64_t r, V u0, V u1) {
      const V x0 = T::mul(u0, sv);
      const V x1 = T::mul(u1, sv);
      const std::uint64_t i0 = insert_zero_bit(r, q);
      if constexpr (kFold) {
        const V a[2] = {f0.apply(x0), f2.apply(x0)};
        const V b[2] = {f1.apply(x1), f3.apply(x1)};
        for (int m = 0; m < kM; ++m) {
          if (do_lo) l[m].add(T::add(a[m], b[m]));
          if (do_hi) h[m].add(signs.upper(a[m], b[m], i0));
        }
      } else {
        const V a = f0.template apply_as<K0>(x0);
        const V b = f1.template apply_as<K1>(x1);
        if (do_lo) {
          emit<P>(o + 2 * r, T::add(a, b), iv, l[0], fold_stored);
          if constexpr (P == Pass::Mirror) l[1].add(T::add(a, negate(b)));
        }
        // Sign AFTER the product, as the scalar path always has.
        if (do_hi) {
          emit<P>(o + 2 * (rest_count + r), signs.upper(a, b, i0), iv, h[0],
                  fold_stored);
          if constexpr (P == Pass::Mirror)
            h[1].add(signs.upper(a, negate(b), i0));
        }
      }
    });
    for (int m = 0; m < kM; ++m) {
      if (do_lo) lo[m] = l[m];
      if (do_hi) hi[m] = h[m];
    }
  }

  /// True when a teleport slice must go to scalar.  A partner below the
  /// measured wire makes the ± signs vary inside a block — rare (mixer
  /// J chains never do it).  The folds restart (or, carried, wrap from
  /// the lower half into the upper) at the slice bounds, so the slice
  /// must sit on the delegation quantum, and the rank loop needs whole
  /// 2·max(stride, kWc) blocks.
  static bool teleport_delegates(std::uint64_t dim, int q,
                                 std::uint64_t pmask, std::uint64_t r_begin,
                                 std::uint64_t r_end) noexcept {
    const std::uint64_t stride = std::uint64_t{1} << q;
    return narrow_unsplit(q) || (pmask & (stride - 1)) != 0 ||
           dim % (2 * std::max(stride, std::uint64_t(kWc))) != 0 ||
           r_begin % kQ != 0 || (r_end - r_begin) % kQ != 0;
  }

  static R fold_norms(const C* x, std::uint64_t n) {
    if (n % kQ != 0) return scalar_kernels_t<R>().fold_norms(x, n);
    const R* p = dp(x);
    Acc acc;
    for (std::uint64_t m = 0; m < 2 * n; m += kW) acc.add(T::load(p + m));
    return acc.combine();
  }

  static R fold_norms_scaled(const C* x, std::uint64_t n, R s) {
    if (n % kQ != 0) return scalar_kernels_t<R>().fold_norms_scaled(x, n, s);
    const R* p = dp(x);
    const V sv = T::set1(s);
    Acc acc;
    for (std::uint64_t m = 0; m < 2 * n; m += kW)
      acc.add(T::mul(T::load(p + m), sv));
    return acc.combine();
  }

  static R prep_total_fold(const C* x, std::uint64_t n, R s) {
    if (n % kQ != 0) return scalar_kernels_t<R>().prep_total_fold(x, n, s);
    const R* p = dp(x);
    const V sv = T::set1(s);
    Acc acc;  // ONE carried accumulator set across both sweeps
    for (int sweep = 0; sweep < 2; ++sweep)
      for (std::uint64_t m = 0; m < 2 * n; m += kW)
        acc.add(T::mul(T::load(p + m), sv));
    return acc.combine();
  }

  static R scale_fold(C* x, std::uint64_t n, R inv) {
    if (n % kQ != 0) return scalar_kernels_t<R>().scale_fold(x, n, inv);
    R* p = dp(x);
    const V iv = T::set1(inv);
    Acc acc;
    for (std::uint64_t m = 0; m < 2 * n; m += kW) {
      const V v = T::mul(T::load(p + m), iv);
      T::store(p + m, v);
      acc.add(v);
    }
    return acc.combine();
  }

  static void pairs_fold(const C* x, std::uint64_t pairs, int q, const C* e,
                         R* folds) {
    if (pairs % kQ != 0 || narrow_unsplit(q)) {
      scalar_kernels_t<R>().pairs_fold(x, pairs, q, e, folds);
      return;
    }
    Acc acc[2];
    fold_with<false>(e, [&]<Pass P, EffKind K0, EffKind K1>() {
      pairs_steps<P, K0, K1>(x, nullptr, pairs, q, e, R(1), acc);
    });
    for (int m = 0; m < 2; ++m) folds[m] = acc[m].combine();
  }

  static R pairs_write(const C* x, C* out, std::uint64_t pairs, int q, C e0,
                       C e1, R inv) {
    if (pairs % kQ != 0 || narrow_unsplit(q))
      return scalar_kernels_t<R>().pairs_write(x, out, pairs, q, e0, e1, inv);
    const C e[2] = {e0, e1};
    Acc acc;
    with_kinds<Pass::Write>(e, [&]<Pass P, EffKind K0, EffKind K1>() {
      pairs_steps<P, K0, K1>(x, out, pairs, q, e, inv, &acc);
    });
    return acc.combine();
  }

  static void prep_fold(const C* x, std::uint64_t i_begin, std::uint64_t i_end,
                        std::uint64_t pmask, const C* e, R s, R* folds) {
    if (i_begin % kQ != 0 || (i_end - i_begin) % kQ != 0) {
      scalar_kernels_t<R>().prep_fold(x, i_begin, i_end, pmask, e, s, folds);
      return;
    }
    Acc acc[3];
    fold_with<true>(e, [&]<Pass P, EffKind K0, EffKind K1>() {
      prep_steps<P, K0, K1>(x, nullptr, i_begin, i_end, pmask, e, s, R(1),
                            acc);
    });
    for (int j = 0; j < 3; ++j) folds[j] = acc[j].combine();
  }

  static R prep_write(const C* x, C* out, std::uint64_t i_begin,
                      std::uint64_t i_end, std::uint64_t pmask, C e0, C e1,
                      R s, R inv) {
    if (i_begin % kQ != 0 || (i_end - i_begin) % kQ != 0)
      return scalar_kernels_t<R>().prep_write(x, out, i_begin, i_end, pmask,
                                              e0, e1, s, inv);
    const C e[2] = {e0, e1};
    Acc acc;
    with_kinds<Pass::Write>(e, [&]<Pass P, EffKind K0, EffKind K1>() {
      prep_steps<P, K0, K1>(x, out, i_begin, i_end, pmask, e, s, inv, &acc);
    });
    return acc.combine();
  }

  static void teleport_fold(const C* x, std::uint64_t dim, int q,
                            std::uint64_t pmask, const C* e, R s,
                            std::uint64_t r_begin, std::uint64_t r_end,
                            bool carry, R* folds) {
    if (teleport_delegates(dim, q, pmask, r_begin, r_end)) {
      scalar_kernels_t<R>().teleport_fold(x, dim, q, pmask, e, s, r_begin,
                                          r_end, carry, folds);
      return;
    }
    Acc lo[2], hi[2];
    fold_with<false>(e, [&]<Pass P, EffKind K0, EffKind K1>() {
      if (carry) {  // lower half first, the upper half continuing its lanes
        teleport_steps<P, K0, K1>(x, nullptr, dim, q, pmask, e, s, R(1),
                                  r_begin, r_end, lo, nullptr);
        teleport_steps<P, K0, K1>(x, nullptr, dim, q, pmask, e, s, R(1),
                                  r_begin, r_end, nullptr, lo);
      } else {
        teleport_steps<P, K0, K1>(x, nullptr, dim, q, pmask, e, s, R(1),
                                  r_begin, r_end, lo, hi);
      }
    });
    for (int m = 0; m < 2; ++m) {
      folds[2 * m] = lo[m].combine();
      folds[2 * m + 1] = carry ? R(0) : hi[m].combine();
    }
  }

  static void teleport_write(const C* x, C* out, std::uint64_t dim, int q,
                             std::uint64_t pmask, C e0, C e1, R s, R inv,
                             std::uint64_t r_begin, std::uint64_t r_end,
                             R* folds) {
    if (teleport_delegates(dim, q, pmask, r_begin, r_end)) {
      scalar_kernels_t<R>().teleport_write(x, out, dim, q, pmask, e0, e1, s,
                                           inv, r_begin, r_end, folds);
      return;
    }
    const C e[2] = {e0, e1};
    Acc lo, hi;
    with_kinds<Pass::Write>(e, [&]<Pass P, EffKind K0, EffKind K1>() {
      teleport_steps<P, K0, K1>(x, out, dim, q, pmask, e, s, inv, r_begin,
                                r_end, &lo, &hi, folds != nullptr);
    });
    if (folds == nullptr) return;
    folds[0] = lo.combine();
    folds[1] = hi.combine();
  }

  static R add_plus_cz(C* x, std::uint64_t old_dim, std::uint64_t pmask,
                       R s) {
    if (old_dim % kQ != 0)
      return scalar_kernels_t<R>().add_plus_cz(x, old_dim, pmask, s);
    R* p = dp(x);
    const V sv = T::set1(s);
    const PairSigns signs(pmask);
    Acc acc;  // carried across both halves, ascending
    for (std::uint64_t i = 0; i < old_dim; i += kWc) {
      const V v = T::mul(T::load(p + 2 * i), sv);
      T::store(p + 2 * i, v);
      acc.add(v);
    }
    for (std::uint64_t i = 0; i < old_dim; i += kWc) {
      const V v = T::xor_signs(T::load(p + 2 * i), signs.at(i));
      T::store(p + 2 * (old_dim + i), v);
      acc.add(v);
    }
    return acc.combine();
  }

  static R mirror_cz_range(C* x, std::uint64_t old_dim, std::uint64_t i_begin,
                           std::uint64_t i_end, std::uint64_t pmask) {
    if (i_begin % kQ != 0 || (i_end - i_begin) % kQ != 0)
      return scalar_kernels_t<R>().mirror_cz_range(x, old_dim, i_begin, i_end,
                                                   pmask);
    R* p = dp(x);
    const PairSigns signs(pmask);
    Acc acc;  // fresh lanes, restarting at i_begin (the slice contract)
    for (std::uint64_t i = i_begin; i < i_end; i += kWc) {
      const V v = T::xor_signs(T::load(p + 2 * i), signs.at(i));
      T::store(p + 2 * (old_dim + i), v);
      acc.add(v);
    }
    return acc.combine();
  }

  static void sign_pass(C* x, std::uint64_t n, std::uint64_t eq_mask,
                        std::uint64_t par_mask, bool negate) {
    if (n % kQ != 0) {
      scalar_kernels_t<R>().sign_pass(x, n, eq_mask, par_mask, negate);
      return;
    }
    R* p = dp(x);
    alignas(64) R mb[kW];
    for (std::uint64_t base = 0; base < n; base += kWc) {
      for (int t = 0; t < kWc; ++t) {
        const std::uint64_t j = base + std::uint64_t(t);
        const bool eq = eq_mask != 0 && (j & eq_mask) == eq_mask;
        const bool flip = eq ^ (parity64(j & par_mask) != 0) ^ negate;
        mb[2 * t] = mb[2 * t + 1] = sign_word(flip);
      }
      T::store(p + 2 * base,
               T::xor_signs(T::load(p + 2 * base), T::load(mb)));
    }
  }

  static void cz_masks_pass(C* x, std::uint64_t n,
                            const std::uint64_t* pair_masks, int count) {
    if (n % kQ != 0) {
      scalar_kernels_t<R>().cz_masks_pass(x, n, pair_masks, count);
      return;
    }
    R* p = dp(x);
    alignas(64) R mb[kW];
    for (std::uint64_t base = 0; base < n; base += kWc) {
      for (int t = 0; t < kWc; ++t) {
        const std::uint64_t i = base + std::uint64_t(t);
        int flips = 0;
        for (int m = 0; m < count; ++m)
          flips ^= static_cast<int>((i & pair_masks[m]) == pair_masks[m]);
        mb[2 * t] = mb[2 * t + 1] = sign_word(flips != 0);
      }
      T::store(p + 2 * base,
               T::xor_signs(T::load(p + 2 * base), T::load(mb)));
    }
  }

  static void pauli_swap_pass(C* x, std::uint64_t n, std::uint64_t xmask,
                              std::uint64_t zmask, std::uint64_t eq_mask,
                              bool negate) {
    // xmask touching the intra-chunk bits would pair lanes within one
    // register; scalar handles that shape.
    if (n % kQ != 0 || (xmask & (std::uint64_t(kWc) - 1)) != 0) {
      scalar_kernels_t<R>().pauli_swap_pass(x, n, xmask, zmask, eq_mask,
                                            negate);
      return;
    }
    const int hb = 63 - std::countl_zero(xmask);
    R* p = dp(x);
    alignas(64) R mj[kW], mj2[kW];
    for (std::uint64_t base = 0; base < n; base += kWc) {
      if (get_bit(base, hb)) continue;  // pairs handled once (chunk-uniform)
      const std::uint64_t base2 = base ^ xmask;
      for (int t = 0; t < kWc; ++t) {
        const std::uint64_t j = base + std::uint64_t(t);
        const std::uint64_t j2 = base2 + std::uint64_t(t);
        const bool eq_j2 = eq_mask != 0 && (j2 & eq_mask) == eq_mask;
        const bool eq_j = eq_mask != 0 && (j & eq_mask) == eq_mask;
        const bool flip_j = eq_j2 ^ (parity64(j & zmask) != 0) ^ negate;
        const bool flip_j2 = eq_j ^ (parity64(j2 & zmask) != 0) ^ negate;
        mj[2 * t] = mj[2 * t + 1] = sign_word(flip_j);
        mj2[2 * t] = mj2[2 * t + 1] = sign_word(flip_j2);
      }
      const V vj = T::load(p + 2 * base);
      const V vj2 = T::load(p + 2 * base2);
      T::store(p + 2 * base, T::xor_signs(vj2, T::load(mj)));
      T::store(p + 2 * base2, T::xor_signs(vj, T::load(mj2)));
    }
  }

  static void pauli_swap_range(C* x, std::uint64_t xmask, std::uint64_t zmask,
                               std::uint64_t eq_mask, bool negate,
                               std::uint64_t p_begin, std::uint64_t p_end) {
    // Pair rank p maps to j = insert_zero_bit(p, hb); a kWc-wide step
    // stays contiguous because xmask (hence hb) clears the intra-chunk
    // bits.  No folds here, but the same alignment rules apply.
    if ((xmask & (std::uint64_t(kWc) - 1)) != 0 || p_begin % kWc != 0 ||
        (p_end - p_begin) % kWc != 0) {
      scalar_kernels_t<R>().pauli_swap_range(x, xmask, zmask, eq_mask, negate,
                                             p_begin, p_end);
      return;
    }
    const int hb = 63 - std::countl_zero(xmask);
    R* p = dp(x);
    alignas(64) R mj[kW], mj2[kW];
    for (std::uint64_t pr = p_begin; pr < p_end; pr += kWc) {
      const std::uint64_t base = insert_zero_bit(pr, hb);
      const std::uint64_t base2 = base ^ xmask;
      for (int t = 0; t < kWc; ++t) {
        const std::uint64_t j = base + std::uint64_t(t);
        const std::uint64_t j2 = base2 + std::uint64_t(t);
        const bool eq_j2 = eq_mask != 0 && (j2 & eq_mask) == eq_mask;
        const bool eq_j = eq_mask != 0 && (j & eq_mask) == eq_mask;
        const bool flip_j = eq_j2 ^ (parity64(j & zmask) != 0) ^ negate;
        const bool flip_j2 = eq_j ^ (parity64(j2 & zmask) != 0) ^ negate;
        mj[2 * t] = mj[2 * t + 1] = sign_word(flip_j);
        mj2[2 * t] = mj2[2 * t + 1] = sign_word(flip_j2);
      }
      const V vj = T::load(p + 2 * base);
      const V vj2 = T::load(p + 2 * base2);
      T::store(p + 2 * base, T::xor_signs(vj2, T::load(mj)));
      T::store(p + 2 * base2, T::xor_signs(vj, T::load(mj2)));
    }
  }

  static void phase_pass(C* x, std::uint64_t n, int q, C e) {
    const std::uint64_t stride = std::uint64_t{1} << q;
    if (n % kQ != 0 || stride < std::uint64_t(kWc)) {
      scalar_kernels_t<R>().phase_pass(x, n, q, e);
      return;
    }
    R* p = dp(x);
    // Always the full product: the scalar phase kernel uses cmul
    // unconditionally, and only the Generic form matches it bitwise
    // including zero signs.
    const V er = T::set1(e.real());
    const V ei = T::set1(e.imag());
    const std::uint64_t pairs = n / 2;
    for (std::uint64_t k = 0; k < pairs; k += kWc) {
      const std::uint64_t i1 = insert_zero_bit(k, q) | stride;
      const V u = T::load(p + 2 * i1);
      const V r = T::add(T::mul(u, er),
                         T::neg_even(T::mul(T::swap_pairs(u), ei)));
      T::store(p + 2 * i1, r);
    }
  }
};

template <class T>
const CollapseKernelsT<typename T::R>* make_vec_table(SimdIsa isa) noexcept {
  using K = VecKernels<T>;
  static const CollapseKernelsT<typename T::R> table = {
      isa,
      K::fold_norms,
      K::fold_norms_scaled,
      K::prep_total_fold,
      K::scale_fold,
      K::pairs_fold,
      K::pairs_write,
      K::prep_fold,
      K::prep_write,
      K::teleport_fold,
      K::teleport_write,
      K::add_plus_cz,
      K::sign_pass,
      K::cz_masks_pass,
      K::pauli_swap_pass,
      K::phase_pass,
      K::mirror_cz_range,
      K::pauli_swap_range,
  };
  return &table;
}

}  // namespace mbq::detail
