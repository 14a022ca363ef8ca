// Kernel dispatch: resolve the active flavor once per process (and per
// element type), guarded by a bit-identity self-check battery against
// the scalar reference.
//
// Resolution order: an MBQ_SIMD override is honored strictly (missing
// flavor or failed self-check THROWS — a forced flavor must never
// silently degrade); auto mode walks best-first (avx512 > avx2 > neon)
// and falls back past anything that is not compiled in, not executable
// here, or fails its self-check, bottoming out at scalar.  The f64 and
// f32 tables dispatch independently (each runs its own battery) but
// share the override and the ladder.

#include "mbq/sim/collapse_kernels.h"

#include <atomic>
#include <bit>
#include <cstring>
#include <span>
#include <type_traits>

#include "mbq/common/error.h"
#include "mbq/sim/collapse_threaded.h"

namespace mbq {

namespace {

// ---- deterministic self-check battery --------------------------------

/// splitmix64: tiny, deterministic, no state shared with mbq::Rng.
std::uint64_t mix64(std::uint64_t& s) noexcept {
  std::uint64_t z = (s += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

template <class R>
R rand_unit(std::uint64_t& s) noexcept {
  // [-1, 1) with full mantissa churn; exact-zero components appear via
  // the effect products, not the inputs.  The f32 values are the f64
  // draws rounded once — still deterministic.
  return static_cast<R>(static_cast<double>(mix64(s) >> 11) * 0x1.0p-52 - 1.0);
}

template <class R>
void fill(std::vector<std::complex<R>>& buf, std::size_t n,
          std::uint64_t seed) {
  buf.resize(n);
  for (auto& v : buf) v = {rand_unit<R>(seed), rand_unit<R>(seed)};
}

template <class R>
bool same(R a, R b) noexcept {
  using U = std::conditional_t<sizeof(R) == 8, std::uint64_t, std::uint32_t>;
  return std::bit_cast<U>(a) == std::bit_cast<U>(b);
}

template <class R>
bool same(const std::vector<std::complex<R>>& a,
          const std::vector<std::complex<R>>& b) noexcept {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(std::complex<R>)) ==
             0;
}

/// Every kernel entry, against scalar, bit-for-bit, across sizes that
/// exercise both the vector main loops and the delegation shapes.
template <class R>
bool run_battery(const CollapseKernelsT<R>& k) {
  using C = std::complex<R>;
  const CollapseKernelsT<R>& ref = scalar_kernels_t<R>();
  const C effs[] = {{R(0.7071067811865476), R(0.0)},  // Real
                    {R(0.0), R(0.3141592653589793)},  // Imag
                    {R(0.6), R(-0.8)}};               // Generic
  const R kInvSqrt2 = R(0.7071067811865476);
  std::vector<C> x, y, ox, oy;

  const std::size_t sizes[] = {1, 2, 3, 4, 8, 12, 32, 64, 256};
  for (std::size_t n : sizes) {
    fill(x, n, 0xC0FFEE ^ n);
    y = x;
    if (!same(ref.fold_norms(x.data(), n), k.fold_norms(x.data(), n)))
      return false;
    if (!same(ref.fold_norms_scaled(x.data(), n, R(0.25)),
              k.fold_norms_scaled(x.data(), n, R(0.25))))
      return false;
    if (!same(ref.prep_total_fold(x.data(), n, kInvSqrt2),
              k.prep_total_fold(x.data(), n, kInvSqrt2)))
      return false;
    const R fa = ref.scale_fold(x.data(), n, R(1.3));
    const R fb = k.scale_fold(y.data(), n, R(1.3));
    if (!same(fa, fb) || !same(x, y)) return false;
  }

  // The projection shapes: the fold pass (both outcomes) and the write
  // pass, with the effect kinds paired every way.  Outcome 1's effects
  // come in the arrangements the vector fold passes distinguish:
  // (e0, −e1) — Mirror —, (−e1, e0), which is neither, and for the
  // gadget (e1, e0) — Swap.  The write pass's inv is a plain constant;
  // the kernels never look at its value.
  const std::size_t dim = 256;
  const R inv = R(1.7);
  struct Slice {
    std::uint64_t begin, end;
    bool carry;
  };
  const Slice slices[] = {{0, 128, true}, {0, 32, false}, {64, 128, false}};
  for (const C& e0 : effs) {
    for (const C& e1 : effs) {
      const C arrangements[3][4] = {
          {e0, e1, e0, -e1}, {e0, e1, -e1, e0}, {e0, e1, e1, e0}};
      const auto pair_arrangements = std::span(arrangements).first(2);
      for (int q : {0, 1, 2, 3, 5}) {
        fill(x, dim, 0xABCD ^ static_cast<std::uint64_t>(q));
        for (const auto& e : pair_arrangements) {
          R fa[2], fb[2];
          ref.pairs_fold(x.data(), dim / 2, q, e, fa);
          k.pairs_fold(x.data(), dim / 2, q, e, fb);
          if (!same(fa[0], fb[0]) || !same(fa[1], fb[1])) return false;
        }
        ox.assign(dim / 2, C{});
        oy.assign(dim / 2, C{});
        if (!same(ref.pairs_write(x.data(), ox.data(), dim / 2, q, e0, e1, inv),
                  k.pairs_write(x.data(), oy.data(), dim / 2, q, e0, e1, inv)) ||
            !same(ox, oy))
          return false;
      }
      for (std::uint64_t pmask : {0x0ULL, 0x1ULL, 0xAULL, 0x2BULL, 0xF0ULL}) {
        fill(x, dim, 0x5EED ^ pmask);
        R fa[4], fb[4];
        for (const auto& e : arrangements) {
          ref.prep_fold(x.data(), 0, dim, pmask, e, kInvSqrt2, fa);
          k.prep_fold(x.data(), 0, dim, pmask, e, kInvSqrt2, fb);
          for (int j = 0; j < 3; ++j)
            if (!same(fa[j], fb[j])) return false;
        }
        ox.assign(dim, C{});
        oy.assign(dim, C{});
        if (!same(ref.prep_write(x.data(), ox.data(), 0, dim, pmask, e0, e1,
                                 kInvSqrt2, inv),
                  k.prep_write(x.data(), oy.data(), 0, dim, pmask, e0, e1,
                               kInvSqrt2, inv)) ||
            !same(ox, oy))
          return false;
        // An index slice reads its signs off the global index.
        for (const auto& e : arrangements) {
          ref.prep_fold(x.data(), 64, 192, pmask, e, kInvSqrt2, fa);
          k.prep_fold(x.data(), 64, 192, pmask, e, kInvSqrt2, fb);
          for (int j = 0; j < 3; ++j)
            if (!same(fa[j], fb[j])) return false;
        }
        if (!same(ref.prep_write(x.data(), ox.data(), 64, 192, pmask, e0, e1,
                                 kInvSqrt2, inv),
                  k.prep_write(x.data(), oy.data(), 64, 192, pmask, e0, e1,
                               kInvSqrt2, inv)) ||
            !same(ox, oy))
          return false;
        // Teleports over the whole range (the fold pass with carried
        // lanes) and over rank slices with fresh lanes per half: outputs
        // and every fold must agree with scalar's bit-for-bit.  (A CZ
        // partner below the measured wire sends every flavor to scalar,
        // so those masks are skipped.)
        for (int q : {0, 1, 2, 6}) {
          if ((pmask & ((std::uint64_t{1} << q) - 1)) != 0) continue;
          for (const Slice& sl : slices) {
            for (const auto& e : pair_arrangements) {
              ref.teleport_fold(x.data(), dim, q, pmask, e, kInvSqrt2,
                                sl.begin, sl.end, sl.carry, fa);
              k.teleport_fold(x.data(), dim, q, pmask, e, kInvSqrt2, sl.begin,
                              sl.end, sl.carry, fb);
              for (int j = 0; j < 4; ++j)
                if (!same(fa[j], fb[j])) return false;
            }
            ox.assign(dim, C{});
            oy.assign(dim, C{});
            // The whole range writes without folding, as the unchunked
            // driver does.
            ref.teleport_write(x.data(), ox.data(), dim, q, pmask, e0, e1,
                               kInvSqrt2, inv, sl.begin, sl.end,
                               sl.carry ? nullptr : fa);
            k.teleport_write(x.data(), oy.data(), dim, q, pmask, e0, e1,
                             kInvSqrt2, inv, sl.begin, sl.end,
                             sl.carry ? nullptr : fb);
            if (!same(ox, oy) ||
                (!sl.carry && (!same(fa[0], fb[0]) || !same(fa[1], fb[1]))))
              return false;
          }
        }
      }
    }
  }

  for (std::uint64_t pmask : {0x0ULL, 0x3ULL, 0x15ULL, 0x81ULL}) {
    fill(x, 2 * dim, 0xADD ^ pmask);
    y = x;
    const R fa = ref.add_plus_cz(x.data(), dim, pmask, R(0.5));
    const R fb = k.add_plus_cz(y.data(), dim, pmask, R(0.5));
    if (!same(fa, fb) || !same(x, y)) return false;
    // Ranged mirror over the already-scaled lower half.
    for (const auto& rr : {std::pair<std::uint64_t, std::uint64_t>{0, 64},
                           std::pair<std::uint64_t, std::uint64_t>{64, 256}}) {
      const R ma = ref.mirror_cz_range(x.data(), dim, rr.first, rr.second,
                                       pmask);
      const R mb = k.mirror_cz_range(y.data(), dim, rr.first, rr.second,
                                     pmask);
      if (!same(ma, mb) || !same(x, y)) return false;
    }
  }

  for (std::uint64_t eq : {0x0ULL, 0x6ULL, 0x90ULL}) {
    for (std::uint64_t par : {0x0ULL, 0x5ULL, 0xC3ULL}) {
      for (bool neg : {false, true}) {
        fill(x, dim, eq * 131 + par * 7 + (neg ? 1 : 0));
        y = x;
        ref.sign_pass(x.data(), dim, eq, par, neg);
        k.sign_pass(y.data(), dim, eq, par, neg);
        if (!same(x, y)) return false;
        for (std::uint64_t xm : {0x1ULL, 0x8ULL, 0x22ULL, 0x88ULL}) {
          fill(x, dim, eq * 13 + par * 101 + xm);
          y = x;
          ref.pauli_swap_pass(x.data(), dim, xm, par, eq, neg);
          k.pauli_swap_pass(y.data(), dim, xm, par, eq, neg);
          if (!same(x, y)) return false;
          // Ranged pauli swap over a rank sub-interval.
          fill(x, dim, eq * 17 + par * 29 + xm);
          y = x;
          ref.pauli_swap_range(x.data(), xm, par, eq, neg, 16, 96);
          k.pauli_swap_range(y.data(), xm, par, eq, neg, 16, 96);
          if (!same(x, y)) return false;
        }
      }
    }
  }

  const std::uint64_t masks[] = {0x3, 0x18, 0x41, 0x6};
  for (int count : {1, 2, 4}) {
    fill(x, dim, 0xC2 ^ static_cast<std::uint64_t>(count));
    y = x;
    ref.cz_masks_pass(x.data(), dim, masks, count);
    k.cz_masks_pass(y.data(), dim, masks, count);
    if (!same(x, y)) return false;
  }

  for (int q : {0, 1, 3, 6}) {
    fill(x, dim, 0x9FA5E ^ static_cast<std::uint64_t>(q));
    y = x;
    const C e{R(0.984807753012208), R(0.17364817766693033)};
    ref.phase_pass(x.data(), dim, q, e);
    k.phase_pass(y.data(), dim, q, e);
    if (!same(x, y)) return false;
  }

  return true;
}

/// The chunk drivers at and above the cutoff, across thread counts:
/// driver(k, t) must equal driver(scalar, 1) bit-for-bit for every
/// t — this is where a divergent flavor×thread combination is
/// rejected.  Representative shapes: both stride regimes, mixed
/// high/low masks, the measurement fold and write drivers.
template <class R>
bool run_driver_battery(const CollapseKernelsT<R>& k) {
  using C = std::complex<R>;
  const CollapseKernelsT<R>& ref = scalar_kernels_t<R>();
  const std::uint64_t dim = thr::kChunkCutoffDim;  // 2^14: two chunks
  const R s = R(0.7071067811865476);
  const C e0{R(0.6), R(-0.8)};
  const C e1{R(0.0), R(0.3141592653589793)};
  std::vector<C> x, y, ox, oy;
  const int threads[] = {1, 2, 8};

  fill(x, 2 * dim, 0xD1CE5);
  for (int t : threads) {
    if (!same(thr::fold_norms(ref, x.data(), dim, 1),
              thr::fold_norms(k, x.data(), dim, t)))
      return false;
    if (!same(thr::prep_total_fold(ref, x.data(), dim, s, 1),
              thr::prep_total_fold(k, x.data(), dim, s, t)))
      return false;
  }

  // Measurement drivers: the fold pass with its Born total and the
  // write pass, at an in-register stride, stride < C, == C and > C.
  const C e[4] = {e1, e0, e0, e1};
  const R inv = R(1.3);
  auto same_born = [](const thr::BornFolds<R>& a, const thr::BornFolds<R>& b) {
    return same(a.total, b.total) && same(a.proj[0], b.proj[0]) &&
           same(a.proj[1], b.proj[1]);
  };
  for (int q : {0, 2, 13, 14}) {
    fill(x, 2 * dim, 0xFACE ^ static_cast<std::uint64_t>(q));
    const auto fa = thr::pairs_fold(ref, x.data(), dim, q, e, true, 1);
    ox.assign(dim, C{});
    const R wa = thr::pairs_write(ref, x.data(), ox.data(), dim, q, e0, e1,
                                  inv, 1);
    for (int t : threads) {
      if (!same_born(fa, thr::pairs_fold(k, x.data(), dim, q, e, true, t)))
        return false;
      oy.assign(dim, C{});
      if (!same(wa, thr::pairs_write(k, x.data(), oy.data(), dim, q, e0, e1,
                                     inv, t)) ||
          !same(ox, oy))
        return false;
    }
  }

  const std::uint64_t pmask = 0x2BULL | (0x5ULL << 12);  // low and high bits
  fill(x, dim, 0xBEEF);
  const auto pa = thr::prep_fold(ref, x.data(), dim, pmask, e, s, true, 1);
  ox.assign(dim, C{});
  const R ja =
      thr::prep_write(ref, x.data(), ox.data(), dim, pmask, e0, e1, s, inv, 1);
  for (int t : threads) {
    if (!same_born(pa, thr::prep_fold(k, x.data(), dim, pmask, e, s, true, t)))
      return false;
    oy.assign(dim, C{});
    if (!same(ja, thr::prep_write(k, x.data(), oy.data(), dim, pmask, e0, e1,
                                  s, inv, t)) ||
        !same(ox, oy))
      return false;
  }

  for (int q : {0, 2, 13}) {  // in-register pairs and wide strides
    const std::uint64_t tp = pmask & ~((1ULL << (q + 1)) - 1);
    fill(x, dim, 0x7E1E ^ static_cast<std::uint64_t>(q));
    const auto fa = thr::teleport_fold(ref, x.data(), dim, q, tp, e, s, true, 1);
    ox.assign(dim, C{});
    const R wa = thr::teleport_write(ref, x.data(), ox.data(), dim, q, tp, e0,
                                     e1, s, inv, 1);
    for (int t : threads) {
      if (!same_born(fa,
                     thr::teleport_fold(k, x.data(), dim, q, tp, e, s, true, t)))
        return false;
      oy.assign(dim, C{});
      if (!same(wa, thr::teleport_write(k, x.data(), oy.data(), dim, q, tp, e0,
                                        e1, s, inv, t)) ||
          !same(ox, oy))
        return false;
    }
  }

  for (std::uint64_t half : {dim / 2, dim}) {
    fill(x, 2 * half, 0xADD2);
    y = x;
    const R fa = thr::add_plus_cz(ref, x.data(), half, pmask, s, 1);
    for (int t : threads) {
      y.assign(x.size(), C{});
      fill(y, 2 * half, 0xADD2);
      const R fb = thr::add_plus_cz(k, y.data(), half, pmask, s, t);
      if (!same(fa, fb) || !same(x, y)) return false;
    }
  }

  const std::uint64_t eqm = (1ULL << 13) | 0x6;
  const std::uint64_t parm = (1ULL << 12) | 0x5;
  fill(x, dim, 0x51C);
  y = x;
  thr::sign_pass(ref, x.data(), dim, eqm, parm, false, 1);
  for (int t : threads) {
    fill(y, dim, 0x51C);
    thr::sign_pass(k, y.data(), dim, eqm, parm, false, t);
    if (!same(x, y)) return false;
  }

  const std::uint64_t czm[] = {0x3, (1ULL << 13) | 0x18, 1ULL << 12, 0x41};
  fill(x, dim, 0xC20);
  thr::cz_masks_pass(ref, x.data(), dim, czm, 4, 1);
  for (int t : threads) {
    fill(y, dim, 0xC20);
    thr::cz_masks_pass(k, y.data(), dim, czm, 4, t);
    if (!same(x, y)) return false;
  }

  for (std::uint64_t xm : {0x22ULL, 1ULL << 13}) {
    fill(x, dim, 0x9A11 ^ xm);
    thr::pauli_swap_pass(ref, x.data(), dim, xm, parm, eqm, true, 1);
    for (int t : threads) {
      fill(y, dim, 0x9A11 ^ xm);
      thr::pauli_swap_pass(k, y.data(), dim, xm, parm, eqm, true, t);
      if (!same(x, y)) return false;
    }
  }

  for (int q : {2, 13}) {
    const C e{R(0.984807753012208), R(0.17364817766693033)};
    fill(x, dim, 0xFA5E ^ static_cast<std::uint64_t>(q));
    thr::phase_pass(ref, x.data(), dim, q, e, 1);
    for (int t : threads) {
      fill(y, dim, 0xFA5E ^ static_cast<std::uint64_t>(q));
      thr::phase_pass(k, y.data(), dim, q, e, t);
      if (!same(x, y)) return false;
    }
  }

  return true;
}

// ---- dispatch --------------------------------------------------------

std::atomic<const CollapseKernels*> g_active{nullptr};
std::atomic<const CollapseKernelsF32*> g_active_f32{nullptr};

/// The battery's verdict on a built-in table: it runs in full the first
/// time each flavor is dispatched per element type, and later dispatches
/// (every force_simd_isa) reuse the verdict.  Unknown = 0, pass = 1,
/// fail = 2; concurrent first calls may both run the battery and store
/// the same verdict.
template <class R>
bool verified(const CollapseKernelsT<R>& k) {
  static std::atomic<int> verdicts[4] = {};
  std::atomic<int>& v = verdicts[static_cast<int>(k.isa)];
  int got = v.load(std::memory_order_acquire);
  if (got == 0) {
    bool ok;
    if constexpr (std::is_same_v<R, double>)
      ok = verify_kernels(k);
    else
      ok = verify_kernels_f32(k);
    got = ok ? 1 : 2;
    v.store(got, std::memory_order_release);
  }
  return got == 1;
}

/// Strict resolution for a NAMED flavor: must exist here and must pass
/// the battery, else throw — "rejected at dispatch time".
const CollapseKernels* resolve_forced(SimdIsa isa) {
  const CollapseKernels* k = kernels_for_isa(isa);
  MBQ_REQUIRE(k != nullptr,
              "SIMD flavor '" << isa_name(isa)
                              << "' is not available (not compiled into this "
                                 "build or not supported by this CPU)");
  MBQ_REQUIRE(isa == SimdIsa::Scalar || verified(*k),
              "SIMD flavor '" << isa_name(isa)
                              << "' failed the bit-identity self-check "
                                 "against the scalar reference; rejected at "
                                 "dispatch time");
  return k;
}

const CollapseKernelsF32* resolve_forced_f32(SimdIsa isa) {
  const CollapseKernelsF32* k = kernels_for_isa_f32(isa);
  MBQ_REQUIRE(k != nullptr,
              "SIMD flavor '" << isa_name(isa)
                              << "' is not available for f32 (not compiled "
                                 "into this build or not supported by this "
                                 "CPU)");
  MBQ_REQUIRE(isa == SimdIsa::Scalar || verified(*k),
              "SIMD flavor '" << isa_name(isa)
                              << "' failed the f32 bit-identity self-check "
                                 "against the scalar reference; rejected at "
                                 "dispatch time");
  return k;
}

const CollapseKernels* resolve() {
  if (const auto forced = simd_env_override()) return resolve_forced(*forced);
  for (const SimdIsa isa : {SimdIsa::Avx512, SimdIsa::Avx2, SimdIsa::Neon}) {
    const CollapseKernels* k = kernels_for_isa(isa);
    if (k != nullptr && verified(*k)) return k;
  }
  return &scalar_kernels();
}

const CollapseKernelsF32* resolve_f32() {
  if (const auto forced = simd_env_override())
    return resolve_forced_f32(*forced);
  for (const SimdIsa isa : {SimdIsa::Avx512, SimdIsa::Avx2, SimdIsa::Neon}) {
    const CollapseKernelsF32* k = kernels_for_isa_f32(isa);
    if (k != nullptr && verified(*k)) return k;
  }
  return &scalar_kernels_f32();
}

}  // namespace

bool verify_kernels(const CollapseKernels& k) {
  return run_battery(k) && run_driver_battery(k);
}

bool verify_kernels_f32(const CollapseKernelsF32& k) {
  return run_battery(k) && run_driver_battery(k);
}

const CollapseKernels* kernels_for_isa(SimdIsa isa) noexcept {
  if (!host_supports_isa(isa)) return nullptr;
  switch (isa) {
    case SimdIsa::Scalar: return &scalar_kernels();
    case SimdIsa::Avx2: return detail::avx2_kernels_impl();
    case SimdIsa::Avx512: return detail::avx512_kernels_impl();
    case SimdIsa::Neon: return detail::neon_kernels_impl();
  }
  return nullptr;
}

const CollapseKernelsF32* kernels_for_isa_f32(SimdIsa isa) noexcept {
  if (!host_supports_isa(isa)) return nullptr;
  switch (isa) {
    case SimdIsa::Scalar: return &scalar_kernels_f32();
    case SimdIsa::Avx2: return detail::avx2_kernels_f32_impl();
    case SimdIsa::Avx512: return detail::avx512_kernels_f32_impl();
    case SimdIsa::Neon: return detail::neon_kernels_f32_impl();
  }
  return nullptr;
}

std::vector<SimdIsa> supported_simd_isas() {
  std::vector<SimdIsa> out;
  for (const SimdIsa isa : {SimdIsa::Scalar, SimdIsa::Avx2, SimdIsa::Avx512,
                            SimdIsa::Neon})
    if (kernels_for_isa(isa) != nullptr) out.push_back(isa);
  return out;
}

const CollapseKernels& kernels() {
  const CollapseKernels* k = g_active.load(std::memory_order_acquire);
  if (k == nullptr) {
    // A concurrent first call resolves to the same table; the double
    // store is idempotent.
    k = resolve();
    g_active.store(k, std::memory_order_release);
  }
  return *k;
}

const CollapseKernelsF32& kernels_f32() {
  const CollapseKernelsF32* k = g_active_f32.load(std::memory_order_acquire);
  if (k == nullptr) {
    k = resolve_f32();
    g_active_f32.store(k, std::memory_order_release);
  }
  return *k;
}

template <>
const CollapseKernelsT<double>& kernels_t<double>() {
  return kernels();
}

template <>
const CollapseKernelsT<float>& kernels_t<float>() {
  return kernels_f32();
}

SimdIsa active_simd_isa() { return kernels().isa; }

SimdIsa active_simd_isa_f32() { return kernels_f32().isa; }

void force_simd_isa(SimdIsa isa) {
  g_active.store(resolve_forced(isa), std::memory_order_release);
  g_active_f32.store(resolve_forced_f32(isa), std::memory_order_release);
}

}  // namespace mbq
