#pragma once
// Deterministic chunked (and optionally threaded) drivers over the
// collapse-kernel tables, including the two-sweep measurements.
//
// THE CHUNKED CONTRACT.  Above a size cutoff, every sweep is DEFINED as
// a sequence of fixed-size chunks of its index space:
//
//   * chunk size kChunkAmps = 2^13 amplitudes (128 KiB f64 / 64 KiB f32
//     — two such blocks fit comfortably in any L2 we target);
//   * a sweep whose index space holds >= kChunkCutoffDim = 2^14 entries
//     is chunked; below that it is ONE plain kernel call, bit-identical
//     to what the library always did;
//   * each chunk's fold uses its OWN canonical accumulator set (the
//     lanes restart at the chunk start), and the chunk partials are
//     combined by left-to-right addition in ascending chunk order.
//
// Whether the cutoff triggers depends ONLY on the index-space size —
// never on the thread count.  Threads only decide WHO executes a chunk
// (parallel_for_threads with a static schedule); the work each chunk
// performs and the order partials are combined in are fixed.  Hence
// threaded ≡ single-threaded ≡ scalar bit-for-bit, at every thread
// count, for every ISA flavor — the dispatch battery rejects any
// flavor×thread combination that diverges.
//
// CACHE BLOCKING falls out of the same decomposition.  A measurement is
// two sweeps: a read-only fold pass that computes, chunk by chunk, the
// Born denominator (when it is needed) and BOTH outcomes' projection
// folds, and — after the draw — a write pass that stores the chosen
// projection already scaled by 1/√(its fold).  A source block the fold
// pass needs twice (the Born total of a teleport, or of a
// measure_remove over a stale fold) is folded again right after the
// projection kernel reads it, from L2, not memory.  So a sampled
// measurement reads the register from memory twice and writes one
// output, where collapse, redo-on-outcome-0 and rescale used to sweep
// it 3.5 to 6 times.  The
// passes never change values: each fold keeps the per-chunk partials
// and the combination order of the sweep it replaces.
//
// Where two different drivers can cover the same logical fold (the
// compiled prep_total_fold vs the interpreted add_plus_cz over the
// doubled register; a fold pass's projection folds vs the write pass's
// fold of what it stores), their chunk decompositions are aligned by
// construction — both sides chunk the same array at the same
// boundaries — preserving the compiled ≡ interpreted bit-identity the
// tests assert.

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "mbq/common/bits.h"
#include "mbq/common/parallel.h"
#include "mbq/sim/collapse_kernels.h"

namespace mbq::thr {

/// Amplitudes per chunk (a power of two; 2^13 = 128 KiB of f64 amps).
inline constexpr std::uint64_t kChunkAmps = std::uint64_t{1} << 13;

/// An index space with at least this many entries is chunked.
inline constexpr std::uint64_t kChunkCutoffDim = std::uint64_t{1} << 14;

/// The process-global kernel thread count the DynamicStatevector
/// drivers use.  First call resolves MBQ_KERNEL_THREADS: a positive
/// integer pins the count, "auto"/unset picks the OpenMP default (1
/// without OpenMP), anything else throws.  Always >= 1.  Purely a
/// wall-clock knob — results are bit-identical at every value.
int kernel_threads();

/// Override the kernel thread count (SessionOptions::kernel_threads
/// routes here); n <= 0 re-resolves from the environment.
void set_kernel_threads(int n) noexcept;

namespace detail {

/// Chunk-partial slots, reused across calls (the steady-state shot loop
/// performs no allocations; the vector only grows on first use).
template <class R>
inline std::vector<R>& parts() {
  thread_local std::vector<R> v;
  return v;
}

/// Canonical combination of chunk partials: left-to-right addition in
/// ascending chunk order.
template <class R>
inline R combine(const R* p, std::uint64_t n) noexcept {
  R total = p[0];
  for (std::uint64_t c = 1; c < n; ++c) total += p[c];
  return total;
}

inline bool chunked(std::uint64_t space) noexcept {
  return space >= kChunkCutoffDim && space % kChunkAmps == 0;
}

}  // namespace detail

// --- folds -------------------------------------------------------------------

template <class R>
R fold_norms(const CollapseKernelsT<R>& k, const std::complex<R>* x,
             std::uint64_t n, int threads) {
  if (!detail::chunked(n)) return k.fold_norms(x, n);
  const std::uint64_t nc = n / kChunkAmps;
  auto& p = detail::parts<R>();
  p.resize(nc);
  parallel_for_threads(static_cast<std::int64_t>(nc), threads, [&](auto c) {
    p[c] = k.fold_norms(x + c * kChunkAmps, kChunkAmps);
  });
  return detail::combine(p.data(), nc);
}

template <class R>
R fold_norms_scaled(const CollapseKernelsT<R>& k, const std::complex<R>* x,
                    std::uint64_t n, R s, int threads) {
  if (!detail::chunked(n)) return k.fold_norms_scaled(x, n, s);
  const std::uint64_t nc = n / kChunkAmps;
  auto& p = detail::parts<R>();
  p.resize(nc);
  parallel_for_threads(static_cast<std::int64_t>(nc), threads, [&](auto c) {
    p[c] = k.fold_norms_scaled(x + c * kChunkAmps, kChunkAmps, s);
  });
  return detail::combine(p.data(), nc);
}

/// prep_total_fold: the fold of the DOUBLED register [s·x | ±s·x].  The
/// chunk space is the doubled 2n array; the upper half's chunk partials
/// equal the lower half's bitwise (signs square away), so each is
/// computed once and added twice.
template <class R>
R prep_total_fold(const CollapseKernelsT<R>& k, const std::complex<R>* x,
                  std::uint64_t n, R s, int threads) {
  if (!detail::chunked(2 * n)) return k.prep_total_fold(x, n, s);
  const std::uint64_t nc = n / kChunkAmps;  // chunks per half
  auto& p = detail::parts<R>();
  p.resize(nc);
  parallel_for_threads(static_cast<std::int64_t>(nc), threads, [&](auto c) {
    p[c] = k.fold_norms_scaled(x + c * kChunkAmps, kChunkAmps, s);
  });
  R total = p[0];
  for (std::uint64_t c = 1; c < nc; ++c) total += p[c];
  for (std::uint64_t c = 0; c < nc; ++c) total += p[c];
  return total;
}

template <class R>
R scale_fold(const CollapseKernelsT<R>& k, std::complex<R>* x,
             std::uint64_t n, R inv, int threads) {
  if (!detail::chunked(n)) return k.scale_fold(x, n, inv);
  const std::uint64_t nc = n / kChunkAmps;
  auto& p = detail::parts<R>();
  p.resize(nc);
  parallel_for_threads(static_cast<std::int64_t>(nc), threads, [&](auto c) {
    p[c] = k.scale_fold(x + c * kChunkAmps, kChunkAmps, inv);
  });
  return detail::combine(p.data(), nc);
}

// --- two-sweep measurements ------------------------------------------------
// Each measurement shape has a fold driver (read-only: the Born total
// when asked for, and both outcomes' projection folds) and a write
// driver (the chosen projection scaled by inv, stored, folded).  The
// fold driver's proj[m] is bitwise the fold an unscaled collapse of
// outcome m used to return; the write driver's result is bitwise what
// scale_fold over that collapse returned — both chunk the same arrays
// at the same boundaries with the same per-chunk lanes.

/// What a measurement's fold pass returns.
template <class R>
struct BornFolds {
  R total;    // Born denominator; 0 unless requested
  R proj[2];  // squared norm of each outcome's unnormalized projection
};

namespace detail {

/// The x offset of the measure_remove sub-call for the pair-rank chunk
/// at k0.  A chunk of kChunkAmps ranks maps to a contiguous out slice
/// and (for either stride regime) to an offset sub-call of the plain
/// kernel with the same q:
///   stride >= C: i0(k0 + t) = i0(k0) + t for t < C, so the sub-call
///     reads x + i0(k0) .. and x + i0(k0) + stride;
///   stride <  C: i0(k0 + t) = 2·k0 + i0(t) (k0 is a multiple of
///     stride), so the sub-call reads the 2·C block at x + 2·k0.
/// Either way the x blocks it reads are whole, aligned x chunks.
inline std::uint64_t pair_chunk_base(std::uint64_t k0, int q) noexcept {
  return (std::uint64_t{1} << q) >= kChunkAmps ? insert_zero_bit(k0, q)
                                                : 2 * k0;
}

/// Calls fold(x_chunk_index, x_offset) for the two x chunks the
/// pair-rank chunk at k0 reads (see pair_chunk_base).
template <class F>
void for_pair_chunk_sources(std::uint64_t k0, int q, F&& fold) {
  const std::uint64_t stride = std::uint64_t{1} << q;
  const std::uint64_t i0 = pair_chunk_base(k0, q);
  const std::uint64_t i1 = stride >= kChunkAmps ? i0 + stride : i0 + kChunkAmps;
  fold(i0 / kChunkAmps, i0);
  fold(i1 / kChunkAmps, i1);
}

}  // namespace detail

/// measure_remove fold pass.  With want_total, total = fold_norms(x,
/// 2·pairs): above the cutoff each rank chunk folds the two x chunks it
/// reads right after reading them, so they are re-read from L2, not
/// memory.
template <class R>
BornFolds<R> pairs_fold(const CollapseKernelsT<R>& k, const std::complex<R>* x,
                        std::uint64_t pairs, int q, const std::complex<R>* e,
                        bool want_total, int threads) {
  BornFolds<R> f{R(0), {R(0), R(0)}};
  if (!detail::chunked(pairs)) {
    // The total keeps the global fold definition (it may chunk at
    // 2·pairs even when the pair space is below the cutoff).
    if (want_total) f.total = fold_norms(k, x, 2 * pairs, threads);
    k.pairs_fold(x, pairs, q, e, f.proj);
    return f;
  }
  const std::uint64_t nc = pairs / kChunkAmps;        // projection chunks
  const std::uint64_t nx = (2 * pairs) / kChunkAmps;  // x-fold chunks
  auto& p = detail::parts<R>();
  p.resize(2 * nc + nx);
  R* p0 = p.data();
  R* p1 = p0 + nc;
  R* xp = p1 + nc;
  parallel_for_threads(static_cast<std::int64_t>(nc), threads, [&](auto c) {
    const std::uint64_t k0 = c * kChunkAmps;
    R pr[2];
    k.pairs_fold(x + detail::pair_chunk_base(k0, q), kChunkAmps, q, e, pr);
    p0[c] = pr[0];
    p1[c] = pr[1];
    if (want_total)
      detail::for_pair_chunk_sources(k0, q, [&](auto j, auto off) {
        xp[j] = k.fold_norms(x + off, kChunkAmps);
      });
  });
  f.proj[0] = detail::combine(p0, nc);
  f.proj[1] = detail::combine(p1, nc);
  if (want_total) f.total = detail::combine(xp, nx);
  return f;
}

/// measure_remove write pass: out[k] = proj[k]·inv, returning the fold
/// of out under the chunk contract.
template <class R>
R pairs_write(const CollapseKernelsT<R>& k, const std::complex<R>* x,
              std::complex<R>* out, std::uint64_t pairs, int q,
              std::complex<R> e0, std::complex<R> e1, R inv, int threads) {
  if (!detail::chunked(pairs))
    return k.pairs_write(x, out, pairs, q, e0, e1, inv);
  const std::uint64_t nc = pairs / kChunkAmps;
  auto& p = detail::parts<R>();
  p.resize(nc);
  parallel_for_threads(static_cast<std::int64_t>(nc), threads, [&](auto c) {
    const std::uint64_t k0 = c * kChunkAmps;
    p[c] = k.pairs_write(x + detail::pair_chunk_base(k0, q), out + k0,
                         kChunkAmps, q, e0, e1, inv);
  });
  return detail::combine(p.data(), nc);
}

// --- fused prep+CZ+measure (prep_cz_measure) ---------------------------------
// The gadget chunks its dim array; each chunk is an index slice of the
// kernels, which read the CZ signs off the global index.

/// The gadget fold pass.  total (want_total) is the fold of the DOUBLED
/// register [s·x | ±s·x]; its chunk space is 2·dim, whose upper half's
/// chunk partials equal the lower half's bitwise (signs square away),
/// so each chunk's low fold is computed once and added twice.
template <class R>
BornFolds<R> prep_fold(const CollapseKernelsT<R>& k, const std::complex<R>* x,
                       std::uint64_t dim, std::uint64_t pmask,
                       const std::complex<R>* e, R s, bool want_total,
                       int threads) {
  BornFolds<R> f{R(0), {R(0), R(0)}};
  if (!detail::chunked(dim)) {
    R folds[3];
    k.prep_fold(x, 0, dim, pmask, e, s, folds);
    f.proj[0] = folds[1];
    f.proj[1] = folds[2];
    // 2·dim exactly at the cutoff chunks the total as one half-chunk
    // added twice; below it the total is one carried fold.
    if (want_total)
      f.total = detail::chunked(2 * dim) ? folds[0] + folds[0]
                                         : k.prep_total_fold(x, dim, s);
    return f;
  }
  const std::uint64_t nc = dim / kChunkAmps;
  auto& p = detail::parts<R>();
  p.resize(3 * nc);
  R* xp = p.data();
  R* p0 = xp + nc;
  R* p1 = p0 + nc;
  parallel_for_threads(static_cast<std::int64_t>(nc), threads, [&](auto c) {
    R folds[3];
    k.prep_fold(x, c * kChunkAmps, (c + 1) * kChunkAmps, pmask, e, s, folds);
    xp[c] = folds[0];
    p0[c] = folds[1];
    p1[c] = folds[2];
  });
  f.proj[0] = detail::combine(p0, nc);
  f.proj[1] = detail::combine(p1, nc);
  if (want_total) {
    R total = detail::combine(xp, nc);
    for (std::uint64_t c = 0; c < nc; ++c) total += xp[c];
    f.total = total;
  }
  return f;
}

/// The gadget write pass: out[i] = proj[i]·inv, folded.
template <class R>
R prep_write(const CollapseKernelsT<R>& k, const std::complex<R>* x,
             std::complex<R>* out, std::uint64_t dim, std::uint64_t pmask,
             std::complex<R> e0, std::complex<R> e1, R s, R inv,
             int threads) {
  if (!detail::chunked(dim))
    return k.prep_write(x, out, 0, dim, pmask, e0, e1, s, inv);
  const std::uint64_t nc = dim / kChunkAmps;
  auto& p = detail::parts<R>();
  p.resize(nc);
  parallel_for_threads(static_cast<std::int64_t>(nc), threads, [&](auto c) {
    p[c] = k.prep_write(x, out, c * kChunkAmps, (c + 1) * kChunkAmps, pmask,
                        e0, e1, s, inv);
  });
  return detail::combine(p.data(), nc);
}

// --- fused prep+CZ+teleport+measure ------------------------------------------
// The projection fills out[0, dim): pair-rank chunk c writes the lower
// out chunk c and the upper out chunk nch + c, each folded with fresh
// lanes; the partials combine left to right in out-chunk order, which
// is fold_norms(out, dim) under its chunk contract.  Below the cutoff
// the fold is one carried stream over out: the fold pass runs the
// kernel's carry mode, the write pass folds out once it is written.

/// The teleport fold pass.  total (want_total) is prep_total_fold(x,
/// dim, s): above the cutoff each rank chunk folds the two x chunks it
/// reads right after reading them, so they are re-read from L2.
template <class R>
BornFolds<R> teleport_fold(const CollapseKernelsT<R>& k,
                           const std::complex<R>* x, std::uint64_t dim, int q,
                           std::uint64_t pmask, const std::complex<R>* e, R s,
                           bool want_total, int threads) {
  BornFolds<R> f{R(0), {R(0), R(0)}};
  if (!detail::chunked(dim)) {
    if (want_total) f.total = prep_total_fold(k, x, dim, s, threads);
    R folds[4];
    k.teleport_fold(x, dim, q, pmask, e, s, 0, dim / 2, /*carry=*/true,
                    folds);
    f.proj[0] = folds[0];
    f.proj[1] = folds[2];
    return f;
  }
  const std::uint64_t nch = (dim / 2) / kChunkAmps;  // chunks per half
  const std::uint64_t nx = dim / kChunkAmps;         // x-fold chunks
  auto& p = detail::parts<R>();
  p.resize(4 * nch + nx);
  R* p0 = p.data();      // outcome 0: lower chunks, then upper chunks
  R* p1 = p0 + 2 * nch;  // outcome 1: likewise
  R* xp = p1 + 2 * nch;
  parallel_for_threads(static_cast<std::int64_t>(nch), threads, [&](auto c) {
    const std::uint64_t r0 = c * kChunkAmps;
    R folds[4];
    k.teleport_fold(x, dim, q, pmask, e, s, r0, r0 + kChunkAmps,
                    /*carry=*/false, folds);
    p0[c] = folds[0];
    p0[nch + c] = folds[1];
    p1[c] = folds[2];
    p1[nch + c] = folds[3];
    if (want_total)
      detail::for_pair_chunk_sources(r0, q, [&](auto j, auto off) {
        xp[j] = k.fold_norms_scaled(x + off, kChunkAmps, s);
      });
  });
  f.proj[0] = detail::combine(p0, 2 * nch);
  f.proj[1] = detail::combine(p1, 2 * nch);
  if (want_total) {
    R total = detail::combine(xp, nx);
    for (std::uint64_t c = 0; c < nx; ++c) total += xp[c];
    f.total = total;
  }
  return f;
}

/// The teleport write pass: out = proj·inv in the final wire layout,
/// returning fold_norms(out, dim) under the chunk contract.
template <class R>
R teleport_write(const CollapseKernelsT<R>& k, const std::complex<R>* x,
                 std::complex<R>* out, std::uint64_t dim, int q,
                 std::uint64_t pmask, std::complex<R> e0, std::complex<R> e1,
                 R s, R inv, int threads) {
  if (!detail::chunked(dim)) {
    k.teleport_write(x, out, dim, q, pmask, e0, e1, s, inv, 0, dim / 2,
                     nullptr);
    return k.fold_norms(out, dim);
  }
  const std::uint64_t nch = (dim / 2) / kChunkAmps;
  auto& p = detail::parts<R>();
  p.resize(2 * nch);
  parallel_for_threads(static_cast<std::int64_t>(nch), threads, [&](auto c) {
    const std::uint64_t r0 = c * kChunkAmps;
    R folds[2];
    k.teleport_write(x, out, dim, q, pmask, e0, e1, s, inv, r0,
                     r0 + kChunkAmps, folds);
    p[c] = folds[0];
    p[nch + c] = folds[1];
  });
  return detail::combine(p.data(), 2 * nch);
}

// --- interpreted-path prep (add_wire_plus_cz) --------------------------------

/// add_plus_cz over chunks of the doubled register: the scale pass
/// chunks the lower half in place, then (barrier) the mirror pass
/// chunks the upper half via the ranged kernel.  Partials combine in
/// doubled-array order — bitwise equal to prep_total_fold's chunked
/// result over the same physical array.
template <class R>
R add_plus_cz(const CollapseKernelsT<R>& k, std::complex<R>* x,
              std::uint64_t old_dim, std::uint64_t pmask, R s, int threads) {
  if (!detail::chunked(2 * old_dim)) return k.add_plus_cz(x, old_dim, pmask, s);
  const std::uint64_t nc = old_dim / kChunkAmps;  // chunks per half
  auto& p = detail::parts<R>();
  p.resize(2 * nc);
  parallel_for_threads(static_cast<std::int64_t>(nc), threads, [&](auto c) {
    p[c] = k.scale_fold(x + c * kChunkAmps, kChunkAmps, s);
  });
  parallel_for_threads(static_cast<std::int64_t>(nc), threads, [&](auto c) {
    p[nc + c] = k.mirror_cz_range(x, old_dim, c * kChunkAmps,
                                  (c + 1) * kChunkAmps, pmask);
  });
  return detail::combine(p.data(), 2 * nc);
}

// --- exact passes (no folds — any decomposition is bit-identical) ------------

/// x[0, n) = v: the multi-wire |+> prep of an empty register.
template <class R>
void fill(std::complex<R>* x, std::uint64_t n, std::complex<R> v,
          int threads) {
  if (!detail::chunked(n)) {
    std::fill(x, x + n, v);
    return;
  }
  const std::uint64_t nc = n / kChunkAmps;
  parallel_for_threads(static_cast<std::int64_t>(nc), threads, [&](auto c) {
    std::fill(x + c * kChunkAmps, x + (c + 1) * kChunkAmps, v);
  });
}

template <class R>
void sign_pass(const CollapseKernelsT<R>& k, std::complex<R>* x,
               std::uint64_t n, std::uint64_t eq_mask, std::uint64_t par_mask,
               bool negate, int threads) {
  if (!detail::chunked(n)) {
    k.sign_pass(x, n, eq_mask, par_mask, negate);
    return;
  }
  const std::uint64_t nc = n / kChunkAmps;
  const std::uint64_t eq_lo = eq_mask & (kChunkAmps - 1);
  const std::uint64_t eq_hi = eq_mask & ~(kChunkAmps - 1);
  const std::uint64_t par_lo = par_mask & (kChunkAmps - 1);
  const std::uint64_t par_hi = par_mask & ~(kChunkAmps - 1);
  parallel_for_threads(static_cast<std::int64_t>(nc), threads, [&](auto c) {
    const std::uint64_t j0 = c * kChunkAmps;
    // Split the eq condition: the high bits are constant per chunk.
    const bool hi_match = (j0 & eq_hi) == eq_hi;
    const std::uint64_t eq_sub = (hi_match && eq_lo != 0) ? eq_lo : 0;
    const bool eq_const = eq_mask != 0 && hi_match && eq_lo == 0;
    const bool neg_sub =
        negate ^ eq_const ^ (parity64(j0 & par_hi) != 0);
    k.sign_pass(x + j0, kChunkAmps, eq_sub, par_lo, neg_sub);
  });
}

template <class R>
void cz_masks_pass(const CollapseKernelsT<R>& k, std::complex<R>* x,
                   std::uint64_t n, const std::uint64_t* pair_masks, int count,
                   int threads) {
  // A mask of 0 fires on every index ((i & 0) == 0), which is how a
  // chunk-constant flip is expressed below; cap the per-chunk list.
  if (!detail::chunked(n) || count > 64) {
    k.cz_masks_pass(x, n, pair_masks, count);
    return;
  }
  const std::uint64_t nc = n / kChunkAmps;
  parallel_for_threads(static_cast<std::int64_t>(nc), threads, [&](auto c) {
    const std::uint64_t i0 = c * kChunkAmps;
    std::array<std::uint64_t, 65> sub;
    int sub_count = 0;
    bool const_flip = false;
    for (int m = 0; m < count; ++m) {
      const std::uint64_t hi = pair_masks[m] & ~(kChunkAmps - 1);
      if ((i0 & hi) != hi) continue;  // never fires in this chunk
      const std::uint64_t lo = pair_masks[m] & (kChunkAmps - 1);
      if (lo == 0)
        const_flip = !const_flip;  // fires on every index of the chunk
      else
        sub[static_cast<std::size_t>(sub_count++)] = lo;
    }
    if (const_flip) sub[static_cast<std::size_t>(sub_count++)] = 0;
    if (sub_count == 0) return;
    k.cz_masks_pass(x + i0, kChunkAmps, sub.data(), sub_count);
  });
}

template <class R>
void pauli_swap_pass(const CollapseKernelsT<R>& k, std::complex<R>* x,
                     std::uint64_t n, std::uint64_t xmask, std::uint64_t zmask,
                     std::uint64_t eq_mask, bool negate, int threads) {
  if (!detail::chunked(n) || n / 2 < kChunkAmps) {
    k.pauli_swap_pass(x, n, xmask, zmask, eq_mask, negate);
    return;
  }
  const std::uint64_t nc = (n / 2) / kChunkAmps;  // pair-rank chunks
  parallel_for_threads(static_cast<std::int64_t>(nc), threads, [&](auto c) {
    k.pauli_swap_range(x, xmask, zmask, eq_mask, negate, c * kChunkAmps,
                       (c + 1) * kChunkAmps);
  });
}

template <class R>
void phase_pass(const CollapseKernelsT<R>& k, std::complex<R>* x,
                std::uint64_t n, int q, std::complex<R> e, int threads) {
  if (!detail::chunked(n) || n / 2 < kChunkAmps) {
    k.phase_pass(x, n, q, e);
    return;
  }
  const std::uint64_t stride = std::uint64_t{1} << q;
  const std::uint64_t nc = (n / 2) / kChunkAmps;  // pair-rank chunks
  parallel_for_threads(static_cast<std::int64_t>(nc), threads, [&](auto c) {
    const std::uint64_t k0 = c * kChunkAmps;
    if (stride >= kChunkAmps) {
      // The chunk's i1 targets are one contiguous block starting at
      // j0 = i0(k0) | stride >= kChunkAmps; phase it as the upper half
      // of a 2·C register (only indices with the top bit set are read
      // or written, so the pointer backs up safely).
      const std::uint64_t j0 = insert_zero_bit(k0, q) | stride;
      k.phase_pass(x + j0 - kChunkAmps, 2 * kChunkAmps,
                   std::countr_zero(kChunkAmps), e);
    } else {
      // The pattern repeats every 2·stride amps; a rank chunk is the
      // same pass on a contiguous 2·C slice.
      k.phase_pass(x + 2 * k0, 2 * kChunkAmps, q, e);
    }
  });
}

}  // namespace mbq::thr
