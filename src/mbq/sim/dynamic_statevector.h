#pragma once
// Statevector with dynamic qubit (wire) allocation.
//
// MBQC patterns touch far more qubits than are ever simultaneously alive:
// an ancilla is prepared, entangled, measured and discarded within a few
// commands.  This simulator exploits that (the "qubit reuse" of DeCross et
// al. cited in the paper, ref [51]): wires are added lazily and removed on
// measurement, so the amplitude vector tracks only the LIVE wires.  Wires
// are addressed by stable non-negative integer ids independent of their
// current bit position.
//
// Every hot amplitude sweep — collapses, folds, sign/swap passes — runs
// through the runtime-dispatched SIMD kernel table (sim/collapse_kernels.h,
// scalar/AVX2/AVX-512/NEON), wrapped in the chunked drivers of
// sim/collapse_threaded.h: above the chunk cutoff a sweep is tiled into
// L2-sized blocks (and optionally executed by multiple threads — see
// MBQ_KERNEL_THREADS).  The kernels' canonical reduction order and the
// drivers' fixed chunk decomposition make results bit-identical across
// ISAs AND across thread counts, so neither choice leaks into outcome
// streams.
//
// Every measurement (measure_remove and the fused gadget and teleport
// below) is two sweeps: a read-only fold pass folds the Born
// denominator, when it is needed, and both outcomes' projections; after
// the draw, a write pass stores the chosen projection already
// normalized — over the register itself where each output index is one
// the same step reads (the gadget; a measured wire at the top bit),
// else into the scratch buffer, which then swaps with the register.
// The arena grows without zero-filling (UninitAllocator): every growth
// path writes each new amplitude before anything reads it.
//
// The element type is chosen at construction (Precision::F64 default,
// Precision::F32 optional): f32 halves the memory traffic per amplitude
// — roughly one extra qubit of reach at a given footprint — and is
// deterministic under the same contract WITHIN the precision, but its
// streams are NOT bit-comparable to f64's (see common/types.h).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "mbq/common/rng.h"
#include "mbq/common/types.h"
#include "mbq/linalg/dense.h"

namespace mbq {

namespace thr {
template <class R>
struct BornFolds;
}  // namespace thr

/// Allocations of at least this many bytes are backed by 2 MiB pages
/// where the OS supports it (see UninitAllocator).
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/// True where huge_page_alloc exists: Linux, whose transparent huge
/// pages are often enabled only for ranges advised MADV_HUGEPAGE.
#if defined(__linux__)
inline constexpr bool kHugePageAllocator = true;
#else
inline constexpr bool kHugePageAllocator = false;
#endif

/// `bytes` rounded up to whole huge pages, mapped 2 MiB-aligned and
/// advised MADV_HUGEPAGE (the advice is best effort: where the kernel
/// refuses it, the range keeps 4 KiB pages).  Throws std::bad_alloc.
/// Linux only.
void* huge_page_alloc(std::size_t bytes);
/// Unmaps a huge_page_alloc(bytes) range.
void huge_page_free(void* p, std::size_t bytes) noexcept;

/// std::allocator whose value-less construct() leaves the element
/// uninitialized, so growing a vector (resize) does not zero-fill
/// storage a kernel is about to overwrite.  Only for implicit-lifetime
/// element types (trivially copyable and destructible, like
/// std::complex), whose objects allocation itself creates.
///
/// Allocations of kHugePageBytes or more go to huge_page_alloc on Linux:
/// a 16 MiB amplitude buffer then sits on 8 huge pages instead of 4096
/// small ones, so every sweep over it misses the TLB far less often.
/// Smaller ones (every register up to 16 wires at f64) and other
/// systems keep std::allocator.
template <class T>
struct UninitAllocator : std::allocator<T> {
  static_assert(std::is_trivially_copyable_v<T> &&
                std::is_trivially_destructible_v<T>);
  template <class U>
  struct rebind {
    using other = UninitAllocator<U>;
  };
  UninitAllocator() noexcept = default;
  template <class U>
  UninitAllocator(const UninitAllocator<U>&) noexcept {}
  template <class U>
  void construct(U*) noexcept {}
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }

  static constexpr bool huge(std::size_t n) noexcept {
    return kHugePageAllocator && n >= kHugePageBytes / sizeof(T);
  }
  T* allocate(std::size_t n) {
    if (!huge(n)) return std::allocator<T>::allocate(n);
    if (n > static_cast<std::size_t>(-1) / sizeof(T))
      throw std::bad_array_new_length();
    return static_cast<T*>(huge_page_alloc(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    if (huge(n))
      huge_page_free(p, n * sizeof(T));
    else
      std::allocator<T>::deallocate(p, n);
  }
};

/// Single-qubit measurement bases used by patterns.
enum class MeasBasis : std::uint8_t { Z, X, XY, YZ };

/// Basis kets as the columns of a 2x2 unitary: column m is the outcome-m
/// state.  XY(angle): (|0> ± e^{i a}|1>)/sqrt(2); YZ(angle): e^{i a X/2}|m>.
Matrix measurement_basis(MeasBasis basis, real angle);

class DynamicStatevector {
 public:
  // --- zero-state thresholds -------------------------------------------
  // Three DISTINCT guards with distinct units, named so no call site
  // picks the wrong one again (they used to be scattered magic numbers
  // with accidentally different scales):

  /// Minimum AMPLITUDE norm |a| = sqrt(|a0|²+|a1|²) accepted when adding
  /// a wire in an explicit state — below this the direction of the state
  /// is numerically meaningless.
  static constexpr real kMinAddWireNorm = 1e-12;

  /// Minimum SQUARED state norm |ψ|² accepted as a Born-rule denominator
  /// (and by normalize()) — dividing probabilities by anything smaller
  /// amplifies noise past any usable precision.  Note the unit: this
  /// guards Σ|amp|² directly, the quantity the fold tracks.
  static constexpr real kMinBornNorm2 = 1e-14;

  /// Minimum SQUARED norm |Πψ|² of a post-measurement projection —
  /// deliberately far looser than kMinBornNorm2, because a legitimately
  /// unlikely (but sampled or forced-with-reason) outcome may leave a
  /// tiny residual state that renormalization then rescues.
  static constexpr real kMinProjectionNorm2 = 1e-18;

  explicit DynamicStatevector(Precision p = Precision::F64) : prec_(p) {
    if (prec_ == Precision::F64)
      amps_.push_back(cplx{1.0, 0.0});
    else
      amps32_.push_back(cplxf{1.0f, 0.0f});
  }

  /// Element type of the amplitude storage, fixed at construction.
  Precision precision() const noexcept { return prec_; }

  /// Return to the empty register (scalar state 1) WITHOUT releasing the
  /// amplitude buffers or the wire-position table: a simulator reset in a
  /// shot loop reuses the same arena, so steady-state execution performs
  /// no allocations at all.
  void reset();

  /// Most live wires a register can hold.
  static constexpr int kMaxLiveWires = 28;

  /// Allocate both amplitude buffers — the register and its ping-pong
  /// scratch — for registers of up to `width` live wires, so no later
  /// operation within that width reallocates.  A buffer already that
  /// large is kept; a width past kMaxLiveWires reserves nothing (no
  /// register can reach it).  Contents are unchanged.
  void reserve(int width);

  /// Bytes the two amplitude buffers have allocated (their capacity,
  /// not the live register's size).
  std::uint64_t buffer_bytes() const noexcept;

  int num_live() const noexcept { return static_cast<int>(order_.size()); }
  int peak_live() const noexcept { return peak_live_; }
  std::uint64_t dim() const noexcept { return std::uint64_t{1} << order_.size(); }
  bool has_wire(int wire) const noexcept {
    return wire >= 0 && static_cast<std::size_t>(wire) < pos_.size() &&
           pos_[static_cast<std::size_t>(wire)] >= 0;
  }
  /// Live wire ids in bit-position order (position 0 first).
  const std::vector<int>& wire_order() const noexcept { return order_; }
  /// Current bit position of a live wire (throws if not live).  The
  /// compiled executor uses this to build position masks for the fused
  /// kernels below.
  int bit_position(int wire) const { return position(wire); }

  /// Add wire `wire` in |+> (plus=true) or |0>.
  void add_wire(int wire, bool plus = true);

  /// add_wire(w) for w = first, first+1, ..., first+count−1 in order, on
  /// an EMPTY register, as one fill pass: every amplitude of the result
  /// is the register's scalar scaled by 1/√2 `count` times (the same
  /// chained rounding the per-wire path performs).  Bit-identical to the
  /// per-wire calls, norm fold included (left invalid, as add_wire
  /// leaves it).
  void add_plus_wires(int first, int count);

  /// Add wire `wire` in the state a0|0> + a1|1> (normalized internally;
  /// rejects amplitude norms below kMinAddWireNorm).
  void add_wire_state(int wire, cplx a0, cplx a1);

  void apply_1q(int wire, const Matrix& u);
  void apply_h(int wire);
  void apply_x(int wire);
  void apply_z(int wire);
  /// Dedicated diagonal-phase kernel: diag(1, e^{iθ}) touches only the
  /// bit-set half and preserves every per-element norm, so — like
  /// apply_z — it keeps the norm fold usable (see fold_ below for the
  /// documented ulp-level caveat).  Bit-identical amplitudes to routing
  /// the same matrix through apply_1q.
  void apply_rz(int wire, real theta);
  void apply_cz(int wire_a, int wire_b);

  /// CZ followed by the entangler noise channel: each touched wire
  /// suffers a uniformly random Pauli with probability p.  Draws from
  /// rng in the same order as apply_cz + two per-wire checks would, but
  /// executes everything as ONE fused amplitude pass (sign flips and
  /// index swaps only, so the result is bit-identical to the sequential
  /// gate composition).  p <= 0 degrades to plain apply_cz.
  void apply_cz_depolarize(int wire_a, int wire_b, real p, Rng& rng);

  /// Measure `wire` in the given basis and REMOVE it from the register.
  /// forced in {-1 (sample from Born rule), 0, 1}.  Returns the outcome.
  /// A forced outcome of (numerically) zero probability throws, before
  /// the write pass, leaving the register untouched.
  int measure_remove(int wire, const Matrix& basis, Rng& rng, int forced = -1);

  // --- fused kernels for the compiled pattern executor -----------------
  // Each replaces a sequence of the primitive operations above with one
  // amplitude pass (two for the measuring ones), producing bit-identical
  // amplitudes and outcome
  // streams (everything they fuse is a scale, a sign flip, an index swap
  // or a sum evaluated in the canonical kernel order).  They also
  // maintain the running norm fold (see fold_ below), which lets the
  // next sampled measurement skip its full normalization pass.

  /// add_wire(wire, plus=true) immediately followed by a CZ against
  /// every live wire whose POSITION bit is set in partner_pos_mask, as
  /// one pass (the fresh wire occupies the top position, so the CZs only
  /// sign the upper half being written anyway).
  void add_wire_plus_cz(int wire, std::uint64_t partner_pos_mask);

  /// A run of CZs given as position-pair masks (each mask = both
  /// endpoint position bits), one sign pass instead of `count` passes.
  void apply_cz_masks(const std::uint64_t* pair_masks, int count);

  /// The ordered composition of X- and Z-corrections folded to
  /// X^{xmask} with a Z-phase mask and an overall sign, one pass instead
  /// of one per correction.  Masks are position masks; `negate` carries
  /// the anticommutation sign the sequential order would have produced.
  void apply_pauli_masks(std::uint64_t xmask, std::uint64_t zmask,
                         bool negate);

  /// The paper's gadget step fused end to end: prepare `wire` in |+> at
  /// the top position, CZ it against partner_pos_mask, and measure it in
  /// `basis` — without ever materializing the doubled register.  The
  /// upper amplitude half is ±(scaled lower half), so probabilities,
  /// projections and the collapsed state are computed straight from the
  /// untouched register: the whole N;E...;M block is one fold pass and
  /// one in-place write pass at the SMALL dimension.  Contract matches
  /// measure_remove.
  int prep_cz_measure(int wire, std::uint64_t partner_pos_mask,
                      const Matrix& basis, Rng& rng, int forced = -1);

  /// The teleport step fused end to end: prepare `new_wire` in |+> at
  /// the top position, CZ it against partner_pos_mask, then measure
  /// `meas_wire` (a DIFFERENT, live wire) in `basis`.  Again the doubled
  /// register never exists — the virtual upper half is ±(scaled lower
  /// half), so the fold pass reads the untouched register directly and
  /// the write pass writes the final (same-sized) state.  After the call
  /// `meas_wire` is gone and `new_wire` is live at the top position,
  /// exactly as the sequential chain would leave them.
  int prep_cz_teleport_measure(int new_wire, std::uint64_t partner_pos_mask,
                               int meas_wire, const Matrix& basis, Rng& rng,
                               int forced = -1);

  /// Probability that measuring `wire` in `basis` yields 1.
  real prob_one(int wire, const Matrix& basis) const;

  /// Precomputed readout gather: source bit position per output bit plus
  /// the Gray-walk flip table that advances the source index with one
  /// lookup per element.  fill_gather_table into a caller-owned table is
  /// allocation-free once the table has its steady-state capacity, which
  /// is what lets PatternExecutor::run_sample keep the documented
  /// zero-steady-state-allocation contract.
  struct GatherTable {
    std::vector<int> src;
    std::vector<std::uint64_t> flip;
  };

  /// Resolve `wires` (each live wire exactly once) against the CURRENT
  /// layout into `table`.  Reuses the table's storage.
  void fill_gather_table(const std::vector<int>& wires,
                         GatherTable& table) const;

  /// Amplitudes reordered so that wires[i] maps to bit i; every live wire
  /// must appear exactly once.  Use this to compare against a fixed-order
  /// reference state.
  std::vector<cplx> state_in_order(const std::vector<int>& wires) const;
  std::vector<cplx> state_in_order(const GatherTable& table) const;

  /// Cumulative Born walk over the state_in_order(wires) amplitudes
  /// WITHOUT materializing the copy: subtracts |amp|² from u in gathered
  /// order and returns the first index where u drops to <= 0 (the last
  /// index if it never does).  Bit-identical to walking the gathered
  /// vector, minus its allocation — the per-shot readout fast path.
  std::uint64_t sample_in_order(const std::vector<int>& wires, real u) const;
  std::uint64_t sample_in_order(const GatherTable& table, real u) const;

  real norm() const;
  void normalize();

  /// The running norm fold and its validity — introspection for the
  /// scalar-vs-SIMD differential tests, which assert fold values
  /// bit-identical across ISAs.
  real norm_fold() const noexcept { return fold_; }
  bool norm_fold_valid() const noexcept { return fold_valid_; }

 private:
  int position(int wire) const;
  void set_position(int wire, int p);

  /// Amplitude storage: grows without zero-filling (every growth path
  /// writes each new amplitude before anything reads it).
  template <class R>
  using Arena =
      std::vector<std::complex<R>, UninitAllocator<std::complex<R>>>;

  /// Active amplitude / scratch storage for element type R.  The class
  /// is runtime-polymorphic over precision (one enum member, two buffer
  /// pairs — only the pair matching prec_ is ever non-empty); the hot
  /// paths are member templates in the .cpp dispatched through these.
  template <class R>
  Arena<R>& amps() noexcept {
    if constexpr (std::is_same_v<R, double>)
      return amps_;
    else
      return amps32_;
  }
  template <class R>
  const Arena<R>& amps() const noexcept {
    if constexpr (std::is_same_v<R, double>)
      return amps_;
    else
      return amps32_;
  }
  template <class R>
  Arena<R>& scratch() noexcept {
    if constexpr (std::is_same_v<R, double>)
      return scratch_;
    else
      return scratch32_;
  }

  template <class R>
  void reset_impl();
  template <class R>
  void add_wire_impl(bool plus);
  template <class R>
  void add_plus_wires_impl(int count);
  template <class R>
  void apply_1q_impl(int q, const Matrix& u);
  template <class R>
  void apply_x_impl(std::uint64_t xmask);
  template <class R>
  void sign_pass_impl(std::uint64_t eq_mask, std::uint64_t par_mask,
                      bool negate);
  template <class R>
  void apply_rz_impl(int q, cplx e);
  template <class R>
  void pauli_swap_impl(std::uint64_t xmask, std::uint64_t zmask,
                       std::uint64_t eq_mask, bool negate);
  template <class R>
  void add_plus_cz_impl(std::uint64_t partner_pos_mask);
  template <class R>
  void cz_masks_impl(const std::uint64_t* pair_masks, int count);
  template <class R>
  int prep_cz_measure_impl(std::uint64_t partner_pos_mask, const Matrix& basis,
                           Rng& rng, int forced, int wire);
  template <class R>
  int teleport_measure_impl(std::uint64_t partner_pos_mask, int q,
                            const Matrix& basis, Rng& rng, int forced,
                            int meas_wire);
  /// The outcome of a measurement whose fold pass returned f: drawn
  /// from the Born rule against `total` when forced == -1, else forced;
  /// throws if that outcome's projection is (numerically) zero — before
  /// the write pass touches anything.
  template <class R>
  int choose_outcome(const thr::BornFolds<R>& f, real total, Rng& rng,
                     int forced, int wire) const;
  template <class R>
  real prob_one_impl(int q, const Matrix& basis) const;
  template <class R>
  int measure_remove_impl(int q, const Matrix& basis, Rng& rng, int forced,
                          int wire);
  template <class R>
  std::vector<cplx> state_in_order_impl(const GatherTable& table) const;
  template <class R>
  std::uint64_t sample_in_order_impl(const GatherTable& table, real u) const;
  template <class R>
  real norm_impl() const;
  template <class R>
  void normalize_impl();

  Precision prec_ = Precision::F64;
  Arena<double> amps_;
  Arena<double> scratch_;  // measurement write-pass ping-pong buffer
  Arena<float> amps32_;    // f32 storage (prec_ == F32 only)
  Arena<float> scratch32_;
  std::vector<int> order_;     // wire id per bit position
  // wire id -> bit position, -1 = not live.  A flat vector instead of a
  // hash map: position() is on every kernel's setup path, and map node
  // churn was the last steady-state allocation in the shot loop.
  std::vector<std::int32_t> pos_;
  int peak_live_ = 0;

  // Running Σ|amp|² in the kernels' canonical fold order — bitwise equal
  // to what a fresh kernels().fold_norms pass would compute, which is
  // the ONLY reason a sampled measurement may reuse it (Born
  // probabilities stay bit-identical).  Maintained by the fused kernels
  // and the measure collapses; sign passes (Z, CZ, Pauli-Z) keep it
  // valid untouched.  apply_rz also keeps it usable: the phase preserves
  // every |amp|² mathematically but re-rounds the squares, so after an
  // rz the fold is within an ulp of (not bitwise equal to) a fresh pass
  // — acceptable because no cross-path comparison ever runs through
  // apply_rz (pattern execution lowers rotations into measurement
  // angles).  Everything else invalidates it.
  real fold_ = 1.0;
  bool fold_valid_ = true;
};

}  // namespace mbq
