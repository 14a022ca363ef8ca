#pragma once
// Compile-once / run-many pattern execution — the MBQC sampling hot path.
//
// mbqc::run re-validates the pattern, re-walks the std::variant command
// list and rebuilds every measurement basis matrix on every shot.  For
// repeated-shot workloads (Session::sample, the measurement-driven QAOA
// outer loop) that per-pattern work is pure overhead: CompiledPattern
// pays it ONCE, lowering the command list into a flat op tape with
//   * wire ids renamed to dense slots in first-use order,
//   * signal domains flattened into index ranges over one shared pool,
//   * both sign variants ((-1)^s · angle) of every fixed-angle
//     measurement basis prebuilt — at runtime an adaptive measurement
//     is a branch-free table pick, not a Matrix construction,
//   * FUSED ops where the command stream allows it: a prep and its
//     trailing CZs collapse into one amplitude pass; the paper's gadget
//     blocks (N; E...; M of the fresh wire) become a single op that
//     never materializes the doubled register; runs of X/Z corrections
//     compose into one Pauli-product pass.
// A PatternExecutor then replays the tape against a single
// DynamicStatevector arena (reset in place between shots, so the
// steady-state shot loop allocates nothing) and draws from the Rng in
// exactly the order the interpreter does: outcome streams are
// bit-identical to mbqc::run_interpreted for equal seeds (the fused
// kernels evaluate the same sums in the same canonical order — see
// sim/dynamic_statevector).  Every amplitude sweep underneath runs on
// the runtime-dispatched SIMD kernel table (sim/collapse_kernels.h);
// the MBQ_SIMD flavor choice is bitwise invisible in every result.
//
// Angle-parametric execution keeps its thunk at a different layer: the
// pattern itself is compiled per angle point by core::compile_qaoa, and
// api::Session's prepare-cache stores the CompiledPattern per point.

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "mbq/common/rng.h"
#include "mbq/mbqc/pattern.h"
#include "mbq/mbqc/runner.h"
#include "mbq/sim/dynamic_statevector.h"

namespace mbq::mbqc {

/// A Pattern validated once and lowered to an immutable flat op tape.
/// Safe to share (by const reference / shared_ptr) across threads; all
/// mutable execution state lives in PatternExecutor.
class CompiledPattern {
 public:
  /// Validates `p` (throws Error on structural violations) and lowers it.
  explicit CompiledPattern(const Pattern& p);

  int num_measurements() const noexcept { return num_measurements_; }
  /// Distinct wires, i.e. the dense slot count.
  int num_slots() const noexcept { return num_slots_; }
  /// Ops on the tape (<= the source command count: fusion only merges).
  int num_ops() const noexcept { return static_cast<int>(tape_.size()); }
  /// Original output wire ids, in pattern order.
  const std::vector<int>& output_wires() const noexcept {
    return output_wires_;
  }
  /// Widest register any run of this tape reaches, computed once at
  /// lowering: equal to the peak_live every PatternExecutor run reports
  /// (a fused gadget or teleport block counts its fresh wire, which a
  /// noisy run materializes).
  int peak_live() const noexcept { return peak_live_; }
  /// Bytes one PatternExecutor arena holds at peak: the amplitude
  /// buffer and its ping-pong scratch, each 2^peak_live amplitudes of
  /// precision `p`.  api::Session weighs this against the last-level
  /// cache to choose shot-level or kernel-level threads.
  std::uint64_t arena_bytes(Precision p) const noexcept {
    const std::uint64_t amp = p == Precision::F64 ? sizeof(cplx)
                                                  : sizeof(cplxf);
    return 2 * (std::uint64_t{1} << peak_live_) * amp;
  }

 private:
  friend class PatternExecutor;

  enum class OpKind : std::uint8_t {
    Prep,            // a = slot
    PrepCz,          // prep a + CZ against pairs[p_begin, p_end)
    PrepCzMeasure,   // as PrepCz, then measure a itself (gadget block)
    PrepCzTeleport,  // as PrepCz, then measure OTHER wire b (J step)
    Entangle,        // a, b
    CzGroup,         // CZs pairs[p_begin, p_end), one sign pass
    Measure,         // a, meas, s/t ranges
    PauliGroup,      // corrections pauli[p_begin, p_end), one pass
  };

  struct Op {
    OpKind kind;
    std::int32_t a = 0;      // slot: prep/measure wire; entangle lhs
    std::int32_t b = 0;      // entangle rhs slot
    std::int32_t meas = -1;  // measurement index == recorded signal id
    std::uint32_t s_begin = 0, s_end = 0;  // measure s-domain
    std::uint32_t t_begin = 0, t_end = 0;  // measure t-domain
    std::uint32_t p_begin = 0, p_end = 0;  // pair_pool_ / pauli_pool_ range
  };

  /// One source E command, in original order (the order matters for the
  /// entangler-noise rng stream, which draws per command).
  struct CzPair {
    std::int32_t a, b;
  };

  /// One source X/Z correction inside a PauliGroup.
  struct Correction {
    std::uint8_t is_z;
    std::int32_t slot;
    std::int32_t wire;  // original id, for pending_x/z reporting
    std::uint32_t d_begin, d_end;
  };

  int eval_signals(std::uint32_t begin, std::uint32_t end,
                   const std::vector<int>& outcomes) const noexcept {
    int acc = 0;
    for (std::uint32_t i = begin; i < end; ++i)
      acc ^= outcomes[static_cast<std::size_t>(signal_pool_[i])];
    return acc;
  }

  std::vector<Op> tape_;
  std::vector<signal_t> signal_pool_;  // all domains, flattened
  std::vector<CzPair> pair_pool_;      // PrepCz / CzGroup endpoints
  std::vector<Correction> pauli_pool_;
  std::vector<Matrix> basis_pos_;  // per measurement: s = 0 basis
  std::vector<Matrix> basis_neg_;  // per measurement: s = 1 basis
  std::vector<int> input_wires_;   // original ids, declaration order
  std::vector<int> input_slots_;
  std::vector<int> output_wires_;
  std::vector<int> output_slots_;
  int num_measurements_ = 0;
  int num_slots_ = 0;
  int peak_live_ = 0;
};

/// Per-executor knobs: RunOptions minus `forced`, which is a per-run
/// argument (PatternExecutor::run_forced).
struct ExecOptions {
  /// Apply X/Z correction commands (true) or record the byproducts in
  /// RunResult::pending_x/pending_z instead.
  bool apply_corrections = true;
  /// Initial states for input wires, keyed by ORIGINAL wire id.
  std::unordered_map<int, std::pair<cplx, cplx>> input_states;
  /// Depolarizing noise after every E command (see RunOptions).
  /// Incompatible with run_forced.  Noisy runs take the per-command
  /// (unfused) execution path so the rng stream matches the interpreter
  /// draw for draw.
  real entangler_noise = 0.0;
  /// Statevector storage precision of the executor arena (see
  /// sim/dynamic_statevector.h).  F32 runs are deterministic within the
  /// precision but NOT bit-comparable to F64 runs.
  Precision precision = Precision::F64;

  /// Whole-struct comparison keeps thread_local_executor's staleness
  /// check honest when fields are added here.
  friend bool operator==(const ExecOptions&, const ExecOptions&) = default;
};

/// Replays a CompiledPattern's tape; owns the DynamicStatevector arena
/// and reuses it across runs.  One executor per thread — runs mutate the
/// arena.  The compiled pattern is held by shared_ptr so cached
/// executors can never outlive their tape.
class PatternExecutor {
 public:
  explicit PatternExecutor(std::shared_ptr<const CompiledPattern> compiled,
                           ExecOptions options = {});

  const CompiledPattern& compiled() const noexcept { return *compiled_; }
  const ExecOptions& options() const noexcept { return options_; }

  /// One Born-rule execution; rng consumption is bit-identical to
  /// run_interpreted on the source pattern.
  RunResult run(Rng& rng);

  /// One Born-rule execution followed by a computational-basis readout
  /// of the output register, sampled STRAIGHT from the arena — the
  /// gathered output_state copy (a per-shot allocation) never exists.
  /// Bit-identical to run() + the cumulative walk over output_state.
  /// The recorded measurement outcomes stay readable via last_outcomes()
  /// until the next execution.
  struct SampledShot {
    std::uint64_t x = 0;
    int peak_live = 0;
  };
  SampledShot run_sample(Rng& rng);

  /// Outcomes of the most recent execution (any entry point).
  const std::vector<int>& last_outcomes() const noexcept { return outcomes_; }

  /// Execute with every RAW outcome forced: measurement i takes
  /// forced[i] in {0, 1}.  Requires entangler_noise == 0 — noise draws
  /// would change branch statistics, the foot-gun run_all_branches used
  /// to leave open.
  RunResult run_forced(const std::vector<int>& forced);

  /// Forced outcomes packed as bits: measurement i takes bit i of
  /// `branch` (the run_all_branches enumeration order).
  RunResult run_forced(std::uint64_t branch);

  /// Replay `compiled` from now on, keeping the warm arena.  Every run
  /// starts from a reset register, so results equal a fresh executor's.
  void rebind(std::shared_ptr<const CompiledPattern> compiled);

 private:
  RunResult execute(Rng* rng, const int* forced, bool gather_output = true);

  std::shared_ptr<const CompiledPattern> compiled_;
  ExecOptions options_;
  DynamicStatevector dsv_;
  std::vector<int> outcomes_;
  std::vector<int> forced_bits_;  // scratch for the branch overload
  // Output-readout gather table, cached across shots: the output slots
  // are fixed per compiled pattern, so refreshing the table against the
  // final wire layout reuses its storage — this is what closed the last
  // per-shot heap allocation in run_sample (the old sample_in_order
  // overload built src/flip vectors on every call).
  DynamicStatevector::GatherTable gather_;
};

/// The executor for `compiled` cached on the CURRENT thread.  Parallel
/// shot loops call this per shot: each worker keeps one warm arena for
/// the pattern it is currently running, which is what makes
/// Session::sample allocation-free in steady state.  Swapping to a
/// pattern of the same peak_live — the variational loop's next angle
/// point on the same graph — rebinds the executor and keeps the warm
/// arena; a different peak_live or different ExecOptions (e.g. another
/// entangler_noise) rebuilds it, and the arena restarts cold.
/// input_states are not supported through this cache (they would
/// silently leak between callers); construct a PatternExecutor directly
/// for those.  Retention: each thread pins ONE tape + arena (the
/// pattern it last ran, arena_bytes() of it) until the next pattern
/// replaces it — bounded by thread count, but it does outlive the
/// owning Session.  Arenas too large to run side by side in the
/// last-level cache are only built on the thread that calls into
/// api::Session, which then runs the shots one at a time on kernel
/// threads; pool threads keep small arenas only.
PatternExecutor& thread_local_executor(
    const std::shared_ptr<const CompiledPattern>& compiled,
    const ExecOptions& options = {});

}  // namespace mbq::mbqc
