// Compiled pattern executor: exhaustive forced-branch equivalence with
// the enumeration wrapper and the interpreted reference on every pattern
// shape the repo generates, bit-identical sampled outcome streams, the
// forced-run/noise foot-gun, and arena-reuse determinism.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <vector>

#include "mbq/api/api.h"
#include "mbq/common/bits.h"
#include "mbq/common/parallel.h"
#include "mbq/common/rng.h"
#include "mbq/core/compiler.h"
#include "mbq/graph/generators.h"
#include "mbq/mbqc/compiled.h"
#include "mbq/mbqc/runner.h"
#include "mbq/qaoa/qaoa.h"
#include "mbq/sim/collapse_threaded.h"

// --- global allocation counter ----------------------------------------
// Replaces the global operator new/delete for THIS test binary so the
// zero-steady-state-allocation contract of the shot loop is a tested
// invariant, not a comment.  Counting is monotonic; tests snapshot the
// counter around the region that must not allocate.
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mbq::mbqc {
namespace {

struct Shape {
  std::string name;
  Pattern pattern;
};

Pattern j_pattern(real alpha) {
  Pattern p;
  p.add_prep(0);
  p.add_prep(1);
  p.add_entangle(0, 1);
  const signal_t m = p.add_measure(0, MeasBasis::XY, -alpha);
  p.add_correct_x(1, SignalExpr(m));
  p.set_outputs({1});
  return p;
}

Pattern zz_gadget(real theta) {
  Pattern p;
  p.add_prep(0);
  p.add_prep(1);
  p.add_prep(2);
  p.add_entangle(0, 2);
  p.add_entangle(1, 2);
  const signal_t m = p.add_measure(2, MeasBasis::YZ, theta);
  p.add_correct_z(0, SignalExpr(m));
  p.add_correct_z(1, SignalExpr(m));
  p.set_outputs({0, 1});
  return p;
}

/// One compiled QAOA pattern per graph generator family (p = 1 keeps the
/// measurement count within exhaustive-enumeration range), plus the
/// hand-built gadget shapes the runner tests use.
std::vector<Shape> shape_patterns() {
  Rng rng(7);
  const qaoa::Angles a = qaoa::Angles::random(1, rng);
  std::vector<Shape> shapes;
  auto add_qaoa = [&](const std::string& name, const Graph& g) {
    const auto cost = qaoa::CostHamiltonian::maxcut(g);
    shapes.push_back({name, core::compile_qaoa(cost, a).pattern});
  };
  add_qaoa("path4", path_graph(4));
  add_qaoa("cycle4", cycle_graph(4));
  add_qaoa("complete3", complete_graph(3));
  add_qaoa("star4", star_graph(4));
  add_qaoa("grid2x2", grid_graph(2, 2));
  add_qaoa("bipartite22", complete_bipartite_graph(2, 2));
  add_qaoa("gnm44", random_gnm_graph(4, 4, rng));
  shapes.push_back({"j", j_pattern(0.71)});
  shapes.push_back({"zz", zz_gadget(0.77)});
  return shapes;
}

void expect_same_result(const RunResult& want, const RunResult& got,
                        const std::string& context) {
  ASSERT_EQ(want.outcomes, got.outcomes) << context;
  EXPECT_EQ(want.peak_live, got.peak_live) << context;
  ASSERT_EQ(want.output_state.size(), got.output_state.size()) << context;
  for (std::size_t i = 0; i < want.output_state.size(); ++i)
    ASSERT_LT(std::abs(want.output_state[i] - got.output_state[i]), 1e-12)
        << context << " amplitude " << i;
  EXPECT_EQ(want.pending_x, got.pending_x) << context;
  EXPECT_EQ(want.pending_z, got.pending_z) << context;
}

TEST(CompiledPattern, ForcedBranchEquivalenceAcrossShapes) {
  for (const Shape& shape : shape_patterns()) {
    const Pattern& p = shape.pattern;
    const int m = p.num_measurements();
    ASSERT_LE(m, 12) << shape.name << " outgrew exhaustive enumeration";
    const auto branches = run_all_branches(p, 12);
    ASSERT_EQ(branches.size(), std::size_t{1} << m) << shape.name;

    PatternExecutor executor(std::make_shared<const CompiledPattern>(p));
    Rng unused(0);
    for (std::uint64_t b = 0; b < branches.size(); ++b) {
      // Exercise a few full comparisons per shape and spot-check the
      // rest on outcomes (the state comparison is the expensive part).
      const RunResult forced = executor.run_forced(b);
      ASSERT_EQ(branches[b].outcomes, forced.outcomes)
          << shape.name << " branch " << b;
      if (b % 17 != 0) continue;
      expect_same_result(branches[b], forced,
                         shape.name + " branch " + std::to_string(b));
      // Differential against the interpreted reference.
      RunOptions opt;
      opt.forced.resize(m);
      for (int i = 0; i < m; ++i) opt.forced[i] = get_bit(b, i);
      expect_same_result(run_interpreted(p, unused, opt), forced,
                         shape.name + " vs interpreter, branch " +
                             std::to_string(b));
    }
  }
}

TEST(CompiledPattern, SampledStreamsBitIdenticalToInterpreter) {
  Rng setup(11);
  const Graph g = random_gnm_graph(5, 6, setup);
  const auto cost = qaoa::CostHamiltonian::maxcut(g);
  const qaoa::Angles a = qaoa::Angles::random(2, setup);
  const Pattern p = core::compile_qaoa(cost, a).pattern;

  for (const std::uint64_t seed : {0ULL, 1ULL, 42ULL}) {
    Rng interpreted_rng(seed);
    Rng compiled_rng(seed);
    PatternExecutor executor(std::make_shared<const CompiledPattern>(p));
    for (int rep = 0; rep < 16; ++rep) {
      const RunResult want = run_interpreted(p, interpreted_rng);
      const RunResult got = executor.run(compiled_rng);
      ASSERT_EQ(want.outcomes, got.outcomes)
          << "seed " << seed << " rep " << rep;
      ASSERT_EQ(want.output_state, got.output_state)
          << "seed " << seed << " rep " << rep;
      EXPECT_EQ(want.peak_live, got.peak_live);
    }
  }
}

TEST(CompiledPattern, SampledStreamsBitIdenticalWithNoise) {
  const Pattern p = zz_gadget(1.23);
  for (const std::uint64_t seed : {0ULL, 1ULL, 42ULL}) {
    Rng interpreted_rng(seed);
    Rng compiled_rng(seed);
    RunOptions opt;
    opt.entangler_noise = 0.35;
    ExecOptions exec;
    exec.entangler_noise = 0.35;
    PatternExecutor executor(std::make_shared<const CompiledPattern>(p), exec);
    for (int rep = 0; rep < 64; ++rep) {
      const RunResult want = run_interpreted(p, interpreted_rng, opt);
      const RunResult got = executor.run(compiled_rng);
      ASSERT_EQ(want.outcomes, got.outcomes)
          << "seed " << seed << " rep " << rep;
      ASSERT_EQ(want.output_state, got.output_state)
          << "seed " << seed << " rep " << rep;
    }
  }
}

TEST(CompiledPattern, SessionSamplingInvariantAcrossThreadCounts) {
  Rng setup(5);
  const Graph g = random_gnm_graph(6, 8, setup);
  const api::Workload workload = api::Workload::maxcut(g);
  const qaoa::Angles a = qaoa::Angles::random(2, setup);

  for (const std::string backend : {"mbqc", "mbqc-classical"}) {
    std::vector<std::vector<std::uint64_t>> per_thread_count;
    for (const int threads : {1, 2, 8}) {
      set_num_threads(threads);
      api::Session session(workload, backend, {.seed = 99});
      const api::SampleResult r = session.sample(a, 96);
      std::vector<std::uint64_t> xs;
      xs.reserve(r.shots.size());
      for (const api::Shot& s : r.shots) xs.push_back(s.x);
      per_thread_count.push_back(std::move(xs));
    }
    set_num_threads(0);
    ASSERT_EQ(per_thread_count[0], per_thread_count[1]) << backend;
    ASSERT_EQ(per_thread_count[0], per_thread_count[2]) << backend;
  }
}

TEST(CompiledPattern, ForcedRunsRejectEntanglerNoise) {
  const Pattern p = j_pattern(0.3);
  ExecOptions noisy;
  noisy.entangler_noise = 0.1;
  PatternExecutor executor(std::make_shared<const CompiledPattern>(p), noisy);
  // Sampling with noise is fine...
  Rng rng(1);
  EXPECT_NO_THROW(executor.run(rng));
  // ...forcing a branch under noise is the foot-gun and must throw.
  EXPECT_THROW(executor.run_forced(std::uint64_t{0}), Error);
  EXPECT_THROW(executor.run_forced(std::vector<int>{0}), Error);

  // Same guard on the enumeration wrapper's base options.
  RunOptions base;
  base.entangler_noise = 0.1;
  EXPECT_THROW(run_all_branches(p, 12, base), Error);
  RunOptions forced_base;
  forced_base.forced = {0};
  EXPECT_THROW(run_all_branches(p, 12, forced_base), Error);
  // run() keeps the historical check for the combined options.
  RunOptions both;
  both.forced = {0};
  both.entangler_noise = 0.1;
  EXPECT_THROW(run(p, rng, both), Error);
}

TEST(CompiledPattern, ForcedSizeAndRangeChecked) {
  const Pattern p = j_pattern(0.4);
  PatternExecutor executor(std::make_shared<const CompiledPattern>(p));
  EXPECT_THROW(executor.run_forced(std::vector<int>{0, 1}), Error);
  EXPECT_THROW(executor.run_forced(std::vector<int>{2}), Error);
  EXPECT_NO_THROW(executor.run_forced(std::vector<int>{1}));
}

TEST(CompiledPattern, RunSampleMatchesGatheredReadout) {
  Rng setup(21);
  const Graph g = random_gnm_graph(5, 7, setup);
  const auto cost = qaoa::CostHamiltonian::maxcut(g);
  const qaoa::Angles a = qaoa::Angles::random(2, setup);
  const Pattern p = core::compile_qaoa(cost, a).pattern;
  auto compiled = std::make_shared<const CompiledPattern>(p);

  // run_sample must be bit-identical to run() followed by the cumulative
  // walk over the gathered output_state (the readout MbqcBackend used to
  // perform on the copy).
  PatternExecutor reference(compiled);
  PatternExecutor sampled(compiled);
  Rng r1(7), r2(7);
  for (int rep = 0; rep < 64; ++rep) {
    const RunResult want = reference.run(r1);
    real u = r1.uniform();
    std::uint64_t x = 0;
    for (std::uint64_t i = 0; i < want.output_state.size(); ++i) {
      u -= std::norm(want.output_state[i]);
      if (u <= 0.0) {
        x = i;
        break;
      }
      if (i + 1 == want.output_state.size()) x = i;
    }
    const PatternExecutor::SampledShot got = sampled.run_sample(r2);
    ASSERT_EQ(x, got.x) << "rep " << rep;
    ASSERT_EQ(want.outcomes, sampled.last_outcomes()) << "rep " << rep;
    EXPECT_EQ(want.peak_live, got.peak_live);
  }
}

TEST(CompiledPattern, ArenaReuseIsDeterministic) {
  Rng setup(3);
  const auto cost = qaoa::CostHamiltonian::maxcut(cycle_graph(5));
  const qaoa::Angles a = qaoa::Angles::random(1, setup);
  const Pattern p = core::compile_qaoa(cost, a).pattern;
  auto compiled = std::make_shared<const CompiledPattern>(p);

  // The same executor re-run from an equal seed replays the identical
  // trajectory: reset-in-place leaks no state between runs.
  PatternExecutor reused(compiled);
  Rng r1(17), r2(17);
  std::vector<RunResult> first, second;
  for (int i = 0; i < 8; ++i) first.push_back(reused.run(r1));
  for (int i = 0; i < 8; ++i) second.push_back(reused.run(r2));
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(first[i].outcomes, second[i].outcomes) << i;
    ASSERT_EQ(first[i].output_state, second[i].output_state) << i;
    ASSERT_EQ(first[i].peak_live, second[i].peak_live) << i;
  }
  // And matches a fresh executor per run.
  Rng r3(17);
  for (int i = 0; i < 8; ++i) {
    PatternExecutor fresh(compiled);
    const RunResult got = fresh.run(r3);
    ASSERT_EQ(first[i].outcomes, got.outcomes) << i;
    ASSERT_EQ(first[i].output_state, got.output_state) << i;
  }
}

TEST(CompiledPattern, InputStatesAndPendingByproducts) {
  // Input wires keep their caller-facing ids (the executor renames wires
  // to dense slots internally), and skipped corrections report pending
  // byproducts keyed by the ORIGINAL wire ids.
  Pattern p;
  p.add_input(5);
  p.add_prep(9);
  p.add_entangle(5, 9);
  const signal_t m = p.add_measure(5, MeasBasis::XY, -0.33);
  p.add_correct_x(9, SignalExpr(m));
  p.set_outputs({9});

  RunOptions opt;
  opt.apply_corrections = false;
  opt.input_states[5] = {cplx{0.6, 0.0}, cplx{0.0, 0.8}};
  opt.forced = {1};
  Rng unused(2);
  const RunResult want = run_interpreted(p, unused, opt);

  ExecOptions exec;
  exec.apply_corrections = false;
  exec.input_states = opt.input_states;
  PatternExecutor executor(std::make_shared<const CompiledPattern>(p), exec);
  const RunResult got = executor.run_forced(std::uint64_t{1});
  ASSERT_EQ(want.outcomes, got.outcomes);
  ASSERT_EQ(want.output_state, got.output_state);
  EXPECT_EQ(got.pending_x.at(9), 1);
  EXPECT_EQ(want.pending_x, got.pending_x);
  EXPECT_EQ(want.pending_z, got.pending_z);
}

TEST(CompiledPattern, LoweringStatistics) {
  const Pattern p = zz_gadget(0.5);
  const CompiledPattern compiled(p);
  EXPECT_EQ(compiled.num_measurements(), 1);
  EXPECT_EQ(compiled.num_slots(), 3);
  // Fusion merges the two leading preps (one arena fill), the gadget
  // block (N;E;E;M -> one op) and the terminal correction pair: 8
  // source commands lower to 3 tape ops.
  EXPECT_LE(compiled.num_ops(), static_cast<int>(p.commands().size()));
  EXPECT_EQ(compiled.num_ops(), 3);
  EXPECT_EQ(compiled.output_wires(), p.outputs());
  // Invalid patterns are rejected at compile time, not per run.
  Pattern bad;
  bad.add_entangle(0, 1);  // wires never prepared
  bad.set_outputs({});
  EXPECT_THROW(CompiledPattern{bad}, Error);
}

TEST(CompiledPattern, StaticPeakLiveMatchesEveryRun) {
  // peak_live() is computed once at lowering; every run, plain or noisy
  // (which materializes the fused blocks' fresh wire), must report it.
  // The executor allocates its arena once, at arena_bytes(options): the
  // arena and scratch buffers hold exactly that after every run, in
  // either precision, and only noisy runs need 2^peak_live amplitudes.
  for (const Shape& shape : shape_patterns()) {
    const auto compiled = std::make_shared<const CompiledPattern>(shape.pattern);
    for (Precision prec : {Precision::F64, Precision::F32}) {
      const ExecOptions plain_options{.precision = prec};
      const ExecOptions noisy_options{.entangler_noise = 0.2,
                                      .precision = prec};
      PatternExecutor plain(compiled, plain_options);
      PatternExecutor noisy(compiled, noisy_options);
      Rng rng(11);
      for (int shot = 0; shot < 4; ++shot) {
        EXPECT_EQ(plain.run_sample(rng).peak_live, compiled->peak_live())
            << shape.name;
        EXPECT_EQ(noisy.run_sample(rng).peak_live, compiled->peak_live())
            << shape.name;
        EXPECT_EQ(plain.arena_bytes(), compiled->arena_bytes(plain_options))
            << shape.name << " shot " << shot;
        EXPECT_EQ(noisy.arena_bytes(), compiled->arena_bytes(noisy_options))
            << shape.name << " shot " << shot;
      }
      EXPECT_EQ(plain.run(rng).peak_live, compiled->peak_live());
      EXPECT_EQ(plain.arena_bytes(), compiled->arena_bytes(plain_options))
          << shape.name;
      const std::uint64_t amp =
          prec == Precision::F64 ? sizeof(cplx) : sizeof(cplxf);
      const std::uint64_t peak_dim = std::uint64_t{1} << compiled->peak_live();
      EXPECT_EQ(compiled->arena_bytes(noisy_options), 2 * peak_dim * amp)
          << shape.name;
      const int resident = compiled->arena_width(plain_options);
      EXPECT_GE(resident, compiled->peak_live() - 1) << shape.name;
      EXPECT_LE(resident, compiled->peak_live()) << shape.name;
      EXPECT_EQ(compiled->arena_bytes(plain_options),
                2 * (std::uint64_t{1} << resident) * amp)
          << shape.name;
    }
  }
  // The zz gadget fuses to one op whose fresh wire sits on top of the
  // two-wire register: a noiseless run never builds the third wire.
  const CompiledPattern zz(zz_gadget(0.5));
  EXPECT_EQ(zz.peak_live(), 3);
  EXPECT_EQ(zz.arena_width({}), 2);
  EXPECT_EQ(zz.arena_width({.entangler_noise = 0.1}), 3);
}

TEST(CompiledPattern, SteadyStateShotLoopAllocatesNothing) {
  // The executor's documented contract: once the arena, the outcome
  // buffer and the cached readout gather table have reached their
  // steady-state capacity, run_sample performs ZERO heap allocations
  // per shot.  This regression test is what caught the per-call
  // state_in_order/sample_in_order table builds.
  Rng rng(31);
  const qaoa::Angles angles = qaoa::Angles::random(2, rng);
  const auto cost = qaoa::CostHamiltonian::maxcut(cycle_graph(8));
  const auto compiled = std::make_shared<const CompiledPattern>(
      core::compile_qaoa(cost, angles).pattern);
  PatternExecutor exec(compiled);
  for (int shot = 0; shot < 5; ++shot) exec.run_sample(rng);  // warm up
  const std::uint64_t before = g_alloc_count.load();
  std::uint64_t sink = 0;
  for (int shot = 0; shot < 50; ++shot) sink ^= exec.run_sample(rng).x;
  const std::uint64_t after = g_alloc_count.load();
  EXPECT_EQ(after - before, 0u) << "sink " << sink;
}

TEST(CompiledPattern, ThreadLocalExecutorKeepsArenaAcrossAnglePoints) {
  // A variational loop alternates angle points on one graph: the
  // patterns share their peak_live, so the thread's executor is rebound
  // instead of rebuilt, and alternating allocates nothing once warm.
  // Each shot still equals a fresh executor's.
  Rng rng(37);
  const auto cost = qaoa::CostHamiltonian::maxcut(cycle_graph(8));
  std::vector<std::shared_ptr<const CompiledPattern>> points;
  for (int k = 0; k < 2; ++k)
    points.push_back(std::make_shared<const CompiledPattern>(
        core::compile_qaoa(cost, qaoa::Angles::random(2, rng)).pattern));
  ASSERT_EQ(points[0]->peak_live(), points[1]->peak_live());
  PatternExecutor* first = &thread_local_executor(points[0]);
  EXPECT_EQ(&thread_local_executor(points[1]), first);
  for (int shot = 0; shot < 4; ++shot)
    thread_local_executor(points[shot % 2]).run_sample(rng);  // warm up
  const std::uint64_t before = g_alloc_count.load();
  std::uint64_t sink = 0;
  for (int shot = 0; shot < 20; ++shot)
    sink ^= thread_local_executor(points[shot % 2]).run_sample(rng).x;
  EXPECT_EQ(g_alloc_count.load() - before, 0u) << "sink " << sink;
  for (int k = 0; k < 2; ++k) {
    Rng a(100 + k), b(100 + k);
    PatternExecutor fresh(points[k]);
    EXPECT_EQ(thread_local_executor(points[k]).run_sample(a).x,
              fresh.run_sample(b).x);
    EXPECT_EQ(thread_local_executor(points[k]).last_outcomes(),
              fresh.last_outcomes());
  }
}

TEST(CompiledPattern, RebindOverAStaleArenaMatchesAFreshExecutor) {
  // The arena grows without zero-filling, so after a shot of another
  // pattern it holds that shot's amplitudes.  A rebound executor's next
  // shot must still equal a fresh executor's: outcomes and every bit of
  // the output state, in both precisions, on registers below and above
  // the chunk cutoff, at one and two kernel threads.
  struct ThreadGuard {
    int saved = thr::kernel_threads();
    ~ThreadGuard() { thr::set_kernel_threads(saved); }
  } guard;
  for (int n : {8, 14}) {
    Rng graph_rng(static_cast<std::uint64_t>(n));
    const auto cost =
        qaoa::CostHamiltonian::maxcut(random_regular_graph(n, 3, graph_rng));
    const auto a = std::make_shared<const CompiledPattern>(
        core::compile_qaoa(cost, qaoa::Angles({0.3}, {0.9})).pattern);
    const auto b = std::make_shared<const CompiledPattern>(
        core::compile_qaoa(cost, qaoa::Angles({0.7}, {0.2})).pattern);
    ASSERT_EQ(a->peak_live(), b->peak_live());
    for (Precision prec : {Precision::F64, Precision::F32}) {
      for (int t : {1, 2}) {
        thr::set_kernel_threads(t);
        ExecOptions options;
        options.precision = prec;
        PatternExecutor reused(a, options);
        Rng warm(5);
        reused.run(warm);  // leaves pattern a's amplitudes in the arena
        reused.rebind(b);
        PatternExecutor fresh(b, options);
        for (std::uint64_t seed : {41u, 42u}) {
          SCOPED_TRACE("n=" + std::to_string(n) + " " +
                       precision_name(prec) + " threads=" +
                       std::to_string(t) + " seed=" + std::to_string(seed));
          Rng r1(seed), r2(seed);
          const RunResult got = reused.run(r1);
          const RunResult want = fresh.run(r2);
          EXPECT_EQ(got.outcomes, want.outcomes);
          ASSERT_EQ(got.output_state.size(), want.output_state.size());
          EXPECT_EQ(std::memcmp(got.output_state.data(),
                                want.output_state.data(),
                                want.output_state.size() * sizeof(cplx)),
                    0);
        }
      }
    }
  }
}

TEST(CompiledPattern, SteadyStateShotLoopAllocatesNothingWithThreads) {
  // Same contract with the kernel thread knob engaged: the knob must
  // not cost the shot loop its zero-allocation property.
  struct ThreadGuard {
    int saved = thr::kernel_threads();
    ~ThreadGuard() { thr::set_kernel_threads(saved); }
  } guard;
  thr::set_kernel_threads(2);
  Rng rng(31);
  const qaoa::Angles angles = qaoa::Angles::random(2, rng);
  const auto cost = qaoa::CostHamiltonian::maxcut(cycle_graph(6));
  const auto compiled = std::make_shared<const CompiledPattern>(
      core::compile_qaoa(cost, angles).pattern);
  PatternExecutor exec(compiled);
  for (int shot = 0; shot < 5; ++shot) exec.run_sample(rng);  // warm up
  const std::uint64_t before = g_alloc_count.load();
  std::uint64_t sink = 0;
  for (int shot = 0; shot < 50; ++shot) sink ^= exec.run_sample(rng).x;
  const std::uint64_t after = g_alloc_count.load();
  EXPECT_EQ(after - before, 0u) << "sink " << sink;
}

TEST(CompiledPattern, ChunkedThreadedSweepsAllocateNothingInSteadyState) {
  // The chunked drivers themselves: a 15-wire register (2^15 amps, above
  // the chunk cutoff) driven through in-place sweeps and re-folds with
  // two kernel threads.  The chunk-partial slots grow on first use —
  // warmed up before the counted region — after which a steady-state
  // pass performs ZERO heap allocations.  (OpenMP-runtime internals use
  // malloc, not operator new, and are deliberately outside this
  // counter; the contract here is about OUR per-sweep buffers.)
  struct ThreadGuard {
    int saved = thr::kernel_threads();
    ~ThreadGuard() { thr::set_kernel_threads(saved); }
  } guard;
  thr::set_kernel_threads(2);
  DynamicStatevector dsv;
  for (int w = 0; w < 15; ++w) dsv.add_wire(w);
  const std::uint64_t masks[2] = {0b11, (std::uint64_t{1} << 14) | 0b100};
  auto sweep = [&] {
    dsv.apply_cz_masks(masks, 2);
    dsv.apply_rz(4, 0.37);
    dsv.apply_pauli_masks(std::uint64_t{1} << 3, std::uint64_t{1} << 9,
                          false);
    dsv.normalize();  // full chunked fold + scale
  };
  sweep();
  sweep();  // warm up the chunk-partial slots
  const std::uint64_t before = g_alloc_count.load();
  for (int i = 0; i < 8; ++i) sweep();
  EXPECT_EQ(g_alloc_count.load() - before, 0u);
}

}  // namespace
}  // namespace mbq::mbqc
