// Runtime-dispatched SIMD collapse kernels: randomized scalar-vs-vector
// bitwise differentials on every table entry, end-to-end bit-identity of
// amplitudes / outcome streams / norm folds across every ISA this host
// can run (with a forced-scalar leg that exists on every host), and the
// MBQ_SIMD parse / reject-at-dispatch behavior.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "mbq/common/bits.h"
#include "mbq/common/cpu.h"
#include "mbq/common/error.h"
#include "mbq/common/rng.h"
#include "mbq/core/compiler.h"
#include "mbq/graph/generators.h"
#include "mbq/mbqc/compiled.h"
#include "mbq/qaoa/qaoa.h"
#include "mbq/sim/collapse_kernels.h"
#include "mbq/sim/collapse_threaded.h"
#include "mbq/sim/dynamic_statevector.h"

namespace mbq {
namespace {

std::uint64_t bits(double d) {
  std::uint64_t u;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

bool same_fold(double a, double b) { return bits(a) == bits(b); }
bool same_bits(double a, double b) { return same_fold(a, b); }

bool same_bits(const cplx& a, const cplx& b) {
  return same_bits(a.real(), b.real()) && same_bits(a.imag(), b.imag());
}

::testing::AssertionResult buffers_bit_equal(const std::vector<cplx>& want,
                                             const std::vector<cplx>& got) {
  if (want.size() != got.size())
    return ::testing::AssertionFailure()
           << "size " << got.size() << " != " << want.size();
  for (std::size_t i = 0; i < want.size(); ++i)
    if (!same_bits(want[i], got[i]))
      return ::testing::AssertionFailure()
             << "amplitude " << i << ": (" << got[i].real() << ", "
             << got[i].imag() << ") != (" << want[i].real() << ", "
             << want[i].imag() << ")";
  return ::testing::AssertionSuccess();
}

/// Restores the process-global kernel table no matter how a test exits.
struct IsaGuard {
  SimdIsa saved;
  IsaGuard() : saved(active_simd_isa()) {}
  ~IsaGuard() { force_simd_isa(saved); }
};

std::vector<cplx> random_amps(Rng& rng, std::size_t n) {
  std::vector<cplx> v(n);
  for (auto& a : v)
    a = cplx{rng.uniform() * 2.0 - 1.0, rng.uniform() * 2.0 - 1.0};
  return v;
}

cplx random_eff(Rng& rng, int kind_sel) {
  const double r = rng.uniform() * 2.0 - 1.0;
  const double i = rng.uniform() * 2.0 - 1.0;
  switch (kind_sel) {
    case 0: return cplx{r, 0.0};   // EffKind::Real
    case 1: return cplx{0.0, i};   // EffKind::Imag
    default: return cplx{r, i};    // EffKind::Generic
  }
}

TEST(SimdKernels, SupportedListAlwaysIncludesScalar) {
  const auto isas = supported_simd_isas();
  ASSERT_FALSE(isas.empty());
  bool has_scalar = false;
  for (SimdIsa isa : isas) {
    has_scalar |= (isa == SimdIsa::Scalar);
    const CollapseKernels* k = kernels_for_isa(isa);
    ASSERT_NE(k, nullptr) << isa_name(isa);
    EXPECT_EQ(k->isa, isa);
  }
  EXPECT_TRUE(has_scalar);
}

TEST(SimdKernels, EveryHostFlavorPassesTheSelfCheckBattery) {
  for (SimdIsa isa : supported_simd_isas())
    EXPECT_TRUE(verify_kernels(*kernels_for_isa(isa))) << isa_name(isa);
}

// Randomized per-entry differential, beyond the fixed-size dispatch
// battery: random sizes (including remainders the vector flavors must
// delegate), random masks, random effect kinds — every output amplitude
// and every returned fold compared bit-for-bit against scalar.
TEST(SimdKernels, RandomizedKernelsMatchScalarBitwise) {
  const CollapseKernels& s = scalar_kernels();
  Rng rng(20240819);
  for (SimdIsa isa : supported_simd_isas()) {
    if (isa == SimdIsa::Scalar) continue;
    const CollapseKernels& k = *kernels_for_isa(isa);
    for (int rep = 0; rep < 40; ++rep) {
      const std::size_t n = 1 + rng.uniform_index(400);
      const auto x = random_amps(rng, n);
      const double sc = rng.uniform() + 0.25;

      EXPECT_PRED2(same_fold, s.fold_norms(x.data(), n),
                   k.fold_norms(x.data(), n));
      EXPECT_PRED2(same_fold, s.fold_norms_scaled(x.data(), n, sc),
                   k.fold_norms_scaled(x.data(), n, sc));
      EXPECT_PRED2(same_fold, s.prep_total_fold(x.data(), n, sc),
                   k.prep_total_fold(x.data(), n, sc));

      auto a = x, b = x;
      EXPECT_PRED2(same_fold, s.scale_fold(a.data(), n, sc),
                   k.scale_fold(b.data(), n, sc));
      EXPECT_TRUE(buffers_bit_equal(a, b));
    }
    // Structured kernels want power-of-two registers, like the simulator.
    for (int rep = 0; rep < 30; ++rep) {
      const int nq = 1 + rng.uniform_index(8);  // 2..256 amplitudes
      const std::uint64_t dim = std::uint64_t{1} << nq;
      const auto x = random_amps(rng, dim);
      const cplx e0 = random_eff(rng, rng.uniform_index(3));
      const cplx e1 = random_eff(rng, rng.uniform_index(3));
      const int q = rng.uniform_index(nq);
      const std::uint64_t pmask = rng.uniform_index(dim);
      const double sc = rng.uniform() + 0.25;

      const cplx effs[4] = {e0, e1, e1, random_eff(rng, rng.uniform_index(3))};
      const double inv = rng.uniform() + 0.5;
      double fa[4], fb[4];
      s.pairs_fold(x.data(), dim / 2, q, effs, fa);
      k.pairs_fold(x.data(), dim / 2, q, effs, fb);
      EXPECT_PRED2(same_fold, fa[0], fb[0]);
      EXPECT_PRED2(same_fold, fa[1], fb[1]);
      std::vector<cplx> oa(dim / 2), ob(dim / 2);
      EXPECT_PRED2(
          same_fold,
          s.pairs_write(x.data(), oa.data(), dim / 2, q, e0, e1, inv),
          k.pairs_write(x.data(), ob.data(), dim / 2, q, e0, e1, inv));
      EXPECT_TRUE(buffers_bit_equal(oa, ob));

      s.prep_fold(x.data(), 0, dim, pmask, effs, sc, fa);
      k.prep_fold(x.data(), 0, dim, pmask, effs, sc, fb);
      for (int j = 0; j < 3; ++j) EXPECT_PRED2(same_fold, fa[j], fb[j]);
      oa.assign(dim, cplx{});
      ob.assign(dim, cplx{});
      EXPECT_PRED2(
          same_fold,
          s.prep_write(x.data(), oa.data(), 0, dim, pmask, e0, e1, sc, inv),
          k.prep_write(x.data(), ob.data(), 0, dim, pmask, e0, e1, sc, inv));
      EXPECT_TRUE(buffers_bit_equal(oa, ob));

      s.teleport_fold(x.data(), dim, q, pmask, effs, sc, 0, dim / 2, true, fa);
      k.teleport_fold(x.data(), dim, q, pmask, effs, sc, 0, dim / 2, true, fb);
      for (int j = 0; j < 4; ++j) EXPECT_PRED2(same_fold, fa[j], fb[j]);
      s.teleport_write(x.data(), oa.data(), dim, q, pmask, e0, e1, sc, inv, 0,
                       dim / 2, fa);
      k.teleport_write(x.data(), ob.data(), dim, q, pmask, e0, e1, sc, inv, 0,
                       dim / 2, fb);
      EXPECT_PRED2(same_fold, fa[0], fb[0]);
      EXPECT_PRED2(same_fold, fa[1], fb[1]);
      EXPECT_TRUE(buffers_bit_equal(oa, ob));

      auto ga = x, gb = x;
      ga.resize(2 * dim);
      gb.resize(2 * dim);
      EXPECT_PRED2(same_fold, s.add_plus_cz(ga.data(), dim, pmask, sc),
                   k.add_plus_cz(gb.data(), dim, pmask, sc));
      EXPECT_TRUE(buffers_bit_equal(ga, gb));

      const std::uint64_t eq = rng.uniform_index(dim);
      const std::uint64_t par = rng.uniform_index(dim);
      const bool neg = rng.uniform_index(2) != 0;
      auto pa = x, pb = x;
      s.sign_pass(pa.data(), dim, eq, par, neg);
      k.sign_pass(pb.data(), dim, eq, par, neg);
      EXPECT_TRUE(buffers_bit_equal(pa, pb));

      const std::uint64_t xmask = std::uint64_t{1} << rng.uniform_index(nq);
      pa = x;
      pb = x;
      s.pauli_swap_pass(pa.data(), dim, xmask, par, eq, neg);
      k.pauli_swap_pass(pb.data(), dim, xmask, par, eq, neg);
      EXPECT_TRUE(buffers_bit_equal(pa, pb));

      std::uint64_t masks[3];
      const int count = 1 + rng.uniform_index(3);
      for (int c = 0; c < count; ++c) masks[c] = rng.uniform_index(dim);
      pa = x;
      pb = x;
      s.cz_masks_pass(pa.data(), dim, masks, count);
      k.cz_masks_pass(pb.data(), dim, masks, count);
      EXPECT_TRUE(buffers_bit_equal(pa, pb));

      const cplx e = std::exp(cplx{0.0, 1.0} * (rng.uniform() * 6.0 - 3.0));
      pa = x;
      pb = x;
      s.phase_pass(pa.data(), dim, q, e);
      k.phase_pass(pb.data(), dim, q, e);
      EXPECT_TRUE(buffers_bit_equal(pa, pb));
    }
  }
}

// A scripted DynamicStatevector run — primitive gates, every fused
// kernel, sampled and removed measurements — executed once per ISA with
// identical seeds.  Amplitudes, outcome streams, the running fold value
// AND its validity flag must match the scalar leg bit-for-bit.
struct ScriptResult {
  std::vector<int> outcomes;
  std::vector<cplx> amps;
  double fold;
  bool fold_valid;
};

ScriptResult run_script(SimdIsa isa, std::uint64_t seed) {
  force_simd_isa(isa);
  DynamicStatevector dsv;
  Rng rng(seed);
  dsv.add_wire(0);
  dsv.add_wire(1, /*plus=*/false);
  dsv.add_wire(2);
  dsv.apply_h(1);
  dsv.apply_rz(1, 0.37);
  dsv.apply_cz(0, 2);
  dsv.add_wire_plus_cz(3, 0b101);  // CZ against positions 0 and 2
  const std::uint64_t cz_masks[2] = {0b0011, 0b1100};
  dsv.apply_cz_masks(cz_masks, 2);
  dsv.apply_pauli_masks(0b0010, 0b0100, true);
  ScriptResult r;
  r.outcomes.push_back(dsv.prep_cz_measure(
      4, 0b0101, measurement_basis(MeasBasis::XY, 0.3), rng));
  r.outcomes.push_back(dsv.prep_cz_teleport_measure(
      5, 0b1000, 1, measurement_basis(MeasBasis::YZ, 0.9), rng));
  r.outcomes.push_back(
      dsv.measure_remove(2, measurement_basis(MeasBasis::X, 0.0), rng));
  dsv.normalize();
  r.amps = dsv.state_in_order(dsv.wire_order());
  r.fold = dsv.norm_fold();
  r.fold_valid = dsv.norm_fold_valid();
  return r;
}

TEST(SimdKernels, StatevectorScriptBitIdenticalAcrossIsas) {
  IsaGuard guard;
  for (std::uint64_t seed : {11u, 12u, 13u, 14u}) {
    const ScriptResult want = run_script(SimdIsa::Scalar, seed);
    EXPECT_TRUE(want.fold_valid);
    for (SimdIsa isa : supported_simd_isas()) {
      const ScriptResult got = run_script(isa, seed);
      SCOPED_TRACE(std::string("isa=") + isa_name(isa) +
                   " seed=" + std::to_string(seed));
      EXPECT_EQ(want.outcomes, got.outcomes);
      EXPECT_TRUE(buffers_bit_equal(want.amps, got.amps));
      EXPECT_PRED2(same_fold, want.fold, got.fold);
      EXPECT_EQ(want.fold_valid, got.fold_valid);
    }
  }
}

// End-to-end: compiled QAOA pattern sampling.  The sampled readouts and
// the per-shot measurement outcome streams must be identical under every
// flavor — the property the shard merge layer relies on when a fleet
// mixes hosts.  The forced-scalar leg always runs, even on hosts with
// no vector unit.
TEST(SimdKernels, SampledStreamsIdenticalAcrossIsas) {
  IsaGuard guard;
  Rng setup(5);
  const qaoa::Angles angles = qaoa::Angles::random(2, setup);
  const auto cost = qaoa::CostHamiltonian::maxcut(cycle_graph(6));
  const auto compiled = std::make_shared<const mbqc::CompiledPattern>(
      core::compile_qaoa(cost, angles).pattern);

  struct Leg {
    std::vector<std::uint64_t> xs;
    std::vector<std::vector<int>> outcomes;
  };
  auto run_leg = [&](SimdIsa isa, std::uint64_t seed) {
    force_simd_isa(isa);
    Leg leg;
    mbqc::PatternExecutor exec(compiled);
    Rng rng(seed);
    for (int shot = 0; shot < 32; ++shot) {
      leg.xs.push_back(exec.run_sample(rng).x);
      leg.outcomes.push_back(exec.last_outcomes());
    }
    return leg;
  };

  for (std::uint64_t seed : {101u, 202u, 303u}) {
    const Leg want = run_leg(SimdIsa::Scalar, seed);
    for (SimdIsa isa : supported_simd_isas()) {
      const Leg got = run_leg(isa, seed);
      SCOPED_TRACE(std::string("isa=") + isa_name(isa) +
                   " seed=" + std::to_string(seed));
      EXPECT_EQ(want.xs, got.xs);
      EXPECT_EQ(want.outcomes, got.outcomes);
    }
  }
}

TEST(SimdKernels, ParseSimdIsaRoundTripsAndRejectsGarbage) {
  EXPECT_EQ(parse_simd_isa("scalar"), SimdIsa::Scalar);
  EXPECT_EQ(parse_simd_isa("avx2"), SimdIsa::Avx2);
  EXPECT_EQ(parse_simd_isa("avx512"), SimdIsa::Avx512);
  EXPECT_EQ(parse_simd_isa("neon"), SimdIsa::Neon);
  for (SimdIsa isa :
       {SimdIsa::Scalar, SimdIsa::Avx2, SimdIsa::Avx512, SimdIsa::Neon})
    EXPECT_EQ(parse_simd_isa(isa_name(isa)), isa);
  EXPECT_THROW(parse_simd_isa("sse9"), Error);
  EXPECT_THROW(parse_simd_isa("AVX2"), Error);  // names are lowercase
  EXPECT_THROW(parse_simd_isa(""), Error);
}

TEST(SimdKernels, EnvOverrideReadsAndValidatesMbqSimd) {
  const char* old = std::getenv("MBQ_SIMD");
  const std::string saved = old ? old : "";
  ::setenv("MBQ_SIMD", "scalar", 1);
  EXPECT_EQ(simd_env_override(), SimdIsa::Scalar);
  ::setenv("MBQ_SIMD", "auto", 1);
  EXPECT_EQ(simd_env_override(), std::nullopt);
  ::setenv("MBQ_SIMD", "", 1);
  EXPECT_EQ(simd_env_override(), std::nullopt);
  ::setenv("MBQ_SIMD", "altivec", 1);
  EXPECT_THROW(simd_env_override(), Error);
  ::unsetenv("MBQ_SIMD");
  EXPECT_EQ(simd_env_override(), std::nullopt);
  if (old)
    ::setenv("MBQ_SIMD", saved.c_str(), 1);
}

// --- ranged chunk-driver entries ---------------------------------------
// The three *_range entries exist solely for the chunked drivers; they
// get the same treatment as every other table slot: randomized
// ISA-vs-scalar bitwise differentials, plus a scalar consistency check
// that concatenated slices reproduce the full pass.
TEST(SimdKernels, RandomizedRangedKernelsMatchScalarBitwise) {
  const CollapseKernels& s = scalar_kernels();
  Rng rng(20250809);
  for (SimdIsa isa : supported_simd_isas()) {
    const CollapseKernels& k = *kernels_for_isa(isa);
    for (int rep = 0; rep < 25; ++rep) {
      const int nq = 3 + rng.uniform_index(6);  // 8..256 amplitudes
      const std::uint64_t dim = std::uint64_t{1} << nq;
      const std::uint64_t ranks = dim / 2;
      const auto x = random_amps(rng, dim);
      const cplx e0 = random_eff(rng, rng.uniform_index(3));
      const cplx e1 = random_eff(rng, rng.uniform_index(3));
      const double sc = rng.uniform() + 0.25;
      const int q = rng.uniform_index(nq);
      // teleport pmask may not involve the measured wire or above.
      const std::uint64_t pmask =
          rng.uniform_index(dim) & ~((std::uint64_t{2} << q) - 1);

      // Teleport rank slices: identical slice writes and STORED folds
      // (fold pass and write pass, fresh lanes per half).
      const std::uint64_t r0 = rng.uniform_index(ranks);
      const std::uint64_t r1 = r0 + 1 + rng.uniform_index(ranks - r0);
      const cplx e[4] = {e0, e1, e1, e0};
      const double inv = rng.uniform() + 0.5;
      double fa[4] = {0, 0, 0, 0}, fb[4] = {1, 1, 1, 1};  // must be stored
      s.teleport_fold(x.data(), dim, q, pmask, e, sc, r0, r1, false, fa);
      k.teleport_fold(x.data(), dim, q, pmask, e, sc, r0, r1, false, fb);
      for (int j = 0; j < 4; ++j) EXPECT_PRED2(same_fold, fa[j], fb[j]);
      auto oa = random_amps(rng, dim);
      auto ob = oa;
      s.teleport_write(x.data(), oa.data(), dim, q, pmask, e0, e1, sc, inv, r0,
                       r1, fa);
      k.teleport_write(x.data(), ob.data(), dim, q, pmask, e0, e1, sc, inv, r0,
                       r1, fb);
      EXPECT_TRUE(buffers_bit_equal(oa, ob));
      EXPECT_PRED2(same_fold, fa[0], fb[0]);
      EXPECT_PRED2(same_fold, fa[1], fb[1]);

      // Scalar consistency: two covering slices == the full pass, and
      // the write pass's slice folds equal the fold pass's for the same
      // outcome at inv = 1.
      std::vector<cplx> full(dim), sliced(dim);
      double ff[2];
      s.teleport_write(x.data(), full.data(), dim, q, pmask, e0, e1, sc, 1.0,
                       0, ranks, ff);
      const std::uint64_t mid = ranks / 2;
      double w0[2], w1[2], g0[4];
      s.teleport_write(x.data(), sliced.data(), dim, q, pmask, e0, e1, sc, 1.0,
                       0, mid, w0);
      s.teleport_write(x.data(), sliced.data(), dim, q, pmask, e0, e1, sc, 1.0,
                       mid, ranks, w1);
      EXPECT_TRUE(buffers_bit_equal(full, sliced));
      s.teleport_fold(x.data(), dim, q, pmask, e, sc, 0, mid, false, g0);
      EXPECT_PRED2(same_fold, w0[0], g0[0]);
      EXPECT_PRED2(same_fold, w0[1], g0[1]);

      // mirror_cz_range (upper half of add_plus_cz, lower half already
      // scaled by the caller).
      auto ga = random_amps(rng, 2 * dim);
      auto gb = ga;
      const std::uint64_t i0 = rng.uniform_index(dim);
      const std::uint64_t i1 = i0 + 1 + rng.uniform_index(dim - i0);
      const std::uint64_t gmask = rng.uniform_index(dim);
      EXPECT_PRED2(same_fold,
                   s.mirror_cz_range(ga.data(), dim, i0, i1, gmask),
                   k.mirror_cz_range(gb.data(), dim, i0, i1, gmask));
      EXPECT_TRUE(buffers_bit_equal(ga, gb));

      // pauli_swap_range over pair ranks of the top xmask bit.
      const std::uint64_t xmask = std::uint64_t{1} << rng.uniform_index(nq);
      const std::uint64_t zmask = rng.uniform_index(dim);
      const std::uint64_t eq = rng.uniform_index(dim);
      const bool neg = rng.uniform_index(2) != 0;
      const std::uint64_t p0 = rng.uniform_index(ranks);
      const std::uint64_t p1 = p0 + 1 + rng.uniform_index(ranks - p0);
      auto pa = x, pb = x;
      s.pauli_swap_range(pa.data(), xmask, zmask, eq, neg, p0, p1);
      k.pauli_swap_range(pb.data(), xmask, zmask, eq, neg, p0, p1);
      EXPECT_TRUE(buffers_bit_equal(pa, pb));

      // Scalar consistency: covering rank slices == the full pass.
      auto pf = x, ps = x;
      s.pauli_swap_pass(pf.data(), dim, xmask, zmask, eq, neg);
      s.pauli_swap_range(ps.data(), xmask, zmask, eq, neg, 0, mid);
      s.pauli_swap_range(ps.data(), xmask, zmask, eq, neg, mid, ranks);
      EXPECT_TRUE(buffers_bit_equal(pf, ps));
    }
  }
}

// --- chunked / threaded drivers ----------------------------------------

/// Restores the process-global kernel thread count no matter how a test
/// exits (0 = re-resolve from the environment on next use).
struct ThreadGuard {
  int saved;
  ThreadGuard() : saved(thr::kernel_threads()) {}
  ~ThreadGuard() { thr::set_kernel_threads(saved); }
};

TEST(SimdKernels, KernelThreadsKnobResolvesOverrideAndEnv) {
  ThreadGuard guard;
  const char* old = std::getenv("MBQ_KERNEL_THREADS");
  const std::string saved = old ? old : "";

  thr::set_kernel_threads(3);
  EXPECT_EQ(thr::kernel_threads(), 3);

  ::setenv("MBQ_KERNEL_THREADS", "5", 1);
  thr::set_kernel_threads(0);  // back to env resolution
  EXPECT_EQ(thr::kernel_threads(), 5);

  ::setenv("MBQ_KERNEL_THREADS", "auto", 1);
  thr::set_kernel_threads(0);
  EXPECT_GE(thr::kernel_threads(), 1);

  for (const char* bad : {"0", "-2", "4097", "two", "2x"}) {
    ::setenv("MBQ_KERNEL_THREADS", bad, 1);
    thr::set_kernel_threads(0);
    EXPECT_THROW(thr::kernel_threads(), Error) << bad;
  }

  // An explicit override wins without consulting the (invalid) env.
  thr::set_kernel_threads(2);
  EXPECT_EQ(thr::kernel_threads(), 2);

  if (old)
    ::setenv("MBQ_KERNEL_THREADS", saved.c_str(), 1);
  else
    ::unsetenv("MBQ_KERNEL_THREADS");
}

// Every thr:: driver at the chunk cutoff, for every host flavor, at
// thread counts {1, 2, 8}: bit-identical to the scalar single-threaded
// leg.  This is the public-API face of the dispatch-time driver battery.
TEST(SimdKernels, ChunkedDriversBitIdenticalAcrossThreadCounts) {
  constexpr std::uint64_t dim = thr::kChunkCutoffDim;
  Rng rng(77);
  const auto x = random_amps(rng, 2 * dim);
  const cplx e0{0.6, -0.8}, e1{0.0, 0.7071067811865476};
  const double sc = 0.8125;
  const std::uint64_t pmask = 0x2BULL | (0x5ULL << 12);
  const std::uint64_t cz_masks[3] = {0x3, (1ULL << 13) | 0x18, 1ULL << 12};

  struct Results {
    std::vector<double> folds;
    std::vector<cplx> amps;
  };
  auto run = [&](const CollapseKernels& k, int t) {
    Results r;
    r.folds.push_back(thr::fold_norms(k, x.data(), 2 * dim, t));
    r.folds.push_back(thr::prep_total_fold(k, x.data(), dim, sc, t));

    auto sca = x;
    r.folds.push_back(thr::scale_fold(k, sca.data(), 2 * dim, sc, t));
    r.amps.insert(r.amps.end(), sca.begin(), sca.end());

    std::vector<cplx> out(dim);
    const cplx e[4] = {e0, e1, e1, e0};
    auto push_born = [&](const thr::BornFolds<double>& f) {
      r.folds.push_back(f.total);
      r.folds.push_back(f.proj[0]);
      r.folds.push_back(f.proj[1]);
    };
    for (int q : {0, 13, 14}) {
      push_born(thr::pairs_fold(k, x.data(), dim, q, e, true, t));
      r.folds.push_back(
          thr::pairs_write(k, x.data(), out.data(), dim, q, e0, e1, 1.25, t));
      r.amps.insert(r.amps.end(), out.begin(), out.end());
    }

    push_born(thr::prep_fold(k, x.data(), dim, pmask, e, sc, true, t));
    r.folds.push_back(thr::prep_write(k, x.data(), out.data(), dim, pmask, e0,
                                      e1, sc, 1.25, t));
    r.amps.insert(r.amps.end(), out.begin(), out.end());

    for (int q : {2, 13}) {
      const std::uint64_t tp = pmask & ~((std::uint64_t{2} << q) - 1);
      push_born(thr::teleport_fold(k, x.data(), dim, q, tp, e, sc, true, t));
      r.folds.push_back(thr::teleport_write(k, x.data(), out.data(), dim, q,
                                            tp, e0, e1, sc, 1.25, t));
      r.amps.insert(r.amps.end(), out.begin(), out.end());
    }

    auto gad = x;
    gad.resize(2 * dim);
    r.folds.push_back(
        thr::add_plus_cz(k, gad.data(), dim, pmask, sc, t));
    r.amps.insert(r.amps.end(), gad.begin(), gad.end());

    auto p = x;
    thr::sign_pass(k, p.data(), 2 * dim, (1ULL << 13) | 0x6,
                   (1ULL << 12) | 0x5, true, t);
    thr::cz_masks_pass(k, p.data(), 2 * dim, cz_masks, 3, t);
    thr::pauli_swap_pass(k, p.data(), 2 * dim, 1ULL << 13, pmask,
                         (1ULL << 14) | 0x3, false, t);
    thr::phase_pass(k, p.data(), 2 * dim, 13, e0, t);
    r.amps.insert(r.amps.end(), p.begin(), p.end());
    return r;
  };

  const Results want = run(scalar_kernels(), 1);
  for (SimdIsa isa : supported_simd_isas()) {
    const CollapseKernels& k = *kernels_for_isa(isa);
    for (int t : {1, 2, 8}) {
      SCOPED_TRACE(std::string("isa=") + isa_name(isa) +
                   " threads=" + std::to_string(t));
      const Results got = run(k, t);
      ASSERT_EQ(want.folds.size(), got.folds.size());
      for (std::size_t i = 0; i < want.folds.size(); ++i)
        EXPECT_PRED2(same_fold, want.folds[i], got.folds[i]) << "fold " << i;
      EXPECT_TRUE(buffers_bit_equal(want.amps, got.amps));
    }
  }
}

// A DynamicStatevector register ABOVE the chunk cutoff (15 wires =
// 2^15 amplitudes), driven through every fused measure path, swept over
// ISA flavors AND kernel thread counts: outcome streams, amplitudes and
// the running fold must all match the scalar single-threaded leg
// bit-for-bit — the large-n face of the determinism contract.
ScriptResult run_big_script(SimdIsa isa, int threads, std::uint64_t seed) {
  force_simd_isa(isa);
  thr::set_kernel_threads(threads);
  DynamicStatevector dsv;
  Rng rng(seed);
  for (int w = 0; w < 15; ++w) dsv.add_wire(w);
  const std::uint64_t cz_masks[2] = {(1ULL << 14) | 0x3, 0b110000};
  dsv.apply_cz_masks(cz_masks, 2);
  dsv.apply_rz(5, 0.37);
  dsv.apply_rz(13, -1.1);
  dsv.apply_pauli_masks(1ULL << 3, 1ULL << 9, false);
  ScriptResult r;
  r.outcomes.push_back(dsv.prep_cz_measure(
      15, 0b101000000000101, measurement_basis(MeasBasis::XY, 0.3), rng));
  r.outcomes.push_back(dsv.prep_cz_teleport_measure(
      16, 0b1000000000010, 4, measurement_basis(MeasBasis::YZ, 0.9), rng));
  dsv.apply_h(2);  // invalidates the fold: next measure re-folds fused
  r.outcomes.push_back(
      dsv.measure_remove(2, measurement_basis(MeasBasis::X, 0.0), rng));
  r.outcomes.push_back(
      dsv.measure_remove(7, measurement_basis(MeasBasis::XY, -0.4), rng));
  dsv.normalize();
  r.amps = dsv.state_in_order(dsv.wire_order());
  r.fold = dsv.norm_fold();
  r.fold_valid = dsv.norm_fold_valid();
  return r;
}

TEST(SimdKernels, LargeRegisterBitIdenticalAcrossThreadsAndIsas) {
  IsaGuard isa_guard;
  ThreadGuard thread_guard;
  const ScriptResult want = run_big_script(SimdIsa::Scalar, 1, 99);
  EXPECT_TRUE(want.fold_valid);
  for (SimdIsa isa : supported_simd_isas()) {
    for (int t : {1, 2, 8}) {
      const ScriptResult got = run_big_script(isa, t, 99);
      SCOPED_TRACE(std::string("isa=") + isa_name(isa) +
                   " threads=" + std::to_string(t));
      EXPECT_EQ(want.outcomes, got.outcomes);
      EXPECT_TRUE(buffers_bit_equal(want.amps, got.amps));
      EXPECT_PRED2(same_fold, want.fold, got.fold);
      EXPECT_EQ(want.fold_valid, got.fold_valid);
    }
  }
}

// A J-step teleport (the fresh wire's CZ partner is the measured wire,
// as in the mixer chains) and a measure_remove at EVERY bit position q,
// below the chunk cutoff (12 wires) and above it (16 wires), in both
// precisions, for every host flavor at thread counts {1, 2, 8}: outcome,
// amplitudes and running fold bit-identical to the scalar
// single-threaded leg.  The low positions pair amplitudes inside one
// vector register, which the wide-stride randomized sizes rarely reach
// on a chunked register.
ScriptResult run_position_script(const DynamicStatevector& start,
                                 int threads, int q) {
  thr::set_kernel_threads(threads);
  DynamicStatevector dsv = start;
  const int n = dsv.num_live();
  Rng rng(1000 + static_cast<std::uint64_t>(q));
  ScriptResult r;
  r.outcomes.push_back(dsv.prep_cz_teleport_measure(
      n, std::uint64_t{1} << q, q, measurement_basis(MeasBasis::XY, 0.8),
      rng));
  dsv.apply_h(n);  // stale fold: the measure below re-folds fused
  r.outcomes.push_back(dsv.measure_remove(
      dsv.wire_order()[static_cast<std::size_t>(q)],
      measurement_basis(MeasBasis::YZ, -0.6), rng));
  r.amps = dsv.state_in_order(dsv.wire_order());
  r.fold = dsv.norm_fold();
  r.fold_valid = dsv.norm_fold_valid();
  return r;
}

TEST(SimdKernels, EveryBitPositionTeleportAndMeasureMatchScalar) {
  IsaGuard isa_guard;
  ThreadGuard thread_guard;
  for (Precision prec : {Precision::F64, Precision::F32}) {
    for (int n : {12, 16}) {
      // Wires 0..n-1 at positions 0..n-1, phased so no two amplitudes
      // (and no pair of halves) coincide.
      force_simd_isa(SimdIsa::Scalar);
      thr::set_kernel_threads(1);
      DynamicStatevector start(prec);
      start.add_plus_wires(0, n);
      for (int w = 0; w < n; ++w) start.apply_rz(w, 0.3 + 0.11 * w);
      const std::uint64_t cz_masks[2] = {0b1011,
                                         std::uint64_t{0b11} << (n - 2)};
      start.apply_cz_masks(cz_masks, 2);
      // One dispatch per flavor: force_simd_isa reruns the self-check
      // battery, which costs more than the scripts themselves.
      std::vector<ScriptResult> want;
      for (int q = 0; q < n; ++q)
        want.push_back(run_position_script(start, 1, q));
      for (SimdIsa isa : supported_simd_isas()) {
        force_simd_isa(isa);
        for (int t : {1, 2, 8}) {
          for (int q = 0; q < n; ++q) {
            SCOPED_TRACE(std::string("isa=") + isa_name(isa) +
                         " threads=" + std::to_string(t) + " prec=" +
                         precision_name(prec) + " n=" + std::to_string(n) +
                         " q=" + std::to_string(q));
            const ScriptResult got = run_position_script(start, t, q);
            const ScriptResult& w = want[static_cast<std::size_t>(q)];
            EXPECT_EQ(w.outcomes, got.outcomes);
            EXPECT_TRUE(buffers_bit_equal(w.amps, got.amps));
            EXPECT_PRED2(same_fold, w.fold, got.fold);
          }
        }
      }
    }
  }
}

// Golden pin on the sampled outcome stream of a 3-regular n = 16, p = 1
// MaxCut pattern: FNV-1a over each shot's readout and raw measurement
// outcomes.  The differential tests above compare vector flavors with
// scalar, so a change that moved scalar and vector TOGETHER (a kernel
// rewrite, a new fused op, a lowering change) would pass them; this
// constant would not.  It is the digest the scalar reference produced
// before the in-register pair split and the prep-run fill existed.
// Changing it is changing the outcome-stream contract.
TEST(SimdKernels, GoldenOutcomeDigestIsPinned) {
  constexpr std::uint64_t kGoldenDigest = 0x66adf579a0fbfca9ULL;
  IsaGuard guard;
  Rng graph_rng(16);
  const auto cost =
      qaoa::CostHamiltonian::maxcut(random_regular_graph(16, 3, graph_rng));
  const auto compiled = std::make_shared<const mbqc::CompiledPattern>(
      core::compile_qaoa(cost, qaoa::Angles({0.4}, {0.7})).pattern);
  for (SimdIsa isa : supported_simd_isas()) {
    force_simd_isa(isa);
    mbqc::PatternExecutor exec(compiled);
    Rng rng(2024);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&](std::uint64_t v) {
      for (int b = 0; b < 8; ++b) {
        h ^= (v >> (8 * b)) & 0xFF;
        h *= 0x100000001b3ULL;
      }
    };
    for (int shot = 0; shot < 16; ++shot) {
      mix(exec.run_sample(rng).x);
      for (int o : exec.last_outcomes()) mix(static_cast<std::uint64_t>(o));
    }
    EXPECT_EQ(h, kGoldenDigest) << isa_name(isa);
  }
}

// The f32 twin of the golden pin: the same pattern, seed and digest
// construction on a Precision::F32 arena.  Its readouts and outcomes
// coincide with the f64 stream here (f32 rounding moves the Born
// probabilities by ~1e-7, which flips no draw of these 16 shots), so it
// pins the same constant; the amplitude digests below tell the two
// precisions apart.
TEST(SimdKernels, GoldenOutcomeDigestIsPinnedF32) {
  constexpr std::uint64_t kGoldenDigest = 0x66adf579a0fbfca9ULL;
  IsaGuard guard;
  Rng graph_rng(16);
  const auto cost =
      qaoa::CostHamiltonian::maxcut(random_regular_graph(16, 3, graph_rng));
  const auto compiled = std::make_shared<const mbqc::CompiledPattern>(
      core::compile_qaoa(cost, qaoa::Angles({0.4}, {0.7})).pattern);
  mbqc::ExecOptions options;
  options.precision = Precision::F32;
  for (SimdIsa isa : supported_simd_isas()) {
    force_simd_isa(isa);
    mbqc::PatternExecutor exec(compiled, options);
    Rng rng(2024);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&](std::uint64_t v) {
      for (int b = 0; b < 8; ++b) {
        h ^= (v >> (8 * b)) & 0xFF;
        h *= 0x100000001b3ULL;
      }
    };
    for (int shot = 0; shot < 16; ++shot) {
      mix(exec.run_sample(rng).x);
      for (int o : exec.last_outcomes()) mix(static_cast<std::uint64_t>(o));
    }
    EXPECT_EQ(h, kGoldenDigest) << isa_name(isa);
  }
}

// Golden pins on final AMPLITUDE bits, per precision: FNV-1a over the
// outcomes and the output-state bits (re and im of each amplitude,
// widened exactly from f32) of four run() shots of the golden pattern,
// at kernel thread counts 1 and 2 under every flavor.  The outcome
// digests above only see discrete draws; these see every ulp of the
// normalized projections the measurement write passes store.  Both
// constants are what the library produced before the measurements
// became fold-then-write passes.
TEST(SimdKernels, GoldenAmplitudeDigestsArePinned) {
  IsaGuard isa_guard;
  ThreadGuard thread_guard;
  Rng graph_rng(16);
  const auto cost =
      qaoa::CostHamiltonian::maxcut(random_regular_graph(16, 3, graph_rng));
  const auto compiled = std::make_shared<const mbqc::CompiledPattern>(
      core::compile_qaoa(cost, qaoa::Angles({0.4}, {0.7})).pattern);
  for (const auto& [prec, golden] :
       {std::pair{Precision::F64, 0xc9ad822add5e2471ULL},
        std::pair{Precision::F32, 0xa5c3e638a453735dULL}}) {
    mbqc::ExecOptions options;
    options.precision = prec;
    for (SimdIsa isa : supported_simd_isas()) {
      force_simd_isa(isa);
      for (int t : {1, 2}) {
        thr::set_kernel_threads(t);
        mbqc::PatternExecutor exec(compiled, options);
        Rng rng(2024);
        std::uint64_t h = 0xcbf29ce484222325ULL;
        auto mix = [&](std::uint64_t v) {
          for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xFF;
            h *= 0x100000001b3ULL;
          }
        };
        for (int shot = 0; shot < 4; ++shot) {
          const mbqc::RunResult r = exec.run(rng);
          for (int o : r.outcomes) mix(static_cast<std::uint64_t>(o));
          for (const cplx& a : r.output_state) {
            mix(bits(a.real()));
            mix(bits(a.imag()));
          }
        }
        EXPECT_EQ(h, golden) << precision_name(prec) << " " << isa_name(isa)
                             << " threads=" << t;
      }
    }
  }
}

// --- two-sweep measurements against the historical sequence -----------
// Until the measurements became a read-only fold pass plus one
// normalized write pass, each one ran: collapse the outcome-1
// projection into scratch (folding it), draw, collapse again on
// outcome 0, then scale_fold the result.  The oracle below rebuilds that
// sequence from scalar pieces — plain projection loops, the scalar
// thr::fold_norms / prep_total_fold / scale_fold drivers — and every
// flavor × kernel-thread count must reproduce its outcome, amplitudes
// and running fold bit-for-bit, in both precisions, sampled and forced,
// below and above the chunk cutoff.

enum class MeasOp { MeasureValidFold, MeasureStaleFold, Gadget, Teleport };

struct Oracle {
  int outcome;
  std::vector<cplx> amps;  // the register afterwards, in position order
  double fold;
};

/// The historical collapse + redo + scale_fold sequence on a register
/// x (position order) of element type R.
template <class R>
Oracle historical_measure(MeasOp op, const std::vector<cplx>& x64, int q,
                          std::uint64_t pmask, const Matrix& basis,
                          double running_fold, std::uint64_t seed,
                          int forced) {
  using C = std::complex<R>;
  const CollapseKernelsT<R>& k = scalar_kernels_t<R>();
  std::vector<C> x(x64.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = C(static_cast<R>(x64[i].real()), static_cast<R>(x64[i].imag()));
  const std::uint64_t dim = x.size();
  const R s = static_cast<R>(1.0 / std::sqrt(2.0));
  auto eff = [&](int row, int m) {
    const cplx v = std::conj(basis(row, m));
    return C(static_cast<R>(v.real()), static_cast<R>(v.imag()));
  };
  std::vector<C> out(op == MeasOp::MeasureValidFold ||
                             op == MeasOp::MeasureStaleFold
                         ? dim / 2
                         : dim);
  // The unnormalized projection of outcome m into out, returning its
  // canonical fold under the chunk contract.
  auto collapse = [&](int m) {
    const C e0 = eff(0, m), e1 = eff(1, m);
    const EffKind k0 = eff_kind(e0), k1 = eff_kind(e1);
    if (op == MeasOp::Gadget) {
      for (std::uint64_t i = 0; i < dim; ++i) {
        const C low = x[i] * s;
        const C up = parity64(i & pmask) ? -low : low;
        out[i] = eff_mul(k0, e0, low) + eff_mul(k1, e1, up);
      }
    } else if (op == MeasOp::Teleport) {
      for (std::uint64_t r = 0; r < dim / 2; ++r) {
        const std::uint64_t i0 = insert_zero_bit(r, q);
        const C a = eff_mul(k0, e0, x[i0] * s);
        const C b = eff_mul(k1, e1, x[i0 | (std::uint64_t{1} << q)] * s);
        const bool s0 = parity64(i0 & pmask) != 0;
        const bool s1 = s0 ^ (((pmask >> q) & 1) != 0);
        out[r] = a + b;
        out[dim / 2 + r] = (s0 ? -a : a) + (s1 ? -b : b);
      }
    } else {
      for (std::uint64_t r = 0; r < dim / 2; ++r) {
        const std::uint64_t i0 = insert_zero_bit(r, q);
        out[r] = eff_mul(k0, e0, x[i0]) +
                 eff_mul(k1, e1, x[i0 | (std::uint64_t{1} << q)]);
      }
    }
    return thr::fold_norms(k, out.data(), out.size(), 1);
  };
  Oracle o;
  o.outcome = forced;
  R nrm2 = R(0);
  if (forced == -1) {
    real total;
    if (op == MeasOp::MeasureValidFold)
      total = running_fold;
    else if (op == MeasOp::MeasureStaleFold)
      total = static_cast<real>(thr::fold_norms(k, x.data(), dim, 1));
    else
      total = static_cast<real>(thr::prep_total_fold(k, x.data(), dim, s, 1));
    total = std::norm(std::sqrt(total));
    nrm2 = collapse(1);
    Rng rng(seed);
    o.outcome = rng.bernoulli(static_cast<real>(nrm2) / total) ? 1 : 0;
  }
  if (o.outcome != 1 || forced != -1) nrm2 = collapse(o.outcome);
  o.fold = static_cast<real>(thr::scale_fold(
      k, out.data(), out.size(),
      static_cast<R>(1.0 / std::sqrt(static_cast<real>(nrm2))), 1));
  for (const C& v : out) o.amps.emplace_back(v);
  return o;
}

/// A register of n wires (positions 0..n-1 = wire ids) with distinct
/// amplitudes, whose running fold is valid (or stale when asked).
DynamicStatevector measure_start(Precision prec, int n, bool stale) {
  DynamicStatevector dsv(prec);
  dsv.add_plus_wires(0, n - 1);
  for (int w = 0; w < n - 1; ++w) dsv.apply_rz(w, 0.3 + 0.11 * w);
  const std::uint64_t cz[2] = {0b1011, std::uint64_t{0b11} << (n - 3)};
  dsv.apply_cz_masks(cz, 2);
  dsv.add_wire_plus_cz(n - 1, 0b101);  // leaves the fold valid
  if (stale) {
    dsv.apply_h(1);
    dsv.apply_h(1);  // H·H: same state up to rounding, fold stale
  }
  return dsv;
}

TEST(SimdKernels, TwoSweepMeasurementsMatchTheHistoricalSequence) {
  IsaGuard isa_guard;
  ThreadGuard thread_guard;
  const Matrix xy = measurement_basis(MeasBasis::XY, 0.8);
  const Matrix yz = measurement_basis(MeasBasis::YZ, -0.6);
  for (Precision prec : {Precision::F64, Precision::F32}) {
    for (int n : {10, 16}) {  // below / above thr::kChunkCutoffDim
      for (MeasOp op : {MeasOp::MeasureValidFold, MeasOp::MeasureStaleFold,
                        MeasOp::Gadget, MeasOp::Teleport}) {
        const bool stale = op == MeasOp::MeasureStaleFold;
        // A low, a middle and the top position (the top-bit measures
        // write in place).
        for (int q : {0, n / 2, n - 1}) {
          if (op == MeasOp::Gadget && q != 0) continue;  // no measured wire
          for (int forced : {-1, 0, 1}) {
            force_simd_isa(SimdIsa::Scalar);
            thr::set_kernel_threads(1);
            const DynamicStatevector start = measure_start(prec, n, stale);
            ASSERT_EQ(start.norm_fold_valid(), !stale);
            const std::vector<cplx> x = start.state_in_order(start.wire_order());
            const std::uint64_t pmask =
                op == MeasOp::Gadget ? 0b100101ULL
                                     : (std::uint64_t{1} << q) |
                                           (q + 2 < n ? 0b1ULL << (q + 2) : 0);
            const Matrix& basis = op == MeasOp::Gadget ? yz : xy;
            const std::uint64_t seed = 500 + static_cast<std::uint64_t>(q);
            const Oracle want =
                prec == Precision::F64
                    ? historical_measure<double>(op, x, q, pmask, basis,
                                                 start.norm_fold(), seed, forced)
                    : historical_measure<float>(op, x, q, pmask, basis,
                                                start.norm_fold(), seed, forced);
            for (SimdIsa isa : supported_simd_isas()) {
              force_simd_isa(isa);
              for (int t : {1, 2, 8}) {
                thr::set_kernel_threads(t);
                SCOPED_TRACE(std::string(precision_name(prec)) +
                             " n=" + std::to_string(n) + " op=" +
                             std::to_string(static_cast<int>(op)) +
                             " q=" + std::to_string(q) + " forced=" +
                             std::to_string(forced) + " isa=" +
                             isa_name(isa) + " threads=" + std::to_string(t));
                DynamicStatevector dsv = start;
                Rng rng(seed);
                int got;
                switch (op) {
                  case MeasOp::Gadget:
                    got = dsv.prep_cz_measure(n, pmask, basis, rng, forced);
                    break;
                  case MeasOp::Teleport:
                    got = dsv.prep_cz_teleport_measure(n, pmask, q, basis, rng,
                                                       forced);
                    break;
                  default:
                    got = dsv.measure_remove(q, basis, rng, forced);
                    break;
                }
                EXPECT_EQ(got, want.outcome);
                EXPECT_TRUE(buffers_bit_equal(
                    want.amps, dsv.state_in_order(dsv.wire_order())));
                EXPECT_PRED2(same_fold, want.fold, dsv.norm_fold());
                EXPECT_TRUE(dsv.norm_fold_valid());
              }
            }
          }
        }
      }
    }
  }
}

// A forced outcome whose projection is zero throws before the write
// pass, leaving amplitudes, wires and the running fold as they were —
// for each measurement kind, below and above the chunk cutoff.
TEST(SimdKernels, ForcedZeroProbabilityOutcomeThrowsAndLeavesRegister) {
  IsaGuard isa_guard;
  const Matrix z = measurement_basis(MeasBasis::Z, 0.0);
  const Matrix x_basis = measurement_basis(MeasBasis::X, 0.0);
  for (Precision prec : {Precision::F64, Precision::F32}) {
    for (int n : {6, 15}) {
      for (SimdIsa isa : supported_simd_isas()) {
        force_simd_isa(isa);
        SCOPED_TRACE(std::string(precision_name(prec)) + " n=" +
                     std::to_string(n) + " isa=" + isa_name(isa));
        // Wire 0 in |0> at position 0, the rest in |+> with phases.
        DynamicStatevector dsv(prec);
        dsv.add_wire(0, /*plus=*/false);
        for (int w = 1; w < n; ++w) dsv.add_wire(w);
        for (int w = 1; w < n; ++w) dsv.apply_rz(w, 0.2 * w);
        const auto before = dsv.state_in_order(dsv.wire_order());
        const auto order = dsv.wire_order();
        const double fold = dsv.norm_fold();
        const bool valid = dsv.norm_fold_valid();
        auto unchanged = [&] {
          EXPECT_EQ(dsv.wire_order(), order);
          EXPECT_TRUE(
              buffers_bit_equal(before, dsv.state_in_order(dsv.wire_order())));
          EXPECT_PRED2(same_fold, fold, dsv.norm_fold());
          EXPECT_EQ(valid, dsv.norm_fold_valid());
          EXPECT_FALSE(dsv.has_wire(n));
        };
        Rng rng(1);
        // Wire 0 is |0>: outcome 1 in Z has zero probability.
        EXPECT_THROW(dsv.measure_remove(0, z, rng, 1), Error);
        unchanged();
        EXPECT_THROW(dsv.prep_cz_teleport_measure(n, 0b1, 0, z, rng, 1),
                     Error);
        unchanged();
        // A fresh |+> with no CZ partner never reads 1 in X.
        EXPECT_THROW(dsv.prep_cz_measure(n, 0, x_basis, rng, 1), Error);
        unchanged();
      }
    }
  }
}

TEST(SimdKernels, ForcingAnUnavailableFlavorIsRejectedAtDispatch) {
  IsaGuard guard;
  for (SimdIsa isa :
       {SimdIsa::Scalar, SimdIsa::Avx2, SimdIsa::Avx512, SimdIsa::Neon}) {
    if (kernels_for_isa(isa) == nullptr) {
      EXPECT_THROW(force_simd_isa(isa), Error) << isa_name(isa);
    } else {
      force_simd_isa(isa);
      EXPECT_EQ(active_simd_isa(), isa);
      EXPECT_EQ(kernels().isa, isa);
    }
  }
}

}  // namespace
}  // namespace mbq
