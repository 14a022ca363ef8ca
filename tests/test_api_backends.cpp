// The acceptance test of the unified backend API: every registered
// backend is an interchangeable implementation of the same mathematical
// object.  For random small MaxCut/QUBO instances and random angles at
// p = 1, 2, all supporting backends must agree on expectation() to 1e-9
// (the paper's Eq. 12 as an API property), and sample() histograms must
// pass a chi-squared sanity check against the statevector Born
// distribution.  Session-level behaviors — caching, thread-count
// independent sampling, registry errors — are covered here too.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>
#include <unistd.h>

#include "mbq/api/api.h"
#include "mbq/api/prepared.h"
#include "mbq/common/cpu.h"
#include "mbq/common/parallel.h"
#include "mbq/common/rng.h"
#include "mbq/graph/generators.h"
#include "mbq/sim/collapse_threaded.h"
#include "mbq/qaoa/analytic.h"
#include "mbq/qaoa/mixers.h"

namespace mbq::api {
namespace {

using qaoa::Angles;
using qaoa::CostHamiltonian;

/// Random QUBO with both linear and quadratic terms.
Workload random_qubo_workload(int n, Rng& rng) {
  const Graph g = random_gnm_graph(n, std::min(2 * n, n * (n - 1) / 2), rng);
  CostHamiltonian c = CostHamiltonian::maxcut(g);
  for (int q = 0; q < n; ++q)
    if (rng.coin()) c.add_term({q}, rng.uniform(-0.5, 0.5));
  return Workload::qaoa(std::move(c));
}

/// Chi-squared statistic of observed counts against the model Born
/// distribution, pooling low-expectation bins.
real chi_squared(const std::vector<std::int64_t>& counts,
                 const std::vector<real>& probs, int* dof) {
  const std::int64_t shots =
      std::accumulate(counts.begin(), counts.end(), std::int64_t{0});
  real stat = 0.0;
  real pooled_expected = 0.0;
  real pooled_observed = 0.0;
  *dof = 0;
  for (std::size_t x = 0; x < counts.size(); ++x) {
    const real expected = probs[x] * static_cast<real>(shots);
    if (expected < 5.0) {  // pool sparse bins, the standard validity rule
      pooled_expected += expected;
      pooled_observed += static_cast<real>(counts[x]);
      continue;
    }
    const real d = static_cast<real>(counts[x]) - expected;
    stat += d * d / expected;
    ++*dof;
  }
  if (pooled_expected >= 5.0) {
    const real d = pooled_observed - pooled_expected;
    stat += d * d / pooled_expected;
    ++*dof;
  }
  *dof = std::max(*dof - 1, 1);
  return stat;
}

TEST(Registry, BuiltinsPresent) {
  auto& registry = BackendRegistry::instance();
  for (const char* name :
       {"statevector", "mbqc", "mbqc-classical", "clifford", "zx"})
    EXPECT_TRUE(registry.contains(name)) << name;
  EXPECT_THROW(registry.create("no-such-backend"), Error);
}

TEST(Registry, CustomBackendRegisters) {
  auto& registry = BackendRegistry::instance();
  ASSERT_FALSE(registry.contains("statevector-alias"));
  registry.add("statevector-alias",
               [] { return std::make_shared<StatevectorBackend>(); });
  EXPECT_TRUE(registry.contains("statevector-alias"));
  EXPECT_THROW(registry.add("statevector-alias",
                            [] { return std::make_shared<StatevectorBackend>(); }),
               Error);
  EXPECT_EQ(registry.create("statevector-alias")->name(), "statevector");
}

TEST(BackendEquivalence, AllBackendsAgreeOnExpectation) {
  Rng rng(11);
  for (int instance = 0; instance < 3; ++instance) {
    Workload w = instance == 0 ? Workload::maxcut(cycle_graph(5))
                               : random_qubo_workload(4 + instance, rng);
    for (int p : {1, 2}) {
      const Angles a = Angles::random(p, rng);
      Session reference(w, "statevector");
      const real expected = reference.expectation(a);
      for (const std::string& name : BackendRegistry::instance().names()) {
        Session session(w, name);
        if (!session.unsupported_reason(a).empty()) continue;  // clifford
        EXPECT_NEAR(session.expectation(a), expected, 1e-9)
            << name << " instance " << instance << " p=" << p;
      }
    }
  }
}

TEST(BackendEquivalence, CliffordAnglesRunOnAllBackends) {
  // gamma = pi/2 with unit MaxCut weights (w = +-1/2 per edge plus the
  // constant) and beta = pi/4 compile to pi/2-multiple pattern angles.
  Rng rng(13);
  const Workload w = Workload::maxcut(cycle_graph(4));
  const Angles a({kPi / 2}, {kPi / 4});
  Session reference(w, "statevector");
  const real expected = reference.expectation(a);
  int ran = 0;
  for (const std::string& name : BackendRegistry::instance().names()) {
    Session session(w, name);
    ASSERT_EQ(session.unsupported_reason(a), "") << name;
    EXPECT_NEAR(session.expectation(a), expected, 1e-9) << name;
    ++ran;
  }
  EXPECT_GE(ran, 5);  // including "clifford"
  // And the clifford backend indeed rejects generic angles.
  Session clifford(w, "clifford");
  EXPECT_NE(clifford.unsupported_reason(Angles::random(1, rng)), "");
}

TEST(BackendEquivalence, SampleHistogramsMatchStatevector) {
  Rng rng(17);
  const Graph g = cycle_graph(4);
  const Workload w = Workload::maxcut(g);
  const Angles a = Angles::random(1, rng);
  const int n = g.num_vertices();
  const int shots = 4096;

  // Model distribution from the reference state.
  const Statevector sv = w.reference_state(a);
  std::vector<real> probs(sv.dim());
  for (std::uint64_t x = 0; x < sv.dim(); ++x)
    probs[x] = std::norm(sv.amplitudes()[x]);

  for (const std::string& name : BackendRegistry::instance().names()) {
    Session session(w, name, {.seed = 99});
    if (!session.unsupported_reason(a).empty()) continue;
    const SampleResult result = session.sample(a, shots);
    ASSERT_EQ(result.shots.size(), static_cast<std::size_t>(shots));
    int dof = 0;
    const real stat = chi_squared(result.counts(n), probs, &dof);
    // Very loose gate: ~5x the dof catches wrong distributions while
    // keeping the false-positive rate negligible.
    EXPECT_LT(stat, 5.0 * dof + 30.0) << name << " chi2=" << stat;
  }
}

TEST(BackendEquivalence, MisAnsatzAgreesAcrossSupportingBackends) {
  Rng rng(19);
  const Graph g = path_graph(4);
  const Workload w = Workload::mis(g);
  const Angles a = Angles::random(1, rng);
  Session reference(w, "statevector");
  Session mbqc(w, "mbqc");
  EXPECT_NEAR(mbqc.expectation(a), reference.expectation(a), 1e-9);
  // Every sample is a valid independent set by construction (Sec. IV).
  for (const Shot& s : mbqc.sample(a, 64).shots)
    EXPECT_TRUE(qaoa::is_independent_set(g, s.x));
}

TEST(BackendEquivalence, CustomCircuitAnsatzAgrees) {
  Rng rng(23);
  const Graph g = cycle_graph(3);
  CostHamiltonian c = CostHamiltonian::maxcut(g);
  const auto builder = [n = g.num_vertices(), c](const Angles& a) {
    Circuit circ(n);
    for (int k = 0; k < a.p(); ++k) {
      for (const auto& t : c.terms())
        circ.phase_gadget(t.support, 2.0 * a.gamma[k] * t.coeff);
      for (int q = 0; q < n; ++q) circ.rx(q, 2.0 * a.beta[k]);
    }
    return circ;
  };
  const Workload w = Workload::custom(c, builder);
  const Angles a = Angles::random(2, rng);
  Session reference(w, "statevector");
  Session mbqc(w, "mbqc");
  EXPECT_NEAR(mbqc.expectation(a), reference.expectation(a), 1e-9);
}

/// mbqc with a prepared artifact that claims an arena far larger than
/// any L2 cache, so choose_parallelism always picks the
/// kernel-level path for it; records which threads ran its shots.
class HugeArenaBackend final : public Backend {
 public:
  std::string name() const override { return "huge-arena"; }
  Capabilities capabilities() const override { return inner_.capabilities(); }
  std::shared_ptr<const Prepared> prepare(const Workload& w,
                                          const Angles& a) const override {
    auto prep = std::make_shared<PreparedPattern>(
        dynamic_cast<const PreparedPattern&>(*inner_.prepare(w, a)));
    prep->arena_bytes = kBytes;
    return prep;
  }
  real expectation(const Workload& w, const Angles& a, Rng& rng,
                   const Prepared* prep) const override {
    note_thread();
    return inner_.expectation(w, a, rng, prep);
  }
  std::uint64_t sample_one(const Workload& w, const Angles& a, Rng& rng,
                           const Prepared* prep) const override {
    note_thread();
    return inner_.sample_one(w, a, rng, prep);
  }
  std::set<std::thread::id> threads() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return threads_;
  }

  static constexpr std::uint64_t kBytes = std::uint64_t{1} << 50;

 private:
  void note_thread() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    threads_.insert(std::this_thread::get_id());
  }
  MbqcBackend inner_;
  mutable std::mutex mutex_;
  mutable std::set<std::thread::id> threads_;
};

/// Pins the kernel thread count for one test, then restores env
/// resolution.
struct KernelThreadsGuard {
  explicit KernelThreadsGuard(int n) { thr::set_kernel_threads(n); }
  ~KernelThreadsGuard() { thr::set_kernel_threads(0); }
};

TEST(Session, SamplingIsReproducibleAndThreadCountIndependent) {
  const Workload w = Workload::maxcut(cycle_graph(4));
  const Angles a({0.6}, {0.4});
  SessionOptions serial{.seed = 7, .parallel_shots = false};
  SessionOptions parallel{.seed = 7, .parallel_shots = true};
  Session s1(w, "mbqc", serial);
  Session s2(w, "mbqc", parallel);
  // The same options, but choose_parallelism picks the kernel-level path.
  const KernelThreadsGuard kernel_threads(2);
  ASSERT_EQ(choose_parallelism(HugeArenaBackend::kBytes, 64,
                               thr::kernel_threads(), l2_bytes()),
            Parallelism::kKernels);
  auto huge = std::make_shared<HugeArenaBackend>();
  Session s3(w, huge, parallel);
  const SampleResult r1 = s1.sample(a, 64);
  const SampleResult r2 = s2.sample(a, 64);
  const SampleResult rk = s3.sample(a, 64);
  ASSERT_EQ(r1.shots.size(), r2.shots.size());
  ASSERT_EQ(r1.shots.size(), rk.shots.size());
  for (std::size_t i = 0; i < r1.shots.size(); ++i) {
    EXPECT_EQ(r1.shots[i].x, r2.shots[i].x) << i;
    EXPECT_EQ(r1.shots[i].x, rk.shots[i].x) << i;
  }
  // Distinct calls draw distinct streams.
  const SampleResult r3 = s1.sample(a, 64);
  bool any_differ = false;
  for (std::size_t i = 0; i < r1.shots.size(); ++i)
    any_differ |= (r1.shots[i].x != r3.shots[i].x);
  EXPECT_TRUE(any_differ);
  // Batches on s2 and s3, whose call counters agree.
  const std::vector<Angles> points = {a, Angles({0.2}, {-0.3})};
  const auto b2 = s2.sample_batch(points, 32);
  const auto bk = s3.sample_batch(points, 32);
  for (std::size_t p = 0; p < points.size(); ++p)
    for (std::size_t i = 0; i < b2[p].shots.size(); ++i)
      EXPECT_EQ(b2[p].shots[i].x, bk[p].shots[i].x) << p << "/" << i;
  EXPECT_EQ(s2.expectation_batch(points), s3.expectation_batch(points));
  // The kernel-level path ran every shot and point on the calling thread.
  EXPECT_EQ(huge->threads(),
            std::set<std::thread::id>{std::this_thread::get_id()});
}

/// A sysfs cache directory (`index*/{level,type,size}`) under the temp
/// directory, removed again on destruction.
class SysfsCacheDir {
 public:
  explicit SysfsCacheDir(const std::string& tag)
      : root_(std::filesystem::temp_directory_path() /
              ("mbq_cache_" + tag + "_" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_);
  }
  ~SysfsCacheDir() { std::filesystem::remove_all(root_); }
  void add(int idx, const std::string& level, const std::string& type,
           const std::string& size) const {
    const auto dir = root_ / ("index" + std::to_string(idx));
    std::filesystem::create_directories(dir);
    std::ofstream(dir / "level") << level << "\n";
    std::ofstream(dir / "type") << type << "\n";
    std::ofstream(dir / "size") << size << "\n";
  }
  std::string path() const { return root_.string(); }

 private:
  std::filesystem::path root_;
};

TEST(Parallelism, FootprintAgainstPrivateL2) {
  // 3-regular MaxCut at p = 1 as the mbqc backend prepares it.  A
  // noiseless executor allocates the n problem wires' register twice
  // (arena and ping-pong scratch): the fused gadget and teleport blocks
  // never build their fresh wire.  A noisy one replays those blocks
  // command by command, so its buffers span that wire too.
  const Angles a({0.3}, {0.2});
  const auto footprint = [&](int n, Precision prec, real noise = 0.0) {
    Rng rng(static_cast<std::uint64_t>(n));
    Workload w = Workload::maxcut(random_regular_graph(n, 3, rng));
    w.with_precision(prec);
    w.with_entangler_noise(noise);
    return MbqcBackend().prepare(w, a)->executor_bytes();
  };
  constexpr std::uint64_t MiB = std::uint64_t{1} << 20;
  EXPECT_EQ(footprint(14, Precision::F64), MiB / 2);
  EXPECT_EQ(footprint(16, Precision::F64), 2 * MiB);
  EXPECT_EQ(footprint(16, Precision::F32), 1 * MiB);
  EXPECT_EQ(footprint(18, Precision::F64), 8 * MiB);
  EXPECT_EQ(footprint(20, Precision::F64), 32 * MiB);
  EXPECT_EQ(footprint(20, Precision::F32), 16 * MiB);
  EXPECT_EQ(footprint(20, Precision::F64, 0.01), 64 * MiB);

  // The two host shapes the rule was measured on report the same 2 MiB
  // L2 and very different last-level caches: a 4-core AVX-512 host with
  // a 105 MiB L3, and a 4-vCPU guest whose sysfs lists the host
  // socket's whole 300 MiB L3.  Only the L2 enters the rule, so both
  // run n = 16 f64 shot-level (its 2 MiB arena fits exactly) and
  // n >= 18 kernel-level.
  for (const std::string l3 : {"107520K", "307200K"}) {
    const SysfsCacheDir host("l3_" + l3);
    host.add(0, "1", "Data", "48K");
    host.add(1, "1", "Instruction", "32K");
    host.add(2, "2", "Unified", "2048K");
    host.add(3, "3", "Unified", l3);
    const std::uint64_t l2 = read_l2_bytes(host.path());
    ASSERT_EQ(l2, 2 * MiB) << l3;
    const auto pick = [&](int n, Precision prec) {
      return choose_parallelism(footprint(n, prec), 16, 4, l2);
    };
    EXPECT_EQ(pick(14, Precision::F64), Parallelism::kShots) << l3;
    EXPECT_EQ(pick(16, Precision::F64), Parallelism::kShots) << l3;
    EXPECT_EQ(pick(16, Precision::F32), Parallelism::kShots) << l3;
    EXPECT_EQ(pick(18, Precision::F64), Parallelism::kKernels) << l3;
    EXPECT_EQ(pick(18, Precision::F32), Parallelism::kKernels) << l3;
    EXPECT_EQ(pick(20, Precision::F64), Parallelism::kKernels) << l3;
    EXPECT_EQ(pick(20, Precision::F32), Parallelism::kKernels) << l3;
  }
  // A 1 MiB L2 moves n = 16 f64 (2 MiB) to kernel level, not f32.
  EXPECT_EQ(choose_parallelism(footprint(16, Precision::F64), 16, 4, MiB),
            Parallelism::kKernels);
  EXPECT_EQ(choose_parallelism(footprint(16, Precision::F32), 16, 4, MiB),
            Parallelism::kShots);
}

TEST(Parallelism, EdgeCases) {
  constexpr std::uint64_t MiB = std::uint64_t{1} << 20;
  // One kernel thread: a serial loop would idle every other core.
  EXPECT_EQ(choose_parallelism(64 * MiB, 16, 1, 2 * MiB),
            Parallelism::kShots);
  EXPECT_EQ(choose_parallelism(64 * MiB, 1, 1, 2 * MiB), Parallelism::kShots);
  // One shot runs on the calling thread with every kernel thread.
  EXPECT_EQ(choose_parallelism(1 * MiB, 1, 4, 2 * MiB),
            Parallelism::kKernels);
  EXPECT_EQ(choose_parallelism(64 * MiB, 1, 4, 2 * MiB),
            Parallelism::kKernels);
  // No reported footprint keeps shots in parallel.
  EXPECT_EQ(choose_parallelism(0, 16, 4, 1), Parallelism::kShots);
  // The threshold is strict: an arena that exactly fills the L2 fits.
  EXPECT_EQ(choose_parallelism(2 * MiB, 16, 4, 2 * MiB), Parallelism::kShots);
  EXPECT_EQ(choose_parallelism(2 * MiB + 1, 16, 4, 2 * MiB),
            Parallelism::kKernels);
}

TEST(Parallelism, L2CacheFromSysfs) {
  const SysfsCacheDir dir("l2");
  // Nothing readable: the fallback constant.
  EXPECT_EQ(read_l2_bytes(dir.path() + "/missing"), kFallbackL2Bytes);
  EXPECT_EQ(read_l2_bytes(dir.path()), kFallbackL2Bytes);
  dir.add(0, "garbage", "Data", "48K");
  EXPECT_EQ(read_l2_bytes(dir.path()), kFallbackL2Bytes);
  // L1 only, or an L2 that is an instruction cache: no L2 to read.
  dir.add(0, "1", "Data", "48K");
  dir.add(1, "2", "Instruction", "4096K");
  EXPECT_EQ(read_l2_bytes(dir.path()), kFallbackL2Bytes);
  dir.add(2, "2", "Unified", "garbage");
  EXPECT_EQ(read_l2_bytes(dir.path()), kFallbackL2Bytes);
  // A unified L2; the L3 and L4 around it never count.
  dir.add(2, "2", "Unified", "1280K");
  dir.add(3, "3", "Unified", "107520K");
  dir.add(4, "4", "Unified", "1G");
  EXPECT_EQ(read_l2_bytes(dir.path()), std::uint64_t{1280} << 10);
  // Split L2 entries: the larger one.
  dir.add(5, "2", "Data", "2M");
  EXPECT_EQ(read_l2_bytes(dir.path()), std::uint64_t{2} << 20);
  EXPECT_GT(l2_bytes(), 0u);
}

TEST(Session, PatternCacheHitsOnRepeatedAngles) {
  const Workload w = Workload::maxcut(cycle_graph(4));
  const Angles a({0.3}, {0.2});
  const Angles b({0.9}, {-0.4});
  Session session(w, "mbqc");
  session.expectation(a);
  session.expectation(a);
  session.sample(a, 4);
  session.expectation(b);
  EXPECT_EQ(session.cache_misses(), 2u);  // a, b
  EXPECT_EQ(session.cache_hits(), 2u);    // repeat a twice
  EXPECT_EQ(session.cache_entries(), 2u);
}

TEST(Session, CacheEvictsLeastRecentlyUsed) {
  const Workload w = Workload::maxcut(cycle_graph(3));
  Session session(w, "statevector", {.cache_capacity = 2});
  session.expectation(Angles({0.1}, {0.1}));
  session.expectation(Angles({0.2}, {0.2}));
  session.expectation(Angles({0.1}, {0.1}));  // refresh the first entry
  session.expectation(Angles({0.3}, {0.3}));  // evicts (0.2, 0.2)
  EXPECT_EQ(session.cache_entries(), 2u);
  session.expectation(Angles({0.1}, {0.1}));  // still cached: was refreshed
  EXPECT_EQ(session.cache_hits(), 2u);
  EXPECT_EQ(session.cache_misses(), 3u);
}

TEST(Session, ObjectiveDrivesOptimizerThroughBackend) {
  const Workload w = Workload::maxcut(cycle_graph(4));
  Session session(w, "statevector");
  auto objective = session.objective();
  const real at_zero = objective({0.0, 0.0});
  EXPECT_NEAR(at_zero, 2.0, 1e-9);  // <cut> of C4 in |+...+> is |E|/2
  const auto p1 = qaoa::maxcut_p1_grid_optimum(cycle_graph(4), 32);
  EXPECT_GT(objective({p1.gamma, p1.beta}), at_zero + 0.1);
  EXPECT_GT(session.cache_entries(), 0u);
}

TEST(Session, UnsupportedWorkloadThrowsWithReason) {
  const Workload w = Workload::mis(path_graph(3));
  Session clifford_session(w, "clifford");
  // MIS patterns at generic angles are not Clifford.
  Rng rng(29);
  EXPECT_THROW(clifford_session.expectation(Angles::random(1, rng)), Error);
}

TEST(Rng, StreamsAreStableAndDecorrelated) {
  Rng root(5);
  Rng a = root.stream(0);
  Rng b = root.stream(0);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next(), b.next());
  Rng c = root.stream(1);
  Rng d = root.stream(0);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (c.next() == d.next());
  EXPECT_LT(same, 4);
}

}  // namespace
}  // namespace mbq::api
