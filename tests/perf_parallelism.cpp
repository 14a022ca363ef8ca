// The shot-versus-kernel rule (api::choose_parallelism) must pick a path
// no more than kTolerance slower than the other one.  On 3-regular
// MaxCut at p = 1, n = 16 and n = 20, 4-shot Session::sample calls are
// timed on both paths, alternating, kRuns times each after a warm-up
// call:
//   * shot-level — the four shots run concurrently, one per thread, each
//     on its own arena (forced here by a backend that reports no
//     footprint, which the rule always keeps shot-level);
//   * kernel-level — the shots run one at a time on the calling thread
//     and every kernel sweep uses all kernel threads (forced here by
//     parallel_shots = false).
// The check compares the medians of the path the rule picks on this host
// (from the mbqc footprint and the per-core L2 in sysfs) and of the
// other path.  kTolerance = 1.15 leaves room for the ties the rule is
// allowed to break either way (n = 16 and n = 18 measure within noise of
// each other on 2 MiB-L2 hosts) while catching a wrong pick at n = 20,
// where the paths differ by 1.3x or more.
//
// Registered under the "perf" label and the "perf" configuration, so
// plain `ctest` leaves it out; run it with `ctest -C perf -L perf`.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "mbq/api/api.h"
#include "mbq/api/mbqc_backend.h"
#include "mbq/api/prepared.h"
#include "mbq/common/cpu.h"
#include "mbq/common/parallel.h"
#include "mbq/graph/generators.h"
#include "mbq/sim/collapse_threaded.h"

namespace mbq {
namespace {

using api::Parallelism;
using api::Session;
using api::SessionOptions;
using api::Workload;
using qaoa::Angles;

constexpr int kShots = 4;
constexpr int kRuns = 7;
constexpr double kTolerance = 1.15;

/// mbqc whose prepared artifacts report no executor footprint, so
/// choose_parallelism keeps every call shot-level.
class ShotLevelMbqc final : public api::Backend {
 public:
  std::string name() const override { return "mbqc-shot-level"; }
  api::Capabilities capabilities() const override {
    return inner_.capabilities();
  }
  std::shared_ptr<const api::Prepared> prepare(const Workload& w,
                                               const Angles& a) const override {
    auto prep = std::make_shared<api::PreparedPattern>(
        dynamic_cast<const api::PreparedPattern&>(*inner_.prepare(w, a)));
    prep->arena_bytes = 0;
    return prep;
  }
  real expectation(const Workload& w, const Angles& a, Rng& rng,
                   const api::Prepared* prep) const override {
    return inner_.expectation(w, a, rng, prep);
  }
  std::uint64_t sample_one(const Workload& w, const Angles& a, Rng& rng,
                           const api::Prepared* prep) const override {
    return inner_.sample_one(w, a, rng, prep);
  }

 private:
  api::MbqcBackend inner_;
};

double median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

double sample_ms(Session& session, const Angles& a) {
  const auto t0 = std::chrono::steady_clock::now();
  session.sample(a, kShots);
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

class ParallelismPerf : public ::testing::TestWithParam<int> {};

TEST_P(ParallelismPerf, RulePicksAPathWithinToleranceOfTheOther) {
  if (num_threads() < 2 || thr::kernel_threads() < 2)
    GTEST_SKIP() << "one thread: both paths are the same serial loop";
  const int n = GetParam();
  Rng graph_rng(static_cast<std::uint64_t>(n));
  const Workload w = Workload::maxcut(random_regular_graph(n, 3, graph_rng));
  const Angles a({0.45}, {0.35});

  const std::uint64_t footprint =
      api::MbqcBackend().prepare(w, a)->executor_bytes();
  const Parallelism pick = api::choose_parallelism(
      footprint, kShots, thr::kernel_threads(), l2_bytes());

  Session shots(w, std::make_shared<ShotLevelMbqc>(), {.seed = 3});
  SessionOptions serial{.seed = 3};
  serial.parallel_shots = false;
  Session kernels(w, "mbqc", serial);
  // Warm-up: prepare caches and arenas on every thread; both paths
  // return the same shots.
  const api::SampleResult want = shots.sample(a, kShots);
  const api::SampleResult got = kernels.sample(a, kShots);
  for (int s = 0; s < kShots; ++s)
    ASSERT_EQ(want.shots[s].x, got.shots[s].x) << "shot " << s;

  std::vector<double> shot_ms, kernel_ms;
  for (int r = 0; r < kRuns; ++r) {
    shot_ms.push_back(sample_ms(shots, a));
    kernel_ms.push_back(sample_ms(kernels, a));
  }
  const double shot_level = median(shot_ms);
  const double kernel_level = median(kernel_ms);
  const bool picks_kernels = pick == Parallelism::kKernels;
  const double picked = picks_kernels ? kernel_level : shot_level;
  const double other = picks_kernels ? shot_level : kernel_level;
  std::printf("n = %d: footprint %.1f MiB, L2 %.1f MiB, %d kernel threads; "
              "shot-level %.2f ms, kernel-level %.2f ms per %d-shot call; "
              "picks %s (ratio to the other path %.2f, bound %.2f)\n",
              n, static_cast<double>(footprint) / (1 << 20),
              static_cast<double>(l2_bytes()) / (1 << 20),
              thr::kernel_threads(), shot_level, kernel_level, kShots,
              picks_kernels ? "kernel-level" : "shot-level", picked / other,
              kTolerance);
  EXPECT_LE(picked, kTolerance * other);
}

INSTANTIATE_TEST_SUITE_P(ThreeRegularP1, ParallelismPerf,
                         ::testing::Values(16, 20));

}  // namespace
}  // namespace mbq
