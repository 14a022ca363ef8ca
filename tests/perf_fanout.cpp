// Process fan-out must not be slower than in-process execution by more
// than 2x on the same host.  Sharded (num_processes = 2) and remote
// (an embedded serve::Daemon with 2 workers) sampling of a 3-regular
// n = 14, p = 1 workload, 8 shots per request, are timed against the
// in-process Session on the same request.  Every mbq_worker runs one
// thread for its kernel sweeps unless MBQ_WORKER_THREADS says
// otherwise; a worker that starts a full OpenMP team per sweep
// oversubscribes the cores and makes each request hundreds of times
// slower, which this check catches.
//
// The in-process reference runs on as many threads as the fan-out has
// single-threaded workers, so the ratio measures the fan-out's own cost
// (frames, queueing, merge) rather than the core count: against all 4
// cores of a 4-core host, 2 one-thread workers sit at exactly 2x.
//
// Registered under the "perf" label and the "perf" configuration, so
// plain `ctest` leaves it out; run it with `ctest -C perf -L perf`.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "mbq/api/api.h"
#include "mbq/common/parallel.h"
#include "mbq/graph/generators.h"
#include "mbq/serve/daemon.h"
#include "mbq/shard/worker_pool.h"

namespace mbq {
namespace {

using api::SampleResult;
using api::Session;
using api::SessionOptions;
using api::Workload;
using qaoa::Angles;

constexpr int kWorkers = 2;
constexpr int kShots = 8;
constexpr int kRequests = 25;
constexpr double kMaxRatio = 2.0;

Workload fanout_workload() {
  Rng rng(14);
  return Workload::maxcut(random_regular_graph(14, 3, rng));
}

/// Median wall time of kRequests warm sample() calls, after one warm-up
/// call that spawns workers and fills the prepare caches.
double median_request_ms(Session& session, const Angles& a) {
  session.sample(a, kShots);
  std::vector<double> ms;
  for (int r = 0; r < kRequests; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    session.sample(a, kShots);
    const auto t1 = std::chrono::steady_clock::now();
    ms.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  std::nth_element(ms.begin(), ms.begin() + kRequests / 2, ms.end());
  return ms[kRequests / 2];
}

/// Same seed, same call sequence: the fan-out path returns the
/// in-process shots bit for bit.
void expect_same_first_request(Session& fanout, const Workload& w,
                               const Angles& a) {
  Session local(w, "mbqc", {.seed = 5, .num_processes = 1});
  const SampleResult want = local.sample(a, kShots);
  const SampleResult got = fanout.sample(a, kShots);
  ASSERT_EQ(want.shots.size(), got.shots.size());
  for (std::size_t s = 0; s < want.shots.size(); ++s)
    EXPECT_EQ(want.shots[s].x, got.shots[s].x) << "shot " << s;
}

class FanoutPerf : public ::testing::Test {
 protected:
  void SetUp() override {
    worker_ = shard::resolve_worker_path();
    ASSERT_FALSE(worker_.empty()) << "mbq_worker not found next to the test";
    Session local(w_, "mbqc", {.seed = 5, .num_processes = 1});
    set_num_threads(kWorkers);
    inproc_ms_ = median_request_ms(local, a_);
    set_num_threads(0);
  }

  void expect_within_bound(const char* path, double ms) const {
    std::printf("%s: %.3f ms per %d-shot request, in-process %.3f ms "
                "(ratio %.2f, bound %.1f)\n",
                path, ms, kShots, inproc_ms_, ms / inproc_ms_, kMaxRatio);
    EXPECT_LE(ms, kMaxRatio * inproc_ms_) << path;
  }

  const Workload w_ = fanout_workload();
  const Angles a_{{0.45}, {0.35}};
  std::string worker_;
  double inproc_ms_ = 0.0;
};

TEST_F(FanoutPerf, ShardedWithinTwiceInProcess) {
  SessionOptions o{.seed = 5, .num_processes = kWorkers};
  o.worker_path = worker_;
  Session sharded(w_, "mbqc", o);
  expect_same_first_request(sharded, w_, a_);
  ASSERT_EQ(sharded.shard_workers(), kWorkers);
  expect_within_bound("sharded", median_request_ms(sharded, a_));
}

TEST_F(FanoutPerf, EmbeddedDaemonWithinTwiceInProcess) {
  serve::DaemonOptions d;
  d.endpoints = {"unix:/tmp/mbq-perf-fanout-" + std::to_string(::getpid()) +
                 ".sock"};
  d.workers = kWorkers;
  d.worker_path = worker_;
  serve::Daemon daemon(d);
  daemon.start();
  SessionOptions o{.seed = 5};
  o.daemon_endpoint = daemon.endpoint_string();
  Session remote(w_, "mbqc", o);
  expect_same_first_request(remote, w_, a_);
  expect_within_bound("remote", median_request_ms(remote, a_));
  daemon.stop();
}

}  // namespace
}  // namespace mbq
