// Process-sharded sampling & batch evaluation: results must be
// BIT-identical to the in-process path at every worker count (the
// process-count half of Session's determinism contract), worker death
// must surface as a descriptive Error — never a hang — with the Session
// falling back in-process afterwards, and ShardPlan must cover the
// index space exactly for every (total, workers) shape.

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "mbq/api/api.h"
#include "mbq/common/rng.h"
#include "mbq/common/serialize.h"
#include "mbq/graph/generators.h"
#include "mbq/shard/plan.h"
#include "mbq/shard/protocol.h"
#include "mbq/shard/task.h"
#include "mbq/shard/worker_pool.h"

namespace mbq {
namespace {

using api::SampleResult;
using api::Session;
using api::SessionOptions;
using api::Workload;
using qaoa::Angles;

std::string worker_path() {
  const std::string path = shard::resolve_worker_path();
  EXPECT_FALSE(path.empty())
      << "mbq_worker not found next to the test binary — build the "
         "mbq_worker target (part of the default build)";
  return path;
}

SessionOptions sharded_options(std::uint64_t seed, int processes) {
  SessionOptions o;
  o.seed = seed;
  o.num_processes = processes;
  return o;
}

std::vector<Angles> random_points(int count, int p, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Angles> points;
  points.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) points.push_back(Angles::random(p, rng));
  return points;
}

void expect_same_shots(const SampleResult& got, const SampleResult& want,
                       const std::string& context) {
  ASSERT_EQ(got.shots.size(), want.shots.size()) << context;
  for (std::size_t s = 0; s < want.shots.size(); ++s) {
    EXPECT_EQ(got.shots[s].x, want.shots[s].x) << context << " shot " << s;
    EXPECT_EQ(got.shots[s].cost, want.shots[s].cost)
        << context << " shot " << s;
  }
}

// --- ShardPlan ---------------------------------------------------------

TEST(ShardPlan, PropertiesHoldOverUnevenCounts) {
  // Exact cover in order, balanced within one item, empties only as a
  // trailing suffix — for every shape including total < workers,
  // total == 0, and counts that do not divide evenly.
  for (const std::uint64_t total : {0ULL, 1ULL, 2ULL, 3ULL, 5ULL, 7ULL,
                                    16ULL, 17ULL, 100ULL, 1023ULL}) {
    for (const int workers : {1, 2, 3, 4, 5, 7, 16}) {
      const shard::ShardPlan plan(total, workers);
      ASSERT_EQ(plan.num_workers(), workers);
      EXPECT_EQ(plan.total(), total);

      std::uint64_t covered = 0, min_size = ~0ULL, max_size = 0;
      std::uint64_t expect_begin = 0;
      bool seen_empty = false;
      for (const shard::ShardRange& r : plan.ranges()) {
        ASSERT_LE(r.begin, r.end);
        ASSERT_EQ(r.begin, expect_begin) << "ranges must be contiguous";
        expect_begin = r.end;
        covered += r.size();
        min_size = std::min(min_size, r.size());
        max_size = std::max(max_size, r.size());
        if (r.empty()) seen_empty = true;
        else EXPECT_FALSE(seen_empty) << "empty ranges must be trailing";
      }
      EXPECT_EQ(covered, total) << total << "/" << workers;
      EXPECT_EQ(plan.ranges().back().end, total);
      EXPECT_LE(max_size - min_size, 1u) << "sizes must differ by <= 1";
      EXPECT_EQ(plan.active_workers(),
                static_cast<int>(std::min<std::uint64_t>(
                    total, static_cast<std::uint64_t>(workers))));
    }
  }
  EXPECT_THROW(shard::ShardPlan(4, 0), Error);
}

// --- wire format -------------------------------------------------------

TEST(ShardProtocol, WorkloadAndRequestRoundTrip) {
  Workload qaoa_w = Workload::maxcut(cycle_graph(5));
  qaoa_w.with_linear_style(core::LinearTermStyle::FusedIntoMixer);
  Workload mis_w = Workload::mis(path_graph(4));

  for (const Workload* w : {&qaoa_w, &mis_w}) {
    shard::Request req;
    req.kind = shard::TaskKind::kSample;
    req.backend = "mbqc";
    req.seed = 0xDEADBEEF;
    req.workload = *w;
    req.points = random_points(3, 2, 9);
    req.shots = 17;
    req.base_call = 5;
    req.begin = 3;
    req.end = 29;

    const auto frame = shard::encode_request(req);
    const shard::Request back = shard::decode_request(frame);
    EXPECT_EQ(back.kind, req.kind);
    EXPECT_EQ(back.backend, req.backend);
    EXPECT_EQ(back.seed, req.seed);
    EXPECT_EQ(back.workload.ansatz(), w->ansatz());
    EXPECT_EQ(back.workload.num_qubits(), w->num_qubits());
    EXPECT_EQ(back.workload.linear_style(), w->linear_style());
    EXPECT_EQ(back.workload.cost().constant(), w->cost().constant());
    ASSERT_EQ(back.workload.cost().terms().size(), w->cost().terms().size());
    for (std::size_t t = 0; t < w->cost().terms().size(); ++t) {
      EXPECT_EQ(back.workload.cost().terms()[t].coeff,
                w->cost().terms()[t].coeff);
      EXPECT_EQ(back.workload.cost().terms()[t].support,
                w->cost().terms()[t].support);
    }
    ASSERT_EQ(back.points.size(), req.points.size());
    for (std::size_t i = 0; i < req.points.size(); ++i) {
      EXPECT_EQ(back.points[i].gamma, req.points[i].gamma);  // bit-exact
      EXPECT_EQ(back.points[i].beta, req.points[i].beta);
    }
    EXPECT_EQ(back.shots, req.shots);
    EXPECT_EQ(back.base_call, req.base_call);
    EXPECT_EQ(back.begin, req.begin);
    EXPECT_EQ(back.end, req.end);
  }
  EXPECT_EQ(shard::unshardable_reason(qaoa_w), "");

  // Truncated frames throw instead of decoding garbage.
  auto frame = shard::encode_request(shard::Request{});
  frame.resize(frame.size() - 3);
  EXPECT_THROW(shard::decode_request(frame), Error);
}

TEST(ShardProtocol, CustomWorkloadsAreUnshardable) {
  const Workload w = Workload::custom(
      qaoa::CostHamiltonian::maxcut(cycle_graph(3)),
      [](const Angles&) { return Circuit(3); });
  EXPECT_FALSE(shard::shardable(w));
  EXPECT_NE(shard::unshardable_reason(w), "");
  ByteWriter out;
  EXPECT_THROW(shard::encode_workload(out, w), Error);
}

TEST(ShardProtocol, ResponseRoundTripIsBitExact) {
  shard::Response ok;
  ok.outcomes = {0, 7, 0xFFFFFFFFFFFFFFFFULL};
  ok.values = {0.1, -0.0, 3.5e-300};
  const shard::Response ok_back =
      shard::decode_response(shard::encode_response(ok));
  EXPECT_TRUE(ok_back.ok);
  EXPECT_EQ(ok_back.outcomes, ok.outcomes);
  ASSERT_EQ(ok_back.values.size(), ok.values.size());
  for (std::size_t i = 0; i < ok.values.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(ok_back.values[i]),
              std::bit_cast<std::uint64_t>(ok.values[i]));

  shard::Response err;
  err.ok = false;
  err.error_index = 42;
  err.error_message = "backend 'x' cannot run this workload";
  err.error_in_eval = true;
  const shard::Response err_back =
      shard::decode_response(shard::encode_response(err));
  EXPECT_FALSE(err_back.ok);
  EXPECT_EQ(err_back.error_index, 42u);
  EXPECT_EQ(err_back.error_message, err.error_message);
  EXPECT_TRUE(err_back.error_in_eval);

  // A corrupt vector-length prefix must throw Error, never attempt the
  // allocation it announces.
  ByteWriter corrupt;
  corrupt.u8(0);            // kStatusOk
  corrupt.u32(0xFFFFFFFF);  // outcomes length: ~32 GiB of u64s
  EXPECT_THROW(shard::decode_response(corrupt.data()), Error);
}

// --- worker task logic (in-process, no fork) ---------------------------

TEST(ShardTask, SliceReplaysTheSerialStreams) {
  // execute_request IS the worker binary's compute path; run it inline
  // against a serial Session to pin the stream assignment itself.
  const Workload w = Workload::maxcut(cycle_graph(4));
  const Angles a({0.4}, {0.3});
  const int shots = 12;

  Session serial(w, "mbqc", sharded_options(11, 1));
  const SampleResult want = serial.sample(a, shots);

  shard::Request req;
  req.kind = shard::TaskKind::kSample;
  req.backend = "mbqc";
  req.seed = 11;
  req.workload = w;
  req.points = {a};
  req.shots = shots;
  req.base_call = 0;  // the session's first sample call
  req.begin = 3;
  req.end = 9;
  const shard::Response r = shard::execute_request(req);
  ASSERT_TRUE(r.ok) << r.error_message;
  ASSERT_EQ(r.outcomes.size(), 6u);
  for (std::size_t t = 0; t < r.outcomes.size(); ++t)
    EXPECT_EQ(r.outcomes[t], want.shots[3 + t].x) << t;
}

TEST(ShardTask, ErrorsCarryTheLowestFailingIndex) {
  // Non-Clifford angles on the clifford backend: the slice fails at its
  // first pair with the same message Session::require_supported emits.
  const Workload w = Workload::maxcut(cycle_graph(4));
  shard::Request req;
  req.kind = shard::TaskKind::kSample;
  req.backend = "clifford";
  req.seed = 1;
  req.workload = w;
  req.points = {Angles({0.37}, {0.21})};
  req.shots = 8;
  req.begin = 2;
  req.end = 6;
  const shard::Response r = shard::execute_request(req);
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.error_index, 2u);
  EXPECT_NE(r.error_message.find("cannot run this workload"),
            std::string::npos)
      << r.error_message;

  // Expectation slices report support failures as CHECK-phase (streams
  // not yet drawn), which the parent maps to an unburned call counter.
  shard::Request exp = req;
  exp.kind = shard::TaskKind::kExpectation;
  exp.begin = 0;
  exp.end = 1;
  const shard::Response er = shard::execute_request(exp);
  ASSERT_FALSE(er.ok);
  EXPECT_EQ(er.error_index, 0u);
  EXPECT_FALSE(er.error_in_eval);

  req.backend = "no-such-backend";
  const shard::Response unknown = shard::execute_request(req);
  ASSERT_FALSE(unknown.ok);
  EXPECT_NE(unknown.error_message.find("unknown backend"), std::string::npos);
}

// --- process-count invariance ------------------------------------------

TEST(ShardSession, SampleInvariantAcrossProcessCounts) {
  // The acceptance sweep: workers {1, 2, 4} x seeds {0, 1, 42} against
  // the in-process reference — outcome streams AND merged histograms
  // bit-identical (1 process = the documented in-process fallback).
  const Workload w = Workload::maxcut(cycle_graph(5));
  const Angles a({0.4}, {0.3});
  const int shots = 24;

  for (const std::uint64_t seed : {0ULL, 1ULL, 42ULL}) {
    Session reference(w, "mbqc", sharded_options(seed, 1));
    const SampleResult want = reference.sample(a, shots);

    for (const int processes : {1, 2, 4}) {
      Session session(w, "mbqc", sharded_options(seed, processes));
      const SampleResult got = session.sample(a, shots);
      if (processes > 1)
        EXPECT_EQ(session.shard_workers(), processes)
            << "sharding silently fell back — the sweep would be vacuous";
      else
        EXPECT_EQ(session.shard_workers(), 0);
      expect_same_shots(got, want,
                        "seed " + std::to_string(seed) + " processes " +
                            std::to_string(processes));
      EXPECT_EQ(got.counts(5), want.counts(5));
    }
  }
}

TEST(ShardSession, SampleBatchInvariantAcrossProcessCounts) {
  const Workload w = Workload::maxcut(path_graph(4));
  const std::vector<Angles> points = random_points(3, 1, 77);
  const int shots = 10;

  for (const std::uint64_t seed : {0ULL, 1ULL, 42ULL}) {
    Session reference(w, "mbqc", sharded_options(seed, 1));
    const std::vector<SampleResult> want =
        reference.sample_batch(points, shots);

    for (const int processes : {2, 4}) {
      Session session(w, "mbqc", sharded_options(seed, processes));
      const std::vector<SampleResult> got =
          session.sample_batch(points, shots);
      ASSERT_EQ(session.shard_workers(), processes);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i)
        expect_same_shots(got[i], want[i],
                          "seed " + std::to_string(seed) + " point " +
                              std::to_string(i));
    }
  }
}

TEST(ShardSession, ExpectationBatchInvariantAcrossProcessCounts) {
  for (const char* backend : {"mbqc", "statevector"}) {
    const Workload w = Workload::maxcut(cycle_graph(4));
    const std::vector<Angles> points = random_points(7, 2, 5);

    Session reference(w, backend, sharded_options(42, 1));
    const std::vector<real> want = reference.expectation_batch(points);

    for (const int processes : {2, 4}) {
      Session session(w, backend, sharded_options(42, processes));
      const std::vector<real> got = session.expectation_batch(points);
      ASSERT_EQ(session.shard_workers(), processes) << backend;
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_EQ(got[i], want[i]) << backend << " point " << i;
    }
  }
}

TEST(ShardSession, ShardedAndInProcessCallsShareOneStreamSequence) {
  // Mixing sharded and in-process calls on one session must not disturb
  // the call-index sequence: call k draws stream(k) either way.
  const Workload w = Workload::maxcut(cycle_graph(4));
  const Angles a({0.4}, {0.3});

  Session reference(w, "mbqc", sharded_options(13, 1));
  const SampleResult want0 = reference.sample(a, 8);
  const SampleResult want1 = reference.sample(a, 8);
  const SampleResult want2 = reference.sample(a, 8);

  Session session(w, "mbqc", sharded_options(13, 2));
  const SampleResult got0 = session.sample(a, 8);   // sharded
  EXPECT_EQ(session.shard_workers(), 2);
  const SampleResult got1 = session.sample(a, 1);   // 1 shot: in-process
  const SampleResult got2 = session.sample(a, 8);   // sharded again
  expect_same_shots(got0, want0, "call 0");
  ASSERT_EQ(got1.shots.size(), 1u);
  EXPECT_EQ(got1.shots[0].x, want1.shots[0].x);
  expect_same_shots(got2, want2, "call 2");
}

TEST(ShardSession, EnvironmentVariableSelectsTheProcessCount) {
  // num_processes = 0 (the default) defers to MBQ_NUM_PROCESSES — the
  // hook the CI matrix uses to run the whole tier-1 suite sharded.
  const Workload w = Workload::maxcut(cycle_graph(4));
  const Angles a({0.4}, {0.3});

  Session reference(w, "mbqc", sharded_options(3, 1));
  const SampleResult want = reference.sample(a, 8);

  ASSERT_EQ(setenv("MBQ_NUM_PROCESSES", "2", 1), 0);
  Session session(w, "mbqc", sharded_options(3, 0));
  EXPECT_EQ(session.num_processes(), 2);
  const SampleResult got = session.sample(a, 8);
  ASSERT_EQ(unsetenv("MBQ_NUM_PROCESSES"), 0);
  EXPECT_EQ(session.shard_workers(), 2);
  expect_same_shots(got, want, "via MBQ_NUM_PROCESSES");
}

// --- graceful fallback -------------------------------------------------

TEST(ShardSession, CustomWorkloadsFallBackInProcess) {
  const auto cost = qaoa::CostHamiltonian::maxcut(cycle_graph(3));
  const Workload w = Workload::custom(cost, [](const Angles& a) {
    Circuit c(3);
    for (int q = 0; q < 3; ++q) c.rz(q, a.gamma[0]);
    return c;
  });
  const Angles a({0.4}, {0.3});

  Session reference(w, "statevector", sharded_options(5, 1));
  Session session(w, "statevector", sharded_options(5, 4));
  const SampleResult want = reference.sample(a, 8);
  const SampleResult got = session.sample(a, 8);
  EXPECT_EQ(session.shard_workers(), 0) << "custom ansatz cannot shard";
  expect_same_shots(got, want, "custom fallback");
}

TEST(ShardSession, RuntimeRegisteredBackendsFallBackInProcess) {
  // A backend add()ed at runtime exists in THIS process's registry only
  // — a worker could never rebuild it, so such sessions must not shard
  // (and must still work).
  static bool registered = false;
  if (!registered) {
    api::BackendRegistry::instance().add(
        "shard-test-alias",
        [] { return std::make_shared<api::StatevectorBackend>(); });
    registered = true;
  }
  EXPECT_FALSE(api::BackendRegistry::instance().is_builtin("shard-test-alias"));
  EXPECT_TRUE(api::BackendRegistry::instance().is_builtin("mbqc"));

  const Workload w = Workload::maxcut(cycle_graph(4));
  const Angles a({0.4}, {0.3});
  Session session(w, "shard-test-alias", sharded_options(5, 4));
  Session reference(w, "statevector", sharded_options(5, 1));
  const SampleResult got = session.sample(a, 8);
  EXPECT_EQ(session.shard_workers(), 0);
  expect_same_shots(got, reference.sample(a, 8), "runtime-registered");
}

TEST(ShardSession, MissingWorkerBinaryFallsBackInProcess) {
  SessionOptions o = sharded_options(5, 4);
  o.worker_path = "/nonexistent/mbq_worker";
  const Workload w = Workload::maxcut(cycle_graph(4));
  Session session(w, "mbqc", o);
  Session reference(w, "mbqc", sharded_options(5, 1));
  const Angles a({0.4}, {0.3});
  const SampleResult got = session.sample(a, 8);
  EXPECT_EQ(session.shard_workers(), 0);
  expect_same_shots(got, reference.sample(a, 8), "missing worker binary");
}

TEST(ShardSession, UnsupportedPointsThrowLikeTheSerialLoop) {
  // Support failures must throw Error whether detected in the parent
  // (sample: the parent still runs checked_prepared) or in a worker
  // (expectation_batch: workers do their own checks and the parent
  // rethrows the lowest failing point, with the call's stream indices
  // NOT consumed — matching the serial loop, which throws before
  // burning any).
  const Workload w = Workload::maxcut(cycle_graph(4));
  const Angles clifford_point({kPi / 2}, {kPi / 4});
  const Angles generic_point({0.37}, {0.21});

  Session session(w, "clifford", sharded_options(2, 2));
  EXPECT_THROW(session.sample(generic_point, 8), Error);

  const std::vector<Angles> points = {clifford_point, generic_point};
  try {
    session.expectation_batch(points);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("cannot run this workload"),
              std::string::npos)
        << e.what();
  }
  // The failed batch burned no expectation streams: the next call still
  // draws stream 0, like a serial session whose failing loop never got
  // past the support check.
  Session reference(w, "clifford", sharded_options(2, 1));
  EXPECT_EQ(session.expectation(clifford_point),
            reference.expectation(clifford_point));
}

// --- worker death ------------------------------------------------------

TEST(ShardWorkerDeath, PoolRoundThrowsDescriptivelyAndNeverHangs) {
  shard::WorkerPool pool(2, worker_path());
  ASSERT_EQ(pool.size(), 2);
  ASSERT_TRUE(pool.alive());
  ASSERT_EQ(pool.pids().size(), 2u);

  // Kill worker 1 and wait until it is fully gone, so the round below
  // deterministically hits a dead channel.
  const pid_t victim = pool.pids()[1];
  ASSERT_EQ(kill(victim, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(waitpid(victim, &status, 0), victim);

  shard::Request req;
  req.kind = shard::TaskKind::kSample;
  req.backend = "mbqc";
  req.seed = 1;
  req.workload = Workload::maxcut(cycle_graph(4));
  req.points = {Angles({0.4}, {0.3})};
  req.shots = 4;
  req.begin = 0;
  req.end = 2;
  const std::vector<std::vector<std::byte>> requests = {
      shard::encode_request(req), shard::encode_request(req)};

  try {
    pool.round(requests);
    FAIL() << "round with a killed worker should have thrown";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("worker"), std::string::npos) << what;
    EXPECT_NE(what.find("killed or crashed"), std::string::npos) << what;
  }
  EXPECT_FALSE(pool.alive());
  EXPECT_THROW(pool.round(requests), Error);  // a broken pool stays broken
}

TEST(ShardWorkerDeath, SessionSurfacesTheErrorThenFallsBack) {
  const Workload w = Workload::maxcut(cycle_graph(4));
  const Angles a({0.4}, {0.3});

  Session session(w, "mbqc", sharded_options(21, 2));
  const SampleResult first = session.sample(a, 8);  // spawns the pool
  ASSERT_EQ(session.shard_workers(), 2);

  const pid_t victim = session.worker_pool()->pids()[0];
  ASSERT_EQ(kill(victim, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(waitpid(victim, &status, 0), victim);

  EXPECT_THROW(session.sample(a, 8), Error);  // descriptive, no hang
  EXPECT_EQ(session.shard_workers(), 0);

  // The session stays usable in-process, and the failed call burned its
  // call index exactly as a serial call crashing mid-shots would — so
  // call 2 here matches call 2 of an uninterrupted reference session.
  Session reference(w, "mbqc", sharded_options(21, 1));
  const SampleResult ref0 = reference.sample(a, 8);
  reference.sample(a, 8);  // index 1: consumed by the failed call above
  const SampleResult ref2 = reference.sample(a, 8);
  expect_same_shots(first, ref0, "pre-death call");
  expect_same_shots(session.sample(a, 8), ref2, "post-death call");
}

TEST(ShardWorkerDeath, WedgedWorkerTimesOutWithAMessageNotAHang) {
  // A SIGSTOP'd worker is the nasty case: its socket stays open, so
  // without a deadline the parent blocks forever.  MBQ_WORKER_TIMEOUT_MS
  // (re-read every round) must turn it into an Error naming the worker
  // and its slice.
  shard::WorkerPool pool(2, worker_path());
  const pid_t victim = pool.pids()[1];

  shard::Request req;
  req.kind = shard::TaskKind::kSample;
  req.backend = "mbqc";
  req.seed = 1;
  req.workload = Workload::maxcut(cycle_graph(4));
  req.points = {Angles({0.4}, {0.3})};
  req.shots = 4;
  req.begin = 0;
  req.end = 2;
  const std::vector<std::vector<std::byte>> requests = {
      shard::encode_request(req), shard::encode_request(req)};

  // One healthy round first, without a deadline: a freshly exec'd worker
  // can take longer than the deadline to answer its first request on a
  // loaded host, and then the error would name worker 0, not the
  // stopped one.  Warm, worker 0 answers a 4-qubit slice far inside
  // the deadline.
  pool.round(requests);
  ASSERT_TRUE(pool.alive());
  ASSERT_EQ(kill(victim, SIGSTOP), 0);

  ASSERT_EQ(setenv("MBQ_WORKER_TIMEOUT_MS", "300", 1), 0);
  EXPECT_EQ(shard::worker_timeout_ms(), 300);
  try {
    pool.round(requests);
    FAIL() << "round against a stopped worker should have timed out";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("worker 1"), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(victim)), std::string::npos) << what;
    EXPECT_NE(what.find("slice"), std::string::npos) << what;
    EXPECT_NE(what.find("timed out after 300 ms"), std::string::npos)
        << what;
  }
  ASSERT_EQ(unsetenv("MBQ_WORKER_TIMEOUT_MS"), 0);
  EXPECT_EQ(shard::worker_timeout_ms(), 0);
  EXPECT_FALSE(pool.alive());  // the poisoned pool tore itself down

  // Unwedge and reap so the stopped child does not outlive the test.
  kill(victim, SIGCONT);
  kill(victim, SIGKILL);
  int status = 0;
  waitpid(victim, &status, 0);
}

// --- merge-order independence ------------------------------------------

TEST(ShardTask, SliceMergeIsArrivalOrderIndependent) {
  // Execute a plan's slices independently and merge them in many
  // different arrival orders: every permutation must reproduce the
  // serial result bit for bit, because each slice's payload is a pure
  // function of (seed, global indices) and merging places it at its
  // global offset.  This is the exact property the serving daemon's
  // streaming dispatch leans on.
  const Workload w = Workload::maxcut(cycle_graph(6));
  const std::vector<Angles> points = random_points(3, 1, 77);
  const int shots = 20;
  const std::uint64_t total = points.size() * shots;

  Session serial(w, "mbqc", sharded_options(33, 1));
  const auto want_batch = serial.sample_batch(points, shots);
  std::vector<std::uint64_t> want;
  for (const SampleResult& r : want_batch)
    for (const auto& shot : r.shots) want.push_back(shot.x);
  ASSERT_EQ(want.size(), total);

  shard::Request whole;
  whole.kind = shard::TaskKind::kSample;
  whole.backend = "mbqc";
  whole.seed = 33;
  whole.workload = w;
  whole.points = points;
  whole.shots = shots;
  whole.base_call = 0;
  whole.begin = 0;
  whole.end = total;

  // Uneven 7-way plan over 60 pairs: slice boundaries cut through the
  // middle of points, the stress case for rebasing.
  const shard::ShardPlan plan(total, 7);
  struct Piece {
    std::uint64_t begin, end;
    std::vector<std::uint64_t> outcomes;
  };
  std::vector<Piece> pieces;
  for (const auto& [begin, end] : plan.ranges()) {
    const shard::SliceRequest slice = shard::rebase_slice(whole, begin, end);
    const shard::Response r = shard::execute_request(slice.request);
    ASSERT_TRUE(r.ok) << r.error_message;
    pieces.push_back({begin, end, r.outcomes});
  }
  ASSERT_GE(pieces.size(), 5u);

  std::vector<std::size_t> order(pieces.size());
  std::iota(order.begin(), order.end(), 0);
  Rng rng(5);
  for (int trial = 0; trial < 12; ++trial) {
    if (trial < static_cast<int>(order.size()))
      std::rotate(order.begin(), order.begin() + trial, order.end());
    else
      for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.uniform_index(i)]);

    std::vector<std::uint64_t> merged(total, ~std::uint64_t{0});
    for (const std::size_t pi : order) {
      const Piece& p = pieces[pi];
      ASSERT_EQ(p.outcomes.size(), p.end - p.begin);
      std::copy(p.outcomes.begin(), p.outcomes.end(),
                merged.begin() + static_cast<std::ptrdiff_t>(p.begin));
    }
    EXPECT_EQ(merged, want) << "arrival order trial " << trial;
  }
}

}  // namespace
}  // namespace mbq
