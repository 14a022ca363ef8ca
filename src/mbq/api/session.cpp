#include "mbq/api/session.h"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <mutex>

#include "mbq/api/registry.h"
#include "mbq/common/cpu.h"
#include "mbq/common/error.h"
#include "mbq/common/parallel.h"
#include "mbq/serve/client.h"
#include "mbq/shard/plan.h"
#include "mbq/shard/protocol.h"
#include "mbq/shard/worker_pool.h"
#include "mbq/sim/collapse_threaded.h"

namespace mbq::api {

namespace {

int resolve_num_processes(int requested) {
  if (requested >= 1) return requested;
  if (const char* env = std::getenv("MBQ_NUM_PROCESSES"))
    if (const int n = std::atoi(env); n >= 1) return n;
  return 1;
}

/// The parallel_for_grain grain for `items` independent items whose
/// largest executor footprint is `executor_bytes`, as choose_parallelism
/// decides on this host: 1 spreads them over threads (shot-level), a
/// grain above the trip count keeps them on the calling thread
/// (kernel-level).
std::int64_t item_grain(std::uint64_t executor_bytes, std::int64_t items) {
  const Parallelism p =
      choose_parallelism(executor_bytes, static_cast<std::uint64_t>(items),
                         thr::kernel_threads(), l2_bytes());
  return p == Parallelism::kShots ? 1 : items + 1;
}

/// Largest executor footprint among prepared artifacts (null ones: 0).
std::uint64_t max_executor_bytes(
    std::span<const std::shared_ptr<const Prepared>> preps) {
  std::uint64_t bytes = 0;
  for (const auto& p : preps)
    if (p != nullptr) bytes = std::max(bytes, p->executor_bytes());
  return bytes;
}

}  // namespace

Parallelism choose_parallelism(std::uint64_t executor_bytes,
                               std::uint64_t items, int kernel_threads,
                               std::uint64_t l2_bytes) noexcept {
  if (executor_bytes == 0 || kernel_threads <= 1) return Parallelism::kShots;
  if (items <= 1) return Parallelism::kKernels;
  return executor_bytes > l2_bytes ? Parallelism::kKernels
                                   : Parallelism::kShots;
}

const Shot& SampleResult::best() const {
  MBQ_REQUIRE(!shots.empty(), "no shots recorded");
  const Shot* best = &shots.front();
  for (const Shot& s : shots)
    if (s.cost > best->cost) best = &s;
  return *best;
}

real SampleResult::mean_cost() const {
  MBQ_REQUIRE(!shots.empty(), "no shots recorded");
  real acc = 0.0;
  for (const Shot& s : shots) acc += s.cost;
  return acc / static_cast<real>(shots.size());
}

std::vector<std::int64_t> SampleResult::counts(int num_qubits) const {
  MBQ_REQUIRE(num_qubits >= 1,
              "histogram needs at least one qubit, got " << num_qubits);
  MBQ_REQUIRE(num_qubits <= 24,
              "counts(" << num_qubits << ") would allocate a 2^" << num_qubits
                        << "-entry dense histogram (>128 MiB); counts() "
                           "supports at most 24 qubits — aggregate the shots "
                           "directly for larger registers");
  std::vector<std::int64_t> out(std::size_t{1} << num_qubits, 0);
  for (const Shot& s : shots) {
    MBQ_REQUIRE(s.x < out.size(), "shot outcome " << s.x << " out of range");
    ++out[s.x];
  }
  return out;
}

std::map<std::uint64_t, std::int64_t> SampleResult::counts_map() const {
  std::map<std::uint64_t, std::int64_t> out;
  for (const Shot& s : shots) ++out[s.x];
  return out;
}

Session::Session(Workload workload, const std::string& backend_name,
                 SessionOptions options)
    : Session(std::move(workload),
              BackendRegistry::instance().create(backend_name), options) {
  // Record the exact key the user picked: it may carry configuration the
  // backend's own name() does not (e.g. "router-checked" names itself
  // "router"), and a worker process rebuilds the backend from this key.
  // Runtime-registered keys stay unset: they exist in THIS process's
  // registry only, so a worker could not rebuild them (no sharding).
  registry_key_ = BackendRegistry::instance().is_builtin(backend_name)
                      ? backend_name
                      : std::string{};
}

Session::Session(Workload workload, std::shared_ptr<Backend> backend,
                 SessionOptions options)
    : workload_(std::move(workload)),
      backend_(std::move(backend)),
      options_(options),
      rng_(options.seed) {
  MBQ_REQUIRE(backend_ != nullptr, "Session needs a backend");
  MBQ_REQUIRE(options_.cache_capacity >= 1, "cache capacity must be >= 1");
  if (options_.entangler_noise != 0.0) {
    MBQ_REQUIRE(workload_.entangler_noise() == 0.0 ||
                    workload_.entangler_noise() == options_.entangler_noise,
                "SessionOptions::entangler_noise = "
                    << options_.entangler_noise
                    << " conflicts with the workload's own noise level "
                    << workload_.entangler_noise());
    workload_.with_entangler_noise(options_.entangler_noise);
  }
  if (options_.precision != Precision::F64) {
    MBQ_REQUIRE(workload_.precision() == Precision::F64 ||
                    workload_.precision() == options_.precision,
                "SessionOptions::precision = "
                    << precision_name(options_.precision)
                    << " conflicts with the workload's own precision "
                    << precision_name(workload_.precision()));
    workload_.with_precision(options_.precision);
  }
  if (options_.kernel_threads > 0)
    thr::set_kernel_threads(options_.kernel_threads);
  num_processes_ = resolve_num_processes(options_.num_processes);
  daemon_endpoint_ = options_.daemon_endpoint;
  if (daemon_endpoint_.empty())
    if (const char* env = std::getenv("MBQ_DAEMON_ENDPOINT"))
      daemon_endpoint_ = env;
  // Instance-constructed sessions never shard (registry_key_ stays
  // empty): a worker rebuilds backends from a registry key, and a name
  // match alone cannot prove the instance carries the key's default
  // configuration — e.g. a RouterBackend with custom RouterOptions
  // still names itself "router", and a worker rebuilding "router"
  // would route differently, breaking bit-identity.  Construct by
  // registry name to opt into sharding.
}

Session::~Session() = default;

int Session::shard_workers() const noexcept {
  return pool_ != nullptr && pool_->alive() ? pool_->size() : 0;
}

shard::WorkerPool* Session::shard_pool(std::uint64_t items) {
  if (num_processes_ <= 1 || shard_disabled_ || items < 2) return nullptr;
  if (registry_key_.empty() || !shard::shardable(workload_)) return nullptr;
  if (pool_ == nullptr) {
    const std::string path =
        shard::resolve_worker_path(options_.worker_path);
    if (path.empty()) {
      shard_disabled_ = true;  // no worker executable: stay in-process
      return nullptr;
    }
    try {
      pool_ = std::make_unique<shard::WorkerPool>(num_processes_, path);
    } catch (const Error&) {
      shard_disabled_ = true;
      return nullptr;
    }
  }
  if (!pool_->alive()) {
    pool_.reset();
    shard_disabled_ = true;
    return nullptr;
  }
  return pool_.get();
}

const Prepared* Session::peek_cache(const std::vector<real>& key) const {
  for (const CacheEntry& entry : cache_)
    if (entry.key == key) return entry.prepared.get();
  return nullptr;
}

std::string Session::unsupported_reason(const qaoa::Angles& a) const {
  // Hand the backend any cached artifact so checks that need the
  // compiled pattern (clifford) do not recompile it.
  return backend_->unsupported_reason(workload_, a, peek_cache(a.flat()));
}

void Session::require_supported(const qaoa::Angles& a) const {
  const std::string reason = unsupported_reason(a);
  MBQ_REQUIRE(reason.empty(),
              "backend '" << backend_->name() << "' cannot run this workload: "
                          << reason);
}

void Session::insert_cache(std::vector<real> key,
                           std::shared_ptr<const Prepared> prepared) {
  if (cache_.size() >= options_.cache_capacity) {
    const auto lru = std::min_element(
        cache_.begin(), cache_.end(), [](const auto& x, const auto& y) {
          return x.last_used < y.last_used;
        });
    cache_.erase(lru);
  }
  cache_.push_back({std::move(key), std::move(prepared), ++cache_clock_});
}

std::shared_ptr<const Prepared> Session::checked_prepared(
    const qaoa::Angles& a) {
  const std::vector<real> key = a.flat();
  for (CacheEntry& entry : cache_) {
    if (entry.key == key) {
      entry.last_used = ++cache_clock_;
      ++cache_hits_;
      return entry.prepared;
    }
  }
  const std::string reason =
      backend_->unsupported_reason(workload_, a, nullptr);
  MBQ_REQUIRE(reason.empty(),
              "backend '" << backend_->name() << "' cannot run this workload: "
                          << reason);
  ++cache_misses_;
  auto prepared = backend_->prepare(workload_, a);
  if (prepared == nullptr) return nullptr;  // nothing cacheable
  insert_cache(key, prepared);
  return prepared;
}

std::vector<std::shared_ptr<const Prepared>> Session::checked_prepared_batch(
    std::span<const qaoa::Angles> points) {
  const std::size_t n = points.size();
  std::vector<std::shared_ptr<const Prepared>> preps(n);
  if (n == 0) return preps;

  std::vector<std::vector<real>> keys(n);
  for (std::size_t i = 0; i < n; ++i) keys[i] = points[i].flat();

  // Serial pass: resolve cache hits; later in-batch duplicates of a
  // missing point share its artifact and count as hits, as they would in
  // the serial loop.
  constexpr std::size_t kHit = static_cast<std::size_t>(-1);
  std::vector<std::size_t> owner(n, kHit);  // point -> unique-miss slot
  std::vector<std::size_t> miss;            // first-occurrence point index
  for (std::size_t i = 0; i < n; ++i) {
    bool hit = false;
    for (CacheEntry& entry : cache_) {
      if (entry.key == keys[i]) {
        entry.last_used = ++cache_clock_;
        ++cache_hits_;
        preps[i] = entry.prepared;
        hit = true;
        break;
      }
    }
    if (hit) continue;
    bool duplicate = false;
    for (std::size_t m = 0; m < miss.size(); ++m)
      if (keys[miss[m]] == keys[i]) {
        owner[i] = m;
        ++cache_hits_;
        duplicate = true;
        break;
      }
    if (duplicate) continue;
    owner[i] = miss.size();
    miss.push_back(i);
  }

  // Parallel pass: support check + prepare for every unique miss.  The
  // backend is stateless, so checks and compilations are independent.
  std::vector<std::shared_ptr<const Prepared>> fresh(miss.size());
  std::vector<std::exception_ptr> errors(miss.size());
  parallel_for_grain(static_cast<std::int64_t>(miss.size()), 1,
                     [&](std::int64_t m) {
    try {
      const qaoa::Angles& a = points[miss[m]];
      const std::string reason =
          backend_->unsupported_reason(workload_, a, nullptr);
      MBQ_REQUIRE(reason.empty(),
                  "backend '" << backend_->name()
                              << "' cannot run this workload: " << reason);
      fresh[m] = backend_->prepare(workload_, a);
    } catch (...) {
      errors[m] = std::current_exception();
    }
  });
  // Serial pass: record misses and fill the cache in point order.
  // `miss` is in increasing point order, so a failure rethrows for the
  // lowest-indexed failing point with every earlier point already cached
  // and counted — the exact state the serial loop leaves behind.
  for (std::size_t m = 0; m < miss.size(); ++m) {
    if (errors[m]) std::rethrow_exception(errors[m]);
    ++cache_misses_;
    if (fresh[m] != nullptr) insert_cache(std::move(keys[miss[m]]), fresh[m]);
  }
  for (std::size_t i = 0; i < n; ++i)
    if (owner[i] != kHit) preps[i] = fresh[owner[i]];
  return preps;
}

real Session::expectation(const qaoa::Angles& a) {
  const auto prepared = checked_prepared(a);
  Rng eval_rng = rng_.stream(kExpectationStreamBase + expectation_calls_++);
  return backend_->expectation(workload_, a, eval_rng, prepared.get());
}

std::vector<real> Session::expectation_batch(
    std::span<const qaoa::Angles> points) {
  const std::size_t n = points.size();
  std::vector<real> out(n);
  if (n == 0) return out;

  if (remote()) return expectation_batch_remote(points);

  if (auto* pool = shard_pool(n)) {
    const std::uint64_t base = expectation_calls_;
    expectation_calls_ += n;
    return expectation_batch_sharded(points, base, *pool);
  }

  const auto preps = checked_prepared_batch(points);
  const std::uint64_t base = expectation_calls_;
  expectation_calls_ += n;

  const Workload& w = workload_;
  Backend* backend = backend_.get();
  std::vector<std::exception_ptr> errors(n);
  const auto count = static_cast<std::int64_t>(n);
  const std::int64_t grain = item_grain(max_executor_bytes(preps), count);
  parallel_for_grain(count, grain, [&](std::int64_t i) {
    try {
      // Slot i draws exactly the stream the (base + i)-th serial
      // expectation() call would: bit-identical at any thread count.
      Rng eval_rng = rng_.stream(kExpectationStreamBase + base +
                                 static_cast<std::uint64_t>(i));
      out[i] = backend->expectation(w, points[i], eval_rng, preps[i].get());
    } catch (...) {
      errors[i] = std::current_exception();
    }
  });
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
  return out;
}

std::future<real> Session::expectation_async(const qaoa::Angles& a) {
  // Cache update and stream assignment happen on the calling thread (the
  // cache is not synchronized); only the stateless evaluation is
  // offloaded, so concurrent pending futures cannot race.
  auto prepared = checked_prepared(a);
  Rng eval_rng = rng_.stream(kExpectationStreamBase + expectation_calls_++);
  return std::async(std::launch::async,
                    [this, a, eval_rng, prepared]() mutable {
                      return backend_->expectation(workload_, a, eval_rng,
                                                   prepared.get());
                    });
}

SampleResult Session::sample(const qaoa::Angles& a, int shots) {
  MBQ_REQUIRE(shots >= 1, "need at least one shot, got " << shots);
  if (remote()) return sample_remote(a, shots);
  const auto prepared = checked_prepared(a);

  if (auto* pool = shard_pool(static_cast<std::uint64_t>(shots)))
    return sample_sharded(a, shots, sample_calls_++, *pool);

  // Shot s of call k draws from stream(s) of a per-call base generator,
  // itself stream(k) of the root: deterministic in (seed, k, s) and
  // independent of the thread count and iteration order.
  const Rng base = rng_.stream(sample_calls_++);

  SampleResult result;
  result.shots.resize(static_cast<std::size_t>(shots));
  Shot* out = result.shots.data();
  const Workload& w = workload_;
  Backend* backend = backend_.get();
  const Prepared* prep = prepared.get();

  std::exception_ptr first_error;
  std::mutex error_mutex;
  const std::int64_t grain =
      options_.parallel_shots
          ? item_grain(prep ? prep->executor_bytes() : 0, shots)
          : shots + 1;
  parallel_for_grain(shots, grain, [&](std::int64_t s) {
    try {
      Rng shot_rng = base.stream(static_cast<std::uint64_t>(s));
      const std::uint64_t x = backend->sample_one(w, a, shot_rng, prep);
      out[s] = {x, w.cost().evaluate(x)};
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
    }
  });
  if (first_error) std::rethrow_exception(first_error);
  return result;
}

std::vector<SampleResult> Session::sample_batch(
    std::span<const qaoa::Angles> points, int shots) {
  MBQ_REQUIRE(shots >= 1, "need at least one shot, got " << shots);
  const std::size_t n = points.size();
  std::vector<SampleResult> results(n);
  if (n == 0) return results;
  if (remote()) return sample_batch_remote(points, shots);
  const auto preps = checked_prepared_batch(points);
  // Point i draws from the stream the i-th of n consecutive serial
  // sample() calls would, and shot s from stream(s) below it — so every
  // (point, shot) pair is a pure function of (seed, call index, s) and
  // the whole cross product can run concurrently.
  const std::uint64_t base_call = sample_calls_;
  sample_calls_ += n;

  if (auto* pool =
          shard_pool(n * static_cast<std::uint64_t>(shots)))
    return sample_batch_sharded(points, shots, base_call, *pool);
  for (auto& r : results) r.shots.resize(static_cast<std::size_t>(shots));

  const Workload& w = workload_;
  Backend* backend = backend_.get();
  std::vector<std::exception_ptr> errors(n);
  std::mutex error_mutex;
  const std::int64_t total = static_cast<std::int64_t>(n) * shots;
  const std::int64_t grain = options_.parallel_shots
                                 ? item_grain(max_executor_bytes(preps), total)
                                 : total + 1;
  parallel_for_grain(total, grain, [&](std::int64_t t) {
    const std::size_t i = static_cast<std::size_t>(t / shots);
    const std::int64_t s = t % shots;
    try {
      Rng shot_rng = rng_.stream(base_call + i)
                         .stream(static_cast<std::uint64_t>(s));
      const std::uint64_t x =
          backend->sample_one(w, points[i], shot_rng, preps[i].get());
      results[i].shots[s] = {x, w.cost().evaluate(x)};
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!errors[i]) errors[i] = std::current_exception();
    }
  });
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
  return results;
}

namespace {

struct DecodedRound {
  std::vector<shard::Response> responses;  // in worker order
  /// Lowest-GLOBAL-index failure across workers (what the serial sample
  /// loop, which collects per-index errors, would rethrow), or nullptr.
  const shard::Response* failed = nullptr;
  /// Lowest-index CHECK-phase (support/prepare) failure.  The serial
  /// expectation loop runs every check before any eval, so when one
  /// exists it wins over any eval failure regardless of index.
  const shard::Response* failed_check = nullptr;
};

/// Decode every worker's response frame.  Workers report slice-local
/// error indices (their requests carry only their own slice);
/// `offsets[w]` maps them back to the call's global index space so
/// failures order correctly across workers.
DecodedRound decode_round(std::vector<std::vector<std::byte>> frames,
                          const std::vector<std::vector<std::byte>>& requests,
                          const std::vector<std::uint64_t>& offsets) {
  DecodedRound round;
  round.responses.resize(frames.size());
  std::uint64_t failed_global = 0, failed_check_global = 0;
  for (std::size_t w = 0; w < frames.size(); ++w) {
    if (requests[w].empty()) continue;
    round.responses[w] = shard::decode_response(frames[w]);
    const shard::Response& r = round.responses[w];
    if (!r.ok) {
      const std::uint64_t global = offsets[w] + r.error_index;
      if (round.failed == nullptr || global < failed_global) {
        round.failed = &round.responses[w];
        failed_global = global;
      }
      if (!r.error_in_eval &&
          (round.failed_check == nullptr || global < failed_check_global)) {
        round.failed_check = &round.responses[w];
        failed_check_global = global;
      }
    }
  }
  return round;
}

}  // namespace

SampleResult Session::sample_sharded(const qaoa::Angles& a, int shots,
                                     std::uint64_t call,
                                     shard::WorkerPool& pool) {
  // Each worker replays a contiguous shot slice of this call on streams
  // stream(call).stream(s) — exactly what the in-process loop draws — so
  // concatenating the slices in order reproduces it bit for bit.
  const shard::ShardPlan plan(static_cast<std::uint64_t>(shots), pool.size());
  shard::Request req;
  req.kind = shard::TaskKind::kSample;
  req.backend = registry_key_;
  req.seed = options_.seed;
  req.workload = workload_;
  req.points = {a};
  req.shots = static_cast<std::uint64_t>(shots);
  req.base_call = call;
  req.end = static_cast<std::uint64_t>(shots);
  std::vector<std::vector<std::byte>> requests(plan.ranges().size());
  std::vector<std::uint64_t> offsets(plan.ranges().size(), 0);
  for (std::size_t w = 0; w < plan.ranges().size(); ++w) {
    const shard::ShardRange& r = plan.ranges()[w];
    if (r.empty()) continue;
    const shard::SliceRequest sub = shard::rebase_slice(req, r.begin, r.end);
    offsets[w] = sub.offset;
    requests[w] = shard::encode_request(sub.request);
  }

  const DecodedRound round =
      decode_round(pool.round(requests), requests, offsets);
  if (round.failed != nullptr) throw Error(round.failed->error_message);
  SampleResult result;
  result.shots.resize(static_cast<std::size_t>(shots));
  for (std::size_t w = 0; w < round.responses.size(); ++w) {
    const shard::ShardRange& r = plan.ranges()[w];
    MBQ_REQUIRE(requests[w].empty() ||
                    round.responses[w].outcomes.size() == r.size(),
                "shard worker " << w << " returned "
                                << round.responses[w].outcomes.size()
                                << " outcomes for a slice of " << r.size());
    for (std::uint64_t s = r.begin; s < r.end; ++s) {
      const std::uint64_t x = round.responses[w].outcomes[s - r.begin];
      result.shots[s] = {x, workload_.cost().evaluate(x)};
    }
  }
  return result;
}

std::vector<SampleResult> Session::sample_batch_sharded(
    std::span<const qaoa::Angles> points, int shots, std::uint64_t base_call,
    shard::WorkerPool& pool) {
  const std::size_t n = points.size();
  const std::uint64_t su = static_cast<std::uint64_t>(shots);
  const std::uint64_t total = n * su;
  // Slices cover the flattened (point, shot) space: pair t belongs to
  // point t / shots, shot t % shots, on stream(base_call + point)
  // .stream(shot) — the same assignment the in-process loop uses.  Each
  // worker receives only the points its slice touches, with base_call
  // and the slice bounds rebased so the absolute stream indices are
  // unchanged.
  const shard::ShardPlan plan(total, pool.size());
  shard::Request req;
  req.kind = shard::TaskKind::kSample;
  req.backend = registry_key_;
  req.seed = options_.seed;
  req.workload = workload_;
  req.points.assign(points.begin(), points.end());
  req.shots = su;
  req.base_call = base_call;
  req.end = total;
  std::vector<std::vector<std::byte>> requests(plan.ranges().size());
  std::vector<std::uint64_t> offsets(plan.ranges().size(), 0);
  for (std::size_t w = 0; w < plan.ranges().size(); ++w) {
    const shard::ShardRange& r = plan.ranges()[w];
    if (r.empty()) continue;
    const shard::SliceRequest sub = shard::rebase_slice(req, r.begin, r.end);
    offsets[w] = sub.offset;
    requests[w] = shard::encode_request(sub.request);
  }

  const DecodedRound round =
      decode_round(pool.round(requests), requests, offsets);
  if (round.failed != nullptr) throw Error(round.failed->error_message);
  std::vector<SampleResult> results(n);
  for (auto& r : results) r.shots.resize(static_cast<std::size_t>(shots));
  for (std::size_t w = 0; w < round.responses.size(); ++w) {
    const shard::ShardRange& r = plan.ranges()[w];
    MBQ_REQUIRE(requests[w].empty() ||
                    round.responses[w].outcomes.size() == r.size(),
                "shard worker " << w << " returned "
                                << round.responses[w].outcomes.size()
                                << " outcomes for a slice of " << r.size());
    for (std::uint64_t t = r.begin; t < r.end; ++t) {
      const std::size_t i = static_cast<std::size_t>(t / su);
      const std::size_t s = static_cast<std::size_t>(t % su);
      const std::uint64_t x = round.responses[w].outcomes[t - r.begin];
      results[i].shots[s] = {x, workload_.cost().evaluate(x)};
    }
  }
  return results;
}

std::vector<real> Session::expectation_batch_sharded(
    std::span<const qaoa::Angles> points, std::uint64_t base,
    shard::WorkerPool& pool) {
  const std::size_t n = points.size();
  const shard::ShardPlan plan(n, pool.size());
  shard::Request req;
  req.kind = shard::TaskKind::kExpectation;
  req.backend = registry_key_;
  req.seed = options_.seed;
  req.workload = workload_;
  req.points.assign(points.begin(), points.end());
  req.stream_base = kExpectationStreamBase + base;
  req.end = n;
  std::vector<std::vector<std::byte>> requests(plan.ranges().size());
  std::vector<std::uint64_t> offsets(plan.ranges().size(), 0);
  for (std::size_t w = 0; w < plan.ranges().size(); ++w) {
    const shard::ShardRange& r = plan.ranges()[w];
    if (r.empty()) continue;
    // Only this worker's points travel; rebase_slice makes stream_base
    // absorb the slice offset so point j of the slice still draws the
    // global stream of point r.begin + j.
    const shard::SliceRequest sub = shard::rebase_slice(req, r.begin, r.end);
    offsets[w] = sub.offset;
    requests[w] = shard::encode_request(sub.request);
  }

  // Transport failures (a worker died mid-call) propagate with the
  // counter left advanced — like a serial eval crashing after the batch
  // advanced it.  Worker-REPORTED failures replay the serial loop's
  // phase order: it support-checks and prepares every point before
  // burning any stream index, so a check/prepare failure anywhere wins
  // over eval failures and restores the counter; a pure eval failure
  // leaves the indices consumed.
  const DecodedRound round =
      decode_round(pool.round(requests), requests, offsets);
  if (round.failed_check != nullptr) {
    expectation_calls_ = base;
    throw Error(round.failed_check->error_message);
  }
  if (round.failed != nullptr) throw Error(round.failed->error_message);
  std::vector<real> out(n);
  for (std::size_t w = 0; w < round.responses.size(); ++w) {
    const shard::ShardRange& r = plan.ranges()[w];
    MBQ_REQUIRE(requests[w].empty() ||
                    round.responses[w].values.size() == r.size(),
                "shard worker " << w << " returned "
                                << round.responses[w].values.size()
                                << " values for a slice of " << r.size());
    for (std::uint64_t i = r.begin; i < r.end; ++i)
      out[i] = round.responses[w].values[i - r.begin];
  }
  return out;
}

shard::Request Session::base_request() const {
  shard::Request req;
  req.backend = registry_key_;
  req.seed = options_.seed;
  req.workload = workload_;
  return req;
}

Session::RemoteRun Session::run_remote(const shard::Request& req) {
  if (daemon_ == nullptr) {
    // Remote mode was requested explicitly (options or environment), so
    // an impossible transport is an error, never a silent local run —
    // callers pointing a fleet of Sessions at one daemon must not
    // discover months later that half of them quietly computed locally.
    MBQ_REQUIRE(!registry_key_.empty(),
                "daemon transport requires a registry-named backend: a "
                "worker process cannot reproduce a backend INSTANCE from "
                "a name (construct the Session with a registry key)");
    const std::string reason = shard::unshardable_reason(workload_);
    MBQ_REQUIRE(reason.empty(),
                "workload cannot execute on daemon '"
                    << daemon_endpoint_ << "': " << reason);
    daemon_ = std::make_unique<serve::DaemonClient>(daemon_endpoint_,
                                                    "mbq-session");
  }
  try {
    serve::DaemonClient::RunResult r = daemon_->run(req);
    return {std::move(r.outcomes), std::move(r.values)};
  } catch (const serve::RemoteError&) {
    throw;  // the connection is still good; the request failed
  } catch (const serve::BusyError&) {
    throw;
  } catch (const Error&) {
    daemon_.reset();  // broken transport: reconnect on the next call
    throw;
  }
}

SampleResult Session::sample_remote(const qaoa::Angles& a, int shots) {
  const std::uint64_t call = sample_calls_++;
  shard::Request req = base_request();
  req.kind = shard::TaskKind::kSample;
  req.points = {a};
  req.shots = static_cast<std::uint64_t>(shots);
  req.base_call = call;
  req.end = static_cast<std::uint64_t>(shots);
  try {
    const RemoteRun run = run_remote(req);
    SampleResult result;
    result.shots.resize(static_cast<std::size_t>(shots));
    for (std::size_t s = 0; s < run.outcomes.size(); ++s)
      result.shots[s] = {run.outcomes[s],
                         workload_.cost().evaluate(run.outcomes[s])};
    return result;
  } catch (const serve::RemoteError& e) {
    // The serial loop support-checks before assigning the call index, so
    // a check-phase failure must leave the counter untouched; an eval
    // failure happens after and keeps it.
    if (!e.in_eval()) sample_calls_ = call;
    throw;
  }
}

std::vector<SampleResult> Session::sample_batch_remote(
    std::span<const qaoa::Angles> points, int shots) {
  const std::size_t n = points.size();
  const std::uint64_t su = static_cast<std::uint64_t>(shots);
  const std::uint64_t base_call = sample_calls_;
  sample_calls_ += n;
  shard::Request req = base_request();
  req.kind = shard::TaskKind::kSample;
  req.points.assign(points.begin(), points.end());
  req.shots = su;
  req.base_call = base_call;
  req.end = n * su;
  try {
    const RemoteRun run = run_remote(req);
    std::vector<SampleResult> results(n);
    for (auto& r : results) r.shots.resize(static_cast<std::size_t>(shots));
    for (std::uint64_t t = 0; t < run.outcomes.size(); ++t) {
      const std::uint64_t x = run.outcomes[t];
      results[t / su].shots[t % su] = {x, workload_.cost().evaluate(x)};
    }
    return results;
  } catch (const serve::RemoteError& e) {
    if (!e.in_eval()) sample_calls_ = base_call;
    throw;
  }
}

std::vector<real> Session::expectation_batch_remote(
    std::span<const qaoa::Angles> points) {
  const std::size_t n = points.size();
  const std::uint64_t base = expectation_calls_;
  expectation_calls_ += n;
  shard::Request req = base_request();
  req.kind = shard::TaskKind::kExpectation;
  req.points.assign(points.begin(), points.end());
  req.stream_base = kExpectationStreamBase + base;
  req.end = n;
  try {
    return run_remote(req).values;
  } catch (const serve::RemoteError& e) {
    // Same phase rule as expectation_batch_sharded: check failures
    // restore the counter, eval failures leave the indices consumed.
    if (!e.in_eval()) expectation_calls_ = base;
    throw;
  }
}

Shot Session::best_of(const qaoa::Angles& a, int shots) {
  return sample(a, shots).best();
}

opt::Objective Session::objective() {
  return [this](const std::vector<real>& flat) {
    return expectation(qaoa::Angles::from_flat(flat));
  };
}

opt::BatchObjective Session::batch_objective() {
  return [this](const std::vector<std::vector<real>>& flats) {
    std::vector<qaoa::Angles> points;
    points.reserve(flats.size());
    for (const auto& flat : flats)
      points.push_back(qaoa::Angles::from_flat(flat));
    return expectation_batch(points);
  };
}

}  // namespace mbq::api
