#pragma once
// Session: the user-facing façade over a (workload, backend) pair.
//
// A Session owns what the stateless backends deliberately do not:
//   * the root Rng — one seed reproduces a whole experiment;
//   * an LRU cache of prepare() artifacts keyed by the exact angle
//     values, so the variational outer loop (which revisits angles and
//     moves in small simplexes) never recompiles a pattern it has seen;
//   * parallel shot batching on common/parallel — shot s always draws
//     from stream(s) of a per-call base generator, so sample() returns
//     bit-identical results at any thread count.
//
// Shot-level or kernel-level threads: sample(), sample_batch() and the
// point fan-out of expectation_batch() run their independent items
// (shots, angle points) concurrently, one per thread — unless one
// item's executor arena does not fit in the private L2 cache of the
// core that would run it.  Then every shot would stream its arena from
// the shared L3 or DRAM, so the items run one at a time on the calling
// thread instead, and the simulator's kernel sweeps spread each one over
// thr::kernel_threads(), every core sweeping its own slice of one
// arena.  choose_parallelism() below is the whole rule; results are
// bit-identical on either path.
//
// Construct with a registry name to stay decoupled from concrete
// adapters:
//
//   auto session = api::Session(api::Workload::maxcut(g), "mbqc");
//   real e = session.expectation(angles);
//   auto shots = session.sample(angles, 1024);
//
// The variational outer loop evaluates <C> at many nearby angle points
// (simplex vertices, gradient stencils, grid cells).  The batch/async
// entry points fan those points out on common/parallel:
//
//   std::vector<real> es = session.expectation_batch(points);
//   auto pending = session.expectation_async(angles);   // overlaps work
//
// Determinism contract: the k-th expectation this session evaluates —
// whether through expectation(), a batch slot, or a future — draws from
// rng.stream(kExpectationStreamBase + k), and shot s of sample call k
// draws from rng.stream(k).stream(s).  Both are pure functions of
// (seed, k, s), so batch results are bit-identical to the serial loop at
// every thread count — and, because worker processes re-derive the same
// streams from (seed, index) alone, at every PROCESS count too (see
// "Process sharding" below).
//
// Call-index bookkeeping: expectation_calls_ / sample_calls_ advance on
// the CALLING thread, synchronously, before any entry point returns —
// expectation_async in particular assigns its stream index before
// handing back the future.  Stream assignment is therefore a function of
// SUBMISSION order alone: any interleaving of expectation(),
// expectation_batch() and expectation_async() calls evaluates point
// number k (in submission order) on stream kExpectationStreamBase + k,
// however the futures later resolve.  The members are not synchronized —
// a Session must be driven from one thread (concurrent pending futures
// are fine; concurrent calls INTO the session are not).
//
// Process sharding: with SessionOptions::num_processes > 1 (or
// MBQ_NUM_PROCESSES set and num_processes left at 0), sample(),
// sample_batch() and expectation_batch() fan their work out across a
// pool of fork/exec'd mbq_worker processes (shard/worker_pool.h), each
// owning a contiguous slice of the call's stream-index space.  Results
// are merged in index order and are bit-identical to the in-process
// path.  Every built-in ansatz — QAOA-diagonal over any-order Ising/PUBO
// costs, (weighted) constraint-preserving MIS, declarative ParamCircuit
// ansätze, with or without entangler noise — lowers to a serializable
// WorkloadSpec and shards.  The Session falls back to in-process
// execution — silently, the results being identical either way — only
// when the workload cannot cross a process boundary (the CustomCircuit
// std::function escape hatch), the backend was not resolved
// from the registry by name, the worker executable cannot be found
// (see shard::resolve_worker_path), the pool died earlier, or the call
// is too small to split.  Cache bookkeeping under sharding: the sample
// paths still warm the parent's prepare cache exactly like the
// in-process loop; a sharded expectation_batch leaves the parent cache
// untouched (each worker prepares its own slice) and reports no
// hits/misses for the call.

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "mbq/api/backend.h"
#include "mbq/common/rng.h"
#include "mbq/opt/optimizer.h"

namespace mbq::shard {
class WorkerPool;
struct Request;
}  // namespace mbq::shard

namespace mbq::serve {
class DaemonClient;
}  // namespace mbq::serve

namespace mbq::api {

struct SessionOptions {
  std::uint64_t seed = 0x51E55ED5EEDULL;
  /// Allow sample()/sample_batch() to run shots concurrently.  true
  /// (the default) lets choose_parallelism() pick shot-level or
  /// kernel-level threads per call; false never runs shots in parallel
  /// (they run one at a time on the calling thread, kernel sweeps still
  /// threaded).  Results are identical either way; this is purely a
  /// wall-clock knob.
  bool parallel_shots = true;
  /// Entries kept in the per-angle prepare() cache before LRU eviction.
  std::size_t cache_capacity = 64;
  /// Worker processes for sample/sample_batch/expectation_batch.  0 (the
  /// default) reads the MBQ_NUM_PROCESSES environment variable, falling
  /// back to 1; 1 never shards; >= 2 shards across that many mbq_worker
  /// processes.  Results are bit-identical at every value — like
  /// parallel_shots, this is purely a wall-clock knob (see the "Process
  /// sharding" notes above).
  int num_processes = 0;
  /// Explicit path to the mbq_worker executable; empty uses
  /// shard::resolve_worker_path's search ($MBQ_WORKER, then next to the
  /// running executable).
  std::string worker_path;
  /// Endpoint of a running mbqd serving daemon ("unix:/path" or
  /// "tcp:host:port"); empty (the default) reads the MBQ_DAEMON_ENDPOINT
  /// environment variable, and when that is unset too the session runs
  /// locally.  With an endpoint in effect, sample(), sample_batch() and
  /// expectation_batch() execute on the daemon's shared worker fleet
  /// (serve/daemon.h) instead of session-owned processes: the daemon
  /// streams finished slices back and the session merges them in index
  /// order, so results are bit-identical to local execution.  Remote
  /// mode never falls back silently — an unreachable daemon, a version
  /// mismatch, or a workload that cannot cross a process boundary is a
  /// loud Error.  Single-point expectation()/expectation_async() stay
  /// in-process (same results either way; they are latency-bound, not
  /// throughput-bound).
  std::string daemon_endpoint;
  /// Entangler-noise probability for the workload's measurement-based
  /// execution (mbqc/runner.h's depolarizing channel).  0 leaves the
  /// workload untouched; > 0 applies Workload::with_entangler_noise at
  /// construction — a convenience so callers can dial noise per Session
  /// without rebuilding the workload.  Throws if the workload already
  /// carries a DIFFERENT non-zero noise level (ambiguous intent).  Noise
  /// draws live on the same per-shot rng streams as everything else, so
  /// noisy results keep the full determinism contract below — including
  /// bit-identical process-sharded execution.
  real entangler_noise = 0.0;
  /// Statevector storage precision for the workload's measurement-based
  /// execution.  F64 (the default) leaves the workload untouched; F32
  /// applies Workload::with_precision at construction.  Throws if the
  /// workload already carries a different non-default precision
  /// (ambiguous intent).  f32 runs are deterministic within the
  /// precision — the full contract below holds, including bit-identical
  /// sharded and remote execution — but are NOT bit-comparable to f64
  /// runs of the same workload.
  Precision precision = Precision::F64;
  /// Kernel threads for the simulator's chunked amplitude sweeps
  /// (sim/collapse_threaded.h).  0 (the default) resolves the
  /// MBQ_KERNEL_THREADS environment variable ("auto"/unset = the OpenMP
  /// default); >= 1 pins the count process-wide.  Purely a wall-clock
  /// knob: results are bit-identical at every value.  NOTE: the setting
  /// is process-global (the kernels are shared), so the last constructed
  /// Session wins.
  int kernel_threads = 0;
};

/// How a call's independent items (shots, angle points) use threads.
enum class Parallelism {
  /// Items run concurrently on common/parallel, one per thread; each
  /// item's kernel sweeps stay on its own thread.
  kShots,
  /// Items run one at a time on the calling thread; each item's kernel
  /// sweeps use all thr::kernel_threads().
  kKernels,
};

/// The shot-versus-kernel rule, as a pure function of what the host and
/// the prepared artifact report:
///   * kShots when the artifact reports no footprint
///     (executor_bytes == 0) or kernel threads resolve to 1 — a serial
///     loop would then leave the other cores idle;
///   * kKernels for a single item, which runs on the calling thread
///     either way;
///   * kKernels when one arena of executor_bytes exceeds l2_bytes, the
///     private L2 of the core that would run it — shot by shot, each
///     core would then stream its own arena from the shared L3 or DRAM,
///     where kernel threads split one arena between them;
///   * kShots otherwise.
/// Session feeds it thr::kernel_threads() and l2_bytes() (common/cpu.h).
/// The shot thread count does not enter: each shot thread runs on its
/// own core and L2.
Parallelism choose_parallelism(std::uint64_t executor_bytes,
                               std::uint64_t items, int kernel_threads,
                               std::uint64_t l2_bytes) noexcept;

struct Shot {
  std::uint64_t x = 0;
  real cost = 0.0;
};

struct SampleResult {
  std::vector<Shot> shots;

  const Shot& best() const;
  real mean_cost() const;
  /// Occurrence count per bitstring, length 2^num_qubits.  Throws Error
  /// for num_qubits outside [1, 24]: beyond 24 the dense histogram would
  /// silently allocate gigabytes — aggregate the shots directly instead.
  std::vector<std::int64_t> counts(int num_qubits) const;
  /// Sparse occurrence counts keyed by observed bitstring.  Memory scales
  /// with the number of DISTINCT outcomes, not 2^n, so there is no
  /// register-width cap — this is what the bench::distance toolkit
  /// aggregates on large-n corpus runs where counts() must refuse.
  std::map<std::uint64_t, std::int64_t> counts_map() const;
};

class Session {
 public:
  /// Resolve the backend from the global BackendRegistry by name.
  Session(Workload workload, const std::string& backend_name,
          SessionOptions options = {});
  Session(Workload workload, std::shared_ptr<Backend> backend,
          SessionOptions options = {});
  ~Session();  // out of line: owns an incomplete-type worker pool

  // Deliberately no mutable workload() accessor: the prepare() cache is
  // keyed by angles only, so workload options must not change under a
  // live Session — configure the Workload before constructing.
  const Workload& workload() const noexcept { return workload_; }
  const Backend& backend() const noexcept { return *backend_; }
  std::string backend_name() const { return backend_->name(); }
  Capabilities capabilities() const { return backend_->capabilities(); }

  /// Empty when the backend can run this workload at these angles.
  std::string unsupported_reason(const qaoa::Angles& a) const;
  /// Throws Error with the backend's reason when unsupported.
  void require_supported(const qaoa::Angles& a) const;

  /// <C> at the given angles (exact on every built-in backend).
  real expectation(const qaoa::Angles& a);

  /// <C> at every given angle point, prepared AND evaluated concurrently
  /// on common/parallel.  Values are bit-identical to calling
  /// expectation() on each point in order, at every thread count.
  std::vector<real> expectation_batch(std::span<const qaoa::Angles> points);

  /// <C> at the given angles as a future; the support check and the
  /// prepare-cache update run on the calling thread (the cache is not
  /// thread-safe), only the stateless backend evaluation is offloaded.
  /// The Session must outlive the returned future.
  std::future<real> expectation_async(const qaoa::Angles& a);

  /// `shots` measurements of the problem register, batched in parallel,
  /// reproducible from the session seed regardless of thread count.
  SampleResult sample(const qaoa::Angles& a, int shots);

  /// One SampleResult per angle point; all (point, shot) pairs run
  /// concurrently.  Result i is bit-identical to the i-th of consecutive
  /// serial sample(points[i], shots) calls, at every thread count.
  std::vector<SampleResult> sample_batch(std::span<const qaoa::Angles> points,
                                         int shots);

  /// Highest-cost shot of a fresh batch.
  Shot best_of(const qaoa::Angles& a, int shots);

  /// The variational objective: flat angle vector -> expectation.  The
  /// closure references this Session (and its cache); the Session must
  /// outlive it.
  opt::Objective objective();

  /// Batch-aware objective over expectation_batch, for the optimizers'
  /// batch paths (opt::nelder_mead/grid_search/spsa BatchObjective
  /// overloads).  Same lifetime rule as objective().
  opt::BatchObjective batch_objective();

  // --- cache introspection ---------------------------------------------
  std::size_t cache_entries() const noexcept { return cache_.size(); }
  std::uint64_t cache_hits() const noexcept { return cache_hits_; }
  std::uint64_t cache_misses() const noexcept { return cache_misses_; }

  // --- sharding introspection ------------------------------------------
  /// Live worker processes backing this session; 0 while unsharded (no
  /// pool spawned yet, sharding not requested, or fallen back).  The
  /// pool spawns lazily on the first sharded call.
  int shard_workers() const noexcept;
  /// The num_processes value in effect (options / MBQ_NUM_PROCESSES).
  int num_processes() const noexcept { return num_processes_; }
  /// The live pool, for diagnostics and fault-injection tests; nullptr
  /// while unsharded.
  const shard::WorkerPool* worker_pool() const noexcept {
    return pool_.get();
  }

  // --- remote transport ------------------------------------------------
  /// True when a daemon endpoint is in effect (options or
  /// MBQ_DAEMON_ENDPOINT): batch/sample calls execute on mbqd.
  bool remote() const noexcept { return !daemon_endpoint_.empty(); }
  const std::string& daemon_endpoint() const noexcept {
    return daemon_endpoint_;
  }

 private:
  /// Expectation evaluations draw from the upper half of the stream-index
  /// space so they can never collide with sample() call streams.
  static constexpr std::uint64_t kExpectationStreamBase = 1ULL << 63;

  /// Cache lookup; on a miss, runs the support check, prepares and
  /// inserts.  Hits skip the check — entries are only inserted after it
  /// passed and the workload is immutable while the Session lives.
  std::shared_ptr<const Prepared> checked_prepared(const qaoa::Angles& a);
  /// Batch variant: cache lookups and insertions stay serial, but the
  /// support checks and prepare() calls of all missing points run
  /// concurrently (backends are stateless).  Errors are rethrown for the
  /// lowest-indexed failing point, matching the serial loop.
  std::vector<std::shared_ptr<const Prepared>> checked_prepared_batch(
      std::span<const qaoa::Angles> points);
  const Prepared* peek_cache(const std::vector<real>& key) const;
  void insert_cache(std::vector<real> key,
                    std::shared_ptr<const Prepared> prepared);

  /// The worker pool when this call (of `items` independent pieces)
  /// should shard, else nullptr (fall back in-process).  Spawns the pool
  /// on first use; a failed spawn or a dead pool disables sharding for
  /// the session's lifetime.
  shard::WorkerPool* shard_pool(std::uint64_t items);

  /// Fill the request fields every daemon/worker call shares (backend
  /// key, seed, workload); the caller sets kind, points and bounds.
  shard::Request base_request() const;
  /// Execute one whole request on the configured daemon, connecting
  /// lazily.  Throws Error when the workload cannot travel or the
  /// daemon is unreachable; a broken transport drops the connection so
  /// the next call can reach a restarted daemon.
  struct RemoteRun {
    std::vector<std::uint64_t> outcomes;  // kSample payload
    std::vector<real> values;             // kExpectation payload
  };
  RemoteRun run_remote(const shard::Request& req);
  SampleResult sample_remote(const qaoa::Angles& a, int shots);
  std::vector<SampleResult> sample_batch_remote(
      std::span<const qaoa::Angles> points, int shots);
  std::vector<real> expectation_batch_remote(
      std::span<const qaoa::Angles> points);

  SampleResult sample_sharded(const qaoa::Angles& a, int shots,
                              std::uint64_t call, shard::WorkerPool& pool);
  std::vector<SampleResult> sample_batch_sharded(
      std::span<const qaoa::Angles> points, int shots, std::uint64_t base_call,
      shard::WorkerPool& pool);
  std::vector<real> expectation_batch_sharded(
      std::span<const qaoa::Angles> points, std::uint64_t base,
      shard::WorkerPool& pool);

  Workload workload_;
  std::shared_ptr<Backend> backend_;
  SessionOptions options_;
  Rng rng_;
  std::uint64_t sample_calls_ = 0;
  std::uint64_t expectation_calls_ = 0;

  /// Built-in registry key the backend was created from.  Empty — and
  /// the session never shards — when the Session was handed a backend
  /// INSTANCE (whose configuration a worker could not reproduce from a
  /// name) or a runtime-registered key (absent from a worker's
  /// registry).
  std::string registry_key_;
  int num_processes_ = 1;  // resolved from options / MBQ_NUM_PROCESSES
  std::unique_ptr<shard::WorkerPool> pool_;
  bool shard_disabled_ = false;
  std::string daemon_endpoint_;  // options / MBQ_DAEMON_ENDPOINT
  std::unique_ptr<serve::DaemonClient> daemon_;  // lazy, remote() only

  struct CacheEntry {
    std::vector<real> key;  // exact flattened angles
    std::shared_ptr<const Prepared> prepared;
    std::uint64_t last_used = 0;
  };
  std::vector<CacheEntry> cache_;
  std::uint64_t cache_clock_ = 0;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;
};

}  // namespace mbq::api
