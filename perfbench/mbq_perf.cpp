// mbq_perf — workload runner of the repository benchmark.
//
// perfbench/run.py builds this program, runs it in supervised child
// processes and turns what it prints into metrics.  Every mode prints
// one JSON object per line on stdout and flushes each line, so a child
// that crashes still leaves a record of the work it finished.
//
//   mbq_perf context
//   mbq_perf setup     WORKLOAD --seed S --rundir DIR
//   mbq_perf run       WORKLOAD --seed S --rundir DIR --seconds T
//                      [--start-item I] [--traced 1 --trace-out FILE]
//   mbq_perf layers    WORKLOAD --seed S --rundir DIR --part PART
//                      [--trace-out FILE]
//   mbq_perf reference WORKLOAD --seed S
//
// WORKLOAD is kernel-n20, optimize-serial, optimize-small or fanout-n14
// (README.md here says what each one exercises and why, and which ones
// BENCHMARK.json gates).  Every input is a pure
// function of the seed: instances come from bench::make_instance, angle
// points and budgets are fixed below.  The system runs with its default
// settings: no kernel-thread or process-count pins, no warm-up beyond
// what a user's first request does.
//
// Spans are recorded here, around calls into the library's public
// functions; the library itself is not instrumented.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "mbq/api/api.h"
#include "mbq/bench/distance.h"
#include "mbq/bench/generators.h"
#include "mbq/common/cpu.h"
#include "mbq/common/parallel.h"
#include "mbq/common/serialize.h"
#include "mbq/core/resources.h"
#include "mbq/mbqc/compiled.h"
#include "mbq/opt/nelder_mead.h"
#include "mbq/serve/client.h"
#include "mbq/serve/daemon.h"
#include "mbq/shard/worker_pool.h"
#include "mbq/sim/collapse_kernels.h"
#include "mbq/sim/collapse_threaded.h"
#include "mbq/speccomp/speccomp.h"

namespace {

using namespace mbq;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
double ms_since(Clock::time_point t0) { return 1e3 * seconds_since(t0); }

// --- workload definitions -------------------------------------------------

constexpr const char* kBackend = "mbqc";

// kernel-n20: one closed-loop client, sample(angles, 4) on 3-regular
// n = 20, p = 1, cycling over two angle points.
constexpr int kKernelN = 20;
constexpr int kKernelShots = 4;
// fanout-n14: two tenants (embedded daemon, session-owned workers) each
// issuing sample(angles_k, 8) on 3-regular n = 14, p = 1, k over 4 points.
constexpr int kFanoutN = 14;
constexpr int kFanoutShots = 8;
constexpr int kFanoutWorkers = 2;
// optimize-small / optimize-serial: Nelder-Mead with a fixed budget from
// the p = 2 linear ramp on 12 instances, then 256 shots at the best angles;
// optimize-small evaluates through batch_objective(), optimize-serial
// through objective(), one point per call on the client thread.  Both
// visit the same trajectory.
constexpr int kOptP = 2;
constexpr int kOptBudget = 80;
constexpr int kOptFinalShots = 256;
// Requests per stream the reference digests and the approximation ratio
// cover (kernel-n20: a cold and a warm request per angle point; fanout-n14:
// the cold request and the first warm one, which every run completes).
constexpr std::size_t kKernelRefRequests = 4;
constexpr std::size_t kFanoutRefRequests = 2;

// Near-optimal p = 1 angles for 3-regular MaxCut and neighbours of them:
// fixed, so the approximation ratio varies with the instance only.
const std::vector<qaoa::Angles>& kernel_points() {
  static const std::vector<qaoa::Angles> pts = {
      qaoa::Angles({0.616}, {0.393}), qaoa::Angles({0.55}, {0.35})};
  return pts;
}
const std::vector<qaoa::Angles>& fanout_points() {
  static const std::vector<qaoa::Angles> pts = {
      qaoa::Angles({0.616}, {0.393}), qaoa::Angles({0.55}, {0.35}),
      qaoa::Angles({0.65}, {0.42}), qaoa::Angles({0.58}, {0.40})};
  return pts;
}

api::Workload regular_workload(int n, std::uint64_t seed) {
  return api::Workload::from_spec(
      bench::make_instance(bench::Family::Regular, n, 0, seed));
}

struct OptInstance {
  std::string id;
  api::WorkloadSpec spec;
  api::Workload workload;
};

std::vector<OptInstance> opt_instances(std::uint64_t seed) {
  std::vector<OptInstance> out;
  for (const bench::Family f :
       {bench::Family::Sk, bench::Family::ErdosRenyi, bench::Family::Regular,
        bench::Family::Grid})
    for (const int n : {6, 8, 10}) {
      api::WorkloadSpec spec = bench::make_instance(f, n, 0, seed);
      api::Workload w = api::Workload::from_spec(spec);
      out.push_back({bench::family_name(f) + "-n" + std::to_string(n),
                     std::move(spec), std::move(w)});
    }
  return out;
}

api::SessionOptions session_options(std::uint64_t seed) {
  api::SessionOptions o;
  o.seed = seed;
  return o;
}

// --- output ---------------------------------------------------------------

std::mutex g_out_mutex;

/// One JSON object, written as a single flushed line by emit().
class Out {
 public:
  explicit Out(const char* ev) { os_ << "{\"ev\":\"" << ev << '"'; }

  Out& num(const char* k, double v) {
    key(k);
    if (std::isfinite(v)) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", v);
      os_ << buf;
    } else {
      os_ << "null";
    }
    return *this;
  }
  Out& cnt(const char* k, long long v) {
    key(k);
    os_ << v;
    return *this;
  }
  Out& flag(const char* k, bool v) {
    key(k);
    os_ << (v ? "true" : "false");
    return *this;
  }
  Out& str(const char* k, const std::string& v) {
    key(k);
    os_ << '"';
    for (const char c : v) {
      if (c == '"' || c == '\\')
        os_ << '\\' << c;
      else if (static_cast<unsigned char>(c) < 0x20)
        os_ << ' ';
      else
        os_ << c;
    }
    os_ << '"';
    return *this;
  }
  Out& hex(const char* k, std::uint64_t v) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return str(k, buf);
  }
  Out& nums(const char* k, const std::vector<double>& v) {
    key(k);
    os_ << '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", v[i]);
      os_ << (i ? "," : "") << buf;
    }
    os_ << ']';
    return *this;
  }
  void emit() {
    os_ << "}\n";
    const std::string s = os_.str();
    const std::lock_guard<std::mutex> lock(g_out_mutex);
    std::fwrite(s.data(), 1, s.size(), stdout);
    std::fflush(stdout);
  }

 private:
  void key(const char* k) { os_ << ",\"" << k << "\":"; }
  std::ostringstream os_;
};

/// Order-sensitive FNV-1a 64 over the outcome stream, exactly as the
/// bench harness digests a replay.
std::uint64_t outcomes_fnv(const api::SampleResult& r) {
  ByteWriter w;
  for (const api::Shot& s : r.shots) w.u64(s.x);
  return api::fnv1a64(w.data());
}

/// FNV-1a 64 over a sequence of IEEE-754 values (optimizer trajectories).
class ValueDigest {
 public:
  void add(double v) { w_.f64(v); }
  std::uint64_t value() const { return api::fnv1a64(w_.data()); }

 private:
  ByteWriter w_;
};

// --- process accounting -----------------------------------------------------

double self_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// utime + stime of another process from /proc/<pid>/stat; -1 when the
/// process is gone.
double proc_cpu_seconds(long long pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) return -1.0;
  const auto close = line.rfind(')');
  if (close == std::string::npos) return -1.0;
  std::istringstream fields(line.substr(close + 2));
  std::string tok;
  double ticks = 0.0;
  // Fields after "(comm)": state is field 3, utime 14, stime 15.
  for (int field = 3; field <= 15 && fields >> tok; ++field)
    if (field == 14 || field == 15) ticks += std::strtod(tok.c_str(), nullptr);
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// VmHWM (peak resident set) in MiB of a process ("self" or a pid).
double hwm_mib(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

double cpu_of(const std::vector<long long>& pids) {
  double sum = 0.0;
  for (const long long p : pids) sum += std::max(0.0, proc_cpu_seconds(p));
  return sum;
}

double hwm_of(const std::vector<long long>& pids) {
  double sum = 0.0;
  for (const long long p : pids) sum += hwm_mib(std::to_string(p));
  return sum;
}

// --- tracing --------------------------------------------------------------

/// In-memory span log: name, start, end, parent span, request id.  Spans
/// nest per thread; a null Tracer* makes every Scope a no-op, so the same
/// loop code runs traced and untraced.
class Tracer {
 public:
  struct Span {
    std::string name;
    double t0_us = 0.0;
    double t1_us = 0.0;
    int parent = -1;
    std::uint64_t request = 0;
  };

  class Scope {
   public:
    Scope(Tracer* t, const char* name, std::uint64_t request) : t_(t) {
      if (t_ == nullptr) return;
      parent_ = current_;
      const std::lock_guard<std::mutex> lock(t_->mu_);
      index_ = static_cast<int>(t_->spans_.size());
      t_->spans_.push_back({name, t_->now_us(), 0.0, parent_, request});
      current_ = index_;
    }
    ~Scope() {
      if (t_ == nullptr) return;
      const double end = t_->now_us();
      const std::lock_guard<std::mutex> lock(t_->mu_);
      t_->spans_[static_cast<std::size_t>(index_)].t1_us = end;
      current_ = parent_;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    int index_ = -1;
    int parent_ = -1;
  };

  std::vector<Span> spans() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  /// Durations (ms) of every span with this name.
  std::vector<double> durations_ms(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans())
      if (s.name == name) out.push_back((s.t1_us - s.t0_us) * 1e-3);
    return out;
  }

  /// Self time (ms) of every span with this name: its duration minus
  /// the part its direct children cover.
  std::vector<double> self_ms(const std::string& name) const {
    const std::vector<Span> all = spans();
    std::vector<double> child(all.size(), 0.0);
    for (const Span& s : all)
      if (s.parent >= 0)
        child[static_cast<std::size_t>(s.parent)] += s.t1_us - s.t0_us;
    std::vector<double> out;
    for (std::size_t i = 0; i < all.size(); ++i)
      if (all[i].name == name)
        out.push_back((all[i].t1_us - all[i].t0_us - child[i]) * 1e-3);
    return out;
  }

  void write(const std::string& path) const {
    std::ofstream f(path);
    f << "[\n";
    const std::vector<Span> all = spans();
    for (std::size_t i = 0; i < all.size(); ++i) {
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,"
                    "\"end_us\":%.3f,\"parent\":%d,\"request\":%llu}%s\n",
                    i, all[i].name.c_str(), all[i].t0_us, all[i].t1_us,
                    all[i].parent,
                    static_cast<unsigned long long>(all[i].request),
                    i + 1 < all.size() ? "," : "");
      f << buf;
    }
    f << "]\n";
  }

 private:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  mutable std::mutex mu_;
  std::vector<Span> spans_;
  Clock::time_point origin_ = Clock::now();
  static thread_local int current_;
};

thread_local int Tracer::current_ = -1;

double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

// --- request streams (kernel-n20, fanout-n14) -----------------------------

/// One closed-loop client: each request is Session::sample on the next
/// angle point, sent when the previous one has returned.
struct Tenant {
  const char* name = "main";
  const char* span = "api.sample";
  api::Session* session = nullptr;
  const std::vector<qaoa::Angles>* points = nullptr;
  int shots = 0;
  std::size_t ref_requests = 0;  // requests the reference digests cover
  std::uint64_t k = 0;  // request index == the Session's sample call index
  std::uint64_t done = 0;
  std::uint64_t failed = 0;
  double cold_ms = 0.0;
  std::vector<double> ms;  // warm requests
  std::vector<double> first_costs;  // mean cost of requests k < ref_requests
  double cpu_s = 0.0;  // RUSAGE_SELF around calls
};

/// `tag` marks a request outside the timed window: "cold" (a client's
/// first request, part of set-up) or "alone" (a warm request with no
/// other tenant running).  Untagged requests are window requests.
void issue(Tenant& t, Tracer* tr, const char* tag = nullptr) {
  const qaoa::Angles& a = (*t.points)[t.k % t.points->size()];
  Out o("req");
  o.str("tenant", t.name).cnt("k", static_cast<long long>(t.k));
  if (tag != nullptr) o.str("tag", tag);
  const double cpu0 = self_cpu_seconds();
  const auto t0 = Clock::now();
  try {
    api::SampleResult r;
    {
      Tracer::Scope span(tr, t.span, t.k);
      r = t.session->sample(a, t.shots);
    }
    const double ms = ms_since(t0);
    if (tag == nullptr) {
      t.cpu_s += self_cpu_seconds() - cpu0;
      t.ms.push_back(ms);
      ++t.done;
    } else if (std::strcmp(tag, "cold") == 0) {
      t.cold_ms = ms;
    }
    if (t.k < t.ref_requests) t.first_costs.push_back(r.mean_cost());
    o.num("ms", ms).hex("fnv", outcomes_fnv(r)).num("mean_cost",
                                                    r.mean_cost());
  } catch (const std::exception& e) {
    ++t.failed;
    o.str("error", e.what());
  }
  ++t.k;
  o.emit();
}

void closed_loop(Tenant& t, Clock::time_point deadline, Tracer* tr,
                 std::uint64_t max_requests = UINT64_MAX) {
  for (std::uint64_t i = 0; i < max_requests && Clock::now() < deadline; ++i)
    issue(t, tr);
}

/// Approximation ratio of the first ref_requests requests' shots —
/// deterministic, because their outcome digests are checked.
void emit_ratio(const Tenant& t, const api::Workload& w) {
  if (t.ref_requests == 0 || t.first_costs.size() < t.ref_requests) return;
  double sum = 0.0;
  for (const double c : t.first_costs) sum += c;
  const double best = bench::best_cost(w);
  const double ratio = bench::approximation_ratio(
      sum / static_cast<double>(t.first_costs.size()), best);
  Out("ratio")
      .str("tenant", t.name)
      .hex("ratio_bits", std::bit_cast<std::uint64_t>(ratio))
      .num("ratio", ratio)
      .num("best_cost", best)
      .emit();
}

/// An embedded daemon (2 workers, unix socket) and the two sessions of
/// the fanout tenants: `remote` points at the daemon, `sharded` owns
/// num_processes = 2 workers.
struct FanoutRig {
  std::unique_ptr<serve::Daemon> daemon;
  std::unique_ptr<api::Session> remote;
  std::unique_ptr<api::Session> sharded;
  double serve_start_ms = 0.0;  // Daemon::start through the first HELLO

  FanoutRig(const api::Workload& w, std::uint64_t seed,
            const std::string& rundir) {
    serve::DaemonOptions d;
    d.endpoints = {"unix:" + rundir + "/mbqd-" + std::to_string(getpid()) +
                   ".sock"};
    d.workers = kFanoutWorkers;
    d.name = "mbq_perf";
    const auto t0 = Clock::now();
    daemon = std::make_unique<serve::Daemon>(d);
    daemon->start();
    { serve::DaemonClient hello(daemon->endpoint_string(), "mbq_perf"); }
    serve_start_ms = ms_since(t0);

    api::SessionOptions ro = session_options(seed);
    ro.daemon_endpoint = daemon->endpoint_string();
    remote = std::make_unique<api::Session>(w, kBackend, ro);
    api::SessionOptions so = session_options(seed);
    so.num_processes = kFanoutWorkers;
    sharded = std::make_unique<api::Session>(w, kBackend, so);
  }

  std::vector<long long> daemon_pids() const {
    std::vector<long long> out;
    for (const auto p : daemon->worker_pids()) out.push_back(p);
    return out;
  }
  std::vector<long long> pool_pids() const {
    std::vector<long long> out;
    if (const auto* pool = sharded->worker_pool())
      for (const auto p : pool->pids()) out.push_back(p);
    return out;
  }

  /// The remote and sharded tenants over the given points.
  std::pair<Tenant, Tenant> tenants(const std::vector<qaoa::Angles>& pts,
                                    int shots, std::size_t ref) const {
    Tenant r, s;
    r.name = "remote";
    r.span = "serve.request";
    r.session = remote.get();
    s.name = "sharded";
    s.span = "shard.request";
    s.session = sharded.get();
    for (Tenant* t : {&r, &s}) {
      t->points = &pts;
      t->shots = shots;
      t->ref_requests = ref;
    }
    return {r, s};
  }
};

struct FleetSnapshot {
  double daemon_cpu = 0.0;
  double pool_cpu = 0.0;
  serve::DaemonStats stats;
};

FleetSnapshot snapshot(const FanoutRig& f) {
  return {cpu_of(f.daemon_pids()), cpu_of(f.pool_pids()), f.daemon->stats()};
}

/// Samples Daemon::stats().queue_depth every millisecond until stop().
class QueueSampler {
 public:
  explicit QueueSampler(const serve::Daemon& d)
      : thread_([this, &d] {
          while (running_.load()) {
            const std::uint64_t depth = d.stats().queue_depth;
            if (depth > max_.load()) max_ = depth;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }) {}
  ~QueueSampler() { stop(); }
  QueueSampler(const QueueSampler&) = delete;
  QueueSampler& operator=(const QueueSampler&) = delete;

  /// Joins the sampling thread; returns the largest depth seen.
  std::uint64_t stop() {
    running_ = false;
    if (thread_.joinable()) thread_.join();
    return max_.load();
  }

 private:
  std::atomic<bool> running_{true};
  std::atomic<std::uint64_t> max_{0};
  std::thread thread_;  // last: starts after the members it reads
};

/// Worker CPU and Daemon::stats() deltas between two snapshots.
void emit_fleet(const FanoutRig& f, const FleetSnapshot& a,
                const FleetSnapshot& b, std::uint64_t queue_depth_max) {
  const auto d = [](std::uint64_t x, std::uint64_t y) {
    return static_cast<long long>(y - x);
  };
  Out("fleet")
      .num("serve_start_ms", f.serve_start_ms)
      .num("daemon_cpu_s", b.daemon_cpu - a.daemon_cpu)
      .num("pool_cpu_s", b.pool_cpu - a.pool_cpu)
      .cnt("requests", d(a.stats.requests_total, b.stats.requests_total))
      .cnt("slices", d(a.stats.slices_dispatched, b.stats.slices_dispatched))
      .cnt("redispatched",
           d(a.stats.slices_redispatched, b.stats.slices_redispatched))
      .cnt("busy_rejections",
           d(a.stats.busy_rejections, b.stats.busy_rejections))
      .cnt("warm_hits", d(a.stats.warm_hits, b.stats.warm_hits))
      .cnt("warm_misses", d(a.stats.warm_misses, b.stats.warm_misses))
      .cnt("queue_depth_max", static_cast<long long>(queue_depth_max))
      .emit();
}

void emit_tenant(const Tenant& t) {
  Out("tenant")
      .str("tenant", t.name)
      .cnt("done", static_cast<long long>(t.done))
      .cnt("failed", static_cast<long long>(t.failed))
      .cnt("shots", static_cast<long long>(t.done) * t.shots)
      .num("cpu_s", t.cpu_s)
      .num("cold_ms", t.cold_ms)
      .cnt("cache_hits", static_cast<long long>(t.session->cache_hits()))
      .cnt("cache_misses", static_cast<long long>(t.session->cache_misses()))
      .emit();
}

// --- optimize-serial, optimize-small ---------------------------------------

struct Solve {
  double solve_s = 0.0;
  double nm_ms = 0.0;      // inside opt::nelder_mead
  double inside_ms = 0.0;  // inside the wrapped objective
  int evaluations = 0;
  std::vector<double> batch_ms;      // one entry per objective call
  std::vector<double> batch_points;  // points per call (1 when serial)
  std::uint64_t trajectory_fnv = 0;
  api::SampleResult sample;
  double sample_ms = 0.0;
  double sample_cpu_s = 0.0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

/// One variational solve on a fresh Session: budgeted Nelder-Mead from x0
/// on batch_objective(), or on objective() when `serial`, then `shots`
/// shots at the best angles.
Solve solve(const api::Workload& w, std::uint64_t seed,
            const std::vector<double>& x0, int budget, int shots, bool serial,
            Tracer* tr, std::uint64_t request) {
  Solve out;
  const auto t0 = Clock::now();
  api::Session session(w, kBackend, session_options(seed));
  ValueDigest trajectory;
  const auto record = [&](Clock::time_point b0, std::size_t points) {
    const double ms = ms_since(b0);
    out.inside_ms += ms;
    out.batch_ms.push_back(ms);
    out.batch_points.push_back(static_cast<double>(points));
  };
  const opt::BatchObjective batch = session.batch_objective();
  const opt::BatchObjective timed_batch =
      [&](const std::vector<std::vector<real>>& points) {
        const auto b0 = Clock::now();
        std::vector<real> values;
        {
          Tracer::Scope span(tr, "api.expectation_batch", request);
          values = batch(points);
        }
        record(b0, points.size());
        for (const real v : values) trajectory.add(v);
        return values;
      };
  const opt::Objective scalar = session.objective();
  const opt::Objective timed_scalar = [&](const std::vector<real>& point) {
    const auto b0 = Clock::now();
    real value;
    {
      Tracer::Scope span(tr, "api.expectation", request);
      value = scalar(point);
    }
    record(b0, 1);
    trajectory.add(value);
    return value;
  };
  opt::NelderMeadOptions nm;
  nm.max_evaluations = budget;
  Rng rng(seed);
  opt::OptResult best;
  {
    Tracer::Scope span(tr, "opt.nelder_mead", request);
    const auto n0 = Clock::now();
    best = serial ? opt::nelder_mead(timed_scalar, x0, nm, rng)
                  : opt::nelder_mead(timed_batch, x0, nm, rng);
    out.nm_ms = ms_since(n0);
  }
  for (const real x : best.x) trajectory.add(x);
  out.evaluations = best.evaluations;
  {
    Tracer::Scope span(tr, "api.sample", request);
    const double cpu0 = self_cpu_seconds();
    const auto s0 = Clock::now();
    out.sample = session.sample(qaoa::Angles::from_flat(best.x), shots);
    out.sample_ms = ms_since(s0);
    out.sample_cpu_s = self_cpu_seconds() - cpu0;
  }
  out.solve_s = seconds_since(t0);
  out.trajectory_fnv = trajectory.value();
  out.cache_hits = session.cache_hits();
  out.cache_misses = session.cache_misses();
  return out;
}

std::vector<double> opt_start() {
  return qaoa::Angles::linear_ramp(kOptP).flat();
}

void emit_solve(const char* ev, int item, const std::string& id,
                const Solve& s, double ratio) {
  Out(ev)
      .cnt("item", item)
      .str("id", id)
      .num("solve_s", s.solve_s)
      .num("nm_ms", s.nm_ms)
      .num("inside_ms", s.inside_ms)
      .cnt("evaluations", s.evaluations)
      .nums("batch_ms", s.batch_ms)
      .nums("batch_points", s.batch_points)
      .cnt("shots", static_cast<long long>(s.sample.shots.size()))
      .num("sample_ms", s.sample_ms)
      .num("sample_cpu_s", s.sample_cpu_s)
      .cnt("cache_hits", static_cast<long long>(s.cache_hits))
      .cnt("cache_misses", static_cast<long long>(s.cache_misses))
      .hex("trajectory_fnv", s.trajectory_fnv)
      .hex("sample_fnv", outcomes_fnv(s.sample))
      .hex("ratio_bits", std::bit_cast<std::uint64_t>(ratio))
      .num("ratio", ratio)
      .num("rss_mib", hwm_mib("self"))
      .emit();
}

double ratio_of(const api::Workload& w, const api::SampleResult& r) {
  return bench::approximation_ratio(r.mean_cost(), bench::best_cost(w));
}

// --- set-up and the timed window --------------------------------------------

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  int start_item = 0;
  bool traced = false;
  std::string rundir = ".";
  std::string trace_out;
  std::string part;  // layers mode
};

/// Everything a workload holds between set-up and its timed window.  Not
/// movable: tenants point into it.
struct Rig {
  Rig() = default;
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  std::vector<qaoa::Angles> points;
  std::optional<api::Workload> workload;  // kernel-n20, fanout-n14
  std::unique_ptr<api::Session> main;     // kernel-n20
  std::unique_ptr<FanoutRig> fanout;      // fanout-n14
  std::vector<Tenant> tenants;
  std::vector<OptInstance> instances;  // optimize-*
};

bool is_optimize(const std::string& workload) {
  return workload == "optimize-small" || workload == "optimize-serial";
}

/// Set-up: instance generation, Session (and daemon) construction,
/// worker spawn, and each client's first, cold request.
void set_up(Rig& rig, const Args& args) {
  const auto t0 = Clock::now();
  if (args.workload == "kernel-n20") {
    rig.points = kernel_points();
    rig.workload = regular_workload(kKernelN, args.seed);
    rig.main = std::make_unique<api::Session>(*rig.workload, kBackend,
                                              session_options(args.seed));
    Tenant t;
    t.session = rig.main.get();
    t.points = &rig.points;
    t.shots = kKernelShots;
    t.ref_requests = kKernelRefRequests;
    rig.tenants.push_back(t);
    issue(rig.tenants[0], nullptr, "cold");
  } else if (args.workload == "fanout-n14") {
    rig.points = fanout_points();
    rig.workload = regular_workload(kFanoutN, args.seed);
    rig.fanout = std::make_unique<FanoutRig>(*rig.workload, args.seed,
                                             args.rundir);
    auto [r, s] = rig.fanout->tenants(rig.points, kFanoutShots,
                                      kFanoutRefRequests);
    rig.tenants = {r, s};
    for (Tenant& t : rig.tenants) issue(t, nullptr, "cold");
    // Traced runs also time a warm sharded request on an idle host, the
    // base of shard.spawn.ms (cold minus warm).
    if (args.traced) issue(rig.tenants[1], nullptr, "alone");
  } else {
    rig.instances = opt_instances(args.seed);
    // The client's first, cold request is a pass of solves over the set,
    // as in the window: the library's one-time start-up (kernel
    // self-checks on first use, OpenMP team start) is ~15 ms and slows
    // up to 3x on a busy host, which a lone cold evaluation leaves as
    // nearly all of set-up.
    for (std::size_t i = 0; i < rig.instances.size(); ++i)
      (void)solve(rig.instances[i].workload, args.seed, opt_start(),
                  kOptBudget, kOptFinalShots,
                  args.workload == "optimize-serial", nullptr, i);
  }
  Out("setup").num("setup_s", seconds_since(t0)).emit();
}

/// In-process digests of every request index the tenants reached, for
/// the bit-identity check of both fanout tenants (bounded in count and
/// time; run outside the timed window).
void emit_inproc_digests(const Rig& rig, std::uint64_t seed) {
  std::uint64_t upto = 0;
  for (const Tenant& t : rig.tenants) upto = std::max(upto, t.k);
  upto = std::min<std::uint64_t>(upto, 4096);
  api::Session local(*rig.workload, kBackend, session_options(seed));
  const auto t0 = Clock::now();
  for (std::uint64_t k = 0; k < upto && seconds_since(t0) < 20.0; ++k) {
    const api::SampleResult r =
        local.sample(rig.points[k % rig.points.size()], kFanoutShots);
    Out("inproc").cnt("k", static_cast<long long>(k)).hex("fnv",
                                                           outcomes_fnv(r))
        .emit();
  }
}

void window(Rig& rig, const Args& args, Tracer* tr) {
  const auto t0 = Clock::now();
  const auto deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(args.seconds));
  if (args.workload == "kernel-n20") {
    closed_loop(rig.tenants[0], deadline, tr);
  } else if (args.workload == "fanout-n14") {
    const FanoutRig& f = *rig.fanout;
    const FleetSnapshot before = snapshot(f);
    std::optional<QueueSampler> sampler;  // traced runs only
    if (tr != nullptr) sampler.emplace(*f.daemon);
    {
      std::jthread remote([&] { closed_loop(rig.tenants[0], deadline, tr); });
      closed_loop(rig.tenants[1], deadline, tr);
    }
    const std::uint64_t depth_max = sampler ? sampler->stop() : 0;
    emit_fleet(f, before, snapshot(f), depth_max);
  } else {
    const int count = static_cast<int>(rig.instances.size());
    for (int item = args.start_item; Clock::now() < deadline;
         item = (item + 1) % count) {
      const OptInstance& inst = rig.instances[static_cast<std::size_t>(item)];
      Out("start").cnt("item", item).emit();
      const Solve s = solve(inst.workload, args.seed, opt_start(), kOptBudget,
                            kOptFinalShots, args.workload == "optimize-serial",
                            tr, static_cast<std::uint64_t>(item));
      // Scoring stays outside solve_s (best_cost builds the cost table).
      emit_solve("inst", item, inst.id, s, ratio_of(inst.workload, s.sample));
    }
  }
  Out("window").num("seconds", seconds_since(t0)).emit();
  for (const Tenant& t : rig.tenants) {
    emit_tenant(t);
    emit_ratio(t, *rig.workload);
  }
  if (rig.fanout) emit_inproc_digests(rig, args.seed);
}

/// Peak resident set of this process and of every live worker.
void emit_rss(const Rig& rig) {
  double workers = 0.0;
  if (rig.fanout)
    workers = hwm_of(rig.fanout->daemon_pids()) +
              hwm_of(rig.fanout->pool_pids());
  Out("rss")
      .num("self_mib", hwm_mib("self"))
      .num("workers_mib", workers)
      .emit();
}

// --- per-layer probes -------------------------------------------------------

/// Sustained copy bandwidth (GB/s, bytes read plus written) over two
/// arrays of at least 4x the last-level cache each, on `threads` threads.
double stream_gbps(int threads) {
  std::uint64_t llc = 0;
  int llc_level = 0;
  for (int idx = 0; idx < 8; ++idx) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(idx);
    std::ifstream lvl(dir + "/level");
    std::ifstream size(dir + "/size");
    int level = 0;
    std::string text;
    if (!(lvl >> level) || !(size >> text)) continue;
    std::uint64_t bytes = std::strtoull(text.c_str(), nullptr, 10);
    if (text.find('K') != std::string::npos) bytes <<= 10;
    if (text.find('M') != std::string::npos) bytes <<= 20;
    if (level >= llc_level) {
      llc_level = level;
      llc = bytes;
    }
  }
  if (llc == 0) llc = std::uint64_t{32} << 20;
  const std::uint64_t bytes = std::max<std::uint64_t>(4 * llc, 256u << 20);
  const auto n = static_cast<std::int64_t>(bytes / sizeof(double));
  std::vector<double> a(static_cast<std::size_t>(n));
  std::vector<double> b(static_cast<std::size_t>(n));
  double* pa = a.data();
  double* pb = b.data();
#pragma omp parallel for num_threads(threads) schedule(static)
  for (std::int64_t i = 0; i < n; ++i) {
    pa[i] = 1.0 + static_cast<double>(i & 7);
    pb[i] = 0.0;
  }
  std::vector<double> rates;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
#pragma omp parallel for num_threads(threads) schedule(static)
    for (std::int64_t i = 0; i < n; ++i) pb[i] = pa[i];
    rates.push_back(2.0 * static_cast<double>(bytes) / seconds_since(t0) *
                    1e-9);
    std::swap(pa, pb);
  }
  Out("stream")
      .num("llc_mib", static_cast<double>(llc) / (1 << 20))
      .num("array_mib", static_cast<double>(bytes) / (1 << 20))
      .cnt("threads", threads)
      .nums("gbps", rates)
      .num("checksum", pa[n / 3] + pb[n / 5])
      .emit();
  return median(rates);
}

/// Shard and serve layers on a workload that does not exercise them
/// itself: a cold request per tenant, then `requests` warm requests per
/// tenant, one tenant after the other.  Prints the same tenant and fleet
/// events as the fanout-n14 window.
void shard_serve_probe(const api::Workload& w,
                       const std::vector<qaoa::Angles>& pts, int shots,
                       const Args& args, Tracer* tr, int requests) {
  FanoutRig f(w, args.seed, args.rundir);
  auto [remote, sharded] = f.tenants(pts, shots, 0);
  issue(remote, tr, "cold");
  issue(sharded, tr, "cold");  // spawns the pool
  const FleetSnapshot before = snapshot(f);
  QueueSampler sampler(*f.daemon);
  for (Tenant* t : {&remote, &sharded})
    closed_loop(*t, Clock::time_point::max(), tr,
                static_cast<std::uint64_t>(requests));
  emit_fleet(f, before, snapshot(f), sampler.stop());
  emit_tenant(remote);
  emit_tenant(sharded);
}

/// Issue a request through Session, then the same work again decomposed
/// into the layer calls on this thread, each under its own span.
bool decompose(bench::Family family, int n, const qaoa::Angles& a, int shots,
               std::uint64_t seed, std::uint64_t request, Tracer& tr,
               std::map<std::string, double>& m) {
  Tracer::Scope root(&tr, "request", request);
  {
    api::Session s(api::Workload::from_spec(
                       bench::make_instance(family, n, 0, seed)),
                   kBackend, session_options(seed));
    Tracer::Scope span(&tr, "api.sample.cold", request);
    s.sample(a, shots);
  }
  api::WorkloadSpec spec;
  {
    Tracer::Scope span(&tr, "bench.make_instance", request);
    spec = bench::make_instance(family, n, 0, seed);
  }
  const api::Workload w = api::Workload::from_spec(spec);
  {
    Tracer::Scope span(&tr, "speccomp.compile_spec", request);
    (void)speccomp::compile_spec(spec);
  }
  (void)w.lowered();  // the memo compile_pattern reads, outside its span
  core::CompiledPattern cp;
  {
    Tracer::Scope span(&tr, "core.compile_pattern", request);
    cp = w.compile_pattern(a, true);
  }
  std::shared_ptr<const mbqc::CompiledPattern> tape;
  {
    Tracer::Scope span(&tr, "mbqc.lower_tape", request);
    tape = std::make_shared<const mbqc::CompiledPattern>(cp.pattern);
  }
  mbqc::PatternExecutor ex(tape, mbqc::ExecOptions{});
  Rng rng(seed);
  int peak_live = ex.run_sample(rng).peak_live;  // warms the arena
  for (int i = 0; i < std::max(shots, 3); ++i) {
    Tracer::Scope span(&tr, "mbqc.run_sample", request);
    peak_live = std::max(peak_live, ex.run_sample(rng).peak_live);
  }
  for (int i = 0; i < 3; ++i) {
    Tracer::Scope span(&tr, "mbqc.run", request);
    (void)ex.run(rng);
  }
  {
    Tracer::Scope span(&tr, "bench.score", request);
    const bench::SparseDist ref = bench::reference_distribution(w, a);
    real mean_cost = 0.0;
    for (const auto& [x, p] : ref) mean_cost += p * w.cost().evaluate(x);
    (void)bench::approximation_ratio(mean_cost, bench::best_cost(w));
  }
  // Pattern counts against the paper's closed forms (Sec. III-A):
  // N_Q = p(|E| + 2|V|) measured ancillas, N_E = p(2|E| + 2|V|) entanglers.
  const core::ResourceEstimate r =
      core::measure_resources(w.cost(), a.p(), cp);
  m["core.measurements"] = cp.pattern.num_measurements();
  m["core.entanglers"] = cp.pattern.num_entangling();
  m["core.pattern_commands"] =
      static_cast<double>(cp.pattern.commands().size());
  m["mbqc.tape_ops"] = tape->num_ops();
  m["mbqc.peak_live"] = peak_live;
  const bool ok = r.ancillas == r.paper_ancilla_bound &&
                  r.entanglers == r.paper_entangler_bound &&
                  r.measurements == r.paper_ancilla_bound;
  Out("resources")
      .cnt("request", static_cast<long long>(request))
      .cnt("n_q_paper", r.paper_ancilla_bound)
      .cnt("n_e_paper", r.paper_entangler_bound)
      .cnt("ancillas", r.ancillas)
      .cnt("entanglers", r.entanglers)
      .cnt("measurements", r.measurements)
      .flag("ok", ok)
      .emit();
  return ok;
}

// --- modes ----------------------------------------------------------------

int usage();

int mode_context() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::string affinity;
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set))
        affinity += (affinity.empty() ? "" : ",") + std::to_string(c);
  Out("context")
      .cnt("nproc", sysconf(_SC_NPROCESSORS_ONLN))
      .str("affinity", affinity)
      .str("build_type", MBQ_PERF_BUILD_TYPE)
      .str("simd", isa_name(active_simd_isa()))
      .cnt("kernel_threads", thr::kernel_threads())
      .cnt("num_threads", num_threads())
      .flag("openmp", has_openmp())
      .str("precision", "f64")
      .emit();
  return 0;
}

int mode_setup(const Args& args) {
  Rig rig;
  set_up(rig, args);
  return 0;
}

int mode_run(const Args& args) {
  Rig rig;
  set_up(rig, args);
  Tracer tracer;
  window(rig, args, args.traced ? &tracer : nullptr);
  emit_rss(rig);
  if (args.traced && !args.trace_out.empty()) tracer.write(args.trace_out);
  return 0;
}

/// Reference digests for the first requests of each stream and for every
/// instance of the optimize workloads (computed on the serial path for
/// both; their trajectories are the same).  Run it under MBQ_SIMD=scalar
/// and MBQ_KERNEL_THREADS=1: the determinism contract makes every other
/// configuration reproduce these bits.
int mode_reference(const Args& args) {
  const auto stream = [&](const api::Workload& w,
                          const std::vector<qaoa::Angles>& pts, int shots,
                          std::size_t requests) {
    api::Session s(w, kBackend, session_options(args.seed));
    Tenant t;
    t.session = &s;
    t.points = &pts;
    t.shots = shots;
    t.ref_requests = requests;
    while (t.k < requests) issue(t, nullptr);
    emit_ratio(t, w);
  };
  if (args.workload == "kernel-n20") {
    stream(regular_workload(kKernelN, args.seed), kernel_points(),
           kKernelShots, kKernelRefRequests);
  } else if (args.workload == "fanout-n14") {
    stream(regular_workload(kFanoutN, args.seed), fanout_points(),
           kFanoutShots, kFanoutRefRequests);
  } else {
    const std::vector<OptInstance> insts = opt_instances(args.seed);
    for (std::size_t i = 0; i < insts.size(); ++i) {
      const Solve s = solve(insts[i].workload, args.seed, opt_start(),
                            kOptBudget, kOptFinalShots, true, nullptr, i);
      emit_solve("inst", static_cast<int>(i), insts[i].id, s,
                 ratio_of(insts[i].workload, s.sample));
    }
  }
  return 0;
}

/// One part of the per-layer probes of a traced run (each runs in its own
/// child, so a crash in one loses no other):
///   decompose  the layer decomposition of a sample of requests, plus the
///              pattern counts checked against the paper's closed forms;
///   fleet      shard and serve layers, where the workload lacks them;
///   optimizer  a short Nelder-Mead, where the workload has none;
///   inproc     in-process Session::sample under fanout-n14's stream;
///   stream     the bandwidth probe.
int mode_layers(const Args& args) {
  Tracer tr;
  std::map<std::string, double> m;
  const bool kernel = args.workload == "kernel-n20";
  const bool optimize = is_optimize(args.workload);
  const int n = kernel ? kKernelN : kFanoutN;
  const int shots = kernel ? kKernelShots : kFanoutShots;
  const std::vector<qaoa::Angles>& pts =
      kernel ? kernel_points() : fanout_points();

  if (args.part == "decompose") {
    bool counts_ok = true;
    std::uint64_t request = 1;
    if (optimize) {
      const qaoa::Angles a = qaoa::Angles::from_flat(opt_start());
      for (const bench::Family f :
           {bench::Family::Sk, bench::Family::ErdosRenyi,
            bench::Family::Regular, bench::Family::Grid})
        for (const int size : {6, 8, 10})
          counts_ok &= decompose(f, size, a, kFanoutShots, args.seed,
                                 request++, tr, m);
    } else {
      for (const qaoa::Angles& a : pts)
        counts_ok &= decompose(bench::Family::Regular, n, a, shots, args.seed,
                               request++, tr, m);
    }
    for (const auto& [name, span] :
         {std::pair<const char*, const char*>{"speccomp.compile_spec.us",
                                              "speccomp.compile_spec"},
          {"core.compile_pattern.us", "core.compile_pattern"},
          {"mbqc.lower_tape.us", "mbqc.lower_tape"},
          {"bench.make_instance.us", "bench.make_instance"}})
      m[name] = 1e3 * median(tr.durations_ms(span));
    m["mbqc.run_sample.ms"] = median(tr.durations_ms("mbqc.run_sample"));
    m["mbqc.run.ms"] = median(tr.durations_ms("mbqc.run"));
    m["bench.score.ms"] = median(tr.durations_ms("bench.score"));
    // Computed bound, not a measurement: every tape op sweeps the arena
    // at its peak width, 16 bytes per f64 amplitude.
    m["sim.bytes_per_shot"] =
        m["mbqc.tape_ops"] *
        std::ldexp(1.0, static_cast<int>(m["mbqc.peak_live"])) * 16.0;
    Out("counts").flag("ok", counts_ok).emit();
  } else if (args.part == "fleet") {
    // kernel-n20 probes its own instance; the optimize workloads probe the
    // fanout-n14 request (n = 14, 8 shots), the regime where worker kernel
    // threads decide the cost.
    shard_serve_probe(regular_workload(n, args.seed), pts, shots, args, &tr,
                      kernel ? 1 : 2);
  } else if (args.part == "optimizer") {
    const api::Workload w = regular_workload(n, args.seed);
    // Serial: the batch path can crash in Workload::lowered() (README.md).
    const Solve s =
        solve(w, args.seed, pts[0].flat(), 12, shots, true, &tr, 0);
    m["api.expectation.ms_p50"] = median(s.batch_ms);
    m["opt.evaluations"] = s.evaluations;
    m["opt.self_ms"] = median(tr.self_ms("opt.nelder_mead"));
  } else if (args.part == "inproc") {
    const api::Workload w = regular_workload(n, args.seed);
    api::Session s(w, kBackend, session_options(args.seed));
    Tenant t;
    t.name = "inproc";
    t.session = &s;
    t.points = &pts;
    t.shots = shots;
    issue(t, &tr, "cold");
    closed_loop(t, Clock::time_point::max(), &tr, 8);
    m["api.sample.ms_p50"] = median(t.ms);
    m["api.cpu_s_per_shot"] =
        t.cpu_s /
        static_cast<double>(t.done * static_cast<std::uint64_t>(shots));
  } else if (args.part == "stream") {
    m["sim.stream_gbps"] = stream_gbps(num_threads());
  } else {
    return usage();
  }
  for (const auto& [name, value] : m)
    Out("layer").str("name", name).num("value", value).emit();
  if (!args.trace_out.empty()) tr.write(args.trace_out);
  return 0;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: mbq_perf context\n"
      "       mbq_perf {setup|run|layers|reference} WORKLOAD --seed S\n"
      "                [--seconds T] [--rundir DIR] [--start-item I]\n"
      "                [--traced 0|1] [--part PART] [--trace-out FILE]\n"
      "WORKLOAD: kernel-n20 | optimize-serial | optimize-small | "
      "fanout-n14\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr,
               "mbq_perf: refusing to measure a build with assertions on "
               "(build type %s); configure with -DCMAKE_BUILD_TYPE=Release\n",
               MBQ_PERF_BUILD_TYPE);
  return 3;
#endif
  if (std::strcmp(MBQ_PERF_BUILD_TYPE, "Debug") == 0) {
    std::fprintf(stderr, "mbq_perf: refusing to measure a Debug build\n");
    return 3;
  }
  if (argc < 2) return usage();
  Args args;
  args.mode = argv[1];
  if (args.mode == "context") return mode_context();
  if (argc < 3) return usage();
  args.workload = argv[2];
  if (args.workload != "kernel-n20" && !is_optimize(args.workload) &&
      args.workload != "fanout-n14")
    return usage();
  for (int i = 3; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--seed")
      args.seed = std::strtoull(v, nullptr, 10);
    else if (flag == "--seconds")
      args.seconds = std::strtod(v, nullptr);
    else if (flag == "--start-item")
      args.start_item = std::atoi(v);
    else if (flag == "--traced")
      args.traced = std::strcmp(v, "1") == 0;
    else if (flag == "--rundir")
      args.rundir = v;
    else if (flag == "--trace-out")
      args.trace_out = v;
    else if (flag == "--part")
      args.part = v;
    else
      return usage();
  }
  try {
    if (args.mode == "setup") return mode_setup(args);
    if (args.mode == "run") return mode_run(args);
    if (args.mode == "layers") return mode_layers(args);
    if (args.mode == "reference") return mode_reference(args);
  } catch (const std::exception& e) {
    Out("error").str("what", e.what()).emit();
    return 1;
  }
  return usage();
}
