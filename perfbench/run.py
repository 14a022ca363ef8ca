#!/usr/bin/env python3
"""The repository benchmark: build perfbench/mbq_perf, run one workload.

Run from the root of a source checkout:

  python3 perfbench/run.py --workload kernel-n20 --seed 1 --seconds 40 --trace 0

Workloads are kernel-n20, optimize-serial, optimize-small and fanout-n14
(README.md in this directory says why each exists and which ones
BENCHMARK.json gates).  --trace 0 measures the end-to-end
metrics; --trace 1 is a separate traced run that measures the per-layer
metrics and the tracing overhead.  The metric names and units come from
BENCHMARK.json at the root.

Output: a context block and a readable table, then, as the last line, one
JSON object {"correct", "attempted", "failed", "metrics"}.  The exit code
is 0 when every checked output matched its reference, 1 when an outcome
digest, a trajectory or a ratio did not, and 2 when the benchmark could
not run at all (no sources, a failed build, an unknown workload).

Every workload runs in supervised child processes.  A child that crashes
counts its in-flight request or instance as failed and a fresh child
continues at the next one, so defects show up as failures instead of
ending the run.

Reference digests come from perfbench/reference_digests.json; a seed that
file lacks gets its reference computed once, in the reference
configuration (MBQ_SIMD=scalar, MBQ_KERNEL_THREADS=1, OMP_NUM_THREADS=1),
and cached under .bench_build/.  To regenerate the stored file:

  python3 perfbench/run.py --make-references --seeds 0-31
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "bin" / "mbq_perf"
RUN_DIR = ROOT / ".bench_build" / "run"
CACHE_DIR = ROOT / ".bench_build" / "refcache"
RESULTS_DIR = ROOT / ".bench_build" / "results"
REFERENCE_FILE = BENCH_DIR / "reference_digests.json"

WORKLOADS = ("kernel-n20", "optimize-serial", "optimize-small", "fanout-n14")
OPTIMIZE = ("optimize-serial", "optimize-small")
# optimize-serial visits the same trajectories as optimize-small (scalar and
# batch Nelder-Mead are bit-identical), so it checks against the same
# stored references.
REFERENCE_KEY = {"optimize-serial": "optimize-small"}
OPT_INSTANCES = 12
SETUP_REPEATS = 3      # set-up children before and again after the window at
SETUP_MAX = 12         # least, more while they fit in SETUP_BUDGET_S (cheap ones
SETUP_BUDGET_S = 2.0   # jitter most from thread start-up); setup_s is the median
LAYER_RETRIES = 4      # attempts per per-layer probe child
RUN_BUDGET_S = 170.0   # wall-clock ceiling of one run after the build
P90_MIN_SAMPLES = 100  # p90 is reported only with this many requests


class BenchError(Exception):
    """The benchmark cannot run (exit code 2, no result line)."""


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


# --- build -------------------------------------------------------------------

def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "mbq").is_dir():
        raise BenchError(f"no mbq sources under {ROOT}: run from a full checkout")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    compile_cmd = ["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                   "--target", "mbq_perf", "mbq_worker"]
    if subprocess.run(compile_cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        raise BenchError("build failed")


# --- children ----------------------------------------------------------------

def clean_env(**extra):
    """The caller's environment without any MBQ_* setting: the system runs
    with its defaults (no thread or process pins) unless a key is given."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("MBQ_")}
    env.update(extra)
    return env


def reap_group(pgid):
    """SIGKILL whatever is left of a child's process group and wait until
    the group is empty (workers re-parented after a crash included)."""
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        except PermissionError:
            return
        time.sleep(0.02)


class Child:
    """One finished mbq_perf process: its events, exit code and wall time."""

    def __init__(self, args, timeout, env=None):
        cmd = [str(BINARY), *map(str, args)]
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env or clean_env(),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                start_new_session=True)
        try:
            out, err = proc.communicate(timeout=max(1.0, timeout))
            self.timed_out = False
        except subprocess.TimeoutExpired:
            reap_group(proc.pid)
            out, err = proc.communicate()
            self.timed_out = True
        reap_group(proc.pid)
        self.wall_s = time.monotonic() - t0
        self.returncode = proc.returncode
        self.events = []
        for line in out.decode(errors="replace").splitlines():
            if line.startswith("{"):
                try:
                    self.events.append(json.loads(line))
                except json.JSONDecodeError:
                    pass  # a line cut short by a crash
        self.stderr = err.decode(errors="replace").strip()
        if self.returncode != 0 and self.stderr:
            log(self.stderr[-500:])

    @property
    def ok(self):
        return self.returncode == 0 and not self.timed_out

    def of(self, ev):
        return [e for e in self.events if e["ev"] == ev]

    def first(self, ev):
        found = self.of(ev)
        return found[0] if found else None


# --- reference digests -------------------------------------------------------

def reference_from_events(workload, child):
    if not child.ok:
        raise BenchError(f"reference run of {workload} failed "
                         f"(exit {child.returncode})")
    if workload in OPTIMIZE:
        return {"instances": [
            {k: e[k] for k in ("id", "trajectory_fnv", "sample_fnv", "ratio_bits", "ratio")}
            for e in child.of("inst")]}
    ratio = child.first("ratio")
    return {"fnv": [e["fnv"] for e in child.of("req")],
            "ratio_bits": ratio["ratio_bits"], "ratio": ratio["ratio"]}


def compute_reference(workload, seed):
    env = clean_env(MBQ_SIMD="scalar", MBQ_KERNEL_THREADS="1", OMP_NUM_THREADS="1")
    child = Child(["reference", workload, "--seed", seed], timeout=600, env=env)
    return reference_from_events(workload, child)


def reference(workload, seed):
    if REFERENCE_FILE.is_file():
        table = json.loads(REFERENCE_FILE.read_text())
        stored = table.get(REFERENCE_KEY.get(workload, workload), {}).get(str(seed))
        if stored is not None:
            return stored, "stored"
    cached = CACHE_DIR / f"{workload}-{seed}.json"
    if cached.is_file():
        return json.loads(cached.read_text()), "cached"
    ref = compute_reference(workload, seed)
    CACHE_DIR.mkdir(parents=True, exist_ok=True)
    cached.write_text(json.dumps(ref))
    return ref, "computed"


def make_references(seeds):
    table = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.is_file() else {}
    for workload in (w for w in WORKLOADS if w not in REFERENCE_KEY):
        for seed in seeds:
            log(f"reference {workload} seed {seed}")
            table.setdefault(workload, {})[str(seed)] = compute_reference(workload, seed)
    REFERENCE_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


# --- context -----------------------------------------------------------------

def source_digest():
    """sha256 over the sources the benchmark builds (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for sub in ("src", "tools", BENCH_DIR.name):
        files += sorted(p for p in (ROOT / sub).rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def cpu_ticks():
    """(steal, total) jiffies of the host line of /proc/stat."""
    try:
        fields = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def context(args):
    child = Child(["context"], timeout=30)
    if not child.ok or child.first("context") is None:
        raise BenchError("mbq_perf context failed")
    ctx = dict(child.first("context"))
    ctx.pop("ev")
    if ctx["build_type"] == "Debug":
        raise BenchError("refusing to measure a Debug build")
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        ctx["git_sha"] = sha.stdout.strip() if sha.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        ctx["git_sha"] = None
    ctx["source_sha256"] = source_digest()
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    ctx["cpu_model"] = model
    ctx["workload"] = args.workload
    ctx["seed"] = args.seed
    ctx["seconds"] = args.seconds
    ctx["trace"] = args.trace
    ctx["unset_env"] = sorted(k for k in os.environ if k.startswith("MBQ_"))
    return ctx


# --- one measured window, supervised -----------------------------------------

class Window:
    """Children of one timed window.  A crashed child is replaced by a
    fresh one that continues at the next request or instance, until the
    window's seconds of wall-clock time (the first child's set-up
    excluded, restarts included) are used up."""

    def __init__(self, workload, seed, seconds, deadline, traced=False, tag="run"):
        self.workload = workload
        self.children = []
        self.crashes = 0
        self.inflight_failed = 0
        self.used_s = 0.0
        start_item = 0
        begin = time.monotonic()
        while not self.children or self.used_s < seconds:
            left = seconds - self.used_s if self.children else seconds
            args = ["run", workload, "--seed", seed, "--seconds", f"{max(left, 0.5):.3f}",
                    "--rundir", os.path.relpath(RUN_DIR, ROOT), "--start-item", start_item]
            if traced:
                trace_file = RESULTS_DIR / f"spans-{workload}-{seed}-{tag}-{len(self.children)}.json"
                args += ["--traced", "1", "--trace-out", trace_file]
            child = Child(args, timeout=deadline - time.monotonic())
            self.children.append(child)
            self.used_s = time.monotonic() - begin - (self.setup_s() or 0.0)
            if child.ok:
                break
            if child.timed_out:
                raise BenchError(f"{workload} child ran past the run's time budget")
            self.crashes += 1
            if workload in OPTIMIZE:
                started = child.of("start")
                done = {e["item"] for e in child.of("inst")}
                item = started[-1]["item"] if started else start_item
                if not started or item not in done:
                    self.inflight_failed += 1
                start_item = (item + 1) % OPT_INSTANCES
            else:
                self.inflight_failed += 2 if workload == "fanout-n14" else 1
            if time.monotonic() > deadline - 5.0:
                break

    def events(self, ev):
        return [e for c in self.children for e in c.of(ev)]

    def setup_s(self):
        setup = self.children[0].first("setup")
        return setup["setup_s"] if setup else None

    def requests(self, tenant=None):
        """Completed warm requests (kernel-n20, fanout-n14)."""
        return [e for e in self.events("req")
                if "tag" not in e and "ms" in e and (tenant is None or e["tenant"] == tenant)]

    def work(self):
        """Objective evaluations (optimize-*) or requests completed."""
        if self.workload in OPTIMIZE:
            return sum(e["evaluations"] for e in self.events("inst"))
        return len(self.requests())

    def operations(self):
        """Instances or requests attempted, crashed ones included."""
        done = self.events("inst") if self.workload in OPTIMIZE else self.events("req")
        return len([e for e in done if "tag" not in e]) + self.inflight_failed


# --- correctness -------------------------------------------------------------

class Checks:
    def __init__(self):
        self.mismatches = []

    def expect(self, what, got, want):
        if got != want:
            self.mismatches.append(f"{what}: got {got}, reference {want}")


def check_window(win, ref, checks):
    """Compare every output of a window with the reference digests and,
    for fanout-n14, the tenants with each other and with in-process
    execution.  Returns the number of operations that mismatched."""
    bad = 0
    if win.workload in OPTIMIZE:
        by_item = ref["instances"]
        for e in win.events("inst"):
            want = by_item[e["item"]]
            before = len(checks.mismatches)
            for key in ("trajectory_fnv", "sample_fnv", "ratio_bits"):
                checks.expect(f"{e['id']} {key}", e[key], want[key])
            bad += len(checks.mismatches) > before
        return bad
    for child in win.children:
        streams = {}
        for e in child.of("req"):
            if "fnv" in e:
                streams.setdefault(e["tenant"], {})[e["k"]] = e["fnv"]
        inproc = {e["k"]: e["fnv"] for e in child.of("inproc")}
        for tenant, digests in streams.items():
            for k, fnv in sorted(digests.items()):
                before = len(checks.mismatches)
                if k < len(ref["fnv"]):
                    checks.expect(f"{tenant} request {k} digest", fnv, ref["fnv"][k])
                if k in inproc:
                    checks.expect(f"{tenant} request {k} vs in-process", fnv, inproc[k])
                bad += len(checks.mismatches) > before
        for e in child.of("ratio"):
            checks.expect(f"{e['tenant']} approx ratio bits", e["ratio_bits"], ref["ratio_bits"])
    return bad


# --- metrics -----------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else None


def end_to_end(win, setup_values):
    """The end-to-end metrics of an untraced window, with sample counts."""
    m, n = {}, {}
    m["setup_s"], n["setup_s"] = median(setup_values), len(setup_values)
    if win.workload in OPTIMIZE:
        insts = win.events("inst")
        latencies = [ms for e in insts for ms in e["batch_ms"]]
        # Which instances complete depends on where children crash, and the
        # instances differ ~10x in cost, so every rate is taken over one
        # pass of the set from each instance's median time; solve_s_p50 is
        # that per-instance median averaged over the 12 instances.
        by_item = {}
        for e in insts:
            by_item.setdefault(e["item"], []).append(e)
        solve = {i: median([e["solve_s"] for e in es]) for i, es in by_item.items()}
        sample_s = sum(median([e["sample_ms"] for e in es]) * 1e-3 for es in by_item.values())
        shots = sum(es[0]["shots"] for es in by_item.values())
        evals = sum(es[0]["evaluations"] for es in by_item.values())
        m["shots_per_s"] = shots / sample_s if sample_s else None
        m["evals_per_s"] = evals / sum(solve.values()) if solve else None
        m["solve_s_p50"] = statistics.fmean(solve.values()) if solve else None
        # Median, not mean, over the instances: an SK instance whose best cut
        # is near 0 has a ratio far outside [0, 1] (-2.37 at seed 22) and
        # would set the mean on its own.
        m["approx_ratio"] = median([es[0]["ratio"] for es in by_item.values()])
        n.update(shots_per_s=len(insts), evals_per_s=len(insts), solve_s_p50=len(insts),
                 approx_ratio=len(by_item))
        attempted_ok = len(insts)
    else:
        reqs = win.requests()
        latencies = [e["ms"] for e in reqs]
        shots_each = 4 if win.workload == "kernel-n20" else 8
        clients = len({e["tenant"] for e in reqs})
        # Closed loop: each client completes one request per response
        # time, taken at its median so one stall does not move the rate.
        per_s = clients / (median(latencies) * 1e-3) if latencies else None
        m["shots_per_s"] = per_s * shots_each if per_s else None
        m["evals_per_s"] = per_s
        # On the request streams a solve is one sample request.
        m["solve_s_p50"] = median(latencies) / 1e3 if latencies else None
        # Mean sampled cost over every completed request (set-up requests
        # included) against the instance's best cost.
        costs = [e["mean_cost"] for e in win.events("req") if "mean_cost" in e]
        best = win.events("ratio")
        m["approx_ratio"] = (statistics.fmean(costs) / best[0]["best_cost"]
                             if costs and best else None)
        n.update(shots_per_s=len(reqs) * shots_each, evals_per_s=len(reqs),
                 solve_s_p50=len(reqs), approx_ratio=len(costs))
        attempted_ok = len(reqs)
    m["request_ms_p50"] = median(latencies)
    n["request_ms_p50"] = len(latencies)
    if len(latencies) >= P90_MIN_SAMPLES:
        m["request_ms_p90"] = statistics.quantiles(latencies, n=10)[-1]
        n["request_ms_p90"] = len(latencies)
    rss = [e["self_mib"] + e["workers_mib"] for e in win.events("rss")]
    rss += [e["rss_mib"] for e in win.events("inst")]
    m["peak_rss_mb"] = max(rss) if rss else None
    n["peak_rss_mb"] = len(rss)
    errors = len([e for e in win.events("req") if "error" in e])
    attempted = attempted_ok + errors + win.inflight_failed
    return m, n, attempted, errors + win.inflight_failed, latencies


def fleet_layers(events):
    """shard.* and serve.* metrics from the tenant and fleet events of a
    fanout-n14 window or of a shard/serve probe."""
    def warm(tenant):
        return [e["ms"] for e in events if e["ev"] == "req" and e["tenant"] == tenant
                and "tag" not in e and "ms" in e]
    remote, sharded = warm("remote"), warm("sharded")
    tenants = {e["tenant"]: e for e in events if e["ev"] == "tenant"}
    alone = [e["ms"] for e in events if e["ev"] == "req" and e.get("tag") == "alone" and "ms" in e]
    fleet = [e for e in events if e["ev"] == "fleet"]
    m = {"serve.request.ms_p50": median(remote), "shard.request.ms_p50": median(sharded)}
    if "sharded" in tenants and sharded:
        t = tenants["sharded"]
        m["shard.spawn.ms"] = t["cold_ms"] - (alone[0] if alone else median(sharded))
        total = t["cache_hits"] + t["cache_misses"]
        m["api.cache_hit_ratio"] = t["cache_hits"] / total if total else None
    if fleet:
        f = fleet[0]
        shots = {name: t["shots"] for name, t in tenants.items()}
        m["serve.start.ms"] = f["serve_start_ms"]
        if shots.get("remote"):
            m["serve.worker_cpu_s_per_shot"] = f["daemon_cpu_s"] / shots["remote"]
        if shots.get("sharded"):
            m["shard.worker_cpu_s_per_shot"] = f["pool_cpu_s"] / shots["sharded"]
        m["serve.slices_per_request"] = f["slices"] / max(1, f["requests"])
        m["serve.redispatch_ratio"] = f["redispatched"] / max(1, f["slices"])
        m["serve.busy_rejections"] = f["busy_rejections"]
        warm_total = f["warm_hits"] + f["warm_misses"]
        m["serve.warm_hit_ratio"] = f["warm_hits"] / warm_total if warm_total else None
        m["serve.queue_depth_max"] = f["queue_depth_max"]
    return {k: v for k, v in m.items() if v is not None}


def per_layer(workload, traced, seed, deadline, layer_failures):
    """Per-layer metrics: window-derived ones from the traced window, the
    rest from the per-layer probe children."""
    m = {}
    if workload == "kernel-n20":
        reqs = traced.requests()
        tenant = traced.events("tenant")
        shots = sum(t["shots"] for t in tenant)
        hits = sum(t["cache_hits"] for t in tenant)
        misses = sum(t["cache_misses"] for t in tenant)
        m["api.sample.ms_p50"] = median([e["ms"] for e in reqs])
        m["api.cpu_s_per_shot"] = sum(t["cpu_s"] for t in tenant) / shots if shots else None
        m["api.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else None
    elif workload == "fanout-n14":
        m.update(fleet_layers([e for c in traced.children for e in c.events]))
    else:
        insts = traced.events("inst")
        hits = sum(e["cache_hits"] for e in insts)
        misses = sum(e["cache_misses"] for e in insts)
        shots = sum(e["shots"] for e in insts)
        calls_ms = median([ms for e in insts for ms in e["batch_ms"]])
        if workload == "optimize-serial":
            m["api.expectation.ms_p50"] = calls_ms
        else:
            m["api.expectation_batch.ms_p50"] = calls_ms
            points = [p for e in insts for p in e["batch_points"]]
            m["api.batch_points_mean"] = statistics.fmean(points) if points else None
        m["api.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else None
        m["api.sample.ms_p50"] = median([e["sample_ms"] for e in insts])
        m["api.cpu_s_per_shot"] = sum(e["sample_cpu_s"] for e in insts) / shots if shots else None
        m["opt.evaluations"] = statistics.fmean(e["evaluations"] for e in insts) if insts else None
        m["opt.self_ms"] = median([e["nm_ms"] - e["inside_ms"] for e in insts])

    parts = ["decompose", "stream"]
    parts += [] if workload == "fanout-n14" else ["fleet"]
    parts += [] if workload in OPTIMIZE else ["optimizer"]
    parts += ["inproc"] if workload == "fanout-n14" else []
    counts_ok = True
    for part in parts:
        for attempt in range(LAYER_RETRIES):
            trace_file = RESULTS_DIR / f"spans-{workload}-{seed}-{part}.json"
            child = Child(["layers", workload, "--seed", seed, "--part", part,
                           "--rundir", os.path.relpath(RUN_DIR, ROOT),
                           "--trace-out", trace_file],
                          timeout=deadline - time.monotonic())
            if child.ok:
                break
            layer_failures.append(f"layers {part} attempt {attempt + 1}: exit {child.returncode}")
            if child.timed_out or time.monotonic() > deadline - 5.0:
                break
        if not child.ok:
            continue
        if part == "fleet":
            for name, value in fleet_layers(child.events).items():
                m.setdefault(name, value)
        for e in child.of("layer"):
            m.setdefault(e["name"], e["value"])
        counts = child.first("counts")
        if counts is not None:
            counts_ok = counts["ok"]
    if m.get("mbqc.run_sample.ms") and m.get("sim.stream_gbps"):
        m["sim.roofline_frac"] = m["sim.bytes_per_shot"] / (
            m["mbqc.run_sample.ms"] * 1e-3 * m["sim.stream_gbps"] * 1e9)
    return m, counts_ok


# --- main --------------------------------------------------------------------

def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    build()
    deadline = time.monotonic() + RUN_BUDGET_S
    RUN_DIR.mkdir(parents=True, exist_ok=True)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    ctx = context(args)
    ref, ref_source = reference(args.workload, args.seed)
    steal0, total0 = cpu_ticks()
    ctx["reference"] = ref_source
    checks = Checks()
    samples = {}
    latencies = []
    if args.trace:
        third = max(1.0, args.seconds / 3.0)
        plain = Window(args.workload, args.seed, third, deadline, tag="plain")
        traced = Window(args.workload, args.seed, third, deadline, traced=True, tag="traced")
        layer_failures = []
        metrics, counts_ok = per_layer(args.workload, traced, args.seed, deadline, layer_failures)
        plain_rate = plain.work() / plain.used_s
        traced_rate = traced.work() / traced.used_s
        metrics["trace.overhead_frac"] = (plain_rate / traced_rate - 1.0) if traced_rate else None
        bad = check_window(plain, ref, checks) + check_window(traced, ref, checks)
        if not counts_ok:
            checks.mismatches.append("pattern counts differ from the paper's N_Q / N_E")
        failed = plain.inflight_failed + traced.inflight_failed + len(layer_failures) + bad
        attempted = plain.operations() + traced.operations() + len(layer_failures) + 1
        ctx["layer_failures"] = layer_failures
        ctx["trace_files"] = str(RESULTS_DIR.relative_to(ROOT))
    else:
        setups = []
        setup_failures = 0  # a set-up child that died is a failed operation

        def set_up_children():
            # Before and after the window, so setup_s sees the host over
            # the whole run rather than the few seconds before it.
            nonlocal setup_failures
            begin, made = time.monotonic(), 0
            while made < SETUP_REPEATS or (
                    made < SETUP_MAX and time.monotonic() - begin < SETUP_BUDGET_S):
                child = Child(["setup", args.workload, "--seed", args.seed,
                               "--rundir", os.path.relpath(RUN_DIR, ROOT)],
                              timeout=deadline - time.monotonic())
                made += 1
                if child.first("setup"):
                    setups.append(child.first("setup")["setup_s"])
                else:
                    setup_failures += 1

        set_up_children()
        win = Window(args.workload, args.seed, args.seconds, deadline)
        if win.setup_s() is not None:
            setups.append(win.setup_s())
        set_up_children()
        metrics, samples, attempted, failed, latencies = end_to_end(win, setups)
        ctx["setups_s"] = setups
        bad = check_window(win, ref, checks)
        attempted += setup_failures
        failed += bad + setup_failures
        metrics["success_frac"] = (attempted - failed) / attempted if attempted else 0.0
        samples["success_frac"] = attempted
        ctx["crashes"] = win.crashes
        ctx["window_s"] = win.used_s

    steal1, total1 = cpu_ticks()
    # Time the hypervisor gave to other guests: small-batch fan-out and
    # bandwidth-bound shots both slow down, and the crash rate shifts,
    # when it is high; compare runs made at similar values.
    ctx["steal_frac"] = (steal1 - steal0) / (total1 - total0) if total1 > total0 else 0.0
    result = {}
    missing = []
    for entry in declared:
        value = metrics.get(entry["name"])
        if value is None:
            missing.append(entry["name"])
            value = 0.0
        result[entry["name"]] = {"value": value, "unit": entry["unit"]}
    correct = not checks.mismatches

    print("context " + json.dumps(ctx, sort_keys=True))
    print(f"{'metric':34} {'value':>16}  {'unit':10} samples")
    for name, item in result.items():
        print(f"{name:34} {item['value']:16.6g}  {item['unit']:10} {samples.get(name, '')}")
    for name in sorted(set(metrics) - set(result)):
        if metrics[name] is not None:
            print(f"{name:34} {metrics[name]:16.6g}  (not gated) {samples.get(name, '')}")
    for name in missing:
        print(f"warning: {name} could not be measured in this run")
    for line in checks.mismatches[:20]:
        print(f"MISMATCH {line}")
    print(f"attempted {attempted}, failed {failed}, correct {correct}")
    (RESULTS_DIR / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"context": ctx, "metrics": result, "samples": samples,
                    "request_ms": latencies, "mismatches": checks.mismatches},
                   indent=1, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": max(1, int(attempted)),
                      "failed": int(failed), "metrics": result}))
    return 0 if correct else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--make-references", action="store_true")
    parser.add_argument("--seeds", default="0-31")
    args = parser.parse_args()
    try:
        if args.make_references:
            build()
            make_references(parse_seeds(args.seeds))
            return 0
        if args.workload is None:
            raise BenchError("--workload is required")
        return run(args)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
