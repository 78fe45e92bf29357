#!/usr/bin/env python3
"""End-to-end benchmark of the splice experiment (benchmark/README.md).

    python3 benchmark/run.py [--seed N]        every workload, untraced then traced
    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --self-check      the suite twice, results compared
    python3 benchmark/run.py --smoke           unit tests + one repetition of every workload
    python3 benchmark/run.py --compare A.json B.json

Builds Release from the checkout's sources through benchmark/CMakeLists.txt
into .bench_build/, writes each workload's corpus from --seed, and runs the
workload's `cksumlab splice` command as a closed loop: one client, each
repetition spawned after the previous one exited and followed by one run of
bench_calib, the fixed work its time is reported against. Every repetition's
splice report is checked. With --trace 1 cksum_layers replays the workload
from public calls and per-layer metrics are reported instead.

Every metric is printed as `workload metric value unit`; with --workload the
last line of stdout is one JSON object {"correct", "attempted", "failed",
"metrics"}. Results (every metric with its median, quartiles, sample count and
raw samples, plus the machine fingerprint) go to .bench_build/results/.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
import unittest
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "benchmark"
BUILD_ROOT = ROOT / ".bench_build"
CMAKE_DIR = BUILD_ROOT / "cmake"
RESULTS_DIR = BUILD_ROOT / "results"
CKSUMLAB = CMAKE_DIR / "tools" / "cksumlab"
LAYERS = CMAKE_DIR / "cksum_layers"
SPAWN = CMAKE_DIR / "bench_spawn"
CALIB = CMAKE_DIR / "bench_calib"

# Times are reported in reference seconds: seconds on a host where
# bench_calib's throughput and latency loops take this long, about their
# medians on the machine of the baseline in benchmark/README.md.
CAL_REF_S = (0.017, 0.0195)
REP_TIMEOUT_S = 60
SETUP_REPS = 5        # set-ups before the timed repetitions, at least
SETUP_MIN_S = 1.0     # ... and until this long has passed
MIN_REPS = 20         # timed repetitions per run, however short --seconds is
TRACE_CLI_REPS = 10   # untraced repetitions --trace 1 compares against
COVERAGE_RANGE = (0.9, 1.1)

# SpliceStats counters the correctness digest covers. Keys a later report
# adds are ignored, so new members do not invalidate the pinned digests.
DIGEST_KEYS = (
    "files", "packets", "pairs", "splices", "caught_by_header", "identical",
    "remaining", "missed_crc", "missed_transport", "missed_both",
    "missed_koopman_dual", "missed_koopman_single", "fail_identical",
    "pass_identical", "fail_changed", "pass_changed", "remaining_with_hdr2",
    "missed_with_hdr2", "fast_path", "slow_path", "remaining_by_k",
    "missed_by_k",
)


@dataclass(frozen=True)
class Workload:
    name: str
    scale: float          # nsc05 scale of the corpus
    dfs_share: float      # of a repetition's time: its weight on bench_calib's throughput loop
    store: bool = True    # sealed in set-up and read with --corpus
    serve: bool = False   # run through --serve with two workers

    def command(self, serve=None):
        serve = self.serve if serve is None else serve
        if not self.store:
            return ["splice", "--manifest", "manifest.txt", "--threads", "1", "--json"]
        cmd = ["splice", "--corpus", "store.ck", "--threads", "1", "--json"]
        if serve:
            cmd += ["--serve", "--workers", "2", "--shard-files", "1"]
        return cmd


# Scales are small so that one repetition takes about 0.1 s: a run then
# holds a hundred or more of them, each paired with its own calibration,
# and their median is steady. They are large enough that a
# seed's content moves the work by 2-3% at most (benchmark/README.md).
# The DFS shares are about the traced replay's (README, "Calibrated times").
WORKLOADS = {w.name: w for w in (
    Workload("mem-paper", 1, 0.35, store=False),
    Workload("corpus-paper", 2, 0.95),
    Workload("serve-paper", 2, 0.95, serve=True),
)}
SETUP_DFS_SHARE = 0.0   # set-up generates, packetises and seals


def config():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_specs(kind):
    """{name: (unit, better, bound)} for 'end_to_end' or 'per_layer'."""
    return {m["name"]: (m["unit"], m["better"], m.get("bound"))
            for m in config()[kind]}


# ---------------------------------------------------------------- inputs

MASK64 = 2**64 - 1


def splitmix64(seed, index):
    """Seed of file `index` under workload seed `seed`."""
    z = (seed * 0x9E3779B97F4A7C15 + index + 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def reseed(manifest, seed):
    """Keep every file's kind and size, replace its seed; seed 0 is the
    profile's own list. The work stays fixed and the content varies."""
    if seed == 0:
        return manifest
    lines = []
    for i, line in enumerate(manifest.splitlines()):
        kind, _, size = line.split(" ")
        lines.append(f"{kind} {splitmix64(seed, i):016x} {size}")
    return "\n".join(lines) + "\n"


def make_manifest(scale, seed):
    base = subprocess.run([str(CKSUMLAB), "manifest", "nsc05", f"{scale:g}"],
                          check=True, capture_output=True, text=True).stdout
    return reseed(base, seed)


# ---------------------------------------------------------------- statistics

def slowdown(cal, dfs_share):
    """How much slower than the reference host one bench_calib run found
    this one: its (throughput, latency) times over CAL_REF_S, weighted
    dfs_share : 1 - dfs_share."""
    (thr, lat), (thr_ref, lat_ref) = cal, CAL_REF_S
    return dfs_share * thr / thr_ref + (1.0 - dfs_share) * lat / lat_ref


def calibrated(times, cals, dfs_share):
    """summarize(times) whose value is in reference seconds: the median over
    the pairs of time ÷ the slowdown the calibration right after it found.
    Other tenants of the host slow every process on it, by up to 2x for
    minutes at a time; they slow both sides of a pair alike, so the ratio
    cancels them (benchmark/README.md, "Calibrated times"). The raw times and
    the calibration times stay in the summary."""
    ratios = [t / slowdown(c, dfs_share) for t, c in zip(times, cals, strict=True)]
    out = summarize(times, lambda _: statistics.median(ratios))
    out["calib_samples"] = [list(c) for c in cals]
    out["calib_dfs_share"] = dfs_share
    return out


def summarize(values, value=statistics.median):
    """`value` of the samples (the median unless told otherwise) with the
    median, quartiles (statistics.quantiles, n=4), extremes, count and
    the samples themselves."""
    vals = list(values)
    if len(vals) >= 2:
        q1, med, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = med = q3 = vals[0]
    return {"value": value(vals), "median": med, "q1": q1, "q3": q3,
            "min": min(vals), "max": max(vals), "n": len(vals), "samples": vals}


def digest(report):
    """sha256 over the SpliceStats counters, independent of key order."""
    return hashlib.sha256(json.dumps({k: report[k] for k in DIGEST_KEYS},
                                     sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------- processes

@dataclass
class Rep:
    wall_s: float = None
    cpu_s: float = None
    rss_mib: float = None
    failure: str = None   # None when the repetition counts as correct
    output: dict = None   # last stdout line, parsed
    calib_s: tuple = None  # the calibration right after a timed repetition


def run_rep(argv, cwd, timeout=REP_TIMEOUT_S):
    """Run one repetition under bench_spawn (spawn.cpp), in its own process
    group, and reap it.

    Wall time runs from fork to exit. cpu and peak RSS come from wait4, which
    includes every descendant the command reaped (the serve coordinator reaps
    its workers). A repetition fails on a nonzero exit, on a timeout (the
    whole group is killed) or on output that is not JSON."""
    become_subreaper()
    out_path, cost_path = Path(cwd) / ".rep.out", Path(cwd) / ".rep.cost"
    with open(out_path, "wb") as out:
        proc = subprocess.Popen([str(a) for a in (SPAWN, cost_path.name, *argv)],
                                cwd=cwd, stdout=out, stderr=subprocess.DEVNULL,
                                start_new_session=True)
        timed_out = wait_or_kill(proc, timeout)
    if timed_out or proc.returncode != 0:
        kill_group(proc.pid)  # a failed coordinator may leave its workers
    stdout = out_path.read_text(errors="replace")
    out_path.unlink()
    rep = Rep()
    if timed_out:
        rep.failure = f"timeout after {timeout}s"
    elif proc.returncode != 0:
        rep.failure = f"exit code {proc.returncode}"
    else:
        try:
            wall_ns, cpu_ns, rss_kib = map(int, cost_path.read_text().split())
            rep.wall_s, rep.cpu_s, rep.rss_mib = wall_ns / 1e9, cpu_ns / 1e9, rss_kib / 1024
            rep.output = json.loads(stdout.strip().splitlines()[-1])
        except (OSError, ValueError, IndexError) as e:
            rep.failure = f"unreadable output ({e})"
    cost_path.unlink(missing_ok=True)
    return rep


def wait_or_kill(proc, timeout):
    """Block until `proc` exits, killing its process group after `timeout`
    seconds; True if it had to be killed. Popen.wait(timeout) would poll
    with sleeps of up to 50 ms, which a set-up timed around it would
    include."""
    fired = threading.Event()

    def kill():
        fired.set()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(timeout, kill)
    timer.start()
    proc.wait()
    timer.cancel()
    timer.join()
    return fired.is_set()


def calibrate():
    """Seconds one bench_calib run (calib.cpp) took for its fixed work:
    (throughput loop, latency loop)."""
    out = subprocess.run([str(CALIB)], check=True, capture_output=True, text=True,
                         timeout=REP_TIMEOUT_S).stdout
    thr, lat = (int(v) / 1e9 for v in out.split())
    return thr, lat


_subreaper = False


def become_subreaper():
    """Have orphans of a repetition (serve workers whose coordinator was
    killed) re-parented to this process, so kill_group can reap them."""
    global _subreaper
    if not _subreaper:
        _subreaper = True
        try:
            import ctypes
            PR_SET_CHILD_SUBREAPER = 36
            ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
        except (OSError, AttributeError):
            pass


def kill_group(pgid):
    """SIGKILL a process group and reap it until none of it is left. Only
    call while no other child of this process is running."""
    deadline = time.monotonic() + 10
    try:
        os.killpg(pgid, signal.SIGKILL)
        while time.monotonic() < deadline:
            try:
                while os.waitpid(-1, os.WNOHANG)[0] != 0:
                    pass
            except ChildProcessError:
                pass
            os.killpg(pgid, 0)
            time.sleep(0.01)
    except (ProcessLookupError, PermissionError):
        pass


def judge(rep, report, expected):
    """Fail `rep` unless `report`'s digest equals every (what, digest) in
    `expected`. Returns the digest, or None when the report is unusable."""
    if rep.failure is not None:
        return None
    try:
        got = digest(report)
    except (KeyError, TypeError) as e:
        rep.failure = f"report lacks counter {e}"
        return None
    for what, want in expected:
        if got != want:
            rep.failure = f"digest {got[:12]} != {what} {want[:12]}"
            break
    return got


def failed_frac(reps):
    return sum(r.failure is not None for r in reps) / len(reps)


# ---------------------------------------------------------------- build

def build():
    """Configure once, then build cksumlab, cksum_layers, bench_spawn and
    bench_calib in Release."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"benchmark: no library sources under {ROOT / 'src'}")
    BUILD_ROOT.mkdir(exist_ok=True)
    log = BUILD_ROOT / "build.log"
    steps = []
    if not (CMAKE_DIR / "CMakeCache.txt").is_file():
        ninja = subprocess.run(["ninja", "--version"], capture_output=True).returncode == 0
        steps.append(["cmake", "-S", BENCH_DIR, "-B", CMAKE_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"] + (["-G", "Ninja"] if ninja else []))
    steps.append(["cmake", "--build", CMAKE_DIR, "-j", str(os.cpu_count() or 1),
                  "--target", "cksumlab", "cksum_layers", "bench_spawn", "bench_calib"])
    with open(log, "w") as f:
        for step in steps:
            if subprocess.run([str(a) for a in step], stdout=f,
                              stderr=subprocess.STDOUT).returncode != 0:
                sys.stderr.write(log.read_text()[-4000:])
                sys.exit(f"benchmark: build failed, see {log}")


def fingerprint(kernel):
    """What a result is only comparable under: `best` resolves to another
    kernel on another CPU, and compiler or build type move every number."""
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler = "unknown"
    for f in CMAKE_DIR.glob("CMakeFiles/*/CMakeCXXCompiler.cmake"):
        sets = dict(line[4:-1].split(" ", 1) for line in f.read_text().splitlines()
                    if line.startswith("set(CMAKE_CXX_COMPILER_") and " " in line)
        compiler = " ".join(sets.get(k, "?").strip('"') for k in
                            ("CMAKE_CXX_COMPILER_ID", "CMAKE_CXX_COMPILER_VERSION"))
    build_type = "unknown"
    cache = CMAKE_DIR / "CMakeCache.txt"
    if cache.is_file():
        for line in cache.read_text().splitlines():
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1]
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                         capture_output=True, text=True)
    return {"cpu": cpu, "nproc": os.cpu_count(), "kernel": kernel,
            "compiler": compiler, "build_type": build_type,
            "git": git.stdout.strip() if git.returncode == 0 else "unknown"}


# ---------------------------------------------------------------- one run

class Run:
    """One workload at one seed: its set-up, then its repetitions.

    Every report must equal the first one, the pinned digest at seed 0, and
    for serve-paper the in-process corpus run."""

    def __init__(self, wl, seed, smoke=False):
        self.wl, self.seed, self.smoke = wl, seed, smoke
        self.work = BUILD_ROOT / "work" / wl.name
        self.work.mkdir(parents=True, exist_ok=True)
        self.reps = []        # every repetition, warm-ups and references too
        self.expected = []    # (what, digest) every report must equal
        self.manifest = {}    # the warm-up's --metrics-out manifest
        self.anchored = False
        if seed == 0:
            pinned = json.loads((BENCH_DIR / "digests.json").read_text())
            self.expected.append(("pinned", pinned[wl.name]))

    def set_up(self, times, min_seconds=0.0):
        """Write the manifest and, for a corpus workload, seal the store,
        `times` times and until `min_seconds` have passed, each followed by
        a calibration. Returns the seconds each complete set-up took and the
        calibration times."""
        took, cal = [], []
        deadline = time.perf_counter() + min_seconds
        while len(took) < times or time.perf_counter() < deadline:
            t0 = time.perf_counter()
            (self.work / "manifest.txt").write_text(make_manifest(self.wl.scale, self.seed))
            if self.wl.store:
                proc = subprocess.Popen([str(CKSUMLAB), "corpus", "build", "--manifest",
                                         "manifest.txt", "--out", "store.ck"], cwd=self.work,
                                        stderr=subprocess.DEVNULL, start_new_session=True)
                if wait_or_kill(proc, REP_TIMEOUT_S) or proc.returncode != 0:
                    raise RuntimeError(f"{self.wl.name}: corpus build failed")
            took.append(time.perf_counter() - t0)
            cal.append(calibrate())
        return took, cal

    def rep(self, argv, timeout=REP_TIMEOUT_S, report_of=lambda out: out):
        r = run_rep(argv, self.work, timeout)
        got = judge(r, report_of(r.output) if r.output is not None else None,
                    self.expected)
        if r.failure is None and not self.anchored:
            self.expected.append(("first report", got))
            self.anchored = True
        self.reps.append(r)
        return r

    def cli(self, metrics_out=None, serve=None):
        argv = [CKSUMLAB] + self.wl.command(serve)
        return self.rep(argv + (["--metrics-out", metrics_out] if metrics_out else []))

    def reference(self):
        """serve-paper's bitwise reference: the same store, in process."""
        return self.cli(serve=False)

    def warm_up(self):
        """Untimed first repetition; its manifest names the resolved kernel
        and, under --serve, carries the dist counters."""
        r = self.cli(metrics_out="warmup.json")
        try:
            self.manifest = json.loads((self.work / "warmup.json").read_text())
        except (OSError, ValueError):
            pass
        return r

    def closed_loop(self, seconds, min_reps):
        """Timed repetitions, each followed by a calibration, until
        `seconds` have passed."""
        timed = []
        deadline = time.perf_counter() + seconds
        while len(timed) < min_reps or time.perf_counter() < deadline:
            timed.append(self.cli())
            timed[-1].calib_s = calibrate()
        return timed

    def clean(self):
        for f in self.work.iterdir():
            f.unlink()

    def result(self, metrics, **extra):
        problems = [r.failure for r in self.reps if r.failure is not None]
        out = {"seed": self.seed, "smoke": self.smoke,
               "kernel": self.manifest.get("kernel"),
               "correct": not problems and bool(metrics), "problems": problems,
               "attempted": len(self.reps), "failed": len(problems),
               "failed_frac": failed_frac(self.reps), "metrics": metrics}
        out.update(extra)
        return out


def with_units(kind, metrics):
    specs = metric_specs(kind)
    for name, m in metrics.items():
        m["unit"] = specs[name][0]
    return metrics


def run_untraced(wl, seed, seconds, smoke=False):
    run = Run(wl, seed, smoke)
    try:
        setup, setup_cal = run.set_up(1) if smoke else run.set_up(SETUP_REPS, SETUP_MIN_S)
        if wl.serve:
            run.reference()
        run.warm_up()
        timed = run.closed_loop(seconds, 1 if smoke else MIN_REPS)
    finally:
        run.clean()
    ok = [r for r in timed if r.failure is None]
    if not ok:
        return run.result({})
    splices = ok[0].output["splices"]
    cals = [r.calib_s for r in ok]
    wall = calibrated([r.wall_s for r in ok], cals, wl.dfs_share)
    return run.result(with_units("end_to_end", {
        "wall_s": wall,
        "splices_per_s": summarize((splices / r.wall_s for r in ok),
                                   lambda _: splices / wall["value"]),
        "cpu_s": calibrated([r.cpu_s for r in ok], cals, wl.dfs_share),
        "peak_rss_mib": summarize(r.rss_mib for r in ok),
        "setup_s": calibrated(setup, setup_cal, SETUP_DFS_SHARE),
    }))


def run_traced(wl, seed, seconds, smoke=False):
    """Untraced baseline repetitions, then cksum_layers for the rest of
    --seconds (its own set-up replay is not counted against them)."""
    run = Run(wl, seed, smoke)
    spans = []
    try:
        run.set_up(1)
        run.warm_up()
        t0 = time.perf_counter()
        base, refs = [], []
        for _ in range(1 if smoke else TRACE_CLI_REPS):
            base.append(run.cli())
            if wl.serve:
                refs.append(run.reference())
        budget = 0.0 if smoke else max(0.0, seconds - (time.perf_counter() - t0))
        traced = run.rep([LAYERS, "--mode", "corpus" if wl.store else "mem",
                          "--manifest", "manifest.txt", "--store", "traced.ck",
                          "--seconds", f"{budget:.3f}",
                          "--trace-out", "trace.json"],
                         timeout=REP_TIMEOUT_S + 2 * seconds,
                         report_of=lambda out: out.get("report"))
        if (run.work / "trace.json").is_file():
            spans = json.loads((run.work / "trace.json").read_text())["traceEvents"]
    finally:
        run.clean()
    base = [r for r in base if r.failure is None]
    refs = [r for r in refs if r.failure is None]
    if traced.failure is not None or not base or (wl.serve and not refs):
        return run.result({}, spans=spans)
    metrics = layer_metrics(wl, traced.output, base)
    metrics.update(dist_metrics(wl, run.manifest, base, refs))
    return run.result(with_units("per_layer", metrics), spans=spans)


def layer_metrics(wl, layers, base):
    """Per-layer numbers from one cksum_layers output (see layers.cpp)."""
    runs, setup, probe = layers["runs"], layers["setup"], layers["store_probe"]
    report = layers["report"]
    mib = 1024.0 * 1024.0

    def per_run(key):
        return summarize(r.get(key, 0.0) for r in runs)

    def one(v):
        return summarize([v])

    # The corpus workloads pay generate and packetize only in set-up; the
    # in-memory one pays them on every run and reads no store.
    mem = not wl.store
    gen = per_run("fsgen.generate") if mem else one(setup["fsgen.generate"])
    pack = per_run("core.packetize") if mem else one(setup["core.packetize"])
    open_s = one(probe["fsgen.corpus.open"]) if mem else per_run("fsgen.corpus.open")
    recon = (one(probe["fsgen.corpus.reconstruct"]) if mem
             else per_run("fsgen.corpus.reconstruct"))
    seal = setup["fsgen.corpus.seal"]
    dfs = per_run("core.splice.dfs")
    leaves = (("fsgen.manifest", "fsgen.generate", "core.packetize") if mem else
              ("fsgen.corpus.open", "fsgen.corpus.reconstruct")) + (
              "core.splice.dfs", "core.splice.merge")
    wall = per_run("wall")
    splices, pairs = report["splices"], report["pairs"]
    return {
        "fsgen.generate.busy_s": gen,
        "fsgen.generate.mib_per_s": one(layers["generate_bytes"] / mib / gen["value"]),
        "core.packetize.busy_s": pack,
        "core.packetize.mib_per_s": one(layers["generate_bytes"] / mib / pack["value"]),
        "core.packetize.cells": one(layers["cells"]),
        "fsgen.corpus.seal_s": one(seal),
        "fsgen.corpus.seal_mib_per_s": one(layers["store_bytes"] / mib / seal),
        "fsgen.corpus.open_s": open_s,
        "fsgen.corpus.reconstruct_s": recon,
        "fsgen.corpus.store_mib": one(layers["store_bytes"] / mib),
        "core.splice.dfs_s": dfs,
        "core.splice.dfs_splices_per_s": one(splices / dfs["value"]),
        "core.splice.ns_per_pair": one(dfs["value"] / pairs * 1e9),
        "core.splice.pairs": one(pairs),
        "core.splice.splices": one(splices),
        "core.splice.fast_path_frac": one(
            report["fast_path"] / (report["fast_path"] + report["slow_path"])),
        "core.splice.header_bulk_frac": one(report["caught_by_header"] / splices),
        "core.splice.nodes_per_splice": one(per_run("dfs_nodes")["value"] / splices),
        "core.splice.merge_s": per_run("core.splice.merge"),
        "dist.frame_encode_ns": one(layers["frame"]["encode_ns"]),
        "dist.frame_decode_ns": one(layers["frame"]["decode_ns"]),
        "trace.wall_s": wall,
        "trace.coverage": summarize(sum(r.get(k, 0.0) for k in leaves) / r["wall"]
                                    for r in runs),
        "trace.overhead_frac": one(wall["value"] /
                                   statistics.median(r.wall_s for r in base) - 1.0),
    }


def dist_metrics(wl, manifest, base, refs):
    """dist.* from the warm-up's --metrics-out manifest (coordinator counters,
    per-worker lease counts) and the in-process corpus reference runs. Zero
    for workloads that do not serve."""
    names = ("leases", "frames", "bytes", "reassigned", "worker_imbalance",
             "overhead_cpu_s", "overhead_us_per_lease", "parallel_eff")
    if not wl.serve:
        return {f"dist.{n}": summarize([0]) for n in names}
    counters = {k: v.get("value", 0) for k, v in manifest["metrics"].items()}
    shards = [w["shards"] for w in manifest["dist"][0]["per_worker"]]
    leases = counters["dist.leases_granted"]
    def med(reps, what):
        return statistics.median(getattr(r, what) for r in reps)

    overhead = med(base, "cpu_s") - med(refs, "cpu_s")
    values = {
        "leases": leases,
        "frames": counters["dist.frames_sent"] + counters["dist.frames_received"],
        "bytes": counters["dist.bytes_sent"] + counters["dist.bytes_received"],
        "reassigned": counters["dist.leases_reassigned"],
        "worker_imbalance": max(shards) / statistics.mean(shards) - 1.0,
        "overhead_cpu_s": overhead,
        "overhead_us_per_lease": overhead / leases * 1e6,
        "parallel_eff": med(refs, "wall_s") / (2 * med(base, "wall_s")),
    }
    return {f"dist.{n}": summarize([values[n]]) for n in names}


# ---------------------------------------------------------------- output

def print_metrics(name, result):
    for metric, m in result["metrics"].items():
        print(f"{name} {metric} {m['value']!r} {m['unit']}")
    print(f"{name} failed_frac {result['failed_frac']!r} frac")
    for p in result["problems"]:
        print(f"{name}: FAILED {p}", file=sys.stderr)


def write_results(path, results, seed, seconds):
    """results: {workload: {"end_to_end": run result, "per_layer": ...}}.
    Spans go to a Chrome trace beside it, one process per workload."""
    kernel = next((r["kernel"] for passes in results.values()
                   for r in passes.values() if r.get("kernel")), None)
    events = []
    for pid, (name, passes) in enumerate(results.items(), start=1):
        spans = passes.get("per_layer", {}).pop("spans", [])
        if spans:
            events.append({"name": "process_name", "ph": "M", "pid": pid,
                           "args": {"name": name}})
            events += [dict(e, pid=pid) for e in spans]
    doc = {"fingerprint": fingerprint(kernel), "seed": seed, "seconds": seconds,
           "workloads": results}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n")
    if events:
        trace = path.with_name(path.stem + ".trace.json")
        trace.write_text(json.dumps({"displayTimeUnit": "ms", "traceEvents": events}))
    return doc


def run_suite(names, seed, seconds, traced=True, smoke=False):
    results = {}
    for name in names:
        wl = WORKLOADS[name]
        results[name] = {"end_to_end": run_untraced(wl, seed, seconds, smoke)}
        print_metrics(name, results[name]["end_to_end"])
        if traced:
            results[name]["per_layer"] = run_traced(wl, seed, seconds, smoke)
            print_metrics(name, results[name]["per_layer"])
        sys.stdout.flush()
    return results


def all_correct(results):
    return all(r["correct"] for passes in results.values() for r in passes.values())


def agree(a, b, better, bound):
    """True when b is not worse than a by more than `bound` (a share of a)."""
    if a == 0:
        return b == 0
    worse = (b - a) / a if better == "lower" else (a - b) / a
    return worse <= bound


def compare(doc_a, doc_b, title_a="A", title_b="B"):
    """Print both values of every (workload, end-to-end metric), their ratio
    and whether they agree within the metric's bound either way."""
    fa, fb = doc_a["fingerprint"], doc_b["fingerprint"]
    diff = sorted(k for k in fa if k != "git" and fa.get(k) != fb.get(k))
    if diff:
        print("WARNING: the results come from different machines or builds: " +
              ", ".join(f"{k} {fa.get(k)!r} vs {fb.get(k)!r}" for k in diff),
              file=sys.stderr)
    specs = metric_specs("end_to_end")
    ok = True
    print(f"{'workload':<14} {'metric':<14} {title_a:>14} {title_b:>14} ratio  within bound")
    for name, passes in doc_a["workloads"].items():
        other = doc_b["workloads"].get(name, {}).get("end_to_end")
        if other is None or "end_to_end" not in passes:
            continue
        for metric, (unit, better, bound) in specs.items():
            a = passes["end_to_end"]["metrics"].get(metric, {}).get("value")
            b = other["metrics"].get(metric, {}).get("value")
            if a is None or b is None:
                continue
            good = agree(a, b, better, bound) and agree(b, a, better, bound)
            ok &= good
            print(f"{name:<14} {metric:<14} {a:>14.6g} {b:>14.6g} {b / a:5.3f}  "
                  f"{'yes' if good else 'NO'} (bound {bound:g}, {unit})")
    return ok


def self_check(seed, seconds):
    names = list(WORKLOADS)
    docs = []
    for order, tag in ((names, "a"), (names[::-1], "b")):
        results = run_suite(order, seed, seconds, traced=False)
        docs.append(write_results(RESULTS_DIR / f"self-check-{tag}.json",
                                  results, seed, seconds))
    print()
    same = compare(docs[0], docs[1], "first", "second")
    return same and all(all_correct(d["workloads"]) for d in docs)


def smoke(seed):
    tests = unittest.defaultTestLoader.loadTestsFromName("test_run")
    if not unittest.TextTestRunner(stream=sys.stderr, verbosity=1).run(tests).wasSuccessful():
        return False
    results = run_suite(list(WORKLOADS), seed, 0, smoke=True)
    write_results(RESULTS_DIR / "smoke.json", results, seed, 0)
    ok = all_correct(results)
    for name, passes in results.items():
        cov = passes["per_layer"]["metrics"].get("trace.coverage", {}).get("value")
        if cov is None or not COVERAGE_RANGE[0] <= cov <= COVERAGE_RANGE[1]:
            print(f"{name}: trace.coverage {cov} outside {COVERAGE_RANGE}", file=sys.stderr)
            ok = False
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar="RESULTS")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in args.compare)
        return 0 if compare(a, b) else 1

    seconds = config()["run_seconds"] if args.seconds is None else args.seconds
    build()
    if args.smoke:
        return 0 if smoke(args.seed) else 1
    if args.self_check:
        return 0 if self_check(args.seed, seconds) else 1
    if args.workload is None:
        results = run_suite(list(WORKLOADS), args.seed, seconds)
        write_results(RESULTS_DIR / "results.json", results, args.seed, seconds)
        return 0 if all_correct(results) else 1

    wl = WORKLOADS[args.workload]
    kind = "per_layer" if args.trace else "end_to_end"
    result = (run_traced if args.trace else run_untraced)(wl, args.seed, seconds)
    write_results(RESULTS_DIR / f"{wl.name}.{kind}.json", {wl.name: {kind: result}},
                  args.seed, seconds)
    print_metrics(wl.name, result)
    wanted = metric_specs(kind)
    metrics = {n: {"value": result["metrics"][n]["value"], "unit": wanted[n][0]}
               for n in wanted if n in result["metrics"]}
    print(json.dumps({"correct": result["correct"] and len(metrics) == len(wanted),
                      "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
