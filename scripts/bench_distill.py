#!/usr/bin/env python3
"""Distill a google-benchmark JSON dump into the BENCH_splice.json
trajectory at the repo root.

Usage: bench_distill.py RAW_JSON TRAJECTORY_JSON [--quick] [--check]
                        [--manifest PATH] [--speed PATH] [--build-dir DIR]
       bench_distill.py --summary TRAJECTORY_JSON

The trajectory file is a JSON array, one entry per bench.sh run:

    {
      "date": "2026-08-05T12:34:56Z",
      "commit": "abc1234...",
      "quick": false,
      "splices_per_sec": {"dfs": ..., "dfs_run": ..., "dfs512": ...,
                          "reference": ...},
      "pairs_per_sec":   {"dfs": ..., "dfs_run": ..., "dfs512": ...,
                          "reference": ...},
      "speedup_dfs_vs_reference": ...,
      "fingerprint": {"cpu": ..., "hw_threads": ..., "kernel": ...,
                      "compiler": ..., "build_type": ...},
      "gates": {"dfs_rate": {"status": "pass", ...}, ...},  # --check
      "manifest": { ... },  # optional: telemetry run-manifest summary
      "kernel_throughput": {"crc32": {"scalar": ..., "slicing": ...,
                                      "chorba": ...}, ...}  # optional
    }

A missing, empty, or whitespace-only trajectory file starts a fresh
array; a non-empty file that is not valid JSON is an error (the file
is left untouched rather than clobbered). Entries are validated
against the schema above before the file is rewritten — a malformed
new entry aborts, malformed pre-existing entries only warn. Entries
recorded while the flat evaluator existed also carry a "flat" rate
and "speedup_dfs_vs_flat"; they are kept as history. "dfs512" (the
DFS on 512-byte segments, BM_SpliceDfs512) and "dfs_run" (the same
transfer as "dfs" through the chunked run path, BM_SpliceDfsRun, where
same-shape pairs share the lanes of one DFS) are absent from the
entries recorded before they existed; neither is gated.

--manifest ingests a cksum-metrics/1 run manifest (produced by
`cksumlab splice --metrics-out`, see docs/OBSERVABILITY.md) and
records its headline numbers under the entry's "manifest" key.

--speed ingests a bench_speed JSON dump (BM_Kernel_<alg>_<impl>
rows, one per implementation-list entry, see bench/bench_speed.cpp)
and records the 64 KiB bulk throughput per algorithm per
implementation under "kernel_throughput": each row's `_median`
aggregate when the dump has them (bench.sh repeats the kernel rows five
times and keeps aggregates only), else its plain row.

Every entry carries a machine "fingerprint": CPU model, hardware
threads, the kernel implementations `best` resolved to (from the
--manifest), and the compiler and build type (from --build-dir's
CMake cache). Fields that cannot be read are recorded as "unknown".

--check exits non-zero if the new DFS rate is below 85% of the median
of the last 5 entries with the same fingerprint (rates from another
machine or build say nothing about this one; with no such entry the
gate records a skip), if the DFS evaluator is less than 12.5x the
byte-level reference oracle (the recorded entries show 44-57x; the
retired flat evaluator never ran above 12.5x, so the gate is no
looser than the old "DFS >= flat" one), or (when --speed is given) if slicing-by-8 CRC-32 is less than 3x the
scalar byte-table kernel — the locally recorded trajectory entries
show >=4x, the gate is looser only to absorb CI-runner noise. The
--speed gates also compare the block-at-a-time Koopman dual sum
against byte-at-a-time Fletcher-256 (want >= 1.2x, both slicing
implementations; locally ~1.8x) — rows absent from the dump skip the gate with
a notice, matching the chorba/clmul pattern.

The BM_RunCorpusStreamed rows (end-to-end splice run streamed from a
sealed corpus store, see docs/CORPUS.md) ride along under the entry's
"streaming" key, and --check holds streaming to >=0.95x the in-memory
BM_RunFilesystem rate per worker. The 8-thread aggregate gate
(>=4x the 1-thread streamed rate) only arms when the recorded
hw_threads is >=8 — on smaller machines it skips.

With --check, each gate's verdict is recorded in the new entry under
"gates": {name: {"status": "pass" | "fail" | "skip", "reason": ...}},
so a skipped gate is visible in the trajectory, not only on stderr.
Shard readahead has no gate on purpose (docs/PERF.md); its
"shard_readahead" record is always a skip with that reason.

--summary prints the last trajectory entry's gates (name, status,
reason) and its DFS rates (dfs, dfs_run, dfs512) as Markdown tables,
for a CI job summary, and exits 0; it writes nothing.
"""

import argparse
import datetime
import glob
import json
import os
import platform
import re
import statistics
import subprocess
import sys

BENCH_KEYS = {
    "BM_SpliceDfs": "dfs",
    "BM_SpliceDfsRun": "dfs_run",
    "BM_SpliceDfs512": "dfs512",
    "BM_SpliceReference": "reference",
}

# Rates added after the first entries were recorded: an older entry
# without one is still valid.
LATER_BENCH_KEYS = {"dfs512", "dfs_run"}

MANIFEST_SCHEMA = "cksum-metrics/1"

# The fastest the retired flat evaluator ever ran against the oracle in
# BENCH_splice.json (7.9-12.5x), so this floor on the DFS is never
# looser than the "DFS >= flat" gate it replaces.
DFS_VS_REFERENCE_FLOOR = 12.5


# The DFS rate gate: fail below this fraction of the median rate of
# the last DFS_RATE_WINDOW entries recorded with the same fingerprint.
DFS_RATE_FLOOR = 0.85
DFS_RATE_WINDOW = 5

UNKNOWN = "unknown"


def cpu_model():
    """The CPU model string, from /proc/cpuinfo where there is one."""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                if key.strip() in ("model name", "Model", "cpu model"):
                    return value.strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or UNKNOWN


def build_info(build_dir):
    """(compiler, build type) from a CMake build directory's cache."""
    if not build_dir:
        return UNKNOWN, UNKNOWN
    build_type = UNKNOWN
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    build_type = line.partition("=")[2].strip() or UNKNOWN
    except OSError:
        pass
    compiler = UNKNOWN
    for path in sorted(glob.glob(os.path.join(
            build_dir, "CMakeFiles", "*", "CMakeCXXCompiler.cmake"))):
        ident = {}
        with open(path) as f:
            for line in f:
                m = re.match(r'set\((CMAKE_CXX_COMPILER_(?:ID|VERSION)) '
                             r'"([^"]*)"\)', line)
                if m:
                    ident[m.group(1)] = m.group(2)
        if ident:
            compiler = " ".join(ident.get(k, "?") for k in (
                "CMAKE_CXX_COMPILER_ID", "CMAKE_CXX_COMPILER_VERSION"))
    return compiler, build_type


def resolved_kernel(manifest_path):
    """What the manifest's kernel selection resolved to on this machine:
    the per-algorithm implementation list in its kernel_reason."""
    if not manifest_path:
        return UNKNOWN
    try:
        with open(manifest_path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError):
        return UNKNOWN
    reason = doc.get("kernel_reason") if isinstance(doc, dict) else None
    if not isinstance(reason, str):
        return UNKNOWN
    m = re.search(r"\(([^()]*)\)\s*$", reason)
    return m.group(1) if m else reason


def fingerprint(build_dir, manifest_path):
    compiler, build_type = build_info(build_dir)
    return {
        "cpu": cpu_model(),
        "hw_threads": os.cpu_count() or 0,
        "kernel": resolved_kernel(manifest_path),
        "compiler": compiler,
        "build_type": build_type,
    }


def dfs_rate_gate(entry, trajectory):
    """The fingerprinted DFS rate gate's verdict for `entry`. Entries
    that failed this gate are not a baseline, so a regression cannot
    lower the bar by being recorded."""
    rates = [e["splices_per_sec"]["dfs"] for e in trajectory
             if isinstance(e, dict)
             and e.get("fingerprint") == entry["fingerprint"]
             and e.get("gates", {}).get("dfs_rate", {}).get("status")
             != "fail"
             and isinstance(e.get("splices_per_sec"), dict)
             and isinstance(e["splices_per_sec"].get("dfs"), (int, float))]
    rates = rates[-DFS_RATE_WINDOW:]
    rate = entry["splices_per_sec"]["dfs"]
    if not rates:
        return {"status": "skip", "rate": rate,
                "reason": "no earlier entry with this fingerprint"}
    baseline = statistics.median(rates)
    floor = DFS_RATE_FLOOR * baseline
    return {"status": "pass" if rate >= floor else "fail", "rate": rate,
            "baseline_median": baseline, "baseline_entries": len(rates),
            "floor": floor,
            "reason": f"{rate:.3e} splices/sec vs floor {floor:.3e} "
                      f"({DFS_RATE_FLOOR:.0%} of the median of "
                      f"{len(rates)} matching entries)"}


def load_trajectory(path):
    """Parse the trajectory array. Returns (entries, error)."""
    try:
        with open(path) as f:
            text = f.read()
    except FileNotFoundError:
        return [], None
    if not text.strip():
        return [], None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        return None, f"{path} is not valid JSON ({e}); not overwriting"
    if not isinstance(data, list):
        return None, f"{path} is not a JSON array; not overwriting"
    return data, None


def validate_entry(entry):
    """Schema problems with one trajectory entry, [] when clean."""
    problems = []
    if not isinstance(entry, dict):
        return ["entry is not an object"]
    for key in ("date", "commit"):
        if not isinstance(entry.get(key), str) or not entry.get(key):
            problems.append(f"{key!r} missing or not a non-empty string")
    if not isinstance(entry.get("quick"), bool):
        problems.append("'quick' missing or not a bool")
    for key in ("splices_per_sec", "pairs_per_sec"):
        rates = entry.get(key)
        if not isinstance(rates, dict):
            problems.append(f"{key!r} missing or not an object")
            continue
        for bench in BENCH_KEYS.values():
            if bench in LATER_BENCH_KEYS and bench not in rates:
                continue
            if not isinstance(rates.get(bench), (int, float)):
                problems.append(f"{key!r}[{bench!r}] missing or not a number")
    if not isinstance(entry.get("speedup_dfs_vs_reference"), (int, float)):
        problems.append("'speedup_dfs_vs_reference' missing or not a number")
    if "fingerprint" in entry:
        fp = entry["fingerprint"]
        if not isinstance(fp, dict) or set(fp) != {
                "cpu", "hw_threads", "kernel", "compiler", "build_type"}:
            problems.append("'fingerprint' present but not an object with "
                            "cpu/hw_threads/kernel/compiler/build_type")
    if "manifest" in entry and not isinstance(entry["manifest"], dict):
        problems.append("'manifest' present but not an object")
    if "streaming" in entry:
        s = entry["streaming"]
        if not isinstance(s, dict):
            problems.append("'streaming' present but not an object")
        else:
            for key in ("in_memory_per_sec", "streamed_per_sec"):
                rates = s.get(key)
                if not isinstance(rates, dict) or not all(
                        isinstance(v, (int, float)) for v in rates.values()):
                    problems.append(f"'streaming'[{key!r}] not an object of "
                                    f"numbers")
            if not isinstance(s.get("hw_threads"), int):
                problems.append("'streaming'['hw_threads'] missing or not "
                                "an int")
    if "kernel_throughput" in entry:
        kt = entry["kernel_throughput"]
        if not isinstance(kt, dict):
            problems.append("'kernel_throughput' present but not an object")
        else:
            for alg, per_kernel in kt.items():
                if not isinstance(per_kernel, dict) or not all(
                        isinstance(v, (int, float))
                        for v in per_kernel.values()):
                    problems.append(
                        f"'kernel_throughput'[{alg!r}] not an object of "
                        f"numbers")
    return problems


# Bulk-buffer argument whose bytes/sec becomes the recorded throughput.
SPEED_BULK_ARG = "65536"


def speed_rows(raw):
    """The rows of a google-benchmark dump that carry one measurement
    per benchmark, as (name, row): its `_median` aggregates when the
    dump has any (bench.sh repeats the kernel rows and keeps only
    aggregates), else its plain rows (single runs, older raw files)."""
    rows = raw.get("benchmarks", [])
    medians = [b for b in rows if b.get("run_type") == "aggregate"
               and b.get("aggregate_name") == "median"]
    if medians:
        return [(b.get("run_name") or b.get("name", "").removesuffix(
            "_median"), b) for b in medians]
    return [(b.get("name", ""), b) for b in rows
            if b.get("run_type") != "aggregate"]


def speed_throughput(path):
    """kernel_throughput family from a bench_speed JSON dump.

    Rows are named BM_Kernel_<alg>_<impl>/<bytes>; only the bulk
    (64 KiB) rows are recorded, each as its median over repetitions
    where the dump has them (speed_rows). Returns (family, error).
    """
    try:
        with open(path) as f:
            raw = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return None, f"cannot read speed dump {path}: {e}"
    family = {}
    for name, b in speed_rows(raw):
        base, _, arg = name.partition("/")
        parts = base.split("_")
        if len(parts) != 4 or parts[:2] != ["BM", "Kernel"]:
            continue
        if arg != SPEED_BULK_ARG:
            continue
        bps = b.get("bytes_per_second")
        if not isinstance(bps, (int, float)):
            return None, f"speed dump {path}: {name} has no bytes_per_second"
        family.setdefault(parts[2], {})[parts[3]] = bps
    if not family:
        return None, (f"speed dump {path}: no BM_Kernel_* rows at "
                      f"/{SPEED_BULK_ARG} — was bench_speed run with "
                      f"--benchmark_filter='BM_Kernel_'?")
    return family, None


def manifest_summary(path):
    """Headline numbers from a cksum-metrics/1 run manifest.

    Returns (summary, error); validation failures are errors because a
    bad manifest means the telemetry pipeline itself is broken.
    """
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return None, f"cannot read manifest {path}: {e}"
    if not isinstance(doc, dict) or doc.get("schema") != MANIFEST_SCHEMA:
        got = doc.get("schema") if isinstance(doc, dict) else type(doc)
        return None, (f"manifest {path}: schema is {got!r}, "
                      f"want {MANIFEST_SCHEMA!r}")
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        return None, f"manifest {path}: 'metrics' missing"

    def value(name):
        m = metrics.get(name)
        return m.get("value") if isinstance(m, dict) else None

    for name in ("splice.total", "splice.pairs"):
        if not isinstance(value(name), int):
            return None, f"manifest {path}: metric {name!r} missing"
    fast = value("splice.fast_path") or 0
    slow = value("splice.slow_path") or 0
    evaluated = fast + slow
    return {
        "tool": doc.get("tool"),
        "corpus": doc.get("corpus"),
        "threads": doc.get("threads"),
        "git": doc.get("git"),
        "wall_seconds": doc.get("wall_seconds"),
        "splices": value("splice.total"),
        "pairs": value("splice.pairs"),
        "fast_path_fraction": fast / evaluated if evaluated else None,
    }, None


def git_commit() -> str:
    """HEAD's hash, suffixed "-dirty" when the tracked tree has
    uncommitted changes (the measured code is then not HEAD's)."""
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return head + "-dirty" if dirty else head


def run_gates(entry, trajectory):
    """Every --check gate's verdict for `entry`, by name."""
    gates = {"dfs_rate": dfs_rate_gate(entry, trajectory)}

    def ratio_gate(name, num, den, floor, what, missing):
        if not num or not den:
            gates[name] = {"status": "skip", "reason": missing}
            return
        ratio = num / den
        gates[name] = {"status": "pass" if ratio >= floor else "fail",
                       "ratio": ratio, "floor": floor,
                       "reason": f"{what} {ratio:.2f}x (want >={floor}x)"}

    ratio = entry["speedup_dfs_vs_reference"]
    gates["dfs_vs_reference"] = {
        "status": "pass" if ratio >= DFS_VS_REFERENCE_FLOOR else "fail",
        "ratio": ratio, "floor": DFS_VS_REFERENCE_FLOOR,
        "reason": f"DFS evaluator {ratio:.1f}x the reference oracle "
                  f"(want >={DFS_VS_REFERENCE_FLOOR}x)"}

    kt = entry.get("kernel_throughput", {})
    crc = kt.get("crc32", {})
    ratio_gate("crc32_slicing", crc.get("slicing"), crc.get("scalar"), 3.0,
               "slicing-by-8 CRC-32 vs scalar",
               "no crc32 scalar/slicing rows (run without --speed?)")
    # Folding/tableless CRC-32 against the slicing baseline. A missing
    # row means bench_speed skipped the implementation as unavailable
    # on this machine.
    for kern_name, floor in (("chorba", 1.5), ("clmul", 5.0)):
        ratio_gate(f"crc32_{kern_name}", crc.get(kern_name),
                   crc.get("slicing"), floor,
                   f"{kern_name} CRC-32 vs slicing",
                   f"no crc32/{kern_name} row (implementation "
                   f"unavailable on this machine)")
    # Large-block family: the Koopman dual sum digests 8 bytes per
    # step, so it must clearly beat byte-at-a-time Fletcher-256, both
    # slicing.
    ratio_gate("koopman_vs_fletcher",
               kt.get("koopmandual", {}).get("slicing"),
               kt.get("fletcher256", {}).get("slicing"), 1.2,
               "Koopman dual sum vs Fletcher-256, both slicing",
               "no koopmandual/fletcher256 slicing rows in the speed dump")
    # Shard readahead is ungated on purpose (docs/PERF.md, "Shard
    # readahead has no bench gate"); the skip is recorded in every entry.
    gates["shard_readahead"] = {
        "status": "skip",
        "reason": "readahead only pays on a cold page cache, and every "
                  "store a bench run opens was just written, so its pages "
                  "are resident; corpus.readahead_calls/_bytes in the run "
                  "manifest confirm the advice is issued"}
    # Streaming corpus: the store bakes packetisation in at build time,
    # so streaming must not lose more than noise per worker, and must
    # actually scale when the machine can.
    s = entry.get("streaming")
    if not s:
        for name in ("streaming_vs_memory", "streaming_scaling"):
            gates[name] = {"status": "skip",
                           "reason": "no BM_RunCorpusStreamed rows"}
    else:
        ratio_gate("streaming_vs_memory", s["streamed_per_sec"].get("1"),
                   s["in_memory_per_sec"].get("1"), 0.95,
                   "corpus-streamed run vs in-memory at 1 thread",
                   "no 1-thread streamed/in-memory rows")
        if s["hw_threads"] < 8:
            gates["streaming_scaling"] = {
                "status": "skip",
                "reason": f"machine has {s['hw_threads']} hw thread(s); "
                          f"the 8-worker aggregate needs >= 8"}
        else:
            ratio_gate("streaming_scaling", s["streamed_per_sec"].get("8"),
                       s["streamed_per_sec"].get("1"), 4.0,
                       "streamed aggregate at 8 workers vs 1 thread",
                       "no 1- and 8-thread streamed rows")
    return gates


def gate_summary(path):
    """The last entry's gates as a Markdown table. Returns (text, error)."""
    trajectory, err = load_trajectory(path)
    if err:
        return None, err
    if not trajectory:
        return None, f"{path} has no entries"
    entry = trajectory[-1]
    title = (f"### Bench gates: {path} entry #{len(trajectory)} "
             f"({entry.get('commit', 'unknown')[:12]})")
    gates = entry.get("gates") if isinstance(entry, dict) else None
    if not gates:
        lines = [title, "", "No gates recorded (run without --check)."]
    else:
        lines = [title, "", "| gate | status | reason |", "|---|---|---|"]
        for name, g in gates.items():
            reason = str(g.get("reason", "")).replace("|", "\\|")
            lines.append(f"| {name} | {g.get('status', '?')} | {reason} |")
    rates = entry.get("splices_per_sec") if isinstance(entry, dict) else None
    if isinstance(rates, dict):
        rows = [(k, rates[k]) for k in ("dfs", "dfs_run", "dfs512")
                if isinstance(rates.get(k), (int, float))]
        if rows:
            lines += ["", "| rate | splices/s |", "|---|---|"]
            lines += [f"| {k} | {v:.3e} |" for k, v in rows]
    return "\n".join(lines) + "\n", None


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("raw", nargs="?",
                    help="google-benchmark --benchmark_out JSON")
    ap.add_argument("trajectory", nargs="?",
                    help="BENCH_splice.json to append to")
    ap.add_argument("--summary", metavar="TRAJECTORY",
                    help="print the last entry's gates as a Markdown "
                         "table and exit")
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--manifest", metavar="PATH",
                    help="cksum-metrics/1 run manifest to summarize "
                         "into the entry")
    ap.add_argument("--build-dir", metavar="DIR",
                    help="CMake build directory the benches came from; "
                         "its cache supplies the fingerprint's compiler "
                         "and build type")
    ap.add_argument("--speed", metavar="PATH",
                    help="bench_speed JSON dump whose BM_Kernel_* rows "
                         "become the entry's kernel_throughput family")
    args = ap.parse_args()

    if args.summary:
        text, err = gate_summary(args.summary)
        if err:
            print(f"bench_distill: {err}", file=sys.stderr)
            return 1
        sys.stdout.write(text)
        return 0
    if not args.raw or not args.trajectory:
        ap.error("RAW and TRAJECTORY are required without --summary")

    with open(args.raw) as f:
        raw = json.load(f)

    splices = {}
    pairs = {}
    streaming = {"in_memory_per_sec": {}, "streamed_per_sec": {}}
    hw_threads = None
    for b in raw.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        name = b.get("name", "")
        key = BENCH_KEYS.get(name.split("/")[0])
        if key is not None:
            splices[key] = b.get("items_per_second")
            pairs[key] = b.get("pairs_per_sec")
            continue
        # End-to-end rows: BM_RunFilesystem/<threads>[/real_time] and
        # BM_RunCorpusStreamed/<threads>[/real_time].
        parts = name.split("/")
        family = {"BM_RunFilesystem": "in_memory_per_sec",
                  "BM_RunCorpusStreamed": "streamed_per_sec"}.get(parts[0])
        if family is None or len(parts) < 2:
            continue
        rate = b.get("items_per_second")
        if isinstance(rate, (int, float)):
            streaming[family][parts[1]] = rate
        ht = b.get("hw_threads")
        if isinstance(ht, (int, float)):
            hw_threads = int(ht)

    missing = [k for k in BENCH_KEYS.values() if splices.get(k) is None]
    if missing:
        print(f"bench_distill: missing benchmarks: {missing}", file=sys.stderr)
        return 1

    entry = {
        "date": datetime.datetime.now(datetime.timezone.utc)
                .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "commit": git_commit(),
        "quick": args.quick,
        "splices_per_sec": splices,
        "pairs_per_sec": pairs,
        "speedup_dfs_vs_reference": splices["dfs"] / splices["reference"],
        "fingerprint": fingerprint(args.build_dir, args.manifest),
    }

    if streaming["streamed_per_sec"] and hw_threads is not None:
        entry["streaming"] = dict(streaming, hw_threads=hw_threads)

    if args.manifest:
        summary, err = manifest_summary(args.manifest)
        if err:
            print(f"bench_distill: {err}", file=sys.stderr)
            return 1
        entry["manifest"] = summary

    if args.speed:
        family, err = speed_throughput(args.speed)
        if err:
            print(f"bench_distill: {err}", file=sys.stderr)
            return 1
        entry["kernel_throughput"] = family

    problems = validate_entry(entry)
    if problems:
        for p in problems:
            print(f"bench_distill: new entry invalid: {p}", file=sys.stderr)
        return 1

    trajectory, err = load_trajectory(args.trajectory)
    if err:
        print(f"bench_distill: {err}", file=sys.stderr)
        return 1
    for i, old in enumerate(trajectory):
        for p in validate_entry(old):
            print(f"bench_distill: warning: {args.trajectory} entry "
                  f"#{i + 1}: {p}", file=sys.stderr)

    if args.check:
        entry["gates"] = run_gates(entry, trajectory)
    trajectory.append(entry)
    with open(args.trajectory, "w") as f:
        json.dump(trajectory, f, indent=2)
        f.write("\n")

    print(f"dfs:       {splices['dfs']:.3e} splices/sec")
    print(f"dfs_run:   {splices['dfs_run']:.3e} splices/sec "
          f"(chunked run path)")
    print(f"dfs512:    {splices['dfs512']:.3e} splices/sec "
          f"(512-byte segments)")
    print(f"reference: {splices['reference']:.3e} splices/sec "
          f"({entry['speedup_dfs_vs_reference']:.1f}x slower than dfs)")
    if "manifest" in entry:
        m = entry["manifest"]
        frac = m["fast_path_fraction"]
        print(f"manifest:  {m['splices']:,} splices / {m['pairs']:,} pairs "
              f"on {m['corpus']} in {m['wall_seconds']:.3f}s "
              f"({100.0 * frac:.2f}% fast path)" if frac is not None else
              f"manifest:  {m['splices']:,} splices / {m['pairs']:,} pairs "
              f"on {m['corpus']}")
    if "kernel_throughput" in entry:
        for alg, per_kernel in sorted(entry["kernel_throughput"].items()):
            rates = ", ".join(f"{k} {v / 1e9:.2f} GB/s"
                              for k, v in sorted(per_kernel.items()))
            print(f"kernel {alg}: {rates}")
    if "streaming" in entry:
        s = entry["streaming"]
        mem1 = s["in_memory_per_sec"].get("1")
        str1 = s["streamed_per_sec"].get("1")
        if mem1 and str1:
            print(f"streaming: {str1:.3e} splices/sec from the corpus "
                  f"store vs {mem1:.3e} in-memory at 1 thread "
                  f"({str1 / mem1:.2f}x, {s['hw_threads']} hw threads)")
    print(f"appended entry #{len(trajectory)} to {args.trajectory}")

    failed = [name for name, g in entry.get("gates", {}).items()
              if g["status"] == "fail"]
    for name, g in entry.get("gates", {}).items():
        print(f"gate {name}: {g['status']} ({g['reason']})")
        if g["status"] == "fail":
            print(f"CHECK FAILED: {name}: {g['reason']}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
