#!/usr/bin/env python3
"""Check bench_distill.py's gate records on tiny synthetic dumps.

Usage: test_bench_distill.py

Runs bench_distill.py --check in a scratch directory on a made-up
bench_splice dump and two bench_speed dumps: one with five-repetition
aggregates, as scripts/bench.sh records them, and one with plain rows,
as older raw files have. Checks that

  * the kernel throughput is each row's `_median` aggregate, not its
    mean (the means here would fail the chorba >= 1.5x gate);
  * a dump without aggregates still distills, from its plain rows;
  * every entry records the deliberate shard-readahead skip, and
    --summary prints it as a row of the Markdown gate table;
  * the run-path DFS row (BM_SpliceDfsRun) is recorded as `dfs_run`,
    and --summary prints its rate.

Exits 1 with a message on the first failed check.
"""

import json
import os
import subprocess
import sys
import tempfile

DISTILL = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "bench_distill.py")

# Bulk 64 KiB rates per kernel row, in bytes/s: (median, mean).
KERNELS = {
    "crc32_scalar": (1.0e9, 1.0e9),
    "crc32_slicing": (4.0e9, 4.0e9),
    "crc32_chorba": (8.0e9, 4.4e9),
    "crc32_clmul": (30.0e9, 30.0e9),
    "koopmandual_slicing": (6.0e9, 6.0e9),
    "fletcher256_slicing": (3.0e9, 3.0e9),
}


def splice_dump():
    return {"benchmarks": [
        {"name": "BM_SpliceDfs", "run_type": "iteration",
         "items_per_second": 4.0e8, "pairs_per_sec": 4.0e5},
        {"name": "BM_SpliceDfsRun", "run_type": "iteration",
         "items_per_second": 4.5e8, "pairs_per_sec": 4.9e5},
        {"name": "BM_SpliceDfs512", "run_type": "iteration",
         "items_per_second": 1.0e9, "pairs_per_sec": 1.4e3},
        {"name": "BM_SpliceReference", "run_type": "iteration",
         "items_per_second": 2.0e6, "pairs_per_sec": 2.0e3},
    ]}


def speed_dump(aggregates):
    rows = []
    for kernel, (median, mean) in KERNELS.items():
        run = f"BM_Kernel_{kernel}/65536"
        if not aggregates:
            rows.append({"name": run, "run_name": run,
                         "run_type": "iteration", "bytes_per_second": median})
            continue
        for agg, rate in (("mean", mean), ("median", median),
                          ("stddev", 0.1e9), ("cv", 0.02)):
            rows.append({"name": f"{run}_{agg}", "run_name": run,
                         "run_type": "aggregate", "repetitions": 5,
                         "aggregate_name": agg, "bytes_per_second": rate})
    return {"benchmarks": rows}


def distill(tmp, speed):
    """Run bench_distill.py --check; returns (exit code, last entry,
    the --summary output)."""
    raw = os.path.join(tmp, "raw.json")
    speed_path = os.path.join(tmp, "speed.json")
    traj = os.path.join(tmp, "trajectory.json")
    for path, doc in ((raw, splice_dump()), (speed_path, speed)):
        with open(path, "w") as f:
            json.dump(doc, f)
    if os.path.exists(traj):
        os.remove(traj)
    r = subprocess.run([sys.executable, DISTILL, raw, traj, "--check",
                        "--speed", speed_path], cwd=tmp,
                       capture_output=True, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stdout + r.stderr)
    summary = subprocess.run([sys.executable, DISTILL, "--summary", traj],
                             cwd=tmp, capture_output=True, text=True)
    with open(traj) as f:
        return r.returncode, json.load(f)[-1], summary.stdout


def check(ok, what):
    if not ok:
        print(f"test_bench_distill: FAILED: {what}", file=sys.stderr)
        sys.exit(1)


def main():
    with tempfile.TemporaryDirectory() as tmp:
        for aggregates in (True, False):
            label = "aggregate dump" if aggregates else "plain-row dump"
            code, entry, summary = distill(tmp, speed_dump(aggregates))
            check(code == 0, f"{label}: bench_distill --check exited {code}")
            crc = entry["kernel_throughput"]["crc32"]
            check(crc["chorba"] == KERNELS["crc32_chorba"][0],
                  f"{label}: chorba rate {crc['chorba']} is not the median")
            gates = entry["gates"]
            check(gates["crc32_chorba"]["status"] == "pass",
                  f"{label}: chorba gate {gates['crc32_chorba']}")
            ra = gates.get("shard_readahead", {})
            check(ra.get("status") == "skip" and ra.get("reason"),
                  f"{label}: shard_readahead record {ra!r}")
            check(entry["splices_per_sec"].get("dfs512") == 1.0e9,
                  f"{label}: dfs512 rate {entry['splices_per_sec']!r}")
            check(entry["splices_per_sec"].get("dfs_run") == 4.5e8 and
                  entry["pairs_per_sec"].get("dfs_run") == 4.9e5,
                  f"{label}: dfs_run rates {entry['splices_per_sec']!r}")
            check(not any("dfs_run" in name for name in gates),
                  f"{label}: dfs_run is gated: {sorted(gates)}")
            rows = summary.splitlines()
            check("| gate | status | reason |" in rows,
                  f"{label}: --summary has no gate table:\n{summary}")
            check(f"| shard_readahead | skip | {ra['reason']} |" in rows,
                  f"{label}: --summary lacks the shard_readahead skip "
                  f"row:\n{summary}")
            check("| dfs_run | 4.500e+08 |" in rows,
                  f"{label}: --summary lacks the dfs_run row:\n{summary}")
    print("test_bench_distill: ok")


if __name__ == "__main__":
    main()
