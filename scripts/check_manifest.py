#!/usr/bin/env python3
"""Validate a telemetry run manifest against the cksum-metrics/1 schema.

Usage: check_manifest.py MANIFEST [--require-family FAM]...
                         [--require-kernel [NAME]]
                         [--require-dist]
                         [--require-trace]
                         [--diff-deterministic OTHER]

The schema is documented in src/obs/snapshot.hpp and
docs/OBSERVABILITY.md. CI runs this against the manifest produced by
`cksumlab splice --quick --metrics-out` so a malformed export fails the
perf-smoke job rather than silently breaking downstream tooling.

--require-family fails validation unless at least one metric of that
family (the segment before the first '.') is present, e.g.
`--require-family splice --require-family sched`.

--require-kernel fails unless the manifest records which checksum
kernel served the run (the top-level "kernel" member written by
cksumlab/faultlab); with a NAME, the recorded kernel must match it.

--require-dist fails unless the manifest was produced by a distributed
run (`cksumlab splice --serve`, docs/DIST.md): the "dist" member must
be present and complete, every per-worker sub-manifest it lists must
exist, validate, and name the job it served (its "jobs" list and its
corpus), and — the accounting check — every deterministic
counter in the top-level metrics must equal the sum of the per-worker
contributions recorded in "dist.per_worker[].metrics". A shard merged
twice (or dropped) breaks that equality.

--diff-deterministic OTHER fails if any deterministic-tagged metric
(or the report, if both manifests carry one) differs from OTHER's.
Scheduling- and timing-tagged metrics are exempt: CI uses this to
assert that runs under different checksum kernels (or thread counts)
produce bitwise-identical results.
"""

import argparse
import json
import os
import sys

SCHEMA = "cksum-metrics/1"
KINDS = {"counter", "gauge", "histogram"}
TAGS = {"deterministic", "scheduling", "timing"}
HISTOGRAM_BUCKETS = 32


def check_metric(name, m, problems):
    if "." not in name:
        problems.append(f"metric {name!r}: name is not <family>.<metric>")
    if not isinstance(m, dict):
        problems.append(f"metric {name!r}: not an object")
        return
    kind = m.get("kind")
    if kind not in KINDS:
        problems.append(f"metric {name!r}: bad kind {kind!r}")
        return
    if m.get("tag") not in TAGS:
        problems.append(f"metric {name!r}: bad tag {m.get('tag')!r}")
    if kind == "counter":
        v = m.get("value")
        if not isinstance(v, int) or v < 0:
            problems.append(f"metric {name!r}: counter value {v!r}")
    elif kind == "gauge":
        if not isinstance(m.get("value"), int):
            problems.append(f"metric {name!r}: gauge value {m.get('value')!r}")
    else:  # histogram
        for key in ("count", "sum"):
            v = m.get(key)
            if not isinstance(v, int) or v < 0:
                problems.append(f"metric {name!r}: histogram {key} {v!r}")
        buckets = m.get("buckets")
        if (not isinstance(buckets, list)
                or len(buckets) != HISTOGRAM_BUCKETS
                or any(not isinstance(b, int) or b < 0 for b in buckets)):
            problems.append(f"metric {name!r}: bad buckets")
        elif isinstance(m.get("count"), int) and sum(buckets) != m["count"]:
            problems.append(
                f"metric {name!r}: bucket total {sum(buckets)} != "
                f"count {m['count']}")


def check_manifest(doc, require_families):
    problems = []
    if not isinstance(doc, dict):
        return ["manifest is not a JSON object"]
    if doc.get("schema") != SCHEMA:
        problems.append(f"schema is {doc.get('schema')!r}, want {SCHEMA!r}")
    for key in ("tool", "corpus", "git"):
        if not isinstance(doc.get(key), str) or not doc.get(key):
            problems.append(f"{key!r} missing or not a non-empty string")
    for key in ("seed", "threads"):
        if not isinstance(doc.get(key), int) or doc.get(key) < 0:
            problems.append(f"{key!r} missing or not a non-negative integer")
    if isinstance(doc.get("threads"), int) and doc["threads"] < 1:
        problems.append("'threads' must be >= 1")
    ws = doc.get("wall_seconds")
    if not isinstance(ws, (int, float)) or ws < 0:
        problems.append(f"'wall_seconds' missing or negative: {ws!r}")
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        problems.append("'metrics' missing or empty")
        metrics = {}
    for name, m in metrics.items():
        check_metric(name, m, problems)
    if "report" in doc and not isinstance(doc["report"], dict):
        problems.append("'report' present but not an object")
    if "kernel" in doc and (not isinstance(doc["kernel"], str)
                            or not doc["kernel"]):
        problems.append("'kernel' present but not a non-empty string")
    if "kernel" in doc and "kernel_reason" not in doc:
        problems.append("'kernel' present without 'kernel_reason' — runs "
                        "must record why that kernel was selected")
    if "kernel_reason" in doc and (not isinstance(doc["kernel_reason"], str)
                                   or not doc["kernel_reason"]):
        problems.append("'kernel_reason' present but not a non-empty string")
    families = {name.split(".", 1)[0] for name in metrics}
    for fam in require_families:
        if fam not in families:
            problems.append(f"required metric family {fam!r} absent")
    return problems


def check_kernel(doc, want):
    """Problems with the manifest's kernel record, [] when clean.

    `want` is None (no check), "" (any kernel acceptable, but one must
    be recorded), or a kernel name that must match exactly.
    """
    if want is None:
        return []
    kernel = doc.get("kernel") if isinstance(doc, dict) else None
    if not isinstance(kernel, str) or not kernel:
        return ["no 'kernel' member — run does not record which "
                "checksum kernel served it"]
    if want and kernel != want:
        return [f"kernel is {kernel!r}, want {want!r}"]
    return []


DIST_JOB_STATES = {"done", "aborted", "running"}


def check_dist_job(job, who, manifest_path):
    """Problems with one per-job record of the "dist" array, plus the
    job's flat metric dict (for the aggregate identity). Returns
    (problems, job_metrics)."""
    problems = []
    v = job.get("job")
    if not isinstance(v, int) or v < 1:
        problems.append(f"{who}: 'job' missing or not a positive "
                        f"integer: {v!r}")
    name = job.get("name")
    if not isinstance(name, str) or not name:
        problems.append(f"{who}: 'name' missing or empty")
    state = job.get("state")
    if state not in DIST_JOB_STATES:
        problems.append(f"{who}: state {state!r} not one of "
                        f"{sorted(DIST_JOB_STATES)}")
    for key in ("workers", "shards", "reassigned", "stale_results"):
        v = job.get(key)
        if not isinstance(v, int) or v < 0:
            problems.append(f"{who}: missing or not a non-negative "
                            f"integer: {key}={v!r}")
    complete = job.get("complete")
    if not isinstance(complete, bool):
        problems.append(f"{who}: 'complete' missing or not a bool")
    elif state == "done" and not complete:
        problems.append(f"{who}: state is 'done' but complete is false")
    elif state == "aborted" and complete:
        problems.append(f"{who}: state is 'aborted' but complete is true")

    job_metrics = job.get("metrics")
    if not isinstance(job_metrics, dict):
        problems.append(f"{who}: 'metrics' missing or not an object")
        job_metrics = {}
    for mname, mv in job_metrics.items():
        if not isinstance(mv, int) or mv < 0:
            problems.append(f"{who}: metric {mname!r} value {mv!r}")

    per = job.get("per_worker")
    if not isinstance(per, list):
        problems.append(f"{who}: per_worker missing or not a list")
        per = []
    elif not per and state == "done":
        problems.append(f"{who}: job is done but per_worker is empty")

    sums = {}
    for i, w in enumerate(per):
        if not isinstance(w, dict):
            problems.append(f"{who}.per_worker[{i}]: not an object")
            continue
        wwho = f"{who}.per_worker[{i}] (worker {w.get('worker')!r})"
        for key in ("worker", "pid", "shards"):
            v = w.get(key)
            if not isinstance(v, int) or v < 0:
                problems.append(f"{wwho}: bad {key} {v!r}")
        metrics = w.get("metrics")
        if not isinstance(metrics, dict):
            problems.append(f"{wwho}: 'metrics' missing or not an object")
            metrics = {}
        for mname, mv in metrics.items():
            if not isinstance(mv, int) or mv < 0:
                problems.append(f"{wwho}: metric {mname!r} value {mv!r}")
                continue
            sums[mname] = sums.get(mname, 0) + mv
        sub = w.get("manifest")
        if sub is None:
            continue  # worker ran without --metrics-out
        if not isinstance(sub, str) or not sub:
            problems.append(f"{wwho}: 'manifest' not a non-empty string")
            continue
        # The path is recorded as the worker wrote it; also try it
        # relative to the aggregate manifest's directory.
        candidates = [sub, os.path.join(os.path.dirname(manifest_path) or ".",
                                        os.path.basename(sub))]
        subdoc = None
        for cand in candidates:
            try:
                with open(cand) as f:
                    subdoc = json.load(f)
                break
            except (OSError, json.JSONDecodeError):
                continue
        if subdoc is None:
            problems.append(f"{wwho}: sub-manifest {sub!r} missing or "
                            "unreadable")
            continue
        for p in check_manifest(subdoc, []):
            problems.append(f"{wwho}: sub-manifest {sub!r}: {p}")
        # It must name the job it served: its "jobs" list carries this
        # job's id and name, and its corpus is the served jobs' names.
        served = subdoc.get("jobs")
        if not isinstance(served, list) or not any(
                isinstance(e, dict) and e.get("job") == job.get("job")
                and e.get("name") == name for e in served):
            problems.append(f"{wwho}: sub-manifest {sub!r} does not list "
                            f"job {job.get('job')!r} {name!r} among the "
                            "jobs it served")
        elif subdoc.get("corpus") != ", ".join(
                str(e.get("name")) for e in served if isinstance(e, dict)):
            problems.append(f"{wwho}: sub-manifest {sub!r} corpus "
                            f"{subdoc.get('corpus')!r} does not name the "
                            "jobs it served")

    # Per-job accounting identity: the job's counters are exactly the
    # sum of the accepted per-worker contributions — for every job,
    # aborted ones too (stale results must not leak in).
    for mname in set(sums) | set(job_metrics):
        job_v = job_metrics.get(mname, 0)
        worker_v = sums.get(mname, 0)
        if isinstance(job_v, int) and job_v != worker_v:
            problems.append(
                f"{who}: counter {mname!r}: job total {job_v} != sum of "
                f"per-worker contributions {worker_v}")
    return problems, job_metrics


def check_dist(doc, manifest_path):
    """Problems with the manifest's distributed-run record, [] when
    clean. See docs/DIST.md for the "dist" member's shape: an array
    of per-job reports (a single `--serve` run is a 1-element array)."""
    dist = doc.get("dist") if isinstance(doc, dict) else None
    if not isinstance(dist, list) or not dist:
        return ["no 'dist' array — manifest was not produced by a "
                "distributed run (cksumlab splice --serve / JobService)"]
    problems = []
    seen_ids = set()
    agg = {}
    for i, job in enumerate(dist):
        if not isinstance(job, dict):
            problems.append(f"dist[{i}]: not an object")
            continue
        who = f"dist[{i}] (job {job.get('job')!r} {job.get('name')!r})"
        job_problems, job_metrics = check_dist_job(job, who, manifest_path)
        problems.extend(job_problems)
        jid = job.get("job")
        if isinstance(jid, int):
            if jid in seen_ids:
                problems.append(f"{who}: duplicate job id {jid}")
            seen_ids.add(jid)
        for mname, mv in job_metrics.items():
            if isinstance(mv, int) and mv >= 0:
                agg[mname] = agg.get(mname, 0) + mv

    # Aggregate accounting identity: each deterministic counter in the
    # document metrics equals the sum over all jobs.
    metrics = doc.get("metrics") if isinstance(doc.get("metrics"), dict) else {}
    for name, m in metrics.items():
        if not isinstance(m, dict) or m.get("tag") != "deterministic":
            continue
        if m.get("kind") != "counter":
            continue
        total = m.get("value")
        job_sum = agg.get(name, 0)
        if isinstance(total, int) and total != job_sum:
            problems.append(
                f"deterministic counter {name!r}: aggregate {total} != "
                f"sum over jobs {job_sum}")
    for name in agg:
        if name not in metrics:
            problems.append(f"per-job metric {name!r} absent from the "
                            "aggregate metrics")
    return problems


TRACE_REJECTS = ("truncated", "link_too_short", "non_ipv4", "header",
                 "checksum", "orphan")


def check_trace(doc):
    """Problems with the manifest's trace-ingest record, [] when clean.
    See docs/TRACE.md for the "trace" member's shape."""
    tr = doc.get("trace") if isinstance(doc, dict) else None
    if not isinstance(tr, dict):
        return ["no 'trace' member — manifest was not produced by "
                "`cksumlab trace`"]
    problems = []
    if not isinstance(tr.get("capture"), str) or not tr["capture"]:
        problems.append("trace.capture missing or empty")
    if tr.get("linktype") not in (1, 101):
        problems.append(f"trace.linktype {tr.get('linktype')!r} is neither "
                        "LINKTYPE_ETHERNET (1) nor LINKTYPE_RAW (101)")
    sl = tr.get("snaplen")
    if not isinstance(sl, int) or not 1 <= sl <= (1 << 20):
        problems.append(f"trace.snaplen {sl!r} outside the reader's "
                        "accepted range 1..1048576")
    for key in ("records", "accepted", "rejected", "files"):
        v = tr.get(key)
        if not isinstance(v, int) or v < 0:
            problems.append(f"trace.{key}: missing or not a non-negative "
                            f"integer: {v!r}")
    rejects = tr.get("rejects")
    if not isinstance(rejects, dict):
        problems.append("trace.rejects missing or not an object")
        rejects = {}
    for key in TRACE_REJECTS:
        v = rejects.get(key)
        if not isinstance(v, int) or v < 0:
            problems.append(f"trace.rejects.{key}: missing or not a "
                            f"non-negative integer: {v!r}")
    if not problems:
        # The ingest accounting identities: every record scored exactly
        # one way, and a file needs at least one accepted packet.
        if tr["records"] != tr["accepted"] + tr["rejected"]:
            problems.append("trace accounting: accepted + rejected != "
                            "records")
        if tr["rejected"] != sum(rejects[k] for k in TRACE_REJECTS):
            problems.append("trace accounting: rejected != sum of the "
                            "reject classes")
        if tr["files"] > tr["accepted"]:
            problems.append("trace.files exceeds accepted packet count")
    prof = tr.get("profile")
    if not isinstance(prof, dict):
        problems.append("trace.profile missing or not an object")
    else:
        for key in ("bytes", "cells", "zero_runs", "ff_runs"):
            v = prof.get(key)
            if not isinstance(v, int) or v < 0:
                problems.append(f"trace.profile.{key}: missing or not a "
                                f"non-negative integer: {v!r}")
        for key in ("byte_entropy_bits", "word_entropy_bits",
                    "cell_entropy_bits", "zero_fraction", "cell_pmax"):
            v = prof.get(key)
            if not isinstance(v, (int, float)) or v < 0:
                problems.append(f"trace.profile.{key}: missing or "
                                f"negative: {v!r}")
        if isinstance(prof.get("byte_entropy_bits"), (int, float)) \
                and prof["byte_entropy_bits"] > 8.0:
            problems.append("trace.profile.byte_entropy_bits exceeds 8")
    return problems


def deterministic_view(doc):
    """The portions of a manifest that must be invariant across kernel
    selections and thread counts: deterministic-tagged metrics plus the
    embedded report (when present)."""
    metrics = doc.get("metrics") if isinstance(doc, dict) else {}
    det = {name: m for name, m in (metrics or {}).items()
           if isinstance(m, dict) and m.get("tag") == "deterministic"}
    return {"metrics": det, "report": doc.get("report")}


def diff_deterministic(doc, other_doc, other_path):
    """Differences between the two manifests' deterministic views."""
    mine = deterministic_view(doc)
    theirs = deterministic_view(other_doc)
    problems = []
    for name in sorted(set(mine["metrics"]) | set(theirs["metrics"])):
        a = mine["metrics"].get(name)
        b = theirs["metrics"].get(name)
        if a != b:
            problems.append(
                f"deterministic metric {name!r} differs from "
                f"{other_path}: {a!r} vs {b!r}")
    if (mine["report"] is not None and theirs["report"] is not None
            and mine["report"] != theirs["report"]):
        problems.append(f"embedded report differs from {other_path}")
    return problems


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("manifest")
    ap.add_argument("--require-family", action="append", default=[],
                    metavar="FAM")
    ap.add_argument("--require-kernel", nargs="?", const="", default=None,
                    metavar="NAME",
                    help="require the manifest to record its checksum "
                         "kernel (optionally a specific one)")
    ap.add_argument("--require-dist", action="store_true",
                    help="require a complete distributed-run record "
                         "whose per-worker sums match the aggregate")
    ap.add_argument("--require-trace", action="store_true",
                    help="require a well-formed trace-ingest record "
                         "(cksumlab trace --metrics-out)")
    ap.add_argument("--diff-deterministic", metavar="OTHER",
                    help="fail if deterministic-tagged metrics or the "
                         "report differ from manifest OTHER")
    args = ap.parse_args()

    try:
        with open(args.manifest) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_manifest: {args.manifest}: {e}", file=sys.stderr)
        return 1

    problems = check_manifest(doc, args.require_family)
    problems += check_kernel(doc, args.require_kernel)
    if args.require_dist:
        problems += check_dist(doc, args.manifest)
    if args.require_trace:
        problems += check_trace(doc)
    if args.diff_deterministic:
        try:
            with open(args.diff_deterministic) as f:
                other = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            print(f"check_manifest: {args.diff_deterministic}: {e}",
                  file=sys.stderr)
            return 1
        problems += diff_deterministic(doc, other, args.diff_deterministic)
    if problems:
        for p in problems:
            print(f"check_manifest: {args.manifest}: {p}", file=sys.stderr)
        return 1
    nmetrics = len(doc["metrics"])
    kernel = (f", kernel {doc['kernel']}"
              if isinstance(doc.get("kernel"), str) else "")
    print(f"{args.manifest}: valid {SCHEMA} manifest "
          f"({doc['tool']}, {nmetrics} metrics{kernel})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
