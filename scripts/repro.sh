#!/bin/sh
# One-command reproduction: build, test, regenerate every table and
# figure, and capture the outputs next to EXPERIMENTS.md.
#
#   scripts/repro.sh [scale] [--bench] [--dist N]
#
# `scale` multiplies every synthetic corpus (default 1; the paper-sized
# runs used in EXPERIMENTS.md). Expect ~1 minute at scale 1. With
# `--bench`, also run scripts/bench.sh at the end to append a
# splice-evaluator entry to BENCH_splice.json. With `--dist N`, also
# run the distributed-service parity stage: the reference corpus
# served to N worker processes by the job service must reproduce the
# single-process report bit for bit (docs/DIST.md).
set -eu
cd "$(dirname "$0")/.."

SCALE=1
RUN_BENCH=0
DIST_WORKERS=0
expect_dist=0
for arg in "$@"; do
  if [ "$expect_dist" -eq 1 ]; then
    DIST_WORKERS="$arg"
    expect_dist=0
    continue
  fi
  case "$arg" in
    --bench) RUN_BENCH=1 ;;
    --dist) expect_dist=1 ;;
    *) SCALE="$arg" ;;
  esac
done
if [ "$expect_dist" -eq 1 ]; then
  echo "--dist needs a worker count" >&2
  exit 2
fi
export CKSUMLAB_SCALE="$SCALE"

cmake -B build -G Ninja
cmake --build build

# In POSIX sh a pipeline reports the LAST command's status, so
# `ctest ... | tee` would let test failures slip past `set -e` (tee
# always succeeds). Stash each stage's real status in a file written
# inside the pipeline's subshell and check it explicitly. The
# `|| rc=$?` form keeps the inherited `set -e` from killing the
# subshell before the status is written.
status_file="$(mktemp)"
trap 'rm -f "$status_file"' EXIT

{
  rc=0
  ctest --test-dir build 2>&1 || rc=$?
  echo "$rc" > "$status_file"
} | tee test_output.txt
read -r ctest_status < "$status_file"
if [ "$ctest_status" -ne 0 ]; then
  echo "ctest failed (exit $ctest_status); see test_output.txt" >&2
  exit "$ctest_status"
fi

{
  bench_status=0
  for b in build/bench/*; do
    if [ -x "$b" ] && [ -f "$b" ]; then
      echo "===== $(basename "$b") ====="
      if ! "$b"; then
        bench_status=1
        echo "BENCH FAILED: $b" >&2
      fi
      echo
    fi
  done
  echo "$bench_status" > "$status_file"
} 2>&1 | tee bench_output.txt
read -r bench_status < "$status_file"
if [ "$bench_status" -ne 0 ]; then
  echo "a bench failed; see bench_output.txt" >&2
  exit 1
fi

if [ "$DIST_WORKERS" -gt 0 ]; then
  # Same status-file pattern as above: the pipeline's exit status is
  # tee's, so the stage's real status must travel through a file.
  {
    rc=0
    {
      ./build/tools/cksumlab splice --quick --json > dist_single.json &&
      ./build/tools/cksumlab splice --quick --json \
        --serve --workers "$DIST_WORKERS" > dist_merged.json &&
      cmp dist_single.json dist_merged.json &&
      echo "distributed report ($DIST_WORKERS workers) identical to" \
           "single-process run" &&
      ./build/tools/faultlab distkill --workers "$DIST_WORKERS" --quick
    } || rc=$?
    rm -f dist_single.json dist_merged.json
    echo "$rc" > "$status_file"
  } 2>&1 | tee dist_output.txt
  read -r dist_status < "$status_file"
  if [ "$dist_status" -ne 0 ]; then
    echo "distributed parity stage failed; see dist_output.txt" >&2
    exit 1
  fi
fi

if [ "$RUN_BENCH" -eq 1 ]; then
  sh scripts/bench.sh
fi

echo "done: test_output.txt and bench_output.txt refreshed (scale $SCALE)"
