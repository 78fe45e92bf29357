#!/bin/sh
# Run the splice-evaluator benchmark suite and append one trajectory
# entry to BENCH_splice.json at the repo root.
#
#   sh scripts/bench.sh           full run (Release build)
#   sh scripts/bench.sh --quick   short measurement window (CI smoke)
#   sh scripts/bench.sh --check   also fail on gross regressions:
#                                 DFS rate < 1/5 of the previous entry,
#                                 DFS slower than the flat evaluator,
#                                 or slicing-by-8 CRC-32 < 3x scalar
set -eu

cd "$(dirname "$0")/.."

QUICK=0
CHECK=0
for arg in "$@"; do
  case "$arg" in
    --quick) QUICK=1 ;;
    --check) CHECK=1 ;;
    *) echo "usage: $0 [--quick] [--check]" >&2; exit 2 ;;
  esac
done

BUILD=build
cmake -B "$BUILD" -S . -G Ninja -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD" --target bench_splice bench_speed cksumlab

RAW="$BUILD/bench_splice_raw.json"
MIN_TIME=0.5
[ "$QUICK" -eq 1 ] && MIN_TIME=0.05

"$BUILD/bench/bench_splice" \
  --benchmark_min_time="$MIN_TIME" \
  --benchmark_out="$RAW" \
  --benchmark_out_format=json

# Per-implementation checksum throughput (the BM_Kernel_<alg>_<impl>
# rows of bench_speed); distilled into the trajectory's
# kernel_throughput family. See src/checksum/kernels/ and docs/PERF.md.
RAWK="$BUILD/bench_kernels_raw.json"
"$BUILD/bench/bench_speed" \
  --benchmark_filter='BM_Kernel_' \
  --benchmark_min_time="$MIN_TIME" \
  --benchmark_out="$RAWK" \
  --benchmark_out_format=json

# Telemetry run manifest for the same corpus family (see
# docs/OBSERVABILITY.md); its headline numbers ride along in the
# trajectory entry.
MANIFEST="$BUILD/metrics_manifest.json"
"$BUILD/tools/cksumlab" splice --quick --metrics-out "$MANIFEST" \
  > /dev/null
python3 scripts/check_manifest.py "$MANIFEST" \
  --require-family splice --require-family sched

DISTILL_ARGS=""
[ "$QUICK" -eq 1 ] && DISTILL_ARGS="$DISTILL_ARGS --quick"
[ "$CHECK" -eq 1 ] && DISTILL_ARGS="$DISTILL_ARGS --check"
# shellcheck disable=SC2086
python3 scripts/bench_distill.py "$RAW" BENCH_splice.json \
  --manifest "$MANIFEST" --speed "$RAWK" $DISTILL_ARGS
