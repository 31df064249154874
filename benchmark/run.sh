#!/usr/bin/env bash
# Builds the benchmark (offline, release) and runs it. See README.md.
#
#   benchmark/run.sh --workload W [--seed S] [--seconds T] [--trace 0|1]
#       one run; the last line of standard output is the result object
#   benchmark/run.sh [--seed S] [--seconds T]
#       every workload, end-to-end run then per-layer run
#   benchmark/run.sh --smoke
#       every workload end to end, and the per-layer run of serve_long and
#       update_mix, at a fiftieth of the collection with half-second windows;
#       same checks, under 20 s
#   benchmark/run.sh --noise [RUNS]
#       A/A report: RUNS (default 3) end-to-end runs per workload, one seed each
#   benchmark/run.sh --compare A B
#       per-metric change from results A to results B against the bounds
#   benchmark/run.sh --check
#       BENCHMARK.json against the contract and the binary's metric list
#
# Results land in benchmark/out/ as <workload>.e2e.json, <workload>.layers.json
# and <workload>.trace.json. Run it from the repository root or anywhere else;
# it never changes directory, so a relative CARGO_TARGET_DIR keeps its meaning.
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
target="${CARGO_TARGET_DIR:-$here/target}"
bin="$target/release/poir-benchmark"
out="$here/out"

build() {
    CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
        --manifest-path "$here/Cargo.toml" >&2
}

case "${1:-}" in
--compare)
    [ $# -eq 3 ] || { echo "usage: run.sh --compare A B" >&2; exit 2; }
    exec python3 "$here/report.py" compare "$2" "$3"
    ;;
--noise)
    build
    exec python3 "$here/report.py" noise --bin "$bin" --out "$out/noise" --runs "${2:-3}"
    ;;
--check)
    build
    exec python3 "$here/report.py" check --bin "$bin"
    ;;
esac

build
for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$bin" "$@" --out "$out"
    fi
done

smoke=0
for arg in "$@"; do
    [ "$arg" = "--smoke" ] && smoke=1
done

status=0
for workload in serve_long serve_short serve_zipf update_mix; do
    for trace in 0 1; do
        # The three service workloads share every line of the per-layer run
        # but their request generator: the smoke run traces one of them.
        if [ $smoke = 1 ] && [ $trace = 1 ] && [ "$workload" != serve_long ] &&
            [ "$workload" != update_mix ]; then
            continue
        fi
        echo "== $workload --trace $trace"
        "$bin" --workload "$workload" --trace "$trace" "$@" --out "$out" || status=1
    done
done
exit $status
