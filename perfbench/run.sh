#!/usr/bin/env bash
# Entry point of the benchmark suite (see README.md beside this file).
#
#   perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one workload, one process, time-boxed: the form BENCHMARK.json's
#       driver uses. The last line of stdout is the result object.
#
#   perfbench/run.sh [--seed N] [--trace] [--quick] [--out DIR] [--agree]
#       the whole suite, one child process per workload (so VmHWM is per
#       workload), at fixed work (--reps) so counts repeat exactly.
#       --trace adds a traced run per workload (per-layer metrics and
#       DIR/NAME.trace.json). --agree runs everything twice at the same
#       seed and compares the two sets with `benchmark --compare`.
#
# Builds the benchmark package (release, offline) first; honours
# CARGO_TARGET_DIR and defaults it to perfbench/target.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-perfbench/target}"
cargo build --release --offline --manifest-path perfbench/Cargo.toml --bin benchmark >&2
bin="$CARGO_TARGET_DIR/release/benchmark"

for arg in "$@"; do
  if [[ "$arg" == "--workload" ]]; then
    exec "$bin" "$@"
  fi
done

seed=1
out=perfbench/out
trace=0
agree=0
quick=()
while (($#)); do
  case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    --trace) trace=1; shift ;;
    --agree) agree=1; shift ;;
    --quick) quick=(--quick); shift ;;
    *) echo "run.sh: unknown argument '$1' (see the header of $0)" >&2; exit 2 ;;
  esac
done

# Fixed work: seven repetitions of an engine unit; 24 blocks of 100 jobs
# (2400 jobs) for serve_mix. A traced engine run alternates untraced,
# traced and one-worker repetitions, and its counts come from a single
# traced repetition, so two rounds are enough there.
reps_for() { # $1 = workload, $2 = trace (0|1)
  if ((${#quick[@]})); then echo 2
  elif [[ "$1" == serve_mix ]]; then echo 24
  elif (($2)); then echo 2
  else echo 7
  fi
}

run_suite() { # $1 = output directory
  local failed=0 w
  for w in $("$bin" --list); do
    echo "== $w" >&2
    "$bin" --workload "$w" --seed "$seed" --reps "$(reps_for "$w" 0)" --trace 0 \
      --out "$1" "${quick[@]}" >/dev/null || failed=1
    if ((trace)); then
      "$bin" --workload "$w" --seed "$seed" --reps "$(reps_for "$w" 1)" --trace 1 \
        --out "$1" "${quick[@]}" >/dev/null || failed=1
    fi
  done
  return "$failed"
}

if ((agree)); then
  status=0
  run_suite "$out/a" || status=1
  run_suite "$out/b" || status=1
  for a in "$out"/a/*.e2e.json "$out"/a/*.layers.json; do
    [[ -e "$a" ]] || continue
    "$bin" --compare "$a" "$out/b/$(basename "$a")" || status=1
  done
  exit "$status"
fi
run_suite "$out"
