#!/usr/bin/env bash
# Proves the tests bite: every patch under crates/check/mutants/ seeds
# one bug, and the test its header names must fail on it.
#
# WHEN TO RUN: before merging any PR that touches an engine
# (crates/sim/src/engine.rs, engine/shard.rs, crates/vc/src/engine.rs),
# the oracle (crates/check/src/oracle.rs), the packet model or the
# parking predicate — and when a mutant here stops applying, which means
# the code it guards moved: re-seed the bug in the new code (or delete
# the patch and say why), do not just drop it. The full run is not part
# of check.sh: it rebuilds the mutated crate once per patch (minutes,
# not seconds). check.sh runs `--check`, which only checks that every
# patch has its header lines and still applies, so moved code fails the
# gate instead of waiting for the next full run.
#
# A patch is a unified diff (`diff -u`, paths relative to the repo root
# with a/ b/ prefixes) preceded by two header lines:
#
#   # mutant: what the seeded bug is
#   # test: cargo test -q -p CRATE --test FILE NAME
#
# For each patch, in a scratch copy of the working tree (tracked files
# and untracked ones that are not ignored — so uncommitted edits are
# what gets tested, and nothing is left behind in .git): the named test
# must pass unmutated, the patch must apply, the mutated tree must still
# compile, and the named test must then fail. A mutant that survives,
# no longer applies or no longer compiles fails the script.
#
#   scripts/mutants.sh            every patch
#   scripts/mutants.sh NAME...    only crates/check/mutants/NAME.patch
#   scripts/mutants.sh --check    headers and a dry-run apply, no build
set -euo pipefail
cd "$(dirname "$0")/.."
repo="$PWD"

# Prints why $1 (a patch file) has no usable header lines, if it has
# none.
header_problem() {
  local what test_cmd
  what="$(sed -n 's/^# mutant: //p' "$1")"
  test_cmd="$(sed -n 's/^# test: //p' "$1")"
  if [[ -z "$what" || "$test_cmd" != "cargo test "* ]]; then
    echo "needs '# mutant:' and '# test: cargo test ...' header lines"
  fi
}

if [[ "${1:-}" == "--check" ]]; then
  status=0
  patches=("$repo"/crates/check/mutants/*.patch)
  for patch in "${patches[@]}"; do
    name="$(basename "$patch" .patch)"
    problem="$(header_problem "$patch")"
    if [[ -n "$problem" ]]; then
      echo "FAIL $name: $problem" >&2
      status=1
    elif ! patch -p1 --dry-run --forward --silent <"$patch" >/dev/null; then
      echo "FAIL $name: no longer applies — the code it guards moved; re-seed it" >&2
      status=1
    fi
  done
  ((status)) || echo "All ${#patches[@]} mutants apply."
  exit "$status"
fi

patches=()
if (($#)); then
  for name in "$@"; do patches+=("$repo/crates/check/mutants/${name%.patch}.patch"); done
else
  patches=("$repo"/crates/check/mutants/*.patch)
fi

scratch="$(mktemp -d "${TMPDIR:-/tmp}/turnroute-mutants.XXXXXX")"
trap 'rm -rf "$scratch"' EXIT
git ls-files -co --exclude-standard -z | xargs -0 cp --parents -t "$scratch"
cd "$scratch"
export CARGO_TARGET_DIR="$scratch/target"

status=0
for patch in "${patches[@]}"; do
  name="$(basename "$patch" .patch)"
  problem="$(header_problem "$patch")"
  if [[ -n "$problem" ]]; then
    echo "FAIL $name: $problem" >&2
    status=1
    continue
  fi
  what="$(sed -n 's/^# mutant: //p' "$patch")"
  test_cmd="$(sed -n 's/^# test: //p' "$patch")"
  echo "==> $name: $what"
  # shellcheck disable=SC2086
  if ! $test_cmd --offline >/dev/null 2>&1; then
    echo "FAIL $name: '$test_cmd' does not pass on the unmutated tree" >&2
    status=1
    continue
  fi
  if ! patch -p1 --forward --silent <"$patch"; then
    echo "FAIL $name: no longer applies — the code it guards moved; re-seed it" >&2
    status=1
    continue
  fi
  # shellcheck disable=SC2086
  if ! $test_cmd --offline --no-run >/dev/null 2>&1; then
    echo "FAIL $name: the mutated tree does not compile" >&2
    status=1
  elif $test_cmd --offline >/dev/null 2>&1; then
    echo "FAIL $name: SURVIVED '$test_cmd'" >&2
    status=1
  else
    echo "    killed by: $test_cmd"
  fi
  patch -p1 --reverse --silent <"$patch"
done

if ((status)); then
  echo "mutants.sh: some mutants were not killed" >&2
else
  echo "All ${#patches[@]} mutants killed."
fi
exit "$status"
