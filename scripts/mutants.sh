#!/usr/bin/env bash
# Mutation check: every `scripts/mutants/*.patch` breaks the code on purpose,
# and the test its header names must then fail. There are 12: eleven in the
# stencil kernels and one in tempest-par's dispatch join.
#
#   bash scripts/mutants.sh              every mutant
#   bash scripts/mutants.sh FILE.patch   the given mutants only
#
# A patch is a unified diff against the repository root, preceded by a
# header of `key: value` lines:
#
#   mutant:   what the patch breaks
#   test:     <crate> <test path>, run as
#             `cargo test --release -p <crate> --lib -- --exact <test path>`
#   requires: a CPU feature without which the test cannot see the mutant
#             (optional; the mutant is skipped, and said so, on other hosts)
#
# The script copies the working tree's files into a temporary directory,
# checks that every named test passes there unmutated, then applies each
# patch in turn, builds, runs its test and reverts the patch. It builds with
# the release profile's optimisation level but not its link-time settings
# (see the exports below): a rebuild per patch takes about a third of the
# time, and the tests compare bits, which neither setting changes. It exits
# non-zero if a test fails unmutated, a patch does not apply or build, or a
# mutant's test still passes.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [[ $# -gt 0 ]]; then
  patches=("$@")
else
  patches=("$root"/scripts/mutants/*.patch)
fi

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
(cd "$root" && git ls-files -z --cached --others --exclude-standard) |
  (cd "$root" && tar --null --ignore-failed-read -T - -cf -) | tar -xf - -C "$work"
export CARGO_TARGET_DIR="$work/target"
# The per-patch rebuild is the script's cost: opt-level 3 stays, LTO goes,
# and only this script's private target directory sees these settings.
export CARGO_PROFILE_RELEASE_LTO=false CARGO_PROFILE_RELEASE_CODEGEN_UNITS=16 \
  CARGO_PROFILE_RELEASE_DEBUG=false CARGO_PROFILE_RELEASE_INCREMENTAL=true

field() { sed -n "s/^$2: *//p" "$1" | head -n 1; }

# `run_test PATCH`: run the test PATCH names in the copy; its exit status.
run_test() {
  local crate name
  read -r crate name <<<"$(field "$1" test)"
  (cd "$work" && cargo test --release --offline -q -p "$crate" --lib -- --exact "$name" \
    >"$work/last.log" 2>&1)
}

# `builds PATCH`: whether the copy's test binary for PATCH's crate builds.
builds() {
  local crate
  read -r crate _ <<<"$(field "$1" test)"
  (cd "$work" && cargo test --release --offline -q -p "$crate" --lib --no-run \
    >"$work/last.log" 2>&1)
}

has_feature() { grep -qw "$1" /proc/cpuinfo 2>/dev/null; }

failed=0
for p in "${patches[@]}"; do
  if ! run_test "$p" || ! grep -q "1 passed" "$work/last.log"; then
    echo "FAIL $(basename "$p"): its test does not pass, alone, on the unmutated tree"
    cat "$work/last.log"
    failed=1
  fi
done
[[ $failed == 0 ]] || exit 1

caught=0
skipped=0
for p in "${patches[@]}"; do
  name="$(basename "$p")"
  need="$(field "$p" requires)"
  if [[ -n "$need" ]] && ! has_feature "$need"; then
    echo "SKIP $name: this host lacks $need"
    skipped=$((skipped + 1))
    continue
  fi
  if ! (cd "$work" && git apply "$p"); then
    echo "FAIL $name: does not apply"
    failed=1
    continue
  fi
  if ! builds "$p"; then
    echo "FAIL $name: the mutant does not build"
    cat "$work/last.log"
    failed=1
  elif run_test "$p"; then
    echo "FAIL $name: survived ($(field "$p" test) passes) -- $(field "$p" mutant)"
    failed=1
  else
    echo "ok   $name: caught by $(field "$p" test)"
    grep -m 1 -A 1 "panicked at" "$work/last.log" | tail -n 1 | sed 's/^/       /'
    caught=$((caught + 1))
  fi
  (cd "$work" && git apply -R "$p")
done

echo "mutants: ${#patches[@]}, caught $caught, skipped $skipped"
exit "$failed"
