#!/bin/sh
# The mutant catalogue: every obligation has a one-line mutant that its
# named tests kill.
#
#   sh scripts/mutants.sh [mutants/NNN-name.patch ...]
#
# Each `mutants/*.patch` (all of them when none is named) is a unified diff
# against the repository root, after a header:
#
#   Mutant: <what the mutation does>
#   Kill: <meaning|pin> <package> <lib|integration test target> <test name>
#
# A *meaning* kill holds the code to an independent expected value (a
# hand-computed constant, a textbook analysis, an identity between two
# runs); a *pin* kill holds it to a recorded digest or counter.  The script
# copies the working tree to a temporary directory, and for each patch
# applies it, builds, runs every named test alone (`--exact`) and reverts.
# A named test that still passes is a survivor; a patch that no longer
# applies is stale; a mutant that does not build is broken.  Any of the
# three fails the run.  MUTANTS_TARGET_DIR keeps the build directory
# between runs (default: inside the temporary directory).  Outside a git
# checkout (say, an unpacked `git archive`) the whole directory is copied,
# every `target/` directory left out.
set -u
root=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/tree"
if [ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" = "$root" ]; then
    git -C "$root" ls-files -z -c -o --exclude-standard |
        tar -C "$root" --null --ignore-failed-read -T - -cf - 2>/dev/null |
        tar -C "$work/tree" -xf -
else
    echo "$root is not the top of a git checkout: copying it whole, without target/" >&2
    tar -C "$root" --exclude=target -cf - . | tar -C "$work/tree" -xf - || exit 2
fi
export CARGO_TARGET_DIR="${MUTANTS_TARGET_DIR:-$work/target}"

if [ $# -eq 0 ]; then
    set -- "$root"/mutants/*.patch
fi
start=$(pwd)
mutants=0 bad=0 pin_only=0
for patch in "$@"; do
    cd "$start" || exit 2
    patch=$(cd "$(dirname "$patch")" && pwd)/$(basename "$patch")
    name=$(basename "$patch" .patch)
    mutants=$((mutants + 1))
    cd "$work/tree" || exit 2
    if ! git apply --check "$patch" 2>/dev/null; then
        echo "STALE     $name: the patch no longer applies"
        bad=$((bad + 1))
        continue
    fi
    git apply "$patch"
    grep '^Kill: ' "$patch" >"$work/kills"
    killed=0 meaning=0
    while read -r _ kind package target test; do
        if [ "$target" = lib ]; then sel=--lib; else sel="--test $target"; fi
        # shellcheck disable=SC2086
        if ! cargo test -q -p "$package" $sel --no-run >"$work/log" 2>&1; then
            echo "BROKEN    $name: does not build"
            tail -20 "$work/log"
            bad=$((bad + 1))
            break
        fi
        # shellcheck disable=SC2086
        cargo test -q -p "$package" $sel -- --exact "$test" >"$work/log" 2>&1
        if grep -q '^test result: .* 1 passed; 0 failed' "$work/log"; then
            echo "SURVIVED  $name: $package $target $test ($kind)"
            bad=$((bad + 1))
        elif grep -q '^test result: .* 0 passed; 1 failed' "$work/log"; then
            echo "killed    $name: $package $target $test ($kind)"
            killed=1
            [ "$kind" = meaning ] && meaning=1
        else
            echo "STALE     $name: $package $target $test names no test"
            bad=$((bad + 1))
        fi
    done <"$work/kills"
    [ "$killed" -eq 1 ] && [ "$meaning" -eq 0 ] && pin_only=$((pin_only + 1))
    git apply -R "$patch"
done
echo "$mutants mutants, $pin_only killed by pins only, $bad survivors, stale or broken"
[ "$bad" -eq 0 ]
