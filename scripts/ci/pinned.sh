#!/usr/bin/env bash
# Run every test a pinned-test manifest names, each by its exact path.
#
#   bash scripts/ci/pinned.sh scripts/ci/pinned_tests.txt
#
# A manifest line is `package | target | test path | why`, where the
# target is `--lib`, `--test NAME` or `--bin NAME` (a binary-only
# crate's unit tests) and an empty test path means the
# whole binary; `#` starts a comment line. A `cargo test` filter that
# matches nothing passes with "0 passed", so every line is first listed
# with `--list --exact` and must match exactly one test (at least one for
# a whole binary). Only when every line matches does each run, in
# release and on its own, and a table of wall times closes the output.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 MANIFEST" >&2
    exit 2
fi
manifest=$1

cargo_test() { cargo test --release --locked --offline -q "$@"; }
trim() {
    local s=$1
    s=${s#"${s%%[![:space:]]*}"}
    printf '%s' "${s%"${s##*[![:space:]]}"}"
}

pkgs=() targets=() tests=()
declare -A seen=()
bad=0
lineno=0
while IFS= read -r line || [ -n "$line" ]; do
    lineno=$((lineno + 1))
    case $(trim "$line") in '' | '#'*) continue ;; esac
    IFS='|' read -r pkg target test why <<<"$line"
    pkg=$(trim "$pkg") target=$(trim "$target") test=$(trim "$test") why=$(trim "$why")
    where="$manifest:$lineno"
    if [ -z "$pkg" ] || [ -z "$why" ] || ! [[ $target =~ ^(--lib|--(test|bin)\ [A-Za-z0-9_-]+)$ ]]; then
        echo "$where: not \`package | --lib, --test NAME or --bin NAME | test path | why\`" >&2
        bad=1
        continue
    fi
    key="$pkg $target $test"
    if [ -n "${seen[$key]:-}" ]; then
        echo "$where: repeats line ${seen[$key]}" >&2
        bad=1
        continue
    fi
    seen[$key]=$lineno
    # $target is one or two words and $test one or none: split on purpose.
    # shellcheck disable=SC2086
    listed=$(cargo_test -p "$pkg" $target -- --list --exact $test)
    n=$(grep -c ': test$' <<<"$listed" || true)
    if { [ -n "$test" ] && [ "$n" -ne 1 ]; } || [ "$n" -lt 1 ]; then
        echo "$where: $pkg $target ${test:-(whole binary)} matches $n tests" >&2
        bad=1
        continue
    fi
    pkgs+=("$pkg") targets+=("$target") tests+=("$test")
done <"$manifest"
if [ "$bad" -ne 0 ]; then
    exit 1
fi
if [ ${#pkgs[@]} -eq 0 ]; then
    echo "$manifest: names no test" >&2
    exit 1
fi

times=()
for i in "${!pkgs[@]}"; do
    start=${EPOCHREALTIME/./}
    # shellcheck disable=SC2086
    cargo_test -p "${pkgs[i]}" ${targets[i]} -- --exact ${tests[i]}
    ms=$(((${EPOCHREALTIME/./} - start) / 1000))
    times+=("$(printf '%7d ms  %s %s %s' "$ms" "${pkgs[i]}" "${targets[i]}" "${tests[i]:-(whole binary)}")")
done
printf '%s\n' "${times[@]}"
echo "${#pkgs[@]} pinned tests passed"
