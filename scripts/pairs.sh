#!/usr/bin/env bash
# Alternating benchmark pairs: a revision against the working tree.
#
#   scripts/pairs.sh [--out FILE] [--seconds S] [--trace 0|1] [--work DIR] \
#       REV N [WORKLOAD[:PAIRS]...]
#   scripts/pairs.sh [--work DIR] --self-check
#
# Exports REV and the working tree (tracked files plus untracked ones git
# does not ignore) with `git archive`, then for each workload (default:
# every workload in BENCHMARK.json) runs N pairs, or PAIRS where given, of
#
#   benchmark/run.sh --workload W --seed S --seconds SECONDS --trace T
#
# one from each export, seeds 1, 2, ...: REV runs first on odd seeds and the
# working tree on even ones. Each export builds its harness once, on its
# first run, into a target directory under DIR named after what it
# builds: the resolved commit id, or the working tree's tree id. An export
# keeps its commit's file times, so a directory shared by two revisions
# would let cargo take the first one's binary for fresh. REV = HEAD is the
# A/A mode: it measures the spread of every metric on the host at hand.
#
# --self-check proves that keying on a throwaway repository: it commits a
# one-line binary, then a change to it dated a year earlier, exports and
# builds each the way the pairs do, and fails unless the second build runs
# the second commit's code. It needs only cargo and takes a few seconds.
#
# Writes FILE (default pairs.json): the host the runs shared, and for
# each workload and metric the median, quartiles, count and raw values
# of each side, plus how many pairs the working tree won (its value
# strictly better in the metric's direction from BENCHMARK.json).
# scripts/bench_schema.jq checks the layout. Raw outputs stay in
# DIR/runs (default DIR: target/pairs).
set -euo pipefail

usage() {
    sed -n '4,6p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
}

out=pairs.json
seconds=12
trace=0
repo=$(git rev-parse --show-toplevel)
work=$repo/target/pairs
self_check=0
while [ $# -gt 0 ]; do
    case "$1" in
    --self-check)
        self_check=1
        shift
        continue
        ;;
    --out) out=$2 ;;
    --seconds) seconds=$2 ;;
    --trace) trace=$2 ;;
    --work) work=$2 ;;
    -*) usage ;;
    *) break ;;
    esac
    shift 2
done

export_to() { # repo id dir
    rm -rf "$3"
    mkdir -p "$3"
    git -C "$1" archive "$2" | tar -x -C "$3"
}

# The one build directory an export of ID may use.
build_dir() { # id
    echo "$work/build/$1"
}

if [ $self_check -eq 1 ]; then
    [ $# -eq 0 ] || usage
    check=$work/self-check
    rm -rf "$check"
    mkdir -p "$check/repo/src"
    commit() { # message date
        printf 'fn main() {\n    println!("%s");\n}\n' "$1" >"$check/repo/src/main.rs"
        git -C "$check/repo" add -A
        GIT_AUTHOR_DATE=$2 GIT_COMMITTER_DATE=$2 git -C "$check/repo" \
            -c user.name=pairs -c user.email=pairs@localhost commit -q -m "$1"
        git -C "$check/repo" rev-parse HEAD
    }
    git -C "$check/repo" init -q
    # `[workspace]` keeps cargo from adopting the crate into an enclosing
    # workspace, such as this repository's when DIR lies inside it.
    printf '[package]\nname = "stamp"\nversion = "0.1.0"\nedition = "2021"\n\n[workspace]\n' \
        >"$check/repo/Cargo.toml"
    newer=$(commit newer "2020-06-01T00:00:00Z")
    older=$(commit older "2019-06-01T00:00:00Z")
    for id in "$newer" "$older"; do
        export_to "$check/repo" "$id" "$check/rev"
        CARGO_TARGET_DIR=$(build_dir "$id") cargo build -q --offline \
            --manifest-path "$check/rev/Cargo.toml"
        got=$("$(build_dir "$id")/debug/stamp")
        want=$(git -C "$check/repo" log -1 --format=%s "$id")
        if [ "$got" != "$want" ]; then
            echo "pairs: self-check failed: the build of $want ran $got's binary" >&2
            exit 1
        fi
    done
    rm -rf "$check" "$(build_dir "$newer")" "$(build_dir "$older")"
    echo "pairs: self-check passed" >&2
    exit 0
fi

[ $# -ge 2 ] || usage
rev=$(git -C "$repo" rev-parse --verify "$1^{commit}")
pairs=$2
shift 2
[[ $pairs =~ ^[1-9][0-9]*$ ]] || usage
if [ $# -gt 0 ]; then
    workloads=("$@")
else
    mapfile -t workloads < <(jq -r '.workloads[].name' "$repo/BENCHMARK.json")
fi

# The working tree as a tree object, through a throwaway index so the
# real one is left alone.
mkdir -p "$work"
index=$work/index
cp "$(git -C "$repo" rev-parse --absolute-git-dir)/index" "$index"
GIT_INDEX_FILE=$index git -C "$repo" add -A
tree=$(GIT_INDEX_FILE=$index git -C "$repo" write-tree)
rm -f "$index"

export_to "$repo" "$rev" "$work/rev"
export_to "$repo" "$tree" "$work/tree"
# Builds of other revisions are never read again; keep the disk bounded.
mkdir -p "$work/build"
find "$work/build" -mindepth 1 -maxdepth 1 ! -name "$rev" ! -name "$tree" \
    -exec rm -rf {} +
declare -A id=([rev]=$rev [tree]=$tree)
rm -rf "$work/runs"
mkdir -p "$work/runs"

# Keep run.sh's `git rev-parse` from finding the enclosing repository.
export GIT_CEILING_DIRECTORIES=$work

run() { # side workload seed
    local log=$work/runs/$2.$3.$1
    echo "pairs: $2 seed $3 $1" >&2
    if ! CARGO_TARGET_DIR=$(build_dir "${id[$1]}") bash "$work/$1/benchmark/run.sh" \
        --workload "$2" --seed "$3" --seconds "$seconds" --trace "$trace" \
        >"$log.out" 2>"$log.err"; then
        echo "pairs: $1 failed on $2 seed $3; see $log.err" >&2
        exit 1
    fi
}

for spec in "${workloads[@]}"; do
    workload=${spec%%:*}
    count=$pairs
    [ "$spec" = "$workload" ] || count=${spec#*:}
    [[ $count =~ ^[1-9][0-9]*$ ]] || usage
    for seed in $(seq 1 "$count"); do
        if [ $((seed % 2)) -eq 1 ]; then
            run rev "$workload" "$seed"
            run tree "$workload" "$seed"
        else
            run tree "$workload" "$seed"
            run rev "$workload" "$seed"
        fi
    done
done

# The first line of a run's output is its host object, the last its result.
for f in "$work"/runs/*.out; do
    jq -c -n --arg file "$(basename "$f")" \
        --argjson host "$(head -n 1 "$f")" --argjson result "$(tail -n 1 "$f")" \
        '{file: $file, host: $host.host, result: $result}'
done | jq -s \
    --arg rev "$rev" \
    --arg head "$(git -C "$repo" rev-parse HEAD)" \
    --arg tree "$tree" \
    --arg utc "$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
    --argjson seconds "$seconds" \
    --argjson trace "$trace" \
    --slurpfile bench "$repo/BENCHMARK.json" '
  def quantile(p): sort as $x | ($x | length) as $n | (($n - 1) * p) as $h
    | ($h | floor) as $i
    | if $i + 1 < $n then $x[$i] + ($h - $i) * ($x[$i + 1] - $x[$i]) else $x[$i] end;
  def stats: {median: quantile(0.5), q1: quantile(0.25), q3: quantile(0.75),
              n: length, values: .};
  ($bench[0] | [.end_to_end[], .per_layer[]] | map({(.name): .better}) | add) as $better
  | map(. + (.file | split(".") | {workload: .[0], seed: (.[1] | tonumber), side: .[2]}))
  | {
      schema: "tracon-pairs/1",
      utc: $utc,
      rev: $rev,
      change: {head: $head, tree: $tree},
      seconds: $seconds,
      trace: $trace,
      host: (.[0].host | del(.git_commit)),
      workloads: (group_by(.workload) | map({(.[0].workload): (
        . as $runs
        | ($runs | map(select(.side == "rev")) | sort_by(.seed)) as $a
        | ($runs | map(select(.side == "tree")) | sort_by(.seed)) as $b
        | ($a | length) as $pairs
        | {
            pairs: $pairs,
            attempted: {rev: ($a | map(.result.attempted) | add),
                        change: ($b | map(.result.attempted) | add)},
            failed: {rev: ($a | map(.result.failed) | add),
                     change: ($b | map(.result.failed) | add)},
            metrics: ($a[0].result.metrics | keys | map(. as $m | {($m): {
              unit: $a[0].result.metrics[$m].unit,
              better: ($better[$m] // "lower"),
              rev: ($a | map(.result.metrics[$m].value) | stats),
              change: ($b | map(.result.metrics[$m].value) | stats),
              pairs_won: ([range(0; $pairs)
                | ($a[.].result.metrics[$m].value) as $x
                | ($b[.].result.metrics[$m].value) as $y
                | select(if ($better[$m] // "lower") == "higher" then $y > $x else $y < $x end)]
                | length)
            }}) | add)
          }
      )}) | add)
    }' >"$out.tmp"
jq -e -f "$repo/scripts/bench_schema.jq" "$out.tmp" >/dev/null
mv "$out.tmp" "$out"
echo "pairs: wrote $out" >&2
