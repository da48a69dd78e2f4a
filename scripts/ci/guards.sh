#!/usr/bin/env bash
# Structural guards: identifiers that must not grow back, functions only
# named callers may call, and the repository checks that are not tests.
#
#   bash scripts/ci/guards.sh        (from the repository root)
#
# Every check names the paths it searches. A path that is gone fails the
# check: grep exits 2 on it, and a bare `if grep …; then exit 1; fi`
# would read that as "no match" and pass.
set -euo pipefail
cd "$(dirname "$0")/../.."

fail() {
    echo "guard failed: $*" >&2
    exit 1
}

# matches GREP-ARGS...: the lines grep prints, with "no match" as no
# lines; any other grep failure (a missing path, a bad pattern) stops the
# script.
matches() {
    local status=0
    grep "$@" || status=$?
    [ "$status" -le 1 ] || fail "grep $* exited $status"
}

# forbid WHY GREP-ARGS...: no line may match.
forbid() {
    local why=$1 found
    shift
    found=$(matches "$@")
    [ -z "$found" ] || fail "$why"$'\n'"$found"
}

# only_in WHY FILES GREP-ARGS...: every match lies in a file the
# extended regex FILES accepts at the start of grep's `path:` prefix.
only_in() {
    local why=$1 files=$2 found
    shift 2
    found=$(matches "$@")
    found=$(grep -vE "$files" <<<"$found" || true)
    [ -z "$found" ] || fail "$why"$'\n'"$found"
}

# code_of FILE: the file up to its first `#[cfg(test)]`, i.e. the code
# that ships.
code_of() {
    [ -f "$1" ] || fail "$1 is missing"
    sed '/#\[cfg(test)\]/q' "$1"
}

# Tasks stay home: a task lives on the shard its id names, so the
# work-steal machinery and its tombstones must not grow back.
forbid "work stealing grew back (tasks stay home)" \
    -rnE 'steal_queued|inject_stolen|migrate_out|migrate_in|migrated_to|OutMsg::Redirect|RecState::Migrated' crates/serve/src

# One restore: recovered state enters a shard through `Service::restore`
# alone. The pieces it replaced must not come back beside it, and only
# `shard::restore_shards` and the worker's `Promote` may call it.
forbid "a replaced restore step came back (one restore)" \
    -rnE 'adopt_recovered|attach_wal|align_next_task_id' crates src tests --include='*.rs'
only_in "\`.restore(\` called outside shard.rs and daemon.rs (one restore)" \
    '^crates/serve/src/(shard|daemon)\.rs:' \
    -rnE '\.restore\(' crates src tests --include='*.rs'

# One owner for shard durability health: event lines leave through
# `Metrics::event` alone, and the deciders it replaced stay gone.
only_in "a \`tracond event=\` line outside metrics.rs (one emitter)" \
    '^crates/serve/src/metrics\.rs:' \
    -rn 'tracond event=' crates/serve/src
forbid "a replaced durability-health decider came back (one owner)" \
    -rnE 'quarantine_shard|pending_repair|set_wal_degraded' crates src tests --include='*.rs'

# One gate: dcsim and tracond ask `tracon_core::sched::gate` when to run
# the scheduler. The copies it replaced must not come back, and
# `has_idle_machine` (defined and unit-tested in cluster.rs) is called by
# the gate alone.
forbid "a second dispatch gate grew back (one gate)" \
    -rnE 'DispatchPolicy|batch_deadline_ms|batch_window' crates src --include='*.rs'
only_in "\`has_idle_machine()\` called outside the gate (one gate)" \
    '^crates/core/src/sched/(gate|cluster)\.rs:' \
    -rn 'has_idle_machine()' crates src tests --include='*.rs'

# One free-slot index: `ClusterState` keeps its free slots in one sorted
# vector of class bitsets, and no B-tree grows back beside it.
forbid "a B-tree grew back beside the free-slot index (one free index)" \
    -nE 'BTreeMap|BTreeSet' crates/core/src/sched/cluster.rs

# MIX searches a table: MIBS and MIX decide on a free-class table and
# only the winning picks reach `ClusterState`. MIX's search never places
# or clears on the live cluster, and the helpers the table replaced stay
# gone.
found=$(code_of crates/core/src/sched/mix.rs | matches -nE '\.(place|clear)\(')
[ -z "$found" ] || fail "MIX places or clears on the live cluster (MIX searches a table)"$'\n'"$found"
forbid "a helper the free-class table replaced came back (MIX searches a table)" \
    -rnE 'place_best_with|excess_scores_into' crates src tests --include='*.rs'

# One decision surface: every scheduler but FIFO decides on the free
# table and only `sched::apply` places its picks, so outside tests
# `.place(` appears under `sched/` only in `apply` (mod.rs), FIFO and the
# cluster itself, and the per-task helpers the table replaced stay gone
# (`\b` spares the reference `ref_place_best`).
for f in crates/core/src/sched/*.rs; do
    case "$f" in */mod.rs | */fifo.rs | */cluster.rs) continue ;; esac
    found=$(code_of "$f" | matches -nE '\.place\(')
    [ -z "$found" ] || fail "$f places (one decision surface)"$'\n'"$found"
done
forbid "a per-task helper the table replaced came back (one decision surface)" \
    -rnE '\bplace_best\b|free_classes_into|excess_class_score' crates src tests examples --include='*.rs'

# One homogeneous cluster, as in the paper: simulator fault injection and
# heterogeneous machine classes were removed, and neither grows back into
# the kernel or the decision surface.
forbid "machine classes or fault injection grew back (one homogeneous cluster)" \
    -rnE 'MachineClass|FaultPlan|MachineFault|mclass|set_machine_classes|with_faults|mm1_slowdown' crates src tests examples --include='*.rs'

# One model per app: the monitor's rebuild is the only training, and the
# predictor handed to the scheduler holds the monitors' own models, so
# neither a retrain-on-export, a borrowed-or-owned predictor nor an
# unbounded per-observation history grows back.
forbid "a second model path grew back (one model)" \
    -rnE 'export_model|PredictorSource|new_owned|error_history|ScoringPolicy<' crates src tests examples --include='*.rs'

# One monitor: TRACON's per-app monitor loop is `tracon_core::Monitor`,
# which the simulator and tracond both drive. The simulator's copy must
# not grow back, and tracond reaches the monitor without the event
# kernel's trait, its idle sentinel or a hand-written seeding.
forbid "the simulator's monitor type grew back (one monitor)" \
    -rn 'AdaptiveObserver' crates src tests examples
forbid "tracond reaches the monitor through the event kernel (one monitor)" \
    -rnE 'SimObserver|\bIDLE\b|training_data' crates/serve/src

# No demand surface: as in the paper, interference is priced from the
# four profiled characteristics and a task states no resource demand.
# The demand vector and its plumbing must not grow back, and shipped
# serve code names no `demand` key: the wire drops it as an unknown key.
forbid "the resource-demand surface grew back (no demand surface)" \
    -rnE 'DimVec|ResourceDim|N_DIMS|submit_with_demand|field_demand' crates src tests examples
for f in crates/serve/src/*.rs crates/serve/src/*/*.rs; do
    found=$(code_of "$f" | matches -n '"demand"')
    [ -z "$found" ] || fail "$f names a \`demand\` key in shipped code (no demand surface)"$'\n'"$found"
done

# One fluid model, spelled once: a second engine must not grow back
# beside `vmsim::Engine`.
n=$(matches -rn 'fn solve_step' crates/vmsim/src | wc -l)
[ "$n" -eq 1 ] || fail "\`fn solve_step\` appears $n times in crates/vmsim/src, not once (one engine)"
forbid "a second engine grew back (one engine)" \
    -rnE 'MultiEngine|GuestState' crates src tests examples benchmark \
    README.md DESIGN.md EXPERIMENTS.md

# One thread per job in tracond: the reactor answers HTTP in its poll
# loop and one replication thread acts for the node's role, so no
# per-connection thread, no unnamed spawn and none of the threads they
# replaced grows back in shipped code.
for f in crates/serve/src/*.rs crates/serve/src/*/*.rs; do
    found=$(code_of "$f" | matches -nE 'conn_threads|reap_finished|scrub_loop|rejoin_supervisor|tracond-(http|scrub|rejoin|follow)|thread::spawn')
    [ -z "$found" ] || fail "$f spawns or names a thread the reactor or tracond-repl replaced (one thread per job)"$'\n'"$found"
done

# No stale events: a neighbour change cancels the slot's queued
# completion in the dcsim kernel, so every event the main loop pops is
# live. The per-slot version that recognised a stale completion and the
# group extraction that let one close a coincidence group (and drop its
# dispatch) must not come back in shipped code.
for f in crates/dcsim/src/*.rs crates/dcsim/src/*/*.rs; do
    found=$(code_of "$f" | matches -nE 'base_version|pop_coincident_into')
    [ -z "$found" ] || fail "$f brings back a stale-event piece (no stale events)"$'\n'"$found"
done

# One pool: the profiling campaign fans its runs out through
# `tracon_core::par` alone, as the Fig 8 and Figs 9-12 sweeps do, so no
# per-benchmark thread or channel grows back in shipped set-up code.
found=$(code_of crates/dcsim/src/setup.rs | matches -nE 'thread::scope|thread::spawn|mpsc')
[ -z "$found" ] || fail "crates/dcsim/src/setup.rs starts its own threads (one pool)"$'\n'"$found"

# One scheduler catalogue: `tracon_core::SchedulerKind` lists the
# schedulers, parses their spellings and builds them. tracond and the CLI
# must not grow their own enum or parser back, and a scheduler does not
# name itself (the kind's `Display` is the one name).
for f in crates/serve/src/*.rs crates/serve/src/*/*.rs crates/cli/src/*.rs crates/core/src/sched/*.rs; do
    found=$(code_of "$f" | matches -nE 'enum SchedKind|fn scheduler_kind|fn name\(&self\) -> String')
    [ -z "$found" ] || fail "$f keeps its own scheduler list, parser or name (one scheduler catalogue)"$'\n'"$found"
done

# No test harness in shipped code: the replication harness `repl::sim`
# builds its own testbed and drives a seeded virtual link for its tests
# alone, so it compiles only under `cfg(test)`. Shipped tracond code is
# handed a testbed and never builds one or names the campaign's
# configuration; sim.rs is skipped because the first check keeps it
# test-only.
found=$(code_of crates/serve/src/repl/mod.rs | matches -nE '\bmod sim\b')
[ -z "$found" ] || fail "crates/serve/src/repl/mod.rs ships the replication harness (no test harness in shipped code)"$'\n'"$found"
for f in crates/serve/src/*.rs crates/serve/src/*/*.rs; do
    [ "$f" = crates/serve/src/repl/sim.rs ] && continue
    found=$(code_of "$f" | matches -nE 'Testbed::build|TestbedConfig')
    [ -z "$found" ] || fail "$f builds a testbed in shipped code (no test harness in shipped code)"$'\n'"$found"
done

# Every committed `BENCH_*.json` has the layout `scripts/pairs.sh` writes.
for f in BENCH_*.json; do
    [ -e "$f" ] || continue
    jq -e -f scripts/bench_schema.jq "$f" >/dev/null || fail "$f does not keep the pairs schema"
done

# `pairs.sh` must not run one revision's benchmark build for another.
bash scripts/pairs.sh --self-check

echo "guards passed"
