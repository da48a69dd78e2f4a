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
# The engine ships one solve, on fixed-size arrays per guest count: the
# code before engine.rs's test module (its first unindented
# `#[cfg(test)]`; the audit hooks inside the run are indented) has one
# `fn solve…`, no private struct holding a `Vec`, and names `Vec` only
# in the public outcome's fields, `Vec::new()` for its samples and the
# phase list of `observe_endless`'s timer app. The
# `Vec` fixed point the engine is checked against stays in the test
# module.
engine=crates/vmsim/src/engine.rs
[ -f "$engine" ] || fail "$engine is missing"
shipped=$(sed '/^#\[cfg(test)\]/q' "$engine")
n=$(matches -cE '\bfn solve' <<<"$shipped")
[ "$n" -eq 1 ] || fail "$engine ships $n solves, not one (one engine)"
found=$(awk '/^(pub\([a-z]+\) )?struct /,/^}/' <<<"$shipped" | matches -n 'Vec')
[ -z "$found" ] || fail "$engine keeps run state in a Vec (one engine, fixed-size)"$'\n'"$found"
found=$(matches -nE '\bVec\b|vec!' <<<"$shipped" |
    matches -vE '^[0-9]+:\s*(//|pub [a-z_]+: Vec<)|Vec::new\(\)|AppModel::new\(')
[ -z "$found" ] || fail "$engine builds a Vec outside its outcome (one engine, fixed-size)"$'\n'"$found"
found=$(matches -n 'reference_solve' <<<"$shipped")
[ -z "$found" ] || fail "$engine ships its reference solve (one engine)"$'\n'"$found"
grep -q 'fn reference_solve' "$engine" || fail "$engine has no reference solve in its test module (one engine)"

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
# `tracon_core::par` alone, as the batch and dynamic sweeps do, so no
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

# One durability path: a shard is durable only through its `Wal`, and
# the replication harness runs the daemon's WAL code with the cadence it
# was built with. The knobs that kept a WAL-less copy alive stay gone.
forbid "a WAL-less durability knob came back (one durability path)" \
    -rnE 'set_snapshot_every|frames_len' crates/serve/src

# A cheap durability stage: a group commit writes each WAL payload
# straight into its frame buffer and a compaction writes the snapshot
# document straight into one string, so the shipped write path builds no
# JSON tree. `WalRecord::encode` stays for the replication wire, and the
# tree encoders stay as test references.
for f in crates/serve/src/wal.rs crates/serve/src/state.rs; do
    found=$(code_of "$f" | matches -nF 'encode().to_string()')
    [ -z "$found" ] || fail "$f frames a WAL record through a JSON tree (a cheap durability stage)"$'\n'"$found"
done
found=$(code_of crates/serve/src/table.rs | matches -nF 'json::obj(')
[ -z "$found" ] || fail "crates/serve/src/table.rs builds the snapshot as a JSON tree (a cheap durability stage)"$'\n'"$found"

# One sweep: Figs 9-12 are four `Figure` rows of `experiments::sweep`,
# evaluated by its one `run` over a (machines, mix, λ) grid. The four
# driver modules, their result types and the sweep they shared stay gone.
forbid "a Figs 9-12 driver grew back beside the sweep (one sweep)" \
    -rnE 'fn dynamic_sweep\b|struct Fig(9|10|11|12)\b|experiments::fig(9|10|11|12)' crates src tests --include='*.rs'

# One batch sweep: Figs 4 and 8 and the MIBS ablation are three `Batch`
# rows of `experiments::batch`, evaluated by its one `run` over (mix,
# machines) cells with one FIFO baseline per trace. The three driver
# modules and their result types stay gone.
forbid "a static-batch driver grew back beside the batch sweep (one batch sweep)" \
    -rnE 'struct (Fig4|Fig4Bar|Fig8|Fig8Point|ExtAblation|AblationRow)\b|experiments::(fig4|fig8|ext_ablation)\b' crates src tests --include='*.rs'

# One client loop: `tracon loadgen` runs one driver over a heap of due
# actions, and chaos mode is that driver plus sabotage. The second driver,
# its config and the chase loop that polled beside it stay gone.
forbid "a second load-generator loop grew back (one client loop)" \
    -rnE 'fn run_chaos\b|struct ChaosConfig\b|fn chase\b' crates

# Every committed `BENCH_*.json` has the layout `scripts/pairs.sh` writes.
for f in BENCH_*.json; do
    [ -e "$f" ] || continue
    jq -e -f scripts/bench_schema.jq "$f" >/dev/null || fail "$f does not keep the pairs schema"
done

# `pairs.sh` must not run one revision's benchmark build for another.
bash scripts/pairs.sh --self-check

echo "guards passed"
