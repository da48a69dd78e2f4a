//! Seeded, deterministic fault injection for the simulator.
//!
//! A [`FaultPlan`] is generated *before* the run from a seed and a
//! [`FaultConfig`]: machine crash/recovery times drawn from exponential
//! MTTF/MTTR distributions, plus pure functions deciding per
//! `(task, attempt)` whether an execution fails at completion and whether
//! it straggles (runs at a reduced rate). Everything is derived from the
//! seed with `tracon_stats::prng`'s SplitMix64 — no RNG crate — so a
//! plan is bit-identical across platforms, builds, and runs, which is
//! what makes the `ext_faults` experiment reproducible.
//!
//! Fault model (documented in DESIGN.md §9):
//! * **Machine crash**: every task in flight on the machine loses all
//!   progress (fail-stop, restart-from-scratch) and is requeued through
//!   the scheduler, which re-places it interference-aware on the surviving
//!   machines. The machine's slots vanish from the free index until the
//!   paired recovery event.
//! * **Task failure**: decided per attempt; the execution runs to its
//!   (interference-scaled) end and then fails, wasting the full runtime —
//!   the conservative fail-at-completion convention.
//! * **Straggler**: an attempt may run at `1 / straggler_slowdown` of the
//!   pair rate (both work and I/O), modelling a degraded replica.
//! * A task is **abandoned** after `max_attempts` failed executions
//!   (crash evictions count as failed attempts).

use tracon_stats::prng::{mix64, SplitMix64, GAMMA};

/// Parameters of the fault model. All probabilities are per attempt.
#[derive(Debug, Clone, Copy)]
pub struct FaultConfig {
    /// Mean time to failure per machine, seconds (`0` disables crashes).
    pub machine_mttf_s: f64,
    /// Mean time to recovery once a machine is down, seconds.
    pub machine_mttr_s: f64,
    /// Probability that one task execution fails at completion.
    pub task_fail_prob: f64,
    /// Executions allowed per task before it is abandoned (>= 1).
    pub max_attempts: u32,
    /// Probability that one execution straggles.
    pub straggler_prob: f64,
    /// Rate divisor applied to a straggling execution (> 1).
    pub straggler_slowdown: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            machine_mttf_s: 1800.0,
            machine_mttr_s: 120.0,
            task_fail_prob: 0.05,
            max_attempts: 4,
            straggler_prob: 0.05,
            straggler_slowdown: 2.5,
        }
    }
}

/// One scheduled machine state transition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineFaultEvent {
    /// Simulation time of the transition.
    pub time: f64,
    /// Machine index.
    pub machine: usize,
    /// `true` = recovery, `false` = crash.
    pub up: bool,
}

/// A pre-generated, seed-deterministic fault schedule.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Machine crash/recovery transitions, sorted by time.
    pub machine_events: Vec<MachineFaultEvent>,
    cfg: FaultConfig,
    seed: u64,
}

const TAG_FAIL: u64 = 0x7461_736b_6661_696c; // "taskfail"
const TAG_STRAGGLE: u64 = 0x7374_7261_6767_6c65; // "straggle"
const TAG_MACHINE: u64 = 0x6d61_6368_696e_6573; // "machines"

/// The first splitmix64 draw from state `z` — the one-shot hash this
/// module builds every deterministic decision from.
fn mix(z: u64) -> u64 {
    mix64(z.wrapping_add(GAMMA))
}

/// The per-machine stream: splitmix64 one step past state `mix(seed)`
/// (this module's generator always mixed `state + GAMMA`).
fn stream(seed: u64) -> SplitMix64 {
    SplitMix64::new(mix(seed).wrapping_add(GAMMA))
}

/// Exponential with the given mean.
fn next_exp(s: &mut SplitMix64, mean: f64) -> f64 {
    -mean * (1.0 - u01(s.next_u64())).ln()
}

fn u01(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

fn decision(seed: u64, tag: u64, task_id: u64, attempt: u32) -> f64 {
    u01(mix(seed
        ^ tag
        ^ mix(task_id)
        ^ mix(0x5bd1_e995 ^ u64::from(attempt))))
}

impl FaultPlan {
    /// The empty plan: no crashes, no failures, no stragglers. Running
    /// under it is bit-identical to running without a plan at all.
    pub fn none() -> FaultPlan {
        FaultPlan {
            machine_events: Vec::new(),
            cfg: FaultConfig {
                machine_mttf_s: 0.0,
                machine_mttr_s: 0.0,
                task_fail_prob: 0.0,
                max_attempts: u32::MAX,
                straggler_prob: 0.0,
                straggler_slowdown: 1.0,
            },
            seed: 0,
        }
    }

    /// Generates the plan for `n_machines` machines over `horizon_s`
    /// seconds. Per machine, an alternating up/down renewal process is
    /// drawn from `Exp(mttf)` / `Exp(mttr)`; the per-task decisions are
    /// derived lazily from the seed.
    ///
    /// # Panics
    /// Panics when `max_attempts` is zero, `machine_mttr_s` is not
    /// positive while crashes are enabled, or `straggler_slowdown < 1`.
    pub fn generate(cfg: FaultConfig, n_machines: usize, horizon_s: f64, seed: u64) -> FaultPlan {
        assert!(cfg.max_attempts >= 1, "max_attempts must be at least 1");
        assert!(
            cfg.straggler_slowdown >= 1.0,
            "straggler_slowdown must be >= 1"
        );
        let mut machine_events = Vec::new();
        if cfg.machine_mttf_s > 0.0 {
            assert!(
                cfg.machine_mttr_s > 0.0,
                "machine_mttr_s must be positive when crashes are enabled"
            );
            for machine in 0..n_machines {
                let mut s = stream(seed ^ TAG_MACHINE ^ mix(machine as u64));
                let mut t = 0.0;
                loop {
                    t += next_exp(&mut s, cfg.machine_mttf_s);
                    if t > horizon_s {
                        break;
                    }
                    machine_events.push(MachineFaultEvent {
                        time: t,
                        machine,
                        up: false,
                    });
                    t += next_exp(&mut s, cfg.machine_mttr_s);
                    if t > horizon_s {
                        break; // stays down past the horizon
                    }
                    machine_events.push(MachineFaultEvent {
                        time: t,
                        machine,
                        up: true,
                    });
                }
            }
            machine_events
                .sort_by(|a, b| a.time.total_cmp(&b.time).then(a.machine.cmp(&b.machine)));
        }
        FaultPlan {
            machine_events,
            cfg,
            seed,
        }
    }

    /// The configuration the plan was generated from.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Whether the plan can never perturb a run.
    pub fn is_empty(&self) -> bool {
        self.machine_events.is_empty()
            && self.cfg.task_fail_prob <= 0.0
            && self.cfg.straggler_prob <= 0.0
    }

    /// Whether execution `attempt` (0-based) of `task_id` fails at
    /// completion. Pure in `(seed, task_id, attempt)`.
    pub fn attempt_fails(&self, task_id: u64, attempt: u32) -> bool {
        self.cfg.task_fail_prob > 0.0
            && decision(self.seed, TAG_FAIL, task_id, attempt) < self.cfg.task_fail_prob
    }

    /// The rate divisor for execution `attempt` of `task_id` (1.0 =
    /// nominal). Pure in `(seed, task_id, attempt)`.
    pub fn straggler_slowdown(&self, task_id: u64, attempt: u32) -> f64 {
        if self.cfg.straggler_prob > 0.0
            && decision(self.seed, TAG_STRAGGLE, task_id, attempt) < self.cfg.straggler_prob
        {
            self.cfg.straggler_slowdown
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = FaultConfig::default();
        let a = FaultPlan::generate(cfg, 16, 7200.0, 42);
        let b = FaultPlan::generate(cfg, 16, 7200.0, 42);
        assert_eq!(a.machine_events, b.machine_events);
        assert!(!a.machine_events.is_empty(), "16 machines x 4 MTTF spans");
        for (x, y) in a.machine_events.iter().zip(a.machine_events.iter().skip(1)) {
            assert!(x.time <= y.time, "events must be time-sorted");
        }
    }

    /// Known answers from the build before the generator moved to
    /// `tracon_stats::prng`; `ext_faults` replays only while they hold.
    /// Times go through `ln`, so they are held to 1e-9 rather than to the
    /// bit; one wrong draw moves them by seconds.
    #[test]
    fn plan_for_seed_42_is_pinned() {
        let cfg = FaultConfig {
            task_fail_prob: 0.5,
            straggler_prob: 0.25,
            ..FaultConfig::default()
        };
        let plan = FaultPlan::generate(cfg, 4, 7200.0, 42);
        assert_eq!(plan.machine_events.len(), 34);
        let want = [
            (17.018449969881775, 3, false),
            (30.660848939351204, 3, true),
            (1115.500640677282, 2, false),
            (1444.364227047619, 2, true),
        ];
        for (e, (time, machine, up)) in plan.machine_events.iter().zip(want) {
            assert!((e.time - time).abs() < 1e-9, "{e:?} vs {time}");
            assert_eq!((e.machine, e.up), (machine, up));
        }
        let (mut fails, mut stragglers) = (0u64, 0u64);
        for task in 0..64u64 {
            let attempt = (task % 3) as u32;
            fails |= u64::from(plan.attempt_fails(task, attempt)) << task;
            stragglers |= u64::from(plan.straggler_slowdown(task, attempt) > 1.0) << task;
        }
        assert_eq!(fails, 0x6fb4_6e29_6646_5536, "{fails:#018x}");
        assert_eq!(stragglers, 0x804a_0050_8004_024c, "{stragglers:#018x}");
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = FaultConfig::default();
        let a = FaultPlan::generate(cfg, 16, 7200.0, 1);
        let b = FaultPlan::generate(cfg, 16, 7200.0, 2);
        assert_ne!(a.machine_events, b.machine_events);
    }

    #[test]
    fn crash_and_recovery_alternate_per_machine() {
        let plan = FaultPlan::generate(FaultConfig::default(), 8, 36_000.0, 7);
        for m in 0..8 {
            let mut expect_up = false;
            for e in plan.machine_events.iter().filter(|e| e.machine == m) {
                assert_eq!(e.up, expect_up, "machine {m} transitions must alternate");
                expect_up = !expect_up;
            }
        }
    }

    #[test]
    fn task_decisions_are_pure_and_attempt_dependent() {
        let plan = FaultPlan::generate(
            FaultConfig {
                task_fail_prob: 0.5,
                ..FaultConfig::default()
            },
            4,
            100.0,
            9,
        );
        for task in 0..50u64 {
            for attempt in 0..3u32 {
                assert_eq!(
                    plan.attempt_fails(task, attempt),
                    plan.attempt_fails(task, attempt)
                );
            }
        }
        // With p = 0.5 over 200 decisions, both outcomes must occur.
        let fails = (0..100u64)
            .flat_map(|t| (0..2u32).map(move |a| (t, a)))
            .filter(|&(t, a)| plan.attempt_fails(t, a))
            .count();
        assert!(fails > 20 && fails < 180, "fails = {fails}");
    }

    #[test]
    fn empty_plan_never_perturbs() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        assert!(plan.machine_events.is_empty());
        for task in 0..100u64 {
            assert!(!plan.attempt_fails(task, 0));
            assert_eq!(plan.straggler_slowdown(task, 0), 1.0);
        }
    }

    #[test]
    fn zero_mttf_disables_crashes() {
        let plan = FaultPlan::generate(
            FaultConfig {
                machine_mttf_s: 0.0,
                machine_mttr_s: 0.0,
                ..FaultConfig::default()
            },
            64,
            1e6,
            3,
        );
        assert!(plan.machine_events.is_empty());
    }

    #[test]
    fn stragglers_use_configured_slowdown() {
        let plan = FaultPlan::generate(
            FaultConfig {
                straggler_prob: 1.0,
                straggler_slowdown: 3.0,
                ..FaultConfig::default()
            },
            4,
            100.0,
            11,
        );
        assert_eq!(plan.straggler_slowdown(1, 0), 3.0);
    }
}
