//! Fluid co-run engine: simulates N applications in N guest VMs sharing
//! one virtualized host (Dom0 + N DomU over one CPU pool and one disk),
//! producing runtimes, I/O throughputs, and the per-VM resource
//! characteristics that TRACON's monitor would sample with xentop/iostat.
//! The paper's testbed is the N = 2 case ([`Engine::co_run`]); the
//! consolidation-density extension runs the same code with more guests.
//!
//! Each step the engine solves a small fixed point: application progress
//! rates determine CPU and I/O demands; the credit scheduler and the disk
//! allocate capacity for those demands; the allocations bound the progress
//! rates. A damped iteration converges in a handful of rounds, in buffers
//! sized once per run, allocating nothing. It runs only when its inputs
//! change: a step whose inputs repeat the last solve's bit for bit reuses
//! that answer, and a throttled guest restarts from the same rate on every
//! step until its next phase boundary. Inside a solve the disk allocation
//! is reused the same way (see [`DiskAllocation`]). In one build of the
//! full-fidelity testbed (time scale 0.25), 1 036 786 of the 1 263 051
//! steps (82.1 %) reuse a solve, the solves run 1 426 640 damped rounds,
//! and of the rounds' disk allocations 548 691 (38.5 %) are computed,
//! 171 920 (12.1 %) reuse the utilizations under a new path efficiency and
//! 706 029 (49.5 %) repeat a whole round. These counts are exact under the
//! campaign's seeds; `tests::counted_work_holds_still` pins them for a few
//! smaller runs.

use crate::app::{AppModel, Phase};
use crate::config::HostConfig;
use crate::cpu::fair_share;
use crate::disk::{Disk, DiskAllocation, IoDemand};
use tracon_stats::prng::ChaCha12;

/// The resource characteristics TRACON's monitor observes for one VM:
/// read and write request rates (iostat in Dom0), the guest's own CPU
/// utilization (xentop), and the Dom0 CPU utilization attributable to the
/// VM's I/O handling.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct VmObservation {
    /// Served read requests per second.
    pub read_rps: f64,
    /// Served write requests per second.
    pub write_rps: f64,
    /// Guest vCPU utilization in `[0, 1]`.
    pub cpu_util: f64,
    /// Dom0 CPU utilization attributed to this VM's I/O.
    pub dom0_util: f64,
}

impl VmObservation {
    /// The observation as the model's 4-feature vector
    /// `[read_rps, write_rps, cpu_util, dom0_util]`.
    pub fn as_features(&self) -> [f64; 4] {
        [self.read_rps, self.write_rps, self.cpu_util, self.dom0_util]
    }

    /// Adds `dt` seconds at the given rates to a time integral.
    fn accumulate(&mut self, rates: &VmObservation, dt: f64) {
        self.read_rps += rates.read_rps * dt;
        self.write_rps += rates.write_rps * dt;
        self.cpu_util += rates.cpu_util * dt;
        self.dom0_util += rates.dom0_util * dt;
    }

    /// The average rates of a time integral over `duration_s` seconds.
    fn averaged_over(&self, duration_s: f64) -> VmObservation {
        VmObservation {
            read_rps: self.read_rps / duration_s,
            write_rps: self.write_rps / duration_s,
            cpu_util: self.cpu_util / duration_s,
            dom0_util: self.dom0_util / duration_s,
        }
    }
}

/// One periodic monitor sample during a co-run.
#[derive(Debug, Clone)]
pub struct IntervalSample {
    /// Sample timestamp (end of interval), seconds.
    pub time: f64,
    /// Per-VM observations during the interval, one per guest.
    pub vms: Vec<VmObservation>,
    /// Total Dom0 CPU utilization during the interval.
    pub dom0_total: f64,
}

/// Outcome of a co-run of N applications, indexed by guest.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Whether each application ran to completion (endless apps never do).
    pub finished: Vec<bool>,
    /// Wall-clock runtime of each application, seconds. For endless
    /// applications this is the time they were simulated.
    pub runtime: Vec<f64>,
    /// Average served IOPS of each application over its active time.
    pub iops: Vec<f64>,
    /// Average observed characteristics of each VM over its active time.
    pub observed: Vec<VmObservation>,
    /// Average total Dom0 CPU utilization over the run.
    pub dom0_total: f64,
    /// Periodic monitor samples (empty unless sampling was requested).
    pub samples: Vec<IntervalSample>,
}

/// Outcome of a co-run of two applications: [`RunOutcome`] at N = 2.
#[derive(Debug, Clone)]
pub struct CoRunOutcome {
    /// Whether each application ran to completion (endless apps never do).
    pub finished: [bool; 2],
    /// Wall-clock runtime of each application, seconds. For endless
    /// applications this is the time they were simulated.
    pub runtime: [f64; 2],
    /// Average served IOPS of each application over its active time.
    pub iops: [f64; 2],
    /// Average observed characteristics of each VM over its active time.
    pub observed: [VmObservation; 2],
    /// Average total Dom0 CPU utilization over the run.
    pub dom0_total: f64,
    /// Periodic monitor samples (empty unless sampling was requested).
    pub samples: Vec<IntervalSample>,
}

/// Per-guest simulation state.
struct Guest<'a> {
    app: &'a AppModel,
    phase_idx: usize,
    /// Progress inside the current phase, in nominal seconds.
    phase_progress: f64,
    /// Jittered copy of the current phase.
    current: Phase,
    done: bool,
    /// When the application finished (meaningful once `done`).
    finished_at: f64,
    // Time integrals of the served rates over the guest's active time
    // and over the current sample window.
    active_time: f64,
    served: VmObservation,
    window: VmObservation,
}

impl<'a> Guest<'a> {
    fn new(app: &'a AppModel, rng: &mut ChaCha12) -> Self {
        Guest {
            app,
            phase_idx: 0,
            phase_progress: 0.0,
            current: jittered(app, app.phases[0], rng),
            done: false,
            finished_at: 0.0,
            active_time: 0.0,
            served: VmObservation::default(),
            window: VmObservation::default(),
        }
    }

    /// I/O request rate of the current phase at full speed (0 once done).
    fn io_rps(&self) -> f64 {
        if self.done {
            0.0
        } else {
            self.current.io_rps()
        }
    }

    /// Advances phase progress; returns true when the application finished.
    fn advance(&mut self, progress_s: f64, rng: &mut ChaCha12) -> bool {
        self.phase_progress += progress_s;
        while self.phase_progress >= self.current.nominal_s - 1e-12 {
            self.phase_progress -= self.current.nominal_s;
            self.phase_idx += 1;
            if self.phase_idx >= self.app.phases.len() {
                if self.app.endless {
                    self.phase_idx = 0;
                } else {
                    self.done = true;
                    return true;
                }
            }
            self.current = jittered(self.app, self.app.phases[self.phase_idx], rng);
        }
        false
    }
}

/// `base` with the application's per-phase jitter applied.
fn jittered(app: &AppModel, base: Phase, rng: &mut ChaCha12) -> Phase {
    if app.jitter <= 0.0 {
        return base;
    }
    let draw = |rng: &mut ChaCha12| -> f64 {
        (1.0 + tracon_stats::dist::normal(rng, 0.0, app.jitter)).max(0.1)
    };
    Phase {
        nominal_s: base.nominal_s * draw(rng),
        read_rps: base.read_rps * draw(rng),
        write_rps: base.write_rps * draw(rng),
        cpu: base.cpu * draw(rng),
        ..base
    }
}

/// The buffers of one run, sized once for its guest count so that
/// [`Engine::solve_step`] allocates nothing. CPU vectors have `n + 1`
/// slots with Dom0 at index 0; the rest have one slot per guest.
#[derive(Clone)]
struct Scratch {
    /// The inputs of the last solve as raw bits, one row per guest: its
    /// `done` flag, the six phase fields the fixed point reads, and its
    /// starting rate `rates[i].max(0.5)`.
    key: Vec<[u64; 8]>,
    /// Progress-rate multiplier of each guest, carried across steps to
    /// warm-start the fixed point.
    rates: Vec<f64>,
    weights: Vec<f64>,
    /// CPU demands if no guest were ever blocked on I/O, and at the
    /// current rate estimate, with the fair-share allocation of each.
    full_demand: Vec<f64>,
    full_alloc: Vec<f64>,
    actual_demand: Vec<f64>,
    actual_alloc: Vec<f64>,
    /// CPU-feasible rates, the I/O they would issue, the disk's answer.
    r_cpu: Vec<f64>,
    io: Vec<IoDemand>,
    disk: DiskAllocation,
    // The step's resolved allocation: CPU consumed by each guest, total
    // Dom0 CPU, and the Dom0 CPU attributed to each guest's I/O.
    cpu_alloc: Vec<f64>,
    dom0_used: f64,
    dom0_attrib: Vec<f64>,
}

impl Scratch {
    fn new(cfg: &HostConfig, n: usize) -> Self {
        let mut weights = vec![cfg.guest_weight; n + 1];
        weights[0] = cfg.dom0_weight;
        Scratch {
            // A `done` word of all ones matches no guest: the first step solves.
            key: vec![[u64::MAX; 8]; n],
            rates: vec![1.0; n],
            weights,
            full_demand: vec![0.0; n + 1],
            full_alloc: vec![0.0; n + 1],
            actual_demand: vec![0.0; n + 1],
            actual_alloc: vec![0.0; n + 1],
            r_cpu: vec![0.0; n],
            io: vec![IoDemand::default(); n],
            disk: DiskAllocation::default(),
            cpu_alloc: vec![0.0; n],
            dom0_used: 0.0,
            dom0_attrib: vec![0.0; n],
        }
    }

    /// Stores this step's solve inputs in `key` and says whether they are
    /// the last solve's, bit for bit. A guest throttled below 0.5 restarts
    /// from 0.5 and one at full speed from 1.0, so until the next phase
    /// boundary most steps repeat the step before.
    fn repeats_last_solve(&mut self, guests: &[Guest]) -> bool {
        let mut same = true;
        for ((g, r), key) in guests.iter().zip(&self.rates).zip(&mut self.key) {
            let ph = &g.current;
            let now = [
                u64::from(g.done),
                ph.read_rps.to_bits(),
                ph.write_rps.to_bits(),
                ph.cpu.to_bits(),
                ph.background_cpu.to_bits(),
                ph.req_kb.to_bits(),
                ph.sequentiality.to_bits(),
                r.max(0.5).to_bits(),
            ];
            // An xor-or fold compares the words inline: `==` on the arrays
            // is a `bcmp` call per guest per step.
            same &= key.iter().zip(&now).fold(0, |acc, (a, b)| acc | (a ^ b)) == 0;
            *key = now;
        }
        same
    }
}

/// The co-run engine for one host.
#[derive(Debug, Clone)]
pub struct Engine {
    cfg: HostConfig,
    disk: Disk,
    /// Interval between monitor samples; `None` disables sampling.
    pub sample_interval: Option<f64>,
}

impl Engine {
    /// Creates an engine for the given host configuration.
    pub fn new(cfg: HostConfig) -> Self {
        let disk = Disk::new(cfg.disk);
        Engine {
            cfg,
            disk,
            sample_interval: None,
        }
    }

    /// Host configuration in use.
    pub fn config(&self) -> &HostConfig {
        &self.cfg
    }

    /// Enables periodic monitor sampling at the given interval (seconds).
    pub fn with_sampling(mut self, interval_s: f64) -> Self {
        assert!(interval_s > 0.0, "sample interval must be positive");
        self.sample_interval = Some(interval_s);
        self
    }

    /// Runs `app` alone on the host (the other VM idle) and returns its
    /// outcome. Convenience wrapper over [`Engine::co_run`].
    pub fn solo_run(&self, app: &AppModel, seed: u64) -> CoRunOutcome {
        self.co_run(app, &crate::apps::idle(), seed)
    }

    /// Measures the steady-state characteristics of an *endless*
    /// application running alone, by observing it for `duration_s`
    /// seconds against a zero-demand timer VM.
    pub fn observe_endless(&self, app: &AppModel, duration_s: f64, seed: u64) -> VmObservation {
        assert!(duration_s > 0.0, "non-positive observation window");
        let timer = AppModel::new("timer", vec![Phase::compute(duration_s, 0.0)]);
        let out = self.co_run(&timer, app, seed);
        out.observed[1]
    }

    /// Co-runs two applications, the paper's two-VM testbed:
    /// [`Engine::run`] at N = 2.
    pub fn co_run(&self, app1: &AppModel, app2: &AppModel, seed: u64) -> CoRunOutcome {
        let out = self.run(&[app1, app2], seed);
        CoRunOutcome {
            finished: [out.finished[0], out.finished[1]],
            runtime: [out.runtime[0], out.runtime[1]],
            iops: [out.iops[0], out.iops[1]],
            observed: [out.observed[0], out.observed[1]],
            dom0_total: out.dom0_total,
            samples: out.samples,
        }
    }

    /// Co-runs `apps` (one per guest VM) from t = 0 until every finite
    /// application completes (an application that finishes first leaves
    /// its VM idle, so the survivors finish with less interference,
    /// exactly as on the real testbed).
    ///
    /// # Panics
    /// Panics when no application is finite, or if the simulation exceeds
    /// `max_sim_time` (a mis-calibrated model).
    pub fn run(&self, apps: &[&AppModel], seed: u64) -> RunOutcome {
        assert!(
            apps.iter().any(|a| !a.endless),
            "a co-run of only endless applications never terminates"
        );
        let mut rng = ChaCha12::seed_from_u64(seed);
        let mut guests: Vec<Guest> = apps.iter().map(|a| Guest::new(a, &mut rng)).collect();
        let mut s = Scratch::new(&self.cfg, guests.len());
        let mut t = 0.0f64;
        let mut dom0_seconds = 0.0f64;
        let mut samples = Vec::new();
        // The current sample window.
        let mut win_start = 0.0f64;
        let mut win_dom0 = 0.0f64;
        let sampling = self.sample_interval.is_some();

        // An endless background stops mattering once all finite apps are
        // done, so this loop condition is the right one.
        while guests.iter().any(|g| !g.done && !g.app.endless) {
            assert!(
                t < self.cfg.max_sim_time,
                "co-run of {} exceeded max_sim_time={}s",
                apps.iter()
                    .map(|a| a.name.as_str())
                    .collect::<Vec<_>>()
                    .join(" and "),
                self.cfg.max_sim_time
            );
            // The fixed point is a pure function of its key, so a step that
            // repeats the last solve's key finds its answer in `s` already.
            let reused = s.repeats_last_solve(&guests);
            if !reused {
                self.solve_step(&guests, &mut s);
            }
            #[cfg(test)]
            tests::audit_step(self, &guests, &s, reused);

            // Choose dt: cap at dt_max and at each active VM's remaining
            // phase time so phase boundaries are hit exactly.
            let mut dt = self.cfg.dt_max;
            for (g, r) in guests.iter().zip(&s.rates) {
                if g.done || *r <= 1e-9 {
                    continue;
                }
                let remaining = (g.current.nominal_s - g.phase_progress).max(1e-9);
                dt = dt.min(remaining / r);
            }
            // Also stop exactly at the sampling boundary.
            if let Some(si) = self.sample_interval {
                let next_sample = win_start + si;
                if t + dt > next_sample {
                    dt = (next_sample - t).max(1e-9);
                }
            }

            // Advance state and accumulate metrics.
            for (i, g) in guests.iter_mut().enumerate() {
                if g.done {
                    continue;
                }
                // The converged rate multiplier already reflects the disk
                // throttle, so served I/O is simply rate x demand.
                let r = s.rates[i];
                let served = VmObservation {
                    read_rps: r * g.current.read_rps,
                    write_rps: r * g.current.write_rps,
                    cpu_util: s.cpu_alloc[i],
                    dom0_util: s.dom0_attrib[i],
                };
                g.served.accumulate(&served, dt);
                if sampling {
                    g.window.accumulate(&served, dt);
                }
                g.active_time += dt;
                if g.advance(r * dt, &mut rng) {
                    g.finished_at = t + dt;
                }
            }
            dom0_seconds += s.dom0_used * dt;
            win_dom0 += s.dom0_used * dt;
            t += dt;

            // Emit a monitor sample at interval boundaries.
            if self
                .sample_interval
                .is_some_and(|si| t - win_start >= si - 1e-9)
            {
                let dur = (t - win_start).max(1e-9);
                samples.push(IntervalSample {
                    time: t,
                    vms: guests
                        .iter_mut()
                        .map(|g| std::mem::take(&mut g.window).averaged_over(dur))
                        .collect(),
                    dom0_total: win_dom0 / dur,
                });
                win_dom0 = 0.0;
                win_start = t;
            }
        }

        let active = |g: &Guest| g.active_time.max(1e-9);
        RunOutcome {
            finished: guests.iter().map(|g| g.done).collect(),
            runtime: guests
                .iter()
                .map(|g| if g.done { g.finished_at } else { t })
                .collect(),
            iops: guests
                .iter()
                .map(|g| (g.served.read_rps + g.served.write_rps) / active(g))
                .collect(),
            observed: guests
                .iter()
                .map(|g| g.served.averaged_over(active(g)))
                .collect(),
            dom0_total: dom0_seconds / t.max(1e-9),
            samples,
        }
    }

    /// One fixed-point resolution of progress rates, CPU allocation, and
    /// disk service for the guests' current phases: updates `s.rates` and
    /// leaves the step's allocation in `s.cpu_alloc`, `s.dom0_used` and
    /// `s.dom0_attrib`. It reads only what [`Scratch::repeats_last_solve`]
    /// keys on (and the engine's constants), and writes every other
    /// buffer before reading it.
    fn solve_step(&self, guests: &[Guest], s: &mut Scratch) {
        let cfg = &self.cfg;
        // Start optimistic: warm-start from the previous step's rates but
        // allow recovering to full speed.
        //
        // Full-speed CPU demands: what each guest would consume if it were
        // never blocked on I/O. These drive the *feasibility* allocation —
        // the credit scheduler is work-conserving, so a guest's potential
        // share is its fair-share entitlement against the others' full
        // demands, not against their momentary (I/O-throttled) usage.
        for (i, g) in guests.iter().enumerate() {
            let ph = &g.current;
            (s.rates[i], s.full_demand[i + 1]) = if g.done {
                (0.0, 0.0)
            } else {
                (s.rates[i].max(0.5), (ph.background_cpu + ph.cpu).min(1.0))
            };
        }

        for _ in 0..24 {
            #[cfg(test)]
            tests::count(|c| c.rounds += 1);
            // --- Dom0 demand tracks the achieved I/O rates.
            let io_rps: f64 = guests
                .iter()
                .zip(&s.rates)
                .map(|(g, r)| r * g.io_rps())
                .sum();
            let dom0_demand = cfg.dom0_base_cpu + io_rps * cfg.dom0_cost_per_req_s;
            s.full_demand[0] = dom0_demand;
            fair_share(
                cfg.cpu_capacity,
                &s.full_demand,
                &s.weights,
                &mut s.full_alloc,
            );

            // --- Actual CPU consumption at the current rate estimate (for
            // Dom0 starvation, the overload penalty, and metric recording).
            s.actual_demand[0] = dom0_demand;
            for (i, g) in guests.iter().enumerate() {
                let ph = &g.current;
                s.actual_demand[i + 1] = if g.done {
                    0.0
                } else {
                    (ph.background_cpu + s.rates[i] * ph.cpu).min(1.0)
                };
            }
            fair_share(
                cfg.cpu_capacity,
                &s.actual_demand,
                &s.weights,
                &mut s.actual_alloc,
            );

            // --- I/O path efficiency: Dom0 CPU starvation plus the
            // scheduling-latency penalty under host CPU saturation. When
            // the runnable vCPUs saturate the host, Dom0's wakeups are
            // delayed by whole scheduling timeslices instead of being
            // nearly instant, so every I/O pays extra latency. The demand
            // measure counts runnable pressure (background burners stay
            // runnable even when I/O progress is throttled).
            let starvation = (s.actual_alloc[0] / dom0_demand.max(1e-9)).clamp(0.0, 1.0);
            // Folded left from Dom0: summing the guests first rounds
            // differently, and every pinned number was measured this way.
            let total_demand = s.actual_demand[1..]
                .iter()
                .fold(dom0_demand, |sum, d| sum + d);
            let saturation = ((total_demand - 0.9 * cfg.cpu_capacity) / (0.15 * cfg.cpu_capacity))
                .clamp(0.0, 1.0);
            // The timeslice-latency penalty only bites when the device is
            // actually interleaving multiple streams: a single stream's
            // deep request queue hides Dom0's wakeup latency, which is why
            // a pure CPU burner barely slows a lone sequential reader
            // (Table 1: 1.03x) while the same burner added to an I/O-heavy
            // neighbour amplifies 10.23x into 16.11x.
            let streaming = guests.iter().filter(|g| g.io_rps() > 1e-9).count();
            let latency_penalty = if streaming >= 2 {
                1.0 / (1.0 + cfg.dom0_latency_gamma * saturation)
            } else {
                1.0
            };
            let path_eff = (starvation * latency_penalty).clamp(1e-6, 1.0);

            // --- CPU-feasible rates from the entitlement allocation, and
            // the disk's allocation for the request rates they imply. The
            // progress-coupled (I/O-driving) work has priority inside the
            // guest: a mostly-blocked I/O loop is always runnable the
            // moment its request completes, while the background burner
            // only absorbs leftover cycles.
            for (i, g) in guests.iter().enumerate() {
                let ph = &g.current;
                (s.r_cpu[i], s.io[i]) = if g.done {
                    (0.0, IoDemand::default())
                } else {
                    let r_cpu = if ph.cpu > 1e-12 {
                        (s.full_alloc[i + 1] / ph.cpu).min(1.0)
                    } else {
                        1.0
                    };
                    let io = IoDemand {
                        read_rps: r_cpu * ph.read_rps,
                        write_rps: r_cpu * ph.write_rps,
                        req_kb: ph.req_kb,
                        sequentiality: ph.sequentiality,
                    };
                    (r_cpu, io)
                };
            }
            self.disk.allocate(&s.io, path_eff, &mut s.disk);

            // --- New rate estimates and damped update.
            let mut max_delta = 0.0f64;
            for (i, g) in guests.iter().enumerate() {
                if g.done {
                    continue;
                }
                let r_io = if g.io_rps() > 1e-12 {
                    s.r_cpu[i] * s.disk.fractions[i]
                } else {
                    s.r_cpu[i]
                };
                let damped = 0.5 * s.rates[i] + 0.5 * r_io.clamp(0.0, 1.0);
                max_delta = max_delta.max((damped - s.rates[i]).abs());
                s.rates[i] = damped;
            }
            if max_delta < 1e-4 {
                break;
            }
        }

        // Record the allocation corresponding to the final rates (which
        // already carry the disk throttle via the rate update) and the
        // last iteration's CPU allocation. `dom0_attrib` first holds the
        // served request rates, then each guest's share of Dom0's I/O CPU.
        for (i, g) in guests.iter().enumerate() {
            s.dom0_attrib[i] = s.rates[i] * g.io_rps();
        }
        let total_served: f64 = s.dom0_attrib.iter().sum();
        s.dom0_used = (cfg.dom0_base_cpu + total_served * cfg.dom0_cost_per_req_s)
            .min(s.actual_alloc[0].max(cfg.dom0_base_cpu));
        let dom0_io = (s.dom0_used - cfg.dom0_base_cpu).max(0.0);
        for (i, g) in guests.iter().enumerate() {
            s.cpu_alloc[i] = if g.done {
                0.0
            } else {
                // Progress-coupled CPU first, background burn fills
                // whatever allocation remains.
                let alloc = s.actual_alloc[i + 1];
                let coupled = (s.rates[i] * g.current.cpu).min(alloc);
                coupled + g.current.background_cpu.min(alloc - coupled)
            };
            s.dom0_attrib[i] = if total_served > 1e-9 {
                dom0_io * s.dom0_attrib[i] / total_served
            } else {
                0.0
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{apps, disk};
    use std::cell::Cell;
    use tracon_stats::prng::check_cases;

    fn engine() -> Engine {
        Engine::new(HostConfig::testbed())
    }

    /// Counted work of an audited run: its steps, the steps that reused
    /// the last solve, the fixed point's damped rounds, and how its disk
    /// allocations went. Exact under a seed.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub(super) struct Counts {
        steps: u64,
        reused: u64,
        pub(super) rounds: u64,
        disk: disk::tests::Counts,
    }

    thread_local! {
        /// The counts of the audited run on this thread, or `None` when no
        /// audit is running.
        static AUDIT: Cell<Option<Counts>> = const { Cell::new(None) };
    }

    /// Updates the running audit's counts, if any.
    pub(super) fn count(f: impl FnOnce(&mut Counts)) {
        if let Some(mut c) = AUDIT.get() {
            f(&mut c);
            AUDIT.set(Some(c));
        }
    }

    /// Called by [`Engine::run`] after every step's solve. While an audit
    /// runs it counts the step and, when the step reused the last solve,
    /// solves it afresh, on a copy of the scratch with an empty disk
    /// memo, and compares the four outputs bit for bit. The fresh solve
    /// is not counted.
    pub(super) fn audit_step(e: &Engine, guests: &[Guest], s: &Scratch, reused: bool) {
        if AUDIT.get().is_none() {
            return;
        }
        count(|c| {
            c.steps += 1;
            c.reused += u64::from(reused);
        });
        if reused {
            let (saved, saved_disk) = (AUDIT.get(), disk::tests::counts());
            let mut fresh = s.clone();
            fresh.disk = DiskAllocation::default();
            e.solve_step(guests, &mut fresh);
            AUDIT.set(saved);
            disk::tests::set_counts(saved_disk);
            let outputs = |s: &Scratch| -> Vec<u64> {
                s.rates
                    .iter()
                    .chain(&s.cpu_alloc)
                    .chain(&s.dom0_attrib)
                    .chain([&s.dom0_used])
                    .map(|x| x.to_bits())
                    .collect()
            };
            let steps = saved.map_or(0, |c| c.steps);
            assert_eq!(
                outputs(s),
                outputs(&fresh),
                "step {steps} reused a solve that a fresh solve does not reproduce"
            );
        }
    }

    /// Runs `f` under the audit and returns its counts.
    fn audited(f: impl FnOnce()) -> Counts {
        let disk_before = disk::tests::counts();
        AUDIT.set(Some(Counts::default()));
        f();
        let mut c = AUDIT.take().expect("the audit ran");
        c.disk = disk::tests::counts().since(disk_before);
        c
    }

    /// An application of 1–4 phases. Each field of a phase is drawn from
    /// a few values (zeros of both signs among them) or, after the first
    /// phase, kept from the phase before with probability 1/2, so phase
    /// boundaries that change one field, or only the sign of a zero, are
    /// common.
    fn random_app(rng: &mut ChaCha12) -> AppModel {
        const VALUES: [&[f64]; 7] = [
            &[0.5, 2.0, 5.0],
            &[0.0, -0.0, 40.0, 265.0],
            &[0.0, -0.0, 30.0, 240.0],
            &[4.0, 64.0, 256.0],
            &[0.0, 0.5, 0.97],
            &[0.0, -0.0, 0.06, 0.4, 0.9],
            &[0.0, 0.5, 1.0],
        ];
        let mut f = [0.0; 7];
        let phases = (0..rng.range_usize(1, 5))
            .map(|k| {
                for (field, values) in f.iter_mut().zip(VALUES) {
                    if k == 0 || rng.range_usize(0, 2) == 0 {
                        *field = values[rng.range_usize(0, values.len())];
                    }
                }
                Phase {
                    nominal_s: f[0],
                    read_rps: f[1],
                    write_rps: f[2],
                    req_kb: f[3],
                    sequentiality: f[4],
                    cpu: f[5],
                    background_cpu: f[6],
                }
            })
            .collect();
        let mut app = AppModel::new("random", phases);
        app.jitter = [0.0, 0.1][rng.range_usize(0, 2)];
        app.endless = rng.range_usize(0, 3) == 0;
        app
    }

    #[test]
    fn reused_solves_match_a_fresh_solve() {
        // A throttled reader next to an I/O-heavy background re-solves
        // the same inputs until a phase boundary.
        let c = audited(|| {
            engine().co_run(&apps::seq_read(), &apps::synthetic(0.0, 1.0, 1.0), 1);
        });
        assert!(
            2 * c.reused >= c.steps,
            "seq_read | io-high reused {} of {} steps",
            c.reused,
            c.steps
        );

        let (mut steps, mut reuses) = (0, 0);
        check_cases(0..300, |rng| {
            let mut guests: Vec<AppModel> = (0..rng.range_usize(1, 5))
                .map(|_| random_app(rng))
                .collect();
            guests[0].endless = false;
            let host = ["local", "iscsi"][rng.range_usize(0, 2)];
            let mut e = Engine::new(HostConfig::class(host));
            if rng.range_usize(0, 3) == 0 {
                e = e.with_sampling(rng.range_f64(0.5, 5.0));
            }
            let seed = rng.next_u64();
            let apps: Vec<&AppModel> = guests.iter().collect();
            let c = audited(|| {
                e.run(&apps, seed);
            });
            steps += c.steps;
            reuses += c.reused;
        });
        assert!(
            reuses > 0 && reuses < steps,
            "random runs reused {reuses} of {steps} steps"
        );
    }

    /// Counted work, pinned exactly: it does not drift with the host the
    /// way wall time does, so a change that adds or saves work shows here
    /// first. The audited reader of `reused_solves_match_a_fresh_solve`,
    /// then five seeded random runs as that test draws them.
    #[test]
    fn counted_work_holds_still() {
        let counts = |steps, reused, rounds, [computed, reweighted, repeated]: [u64; 3]| Counts {
            steps,
            reused,
            rounds,
            disk: disk::tests::Counts {
                computed,
                reweighted,
                repeated,
            },
        };
        let reader = audited(|| {
            engine().co_run(&apps::seq_read(), &apps::synthetic(0.0, 1.0, 1.0), 1);
        });
        let mut runs = vec![reader];
        check_cases(0..5, |rng| {
            let mut guests: Vec<AppModel> = (0..rng.range_usize(1, 5))
                .map(|_| random_app(rng))
                .collect();
            guests[0].endless = false;
            let host = ["local", "iscsi"][rng.range_usize(0, 2)];
            let mut e = Engine::new(HostConfig::class(host));
            if rng.range_usize(0, 3) == 0 {
                e = e.with_sampling(rng.range_f64(0.5, 5.0));
            }
            let seed = rng.next_u64();
            let apps: Vec<&AppModel> = guests.iter().collect();
            runs.push(audited(|| {
                e.run(&apps, seed);
            }));
        });
        // (steps, reused steps, rounds, [disk rounds computed, reweighted,
        // repeated]).
        let pinned = [
            counts(8946, 8944, 26, [1, 0, 25]),
            counts(1609, 1590, 247, [246, 1, 0]),
            counts(134, 106, 97, [34, 0, 63]),
            counts(90, 62, 198, [173, 0, 25]),
            counts(21, 16, 36, [2, 0, 34]),
            counts(45, 35, 126, [126, 0, 0]),
        ];
        assert_eq!(runs, pinned);
    }

    #[test]
    fn calc_solo_runs_at_nominal_speed() {
        let out = engine().solo_run(&apps::calc(), 1);
        assert!(out.finished[0]);
        let nominal = apps::calc().nominal_runtime();
        assert!(
            (out.runtime[0] - nominal).abs() / nominal < 0.02,
            "runtime {} vs nominal {nominal}",
            out.runtime[0]
        );
        assert!(out.iops[0] < 1e-9);
        assert!(out.observed[0].cpu_util > 0.95);
    }

    #[test]
    fn seqread_solo_runs_at_nominal_speed() {
        let out = engine().solo_run(&apps::seq_read(), 1);
        let nominal = apps::seq_read().nominal_runtime();
        assert!(
            (out.runtime[0] - nominal).abs() / nominal < 0.05,
            "runtime {} vs nominal {nominal}",
            out.runtime[0]
        );
        // Served IOPS near the demanded rate.
        assert!(out.iops[0] > 240.0, "iops = {}", out.iops[0]);
        assert!(
            out.observed[0].dom0_util > 0.05,
            "dom0 = {}",
            out.observed[0].dom0_util
        );
    }

    #[test]
    fn two_calcs_double_runtime() {
        // Table 1 row 1, column CPU-high: ~2x.
        let e = engine();
        let solo = e.solo_run(&apps::calc(), 1).runtime[0];
        let co = e.co_run(&apps::calc(), &apps::calc(), 2);
        let slowdown = co.runtime[0] / solo;
        assert!((1.85..2.15).contains(&slowdown), "slowdown = {slowdown}");
    }

    #[test]
    fn calc_vs_io_high_mild_slowdown() {
        // Table 1 row 1, column I/O-high: ~1.26x.
        let e = engine();
        let solo = e.solo_run(&apps::calc(), 1).runtime[0];
        let co = e.co_run(&apps::calc(), &apps::synthetic(0.0, 1.0, 1.0), 2);
        let slowdown = co.runtime[0] / solo;
        assert!((1.05..1.6).contains(&slowdown), "slowdown = {slowdown}");
    }

    #[test]
    fn seqread_vs_cpu_high_unaffected() {
        // Table 1 row 2, column CPU-high: ~1.03x.
        let e = engine();
        let solo = e.solo_run(&apps::seq_read(), 1).runtime[0];
        let co = e.co_run(&apps::seq_read(), &apps::synthetic(1.0, 0.0, 0.0), 2);
        let slowdown = co.runtime[0] / solo;
        assert!((0.98..1.2).contains(&slowdown), "slowdown = {slowdown}");
    }

    #[test]
    fn seqread_vs_io_high_collapses() {
        // Table 1 row 2, column I/O-high: order-of-magnitude slowdown.
        let e = engine();
        let solo = e.solo_run(&apps::seq_read(), 1).runtime[0];
        let co = e.co_run(&apps::seq_read(), &apps::synthetic(0.0, 1.0, 1.0), 2);
        let slowdown = co.runtime[0] / solo;
        assert!((6.0..15.0).contains(&slowdown), "slowdown = {slowdown}");
    }

    #[test]
    fn seqread_vs_cpu_io_high_is_worst() {
        // Table 1 row 2: CPU&I/O-high must exceed I/O-high (16.11 > 10.23).
        let e = engine();
        let io_high = e.co_run(&apps::seq_read(), &apps::synthetic(0.0, 1.0, 1.0), 2);
        let both_high = e.co_run(&apps::seq_read(), &apps::synthetic(1.0, 1.0, 1.0), 2);
        assert!(
            both_high.runtime[0] > io_high.runtime[0] * 1.2,
            "both={} io={}",
            both_high.runtime[0],
            io_high.runtime[0]
        );
    }

    #[test]
    fn endless_background_never_finishes() {
        let out = engine().co_run(&apps::calc(), &apps::synthetic(0.5, 0.5, 0.0), 3);
        assert!(out.finished[0]);
        assert!(!out.finished[1]);
        assert_eq!(out.runtime[0], out.runtime[1]); // background simulated as long as calc ran
    }

    #[test]
    #[should_panic(expected = "never terminates")]
    fn two_endless_apps_panic() {
        engine().co_run(&apps::idle(), &apps::idle(), 1);
    }

    #[test]
    fn sampling_produces_intervals() {
        let e = engine().with_sampling(5.0);
        let out = e.solo_run(&apps::seq_read(), 1);
        assert!(!out.samples.is_empty());
        // Samples roughly every 5 seconds over a ~300 s run.
        assert!(out.samples.len() >= 50, "samples = {}", out.samples.len());
        let s = &out.samples[10];
        assert!(s.vms[0].read_rps > 100.0);
        assert!(s.vms[1].read_rps < 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let e = engine();
        let a = e.co_run(&apps::compile(), &apps::synthetic(0.5, 0.25, 0.0), 42);
        let b = e.co_run(&apps::compile(), &apps::synthetic(0.5, 0.25, 0.0), 42);
        assert_eq!(a.runtime[0], b.runtime[0]);
        assert_eq!(a.iops[0], b.iops[0]);
    }

    #[test]
    fn jitter_varies_across_seeds() {
        let e = engine();
        let a = e.solo_run(&apps::compile(), 1).runtime[0];
        let b = e.solo_run(&apps::compile(), 2).runtime[0];
        assert!(
            (a - b).abs() > 1e-6,
            "jittered runs should differ: {a} vs {b}"
        );
    }

    #[test]
    fn finished_app_leaves_idle_vm() {
        // calc (300 s) vs video (~360 s nominal): after calc ends, video
        // should speed back up; total runtime of video under calc must be
        // well below 2x nominal.
        let e = engine();
        let video = apps::video();
        let co = e.co_run(&apps::calc(), &video, 5);
        assert!(co.finished[0] && co.finished[1]);
        assert!(co.runtime[1] < video.nominal_runtime() * 2.0);
    }

    #[test]
    fn observed_characteristics_are_consistent() {
        let e = engine();
        let out = e.co_run(&apps::blastn(), &apps::synthetic(0.25, 0.5, 0.25), 7);
        let o = &out.observed[0];
        // blastn reads far more than it writes.
        assert!(o.read_rps > 10.0 * o.write_rps.max(1e-9));
        assert!(o.cpu_util > 0.1 && o.cpu_util <= 1.0);
        assert!(o.dom0_util >= 0.0 && o.dom0_util < 1.0);
        let total = o.read_rps + o.write_rps;
        assert!((total - out.iops[0]).abs() < 1e-6);
    }

    /// `runtime`, `iops`, `observed` and `dom0_total` as raw bits.
    fn outcome_bits(out: &CoRunOutcome) -> Vec<u64> {
        let mut bits = Vec::new();
        bits.extend(out.runtime.map(f64::to_bits));
        bits.extend(out.iops.map(f64::to_bits));
        for o in &out.observed {
            bits.extend(o.as_features().map(f64::to_bits));
        }
        bits.push(out.dom0_total.to_bits());
        bits
    }

    /// What the array-based two-VM engine produced for these runs,
    /// recorded at `6913ca3` (the last commit that had it) by this same
    /// code. This is what `multi::two_guests_match_pair_engine` compared
    /// within 2 %, now held bit for bit: the N-guest fixed point at N = 2
    /// keeps the pair engine's iteration cap, fold order and RNG draw
    /// order (the last two runs are there because they are sensitive to
    /// the first two). The sampled run ends with its sample count and one
    /// FNV-1a word over every sample.
    #[rustfmt::skip]
    const PAIR_ENGINE_BITS: &[(&str, &[u64])] = &[
    ("calc|calc", &[
        0x4082d75cfcd319b1, 0x4082d75cfcd319b1, 0x0000000000000000, 0x0000000000000000,
        0x0000000000000000, 0x0000000000000000, 0x3fdfd70a3d70a1b6, 0x0000000000000000,
        0x0000000000000000, 0x0000000000000000, 0x3fdfd70a3d70a1b6, 0x0000000000000000,
        0x3f747ae147ae1563,
    ]),
    ("seq_read|io-high", &[
        0x40a1760f9029a0ef, 0x40a1760f9029a0ef, 0x4041c8f54d69a092, 0x40483a0c3bbcba84,
        0x4041c8f54d69a092, 0x0000000000000000, 0x3f807e6571a41207, 0x3f92363aad7a7db4,
        0x403d1275147c163c, 0x403361a362fd5ecd, 0x3f87d0dc6e2b7cd5, 0x3f98cee59d6d4e5e,
        0x3fa811ec4e69a817,
    ]),
    ("video|dedup", &[
        0x407041ba8fc1382a, 0x406ffec021ec22b8, 0x40483d8d095e33de, 0x40443e3a94103737,
        0x4043d2bfcfe6b5d5, 0x4021ab34e5ddf823, 0x3fb07e7d9bdfd5bc, 0x3f98d27a8bbbb7d9,
        0x403c50f8c4e3fec0, 0x402856f8c678df5d, 0x3faebb6c9ada5378, 0x3f94ba9a3137848c,
        0x3fa92b98d364a96c,
    ]),
    ("solo compile", &[
        0x40421f2ecb437b84, 0x40421f2ecb437b84, 0x40548da776053543, 0x0000000000000000,
        0x404b32106feae66d, 0x403bd27cf83f0834, 0x3fe1507eb1d2a6aa, 0x3fa50be00915eb7b,
        0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
        0x3fa79b3c320bae0b,
    ]),
    ("observe_endless", &[
        0x4032c00000000000, 0x4029000000000000, 0x3fe170a3d70a3d7b, 0x3f90000000000000,
    ]),
    ("iscsi video|dedup", &[
        0x4087ff23a7e70708, 0x4087ff23a7e70708, 0x402f952bc9c3d608, 0x402d9fee2ee62747,
        0x40298c10a1ad4416, 0x4008246ca05a47c5, 0x3f959f827ba413ac, 0x3f802b9b8a1ea2d7,
        0x4024b373ad4b781f, 0x4011d8f503355e50, 0x3f9576dd2784f564, 0x3f7e55f1da02328f,
        0x3f94ca028d7b6322,
    ]),
    ("sampled video|dedup", &[
        0x407296fd1e0d5de2, 0x407296fd1e0d5de2, 0x4045a68e0a4afe46, 0x4044516cc74217b2,
        0x40416ff79eaa8fd9, 0x4020da59ae81b9b3, 0x3fab55c0f9d04d57, 0x3f962b937f46a647,
        0x403ceca3a24bca9a, 0x40276c6bd870c994, 0x3fad4f499d32d199, 0x3f94ce425541a193,
        0x3fa80c471339e653, 0x000000000000003b, 0xf6b78a7163ede053,
    ]),
    ("blastp|grid[3]", &[
        0x4057d9c177300f01, 0x4057d9c177300f01, 0x404088f830bd0c12, 0x4040504f2debc749,
        0x403f2a87f6b52965, 0x3ffe7686ac4eebec, 0x3fec9a9907999c88, 0x3f90ee8c95f86e8e,
        0x0000000000000000, 0x4040504f2debc749, 0x3facd102ef8326de, 0x3f90b4878d413c1b,
        0x3fa360e63a9297e0,
    ]),
    ("email|grid[79]", &[
        0x40578cdfb5e06744, 0x40578cdfb5e06744, 0x40322344c9ec1334, 0x405aca4654ec0218,
        0x40200a271807207d, 0x40243c627bd105ea, 0x3fb4b8818bdb103f, 0x3f8292b36b455ab8,
        0x0000000000000000, 0x405aca4654ec0218, 0x3fe933400c8395ac, 0x3fab6edcf2f5804a,
        0x3fb15172fb5e4cc6,
    ]),
    ];

    #[test]
    fn pair_engine_bits_hold_still() {
        let e = engine();
        let video = apps::Benchmark::Video.model().time_scaled(0.1);
        let dedup = apps::Benchmark::Dedup.model().time_scaled(0.1);
        let compile = apps::Benchmark::Compile.model().time_scaled(0.1);
        let sampled = e
            .clone()
            .with_sampling(5.0)
            .co_run(&video, &dedup.as_endless(), 4);
        let mut sampled_bits = outcome_bits(&sampled);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |x: f64| h = (h ^ x.to_bits()).wrapping_mul(0x0100_0000_01b3);
        for s in &sampled.samples {
            fold(s.time);
            s.vms
                .iter()
                .flat_map(|o| o.as_features())
                .for_each(&mut fold);
            fold(s.dom0_total);
        }
        sampled_bits.extend([sampled.samples.len() as u64, h]);
        let io_high = apps::synthetic(0.0, 1.0, 1.0);
        let iscsi = Engine::new(HostConfig::class("iscsi"));
        let runs = [
            outcome_bits(&e.co_run(&apps::calc(), &apps::calc(), 11)),
            outcome_bits(&e.co_run(&apps::seq_read(), &io_high, 11)),
            outcome_bits(&e.co_run(&video, &dedup, 11)),
            outcome_bits(&e.solo_run(&compile, 3)),
            e.observe_endless(&apps::synthetic(0.5, 0.25, 0.25), 60.0, 7)
                .as_features()
                .map(f64::to_bits)
                .to_vec(),
            outcome_bits(&iscsi.co_run(&video, &dedup.as_endless(), 5)),
            sampled_bits,
            // Two runs of the full-fidelity campaign, same seeds: the
            // first reaches the fixed point's iteration cap, the second
            // shows the order `total_demand` is folded in.
            outcome_bits(&e.co_run(
                &apps::Benchmark::Blastp.model().time_scaled(0.25),
                &apps::calibration_grid()[3],
                0x7EAC0 + 30_004,
            )),
            outcome_bits(&e.co_run(
                &apps::Benchmark::Email.model().time_scaled(0.25),
                &apps::calibration_grid()[79],
                0x7EAC0 + 10_080,
            )),
        ];
        assert_eq!(runs.len(), PAIR_ENGINE_BITS.len());
        for (bits, (name, pinned)) in runs.iter().zip(PAIR_ENGINE_BITS) {
            assert_eq!(bits.as_slice(), *pinned, "{name}: bits moved");
        }
    }

    #[test]
    fn three_cpu_guests_share_a_core() {
        let calc = apps::calc();
        let out = engine().run(&[&calc, &calc, &calc], 1);
        let solo = engine().solo_run(&calc, 1).runtime[0];
        for rt in &out.runtime {
            let slowdown = rt / solo;
            assert!(
                (2.8..3.3).contains(&slowdown),
                "three-way CPU sharing should triple runtime: {slowdown}"
            );
        }
    }

    #[test]
    fn interference_grows_with_density() {
        // video co-located with one vs two I/O-heavy neighbours.
        let video = apps::Benchmark::Video.model().time_scaled(0.1);
        let dedup = apps::Benchmark::Dedup.model().time_scaled(0.1);
        let solo = engine().solo_run(&video, 2).runtime[0];
        let two = engine().run(&[&video, &dedup], 2).runtime[0];
        let three = engine().run(&[&video, &dedup, &dedup], 2).runtime[0];
        assert!(two > solo * 1.5, "two-way: {two} vs solo {solo}");
        assert!(
            three > two * 1.1,
            "three-way {three} must exceed two-way {two}"
        );
    }

    #[test]
    fn light_neighbours_stay_protected_at_density() {
        // email next to three I/O-heavy guests: the fair-share disk keeps
        // its tiny demand served, so it suffers far less than the heavies.
        let email = apps::Benchmark::Email.model().time_scaled(0.1);
        let video = apps::Benchmark::Video.model().time_scaled(0.1);
        let solo = engine().solo_run(&email, 3).runtime[0];
        let out = engine().run(&[&email, &video, &video, &video], 3);
        let email_slowdown = out.runtime[0] / solo;
        assert!(
            email_slowdown < 2.5,
            "email should stay protected: {email_slowdown}x"
        );
    }

    #[test]
    fn three_guests_deterministic() {
        let a = apps::Benchmark::Compile.model().time_scaled(0.1);
        let b = apps::Benchmark::Web.model().time_scaled(0.1);
        let c = apps::Benchmark::Email.model().time_scaled(0.1);
        let r1 = engine().run(&[&a, &b, &c], 9);
        let r2 = engine().run(&[&a, &b, &c], 9);
        assert_eq!(r1.runtime[0].to_bits(), r2.runtime[0].to_bits());
        assert_eq!(r1.iops[2].to_bits(), r2.iops[2].to_bits());
    }
}
