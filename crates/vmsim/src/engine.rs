//! Fluid co-run engine: simulates two applications in two guest VMs
//! sharing one virtualized host (Dom0 + 2 DomU over one CPU pool and one
//! disk), producing runtimes, I/O throughputs, and the per-VM resource
//! characteristics that TRACON's monitor would sample with xentop/iostat.
//!
//! Each step the engine solves a small fixed point: application progress
//! rates determine CPU and I/O demands; the credit scheduler and the disk
//! allocate capacity for those demands; the allocations bound the progress
//! rates. A damped iteration converges in a handful of rounds for the
//! two-VM case.

use crate::app::{AppModel, Phase};
use crate::config::HostConfig;
use crate::cpu::fair_share;
use crate::disk::{Disk, IoDemand};
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
}

/// One periodic monitor sample during a co-run.
#[derive(Debug, Clone, Copy)]
pub struct IntervalSample {
    /// Sample timestamp (end of interval), seconds.
    pub time: f64,
    /// Per-VM observations during the interval.
    pub vms: [VmObservation; 2],
    /// Total Dom0 CPU utilization during the interval.
    pub dom0_total: f64,
}

/// Outcome of a co-run of two applications.
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

/// Per-VM simulation state.
struct VmState {
    phases: Vec<Phase>,
    endless: bool,
    jitter: f64,
    phase_idx: usize,
    /// Progress inside the current phase, in nominal seconds.
    phase_progress: f64,
    /// Jittered copy of the current phase.
    current: Phase,
    done: bool,
    // Accumulators over the VM's active time.
    active_time: f64,
    reads_served: f64,
    writes_served: f64,
    cpu_seconds: f64,
    dom0_seconds: f64,
}

impl VmState {
    fn new(app: &AppModel, rng: &mut ChaCha12) -> Self {
        let mut s = VmState {
            phases: app.phases.clone(),
            endless: app.endless,
            jitter: app.jitter,
            phase_idx: 0,
            phase_progress: 0.0,
            current: app.phases[0],
            done: false,
            active_time: 0.0,
            reads_served: 0.0,
            writes_served: 0.0,
            cpu_seconds: 0.0,
            dom0_seconds: 0.0,
        };
        s.current = s.jittered(s.phases[0], rng);
        s
    }

    fn jittered(&self, base: Phase, rng: &mut ChaCha12) -> Phase {
        if self.jitter <= 0.0 {
            return base;
        }
        let draw = |rng: &mut ChaCha12| -> f64 {
            (1.0 + tracon_stats::dist::normal(rng, 0.0, self.jitter)).max(0.1)
        };
        Phase {
            nominal_s: base.nominal_s * draw(rng),
            read_rps: base.read_rps * draw(rng),
            write_rps: base.write_rps * draw(rng),
            cpu: base.cpu * draw(rng),
            ..base
        }
    }

    /// Advances phase progress; returns true when the application finished.
    fn advance(&mut self, progress_s: f64, rng: &mut ChaCha12) -> bool {
        if self.done {
            return true;
        }
        self.phase_progress += progress_s;
        while self.phase_progress >= self.current.nominal_s - 1e-12 {
            self.phase_progress -= self.current.nominal_s;
            self.phase_idx += 1;
            if self.phase_idx >= self.phases.len() {
                if self.endless {
                    self.phase_idx = 0;
                } else {
                    self.done = true;
                    return true;
                }
            }
            self.current = self.jittered(self.phases[self.phase_idx], rng);
        }
        false
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

    /// Co-runs two applications from t = 0 until every finite application
    /// completes (an application that finishes first leaves its VM idle,
    /// so the survivor finishes interference-free, exactly as on the real
    /// testbed).
    ///
    /// # Panics
    /// Panics when both applications are endless, or if the simulation
    /// exceeds `max_sim_time` (a mis-calibrated model).
    pub fn co_run(&self, app1: &AppModel, app2: &AppModel, seed: u64) -> CoRunOutcome {
        assert!(
            !(app1.endless && app2.endless),
            "co_run of two endless applications never terminates"
        );
        let mut rng = ChaCha12::seed_from_u64(seed);
        let mut vms = [VmState::new(app1, &mut rng), VmState::new(app2, &mut rng)];
        let mut t = 0.0f64;
        let mut runtime = [0.0f64; 2];
        let mut samples = Vec::new();

        // Per-sample-interval accumulators.
        let mut win_start = 0.0f64;
        let mut win = [VmObservation::default(); 2];
        let mut win_dom0 = 0.0f64;

        let mut dom0_total_seconds = 0.0f64;

        // Progress-rate estimates carried across steps for warm-starting
        // the fixed point.
        let mut rates = [1.0f64; 2];

        while vms.iter().any(|v| !v.done && !v.endless) {
            assert!(
                t < self.cfg.max_sim_time,
                "co-run of {} and {} exceeded max_sim_time={}s",
                app1.name,
                app2.name,
                self.cfg.max_sim_time
            );
            // An endless background stops mattering once all finite apps
            // are done, so the loop condition above is the right one.
            let step = self.solve_step(&vms, &mut rates);

            // Choose dt: cap at dt_max and at each active VM's remaining
            // phase time so phase boundaries are hit exactly.
            let mut dt = self.cfg.dt_max;
            for (v, r) in vms.iter().zip(&rates) {
                if v.done || *r <= 1e-9 {
                    continue;
                }
                let remaining = (v.current.nominal_s - v.phase_progress).max(1e-9);
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
            for i in 0..2 {
                if vms[i].done {
                    continue;
                }
                let r = rates[i];
                let ph = vms[i].current;
                // The converged rate multiplier already reflects the disk
                // throttle, so served I/O is simply rate x demand.
                let reads = r * ph.read_rps;
                let writes = r * ph.write_rps;
                let cpu = step.cpu_alloc[i];
                let dom0_share = step.dom0_attrib[i];
                vms[i].reads_served += reads * dt;
                vms[i].writes_served += writes * dt;
                vms[i].cpu_seconds += cpu * dt;
                vms[i].dom0_seconds += dom0_share * dt;
                vms[i].active_time += dt;
                win[i].read_rps += reads * dt;
                win[i].write_rps += writes * dt;
                win[i].cpu_util += cpu * dt;
                win[i].dom0_util += dom0_share * dt;

                let finished = vms[i].advance(r * dt, &mut rng);
                if finished && runtime[i] == 0.0 {
                    runtime[i] = t + dt;
                }
            }
            dom0_total_seconds += step.dom0_used * dt;
            win_dom0 += step.dom0_used * dt;
            t += dt;

            // Emit a monitor sample at interval boundaries.
            if let Some(si) = self.sample_interval {
                if t - win_start >= si - 1e-9 {
                    let dur = (t - win_start).max(1e-9);
                    let mut obs = [VmObservation::default(); 2];
                    for i in 0..2 {
                        obs[i] = VmObservation {
                            read_rps: win[i].read_rps / dur,
                            write_rps: win[i].write_rps / dur,
                            cpu_util: win[i].cpu_util / dur,
                            dom0_util: win[i].dom0_util / dur,
                        };
                    }
                    samples.push(IntervalSample {
                        time: t,
                        vms: obs,
                        dom0_total: win_dom0 / dur,
                    });
                    win = [VmObservation::default(); 2];
                    win_dom0 = 0.0;
                    win_start = t;
                }
            }
        }

        let mut observed = [VmObservation::default(); 2];
        let mut iops = [0.0f64; 2];
        let mut finished = [false; 2];
        for i in 0..2 {
            let at = vms[i].active_time.max(1e-9);
            observed[i] = VmObservation {
                read_rps: vms[i].reads_served / at,
                write_rps: vms[i].writes_served / at,
                cpu_util: vms[i].cpu_seconds / at,
                dom0_util: vms[i].dom0_seconds / at,
            };
            iops[i] = (vms[i].reads_served + vms[i].writes_served) / at;
            finished[i] = vms[i].done;
            if !vms[i].done || runtime[i] == 0.0 {
                runtime[i] = t;
            }
        }

        CoRunOutcome {
            finished,
            runtime,
            iops,
            observed,
            dom0_total: dom0_total_seconds / t.max(1e-9),
            samples,
        }
    }

    /// One fixed-point resolution of progress rates, CPU allocation, and
    /// disk service for the current phases.
    fn solve_step(&self, vms: &[VmState; 2], rates: &mut [f64; 2]) -> StepAllocation {
        // Start optimistic: warm-start from the previous step's rates but
        // allow recovering to full speed.
        let mut r = [
            if vms[0].done { 0.0 } else { rates[0].max(0.5) },
            if vms[1].done { 0.0 } else { rates[1].max(0.5) },
        ];
        let mut out = StepAllocation::default();

        // Full-speed CPU demands: what each guest would consume if it were
        // never blocked on I/O. These drive the *feasibility* allocation —
        // the credit scheduler is work-conserving, so a guest's potential
        // share is its fair-share entitlement against the others' full
        // demands, not against their momentary (I/O-throttled) usage.
        let full_demand = [0, 1].map(|i| {
            if vms[i].done {
                0.0
            } else {
                let ph = &vms[i].current;
                (ph.background_cpu + ph.cpu).min(1.0)
            }
        });

        for _ in 0..24 {
            // --- Dom0 demand tracks the achieved I/O rates.
            let mut io_rps_at_rate = [0.0f64; 2];
            for i in 0..2 {
                if !vms[i].done {
                    io_rps_at_rate[i] = r[i] * vms[i].current.io_rps();
                }
            }
            let dom0_demand = self.cfg.dom0_base_cpu
                + (io_rps_at_rate[0] + io_rps_at_rate[1]) * self.cfg.dom0_cost_per_req_s;

            let weights = [
                self.cfg.dom0_weight,
                self.cfg.guest_weight,
                self.cfg.guest_weight,
            ];
            let alloc_full = fair_share(
                self.cfg.cpu_capacity,
                &[dom0_demand, full_demand[0], full_demand[1]],
                &weights,
            );

            // --- Actual CPU consumption at the current rate estimate (for
            // Dom0 starvation, the overload penalty, and metric recording).
            let cpu_actual = [0, 1].map(|i| {
                if vms[i].done {
                    0.0
                } else {
                    let ph = &vms[i].current;
                    (ph.background_cpu + r[i] * ph.cpu).min(1.0)
                }
            });
            let alloc = fair_share(
                self.cfg.cpu_capacity,
                &[dom0_demand, cpu_actual[0], cpu_actual[1]],
                &weights,
            );
            let dom0_alloc = alloc[0];

            // --- I/O path efficiency: Dom0 CPU starvation plus the
            // scheduling-latency penalty under host CPU saturation. When
            // the runnable vCPUs saturate the host, Dom0's wakeups are
            // delayed by whole scheduling timeslices instead of being
            // nearly instant, so every I/O pays extra latency. The demand
            // measure counts runnable pressure (background burners stay
            // runnable even when I/O progress is throttled).
            let dom0_needed = dom0_demand.max(1e-9);
            let starvation = (dom0_alloc / dom0_needed).clamp(0.0, 1.0);
            let total_demand = dom0_demand + cpu_actual[0] + cpu_actual[1];
            let saturation = ((total_demand - 0.9 * self.cfg.cpu_capacity)
                / (0.15 * self.cfg.cpu_capacity))
                .clamp(0.0, 1.0);
            // The timeslice-latency penalty only bites when the device is
            // actually interleaving multiple streams: a single stream's
            // deep request queue hides Dom0's wakeup latency, which is why
            // a pure CPU burner barely slows a lone sequential reader
            // (Table 1: 1.03x) while the same burner added to an I/O-heavy
            // neighbour amplifies 10.23x into 16.11x.
            let both_streaming = !vms[0].done
                && !vms[1].done
                && vms[0].current.io_rps() > 1e-9
                && vms[1].current.io_rps() > 1e-9;
            let latency_penalty = if both_streaming {
                1.0 / (1.0 + self.cfg.dom0_latency_gamma * saturation)
            } else {
                1.0
            };
            let path_eff = (starvation * latency_penalty).clamp(1e-6, 1.0);

            // --- CPU-feasible rates from the entitlement allocation. The
            // progress-coupled (I/O-driving) work has priority inside the
            // guest: a mostly-blocked I/O loop is always runnable the
            // moment its request completes, while the background burner
            // only absorbs leftover cycles.
            let mut r_cpu = [0.0f64; 2];
            for i in 0..2 {
                if vms[i].done {
                    continue;
                }
                let ph = &vms[i].current;
                let avail = alloc_full[i + 1];
                r_cpu[i] = if ph.cpu > 1e-12 {
                    (avail / ph.cpu).min(1.0)
                } else {
                    1.0
                };
            }

            // --- Disk allocation for the CPU-feasible request rates.
            let demands = [0, 1].map(|i| {
                if vms[i].done {
                    IoDemand::default()
                } else {
                    let ph = &vms[i].current;
                    IoDemand {
                        read_rps: r_cpu[i] * ph.read_rps,
                        write_rps: r_cpu[i] * ph.write_rps,
                        req_kb: ph.req_kb,
                        sequentiality: ph.sequentiality,
                    }
                }
            });
            let disk_alloc = self.disk.allocate(&demands, path_eff);

            // --- New rate estimates and damped update.
            let mut max_delta = 0.0f64;
            let mut new_r = [0.0f64; 2];
            for i in 0..2 {
                if vms[i].done {
                    new_r[i] = 0.0;
                    continue;
                }
                let ph = &vms[i].current;
                let r_io = if ph.io_rps() > 1e-12 {
                    r_cpu[i] * disk_alloc.fractions[i]
                } else {
                    r_cpu[i]
                };
                new_r[i] = r_io.clamp(0.0, 1.0);
                let damped = 0.5 * r[i] + 0.5 * new_r[i];
                max_delta = max_delta.max((damped - r[i]).abs());
                r[i] = damped;
            }

            // Record the allocation corresponding to the *current* rates
            // (r already carries the disk throttle via the rate update).
            let served_rps = [0, 1].map(|i| {
                if vms[i].done {
                    0.0
                } else {
                    r[i] * vms[i].current.io_rps()
                }
            });
            let total_served = served_rps[0] + served_rps[1];
            let dom0_used = (self.cfg.dom0_base_cpu + total_served * self.cfg.dom0_cost_per_req_s)
                .min(dom0_alloc.max(self.cfg.dom0_base_cpu));
            let dom0_io = (dom0_used - self.cfg.dom0_base_cpu).max(0.0);
            out = StepAllocation {
                cpu_alloc: [0, 1].map(|i| {
                    if vms[i].done {
                        0.0
                    } else {
                        // Progress-coupled CPU first, background burn fills
                        // whatever allocation remains.
                        let ph = &vms[i].current;
                        let coupled = (r[i] * ph.cpu).min(alloc[i + 1]);
                        let bg = ph.background_cpu.min(alloc[i + 1] - coupled);
                        coupled + bg
                    }
                }),
                dom0_used,
                dom0_attrib: [0, 1].map(|i| {
                    if total_served > 1e-9 {
                        dom0_io * served_rps[i] / total_served
                    } else {
                        0.0
                    }
                }),
            };

            if max_delta < 1e-4 {
                break;
            }
        }

        rates.copy_from_slice(&r);
        out
    }
}

/// Resolved resource allocation for one step.
#[derive(Debug, Clone, Default)]
struct StepAllocation {
    /// CPU actually consumed by each guest VM.
    cpu_alloc: [f64; 2],
    /// Total Dom0 CPU consumption.
    dom0_used: f64,
    /// Dom0 CPU attributed to each VM's I/O.
    dom0_attrib: [f64; 2],
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps;

    fn engine() -> Engine {
        Engine::new(HostConfig::testbed())
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
}
