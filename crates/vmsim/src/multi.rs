//! N-guest co-run engine: the generalization of [`crate::engine::Engine`]
//! beyond the paper's two-VM-per-machine simplification.
//!
//! The fluid model is unchanged — application progress rates determine
//! CPU and I/O demands; the credit scheduler and the disk allocate
//! capacity; allocations bound the rates — but the fixed point now spans
//! an arbitrary number of guest domains sharing one host. This backs the
//! consolidation-density extension experiment and validates the
//! data-center simulator's dominant-neighbour approximation for machines
//! with more than two VM slots.

use crate::app::{AppModel, Phase};
use crate::config::HostConfig;
use crate::cpu::fair_share;
use crate::disk::{Disk, IoDemand};
use crate::engine::VmObservation;
use tracon_stats::prng::ChaCha12;

/// Outcome of an N-guest co-run.
#[derive(Debug, Clone)]
pub struct MultiRunOutcome {
    /// Whether each application ran to completion.
    pub finished: Vec<bool>,
    /// Wall-clock runtime of each application, seconds.
    pub runtime: Vec<f64>,
    /// Average served IOPS of each application over its active time.
    pub iops: Vec<f64>,
    /// Average observed characteristics per VM.
    pub observed: Vec<VmObservation>,
    /// Average total Dom0 CPU utilization over the run.
    pub dom0_total: f64,
}

struct GuestState {
    phases: Vec<Phase>,
    endless: bool,
    jitter: f64,
    phase_idx: usize,
    phase_progress: f64,
    current: Phase,
    done: bool,
    active_time: f64,
    reads_served: f64,
    writes_served: f64,
    cpu_seconds: f64,
    dom0_seconds: f64,
}

impl GuestState {
    fn new(app: &AppModel, rng: &mut ChaCha12) -> Self {
        let mut s = GuestState {
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

/// The N-guest engine.
#[derive(Debug, Clone)]
pub struct MultiEngine {
    cfg: HostConfig,
    disk: Disk,
}

impl MultiEngine {
    /// Creates an engine for the given host configuration.
    pub fn new(cfg: HostConfig) -> Self {
        let disk = Disk::new(cfg.disk);
        MultiEngine { cfg, disk }
    }

    /// Co-runs `apps` (one per guest VM) from t = 0 until every finite
    /// application completes.
    ///
    /// # Panics
    /// Panics when `apps` is empty, when every application is endless, or
    /// if the simulation exceeds `max_sim_time`.
    pub fn run(&self, apps: &[AppModel], seed: u64) -> MultiRunOutcome {
        assert!(!apps.is_empty(), "no applications given");
        assert!(
            apps.iter().any(|a| !a.endless),
            "at least one application must terminate"
        );
        let n = apps.len();
        let mut rng = ChaCha12::seed_from_u64(seed);
        let mut guests: Vec<GuestState> =
            apps.iter().map(|a| GuestState::new(a, &mut rng)).collect();
        let mut t = 0.0f64;
        let mut runtime = vec![0.0f64; n];
        let mut dom0_total_seconds = 0.0f64;
        let mut rates = vec![1.0f64; n];

        while guests.iter().any(|g| !g.done && !g.endless) {
            assert!(
                t < self.cfg.max_sim_time,
                "multi-run exceeded max_sim_time={}s",
                self.cfg.max_sim_time
            );
            let step = self.solve_step(&guests, &mut rates);

            let mut dt = self.cfg.dt_max;
            for (g, r) in guests.iter().zip(&rates) {
                if g.done || *r <= 1e-9 {
                    continue;
                }
                let remaining = (g.current.nominal_s - g.phase_progress).max(1e-9);
                dt = dt.min(remaining / r);
            }

            for i in 0..n {
                if guests[i].done {
                    continue;
                }
                let r = rates[i];
                let ph = guests[i].current;
                guests[i].reads_served += r * ph.read_rps * dt;
                guests[i].writes_served += r * ph.write_rps * dt;
                guests[i].cpu_seconds += step.cpu_alloc[i] * dt;
                guests[i].dom0_seconds += step.dom0_attrib[i] * dt;
                guests[i].active_time += dt;
                let finished = guests[i].advance(r * dt, &mut rng);
                if finished && runtime[i] == 0.0 {
                    runtime[i] = t + dt;
                }
            }
            dom0_total_seconds += step.dom0_used * dt;
            t += dt;
        }

        let mut observed = Vec::with_capacity(n);
        let mut iops = vec![0.0f64; n];
        let mut finished = vec![false; n];
        for i in 0..n {
            let at = guests[i].active_time.max(1e-9);
            observed.push(VmObservation {
                read_rps: guests[i].reads_served / at,
                write_rps: guests[i].writes_served / at,
                cpu_util: guests[i].cpu_seconds / at,
                dom0_util: guests[i].dom0_seconds / at,
            });
            iops[i] = (guests[i].reads_served + guests[i].writes_served) / at;
            finished[i] = guests[i].done;
            if runtime[i] == 0.0 {
                runtime[i] = t;
            }
        }

        MultiRunOutcome {
            finished,
            runtime,
            iops,
            observed,
            dom0_total: dom0_total_seconds / t.max(1e-9),
        }
    }

    fn solve_step(&self, guests: &[GuestState], rates: &mut [f64]) -> StepAllocation {
        let n = guests.len();
        let mut r: Vec<f64> = guests
            .iter()
            .zip(rates.iter())
            .map(|(g, &prev)| if g.done { 0.0 } else { prev.max(0.5) })
            .collect();
        let mut out = StepAllocation {
            cpu_alloc: vec![0.0; n],
            dom0_used: 0.0,
            dom0_attrib: vec![0.0; n],
        };

        let full_demand: Vec<f64> = guests
            .iter()
            .map(|g| {
                if g.done {
                    0.0
                } else {
                    (g.current.background_cpu + g.current.cpu).min(1.0)
                }
            })
            .collect();
        let mut weights = vec![self.cfg.guest_weight; n + 1];
        weights[0] = self.cfg.dom0_weight;

        for _ in 0..32 {
            let total_io_rps: f64 = guests
                .iter()
                .zip(&r)
                .map(|(g, &ri)| if g.done { 0.0 } else { ri * g.current.io_rps() })
                .sum();
            let dom0_demand = self.cfg.dom0_base_cpu + total_io_rps * self.cfg.dom0_cost_per_req_s;

            let mut demands_full = Vec::with_capacity(n + 1);
            demands_full.push(dom0_demand);
            demands_full.extend_from_slice(&full_demand);
            let alloc_full = fair_share(self.cfg.cpu_capacity, &demands_full, &weights);

            let cpu_actual: Vec<f64> = guests
                .iter()
                .zip(&r)
                .map(|(g, &ri)| {
                    if g.done {
                        0.0
                    } else {
                        (g.current.background_cpu + ri * g.current.cpu).min(1.0)
                    }
                })
                .collect();
            let mut demands_actual = Vec::with_capacity(n + 1);
            demands_actual.push(dom0_demand);
            demands_actual.extend_from_slice(&cpu_actual);
            let alloc = fair_share(self.cfg.cpu_capacity, &demands_actual, &weights);
            let dom0_alloc = alloc[0];

            let dom0_needed = dom0_demand.max(1e-9);
            let starvation = (dom0_alloc / dom0_needed).clamp(0.0, 1.0);
            let total_demand = dom0_demand + cpu_actual.iter().sum::<f64>();
            let saturation = ((total_demand - 0.9 * self.cfg.cpu_capacity)
                / (0.15 * self.cfg.cpu_capacity))
                .clamp(0.0, 1.0);
            let streaming = guests
                .iter()
                .filter(|g| !g.done && g.current.io_rps() > 1e-9)
                .count();
            let latency_penalty = if streaming >= 2 {
                1.0 / (1.0 + self.cfg.dom0_latency_gamma * saturation)
            } else {
                1.0
            };
            let path_eff = (starvation * latency_penalty).clamp(1e-6, 1.0);

            let r_cpu: Vec<f64> = guests
                .iter()
                .enumerate()
                .map(|(i, g)| {
                    if g.done {
                        0.0
                    } else if g.current.cpu > 1e-12 {
                        (alloc_full[i + 1] / g.current.cpu).min(1.0)
                    } else {
                        1.0
                    }
                })
                .collect();

            let demands: Vec<IoDemand> = guests
                .iter()
                .zip(&r_cpu)
                .map(|(g, &rc)| {
                    if g.done {
                        IoDemand::default()
                    } else {
                        IoDemand {
                            read_rps: rc * g.current.read_rps,
                            write_rps: rc * g.current.write_rps,
                            req_kb: g.current.req_kb,
                            sequentiality: g.current.sequentiality,
                        }
                    }
                })
                .collect();
            let disk_alloc = self.disk.allocate(&demands, path_eff);

            let mut max_delta = 0.0f64;
            for i in 0..n {
                if guests[i].done {
                    r[i] = 0.0;
                    continue;
                }
                let g = &guests[i];
                let new_r = if g.current.io_rps() > 1e-12 {
                    (r_cpu[i] * disk_alloc.fractions[i]).clamp(0.0, 1.0)
                } else {
                    r_cpu[i]
                };
                let damped = 0.5 * r[i] + 0.5 * new_r;
                max_delta = max_delta.max((damped - r[i]).abs());
                r[i] = damped;
            }

            let served_rps: Vec<f64> = guests
                .iter()
                .zip(&r)
                .map(|(g, &ri)| if g.done { 0.0 } else { ri * g.current.io_rps() })
                .collect();
            let total_served: f64 = served_rps.iter().sum();
            let dom0_used = (self.cfg.dom0_base_cpu + total_served * self.cfg.dom0_cost_per_req_s)
                .min(dom0_alloc.max(self.cfg.dom0_base_cpu));
            let dom0_io = (dom0_used - self.cfg.dom0_base_cpu).max(0.0);
            out = StepAllocation {
                cpu_alloc: guests
                    .iter()
                    .enumerate()
                    .map(|(i, g)| {
                        if g.done {
                            0.0
                        } else {
                            let coupled = (r[i] * g.current.cpu).min(alloc[i + 1]);
                            let bg = g.current.background_cpu.min(alloc[i + 1] - coupled);
                            coupled + bg
                        }
                    })
                    .collect(),
                dom0_used,
                dom0_attrib: served_rps
                    .iter()
                    .map(|&s| {
                        if total_served > 1e-9 {
                            dom0_io * s / total_served
                        } else {
                            0.0
                        }
                    })
                    .collect(),
            };

            if max_delta < 1e-4 {
                break;
            }
        }

        rates.copy_from_slice(&r);
        out
    }
}

struct StepAllocation {
    cpu_alloc: Vec<f64>,
    dom0_used: f64,
    dom0_attrib: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps;
    use crate::engine::Engine;

    fn multi() -> MultiEngine {
        MultiEngine::new(HostConfig::testbed())
    }

    #[test]
    fn two_guests_match_pair_engine() {
        // The N-guest engine must agree with the calibrated two-VM engine
        // (same model, same RNG draw order) within tight tolerance.
        let pair = Engine::new(HostConfig::testbed());
        for (a, b) in [
            (apps::calc(), apps::calc()),
            (apps::seq_read(), apps::synthetic(0.0, 1.0, 1.0)),
            (
                apps::Benchmark::Video.model().time_scaled(0.1),
                apps::Benchmark::Dedup.model().time_scaled(0.1),
            ),
        ] {
            let p = pair.co_run(&a, &b, 11);
            let m = multi().run(&[a.clone(), b.clone()], 11);
            for i in 0..2 {
                let rel = (p.runtime[i] - m.runtime[i]).abs() / p.runtime[i];
                assert!(
                    rel < 0.02,
                    "{} runtime mismatch: pair {} vs multi {}",
                    [&a.name, &b.name][i],
                    p.runtime[i],
                    m.runtime[i]
                );
            }
        }
    }

    #[test]
    fn three_cpu_guests_share_a_core() {
        let calc = apps::calc();
        let out = multi().run(&[calc.clone(), calc.clone(), calc.clone()], 1);
        let solo = Engine::new(HostConfig::testbed())
            .solo_run(&calc, 1)
            .runtime[0];
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
        let solo = Engine::new(HostConfig::testbed())
            .solo_run(&video, 2)
            .runtime[0];
        let two = multi().run(&[video.clone(), dedup.clone()], 2).runtime[0];
        let three = multi()
            .run(&[video.clone(), dedup.clone(), dedup], 2)
            .runtime[0];
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
        let solo = Engine::new(HostConfig::testbed())
            .solo_run(&email, 3)
            .runtime[0];
        let out = multi().run(&[email.clone(), video.clone(), video.clone(), video], 3);
        let email_slowdown = out.runtime[0] / solo;
        assert!(
            email_slowdown < 2.5,
            "email should stay protected: {email_slowdown}x"
        );
    }

    #[test]
    #[should_panic(expected = "at least one application must terminate")]
    fn all_endless_panics() {
        multi().run(&[apps::idle(), apps::idle()], 1);
    }

    #[test]
    fn deterministic() {
        let a = apps::Benchmark::Compile.model().time_scaled(0.1);
        let b = apps::Benchmark::Web.model().time_scaled(0.1);
        let c = apps::Benchmark::Email.model().time_scaled(0.1);
        let r1 = multi().run(&[a.clone(), b.clone(), c.clone()], 9);
        let r2 = multi().run(&[a, b, c], 9);
        assert_eq!(r1.runtime[0].to_bits(), r2.runtime[0].to_bits());
        assert_eq!(r1.iops[2].to_bits(), r2.iops[2].to_bits());
    }
}
