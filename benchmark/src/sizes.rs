//! Every frozen workload parameter, in one place. `full()` was sized
//! once on a 2-core host (see README.md) and must not follow the host or
//! the clock: a later change is compared against numbers taken with
//! exactly these. `check()` shrinks everything so `--check` finishes in
//! seconds while still walking every code path and output check.

use tracon_dcsim::experiments::ExperimentConfig;
use tracon_dcsim::TestbedConfig;

pub struct SimSizes {
    pub machines: usize,
    /// Arrival rate of `sim-dynamic`, tasks per simulated minute. On this
    /// cluster with the medium mix FIFO sustains about 660 and MIOS about
    /// 745, so at 700 FIFO's queue grows while MIOS keeps up: the regime
    /// in which Fig 11's throughput gain shows (6 to 7 %). Past 745 MIOS
    /// saturates too, has one free slot to choose from like FIFO, and the
    /// gain collapses to under 1 %.
    pub dynamic_lambda_per_min: f64,
    pub dynamic_horizon_s: f64,
    /// Tasks in `sim-batch`'s static batch: one and a half times the slot
    /// count, so a third are placed one at a time by completion-triggered
    /// dispatches that see a full window.
    pub batch_tasks: usize,
    /// Seeded orders of that batch in one repetition of `sim-batch`. What
    /// MIX(32) spends on a batch follows its order by 15 % from one order
    /// to the next; with a single order the seed decided the number.
    pub batch_orders: usize,
    /// Queue window of the batch schedulers.
    pub window: usize,
}

pub struct ServeSizes {
    pub machines: usize,
    pub slots_per_machine: usize,
    pub shards: usize,
    pub connections: usize,
    /// Requests in flight per connection in the closed loop.
    pub window: usize,
    /// Placed tasks each connection holds before timing starts, so that
    /// every `complete` has an earlier task to name.
    pub backlog: usize,
    /// Acknowledged requests per connection in one closed-loop segment.
    pub segment_requests: usize,
    /// Closed-loop segments in one round. A round is one daemon from boot
    /// to stop (and, with a WAL, its recovery): every round starts from
    /// the same empty state and admits the same number of tasks, so what
    /// a snapshot holds and what recovery replays never grow with the
    /// length of the run.
    pub round_segments: u64,
    /// Rounds per second of `--seconds`. The count, not the clock, ends a
    /// round: a faster daemon finishes sooner instead of admitting more.
    pub rounds_per_s: f64,
    /// Open-loop rates, requests per second over all connections: about
    /// 50 % and 25 % of the closed loop's median on the sizing host.
    pub open_rate: f64,
    pub open_low_rate: f64,
    /// Share of `--seconds` the open loop runs for.
    pub open_share: f64,
    /// Records behind the isolated WAL append, replay and scrub numbers.
    pub wal_probe_records: usize,
}

pub struct Sizes {
    pub testbed: TestbedConfig,
    /// How many times a `--trace 0` run sets up from scratch; `setup_s`
    /// is the median.
    pub setup_repetitions: usize,
    pub sim: SimSizes,
    pub durable: ServeSizes,
    pub mixed: ServeSizes,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            testbed: ExperimentConfig::full().testbed,
            setup_repetitions: 3,
            sim: SimSizes {
                machines: 1024,
                dynamic_lambda_per_min: 700.0,
                dynamic_horizon_s: 18_000.0,
                batch_tasks: 3072,
                batch_orders: 4,
                window: 32,
            },
            // Snapshot load is quadratic in the tasks a shard ever admitted
            // (10 s of admissions took 26 s to recover), so a round admits
            // about four and a half thousand tasks and a run has many.
            durable: ServeSizes::full(500, 8, 0.75, 2400.0, 0.1),
            mixed: ServeSizes::full(2000, 14, 0.75, 20_000.0, 0.3),
        }
    }

    pub fn check() -> Sizes {
        Sizes {
            testbed: TestbedConfig::small(),
            setup_repetitions: 1,
            sim: SimSizes {
                machines: 64,
                dynamic_lambda_per_min: 36.0,
                dynamic_horizon_s: 3_600.0,
                batch_tasks: 256,
                batch_orders: 2,
                window: 32,
            },
            durable: ServeSizes::check(400.0),
            mixed: ServeSizes::check(2000.0),
        }
    }
}

impl ServeSizes {
    fn full(
        segment_requests: usize,
        round_segments: u64,
        rounds_per_s: f64,
        open_rate: f64,
        open_share: f64,
    ) -> ServeSizes {
        ServeSizes {
            machines: 512,
            slots_per_machine: 4,
            shards: 2,
            connections: 2,
            window: 64,
            backlog: 256,
            segment_requests,
            round_segments,
            rounds_per_s,
            open_rate,
            open_low_rate: open_rate / 2.0,
            open_share,
            wal_probe_records: 2048,
        }
    }

    fn check(open_rate: f64) -> ServeSizes {
        ServeSizes {
            machines: 32,
            slots_per_machine: 4,
            shards: 2,
            connections: 2,
            window: 8,
            backlog: 16,
            segment_requests: 100,
            round_segments: 4,
            rounds_per_s: 1.0,
            open_rate,
            open_low_rate: open_rate / 2.0,
            open_share: 0.3,
            wal_probe_records: 128,
        }
    }
}
