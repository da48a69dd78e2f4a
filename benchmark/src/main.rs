//! The repository's benchmark: one process per workload, driving the
//! public APIs of the tracon library crates from outside. See README.md
//! for what each workload stresses and how to read the numbers.
//!
//! ```text
//! tracon-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--check]
//! ```
//!
//! The last line of standard output is the result object; the lines
//! before it carry the host snapshot and every metric by name.

mod host;
mod prng;
mod report;
mod serve;
mod setup;
mod sim;
mod sizes;
mod trace;

use report::{median, Report};
use serve::ServePlan;
use sim::SimPlan;
use sizes::Sizes;
use std::path::PathBuf;
use std::time::Instant;
use trace::Trace;
use tracon_dcsim::Testbed;

const WORKLOADS: [&str; 4] = ["sim-dynamic", "sim-batch", "serve-durable", "serve-mixed"];

/// The metrics of a `--trace 0` result, as `BENCHMARK.json` lists them.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("predict_rel_err", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// The metrics of a `--trace 1` result, as `BENCHMARK.json` lists them.
/// A layer the workload does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("trace.overhead_share", "ratio"),
    ("gain_vs_fifo", "ratio"),
    ("recover_s", "s"),
    ("vmsim.profiler.profile_s", "s"),
    ("vmsim.profiler.pair_matrix_s", "s"),
    ("vmsim.profiler.runs", "count"),
    ("vmsim.engine.sim_s_per_host_s", "ratio"),
    ("core.model.train_ms_wmm", "ms"),
    ("core.model.train_ms_lm", "ms"),
    ("core.model.train_ms_nlm", "ms"),
    ("core.model.predict_ns_wmm", "ns"),
    ("core.model.predict_ns_lm", "ns"),
    ("core.model.predict_ns_nlm", "ns"),
    ("core.predictor.policy_build_us", "us"),
    ("core.predictor.score_ns", "ns"),
    ("core.monitor.rebuild_ms", "ms"),
    ("core.sched.calls", "count"),
    ("core.sched.placed_per_call", "ratio"),
    ("core.sched.busy_s_upper", "s"),
    ("core.sched.busy_share", "ratio"),
    ("core.sched.last_kind_wall_share", "ratio"),
    ("core.sched.fifo_call_us", "us"),
    ("core.sched.mios_call_us", "us"),
    ("core.sched.mibs32_call_us", "us"),
    ("core.sched.mix32_call_us", "us"),
    ("core.sched.mix32_head_us", "us"),
    ("core.sched.mix_over_mibs", "ratio"),
    ("dcsim.engine.events_per_s", "1/s"),
    ("dcsim.engine.events_per_task", "ratio"),
    ("dcsim.engine.queue_ns", "ns"),
    ("dcsim.engine.queue_share", "ratio"),
    ("dcsim.engine.observer_ns", "ns"),
    ("dcsim.engine.self_s_est", "s"),
    ("dcsim.engine.self_share", "ratio"),
    ("dcsim.engine.mean_wait_s", "s"),
    ("dcsim.engine.makespan_s", "s"),
    ("serve.submit_p50_us", "us"),
    ("serve.submit_p99_us", "us"),
    ("serve.closed_p50_us", "us"),
    ("serve.low_rate_p50_us", "us"),
    ("serve.low_rate_p99_us", "us"),
    ("serve.dispatch_mean_us", "us"),
    ("serve.dispatch_p50_us", "us"),
    ("serve.dispatch_p99_us", "us"),
    ("gen.late_p99_us", "us"),
    ("serve.proto.decode_ns", "ns"),
    ("serve.proto.encode_ns", "ns"),
    ("serve.json.parse_ns", "ns"),
    ("serve.shard.route_ns", "ns"),
    ("serve.state.submit_us", "us"),
    ("serve.state.complete_us", "us"),
    ("serve.state.status_us", "us"),
    ("serve.state.rebuilds", "count"),
    ("serve.state.complete_rebuild_ms", "ms"),
    ("serve.reactor.status_rtt_us", "us"),
    ("serve.reactor.self_us_est", "us"),
    ("serve.wal.append_us_b1", "us"),
    ("serve.wal.append_us_b16", "us"),
    ("serve.wal.fsyncs_per_req", "ratio"),
    ("serve.wal.records_per_fsync", "ratio"),
    ("serve.wal.bytes_per_record", "B"),
    ("serve.wal.snapshots", "count"),
    ("serve.wal.recover_records_per_s", "1/s"),
    ("serve.wal.scrub_mb_per_s", "MB/s"),
    ("serve.repl.ship_frames_per_s", "1/s"),
];

/// What set-up leaves behind for the measurement.
enum Ready {
    Sim(SimPlan),
    Serve(tracon_serve::DaemonHandle),
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    check: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: tracon-benchmark --workload {} --seed N --seconds S --trace 0|1 [--check]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value(),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--check" => args.check = true,
            _ => usage(),
        }
    }
    let known = WORKLOADS.contains(&args.workload.as_str());
    if !known || !args.seconds.is_finite() || args.seconds <= 0.0 {
        usage();
    }
    args
}

/// Where the run may write: the WAL and the trace. `run.sh` points it
/// into the build directory; a bare run uses the package's own.
fn work_dir() -> PathBuf {
    let dir = std::env::var_os("TRACON_BENCH_DIR")
        .map_or_else(|| PathBuf::from("benchmark/target/run"), PathBuf::from);
    std::fs::create_dir_all(&dir).expect("work directory is creatable");
    dir
}

/// `--check` also holds the metric lists above against `BENCHMARK.json`
/// when the run starts from the repository root, so the two cannot drift.
fn check_manifest(report: &mut Report) {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return;
    };
    // Compare without white space, so reformatting the file is harmless.
    let text: String = text.split_whitespace().collect();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
        report.check(text.contains(&entry), || {
            format!("BENCHMARK.json lacks {entry}")
        });
    }
    let listed = text.matches("\"unit\":").count();
    report.check(listed == END_TO_END.len() + PER_LAYER.len(), || {
        format!(
            "BENCHMARK.json lists {listed} metrics, the harness prints {}",
            END_TO_END.len() + PER_LAYER.len()
        )
    });
    for w in WORKLOADS {
        report.check(text.contains(&format!("\"name\":\"{w}\"")), || {
            format!("BENCHMARK.json lacks workload {w}")
        });
    }
}

fn main() {
    let process_start = Instant::now();
    let args = parse_args();
    let sizes = if args.check {
        Sizes::check()
    } else {
        Sizes::full()
    };
    let dir = work_dir();
    let host = host::Host::snapshot(&dir);
    println!(
        "{}",
        host.json(&args.workload, args.seed, args.seconds, args.trace)
    );

    let mut report = Report::default();
    let mut trace = Trace::new(process_start);
    let serve_plan = ServePlan {
        durable: args.workload == "serve-durable",
        sizes: if args.workload == "serve-durable" {
            &sizes.durable
        } else {
            &sizes.mixed
        },
        seed: args.seed,
        wal_dir: dir.join(format!("wal-{}-{}", args.workload, std::process::id())),
    };
    if serve_plan.durable && host.wal_fs == "tmpfs" {
        println!("note: the WAL directory is on tmpfs; fsync costs nothing there, so serve-durable's timings describe memory, not a disk");
    }

    // Set-up: the testbed every boot pays for, this workload's inputs,
    // and for the daemon workloads the daemon itself. The untraced pass
    // sets up several times and reports the median; only the last
    // set-up's products are used.
    let mut setup_s = Vec::new();
    let mut ready: Option<(Testbed, Ready)> = None;
    let repetitions = if args.trace {
        1
    } else {
        sizes.setup_repetitions
    };
    for rep in 0..repetitions {
        if let Some((_, Ready::Serve(daemon))) = ready.take() {
            serve::stop(daemon);
        }
        let t = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        let tb = if args.trace {
            setup::build_traced(&sizes.testbed, &mut trace, &mut report)
        } else {
            Testbed::build(&sizes.testbed)
        };
        let inputs = match args.workload.as_str() {
            "sim-dynamic" => Ready::Sim(SimPlan::dynamic(&sizes.sim, args.seed)),
            "sim-batch" => Ready::Sim(SimPlan::batch(&sizes.sim, args.seed)),
            _ => Ready::Serve(serve_plan.start(&tb)),
        };
        setup_s.push(t.elapsed().as_secs_f64());
        ready = Some((tb, inputs));
    }
    let (tb, inputs) = ready.expect("at least one set-up ran");
    report.push("setup_s", median(&setup_s), "s");
    report.push("predict_rel_err", setup::predict_rel_err(&tb), "ratio");

    // Measurement. End-to-end numbers always come from an untraced pass;
    // `--trace 1` halves the time to fit the traced pass beside it.
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    match inputs {
        Ready::Sim(plan) => {
            let reference = sim::measure(&plan, &tb, budget, &mut report);
            if args.trace {
                sim::layers(
                    &plan,
                    &tb,
                    budget,
                    &reference,
                    args.seed,
                    &mut trace,
                    &mut report,
                );
            }
        }
        Ready::Serve(daemon) => {
            let mut ends = serve::measure(&serve_plan, &tb, daemon, budget, &mut report);
            if args.trace {
                let (traced_ends, spans) =
                    serve::traced(&serve_plan, &tb, budget, &mut trace, &mut report);
                ends.extend(traced_ends);
                let path = dir.join(format!("requests-{}-{}.jsonl", args.workload, args.seed));
                if let Err(e) = serve::write_spans(&spans, &path) {
                    report.fail(format!("request trace not written: {e}"));
                }
            }
            let rebuilds: usize = ends.iter().map(|e| e.rebuilds).sum();
            report.push("serve.state.rebuilds", rebuilds as f64, "count");
            let recover_s: Vec<f64> = ends.iter().filter_map(|e| e.recover_s).collect();
            if !recover_s.is_empty() {
                report.push("recover_s", median(&recover_s), "s");
            }
        }
    }
    report.push("peak_rss_mb", host::peak_rss_mb(), "MB");

    if args.trace {
        let path = dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
        if let Err(e) = trace.write(&path) {
            report.fail(format!("trace not written: {e}"));
        }
        for (name, self_s, count) in trace.self_times() {
            println!("span {name} self_s {self_s:.6} count {count}");
        }
    }
    if args.check {
        check_manifest(&mut report);
    }

    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    for m in &report.metrics {
        println!(
            "metric {} {} {}",
            m.name,
            report::json_number(m.value),
            m.unit
        );
    }
    for (name, _) in wanted {
        let finite = report.get(name).is_none_or(f64::is_finite);
        report.check(finite, || format!("{name} is not a finite number"));
    }
    for why in &report.failures {
        eprintln!("FAILED: {why}");
    }
    println!(
        "failed_share {}",
        report::json_number(report.failed as f64 / report.attempted.max(1) as f64)
    );
    println!("{}", report.result_line(wanted));
    if report.failed > 0 {
        std::process::exit(1);
    }
}
