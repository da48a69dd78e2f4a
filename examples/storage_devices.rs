//! Storage-device sensitivity: the same co-located workloads on a SATA
//! disk, a RAID-0 stripe, an SSD, and a congested iSCSI path — the
//! paper's future-work question, answered with the extension experiment.
//!
//! ```text
//! cargo run --release --example storage_devices
//! ```

use tracon::dcsim::experiments::ext_storage;
use tracon::vmsim::{apps, Benchmark, Engine, HostConfig};

fn main() {
    // Headline sweep: Table-1-style cells and scheduler room per device.
    let fig = ext_storage::run(0.25, 7);
    print!("{}", fig.render());

    // A closer look at one pairing across devices.
    println!("\nvideo + dedup on each device (runtime and served IOPS of video):");
    let video = Benchmark::Video.model().time_scaled(0.25);
    let dedup = Benchmark::Dedup.model().time_scaled(0.25).as_endless();
    for (name, host) in [
        ("SATA disk", HostConfig::testbed()),
        ("RAID-0 x4", HostConfig::class("raid0x4")),
        ("SSD", HostConfig::class("ssd")),
        ("iSCSI", HostConfig::class("iscsi")),
    ] {
        let engine = Engine::new(host);
        let solo = engine.solo_run(&video, 1);
        let co = engine.co_run(&video, &dedup, 2);
        println!(
            "  {name:10} solo {:6.0} s @ {:5.0} IOPS | with dedup {:6.0} s @ {:5.0} IOPS ({:4.1}x)",
            solo.runtime[0],
            solo.iops[0],
            co.runtime[0],
            co.iops[0],
            co.runtime[0] / solo.runtime[0]
        );
    }

    // The Table 1 killer cell, re-run on the SSD: the motivating
    // interference disappears with the seek.
    let engine = Engine::new(HostConfig::class("ssd"));
    let sr = apps::seq_read();
    let solo = engine.solo_run(&sr, 3).runtime[0];
    let io_high = engine
        .co_run(&sr, &apps::synthetic(0.0, 1.0, 1.0), 4)
        .runtime[0];
    println!(
        "\nSeqRead vs I/O-high on SSD: {:.2}x (was ~7.5x on the SATA disk, 10.23x in the paper)",
        io_high / solo
    );
    println!("An interference-aware scheduler buys little on seek-free devices —");
    println!("TRACON's value is tied to storage whose positioning cost amplifies mixing.");
}
