//! Extension experiment (the paper's future work, Section 5): "we will
//! explore I/O interference effects on various storage devices, e.g.,
//! RAID and solid-state drives (SSD), as well as network storage
//! systems."
//!
//! We repeat the Table 1 motivating measurement and the worst benchmark
//! pairing on four devices — the local SATA disk, a 4-disk RAID-0
//! stripe, an SSD, and the congested iSCSI path — and quantify how much
//! room each device leaves an interference-aware scheduler (the best/
//! worst pairing spread of the I/O-heaviest application).

use tracon_vmsim::{apps, Benchmark, Engine, HostConfig};

/// Interference summary for one storage device.
#[derive(Debug, Clone)]
pub struct StorageRow {
    /// Device label.
    pub device: &'static str,
    /// SeqRead slowdown next to the I/O-high synthetic neighbour
    /// (Table 1's worst pure-I/O cell).
    pub seqread_io_high: f64,
    /// video slowdown next to dedup (the worst measured benchmark pair on
    /// the SATA testbed).
    pub video_vs_dedup: f64,
    /// video slowdown next to email (the best pairing).
    pub video_vs_email: f64,
    /// Scheduling room: worst-pair / best-pair slowdown ratio for video.
    pub room: f64,
}

/// The extension-experiment result.
#[derive(Debug, Clone)]
pub struct ExtStorage {
    /// One row per device.
    pub rows: Vec<StorageRow>,
}

/// Runs the storage sweep. `time_scale` shortens the benchmarks.
pub fn run(time_scale: f64, seed: u64) -> ExtStorage {
    let devices: [(&'static str, HostConfig); 4] = [
        ("SATA disk", HostConfig::testbed()),
        ("RAID-0 x4", HostConfig::class("raid0x4")),
        ("SSD", HostConfig::class("ssd")),
        ("iSCSI", HostConfig::class("iscsi")),
    ];
    let video = Benchmark::Video.model().time_scaled(time_scale);
    let dedup = Benchmark::Dedup.model().time_scaled(time_scale);
    let email = Benchmark::Email.model().time_scaled(time_scale);

    let mut rows = Vec::new();
    for (device, host) in devices {
        let engine = Engine::new(host);
        // Table 1 cell: SeqRead vs I/O-high.
        let sr = apps::seq_read().time_scaled(time_scale);
        let sr_solo = engine.solo_run(&sr, seed).runtime[0];
        let sr_io = engine
            .co_run(&sr, &apps::synthetic(0.0, 1.0, 1.0), seed.wrapping_add(1))
            .runtime[0];
        // Benchmark pair extremes for video.
        let v_solo = engine.solo_run(&video, seed.wrapping_add(2)).runtime[0];
        let v_dedup = engine
            .co_run(&video, &dedup.as_endless(), seed.wrapping_add(3))
            .runtime[0];
        let v_email = engine
            .co_run(&video, &email.as_endless(), seed.wrapping_add(4))
            .runtime[0];
        let video_vs_dedup = v_dedup / v_solo;
        let video_vs_email = v_email / v_solo;
        rows.push(StorageRow {
            device,
            seqread_io_high: sr_io / sr_solo,
            video_vs_dedup,
            video_vs_email,
            room: video_vs_dedup / video_vs_email.max(1e-9),
        });
    }
    ExtStorage { rows }
}

impl ExtStorage {
    /// Row by device label.
    pub fn row(&self, device: &str) -> Option<&StorageRow> {
        self.rows.iter().find(|r| r.device == device)
    }

    /// Renders the sweep.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "Storage extension: interference across device types");
        let _ = writeln!(
            out,
            "{:>10} {:>18} {:>16} {:>16} {:>12}",
            "device", "SeqRead|IO-high", "video|dedup", "video|email", "sched. room"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:>10} {:>17.2}x {:>15.2}x {:>15.2}x {:>11.2}x",
                r.device, r.seqread_io_high, r.video_vs_dedup, r.video_vs_email, r.room
            );
        }
        let _ = writeln!(
            out,
            "\n'sched. room' = worst/best pairing slowdown for the most I/O-intensive app:"
        );
        let _ = writeln!(
            out,
            "the spread an interference-aware scheduler can exploit on that device."
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ssd_collapses_interference() {
        let fig = run(0.08, 3);
        let sata = fig.row("SATA disk").unwrap();
        let ssd = fig.row("SSD").unwrap();
        // Mechanical seek amplification disappears on the SSD.
        assert!(
            ssd.seqread_io_high < sata.seqread_io_high / 2.0,
            "SSD {} vs SATA {}",
            ssd.seqread_io_high,
            sata.seqread_io_high
        );
        assert!(
            ssd.room < sata.room,
            "SSD room {} vs SATA {}",
            ssd.room,
            sata.room
        );
    }

    #[test]
    fn raid_softens_but_does_not_remove_interference() {
        let fig = run(0.08, 4);
        let sata = fig.row("SATA disk").unwrap();
        let raid = fig.row("RAID-0 x4").unwrap();
        assert!(raid.video_vs_dedup < sata.video_vs_dedup);
        assert!(
            raid.video_vs_dedup > 1.02,
            "RAID still interferes: {}",
            raid.video_vs_dedup
        );
    }

    #[test]
    fn iscsi_remains_interference_prone() {
        let fig = run(0.08, 5);
        let iscsi = fig.row("iSCSI").unwrap();
        assert!(iscsi.room > 1.3, "iSCSI room {}", iscsi.room);
    }
}
