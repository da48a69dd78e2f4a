//! Table 1: normalized App1 runtime in VM1 while various App2 workloads
//! run in VM2 — the paper's motivating interference measurement.
//!
//! Paper values: Calc row 1.96 / 1.26 / 1.77 / 2.52; SeqRead row 1.03 /
//! 10.23 / 1.78 / 16.11 (columns: CPU-high, I/O-high, CPU&I/O-medium,
//! CPU&I/O-high).

use tracon_vmsim::{apps, Engine, HostConfig};

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// App1 name (Calc or SeqRead).
    pub app1: &'static str,
    /// Normalized runtimes for the four App2 columns.
    pub cells: [f64; 4],
}

/// The reproduced Table 1.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// Column labels (App2 workloads).
    pub columns: [&'static str; 4],
    /// Calc and SeqRead rows.
    pub rows: Vec<Table1Row>,
}

/// Runs the Table 1 measurement on the virtualized testbed.
pub fn run(host: HostConfig, seed: u64) -> Table1 {
    let engine = Engine::new(host);
    let backgrounds = apps::table1_backgrounds();
    let columns = ["CPU high", "I/O high", "CPU&I/O med", "CPU&I/O high"];
    let mut rows = Vec::new();
    for (name, app1) in [("Calc", apps::calc()), ("SeqRead", apps::seq_read())] {
        let solo = engine.solo_run(&app1, seed).runtime[0];
        let mut cells = [0.0; 4];
        for (i, (_, bg)) in backgrounds.iter().enumerate() {
            let out = engine.co_run(&app1, bg, seed.wrapping_add(i as u64 + 1));
            cells[i] = out.runtime[0] / solo;
        }
        rows.push(Table1Row { app1: name, cells });
    }
    Table1 { columns, rows }
}

impl Table1 {
    /// Renders the table in the paper's layout.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Table 1: normalized App1 runtime under App2 interference"
        );
        let _ = write!(out, "{:10}", "App1\\App2");
        for c in self.columns {
            let _ = write!(out, " {c:>14}");
        }
        let _ = writeln!(out);
        for row in &self.rows {
            let _ = write!(out, "{:10}", row.app1);
            for v in row.cells {
                let _ = write!(out, " {v:14.2}");
            }
            let _ = writeln!(out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_reproduces_paper_structure() {
        let t = run(HostConfig::testbed(), 1);
        assert_eq!(t.rows.len(), 2);
        let calc = &t.rows[0];
        let seqread = &t.rows[1];
        // Calc row: CPU doubling, mild I/O effect, worst when both high.
        assert!(
            (1.8..2.2).contains(&calc.cells[0]),
            "calc cpu-high {}",
            calc.cells[0]
        );
        assert!(
            calc.cells[1] < calc.cells[0],
            "I/O-high must be mildest for Calc"
        );
        assert!(
            calc.cells[3] >= calc.cells[0] * 0.95,
            "CPU&I/O-high worst-ish for Calc"
        );
        // SeqRead row: unaffected by CPU, collapses under I/O, worst when
        // the neighbour also saturates the CPU.
        assert!(
            seqread.cells[0] < 1.3,
            "seqread cpu-high {}",
            seqread.cells[0]
        );
        assert!(
            seqread.cells[1] > 5.0,
            "seqread io-high {}",
            seqread.cells[1]
        );
        assert!(
            seqread.cells[3] > seqread.cells[1],
            "CPU&I/O-high ({}) must exceed I/O-high ({})",
            seqread.cells[3],
            seqread.cells[1]
        );
        assert!(
            seqread.cells[2] < seqread.cells[1],
            "medium I/O must interfere less than high"
        );
    }
}
