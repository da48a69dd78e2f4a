//! The scheduler catalogue: which schedulers exist, how each is spelled
//! and how one is built. The simulator, `tracond` and the `tracon` CLI
//! all name their scheduler through [`SchedulerKind`].

use super::{Fifo, Mibs, MibsAblation, MibsVariant, Mios, Mix, Scheduler};
use std::fmt;

/// Which scheduling algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// First-in-first-out baseline.
    Fifo,
    /// Minimum-interference online scheduler (Algorithm 1).
    Mios,
    /// Minimum-interference batch scheduler with the given queue length.
    Mibs(usize),
    /// Minimum-interference mixed scheduler with the given queue length.
    Mix(usize),
    /// An ablated MIBS variant (design-decision ablations) with the given
    /// queue length.
    Ablation(MibsVariant, usize),
}

impl SchedulerKind {
    /// Reads `fifo`, `mios`, `mibs[:W]` or `mix[:W]`. A bare `mibs` or
    /// `mix` takes `default_window`; a window must be a positive integer,
    /// since a batch scheduler over no task places nothing.
    ///
    /// # Errors
    /// Names the text when it spells no scheduler or a bad window.
    pub fn parse(text: &str, default_window: usize) -> Result<Self, String> {
        let (name, spelled) = match text.split_once(':') {
            Some((name, w)) => (name, Some(w)),
            None => (text, None),
        };
        let window = || match spelled.map_or(Ok(default_window), str::parse) {
            Ok(0) => Err(format!("scheduler '{text}': the window must be positive")),
            Ok(w) => Ok(w),
            Err(_) => Err(format!("scheduler '{text}': the window is not a number")),
        };
        match (name, spelled) {
            ("fifo", None) => Ok(SchedulerKind::Fifo),
            ("mios", None) => Ok(SchedulerKind::Mios),
            ("mibs", _) => window().map(SchedulerKind::Mibs),
            ("mix", _) => window().map(SchedulerKind::Mix),
            _ => Err(format!(
                "unknown scheduler '{text}' (fifo|mios|mibs[:W]|mix[:W])"
            )),
        }
    }

    /// Instantiates the scheduler.
    pub fn build(&self) -> Box<dyn Scheduler + Send> {
        match *self {
            SchedulerKind::Fifo => Box::new(Fifo),
            SchedulerKind::Mios => Box::new(Mios::default()),
            SchedulerKind::Mibs(l) => Box::new(Mibs::new(l)),
            SchedulerKind::Mix(l) => Box::new(Mix::new(l)),
            SchedulerKind::Ablation(v, l) => Box::new(MibsAblation::new(v, l)),
        }
    }

    /// The name [`SchedulerKind::parse`] reads, without a window: what
    /// `tracond`'s status reports. An ablation is a MIBS variant.
    pub fn family(&self) -> &'static str {
        match self {
            SchedulerKind::Fifo => "fifo",
            SchedulerKind::Mios => "mios",
            SchedulerKind::Mibs(_) | SchedulerKind::Ablation(..) => "mibs",
            SchedulerKind::Mix(_) => "mix",
        }
    }
}

/// The name the figures and result rows print: `FIFO`, `MIOS`, `MIBS_8`,
/// `MIX_8`, or the ablation's variant name.
impl fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SchedulerKind::Fifo => f.write_str("FIFO"),
            SchedulerKind::Mios => f.write_str("MIOS"),
            SchedulerKind::Mibs(l) => write!(f, "MIBS_{l}"),
            SchedulerKind::Mix(l) => write!(f, "MIX_{l}"),
            SchedulerKind::Ablation(v, _) => f.write_str(v.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_spelling_round_trips_through_parse_and_display() {
        let cases = [
            ("fifo", SchedulerKind::Fifo, "FIFO", "fifo"),
            ("mios", SchedulerKind::Mios, "MIOS", "mios"),
            ("mibs", SchedulerKind::Mibs(8), "MIBS_8", "mibs"),
            ("mibs:3", SchedulerKind::Mibs(3), "MIBS_3", "mibs"),
            ("mix", SchedulerKind::Mix(8), "MIX_8", "mix"),
            ("mix:32", SchedulerKind::Mix(32), "MIX_32", "mix"),
        ];
        for (text, kind, shown, family) in cases {
            assert_eq!(SchedulerKind::parse(text, 8), Ok(kind), "{text}");
            assert_eq!(kind.to_string(), shown);
            assert_eq!(kind.family(), family);
            // Display, lowered and with `_` for `:`, reads back as the kind.
            let again = shown.to_lowercase().replace('_', ":");
            assert_eq!(SchedulerKind::parse(&again, 1), Ok(kind), "{again}");
        }
        let ablation = SchedulerKind::Ablation(MibsVariant::HeadFirst, 16);
        assert_eq!(ablation.to_string(), MibsVariant::HeadFirst.name());
        assert_eq!(ablation.family(), "mibs");
    }

    #[test]
    fn parse_refuses_a_zero_or_bad_window_and_unknown_names() {
        for text in [
            "mibs:0", "mix:0", "mibs:x", "mibs:", "mix:-1", "sjf", "", "MIOS",
        ] {
            let err = SchedulerKind::parse(text, 8).unwrap_err();
            assert!(err.contains(&format!("'{text}'")), "{text}: {err}");
        }
        // The online schedulers have no window to set.
        assert!(SchedulerKind::parse("mios:8", 8).is_err());
        assert!(SchedulerKind::parse("fifo:8", 8).is_err());
        // A zero default window is refused where a window is used.
        assert!(SchedulerKind::parse("mibs", 0)
            .unwrap_err()
            .contains("window"));
        assert!(SchedulerKind::parse("mix", 0).is_err());
        assert_eq!(SchedulerKind::parse("mios", 0), Ok(SchedulerKind::Mios));
    }

    #[test]
    fn built_schedulers_take_the_kinds_window() {
        assert_eq!(SchedulerKind::Fifo.build().window(), None);
        assert_eq!(SchedulerKind::Mios.build().window(), None);
        assert_eq!(SchedulerKind::Mibs(8).build().window(), Some(8));
        assert_eq!(SchedulerKind::Mix(4).build().window(), Some(4));
        let ablation = SchedulerKind::Ablation(MibsVariant::HeadFirst, 16);
        assert_eq!(ablation.build().window(), Some(16));
    }
}
