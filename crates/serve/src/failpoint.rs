//! Deterministic failpoints: named fault-injection sites compiled into
//! the serve stack's fallible I/O paths.
//!
//! Every site is a call to [`should_fail`] naming the site (a stable
//! dotted string such as `wal.append.sync`) and a *scope* — a free-form
//! string identifying the instance being exercised (the WAL directory
//! for storage sites, the peer address for replication sites). When the
//! registry is disarmed — the steady state — `should_fail` is a single
//! relaxed atomic load returning `None`, so production behavior is
//! byte-identical to a build without the hooks.
//!
//! Arming is textual. A **spec** is a `;`-separated list of entries:
//!
//! ```text
//! site[@scope]=action[*count][%permille]
//! seed=N
//! ```
//!
//! * `site` — exact site name (`wal.append.write`, `repl.lease`, …).
//! * `@scope` — optional substring filter on the caller's scope string;
//!   omitted means "every instance". Tests arm `@<tempdir>` so parallel
//!   tests cannot trip each other's faults.
//! * `action` — `err` (the site returns an injected I/O error), `short`
//!   (write sites persist a truncated prefix), `skip` (the site silently
//!   drops the operation).
//! * `*count` — inject at most `count` times, then the entry goes inert.
//! * `%permille` — inject with probability `permille`/1000 per matching
//!   hit, drawn from the registry's seeded RNG (default: always).
//! * `seed=N` — reseed the RNG (splitmix64), making `%` draws
//!   reproducible across runs.
//!
//! Example: `wal.append.sync=err*3;wal.append.write=short%250;seed=7`.
//!
//! The registry is global (sites live in library code far from any
//! handle), guarded by a mutex that is only touched while armed, and
//! observable: [`status_line`] reports per-entry hit/injection counts so
//! the chaos harness can print injected-vs-observed fault tallies.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use tracon_stats::prng::SplitMix64;

/// What an armed site injects at the call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Fail the operation with an injected `io::Error`.
    Err,
    /// Perform the operation on a truncated prefix (write sites only;
    /// non-write sites treat it like `Err`).
    Short,
    /// Silently skip the operation and report success.
    Skip,
}

impl Action {
    fn parse(s: &str) -> Option<Action> {
        match s {
            "err" => Some(Action::Err),
            "short" => Some(Action::Short),
            "skip" => Some(Action::Skip),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Action::Err => "err",
            Action::Short => "short",
            Action::Skip => "skip",
        }
    }
}

/// One armed spec entry.
#[derive(Debug, Clone)]
struct Site {
    name: String,
    scope: Option<String>,
    action: Action,
    /// Remaining injections (`None` = unlimited).
    remaining: Option<u64>,
    /// Injection probability in permille (1000 = always).
    permille: u16,
    hits: u64,
    injected: u64,
}

#[derive(Debug, Default)]
struct Registry {
    sites: Vec<Site>,
    rng: SplitMix64,
    total_injected: u64,
}

static ARMED: AtomicBool = AtomicBool::new(false);
static REGISTRY: Mutex<Option<Registry>> = Mutex::new(None);

/// Parse and arm `spec`, **adding** to whatever is already armed.
/// Returns the number of site entries added, or a description of the
/// first malformed entry (in which case nothing from `spec` is armed).
pub fn arm(spec: &str) -> Result<usize, String> {
    let mut parsed: Vec<Site> = Vec::new();
    let mut seed: Option<u64> = None;
    for entry in spec.split(';') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (lhs, rhs) = entry
            .split_once('=')
            .ok_or_else(|| format!("failpoint entry missing '=': {entry}"))?;
        if lhs == "seed" {
            seed = Some(
                rhs.parse::<u64>()
                    .map_err(|_| format!("bad failpoint seed: {rhs}"))?,
            );
            continue;
        }
        let (name, scope) = match lhs.split_once('@') {
            Some((n, s)) => (n.trim(), Some(s.trim().to_string())),
            None => (lhs.trim(), None),
        };
        if name.is_empty() {
            return Err(format!("failpoint entry missing site name: {entry}"));
        }
        // action[*count][%permille], fixed order.
        let mut rest = rhs.trim();
        let mut permille: u16 = 1000;
        if let Some((head, pm)) = rest.rsplit_once('%') {
            let pm: u16 = pm
                .parse()
                .map_err(|_| format!("bad failpoint permille: {rest}"))?;
            if pm > 1000 {
                return Err(format!("failpoint permille over 1000: {rest}"));
            }
            permille = pm;
            rest = head;
        }
        let mut remaining: Option<u64> = None;
        if let Some((head, count)) = rest.rsplit_once('*') {
            remaining = Some(
                count
                    .parse::<u64>()
                    .map_err(|_| format!("bad failpoint count: {rest}"))?,
            );
            rest = head;
        }
        let action =
            Action::parse(rest).ok_or_else(|| format!("unknown failpoint action: {rest}"))?;
        parsed.push(Site {
            name: name.to_string(),
            scope,
            action,
            remaining,
            permille,
            hits: 0,
            injected: 0,
        });
    }
    let added = parsed.len();
    if added == 0 && seed.is_none() {
        return Err("empty failpoint spec".to_string());
    }
    if let Ok(mut guard) = REGISTRY.lock() {
        let reg = guard.get_or_insert_with(Registry::default);
        if let Some(s) = seed {
            reg.rng = SplitMix64::new(s);
        }
        reg.sites.extend(parsed);
        if !reg.sites.is_empty() {
            ARMED.store(true, Ordering::Release);
        }
    }
    Ok(added)
}

/// Disarm every site and zero the counters. The registry returns to the
/// zero-cost disabled state.
pub fn disarm_all() {
    ARMED.store(false, Ordering::Release);
    if let Ok(mut guard) = REGISTRY.lock() {
        *guard = None;
    }
}

/// True when any failpoint is armed. Call sites whose *scope string* is
/// costly to build (a path render, a `to_string`) gate its construction
/// on this so the disarmed steady state stays one relaxed load with no
/// allocation.
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// The hook compiled into each fallible site. Disarmed (the steady
/// state) this is one relaxed load and `None`; armed, the first entry
/// matching `site` (and whose scope filter is a substring of `scope`)
/// that still has injections left — and wins its permille draw — fires.
#[inline]
pub fn should_fail(site: &str, scope: &str) -> Option<Action> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    should_fail_slow(site, scope)
}

#[cold]
fn should_fail_slow(site: &str, scope: &str) -> Option<Action> {
    let mut guard = REGISTRY.lock().ok()?;
    let reg = guard.as_mut()?;
    let mut fired: Option<Action> = None;
    for s in reg.sites.iter_mut() {
        if s.name != site {
            continue;
        }
        if let Some(filter) = &s.scope {
            if !scope.contains(filter.as_str()) {
                continue;
            }
        }
        if s.remaining == Some(0) {
            continue;
        }
        s.hits += 1;
        if s.permille < 1000 && reg.rng.below(1000) >= u64::from(s.permille) {
            continue;
        }
        if let Some(r) = &mut s.remaining {
            *r -= 1;
        }
        s.injected += 1;
        fired = Some(s.action);
        break;
    }
    if fired.is_some() {
        reg.total_injected += 1;
    }
    fired
}

/// Total injections across all sites since the last [`disarm_all`].
pub fn injected_total() -> u64 {
    if !ARMED.load(Ordering::Relaxed) {
        return 0;
    }
    REGISTRY
        .lock()
        .ok()
        .and_then(|g| g.as_ref().map(|r| r.total_injected))
        .unwrap_or(0)
}

/// One-line status: `armed=<n> injected=<total> site[@scope]=action hits=<h> injected=<i> …`
/// (or `disarmed`). This is what the `fail status` control verb returns
/// and what the chaos report prints as the server-side tally.
pub fn status_line() -> String {
    if !ARMED.load(Ordering::Relaxed) {
        return "disarmed".to_string();
    }
    let guard = match REGISTRY.lock() {
        Ok(g) => g,
        Err(_) => return "disarmed".to_string(),
    };
    let reg = match guard.as_ref() {
        Some(r) => r,
        None => return "disarmed".to_string(),
    };
    let mut out = format!("armed={} injected={}", reg.sites.len(), reg.total_injected);
    for s in &reg.sites {
        let scope = s
            .scope
            .as_deref()
            .map(|f| format!("@{f}"))
            .unwrap_or_default();
        out.push_str(&format!(
            " {}{}={} hits={} injected={}",
            s.name,
            scope,
            s.action.name(),
            s.hits,
            s.injected
        ));
    }
    out
}

/// The injected error every `err`/`short` site surfaces, recognizable
/// in logs and test assertions.
pub fn injected_error(site: &str) -> std::io::Error {
    std::io::Error::other(format!("failpoint injected: {site}"))
}

/// Serializes unit tests that arm the process-global registry (`cargo
/// test` runs them in parallel; `disarm_all` in one test would wipe
/// another's armed sites). Tests in any module of this crate that call
/// [`arm`] must hold this gate for their whole armed section.
#[cfg(test)]
pub(crate) fn test_gate() -> std::sync::MutexGuard<'static, ()> {
    use std::sync::{Mutex as StdMutex, OnceLock};
    static GATE: OnceLock<StdMutex<()>> = OnceLock::new();
    match GATE.get_or_init(|| StdMutex::new(())).lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        test_gate()
    }

    #[test]
    fn disarmed_is_none_and_free() {
        let _g = lock();
        disarm_all();
        assert_eq!(should_fail("wal.append.sync", "/tmp/x"), None);
        assert_eq!(injected_total(), 0);
        assert_eq!(status_line(), "disarmed");
    }

    #[test]
    fn count_limits_and_scope_filters_apply() {
        let _g = lock();
        disarm_all();
        assert_eq!(arm("wal.append.sync@alpha=err*2").unwrap(), 1);
        // Wrong scope: never fires, but also never consumes the budget.
        assert_eq!(should_fail("wal.append.sync", "/dir/beta/wal"), None);
        assert_eq!(
            should_fail("wal.append.sync", "/dir/alpha/wal"),
            Some(Action::Err)
        );
        assert_eq!(
            should_fail("wal.append.sync", "/dir/alpha/wal"),
            Some(Action::Err)
        );
        // Budget exhausted.
        assert_eq!(should_fail("wal.append.sync", "/dir/alpha/wal"), None);
        assert_eq!(injected_total(), 2);
        let status = status_line();
        assert!(status.contains("injected=2"), "{status}");
        disarm_all();
    }

    #[test]
    fn permille_draws_are_seeded_and_reproducible() {
        let _g = lock();
        disarm_all();
        arm("seed=42;x@s=skip%500").unwrap();
        let first: Vec<bool> = (0..64).map(|_| should_fail("x", "s").is_some()).collect();
        disarm_all();
        arm("seed=42;x@s=skip%500").unwrap();
        let second: Vec<bool> = (0..64).map(|_| should_fail("x", "s").is_some()).collect();
        assert_eq!(first, second, "same seed must give the same draws");
        let fires = first.iter().filter(|b| **b).count();
        assert!(
            (8..=56).contains(&fires),
            "permille 500 should fire roughly half the time, got {fires}/64"
        );
        disarm_all();
    }

    /// Known answer from the build before the generator moved to
    /// `tracon_stats::prng`: the CI torture job arms `seed=9`, and its
    /// injected faults replay only while these draws hold.
    #[test]
    fn seed_nine_draws_are_pinned() {
        let _g = lock();
        disarm_all();
        arm("seed=9;x@s=skip%500").unwrap();
        let fired = (0..64).fold(0u64, |mask, bit| {
            mask | u64::from(should_fail("x", "s").is_some()) << bit
        });
        assert_eq!(fired, 0x6aa6_2831_606d_53a3, "{fired:#018x}");
        disarm_all();
    }

    #[test]
    fn malformed_specs_are_rejected_whole() {
        let _g = lock();
        disarm_all();
        assert!(arm("").is_err());
        assert!(arm("noequals").is_err());
        assert!(arm("x=explode").is_err());
        assert!(arm("x=err%1500").is_err());
        assert!(arm("x=err*abc").is_err());
        // A bad entry poisons the whole spec: nothing armed.
        assert!(arm("ok=err;bad=zzz").is_err());
        assert_eq!(should_fail("ok", ""), None);
        disarm_all();
    }

    #[test]
    fn status_line_reports_hits_and_actions() {
        let _g = lock();
        disarm_all();
        arm("a@t1=short").unwrap();
        should_fail("a", "t1");
        should_fail("a", "t1");
        let s = status_line();
        assert!(s.contains("armed=1"), "{s}");
        assert!(s.contains("a@t1=short hits=2 injected=2"), "{s}");
        disarm_all();
    }
}
