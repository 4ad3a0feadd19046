//! Router-layer fault injection, for the chaos tests.
//!
//! The `blazer` CLI and the Table-1 harnesses parse the analysis points of
//! `BLAZER_FAULT` (`lp_call:<n>`, `panic:<n>`, ... — see
//! `blazer_ir::budget::FaultSpec`) into an analysis' budget; this module
//! extends the same `|`-separated `key:<n>` syntax with two router-layer
//! points, read once when the router starts. Both parsers ignore each
//! other's keys:
//!
//! - `route-connect:<n>` — the next `n` backend connection attempts fail
//!   before dialing, as a refused connection would.
//! - `route-read:<n>` — the next `n` forwards fail after the connection
//!   is obtained but before a response is read, as a mid-request backend
//!   death (SIGKILL, network partition) would.
//!
//! Counts are *consumable*: each armed fault fires exactly once, so a
//! test arming `route-connect:2` sees exactly two injected failures and
//! then normal service — which is precisely the shape retry logic must
//! survive.

use std::sync::atomic::{AtomicU64, Ordering};

/// Parsed router-layer fault counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultPoints {
    /// Connection attempts to fail.
    pub connect: u64,
    /// Post-connect forwards to fail.
    pub read: u64,
}

impl FaultPoints {
    /// Parses the shared `BLAZER_FAULT` syntax, keeping only the router's
    /// keys. Malformed clauses and other layers' keys are ignored (fault
    /// injection is best-effort test tooling, not user API).
    pub fn parse(spec: &str) -> FaultPoints {
        let mut points = FaultPoints::default();
        for clause in spec.split('|') {
            let Some((key, count)) = clause.split_once(':') else { continue };
            let Ok(count) = count.trim().parse::<u64>() else { continue };
            match key.trim() {
                "route-connect" => points.connect = count,
                "route-read" => points.read = count,
                _ => {}
            }
        }
        points
    }

    /// The `BLAZER_FAULT` environment variable's router-layer points
    /// (none when unset).
    pub fn from_env() -> FaultPoints {
        std::env::var("BLAZER_FAULT").map(|spec| FaultPoints::parse(&spec)).unwrap_or_default()
    }

    /// Whether any router-layer fault is armed.
    pub fn is_empty(&self) -> bool {
        *self == FaultPoints::default()
    }
}

/// Armed, consumable fault counters shared by every router worker.
#[derive(Debug, Default)]
pub struct Armed {
    connect: AtomicU64,
    read: AtomicU64,
}

impl Armed {
    /// Arms the given counts.
    pub fn new(points: FaultPoints) -> Armed {
        Armed { connect: AtomicU64::new(points.connect), read: AtomicU64::new(points.read) }
    }

    fn take(counter: &AtomicU64) -> bool {
        counter.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1)).is_ok()
    }

    /// Consumes one `route-connect` fault if armed.
    pub fn take_connect(&self) -> bool {
        Armed::take(&self.connect)
    }

    /// Consumes one `route-read` fault if armed.
    pub fn take_read(&self) -> bool {
        Armed::take(&self.read)
    }

    /// The counts still armed (tests).
    pub fn remaining(&self) -> FaultPoints {
        FaultPoints {
            connect: self.connect.load(Ordering::SeqCst),
            read: self.read.load(Ordering::SeqCst),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_router_keys_and_ignores_the_rest() {
        let points = FaultPoints::parse("lp_call:5|route-connect:2|junk|route-read:1|panic:3");
        assert_eq!(points, FaultPoints { connect: 2, read: 1 });
        assert!(FaultPoints::parse("lp_call:5|overflow:1").is_empty());
        assert!(FaultPoints::parse("route-connect:bogus").is_empty());
        assert!(FaultPoints::parse("").is_empty());
    }

    #[test]
    fn armed_faults_fire_exactly_their_count() {
        let armed = Armed::new(FaultPoints { connect: 2, read: 0 });
        assert!(armed.take_connect());
        assert!(armed.take_connect());
        assert!(!armed.take_connect(), "the third attempt is clean");
        assert!(!armed.take_read(), "read faults were never armed");
        assert!(armed.remaining().is_empty());
    }
}
