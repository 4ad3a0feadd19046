//! Per-backend health tracking: the state machine that decides which ring
//! candidates are worth trying.
//!
//! Every backend is a two-state machine (`up`/`down`) driven by
//! *consecutive* outcomes: [`HealthOptions::eject_after`] failures in a
//! row eject an `up` backend, [`HealthOptions::reinstate_after`] successes
//! in a row reinstate a `down` one. Both the active checker (a periodic
//! `GET /health` probe per backend) and the request path (every forward's
//! outcome) feed the same machine, so a backend that dies mid-burst is
//! ejected by the traffic hitting it without waiting for the next probe
//! tick — and a drained backend (whose `/health` answers `503`) is ejected
//! cleanly without a single connection reset.
//!
//! Backends start `up`: an optimistic start lets traffic flow immediately,
//! and the request path's own failover covers a backend that was already
//! dead at router boot.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Active health-checker configuration.
#[derive(Debug, Clone)]
pub struct HealthOptions {
    /// Pause before each probe sweep over the fleet (the first included).
    pub interval: Duration,
    /// Per-probe connect/read deadline (also the router's backend connect
    /// timeout and its `/stats` fan-out deadline).
    pub timeout: Duration,
    /// Consecutive failures that eject an `up` backend.
    pub eject_after: u32,
    /// Consecutive successes that reinstate a `down` backend.
    pub reinstate_after: u32,
}

impl Default for HealthOptions {
    fn default() -> Self {
        HealthOptions {
            interval: Duration::from_millis(500),
            timeout: Duration::from_secs(2),
            eject_after: 3,
            reinstate_after: 2,
        }
    }
}

/// One backend's live health state.
#[derive(Debug, Clone)]
pub struct BackendHealth {
    /// Whether the backend is currently eligible for traffic.
    pub up: bool,
    /// Failures since the last success.
    pub consecutive_failures: u32,
    /// Successes since the last failure.
    pub consecutive_successes: u32,
    /// What the most recent failure looked like, for `/stats`.
    pub last_error: Option<String>,
}

impl BackendHealth {
    fn new() -> BackendHealth {
        BackendHealth {
            up: true,
            consecutive_failures: 0,
            consecutive_successes: 0,
            last_error: None,
        }
    }
}

/// The whole fleet's health, shared between the checker thread and every
/// request worker.
#[derive(Debug)]
pub struct FleetHealth {
    states: Mutex<Vec<BackendHealth>>,
    eject_after: u32,
    reinstate_after: u32,
    /// Up→down transitions (monotonic).
    pub ejections: AtomicU64,
    /// Down→up transitions (monotonic).
    pub reinstatements: AtomicU64,
}

impl FleetHealth {
    /// All-`up` state for `backends` machines with the given thresholds
    /// (both promoted to at least 1: a threshold of 0 would mean "eject on
    /// nothing at all").
    pub fn new(backends: usize, eject_after: u32, reinstate_after: u32) -> FleetHealth {
        FleetHealth {
            states: Mutex::new((0..backends).map(|_| BackendHealth::new()).collect()),
            eject_after: eject_after.max(1),
            reinstate_after: reinstate_after.max(1),
            ejections: AtomicU64::new(0),
            reinstatements: AtomicU64::new(0),
        }
    }

    /// Records one successful probe or forward; returns `true` when this
    /// success reinstated a down backend.
    pub fn record_success(&self, index: usize) -> bool {
        let mut states = self.states.lock().unwrap_or_else(|e| e.into_inner());
        let state = &mut states[index];
        state.consecutive_failures = 0;
        state.consecutive_successes = state.consecutive_successes.saturating_add(1);
        if !state.up && state.consecutive_successes >= self.reinstate_after {
            state.up = true;
            state.last_error = None;
            self.reinstatements.fetch_add(1, Ordering::SeqCst);
            return true;
        }
        false
    }

    /// Records one failed probe or forward; returns `true` when this
    /// failure ejected an up backend.
    pub fn record_failure(&self, index: usize, error: &str) -> bool {
        let mut states = self.states.lock().unwrap_or_else(|e| e.into_inner());
        let state = &mut states[index];
        state.consecutive_successes = 0;
        state.consecutive_failures = state.consecutive_failures.saturating_add(1);
        state.last_error = Some(error.to_string());
        if state.up && state.consecutive_failures >= self.eject_after {
            state.up = false;
            self.ejections.fetch_add(1, Ordering::SeqCst);
            return true;
        }
        false
    }

    /// Whether backend `index` is currently eligible for traffic.
    pub fn is_up(&self, index: usize) -> bool {
        self.states.lock().unwrap_or_else(|e| e.into_inner())[index].up
    }

    /// Number of backends currently up.
    pub fn up_count(&self) -> usize {
        self.states.lock().unwrap_or_else(|e| e.into_inner()).iter().filter(|s| s.up).count()
    }

    /// A point-in-time copy of every backend's state (for `/stats`).
    pub fn snapshot(&self) -> Vec<BackendHealth> {
        self.states.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ejects_after_consecutive_failures_only() {
        let fleet = FleetHealth::new(2, 3, 2);
        assert!(!fleet.record_failure(0, "connect refused"));
        assert!(!fleet.record_failure(0, "connect refused"));
        // A success in between resets the streak.
        fleet.record_success(0);
        assert!(!fleet.record_failure(0, "connect refused"));
        assert!(!fleet.record_failure(0, "connect refused"));
        assert!(fleet.is_up(0));
        assert!(fleet.record_failure(0, "connect refused"), "third in a row ejects");
        assert!(!fleet.is_up(0));
        assert!(fleet.is_up(1), "sibling state is independent");
        assert_eq!(fleet.ejections.load(Ordering::SeqCst), 1);
        // Further failures on a down backend are not further ejections.
        assert!(!fleet.record_failure(0, "still dead"));
        assert_eq!(fleet.ejections.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn reinstates_after_consecutive_successes() {
        let fleet = FleetHealth::new(1, 1, 2);
        fleet.record_failure(0, "boom");
        assert!(!fleet.is_up(0));
        assert!(!fleet.record_success(0), "one success is not enough");
        fleet.record_failure(0, "flap"); // resets the success streak
        fleet.record_success(0);
        assert!(fleet.record_success(0), "two in a row reinstate");
        assert!(fleet.is_up(0));
        assert_eq!(fleet.reinstatements.load(Ordering::SeqCst), 1);
        assert_eq!(fleet.snapshot()[0].last_error, None, "reinstatement clears the error");
    }

    #[test]
    fn zero_thresholds_are_promoted_to_one() {
        let fleet = FleetHealth::new(1, 0, 0);
        assert!(fleet.record_failure(0, "x"), "threshold 0 behaves as 1");
        assert!(fleet.record_success(0));
        assert_eq!(fleet.up_count(), 1);
    }
}
