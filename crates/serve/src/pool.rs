//! Worker-pool widths for the service, the router and the benchmark
//! harness, resolved at the program edge: an explicit width, else a named
//! environment variable, else the machine's parallelism.
//!
//! The pools these widths size live elsewhere. The connection-serving
//! pool (a bounded queue drained by long-lived workers, because
//! connections arrive over time) is `blazer_http::Server`; the ordered
//! fan-out over a slice (batch items, Table-1 rows, trail evaluations)
//! is [`blazer_ir::fanout::scoped_map`], which reads no environment.

/// The effective pool width for a `width` request: an explicit positive
/// value wins, then a positive value in the named environment variable,
/// then the machine's available parallelism.
pub fn effective_width(explicit: Option<usize>, env_var: &str) -> usize {
    if let Some(n) = explicit {
        return n.max(1);
    }
    if let Some(n) =
        std::env::var(env_var).ok().and_then(|s| s.trim().parse::<usize>().ok()).filter(|n| *n > 0)
    {
        return n;
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The pool width for a *connection-serving* worker loop:
/// [`effective_width`] plus one spare worker when the width fell through
/// to the machine's parallelism (an explicit request or environment
/// override is honored verbatim). Connection workers are thread-per-
/// connection and IO-bound, not CPU-bound: a keep-alive peer — the fleet
/// router parks one warm connection per backend — idle-holds a worker for
/// the whole io timeout, and without the spare that one parked connection
/// starves every one-shot request (health probes, `/stats` scrapes) on a
/// one-core machine.
pub fn serving_width(explicit: Option<usize>, env_var: &str) -> usize {
    if explicit.is_some() || std::env::var(env_var).is_ok_and(|s| !s.trim().is_empty()) {
        effective_width(explicit, env_var)
    } else {
        effective_width(None, env_var) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serving_width_adds_a_spare_only_for_derived_widths() {
        assert_eq!(serving_width(Some(1), "BLAZER_TEST_NO_SUCH_VAR"), 1);
        assert_eq!(serving_width(Some(5), "BLAZER_TEST_NO_SUCH_VAR"), 5);
        assert_eq!(
            serving_width(None, "BLAZER_TEST_NO_SUCH_VAR"),
            effective_width(None, "BLAZER_TEST_NO_SUCH_VAR") + 1
        );
    }

    #[test]
    fn explicit_width_beats_environment() {
        assert_eq!(effective_width(Some(3), "BLAZER_NO_SUCH_VAR"), 3);
        assert_eq!(effective_width(Some(0), "BLAZER_NO_SUCH_VAR"), 1);
        assert!(effective_width(None, "BLAZER_NO_SUCH_VAR") >= 1);
    }
}
