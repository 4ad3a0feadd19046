//! Time one benchmark's analysis and report the number of LP solves —
//! the dominant cost (see DESIGN.md §7):
//!
//! ```console
//! $ cargo run --release -p blazer-bench --example profile modPow2_unsafe
//! ```

use blazer_bench::config_for;
use blazer_benchmarks::by_name;
use blazer_core::Blazer;
use std::time::Instant;

fn main() {
    let name = std::env::args().nth(1).unwrap();
    let b = by_name(&name).unwrap();
    let program = b.compile();
    let t0 = Instant::now();
    let outcome = Blazer::new(config_for(b.group)).analyze(&program, b.function).unwrap();
    println!(
        "{name}: {} in {:.1}s, {} LP solves",
        outcome.verdict,
        t0.elapsed().as_secs_f64(),
        outcome.budget_report.lp_calls
    );
}
