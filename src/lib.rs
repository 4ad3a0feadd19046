//! # blazer
//!
//! A from-scratch Rust reproduction of *Decomposition Instead of
//! Self-Composition for Proving the Absence of Timing Channels*
//! (Antonopoulos, Gazzillo, Hicks, Koskinen, Terauchi, Wei — PLDI 2017).
//!
//! This facade crate re-exports the whole workspace. The typical flow:
//!
//! ```
//! use blazer::core::{Blazer, Config, Verdict};
//!
//! // 1. Write (or load) a program in the surface language. Parameters
//! //    carry security labels: #high is secret, #low (default) is public.
//! let program = blazer::lang::compile(
//!     "fn check(high: int #high, low: int) { \
//!         if (high == 0) { \
//!             let i: int = 0; \
//!             while (i < low) { i = i + 1; } \
//!         } else { \
//!             let i: int = low; \
//!             while (i > 0) { i = i - 1; } \
//!         } \
//!     }",
//! )?;
//!
//! // 2. Analyze: prove timing-channel freedom, or synthesize an attack.
//! let outcome = Blazer::new(Config::microbench()).analyze(&program, "check")?;
//! assert!(matches!(outcome.verdict, Verdict::Safe));
//!
//! // 3. Inspect the tree of trails (the Fig. 1 visualization).
//! println!("{}", outcome.render_tree(&program));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Crate map:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`ir`] | `blazer-ir` | the CFG-based intermediate representation |
//! | [`lang`] | `blazer-lang` | lexer, parser, checker, lowering |
//! | [`automata`] | `blazer-automata` | regexes, NFA/DFA, language ops |
//! | [`domains`] | `blazer-domains` | rationals, simplex, polyhedra, octagons |
//! | [`taint`] | `blazer-taint` | information-flow analysis |
//! | [`interp`] | `blazer-interp` | concrete interpreter with cost counting |
//! | [`absint`] | `blazer-absint` | trail-restricted abstract interpreter |
//! | [`bounds`] | `blazer-bounds` | symbolic running-time bounds, observers |
//! | [`core`] | `blazer-core` | trails, quotient partitioning, the driver, leakage |
//! | [`selfcomp`] | `blazer-selfcomp` | the self-composition baseline |
//! | [`serve`] | `blazer-serve` | the concurrent HTTP analysis service |
//! | [`http`] | `blazer-http` | the shared HTTP/1.1 wire subset |
//! | [`route`] | `blazer-route` | the fault-tolerant fleet router |
//! | [`benchmarks`] | `blazer-benchmarks` | the 24 Table-1 programs |

#![forbid(unsafe_code)]

/// One-call convenience: compile a surface-language source and analyze one
/// function (the first one when `function` is `None`).
///
/// ```
/// let outcome = blazer::analyze_source(
///     "fn f(h: int #high) { if (h == 0) { tick(90); } else { tick(1); } }",
///     None,
///     blazer::core::Config::microbench(),
/// )?;
/// assert!(outcome.verdict.is_attack());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// # Errors
///
/// Returns compile errors from [`lang`] or analysis errors from [`core`].
pub fn analyze_source(
    source: &str,
    function: Option<&str>,
    config: blazer_core::Config,
) -> Result<blazer_core::AnalysisOutcome, Box<dyn std::error::Error>> {
    let program = blazer_lang::compile(source)?;
    let name = match function {
        Some(f) => f.to_string(),
        None => program.functions().next().ok_or("no functions in source")?.name().to_string(),
    };
    Ok(blazer_core::Blazer::new(config).analyze(&program, &name)?)
}

pub use blazer_absint as absint;
pub use blazer_automata as automata;
pub use blazer_benchmarks as benchmarks;
pub use blazer_bounds as bounds;
pub use blazer_core as core;
pub use blazer_domains as domains;
pub use blazer_http as http;
pub use blazer_interp as interp;
pub use blazer_ir as ir;
pub use blazer_lang as lang;
pub use blazer_route as route;
pub use blazer_selfcomp as selfcomp;
pub use blazer_serve as serve;
pub use blazer_taint as taint;
