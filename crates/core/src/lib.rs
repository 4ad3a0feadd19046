//! # blazer-core
//!
//! The paper's primary contribution: proving timing-channel freedom by
//! **decomposition** — quotient partitioning with trails — instead of
//! self-composition.
//!
//! The public entry point is [`Blazer`]:
//!
//! ```
//! use blazer_core::{Blazer, Config, Verdict};
//!
//! let program = blazer_lang::compile(
//!     "fn foo(high: int #high, low: int) { \
//!         if (high == 0) { \
//!             let i: int = 0; \
//!             while (i < low) { i = i + 1; } \
//!         } else { \
//!             let i: int = low; \
//!             while (i > 0) { i = i - 1; } \
//!         } \
//!     }",
//! )?;
//! let outcome = Blazer::new(Config::microbench()).analyze(&program, "foo")?;
//! assert!(matches!(outcome.verdict, Verdict::Safe));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Module map (paper section in parentheses):
//!
//! * [`quotient`] — the k-safety / ψ-quotient-partition framework (Sec. 3),
//!   executable on finite trace samples so Theorem 3.1 is testable;
//! * [`mgt`] — the most general trail of a CFG (Sec. 4.1);
//! * [`trail`] — low/high annotation of trail constructors (Sec. 4.2);
//! * [`refine`] — `RefinePartition`: splitting at annotated constructors
//!   (Sec. 4.3);
//! * [`tree`] — the tree of trails rendered in Fig. 1;
//! * [`driver`] — the overall algorithm of Fig. 2 (`CheckSafe`,
//!   `CheckAttack`, and the two refinement loops);
//! * [`attack`] — attack specifications and their concretization into
//!   witness input pairs via the interpreter (Sec. 2.3);
//! * [`leakage`] — the quantified leakage (in bits) every verdict carries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attack;
pub mod driver;
pub mod leakage;
pub mod mgt;
pub mod quotient;
pub mod refine;
pub mod trail;
pub mod tree;

pub use attack::AttackSpec;
pub use blazer_automata::AntichainStats;
pub use blazer_ir::budget::{Budget, BudgetHandle, BudgetReport, FaultSpec, Resource};
pub use driver::{
    concretize_outcome, AnalysisOutcome, Blazer, Config, CoreError, Degradation, DegradeReason,
    DomainKind, SeedStats, UnknownReason, Verdict,
};
pub use leakage::Leakage;
pub use tree::{NodeStatus, SplitKind, TrailTree};
