//! # blazer-automata
//!
//! Finite automata and regular expressions over small integer alphabets.
//!
//! The original Blazer used the `dk.brics.automaton` Java library "to check
//! language inclusion and construct intersection, union, and complementation
//! automata" over trails — regular expressions whose alphabet is the set of
//! CFG edges (Sec. 5). This crate is the from-scratch Rust substitute:
//!
//! * [`Regex`] — regular expressions over symbols `0..alphabet_size`;
//! * [`Nfa`] — Thompson construction from regexes;
//! * [`Dfa`] — subset construction, completion, complementation, and
//!   Moore minimization;
//! * [`ops`] — product constructions, emptiness, inclusion, equivalence;
//! * [`antichain`] — on-the-fly decision procedures over *lazy* automata
//!   with antichain pruning (the engine behind every yes/no question,
//!   including the [`ops`] ones);
//! * [`kleene`] — conversion of a labeled graph into a regular expression by
//!   state elimination (used to build the *most general trail* of a CFG).
//!
//! ```
//! use blazer_automata::{Regex, Dfa};
//!
//! // (0·1)* over the alphabet {0, 1}.
//! let r = Regex::symbol(0).then(Regex::symbol(1)).star();
//! let d = Dfa::from_regex(&r, 2);
//! assert!(d.accepts(&[]));
//! assert!(d.accepts(&[0, 1, 0, 1]));
//! assert!(!d.accepts(&[0, 0]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod antichain;
pub mod dfa;
pub mod kleene;
pub mod nfa;
pub mod ops;
pub mod regex;

pub use antichain::AntichainStats;
pub use dfa::Dfa;
pub use kleene::graph_to_regex;
pub use nfa::Nfa;
pub use regex::Regex;

/// A symbol of the (dense, interned) alphabet.
pub type Sym = u32;
