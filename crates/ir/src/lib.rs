//! # blazer-ir
//!
//! The intermediate representation used by the Blazer reproduction.
//!
//! The original Blazer tool (PLDI 2017) analyzed Java bytecode through the
//! WALA front-end, which produces an SSA-based control-flow graph. This crate
//! is the Rust substitute: a small, explicitly-typed imperative IR organized
//! as a control-flow graph of basic blocks. Every analysis in the workspace
//! (taint, abstract interpretation, bound analysis, trail construction)
//! consumes this IR; none of them ever look at surface syntax.
//!
//! The main types are:
//!
//! * [`Program`] — a collection of [`Function`]s and [`ExternDecl`]s.
//! * [`Function`] — parameters (with [`SecurityLabel`]s), local variables,
//!   and basic [`Block`]s ending in a [`Terminator`].
//! * [`Cfg`] — the derived control-flow graph with a single virtual exit
//!   node, successor/predecessor maps, and traversal orders.
//! * [`cost::CostModel`] — the pluggable observer machine model: the
//!   paper's per-instruction weight counting (it counts "each bytecode
//!   instruction ... as a single unit", Sec. 5), or a cache-aware model
//!   where array-access cost depends on abstract L1D cache state.
//!
//! ```
//! use blazer_ir::builder::FunctionBuilder;
//! use blazer_ir::{Type, SecurityLabel, Cond, CmpOp, Operand};
//!
//! // fn constant(high: int #high) { if high == 0 { } else { } }
//! let mut b = FunctionBuilder::new("constant");
//! let high = b.param("high", Type::Int, SecurityLabel::High);
//! let then_bb = b.new_block();
//! let else_bb = b.new_block();
//! let join = b.new_block();
//! b.branch(Cond::cmp(CmpOp::Eq, high, Operand::konst(0)), then_bb, else_bb);
//! b.switch_to(then_bb);
//! b.goto(join);
//! b.switch_to(else_bb);
//! b.goto(join);
//! b.switch_to(join);
//! b.ret(None);
//! let f = b.finish();
//! assert_eq!(f.blocks().len(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod builder;
pub mod cfg;
pub mod cost;
pub mod dominators;
pub mod fanout;
pub mod function;
pub mod inst;
pub mod json;
pub mod pretty;
pub mod program;
pub mod types;

pub use cfg::{Cfg, Edge, NodeId};
pub use function::{Block, BlockId, Function, Param, VarId, VarInfo};
pub use inst::{CallCost, CmpOp, Cond, Expr, Inst, Operand, Terminator, UnOp};
pub use program::{ExternDecl, Program};
pub use types::{SecurityLabel, Type};

/// Binary arithmetic and logical operators available in [`Expr::Binary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Integer addition.
    Add,
    /// Integer subtraction.
    Sub,
    /// Integer multiplication.
    Mul,
    /// Integer division (truncating, like Java). Division by zero traps.
    Div,
    /// Integer remainder. Remainder by zero traps.
    Rem,
    /// Bitwise and (also used for logical and on canonical 0/1 booleans).
    And,
    /// Bitwise or (also used for logical or on canonical 0/1 booleans).
    Or,
    /// Bitwise exclusive or.
    Xor,
    /// Arithmetic shift left.
    Shl,
    /// Arithmetic shift right.
    Shr,
}

impl BinOp {
    /// A short printable mnemonic (`"+"`, `"&"`, ...).
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::And => "&",
            BinOp::Or => "|",
            BinOp::Xor => "^",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
        }
    }
}

impl std::fmt::Display for BinOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.symbol())
    }
}
