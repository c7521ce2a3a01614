//! Symbolic expression engine for Mist.
//!
//! This crate implements the substrate behind Mist's *symbolic-based
//! efficient performance analysis* (paper §5.2): instead of re-simulating a
//! model for every candidate optimization configuration, Mist traces the
//! model once into expressions over *symbols* (micro-batch size, TP size,
//! offloading ratios, …) and then evaluates thousands of candidate
//! configurations by substituting values into those expressions.
//!
//! The engine is built around three pieces:
//!
//! * [`Context`] — a hash-consing arena. Structurally identical
//!   sub-expressions are interned once, so the expression DAGs produced by
//!   tracing a 96-layer transformer stay small.
//! * [`Expr`] — a lightweight copyable handle with operator overloading.
//!   Construction performs aggressive local simplification (constant
//!   folding, `x + 0`, `x * 1`, `min`/`max` collapsing, …).
//! * [`Program`] — a fused multi-root SSA instruction stream. All the
//!   expressions a caller needs per evaluation point (e.g. every memory
//!   and latency estimate of a pipeline stage) compile together with
//!   cross-root common-subexpression elimination, register allocation
//!   over a reusable [`EvalWorkspace`] column pool, and *broadcast
//!   lanes* that keep uniform (scalar-bound) subtrees as single `f64`s
//!   instead of materialized columns. This is what makes the paper's
//!   "batched value substitution" fast (see the `symbolic_eval`
//!   Criterion bench).
//! * [`Tape`] — the single-root convenience view over a [`Program`],
//!   plain `Send + Sync` data with scalar ([`Tape::eval`]) and batched
//!   ([`Tape::eval_batch`]) entry points. Hot paths that evaluate many
//!   roots per batch should fuse them via
//!   [`Context::compile_program`] instead of looping over tapes.
//! * [`CompiledProgram`] — the production evaluator: a [`Program`]
//!   after superinstruction fusion, lowered to a direct-threaded step
//!   table over L1-resident register blocks, bit-identical to
//!   [`Program::eval_batch`] (see the `compiled` module docs).
//!
//! # Example
//!
//! ```
//! use mist_symbolic::Context;
//!
//! let ctx = Context::new();
//! let b = ctx.symbol("b");            // micro-batch size
//! let tp = ctx.symbol("tp");          // tensor-parallel degree
//! let bytes = b * 4096.0 * 2.0 / tp;  // activation bytes per layer
//!
//! let tape = ctx.compile(bytes);
//! let got = tape.eval(&[("b", 4.0), ("tp", 2.0)]).unwrap();
//! assert_eq!(got, 4.0 * 4096.0 * 2.0 / 2.0);
//! ```

#![warn(missing_docs)]

mod compiled;
mod context;
mod display;
mod error;
mod fuse;
mod node;
mod program;
mod tape;

pub use compiled::{CompiledProgram, CompiledWorkspace};
pub use context::{Context, Expr};
pub use error::SymbolicError;
pub use fuse::fuse_superinstructions;
pub use node::{CmpOp, ExprId, Node, SymbolId};
pub use program::{EvalWorkspace, Instr, Program, SymbolTable};
pub use tape::{BatchBindings, Column, Tape};
