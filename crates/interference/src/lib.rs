//! Interference model for concurrently running kernel classes
//! (paper §5.2.2, Algorithm 1).
//!
//! When computation, NCCL (GPU↔GPU), D2H and H2D copies run at the same
//! time they slow each other down — on the PCIe-only L4 boxes, NCCL and
//! host copies literally share the bus. Mist assigns every combination of
//! co-running kernel classes a set of *slowdown factors* and resolves a
//! 4-tuple of per-stream busy times into a wall-clock prediction by
//! progressively consuming the overlap (Algorithm 1). A data-driven pass
//! fits the factors against measured samples — here produced by the
//! `mist-sim` discrete-event simulator, which hides its own ground-truth
//! law (see DESIGN.md).
//!
//! Algorithm 1 comes in two forms with one semantics:
//!
//! * [`InterferenceModel::predict`] resolves one 4-tuple. It is the
//!   reference, accepts every input (idle, non-finite and negative
//!   stream times included; see its docs) and is the fallback of the
//!   batched form.
//! * [`InterferenceModel::predict_columns`] resolves a batch held as
//!   four stream columns — what the tuner's sweep runs, four times per
//!   feasible row. On `x86_64` CPUs with AVX-512F (detected at runtime)
//!   it runs eight rows per vector with per-lane live masks, factor
//!   lookups by permute and masked updates; tail rows, other CPUs and
//!   non-x86 targets run `predict` per row. The result is bit-identical
//!   to `predict` on every row: each lane performs the same IEEE
//!   operations in the same order (its docs give the full argument).

mod batch;
mod fit;
mod model;

pub use fit::{fit, FitReport};
pub use model::{InterferenceModel, StreamKind, NUM_STREAMS};
