//! Fused multi-root evaluation programs with register allocation and
//! broadcast lanes.
//!
//! A [`Program`] compiles *many* expression roots from one [`Context`]
//! into a single SSA instruction stream. Compared to evaluating each
//! root through its own [`Tape`](crate::Tape), a fused program:
//!
//! * shares work across roots — hash-consing means structurally equal
//!   sub-expressions across all roots land in the same SSA slot and are
//!   computed exactly once per batch (cross-root CSE);
//! * allocates *registers* instead of one column per instruction — a
//!   compile-time liveness pass assigns each slot a register from a free
//!   list, and an [`EvalWorkspace`] keeps the register columns alive
//!   between calls, so steady-state batched evaluation performs **zero**
//!   per-instruction column allocations;
//! * computes *broadcast lanes* — any slot whose inputs are all uniform
//!   across the batch (constants, symbols bound to
//!   [`Column::Scalar`](crate::tape::Column)) is computed once as a
//!   single `f64` rather than `n` times, and uniformity propagates
//!   through the instruction stream at evaluation time;
//! * stores variadic operands in one flat arena (`Vec<u32>` plus
//!   `(start, len)` ranges) rather than a heap `Vec` per instruction;
//! * interns symbols in a [`SymbolTable`] so a
//!   [`BatchBindings`](crate::BatchBindings) is resolved to columns once
//!   per evaluation, not once per root per symbol.
//!
//! Numerical behavior is bit-identical to per-root [`Tape`] evaluation:
//! kernels fold operands in the same order, and batch rows that evaluate
//! non-finite are mapped to `f64::INFINITY` exactly as
//! [`Tape::eval_batch`](crate::Tape::eval_batch) does.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::SymbolicError;
use crate::node::{CmpOp, ExprId, Node, SymbolId};
use crate::tape::{BatchBindings, Column};

/// Process-wide program id source. Ids start at 1 so that a fresh
/// [`EvalWorkspace`] (`prepared == 0`) is never considered prepared.
static NEXT_PROGRAM_ID: AtomicU64 = AtomicU64::new(1);

pub(crate) fn next_program_id() -> u64 {
    NEXT_PROGRAM_ID.fetch_add(1, Ordering::Relaxed)
}

/// Interned symbol names with O(1) name→input-slot lookup.
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    names: Vec<String>,
    index: HashMap<String, u32>,
}

impl SymbolTable {
    /// Interns `name`, returning its input slot.
    pub(crate) fn intern(&mut self, name: &str) -> u32 {
        if let Some(&i) = self.index.get(name) {
            return i;
        }
        let i = self.names.len() as u32;
        self.names.push(name.to_owned());
        self.index.insert(name.to_owned(), i);
        i
    }

    /// Symbol names in input-slot order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Number of interned symbols.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when no symbols are interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Input slot of `name`, if interned.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.index.get(name).map(|&i| i as usize)
    }

    /// Resolves scalar `(name, value)` bindings into input-slot order in
    /// one pass over `bindings`.
    ///
    /// Every binding must name a symbol the program actually reads, and
    /// a symbol may be bound more than once only with the same value —
    /// a binding that silently went nowhere (or silently lost to an
    /// earlier conflicting one) is almost always a caller bug.
    ///
    /// # Errors
    ///
    /// [`SymbolicError::UnboundSymbol`] if any interned symbol has no
    /// binding; [`SymbolicError::UnknownBinding`] if a binding names a
    /// symbol that is not interned; [`SymbolicError::ConflictingBinding`]
    /// if a symbol is bound twice with different values.
    pub fn resolve_scalars(&self, bindings: &[(&str, f64)]) -> Result<Vec<f64>, SymbolicError> {
        let mut inputs = vec![f64::NAN; self.names.len()];
        let mut filled = vec![false; self.names.len()];
        let mut remaining = self.names.len();
        for (name, v) in bindings {
            let Some(&i) = self.index.get(*name) else {
                return Err(SymbolicError::UnknownBinding((*name).to_owned()));
            };
            let i = i as usize;
            if filled[i] {
                // Duplicate bindings are tolerated only when they agree
                // (NaN agreeing with NaN, so a repeat never conflicts
                // with itself).
                let same = inputs[i] == *v || (inputs[i].is_nan() && v.is_nan());
                if !same {
                    return Err(SymbolicError::ConflictingBinding {
                        name: (*name).to_owned(),
                        first: inputs[i],
                        second: *v,
                    });
                }
                continue;
            }
            filled[i] = true;
            remaining -= 1;
            inputs[i] = *v;
        }
        if remaining > 0 {
            let missing = self
                .names
                .iter()
                .zip(&filled)
                .find(|(_, done)| !**done)
                .map(|(name, _)| name.clone())
                .expect("remaining > 0 implies an unfilled slot");
            return Err(SymbolicError::UnboundSymbol(missing));
        }
        Ok(inputs)
    }

    /// Resolves batch bindings to columns in input-slot order, validating
    /// column lengths against the batch length.
    pub(crate) fn resolve_batch<'b>(
        &self,
        bindings: &'b BatchBindings,
    ) -> Result<Vec<&'b Column>, SymbolicError> {
        let n = bindings.len();
        let mut cols = Vec::with_capacity(self.names.len());
        for name in &self.names {
            let col = bindings
                .column(name)
                .ok_or_else(|| SymbolicError::UnboundSymbol(name.clone()))?;
            if let Column::Values(v) = col {
                if v.len() != n {
                    return Err(SymbolicError::BatchLengthMismatch {
                        expected: n,
                        got: v.len(),
                    });
                }
            }
            cols.push(col);
        }
        Ok(cols)
    }
}

/// One SSA instruction. Operands are *slot* indices (the instruction's
/// position in the stream); variadic operands live in the program's flat
/// arena as a `(start, len)` range.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    Const(f64),
    /// Reads input slot `u32` of the [`SymbolTable`].
    Sym(u32),
    Add {
        start: u32,
        len: u32,
    },
    Mul {
        start: u32,
        len: u32,
    },
    Min {
        start: u32,
        len: u32,
    },
    Max {
        start: u32,
        len: u32,
    },
    Div(u32, u32),
    Floor(u32),
    Ceil(u32),
    Cmp(CmpOp, u32, u32),
    Select(u32, u32, u32),
    /// Fused `(a * b) + c` with *two* roundings — the peephole pass
    /// never emits hardware FMA, so results stay bit-identical to the
    /// unfused `Mul` + `Add` pair.
    MulAdd(u32, u32, u32),
    /// Fused `if cmp(a, b) { t } else { f }` (guarded select). Exact
    /// because `Cmp` only ever produces `1.0`/`0.0` and `Select` tests
    /// `!= 0.0`.
    SelectCmp(CmpOp, u32, u32, u32, u32),
    /// Fused `(a / b).floor()` (integer division pattern).
    DivFloor(u32, u32),
    /// Fused `(a / b).ceil()` (rounding-up division pattern).
    DivCeil(u32, u32),
}

/// A read-only view of one SSA instruction of a [`Program`], for
/// analysis passes (e.g. the `mist-irlint` static analyzer).
///
/// Scalar `u32` operands and the borrowed slices hold *slot* indices
/// into the instruction stream; [`Instr::Sym`] holds an input slot of
/// the program's [`SymbolTable`]. The variants mirror the evaluation
/// semantics documented on [`crate::Node`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Instr<'p> {
    /// A finite constant.
    Const(f64),
    /// Reads input slot `u32` of the symbol table.
    Sym(u32),
    /// N-ary sum over the operand slots.
    Add(&'p [u32]),
    /// N-ary product over the operand slots.
    Mul(&'p [u32]),
    /// N-ary minimum over the operand slots.
    Min(&'p [u32]),
    /// N-ary maximum over the operand slots.
    Max(&'p [u32]),
    /// `lhs / rhs`.
    Div(u32, u32),
    /// `floor(x)`.
    Floor(u32),
    /// `ceil(x)`.
    Ceil(u32),
    /// Comparison producing `1.0` / `0.0`.
    Cmp(CmpOp, u32, u32),
    /// `if cond != 0 { then } else { other }` as `Select(cond, then, other)`.
    Select(u32, u32, u32),
    /// Fused `(a * b) + c` as `MulAdd(a, b, c)`, rounded twice exactly
    /// like the separate `Mul` and `Add` (never a hardware FMA).
    MulAdd(u32, u32, u32),
    /// Fused `if cmp(a, b) { t } else { f }` as
    /// `SelectCmp(op, a, b, t, f)`.
    SelectCmp(CmpOp, u32, u32, u32, u32),
    /// Fused `(a / b).floor()` as `DivFloor(a, b)`.
    DivFloor(u32, u32),
    /// Fused `(a / b).ceil()` as `DivCeil(a, b)`.
    DivCeil(u32, u32),
}

impl Instr<'_> {
    /// Calls `f` for every operand slot, in evaluation order.
    pub fn for_each_operand(&self, mut f: impl FnMut(u32)) {
        match *self {
            Instr::Const(_) | Instr::Sym(_) => {}
            Instr::Add(v) | Instr::Mul(v) | Instr::Min(v) | Instr::Max(v) => {
                v.iter().copied().for_each(&mut f)
            }
            Instr::Div(a, b) | Instr::Cmp(_, a, b) => {
                f(a);
                f(b);
            }
            Instr::Floor(a) | Instr::Ceil(a) => f(a),
            Instr::Select(c, a, b) => {
                f(c);
                f(a);
                f(b);
            }
            Instr::MulAdd(a, b, c) => {
                f(a);
                f(b);
                f(c);
            }
            Instr::SelectCmp(_, a, b, t, e) => {
                f(a);
                f(b);
                f(t);
                f(e);
            }
            Instr::DivFloor(a, b) | Instr::DivCeil(a, b) => {
                f(a);
                f(b);
            }
        }
    }
}

/// A fused, immutable multi-root evaluation program.
///
/// Build one with [`Context::compile_program`](crate::Context::compile_program);
/// evaluate batches with [`Program::eval_batch`] against a reusable
/// [`EvalWorkspace`], then read each root's output column from the
/// workspace by root index.
#[derive(Debug, Clone)]
pub struct Program {
    /// Process-unique identity (clones share it — they are the same
    /// program). Keys the tuner's compile cache and the
    /// workspace's prepared-state check.
    pub(crate) id: u64,
    pub(crate) ops: Vec<Op>,
    /// Flat operand arena for `Add`/`Mul`/`Min`/`Max` (slot indices).
    pub(crate) operands: Vec<u32>,
    /// Destination register per slot (parallel to `ops`).
    pub(crate) regs: Vec<u32>,
    pub(crate) num_regs: usize,
    pub(crate) table: SymbolTable,
    /// Output slot per root.
    pub(crate) roots: Vec<u32>,
    /// Human-readable root labels (for errors and lookup).
    pub(crate) labels: Vec<String>,
}

impl Program {
    /// Compiles `roots` against the arena (called by
    /// `Context::compile_program`).
    pub(crate) fn build(
        nodes: &[Node],
        symbol_names: &[String],
        roots: &[(&str, ExprId)],
    ) -> Program {
        assert!(!roots.is_empty(), "a program needs at least one root");

        let mut slot_of: HashMap<ExprId, u32> = HashMap::new();
        let mut sym_slot: HashMap<SymbolId, u32> = HashMap::new();
        let mut table = SymbolTable::default();
        let mut ops: Vec<Op> = Vec::new();
        let mut operands: Vec<u32> = Vec::new();

        // Iterative post-order DFS, shared across roots: a sub-expression
        // reached from a later root that was already emitted for an
        // earlier one reuses its slot (cross-root CSE).
        enum Frame {
            Visit(ExprId),
            Emit(ExprId),
        }
        for &(_, root) in roots {
            let mut stack = vec![Frame::Visit(root)];
            while let Some(frame) = stack.pop() {
                match frame {
                    Frame::Visit(id) => {
                        if slot_of.contains_key(&id) {
                            continue;
                        }
                        stack.push(Frame::Emit(id));
                        for child in nodes[id.0 as usize].children() {
                            stack.push(Frame::Visit(child));
                        }
                    }
                    Frame::Emit(id) => {
                        if slot_of.contains_key(&id) {
                            continue;
                        }
                        let s = |eid: ExprId| slot_of[&eid];
                        let fold = |v: &Vec<ExprId>, operands: &mut Vec<u32>| {
                            let start = operands.len() as u32;
                            operands.extend(v.iter().map(|e| s(*e)));
                            (start, v.len() as u32)
                        };
                        let op = match &nodes[id.0 as usize] {
                            Node::Const(c) => Op::Const(c.to_f64()),
                            Node::Sym(sid) => {
                                let slot = *sym_slot
                                    .entry(*sid)
                                    .or_insert_with(|| table.intern(&symbol_names[sid.0 as usize]));
                                Op::Sym(slot)
                            }
                            Node::Add(v) => {
                                let (start, len) = fold(v, &mut operands);
                                Op::Add { start, len }
                            }
                            Node::Mul(v) => {
                                let (start, len) = fold(v, &mut operands);
                                Op::Mul { start, len }
                            }
                            Node::Min(v) => {
                                let (start, len) = fold(v, &mut operands);
                                Op::Min { start, len }
                            }
                            Node::Max(v) => {
                                let (start, len) = fold(v, &mut operands);
                                Op::Max { start, len }
                            }
                            Node::Div(a, b) => Op::Div(s(*a), s(*b)),
                            Node::Floor(a) => Op::Floor(s(*a)),
                            Node::Ceil(a) => Op::Ceil(s(*a)),
                            Node::Cmp(op, a, b) => Op::Cmp(*op, s(*a), s(*b)),
                            Node::Select(c, a, b) => Op::Select(s(*c), s(*a), s(*b)),
                        };
                        slot_of.insert(id, ops.len() as u32);
                        ops.push(op);
                    }
                }
            }
        }

        let root_slots: Vec<u32> = roots.iter().map(|&(_, id)| slot_of[&id]).collect();
        let labels: Vec<String> = roots.iter().map(|&(name, _)| name.to_owned()).collect();
        let (regs, num_regs) = allocate_registers(&ops, &operands, &root_slots);

        mist_telemetry::gauge_max("symbolic.program.instrs", ops.len() as f64);
        mist_telemetry::gauge_max("symbolic.program.regs", num_regs as f64);
        Program {
            id: next_program_id(),
            ops,
            operands,
            regs,
            num_regs,
            table,
            roots: root_slots,
            labels,
        }
    }

    /// Process-unique program identity. Clones share the id (they are
    /// the same program); every compile or fusion produces a fresh
    /// one. Suitable as a cache key.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The interned symbol table (names in input-slot order).
    pub fn symbols(&self) -> &SymbolTable {
        &self.table
    }

    /// Number of SSA instructions (a proxy for evaluation cost).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the program has no instructions (never the case for
    /// compiled programs; provided for `len()` symmetry).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of register columns a workspace materializes at most.
    pub fn num_regs(&self) -> usize {
        self.num_regs
    }

    /// Number of roots.
    pub fn num_roots(&self) -> usize {
        self.roots.len()
    }

    /// Root labels, in root-index order.
    pub fn root_labels(&self) -> &[String] {
        &self.labels
    }

    /// Root index of the root labeled `name`.
    pub fn root_index(&self, name: &str) -> Option<usize> {
        self.labels.iter().position(|l| l == name)
    }

    /// Output slot per root, in root-index order.
    pub fn root_slots(&self) -> &[u32] {
        &self.roots
    }

    /// Read-only view of the instruction at `slot` (analysis passes).
    ///
    /// # Panics
    ///
    /// Panics if `slot >= self.len()`.
    pub fn instr(&self, slot: usize) -> Instr<'_> {
        let arena = |start: u32, len: u32| &self.operands[start as usize..(start + len) as usize];
        match self.ops[slot] {
            Op::Const(c) => Instr::Const(c),
            Op::Sym(s) => Instr::Sym(s),
            Op::Add { start, len } => Instr::Add(arena(start, len)),
            Op::Mul { start, len } => Instr::Mul(arena(start, len)),
            Op::Min { start, len } => Instr::Min(arena(start, len)),
            Op::Max { start, len } => Instr::Max(arena(start, len)),
            Op::Div(a, b) => Instr::Div(a, b),
            Op::Floor(a) => Instr::Floor(a),
            Op::Ceil(a) => Instr::Ceil(a),
            Op::Cmp(op, a, b) => Instr::Cmp(op, a, b),
            Op::Select(c, a, b) => Instr::Select(c, a, b),
            Op::MulAdd(a, b, c) => Instr::MulAdd(a, b, c),
            Op::SelectCmp(op, a, b, t, e) => Instr::SelectCmp(op, a, b, t, e),
            Op::DivFloor(a, b) => Instr::DivFloor(a, b),
            Op::DivCeil(a, b) => Instr::DivCeil(a, b),
        }
    }

    /// Iterates over every instruction in stream (slot) order.
    pub fn instrs(&self) -> impl ExactSizeIterator<Item = Instr<'_>> + '_ {
        (0..self.ops.len()).map(|i| self.instr(i))
    }

    /// Instruction stream (crate-internal introspection for tests).
    #[cfg(test)]
    pub(crate) fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Evaluates every root over a batch, writing one output column per
    /// root into `ws` (read them back with [`EvalWorkspace::output`]).
    ///
    /// Rows that evaluate non-finite become `f64::INFINITY`, matching
    /// [`Tape::eval_batch`](crate::Tape::eval_batch). The workspace's
    /// register and output columns are reused across calls: after the
    /// first call with a given batch size, evaluation allocates nothing.
    ///
    /// # Errors
    ///
    /// [`SymbolicError::UnboundSymbol`] if a program symbol is missing
    /// from `bindings`; [`SymbolicError::BatchLengthMismatch`] if a bound
    /// column's length differs from the batch length.
    pub fn eval_batch(
        &self,
        bindings: &BatchBindings,
        ws: &mut EvalWorkspace,
    ) -> Result<(), SymbolicError> {
        let n = bindings.len();
        let cols = self.table.resolve_batch(bindings)?;

        // Steady state (same program as last call): the workspace is
        // already sized, so only the per-slot lane tags reset.
        if ws.prepared != self.id {
            ws.prepare(self);
        } else {
            ws.lanes.clear();
        }

        for (slot, op) in self.ops.iter().enumerate() {
            let lane = self.eval_op(*op, slot, n, &cols, ws);
            ws.lanes.push(lane);
        }

        // Materialize root outputs with the non-finite → INFINITY mapping.
        for (i, &root) in self.roots.iter().enumerate() {
            let lane = ws.lanes[root as usize];
            let out = &mut ws.outputs[i];
            out.clear();
            match lane {
                Lane::Uniform(v) => {
                    let v = if v.is_finite() { v } else { f64::INFINITY };
                    out.resize(n, v);
                }
                Lane::Sym(s) => {
                    let Column::Values(src) = cols[s as usize] else {
                        unreachable!("Sym lane always references a Values column")
                    };
                    out.extend(src.iter().map(|&v| finite_or_inf(v)));
                }
                Lane::Reg(r) => {
                    // `out` is borrowed from ws.outputs, src from ws.regs.
                    let src = std::mem::take(&mut ws.regs[r as usize]);
                    out.extend(src.iter().map(|&v| finite_or_inf(v)));
                    ws.regs[r as usize] = src;
                }
            }
        }
        mist_telemetry::gauge_max(
            "symbolic.workspace.columns",
            (ws.regs.len() + ws.outputs.len()) as f64,
        );
        Ok(())
    }

    /// Evaluates every root at a single scalar point, appending one value
    /// per root to `out` (cleared first).
    ///
    /// `inputs[i]` binds symbol `self.symbols().names()[i]`. Unlike
    /// batched evaluation, a non-finite root is an error, matching
    /// [`Tape::eval_slots`](crate::Tape::eval_slots).
    ///
    /// # Errors
    ///
    /// [`SymbolicError::NonFinite`] naming the offending root.
    pub fn eval_scalar(&self, inputs: &[f64], out: &mut Vec<f64>) -> Result<(), SymbolicError> {
        let slots = self.scalar_slots(inputs);
        out.clear();
        for (i, &root) in self.roots.iter().enumerate() {
            let v = slots[root as usize];
            if !v.is_finite() {
                return Err(SymbolicError::NonFinite {
                    detail: format!("root `{}` of fused program", self.labels[i]),
                });
            }
            out.push(v);
        }
        Ok(())
    }

    /// Evaluates a single root at a scalar point.
    ///
    /// All slots feeding any root are computed (the stream is fused), so
    /// prefer [`Program::eval_scalar`] when more than one root is needed.
    ///
    /// # Errors
    ///
    /// [`SymbolicError::NonFinite`] if the requested root's value is not
    /// finite.
    pub fn eval_scalar_root(&self, root: usize, inputs: &[f64]) -> Result<f64, SymbolicError> {
        let slots = self.scalar_slots(inputs);
        let v = slots[self.roots[root] as usize];
        if !v.is_finite() {
            return Err(SymbolicError::NonFinite {
                detail: format!("root `{}` evaluation result", self.labels[root]),
            });
        }
        Ok(v)
    }

    /// Computes every slot's scalar value in stream order.
    fn scalar_slots(&self, inputs: &[f64]) -> Vec<f64> {
        debug_assert_eq!(inputs.len(), self.table.len());
        let mut slots: Vec<f64> = Vec::with_capacity(self.ops.len());
        for op in &self.ops {
            let v = self.scalar_op(*op, &slots, inputs);
            slots.push(v);
        }
        slots
    }

    /// Scalar semantics of one op (identical to `Tape::eval_slots`).
    fn scalar_op(&self, op: Op, slots: &[f64], inputs: &[f64]) -> f64 {
        let arena = |start: u32, len: u32| {
            self.operands[start as usize..(start + len) as usize]
                .iter()
                .map(|&s| slots[s as usize])
        };
        match op {
            Op::Const(c) => c,
            Op::Sym(i) => inputs[i as usize],
            Op::Add { start, len } => arena(start, len).sum(),
            Op::Mul { start, len } => arena(start, len).product(),
            Op::Min { start, len } => arena(start, len).fold(f64::INFINITY, f64::min),
            Op::Max { start, len } => arena(start, len).fold(f64::NEG_INFINITY, f64::max),
            Op::Div(a, b) => slots[a as usize] / slots[b as usize],
            Op::Floor(a) => slots[a as usize].floor(),
            Op::Ceil(a) => slots[a as usize].ceil(),
            Op::Cmp(op, a, b) => op.apply(slots[a as usize], slots[b as usize]),
            Op::Select(c, a, b) => {
                if slots[c as usize] != 0.0 {
                    slots[a as usize]
                } else {
                    slots[b as usize]
                }
            }
            Op::MulAdd(a, b, c) => slots[a as usize] * slots[b as usize] + slots[c as usize],
            Op::SelectCmp(op, a, b, t, e) => {
                if op.apply(slots[a as usize], slots[b as usize]) != 0.0 {
                    slots[t as usize]
                } else {
                    slots[e as usize]
                }
            }
            Op::DivFloor(a, b) => (slots[a as usize] / slots[b as usize]).floor(),
            Op::DivCeil(a, b) => (slots[a as usize] / slots[b as usize]).ceil(),
        }
    }

    /// Computes one op's lane over the batch, materializing into the
    /// slot's register only when the result varies across rows.
    fn eval_op(
        &self,
        op: Op,
        slot: usize,
        n: usize,
        cols: &[&Column],
        ws: &mut EvalWorkspace,
    ) -> Lane {
        // Symbols never materialize: a scalar binding is a broadcast
        // lane, a column binding is read in place.
        if let Op::Sym(s) = op {
            return match cols[s as usize] {
                Column::Scalar(v) => Lane::Uniform(*v),
                Column::Values(_) => Lane::Sym(s),
            };
        }
        // Uniform fast path: when every operand is uniform, run the
        // scalar kernel once — the broadcast lane.
        if let Some(v) = self.uniform_value(op, &ws.lanes) {
            return Lane::Uniform(v);
        }

        let dst = self.regs[slot] as usize;
        // The register allocator guarantees `dst` is not a register of
        // any live operand, so taking the buffer out cannot invalidate
        // an operand view.
        let mut buf = std::mem::take(&mut ws.regs[dst]);
        // Every kernel overwrites the full destination, so stale
        // contents from the previous batch never leak; only a batch-size
        // change pays the resize.
        if buf.len() != n {
            buf.clear();
            buf.resize(n, 0.0);
        }
        {
            let view = |s: u32| lane_view(ws.lanes[s as usize], cols, &ws.regs);
            match op {
                Op::Const(_) | Op::Sym(_) => {
                    unreachable!("consts and bound symbols never materialize")
                }
                Op::Add { start, len } => {
                    fold_kernel(&mut buf, &self.operands, start, len, view, |x, y| x + y)
                }
                Op::Mul { start, len } => {
                    fold_kernel(&mut buf, &self.operands, start, len, view, |x, y| x * y)
                }
                Op::Min { start, len } => {
                    fold_kernel(&mut buf, &self.operands, start, len, view, f64::min)
                }
                Op::Max { start, len } => {
                    fold_kernel(&mut buf, &self.operands, start, len, view, f64::max)
                }
                Op::Div(a, b) => bin_kernel(&mut buf, view(a), view(b), |x, y| x / y),
                Op::Floor(a) => unary_kernel(&mut buf, view(a), f64::floor),
                Op::Ceil(a) => unary_kernel(&mut buf, view(a), f64::ceil),
                // The comparison operator is dispatched once per
                // instruction, not once per row: each arm monomorphizes
                // a branchless chunked kernel (`bool as f64` produces
                // exactly the 1.0/0.0 of `CmpOp::apply`).
                Op::Cmp(cmp, a, b) => {
                    let (va, vb) = (view(a), view(b));
                    match cmp {
                        CmpOp::Le => bin_kernel(&mut buf, va, vb, |x, y| f64::from(x <= y)),
                        CmpOp::Lt => bin_kernel(&mut buf, va, vb, |x, y| f64::from(x < y)),
                        CmpOp::Ge => bin_kernel(&mut buf, va, vb, |x, y| f64::from(x >= y)),
                        CmpOp::Gt => bin_kernel(&mut buf, va, vb, |x, y| f64::from(x > y)),
                        CmpOp::Eq => bin_kernel(&mut buf, va, vb, |x, y| f64::from(x == y)),
                    }
                }
                Op::Select(c, a, b) => select_kernel(&mut buf, view(c), view(a), view(b)),
                // Superinstructions only appear in peephole-fused
                // programs, which the compiled backend executes; these
                // interpreter arms exist for the bit-identity tests and
                // keep the same two-pass rounding as the unfused pair.
                Op::MulAdd(a, b, c) => {
                    bin_kernel(&mut buf, view(a), view(b), |x, y| x * y);
                    match view(c) {
                        ArgView::Uniform(v) => fold_uniform(&mut buf, v, |x, y| x + y),
                        ArgView::Col(col) => fold_col(&mut buf, col, |x, y| x + y),
                    }
                }
                Op::SelectCmp(cmp, a, b, t, e) => {
                    let (va, vb, vt, ve) = (view(a), view(b), view(t), view(e));
                    let at = |v: ArgView<'_>, i: usize| match v {
                        ArgView::Uniform(x) => x,
                        ArgView::Col(c) => c[i],
                    };
                    for (i, x) in buf.iter_mut().enumerate() {
                        *x = if cmp.apply(at(va, i), at(vb, i)) != 0.0 {
                            at(vt, i)
                        } else {
                            at(ve, i)
                        };
                    }
                }
                Op::DivFloor(a, b) => {
                    bin_kernel(&mut buf, view(a), view(b), |x, y| (x / y).floor())
                }
                Op::DivCeil(a, b) => bin_kernel(&mut buf, view(a), view(b), |x, y| (x / y).ceil()),
            }
        }
        ws.regs[dst] = buf;
        Lane::Reg(self.regs[slot])
    }

    /// When all operands of `op` are uniform, the uniform result.
    fn uniform_value(&self, op: Op, lanes: &[Lane]) -> Option<f64> {
        let u = |s: u32| match lanes[s as usize] {
            Lane::Uniform(v) => Some(v),
            _ => None,
        };
        // Fold from the first operand (no synthetic identity element), in
        // operand order — the exact fold the batched column kernels use,
        // so uniform and materialized results are bit-identical.
        let fold_u = |start: u32, len: u32, f: fn(f64, f64) -> f64| {
            let args = &self.operands[start as usize..(start + len) as usize];
            let mut acc = u(args[0])?;
            for &s in &args[1..] {
                acc = f(acc, u(s)?);
            }
            Some(acc)
        };
        match op {
            Op::Const(c) => Some(c),
            // Symbols are classified by the caller from their binding.
            Op::Sym(_) => None,
            Op::Add { start, len } => fold_u(start, len, |x, y| x + y),
            Op::Mul { start, len } => fold_u(start, len, |x, y| x * y),
            Op::Min { start, len } => fold_u(start, len, f64::min),
            Op::Max { start, len } => fold_u(start, len, f64::max),
            Op::Div(a, b) => Some(u(a)? / u(b)?),
            Op::Floor(a) => Some(u(a)?.floor()),
            Op::Ceil(a) => Some(u(a)?.ceil()),
            Op::Cmp(cmp, a, b) => Some(cmp.apply(u(a)?, u(b)?)),
            Op::Select(c, a, b) => {
                // A uniform condition picks one branch for the whole
                // batch; the result is uniform only if that branch is.
                let cv = u(c)?;
                if cv != 0.0 {
                    u(a)
                } else {
                    u(b)
                }
            }
            Op::MulAdd(a, b, c) => Some(u(a)? * u(b)? + u(c)?),
            Op::SelectCmp(cmp, a, b, t, e) => {
                if cmp.apply(u(a)?, u(b)?) != 0.0 {
                    u(t)
                } else {
                    u(e)
                }
            }
            Op::DivFloor(a, b) => Some((u(a)? / u(b)?).floor()),
            Op::DivCeil(a, b) => Some((u(a)? / u(b)?).ceil()),
        }
    }
}

fn finite_or_inf(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        f64::INFINITY
    }
}

/// Compile-time slot liveness + linear-scan register allocation.
///
/// Returns `(dst register per slot, register count)`. Registers are
/// reused once the last reader of a slot has executed; root slots stay
/// live to the end. The destination register of an instruction is
/// allocated *before* its operands' registers are freed, so a
/// destination never aliases a same-instruction operand — which keeps
/// the evaluation kernels free to write the destination while reading
/// operand views.
pub(crate) fn allocate_registers(ops: &[Op], operands: &[u32], roots: &[u32]) -> (Vec<u32>, usize) {
    let num = ops.len();
    let mut last_use: Vec<u32> = (0..num as u32).collect();
    let each_operand = |op: &Op, f: &mut dyn FnMut(u32)| match *op {
        Op::Const(_) | Op::Sym(_) => {}
        Op::Add { start, len }
        | Op::Mul { start, len }
        | Op::Min { start, len }
        | Op::Max { start, len } => {
            for &s in &operands[start as usize..(start + len) as usize] {
                f(s);
            }
        }
        Op::Div(a, b) | Op::Cmp(_, a, b) => {
            f(a);
            f(b);
        }
        Op::Floor(a) | Op::Ceil(a) => f(a),
        Op::Select(c, a, b) => {
            f(c);
            f(a);
            f(b);
        }
        Op::MulAdd(a, b, c) => {
            f(a);
            f(b);
            f(c);
        }
        Op::SelectCmp(_, a, b, t, e) => {
            f(a);
            f(b);
            f(t);
            f(e);
        }
        Op::DivFloor(a, b) | Op::DivCeil(a, b) => {
            f(a);
            f(b);
        }
    };
    for (i, op) in ops.iter().enumerate() {
        each_operand(op, &mut |s| last_use[s as usize] = i as u32);
    }
    for &r in roots {
        last_use[r as usize] = u32::MAX;
    }

    let mut regs = vec![0u32; num];
    let mut free: Vec<u32> = Vec::new();
    let mut freed = vec![false; num];
    let mut num_regs = 0usize;
    for (i, op) in ops.iter().enumerate() {
        regs[i] = free.pop().unwrap_or_else(|| {
            num_regs += 1;
            (num_regs - 1) as u32
        });
        each_operand(op, &mut |s| {
            let s = s as usize;
            if last_use[s] == i as u32 && !freed[s] {
                freed[s] = true;
                free.push(regs[s]);
            }
        });
    }
    (regs, num_regs)
}

/// An operand's view over the batch: one value for all rows, or a column.
#[derive(Clone, Copy)]
enum ArgView<'a> {
    Uniform(f64),
    Col(&'a [f64]),
}

/// Evaluation-time classification of a slot's value across the batch.
#[derive(Debug, Clone, Copy)]
enum Lane {
    /// Same value in every row (broadcast lane); never materialized.
    Uniform(f64),
    /// Borrows the column bound to input slot `u32` — symbol columns are
    /// read in place, never copied into a register.
    Sym(u32),
    /// Materialized in workspace register `u32`.
    Reg(u32),
}

fn lane_view<'a>(lane: Lane, cols: &[&'a Column], regs: &'a [Vec<f64>]) -> ArgView<'a> {
    match lane {
        Lane::Uniform(v) => ArgView::Uniform(v),
        Lane::Sym(s) => match cols[s as usize] {
            Column::Values(v) => ArgView::Col(v),
            Column::Scalar(_) => unreachable!("scalar-bound symbols become uniform lanes"),
        },
        Lane::Reg(r) => ArgView::Col(&regs[r as usize]),
    }
}

/// Row-chunk width of the columnar kernels. Eight `f64`s span one or
/// two SIMD registers on every target we care about, and a fixed-width
/// inner loop over a `chunks_exact` window is what the autovectorizer
/// turns into straight-line vector code.
const CHUNK: usize = 8;

/// `dst[i] = f(src[i])`, chunked with a scalar tail.
#[inline]
fn map1(dst: &mut [f64], src: &[f64], f: impl Fn(f64) -> f64 + Copy) {
    let mut d = dst.chunks_exact_mut(CHUNK);
    let mut s = src.chunks_exact(CHUNK);
    for (dc, sc) in (&mut d).zip(&mut s) {
        for (x, y) in dc.iter_mut().zip(sc) {
            *x = f(*y);
        }
    }
    for (x, y) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *x = f(*y);
    }
}

/// `dst[i] = f(a[i], b[i])`, chunked with a scalar tail.
#[inline]
fn map2(dst: &mut [f64], a: &[f64], b: &[f64], f: impl Fn(f64, f64) -> f64 + Copy) {
    let mut d = dst.chunks_exact_mut(CHUNK);
    let mut sa = a.chunks_exact(CHUNK);
    let mut sb = b.chunks_exact(CHUNK);
    for ((dc, ac), bc) in (&mut d).zip(&mut sa).zip(&mut sb) {
        for ((x, p), q) in dc.iter_mut().zip(ac).zip(bc) {
            *x = f(*p, *q);
        }
    }
    let tail = d
        .into_remainder()
        .iter_mut()
        .zip(sa.remainder())
        .zip(sb.remainder());
    for ((x, p), q) in tail {
        *x = f(*p, *q);
    }
}

/// `dst[i] = f(a[i], b[i], c[i])`, chunked with a scalar tail.
#[inline]
fn map3(dst: &mut [f64], a: &[f64], b: &[f64], c: &[f64], f: impl Fn(f64, f64, f64) -> f64 + Copy) {
    let mut d = dst.chunks_exact_mut(CHUNK);
    let mut sa = a.chunks_exact(CHUNK);
    let mut sb = b.chunks_exact(CHUNK);
    let mut sc = c.chunks_exact(CHUNK);
    for (((dc, ac), bc), cc) in (&mut d).zip(&mut sa).zip(&mut sb).zip(&mut sc) {
        for (((x, p), q), r) in dc.iter_mut().zip(ac).zip(bc).zip(cc) {
            *x = f(*p, *q, *r);
        }
    }
    let tail = d
        .into_remainder()
        .iter_mut()
        .zip(sa.remainder())
        .zip(sb.remainder())
        .zip(sc.remainder());
    for (((x, p), q), r) in tail {
        *x = f(*p, *q, *r);
    }
}

/// In-place `dst[i] = f(dst[i], v)`, chunked with a scalar tail.
#[inline]
fn fold_uniform(dst: &mut [f64], v: f64, f: impl Fn(f64, f64) -> f64 + Copy) {
    let mut d = dst.chunks_exact_mut(CHUNK);
    for dc in &mut d {
        for x in dc {
            *x = f(*x, v);
        }
    }
    for x in d.into_remainder() {
        *x = f(*x, v);
    }
}

/// In-place `dst[i] = f(dst[i], src[i])`, chunked with a scalar tail.
#[inline]
fn fold_col(dst: &mut [f64], src: &[f64], f: impl Fn(f64, f64) -> f64 + Copy) {
    let mut d = dst.chunks_exact_mut(CHUNK);
    let mut s = src.chunks_exact(CHUNK);
    for (dc, sc) in (&mut d).zip(&mut s) {
        for (x, y) in dc.iter_mut().zip(sc) {
            *x = f(*x, *y);
        }
    }
    for (x, y) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *x = f(*x, *y);
    }
}

/// `dst = fold(f, operands)` in operand order, exactly as the per-tape
/// batched evaluator folds: initialize from the first operand, then fold
/// the rest left to right. Each operand's lane is resolved to a
/// uniform/column view *once*, outside the row loop, so the inner loops
/// are tight chunked passes over raw slices.
fn fold_kernel<'a>(
    dst: &mut [f64],
    arena: &[u32],
    start: u32,
    len: u32,
    view: impl Fn(u32) -> ArgView<'a>,
    f: impl Fn(f64, f64) -> f64 + Copy,
) {
    let args = &arena[start as usize..(start + len) as usize];
    match view(args[0]) {
        ArgView::Uniform(v) => dst.fill(v),
        ArgView::Col(c) => dst.copy_from_slice(c),
    }
    for &s in &args[1..] {
        match view(s) {
            ArgView::Uniform(v) => fold_uniform(dst, v, f),
            ArgView::Col(c) => fold_col(dst, c, f),
        }
    }
}

fn unary_kernel(dst: &mut [f64], a: ArgView<'_>, f: impl Fn(f64) -> f64 + Copy) {
    match a {
        ArgView::Uniform(v) => dst.fill(f(v)),
        ArgView::Col(c) => map1(dst, c, f),
    }
}

fn bin_kernel(dst: &mut [f64], a: ArgView<'_>, b: ArgView<'_>, f: impl Fn(f64, f64) -> f64 + Copy) {
    match (a, b) {
        (ArgView::Uniform(p), ArgView::Uniform(q)) => dst.fill(f(p, q)),
        (ArgView::Uniform(p), ArgView::Col(cb)) => map1(dst, cb, move |y| f(p, y)),
        (ArgView::Col(ca), ArgView::Uniform(q)) => map1(dst, ca, move |x| f(x, q)),
        (ArgView::Col(ca), ArgView::Col(cb)) => map2(dst, ca, cb, f),
    }
}

fn select_kernel(dst: &mut [f64], c: ArgView<'_>, a: ArgView<'_>, b: ArgView<'_>) {
    match c {
        // Uniform condition: the whole batch takes one branch.
        ArgView::Uniform(cv) => {
            let chosen = if cv != 0.0 { a } else { b };
            match chosen {
                ArgView::Uniform(v) => dst.fill(v),
                ArgView::Col(col) => dst.copy_from_slice(col),
            }
        }
        // Varying condition: dispatch on the branch shapes once, then
        // run a branch-shape-specific chunked select (the old path
        // re-matched both branch views on every row).
        ArgView::Col(cc) => match (a, b) {
            (ArgView::Uniform(av), ArgView::Uniform(bv)) => {
                map1(dst, cc, move |c| if c != 0.0 { av } else { bv })
            }
            (ArgView::Uniform(av), ArgView::Col(cb)) => {
                map2(dst, cc, cb, move |c, y| if c != 0.0 { av } else { y })
            }
            (ArgView::Col(ca), ArgView::Uniform(bv)) => {
                map2(dst, cc, ca, move |c, x| if c != 0.0 { x } else { bv })
            }
            (ArgView::Col(ca), ArgView::Col(cb)) => {
                map3(dst, cc, ca, cb, |c, x, y| if c != 0.0 { x } else { y })
            }
        },
    }
}

/// Reusable evaluation scratch for a [`Program`].
///
/// Holds the register column pool, per-slot lane tags, and per-root
/// output columns. Create one per evaluating thread and pass it to every
/// [`Program::eval_batch`] call: after the first call, evaluation reuses
/// all columns and performs no per-instruction allocation.
#[derive(Debug, Default)]
pub struct EvalWorkspace {
    regs: Vec<Vec<f64>>,
    lanes: Vec<Lane>,
    outputs: Vec<Vec<f64>>,
    /// Id of the program this workspace was last prepared for (0 =
    /// none). While it matches, `eval_batch` skips all sizing checks.
    prepared: u64,
}

impl EvalWorkspace {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// One-time sizing for `program`: reserves the lane tags and grows
    /// the register/output column pools. [`Program::eval_batch`] calls
    /// this automatically when it sees a new program; calling it ahead
    /// of time moves the (already small) bookkeeping cost out of the
    /// first evaluation, and repeated calls for the same program are
    /// no-ops. The steady-state eval path does no capacity checks at
    /// all.
    pub fn prepare(&mut self, program: &Program) {
        self.lanes.clear();
        self.lanes.reserve(program.ops.len());
        if self.regs.len() < program.num_regs {
            self.regs.resize_with(program.num_regs, Vec::new);
        }
        if self.outputs.len() < program.roots.len() {
            self.outputs.resize_with(program.roots.len(), Vec::new);
        }
        self.prepared = program.id;
    }

    /// Output column of root `i` from the most recent
    /// [`Program::eval_batch`] call.
    ///
    /// # Panics
    ///
    /// Panics if no evaluation has populated root `i` yet.
    pub fn output(&self, i: usize) -> &[f64] {
        &self.outputs[i]
    }

    /// Moves root `i`'s output column out of the workspace (the caller
    /// owns the allocation; the workspace reallocates it on next use).
    pub fn take_output(&mut self, i: usize) -> Vec<f64> {
        std::mem::take(&mut self.outputs[i])
    }

    /// Register columns that have been materialized (test introspection).
    #[cfg(test)]
    fn materialized_registers(&self) -> usize {
        self.regs.iter().filter(|r| !r.is_empty()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Context;

    #[test]
    fn fused_roots_match_individual_tapes() {
        let ctx = Context::new();
        let x = ctx.symbol("x");
        let y = ctx.symbol("y");
        let shared = (x + 1.0) * (y + 2.0);
        let r0 = shared.max(x / y);
        let r1 = shared + y.ceil();
        let r2 = ctx.constant(7.0) * 6.0;

        let program = ctx.compile_program(&[("r0", r0), ("r1", r1), ("r2", r2)]);
        let tapes = [ctx.compile(r0), ctx.compile(r1), ctx.compile(r2)];

        let xs = vec![1.0, 2.5, -3.0, 0.0];
        let ys = vec![2.0, 0.5, 4.0, 0.0];
        let mut batch = BatchBindings::new(xs.len());
        batch.set_values("x", xs.clone());
        batch.set_values("y", ys.clone());

        let mut ws = EvalWorkspace::new();
        program.eval_batch(&batch, &mut ws).unwrap();
        for (i, tape) in tapes.iter().enumerate() {
            let want = tape.eval_batch(&batch).unwrap();
            assert_eq!(ws.output(i), &want[..], "root {i}");
        }
    }

    #[test]
    fn cross_root_cse_shares_slots() {
        let ctx = Context::new();
        let x = ctx.symbol("x");
        let shared = (x + 1.0) * (x + 2.0);
        let r0 = shared + 3.0;
        let r1 = shared * 4.0;

        let program = ctx.compile_program(&[("r0", r0), ("r1", r1)]);
        let separate = ctx.compile(r0).len() + ctx.compile(r1).len();
        assert!(
            program.len() < separate,
            "fused {} should beat separate {}",
            program.len(),
            separate
        );
    }

    #[test]
    fn register_allocation_reuses_registers() {
        let ctx = Context::new();
        let x = ctx.symbol("x");
        // A long dependency chain: each step's input dies immediately, so
        // a handful of registers must suffice for many slots.
        let mut e = x;
        for i in 0..40 {
            e = e * 1.5 + (i as f64);
        }
        let program = ctx.compile_program(&[("chain", e)]);
        assert!(
            program.num_regs() < program.len() / 2,
            "regs {} vs slots {}",
            program.num_regs(),
            program.len()
        );

        let mut batch = BatchBindings::new(3);
        batch.set_values("x", vec![0.0, 1.0, 2.0]);
        let mut ws = EvalWorkspace::new();
        program.eval_batch(&batch, &mut ws).unwrap();
        let tape = ctx.compile(e);
        assert_eq!(ws.output(0), &tape.eval_batch(&batch).unwrap()[..]);
    }

    #[test]
    fn broadcast_lanes_avoid_materialization() {
        let ctx = Context::new();
        let x = ctx.symbol("x");
        let y = ctx.symbol("y");
        let e = (x * 3.0 + y).max(x - y) / 2.0;
        let program = ctx.compile_program(&[("e", e)]);

        // Every symbol bound to a scalar: the whole batch is uniform and
        // no register column is ever materialized.
        let mut batch = BatchBindings::new(1000);
        batch.set_scalar("x", 4.0);
        batch.set_scalar("y", 1.0);
        let mut ws = EvalWorkspace::new();
        program.eval_batch(&batch, &mut ws).unwrap();
        assert_eq!(ws.materialized_registers(), 0);
        assert_eq!(ws.output(0).len(), 1000);
        assert!(ws.output(0).iter().all(|&v| v == 6.5));
    }

    #[test]
    fn mixed_lanes_match_all_column_evaluation() {
        let ctx = Context::new();
        let x = ctx.symbol("x");
        let y = ctx.symbol("y");
        let cond = ctx.cmp(CmpOp::Gt, x + y, ctx.constant(2.0));
        let e = ctx.select(cond, x * y, x - y) + (y + 0.5).floor();
        let program = ctx.compile_program(&[("e", e)]);

        let xs = vec![0.5, 1.5, 2.5, 3.5];
        let yv = 1.25;
        // Scalar-bound y (broadcast lane)...
        let mut mixed = BatchBindings::new(xs.len());
        mixed.set_values("x", xs.clone());
        mixed.set_scalar("y", yv);
        // ...must equal a fully materialized column binding.
        let mut full = BatchBindings::new(xs.len());
        full.set_values("x", xs.clone());
        full.set_values("y", vec![yv; xs.len()]);

        let mut ws = EvalWorkspace::new();
        program.eval_batch(&mixed, &mut ws).unwrap();
        let got = ws.take_output(0);
        program.eval_batch(&full, &mut ws).unwrap();
        assert_eq!(got, ws.output(0));
    }

    #[test]
    fn workspace_reuse_across_batch_sizes() {
        let ctx = Context::new();
        let x = ctx.symbol("x");
        let e = (x + 1.0) * (x + 2.0);
        let program = ctx.compile_program(&[("e", e)]);
        let mut ws = EvalWorkspace::new();

        for n in [5usize, 3, 8, 1] {
            let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let mut batch = BatchBindings::new(n);
            batch.set_values("x", xs.clone());
            program.eval_batch(&batch, &mut ws).unwrap();
            let want: Vec<f64> = xs.iter().map(|&v| (v + 1.0) * (v + 2.0)).collect();
            assert_eq!(ws.output(0), &want[..], "batch size {n}");
        }
    }

    #[test]
    fn scalar_eval_reports_nonfinite_root_by_label() {
        let ctx = Context::new();
        let x = ctx.symbol("x");
        let program = ctx.compile_program(&[("ok", x + 1.0), ("bad", x / ctx.constant(0.0))]);
        let mut out = Vec::new();
        let err = program.eval_scalar(&[3.0], &mut out).unwrap_err();
        assert!(matches!(
            err,
            SymbolicError::NonFinite { ref detail } if detail.contains("bad")
        ));
        assert_eq!(program.eval_scalar_root(0, &[3.0]).unwrap(), 4.0);
    }

    #[test]
    fn root_lookup_by_label() {
        let ctx = Context::new();
        let x = ctx.symbol("x");
        let program = ctx.compile_program(&[("a", x + 1.0), ("b", x * 2.0)]);
        assert_eq!(program.root_index("b"), Some(1));
        assert_eq!(program.root_index("missing"), None);
        assert_eq!(program.root_labels(), &["a".to_string(), "b".to_string()]);
        assert_eq!(program.num_roots(), 2);
    }

    #[test]
    fn duplicate_roots_share_one_slot() {
        let ctx = Context::new();
        let x = ctx.symbol("x");
        let e = x + 1.0;
        let program = ctx.compile_program(&[("a", e), ("b", e)]);
        let mut batch = BatchBindings::new(2);
        batch.set_values("x", vec![1.0, 2.0]);
        let mut ws = EvalWorkspace::new();
        program.eval_batch(&batch, &mut ws).unwrap();
        assert_eq!(ws.output(0), ws.output(1));
        assert_eq!(program.len(), ctx.compile(e).len());
    }

    #[test]
    fn resolve_scalars_rejects_unknown_and_conflicting_bindings() {
        let ctx = Context::new();
        let x = ctx.symbol("x");
        let y = ctx.symbol("y");
        let program = ctx.compile_program(&[("r", x + y)]);
        let table = program.symbols();

        let ok = table.resolve_scalars(&[("y", 2.0), ("x", 1.0)]).unwrap();
        assert_eq!(ok[table.index_of("x").unwrap()], 1.0);
        assert_eq!(ok[table.index_of("y").unwrap()], 2.0);

        assert!(matches!(
            table.resolve_scalars(&[("x", 1.0), ("y", 2.0), ("z", 3.0)]),
            Err(SymbolicError::UnknownBinding(name)) if name == "z"
        ));
        assert!(matches!(
            table.resolve_scalars(&[("x", 1.0), ("x", 4.0), ("y", 2.0)]),
            Err(SymbolicError::ConflictingBinding { ref name, first, second })
                if name == "x" && first == 1.0 && second == 4.0
        ));
        // Agreeing duplicates (including NaN with NaN) are accepted.
        assert!(table
            .resolve_scalars(&[("x", 1.0), ("x", 1.0), ("y", 2.0)])
            .is_ok());
        assert!(table
            .resolve_scalars(&[("x", f64::NAN), ("x", f64::NAN), ("y", 2.0)])
            .is_ok());
    }

    #[test]
    fn instr_view_exposes_the_stream() {
        let ctx = Context::new();
        let x = ctx.symbol("x");
        let y = ctx.symbol("y");
        let cond = ctx.cmp(CmpOp::Gt, x, y);
        let e = ctx.select(cond, x + y, x / y).floor();
        let program = ctx.compile_program(&[("e", e)]);

        assert_eq!(program.instrs().len(), program.len());
        assert_eq!(program.root_slots().len(), 1);
        let root = program.root_slots()[0] as usize;
        assert!(matches!(program.instr(root), Instr::Floor(_)));

        // Every operand referenced by any instruction is an earlier slot
        // (SSA stream order), and each opcode appears as expected.
        let mut saw_select = false;
        for (slot, instr) in program.instrs().enumerate() {
            instr.for_each_operand(|s| assert!((s as usize) < slot));
            if let Instr::Select(c, a, b) = instr {
                saw_select = true;
                assert!(matches!(program.instr(c as usize), Instr::Cmp(..)));
                assert!(matches!(program.instr(a as usize), Instr::Add(_)));
                assert!(matches!(program.instr(b as usize), Instr::Div(..)));
            }
        }
        assert!(saw_select);
    }

    #[test]
    fn program_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Program>();
        assert_send_sync::<EvalWorkspace>();
    }
}
