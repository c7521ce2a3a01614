//! Content-addressed cache of compiled stage programs.
//!
//! The intra-stage sweep evaluates every `(dp, tp, b)` candidate through
//! the generic fused stage program and its two-root `mem_pair`, lowered
//! to the direct-threaded backend ([`CompiledProgram`]). Compilation
//! (superinstruction fusion, lowering, kernel-tier selection) is
//! deterministic per program, so each step table is built once and
//! shared by every batch, pool worker and frontier key that sweeps the
//! same tapes.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use mist_symbolic::{CompiledProgram, Program};
use parking_lot::Mutex;

/// Cache of compiled step tables, keyed by [`Program::id`].
///
/// `Sync`: frontier computations fan out over the thread pool, so the
/// map sits behind a mutex and step tables are shared as `Arc`s.
/// Hit/miss counts are per-instance (tests compare exact counts, so
/// they must not leak across tuner instances); the driver publishes
/// them as `tuner.compile.hits` / `.misses` when a tune completes.
pub(crate) struct CompileCache {
    compiled: Mutex<HashMap<u64, Arc<CompiledProgram>>>,
    hits: mist_telemetry::Counter,
    misses: mist_telemetry::Counter,
    /// High-water superinstruction count across every step table built
    /// — how much the peephole fuser found in real sweep programs.
    superinstrs: mist_telemetry::Gauge,
    /// Seconds spent compiling on misses, summed across workers.
    secs: Mutex<f64>,
}

impl CompileCache {
    /// Creates an empty cache.
    pub(crate) fn new() -> Self {
        CompileCache {
            compiled: Mutex::new(HashMap::new()),
            hits: mist_telemetry::Counter::new(),
            misses: mist_telemetry::Counter::new(),
            superinstrs: mist_telemetry::Gauge::new(),
            secs: Mutex::new(0.0),
        }
    }

    /// Returns `program` lowered to the direct-threaded backend,
    /// reusing a cached compile when one exists for the same program.
    pub(crate) fn compiled(&self, program: &Program) -> Arc<CompiledProgram> {
        if let Some(hit) = self.compiled.lock().get(&program.id()) {
            self.hits.inc();
            return hit.clone();
        }
        self.misses.inc();
        let start = Instant::now();
        let compiled = Arc::new(CompiledProgram::compile(program));
        *self.secs.lock() += start.elapsed().as_secs_f64();
        self.superinstrs.set_max(compiled.superinstrs() as f64);
        // Two pool tasks can race to compile the same program; first
        // insert wins so every caller shares one step table.
        self.compiled
            .lock()
            .entry(program.id())
            .or_insert(compiled)
            .clone()
    }

    /// Cache hits so far.
    pub(crate) fn hits(&self) -> u64 {
        self.hits.value()
    }

    /// Cache misses (= distinct step tables built) so far.
    pub(crate) fn misses(&self) -> u64 {
        self.misses.value()
    }

    /// Largest superinstruction count seen in any compiled step table.
    pub(crate) fn superinstrs_high_water(&self) -> f64 {
        self.superinstrs.value()
    }

    /// Seconds spent compiling so far.
    pub(crate) fn compile_secs(&self) -> f64 {
        *self.secs.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mist_symbolic::Context;

    #[test]
    fn cache_hits_on_repeat_and_misses_on_a_new_program() {
        let ctx = Context::new();
        let x = ctx.symbol("x");
        let y = ctx.symbol("y");
        let program = ctx.compile_program(&[("r", x * y + 1.0)]);
        let cache = CompileCache::new();

        let a = cache.compiled(&program);
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        // Clones share the program id, so they share the step table.
        let b = cache.compiled(&program.clone());
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));

        // A structurally identical recompile is a fresh program.
        let again = ctx.compile_program(&[("r", x * y + 1.0)]);
        let c = cache.compiled(&again);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
        assert!(cache.superinstrs_high_water() >= 1.0, "x * y + 1 fuses");
    }
}
