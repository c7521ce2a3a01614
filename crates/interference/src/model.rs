//! The slowdown-factor interference model and Algorithm 1.

use serde::{Deserialize, Serialize};

/// Number of concurrent stream classes the model resolves.
pub const NUM_STREAMS: usize = 4;

/// The four kernel classes of the paper: compute, GPU↔GPU communication,
/// host→device copies and device→host copies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StreamKind {
    /// GPU computation (`C` in Algorithm 1).
    Compute = 0,
    /// NCCL GPU↔GPU communication (`G2G`).
    Nccl = 1,
    /// Host→device copy (`C2G`).
    H2d = 2,
    /// Device→host copy (`G2C`).
    D2h = 3,
}

impl StreamKind {
    /// All stream kinds in index order.
    pub fn all() -> [StreamKind; NUM_STREAMS] {
        [
            StreamKind::Compute,
            StreamKind::Nccl,
            StreamKind::H2d,
            StreamKind::D2h,
        ]
    }
}

/// Interference model: per-combination slowdown factors.
///
/// `factors[mask][i]` is the slowdown (≥ 1) stream `i` experiences while
/// exactly the streams in `mask` (a 4-bit set) are busy. Entries for masks
/// where `i` does not participate are unused.
///
/// # Example
///
/// ```
/// use mist_interference::InterferenceModel;
///
/// let m = InterferenceModel::pcie_defaults();
/// // 10 ms of compute fully hides 5 ms of H2D (modulo slowdown).
/// let t = m.predict([10e-3, 0.0, 5e-3, 0.0]);
/// assert!(t > 10e-3 && t < 10e-3 + 5e-3);
/// // Serial execution would be 15 ms; overlap must beat it.
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InterferenceModel {
    factors: Vec<[f64; NUM_STREAMS]>, // Indexed by mask, len 16.
}

impl InterferenceModel {
    /// Builds a model from explicit pairwise factors, compounding them
    /// multiplicatively (damped) for triples and quadruples.
    ///
    /// `pair(i, j)` returns the slowdown of stream `i` when co-running
    /// with stream `j` alone.
    pub fn from_pairwise(pair: impl Fn(usize, usize) -> f64) -> Self {
        let mut factors = vec![[1.0; NUM_STREAMS]; 1 << NUM_STREAMS];
        for (mask, entry) in factors.iter_mut().enumerate() {
            for (i, f) in entry.iter_mut().enumerate() {
                if mask & (1 << i) == 0 {
                    continue;
                }
                let mut acc = 1.0f64;
                for j in 0..NUM_STREAMS {
                    if j != i && mask & (1 << j) != 0 {
                        // Damped compounding: a third co-runner hurts, but
                        // less than the pairwise product would suggest.
                        acc *= pair(i, j).powf(0.85);
                    }
                }
                *f = acc.max(1.0);
            }
        }
        InterferenceModel { factors }
    }

    /// Default factors for PCIe-only machines (L4): NCCL and host copies
    /// share the PCIe bus and interfere strongly; compute is mostly
    /// isolated but loses some SMs/DRAM bandwidth to communication.
    pub fn pcie_defaults() -> Self {
        Self::from_pairwise(pcie_pair)
    }

    /// Default factors for NVLink machines (A100): GPU↔GPU traffic
    /// bypasses PCIe, so NCCL barely contends with host copies.
    pub fn nvlink_defaults() -> Self {
        Self::from_pairwise(nvlink_pair)
    }

    /// Builds a model directly from a factor table (used by fitting).
    pub fn from_factors(factors: Vec<[f64; NUM_STREAMS]>) -> Self {
        assert_eq!(factors.len(), 1 << NUM_STREAMS);
        InterferenceModel { factors }
    }

    /// Read access to the factor table.
    pub fn factors(&self) -> &[[f64; NUM_STREAMS]] {
        &self.factors
    }

    /// Predicts wall-clock time for one 4-tuple of per-stream busy times
    /// `[compute, nccl, h2d, d2h]` (seconds).
    ///
    /// Scalar specialisation of Algorithm 1: repeatedly take the current
    /// set of still-busy streams, apply its slowdown factors, consume the
    /// smallest scaled remaining time as fully-overlapped progress, and
    /// drop the exhausted stream; the final lone stream runs undisturbed.
    /// [`Self::predict_columns`] runs the same arithmetic over a batch.
    ///
    /// Every input is accepted. A stream is busy iff its time is `> 0`;
    /// `0`, `−0.0`, negative and NaN times are idle streams: they take no
    /// part in the overlap rounds and enter the result only through the
    /// final sum, so a NaN input yields a NaN time and a negative one
    /// lowers it. A `+∞` stream is busy and never finishes, so the time
    /// is `+∞` (or NaN beside a NaN or `−∞` idle stream) — never a finite
    /// value callers could mistake for a real prediction.
    pub fn predict(&self, x: [f64; NUM_STREAMS]) -> f64 {
        let mut x = x;
        let mut total = 0.0;
        loop {
            let mask = live_mask(&x);
            if mask.count_ones() <= 1 {
                total += x.iter().sum::<f64>();
                return total;
            }
            let f = &self.factors[mask as usize];
            // Scaled remaining times; the minimum is the overlapped chunk.
            let mut overlap = f64::INFINITY;
            for i in 0..NUM_STREAMS {
                if mask & (1 << i) != 0 {
                    overlap = overlap.min(x[i] * f[i]);
                }
            }
            total += overlap;
            for i in 0..NUM_STREAMS {
                if mask & (1 << i) != 0 {
                    x[i] = (x[i] * f[i] - overlap).max(0.0) / f[i];
                    if x[i] < 1e-15 {
                        x[i] = 0.0;
                    }
                }
            }
        }
    }
}

fn live_mask(x: &[f64; NUM_STREAMS]) -> u8 {
    let mut mask = 0u8;
    for (i, v) in x.iter().enumerate() {
        if *v > 0.0 {
            mask |= 1 << i;
        }
    }
    mask
}

/// Pairwise slowdowns on PCIe machines. Indices follow [`StreamKind`].
fn pcie_pair(i: usize, j: usize) -> f64 {
    const C: usize = 0;
    const N: usize = 1;
    const H2D: usize = 2;
    const D2H: usize = 3;
    match (i, j) {
        // Compute loses a little to any communication (the paper measures
        // 7.7% for a linear layer next to all-reduce).
        (C, N) => 1.08,
        (C, H2D) | (C, D2H) => 1.04,
        // NCCL over PCIe contends hard with host copies in its direction.
        (N, C) => 1.12,
        (N, H2D) | (N, D2H) => 1.45,
        (H2D, N) | (D2H, N) => 1.45,
        // Host copies in opposite directions are near-duplex.
        (H2D, D2H) | (D2H, H2D) => 1.08,
        (H2D, C) | (D2H, C) => 1.06,
        _ => 1.0,
    }
}

/// Pairwise slowdowns on NVLink machines: NCCL is off the PCIe bus.
fn nvlink_pair(i: usize, j: usize) -> f64 {
    const C: usize = 0;
    const N: usize = 1;
    const H2D: usize = 2;
    const D2H: usize = 3;
    match (i, j) {
        (C, N) => 1.05,
        (C, H2D) | (C, D2H) => 1.03,
        (N, C) => 1.08,
        (N, H2D) | (N, D2H) => 1.05,
        (H2D, N) | (D2H, N) => 1.05,
        (H2D, D2H) | (D2H, H2D) => 1.08,
        (H2D, C) | (D2H, C) => 1.05,
        _ => 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_stream_is_exact() {
        let m = InterferenceModel::pcie_defaults();
        assert_eq!(m.predict([3.0, 0.0, 0.0, 0.0]), 3.0);
        assert_eq!(m.predict([0.0, 0.0, 0.0, 2.5]), 2.5);
        assert_eq!(m.predict([0.0; 4]), 0.0);
    }

    #[test]
    fn overlap_beats_serial_but_costs_more_than_max() {
        let m = InterferenceModel::pcie_defaults();
        let x = [10e-3, 4e-3, 3e-3, 2e-3];
        let t = m.predict(x);
        let serial: f64 = x.iter().sum();
        let max = x.iter().cloned().fold(0.0, f64::max);
        assert!(t < serial, "t={t} serial={serial}");
        assert!(t >= max, "t={t} max={max}");
    }

    #[test]
    fn prediction_is_monotone_in_each_stream() {
        let m = InterferenceModel::pcie_defaults();
        let base = [5e-3, 2e-3, 1e-3, 1e-3];
        let t0 = m.predict(base);
        for i in 0..NUM_STREAMS {
            let mut x = base;
            x[i] *= 1.5;
            assert!(m.predict(x) > t0, "stream {i} not monotone");
        }
    }

    #[test]
    fn batch_matches_scalar() {
        let m = InterferenceModel::pcie_defaults();
        let rows = [
            [10e-3, 4e-3, 3e-3, 2e-3],
            [1e-3, 0.0, 0.0, 0.0],
            [0.0, 2e-3, 2e-3, 0.0],
            [5e-3, 5e-3, 5e-3, 5e-3],
            [0.0; 4],
            [3e-3, 1e-3, 0.0, 2e-3],
            [2e-3, 0.0, 1e-3, 4e-3],
            [7e-3, 6e-3, 5e-3, 0.0],
            [9e-3, 1e-3, 1e-3, 1e-3],
        ];
        let cols: [Vec<f64>; NUM_STREAMS] =
            std::array::from_fn(|i| rows.iter().map(|r| r[i]).collect());
        let mut batch = [0.0; 9];
        m.predict_columns([&cols[0], &cols[1], &cols[2], &cols[3]], &mut batch);
        for (i, row) in rows.iter().enumerate() {
            let scalar = m.predict(*row);
            assert_eq!(
                batch[i].to_bits(),
                scalar.to_bits(),
                "row {i}: batch {} vs scalar {scalar}",
                batch[i]
            );
        }
    }

    #[test]
    fn idle_streams_are_zero_negative_and_nan_times() {
        let m = InterferenceModel::pcie_defaults();
        let busy = [10e-3, 4e-3, 0.0, 0.0];
        let t = m.predict(busy);
        // `−0.0` is as idle as `0.0`.
        assert_eq!(m.predict([10e-3, 4e-3, -0.0, 0.0]).to_bits(), t.to_bits());
        // A negative time is idle: no overlap round sees it, the final
        // sum adds it once.
        assert!((m.predict([10e-3, 4e-3, -1e-3, 0.0]) - (t - 1e-3)).abs() < 1e-15);
        assert_eq!(m.predict([-2e-3, 0.0, 0.0, 5e-3]), 5e-3 - 2e-3);
        // A NaN time is idle in the rounds and poisons the sum.
        assert!(m.predict([10e-3, 4e-3, f64::NAN, 0.0]).is_nan());
        assert!(m.predict([f64::NAN; 4]).is_nan());
        assert_eq!(m.predict([-0.0; 4]), 0.0);
    }

    #[test]
    fn infinite_streams_give_non_finite_times() {
        let m = InterferenceModel::pcie_defaults();
        let inf = f64::INFINITY;
        assert_eq!(m.predict([inf, 0.0, 0.0, 0.0]), inf);
        assert_eq!(m.predict([inf, 4e-3, 1e-3, 0.0]), inf);
        assert_eq!(m.predict([inf, inf, inf, inf]), inf);
        assert_eq!(m.predict([1e-3, inf, 0.0, 2e-3]), inf);
        assert!(m.predict([inf, 0.0, f64::NAN, 0.0]).is_nan());
        assert!(m.predict([inf, 1e-3, f64::NEG_INFINITY, 0.0]).is_nan());
    }

    #[test]
    fn nvlink_interferes_less_than_pcie() {
        let pcie = InterferenceModel::pcie_defaults();
        let nvl = InterferenceModel::nvlink_defaults();
        let x = [5e-3, 5e-3, 5e-3, 0.0];
        assert!(nvl.predict(x) < pcie.predict(x));
    }

    #[test]
    fn compute_hides_small_transfers_almost_fully() {
        let m = InterferenceModel::nvlink_defaults();
        let t = m.predict([100e-3, 0.0, 1e-3, 0.0]);
        assert!(t < 101e-3, "t={t}");
        assert!(t > 100e-3);
    }

    #[test]
    fn factors_table_has_all_masks() {
        let m = InterferenceModel::pcie_defaults();
        assert_eq!(m.factors().len(), 16);
        for row in m.factors() {
            for f in row {
                assert!(*f >= 1.0);
            }
        }
    }
}
