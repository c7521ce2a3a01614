//! Small numeric and process helpers: quantiles, a seeded generator,
//! peak-RSS readings and CPU pinning.

use std::time::Instant;

/// Quantile `q ∈ [0, 1]` by linear interpolation between order
/// statistics. `values` must be non-empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Consecutive samples per window of [`windowed_quantile`]: ten of them
/// lie beyond a window's 90th percentile.
const WINDOW: usize = 100;

/// Mean, over windows of [`WINDOW`] consecutive samples, of each
/// window's quantile `q`. Each batch (samples taken back to back) is cut
/// into whole windows; a shorter remainder is dropped.
///
/// Sub-millisecond operations on a shared host see its speed states
/// (about 1.7x apart, each lasting about 100 ms) one at a time. A
/// quantile of the pooled samples jumps from one state's value to the
/// other's as the share of time spent in the slower state crosses
/// `1 - q`, so runs of the same code read very differently; the mean over
/// windows moves in proportion to that share instead.
pub fn windowed_quantile(batches: &[Vec<f64>], q: f64) -> f64 {
    let per_window: Vec<f64> = batches
        .iter()
        .flat_map(|b| b.chunks_exact(WINDOW))
        .map(|w| quantile(w, q))
        .collect();
    assert!(!per_window.is_empty(), "no whole window of samples");
    per_window.iter().sum::<f64>() / per_window.len() as f64
}

/// Seconds elapsed since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// SplitMix64: a tiny deterministic generator, so a seed fixes the
/// generated workload independently of any library's RNG.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Peak resident set size (`VmHWM`) of process `pid`, in MB (10^6
/// bytes). `None` when `/proc` has no such entry.
pub fn vm_hwm_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// glibc's `cpu_set_t`: a bit mask over 1024 CPUs.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// Restricts the calling thread to the lowest-numbered CPU it may run
/// on. Processes it starts afterwards inherit the restriction. Returns
/// that CPU, or `None` when the affinity mask cannot be read or set.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut allowed: CpuSet = [0; 16];
    let size = std::mem::size_of::<CpuSet>();
    // SAFETY: `allowed` is a writable mask of `size` bytes; pid 0 names
    // the calling thread.
    if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
        return None;
    }
    let cpu = (0..size * 8).find(|&i| allowed[i / 64] >> (i % 64) & 1 == 1)?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable mask of `size` bytes.
    (unsafe { sched_setaffinity(0, size, &one) } == 0).then_some(cpu)
}
