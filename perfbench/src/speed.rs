//! How fast the machine runs right now, measured with a fixed reference
//! computation that belongs to the benchmark, not to the program.
//!
//! On a shared VM the same work ran up to 2.5× faster in some stretches
//! of minutes than in others, and in shorter phases within a run. The benchmark
//! interleaves the reference with the measured work (after every round,
//! and around every set-up) and scales each timing to the reference's
//! nominal speed, so a phase of the host moves the scaled metric much less
//! than the wall-clock one. The report keeps the wall-clock values too.

use std::hint::black_box;
use std::time::Instant;

/// The reference's time on a fast stretch of the 2-vCPU AVX-512
/// VM the benchmark was built on. Scaled metrics read in milliseconds (or
/// seconds) of that machine.
pub const NOMINAL_MS: f64 = 0.4;

const DIM: usize = 20;
const ROWS: usize = 2048;
const PROBES: usize = 32;

/// The reference computation: nearest-neighbour distances of a few rows
/// against a small table (320 KiB, so it stays in cache and barely
/// disturbs the program's own cached data).
pub struct Reference {
    rows: Vec<f64>,
}

impl Default for Reference {
    fn default() -> Self {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        Self {
            rows: (0..ROWS * DIM).map(|_| next()).collect(),
        }
    }
}

impl Reference {
    fn kernel(&self) -> f64 {
        let mut acc = 0.0;
        for p in self.rows.chunks_exact(DIM).take(PROBES) {
            let mut best = f64::INFINITY;
            for r in self.rows.chunks_exact(DIM) {
                let d: f64 = r.iter().zip(p).map(|(a, b)| (a - b) * (a - b)).sum();
                if d > 0.0 {
                    best = best.min(d);
                }
            }
            acc += best;
        }
        acc
    }

    /// One warm run of the reference, milliseconds: the first run brings
    /// the table back into cache, so the measurement does not depend on
    /// how much of it the program's work evicted.
    pub fn time_ms(&self) -> f64 {
        black_box(self.kernel());
        let t = Instant::now();
        black_box(self.kernel());
        t.elapsed().as_secs_f64() * 1e3
    }

    /// `n` runs of the reference, milliseconds each.
    pub fn sample(&self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.time_ms()).collect()
    }
}

/// The factor that scales a time measured while the reference took
/// `reference_ms` to the nominal machine.
pub fn time_scale(reference_ms: f64) -> f64 {
    NOMINAL_MS / reference_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_is_deterministic_work() {
        let a = Reference::default();
        let b = Reference::default();
        assert_eq!(a.kernel().to_bits(), b.kernel().to_bits());
        assert!(a.time_ms() > 0.0);
        assert_eq!(time_scale(2.0 * NOMINAL_MS), 0.5);
    }
}
