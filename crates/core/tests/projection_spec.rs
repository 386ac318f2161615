//! The columnar Fig. 3/4 projection search against its row-layout
//! reference (`reference/mod.rs`), bit for bit.
//!
//! Point counts straddle `hinn_par::CHUNK` (1024) and `SERIAL_CUTOFF`
//! (4096), so chunk tails and the parallel schedule both run; search
//! subspaces range from 2-D (no halving round) to 20-D (three rounds);
//! both projection modes and thread budgets 1 and 4 are compared. The
//! data carries exact duplicate points, so the support scan's index
//! tie-break decides membership of the query cluster.

mod reference;

use hinn_core::degrade::DegradationEvent;
use hinn_core::projection::{try_find_query_centered_projection_cols, ProjectionResult};
use hinn_core::ProjectionMode;
use hinn_linalg::{Parallelism, Subspace};
use proptest::prelude::*;

const COUNTS: [usize; 5] = [1023, 1024, 1025, 4095, 4097];
const DIMS: [usize; 4] = [2, 3, 5, 20];

/// One search input: the ambient dimension is `m + 2`, the search
/// subspace an oblique `m`-dimensional one (or the whole space).
struct Case {
    rows: Vec<Vec<f64>>,
    query: Vec<f64>,
    current: Subspace,
}

fn xorshift(seed: u64) -> impl FnMut() -> f64 {
    let mut s = seed | 1;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn case(n: usize, m: usize, full: bool, seed: u64) -> Case {
    let d = if full { m } else { m + 2 };
    let mut unif = xorshift(seed);
    let center: Vec<f64> = (0..d).map(|_| 40.0 + unif() * 20.0).collect();
    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(n);
    while rows.len() < n {
        let k = rows.len();
        let row = if k % 9 == 8 {
            // An exact duplicate of an earlier point.
            rows[k / 2].clone()
        } else if k.is_multiple_of(5) {
            // A planted cluster member: tight in the first two
            // coordinates, spread elsewhere.
            let mut p: Vec<f64> = (0..d).map(|_| unif() * 100.0).collect();
            p[0] = center[0] + (unif() - 0.5) * 2.0;
            p[1] = center[1] + (unif() - 0.5) * 2.0;
            p
        } else {
            (0..d).map(|_| unif() * 100.0).collect()
        };
        rows.push(row);
    }
    let current = if full {
        Subspace::full(d)
    } else {
        let spanning: Vec<Vec<f64>> = (0..m)
            .map(|_| (0..d).map(|_| unif() - 0.5).collect())
            .collect();
        Subspace::from_vectors(d, &spanning)
    };
    Case {
        rows,
        query: center,
        current,
    }
}

fn columns(rows: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let d = rows[0].len();
    (0..d)
        .map(|j| rows.iter().map(|r| r[j]).collect())
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn basis_bits(s: &Subspace) -> Vec<Vec<u64>> {
    s.basis().iter().map(|b| bits(b)).collect()
}

fn event_text(events: &[DegradationEvent]) -> Vec<String> {
    events
        .iter()
        .map(|e| format!("{:?}: {}", e.kind, e.detail))
        .collect()
}

fn assert_same(
    got: &(ProjectionResult, Vec<DegradationEvent>),
    want: &(ProjectionResult, Vec<DegradationEvent>),
    label: &str,
) {
    assert_eq!(
        basis_bits(&got.0.projection),
        basis_bits(&want.0.projection),
        "projection basis, {label}"
    );
    assert_eq!(
        basis_bits(&got.0.remainder),
        basis_bits(&want.0.remainder),
        "remainder basis, {label}"
    );
    assert_eq!(
        bits(&got.0.variance_ratios),
        bits(&want.0.variance_ratios),
        "variance ratios, {label}"
    );
    assert_eq!(event_text(&got.1), event_text(&want.1), "events, {label}");
}

/// Run both searches on one input under one configuration.
fn compare(c: &Case, support: usize, mode: ProjectionMode, par: Parallelism, label: &str) {
    let cols = columns(&c.rows);
    let col_refs: Vec<&[f64]> = cols.iter().map(|c| c.as_slice()).collect();
    let got = try_find_query_centered_projection_cols(
        par, &col_refs, &c.query, &c.current, support, mode,
    )
    .expect("columnar search");
    let want = reference::find(par, &c.rows, &c.query, &c.current, support, mode)
        .expect("reference search");
    assert_same(&got, &want, label);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn columnar_search_is_bit_identical_to_the_row_reference(
        ni in 0..COUNTS.len(),
        mi in 0..DIMS.len(),
        full in proptest::bool::ANY,
        arbitrary in proptest::bool::ANY,
        threads in prop_oneof![Just(1usize), Just(4usize)],
        support in prop_oneof![Just(8usize), Just(30usize), Just(90usize)],
        seed in 1..u64::MAX,
    ) {
        let (n, m) = (COUNTS[ni], DIMS[mi]);
        let c = case(n, m, full, seed);
        let mode = if arbitrary { ProjectionMode::Arbitrary } else { ProjectionMode::AxisParallel };
        let label = format!(
            "n={n} m={m} full={full} mode={mode:?} threads={threads} support={support}"
        );
        compare(&c, support, mode, Parallelism::fixed(threads), &label);
    }
}

/// Every (count, dimension) corner once, in both modes, so no cell of the
/// grid depends on the sampler reaching it.
#[test]
fn every_count_and_dimension_matches_the_reference() {
    for (k, &n) in COUNTS.iter().enumerate() {
        for (j, &m) in DIMS.iter().enumerate() {
            let c = case(n, m, j % 2 == 0, 0x5EED + (k * 8 + j) as u64);
            for mode in [ProjectionMode::Arbitrary, ProjectionMode::AxisParallel] {
                compare(
                    &c,
                    40,
                    mode,
                    Parallelism::serial(),
                    &format!("n={n} m={m} mode={mode:?}"),
                );
            }
        }
    }
}
