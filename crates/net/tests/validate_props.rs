//! Property tests of `CostMatrix` validation: the blocked triangle kernel,
//! whichever lane it runs on, must give the verdict and the witness of a
//! plain `k, i, j` scan in exact (`u128`) arithmetic.

use drp_net::{CostMatrix, NetError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Largest off-diagonal entries to test: on and just past the kernel's
/// `i16` lane bound (half of `i16::MAX`), on and just past the half-range
/// bounds of other integer widths, and up to `u64::MAX`, where sums of two
/// entries overflow.
const TOPS: [u64; 13] = [
    3,
    (i16::MAX / 2) as u64,
    (i16::MAX / 2) as u64 + 1,
    (u16::MAX / 2) as u64,
    (u16::MAX / 2) as u64 + 1,
    (i32::MAX / 2) as u64,
    (i32::MAX / 2) as u64 + 1,
    (u32::MAX / 2) as u64,
    (u32::MAX / 2) as u64 + 1,
    u64::MAX / 2,
    u64::MAX / 2 + 1,
    u64::MAX - 1,
    u64::MAX,
];

/// Reference check: the first `C(i,j) > C(i,k) + C(k,j)` in `k, i, j`
/// order, with sums that cannot overflow.
fn reference(m: usize, c: &[u64]) -> Result<(), String> {
    let at = |i: usize, j: usize| u128::from(c[i * m + j]);
    for k in 0..m {
        for i in 0..m {
            for j in 0..m {
                if at(i, j) > at(i, k) + at(k, j) {
                    return Err(format!(
                        "triangle inequality violated: C({i},{j}) > C({i},{k}) + C({k},{j})"
                    ));
                }
            }
        }
    }
    Ok(())
}

fn set(c: &mut [u64], m: usize, i: usize, j: usize, value: u64) {
    c[i * m + j] = value;
    c[j * m + i] = value;
}

/// A symmetric matrix with a zero diagonal and positive off-diagonal
/// entries at most `top`, one of them equal to `top` when `m ≥ 2`.
///
/// `band` draws every entry from `[top/2, top]`, a tight metric whose sums
/// overflow near `u64::MAX`. Otherwise random links in `[1, top]` are
/// closed under shortest paths and the last site is placed at `top` from
/// all others, which keeps the matrix metric. Then `perturb` entries are
/// redrawn from `[1, top]`, which usually breaks some triangle.
fn matrix(m: usize, top: u64, band: bool, perturb: usize, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let low = if band { top / 2 + top % 2 } else { 1 };
    let mut c = vec![0u64; m * m];
    for i in 0..m {
        for j in i + 1..m {
            set(&mut c, m, i, j, rng.random_range(low..=top));
        }
    }
    if !band {
        for k in 0..m {
            for i in 0..m {
                for j in 0..m {
                    let through = u128::from(c[i * m + k]) + u128::from(c[k * m + j]);
                    if through < u128::from(c[i * m + j]) {
                        c[i * m + j] = through as u64;
                    }
                }
            }
        }
        for i in 0..m.saturating_sub(1) {
            set(&mut c, m, i, m - 1, top);
        }
    } else if m >= 2 {
        set(&mut c, m, 0, 1, top);
    }
    if m >= 2 {
        for _ in 0..perturb {
            let i = rng.random_range(0..m);
            let j = (i + rng.random_range(1..m)) % m;
            set(&mut c, m, i, j, rng.random_range(1..=top));
        }
    }
    c
}

fn verdict(m: usize, c: Vec<u64>) -> Result<(), String> {
    match CostMatrix::from_rows(m, c) {
        Ok(_) => Ok(()),
        Err(NetError::InvalidMatrix { reason }) => Err(reason),
        Err(other) => panic!("unexpected error {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    #[test]
    fn kernel_matches_reference_scan(
        m in 1usize..41,
        top in 0usize..TOPS.len(),
        band in 0u8..2,
        perturb in 0usize..4,
        seed in 0u64..u64::MAX,
    ) {
        let band = band == 1;
        let c = matrix(m, TOPS[top], band, perturb, seed);
        let want = reference(m, &c);
        prop_assert_eq!(verdict(m, c), want, "m={} top={} band={}", m, TOPS[top], band);
    }
}

#[test]
fn unperturbed_matrices_are_metric_on_every_lane() {
    for (n, &top) in TOPS.iter().enumerate() {
        for m in [1, 2, 3, 15, 16, 17, 33] {
            for band in [false, true] {
                let c = matrix(m, top, band, 0, n as u64);
                assert_eq!(reference(m, &c), Ok(()), "m={m} top={top} band={band}");
                assert_eq!(verdict(m, c), Ok(()), "m={m} top={top} band={band}");
            }
        }
    }
}

#[test]
fn every_lane_sees_both_verdicts() {
    // Guards the generator: perturbed matrices must reach the error path
    // on every lane, or the property above would only test acceptance.
    for top in TOPS {
        let mut outcomes = [0usize; 2];
        for seed in 0..40 {
            let c = matrix(20, top, seed % 2 == 0, 3, seed);
            let want = reference(20, &c);
            outcomes[usize::from(want.is_err())] += 1;
            assert_eq!(verdict(20, c), want, "top={top} seed={seed}");
        }
        assert!(
            outcomes[0] > 0 && outcomes[1] > 0,
            "top={top}: {outcomes:?}"
        );
    }
}
