use serde::{Deserialize, Serialize};

use crate::pool::WorkerPool;
use crate::{shortest, Graph, NetError, Result};

/// The symmetric per-unit transfer cost table `C(i, j)` of the paper.
///
/// `C(i, j)` is the cumulative cost of the shortest path between sites `i`
/// and `j`; `C(i, i) = 0` and `C(i, j) = C(j, i)`. The matrix is validated on
/// construction so every algorithm downstream can index it infallibly.
///
/// # Examples
///
/// ```
/// use drp_net::{Graph, CostMatrix};
///
/// let mut g = Graph::new(3)?;
/// g.add_edge(0, 1, 2)?;
/// g.add_edge(1, 2, 3)?;
/// let c = CostMatrix::from_graph(&g)?;
/// assert_eq!(c.cost(0, 2), 5); // via site 1
/// # Ok::<(), drp_net::NetError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CostMatrix {
    num_sites: usize,
    /// Row-major M×M table.
    costs: Vec<u64>,
}

impl CostMatrix {
    /// Builds the matrix from explicit entries (row-major, length `M·M`).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidMatrix`] when the data has the wrong
    /// length, a non-zero diagonal, an asymmetric pair, a zero off-diagonal
    /// entry, or violates the triangle inequality (shortest-path costs are
    /// metric by construction; enforcing this catches hand-built mistakes).
    pub fn from_rows(num_sites: usize, costs: Vec<u64>) -> Result<Self> {
        if num_sites == 0 {
            return Err(NetError::EmptyNetwork);
        }
        if costs.len() != num_sites * num_sites {
            return Err(NetError::InvalidMatrix {
                reason: format!(
                    "expected {} entries for {} sites, got {}",
                    num_sites * num_sites,
                    num_sites,
                    costs.len()
                ),
            });
        }
        let matrix = Self { num_sites, costs };
        matrix.validate()?;
        Ok(matrix)
    }

    /// Computes all-pairs shortest path costs of a connected graph.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Disconnected`] if some pair of sites has no path.
    pub fn from_graph(graph: &Graph) -> Result<Self> {
        Self::from_graph_with_pool(graph, WorkerPool::global())
    }

    /// [`from_graph`](Self::from_graph) with an explicit worker pool.
    ///
    /// The result is bitwise-identical for every pool size (each source
    /// site owns one disjoint row of the matrix); benchmarks pass
    /// `WorkerPool::new(1)` to time the sequential reference.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Disconnected`] if some pair of sites has no path.
    pub fn from_graph_with_pool(graph: &Graph, pool: &WorkerPool) -> Result<Self> {
        let m = graph.num_sites();
        let costs = shortest::all_pairs_flat(graph, pool);
        if let Some(flat) = costs.iter().position(|&c| c == shortest::UNREACHABLE) {
            return Err(NetError::Disconnected {
                pair: (flat / m, flat % m),
            });
        }
        Ok(Self {
            num_sites: m,
            costs,
        })
    }

    /// Checks the shape invariants, then the triangle inequality with
    /// [`triangle_holds`] over the narrowest lane that cannot overflow:
    /// an `i16` copy when every entry is at most half that lane's maximum,
    /// otherwise the `u64` table itself with a saturating add. The copy is
    /// dropped before returning.
    fn validate(&self) -> Result<()> {
        let m = self.num_sites;
        for i in 0..m {
            if self.cost(i, i) != 0 {
                return Err(NetError::InvalidMatrix {
                    reason: format!("diagonal entry ({i}, {i}) must be zero"),
                });
            }
            for j in (i + 1)..m {
                if self.cost(i, j) != self.cost(j, i) {
                    return Err(NetError::InvalidMatrix {
                        reason: format!("entries ({i}, {j}) and ({j}, {i}) differ"),
                    });
                }
                if self.cost(i, j) == 0 {
                    return Err(NetError::InvalidMatrix {
                        reason: format!("off-diagonal entry ({i}, {j}) must be positive"),
                    });
                }
            }
        }
        // Every entry is at most the lane's bound, so the casts are exact.
        let max = self.costs.iter().copied().max().unwrap_or(0);
        let holds = if max <= I16_LANE_MAX {
            let narrow: Vec<i16> = self.costs.iter().map(|&c| c as i16).collect();
            triangle_holds(&narrow, m, |a, b| a + b)
        } else {
            triangle_holds(&self.costs, m, u64::saturating_add)
        };
        if holds {
            Ok(())
        } else {
            self.first_triangle_violation()
        }
    }

    /// The scalar reference scan behind [`triangle_holds`]: walks pivots
    /// `k`, then rows `i`, then columns `j`, and reports the first violated
    /// `C(i,j) > C(i,k) + C(k,j)`. Only runs once the fast kernel has found
    /// a violation, to name the witness.
    #[cold]
    fn first_triangle_violation(&self) -> Result<()> {
        let m = self.num_sites;
        for k in 0..m {
            for i in 0..m {
                for j in 0..m {
                    if self.cost(i, j) > self.cost(i, k).saturating_add(self.cost(k, j)) {
                        return Err(NetError::InvalidMatrix {
                            reason: format!(
                                "triangle inequality violated: C({i},{j}) > C({i},{k}) + C({k},{j})"
                            ),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Number of sites.
    pub fn num_sites(&self) -> usize {
        self.num_sites
    }

    /// Per-unit transfer cost `C(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    #[inline]
    pub fn cost(&self, i: usize, j: usize) -> u64 {
        self.costs[i * self.num_sites + j]
    }

    /// Row `i` of the matrix: costs from site `i` to every site.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn row(&self, i: usize) -> &[u64] {
        &self.costs[i * self.num_sites..(i + 1) * self.num_sites]
    }

    /// Sum of the costs from site `i` to every site (`Σ_x C(i, x)`), used by
    /// the paper's Eq. 6 "proportional link weight".
    pub fn row_sum(&self, i: usize) -> u64 {
        self.row(i).iter().sum()
    }

    /// Mean over sites of [`row_sum`](Self::row_sum):
    /// `Σ_l Σ_x C(l, x) / M`, the denominator of the Eq. 6 weight.
    pub fn mean_row_sum(&self) -> f64 {
        let total: u64 = self.costs.iter().sum();
        total as f64 / self.num_sites as f64
    }

    /// The site in `candidates` nearest to `i` (ties broken by lower index),
    /// together with the cost. Returns `None` for an empty candidate list.
    pub fn nearest_of<'a, I>(&self, i: usize, candidates: I) -> Option<(usize, u64)>
    where
        I: IntoIterator<Item = &'a usize>,
    {
        candidates
            .into_iter()
            .map(|&j| (self.cost(i, j), j))
            .min()
            .map(|(c, j)| (j, c))
    }
}

/// Largest entry for which [`CostMatrix::validate`] checks triangles on an
/// `i16` copy: any sum of two entries then fits the lane. The lane is
/// signed because SSE2, the x86-64 baseline, compares signed 16-bit lanes
/// natively but has no unsigned compare.
const I16_LANE_MAX: u64 = (i16::MAX / 2) as u64;

/// Pivots per block of [`triangle_holds`]: 16 pivot rows stay cache
/// resident while each row `i` streams through once per block.
const TRIANGLE_BLOCK: usize = 16;

/// Whether the symmetric row-major `m × m` matrix `c` satisfies every
/// triangle inequality `C(i,j) ≤ C(i,k) + C(k,j)`.
///
/// Symmetry makes the `(i, j)` and `(j, i)` conditions identical and the
/// diagonal is zero, so only the upper half `j > i` is scanned. For each
/// pair `(i, k)` the row slices are compared with a branchless fold that
/// vectorises; the result is tested once per row and pivot block.
/// `add` must never wrap: a plain add over a lane where every entry is at
/// most half the lane's maximum, or a saturating add (a saturated sum can
/// never be exceeded, so the verdict stays exact).
fn triangle_holds<T>(c: &[T], m: usize, add: impl Fn(T, T) -> T) -> bool
where
    T: Copy + Ord,
{
    for first in (0..m).step_by(TRIANGLE_BLOCK) {
        let pivots = first..(first + TRIANGLE_BLOCK).min(m);
        for i in 0..m {
            let row_i = &c[i * m..(i + 1) * m];
            let upper_i = &row_i[i + 1..];
            let mut violated = false;
            for k in pivots.clone() {
                let through = row_i[k];
                let upper_k = &c[k * m + i + 1..(k + 1) * m];
                violated |= upper_i
                    .iter()
                    .zip(upper_k)
                    .fold(false, |v, (&a, &b)| v | (a > add(through, b)));
            }
            if violated {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line3() -> CostMatrix {
        // 0 -2- 1 -3- 2
        let mut g = Graph::new(3).unwrap();
        g.add_edge(0, 1, 2).unwrap();
        g.add_edge(1, 2, 3).unwrap();
        CostMatrix::from_graph(&g).unwrap()
    }

    #[test]
    fn from_graph_computes_shortest_paths() {
        let c = line3();
        assert_eq!(c.cost(0, 1), 2);
        assert_eq!(c.cost(0, 2), 5);
        assert_eq!(c.cost(2, 0), 5);
        assert_eq!(c.cost(1, 1), 0);
    }

    #[test]
    fn from_graph_rejects_disconnected() {
        let mut g = Graph::new(3).unwrap();
        g.add_edge(0, 1, 1).unwrap();
        assert!(matches!(
            CostMatrix::from_graph(&g),
            Err(NetError::Disconnected { .. })
        ));
    }

    #[test]
    fn from_rows_validates_shape_and_symmetry() {
        assert!(CostMatrix::from_rows(2, vec![0, 1, 1]).is_err());
        assert!(CostMatrix::from_rows(2, vec![0, 1, 2, 0]).is_err()); // asymmetric
        assert!(CostMatrix::from_rows(2, vec![1, 1, 1, 0]).is_err()); // nonzero diag
        assert!(CostMatrix::from_rows(2, vec![0, 0, 0, 0]).is_err()); // zero off-diag
        assert!(CostMatrix::from_rows(2, vec![0, 4, 4, 0]).is_ok());
    }

    #[test]
    fn from_rows_enforces_triangle_inequality() {
        // C(0,2)=10 > C(0,1)+C(1,2)=2
        let bad = CostMatrix::from_rows(3, vec![0, 1, 10, 1, 0, 1, 10, 1, 0]);
        assert!(matches!(bad, Err(NetError::InvalidMatrix { .. })));
    }

    fn reason(result: Result<CostMatrix>) -> String {
        match result {
            Err(NetError::InvalidMatrix { reason }) => reason,
            other => panic!("expected InvalidMatrix, got {other:?}"),
        }
    }

    #[test]
    fn near_max_metric_is_accepted() {
        // Every sum of two off-diagonal entries overflows u64; a plain add
        // would panic in debug builds and report a violation in release.
        let x = u64::MAX - 1;
        let c = CostMatrix::from_rows(3, vec![0, x, x, x, 0, x, x, x, 0]).unwrap();
        assert_eq!(c.cost(0, 2), x);
    }

    #[test]
    fn near_max_violation_is_a_typed_error() {
        // C(0,1) + C(1,2) = u64::MAX - 2 fits exactly; C(0,2) exceeds it by one.
        let (a, b, x) = (u64::MAX / 2, u64::MAX / 2 - 1, u64::MAX - 1);
        let bad = CostMatrix::from_rows(3, vec![0, a, x, a, 0, b, x, b, 0]);
        assert_eq!(
            reason(bad),
            "triangle inequality violated: C(0,2) > C(0,1) + C(1,2)"
        );
    }

    #[test]
    fn witness_is_the_first_violation_in_k_i_j_order() {
        // Violations: C(2,3) > C(2,0) + C(0,3) at pivot 0, and
        // C(0,2) > C(0,1) + C(1,2) and C(2,3) > C(2,1) + C(1,3) at pivot 1.
        // The kernel meets row 0 first; the witness is still pivot 0's.
        #[rustfmt::skip]
        let rows = vec![
            0, 1, 5, 1,
            1, 0, 1, 2,
            5, 1, 0, 10,
            1, 2, 10, 0,
        ];
        assert_eq!(
            reason(CostMatrix::from_rows(4, rows)),
            "triangle inequality violated: C(2,3) > C(2,0) + C(0,3)"
        );
    }

    #[test]
    fn every_lane_catches_a_violation_past_the_first_pivot_block() {
        // A 40-site uniform metric, then C(37,38) lifted above the path
        // through pivot 33 (in the third block) alone. The largest entry,
        // 3·unit, sits on and just past the `i16` lane's bound.
        let units = [1, I16_LANE_MAX / 3, I16_LANE_MAX / 3 + 1, u64::MAX / 3];
        for unit in units {
            let m = 40;
            let mut rows: Vec<u64> = (0..m * m)
                .map(|f| if f / m == f % m { 0 } else { 2 * unit })
                .collect();
            assert!(CostMatrix::from_rows(m, rows.clone()).is_ok());
            for (i, j) in [(33, 37), (37, 33), (33, 38), (38, 33)] {
                rows[i * m + j] = unit;
            }
            rows[37 * m + 38] = 3 * unit;
            rows[38 * m + 37] = 3 * unit;
            assert_eq!(
                reason(CostMatrix::from_rows(m, rows)),
                "triangle inequality violated: C(37,38) > C(37,33) + C(33,38)",
                "unit {unit}"
            );
        }
    }

    #[test]
    fn row_sums() {
        let c = line3();
        assert_eq!(c.row_sum(0), 7);
        assert_eq!(c.row_sum(1), 5);
        assert_eq!(c.row_sum(2), 8);
        let mean = c.mean_row_sum();
        assert!((mean - 20.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn nearest_of_picks_minimum_with_tie_break() {
        let c = line3();
        let replicas = vec![0usize, 2];
        assert_eq!(c.nearest_of(1, &replicas), Some((0, 2)));
        assert_eq!(c.nearest_of(0, &replicas), Some((0, 0)));
        assert_eq!(c.nearest_of(0, &[]), None);
    }

    #[test]
    fn serde_round_trip_shape() {
        let c = line3();
        let cloned = c.clone();
        assert_eq!(c, cloned);
        assert_eq!(c.num_sites(), 3);
        assert_eq!(c.row(1), &[2, 0, 3]);
    }
}
