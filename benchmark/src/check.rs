//! Expected values computed apart from kron-bignum and kron-core.
//!
//! Every number here comes from the star-graph definitions in the paper and
//! plain `u128` arithmetic: a star with `m` points has vertices `0..=m`, the
//! centre `0` joined to each point in both directions, and optionally one
//! self-loop on the centre (`Centre`) or on point `m` (`Leaf`).  Nothing in
//! this module calls into the workspace crates, so a fault there cannot
//! hide by agreeing with itself.

use std::collections::BTreeMap;

/// Self-loop placement of a star, mirrored from the paper (not from
/// kron-core) so the expected values stay independent of the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loop {
    None,
    Centre,
    Leaf,
}

impl Loop {
    pub const ALL: [Loop; 3] = [Loop::None, Loop::Centre, Loop::Leaf];

    pub fn name(self) -> &'static str {
        match self {
            Loop::None => "None",
            Loop::Centre => "Centre",
            Loop::Leaf => "Leaf",
        }
    }
}

/// The stored entries `(row, col)` of one star's adjacency matrix.
fn star_entries(points: u64, policy: Loop) -> Vec<(u64, u64)> {
    let mut entries: Vec<(u64, u64)> = (1..=points).flat_map(|p| [(0, p), (p, 0)]).collect();
    match policy {
        Loop::None => {}
        Loop::Centre => entries.push((0, 0)),
        Loop::Leaf => entries.push((points, points)),
    }
    entries
}

/// `∏ (mᵢ + 1)`.
pub fn vertices(points: &[u64]) -> u128 {
    points.iter().map(|&m| u128::from(m) + 1).product()
}

/// `∏ 2mᵢ` without self-loops; `∏ (2mᵢ + 1) − 1` with one loop per star,
/// since the product's single self-loop is removed from the final graph.
pub fn edges(points: &[u64], policy: Loop) -> u128 {
    match policy {
        Loop::None => points.iter().map(|&m| 2 * u128::from(m)).product(),
        Loop::Centre | Loop::Leaf => {
            points
                .iter()
                .map(|&m| 2 * u128::from(m) + 1)
                .product::<u128>()
                - 1
        }
    }
}

/// The exact degree distribution `degree → vertex count` of the final
/// graph: the product of the stars' row-count distributions, with the one
/// vertex that carries the product's self-loop moved down by one.
pub fn degree_distribution(points: &[u64], policy: Loop) -> BTreeMap<u128, u128> {
    let mut dist: BTreeMap<u128, u128> = BTreeMap::from([(1, 1)]);
    let mut loop_degree = 1u128;
    for &m in points {
        let mut star: BTreeMap<u128, u128> = BTreeMap::new();
        for (row, _) in star_entries(m, policy) {
            *star.entry(u128::from(row)).or_default() += 1;
        }
        let mut by_degree: BTreeMap<u128, u128> = BTreeMap::new();
        for degree in star.values() {
            *by_degree.entry(*degree).or_default() += 1;
        }
        loop_degree *= match policy {
            Loop::None => 1,
            Loop::Centre => star[&0],
            Loop::Leaf => star[&u128::from(m)],
        };
        let mut next = BTreeMap::new();
        for (&d1, &n1) in &dist {
            for (&d2, &n2) in &by_degree {
                *next.entry(d1 * d2).or_default() += n1 * n2;
            }
        }
        dist = next;
    }
    if policy != Loop::None {
        let count = dist
            .get_mut(&loop_degree)
            .expect("the loop vertex has this degree");
        *count -= 1;
        if *count == 0 {
            dist.remove(&loop_degree);
        }
        *dist.entry(loop_degree - 1).or_default() += 1;
    }
    dist
}

/// `(Σ n(d), Σ d·n(d))` — vertices and edges as the distribution counts
/// them.
pub fn distribution_sums(dist: &BTreeMap<u128, u128>) -> (u128, u128) {
    dist.iter()
        .fold((0, 0), |(v, e), (&d, &n)| (v + n, e + d * n))
}

/// Whether all `2^N` subset products of the points are distinct, the
/// paper's condition for an exact power law.
pub fn products_unique(points: &[u64]) -> bool {
    let mut products = vec![1u128];
    for &m in points {
        let scaled: Vec<u128> = products.iter().map(|p| p * u128::from(m)).collect();
        products.extend(scaled);
    }
    let total = products.len();
    products.sort_unstable();
    products.dedup();
    products.len() == total
}

/// The sums of the row labels and of the column labels over every edge of
/// `A₁ ⊗ … ⊗ A_K` (no self-loops), from the Kronecker identity evaluated on
/// the constituents alone.  With label `r = Σ rₖ·Sₖ`, `Sₖ = ∏_{j>k} nⱼ`,
/// each factor's entry appears `∏_{j≠k} nnzⱼ` times, so
/// `Σ r = Σₖ Sₖ · (Σ_{A_k} rₖ) · ∏_{j≠k} nnzⱼ`, and likewise for columns.
pub fn kron_label_sums(points: &[u64]) -> (u128, u128) {
    let factors: Vec<Vec<(u64, u64)>> = points
        .iter()
        .map(|&m| star_entries(m, Loop::None))
        .collect();
    let nnz: Vec<u128> = factors.iter().map(|f| f.len() as u128).collect();
    let mut rows = 0u128;
    let mut cols = 0u128;
    for (k, factor) in factors.iter().enumerate() {
        let stride: u128 = points[k + 1..].iter().map(|&m| u128::from(m) + 1).product();
        let others: u128 = nnz
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != k)
            .map(|(_, n)| n)
            .product();
        let row_sum: u128 = factor.iter().map(|&(r, _)| u128::from(r)).sum();
        let col_sum: u128 = factor.iter().map(|&(_, c)| u128::from(c)).sum();
        rows += stride * row_sum * others;
        cols += stride * col_sum * others;
    }
    (rows, cols)
}

/// Graph500 R-MAT quadrant probabilities `[a, b, c, d]` for
/// (row bit, column bit) = (0,0), (0,1), (1,0), (1,1).
const RMAT_SHARES: [f64; 4] = [0.57, 0.19, 0.19, 0.05];

/// Check quadrant counts at one recursion level against the R-MAT
/// probabilities: each share lies within `6` binomial standard errors.
/// Returns a description of the first share outside, if any.
pub fn rmat_quadrants_ok(counts: &[u64; 4], level: u32) -> Result<(), String> {
    let total: u64 = counts.iter().sum();
    for (quadrant, (&count, &p)) in counts.iter().zip(RMAT_SHARES.iter()).enumerate() {
        let share = count as f64 / total as f64;
        let standard_error = (p * (1.0 - p) / total as f64).sqrt();
        if (share - p).abs() > 6.0 * standard_error {
            return Err(format!(
                "level {level} quadrant {quadrant}: share {share:.6} vs {p} (6 SE = {:.2e})",
                6.0 * standard_error
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_one_counts() {
        // Fig. 1: [5, 3] has 24 vertices, 60 edges and n(d) = 15/d.
        assert_eq!(vertices(&[5, 3]), 24);
        assert_eq!(edges(&[5, 3], Loop::None), 60);
        let dist = degree_distribution(&[5, 3], Loop::None);
        assert_eq!(dist, BTreeMap::from([(1, 15), (3, 5), (5, 3), (15, 1)]));
        assert_eq!(distribution_sums(&dist), (24, 60));
    }

    #[test]
    fn loop_designs_satisfy_the_degree_sums() {
        for policy in [Loop::Centre, Loop::Leaf] {
            let points = [3, 4, 5, 9];
            let (v, e) = distribution_sums(&degree_distribution(&points, policy));
            assert_eq!(v, vertices(&points));
            assert_eq!(e, edges(&points, policy));
        }
    }

    #[test]
    fn label_sums_match_a_brute_force_product() {
        let points = [2, 3, 1];
        let factors: Vec<Vec<(u64, u64)>> = points
            .iter()
            .map(|&m| star_entries(m, Loop::None))
            .collect();
        let mut product = vec![(0u64, 0u64)];
        for (k, factor) in factors.iter().enumerate() {
            let n = points[k] + 1;
            product = product
                .iter()
                .flat_map(|&(r, c)| factor.iter().map(move |&(fr, fc)| (r * n + fr, c * n + fc)))
                .collect();
        }
        let rows: u128 = product.iter().map(|&(r, _)| u128::from(r)).sum();
        let cols: u128 = product.iter().map(|&(_, c)| u128::from(c)).sum();
        assert_eq!(kron_label_sums(&points), (rows, cols));
    }

    #[test]
    fn products_unique_detects_collisions() {
        assert!(products_unique(&[3, 4, 5]));
        assert!(!products_unique(&[2, 3, 6]));
    }
}
