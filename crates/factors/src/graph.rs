//! The factor graph container.

use crate::{Factor, Key};

/// A factor graph: the set of measurement factors plus the
/// variable → factors adjacency the relinearization machinery needs.
///
/// Factors are stored by value, in insertion order.
///
/// # Example
///
/// ```
/// use supernova_factors::{BetweenFactor, FactorGraph, NoiseModel, Se2, Values};
///
/// let mut values = Values::new();
/// let a = values.insert_se2(Se2::identity());
/// let b = values.insert_se2(Se2::new(1.0, 0.0, 0.0));
/// let mut graph = FactorGraph::new();
/// let idx = graph.add(BetweenFactor::se2(a, b, Se2::new(1.0, 0.0, 0.0), NoiseModel::isotropic(3, 0.1)));
/// assert_eq!(graph.factors_of(a), &[idx]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct FactorGraph {
    factors: Vec<Factor>,
    var_factors: Vec<Vec<usize>>,
}

impl FactorGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a factor, returning its index.
    pub fn add(&mut self, factor: impl Into<Factor>) -> usize {
        let factor = factor.into();
        let idx = self.factors.len();
        for &k in factor.keys() {
            if k.0 >= self.var_factors.len() {
                self.var_factors.resize_with(k.0 + 1, Vec::new);
            }
            self.var_factors[k.0].push(idx);
        }
        self.factors.push(factor);
        idx
    }

    /// Number of factors.
    pub fn len(&self) -> usize {
        self.factors.len()
    }

    /// `true` when the graph has no factors.
    pub fn is_empty(&self) -> bool {
        self.factors.is_empty()
    }

    /// The factor at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn factor(&self, idx: usize) -> &Factor {
        &self.factors[idx]
    }

    /// Indices of the factors constraining `key` (empty for unknown keys).
    pub fn factors_of(&self, key: Key) -> &[usize] {
        self.var_factors
            .get(key.0)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Iterates `(index, factor)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Factor)> {
        self.factors.iter().enumerate()
    }

    /// Total weighted squared error `Σ ‖Σ^{-1/2} φ_i‖²` at `values`.
    pub fn total_error2(&self, values: &crate::Values) -> f64 {
        self.factors.iter().map(|f| f.weighted_error2(values)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BetweenFactor, NoiseModel, PriorFactor, Se2, Values};

    fn chain(n: usize) -> (FactorGraph, Values) {
        let mut values = Values::new();
        let mut graph = FactorGraph::new();
        let keys: Vec<Key> = (0..n)
            .map(|i| values.insert_se2(Se2::new(i as f64, 0.0, 0.0)))
            .collect();
        graph.add(PriorFactor::se2(
            keys[0],
            Se2::identity(),
            NoiseModel::isotropic(3, 0.1),
        ));
        for w in keys.windows(2) {
            graph.add(BetweenFactor::se2(
                w[0],
                w[1],
                Se2::new(1.0, 0.0, 0.0),
                NoiseModel::isotropic(3, 0.1),
            ));
        }
        (graph, values)
    }

    #[test]
    fn adjacency_tracks_factors() {
        let (graph, _) = chain(4);
        assert_eq!(graph.len(), 4);
        assert_eq!(graph.factors_of(Key(0)).len(), 2); // prior + between
        assert_eq!(graph.factors_of(Key(1)).len(), 2);
        assert_eq!(graph.factors_of(Key(3)).len(), 1);
        assert!(graph.factors_of(Key(99)).is_empty());
    }

    #[test]
    fn total_error_zero_at_ground_truth() {
        let (graph, values) = chain(5);
        assert!(graph.total_error2(&values) < 1e-16);
    }
}
