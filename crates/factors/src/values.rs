//! Heterogeneous state containers.

use crate::{Key, Se2, Se3};

/// One state variable: a planar pose, a 3-D pose, or a plain Euclidean
/// vector (landmarks, biases).
#[derive(Clone, Debug, PartialEq)]
pub enum Variable {
    /// A planar pose.
    Se2(Se2),
    /// A 3-D pose.
    Se3(Se3),
    /// A Euclidean vector.
    Vector(Vec<f64>),
}

impl Variable {
    /// Tangent-space dimension.
    pub fn dim(&self) -> usize {
        match self {
            Variable::Se2(_) => Se2::DIM,
            Variable::Se3(_) => Se3::DIM,
            Variable::Vector(v) => v.len(),
        }
    }

    /// `true` when every stored component is finite (no NaN or infinity).
    pub fn is_finite(&self) -> bool {
        match self {
            Variable::Se2(p) => {
                let (c, s) = p.rotation().cos_sin();
                [c, s, p.x(), p.y()].iter().all(|x| x.is_finite())
            }
            Variable::Se3(p) => {
                let m = p.rotation().matrix();
                m.as_slice()
                    .iter()
                    .chain(&p.translation())
                    .all(|x| x.is_finite())
            }
            Variable::Vector(v) => v.iter().all(|x| x.is_finite()),
        }
    }

    /// Retraction `self ⊕ delta`.
    ///
    /// # Panics
    ///
    /// Panics if `delta.len() != self.dim()`.
    pub fn retract(&self, delta: &[f64]) -> Variable {
        match self {
            Variable::Se2(p) => Variable::Se2(p.retract(delta)),
            Variable::Se3(p) => Variable::Se3(p.retract(delta)),
            Variable::Vector(v) => {
                assert_eq!(delta.len(), v.len(), "vector tangent length mismatch");
                Variable::Vector(v.iter().zip(delta).map(|(a, b)| a + b).collect())
            }
        }
    }

    /// Local coordinates of `other` around `self`.
    ///
    /// # Panics
    ///
    /// Panics if the variants differ or dimensions mismatch.
    pub fn local(&self, other: &Variable) -> Vec<f64> {
        match (self, other) {
            (Variable::Se2(a), Variable::Se2(b)) => a.local(*b).to_vec(),
            (Variable::Se3(a), Variable::Se3(b)) => a.local(b).to_vec(),
            (Variable::Vector(a), Variable::Vector(b)) => {
                assert_eq!(a.len(), b.len(), "vector length mismatch");
                b.iter().zip(a).map(|(x, y)| x - y).collect()
            }
            _ => panic!("local() between different variable kinds"),
        }
    }

    /// Euclidean distance between the translation (or vector) parts — the
    /// quantity APE measures.
    pub fn translation_distance(&self, other: &Variable) -> f64 {
        match (self, other) {
            (Variable::Se2(a), Variable::Se2(b)) => a.translation_distance(b),
            (Variable::Se3(a), Variable::Se3(b)) => a.translation_distance(b),
            (Variable::Vector(a), Variable::Vector(b)) => a
                .iter()
                .zip(b)
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f64>()
                .sqrt(),
            _ => panic!("distance between different variable kinds"),
        }
    }

    /// The contained planar pose, if any.
    pub fn as_se2(&self) -> Option<&Se2> {
        match self {
            Variable::Se2(p) => Some(p),
            _ => None,
        }
    }

    /// The contained 3-D pose, if any.
    pub fn as_se3(&self) -> Option<&Se3> {
        match self {
            Variable::Se3(p) => Some(p),
            _ => None,
        }
    }
}

impl From<Se2> for Variable {
    fn from(p: Se2) -> Self {
        Variable::Se2(p)
    }
}

impl From<Se3> for Variable {
    fn from(p: Se3) -> Self {
        Variable::Se3(p)
    }
}

/// A dense map from [`Key`] to [`Variable`] — the state estimate `X` (or the
/// linearization point `Θ`) of the SLAM backend.
///
/// # Example
///
/// ```
/// use supernova_factors::{Se2, Values};
///
/// let mut values = Values::new();
/// let k = values.insert_se2(Se2::new(1.0, 2.0, 0.0));
/// assert_eq!(values.get(k).dim(), 3);
/// assert_eq!(values.len(), 1);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Values {
    vars: Vec<Variable>,
}

impl Values {
    /// Creates an empty container.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of variables.
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// `true` when no variables are stored.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// Inserts a variable, returning its key (insertion order).
    pub fn insert(&mut self, v: impl Into<Variable>) -> Key {
        self.vars.push(v.into());
        Key(self.vars.len() - 1)
    }

    /// Inserts a planar pose.
    pub fn insert_se2(&mut self, p: Se2) -> Key {
        self.insert(Variable::Se2(p))
    }

    /// Inserts a 3-D pose.
    pub fn insert_se3(&mut self, p: Se3) -> Key {
        self.insert(Variable::Se3(p))
    }

    /// The variable at `key`.
    ///
    /// # Panics
    ///
    /// Panics if the key is out of bounds.
    pub fn get(&self, key: Key) -> &Variable {
        &self.vars[key.0]
    }

    /// Replaces the variable at `key`.
    ///
    /// # Panics
    ///
    /// Panics if the key is out of bounds.
    pub fn set(&mut self, key: Key, v: Variable) {
        self.vars[key.0] = v;
    }

    /// Applies the retraction at `key`: `x ← x ⊕ delta`.
    pub fn retract_at(&mut self, key: Key, delta: &[f64]) {
        self.vars[key.0] = self.vars[key.0].retract(delta);
    }

    /// Retracts every variable by the corresponding slice of the stacked
    /// tangent vector `delta` (in key order).
    ///
    /// # Panics
    ///
    /// Panics if `delta.len()` is not the total tangent dimension.
    pub fn retract_all(&self, delta: &[f64]) -> Values {
        let mut off = 0usize;
        let vars = self
            .vars
            .iter()
            .map(|v| {
                let d = v.dim();
                let out = v.retract(&delta[off..off + d]);
                off += d;
                out
            })
            .collect();
        assert_eq!(off, delta.len(), "stacked tangent length mismatch");
        Values { vars }
    }

    /// Per-variable tangent dimensions in key order.
    pub fn dims(&self) -> Vec<usize> {
        self.vars.iter().map(Variable::dim).collect()
    }

    /// Total tangent dimension.
    pub fn total_dim(&self) -> usize {
        self.vars.iter().map(Variable::dim).sum()
    }

    /// Iterates `(key, variable)` in key order.
    pub fn iter(&self) -> impl Iterator<Item = (Key, &Variable)> {
        self.vars.iter().enumerate().map(|(i, v)| (Key(i), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut vals = Values::new();
        let a = vals.insert_se2(Se2::new(1.0, 2.0, 0.5));
        let b = vals.insert(Variable::Vector(vec![1.0, 2.0]));
        assert_eq!(a, Key(0));
        assert_eq!(b, Key(1));
        assert_eq!(vals.total_dim(), 5);
        assert_eq!(vals.dims(), vec![3, 2]);
        assert!(vals.get(a).as_se2().is_some());
        assert!(vals.get(a).as_se3().is_none());
    }

    #[test]
    fn retract_all_applies_slices() {
        let mut vals = Values::new();
        vals.insert_se2(Se2::identity());
        vals.insert(Variable::Vector(vec![1.0]));
        let out = vals.retract_all(&[0.5, 0.0, 0.0, 2.0]);
        assert!((out.get(Key(0)).as_se2().unwrap().x() - 0.5).abs() < 1e-12);
        assert_eq!(out.get(Key(1)), &Variable::Vector(vec![3.0]));
    }

    #[test]
    fn local_distance_consistency() {
        let a = Variable::Se2(Se2::new(0.0, 0.0, 0.0));
        let b = Variable::Se2(Se2::new(1.0, 0.0, 0.0));
        assert!((a.translation_distance(&b) - 1.0).abs() < 1e-12);
        let d = a.local(&b);
        assert!((d[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "different variable kinds")]
    fn local_between_kinds_panics() {
        let a = Variable::Se2(Se2::identity());
        let b = Variable::Vector(vec![0.0; 3]);
        let _ = a.local(&b);
    }
}
