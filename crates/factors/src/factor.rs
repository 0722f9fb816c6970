//! The factor abstraction and the built-in factor types.

use supernova_linalg::Mat;

use crate::{Key, NoiseModel, Values, Variable};

/// One measurement constraint `φ_i(X)` over a small set of variables
/// (Equation (1) of the paper).
///
/// Implementations provide the *raw* residual at given variable values; the
/// solver layer obtains whitened Jacobians through [`linearize`], which uses
/// central differences on the manifold retraction.
///
/// [`linearize`]: Factor::linearize
pub trait Factor: std::fmt::Debug + Send + Sync {
    /// The variables this factor constrains, in Jacobian-block order.
    fn keys(&self) -> &[Key];

    /// The concrete factor behind the trait object; checkpoint codecs
    /// downcast through this to serialize the factor kinds they know.
    fn as_any(&self) -> &dyn std::any::Any;

    /// The measurement noise model (also fixes the residual dimension).
    fn noise(&self) -> &NoiseModel;

    /// The raw (unwhitened) residual evaluated at `vars`, which correspond
    /// to [`keys`](Self::keys) in order.
    fn error(&self, vars: &[&Variable]) -> Vec<f64>;

    /// Linearizes this factor at `values`: whitened Jacobian blocks (one per
    /// key) and whitened residual. This is the block row `J_i` of §3.3.
    fn linearize(&self, values: &Values) -> LinearizedFactor
    where
        Self: Sized,
    {
        linearize(self, values)
    }

    /// The weighted squared error `‖Σ^{-1/2} φ_i‖²` at `values` (IRLS
    /// down-weighted when the noise model carries a robust kernel).
    fn weighted_error2(&self, values: &Values) -> f64 {
        let vars: Vec<&Variable> = self.keys().iter().map(|&k| values.get(k)).collect();
        let w = self.noise().whiten(&self.error(&vars));
        self.noise().robust_weight(&w) * w.iter().map(|x| x * x).sum::<f64>()
    }
}

/// A factor linearized at some linearization point: the whitened block row
/// of the Jacobian `J` and the whitened residual.
#[derive(Clone, Debug)]
pub struct LinearizedFactor {
    /// Constrained variables, matching `jacobians` in order.
    pub keys: Vec<Key>,
    /// Whitened Jacobian block per key (`dim × var_dim`).
    pub jacobians: Vec<Mat>,
    /// Whitened residual (length `dim`).
    pub residual: Vec<f64>,
}

impl LinearizedFactor {
    /// Residual dimension.
    pub fn dim(&self) -> usize {
        self.residual.len()
    }

    /// Total number of scalar Jacobian entries (the factor's "size" for
    /// prefetch metering).
    pub fn jacobian_elems(&self) -> usize {
        self.jacobians.iter().map(|j| j.rows() * j.cols()).sum()
    }
}

/// Linearizes `factor` at `values` by central differences on the retraction.
///
/// The property tests verify first-order agreement:
/// `e(x ⊕ δ) ≈ e(x) + J δ` with `O(‖δ‖²)` error.
pub fn linearize<F: Factor + ?Sized>(factor: &F, values: &Values) -> LinearizedFactor {
    const H: f64 = 1e-6;
    let keys = factor.keys().to_vec();
    let vars: Vec<Variable> = keys.iter().map(|&k| values.get(k).clone()).collect();
    let refs: Vec<&Variable> = vars.iter().collect();
    let r0 = factor.error(&refs);
    let dim = r0.len();
    debug_assert_eq!(
        dim,
        factor.noise().dim(),
        "residual/noise dimension mismatch"
    );

    let whitened0 = factor.noise().whiten(&r0);
    let robust = factor.noise().robust_weight(&whitened0).sqrt();
    let mut jacobians = Vec::with_capacity(keys.len());
    for (vi, var) in vars.iter().enumerate() {
        let vdim = var.dim();
        let mut j = Mat::zeros(dim, vdim);
        let mut delta = vec![0.0; vdim];
        for d in 0..vdim {
            delta[d] = H;
            let plus = var.retract(&delta);
            delta[d] = -H;
            let minus = var.retract(&delta);
            delta[d] = 0.0;

            let mut probe: Vec<&Variable> = vars.iter().collect();
            probe[vi] = &plus;
            let rp = factor.error(&probe);
            probe[vi] = &minus;
            let rm = factor.error(&probe);
            for row in 0..dim {
                j[(row, d)] = (rp[row] - rm[row]) / (2.0 * H);
            }
        }
        factor.noise().whiten_jacobian(&mut j);
        if robust != 1.0 {
            j.scale(robust);
        }
        jacobians.push(j);
    }
    let residual = whitened0.iter().map(|x| x * robust).collect();
    LinearizedFactor {
        keys,
        jacobians,
        residual,
    }
}

/// Anchors a variable to a known value — the gauge constraint of every SLAM
/// problem (and the marginalization device of the fixed-lag smoother).
#[derive(Clone, Debug)]
pub struct PriorFactor {
    keys: [Key; 1],
    prior: Variable,
    noise: NoiseModel,
}

impl PriorFactor {
    /// Prior on an arbitrary variable.
    ///
    /// # Panics
    ///
    /// Panics if the noise dimension differs from the variable dimension.
    pub fn new(key: Key, prior: impl Into<Variable>, noise: NoiseModel) -> Self {
        let prior = prior.into();
        assert_eq!(
            noise.dim(),
            prior.dim(),
            "noise/variable dimension mismatch"
        );
        PriorFactor {
            keys: [key],
            prior,
            noise,
        }
    }

    /// Prior on a planar pose.
    pub fn se2(key: Key, prior: crate::Se2, noise: NoiseModel) -> Self {
        Self::new(key, prior, noise)
    }

    /// Prior on a 3-D pose.
    pub fn se3(key: Key, prior: crate::Se3, noise: NoiseModel) -> Self {
        Self::new(key, prior, noise)
    }

    /// The anchored value.
    pub fn prior(&self) -> &Variable {
        &self.prior
    }
}

impl Factor for PriorFactor {
    fn keys(&self) -> &[Key] {
        &self.keys
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn noise(&self) -> &NoiseModel {
        &self.noise
    }

    fn error(&self, vars: &[&Variable]) -> Vec<f64> {
        self.prior.local(vars[0])
    }
}

/// A relative-pose (odometry or loop-closure) constraint between two
/// variables: `e = Log(Z⁻¹ · (X_a⁻¹ · X_b))`.
#[derive(Clone, Debug)]
pub struct BetweenFactor {
    keys: [Key; 2],
    measured: Variable,
    noise: NoiseModel,
}

impl BetweenFactor {
    /// Relative constraint between two variables of the same kind.
    ///
    /// # Panics
    ///
    /// Panics if the noise dimension differs from the measurement dimension.
    pub fn new(a: Key, b: Key, measured: impl Into<Variable>, noise: NoiseModel) -> Self {
        let measured = measured.into();
        assert_eq!(
            noise.dim(),
            measured.dim(),
            "noise/measurement dimension mismatch"
        );
        BetweenFactor {
            keys: [a, b],
            measured,
            noise,
        }
    }

    /// Relative planar-pose constraint.
    pub fn se2(a: Key, b: Key, measured: crate::Se2, noise: NoiseModel) -> Self {
        Self::new(a, b, measured, noise)
    }

    /// Relative 3-D-pose constraint.
    pub fn se3(a: Key, b: Key, measured: crate::Se3, noise: NoiseModel) -> Self {
        Self::new(a, b, measured, noise)
    }

    /// The measured relative transform.
    pub fn measured(&self) -> &Variable {
        &self.measured
    }
}

impl Factor for BetweenFactor {
    fn keys(&self) -> &[Key] {
        &self.keys
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn noise(&self) -> &NoiseModel {
        &self.noise
    }

    fn error(&self, vars: &[&Variable]) -> Vec<f64> {
        match (vars[0], vars[1], &self.measured) {
            (Variable::Se2(a), Variable::Se2(b), Variable::Se2(z)) => {
                z.local(a.inverse().compose(*b)).to_vec()
            }
            (Variable::Se3(a), Variable::Se3(b), Variable::Se3(z)) => {
                z.local(&a.inverse().compose(b)).to_vec()
            }
            (Variable::Vector(a), Variable::Vector(b), Variable::Vector(z)) => a
                .iter()
                .zip(b)
                .zip(z)
                .map(|((x, y), m)| (y - x) - m)
                .collect(),
            _ => panic!("between factor over mismatched variable kinds"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Se2, Se3};

    #[test]
    fn prior_zero_error_at_prior() {
        let mut vals = Values::new();
        let k = vals.insert_se2(Se2::new(1.0, 2.0, 0.3));
        let f = PriorFactor::se2(k, Se2::new(1.0, 2.0, 0.3), NoiseModel::isotropic(3, 0.1));
        assert!(f.weighted_error2(&vals) < 1e-18);
    }

    #[test]
    fn between_zero_error_at_measurement() {
        let mut vals = Values::new();
        let a = vals.insert_se2(Se2::new(0.0, 0.0, 0.0));
        let b = vals.insert_se2(Se2::new(1.0, 0.0, 0.1));
        let f = BetweenFactor::se2(a, b, Se2::new(1.0, 0.0, 0.1), NoiseModel::isotropic(3, 0.1));
        assert!(f.weighted_error2(&vals) < 1e-16);
    }

    #[test]
    fn between_error_grows_with_mismatch() {
        let mut vals = Values::new();
        let a = vals.insert_se2(Se2::identity());
        let b = vals.insert_se2(Se2::new(2.0, 0.0, 0.0));
        let f = BetweenFactor::se2(a, b, Se2::new(1.0, 0.0, 0.0), NoiseModel::isotropic(3, 1.0));
        let e2 = f.weighted_error2(&vals);
        assert!((e2 - 1.0).abs() < 1e-9, "expected 1.0, got {e2}");
    }

    #[test]
    fn linearize_shapes() {
        let mut vals = Values::new();
        let a = vals.insert_se3(Se3::identity());
        let b = vals.insert_se3(Se3::from_parts([1.0, 0.0, 0.0], crate::Rot3::identity()));
        let f = BetweenFactor::se3(
            a,
            b,
            Se3::from_parts([1.0, 0.0, 0.0], crate::Rot3::identity()),
            NoiseModel::isotropic(6, 0.1),
        );
        let lin = f.linearize(&vals);
        assert_eq!(lin.keys, vec![a, b]);
        assert_eq!(lin.dim(), 6);
        assert_eq!(lin.jacobians[0].rows(), 6);
        assert_eq!(lin.jacobians[0].cols(), 6);
        assert_eq!(lin.jacobian_elems(), 72);
    }

    #[test]
    fn jacobian_first_order_accuracy_se2() {
        // e(x ⊕ δ) ≈ e(x) + J δ for small δ.
        let mut vals = Values::new();
        let a = vals.insert_se2(Se2::new(0.3, -0.2, 0.4));
        let b = vals.insert_se2(Se2::new(1.2, 0.5, 0.9));
        let f = BetweenFactor::se2(a, b, Se2::new(1.0, 0.0, 0.3), NoiseModel::isotropic(3, 1.0));
        let lin = f.linearize(&vals);

        let delta = [1e-4, -2e-4, 1.5e-4];
        let mut vals2 = vals.clone();
        vals2.retract_at(b, &delta);
        let vars2: Vec<&Variable> = f.keys().iter().map(|&k| vals2.get(k)).collect();
        let e2 = f.noise().whiten(&f.error(&vars2));

        let predicted: Vec<f64> = {
            let jd = lin.jacobians[1].matvec(&delta);
            lin.residual.iter().zip(jd).map(|(r, d)| r + d).collect()
        };
        for (got, want) in e2.iter().zip(&predicted) {
            assert!((got - want).abs() < 1e-7, "{got} vs {want}");
        }
    }

    #[test]
    fn vector_between() {
        let mut vals = Values::new();
        let a = vals.insert(Variable::Vector(vec![1.0, 1.0]));
        let b = vals.insert(Variable::Vector(vec![3.0, 0.0]));
        let f = BetweenFactor::new(
            a,
            b,
            Variable::Vector(vec![2.0, -1.0]),
            NoiseModel::isotropic(2, 1.0),
        );
        assert!(f.weighted_error2(&vals) < 1e-18);
    }
}
