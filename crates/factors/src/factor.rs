//! The closed set of factor kinds and their linearization.

use std::sync::OnceLock;

use supernova_linalg::Mat;

use crate::{
    Key, NoiseModel, PointObservationFactor, RangeBearingFactor, Se2, Se3, Values, Variable,
};

/// One measurement constraint `φ_i(X)` over a small set of variables
/// (Equation (1) of the paper): a pose prior, a relative pose, or a
/// landmark observation. The set is closed, so a checkpoint codec or a
/// per-kind Jacobian is one exhaustive `match`.
///
/// Each kind provides the *raw* residual at given variable values; the
/// solver layer obtains whitened Jacobians through [`linearize`], which uses
/// central differences on the manifold retraction. `From<Kind>` lets every
/// `impl Into<Factor>` parameter take a kind directly.
#[derive(Clone, Debug, PartialEq)]
pub enum Factor {
    /// A prior anchoring one variable.
    Prior(PriorFactor),
    /// A relative constraint between two variables of the same kind.
    Between(BetweenFactor),
    /// A planar range-bearing landmark observation.
    RangeBearing(RangeBearingFactor),
    /// A 3-D point-landmark observation in the body frame.
    PointObservation(PointObservationFactor),
}

impl Factor {
    /// The variables this factor constrains, in Jacobian-block order.
    pub fn keys(&self) -> &[Key] {
        match self {
            Factor::Prior(f) => &f.keys,
            Factor::Between(f) => &f.keys,
            Factor::RangeBearing(f) => &f.keys,
            Factor::PointObservation(f) => &f.keys,
        }
    }

    /// The measurement noise model (also fixes the residual dimension).
    pub fn noise(&self) -> &NoiseModel {
        match self {
            Factor::Prior(f) => &f.noise,
            Factor::Between(f) => &f.noise,
            Factor::RangeBearing(f) => &f.noise,
            Factor::PointObservation(f) => &f.noise,
        }
    }

    /// Writes the raw (unwhitened) residual evaluated at `vars`, which
    /// correspond to [`keys`](Self::keys) in order, into `out` (length
    /// `noise().dim()`).
    pub fn error_into(&self, vars: &[&Variable], out: &mut [f64]) {
        match self {
            Factor::Prior(f) => f.error_into(vars, out),
            Factor::Between(f) => f.error_into(vars, out),
            Factor::RangeBearing(f) => f.error_into(vars, out),
            Factor::PointObservation(f) => f.error_into(vars, out),
        }
    }

    /// Whether [`error_into`](Self::error_into) accepts `var` at key
    /// position `slot`: the measurement's kind and dimension for a prior
    /// or between, `(Se2, 2-vector)` for a range-bearing observation and
    /// `(Se3, 3-vector)` for a point observation. Any other variable
    /// panics the residual.
    pub fn fits(&self, slot: usize, var: &Variable) -> bool {
        let like = |m: &Variable| {
            std::mem::discriminant(m) == std::mem::discriminant(var) && m.dim() == var.dim()
        };
        match (self, slot, var) {
            (Factor::Prior(f), ..) => like(f.prior()),
            (Factor::Between(f), ..) => like(f.measured()),
            (Factor::RangeBearing(_), 0, Variable::Se2(_))
            | (Factor::PointObservation(_), 0, Variable::Se3(_)) => true,
            (Factor::RangeBearing(_), 1, Variable::Vector(l)) => l.len() == 2,
            (Factor::PointObservation(_), 1, Variable::Vector(l)) => l.len() == 3,
            _ => false,
        }
    }

    /// Linearizes this factor at `values`: whitened Jacobian blocks (one per
    /// key) and whitened residual. This is the block row `J_i` of §3.3.
    pub fn linearize(&self, values: &Values) -> LinearizedFactor {
        linearize(self, values)
    }

    /// The weighted squared error `‖Σ^{-1/2} φ_i‖²` at `values` (IRLS
    /// down-weighted when the noise model carries a robust kernel).
    pub fn weighted_error2(&self, values: &Values) -> f64 {
        let vars: Vec<&Variable> = self.keys().iter().map(|&k| values.get(k)).collect();
        let mut r = vec![0.0; self.noise().dim()];
        self.error_into(&vars, &mut r);
        let w = self.noise().whiten(&r);
        self.noise().robust_weight(&w) * w.iter().map(|x| x * x).sum::<f64>()
    }

    /// This factor over renamed variables: every key passed through `map`.
    /// A residual never reads its keys, so the renamed factor evaluates
    /// bit for bit as the original at the same variable values.
    pub fn map_keys(mut self, map: impl Fn(Key) -> Key) -> Self {
        let keys: &mut [Key] = match &mut self {
            Factor::Prior(f) => &mut f.keys,
            Factor::Between(f) => &mut f.keys,
            Factor::RangeBearing(f) => &mut f.keys,
            Factor::PointObservation(f) => &mut f.keys,
        };
        for k in keys {
            *k = map(*k);
        }
        self
    }
}

impl From<PriorFactor> for Factor {
    fn from(f: PriorFactor) -> Self {
        Factor::Prior(f)
    }
}

impl From<BetweenFactor> for Factor {
    fn from(f: BetweenFactor) -> Self {
        Factor::Between(f)
    }
}

impl From<RangeBearingFactor> for Factor {
    fn from(f: RangeBearingFactor) -> Self {
        Factor::RangeBearing(f)
    }
}

impl From<PointObservationFactor> for Factor {
    fn from(f: PointObservationFactor) -> Self {
        Factor::PointObservation(f)
    }
}

/// A factor linearized at some linearization point: the whitened block row
/// of the Jacobian `J` and the whitened residual.
#[derive(Clone, Debug, Default)]
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

/// The central-difference step of [`linearize`].
const H: f64 = 1e-6;

/// The two probe steps per tangent direction: `+H`, then `−H`.
const STEPS: [f64; 2] = [H, -H];

/// The most keys any factor kind has: [`linearize_into`] lists the
/// variables of every factor on the stack.
const MAX_KEYS: usize = 2;

/// Residual dimension whose probe residuals [`linearize_into`] keeps on the
/// stack (every pose or landmark factor's is at most 6; a prior or between
/// over a longer vector probes on the heap).
const STACK_DIM: usize = 8;

/// `Exp(±H·e_d)` for each of a pose type's `N` tangent directions: entry
/// `[d][s]` is `exp` of the vector holding `STEPS[s]` in slot `d` and
/// `0.0` elsewhere — the δ the retraction of a probe is built from — so
/// `p.compose(table[d][s])` is `p.retract(δ)` bit for bit.
fn probe_table<T, const N: usize>(exp: fn(&[f64]) -> T) -> [[T; 2]; N] {
    std::array::from_fn(|d| {
        STEPS.map(|h| {
            let mut delta = [0.0; N];
            delta[d] = h;
            exp(&delta)
        })
    })
}

fn se2_probes() -> &'static [[Se2; 2]; 3] {
    static TABLE: OnceLock<[[Se2; 2]; 3]> = OnceLock::new();
    TABLE.get_or_init(|| probe_table(Se2::exp))
}

fn se3_probes() -> &'static [[Se3; 2]; 6] {
    static TABLE: OnceLock<[[Se3; 2]; 6]> = OnceLock::new();
    TABLE.get_or_init(|| probe_table(Se3::exp))
}

/// The probe `var ⊕ (STEPS[s]·e_d)`. A pose is one `compose` with its
/// tabled `Exp`, on the stack; a vector is `retract`'s elementwise
/// `x + δ_i`, including the `+ 0.0` off slot `d`, in a fresh `Vec`.
fn probe(var: &Variable, d: usize, s: usize) -> Variable {
    match var {
        Variable::Se2(p) => Variable::Se2(p.compose(se2_probes()[d][s])),
        Variable::Se3(p) => Variable::Se3(p.compose(&se3_probes()[d][s])),
        // Allocates once per probe: a landmark has 2 or 3 entries.
        Variable::Vector(v) => Variable::Vector(
            v.iter()
                .enumerate()
                .map(|(i, x)| x + if i == d { STEPS[s] } else { 0.0 })
                .collect(),
        ),
    }
}

/// Fills the unused tail of a stack variable list; never read.
static UNUSED: Variable = Variable::Vector(Vec::new());

/// Linearizes `factor` at `values` by central differences on the retraction.
///
/// The property tests verify first-order agreement:
/// `e(x ⊕ δ) ≈ e(x) + J δ` with `O(‖δ‖²)` error.
pub fn linearize(factor: &Factor, values: &Values) -> LinearizedFactor {
    let mut out = LinearizedFactor::default();
    linearize_into(factor, values, &mut out);
    out
}

/// [`linearize`] into `out`, reusing its key, Jacobian and residual
/// buffers. Pose probes come from the tabled `Exp(±H·e_d)` and the probe
/// residuals live on the stack, so a factor over poses only allocates
/// nothing once `out` has its shape; each probe of a vector variable is a
/// fresh `Vec`. Every bit equals a per-probe `retract` and a fresh
/// residual `Vec`.
pub fn linearize_into(factor: &Factor, values: &Values, out: &mut LinearizedFactor) {
    let keys = factor.keys();
    let noise = factor.noise();
    let dim = noise.dim();
    let mut stack_vars = [&UNUSED; MAX_KEYS];
    for (slot, &k) in stack_vars.iter_mut().zip(keys) {
        *slot = values.get(k);
    }
    let vars = &stack_vars[..keys.len()];

    // r0, whitened in place (`Σ^{-1/2} r`, as `NoiseModel::whiten` does).
    out.keys.clear();
    out.keys.extend_from_slice(keys);
    out.residual.clear();
    out.residual.resize(dim, 0.0);
    factor.error_into(vars, &mut out.residual);
    for (x, w) in out.residual.iter_mut().zip(noise.sqrt_info()) {
        *x *= w;
    }
    let robust = noise.robust_weight(&out.residual).sqrt();

    let mut stack_probes = [0.0; 2 * STACK_DIM];
    // lint: allow(hot-alloc) — empty; grows only past STACK_DIM (a vector over 8 long)
    let mut heap_probes = Vec::new();
    let (rp, rm) = if dim <= STACK_DIM {
        stack_probes[..2 * dim].split_at_mut(dim)
    } else {
        heap_probes.resize(2 * dim, 0.0);
        heap_probes.split_at_mut(dim)
    };
    out.jacobians.resize_with(vars.len(), Mat::default);
    for (vi, (&var, j)) in vars.iter().zip(&mut out.jacobians).enumerate() {
        j.reset(dim, var.dim());
        for d in 0..var.dim() {
            error_at_probe(factor, vars, vi, &probe(var, d, 0), rp);
            error_at_probe(factor, vars, vi, &probe(var, d, 1), rm);
            for (x, (p, m)) in j.col_mut(d).iter_mut().zip(rp.iter().zip(rm.iter())) {
                *x = (p - m) / (2.0 * H);
            }
        }
        noise.whiten_jacobian(j);
        if robust != 1.0 {
            j.scale(robust);
        }
    }
    for x in &mut out.residual {
        *x *= robust;
    }
}

/// Writes the raw residual of `factor` with slot `vi` of `vars` replaced by
/// `probe` into `out`, listing the variables on the stack.
fn error_at_probe(
    factor: &Factor,
    vars: &[&Variable],
    vi: usize,
    probe: &Variable,
    out: &mut [f64],
) {
    let mut list = [probe; MAX_KEYS];
    list[..vars.len()].copy_from_slice(vars);
    list[vi] = probe;
    factor.error_into(&list[..vars.len()], out);
}

/// The group inverse of a pose measurement, computed once at construction
/// so a residual starts from it instead of re-inverting per evaluation.
/// Vectors carry none: their residual is a plain difference.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Inverse {
    Se2(Se2),
    Se3(Se3),
    Vector,
}

impl Inverse {
    fn of(v: &Variable) -> Self {
        match v {
            Variable::Se2(p) => Inverse::Se2(p.inverse()),
            Variable::Se3(p) => Inverse::Se3(p.inverse()),
            Variable::Vector(_) => Inverse::Vector,
        }
    }
}

/// Anchors a variable to a known value — the gauge constraint of every SLAM
/// problem (and the marginalization device of the fixed-lag smoother).
#[derive(Clone, Debug, PartialEq)]
pub struct PriorFactor {
    keys: [Key; 1],
    prior: Variable,
    prior_inv: Inverse,
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
            prior_inv: Inverse::of(&prior),
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

    /// `Log(prior⁻¹ · x)` — `prior.local(x)` with the inverse stored.
    fn error_into(&self, vars: &[&Variable], out: &mut [f64]) {
        match (vars[0], &self.prior_inv, &self.prior) {
            (Variable::Se2(x), Inverse::Se2(pi), _) => out.copy_from_slice(&pi.compose(*x).log()),
            (Variable::Se3(x), Inverse::Se3(pi), _) => out.copy_from_slice(&pi.compose(x).log()),
            (Variable::Vector(x), Inverse::Vector, Variable::Vector(p)) => {
                assert_eq!(x.len(), p.len(), "vector length mismatch");
                for (o, (a, b)) in out.iter_mut().zip(x.iter().zip(p)) {
                    *o = a - b;
                }
            }
            _ => panic!("prior factor over a different variable kind"),
        }
    }
}

/// A relative-pose (odometry or loop-closure) constraint between two
/// variables: `e = Log(Z⁻¹ · (X_a⁻¹ · X_b))`.
#[derive(Clone, Debug, PartialEq)]
pub struct BetweenFactor {
    keys: [Key; 2],
    measured: Variable,
    measured_inv: Inverse,
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
            measured_inv: Inverse::of(&measured),
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

    /// `Z⁻¹ · (X_a⁻¹ · X_b)`, then `Log` — the operation sequence of
    /// `Z.local(X_a⁻¹ · X_b)`, with `Z⁻¹` stored.
    fn error_into(&self, vars: &[&Variable], out: &mut [f64]) {
        match (vars[0], vars[1], &self.measured_inv, &self.measured) {
            (Variable::Se2(a), Variable::Se2(b), Inverse::Se2(zi), _) => {
                out.copy_from_slice(&zi.compose(a.inverse().compose(*b)).log());
            }
            (Variable::Se3(a), Variable::Se3(b), Inverse::Se3(zi), _) => {
                out.copy_from_slice(&zi.compose(&a.inverse().compose(b)).log());
            }
            (Variable::Vector(a), Variable::Vector(b), Inverse::Vector, Variable::Vector(z)) => {
                for (o, ((x, y), m)) in out.iter_mut().zip(a.iter().zip(b).zip(z)) {
                    *o = (y - x) - m;
                }
            }
            _ => panic!("between factor over mismatched variable kinds"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use supernova_linalg::rng::XorShift64;

    /// The raw residual of `f` at `vars` as a fresh `Vec`.
    fn error_vec(f: &Factor, vars: &[&Variable]) -> Vec<f64> {
        let mut out = vec![0.0; f.noise().dim()];
        f.error_into(vars, &mut out);
        out
    }

    #[test]
    fn fits_accepts_only_what_the_residual_evaluates() {
        let n = |d| NoiseModel::isotropic(d, 0.1);
        let (a, b) = (Key(0), Key(1));
        let vars = [
            Variable::Se2(Se2::identity()),
            Variable::Se3(Se3::identity()),
            Variable::Vector(vec![1.0, 2.0]),
            Variable::Vector(vec![1.0, 2.0, 3.0]),
        ];
        // Per factor and key slot: the index in `vars` it fits.
        let cases: [(Factor, &[usize]); 4] = [
            (PriorFactor::se2(a, Se2::identity(), n(3)).into(), &[0]),
            (
                BetweenFactor::new(a, b, Variable::Vector(vec![0.5, 0.5]), n(2)).into(),
                &[2, 2],
            ),
            (
                RangeBearingFactor::new(a, b, 1.0, 0.0, n(2)).into(),
                &[0, 2],
            ),
            (
                PointObservationFactor::new(a, b, [1.0; 3], n(3)).into(),
                &[1, 3],
            ),
        ];
        for (f, fitting) in &cases {
            for (slot, &want) in fitting.iter().enumerate() {
                for (i, var) in vars.iter().enumerate() {
                    assert_eq!(f.fits(slot, var), i == want, "{f:?} slot {slot} {var:?}");
                }
            }
            let args: Vec<&Variable> = fitting.iter().map(|&i| &vars[i]).collect();
            assert!(error_vec(f, &args).iter().all(|x| x.is_finite()));
        }
    }

    #[test]
    fn prior_zero_error_at_prior() {
        let mut vals = Values::new();
        let k = vals.insert_se2(Se2::new(1.0, 2.0, 0.3));
        let f = Factor::from(PriorFactor::se2(
            k,
            Se2::new(1.0, 2.0, 0.3),
            NoiseModel::isotropic(3, 0.1),
        ));
        assert!(f.weighted_error2(&vals) < 1e-18);
    }

    #[test]
    fn between_zero_error_at_measurement() {
        let mut vals = Values::new();
        let a = vals.insert_se2(Se2::new(0.0, 0.0, 0.0));
        let b = vals.insert_se2(Se2::new(1.0, 0.0, 0.1));
        let f = Factor::from(BetweenFactor::se2(
            a,
            b,
            Se2::new(1.0, 0.0, 0.1),
            NoiseModel::isotropic(3, 0.1),
        ));
        assert!(f.weighted_error2(&vals) < 1e-16);
    }

    #[test]
    fn between_error_grows_with_mismatch() {
        let mut vals = Values::new();
        let a = vals.insert_se2(Se2::identity());
        let b = vals.insert_se2(Se2::new(2.0, 0.0, 0.0));
        let f = Factor::from(BetweenFactor::se2(
            a,
            b,
            Se2::new(1.0, 0.0, 0.0),
            NoiseModel::isotropic(3, 1.0),
        ));
        let e2 = f.weighted_error2(&vals);
        assert!((e2 - 1.0).abs() < 1e-9, "expected 1.0, got {e2}");
    }

    #[test]
    fn linearize_shapes() {
        let mut vals = Values::new();
        let a = vals.insert_se3(Se3::identity());
        let b = vals.insert_se3(Se3::from_parts([1.0, 0.0, 0.0], crate::Rot3::identity()));
        let f = Factor::from(BetweenFactor::se3(
            a,
            b,
            Se3::from_parts([1.0, 0.0, 0.0], crate::Rot3::identity()),
            NoiseModel::isotropic(6, 0.1),
        ));
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
        let f = Factor::from(BetweenFactor::se2(
            a,
            b,
            Se2::new(1.0, 0.0, 0.3),
            NoiseModel::isotropic(3, 1.0),
        ));
        let lin = f.linearize(&vals);

        let delta = [1e-4, -2e-4, 1.5e-4];
        let mut vals2 = vals.clone();
        vals2.retract_at(b, &delta);
        let vars2: Vec<&Variable> = f.keys().iter().map(|&k| vals2.get(k)).collect();
        let e2 = f.noise().whiten(&error_vec(&f, &vars2));

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
        let f = Factor::from(BetweenFactor::new(
            a,
            b,
            Variable::Vector(vec![2.0, -1.0]),
            NoiseModel::isotropic(2, 1.0),
        ));
        assert!(f.weighted_error2(&vals) < 1e-18);
    }

    /// The linearization `linearize_into` replaced, kept as its bit oracle:
    /// one `retract` per probe and a fresh residual `Vec` per evaluation,
    /// with the residual computed by [`oracle_error`].
    fn oracle_linearize(factor: &Factor, values: &Values) -> LinearizedFactor {
        let keys = factor.keys().to_vec();
        let vars: Vec<&Variable> = keys.iter().map(|&k| values.get(k)).collect();
        let r0 = oracle_error(factor, &vars);
        let dim = r0.len();
        let whitened0 = factor.noise().whiten(&r0);
        let robust = factor.noise().robust_weight(&whitened0).sqrt();
        let mut jacobians = Vec::with_capacity(keys.len());
        let mut delta = vec![0.0; vars.iter().map(|v| v.dim()).max().unwrap_or(0)];
        for (vi, &var) in vars.iter().enumerate() {
            let vdim = var.dim();
            let delta = &mut delta[..vdim];
            let mut j = Mat::zeros(dim, vdim);
            for d in 0..vdim {
                delta[d] = H;
                let plus = var.retract(delta);
                delta[d] = -H;
                let minus = var.retract(delta);
                delta[d] = 0.0;
                let mut list: Vec<&Variable> = vars.clone();
                list[vi] = &plus;
                let rp = oracle_error(factor, &list);
                list[vi] = &minus;
                let rm = oracle_error(factor, &list);
                for (x, (p, m)) in j.col_mut(d).iter_mut().zip(rp.iter().zip(&rm)) {
                    *x = (p - m) / (2.0 * H);
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

    /// The between and prior residuals as they were computed before the
    /// measurement inverse was stored (`Z.local(·)`, inverting `Z` on every
    /// evaluation); any other residual (vector betweens included) as the
    /// factor computes it.
    fn oracle_error(factor: &Factor, vars: &[&Variable]) -> Vec<f64> {
        match factor {
            Factor::Between(f) => match (vars[0], vars[1], f.measured()) {
                (Variable::Se2(a), Variable::Se2(b), Variable::Se2(z)) => {
                    z.local(a.inverse().compose(*b)).to_vec()
                }
                (Variable::Se3(a), Variable::Se3(b), Variable::Se3(z)) => {
                    z.local(&a.inverse().compose(b)).to_vec()
                }
                _ => error_vec(factor, vars),
            },
            Factor::Prior(f) => f.prior().local(vars[0]),
            _ => error_vec(factor, vars),
        }
    }

    /// A scalar that is often an exact `0.0` or `-0.0`.
    fn scalar(rng: &mut XorShift64) -> f64 {
        match rng.gen_index(4) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen_range(-5.0, 5.0),
        }
    }

    /// An angle of a random shape: generic, tiny (the `θ < 1e-9`
    /// branches), within 1e-6 of ±π, `0.0` or `-0.0`.
    fn angle(rng: &mut XorShift64) -> f64 {
        let pi = std::f64::consts::PI;
        match rng.gen_index(5) {
            0 => rng.gen_range(-3.0, 3.0),
            1 => rng.gen_range(-1.0, 1.0) * 1e-11,
            2 => {
                let near = pi - rng.gen_range(0.0, 1e-6);
                if rng.gen_bool(0.5) {
                    near
                } else {
                    -near
                }
            }
            3 => 0.0,
            _ => -0.0,
        }
    }

    fn se2(rng: &mut XorShift64) -> Se2 {
        Se2::new(scalar(rng), scalar(rng), angle(rng))
    }

    /// A rotation vector of length [`angle`] about a random axis whose
    /// components are often `±0.0`.
    fn rotvec(rng: &mut XorShift64) -> [f64; 3] {
        let mut axis = [scalar(rng), scalar(rng), scalar(rng)];
        if axis.iter().all(|&x| x == 0.0) {
            axis[rng.gen_index(3)] = 1.0;
        }
        let n = axis.iter().map(|x| x * x).sum::<f64>().sqrt();
        let theta = angle(rng);
        axis.map(|x| x / n * theta)
    }

    fn se3(rng: &mut XorShift64) -> Se3 {
        let t = [scalar(rng), scalar(rng), scalar(rng)];
        Se3::from_parts(t, crate::Rot3::exp(&rotvec(rng)))
    }

    /// Diagonal noise of dimension `dim`, with a Huber kernel (often tight
    /// enough to down-weight) a third of the time.
    fn noise(rng: &mut XorShift64, dim: usize) -> NoiseModel {
        let sigmas: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.05, 2.0)).collect();
        let n = NoiseModel::from_sigmas(&sigmas);
        if rng.gen_bool(0.33) {
            n.with_huber(rng.gen_range(0.01, 2.0))
        } else {
            n
        }
    }

    /// One sweep case: values plus a factor of the kind `case` cycles
    /// through, measurements drawn exactly at, near, π away from, or
    /// unrelated to the variables' relative pose.
    fn sweep_case(rng: &mut XorShift64, case: usize) -> (Values, Factor) {
        let mut vals = Values::new();
        let factor: Factor = match case % 7 {
            0 => {
                let (a, b) = (se2(rng), se2(rng));
                let rel = a.inverse().compose(b);
                let z = match rng.gen_index(3) {
                    0 => rel,
                    1 => rel.compose(se2(rng)),
                    _ => se2(rng),
                };
                let (ka, kb) = (vals.insert_se2(a), vals.insert_se2(b));
                BetweenFactor::se2(ka, kb, z, noise(rng, 3)).into()
            }
            1 => {
                let (a, b) = (se3(rng), se3(rng));
                let rel = a.inverse().compose(&b);
                let z = match rng.gen_index(3) {
                    0 => rel,
                    1 => rel.compose(&se3(rng)),
                    _ => se3(rng),
                };
                let (ka, kb) = (vals.insert_se3(a), vals.insert_se3(b));
                BetweenFactor::se3(ka, kb, z, noise(rng, 6)).into()
            }
            2 => {
                let x = se2(rng);
                let p = if rng.gen_bool(0.5) { x } else { se2(rng) };
                let k = vals.insert_se2(x);
                PriorFactor::se2(k, p, noise(rng, 3)).into()
            }
            3 => {
                let x = se3(rng);
                let p = if rng.gen_bool(0.5) {
                    x.compose(&se3(rng))
                } else {
                    se3(rng)
                };
                let k = vals.insert_se3(x);
                PriorFactor::se3(k, p, noise(rng, 6)).into()
            }
            4 => {
                let pose = vals.insert_se2(se2(rng));
                let lm = vals.insert(Variable::Vector(vec![scalar(rng), scalar(rng)]));
                let range = rng.gen_range(0.1, 6.0);
                RangeBearingFactor::new(pose, lm, range, angle(rng), noise(rng, 2)).into()
            }
            5 => {
                let pose = vals.insert_se3(se3(rng));
                let lm = vals.insert(Variable::Vector(vec![
                    scalar(rng),
                    scalar(rng),
                    scalar(rng),
                ]));
                let z = [scalar(rng), scalar(rng), scalar(rng)];
                PointObservationFactor::new(pose, lm, z, noise(rng, 3)).into()
            }
            _ => {
                // Nine-vectors: a residual wider than STACK_DIM, so
                // `linearize_into` keeps its probe residuals on the heap.
                let mut vec9 = || Variable::Vector((0..9).map(|_| scalar(rng)).collect());
                let (a, b, z) = (vec9(), vec9(), vec9());
                let (ka, kb) = (vals.insert(a), vals.insert(b));
                BetweenFactor::new(ka, kb, z, noise(rng, 9)).into()
            }
        };
        (vals, factor)
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    fn assert_same_bits(got: &LinearizedFactor, want: &LinearizedFactor, what: &str) {
        assert_eq!(got.keys, want.keys, "{what}");
        assert_eq!(bits(&got.residual), bits(&want.residual), "residual {what}");
        assert_eq!(got.jacobians.len(), want.jacobians.len(), "{what}");
        for (g, w) in got.jacobians.iter().zip(&want.jacobians) {
            assert_eq!((g.rows(), g.cols()), (w.rows(), w.cols()), "{what}");
            assert_eq!(bits(g.as_slice()), bits(w.as_slice()), "jacobian {what}");
        }
    }

    #[test]
    fn linearize_matches_the_retract_and_vec_oracle_bit_for_bit() {
        let mut rng = XorShift64::seed_from_u64(0x11ea_5eed);
        // One buffer reused across every shape: `linearize_into` must not
        // leak a previous factor's keys, blocks or residual.
        let mut reused = LinearizedFactor::default();
        let (mut robust, mut wide) = (0usize, 0usize);
        for case in 0..2400 {
            let (vals, f) = sweep_case(&mut rng, case);
            let want = oracle_linearize(&f, &vals);
            let what = format!("case {case}: {f:?} at {vals:?}");
            assert_same_bits(&linearize(&f, &vals), &want, &what);
            linearize_into(&f, &vals, &mut reused);
            assert_same_bits(&reused, &want, &what);
            let w = f.noise().whiten(&oracle_error(&f, &{
                let vars: Vec<&Variable> = f.keys().iter().map(|&k| vals.get(k)).collect();
                vars
            }));
            robust += usize::from(f.noise().robust_weight(&w) != 1.0);
            wide += usize::from(f.noise().dim() > STACK_DIM);
        }
        assert!(robust > 100, "only {robust} cases down-weighted");
        assert!(wide > 100, "only {wide} cases wider than STACK_DIM");
    }
}
