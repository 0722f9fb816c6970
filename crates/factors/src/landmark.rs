//! Landmark observation factors.
//!
//! §3.1 of the paper defines variables as "a pose or a landmark"; these
//! factors provide the landmark side: planar range-bearing observations
//! (the classic 2-D landmark SLAM measurement) and 3-D point observations
//! in the body frame.

use crate::{Key, NoiseModel, Variable};

/// Wraps an angle to `(-π, π]`.
fn wrap_angle(a: f64) -> f64 {
    let mut a = a % (2.0 * std::f64::consts::PI);
    if a > std::f64::consts::PI {
        a -= 2.0 * std::f64::consts::PI;
    } else if a <= -std::f64::consts::PI {
        a += 2.0 * std::f64::consts::PI;
    }
    a
}

/// A planar range-bearing observation of a 2-D point landmark from an SE(2)
/// pose: residual `[range − r̂, wrap(bearing − θ̂)]`.
///
/// The landmark is a [`Variable::Vector`] of length 2.
///
/// # Example
///
/// ```
/// use supernova_factors::{FactorGraph, NoiseModel, RangeBearingFactor, Se2, Values, Variable};
///
/// let mut values = Values::new();
/// let pose = values.insert_se2(Se2::identity());
/// let lm = values.insert(Variable::Vector(vec![2.0, 0.0]));
/// let mut graph = FactorGraph::new();
/// graph.add(RangeBearingFactor::new(pose, lm, 2.0, 0.0, NoiseModel::from_sigmas(&[0.1, 0.01])));
/// assert!(graph.total_error2(&values) < 1e-18);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct RangeBearingFactor {
    pub(crate) keys: [Key; 2],
    range: f64,
    bearing: f64,
    pub(crate) noise: NoiseModel,
}

impl RangeBearingFactor {
    /// Observation of landmark `lm` from `pose`: measured `range` (meters)
    /// and `bearing` (radians, in the pose frame).
    ///
    /// # Panics
    ///
    /// Panics if the noise model is not 2-dimensional or the range is not
    /// positive.
    pub fn new(pose: Key, lm: Key, range: f64, bearing: f64, noise: NoiseModel) -> Self {
        assert_eq!(noise.dim(), 2, "range-bearing noise must be 2-D");
        assert!(range > 0.0, "range must be positive");
        RangeBearingFactor {
            keys: [pose, lm],
            range,
            bearing,
            noise,
        }
    }

    /// The measured range.
    pub fn range(&self) -> f64 {
        self.range
    }

    /// The measured bearing.
    pub fn bearing(&self) -> f64 {
        self.bearing
    }

    pub(crate) fn error_into(&self, vars: &[&Variable], out: &mut [f64]) {
        let (pose, lm) = match (vars[0], vars[1]) {
            (Variable::Se2(p), Variable::Vector(l)) if l.len() == 2 => (p, l),
            _ => panic!("range-bearing factor expects (Se2, Vector2)"),
        };
        // Landmark in the pose frame.
        let world = [lm[0] - pose.x(), lm[1] - pose.y()];
        let local = pose.rotation().inverse().rotate(world);
        let predicted_range = (local[0] * local[0] + local[1] * local[1])
            .sqrt()
            .max(1e-12);
        let predicted_bearing = local[1].atan2(local[0]);
        out.copy_from_slice(&[
            predicted_range - self.range,
            wrap_angle(predicted_bearing - self.bearing),
        ]);
    }
}

/// A 3-D point-landmark observation in the body frame of an SE(3) pose:
/// residual `X⁻¹·l − ẑ` (three components).
///
/// The landmark is a [`Variable::Vector`] of length 3.
#[derive(Clone, Debug, PartialEq)]
pub struct PointObservationFactor {
    pub(crate) keys: [Key; 2],
    measured: [f64; 3],
    pub(crate) noise: NoiseModel,
}

impl PointObservationFactor {
    /// Observation of landmark `lm` from `pose` at body-frame coordinates
    /// `measured`.
    ///
    /// # Panics
    ///
    /// Panics if the noise model is not 3-dimensional.
    pub fn new(pose: Key, lm: Key, measured: [f64; 3], noise: NoiseModel) -> Self {
        assert_eq!(noise.dim(), 3, "point observation noise must be 3-D");
        PointObservationFactor {
            keys: [pose, lm],
            measured,
            noise,
        }
    }

    /// The measured body-frame coordinates.
    pub fn measured(&self) -> [f64; 3] {
        self.measured
    }

    pub(crate) fn error_into(&self, vars: &[&Variable], out: &mut [f64]) {
        let (pose, lm) = match (vars[0], vars[1]) {
            (Variable::Se3(p), Variable::Vector(l)) if l.len() == 3 => (p, l),
            _ => panic!("point observation factor expects (Se3, Vector3)"),
        };
        let t = pose.translation();
        let world = [lm[0] - t[0], lm[1] - t[1], lm[2] - t[2]];
        let local = pose.rotation().inverse().rotate(world);
        for (o, (l, m)) in out.iter_mut().zip(local.iter().zip(&self.measured)) {
            *o = l - m;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{linearize, Factor, Rot3, Se2, Se3, Values};

    #[test]
    fn range_bearing_zero_at_truth() {
        let mut vals = Values::new();
        let pose = vals.insert_se2(Se2::new(1.0, 1.0, std::f64::consts::FRAC_PI_2));
        let lm = vals.insert(Variable::Vector(vec![1.0, 4.0]));
        // Landmark is 3 m straight ahead (the pose faces +y).
        let f = Factor::from(RangeBearingFactor::new(
            pose,
            lm,
            3.0,
            0.0,
            NoiseModel::from_sigmas(&[0.1, 0.02]),
        ));
        assert!(f.weighted_error2(&vals) < 1e-16);
    }

    #[test]
    fn bearing_wraps() {
        assert!((wrap_angle(3.0 * std::f64::consts::PI) - std::f64::consts::PI).abs() < 1e-12);
        assert!(wrap_angle(-3.0 * std::f64::consts::PI) > -std::f64::consts::PI - 1e-12);
    }

    #[test]
    fn range_bearing_jacobian_first_order() {
        let mut vals = Values::new();
        let pose = vals.insert_se2(Se2::new(0.3, -0.4, 0.7));
        let lm = vals.insert(Variable::Vector(vec![2.5, 1.5]));
        let f = Factor::from(RangeBearingFactor::new(
            pose,
            lm,
            2.0,
            0.3,
            NoiseModel::from_sigmas(&[0.1, 0.05]),
        ));
        let lin = linearize(&f, &vals);
        let delta = [1e-4, -5e-5];
        let mut v2 = vals.clone();
        v2.retract_at(lm, &delta);
        let vars: Vec<&Variable> = f.keys().iter().map(|&k| v2.get(k)).collect();
        let mut raw = [0.0; 2];
        f.error_into(&vars, &mut raw);
        let actual = f.noise().whiten(&raw);
        let jd = lin.jacobians[1].matvec(&delta);
        for k in 0..2 {
            let predicted = lin.residual[k] + jd[k];
            assert!(
                (actual[k] - predicted).abs() < 1e-6,
                "{k}: {} vs {predicted}",
                actual[k]
            );
        }
    }

    #[test]
    fn point_observation_zero_at_truth() {
        let mut vals = Values::new();
        let pose = vals.insert_se3(Se3::from_parts(
            [1.0, 0.0, 0.0],
            Rot3::exp(&[0.0, 0.0, 0.4]),
        ));
        let world = [3.0, 2.0, 1.0];
        let lm = vals.insert(Variable::Vector(world.to_vec()));
        let p = vals.get(pose).as_se3().unwrap().clone();
        let t = p.translation();
        let local =
            p.rotation()
                .inverse()
                .rotate([world[0] - t[0], world[1] - t[1], world[2] - t[2]]);
        let f = Factor::from(PointObservationFactor::new(
            pose,
            lm,
            local,
            NoiseModel::isotropic(3, 0.1),
        ));
        assert!(f.weighted_error2(&vals) < 1e-16);
    }

    #[test]
    #[should_panic(expected = "expects (Se2, Vector2)")]
    fn wrong_variable_kinds_panic() {
        let mut vals = Values::new();
        let a = vals.insert_se2(Se2::identity());
        let b = vals.insert_se2(Se2::identity());
        let f = Factor::from(RangeBearingFactor::new(
            a,
            b,
            1.0,
            0.0,
            NoiseModel::isotropic(2, 0.1),
        ));
        let vars: Vec<&Variable> = f.keys().iter().map(|&k| vals.get(k)).collect();
        f.error_into(&vars, &mut [0.0; 2]);
    }
}
