//! The 3-D rigid transforms SO(3) and SE(3).
//!
//! Both are stack values: a rotation is nine `f64`s, so composing,
//! inverting and retracting poses never touches the heap. Every 3×3
//! product goes through `mul3`, which repeats the operation order of the
//! dense `gemm` on its `DirectK3` path, and [`Rot3::rotate`] repeats
//! `Mat::matvec`; the results are bit-identical to the heap-`Mat`
//! implementation they replaced, which the test-only `oracle` module keeps
//! and checks against.
//!
//! The group operations are `#[inline(always)]`, so a linearization
//! probe's compose → inverse → compose → log chain stays in registers.
//! Returned through memory, a callee's wide vector reloads of the scalars
//! its caller had just stored defeat store-to-load forwarding: on an AVX2
//! build that cost SE(3) linearization about 10 %.

use std::fmt;

use supernova_linalg::Mat;

/// The identity as a column-major 3×3 array.
const IDENTITY: [f64; 9] = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0];

/// A 3-D rotation (an element of SO(3)), stored as a 3×3 rotation matrix.
///
/// The matrix is nine column-major `f64`s held inline, so a `Rot3` (and an
/// [`Se3`]) is `Copy` and no group operation allocates.
/// [`matrix`](Self::matrix) returns a copy as a dense [`Mat`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Rot3 {
    /// Entry `(i, j)` sits at `m[i + 3 * j]`.
    m: [f64; 9],
}

impl Rot3 {
    /// The identity rotation.
    pub fn identity() -> Self {
        Rot3 { m: IDENTITY }
    }

    /// Builds a rotation from a matrix.
    ///
    /// The matrix is trusted to be orthonormal; use
    /// [`normalized`](Self::normalized) after long composition chains.
    ///
    /// # Panics
    ///
    /// Panics if `m` is not 3×3.
    pub fn from_matrix(m: Mat) -> Self {
        assert!(
            m.rows() == 3 && m.cols() == 3,
            "rotation matrix must be 3x3"
        );
        let mut a = [0.0; 9];
        a.copy_from_slice(m.as_slice());
        Rot3 { m: a }
    }

    /// Entry `(i, j)` of the matrix.
    fn at(&self, i: usize, j: usize) -> f64 {
        self.m[i + 3 * j]
    }

    /// Exponential map (Rodrigues) from an axis-angle vector.
    pub fn exp(w: &[f64]) -> Self {
        let theta2 = w[0] * w[0] + w[1] * w[1] + w[2] * w[2];
        let theta = theta2.sqrt();
        let (a, b) = if theta < 1e-9 {
            (1.0 - theta2 / 6.0, 0.5 - theta2 / 24.0)
        } else {
            (theta.sin() / theta, (1.0 - theta.cos()) / theta2)
        };
        let wx = hat(w);
        let wx2 = mul3(&wx, &wx);
        let mut m = IDENTITY;
        for ((mk, &x), &x2) in m.iter_mut().zip(&wx).zip(&wx2) {
            *mk += a * x + b * x2;
        }
        Rot3 { m }
    }

    /// Logarithm map to an axis-angle vector, robust near 0 and π.
    #[inline(always)]
    pub fn log(&self) -> [f64; 3] {
        let m = |i, j| self.at(i, j);
        let trace = m(0, 0) + m(1, 1) + m(2, 2);
        let cos_theta = ((trace - 1.0) * 0.5).clamp(-1.0, 1.0);
        let theta = cos_theta.acos();
        if theta < 1e-9 {
            // R ≈ I + [w]×: read off the skew part.
            return [
                0.5 * (m(2, 1) - m(1, 2)),
                0.5 * (m(0, 2) - m(2, 0)),
                0.5 * (m(1, 0) - m(0, 1)),
            ];
        }
        if (std::f64::consts::PI - theta) < 1e-6 {
            // Near π the skew part vanishes; recover the axis from the
            // largest diagonal of R + I.
            let diag = [m(0, 0), m(1, 1), m(2, 2)];
            let k = if diag[0] >= diag[1] && diag[0] >= diag[2] {
                0
            } else if diag[1] >= diag[2] {
                1
            } else {
                2
            };
            let denom = (2.0 * (1.0 + diag[k])).sqrt();
            let axis: [f64; 3] =
                std::array::from_fn(|i| (m(i, k) + if i == k { 1.0 } else { 0.0 }) / denom);
            // Fix the sign using the (small but informative) skew part.
            let skew = [m(2, 1) - m(1, 2), m(0, 2) - m(2, 0), m(1, 0) - m(0, 1)];
            let dotp = axis[0] * skew[0] + axis[1] * skew[1] + axis[2] * skew[2];
            let sign = if dotp < 0.0 { -1.0 } else { 1.0 };
            return [
                sign * theta * axis[0],
                sign * theta * axis[1],
                sign * theta * axis[2],
            ];
        }
        let k = theta / (2.0 * theta.sin());
        [
            k * (m(2, 1) - m(1, 2)),
            k * (m(0, 2) - m(2, 0)),
            k * (m(1, 0) - m(0, 1)),
        ]
    }

    /// Composition `self · other`.
    #[inline(always)]
    pub fn compose(&self, other: &Rot3) -> Rot3 {
        Rot3 {
            m: mul3(&self.m, &other.m),
        }
    }

    /// The inverse (= transpose) rotation.
    #[inline(always)]
    pub fn inverse(&self) -> Rot3 {
        let mut m = [0.0; 9];
        for j in 0..3 {
            for i in 0..3 {
                m[i + 3 * j] = self.at(j, i);
            }
        }
        Rot3 { m }
    }

    /// Rotates a 3-vector.
    ///
    /// Accumulates column by column from zero and skips exact-zero (and
    /// `-0.0`) components, as `Mat::matvec` does.
    #[inline(always)]
    pub fn rotate(&self, v: [f64; 3]) -> [f64; 3] {
        let mut y = [0.0; 3];
        for (c, &vc) in v.iter().enumerate() {
            if vc == 0.0 {
                continue;
            }
            for (r, yr) in y.iter_mut().enumerate() {
                *yr += self.at(r, c) * vc;
            }
        }
        y
    }

    /// The 3×3 matrix, copied into a dense [`Mat`].
    pub fn matrix(&self) -> Mat {
        Mat::from_cols(3, 3, self.m.to_vec())
    }

    /// Re-orthonormalizes via one Gram–Schmidt pass (drift control).
    #[inline(always)]
    pub fn normalized(&self) -> Rot3 {
        let mut c0 = [self.at(0, 0), self.at(1, 0), self.at(2, 0)];
        let n0 = (c0[0] * c0[0] + c0[1] * c0[1] + c0[2] * c0[2]).sqrt();
        c0 = [c0[0] / n0, c0[1] / n0, c0[2] / n0];
        let mut c1 = [self.at(0, 1), self.at(1, 1), self.at(2, 1)];
        let d = c0[0] * c1[0] + c0[1] * c1[1] + c0[2] * c1[2];
        c1 = [c1[0] - d * c0[0], c1[1] - d * c0[1], c1[2] - d * c0[2]];
        let n1 = (c1[0] * c1[0] + c1[1] * c1[1] + c1[2] * c1[2]).sqrt();
        c1 = [c1[0] / n1, c1[1] / n1, c1[2] / n1];
        let c2 = [
            c0[1] * c1[2] - c0[2] * c1[1],
            c0[2] * c1[0] - c0[0] * c1[2],
            c0[0] * c1[1] - c0[1] * c1[0],
        ];
        Rot3 {
            m: [
                c0[0], c0[1], c0[2], c1[0], c1[1], c1[2], c2[0], c2[1], c2[2],
            ],
        }
    }
}

impl Default for Rot3 {
    fn default() -> Self {
        Self::identity()
    }
}

/// The skew-symmetric (hat) matrix of a 3-vector, column-major.
fn hat(w: &[f64]) -> [f64; 9] {
    [0.0, w[2], -w[1], -w[2], 0.0, w[0], w[1], -w[0], 0.0]
}

/// The column-major 3×3 product `a · b`, in the operation order of
/// `gemm(1.0, a, No, b, No, 0.0, c)` on its `DirectK3` path: column `j` of
/// `b` is gathered as `1.0 · b[p][j]`, each dot starts from `0.0` and adds
/// `a[i][p] · bcol[p]` for `p = 0, 1, 2`, and the entry is the zeroed
/// output plus the dot. Every bit matches the dense kernel's.
#[inline(always)]
fn mul3(a: &[f64; 9], b: &[f64; 9]) -> [f64; 9] {
    let mut c = [0.0; 9];
    for j in 0..3 {
        let bcol = [1.0 * b[3 * j], 1.0 * b[3 * j + 1], 1.0 * b[3 * j + 2]];
        for i in 0..3 {
            let mut acc = 0.0;
            for (p, &bp) in bcol.iter().enumerate() {
                acc += a[i + 3 * p] * bp;
            }
            c[i + 3 * j] = 0.0 + acc;
        }
    }
    c
}

/// A 3-D rigid transform (an element of SE(3)): rotation plus translation.
///
/// The tangent convention is `[v, ω]` (translation first) with the right
/// retraction `X ⊕ δ = X · Exp(δ)`.
///
/// # Example
///
/// ```
/// use supernova_factors::Se3;
///
/// let a = Se3::from_parts([1.0, 2.0, 3.0], supernova_factors::Rot3::exp(&[0.1, 0.0, 0.3]));
/// let b = a.retract(&[0.1, 0.0, 0.0, 0.0, 0.05, 0.0]);
/// let d = a.local(&b);
/// assert!((d[0] - 0.1).abs() < 1e-9);
/// assert!((d[4] - 0.05).abs() < 1e-9);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct Se3 {
    rot: Rot3,
    t: [f64; 3],
}

impl Se3 {
    /// Tangent-space dimension.
    pub const DIM: usize = 6;

    /// The identity pose.
    pub fn identity() -> Self {
        Se3::default()
    }

    /// Creates a pose from translation and rotation.
    pub fn from_parts(t: [f64; 3], rot: Rot3) -> Self {
        Se3 { rot, t }
    }

    /// The translation part.
    pub fn translation(&self) -> [f64; 3] {
        self.t
    }

    /// The rotation part.
    pub fn rotation(&self) -> &Rot3 {
        &self.rot
    }

    /// Group composition `self · other`.
    #[inline(always)]
    pub fn compose(&self, other: &Se3) -> Se3 {
        let rt = self.rot.rotate(other.t);
        Se3 {
            rot: self.rot.compose(&other.rot).normalized(),
            t: [self.t[0] + rt[0], self.t[1] + rt[1], self.t[2] + rt[2]],
        }
    }

    /// Group inverse.
    #[inline(always)]
    pub fn inverse(&self) -> Se3 {
        let rinv = self.rot.inverse();
        let ti = rinv.rotate([-self.t[0], -self.t[1], -self.t[2]]);
        Se3 { rot: rinv, t: ti }
    }

    /// Exponential map from the tangent `[vx, vy, vz, ωx, ωy, ωz]`.
    pub fn exp(xi: &[f64]) -> Se3 {
        let v = [xi[0], xi[1], xi[2]];
        let w = [xi[3], xi[4], xi[5]];
        let rot = Rot3::exp(&w);
        let theta2 = w[0] * w[0] + w[1] * w[1] + w[2] * w[2];
        let theta = theta2.sqrt();
        // V = I + b·[w]× + c·[w]×², b = (1−cosθ)/θ², c = (θ−sinθ)/θ³.
        let (b, c) = if theta < 1e-9 {
            (0.5 - theta2 / 24.0, 1.0 / 6.0 - theta2 / 120.0)
        } else {
            (
                (1.0 - theta.cos()) / theta2,
                (theta - theta.sin()) / (theta2 * theta),
            )
        };
        let t = apply_v(&w, b, c, v);
        Se3 { rot, t }
    }

    /// Logarithm map to the tangent `[vx, vy, vz, ωx, ωy, ωz]`.
    #[inline(always)]
    pub fn log(&self) -> [f64; 6] {
        let w = self.rot.log();
        let theta2 = w[0] * w[0] + w[1] * w[1] + w[2] * w[2];
        let theta = theta2.sqrt();
        // V⁻¹ = I − ½[w]× + d·[w]×², d = (1 − θ·cot(θ/2)/2)/θ².
        let d = if theta < 1e-9 {
            1.0 / 12.0 + theta2 / 720.0
        } else {
            let half = theta / 2.0;
            (1.0 - half * half.cos() / half.sin()) / theta2
        };
        let v = apply_v(&w, -0.5, d, self.t);
        [v[0], v[1], v[2], w[0], w[1], w[2]]
    }

    /// Right retraction `self · Exp(delta)`.
    ///
    /// # Panics
    ///
    /// Panics if `delta.len() != 6`.
    pub fn retract(&self, delta: &[f64]) -> Se3 {
        assert_eq!(delta.len(), Self::DIM, "Se3 tangent must have length 6");
        self.compose(&Se3::exp(delta))
    }

    /// Local coordinates of `other` around `self`: `Log(self⁻¹ · other)`.
    pub fn local(&self, other: &Se3) -> [f64; 6] {
        self.inverse().compose(other).log()
    }

    /// Euclidean distance between the translation parts.
    pub fn translation_distance(&self, other: &Se3) -> f64 {
        let dx = self.t[0] - other.t[0];
        let dy = self.t[1] - other.t[1];
        let dz = self.t[2] - other.t[2];
        (dx * dx + dy * dy + dz * dz).sqrt()
    }
}

/// Applies `(I + b·[w]× + c·[w]×²) v`.
#[inline(always)]
fn apply_v(w: &[f64; 3], b: f64, c: f64, v: [f64; 3]) -> [f64; 3] {
    let wxv = [
        w[1] * v[2] - w[2] * v[1],
        w[2] * v[0] - w[0] * v[2],
        w[0] * v[1] - w[1] * v[0],
    ];
    let wxwxv = [
        w[1] * wxv[2] - w[2] * wxv[1],
        w[2] * wxv[0] - w[0] * wxv[2],
        w[0] * wxv[1] - w[1] * wxv[0],
    ];
    [
        v[0] + b * wxv[0] + c * wxwxv[0],
        v[1] + b * wxv[1] + c * wxwxv[1],
        v[2] + b * wxv[2] + c * wxwxv[2],
    ]
}

impl fmt::Display for Se3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3}, {:.3})", self.t[0], self.t[1], self.t[2])
    }
}

/// The heap-`Mat` implementation the stack types replaced: every 3×3
/// product through the dense `gemm`, every rotation through `Mat::matvec`.
/// Kept as the bit oracle the stack types are checked against.
#[cfg(test)]
mod oracle {
    use supernova_linalg::{gemm, Mat, Transpose};

    use super::apply_v;

    #[derive(Clone, Debug)]
    pub struct Rot3 {
        pub m: Mat,
    }

    fn hat(w: &[f64]) -> Mat {
        let mut m = Mat::zeros(3, 3);
        m[(0, 1)] = -w[2];
        m[(0, 2)] = w[1];
        m[(1, 0)] = w[2];
        m[(1, 2)] = -w[0];
        m[(2, 0)] = -w[1];
        m[(2, 1)] = w[0];
        m
    }

    impl Rot3 {
        pub fn exp(w: &[f64]) -> Self {
            let theta2 = w[0] * w[0] + w[1] * w[1] + w[2] * w[2];
            let theta = theta2.sqrt();
            let (a, b) = if theta < 1e-9 {
                (1.0 - theta2 / 6.0, 0.5 - theta2 / 24.0)
            } else {
                (theta.sin() / theta, (1.0 - theta.cos()) / theta2)
            };
            let wx = hat(w);
            let mut wx2 = Mat::zeros(3, 3);
            gemm(1.0, &wx, Transpose::No, &wx, Transpose::No, 0.0, &mut wx2);
            let mut m = Mat::identity(3);
            for i in 0..3 {
                for j in 0..3 {
                    m[(i, j)] += a * wx[(i, j)] + b * wx2[(i, j)];
                }
            }
            Rot3 { m }
        }

        pub fn log(&self) -> [f64; 3] {
            let m = &self.m;
            let trace = m[(0, 0)] + m[(1, 1)] + m[(2, 2)];
            let cos_theta = ((trace - 1.0) * 0.5).clamp(-1.0, 1.0);
            let theta = cos_theta.acos();
            if theta < 1e-9 {
                return [
                    0.5 * (m[(2, 1)] - m[(1, 2)]),
                    0.5 * (m[(0, 2)] - m[(2, 0)]),
                    0.5 * (m[(1, 0)] - m[(0, 1)]),
                ];
            }
            if (std::f64::consts::PI - theta) < 1e-6 {
                let mut axis = [0.0; 3];
                let diag = [m[(0, 0)], m[(1, 1)], m[(2, 2)]];
                let k = if diag[0] >= diag[1] && diag[0] >= diag[2] {
                    0
                } else if diag[1] >= diag[2] {
                    1
                } else {
                    2
                };
                let denom = (2.0 * (1.0 + diag[k])).sqrt();
                for i in 0..3 {
                    axis[i] = (m[(i, k)] + if i == k { 1.0 } else { 0.0 }) / denom;
                }
                let skew = [
                    m[(2, 1)] - m[(1, 2)],
                    m[(0, 2)] - m[(2, 0)],
                    m[(1, 0)] - m[(0, 1)],
                ];
                let dotp = axis[0] * skew[0] + axis[1] * skew[1] + axis[2] * skew[2];
                let sign = if dotp < 0.0 { -1.0 } else { 1.0 };
                return [
                    sign * theta * axis[0],
                    sign * theta * axis[1],
                    sign * theta * axis[2],
                ];
            }
            let k = theta / (2.0 * theta.sin());
            [
                k * (m[(2, 1)] - m[(1, 2)]),
                k * (m[(0, 2)] - m[(2, 0)]),
                k * (m[(1, 0)] - m[(0, 1)]),
            ]
        }

        pub fn compose(&self, other: &Rot3) -> Rot3 {
            let mut m = Mat::zeros(3, 3);
            gemm(
                1.0,
                &self.m,
                Transpose::No,
                &other.m,
                Transpose::No,
                0.0,
                &mut m,
            );
            Rot3 { m }
        }

        pub fn inverse(&self) -> Rot3 {
            Rot3 {
                m: self.m.transposed(),
            }
        }

        pub fn rotate(&self, v: [f64; 3]) -> [f64; 3] {
            let r = self.m.matvec(&v);
            [r[0], r[1], r[2]]
        }

        pub fn normalized(&self) -> Rot3 {
            let mut c0 = [self.m[(0, 0)], self.m[(1, 0)], self.m[(2, 0)]];
            let n0 = (c0[0] * c0[0] + c0[1] * c0[1] + c0[2] * c0[2]).sqrt();
            c0 = [c0[0] / n0, c0[1] / n0, c0[2] / n0];
            let mut c1 = [self.m[(0, 1)], self.m[(1, 1)], self.m[(2, 1)]];
            let d = c0[0] * c1[0] + c0[1] * c1[1] + c0[2] * c1[2];
            c1 = [c1[0] - d * c0[0], c1[1] - d * c0[1], c1[2] - d * c0[2]];
            let n1 = (c1[0] * c1[0] + c1[1] * c1[1] + c1[2] * c1[2]).sqrt();
            c1 = [c1[0] / n1, c1[1] / n1, c1[2] / n1];
            let c2 = [
                c0[1] * c1[2] - c0[2] * c1[1],
                c0[2] * c1[0] - c0[0] * c1[2],
                c0[0] * c1[1] - c0[1] * c1[0],
            ];
            let mut m = Mat::zeros(3, 3);
            for i in 0..3 {
                m[(i, 0)] = c0[i];
                m[(i, 1)] = c1[i];
                m[(i, 2)] = c2[i];
            }
            Rot3 { m }
        }
    }

    #[derive(Clone, Debug)]
    pub struct Se3 {
        pub rot: Rot3,
        pub t: [f64; 3],
    }

    impl Se3 {
        pub fn compose(&self, other: &Se3) -> Se3 {
            let rt = self.rot.rotate(other.t);
            Se3 {
                rot: self.rot.compose(&other.rot).normalized(),
                t: [self.t[0] + rt[0], self.t[1] + rt[1], self.t[2] + rt[2]],
            }
        }

        pub fn inverse(&self) -> Se3 {
            let rinv = self.rot.inverse();
            let ti = rinv.rotate([-self.t[0], -self.t[1], -self.t[2]]);
            Se3 { rot: rinv, t: ti }
        }

        pub fn exp(xi: &[f64]) -> Se3 {
            let v = [xi[0], xi[1], xi[2]];
            let w = [xi[3], xi[4], xi[5]];
            let rot = Rot3::exp(&w);
            let theta2 = w[0] * w[0] + w[1] * w[1] + w[2] * w[2];
            let theta = theta2.sqrt();
            let (b, c) = if theta < 1e-9 {
                (0.5 - theta2 / 24.0, 1.0 / 6.0 - theta2 / 120.0)
            } else {
                (
                    (1.0 - theta.cos()) / theta2,
                    (theta - theta.sin()) / (theta2 * theta),
                )
            };
            let t = apply_v(&w, b, c, v);
            Se3 { rot, t }
        }

        pub fn log(&self) -> [f64; 6] {
            let w = self.rot.log();
            let theta2 = w[0] * w[0] + w[1] * w[1] + w[2] * w[2];
            let theta = theta2.sqrt();
            let d = if theta < 1e-9 {
                1.0 / 12.0 + theta2 / 720.0
            } else {
                let half = theta / 2.0;
                (1.0 - half * half.cos() / half.sin()) / theta2
            };
            let v = apply_v(&w, -0.5, d, self.t);
            [v[0], v[1], v[2], w[0], w[1], w[2]]
        }

        pub fn retract(&self, delta: &[f64]) -> Se3 {
            self.compose(&Se3::exp(delta))
        }

        pub fn local(&self, other: &Se3) -> [f64; 6] {
            self.inverse().compose(other).log()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use supernova_linalg::rng::XorShift64;

    #[test]
    fn rot3_exp_log_roundtrip() {
        for w in [
            [0.1, -0.2, 0.3],
            [0.0, 0.0, 0.0],
            [1.0, 1.0, -1.0],
            [3.0, 0.5, 0.1],
            [1e-12, 0.0, 0.0],
        ] {
            let r = Rot3::exp(&w);
            let back = r.log();
            for k in 0..3 {
                assert!((back[k] - w[k]).abs() < 1e-7, "{w:?} -> {back:?}");
            }
        }
    }

    #[test]
    fn rot3_log_near_pi() {
        let w = [std::f64::consts::PI - 1e-8, 0.0, 0.0];
        let r = Rot3::exp(&w);
        let back = r.log();
        let norm = (back[0] * back[0] + back[1] * back[1] + back[2] * back[2]).sqrt();
        assert!((norm - w[0]).abs() < 1e-5, "norm {norm} vs {}", w[0]);
    }

    #[test]
    fn rot3_orthonormal_after_exp() {
        let r = Rot3::exp(&[0.4, -0.9, 1.3]);
        let i = r.compose(&r.inverse());
        for a in 0..3 {
            for b in 0..3 {
                let want = if a == b { 1.0 } else { 0.0 };
                assert!((i.matrix()[(a, b)] - want).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn se3_exp_log_roundtrip() {
        for xi in [
            [0.1, 0.2, 0.3, 0.4, -0.5, 0.6],
            [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0, 2.0],
            [0.5, -0.5, 0.5, 1e-11, 0.0, 0.0],
        ] {
            let p = Se3::exp(&xi);
            let back = p.log();
            for k in 0..6 {
                assert!((back[k] - xi[k]).abs() < 1e-8, "{xi:?} -> {back:?}");
            }
        }
    }

    #[test]
    fn se3_retract_local_roundtrip() {
        let a = Se3::from_parts([1.0, -2.0, 0.5], Rot3::exp(&[0.3, 0.2, -0.7]));
        let b = Se3::from_parts([0.1, 0.4, -1.0], Rot3::exp(&[-0.2, 0.9, 0.1]));
        let d = a.local(&b);
        let b2 = a.retract(&d);
        assert!(b2.translation_distance(&b) < 1e-9);
        let dd = b.local(&b2);
        assert!(dd.iter().all(|x| x.abs() < 1e-9));
    }

    #[test]
    fn compose_inverse_is_identity() {
        let p = Se3::from_parts([3.0, 1.0, -2.0], Rot3::exp(&[0.1, 0.5, 0.2]));
        let e = p.compose(&p.inverse());
        assert!(e.translation_distance(&Se3::identity()) < 1e-12);
        assert!(e.rotation().log().iter().all(|x| x.abs() < 1e-12));
    }

    #[test]
    fn normalization_restores_orthonormality() {
        let mut m = Rot3::exp(&[0.2, 0.3, 0.4]).matrix();
        m[(0, 0)] += 1e-4; // inject drift
        let r = Rot3::from_matrix(m).normalized();
        let i = r.compose(&r.inverse());
        for a in 0..3 {
            assert!((i.matrix()[(a, a)] - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn matrix_round_trips_through_from_matrix() {
        let r = Rot3::exp(&[0.7, -0.1, 0.25]);
        assert_eq!(Rot3::from_matrix(r.matrix()), r);
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    fn assert_rot(got: &Rot3, want: &oracle::Rot3, what: &str) {
        assert_eq!(bits(&got.m), bits(want.m.as_slice()), "{what}");
    }

    fn assert_se3(got: &Se3, want: &oracle::Se3, what: &str) {
        assert_rot(&got.rot, &want.rot, what);
        assert_eq!(bits(&got.t), bits(&want.t), "{what}");
    }

    fn to_oracle(p: &Se3) -> oracle::Se3 {
        oracle::Se3 {
            rot: oracle::Rot3 { m: p.rot.matrix() },
            t: p.t,
        }
    }

    /// One case of the sweep: a 3-vector drawn from the shape `kind`
    /// selects. Besides generic vectors the shapes cover θ < 1e-9, θ
    /// within 1e-6 of π (either side), exact zeros (the `matvec` skip) and
    /// `-0.0` components.
    fn vec3(rng: &mut XorShift64, kind: usize) -> [f64; 3] {
        let pi = std::f64::consts::PI;
        let mut v = [0.0; 3];
        for x in &mut v {
            *x = rng.gen_range(-2.0, 2.0);
        }
        match kind {
            0 => {}
            1 => v.iter_mut().for_each(|x| *x *= 1e-11),
            2 => {
                let n = (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt();
                let theta = pi + rng.gen_range(-1e-6, 1e-6);
                v.iter_mut().for_each(|x| *x *= theta / n);
            }
            3 => {
                for x in &mut v {
                    if rng.gen_bool(0.5) {
                        *x = 0.0;
                    }
                }
            }
            4 => {
                for x in &mut v {
                    if rng.gen_bool(0.5) {
                        *x = -0.0;
                    }
                }
            }
            _ => {
                let keep = rng.gen_index(3);
                for (i, x) in v.iter_mut().enumerate() {
                    if i != keep {
                        *x = if rng.gen_bool(0.5) { 0.0 } else { -0.0 };
                    }
                }
            }
        }
        v
    }

    const KINDS: usize = 6;

    #[test]
    fn group_ops_match_the_heap_oracle_bit_for_bit() {
        let mut rng = XorShift64::seed_from_u64(0x5e3_0ac1e);
        for case in 0..3000 {
            let kind = |rng: &mut XorShift64| (case + rng.gen_index(2) * 3) % KINDS;
            let (k1, k2, k3) = (kind(&mut rng), kind(&mut rng), kind(&mut rng));
            let w1 = vec3(&mut rng, k1);
            let w2 = vec3(&mut rng, k2);
            let v = vec3(&mut rng, k3);
            let what = format!("case {case}: w1 {w1:?} w2 {w2:?} v {v:?}");

            let (r1, o1) = (Rot3::exp(&w1), oracle::Rot3::exp(&w1));
            let (r2, o2) = (Rot3::exp(&w2), oracle::Rot3::exp(&w2));
            assert_rot(&r1, &o1, &what);
            assert_eq!(bits(&r1.log()), bits(&o1.log()), "log {what}");
            let (rc, oc) = (r1.compose(&r2), o1.compose(&o2));
            assert_rot(&rc, &oc, &what);
            assert_eq!(bits(&rc.log()), bits(&oc.log()), "log∘compose {what}");
            assert_rot(&r1.inverse(), &o1.inverse(), &what);
            assert_eq!(bits(&r1.rotate(v)), bits(&o1.rotate(v)), "rotate {what}");
            assert_rot(&rc.normalized(), &oc.normalized(), &what);
            // Drifted input: normalization does real work.
            let mut drift = rc.matrix();
            drift[(rng.gen_index(3), rng.gen_index(3))] += rng.gen_range(-1e-3, 1e-3);
            let od = oracle::Rot3 { m: drift.clone() };
            assert_rot(
                &Rot3::from_matrix(drift).normalized(),
                &od.normalized(),
                &what,
            );

            let xi1 = [v[0], v[1], v[2], w1[0], w1[1], w1[2]];
            let xi2 = [w2[0], w2[1], w2[2], v[0], v[1], v[2]];
            let (p1, q1) = (Se3::exp(&xi1), oracle::Se3::exp(&xi1));
            let (p2, q2) = (Se3::exp(&xi2), oracle::Se3::exp(&xi2));
            assert_se3(&p1, &q1, &what);
            assert_se3(&p2, &q2, &what);
            assert_eq!(bits(&p1.log()), bits(&q1.log()), "se3 log {what}");
            assert_se3(&p1.compose(&p2), &q1.compose(&q2), &what);
            assert_se3(&p1.inverse(), &q1.inverse(), &what);
            assert_se3(&p1.retract(&xi2), &q1.retract(&xi2), &what);
            assert_eq!(bits(&p1.local(&p2)), bits(&q1.local(&q2)), "local {what}");
            // Poses whose translation carries exact and negative zeros.
            let pz = Se3::from_parts(v, r2);
            let qz = to_oracle(&pz);
            assert_se3(&pz.inverse(), &qz.inverse(), &what);
            assert_se3(&p1.compose(&pz), &q1.compose(&qz), &what);
            assert_eq!(bits(&pz.local(&p1)), bits(&qz.local(&q1)), "local {what}");
        }
    }
}
