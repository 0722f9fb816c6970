//! Dataset containers and the online replay schedule.

use supernova_factors::{
    BetweenFactor, Factor, FactorGraph, Key, NoiseModel, PriorFactor, Values, Variable,
};

/// Whether a dataset's poses live in SE(2) or SE(3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PoseKind {
    /// Planar poses (M3500).
    Planar,
    /// 3-D poses (Sphere, CAB).
    Spatial,
}

/// One relative-pose measurement between two poses.
#[derive(Clone, Debug)]
pub struct Edge {
    /// Earlier pose index.
    pub from: usize,
    /// Later pose index.
    pub to: usize,
    /// Noisy relative transform `from⁻¹ · to`.
    pub measurement: Variable,
    /// Per-dimension measurement standard deviations.
    pub sigmas: Vec<f64>,
}

impl Edge {
    /// `true` when this edge is not the sequential odometry edge — i.e. a
    /// loop-closure / covisibility constraint.
    pub fn is_loop_closure(&self) -> bool {
        self.to != self.from + 1
    }
}

/// What arrives at the backend on one online step: the new pose's odometry
/// (for initial-guess propagation) plus every factor whose latest variable
/// is the new pose.
#[derive(Clone, Debug)]
pub struct OnlineStep {
    /// Noisy odometry from the previous pose (absent on step 0).
    pub odometry: Option<Variable>,
    /// Ground-truth pose (for evaluation only — never shown to solvers).
    pub truth: Variable,
    /// Factors arriving with this pose.
    pub factors: Vec<Factor>,
}

impl OnlineStep {
    /// The initial guess for the pose step `i` adds: the previous pose's
    /// current estimate, `previous(Key(i - 1))`, composed with the
    /// odometry; the ground truth on step 0 and on a step without
    /// odometry.
    ///
    /// # Panics
    ///
    /// Panics if the previous pose and the odometry differ in kind.
    pub fn initial_guess(&self, i: usize, previous: impl FnOnce(Key) -> Variable) -> Variable {
        let Some(odometry) = self.odometry.as_ref().filter(|_| i > 0) else {
            return self.truth.clone();
        };
        match (previous(Key(i - 1)), odometry) {
            (Variable::Se2(a), Variable::Se2(b)) => Variable::Se2(a.compose(*b)),
            (Variable::Se3(a), Variable::Se3(b)) => Variable::Se3(a.compose(b)),
            _ => panic!("compose over mismatched variable kinds"),
        }
    }
}

/// A pose-graph dataset: ground truth plus noisy measurements.
#[derive(Clone, Debug)]
pub struct Dataset {
    name: String,
    kind: PoseKind,
    ground_truth: Vec<Variable>,
    edges: Vec<Edge>,
    prior_sigma: f64,
    /// Huber threshold applied to loop-closure factors, if any.
    huber_k: Option<f64>,
}

impl Dataset {
    /// Assembles a dataset from parts (used by the generators and the g2o
    /// reader).
    ///
    /// # Panics
    ///
    /// Panics if an edge references a pose out of range or `from >= to`.
    pub fn from_parts(
        name: impl Into<String>,
        kind: PoseKind,
        ground_truth: Vec<Variable>,
        mut edges: Vec<Edge>,
        prior_sigma: f64,
    ) -> Self {
        let n = ground_truth.len();
        for e in &mut edges {
            assert!(
                e.from < e.to && e.to < n,
                "edge ({}, {}) out of range",
                e.from,
                e.to
            );
        }
        edges.sort_by_key(|e| (e.to, e.from));
        Dataset {
            name: name.into(),
            kind,
            ground_truth,
            edges,
            prior_sigma,
            huber_k: None,
        }
    }

    /// Returns a copy whose loop-closure factors carry a Huber robust
    /// kernel with threshold `k` (in whitened units) — the standard defense
    /// against spurious data associations.
    ///
    /// # Panics
    ///
    /// Panics if `k <= 0`.
    pub fn robustified(&self, k: f64) -> Dataset {
        assert!(k > 0.0, "huber threshold must be positive");
        Dataset {
            huber_k: Some(k),
            name: format!("{}+huber", self.name),
            ..self.clone()
        }
    }

    /// Returns a copy where each loop-closure measurement is replaced, with
    /// probability `fraction`, by a grossly wrong transform — simulating
    /// false-positive place recognition. Deterministic in `seed`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= fraction <= 1`.
    pub fn with_outliers(&self, fraction: f64, seed: u64) -> Dataset {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "fraction must be in [0, 1]"
        );
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as f64 / u64::MAX as f64
        };
        let mut edges = self.edges.clone();
        let mut corrupted = 0usize;
        for e in edges.iter_mut().filter(|e| e.is_loop_closure()) {
            if next() >= fraction {
                continue;
            }
            corrupted += 1;
            let r1 = (next() - 0.5) * 20.0;
            let r2 = (next() - 0.5) * 20.0;
            let r3 = (next() - 0.5) * 3.0;
            e.measurement = match &e.measurement {
                Variable::Se2(_) => Variable::Se2(supernova_factors::Se2::new(r1, r2, r3)),
                Variable::Se3(m) => {
                    let xi = [r1, r2, (next() - 0.5) * 4.0, r3 * 0.3, 0.0, 0.0];
                    Variable::Se3(m.compose(&supernova_factors::Se3::exp(&xi)))
                }
                v => v.clone(),
            };
        }
        Dataset {
            name: format!("{}+{}outliers", self.name, corrupted),
            edges,
            ..self.clone()
        }
    }

    /// Dataset name for reports.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The pose manifold.
    pub fn kind(&self) -> PoseKind {
        self.kind
    }

    /// Number of poses (= online steps).
    pub fn num_steps(&self) -> usize {
        self.ground_truth.len()
    }

    /// Number of measurement edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Number of loop-closure (non-odometry) edges.
    pub fn num_loop_closures(&self) -> usize {
        self.edges.iter().filter(|e| e.is_loop_closure()).count()
    }

    /// The ground-truth trajectory.
    pub fn ground_truth(&self) -> &[Variable] {
        &self.ground_truth
    }

    /// The measurement edges, sorted by arrival (`to`, then `from`).
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The prior sigma anchoring pose 0.
    pub fn prior_sigma(&self) -> f64 {
        self.prior_sigma
    }

    /// Builds the online replay: one step per pose, each carrying the prior
    /// (step 0) or the factors whose latest pose is the new one.
    pub fn online_steps(&self) -> Vec<OnlineStep> {
        let n = self.num_steps();
        let mut steps: Vec<OnlineStep> = (0..n)
            .map(|i| OnlineStep {
                odometry: None,
                truth: self.ground_truth[i].clone(),
                factors: Vec::new(),
            })
            .collect();
        if n > 0 {
            let p0 = self.ground_truth[0].clone();
            let dim = p0.dim();
            steps[0].factors.push(
                PriorFactor::new(Key(0), p0, NoiseModel::isotropic(dim, self.prior_sigma)).into(),
            );
        }
        for e in &self.edges {
            let mut noise = NoiseModel::from_sigmas(&e.sigmas);
            if let Some(k) = self.huber_k {
                if e.is_loop_closure() {
                    noise = noise.with_huber(k);
                }
            }
            let f = BetweenFactor::new(Key(e.from), Key(e.to), e.measurement.clone(), noise);
            steps[e.to].factors.push(f.into());
            if e.to == e.from + 1 && steps[e.to].odometry.is_none() {
                steps[e.to].odometry = Some(e.measurement.clone());
            }
        }
        steps
    }

    /// The full batch problem: every factor, with dead-reckoned initial
    /// values (odometry composition from pose 0's ground truth).
    pub fn full_graph(&self) -> (FactorGraph, Values) {
        let steps = self.online_steps();
        let mut graph = FactorGraph::new();
        let mut values = Values::new();
        for (i, s) in steps.into_iter().enumerate() {
            let init = s.initial_guess(i, |key| values.get(key).clone());
            values.insert(init);
            for f in s.factors {
                graph.add(f);
            }
        }
        (graph, values)
    }

    /// Truncates to the first `n` poses (and the edges among them) — the
    /// `--scale` mechanism of the bench harness.
    pub fn truncated(&self, n: usize) -> Dataset {
        let n = n.min(self.num_steps()).max(1);
        Dataset {
            name: format!("{}[0..{n}]", self.name),
            ground_truth: self.ground_truth[..n].to_vec(),
            edges: self.edges.iter().filter(|e| e.to < n).cloned().collect(),
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use supernova_factors::Se2;

    fn tiny() -> Dataset {
        let truth = vec![
            Variable::Se2(Se2::identity()),
            Variable::Se2(Se2::new(1.0, 0.0, 0.0)),
            Variable::Se2(Se2::new(2.0, 0.0, 0.0)),
        ];
        let edges = vec![
            Edge {
                from: 0,
                to: 1,
                measurement: Variable::Se2(Se2::new(1.0, 0.0, 0.0)),
                sigmas: vec![0.1; 3],
            },
            Edge {
                from: 1,
                to: 2,
                measurement: Variable::Se2(Se2::new(1.0, 0.0, 0.0)),
                sigmas: vec![0.1; 3],
            },
            Edge {
                from: 0,
                to: 2,
                measurement: Variable::Se2(Se2::new(2.0, 0.0, 0.0)),
                sigmas: vec![0.2; 3],
            },
        ];
        Dataset::from_parts("tiny", PoseKind::Planar, truth, edges, 0.01)
    }

    #[test]
    fn online_steps_partition_factors_by_arrival() {
        let ds = tiny();
        let steps = ds.online_steps();
        assert_eq!(steps.len(), 3);
        assert_eq!(steps[0].factors.len(), 1); // prior
        assert_eq!(steps[1].factors.len(), 1); // odometry 0→1
        assert_eq!(steps[2].factors.len(), 2); // odometry 1→2 + LC 0→2
        assert!(steps[1].odometry.is_some());
        assert!(steps[0].odometry.is_none());
    }

    #[test]
    fn loop_closure_classification() {
        let ds = tiny();
        assert_eq!(ds.num_loop_closures(), 1);
        assert_eq!(ds.num_edges(), 3);
    }

    #[test]
    fn truncation_drops_out_of_range_edges() {
        let ds = tiny().truncated(2);
        assert_eq!(ds.num_steps(), 2);
        assert_eq!(ds.num_edges(), 1);
        assert!(ds.name().contains("tiny"));
    }

    #[test]
    fn full_graph_covers_everything() {
        let (graph, values) = tiny().full_graph();
        assert_eq!(graph.len(), 4); // prior + 3 edges
        assert_eq!(values.len(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_edge_rejected() {
        let truth = vec![Variable::Se2(Se2::identity())];
        let edges = vec![Edge {
            from: 0,
            to: 5,
            measurement: Variable::Se2(Se2::identity()),
            sigmas: vec![0.1; 3],
        }];
        let _ = Dataset::from_parts("bad", PoseKind::Planar, truth, edges, 0.1);
    }
}
