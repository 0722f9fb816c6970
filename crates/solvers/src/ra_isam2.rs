//! Resource-Aware Incremental Smoothing and Mapping (RA-ISAM2, §4.1) — the
//! paper's core algorithmic contribution.

use std::sync::Arc;

use supernova_factors::{Factor, FactorGraph, Key, Values, Variable};
use supernova_runtime::{RelinCostModel, StepBudget, StepTrace};

use crate::{IncrementalCore, OnlineSolver};

/// RA-ISAM2 options.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RaIsam2Config {
    /// Relevance threshold β below which a variable is never considered.
    pub beta: f64,
    /// Supernode amalgamation slack.
    pub relax: usize,
    /// Target processing deadline per step in seconds (33.3 ms for the
    /// paper's 30 FPS requirement).
    pub target_seconds: f64,
    /// Fraction of the target the selection is allowed to fill; the rest
    /// absorbs cost-model error so the deadline is honored (<1).
    pub safety: f64,
}

impl Default for RaIsam2Config {
    fn default() -> Self {
        RaIsam2Config {
            beta: 0.02,
            relax: 1,
            target_seconds: 1.0 / 30.0,
            safety: 0.8,
        }
    }
}

/// The resource-aware incremental solver.
///
/// Like [`Isam2`](crate::Isam2), but instead of relinearizing *every*
/// variable past β, it greedily selects the highest-relevance variables
/// whose predicted relinearization cost — Algorithm 1's path-cost walk over
/// the elimination tree, priced by the runtime's
/// [`RelinCostModel`] — still fits the per-step deadline. Loop-closure cost
/// is thereby amortized over several steps while every step stays under the
/// target (§4.1).
pub struct RaIsam2 {
    core: IncrementalCore,
    config: RaIsam2Config,
    /// The live budget knob: starts at `target_seconds · safety` and can be
    /// degraded/recovered at runtime (the serving layer's overload policy).
    budget: StepBudget,
    cost: Arc<dyn RelinCostModel>,
    last_selected: usize,
    last_deferred: usize,
    steps_since_reorder: usize,
    selection: Selection,
}

/// The buffers Algorithm 1 reuses across candidates and steps. Every
/// per-node and per-factor vector is re-initialized at the start of a
/// step's selection.
#[derive(Default)]
struct Selection {
    /// Per node: its predicted recompute seconds this step, `NaN` until
    /// first priced. `H` and the symbolic factorization do not change
    /// during selection, so the first price is the price every time.
    price: Vec<f64>,
    /// Per node: on the committed set (the mandatory closure plus the
    /// paths of accepted candidates).
    visited: Vec<bool>,
    /// Per node: the serial of the last candidate whose walk reached it.
    walked: Vec<u32>,
    /// Per factor: already charged to an accepted candidate.
    charged: Vec<bool>,
    candidates: Vec<(Key, f64)>,
    affected: Vec<Key>,
    marginal_nodes: Vec<usize>,
    committed: Vec<usize>,
    selected: Vec<Key>,
}

impl std::fmt::Debug for RaIsam2 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RaIsam2")
            .field("config", &self.config)
            .field("num_vars", &self.core.num_vars())
            .finish()
    }
}

impl RaIsam2 {
    /// Creates an empty solver over the given cost model (obtained from the
    /// runtime for the platform the system runs on).
    pub fn new(config: RaIsam2Config, cost: Arc<dyn RelinCostModel>) -> Self {
        RaIsam2 {
            core: IncrementalCore::new(config.relax),
            config,
            budget: StepBudget::new(config.target_seconds, config.safety),
            cost,
            last_selected: 0,
            last_deferred: 0,
            steps_since_reorder: 0,
            selection: Selection::default(),
        }
    }

    /// The live per-step budget (including its degradation level).
    pub fn budget(&self) -> StepBudget {
        self.budget
    }

    /// Mutable access to the budget knob, e.g. to degrade a session under
    /// server overload. Takes effect from the next [`step`](OnlineSolver::step).
    pub fn budget_mut(&mut self) -> &mut StepBudget {
        &mut self.budget
    }

    /// The underlying incremental engine.
    pub fn core(&self) -> &IncrementalCore {
        &self.core
    }

    /// Mutable access to the engine, e.g. to install a host executor with
    /// [`IncrementalCore::set_executor`] before replaying a dataset.
    pub fn core_mut(&mut self) -> &mut IncrementalCore {
        &mut self.core
    }

    /// Variables selected for relinearization in the last step.
    pub fn last_selected(&self) -> usize {
        self.last_selected
    }

    /// Variables past β that the last step deferred to stay on budget.
    pub fn last_deferred(&self) -> usize {
        self.last_deferred
    }
}

impl OnlineSolver for RaIsam2 {
    fn step(&mut self, new_variable: Variable, factors: Vec<Factor>) -> StepTrace {
        self.core.add_variable(new_variable);
        for f in factors {
            self.core.add_factor(f);
        }
        let budget = self.budget.effective_seconds();

        // Budget-gated fill-reducing reordering: only commit when the
        // resulting one-time full re-factorization itself fits well inside
        // the deadline (RA must never trade a reorder for a missed frame).
        self.steps_since_reorder += 1;
        if self.core.fill_ratio() > crate::isam2::REORDER_FILL_RATIO
            && self.steps_since_reorder >= crate::isam2::REORDER_MIN_PERIOD
        {
            if let Some(plan) = self.core.reorder_candidate() {
                let full: f64 = plan
                    .symbolic()
                    .nodes()
                    .iter()
                    .map(|n| self.cost.predict_node_seconds(n.pivot_dim, n.rem_dim, 0))
                    .sum();
                if full <= 0.5 * budget {
                    self.core.apply_reorder(plan);
                    self.steps_since_reorder = 0;
                }
            }
        }

        // Relinearization does not change the sparsity structure, so one
        // symbolic analysis serves both cost estimation and factorization.
        self.core.analyze();
        let (deferred, nodes_visited) = select(
            &self.core,
            self.cost.as_ref(),
            self.config.beta,
            budget,
            &mut self.selection,
        );
        self.last_selected = self.selection.selected.len();
        self.last_deferred = deferred;

        self.core.relinearize_vars(&self.selection.selected);
        let mut trace = self.core.factorize_and_solve();
        trace.selection_nodes_visited = nodes_visited;
        trace
    }

    fn pose_estimate(&self, key: Key) -> Variable {
        self.core.pose_estimate(key)
    }

    fn estimate(&self) -> Values {
        self.core.estimate()
    }

    fn num_poses(&self) -> usize {
        self.core.num_vars()
    }

    fn name(&self) -> &'static str {
        "RA-ISAM2"
    }
}

/// Algorithm 1's greedy selection (§4.1): charges the mandatory work (the
/// ancestor closure of the dirty nodes, the solve, its symbolic analysis
/// and the pending relinearization) against `budget`, then takes
/// candidates past β in descending relevance while each one's marginal
/// cost still fits. The chosen variables are left in `sel.selected`;
/// returns `(deferred, nodes_visited)`.
///
/// Every node is priced at most once per call (`sel.price`), and the
/// visited, per-candidate and per-factor sets are flag vectors, so the
/// walk allocates nothing once its buffers have grown. The walk order — and
/// with it the order of each float sum — is the order of the set-based
/// walk it replaced, so the selection is the same bit for bit.
fn select(
    core: &IncrementalCore,
    cost: &dyn RelinCostModel,
    beta: f64,
    budget: f64,
    sel: &mut Selection,
) -> (usize, usize) {
    // lint: allow(unwrap) — the caller ran core.analyze()
    let sym = core.symbolic().expect("analyzed");
    let nodes = sym.nodes();
    let graph = core.graph();
    let Selection {
        price,
        visited,
        walked,
        charged,
        candidates,
        affected,
        marginal_nodes,
        committed,
        selected,
    } = sel;
    price.clear();
    price.resize(nodes.len(), f64::NAN);
    visited.clear();
    visited.resize(nodes.len(), false);
    walked.clear();
    walked.resize(nodes.len(), 0);
    charged.clear();
    charged.resize(graph.len(), false);
    selected.clear();
    let mut node_cost = |s: usize| {
        if price[s].is_nan() {
            let info = &nodes[s];
            price[s] = cost.predict_node_seconds(
                info.pivot_dim,
                info.rem_dim,
                core.node_factor_bytes(info),
            );
        }
        price[s]
    };

    // Mandatory work: the new pose's factors already dirtied a path
    // (everything, right after a reorder invalidated the cache).
    if core.has_numeric_cache() {
        for b in core.dirty_block_iter() {
            sym.mark_ancestors(sym.node_of_block(b), visited);
        }
    } else {
        visited.fill(true);
    }
    committed.clear();
    committed.extend((0..nodes.len()).filter(|&s| visited[s]));
    let (pending_elems, pending_factors) = core.pending_relin();
    let mut spent = committed.iter().map(|&s| node_cost(s)).sum::<f64>()
        + cost.solve_seconds(sym.l_nnz_scalars())
        + cost.symbolic_seconds(sym.pattern_size_of_nodes(committed))
        + cost.relin_seconds(pending_elems, pending_factors);
    let mut nodes_visited = committed.len();

    // Candidates in descending relevance order (the greedy of §4.1).
    candidates.clear();
    candidates.extend(
        (0..core.num_vars())
            .map(Key)
            .map(|k| (k, core.relevance(k)))
            .filter(|&(_, s)| s > beta),
    );
    // lint: allow(unwrap) — scores are sums of finite residuals
    candidates.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite scores"));

    let mut deferred = 0usize;
    for (ci, &(cand, _)) in candidates.iter().enumerate() {
        if spent >= budget {
            deferred += candidates.len() - ci;
            break;
        }
        // Algorithm 1: the variables sharing a factor with the candidate,
        // and the paths from their nodes to the root, stopping at nodes
        // already committed or already walked for this candidate.
        affected_variables(graph, cand, affected);
        let serial = ci as u32 + 1;
        marginal_nodes.clear();
        for &u in affected.iter() {
            let mut cur = Some(sym.node_of_block(core.block_of_key(u)));
            while let Some(s) = cur {
                if visited[s] || walked[s] == serial {
                    break;
                }
                walked[s] = serial;
                marginal_nodes.push(s);
                cur = nodes[s].parent;
            }
        }
        nodes_visited += marginal_nodes.len().max(1);
        let (mut relin_elems, mut relin_factors) = (0usize, 0usize);
        for &fi in graph.factors_of(cand) {
            if !charged[fi] {
                relin_elems += core.factor_jacobian_elems(fi);
                relin_factors += 1;
            }
        }
        let marginal = marginal_nodes.iter().map(|&s| node_cost(s)).sum::<f64>()
            + cost.relin_seconds(relin_elems, relin_factors)
            + cost.symbolic_seconds(sym.pattern_size_of_nodes(marginal_nodes));
        if spent + marginal <= budget {
            spent += marginal;
            for &s in marginal_nodes.iter() {
                visited[s] = true;
            }
            for &fi in graph.factors_of(cand) {
                charged[fi] = true;
            }
            selected.push(cand);
        } else {
            deferred += 1;
        }
    }
    (deferred, nodes_visited)
}

/// Algorithm 1, line 2, into `out`: every variable that shares a factor
/// with `key` (excluding `key`), ascending and deduplicated, then `key`
/// itself.
fn affected_variables(graph: &FactorGraph, key: Key, out: &mut Vec<Key>) {
    out.clear();
    for &fi in graph.factors_of(key) {
        out.extend(graph.factor(fi).keys().iter().filter(|&&k| k != key));
    }
    out.sort_unstable();
    out.dedup();
    out.push(key);
}

#[cfg(test)]
mod tests {
    use super::*;
    use supernova_factors::{BetweenFactor, NoiseModel, PriorFactor, Se2};
    use supernova_hw::Platform;
    use supernova_runtime::CostModel;

    fn solver_with(target: f64) -> RaIsam2 {
        let cost = Arc::new(CostModel::new(Platform::supernova(2)));
        RaIsam2::new(
            RaIsam2Config {
                target_seconds: target,
                ..RaIsam2Config::default()
            },
            cost,
        )
    }

    fn drive_line(solver: &mut RaIsam2, n: usize) -> Vec<Se2> {
        let truth: Vec<Se2> = (0..n).map(|i| Se2::new(i as f64, 0.0, 0.0)).collect();
        for i in 0..n {
            let mut factors: Vec<Factor> = Vec::new();
            if i == 0 {
                factors.push(
                    PriorFactor::se2(Key(0), truth[0], NoiseModel::isotropic(3, 0.01)).into(),
                );
            } else {
                let z = truth[i - 1].inverse().compose(truth[i]);
                factors.push(
                    BetweenFactor::se2(Key(i - 1), Key(i), z, NoiseModel::isotropic(3, 0.05))
                        .into(),
                );
            }
            // Slightly corrupted initial guess.
            let init = truth[i].compose(Se2::new(0.03, -0.02, 0.01));
            solver.step(Variable::Se2(init), factors);
        }
        truth
    }

    #[test]
    fn affected_variables_excludes_the_key_and_dedups() {
        let noise = || NoiseModel::isotropic(3, 0.1);
        let mut graph = FactorGraph::new();
        graph.add(PriorFactor::se2(Key(0), Se2::identity(), noise()));
        for i in 1..4 {
            graph.add(BetweenFactor::se2(
                Key(i - 1),
                Key(i),
                Se2::new(1.0, 0.0, 0.0),
                noise(),
            ));
        }
        // Two parallel edges to a fifth variable.
        for _ in 0..2 {
            graph.add(BetweenFactor::se2(Key(1), Key(4), Se2::identity(), noise()));
        }
        let mut out = vec![Key(7)];
        affected_variables(&graph, Key(1), &mut out);
        assert_eq!(out, vec![Key(0), Key(2), Key(4), Key(1)]);
    }

    #[test]
    fn generous_budget_behaves_like_isam2() {
        let mut solver = solver_with(10.0); // effectively unconstrained
        let truth = drive_line(&mut solver, 20);
        let est = solver.estimate();
        for (i, t) in truth.iter().enumerate() {
            let p = est.get(Key(i)).as_se2().copied().unwrap();
            assert!(
                p.translation_distance(t) < 0.05,
                "pose {i}: {}",
                p.translation_distance(t)
            );
        }
        assert_eq!(solver.last_deferred(), 0);
    }

    #[test]
    fn tiny_budget_defers_relinearization() {
        let mut tight = solver_with(1e-7);
        drive_line(&mut tight, 25);
        let mut loose = solver_with(10.0);
        drive_line(&mut loose, 25);
        assert!(
            tight.last_selected() <= loose.last_selected(),
            "tight budget selected more ({}) than loose ({})",
            tight.last_selected(),
            loose.last_selected()
        );
    }

    #[test]
    fn selection_overhead_is_reported() {
        let mut solver = solver_with(1.0 / 30.0);
        let truth: Vec<Se2> = (0..5).map(|i| Se2::new(i as f64, 0.0, 0.0)).collect();
        let mut last = StepTrace::default();
        for i in 0..5 {
            let mut factors: Vec<Factor> = Vec::new();
            if i == 0 {
                factors.push(
                    PriorFactor::se2(Key(0), truth[0], NoiseModel::isotropic(3, 0.01)).into(),
                );
            } else {
                let z = truth[i - 1].inverse().compose(truth[i]);
                factors.push(
                    BetweenFactor::se2(Key(i - 1), Key(i), z, NoiseModel::isotropic(3, 0.05))
                        .into(),
                );
            }
            last = solver.step(Variable::Se2(truth[i]), factors);
        }
        assert!(last.selection_nodes_visited > 0);
    }
}
