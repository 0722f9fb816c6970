//! Prefix reuse against the from-scratch oracle: growing a pattern the way
//! an online solver does (push a block, add cliques) and re-analyzing with
//! `SymbolicFactor::reanalyze` / `ExecutionPlan::update` from the lowest
//! changed column must give exactly what `SymbolicFactor::analyze` /
//! `ExecutionPlan::from_symbolic` derive from nothing — after every
//! mutation, for every amalgamation slack.

use supernova_linalg::rng::XorShift64;
use supernova_sparse::interference::plan_fingerprint;
use supernova_sparse::{BlockPattern, ExecutionPlan, SymbolicFactor};

/// The incrementally maintained pair plus the change tracking the solver
/// engine does: the lowest column that gained an entry since the last
/// re-analysis.
struct Tracked {
    pattern: BlockPattern,
    relax: usize,
    sym: SymbolicFactor,
    plan: ExecutionPlan,
    lowest: Option<usize>,
}

impl Tracked {
    fn new(relax: usize) -> Self {
        let pattern = BlockPattern::new(Vec::new());
        let sym = SymbolicFactor::analyze(&pattern, relax);
        let plan = ExecutionPlan::from_symbolic(&sym);
        Tracked {
            pattern,
            relax,
            sym,
            plan,
            lowest: None,
        }
    }

    fn note(&mut self, col: usize) {
        self.lowest = Some(self.lowest.map_or(col, |l| l.min(col)));
    }

    fn push_block(&mut self, dim: usize) -> usize {
        let j = self.pattern.push_block(dim);
        self.note(j);
        j
    }

    fn add_clique(&mut self, blocks: &[usize]) {
        if let Some(col) = self.pattern.add_clique(blocks) {
            self.note(col);
        }
    }

    /// Re-analyzes from the lowest changed column and checks the result
    /// against the oracle. Returns that column and what the re-analysis
    /// met on the way.
    fn reanalyze_and_check(&mut self, what: &str) -> Option<(usize, Met)> {
        let k = self.lowest.take()?;
        let open_node = k > 0
            && k < self.sym.num_blocks()
            && self.sym.node_of_block(k - 1) == self.sym.node_of_block(k);
        let old_parents: Vec<_> = self.sym.nodes().iter().map(|node| node.parent).collect();
        let closed_before = match k.min(self.sym.num_blocks()) {
            0 => 0,
            k => self.sym.node_of_block(k - 1),
        };
        let sym = std::mem::take(&mut self.sym).reanalyze(&self.pattern, self.relax, k);
        let plan = std::mem::take(&mut self.plan).update(&sym, k);

        let oracle_sym = SymbolicFactor::analyze(&self.pattern, self.relax);
        let oracle_plan = ExecutionPlan::from_symbolic(&oracle_sym);
        let n = self.pattern.num_blocks();
        assert_eq!(sym, oracle_sym, "{what}: symbolic, n = {n}, k = {k}");
        assert_eq!(plan, oracle_plan, "{what}: plan, n = {n}, k = {k}");
        assert_eq!(
            plan_fingerprint(&plan),
            plan_fingerprint(&oracle_plan),
            "{what}: fingerprint, n = {n}, k = {k}"
        );
        let renumbered_parent = (0..closed_before).any(|s| sym.nodes()[s].parent != old_parents[s]);
        self.sym = sym;
        self.plan = plan;
        Some((
            k,
            Met {
                open_node,
                renumbered_parent,
            },
        ))
    }
}

/// The two cases of a re-analysis that reuse does not get for free.
#[derive(Clone, Copy, Default)]
struct Met {
    /// The supernode holding the lowest changed column also owned the
    /// column before it: it is still open across the boundary, so the
    /// partition scan restarts inside the kept columns.
    open_node: bool,
    /// A kept supernode's parent lies in the re-derived range and came
    /// out with a different number.
    renumbered_parent: bool,
}

/// The amalgamation slacks every sequence runs under.
const RELAX: [usize; 3] = [0, 1, 4];

/// The shape of a growth sequence.
#[derive(Clone, Copy)]
enum Shape {
    /// Every new block is chained to its predecessor, as odometry does: the
    /// elimination tree is a path.
    Chain,
    /// A pose chain plus landmark blocks that enter unconnected and are
    /// first observed by a later pose: leaves whose parent sits near the
    /// end of the order, so kept supernodes see their parents renumbered.
    Landmarks,
    /// A chain of wide blocks, whose fronts run to hundreds of scalars.
    WideChain,
}

/// Random online growth: every step pushes a pose block chained to the
/// previous pose, then adds random loop-closure cliques. Returns how many
/// re-analyses restarted inside an open supernode, how many renumbered a
/// kept node's parent, and the widest front any plan carried.
fn grow(seed: u64, relax: usize, steps: usize, shape: Shape) -> (usize, usize, usize) {
    let mut rng = XorShift64::seed_from_u64(seed);
    let mut t = Tracked::new(relax);
    let (mut open_nodes, mut renumbered, mut widest) = (0usize, 0usize, 0usize);
    let mut last_pose: Option<usize> = None;
    let mut unseen: Vec<usize> = Vec::new();
    for step in 0..steps {
        let landmarks = matches!(shape, Shape::Landmarks);
        if landmarks && rng.gen_index(3) == 0 {
            unseen.push(t.push_block(1 + rng.gen_index(3)));
        }
        let dim = match shape {
            Shape::WideChain => 8 + rng.gen_index(25),
            Shape::Chain | Shape::Landmarks => 1 + rng.gen_index(6),
        };
        let j = t.push_block(dim);
        if let Some(prev) = last_pose.replace(j) {
            t.add_clique(&[prev, j]);
        }
        if !unseen.is_empty() && rng.gen_index(2) == 0 {
            let lm = unseen.swap_remove(rng.gen_index(unseen.len()));
            t.add_clique(&[lm, j]);
        }
        let what = format!("seed {seed:#x} relax {relax} step {step}");
        // Half the steps re-analyze between the odometry edge and the
        // closures, so the tracked column is often the appended one.
        if rng.gen_index(2) == 0 {
            t.reanalyze_and_check(&what);
        }
        // Closures: anywhere on the chains; among the latest blocks when
        // there are landmarks, so that the leaves stay in the kept prefix.
        let lo = if landmarks { j.saturating_sub(7) } else { 0 };
        for _ in 0..rng.gen_index(3) {
            let mut pick = || lo + rng.gen_index(j + 1 - lo);
            let (a, b, c) = (pick(), pick(), pick());
            if rng.gen_index(4) == 0 {
                t.add_clique(&[a, b, c]);
            } else {
                t.add_clique(&[a, b]);
            }
        }
        if let Some((_, met)) = t.reanalyze_and_check(&what) {
            open_nodes += usize::from(met.open_node);
            renumbered += usize::from(met.renumbered_parent);
        }
        let front = t.plan.tasks().iter().map(|task| task.front_dim()).max();
        widest = widest.max(front.unwrap_or(0));
    }
    (open_nodes, renumbered, widest)
}

#[test]
fn random_growth_matches_the_oracle_after_every_mutation() {
    let (mut open_nodes, mut renumbered) = (0usize, 0usize);
    for relax in RELAX {
        for case in 0..18u64 {
            let shape = if case % 2 == 0 {
                Shape::Chain
            } else {
                Shape::Landmarks
            };
            let (open, renum, _) = grow(0x1ac0_0000 + case, relax, 40, shape);
            open_nodes += open;
            renumbered += renum;
        }
    }
    // The sequences must have exercised the hard cases, not just passed.
    assert!(
        open_nodes > 20,
        "only {open_nodes} re-analyses restarted inside an open supernode"
    );
    assert!(
        renumbered > 20,
        "only {renumbered} re-analyses renumbered a kept supernode's parent"
    );
}

#[test]
fn wide_fronts_match_the_oracle() {
    let mut widest = 0usize;
    for relax in RELAX {
        for case in 0..3u64 {
            let (_, _, w) = grow(0x5b11_0000 + case, relax, 24, Shape::WideChain);
            widest = widest.max(w);
        }
    }
    // Two kernel panels (96 scalars) and more, or the shape tests nothing
    // the narrow chains do not.
    assert!(widest >= 96, "widest front only {widest} scalars");
}

/// The two ends of the rule and the open-node boundary, spelled out.
#[test]
fn boundary_columns_first_last_and_inside_an_open_node() {
    for relax in RELAX {
        let mut t = Tracked::new(relax);
        for j in 0..12 {
            t.push_block(2 + j % 3);
            if j > 0 {
                t.add_clique(&[j - 1, j]);
            }
        }
        assert_eq!(t.reanalyze_and_check("chain").map(|(k, _)| k), Some(0));

        // Lowest changed column = n − 1: a block appended with no edge.
        let last = t.push_block(3);
        let (k, _) = t.reanalyze_and_check("appended only").expect("changed");
        assert_eq!(k, last);

        // Lowest changed column = 0: everything is re-derived.
        t.add_clique(&[0, last]);
        let (k, _) = t.reanalyze_and_check("first column").expect("changed");
        assert_eq!(k, 0);

        // A dense tail: relaxed or not, the last columns amalgamate into
        // one supernode.
        let n = t.pattern.num_blocks();
        t.add_clique(&[n - 4, n - 3, n - 2, n - 1]);
        t.reanalyze_and_check("dense tail");
        assert_eq!(
            t.sym.node_of_block(n - 3),
            t.sym.node_of_block(n - 2),
            "tail columns share a supernode"
        );
        // A change landing in column n − 2 finds that node open across the
        // boundary: column n − 3 is kept, yet its node must be rebuilt.
        let next = t.push_block(2);
        t.add_clique(&[n - 2, next]);
        let (k, met) = t
            .reanalyze_and_check("inside an open node")
            .expect("changed");
        assert_eq!(k, n - 2);
        assert!(
            met.open_node,
            "relax {relax}: boundary fell between supernodes"
        );

        // Nothing changed: nothing to do.
        assert!(t.reanalyze_and_check("idle").is_none());
        // An edge that already exists changes nothing either.
        t.add_clique(&[0, 1]);
        assert!(t.lowest.is_none());
    }
}

/// A kept supernode whose parent lies in the re-derived range gets the
/// parent's new number: the one field of a kept node (and of its plan
/// task) that is not its own.
#[test]
fn kept_nodes_follow_their_renumbered_parents() {
    let mut t = Tracked::new(0);
    for _ in 0..4 {
        t.push_block(1);
    }
    t.add_clique(&[0, 3]);
    t.add_clique(&[1, 2]);
    t.reanalyze_and_check("forest");
    // Nodes {0}, {1, 2}, {3}: column 0's parent is the third node.
    assert_eq!(t.sym.nodes()[0].parent, Some(2));

    // Column 2 gains a row: {1, 2} no longer amalgamates, every later
    // node shifts by one, and node {0} — closed before column 1, so kept —
    // must point at the shifted number.
    let j = t.push_block(1);
    t.add_clique(&[2, j]);
    let (k, met) = t.reanalyze_and_check("split node").expect("changed");
    assert_eq!(k, 2);
    assert!(met.renumbered_parent);
    assert_eq!(t.sym.nodes()[0].parent, Some(3));
    assert_eq!(t.plan.tasks()[0].parent, Some(3));
}
