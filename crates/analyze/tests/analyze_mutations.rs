//! Mutation tests for the static-analysis layer: corrupt the thing each
//! checker guards and assert the checker rejects it with the right id.
//!
//! One half mutates real [`ExecutionPlan`]s (level hoists, scatter-bounds
//! escapes, level-table corruption) and crafted access sets, asserting the
//! interference checker reports the precise violation kind and that issued
//! certificates stop covering mutated plans. The other half feeds each new
//! lint rule a minimal source fixture containing exactly the defect it
//! exists to catch, asserting the finding carries the right [`Rule`] id.

use supernova_analyze::interference::{
    certify, check_accesses, Access, AccessKind, InterferenceKind, Region, Resource,
};
use supernova_analyze::{lint_file, lint_file_diag, Rule};
use supernova_sparse::{BlockPattern, ExecutionPlan, SymbolicFactor};

/// The loopy 8-block fixture: a chain with three long-range edges, giving
/// a multi-level plan with real extend-add scatter programs.
fn plan() -> ExecutionPlan {
    let mut p = BlockPattern::new(vec![2, 3, 1, 2, 2, 3, 1, 2]);
    for i in 0..7 {
        p.add_block_edge(i, i + 1);
    }
    p.add_block_edge(0, 5);
    p.add_block_edge(2, 7);
    p.add_block_edge(3, 6);
    ExecutionPlan::from_symbolic(&SymbolicFactor::analyze(&p, 0))
}

fn kinds(violations: &[supernova_analyze::interference::InterferenceViolation]) -> Vec<&str> {
    violations.iter().map(|v| v.kind.id()).collect()
}

#[test]
fn pristine_plan_certifies_and_mutants_escape_the_certificate() {
    let pristine = plan();
    let cert = certify(&pristine).expect("pristine plan must certify");
    assert!(cert.covers(&pristine));

    // Any structural edit must change the fingerprint: a stale certificate
    // silently covering a mutated plan would let the executor batch an
    // unproven schedule.
    let mut mutant = plan();
    if let Some(mg) = mutant
        .tasks_mut()
        .iter_mut()
        .find_map(|t| t.merges.first_mut())
    {
        if let Some(b) = mg.blocks.first_mut() {
            b.dst_row += 1;
        }
    }
    assert!(
        !cert.covers(&mutant),
        "edited scatter target must void the certificate"
    );
}

#[test]
fn hoisting_a_merged_child_into_its_parents_level_is_rejected() {
    let mut mutant = plan();
    // Pick a parent that merges a child with a live update block.
    let (parent, child) = mutant
        .tasks()
        .iter()
        .find_map(|t| {
            t.merges
                .iter()
                .find(|mg| mutant.tasks()[mg.child].rem_dim > 0)
                .map(|mg| (t.node, mg.child))
        })
        .expect("fixture plan has a merge of a child with rem_dim > 0");
    let parent_level = mutant.tasks()[parent].level;
    let child_level = mutant.tasks()[child].level;
    assert!(child_level < parent_level);

    // Move the child into the parent's level — table and task field kept
    // consistent, so this models a scheduler bug, not table corruption.
    mutant.levels_mut()[child_level].retain(|&s| s != child);
    mutant.levels_mut()[parent_level].push(child);
    mutant.tasks_mut()[child].level = parent_level;

    let violations = certify(&mutant).expect_err("hoisted child must be rejected");
    let ks = kinds(&violations);
    assert!(
        ks.contains(&"same-level-conflict"),
        "parent reads the child's update inside one level: {violations:?}"
    );
    assert!(
        ks.contains(&"level-partition"),
        "merge child no longer strictly below its parent: {violations:?}"
    );
}

#[test]
fn scatter_block_escaping_its_source_is_rejected() {
    let mut mutant = plan();
    let rem_of: Vec<usize> = mutant.tasks().iter().map(|t| t.rem_dim).collect();
    let b = mutant
        .tasks_mut()
        .iter_mut()
        .find_map(|t| {
            t.merges
                .iter_mut()
                .filter(|mg| rem_of[mg.child] > 0)
                .find_map(|mg| mg.blocks.first_mut().map(|b| (b, rem_of[mg.child])))
        })
        .expect("fixture plan has scatter blocks");
    b.0.src_row += b.1; // push the read window past the child's update
    let violations = certify(&mutant).expect_err("out-of-bounds scatter must be rejected");
    assert!(
        kinds(&violations).contains(&"bounds"),
        "expected a bounds violation: {violations:?}"
    );
}

#[test]
fn corrupting_the_level_table_is_rejected() {
    // Task level field disagrees with the table.
    let mut mutant = plan();
    mutant.tasks_mut()[0].level += 1;
    let violations = certify(&mutant).expect_err("level mismatch must be rejected");
    assert!(
        kinds(&violations).contains(&"level-partition"),
        "{violations:?}"
    );

    // A task listed twice in the table.
    let mut mutant = plan();
    let dup = mutant.levels()[0][0];
    mutant.levels_mut()[0].push(dup);
    let violations = certify(&mutant).expect_err("duplicate task must be rejected");
    assert!(
        kinds(&violations).contains(&"level-partition"),
        "{violations:?}"
    );
}

#[test]
fn crafted_access_overlaps_carry_the_right_kind() {
    let region = |row: usize, rows: usize| Region {
        row,
        col: 0,
        rows,
        cols: 4,
    };
    // Overlapping writes to one resource — rejected at any level distance.
    let w = |task: usize, row: usize| Access {
        task,
        resource: Resource::FactorNode(2),
        kind: AccessKind::Write,
        region: region(row, 3),
    };
    let v = check_accesses(&[w(0, 0), w(1, 2)], &[0, 1]);
    assert_eq!(kinds(&v), ["write-write"]);
    assert_eq!(v[0].kind, InterferenceKind::WriteWrite);

    // Disjoint writes to the same resource are fine.
    assert!(check_accesses(&[w(0, 0), w(1, 4)], &[0, 1]).is_empty());

    // A read scheduled below its writer's level.
    let v = check_accesses(
        &[
            Access {
                task: 5,
                resource: Resource::Update(5),
                kind: AccessKind::Write,
                region: Region::all(),
            },
            Access {
                task: 1,
                resource: Resource::Update(5),
                kind: AccessKind::Read,
                region: Region::all(),
            },
        ],
        &[0, 0, 0, 0, 0, 3],
    );
    assert_eq!(kinds(&v), ["read-before-write"]);
}

// --- lint rule fixtures -------------------------------------------------

#[test]
fn panic_path_fixture_caught_with_right_rule_id() {
    let fixture = "fn decode(buf: &[u8]) -> u8 {\n    let b = buf[0];\n    b\n}\n";
    let v = lint_file("crates/trace/src/wire.rs", fixture);
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, Rule::PanicPath);
    assert_eq!(v[0].rule.id(), "panic-path");
    assert_eq!(v[0].line, 2);

    let unwrap_fixture = "fn decode(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n";
    let v = lint_file("crates/serve/src/protocol.rs", unwrap_fixture);
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, Rule::PanicPath);

    // Outside the panic-path scope the same source reports under `unwrap`.
    let v = lint_file("crates/metrics/src/lib.rs", unwrap_fixture);
    assert!(v.iter().any(|v| v.rule == Rule::Unwrap), "{v:?}");
}

#[test]
fn wall_clock_fixture_caught_with_right_rule_id() {
    let fixture = "fn stamp() -> f64 {\n    let t = Instant::now();\n    0.0\n}\n";
    let v = lint_file("crates/solvers/src/engine.rs", fixture);
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, Rule::WallClock);
    assert_eq!(v[0].rule.id(), "wall-clock");

    let sys = "use std::time::SystemTime;\n";
    let v = lint_file("crates/serve/src/session.rs", sys);
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, Rule::WallClock);

    // The trace epoch clock owns wall time.
    assert!(lint_file("crates/trace/src/clock.rs", fixture).is_empty());
}

#[test]
fn lock_order_fixture_caught_with_right_rule_id() {
    // The executor's one ranked lock, taken again while already held. (No
    // file declares two ranked locks any more, so the declared table cannot
    // show an inversion; the rule's own unit test covers ordering.)
    let fixture = "fn f(pool: &M) {\n    let g = pool.lock().unwrap();\n    let q = pool.lock().unwrap();\n}\n";
    let d = lint_file_diag("crates/sparse/src/executor.rs", fixture);
    let lock: Vec<_> = d
        .violations
        .iter()
        .filter(|v| v.rule == Rule::LockOrder)
        .collect();
    assert_eq!(lock.len(), 1, "{d:?}");
    assert_eq!(lock[0].rule.id(), "lock-order");
    assert_eq!(lock[0].line, 3);
}

#[test]
fn hash_iteration_fixture_caught_in_widened_scope() {
    let fixture = "use std::collections::HashMap;\n";
    for file in [
        "crates/serve/src/dispatch_fixture.rs",
        "crates/trace/src/tracer_fixture.rs",
        "crates/factors/src/values_fixture.rs",
    ] {
        let v = lint_file(file, fixture);
        assert_eq!(v.len(), 1, "{file}");
        assert_eq!(v[0].rule, Rule::HashIteration);
        assert_eq!(v[0].rule.id(), "hash-iteration");
    }
    // The dataset generators stay out of scope (bucketing with sorted
    // drains is the documented exception).
    assert!(lint_file("crates/datasets/src/cab.rs", fixture).is_empty());
}

#[test]
fn allow_above_multi_line_statement_suppresses_the_whole_statement() {
    // Regression for the engine-v1 off-by-one: the allow sat above the
    // statement, the violating token on a continuation line two lines
    // down, and the finding escaped suppression.
    let src = "// lint: allow(panic-path) — header is length-checked above\n\
               let tag = frame\n\
               \u{20}   .header()\n\
               \u{20}   .bytes[0];\n";
    let d = lint_file_diag("crates/trace/src/wire.rs", src);
    assert!(d.violations.is_empty(), "{:?}", d.violations);
    assert_eq!(d.allowed.len(), 1);
    assert_eq!(d.allowed[0].allow_line, 1);
    assert_eq!(d.allowed[0].violation.line, 4);
    assert_eq!(d.allowed[0].violation.rule, Rule::PanicPath);
}
