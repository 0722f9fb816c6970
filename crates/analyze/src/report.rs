//! Machine-readable diagnostics report for the `analyze` driver.
//!
//! A [`Json`] tree with a deterministic field and element order, so CI can
//! archive the report as an artifact and diff it across runs: lint
//! findings and allow-escape provenance from [`crate::lint`], plus the
//! per-dataset plan certification sweep from [`crate::interference`].

use supernova_trace::json::Json;

use crate::interference::DatasetCertification;
use crate::lint::{AllowedViolation, Diagnostics, Violation};

/// Report schema version, bumped on any structural change.
pub const REPORT_VERSION: u32 = 1;

fn violation_json(v: &Violation) -> Json {
    Json::obj([
        ("rule", v.rule.id().into()),
        ("severity", v.rule.severity().into()),
        ("file", v.file.display().to_string().into()),
        ("line", v.line.into()),
        ("col", v.col.into()),
        ("message", v.message.as_str().into()),
    ])
}

fn allowed_json(a: &AllowedViolation) -> Json {
    let v = &a.violation;
    Json::obj([
        ("rule", v.rule.id().into()),
        ("file", v.file.display().to_string().into()),
        ("line", v.line.into()),
        ("col", v.col.into()),
        ("allow_line", a.allow_line.into()),
        ("message", v.message.as_str().into()),
    ])
}

fn cert_json(c: &DatasetCertification) -> Json {
    let violations = c
        .violations
        .iter()
        .map(|v| {
            Json::obj([
                ("kind", v.kind.id().into()),
                ("task_a", v.task_a.into()),
                ("task_b", v.task_b.into()),
                ("message", v.message.as_str().into()),
            ])
        })
        .collect();
    Json::obj([
        ("dataset", c.dataset.as_str().into()),
        ("steps", c.steps.into()),
        ("tasks", c.num_tasks.into()),
        ("levels", c.num_levels.into()),
        ("fingerprint", format!("{:#018x}", c.fingerprint).into()),
        ("certified", c.certified.into()),
        ("violations", Json::Arr(violations)),
    ])
}

/// Renders the full diagnostics report as a JSON document with a trailing
/// newline. Element order follows the deterministic scan order of the
/// producers, so byte-identical inputs yield byte-identical reports.
pub fn render_json(diags: &Diagnostics, certs: &[DatasetCertification]) -> String {
    let summary = Json::obj([
        ("violations", diags.violations.len().into()),
        ("allowed", diags.allowed.len().into()),
        (
            "datasets_certified",
            certs.iter().filter(|c| c.certified).count().into(),
        ),
        ("datasets_total", certs.len().into()),
    ]);
    let lint = Json::obj([
        (
            "violations",
            Json::Arr(diags.violations.iter().map(violation_json).collect()),
        ),
        (
            "allowed",
            Json::Arr(diags.allowed.iter().map(allowed_json).collect()),
        ),
    ]);
    Json::obj([
        ("version", REPORT_VERSION.into()),
        ("summary", summary),
        ("lint", lint),
        (
            "interference",
            Json::Arr(certs.iter().map(cert_json).collect()),
        ),
    ])
    .write()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::lint_file_diag;

    #[test]
    fn report_is_valid_shaped_json_and_deterministic() {
        let src = "use std::collections::HashMap;\n\
                   let ok: HashMap<u32, u32> = x; // lint: allow(hash-iteration)\n";
        let diags = lint_file_diag("crates/runtime/src/x.rs", src);
        let certs = vec![DatasetCertification {
            dataset: "Toy \"quoted\"".to_string(),
            steps: 3,
            num_tasks: 7,
            num_levels: 2,
            fingerprint: 0xdead_beef,
            certified: true,
            violations: Vec::new(),
        }];
        let a = render_json(&diags, &certs);
        let b = render_json(&diags, &certs);
        assert_eq!(a, b);
        assert!(a.contains("\"version\": 1"));
        assert!(a.contains("\"rule\": \"hash-iteration\""));
        assert!(a.contains("\"allow_line\": 2"));
        assert!(a.contains("\"fingerprint\": \"0x00000000deadbeef\""));
        assert!(a.contains("Toy \\\"quoted\\\""));
        assert!(a.contains("\"datasets_certified\": 1"));
        // Braces and brackets balance (cheap structural sanity; none of
        // the payload strings contain braces).
        let opens = a.matches('{').count() + a.matches('[').count();
        let closes = a.matches('}').count() + a.matches(']').count();
        assert_eq!(opens, closes);
        assert!(a.ends_with("}\n"));
    }

    #[test]
    fn empty_report_renders_empty_arrays() {
        let a = render_json(&Diagnostics::default(), &[]);
        assert!(a.contains("\"violations\": []"));
        assert!(a.contains("\"allowed\": []"));
        assert!(a.contains("\"interference\": []"));
    }
}
