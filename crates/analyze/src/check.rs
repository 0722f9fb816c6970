//! The ordered pass/fail ledger the CI gate binaries share.
//!
//! Every gate binary in `scripts/ci.sh` (`determinism`, `numeric_ape`,
//! `bench_check`, `serve_smoke` and `fleet_smoke`) reports the same way:
//! each sub-check has a stable name, verdicts print in execution order,
//! and the run ends with one summary line naming any failed checks — so a
//! red CI log reads identically from run to run and the first `FAIL` line
//! is the diagnosis.

use std::process::ExitCode;

/// Ordered pass/fail ledger: every sub-check lands here under a stable
/// name, in execution order.
pub struct Report {
    results: Vec<(String, bool)>,
}

impl Default for Report {
    fn default() -> Self {
        Self::new()
    }
}

impl Report {
    /// An empty ledger.
    pub fn new() -> Self {
        Report {
            results: Vec::new(),
        }
    }

    /// Records one named sub-check and prints its verdict immediately
    /// (`PASS` to stdout, `FAIL` to stderr).
    pub fn check(&mut self, name: &str, ok: bool, detail: &str) {
        if ok {
            println!("PASS {name}: {detail}");
        } else {
            eprintln!("FAIL {name}: {detail}");
        }
        self.results.push((name.to_string(), ok));
    }

    /// Prints the summary line and converts the ledger to an exit code.
    pub fn finish(self, bin: &str) -> ExitCode {
        let failed: Vec<&str> = self
            .results
            .iter()
            .filter(|(_, ok)| !ok)
            .map(|(name, _)| name.as_str())
            .collect();
        let total = self.results.len();
        if failed.is_empty() {
            println!("{bin}: {total}/{total} checks passed");
            ExitCode::SUCCESS
        } else {
            eprintln!(
                "{bin}: {}/{} checks passed; FAILED: {}",
                total - failed.len(),
                total,
                failed.join(", ")
            );
            ExitCode::FAILURE
        }
    }
}
