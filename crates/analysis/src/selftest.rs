//! Self-test: proves every pass actually fires.
//!
//! A linter that silently stops matching is worse than no linter — CI goes
//! green while the invariant rots.  `ij-analysis -- self-test` runs all
//! three passes over the seeded-violation tree in `crates/analysis/fixtures/`
//! (one deliberately broken file per pass, plus ledgers with deliberate
//! mismatches and a `clean.rs` stuffed with look-alike patterns inside
//! strings and comments) and asserts the exact expected findings: every
//! seeded violation is caught, and nothing in `clean.rs` is flagged.

use crate::{Config, Finding, PassId};
use std::path::Path;

struct Expectation {
    pass: PassId,
    file: &'static str,
    /// Substring that must appear in the finding's message.
    needle: &'static str,
}

const EXPECTED: &[Expectation] = &[
    // lock-discipline: all three guard methods, including a rustfmt-wrapped
    // multiline chain.
    Expectation {
        pass: PassId::LockDiscipline,
        file: "bare_lock_unwrap.rs",
        needle: "bare `.lock().unwrap(",
    },
    Expectation {
        pass: PassId::LockDiscipline,
        file: "bare_lock_unwrap.rs",
        needle: "bare `.read().expect(",
    },
    Expectation {
        pass: PassId::LockDiscipline,
        file: "bare_lock_unwrap.rs",
        needle: "bare `.write().unwrap(",
    },
    // atomic-ledger: an unlisted variant, a stale variant, a stale file.
    Expectation {
        pass: PassId::AtomicLedger,
        file: "unlisted_ordering.rs",
        needle: "`Ordering::SeqCst` (1 site(s)) is not justified",
    },
    Expectation {
        pass: PassId::AtomicLedger,
        file: "ATOMICS.md",
        needle: "`unlisted_ordering.rs` no longer uses `Ordering::Acquire`",
    },
    Expectation {
        pass: PassId::AtomicLedger,
        file: "ATOMICS.md",
        needle: "`ghost.rs` no longer uses `Ordering::SeqCst`",
    },
    // hot-path-panic: an unannotated panic! and an unannotated .expect();
    // the annotated site and the #[cfg(test)] module must stay silent.
    Expectation {
        pass: PassId::HotPathPanic,
        file: "hot_path_panic.rs",
        needle: "`panic!` on a hot path",
    },
    Expectation {
        pass: PassId::HotPathPanic,
        file: "hot_path_panic.rs",
        needle: "`.expect()` on a hot path",
    },
];

/// Exact expected finding count per pass — a pass producing *extra*
/// findings on the fixtures is as broken as one producing none.
const EXPECTED_COUNTS: &[(PassId, usize)] = &[
    (PassId::LockDiscipline, 3),
    (PassId::AtomicLedger, 3),
    (PassId::HotPathPanic, 2),
];

/// Runs the self-test over `<workspace_root>/crates/analysis/fixtures`.
/// Returns a one-line summary on success, a full mismatch report on error.
pub fn run(workspace_root: &Path) -> Result<String, String> {
    let fixtures = workspace_root.join("crates/analysis/fixtures");
    if !fixtures.is_dir() {
        return Err(format!(
            "fixture directory {} is missing",
            fixtures.display()
        ));
    }
    let config = Config::fixtures(fixtures);
    let findings =
        crate::run(&config, &PassId::ALL).map_err(|e| format!("scanning fixtures failed: {e}"))?;

    let mut errors = Vec::new();
    for exp in EXPECTED {
        let hit = findings
            .iter()
            .any(|f| f.pass == exp.pass && f.file == exp.file && f.message.contains(exp.needle));
        if !hit {
            errors.push(format!(
                "pass `{}` did NOT fire on the seeded violation in {} \
                 (expected a finding containing {:?})",
                exp.pass, exp.file, exp.needle
            ));
        }
    }
    for &(pass, want) in EXPECTED_COUNTS {
        let got = findings.iter().filter(|f| f.pass == pass).count();
        if got != want {
            errors.push(format!(
                "pass `{pass}` produced {got} finding(s) on the fixtures, expected exactly {want}"
            ));
        }
    }
    for f in findings.iter().filter(|f| f.file == "clean.rs") {
        errors.push(format!("false positive on clean.rs: {f}"));
    }

    if errors.is_empty() {
        Ok(format!(
            "self-test OK: {} seeded violations caught across {} passes, clean.rs clean",
            findings.len(),
            PassId::ALL.len()
        ))
    } else {
        let mut report = String::from("self-test FAILED:\n");
        for e in &errors {
            report.push_str(&format!("  - {e}\n"));
        }
        report.push_str("\nall fixture findings:\n");
        for f in &findings {
            report.push_str(&format!("  {f}\n"));
        }
        Err(report)
    }
}

/// The fixture findings themselves, for the integration tests.
pub fn fixture_findings(workspace_root: &Path) -> std::io::Result<Vec<Finding>> {
    let config = Config::fixtures(workspace_root.join("crates/analysis/fixtures"));
    crate::run(&config, &PassId::ALL)
}
