//! Property + fixture tests for the `ij-analysis` scanner.
//!
//! The property tests generate adversarial source files that bury every
//! pattern the passes hunt for inside string literals, raw strings, line
//! comments, block comments and doc-comments, and assert the code mask
//! never exposes them (no false positives) — while the same payloads
//! pasted as real code *do* survive masking (no false negatives from
//! over-blanking).  The fixture tests run the full self-test, which
//! asserts every pass fires on its seeded violation.

use ij_analysis::lex;
use proptest::prelude::*;
use std::path::PathBuf;

/// The textual patterns the passes match against the code mask, and
/// `unsafe`, which the compiler forbids in the workspace.
const PAYLOADS: &[&str] = &[
    "unsafe { transmute(x) }",
    "m.lock().unwrap()",
    "rw.read().expect(\\\"poisoned\\\")", // escaped for string containers
    "rw.write().unwrap()",
    "Ordering::SeqCst",
    "Ordering::Relaxed",
    "panic!(oops)",
    "v.first().unwrap()",
    "todo!()",
    "unimplemented!()",
];

/// Raw-string-safe payloads (no escapes needed).
const RAW_PAYLOADS: &[&str] = &[
    "unsafe { transmute(x) }",
    "m.lock().unwrap()",
    "Ordering::AcqRel",
    "unimplemented!()",
    "rw.read().expect(poisoned)",
];

/// Containers that must hide a payload from the code mask.
fn containered(container: usize, payload: &str, raw: &str) -> String {
    match container % 6 {
        0 => format!("// {payload}\n"),
        1 => format!("/// {payload}\n"),
        2 => format!("/* {payload} */\n"),
        3 => format!("/* outer /* {payload} */ inner */\n"),
        4 => format!("let s = \"{payload}\";\n"),
        _ => format!("let r = r#\"{raw}\"#;\n"),
    }
}

/// Benign filler lines the generator interleaves between containers.
const FILLER: &[&str] = &[
    "fn benign() -> u32 { 41 + 1 }\n",
    "let v: Vec<u32> = Vec::new();\n",
    "struct S { field: u64 }\n",
    "for _ in 0..3 { work(); }\n",
    "let lifetime: &'static str = stat();\n",
    "'label: loop { break 'label; }\n",
    "let ch = 'x'; let q = b'\"';\n",
];

/// Tokens that prove a payload leaked out of its container.  (Substrings
/// of the payload list that cannot occur in the filler.)
const LEAK_MARKERS: &[&str] = &[
    "unsafe",
    ".lock()",
    ".read()",
    ".write()",
    "Ordering::",
    "panic!",
    ".unwrap(",
    ".expect(",
    "todo!",
    "unimplemented!",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn contained_payloads_never_reach_the_code_mask(
        picks in prop::collection::vec((0usize..6, 0usize..10, 0usize..5, 0usize..7), 1..=12)
    ) {
        let mut src = String::new();
        for &(container, p, r, f) in &picks {
            src.push_str(FILLER[f]);
            src.push_str(&containered(container, PAYLOADS[p], RAW_PAYLOADS[r]));
        }
        let m = lex::mask(&src);
        prop_assert_eq!(m.code.len(), src.len());
        for marker in LEAK_MARKERS {
            prop_assert!(
                !m.code.contains(marker),
                "`{}` leaked into the code mask of:\n{}\ncode mask:\n{}",
                marker, src, m.code
            );
        }
    }

    #[test]
    fn directives_inside_strings_do_not_count_as_comments(
        n in 1usize..6
    ) {
        let mut src = String::new();
        for _ in 0..n {
            src.push_str("let a = \"// SAFETY: not a comment\";\n");
            src.push_str("let b = \"ij-analysis: allow(panic) in a string\";\n");
            src.push_str("let c = r#\"// SAFETY: raw-string decoy\"#;\n");
        }
        let m = lex::mask(&src);
        prop_assert!(!m.comments.contains("SAFETY"));
        prop_assert!(!m.comments.contains("allow(panic)"));
    }

    #[test]
    fn bare_payloads_survive_masking(p in 0usize..10, f in 0usize..7) {
        // The dual property: masking must not over-blank. A payload pasted
        // as plain code keeps its hunted token (modulo its own string
        // arguments, which rightly blank).
        let payload = PAYLOADS[p].replace("\\\"", "\"");
        let src = format!("{}{}\n", FILLER[f], payload);
        let m = lex::mask(&src);
        let marker = LEAK_MARKERS
            .iter()
            .find(|mk| payload.contains(**mk))
            .expect("every payload carries a marker");
        prop_assert!(
            m.code.contains(marker),
            "`{}` was over-blanked out of:\n{}\ncode mask:\n{}",
            marker, src, m.code
        );
    }

    #[test]
    fn masks_preserve_length_and_newlines(
        picks in prop::collection::vec((0usize..6, 0usize..10, 0usize..5, 0usize..7), 0..=8)
    ) {
        let mut src = String::new();
        for &(container, p, r, f) in &picks {
            src.push_str(&containered(container, PAYLOADS[p], RAW_PAYLOADS[r]));
            src.push_str(FILLER[f]);
        }
        let m = lex::mask(&src);
        prop_assert_eq!(m.code.len(), src.len());
        prop_assert_eq!(m.comments.len(), src.len());
        let nl = |s: &str| -> Vec<usize> {
            s.bytes().enumerate().filter(|(_, b)| *b == b'\n').map(|(i, _)| i).collect()
        };
        prop_assert_eq!(nl(&m.code), nl(&src));
        prop_assert_eq!(nl(&m.comments), nl(&src));
    }
}

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .expect("crates/analysis sits two levels under the workspace root")
        .to_path_buf()
}

#[test]
fn self_test_catches_every_seeded_violation() {
    if let Err(report) = ij_analysis::selftest::run(&workspace_root()) {
        panic!("{report}");
    }
}

#[test]
fn shipped_tree_is_clean() {
    let config = ij_analysis::Config::workspace(workspace_root());
    let findings = ij_analysis::run(&config, &ij_analysis::PassId::ALL).expect("scan");
    assert!(
        findings.is_empty(),
        "the shipped tree has findings:\n{}",
        findings
            .iter()
            .map(|f| format!("  {f}\n"))
            .collect::<String>()
    );
}

#[test]
fn every_pass_produces_at_least_one_fixture_finding() {
    let findings = ij_analysis::selftest::fixture_findings(&workspace_root()).expect("scan");
    for pass in ij_analysis::PassId::ALL {
        assert!(
            findings.iter().any(|f| f.pass == pass),
            "pass `{pass}` produced no finding on the seeded fixtures"
        );
    }
}
