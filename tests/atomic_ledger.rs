//! The atomic-ordering ledger: every `std::sync::atomic::Ordering` site in
//! the workspace, counted per file and variant, must match `ATOMICS.md`,
//! where each count carries a written rationale.
//!
//! A site is `Ordering::<variant>` on a line not starting with `//`; one in
//! a string or a trailing comment counts too, so a count can only err high.

use std::collections::BTreeMap;
use std::path::Path;

const VARIANTS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// (root-relative file, variant) → number of sites.
type Counts = BTreeMap<(String, String), usize>;
/// (file, variant) → (recorded count, line of its `ATOMICS.md` bullet).
type Ledger = BTreeMap<(String, String), (usize, usize)>;

fn count_sites(file: &str, text: &str, counts: &mut Counts) {
    for line in text.lines().filter(|l| !l.trim_start().starts_with("//")) {
        for (at, pat) in line.match_indices("Ordering::") {
            let rest = &line[at + pat.len()..];
            let mut word = rest.split(|c: char| !(c.is_alphanumeric() || c == '_'));
            if let Some(variant) = word.next().filter(|w| VARIANTS.contains(w)) {
                *counts.entry((file.into(), variant.into())).or_insert(0) += 1;
            }
        }
    }
}

/// Counts the sites of every `.rs` file under `dir`, skipping the root's
/// `target/`, `vendor/` and `.git/`.
fn walk(root: &Path, dir: &Path, counts: &mut Counts) {
    for entry in std::fs::read_dir(dir).expect("a readable directory") {
        let path = entry.expect("a readable directory entry").path();
        let rel = path.strip_prefix(root).expect("under the root");
        let rel = rel.to_string_lossy().replace('\\', "/");
        if ["target", "vendor", ".git"].contains(&rel.as_str()) {
            continue;
        }
        if path.is_dir() {
            walk(root, &path, counts);
        } else if rel.ends_with(".rs") {
            let text = std::fs::read_to_string(&path).expect("a UTF-8 source file");
            count_sites(&rel, &text, counts);
        }
    }
}

/// Parses `## <path>` headers over `` - `Ordering::X` ×N — rationale `` bullets;
/// a malformed bullet, one without a rationale included, is a finding.
fn parse_ledger(text: &str, findings: &mut Vec<String>) -> Ledger {
    let mut ledger = BTreeMap::new();
    let mut file: Option<String> = None;
    for (line, row) in (1..).zip(text.lines()) {
        if let Some(path) = row.strip_prefix("## ") {
            file = Some(path.trim().into());
            continue;
        }
        let Some(bullet) = row.strip_prefix("- `Ordering::") else {
            continue;
        };
        let mut parsed = || {
            let file = file.clone().ok_or("bullet before any `## <file>` header")?;
            let (variant, tail) = bullet.split_once('`').ok_or("malformed bullet")?;
            let tail = tail.trim_start().strip_prefix('×').ok_or("no `×N` count")?;
            let (count, rationale) = tail.split_once(" — ").unwrap_or((tail, ""));
            let count = count.trim().parse().map_err(|_| "unparseable `×N` count")?;
            if rationale.trim().is_empty() {
                return Err("bullet has no rationale: justify the ordering");
            }
            ledger.insert((file, variant.into()), (count, line));
            Ok(())
        };
        if let Err(why) = parsed() {
            findings.push(format!("ATOMICS.md:{line}: {why}"));
        }
    }
    ledger
}

/// Every way `sites` and the ledger disagree, each with its fix.
fn check(sites: &Counts, ledger_text: &str) -> Vec<String> {
    let mut findings = Vec::new();
    let ledger = parse_ledger(ledger_text, &mut findings);
    for (key @ (file, variant), &count) in sites {
        let recorded = ledger.get(key).map(|&(n, _)| n);
        if recorded != Some(count) {
            let recorded = recorded.map_or("none".into(), |n| format!("×{n}"));
            findings.push(format!(
                "{file} has `Ordering::{variant}` ×{count}, ATOMICS.md {recorded}; review the \
                 sites, then write under `## {file}`:\n- `Ordering::{variant}` ×{count} — <why>"
            ));
        }
    }
    for (key @ (file, variant), &(count, line)) in &ledger {
        if !sites.contains_key(key) {
            findings.push(format!(
                "ATOMICS.md:{line}: stale entry: {file} has no `Ordering::{variant}` (×{count})"
            ));
        }
    }
    findings
}

#[test]
fn every_atomic_ordering_is_in_the_ledger() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sites = Counts::new();
    walk(root, root, &mut sites);
    let ledger = std::fs::read_to_string(root.join("ATOMICS.md")).expect("ATOMICS.md");
    let findings = check(&sites, &ledger).join("\n");
    assert!(findings.is_empty(), "ATOMICS.md is stale:\n{findings}");
}

#[test]
fn seeded_violations_are_reported() {
    // `@` stands for `Ordering::`, so that this file holds no site itself.
    let source = "use std::sync::atomic::{AtomicUsize, Ordering};
        pub fn listed(x: &AtomicUsize) { x.fetch_add(1, @Relaxed); x.fetch_add(1, @Relaxed); }
        pub fn unlisted(x: &AtomicUsize) -> usize { x.load(@SeqCst) }
        // x.load(@Release) in a comment is not a site
        pub fn not_an_atomic(a: i32, b: i32) -> bool { a.cmp(&b) == std::cmp::@Less }"
        .replace('@', "Ordering::");
    let ledger = "## unlisted_ordering.rs
- `@Relaxed` ×2 — seeded counter; exactness not required
- `@Acquire` ×1 — stale: the file no longer uses Acquire
- `@AcqRel` ×1
## ghost.rs
- `@SeqCst` ×1 — stale: the file was deleted"
        .replace('@', "Ordering::");
    let mut sites = Counts::new();
    count_sites("unlisted_ordering.rs", &source, &mut sites);
    let key = |v: &str| ("unlisted_ordering.rs".to_string(), v.to_string());
    assert_eq!(
        sites,
        Counts::from([(key("Relaxed"), 2), (key("SeqCst"), 1)])
    );

    let findings = check(&sites, &ledger);
    let text = findings.join("\n").replace("Ordering::", "@");
    let expected = [
        "ATOMICS.md:4: bullet has no rationale",
        "unlisted_ordering.rs has `@SeqCst` ×1, ATOMICS.md none",
        "ATOMICS.md:6: stale entry: ghost.rs has no `@SeqCst`",
        "ATOMICS.md:3: stale entry: unlisted_ordering.rs has no `@Acquire`",
    ];
    assert_eq!(findings.len(), expected.len(), "{text}");
    assert!(expected.iter().all(|e| text.contains(e)), "{text}");
}
