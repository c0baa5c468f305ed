//! `ij-analysis` — the workspace's in-repo static-analysis suite.
//!
//! The engine's riskiest surfaces (poison-recovering locks, the join
//! kernels, atomic statistics) are sound because of invariants that no
//! compiler checks: locks are only ever taken through the
//! `ij_relation::sync` recover helpers, every atomic `Ordering` choice is
//! justified in a ledger, and hot loops never panic without an explicit
//! waiver.  (The compiler does check the absence of `unsafe`: the workspace
//! lints set `unsafe_code = "forbid"` for every member; and a failpoint site
//! is an `ij_relation::faults::Site` variant, so a misspelled one does not
//! compile.)  This crate machine-checks all three as independent,
//! individually toggleable passes over a comment/string-aware token mask of
//! the sources (see [`lex`]).
//!
//! Run `cargo run -p ij-analysis -- check` from anywhere in the workspace;
//! `-- self-test` proves each pass fires on the seeded violation fixtures
//! under `crates/analysis/fixtures/`; `-- inventory` prints fresh ledger
//! stanzas for `ATOMICS.md` after an intentional change.
//!
//! Std-only by policy: the scanner must build before — and independently
//! of — everything it checks.

pub mod lex;

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// The three passes.  Each is independent: `--only` / `--skip` select any
/// subset, and a pass never consumes another pass's state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PassId {
    LockDiscipline,
    AtomicLedger,
    HotPathPanic,
}

impl PassId {
    pub const ALL: [PassId; 3] = [
        PassId::LockDiscipline,
        PassId::AtomicLedger,
        PassId::HotPathPanic,
    ];

    pub fn name(self) -> &'static str {
        match self {
            PassId::LockDiscipline => "lock-discipline",
            PassId::AtomicLedger => "atomic-ledger",
            PassId::HotPathPanic => "hot-path-panic",
        }
    }

    pub fn parse(s: &str) -> Option<PassId> {
        PassId::ALL.into_iter().find(|p| p.name() == s)
    }

    pub fn describe(self) -> &'static str {
        match self {
            PassId::LockDiscipline => {
                "`.lock()/.read()/.write()` + `.unwrap()/.expect()` is forbidden \
                 outside ij_relation::sync — use the *_recover helpers"
            }
            PassId::AtomicLedger => {
                "every atomic `Ordering::` use site must appear, with a \
                 rationale and an exact count, in ATOMICS.md"
            }
            PassId::HotPathPanic => {
                "panic!/unwrap/expect/todo! in kernel, join and Yannakakis files \
                 need `// ij-analysis: allow(panic) — <reason>`"
            }
        }
    }
}

impl fmt::Display for PassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One rule violation: pass, file (root-relative, forward slashes), 1-based
/// line, and a human-oriented message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub pass: PassId,
    pub file: String,
    pub line: usize,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.pass, self.message
        )
    }
}

/// What to scan and which repo-specific knobs apply.  [`Config::workspace`]
/// is the shipped tree's configuration; [`Config::fixtures`] points every
/// knob at `crates/analysis/fixtures/` for the self-test.
#[derive(Debug, Clone)]
pub struct Config {
    /// Scan root; `.rs` files under it are analysed.
    pub root: PathBuf,
    /// Root-relative path prefixes to skip entirely.
    pub skip_prefixes: Vec<String>,
    /// Root-relative path of the atomic-ordering ledger.
    pub atomics_ledger: String,
    /// Root-relative paths subject to the hot-path panic lint.
    pub hot_files: Vec<String>,
    /// Root-relative paths exempt from the lock-discipline pass.
    pub lock_exempt: Vec<String>,
}

impl Config {
    /// The shipped tree's configuration, rooted at the workspace root.
    pub fn workspace(root: PathBuf) -> Config {
        Config {
            root,
            skip_prefixes: vec![
                "target".into(),
                "vendor".into(),
                ".git".into(),
                // The seeded-violation fixtures are *supposed* to fail.
                "crates/analysis/fixtures".into(),
            ],
            atomics_ledger: "ATOMICS.md".into(),
            hot_files: vec![
                "crates/relation/src/kernels.rs".into(),
                "crates/ejoin/src/generic.rs".into(),
                "crates/ejoin/src/flat.rs".into(),
                "crates/ejoin/src/yannakakis.rs".into(),
            ],
            lock_exempt: vec!["crates/relation/src/sync.rs".into()],
        }
    }

    /// Configuration for the seeded-violation fixture tree.
    pub fn fixtures(fixtures_root: PathBuf) -> Config {
        Config {
            root: fixtures_root,
            skip_prefixes: vec![],
            atomics_ledger: "ATOMICS.md".into(),
            hot_files: vec!["hot_path_panic.rs".into()],
            lock_exempt: vec![],
        }
    }
}

/// One lexed source file, ready for every pass.
pub struct SourceFile {
    /// Root-relative path with forward slashes.
    pub rel: String,
    pub text: String,
    pub masked: lex::Masked,
    /// Byte ranges of `#[cfg(…test…)] mod` bodies.
    pub test_regions: Vec<(usize, usize)>,
    pub line_starts: Vec<usize>,
}

impl SourceFile {
    pub fn parse(rel: String, text: String) -> SourceFile {
        let masked = lex::mask(&text);
        let test_regions = lex::test_mod_regions(&masked.code);
        let line_starts = lex::line_starts(&text);
        SourceFile {
            rel,
            text,
            masked,
            test_regions,
            line_starts,
        }
    }

    fn line_of(&self, offset: usize) -> usize {
        lex::line_of(&self.line_starts, offset)
    }

    fn in_test_region(&self, offset: usize) -> bool {
        self.test_regions
            .iter()
            .any(|&(a, b)| a <= offset && offset < b)
    }

    /// The comment-mask text of 1-based line `line` (empty if out of range).
    fn comment_line(&self, line: usize) -> &str {
        if line == 0 || line > self.line_starts.len() {
            return "";
        }
        let start = self.line_starts[line - 1];
        let end = self
            .line_starts
            .get(line)
            .copied()
            .unwrap_or(self.text.len());
        &self.masked.comments[start..end]
    }

    /// Whether any comment within `[line - back, line]` contains `needle`.
    fn comment_near(&self, line: usize, back: usize, needle: &str) -> bool {
        (line.saturating_sub(back)..=line).any(|l| self.comment_line(l).contains(needle))
    }
}

/// Recursively loads and lexes every `.rs` file under the config root,
/// honouring `skip_prefixes`.  Paths are sorted for deterministic output.
pub fn load_sources(config: &Config) -> std::io::Result<Vec<SourceFile>> {
    let mut rels = Vec::new();
    collect_rs(
        &config.root,
        Path::new(""),
        &config.skip_prefixes,
        &mut rels,
    )?;
    rels.sort();
    let mut out = Vec::with_capacity(rels.len());
    for rel in rels {
        let text = std::fs::read_to_string(config.root.join(&rel))?;
        out.push(SourceFile::parse(rel, text));
    }
    Ok(out)
}

fn collect_rs(
    root: &Path,
    rel_dir: &Path,
    skip: &[String],
    out: &mut Vec<String>,
) -> std::io::Result<()> {
    for entry in std::fs::read_dir(root.join(rel_dir))? {
        let entry = entry?;
        let name = entry.file_name();
        let rel = rel_dir.join(&name);
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        if skip
            .iter()
            .any(|p| rel_str == *p || rel_str.starts_with(&format!("{p}/")))
        {
            continue;
        }
        let ty = entry.file_type()?;
        if ty.is_dir() {
            collect_rs(root, &rel, skip, out)?;
        } else if ty.is_file() && rel_str.ends_with(".rs") {
            out.push(rel_str);
        }
    }
    Ok(())
}

/// Runs `passes` over the tree described by `config`.
pub fn run(config: &Config, passes: &[PassId]) -> std::io::Result<Vec<Finding>> {
    let sources = load_sources(config)?;
    let mut findings = Vec::new();
    for &pass in passes {
        match pass {
            PassId::LockDiscipline => pass_lock_discipline(config, &sources, &mut findings),
            PassId::AtomicLedger => pass_atomic_ledger(config, &sources, &mut findings),
            PassId::HotPathPanic => pass_hot_path_panic(config, &sources, &mut findings),
        }
    }
    findings.sort_by(|a, b| (a.pass, &a.file, a.line).cmp(&(b.pass, &b.file, b.line)));
    Ok(findings)
}

// ---------------------------------------------------------------------------
// Pass 1: lock-discipline
// ---------------------------------------------------------------------------

fn pass_lock_discipline(config: &Config, sources: &[SourceFile], out: &mut Vec<Finding>) {
    for src in sources {
        if config.lock_exempt.contains(&src.rel) {
            continue;
        }
        let code = src.masked.code.as_bytes();
        for method in ["lock", "read", "write"] {
            let pat = format!(".{method}");
            let mut at = 0;
            while let Some(rel) = src.masked.code[at..].find(&pat) {
                let pos = at + rel;
                at = pos + pat.len();
                // Require an *empty* argument list — `.read(&mut buf)` is
                // io::Read, not a lock — then an immediate `.unwrap(` or
                // `.expect(` (whitespace/newlines allowed between links,
                // but `.unwrap_or_else(` must not match).
                let mut j = pos + pat.len();
                if code.get(j) != Some(&b'(') {
                    continue;
                }
                j += 1;
                while code.get(j).is_some_and(|b| b.is_ascii_whitespace()) {
                    j += 1;
                }
                if code.get(j) != Some(&b')') {
                    continue;
                }
                j += 1;
                while code.get(j).is_some_and(|b| b.is_ascii_whitespace()) {
                    j += 1;
                }
                if code.get(j) != Some(&b'.') {
                    continue;
                }
                j += 1;
                while code.get(j).is_some_and(|b| b.is_ascii_whitespace()) {
                    j += 1;
                }
                let rest = &src.masked.code[j..];
                let consumer = if rest.starts_with("unwrap(") {
                    "unwrap"
                } else if rest.starts_with("expect(") {
                    "expect"
                } else {
                    continue;
                };
                out.push(Finding {
                    pass: PassId::LockDiscipline,
                    file: src.rel.clone(),
                    line: src.line_of(pos),
                    message: format!(
                        "bare `.{method}().{consumer}(…)` — use \
                         `ij_relation::sync::{}_recover` so a poisoned lock \
                         recovers instead of cascading panics",
                        if method == "lock" { "lock" } else { method }
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Pass 2: atomic-ordering ledger
// ---------------------------------------------------------------------------

const ATOMIC_VARIANTS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// (file, variant) → count.  Only `std::sync::atomic::Ordering` variants
/// count, so `std::cmp::Ordering::Less` (`Less`/`Greater`/`Equal`) never
/// trips the ledger.
fn atomic_sites(sources: &[SourceFile]) -> BTreeMap<(String, String), usize> {
    let mut out = BTreeMap::new();
    for src in sources {
        let mut at = 0;
        while let Some(rel) = src.masked.code[at..].find("Ordering::") {
            let pos = at + rel;
            at = pos + "Ordering::".len();
            let rest = &src.masked.code[at..];
            for v in ATOMIC_VARIANTS {
                if rest.starts_with(v)
                    && !rest[v.len()..].starts_with(|c: char| c.is_alphanumeric() || c == '_')
                {
                    *out.entry((src.rel.clone(), v.to_string())).or_insert(0) += 1;
                    break;
                }
            }
        }
    }
    out
}

fn pass_atomic_ledger(config: &Config, sources: &[SourceFile], out: &mut Vec<Finding>) {
    let sites = atomic_sites(sources);
    let ledger_path = config.root.join(&config.atomics_ledger);
    let ledger_text = match std::fs::read_to_string(&ledger_path) {
        Ok(t) => t,
        Err(_) => {
            out.push(Finding {
                pass: PassId::AtomicLedger,
                file: config.atomics_ledger.clone(),
                line: 1,
                message: "atomic-ordering ledger is missing — seed it with \
                          `ij-analysis -- inventory`"
                    .into(),
            });
            return;
        }
    };
    let (ledger, malformed) = parse_atomics_ledger(&ledger_text);
    for (line, msg) in malformed {
        out.push(Finding {
            pass: PassId::AtomicLedger,
            file: config.atomics_ledger.clone(),
            line,
            message: msg,
        });
    }
    for (key, &count) in &sites {
        let (file, variant) = key;
        match ledger.get(key) {
            None => out.push(Finding {
                pass: PassId::AtomicLedger,
                file: file.clone(),
                line: 1,
                message: format!(
                    "`Ordering::{variant}` ({count} site(s)) is not justified \
                     in {} — add an entry with a rationale",
                    config.atomics_ledger
                ),
            }),
            Some(&(recorded, _)) if recorded != count => out.push(Finding {
                pass: PassId::AtomicLedger,
                file: file.clone(),
                line: 1,
                message: format!(
                    "{} records {recorded} `Ordering::{variant}` site(s) but \
                     the file has {count} — review the diff, then update the \
                     ledger",
                    config.atomics_ledger
                ),
            }),
            Some(_) => {}
        }
    }
    for (key, &(recorded, line)) in &ledger {
        if !sites.contains_key(key) {
            out.push(Finding {
                pass: PassId::AtomicLedger,
                file: config.atomics_ledger.clone(),
                line,
                message: format!(
                    "stale ledger entry: `{}` no longer uses `Ordering::{}` \
                     (recorded {recorded} site(s))",
                    key.0, key.1
                ),
            });
        }
    }
}

/// Parses `## <path>` sections with `` - `Ordering::X` ×N — rationale ``
/// bullets → ((path, variant) → (count, ledger line)) plus malformed-line
/// diagnostics (a bullet without a rationale is malformed: the whole point
/// of the ledger is the justification).
#[allow(clippy::type_complexity)]
fn parse_atomics_ledger(
    text: &str,
) -> (
    BTreeMap<(String, String), (usize, usize)>,
    Vec<(usize, String)>,
) {
    let mut out = BTreeMap::new();
    let mut bad = Vec::new();
    let mut current: Option<String> = None;
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if let Some(rest) = line.strip_prefix("## ") {
            current = Some(rest.trim().to_string());
            continue;
        }
        let Some(bullet) = line.strip_prefix("- `Ordering::") else {
            continue;
        };
        let Some(file) = current.clone() else {
            bad.push((lineno, "ledger bullet before any `## <file>` header".into()));
            continue;
        };
        let Some((variant, tail)) = bullet.split_once('`') else {
            bad.push((lineno, "malformed ledger bullet".into()));
            continue;
        };
        let tail = tail.trim_start();
        let Some(tail) = tail.strip_prefix('×') else {
            bad.push((lineno, "ledger bullet is missing the `×N` count".into()));
            continue;
        };
        let (count_str, rationale) = match tail.split_once(" — ") {
            Some((c, r)) => (c.trim(), r.trim()),
            None => (tail.trim(), ""),
        };
        let Ok(count) = count_str.parse::<usize>() else {
            bad.push((lineno, format!("unparseable ledger count `{count_str}`")));
            continue;
        };
        if rationale.is_empty() {
            bad.push((
                lineno,
                format!("`Ordering::{variant}` entry has no rationale — justify the ordering"),
            ));
            continue;
        }
        out.insert((file, variant.to_string()), (count, lineno));
    }
    (out, bad)
}

// ---------------------------------------------------------------------------
// Pass 3: hot-path panic lint
// ---------------------------------------------------------------------------

/// Lines of grace above a panic site for the allow directive (directly
/// above is idiomatic; 3 tolerates a rustfmt-wrapped chain link).
const ALLOW_WINDOW: usize = 3;
const ALLOW_DIRECTIVE: &str = "ij-analysis: allow(panic)";

fn pass_hot_path_panic(config: &Config, sources: &[SourceFile], out: &mut Vec<Finding>) {
    for src in sources {
        if !config.hot_files.contains(&src.rel) {
            continue;
        }
        let mut sites: Vec<(usize, String)> = Vec::new();
        for mac in ["panic", "unreachable", "todo", "unimplemented"] {
            let mut at = 0;
            while let Some(pos) = lex::find_word(&src.masked.code, mac, at) {
                at = pos + mac.len();
                if src.masked.code[at..].starts_with('!') {
                    sites.push((pos, format!("{mac}!")));
                }
            }
        }
        for method in ["unwrap", "expect"] {
            let pat = format!(".{method}(");
            let mut at = 0;
            while let Some(rel) = src.masked.code[at..].find(&pat) {
                let pos = at + rel;
                at = pos + pat.len();
                sites.push((pos, format!(".{method}()")));
            }
        }
        sites.sort();
        for (pos, what) in sites {
            if src.in_test_region(pos) {
                continue;
            }
            let line = src.line_of(pos);
            if !src.comment_near(line, ALLOW_WINDOW, ALLOW_DIRECTIVE) {
                out.push(Finding {
                    pass: PassId::HotPathPanic,
                    file: src.rel.clone(),
                    line,
                    message: format!(
                        "`{what}` on a hot path without `// {ALLOW_DIRECTIVE} — \
                         <reason>` — justify it or return an error"
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Inventory generation (ledger seeding)
// ---------------------------------------------------------------------------

/// Renders fresh `ATOMICS.md` stanza bodies from the current tree, for
/// pasting after an intentional change.  Rationales are
/// emitted as `<rationale>` placeholders — the ledger parser rejects empty
/// ones, and a placeholder is a visible review prompt, not a waiver.
pub fn render_inventory(config: &Config) -> std::io::Result<String> {
    let sources = load_sources(config)?;
    let mut out = String::new();
    out.push_str("### ATOMICS.md stanzas\n\n");
    let sites = atomic_sites(&sources);
    let mut current = String::new();
    for ((file, variant), count) in &sites {
        if *file != current {
            out.push_str(&format!("## {file}\n\n"));
            current = file.clone();
        }
        out.push_str(&format!("- `Ordering::{variant}` ×{count} — <rationale>\n"));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Workspace-root discovery
// ---------------------------------------------------------------------------

/// Walks up from `start` looking for a `Cargo.toml` containing a
/// `[workspace]` table.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.lines().any(|l| l.trim() == "[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

pub mod selftest;
