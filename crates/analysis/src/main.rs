//! `ij-analysis` — CLI for the in-repo static-analysis suite.
//!
//! ```text
//! cargo run -p ij-analysis -- check [--only PASS]... [--skip PASS]... [--root DIR]
//! cargo run -p ij-analysis -- self-test [--root DIR]
//! cargo run -p ij-analysis -- inventory [--root DIR]
//! cargo run -p ij-analysis -- list
//! ```
//!
//! Exit codes: 0 clean, 1 findings (or self-test failure), 2 usage/IO error.

use ij_analysis::{find_workspace_root, render_inventory, selftest, Config, PassId};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: ij-analysis <command> [options]

commands:
  check       run the invariant passes over the workspace sources
  self-test   run all passes over crates/analysis/fixtures and assert the
              seeded violations are caught
  inventory   print fresh ATOMICS.md stanzas for the tree
  list        list the passes and what each enforces

options:
  --only PASS   run only this pass (repeatable)
  --skip PASS   run all passes except this one (repeatable)
  --root DIR    workspace root (default: discovered by walking up from the
                current directory to a Cargo.toml with a [workspace] table)
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("ij-analysis: {msg}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let Some(command) = args.first() else {
        return Err("missing command".into());
    };

    let mut only: Vec<PassId> = Vec::new();
    let mut skip: Vec<PassId> = Vec::new();
    let mut root: Option<PathBuf> = None;
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--only" | "--skip" => {
                let value = it
                    .next()
                    .ok_or_else(|| format!("{arg} needs a pass name"))?;
                let pass = PassId::parse(value).ok_or_else(|| {
                    format!(
                        "unknown pass `{value}` (have: {})",
                        PassId::ALL.map(|p| p.name()).join(", ")
                    )
                })?;
                if arg == "--only" {
                    only.push(pass)
                } else {
                    skip.push(pass)
                }
            }
            "--root" => {
                let value = it.next().ok_or("--root needs a directory")?;
                root = Some(PathBuf::from(value));
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if !only.is_empty() && !skip.is_empty() {
        return Err("--only and --skip are mutually exclusive".into());
    }

    if command == "list" {
        for pass in PassId::ALL {
            println!("{:<22} {}", pass.name(), pass.describe());
        }
        return Ok(ExitCode::SUCCESS);
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
            find_workspace_root(&cwd)
                .ok_or("no workspace root found above the current directory; pass --root")?
        }
    };

    match command.as_str() {
        "check" => {
            let passes: Vec<PassId> = if !only.is_empty() {
                only
            } else {
                PassId::ALL
                    .into_iter()
                    .filter(|p| !skip.contains(p))
                    .collect()
            };
            let config = Config::workspace(root);
            let findings = crate_run(&config, &passes)?;
            if findings.is_empty() {
                println!(
                    "ij-analysis: OK — {} pass(es) clean over {}",
                    passes.len(),
                    config.root.display()
                );
                Ok(ExitCode::SUCCESS)
            } else {
                for f in &findings {
                    println!("{f}");
                }
                println!("ij-analysis: {} finding(s)", findings.len());
                Ok(ExitCode::FAILURE)
            }
        }
        "self-test" => match selftest::run(&root) {
            Ok(summary) => {
                println!("ij-analysis: {summary}");
                Ok(ExitCode::SUCCESS)
            }
            Err(report) => {
                eprintln!("ij-analysis: {report}");
                Ok(ExitCode::FAILURE)
            }
        },
        "inventory" => {
            let config = Config::workspace(root);
            let stanzas = render_inventory(&config).map_err(|e| e.to_string())?;
            print!("{stanzas}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

fn crate_run(config: &Config, passes: &[PassId]) -> Result<Vec<ij_analysis::Finding>, String> {
    ij_analysis::run(config, passes).map_err(|e| format!("scan failed: {e}"))
}
