//! `l2fuzz-analyze` — the gating protocol-model checker.
//!
//! Exhaustively verifies the L2CAP protocol model (reachability masks,
//! witness replay, derived fuzz plans, dead rows, asymmetries, and
//! vulnerability trigger certificates), optionally runs the source-level
//! invariant lints, prints a human report, and exits nonzero on any
//! unproven claim.
//!
//! ```text
//! l2fuzz-analyze [--lints] [--json PATH] [--pretty] [--root PATH]
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use analysis::{run_lints, Allowlist, AnalysisReport};

struct Args {
    lints: bool,
    json: Option<PathBuf>,
    pretty: bool,
    root: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        lints: false,
        json: None,
        pretty: false,
        root: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--lints" => args.lints = true,
            "--pretty" => args.pretty = true,
            "--json" => {
                let path = it.next().ok_or("--json requires a path")?;
                args.json = Some(PathBuf::from(path));
            }
            "--root" => {
                let path = it.next().ok_or("--root requires a path")?;
                args.root = Some(PathBuf::from(path));
            }
            "--help" | "-h" => {
                println!(
                    "l2fuzz-analyze [--lints] [--json PATH] [--pretty] [--root PATH]\n\
                     \n\
                     Exhaustively model-checks the L2CAP protocol model and exits\n\
                     nonzero on any unproven reachability claim or lint violation.\n\
                     \n\
                     --lints       also run source-level invariant lints\n\
                     --json PATH   write the full report as JSON to PATH\n\
                     --pretty      pretty-print the JSON report\n\
                     --root PATH   repository root (default: walk up from cwd)"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(args)
}

/// Walks up from `start` until a directory containing `crates/btcore`
/// appears (the repository root).
fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("crates").join("btcore").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("l2fuzz-analyze: {msg}");
            return ExitCode::from(2);
        }
    };

    let lints = if args.lints {
        let start = args
            .root
            .clone()
            .or_else(|| std::env::current_dir().ok())
            .unwrap_or_else(|| PathBuf::from("."));
        let Some(root) = find_root(&start) else {
            eprintln!(
                "l2fuzz-analyze: could not locate the repository root from {} \
                 (pass --root)",
                start.display()
            );
            return ExitCode::from(2);
        };
        match run_lints(&root) {
            Ok(report) => Some(report),
            Err(err) => {
                eprintln!("l2fuzz-analyze: lint scan failed: {err}");
                return ExitCode::from(2);
            }
        }
    } else {
        None
    };

    let report = AnalysisReport::run(&Allowlist::default(), lints);
    print!("{}", report.render_text());

    if let Some(path) = &args.json {
        let json = if args.pretty {
            serde_json::to_string_pretty(&report)
        } else {
            serde_json::to_string(&report)
        };
        if let Err(err) = std::fs::write(path, json + "\n") {
            eprintln!("l2fuzz-analyze: failed to write {}: {err}", path.display());
            return ExitCode::from(2);
        }
        println!("JSON report written to {}", path.display());
    }

    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
