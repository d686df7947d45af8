//! `rbcheck` — static source-conformance checker and domain linter.
//!
//! ```text
//! rbcheck [--root <dir>] [--allow-missing] [--no-cycles] [--format text|json]
//! ```
//!
//! Scans the workspace source (`crates/*/src` plus the root `src/`),
//! diffs every bound behavior file against its declared `ProtocolSpec`s,
//! runs the domain lints (std-hash-in-hot-path, wallclock-in-sim,
//! thread-in-sim, println-in-lib, shared-state-in-behavior), checks
//! allowlist staleness, and reports untimed wait-for cycles in the
//! declared protocol graph.
//! Exit status is 0 when the tree is clean, 1 on findings, 2 on usage or
//! I/O errors — the convention shared by `rblint`, `rbmodel`, and
//! `rbtrace`.

mod cli_common;

use cli_common::{emit, usage_error, Format};
use rb_analyze::{run_check, CheckConfig};
use rb_simcore::Json;
use std::process::ExitCode;

const USAGE: &str = "usage: rbcheck [options]
  source conformance, domain lints (std-hash-in-hot-path, wallclock-in-sim,
  thread-in-sim, println-in-lib, shared-state-in-behavior), wait-for cycles
  --root <dir>     workspace root to scan (default: auto-detected)
  --allow-missing  skip bound behavior files absent under the root
                   (for seeded fixture trees containing only the files
                   under test)
  --no-cycles      skip the untimed wait-for cycle check
  --format <f>     text (default) | json
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root: Option<String> = None;
    let mut allow_missing = false;
    let mut include_cycles = true;
    let mut format = Format::Text;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => match it.next() {
                Some(dir) => root = Some(dir.clone()),
                None => return usage_error("rbcheck", USAGE, "--root needs a value"),
            },
            "--allow-missing" => allow_missing = true,
            "--no-cycles" => include_cycles = false,
            "--format" => match Format::parse(it.next().map(|s| s.as_str())) {
                Ok(f) => format = f,
                Err(e) => return usage_error("rbcheck", USAGE, &e),
            },
            "--help" | "-h" => {
                emit(USAGE);
                return ExitCode::SUCCESS;
            }
            _ => return usage_error("rbcheck", USAGE, &format!("unknown argument {a}")),
        }
    }

    let root = root
        .map(std::path::PathBuf::from)
        .unwrap_or_else(rb_analyze::check::workspace_root);
    if !root.is_dir() {
        eprintln!("rbcheck: {}: not a directory", root.display());
        return ExitCode::from(2);
    }

    let mut cfg = CheckConfig::new(root.clone());
    cfg.allow_missing = allow_missing;
    cfg.include_cycles = include_cycles;
    let findings = match run_check(&cfg) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("rbcheck: {e}");
            return ExitCode::from(2);
        }
    };

    if format.is_json() {
        let doc = Json::obj()
            .set("schema", "rbcheck/v1")
            .set("root", root.display().to_string().as_str())
            .set("ok", findings.is_empty())
            .set(
                "findings",
                Json::Arr(
                    findings
                        .iter()
                        .map(|f| {
                            Json::obj()
                                .set("rule", f.kind.name())
                                .set("file", f.file.as_str())
                                .set("line", f.line as f64)
                                .set("message", f.message.as_str())
                        })
                        .collect(),
                ),
            );
        emit(&doc.render());
    } else if findings.is_empty() {
        emit(&format!("rbcheck: {} clean\n", root.display()));
    } else {
        let mut out = String::new();
        for f in &findings {
            out.push_str(&f.render());
            out.push('\n');
        }
        out.push_str(&format!("rbcheck: {} finding(s)\n", findings.len()));
        emit(&out);
    }

    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
