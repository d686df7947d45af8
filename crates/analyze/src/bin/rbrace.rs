//! `rbrace` — happens-before race checker for the sharded kernel.
//!
//! ```text
//! rbrace hb <trace-file> [--strict] [--format text|json]
//! ```
//!
//! `rbrace hb` replays a trace recorded with `WorldBuilder::hb_trace(true)`
//! through a vector-clock happens-before checker and reports same-window
//! dispatches whose footprints conflict without an ordering edge — the
//! races a wall-parallel build would hit. The static guard against shared
//! mutable state in behaviors is `rbcheck`'s `shared-state-in-behavior`
//! lint (DESIGN.md §13). Exit status is 0 when clean, 1 on findings, 2 on
//! usage or I/O errors — the convention shared by `rblint`, `rbcheck`,
//! `rbmodel`, `rbtrace`.

mod cli_common;

use cli_common::{emit, read_file, usage_error, Format};
use rb_analyze::hb::{self, HbConfig};
use std::process::ExitCode;

const USAGE: &str = "usage: rbrace <command> [options]
  rbrace hb <trace-file> [--strict] [--format text|json]
      vector-clock happens-before race check over a trace recorded
      with WorldBuilder::hb_trace(true)
      --strict       widen the conflict relation (same-proc,
                     other-overlap, harness-vs-all)
  --format <f>       text (default) | json
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(|s| s.as_str()) {
        Some("hb") => run_hb(&args[1..]),
        Some("--help") | Some("-h") => {
            emit(USAGE);
            ExitCode::SUCCESS
        }
        Some(cmd) => usage_error("rbrace", USAGE, &format!("unknown command {cmd}")),
        None => usage_error("rbrace", USAGE, "expected a command (hb)"),
    }
}

fn run_hb(args: &[String]) -> ExitCode {
    let mut path: Option<String> = None;
    let mut strict = false;
    let mut format = Format::Text;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--strict" => strict = true,
            "--format" => match Format::parse(it.next().map(|s| s.as_str())) {
                Ok(f) => format = f,
                Err(e) => return usage_error("rbrace", USAGE, &e),
            },
            _ if a.starts_with('-') => {
                return usage_error("rbrace", USAGE, &format!("unknown argument {a}"))
            }
            _ if path.is_none() => path = Some(a.clone()),
            _ => return usage_error("rbrace", USAGE, "expected exactly one trace file"),
        }
    }
    let Some(path) = path else {
        return usage_error("rbrace", USAGE, "hb needs a trace file");
    };
    let text = match read_file("rbrace", &path) {
        Ok(t) => t,
        Err(code) => return code,
    };
    let report = match hb::check_trace(&text, &HbConfig { strict }) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("rbrace: {path}: {e}");
            return ExitCode::from(2);
        }
    };
    if format.is_json() {
        emit(&hb::report_json(&report, &path).render());
    } else {
        emit(&hb::render_report(&report));
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
