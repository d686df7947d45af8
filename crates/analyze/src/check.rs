//! `rbcheck` — source-conformance checking and domain lints (DESIGN.md §13).
//!
//! The protocol graph ([`crate::graph`]) analyzes the *declared*
//! [`ProtocolSpec`]s; nothing there notices when the **code** drifts away
//! from its declaration — a behavior can start constructing a new variant
//! or silently drop a `match` arm and the graph stays green. This module
//! closes that gap by scanning the actual Rust source with the
//! [`crate::srcmodel`] token scanner and diffing what each behavior file
//! *does* against what its spec *says*:
//!
//! - **undeclared-send** — the file constructs a variant its spec(s) do
//!   not declare in `sends`;
//! - **phantom-send** — a declared send the file never constructs;
//! - **undeclared-handle** — a `match` arm on a variant not declared in
//!   `handles`;
//! - **dropped-handler** — a declared handle with no `match` arm left.
//!
//! Deliberate exceptions carry a justification in [`CONFORMANCE_ALLOW`]
//! (mirroring `HANDLED_NEVER_SENT_ALLOW` in the graph); entries that stop
//! matching anything are themselves reported as **stale-allow** so the
//! allowlist cannot rot.
//!
//! On top of conformance, workspace-wide **domain lints** run over every
//! crate's `src/`:
//!
//! - **std-hash-in-hot-path** — `std::collections::HashMap`/`HashSet` in
//!   a hot-path crate (must use `rb_simcore::FxHashMap`: SipHash costs
//!   measurable throughput on the kernel maps, see DESIGN.md §10);
//! - **wallclock-in-sim** / **thread-in-sim** — `Instant::now`,
//!   `SystemTime`, or `std::thread::spawn/scope` inside simulation
//!   crates, where all time must come from [`rb_simcore::SimTime`] and
//!   all concurrency from the event queue (wall-clock reads and real
//!   threads break determinism and replay);
//! - **println-in-lib** — `println!`/`eprintln!` outside `bin/`, tests,
//!   and examples (library code must trace, not print);
//! - **shared-state-in-behavior** — `Mutex`, `RwLock` or an `Atomic*`
//!   type in a behavior crate ([`CONFORMANCE_CRATES`]). Lanes run
//!   behaviors on worker threads, so such state is reachable from more
//!   than one thread; every use carries a reason in [`LINT_ALLOW`]. The
//!   compiler already rejects `Rc`/`RefCell` there (`Box<dyn Behavior +
//!   Send>`), but not this.
//!
//! Finally, the static *wait-for cycle* check
//! ([`crate::graph::untimed_wait_cycles`]) is folded into the findings so
//! the `rbcheck` CLI reports protocol-level deadlock candidates alongside
//! source drift. [`check_source_conformance`] is the `#[test]` entry
//! point; the `rbcheck` binary wraps the same engine for the command line
//! and CI.

use crate::srcmodel::{scan_source, LintHit, SourceFacts};
use rb_proto::{ProtocolSpec, ALL_VARIANTS};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Crates whose maps sit on the simulation hot path and must use
/// `rb_simcore::FxHashMap` / `FxHashSet` (DESIGN.md §10).
pub const HOT_PATH_CRATES: &[&str] = &["broker", "parsys", "simnet", "simcore"];

/// Crates that run *inside* simulated time: wall-clock reads and real
/// threads there break determinism and schedule replay.
pub const SIM_CRATES: &[&str] = &[
    "broker",
    "parsys",
    "simnet",
    "simcore",
    "proto",
    "rsl",
    "workloads",
];

/// The behavior crates whose source is diffed against the declared
/// protocol specs, and where shared mutable state needs an allowlist
/// entry.
pub const CONFORMANCE_CRATES: &[&str] = &["broker", "parsys", "simnet"];

/// One category of `rbcheck` finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CheckKind {
    /// File constructs a variant its bound spec(s) don't declare sending.
    UndeclaredSend,
    /// Spec declares a send the bound file never constructs.
    PhantomSend,
    /// File has a `match` arm on a variant not declared handled.
    UndeclaredHandle,
    /// Spec declares a handle with no `match` arm in the bound file.
    DroppedHandler,
    /// A file in a conformance crate touches wire messages but is bound
    /// to no [`ProtocolSpec`].
    UnboundProtocolFile,
    /// A spec's bound source file does not exist under the scanned root.
    MissingBoundFile,
    /// An allowlist entry that no longer suppresses anything.
    StaleAllow,
    /// std `HashMap`/`HashSet` in a hot-path crate.
    StdHashInHotPath,
    /// `Instant::now` / `SystemTime` in a simulation crate.
    WallClockInSim,
    /// `std::thread::spawn` / `scope` in a simulation crate.
    ThreadInSim,
    /// `println!` / `eprintln!` in library code.
    PrintlnInLib,
    /// `Mutex` / `RwLock` / `Atomic*` in a behavior crate.
    SharedStateInBehavior,
    /// Untimed wait-for cycle in the declared protocol graph.
    UntimedWaitCycle,
}

impl CheckKind {
    /// Stable rule name used in text and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            CheckKind::UndeclaredSend => "undeclared-send",
            CheckKind::PhantomSend => "phantom-send",
            CheckKind::UndeclaredHandle => "undeclared-handle",
            CheckKind::DroppedHandler => "dropped-handler",
            CheckKind::UnboundProtocolFile => "unbound-protocol-file",
            CheckKind::MissingBoundFile => "missing-bound-file",
            CheckKind::StaleAllow => "stale-allow",
            CheckKind::StdHashInHotPath => "std-hash-in-hot-path",
            CheckKind::WallClockInSim => "wallclock-in-sim",
            CheckKind::ThreadInSim => "thread-in-sim",
            CheckKind::PrintlnInLib => "println-in-lib",
            CheckKind::SharedStateInBehavior => "shared-state-in-behavior",
            CheckKind::UntimedWaitCycle => "untimed-wait-cycle",
        }
    }
}

/// One `rbcheck` finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub kind: CheckKind,
    /// Workspace-relative path (empty for tree-level findings such as
    /// wait-for cycles).
    pub file: String,
    /// 1-based line, 0 when the finding is not line-anchored.
    pub line: u32,
    pub message: String,
}

impl Finding {
    /// `rule file:line message` (file/line omitted when absent).
    pub fn render(&self) -> String {
        if self.file.is_empty() {
            format!("{}: {}", self.kind.name(), self.message)
        } else if self.line == 0 {
            format!("{}: {}: {}", self.kind.name(), self.file, self.message)
        } else {
            format!(
                "{}: {}:{}: {}",
                self.kind.name(),
                self.file,
                self.line,
                self.message
            )
        }
    }
}

/// Where a behavior's code lives relative to the workspace root — or why
/// it is out of reach of the scanner.
#[derive(Debug, Clone, Copy)]
pub enum Binding {
    /// The spec's behavior is implemented in this workspace-relative file.
    File(&'static str),
    /// The behavior is not implemented inside the scanned tree; the
    /// string is the justification (shown when listing bindings).
    External(&'static str),
}

/// One spec → source-file binding.
pub struct SpecBinding {
    pub spec: &'static ProtocolSpec,
    pub binding: Binding,
}

/// The shipped actor → file map. Several actors can share one file (the
/// four PVM behaviors all live in `pvm.rs`); conformance then diffs the
/// file against the *union* of the bound specs, which is the best a
/// token-level scanner can attribute.
pub fn default_bindings() -> Vec<SpecBinding> {
    use Binding::{External, File};
    let b = |spec, binding| SpecBinding { spec, binding };
    vec![
        b(
            &rb_broker::protocol::BROKER_SPEC,
            File("crates/broker/src/broker.rs"),
        ),
        b(
            &rb_broker::protocol::DAEMON_SPEC,
            File("crates/broker/src/daemon.rs"),
        ),
        b(
            &rb_broker::protocol::APPL_SPEC,
            File("crates/broker/src/appl.rs"),
        ),
        b(
            &rb_broker::protocol::SUBAPPL_SPEC,
            File("crates/broker/src/subappl.rs"),
        ),
        b(
            &rb_broker::protocol::RSHPRIME_SPEC,
            File("crates/broker/src/rshprime.rs"),
        ),
        b(
            &rb_broker::protocol::RBSTAT_SPEC,
            File("crates/broker/src/tools.rs"),
        ),
        b(
            &rb_parsys::protocol::PVM_MASTER_SPEC,
            File("crates/parsys/src/pvm.rs"),
        ),
        b(
            &rb_parsys::protocol::PVM_SLAVE_SPEC,
            File("crates/parsys/src/pvm.rs"),
        ),
        b(
            &rb_parsys::protocol::PVM_CONSOLE_SPEC,
            File("crates/parsys/src/pvm.rs"),
        ),
        b(
            &rb_parsys::protocol::PVM_APP_SPEC,
            File("crates/parsys/src/pvm.rs"),
        ),
        b(
            &rb_parsys::protocol::LAM_ORIGIN_SPEC,
            File("crates/parsys/src/lam.rs"),
        ),
        b(
            &rb_parsys::protocol::LAM_NODE_SPEC,
            File("crates/parsys/src/lam.rs"),
        ),
        b(
            &rb_parsys::protocol::LAM_CONSOLE_SPEC,
            File("crates/parsys/src/lam.rs"),
        ),
        b(
            &rb_parsys::protocol::CALYPSO_MASTER_SPEC,
            File("crates/parsys/src/calypso.rs"),
        ),
        b(
            &rb_parsys::protocol::CALYPSO_WORKER_SPEC,
            File("crates/parsys/src/calypso.rs"),
        ),
        b(
            &rb_parsys::protocol::PLINDA_SERVER_SPEC,
            File("crates/parsys/src/plinda.rs"),
        ),
        b(
            &rb_parsys::protocol::PLINDA_WORKER_SPEC,
            File("crates/parsys/src/plinda.rs"),
        ),
        b(
            &rb_parsys::protocol::PMAKE_SPEC,
            File("crates/parsys/src/pmake.rs"),
        ),
        b(
            &rb_simnet::protocol::ECHO_SPEC,
            File("crates/simnet/src/programs.rs"),
        ),
        b(
            &rb_simnet::protocol::HARNESS_SPEC,
            External(
                "the harness is the out-of-band test/scenario driver; its control \
                 messages are injected by workloads, examples, and integration tests, \
                 which live outside the scanned behavior tree",
            ),
        ),
    ]
}

/// A justified conformance exception: suppresses findings of `kind` for
/// `variant` in `file`. Mirrors `HANDLED_NEVER_SENT_ALLOW`: every entry
/// carries a why, and an entry that suppresses nothing is reported stale.
pub struct ConformanceAllow {
    pub file: &'static str,
    pub kind: CheckKind,
    pub variant: &'static str,
    pub why: &'static str,
}

/// Shipped conformance exceptions.
pub const CONFORMANCE_ALLOW: &[ConformanceAllow] = &[];

/// A justified domain-lint exception for one file.
pub struct LintAllow {
    pub file: &'static str,
    pub kind: CheckKind,
    pub why: &'static str,
}

/// Shipped lint exceptions.
pub const LINT_ALLOW: &[LintAllow] = &[
    LintAllow {
        file: "crates/simcore/src/fxhash.rs",
        kind: CheckKind::StdHashInHotPath,
        why: "definition site: FxHashMap/FxHashSet are type aliases over the std \
              containers with the fx hasher plugged in",
    },
    LintAllow {
        file: "crates/bench/src/lib.rs",
        kind: CheckKind::PrintlnInLib,
        why: "the bench harness's console reporter; printed measurements are the \
              bench crate's product, and benches have no trace to write to",
    },
    LintAllow {
        file: "crates/simcore/src/sink.rs",
        kind: CheckKind::PrintlnInLib,
        why: "the streaming trace sink's one-shot write-failure warning cannot go \
              to the trace — the sink *is* the trace, and it just failed",
    },
    LintAllow {
        file: "crates/simcore/src/prof.rs",
        kind: CheckKind::WallClockInSim,
        why: "ProfTimer is the self-profiler's clock: it measures host dispatch \
              cost, which is wall time by definition, and feeds only ProfEntry \
              statistics, never SimTime (purity pinned by \
              scheduler_equiv::profiling_is_a_pure_observer)",
    },
    LintAllow {
        file: "crates/broker/src/tools.rs",
        kind: CheckKind::SharedStateInBehavior,
        why: "RbStat.sink: rbstat's StatusSink is an Arc<Mutex<..>> mailbox the \
              harness hands to one proc, which deposits into it from its lane; \
              the harness reads it only after the proc exits, so no two threads \
              contend on it mid-window",
    },
    LintAllow {
        file: "crates/simnet/src/lane.rs",
        kind: CheckKind::SharedStateInBehavior,
        why: "SharedCore.up: the AtomicBool liveness mirror a lane reads for a \
              machine it does not own (standard rsh's reachability check); only \
              the coordinator writes it, between windows, so Relaxed suffices",
    },
    LintAllow {
        file: "crates/simnet/src/world.rs",
        kind: CheckKind::SharedStateInBehavior,
        why: "builds and writes the SharedCore.up AtomicBool mirror from the \
              coordinator (set_machine_up), never from a lane",
    },
];

/// Configuration for one `rbcheck` run.
pub struct CheckConfig<'a> {
    /// Workspace root all bound/linted paths are resolved against.
    pub root: PathBuf,
    /// Skip (rather than report) bound files missing under `root` — used
    /// when running against seeded fixture trees that contain only the
    /// files under test.
    pub allow_missing: bool,
    pub conformance_allow: &'a [ConformanceAllow],
    pub lint_allow: &'a [LintAllow],
    /// Also run the untimed wait-for cycle check over the declared graph.
    pub include_cycles: bool,
}

impl CheckConfig<'_> {
    /// The default configuration rooted at `root`: shipped allowlists,
    /// missing files are findings, cycle check on.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        CheckConfig {
            root: root.into(),
            allow_missing: false,
            conformance_allow: CONFORMANCE_ALLOW,
            lint_allow: LINT_ALLOW,
            include_cycles: true,
        }
    }
}

/// Diff one file's scanned facts against the union of its bound specs.
/// Pure function of its inputs — the fixture tests drive it directly.
pub fn diff_file(file: &str, facts: &SourceFacts, specs: &[&ProtocolSpec]) -> Vec<Finding> {
    let mut sends: BTreeSet<&str> = BTreeSet::new();
    let mut handles: BTreeSet<&str> = BTreeSet::new();
    for s in specs {
        sends.extend(s.sends.iter().copied());
        handles.extend(s.handles.iter().copied());
    }
    let actors = specs.iter().map(|s| s.actor).collect::<Vec<_>>().join("+");
    let mut out = Vec::new();

    for (variant, lines) in &facts.constructs {
        if !sends.contains(variant.as_str()) {
            out.push(Finding {
                kind: CheckKind::UndeclaredSend,
                file: file.to_string(),
                line: lines[0],
                message: format!(
                    "constructs {variant}, which no bound spec ({actors}) declares in `sends`"
                ),
            });
        }
    }
    for &declared in &sends {
        if !facts.constructs.contains_key(declared) {
            out.push(Finding {
                kind: CheckKind::PhantomSend,
                file: file.to_string(),
                line: 0,
                message: format!(
                    "spec ({actors}) declares sending {declared}, but the file never constructs it"
                ),
            });
        }
    }
    for (variant, lines) in &facts.dispatches {
        if !handles.contains(variant.as_str()) {
            out.push(Finding {
                kind: CheckKind::UndeclaredHandle,
                file: file.to_string(),
                line: lines[0],
                message: format!(
                    "matches on {variant}, which no bound spec ({actors}) declares in `handles`"
                ),
            });
        }
    }
    for &declared in &handles {
        if !facts.dispatches.contains_key(declared) {
            out.push(Finding {
                kind: CheckKind::DroppedHandler,
                file: file.to_string(),
                line: 0,
                message: format!("spec ({actors}) declares handling {declared}, but the file has no match arm for it"),
            });
        }
    }
    out
}

/// Apply a conformance allowlist: returns the surviving findings plus one
/// stale-allow finding per entry (for `file`s in `scanned`) that
/// suppressed nothing.
pub fn apply_conformance_allow(
    findings: Vec<Finding>,
    allow: &[ConformanceAllow],
    scanned: &BTreeSet<String>,
) -> Vec<Finding> {
    let mut used = vec![false; allow.len()];
    let mut out: Vec<Finding> = findings
        .into_iter()
        .filter(|f| {
            for (i, a) in allow.iter().enumerate() {
                if a.kind == f.kind && a.file == f.file && f.message.contains(a.variant) {
                    used[i] = true;
                    return false;
                }
            }
            true
        })
        .collect();
    for (i, a) in allow.iter().enumerate() {
        if !used[i] && scanned.contains(a.file) {
            out.push(Finding {
                kind: CheckKind::StaleAllow,
                file: a.file.to_string(),
                line: 0,
                message: format!(
                    "allowlist entry ({}, {}) no longer suppresses anything — remove it",
                    a.kind.name(),
                    a.variant
                ),
            });
        }
    }
    out
}

/// Which lint kinds apply to a file, from its workspace-relative path.
fn lints_for(rel: &str) -> Vec<CheckKind> {
    // `crates/<name>/src/...` or the root `src/...` (crate "resourcebroker").
    let crate_name = rel
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("resourcebroker");
    let mut kinds = vec![CheckKind::PrintlnInLib];
    if HOT_PATH_CRATES.contains(&crate_name) {
        kinds.push(CheckKind::StdHashInHotPath);
    }
    if SIM_CRATES.contains(&crate_name) {
        kinds.push(CheckKind::WallClockInSim);
        kinds.push(CheckKind::ThreadInSim);
    }
    if CONFORMANCE_CRATES.contains(&crate_name) {
        kinds.push(CheckKind::SharedStateInBehavior);
    }
    kinds
}

fn lint_kind_of(hit: LintHit) -> CheckKind {
    match hit {
        LintHit::StdHash => CheckKind::StdHashInHotPath,
        LintHit::WallClock => CheckKind::WallClockInSim,
        LintHit::ThreadSpawn => CheckKind::ThreadInSim,
        LintHit::Println => CheckKind::PrintlnInLib,
        LintHit::SharedState => CheckKind::SharedStateInBehavior,
    }
}

/// Run the domain lints over one scanned file.
pub fn lint_file(rel: &str, facts: &SourceFacts) -> Vec<Finding> {
    let applicable = lints_for(rel);
    let mut out = Vec::new();
    for &(hit, line) in &facts.lint_hits {
        let kind = lint_kind_of(hit);
        if !applicable.contains(&kind) {
            continue;
        }
        let what = match hit {
            LintHit::StdHash => {
                "std HashMap/HashSet in a hot-path crate — use rb_simcore::FxHashMap/FxHashSet"
            }
            LintHit::WallClock => {
                "wall-clock time in a simulation crate — all time must come from SimTime"
            }
            LintHit::ThreadSpawn => {
                "real threads in a simulation crate — concurrency belongs to the event queue"
            }
            LintHit::Println => {
                "println!/eprintln! in library code — trace instead (stdout belongs to bins)"
            }
            LintHit::SharedState => {
                "Mutex/RwLock/Atomic* in a behavior crate — state reachable from more than \
                 one lane thread needs a LINT_ALLOW entry with its reason"
            }
        };
        out.push(Finding {
            kind,
            file: rel.to_string(),
            line,
            message: what.to_string(),
        });
    }
    out
}

/// Recursively collect `.rs` files under `dir`, sorted, skipping `bin/`
/// directories (CLI mains may print and parse args however they like).
fn rs_files_under(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            if path.file_name().map(|n| n == "bin").unwrap_or(false) {
                continue;
            }
            rs_files_under(&path, out);
        } else if path.extension().map(|e| e == "rs").unwrap_or(false) {
            out.push(path);
        }
    }
}

/// Run the full source check rooted at `cfg.root`: conformance diff over
/// every bound behavior file, unbound-file sweep, domain lints over every
/// crate's `src/`, allowlist staleness, and (optionally) the untimed
/// wait-for cycle check. Findings are sorted by (file, line, kind).
pub fn run_check(cfg: &CheckConfig<'_>) -> Result<Vec<Finding>, String> {
    let catalog: BTreeSet<&str> = ALL_VARIANTS.iter().copied().collect();
    let mut findings: Vec<Finding> = Vec::new();
    let mut scanned: BTreeSet<String> = BTreeSet::new();
    // Workspace-relative path -> scanned facts (each file scanned once).
    let mut facts_by_file: BTreeMap<String, SourceFacts> = BTreeMap::new();

    // ---- discover every lintable file --------------------------------
    let mut files: Vec<PathBuf> = Vec::new();
    let crates_dir = cfg.root.join("crates");
    if let Ok(entries) = std::fs::read_dir(&crates_dir) {
        let mut crates: Vec<_> = entries.flatten().map(|e| e.path()).collect();
        crates.sort();
        for krate in crates {
            rs_files_under(&krate.join("src"), &mut files);
        }
    }
    rs_files_under(&cfg.root.join("src"), &mut files);

    for path in &files {
        let rel = path
            .strip_prefix(&cfg.root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let facts = scan_source(&text);
        scanned.insert(rel.clone());
        facts_by_file.insert(rel, facts);
    }

    // ---- conformance diff over bound behavior files -------------------
    let bindings = default_bindings();
    let mut specs_by_file: BTreeMap<&str, Vec<&'static ProtocolSpec>> = BTreeMap::new();
    for b in &bindings {
        if let Binding::File(f) = b.binding {
            specs_by_file.entry(f).or_default().push(b.spec);
        }
    }
    let mut raw_conformance: Vec<Finding> = Vec::new();
    for (file, specs) in &specs_by_file {
        match facts_by_file.get(*file) {
            Some(facts) => raw_conformance.extend(diff_file(file, facts, specs)),
            None if cfg.allow_missing => {}
            None => findings.push(Finding {
                kind: CheckKind::MissingBoundFile,
                file: file.to_string(),
                line: 0,
                message: format!(
                    "bound to spec(s) {} but missing under {}",
                    specs.iter().map(|s| s.actor).collect::<Vec<_>>().join(", "),
                    cfg.root.display()
                ),
            }),
        }
    }
    findings.extend(apply_conformance_allow(
        raw_conformance,
        cfg.conformance_allow,
        &scanned,
    ));

    // ---- unbound files touching wire messages -------------------------
    for (rel, facts) in &facts_by_file {
        let in_conformance_crate = rel
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
            .map(|c| CONFORMANCE_CRATES.contains(&c))
            .unwrap_or(false);
        if !in_conformance_crate || specs_by_file.contains_key(rel.as_str()) {
            continue;
        }
        let touched: Vec<&str> = facts
            .constructs
            .keys()
            .chain(facts.dispatches.keys())
            .map(|s| s.as_str())
            .filter(|v| catalog.contains(v))
            .collect();
        if !touched.is_empty() {
            findings.push(Finding {
                kind: CheckKind::UnboundProtocolFile,
                file: rel.clone(),
                line: 0,
                message: format!(
                    "touches wire messages [{}] but is bound to no ProtocolSpec — \
                     add a binding in rb_analyze::check::default_bindings",
                    touched.join(", ")
                ),
            });
        }
    }

    // ---- domain lints --------------------------------------------------
    let mut lint_used = vec![false; cfg.lint_allow.len()];
    for (rel, facts) in &facts_by_file {
        for f in lint_file(rel, facts) {
            let mut allowed = false;
            for (i, a) in cfg.lint_allow.iter().enumerate() {
                if a.kind == f.kind && a.file == f.file {
                    lint_used[i] = true;
                    allowed = true;
                    break;
                }
            }
            if !allowed {
                findings.push(f);
            }
        }
    }
    for (i, a) in cfg.lint_allow.iter().enumerate() {
        if !lint_used[i] && scanned.contains(a.file) {
            findings.push(Finding {
                kind: CheckKind::StaleAllow,
                file: a.file.to_string(),
                line: 0,
                message: format!(
                    "lint allowlist entry ({}) no longer suppresses anything — remove it",
                    a.kind.name()
                ),
            });
        }
    }

    // ---- untimed wait-for cycles over the declared graph --------------
    if cfg.include_cycles {
        for cycle in crate::graph::untimed_wait_cycles(&crate::graph::all_specs()) {
            findings.push(Finding {
                kind: CheckKind::UntimedWaitCycle,
                file: String::new(),
                line: 0,
                message: cycle,
            });
        }
    }

    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.kind, a.message.as_str()).cmp(&(
            b.file.as_str(),
            b.line,
            b.kind,
            b.message.as_str(),
        ))
    });
    Ok(findings)
}

/// Locate the workspace root from the analyze crate's manifest dir.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."))
}

/// The `#[test]`-callable entry point: run the full check against the
/// real workspace tree and fail with every finding rendered. This is the
/// drift gate — a behavior change that adds or drops a wire message
/// without updating its `ProtocolSpec` fails here with a file:line.
pub fn check_source_conformance() -> Result<(), String> {
    let findings = run_check(&CheckConfig::new(workspace_root()))?;
    if findings.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "rbcheck found {} problem(s):\n  {}",
            findings.len(),
            findings
                .iter()
                .map(Finding::render)
                .collect::<Vec<_>>()
                .join("\n  ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The real tree must be conformance-clean: specs match code, no
    /// domain-lint findings, no stale allowlist entries, no untimed
    /// wait-for cycles. This is the zero-findings regression test.
    #[test]
    fn shipped_tree_is_clean() {
        if let Err(e) = check_source_conformance() {
            panic!("{e}");
        }
    }
}
