//! `rb-analyze`: static and dynamic checking for the broker stack.
//!
//! Two analyses live here (see DESIGN.md §9):
//!
//! - **Protocol graph** ([`graph`]) — merges every behavior's declared
//!   [`rb_proto::ProtocolSpec`] into a send/handle graph over the full
//!   wire-message catalog and reports dead or unanswerable protocol
//!   surface. Entry point: [`check_protocol_graph`].
//!
//! - **Trace linter** ([`rules`]) — a declarative rule engine over the
//!   structured simulation trace encoding the paper's allocation safety
//!   properties (no double allocation, reclaims terminate, SIGKILL only
//!   after SIGTERM + grace, ...). Entry points: [`lint`] /
//!   [`install_linter`], plus the `rblint` binary for dumped trace files.
//!
//! - **Observability toolkit** ([`obs`], DESIGN.md §12) — allocation
//!   latency breakdowns over the causal span trees, per-machine
//!   utilization timelines, and Perfetto/Chrome trace-event export with
//!   a schema validator. Entry points: [`breakdowns_from_events`],
//!   [`chrome_trace`], plus the `rbtrace` binary.
//!
//! - **Critical-path analyzer** ([`critpath`], DESIGN.md §16) — strict
//!   per-allocation latency-leg accounting (legs sum to the end-to-end
//!   span), a component/leg blame table with reclaim re-attribution, the
//!   longest dependent chain to quiescence, and Perfetto flow arrows.
//!   Entry points: [`critical_paths`], [`critpath_json`], plus
//!   `rbtrace critpath`.
//!
//! - **Interleaving explorer** ([`model`], DESIGN.md §11) — bounded
//!   exhaustive exploration of same-instant tie-break schedules with
//!   dynamic partial-order reduction, running the trace rules plus
//!   deadlock / lost-wakeup / allocation-linearizability checks on every
//!   terminal state. Entry points: [`explore`] and the `rbmodel` binary.

pub mod check;
pub mod critpath;
pub mod graph;
pub mod hb;
pub mod model;
pub mod obs;
pub mod rules;
pub mod srcmodel;

pub use check::{
    check_source_conformance, run_check, CheckConfig, CheckKind, Finding, SpecBinding,
};
pub use critpath::{
    blame_table, chrome_trace_with_flows, critical_paths, critpath_json, longest_chain,
    render_critpath, BlameRow, ChainStep, CritAlloc, CritLeg,
};
pub use graph::{all_specs, analyze_specs, check_protocol_graph, untimed_wait_cycles, GraphReport};
pub use model::{explore, ExploreConfig, Mode, ModelReport, ModelScenario, ModelViolation};
pub use obs::{
    alloc_breakdowns, breakdowns_from_events, chrome_trace, render_breakdowns, render_utilization,
    utilization, validate_chrome, AllocBreakdown, Utilization,
};
pub use rules::{all_rules, lint_events, render_violations, Rule, Violation};
pub use srcmodel::{scan_source, SourceFacts};

use rb_simcore::TraceRecorder;
use rb_simnet::World;

/// Lint a recorded trace with the full rule catalogue.
pub fn lint(trace: &TraceRecorder) -> Vec<Violation> {
    rules::lint_events(trace.events())
}

/// Install the trace linter as an opt-in post-run check on a [`World`].
/// Nothing runs until `world.run_trace_checks()` is called (typically at
/// the end of an integration test); the check fails with every violation
/// rendered alongside its offending event window.
pub fn install_linter(world: &mut World) {
    world.add_trace_check("rb-analyze", |trace| {
        let violations = lint(trace);
        if violations.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "{} trace invariant violation(s):\n{}",
                violations.len(),
                render_violations(&violations)
            ))
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_simcore::{Duration, SimTime};
    use rb_simnet::WorldBuilder;

    #[test]
    fn installed_linter_passes_on_clean_world() {
        let mut builder = WorldBuilder::new();
        builder.standard_lab(2);
        let mut world = builder.build();
        install_linter(&mut world);
        world.run_until(SimTime::ZERO + Duration::from_secs(1));
        world.run_trace_checks().expect("clean world lints clean");
    }
}
