//! The timer storm: 64 machines of fine-grained local work on two lanes.

use rb_simcore::Duration;
use rb_workloads::storm::{run, StormConfig, StormReport};

/// The storm as the benchmark runs it: the default 64-machine mix on two
/// lanes and (at most) two worker threads.
pub fn config(seed: u64, machines: usize, run_for: Duration) -> StormConfig {
    StormConfig {
        seed,
        machines,
        run_for,
        shards: 2,
        threads: crate::stats::nproc().min(2),
        ..StormConfig::default()
    }
}

/// Build the world, spawn its processes and introduce the ring, without
/// running: `storm::run` with a zero run length.
pub fn set_up(cfg: &StormConfig) {
    run(&StormConfig {
        run_for: Duration::ZERO,
        ..*cfg
    });
}

/// Problems with one storm run's output, given the event count every run
/// of this config must dispatch.
pub fn check(expected_events: u64, cfg: &StormConfig, r: &StormReport) -> Vec<String> {
    let mut problems = Vec::new();
    if r.queue.dispatched != expected_events {
        problems.push(format!(
            "storm dispatched {} events, expected {expected_events}",
            r.queue.dispatched
        ));
    }
    if r.sim_seconds + 1e-6 < cfg.run_for.as_secs_f64() {
        problems.push(format!(
            "storm simulated {} s of the {} s asked",
            r.sim_seconds,
            cfg.run_for.as_secs_f64()
        ));
    }
    problems
}
