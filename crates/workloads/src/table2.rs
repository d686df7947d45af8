//! Table 2 — performance of reallocation.
//!
//! Three machines: the user's `n00` plus `n01`/`n02`, with an adaptive
//! Calypso job running on both public machines. Plain `rsh` lands on an
//! occupied machine and shares the CPU; `rsh' anylinux` makes the broker
//! *reallocate* — take a machine away from the Calypso job first — which
//! costs about a second, after which compute-bound jobs actually finish
//! sooner because the machine has been cleared of external processes.

use crate::drivers::{slot, ExecOutcome, TimedRsh};
use crate::report::Row;
use crate::scenarios::{
    await_calypso_workers, broker_testbed, broker_testbed_hb, broker_testbed_obs,
    broker_testbed_profiled, broker_testbed_threaded, submit_endless_calypso, LOOP_MILLIS,
};
use rb_broker::{Cluster, DefaultPolicy, JobRequest, JobRun};
use rb_proto::CommandSpec;
use rb_simcore::{SimTime, Summary};
use rb_simnet::ProcEnv;

const LIMIT_OFF: u64 = 600_000_000;

/// Build the occupied testbed: Calypso holding n01 and n02.
fn occupied(seed: u64) -> Cluster {
    let mut c = broker_testbed(2, seed, Box::new(DefaultPolicy::default()), false);
    submit_endless_calypso(&mut c, 2, 800);
    let limit = SimTime(c.world.now().as_micros() + 60_000_000);
    await_calypso_workers(&mut c, 2, limit);
    c
}

/// [`occupied`] in observability trim (spans traced, metrics sampled).
fn occupied_obs(seed: u64) -> Cluster {
    let mut c = broker_testbed_obs(
        2,
        seed,
        Box::new(DefaultPolicy::default()),
        rb_simcore::Duration::from_millis(500),
    );
    submit_endless_calypso(&mut c, 2, 800);
    let limit = SimTime(c.world.now().as_micros() + 60_000_000);
    await_calypso_workers(&mut c, 2, limit);
    c
}

/// One measured reallocation run: the paper's simulated-seconds metric plus
/// the kernel's event-queue counters (for the `bench_report` throughput
/// baseline).
#[derive(Debug, Clone, Copy)]
pub struct RunOutcome {
    pub elapsed_secs: f64,
    pub queue: rb_simcore::QueueStats,
}

/// Plain rsh onto the occupied n02: no reallocation, CPU is shared.
pub fn plain_onto_occupied(seed: u64, cmd: CommandSpec) -> RunOutcome {
    let mut c = occupied(seed);
    let out = slot::<ExecOutcome>();
    let p = c.world.spawn_user(
        c.machines[0],
        Box::new(TimedRsh::new("n02", cmd, out.clone())),
        ProcEnv::user_standard("user"),
    );
    let limit = SimTime(c.world.now().as_micros() + LIMIT_OFF);
    c.world.run_until_pred(limit, |w| !w.alive(p));
    let outcome = out.lock().unwrap().clone().expect("rsh completed");
    assert!(outcome.result.is_ok(), "{outcome:?}");
    RunOutcome {
        elapsed_secs: outcome.elapsed_secs(),
        queue: c.world.kernel_stats(),
    }
}

/// rsh' anylinux: the broker clears a machine first.
pub fn prime_with_realloc(seed: u64, cmd: CommandSpec) -> RunOutcome {
    let mut c = occupied(seed);
    let t0 = c.world.now();
    let appl = c.submit(
        c.machines[0],
        JobRequest {
            rsl: "(adaptive=0)".into(),
            user: "user".into(),
            run: JobRun::Remote {
                host: "anylinux".into(),
                cmd,
            },
        },
    );
    let limit = SimTime(c.world.now().as_micros() + LIMIT_OFF);
    let status = c.await_appl(appl, limit).expect("appl finished");
    assert!(status.is_success(), "{status}");
    RunOutcome {
        elapsed_secs: (c.world.now() - t0).as_secs_f64(),
        queue: c.world.kernel_stats(),
    }
}

/// [`prime_with_realloc`] with spans traced and metrics sampled: returns
/// the outcome plus the rendered trace (for `rbtrace` and the span-tree
/// acceptance tests) and the metrics JSON document.
pub fn prime_with_realloc_traced(
    seed: u64,
    cmd: CommandSpec,
) -> (RunOutcome, String, rb_simcore::Json) {
    let mut c = occupied_obs(seed);
    let t0 = c.world.now();
    let appl = c.submit(
        c.machines[0],
        JobRequest {
            rsl: "(adaptive=0)".into(),
            user: "user".into(),
            run: JobRun::Remote {
                host: "anylinux".into(),
                cmd,
            },
        },
    );
    let limit = SimTime(c.world.now().as_micros() + LIMIT_OFF);
    let status = c.await_appl(appl, limit).expect("appl finished");
    assert!(status.is_success(), "{status}");
    let elapsed_secs = (c.world.now() - t0).as_secs_f64();
    // Let the released machine flow back so the grant spans close.
    let settle = SimTime(c.world.now().as_micros() + 5_000_000);
    c.world.run_until(settle);
    let outcome = RunOutcome {
        elapsed_secs,
        queue: c.world.kernel_stats(),
    };
    let trace = c.world.render_trace_with_stats();
    let metrics = c.world.metrics_json().expect("metrics enabled");
    (outcome, trace, metrics)
}

/// [`prime_with_realloc_traced`] with the kernel self-profiler on:
/// returns the outcome, the rendered trace, the metrics JSON (carrying
/// `prof.*` counters), and the `profile` provenance document. The
/// prof-smoke CI job and `bench_report`'s profile section run this.
pub fn prime_with_realloc_profiled(
    seed: u64,
    cmd: CommandSpec,
) -> (RunOutcome, String, rb_simcore::Json, rb_simcore::Json) {
    let mut c = broker_testbed_profiled(
        2,
        seed,
        Box::new(DefaultPolicy::default()),
        rb_simcore::Duration::from_millis(500),
    );
    submit_endless_calypso(&mut c, 2, 800);
    let limit = SimTime(c.world.now().as_micros() + 60_000_000);
    await_calypso_workers(&mut c, 2, limit);
    let t0 = c.world.now();
    let appl = c.submit(
        c.machines[0],
        JobRequest {
            rsl: "(adaptive=0)".into(),
            user: "user".into(),
            run: JobRun::Remote {
                host: "anylinux".into(),
                cmd,
            },
        },
    );
    let limit = SimTime(c.world.now().as_micros() + LIMIT_OFF);
    let status = c.await_appl(appl, limit).expect("appl finished");
    assert!(status.is_success(), "{status}");
    let elapsed_secs = (c.world.now() - t0).as_secs_f64();
    let settle = SimTime(c.world.now().as_micros() + 5_000_000);
    c.world.run_until(settle);
    let outcome = RunOutcome {
        elapsed_secs,
        queue: c.world.kernel_stats(),
    };
    let trace = c.world.render_trace_with_stats();
    c.world.flush_profile_metrics();
    let metrics = c.world.metrics_json().expect("metrics enabled");
    let profile = c.world.profile_json().expect("profiling enabled");
    (outcome, trace, metrics, profile)
}

/// [`prime_with_realloc`] on an explicit shard count.
/// With `trace` on, the second return value is the rendered trace — the
/// sharded-equivalence tests compare it byte-for-byte across shard
/// counts; `bench_report` runs this untraced for the `BENCH_parallel`
/// throughput family.
pub fn prime_with_realloc_sharded(
    seed: u64,
    cmd: CommandSpec,
    shards: usize,
    trace: bool,
) -> (RunOutcome, String) {
    prime_with_realloc_threaded(seed, cmd, shards, 1, trace)
}

/// [`prime_with_realloc_sharded`] with worker threads dispatching the
/// lanes in parallel. The threaded-equivalence suite pins this
/// byte-identical to the serial run; `bench_report` uses it for the
/// threaded `BENCH_parallel` throughput rows.
pub fn prime_with_realloc_threaded(
    seed: u64,
    cmd: CommandSpec,
    shards: usize,
    threads: usize,
    trace: bool,
) -> (RunOutcome, String) {
    let mut c = broker_testbed_threaded(
        2,
        seed,
        Box::new(DefaultPolicy::default()),
        trace,
        shards,
        threads,
    );
    submit_endless_calypso(&mut c, 2, 800);
    let limit = SimTime(c.world.now().as_micros() + 60_000_000);
    await_calypso_workers(&mut c, 2, limit);
    let t0 = c.world.now();
    let appl = c.submit(
        c.machines[0],
        JobRequest {
            rsl: "(adaptive=0)".into(),
            user: "user".into(),
            run: JobRun::Remote {
                host: "anylinux".into(),
                cmd,
            },
        },
    );
    let limit = SimTime(c.world.now().as_micros() + LIMIT_OFF);
    let status = c.await_appl(appl, limit).expect("appl finished");
    assert!(status.is_success(), "{status}");
    let outcome = RunOutcome {
        elapsed_secs: (c.world.now() - t0).as_secs_f64(),
        queue: c.world.kernel_stats(),
    };
    (outcome, c.world.trace().render())
}

/// [`prime_with_realloc_sharded`] with happens-before records in the
/// trace (`hb_trace` on): the realloc workload the `rbrace hb` checker
/// proves race-free. Returns the cluster so callers can render the
/// trace, export metrics, or install post-run checks.
pub fn prime_with_realloc_hb(seed: u64, cmd: CommandSpec, shards: usize) -> (RunOutcome, Cluster) {
    let mut c = broker_testbed_hb(2, seed, Box::new(DefaultPolicy::default()), shards);
    submit_endless_calypso(&mut c, 2, 800);
    let limit = SimTime(c.world.now().as_micros() + 60_000_000);
    await_calypso_workers(&mut c, 2, limit);
    let t0 = c.world.now();
    let appl = c.submit(
        c.machines[0],
        JobRequest {
            rsl: "(adaptive=0)".into(),
            user: "user".into(),
            run: JobRun::Remote {
                host: "anylinux".into(),
                cmd,
            },
        },
    );
    let limit = SimTime(c.world.now().as_micros() + LIMIT_OFF);
    let status = c.await_appl(appl, limit).expect("appl finished");
    assert!(status.is_success(), "{status}");
    let outcome = RunOutcome {
        elapsed_secs: (c.world.now() - t0).as_secs_f64(),
        queue: c.world.kernel_stats(),
    };
    (outcome, c)
}

/// The loop command used by Table 2's compute-bound rows.
pub fn loop_cmd() -> CommandSpec {
    CommandSpec::Loop {
        cpu_millis: LOOP_MILLIS,
    }
}

fn median(samples: Vec<f64>) -> f64 {
    Summary::from_samples(samples).median()
}

/// Regenerate Table 2.
pub fn run(reps: usize) -> Vec<Row> {
    assert!(reps > 0);
    let seeds = || (0..reps as u64).map(|i| 2000 + i);
    let null = || CommandSpec::Null;
    vec![
        Row::new(
            "rsh n02 null",
            median(
                seeds()
                    .map(|s| plain_onto_occupied(s, null()).elapsed_secs)
                    .collect(),
            ),
        ),
        Row::new(
            "rsh' anylinux null",
            median(
                seeds()
                    .map(|s| prime_with_realloc(s, null()).elapsed_secs)
                    .collect(),
            ),
        ),
        Row::new(
            "rsh n02 loop",
            median(
                seeds()
                    .map(|s| plain_onto_occupied(s, loop_cmd()).elapsed_secs)
                    .collect(),
            ),
        ),
        Row::new(
            "rsh' anylinux loop",
            median(
                seeds()
                    .map(|s| prime_with_realloc(s, loop_cmd()).elapsed_secs)
                    .collect(),
            ),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_shape_matches_paper() {
        let rows = run(1);
        let get = |op: &str| rows.iter().find(|r| r.operation == op).unwrap().seconds;
        let rsh_null = get("rsh n02 null");
        let prime_null = get("rsh' anylinux null");
        let rsh_loop = get("rsh n02 loop");
        let prime_loop = get("rsh' anylinux loop");

        // Plain rsh is still ~0.3 s (spawning is cheap even on a busy box).
        assert!((0.25..=0.45).contains(&rsh_null), "{rsh_null}");
        // Reallocation completes in about a second.
        assert!((0.7..=1.8).contains(&prime_null), "{prime_null}");
        // Sharing the CPU with the Calypso worker roughly doubles loop's
        // runtime...
        assert!(rsh_loop > 9.0, "{rsh_loop}");
        // ...so despite paying ~1 s for reallocation, the compute-bound
        // job turns around *faster* on a cleared machine.
        assert!(
            prime_loop < rsh_loop,
            "cleared {prime_loop} vs shared {rsh_loop}"
        );
        assert!((prime_null + 5.0..prime_null + 5.6).contains(&prime_loop));
    }
}
