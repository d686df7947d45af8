//! The paper's §6.2 utilization experiment, built from the broker's
//! public set-up calls so that set-up is timed apart from the run and the
//! run can be advanced in slices.
//!
//! The arrival script and the idleness accounting follow
//! `rb_workloads::utilization::run` step for step; the checks compare the
//! two on every seed the benchmark runs.

use crate::spans::Spans;
use rb_analyze::{critpath_json, lint_events};
use rb_broker::{
    build_cluster, submit_job, Cluster, ClusterOptions, DefaultPolicy, JobRequest, JobRun,
};
use rb_proto::{CommandSpec, MachineAttrs, ProcId};
use rb_simcore::{parse_rendered, Duration, Json, QueueStats, SimRng, SimTime};
use rb_workloads::scenarios::{await_calypso_workers, submit_endless_calypso};
use rb_workloads::utilization::UtilizationConfig;
use std::sync::{Arc, Mutex};

/// How the benchmark drives one run of the experiment.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mode {
    /// The observability mode: trace with spans, metrics sampled every
    /// 10 simulated seconds, then the trace read back and analysed.
    pub obs: bool,
    /// The traced run: the kernel's self-profiler on, metrics sampled (for
    /// the broker's counters), and the run advanced in [`SLICE`]s.
    pub traced: bool,
}

/// The simulated length of one `World::run_until` call in a traced run.
pub const SLICE: Duration = Duration::from_secs(60);

/// The simulated result of one run; equal for equal config and seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimOutcome {
    pub idleness: f64,
    pub submitted: usize,
    pub completed: usize,
    pub failed: usize,
    pub events: u64,
}

impl SimOutcome {
    /// The outcome `rb_workloads::utilization::run` reports for `cfg`.
    pub fn reference(cfg: &UtilizationConfig) -> SimOutcome {
        let r = rb_workloads::utilization::run(cfg);
        SimOutcome {
            idleness: r.idleness,
            submitted: r.seq_jobs_submitted,
            completed: r.seq_jobs_completed,
            failed: r.seq_jobs_failed,
            events: r.queue.dispatched,
        }
    }
}

/// What the observability mode read back from the trace.
#[derive(Debug, Clone)]
pub struct ObsOutcome {
    pub trace_events: u64,
    pub trace_bytes: usize,
    pub lint_violations: usize,
    /// Per allocation: the five leg lengths and the end-to-end length.
    pub allocs: Vec<AllocLegs>,
    /// Decide-leg length of each sequential job's allocation.
    pub seq_decide_s: Vec<f64>,
}

#[derive(Debug, Clone)]
pub struct AllocLegs {
    pub legs: Vec<f64>,
    pub total_secs: f64,
}

/// One run: its timings, its simulated outcome, and what the layers
/// reported about themselves.
pub struct UtilRun {
    pub setup_ms: f64,
    pub measured_ms: f64,
    /// Wall time inside `World::run_until`, the kernel's share of
    /// `measured_ms`.
    pub run_ms: f64,
    pub outcome: SimOutcome,
    pub obs: Option<ObsOutcome>,
    pub queue: QueueStats,
    /// `World::profiler` at the end of the run (profiled runs only).
    pub profiler: Option<rb_simcore::Profiler>,
    /// `World::metrics_json` at the end of the run.
    pub metrics: Option<Json>,
}

/// The machines of the §6.2 testbed: the user's private `n00`, outside
/// the pool, plus the public lab machines.
fn testbed(publics: usize) -> Vec<MachineAttrs> {
    let mut machines = vec![MachineAttrs::private_linux("n00", "user")];
    machines.extend((1..=publics).map(|i| MachineAttrs::public_linux(format!("n{i:02}"))));
    machines
}

/// Build the cluster and warm the adaptive Calypso job up to one worker
/// per public machine.
pub fn set_up(cfg: &UtilizationConfig, mode: &Mode, spans: &mut Spans) -> Cluster {
    let opts = ClusterOptions {
        seed: cfg.seed,
        machines: testbed(cfg.machines),
        policy: Box::new(DefaultPolicy::default()),
        trace: mode.obs,
        profile: mode.traced,
        metrics_interval: (mode.obs || mode.traced).then(|| Duration::from_secs(10)),
        scheduler: cfg.scheduler,
        shards: cfg.shards,
        ..Default::default()
    };
    let (mut c, _) = spans.time("broker.setup", |s| {
        let (mut c, _) = s.time("broker.build_cluster", |_| build_cluster(opts));
        c.world.set_owner_present(c.machines[0], true);
        s.time("broker.settle", |_| c.settle());
        c
    });
    spans.time("broker.submit", |_| {
        submit_endless_calypso(&mut c, cfg.machines as u32, 2_000)
    });
    let limit = SimTime(c.world.now().as_micros() + 120_000_000);
    spans.time("parsys.await_workers", |_| {
        await_calypso_workers(&mut c, cfg.machines, limit)
    });
    c
}

/// Run the experiment once.
pub fn run(cfg: &UtilizationConfig, mode: &Mode, spans: &mut Spans) -> UtilRun {
    let (mut c, setup_ms) = spans.time("bench.setup", |s| set_up(cfg, mode, s));
    let ((outcome, run_ms, obs), measured_ms) = spans.time("bench.measured", |s| {
        let (outcome, run_ms) = drive(&mut c, cfg, mode, s);
        let obs = mode.obs.then(|| read_back(&c, s));
        (outcome, run_ms, obs)
    });
    UtilRun {
        setup_ms,
        measured_ms,
        run_ms,
        outcome,
        obs,
        queue: c.world.kernel_stats(),
        profiler: c.world.profiler(),
        metrics: c.world.metrics_json(),
    }
}

/// The measurement window: schedule the arrival script, run five hours,
/// and account idleness over the public machines. Also returns the wall
/// ms spent inside `World::run_until`.
fn drive(
    c: &mut Cluster,
    cfg: &UtilizationConfig,
    mode: &Mode,
    spans: &mut Spans,
) -> (SimOutcome, f64) {
    let t_start = c.world.now();
    let publics = c.machines[1..].to_vec();
    let alloc_at_start: Vec<Duration> =
        publics.iter().map(|&m| c.world.allocated_time(m)).collect();

    let mut rng = SimRng::seeded(cfg.seed ^ 0xABCD);
    let end = t_start + Duration::from_secs((cfg.hours * 3600.0) as u64);
    let broker = c.broker;
    let home = c.machines[0];
    let appls: Arc<Mutex<Vec<ProcId>>> = Arc::default();
    let mut t = t_start + Duration::from_secs(cfg.arrival_period_secs);
    let mut submitted = 0usize;
    while t < end {
        let minutes = rng.uniform_f64(cfg.runtime_min_minutes, cfg.runtime_max_minutes);
        let cpu_millis = (minutes * 60_000.0) as u64;
        let modules = c.modules.clone();
        let appls = appls.clone();
        c.world.schedule(t, move |w| {
            let appl = submit_job(
                w,
                home,
                broker,
                &modules,
                JobRequest {
                    rsl: "(adaptive=0)".into(),
                    user: "seq".into(),
                    run: JobRun::Remote {
                        host: "anylinux".into(),
                        cmd: CommandSpec::Loop { cpu_millis },
                    },
                },
            );
            appls.lock().expect("arrival script lock").push(appl);
        });
        submitted += 1;
        t = t + Duration::from_secs(cfg.arrival_period_secs);
    }

    let step = if mode.traced { SLICE } else { end - t_start };
    let mut run_ms = 0.0;
    while c.world.now() < end {
        let next = (c.world.now() + step).min(end);
        run_ms += spans
            .time("simnet.run_until", |_| c.world.run_until(next))
            .1;
    }

    let measured = end - t_start;
    let mut alloc_total = Duration::ZERO;
    for (&m, &at_start) in publics.iter().zip(&alloc_at_start) {
        alloc_total += c.world.allocated_time(m).saturating_sub(at_start);
    }
    let idleness = 1.0 - alloc_total.as_secs_f64() / (measured.as_secs_f64() * cfg.machines as f64);

    let (mut completed, mut failed) = (0, 0);
    for &appl in appls.lock().expect("arrival script lock").iter() {
        match c.world.exit_status(appl) {
            Some(s) if s.is_success() => completed += 1,
            Some(_) => failed += 1,
            None => {} // still running at the horizon
        }
    }
    let outcome = SimOutcome {
        idleness,
        submitted,
        completed,
        failed,
        events: c.world.kernel_stats().dispatched,
    };
    (outcome, run_ms)
}

/// The user's read path: render the trace, parse it back, lint it, and
/// extract every allocation's critical path.
fn read_back(c: &Cluster, spans: &mut Spans) -> ObsOutcome {
    let trace = c.world.trace();
    let (text, _) = spans.time("simcore.trace.render", |_| trace.render());
    let (events, _) = spans.time("analyze.parse", |_| parse_rendered(&text));
    let events = events.expect("a rendered trace parses");
    let (violations, _) = spans.time("analyze.lint", |_| lint_events(&events));
    let (critpath, _) = spans.time("analyze.critpath", |_| critpath_json(&events));

    let mut allocs = Vec::new();
    let mut seq_decide_s = Vec::new();
    for a in critpath
        .get("allocations")
        .and_then(Json::as_arr)
        .expect("critpath report lists allocations")
    {
        let legs: Vec<(String, f64)> = a
            .get("legs")
            .and_then(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .map(|l| {
                let name = l.get("name").and_then(Json::as_str).unwrap_or_default();
                (
                    name.to_string(),
                    l.get("secs").and_then(Json::as_f64).unwrap_or(f64::NAN),
                )
            })
            .collect();
        let job = a.get("job").and_then(Json::as_str).unwrap_or_default();
        if job != CALYPSO_JOB {
            seq_decide_s.extend(legs.iter().filter(|(n, _)| n == "decide").map(|&(_, s)| s));
        }
        allocs.push(AllocLegs {
            legs: legs.into_iter().map(|(_, s)| s).collect(),
            total_secs: a
                .get("total_secs")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN),
        });
    }
    ObsOutcome {
        trace_events: trace.recorded_events(),
        trace_bytes: text.len(),
        lint_violations: violations.len(),
        allocs,
        seq_decide_s,
    }
}

/// Problems with one run's simulated outcome: it must equal the
/// library's `reference` and reproduce the paper's result.
pub fn check(reference: &SimOutcome, got: &SimOutcome) -> Vec<String> {
    let mut problems = Vec::new();
    if got != reference {
        problems.push(format!(
            "outcome {got:?} differs from rb_workloads::utilization::run {reference:?}"
        ));
    }
    if got.idleness.is_nan() || got.idleness >= 0.01 {
        problems.push(format!("idleness {} is not below 1%", got.idleness));
    }
    if got.completed == 0 {
        problems.push("no sequential job completed".into());
    }
    problems
}

/// Problems with what the observability mode read back: the trace must
/// lint clean, and each allocation's five legs must sum to its length.
pub fn check_obs(obs: &ObsOutcome) -> Vec<String> {
    let mut problems = Vec::new();
    if obs.lint_violations > 0 {
        problems.push(format!("lint found {} violation(s)", obs.lint_violations));
    }
    if obs.seq_decide_s.is_empty() {
        problems.push("critpath found no sequential job's allocation".into());
    }
    for (i, a) in obs.allocs.iter().enumerate() {
        let sum: f64 = a.legs.iter().sum();
        // Legs are whole simulated microseconds; allow float rounding.
        if a.legs.len() != 5 || sum.is_nan() || (sum - a.total_secs).abs() >= 1e-7 {
            problems.push(format!(
                "allocation {i}: legs {:?} do not sum to {} s",
                a.legs, a.total_secs
            ));
        }
    }
    problems
}

/// The adaptive Calypso job is the first job the broker admits; every
/// later job is a sequential arrival.
const CALYPSO_JOB: &str = "j1";
