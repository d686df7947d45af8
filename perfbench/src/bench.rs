//! One benchmark run: a workload, a seed, and either the timing run that
//! yields the end-to-end metrics or the traced run that yields the
//! per-layer ones.
//!
//! Repetitions run strictly one at a time in this process. Each run first
//! computes the reference output and takes one untimed warm-up
//! repetition, then repeats until its time is up and reports medians.
//! The timing run scales each repetition's times by the host speed
//! measured just before it (`stats::HostSpeed`).

use crate::spans::Spans;
use crate::stats::{median, peak_rss_mb, HostSpeed};
use crate::utilization::{self as util, Mode, SimOutcome, UtilRun};
use crate::{layers, storm};
use rb_simcore::{Duration, Json, Summary};
use rb_workloads::utilization::UtilizationConfig;
use std::path::PathBuf;
use std::time::Instant;

/// The benchmark's workloads, by the names `BENCHMARK.json` declares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Storm,
    Utilization,
    UtilizationObs,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Storm,
        Workload::Utilization,
        Workload::UtilizationObs,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Storm => "storm",
            Workload::Utilization => "utilization",
            Workload::UtilizationObs => "utilization_obs",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How big the simulated inputs are. [`Size::FULL`] is the benchmark;
/// tests use smaller ones.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub storm_machines: usize,
    pub storm_run_for: Duration,
    pub util_machines: usize,
    pub util_hours: f64,
}

impl Size {
    /// ~2.7M kernel events per storm repetition (one simulated second);
    /// ~2.8M per §6.2 repetition (64 machines, five simulated hours).
    pub const FULL: Size = Size {
        storm_machines: 64,
        storm_run_for: Duration::from_secs(1),
        util_machines: 64,
        util_hours: 5.0,
    };
}

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Wall seconds of repetitions after the warm-up.
    pub seconds: f64,
    /// The traced run (per-layer metrics) instead of the timing run.
    pub trace: bool,
    pub size: Size,
    /// Where the traced run writes its span file.
    pub out_dir: PathBuf,
}

/// Expected outputs; `None` computes them with the library's own run functions.
/// Tests pass wrong ones to prove a wrong output fails the run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Expected {
    pub storm_events: Option<u64>,
    pub utilization: Option<SimOutcome>,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Operations attempted and failed, and why the failures failed.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Tally {
    /// Record one repetition of `ops` operations, `op_failures` of which
    /// failed on their own. When the repetition's output is wrong
    /// (`problems` non-empty) every one of its operations counts as failed.
    pub fn record(&mut self, ops: u64, op_failures: u64, problems: Vec<String>) {
        self.attempted += ops;
        if problems.is_empty() {
            self.failed += op_failures;
        } else {
            self.failed += ops;
        }
        if op_failures > 0 {
            self.problems
                .push(format!("{op_failures} of {ops} operations failed"));
        }
        self.problems.extend(problems);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The result of one run.
#[derive(Debug)]
pub struct Report {
    pub workload: Workload,
    pub trace: bool,
    pub tally: Tally,
    /// The metrics `BENCHMARK.json` declares for this kind of run.
    pub metrics: Vec<Metric>,
    /// Printed for the reader only: `failed_frac`, the simulated results
    /// where they apply (`idleness_pct`, `realloc_s_p50`), the quartiles
    /// of `wall_ms` over the repetitions, its unscaled median, and the
    /// median host speed.
    pub results: Vec<Metric>,
    pub reps: usize,
    pub spans_file: Option<PathBuf>,
}

impl Report {
    /// The machine-readable last line of the run's output.
    pub fn json_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.tally.correct(),
            self.tally.attempted,
            self.tally.failed
        )
    }

    /// Every metric and result, one per line, for the reader.
    pub fn human(&self) -> String {
        let mut out = format!(
            "perfbench {} ({} run, {} repetitions; host nproc={}, cpu {})\n",
            self.workload.name(),
            if self.trace { "traced" } else { "timing" },
            self.reps,
            crate::stats::nproc(),
            crate::stats::cpu_model()
        );
        for m in self.results.iter().chain(&self.metrics) {
            out.push_str(&format!("  {:<28} {:>16.6} {}\n", m.name, m.value, m.unit));
        }
        if let Some(f) = &self.spans_file {
            out.push_str(&format!("  spans: {}\n", f.display()));
        }
        out
    }
}

/// Run `opts.workload` once, as the timing or the traced run.
pub fn run(opts: &Options, expected: Expected) -> Report {
    let host = HostSpeed::new();
    match opts.workload {
        Workload::Storm => run_storm(opts, expected, &host),
        Workload::Utilization | Workload::UtilizationObs => run_utilization(opts, expected, &host),
    }
}

/// Timed repetitions a run takes even when its time is up.
const MIN_REPS: usize = 3;

/// Repeat `rep` until `seconds` of wall time have passed and at least
/// `min_reps` ran; returns the repetition count.
fn repeat(seconds: f64, min_reps: usize, mut rep: impl FnMut()) -> usize {
    let start = Instant::now();
    let mut reps = 0;
    while reps < min_reps || start.elapsed().as_secs_f64() < seconds {
        rep();
        reps += 1;
    }
    reps
}

fn run_storm(opts: &Options, expected: Expected, host: &HostSpeed) -> Report {
    let size = opts.size;
    let cfg = storm::config(opts.seed, size.storm_machines, size.storm_run_for);
    let mut tally = Tally::default();
    let mut spans = Spans::new(opts.trace);
    // Reference: the profiled run, the same configuration the traced run
    // uses; every other run of this seed must dispatch as many events.
    let expected_events = expected.storm_events.unwrap_or_else(|| {
        rb_workloads::storm::run(&rb_workloads::storm::StormConfig {
            profile: true,
            ..cfg
        })
        .queue
        .dispatched
    });
    let one = |spans: &mut Spans, cfg: &rb_workloads::storm::StormConfig, tally: &mut Tally| {
        let (r, ms) = spans.time("simnet.storm_run", |_| rb_workloads::storm::run(cfg));
        tally.record(1, 0, storm::check(expected_events, cfg, &r));
        (r, ms)
    };
    one(&mut Spans::new(false), &cfg, &mut Tally::default()); // warm-up

    let mut setup_ms = Vec::new();
    let mut wall_ms = Vec::new();
    let mut speed = Vec::new();
    let mut peak_depth = 0;
    let timing_seconds = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let mut reps = repeat(timing_seconds, MIN_REPS, || {
        speed.push(host.factor());
        let mut quiet = Spans::new(false);
        setup_ms.push(quiet.time("simnet.storm_setup", |_| storm::set_up(&cfg)).1);
        let (r, ms) = one(&mut quiet, &cfg, &mut tally);
        wall_ms.push(ms);
        peak_depth = r.queue.peak_depth;
    });
    let events = expected_events as f64;

    if !opts.trace {
        return timing_report(opts, tally, &wall_ms, &setup_ms, &speed, reps, Vec::new());
    }

    // Traced repetitions: the kernel profiler on, each call in a span.
    let profiled = rb_workloads::storm::StormConfig {
        profile: true,
        ..cfg
    };
    let mut traced_ms = Vec::new();
    let mut busy = Vec::new();
    let mut shard = None;
    reps += repeat(opts.seconds / 2.0, 1, || {
        let ((r, ms), _) = spans.time("bench.rep", |s| one(s, &profiled, &mut tally));
        let ss = r.shard_stats.expect("the storm runs on two lanes");
        let lane_ns: u64 = ss.per_shard.iter().map(|l| l.wall_ns).sum();
        busy.push(lane_ns as f64 / 1e6 / (ss.shards as f64 * ms));
        traced_ms.push(ms);
        shard = Some(ss);
    });
    let ss = shard.expect("at least one traced repetition");
    let dispatched: Vec<f64> = ss.per_shard.iter().map(|l| l.dispatched as f64).collect();
    let waits: u64 = ss.per_shard.iter().map(|l| l.barrier_waits).sum();
    let mut m = LayerMetrics::new();
    m.set("simnet.events", events);
    m.set("simnet.events_per_sec", events / (median(&wall_ms) / 1e3));
    m.set("simnet.windows", ss.windows as f64);
    m.set(
        "simnet.events_per_window",
        events / ss.windows.max(1) as f64,
    );
    m.set(
        "simnet.idle_lane_frac",
        waits as f64 / (ss.windows.max(1) * ss.shards as u64) as f64,
    );
    m.set(
        "simnet.lane_imbalance",
        dispatched.iter().cloned().fold(0.0, f64::max) / (events / ss.shards as f64),
    );
    m.set("simnet.lane_busy_frac", median(&busy));
    m.set("simcore.queue.peak_depth", peak_depth as f64);
    m.set(
        "bench.trace_overhead_pct",
        overhead_pct(&traced_ms, &wall_ms),
    );
    layer_micro(&mut m, &mut spans, peak_depth, opts.seed);
    traced_report(opts, tally, m, &spans, reps)
}

fn util_config(opts: &Options) -> UtilizationConfig {
    UtilizationConfig {
        machines: opts.size.util_machines,
        hours: opts.size.util_hours,
        seed: opts.seed,
        ..UtilizationConfig::default()
    }
}

/// Run the §6.2 experiment once in `mode` and tally its checked output.
fn util_rep(
    cfg: &UtilizationConfig,
    mode: &Mode,
    reference: &SimOutcome,
    spans: &mut Spans,
    tally: &mut Tally,
) -> UtilRun {
    let r = util::run(cfg, mode, spans);
    let mut problems = util::check(reference, &r.outcome);
    if let Some(obs) = &r.obs {
        problems.extend(util::check_obs(obs));
    }
    tally.record(
        r.outcome.submitted as u64,
        r.outcome.failed as u64,
        problems,
    );
    r
}

fn run_utilization(opts: &Options, expected: Expected, host: &HostSpeed) -> Report {
    let obs = opts.workload == Workload::UtilizationObs;
    let cfg = util_config(opts);
    let mut tally = Tally::default();
    let mut spans = Spans::new(opts.trace);
    let reference = expected
        .utilization
        .unwrap_or_else(|| SimOutcome::reference(&cfg));
    let mode = Mode { obs, traced: false };
    let quiet = &mut Spans::new(false);
    util_rep(&cfg, &mode, &reference, quiet, &mut Tally::default()); // warm-up

    let mut setup_ms = Vec::new();
    let mut wall_ms = Vec::new();
    let mut speed = Vec::new();
    // The traced run of `utilization_obs` also times plain `utilization`
    // at the same seed, interleaved, for the cost of observability.
    let mut plain_ms = Vec::new();
    let mut last = None;
    let timing_seconds = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let mut reps = repeat(timing_seconds, MIN_REPS, || {
        speed.push(host.factor());
        let r = util_rep(&cfg, &mode, &reference, quiet, &mut tally);
        setup_ms.push(r.setup_ms);
        wall_ms.push(r.measured_ms);
        if opts.trace && obs {
            let plain = util_rep(&cfg, &Mode::default(), &reference, quiet, &mut tally);
            plain_ms.push(plain.measured_ms);
        }
        last = Some(r);
    });
    let last = last.expect("at least one repetition");

    if !opts.trace {
        let mut results = vec![metric("idleness_pct", "%", 100.0 * last.outcome.idleness)];
        if let Some(o) = &last.obs {
            results.push(metric("realloc_s_p50", "sim_s", median(&o.seq_decide_s)));
        }
        return timing_report(opts, tally, &wall_ms, &setup_ms, &speed, reps, results);
    }

    // Traced repetitions: profiler and metrics on, the run advanced one
    // simulated minute at a time, each call in a span.
    let traced_mode = Mode { obs, traced: true };
    let mut traced_ms = Vec::new();
    let mut broker_ms = Vec::new();
    let mut parsys_ms = Vec::new();
    let mut busy = Vec::new();
    let mut traced = None;
    reps += repeat(opts.seconds / 2.0, 1, || {
        let (r, _) = spans.time("bench.rep", |s| {
            util_rep(&cfg, &traced_mode, &reference, s, &mut tally)
        });
        let prof = r.profiler.as_ref().expect("the traced run profiles");
        let behavior_ms = |names: &[&str]| {
            prof.behaviors()
                .filter(|(n, _)| names.contains(n))
                .map(|(_, e)| e.total_ns as f64 / 1e6)
                .sum::<f64>()
        };
        broker_ms.push(behavior_ms(&["broker", "rb-daemon", "appl", "sub-appl"]));
        parsys_ms.push(behavior_ms(&["calypso-master", "calypso-worker"]));
        busy.push(prof.total_wall_ns() as f64 / 1e6 / r.run_ms);
        traced_ms.push(r.measured_ms);
        traced = Some(r);
    });
    let traced = traced.expect("at least one traced repetition");

    let events = reference.events as f64;
    let slices_ms = Summary::from_samples(spans.durations_ms("simnet.run_until"));
    let span_median = |name: &str| median(&spans.durations_ms(name));
    let counter = |name: &str| {
        traced
            .metrics
            .as_ref()
            .and_then(|m| m.get("counters"))
            .and_then(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .filter(|c| c.get("name").and_then(Json::as_str) == Some(name))
            .filter_map(|c| c.get("value").and_then(Json::as_f64))
            .sum::<f64>()
    };
    let mut m = LayerMetrics::new();
    m.set("simnet.events", events);
    m.set("simnet.events_per_sec", events / (median(&wall_ms) / 1e3));
    m.set("simnet.slice_ms_p50", slices_ms.median());
    m.set("simnet.slice_ms_p95", slices_ms.percentile(95.0));
    m.set("simnet.lane_busy_frac", median(&busy));
    m.set("simcore.queue.peak_depth", last.queue.peak_depth as f64);
    m.set("broker.dispatch_ms", median(&broker_ms));
    m.set("broker.grants", counter("broker.grants"));
    m.set("broker.reclaims", counter("broker.reclaims"));
    m.set("broker.setup_ms", span_median("broker.setup"));
    m.set("parsys.dispatch_ms", median(&parsys_ms));
    m.set("parsys.warmup_ms", span_median("parsys.await_workers"));
    m.set(
        "bench.trace_overhead_pct",
        overhead_pct(&traced_ms, &wall_ms),
    );
    if let Some(o) = &last.obs {
        m.set("simcore.trace.events", o.trace_events as f64);
        m.set("simcore.trace.bytes", o.trace_bytes as f64);
        m.set(
            "simcore.trace.render_ms",
            span_median("simcore.trace.render"),
        );
        m.set("simcore.obs_cost_ms", median(&wall_ms) - median(&plain_ms));
        m.set("analyze.parse_ms", span_median("analyze.parse"));
        m.set("analyze.lint_ms", span_median("analyze.lint"));
        m.set("analyze.critpath_ms", span_median("analyze.critpath"));
        m.set("analyze.allocs", o.allocs.len() as f64);
    }
    layer_micro(&mut m, &mut spans, last.queue.peak_depth, opts.seed);
    traced_report(opts, tally, m, &spans, reps)
}

/// Traced wall time over untraced wall time, as a percentage overhead.
fn overhead_pct(traced_ms: &[f64], timing_ms: &[f64]) -> f64 {
    100.0 * (median(traced_ms) / median(timing_ms) - 1.0)
}

/// The standalone single-layer measurements, each in its own span.
fn layer_micro(m: &mut LayerMetrics, spans: &mut Spans, peak_depth: usize, seed: u64) {
    let (ns, _) = spans.time("simcore.queue.push_pop", |_| {
        layers::queue_push_pop_ns(peak_depth, seed)
    });
    m.set("simcore.queue.push_pop_ns", ns);
    let (ns, _) = spans.time("broker.policy.offer", |_| layers::policy_offer_ns());
    m.set("broker.policy.offer_ns", ns);
}

/// The end-to-end metrics: medians of the repetitions' wall and set-up
/// times, each scaled by the host speed `speed` measured next to it.
fn timing_report(
    opts: &Options,
    mut tally: Tally,
    wall_ms: &[f64],
    setup_ms: &[f64],
    speed: &[f64],
    reps: usize,
    mut results: Vec<Metric>,
) -> Report {
    let rss = peak_rss_mb().unwrap_or_else(|e| {
        tally.problems.push(e);
        f64::NAN
    }) - HostSpeed::BYTES as f64 / (1 << 20) as f64;
    let scaled =
        |v: &[f64]| Summary::from_samples(v.iter().zip(speed).map(|(t, f)| t * f).collect());
    let wall = scaled(wall_ms);
    results.insert(0, metric("failed_frac", "ratio", tally.failed_frac()));
    results.push(metric("wall_ms_p25", "ms", wall.percentile(25.0)));
    results.push(metric("wall_ms_p75", "ms", wall.percentile(75.0)));
    results.push(metric("wall_ms_unscaled", "ms", median(wall_ms)));
    results.push(metric("host_speed", "ratio", median(speed)));
    Report {
        workload: opts.workload,
        trace: false,
        metrics: vec![
            metric("wall_ms", "ms", wall.median()),
            metric("setup_s", "s", scaled(setup_ms).median() / 1e3),
            metric("peak_rss_mb", "MB", rss),
        ],
        results,
        tally,
        reps,
        spans_file: None,
    }
}

fn traced_report(
    opts: &Options,
    mut tally: Tally,
    metrics: LayerMetrics,
    spans: &Spans,
    reps: usize,
) -> Report {
    let spans_file = match write_spans(opts, spans) {
        Ok(path) => Some(path),
        Err(e) => {
            tally.problems.push(e);
            None
        }
    };
    Report {
        workload: opts.workload,
        trace: true,
        metrics: metrics.0,
        results: vec![metric("failed_frac", "ratio", tally.failed_frac())],
        tally,
        reps,
        spans_file,
    }
}

/// Write the spans as Chrome trace-event JSON, then read the file back
/// and validate it the way `rbtrace validate` does.
fn write_spans(opts: &Options, spans: &Spans) -> Result<PathBuf, String> {
    let doc = spans.chrome(&format!("perfbench {}", opts.workload.name()));
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.out_dir.display()))?;
    let path = opts.out_dir.join(format!(
        "{}-seed{}.trace.json",
        opts.workload.name(),
        opts.seed
    ));
    std::fs::write(&path, doc.render())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let back = rb_simcore::json::parse(&text).map_err(|e| format!("span file: {e}"))?;
    rb_analyze::validate_chrome(&back)
        .map_err(|problems| format!("span file fails validate_chrome: {problems:?}"))?;
    Ok(path)
}

/// Every per-layer metric, in `BENCHMARK.json` order; a layer the
/// workload does not exercise reports zero.
struct LayerMetrics(Vec<Metric>);

/// Per-layer metric names and units.
const PER_LAYER: [(&str, &str); 27] = [
    ("simcore.queue.push_pop_ns", "ns"),
    ("simcore.queue.peak_depth", "count"),
    ("simcore.trace.events", "count"),
    ("simcore.trace.bytes", "bytes"),
    ("simcore.trace.render_ms", "ms"),
    ("simcore.obs_cost_ms", "ms"),
    ("simnet.events", "count"),
    ("simnet.events_per_sec", "1/s"),
    ("simnet.slice_ms_p50", "ms"),
    ("simnet.slice_ms_p95", "ms"),
    ("simnet.windows", "count"),
    ("simnet.events_per_window", "count"),
    ("simnet.idle_lane_frac", "ratio"),
    ("simnet.lane_imbalance", "ratio"),
    ("simnet.lane_busy_frac", "ratio"),
    ("broker.dispatch_ms", "ms"),
    ("broker.grants", "count"),
    ("broker.reclaims", "count"),
    ("broker.policy.offer_ns", "ns"),
    ("broker.setup_ms", "ms"),
    ("parsys.dispatch_ms", "ms"),
    ("parsys.warmup_ms", "ms"),
    ("analyze.parse_ms", "ms"),
    ("analyze.lint_ms", "ms"),
    ("analyze.critpath_ms", "ms"),
    ("analyze.allocs", "count"),
    ("bench.trace_overhead_pct", "%"),
];

impl LayerMetrics {
    fn new() -> Self {
        LayerMetrics(
            PER_LAYER
                .iter()
                .map(|&(name, unit)| metric(name, unit, 0.0))
                .collect(),
        )
    }

    fn set(&mut self, name: &str, value: f64) {
        let m = self
            .0
            .iter_mut()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        m.value = value;
    }
}
