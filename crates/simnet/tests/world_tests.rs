//! Kernel-level tests of the simulated substrate: process lifecycle,
//! standard `rsh` semantics and its calibrated cost, signals, CPU sharing,
//! machine failures, and determinism.

use rb_proto::{CommandSpec, CtlMsg, ExitStatus, Payload, ProcId, RshError, RshHandle, Signal};
use rb_simcore::{Duration, SimTime};
use rb_simnet::{
    BasePrograms, Behavior, CostModel, Ctx, EchoProg, LoopProg, NullProg, ProcEnv, World,
    WorldBuilder,
};

fn lab(n: usize) -> (World, Vec<rb_proto::MachineId>) {
    let mut b = WorldBuilder::new().seed(7).factory(BasePrograms);
    let ms = b.standard_lab(n);
    (b.build(), ms)
}

const FAR: SimTime = SimTime(3_600_000_000); // one hour

type RshObservation = (RshHandle, Result<ExitStatus, RshError>);

/// Records rsh results so tests can assert on them.
struct RshDriver {
    host: String,
    cmd: CommandSpec,
    result: Shared<RshObservation>,
    started: Shared<SimTime>,
}

impl Behavior for RshDriver {
    fn name(&self) -> &'static str {
        "rsh-driver"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        *self.started.lock().unwrap() = Some(ctx.now());
        ctx.rsh(&self.host, self.cmd.clone());
    }

    fn on_rsh_result(
        &mut self,
        ctx: &mut Ctx<'_>,
        handle: RshHandle,
        result: Result<ExitStatus, RshError>,
    ) {
        *self.result.lock().unwrap() = Some((handle, result));
        ctx.exit(ExitStatus::Success);
    }
}

type Shared<T> = std::sync::Arc<std::sync::Mutex<Option<T>>>;

fn drive_rsh(
    world: &mut World,
    from: rb_proto::MachineId,
    host: &str,
    cmd: CommandSpec,
) -> (Shared<RshObservation>, Shared<SimTime>) {
    let result = Shared::default();
    let started = Shared::default();
    let driver = RshDriver {
        host: host.to_string(),
        cmd,
        result: result.clone(),
        started: started.clone(),
    };
    world.spawn_user(from, Box::new(driver), ProcEnv::user_standard("alice"));
    (result, started)
}

#[test]
fn plain_rsh_null_costs_about_300ms() {
    let (mut world, ms) = lab(2);
    let (result, _) = drive_rsh(&mut world, ms[0], "n01", CommandSpec::Null);
    world.run_until_idle(FAR);
    let (_, res) = result.lock().unwrap().clone().expect("rsh completed");
    assert_eq!(res, Ok(ExitStatus::Success));
    // Elapsed = connect + fork + null exec + completion latency.
    let elapsed = world.now().as_secs_f64();
    assert!(
        (0.25..=0.40).contains(&elapsed),
        "rsh null elapsed {elapsed}"
    );
}

#[test]
fn plain_rsh_loop_costs_startup_plus_cpu() {
    let (mut world, ms) = lab(2);
    let (result, _) = drive_rsh(
        &mut world,
        ms[0],
        "n01",
        CommandSpec::Loop { cpu_millis: 5_300 },
    );
    world.run_until_idle(FAR);
    assert!(result.lock().unwrap().clone().unwrap().1.is_ok());
    let elapsed = world.now().as_secs_f64();
    assert!((5.5..=5.8).contains(&elapsed), "rsh loop elapsed {elapsed}");
}

#[test]
fn rsh_to_unknown_host_fails() {
    let (mut world, ms) = lab(1);
    let (result, _) = drive_rsh(&mut world, ms[0], "n99", CommandSpec::Null);
    world.run_until_idle(FAR);
    let (_, res) = result.lock().unwrap().clone().unwrap();
    assert_eq!(res, Err(RshError::UnknownHost("n99".into())));
}

#[test]
fn plain_rsh_does_not_understand_symbolic_hosts() {
    // Without the broker's shim, `anylinux` is just an unknown host name.
    let (mut world, ms) = lab(2);
    let (result, _) = drive_rsh(&mut world, ms[0], "anylinux", CommandSpec::Null);
    world.run_until_idle(FAR);
    let (_, res) = result.lock().unwrap().clone().unwrap();
    assert!(matches!(res, Err(RshError::UnknownHost(_))), "{res:?}");
}

#[test]
fn rsh_to_down_machine_fails() {
    let (mut world, ms) = lab(2);
    world.set_machine_up(ms[1], false);
    let (result, _) = drive_rsh(&mut world, ms[0], "n01", CommandSpec::Null);
    world.run_until_idle(FAR);
    let (_, res) = result.lock().unwrap().clone().unwrap();
    assert_eq!(res, Err(RshError::HostDown("n01".into())));
}

#[test]
fn rsh_remote_process_runs_on_target_machine() {
    let (mut world, ms) = lab(3);
    drive_rsh(
        &mut world,
        ms[0],
        "n02",
        CommandSpec::Loop { cpu_millis: 60_000 },
    );
    world.run_until(SimTime(2_000_000));
    let loops = world.procs_named("loop");
    assert_eq!(loops.len(), 1);
    assert_eq!(world.proc_machine(loops[0]), Some(ms[2]));
    assert_eq!(world.app_procs_on(ms[2]), 1);
}

#[test]
fn machine_crash_kills_processes_and_fails_inflight_rsh() {
    let (mut world, ms) = lab(2);
    drive_rsh(
        &mut world,
        ms[0],
        "n01",
        CommandSpec::Loop { cpu_millis: 60_000 },
    );
    world.run_until(SimTime(2_000_000));
    let p = world.procs_named("loop")[0];
    world.set_machine_up(ms[1], false);
    world.run_until(SimTime(3_000_000));
    assert!(!world.alive(p));
    assert_eq!(world.exit_status(p), Some(ExitStatus::Killed(Signal::Kill)));
}

/// A behavior that catches SIGTERM, "cleans up" for a while, then exits.
struct SlowQuitter {
    cleanup: Duration,
}

impl Behavior for SlowQuitter {
    fn name(&self) -> &'static str {
        "slow-quitter"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.cpu_burst(Duration::from_secs(1_000));
    }
    fn on_signal(&mut self, ctx: &mut Ctx<'_>, sig: Signal) {
        if sig == Signal::Term {
            ctx.set_timer(self.cleanup);
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: rb_proto::TimerToken) {
        ctx.exit(ExitStatus::Success);
    }
}

#[test]
fn sigterm_is_catchable_sigkill_is_not() {
    let (mut world, ms) = lab(1);
    let p = world.spawn_user(
        ms[0],
        Box::new(SlowQuitter {
            cleanup: Duration::from_millis(500),
        }),
        ProcEnv::user_standard("alice"),
    );
    world.run_until(SimTime(1_000_000));
    assert!(world.alive(p));
    world.kill_from_harness(p, Signal::Term);
    world.run_until(SimTime(1_100_000));
    assert!(world.alive(p), "still cleaning up");
    world.run_until(SimTime(2_000_000));
    assert!(!world.alive(p));
    assert_eq!(world.exit_status(p), Some(ExitStatus::Success));

    let q = world.spawn_user(
        ms[0],
        Box::new(SlowQuitter {
            cleanup: Duration::from_secs(60),
        }),
        ProcEnv::user_standard("alice"),
    );
    world.run_until(SimTime(3_000_000));
    world.kill_from_harness(q, Signal::Kill);
    world.run_until(SimTime(3_100_000));
    assert_eq!(world.exit_status(q), Some(ExitStatus::Killed(Signal::Kill)));
}

#[test]
fn default_signal_disposition_terminates() {
    let (mut world, ms) = lab(1);
    let p = world.spawn_user(ms[0], Box::new(EchoProg), ProcEnv::user_standard("a"));
    world.run_until(SimTime(100_000));
    world.kill_from_harness(p, Signal::Term);
    world.run_until(SimTime(200_000));
    assert_eq!(world.exit_status(p), Some(ExitStatus::Killed(Signal::Term)));
}

#[test]
fn two_loops_on_one_machine_share_the_cpu() {
    let (mut world, ms) = lab(1);
    let a = world.spawn_user(
        ms[0],
        Box::new(LoopProg::new(2_000)),
        ProcEnv::user_standard("u"),
    );
    let b = world.spawn_user(
        ms[0],
        Box::new(LoopProg::new(2_000)),
        ProcEnv::user_standard("u"),
    );
    world.run_until_idle(FAR);
    // Both needed 2 CPU-seconds, sharing one CPU: about 4s wall.
    assert!(!world.alive(a) && !world.alive(b));
    let elapsed = world.now().as_secs_f64();
    assert!((3.9..=4.2).contains(&elapsed), "elapsed {elapsed}");
}

#[test]
fn echo_answers_probes() {
    let (mut world, ms) = lab(1);
    let echo = world.spawn_user(ms[0], Box::new(EchoProg), ProcEnv::user_standard("u"));

    struct Prober {
        echo: ProcId,
        got: std::sync::Arc<std::sync::Mutex<Option<u64>>>,
    }
    impl Behavior for Prober {
        fn name(&self) -> &'static str {
            "prober"
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let me = ctx.me();
            ctx.send(
                self.echo,
                Payload::Ctl(CtlMsg::Probe {
                    reply_to: me,
                    token: 99,
                }),
            );
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: ProcId, msg: Payload) {
            if let Payload::Ctl(CtlMsg::ProbeReply { token }) = msg {
                *self.got.lock().unwrap() = Some(token);
                ctx.exit(ExitStatus::Success);
            }
        }
    }
    let got = std::sync::Arc::new(std::sync::Mutex::new(None));
    world.spawn_user(
        ms[0],
        Box::new(Prober {
            echo,
            got: got.clone(),
        }),
        ProcEnv::user_standard("u"),
    );
    world.run_until(SimTime(1_000_000));
    assert_eq!(*got.lock().unwrap(), Some(99));
}

#[test]
fn null_program_exits_immediately() {
    let (mut world, ms) = lab(1);
    let p = world.spawn_user(ms[0], Box::new(NullProg), ProcEnv::user_standard("u"));
    world.run_until_idle(FAR);
    assert_eq!(world.exit_status(p), Some(ExitStatus::Success));
}

#[test]
fn determinism_same_seed_same_trace() {
    fn run(seed: u64) -> (String, u64) {
        let mut b = WorldBuilder::new().seed(seed).factory(BasePrograms);
        let ms = b.standard_lab(4);
        let mut world = b.build();
        for i in 0..3 {
            drive_rsh(
                &mut world,
                ms[0],
                &format!("n0{}", i + 1),
                CommandSpec::Loop {
                    cpu_millis: 100 + i * 50,
                },
            );
        }
        world.run_until_idle(FAR);
        (world.trace().render(), world.now().as_micros())
    }
    let (t1, e1) = run(5);
    let (t2, e2) = run(5);
    assert_eq!(t1, t2);
    assert_eq!(e1, e2);
}

#[test]
fn allocated_time_tracks_app_processes() {
    let (mut world, ms) = lab(1);
    world.spawn_user(
        ms[0],
        Box::new(LoopProg::new(3_000)),
        ProcEnv::user_standard("u"),
    );
    world.run_until_idle(FAR);
    world.run_until(SimTime(10_000_000));
    let alloc = world.allocated_time(ms[0]).as_secs_f64();
    assert!((2.9..=3.2).contains(&alloc), "allocated {alloc}");
    let busy = world.busy_time(ms[0]).as_secs_f64();
    assert!((2.9..=3.2).contains(&busy), "busy {busy}");
}

#[test]
fn zero_cost_model_runs_logic_instantly() {
    let mut b = WorldBuilder::new()
        .seed(1)
        .cost(CostModel::zero())
        .factory(BasePrograms);
    let ms = b.standard_lab(2);
    let mut world = b.build();
    let (result, _) = drive_rsh(&mut world, ms[0], "n01", CommandSpec::Null);
    world.run_until_idle(FAR);
    assert!(result.lock().unwrap().clone().unwrap().1.is_ok());
    assert_eq!(world.now(), SimTime::ZERO);
}

/// Records when its one timer fires, into a log it shares with a harness
/// closure scheduled for the same instant.
struct TimerAt {
    at: Duration,
    log: std::sync::Arc<std::sync::Mutex<Vec<&'static str>>>,
}

impl Behavior for TimerAt {
    fn name(&self) -> &'static str {
        "timer-at"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.at);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _: rb_proto::TimerToken) {
        self.log.lock().unwrap().push("timer");
        ctx.exit(ExitStatus::Success);
    }
}

/// An oracle that always picks the same index of every tie batch.
struct Pick(usize);

impl rb_simnet::WorldOracle for Pick {
    fn choose(&mut self, _: SimTime, _: u64, _: &[rb_simnet::EventInfo]) -> usize {
        self.0
    }
}

#[test]
fn oracle_batches_include_harness_closures() {
    // A harness closure and a lane timer at the same instant form one
    // tie batch, in key order: the harness's origin-0 key sorts first.
    let run = |oracle: Option<usize>| {
        let (mut world, ms) = lab(1);
        let log = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let at = Duration::from_millis(10);
        let timer = TimerAt {
            at,
            log: log.clone(),
        };
        world.spawn_user(ms[0], Box::new(timer), ProcEnv::user_standard("u"));
        let harness_log = log.clone();
        world.schedule(SimTime::ZERO + at, move |_| {
            harness_log.lock().unwrap().push("harness");
        });
        if let Some(idx) = oracle {
            world.set_schedule_oracle(Box::new(Pick(idx)));
        }
        world.run_until_idle(FAR);
        let order = log.lock().unwrap().clone();
        order
    };
    assert_eq!(run(None), ["harness", "timer"]);
    assert_eq!(
        run(Some(0)),
        ["harness", "timer"],
        "index 0 keeps key order"
    );
    assert_eq!(
        run(Some(1)),
        ["timer", "harness"],
        "index 1 runs the timer first"
    );
}

#[test]
fn harness_closure_waits_behind_an_equal_time_harness_push() {
    // `spawn_user` pushes the start under an origin-0 key drawn before
    // the closure's, at the same instant: the start (and NullProg's exit)
    // runs first, then the closure — on one lane and on several.
    for shards in [1, 2] {
        let mut b = WorldBuilder::new().seed(7).shards(shards).threads(2);
        let ms = b.standard_lab(2);
        let mut world = b.build();
        let p = world.spawn_user(ms[1], Box::new(NullProg), ProcEnv::user_standard("u"));
        let seen = std::sync::Arc::new(std::sync::Mutex::new(None));
        let seen_by_closure = seen.clone();
        world.schedule(world.now(), move |w| {
            *seen_by_closure.lock().unwrap() = Some(w.alive(p));
        });
        world.run_until(SimTime(1_000));
        assert_eq!(*seen.lock().unwrap(), Some(false), "shards={shards}");
        assert_eq!(world.exit_status(p), Some(ExitStatus::Success));
    }
}
