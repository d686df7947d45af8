//! [`Ctx`] — the capability handle a behavior uses to act on the world.
//!
//! All interactions of a simulated process with its environment go through
//! here: sending messages (with realistic latencies), timers, spawning,
//! `rsh`, CPU consumption, service registration, signals, and exit.
//!
//! A `Ctx` borrows the dispatching [`Lane`] plus the read-only
//! [`SharedCore`] — never the whole world — which is what lets dispatch
//! run on worker threads: everything a behavior can reach is either owned
//! by its machine's lane or immutable (`DESIGN.md` §17). Cross-machine
//! effects (a message to a process another lane owns, a remote `rsh` hop)
//! leave as events through the lane's outbox and arrive after at least one
//! LAN latency, outside the current window.

use crate::lane::{Event, Lane, SharedCore};
use crate::process::{Behavior, ProcEnv, RshBinding};
use rb_proto::{
    CommandSpec, ExitStatus, HostSpec, JobId, MachineAttrs, MachineId, Payload, ProcId, RshHandle,
    Signal, TimerToken,
};
use rb_simcore::{Duration, SimTime};

/// Execution context passed to every [`Behavior`] callback.
pub struct Ctx<'w> {
    lane: &'w mut Lane,
    shared: &'w SharedCore,
    me: ProcId,
    exit: Option<ExitStatus>,
}

impl<'w> Ctx<'w> {
    pub(crate) fn new(lane: &'w mut Lane, shared: &'w SharedCore, me: ProcId) -> Self {
        Ctx {
            lane,
            shared,
            me,
            exit: None,
        }
    }

    pub(crate) fn take_exit(&mut self) -> Option<ExitStatus> {
        self.exit.take()
    }

    // ---------------- identity & inspection ----------------

    /// This process's id.
    pub fn me(&self) -> ProcId {
        self.me
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.lane.now
    }

    /// The machine this process runs on.
    pub fn machine(&self) -> MachineId {
        self.me
            .machine_tag()
            .expect("behaviors run as machine processes")
    }

    /// Host name of this process's machine (interned — cloning the
    /// returned handle does not allocate).
    pub fn hostname(&self) -> std::sync::Arc<str> {
        self.shared.host_names[self.machine().0 as usize].clone()
    }

    /// Attributes of an arbitrary machine (static data a process could
    /// learn from `uname`/config files). Borrowed — clone only to store.
    pub fn attrs_of(&self, m: MachineId) -> &MachineAttrs {
        &self.shared.attrs[m.0 as usize]
    }

    /// Host name of an arbitrary machine (interned — cloning the returned
    /// handle does not allocate).
    pub fn hostname_of(&self, m: MachineId) -> std::sync::Arc<str> {
        self.shared.host_names[m.0 as usize].clone()
    }

    /// Resolve a host name.
    pub fn lookup_host(&self, host: &str) -> Option<MachineId> {
        self.shared.machine_by_host(host)
    }

    /// All machine ids in the network (what a site administrator's host
    /// list would contain — the broker reads this at startup).
    pub fn all_machines(&self) -> Vec<MachineId> {
        (0..self.shared.attrs.len() as u32).map(MachineId).collect()
    }

    /// Instantiate a program from the world's installed factory (what a
    /// sub-`appl` does when told which command to execute). `None` means
    /// "command not found".
    pub fn build_program(&self, cmd: &rb_proto::CommandSpec) -> Option<Box<dyn Behavior>> {
        self.shared.factory.as_ref()?.build(cmd)
    }

    /// The world's timing constants (what a process would "know" from
    /// system configuration, e.g. how long a graceful retreat may take).
    pub fn cost(&self) -> &crate::cost::CostModel {
        &self.shared.cost
    }

    /// This process's environment (clone it to inherit into a child).
    pub fn env(&self) -> &ProcEnv {
        &self.lane.proc(self.me).expect("self exists").env
    }

    /// This process's user name (interned).
    pub fn user(&self) -> std::sync::Arc<str> {
        self.env().user.clone()
    }

    /// The job this process runs under, if broker-managed.
    pub fn job(&self) -> Option<JobId> {
        self.env().job
    }

    /// The managing `appl`, if any.
    pub fn appl(&self) -> Option<ProcId> {
        self.env().appl
    }

    /// Status snapshot of this process's machine, as a local daemon would
    /// observe it (CPU load, logins, console activity, owner presence).
    /// Reading clears the one-shot console-activity flag, modeling a
    /// "since last poll" sensor.
    pub fn poll_machine_status(&mut self) -> MachineStatus {
        let m = self.machine();
        let local = self.lane.local_of(m);
        let state = &mut self.lane.machines[local];
        let status = MachineStatus {
            machine: m,
            load: state.cpu.load() as u32,
            app_procs: state.app_proc_count(),
            users: state.users,
            console_active: state.console_active,
            owner_present: state.owner_present,
        };
        state.console_active = false;
        status
    }

    // ---------------- randomness & tracing ----------------

    /// Deterministic uniform integer in `[lo, hi)`, drawn from this
    /// machine's RNG stream (so draws replay identically at every shard
    /// and thread count — the stream is a pure function of the machine's
    /// dispatch history).
    pub fn rng_u64(&mut self, lo: u64, hi: u64) -> u64 {
        let local = self.lane.local_of(self.machine());
        self.lane.mkern[local].rng.uniform_u64(lo, hi)
    }

    /// Deterministic uniform float in `[lo, hi)` from the machine stream.
    pub fn rng_f64(&mut self, lo: f64, hi: f64) -> f64 {
        let local = self.lane.local_of(self.machine());
        self.lane.mkern[local].rng.uniform_f64(lo, hi)
    }

    /// Record a trace event under this process's identity. `detail` is
    /// only formatted when tracing is enabled — pass `format_args!` (or
    /// any `Display` value) rather than a pre-built `String` so disabled
    /// runs pay nothing.
    pub fn trace(&mut self, topic: impl Into<rb_simcore::Topic>, detail: impl std::fmt::Display) {
        let at = self.lane.now;
        self.lane.trace.record(at, topic, detail);
    }

    // ---------------- causal spans & metrics ----------------

    /// Open a causal span under `parent` (pass [`SpanId::NONE`] for a
    /// root). Costs nothing and returns `SpanId::NONE` when tracing is
    /// off, so instrumented behaviors stay pay-for-what-you-use. Span ids
    /// come from this machine's tagged allocator, so concurrent lanes
    /// never mint colliding ids.
    ///
    /// [`SpanId::NONE`]: rb_simcore::SpanId::NONE
    pub fn open_span(
        &mut self,
        parent: rb_simcore::SpanId,
        name: &'static str,
        detail: impl std::fmt::Display,
    ) -> rb_simcore::SpanId {
        let local = self.lane.local_of(self.machine());
        let now = self.lane.now;
        let lane = &mut *self.lane;
        lane.mkern[local]
            .spans
            .open(&mut lane.trace, now, parent, name, detail)
    }

    /// Close a span with a free-form outcome (no-op on `SpanId::NONE`).
    pub fn close_span(
        &mut self,
        id: rb_simcore::SpanId,
        name: &'static str,
        outcome: impl std::fmt::Display,
    ) {
        let local = self.lane.local_of(self.machine());
        let now = self.lane.now;
        let lane = &mut *self.lane;
        lane.mkern[local]
            .spans
            .close(&mut lane.trace, now, id, name, outcome);
    }

    /// Bump a counter in the world's metrics registry. The label is only
    /// formatted when metrics are enabled. Counts stage in the lane and
    /// merge at barriers; counter sums are exact, so totals are
    /// mode-independent.
    pub fn metric_inc(&mut self, name: &'static str, label: impl std::fmt::Display) {
        if let Some(m) = self.lane.metrics.as_mut() {
            m.inc(name, label);
        }
    }

    /// Record one sample into a metrics distribution (e.g. an allocation
    /// latency in seconds). No-op when metrics are disabled.
    pub fn metric_observe(
        &mut self,
        name: &'static str,
        label: impl std::fmt::Display,
        value: f64,
    ) {
        if let Some(m) = self.lane.metrics.as_mut() {
            m.observe(name, label, value);
        }
    }

    // ---------------- messaging ----------------

    /// Send a message; latency is local or LAN depending on the target's
    /// machine. Messages to dead processes are dropped (like writes to a
    /// closed socket).
    pub fn send(&mut self, to: ProcId, msg: Payload) {
        self.send_after(to, msg, Duration::ZERO);
    }

    /// Send with additional processing delay before the wire latency.
    pub fn send_after(&mut self, to: ProcId, msg: Payload, extra: Duration) {
        // The target's machine is in its id tag — no cross-lane process
        // table lookup needed (the harness pseudo-process is untagged and
        // charges a LAN hop, like any off-machine target).
        let latency = if to.machine_tag() == Some(self.machine()) {
            self.shared.cost.local_latency
        } else {
            self.shared.cost.lan_latency
        };
        let at = self.lane.now + extra + latency;
        self.lane.push_event_at(
            self.shared,
            at,
            Event::Deliver {
                to,
                from: self.me,
                msg,
            },
        );
    }

    // ---------------- timers ----------------

    /// Arm a one-shot timer; the token is echoed to `on_timer`.
    pub fn set_timer(&mut self, d: Duration) -> TimerToken {
        let token = self.lane.fresh_timer(self.machine());
        let at = self.lane.now + d;
        self.lane.push_event_at(
            self.shared,
            at,
            Event::Timer {
                proc: self.me,
                token,
            },
        );
        token
    }

    /// Cancel a pending timer (no-op if already fired).
    pub fn cancel_timer(&mut self, token: TimerToken) {
        let local = self.lane.local_of(self.machine());
        let cancelled = &mut self.lane.mkern[local].cancelled_timers;
        if !cancelled.contains(&token) {
            cancelled.push(token);
        }
    }

    // ---------------- process control ----------------

    /// Spawn a child process on this machine, inheriting this process's
    /// environment (fork/exec semantics).
    pub fn spawn_local(&mut self, behavior: Box<dyn Behavior>) -> ProcId {
        let env = self.env().clone();
        self.spawn_local_with_env(behavior, env)
    }

    /// Spawn a child process on this machine with an explicit environment
    /// (what the sub-`appl` does when launching job programs).
    pub fn spawn_local_with_env(&mut self, behavior: Box<dyn Behavior>, env: ProcEnv) -> ProcId {
        let machine = self.machine();
        let p = self
            .lane
            .insert_proc(self.shared, machine, behavior, env, Some(self.me));
        let at = self.lane.now + self.shared.cost.local_fork;
        self.lane.push_event_at(self.shared, at, Event::Start(p));
        p
    }

    /// Deliver a signal to another process. `SIGKILL` is enforced by the
    /// kernel and cannot be caught.
    pub fn kill(&mut self, target: ProcId, sig: Signal) {
        let latency = if target.machine_tag() == Some(self.machine()) {
            self.shared.cost.local_latency
        } else {
            self.shared.cost.lan_latency
        };
        let at = self.lane.now + latency;
        self.lane
            .push_event_at(self.shared, at, Event::SigDeliver { proc: target, sig });
    }

    /// Terminate this process with `status` once the current callback
    /// returns.
    pub fn exit(&mut self, status: ExitStatus) {
        self.exit = Some(status);
    }

    /// Daemonize: any `rsh` waiting on this process completes successfully
    /// now, and the local parent is notified (`on_child_detach`).
    pub fn detach(&mut self) {
        self.lane.detach_proc(self.shared, self.me);
    }

    // ---------------- rsh ----------------

    /// Invoke whatever `rsh` this process's PATH resolves to (per its
    /// environment's [`RshBinding`]). Completion arrives via
    /// `on_rsh_result`.
    pub fn rsh(&mut self, host: &str, cmd: CommandSpec) -> RshHandle {
        let binding = self.env().rsh;
        self.lane
            .rsh_begin(self.shared, self.me, host, cmd, binding)
    }

    /// Invoke the *standard* rsh explicitly, bypassing any shim (used by
    /// the `appl` layer, which redirects jobs by design).
    pub fn rsh_standard(&mut self, host: &str, cmd: CommandSpec) -> RshHandle {
        self.lane
            .rsh_begin(self.shared, self.me, host, cmd, RshBinding::Standard)
    }

    /// Used by the `rsh'` behavior itself: run the standard rsh state
    /// machine under a pre-classified host spec.
    pub fn rsh_standard_spec(&mut self, host: HostSpec, cmd: CommandSpec) -> RshHandle {
        let handle = self.lane.rsh_begin_raw(self.me);
        self.lane
            .standard_rsh(self.shared, self.me, handle, host, cmd);
        handle
    }

    // ---------------- CPU ----------------

    /// Begin a CPU burst of `cpu` CPU-time under processor sharing;
    /// completion arrives via `on_cpu_done` with the returned token.
    pub fn cpu_burst(&mut self, cpu: Duration) -> u64 {
        let m = self.machine();
        let local = self.lane.local_of(m);
        let kern = &mut self.lane.mkern[local];
        let token = kern.next_cpu_token;
        kern.next_cpu_token += 1;
        let now = self.lane.now;
        self.lane.machines[local].cpu.add(now, self.me, token, cpu);
        self.lane.reschedule_cpu(self.shared, m);
        token
    }

    // ---------------- service registry ----------------

    /// Register this process as the provider of a named per-user service
    /// on this machine (the analogue of a `/tmp/pvmd.<uid>` socket file).
    pub fn register_service(&mut self, name: &str) {
        let m = self.machine();
        let entry = self.lane.proc_mut(self.me).expect("self exists");
        entry.has_services = true;
        let user = entry.env.user.to_string();
        self.lane
            .services
            .insert((m, user, name.to_string()), self.me);
    }

    /// Look up a service registered by this process's user on this machine.
    pub fn lookup_service(&self, name: &str) -> Option<ProcId> {
        let m = self.machine();
        let user = &self.env().user.clone();
        self.lane
            .services
            .get(&(m, user.to_string(), name.to_string()))
            .copied()
    }

    // ---------------- stable storage ----------------

    /// Write a file in this user's home directory on this machine. The
    /// disk survives process death and machine crashes.
    pub fn disk_write(&mut self, file: &str, bytes: Vec<u8>) {
        let m = self.machine();
        let user = self.env().user.to_string();
        self.lane.disks.insert((m, user, file.to_string()), bytes);
    }

    /// Read a file from this user's home directory on this machine.
    pub fn disk_read(&self, file: &str) -> Option<Vec<u8>> {
        let m = self.machine();
        let user = &self.env().user;
        self.lane
            .disks
            .get(&(m, user.to_string(), file.to_string()))
            .cloned()
    }

    /// Remove a file from this user's home directory on this machine.
    pub fn disk_remove(&mut self, file: &str) {
        let m = self.machine();
        let user = self.env().user.to_string();
        self.lane.disks.remove(&(m, user, file.to_string()));
    }
}

/// Snapshot of local machine state as observed by a daemon poll.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct MachineStatus {
    pub machine: MachineId,
    /// Runnable CPU bursts.
    pub load: u32,
    /// Alive application processes.
    pub app_procs: u32,
    /// Interactive logins.
    pub users: u32,
    /// Keyboard/mouse activity since the previous poll.
    pub console_active: bool,
    /// Private owner at the console.
    pub owner_present: bool,
}
