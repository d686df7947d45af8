//! Seeded drift tree: a "broker.rs" that has wandered away from
//! BROKER_SPEC. The srccheck integration test and the CI `static-check`
//! job run `rbcheck --root .../drift_tree --allow-missing` against this
//! tree and require a nonzero exit with the expected rule names.
//!
//! Seeded violations:
//! - constructs Broker::DaemonHello (undeclared-send for the broker)
//! - never constructs Broker::GrowOffer et al. (phantom-send)
//! - match arm on Broker::AllocGrant (undeclared-handle)
//! - no arm for Broker::QueryCluster (dropped-handler)
//! - std HashMap in a hot-path crate (std-hash-in-hot-path)
//! - Instant::now in a simulation crate (wallclock-in-sim)
//! - println! in library code (println-in-lib)
//! - a Mutex in a behavior crate (shared-state-in-behavior)

use std::collections::HashMap;

pub struct Broker {
    jobs: HashMap<u64, String>,
    log: std::sync::Mutex<Vec<String>>,
}

impl Broker {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: ProcId, msg: Payload) {
        let started = std::time::Instant::now();
        match msg {
            Payload::Broker(BrokerMsg::RegisterJob { job, .. }) => {
                ctx.send(from, Payload::Broker(BrokerMsg::JobAccepted { job }));
            }
            Payload::Broker(BrokerMsg::AllocRequest { job, .. }) => {
                ctx.send(
                    from,
                    Payload::Broker(BrokerMsg::AllocDenied { job, reason: 0 }),
                );
            }
            Payload::Broker(BrokerMsg::AllocGrant { job, .. }) => {
                println!("grant echoed back for {job}?");
            }
            _ => {}
        }
        // Not something the broker is declared to send.
        ctx.send(from, Payload::Broker(BrokerMsg::DaemonHello { machine: 0 }));
        let _ = started.elapsed();
    }
}
