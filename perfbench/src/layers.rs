//! Standalone measurements of single layers, called through their public
//! functions: the event queue at a workload's own depth, and the broker's
//! allocation policy over a synthetic 64-machine view.

use crate::stats::median;
use rb_broker::{DefaultPolicy, JobView, MachineUse, MachineView, Policy};
use rb_proto::{JobId, MachineAttrs, MachineId};
use rb_simcore::{EventQueue, SimRng, SimTime};
use std::hint::black_box;
use std::time::Instant;

/// Rounds per measurement; the median is reported.
const ROUNDS: usize = 5;

/// A payload the size of a kernel event (~96 bytes), so the queue takes
/// the same slot-store path it takes inside the simulator.
type Payload = [u64; 12];

/// Wall ns of one pop plus one push on an `EventQueue` held at `depth`
/// pending events (the hold model: each popped event is rescheduled a
/// random short delay later).
pub fn queue_push_pop_ns(depth: usize, seed: u64) -> f64 {
    const OPS: usize = 1 << 19;
    let depth = depth.max(1);
    let mut rng = SimRng::seeded(seed);
    let delays: Vec<u64> = (0..4096).map(|_| rng.uniform_u64(1, 2_000)).collect();
    let rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let mut q: EventQueue<Payload> = EventQueue::new();
            for i in 0..depth {
                q.push(SimTime(delays[i % delays.len()]), [i as u64; 12]);
            }
            let t = Instant::now();
            for i in 0..OPS {
                let (at, ev) = q.pop().expect("the queue is held at its depth");
                q.push(SimTime(at.0 + delays[i % delays.len()]), black_box(ev));
            }
            let ns = t.elapsed().as_nanos() as f64 / OPS as f64;
            assert_eq!(q.len(), depth);
            ns
        })
        .collect();
    median(&rounds)
}

/// The broker's view during the §6.2 run: 64 public machines, all but one
/// held by the adaptive job, the last one free and lightly loaded.
fn synthetic_view() -> (Vec<MachineView>, Vec<JobView>) {
    let calypso = JobId(1);
    let machines = (0..64u32)
        .map(|i| MachineView {
            id: MachineId(i + 1),
            attrs: MachineAttrs::public_linux(format!("n{:02}", i + 1)),
            state: if i < 63 {
                MachineUse::Allocated {
                    job: calypso,
                    adaptive: true,
                }
            } else {
                MachineUse::Free
            },
            owner_present: false,
            load: i % 3,
            daemon_alive: true,
        })
        .collect();
    let jobs = vec![
        JobView {
            job: calypso,
            adaptive: true,
            held: 63,
            desired: 64,
        },
        JobView {
            job: JobId(2),
            adaptive: false,
            held: 1,
            desired: 1,
        },
    ];
    (machines, jobs)
}

/// Wall ns of one `DefaultPolicy::offer` call over the synthetic view.
pub fn policy_offer_ns() -> f64 {
    const CALLS: usize = 1 << 18;
    let (machines, jobs) = synthetic_view();
    let mut policy = DefaultPolicy::default();
    let rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let t = Instant::now();
            for i in 0..CALLS {
                let m = &machines[i % machines.len()];
                black_box(policy.offer(black_box(m), black_box(&jobs)));
            }
            t.elapsed().as_nanos() as f64 / CALLS as f64
        })
        .collect();
    median(&rounds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_synthetic_view_offers_the_free_machine_to_calypso() {
        let (machines, jobs) = synthetic_view();
        let mut policy = DefaultPolicy::default();
        assert_eq!(policy.offer(&machines[63], &jobs), Some(JobId(1)));
    }
}
