//! Order statistics and host facts.

use rb_simcore::{SimRng, Summary};
use std::hint::black_box;
use std::time::Instant;

/// The median of `samples`; NaN when there are none.
pub fn median(samples: &[f64]) -> f64 {
    Summary::from_samples(samples.to_vec()).median()
}

/// How fast the host is at the moment, for scaling wall times.
///
/// On a shared host the speed of one core drifts by ±20% over minutes, as
/// neighbours contend for the shared cache. A dependent pointer chase
/// around a fixed 4 MiB cycle spills the per-core L2 as the workloads do,
/// and its time tracks theirs: timed next to each repetition, it turns a
/// wall time into the wall time at a reference speed. The chase waits on
/// memory alone while the workloads also compute, so their time moves with
/// about the square root of its time (fitted over 30 runs; see
/// `README.md`). The chase is the benchmark's own code, so a change to
/// the simulator does not move it.
pub(crate) struct HostSpeed {
    next: Vec<u32>,
}

impl HostSpeed {
    /// Bytes the cycle keeps resident for the whole run.
    pub const BYTES: usize = 4 << 20;
    /// Loads per chase.
    const LOADS: usize = 1 << 20;
    /// Median wall ms of one chase on the host the bounds were set on (see
    /// `README.md`): the speed that scaled times are quoted at.
    const REFERENCE_MS: f64 = 37.8;

    pub(crate) fn new() -> Self {
        // Sattolo's shuffle of the identity: `next` is one cycle through
        // every slot, in random order. Built in place, so the run holds
        // exactly `BYTES` more than the workload.
        let n = Self::BYTES / std::mem::size_of::<u32>();
        let mut next: Vec<u32> = (0..n as u32).collect();
        let mut rng = SimRng::seeded(0x5EED);
        for i in (1..n).rev() {
            next.swap(i, rng.uniform_u64(0, i as u64) as usize);
        }
        HostSpeed { next }
    }

    /// Time one chase now; a wall time measured next to it, multiplied by
    /// this factor, is the wall time at the reference speed.
    pub(crate) fn factor(&self) -> f64 {
        let t = Instant::now();
        let mut at = 0u32;
        for _ in 0..Self::LOADS {
            at = self.next[at as usize];
        }
        black_box(at);
        (Self::REFERENCE_MS / (t.elapsed().as_secs_f64() * 1e3)).sqrt()
    }
}

/// The process's resident-set high-water mark in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Hardware threads this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The CPU model string, for provenance.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_chase_visits_every_slot() {
        // A shorter cycle would stay in cache and stop tracking the host.
        let h = HostSpeed::new();
        let mut at = 0u32;
        for step in 1..=h.next.len() {
            at = h.next[at as usize];
            assert_eq!(at == 0, step == h.next.len(), "back at 0 after {step}");
        }
    }
}
