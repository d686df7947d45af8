//! Machine-affine dispatch keys: the total order that makes threaded
//! lanes byte-identical to the serial kernel.
//!
//! Every event carries a [`DispatchKey`] assigned **at push time** by the
//! pushing context's [`KeyStream`] and never rewritten. The kernel's run
//! loop dispatches events in lexicographic `(time, key)` order, and
//! because the key depends only on *which machine pushed the event and
//! when in that machine's own history* — never on a global counter —
//! serial, sharded and threaded executions compute identical keys and
//! therefore identical dispatch orders, traces and queue statistics.
//!
//! # Layout
//!
//! ```text
//! 63            44 43              16 15           0
//! +---------------+------------------+--------------+
//! |  origin (20)  | dispatch idx (28)| ordinal (16) |
//! +---------------+------------------+--------------+
//! ```
//!
//! * **origin** — `machine_id + 1` for events pushed while dispatching an
//!   event on that machine; `0` for the harness / world-setup context.
//!   Harness keys therefore sort before machine keys at equal times.
//! * **dispatch idx** — how many events this origin had dispatched when
//!   the push happened (a per-origin counter, identical in every
//!   execution mode because the global order projects onto each machine's
//!   local history).
//! * **ordinal** — push number within that dispatch. On overflow the
//!   stream bumps the dispatch index and resets the ordinal, which keeps
//!   keys strictly increasing per origin.
//!
//! The merge side lives in [`merge_dispatch_logs`]: given per-lane logs
//! that are each internally sorted by `(time, key)`, it recovers the one
//! canonical global order.

use crate::time::SimTime;
use std::fmt;

/// Bits reserved for the push ordinal within one dispatch.
pub const ORDINAL_BITS: u32 = 16;
/// Bits reserved for the per-origin dispatch index.
pub const DISPATCH_BITS: u32 = 28;
/// Bits reserved for the origin (machine id + 1, or 0 for the harness).
pub const ORIGIN_BITS: u32 = 64 - DISPATCH_BITS - ORDINAL_BITS;

const ORDINAL_MASK: u64 = (1 << ORDINAL_BITS) - 1;
const DISPATCH_MASK: u64 = (1 << DISPATCH_BITS) - 1;

/// A packed `(origin, dispatch idx, ordinal)` event key. Ordering is the
/// plain `u64` ordering of the packed value, which is exactly
/// origin-major, then dispatch-index, then ordinal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DispatchKey(pub u64);

impl DispatchKey {
    /// Pack a key from its three fields. Debug-asserts the fields fit.
    #[inline]
    pub fn pack(origin: u64, dispatch_idx: u64, ordinal: u64) -> DispatchKey {
        debug_assert!(origin < (1 << ORIGIN_BITS), "origin out of range");
        debug_assert!(dispatch_idx <= DISPATCH_MASK, "dispatch idx out of range");
        debug_assert!(ordinal <= ORDINAL_MASK, "ordinal out of range");
        DispatchKey(
            (origin << (DISPATCH_BITS + ORDINAL_BITS)) | (dispatch_idx << ORDINAL_BITS) | ordinal,
        )
    }

    /// The pushing context: `0` = harness, `m + 1` = machine `m`.
    #[inline]
    pub fn origin(self) -> u64 {
        self.0 >> (DISPATCH_BITS + ORDINAL_BITS)
    }

    /// Per-origin dispatch index at push time.
    #[inline]
    pub fn dispatch_idx(self) -> u64 {
        (self.0 >> ORDINAL_BITS) & DISPATCH_MASK
    }

    /// Push number within the dispatch.
    #[inline]
    pub fn ordinal(self) -> u64 {
        self.0 & ORDINAL_MASK
    }
}

impl fmt::Display for DispatchKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}.{}",
            self.origin(),
            self.dispatch_idx(),
            self.ordinal()
        )
    }
}

/// Per-origin key generator. One stream exists per machine (owned by that
/// machine's lane) plus one for the harness context (owned by the
/// coordinator); a stream is only ever advanced by the single execution
/// context that owns it, so no synchronization is needed and the values
/// it hands out are a pure function of that origin's local history.
#[derive(Debug, Clone, Default)]
pub struct KeyStream {
    origin: u64,
    dispatch_idx: u64,
    ordinal: u64,
}

impl KeyStream {
    /// Stream for machine `m` (origin `m + 1`).
    pub fn for_machine(m: u64) -> KeyStream {
        KeyStream {
            origin: m + 1,
            dispatch_idx: 0,
            ordinal: 0,
        }
    }

    /// Stream for the harness / world-setup context (origin 0).
    pub fn harness() -> KeyStream {
        KeyStream::default()
    }

    /// Begin the next dispatch on this origin: later [`next_key`] calls
    /// are ordinals of this dispatch.
    ///
    /// [`next_key`]: KeyStream::next_key
    pub fn begin_dispatch(&mut self) {
        self.dispatch_idx += 1;
        self.ordinal = 0;
    }

    /// The stream's origin (`0` = harness, `m + 1` = machine `m`).
    pub fn origin(&self) -> u64 {
        self.origin
    }

    /// Index of the dispatch most recently begun on this origin.
    pub fn dispatch_idx(&self) -> u64 {
        self.dispatch_idx
    }

    /// Key for the next event pushed in the current dispatch. On ordinal
    /// overflow the dispatch index is bumped instead, preserving strict
    /// per-origin monotonicity.
    pub fn next_key(&mut self) -> DispatchKey {
        if self.ordinal > ORDINAL_MASK {
            self.dispatch_idx += 1;
            self.ordinal = 0;
        }
        let key = DispatchKey::pack(self.origin, self.dispatch_idx, self.ordinal);
        self.ordinal += 1;
        key
    }
}

/// Deterministically merge per-lane dispatch logs into the canonical
/// global order.
///
/// Each lane's log must be internally sorted by `(time, key)` — which
/// lane execution guarantees, since a lane dispatches its events in
/// exactly that order — and keys must be globally unique (each origin
/// owns its stream and every machine belongs to one lane). The result is
/// the order the serial kernel would have produced, independent of how
/// many lanes there were or how their threads interleaved.
///
/// Returns indices `(lane, position)` into the input logs.
///
/// ```
/// use rb_simcore::{merge_dispatch_logs, DispatchKey, SimTime};
///
/// // Two lanes dispatched interleaved work: lane 0 owns machine 0
/// // (origin 1), lane 1 owns machine 1 (origin 2). At the equal
/// // timestamp 40 the key breaks the tie: machine 0's event first.
/// let lane0 = vec![(SimTime(10), DispatchKey::pack(1, 0, 0)),
///                  (SimTime(40), DispatchKey::pack(1, 1, 0))];
/// let lane1 = vec![(SimTime(20), DispatchKey::pack(2, 0, 1)),
///                  (SimTime(40), DispatchKey::pack(2, 1, 0))];
/// let order = merge_dispatch_logs(&[&lane0, &lane1], |&(t, k)| (t, k));
/// assert_eq!(order, vec![(0, 0), (1, 0), (0, 1), (1, 1)]);
///
/// // The merge is associative with lane composition: a single lane that
/// // owned both machines logs the same total order.
/// let serial = vec![lane0[0], lane1[0], lane0[1], lane1[1]];
/// let alone = merge_dispatch_logs(&[&serial], |&(t, k)| (t, k));
/// assert_eq!(alone.len(), 4);
/// ```
pub fn merge_dispatch_logs<T>(
    lanes: &[&[T]],
    mut key_of: impl FnMut(&T) -> (SimTime, DispatchKey),
) -> Vec<(usize, usize)> {
    let total: usize = lanes.iter().map(|l| l.len()).sum();
    let mut out = Vec::with_capacity(total);
    let mut cursors = vec![0usize; lanes.len()];
    for _ in 0..total {
        let mut best: Option<(SimTime, DispatchKey, usize)> = None;
        for (lane, log) in lanes.iter().enumerate() {
            let pos = cursors[lane];
            if pos >= log.len() {
                continue;
            }
            let (t, k) = key_of(&log[pos]);
            debug_assert!(
                pos == 0 || {
                    let (pt, pk) = key_of(&log[pos - 1]);
                    (pt, pk) < (t, k)
                },
                "lane log not sorted by (time, key)"
            );
            if best.map(|(bt, bk, _)| (t, k) < (bt, bk)).unwrap_or(true) {
                best = Some((t, k, lane));
            }
        }
        let (_, _, lane) = best.expect("total count implies a remaining entry");
        out.push((lane, cursors[lane]));
        cursors[lane] += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_roundtrip_and_ordering() {
        let k = DispatchKey::pack(7, 1234, 56);
        assert_eq!(k.origin(), 7);
        assert_eq!(k.dispatch_idx(), 1234);
        assert_eq!(k.ordinal(), 56);
        // Origin-major ordering; harness (origin 0) sorts first.
        assert!(DispatchKey::pack(0, u64::from(u32::MAX >> 4), 99) < DispatchKey::pack(1, 0, 0));
        assert!(DispatchKey::pack(3, 5, 9) < DispatchKey::pack(3, 6, 0));
        assert!(DispatchKey::pack(3, 5, 9) < DispatchKey::pack(3, 5, 10));
        assert_eq!(k.to_string(), "7/1234.56");
    }

    #[test]
    fn stream_is_strictly_monotone_across_overflow() {
        let mut s = KeyStream::for_machine(2);
        let mut last = s.next_key();
        // Push enough to overflow the 16-bit ordinal twice.
        for i in 0..(3 << ORDINAL_BITS) {
            if i % 1000 == 0 {
                s.begin_dispatch();
            }
            let k = s.next_key();
            assert!(k > last, "stream went backwards at {i}");
            assert_eq!(k.origin(), 3);
            last = k;
        }
    }

    #[test]
    fn merge_handles_empty_and_singleton_lanes() {
        let a: Vec<(SimTime, DispatchKey)> = vec![(SimTime(5), DispatchKey::pack(1, 0, 0))];
        let b: Vec<(SimTime, DispatchKey)> = vec![];
        let order = merge_dispatch_logs(&[&a, &b], |&(t, k)| (t, k));
        assert_eq!(order, vec![(0, 0)]);
        let none = merge_dispatch_logs::<(SimTime, DispatchKey)>(&[], |&(t, k)| (t, k));
        assert!(none.is_empty());
    }
}
