//! The event queue: a time-ordered priority queue with stable FIFO ordering
//! among events scheduled for the same instant.
//!
//! One backend, a binary heap ordered by `(time, seq)`: pops come in
//! non-decreasing time order and equal-time events pop in sequence order,
//! whatever order they were pushed in. Large payloads live in a slot store
//! so the heap sifts small keys (see `INLINE_MAX_BYTES`); the choice is
//! made from the payload size and is invisible to everything but the
//! profiler. DESIGN.md §10.2 records why no second backend is kept.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Heap entry carrying its event inline — the representation for small
/// payloads, where moving the event during sifts costs nothing extra.
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Payloads at or below this size stay inline in the priority structure;
/// larger ones move to the slot store and the structure orders 24-byte
/// `(at, seq, slot)` keys instead. The crossover sits where one extra
/// random store access per pop beats sifting fat entries —
/// measured on a depth-130 sliding-window workload, indirection cuts
/// queue time ~38% for ~96-byte simulation events but roughly doubles it
/// for bare `u64` payloads.
const INLINE_MAX_BYTES: usize = 32;

/// The event-queue backend. There is only the heap: nothing reads this
/// type, which stays only because `perfbench` copies
/// `UtilizationConfig::scheduler` into `ClusterOptions::scheduler`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum QueueKind {
    /// Binary heap: `O(log n)` push/pop.
    #[default]
    Heap,
}

/// Counters describing how hard the event queue worked during a run.
///
/// `scheduled`/`dispatched` are lifetime totals; `peak_depth` is the largest
/// number of simultaneously pending events, the figure long utilization
/// sweeps watch to confirm the kernel stays flat as load grows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events pushed over the queue's lifetime.
    pub scheduled: u64,
    /// Events popped over the queue's lifetime.
    pub dispatched: u64,
    /// Maximum simultaneous pending events.
    pub peak_depth: usize,
    /// Currently pending events.
    pub depth: usize,
}

/// Pluggable tie-break policy for same-time events.
///
/// The default `(time, seq)` order dispatches equal-time events FIFO; an
/// oracle replaces *only* that tie-break — time order itself is never
/// negotiable. [`EventQueue::pop_with_oracle`] hands the oracle the full
/// equal-time batch in FIFO order and dispatches the entry at the returned
/// index, so index `0` is always the schedule the plain kernel would have
/// run. Model checkers enumerate the other indices.
pub trait ScheduleOracle<E> {
    /// Pick which of the equal-time `batch` entries (FIFO order, each with
    /// its insertion sequence number) dispatches next. Out-of-range
    /// returns are clamped to the last entry.
    fn choose(&mut self, at: SimTime, batch: &[(u64, E)]) -> usize;
}

enum Backend<E> {
    Heap(BinaryHeap<Entry<E>>),
    /// Heap over slot keys; events live in the queue's slot store.
    HeapSlab(BinaryHeap<Entry<u32>>),
}

/// A deterministic discrete-event queue.
///
/// Events pop in non-decreasing time order; events at equal times pop in the
/// order they were pushed. This tie-break is what makes whole-simulation
/// replays bit-identical across runs and platforms.
pub struct EventQueue<E> {
    backend: Backend<E>,
    /// Free-list slot store for event payloads when the slab
    /// representation is active; unused (and unallocated) otherwise.
    store: Vec<Option<E>>,
    free: Vec<u32>,
    /// Next sequence number [`push`](EventQueue::push) would assign. With
    /// [`push_seq`](EventQueue::push_seq) sequence numbers may be
    /// externally allocated (shared across a sharded kernel's lanes), so
    /// `seq` is an ordering watermark, not a push count.
    seq: u64,
    /// Events pushed over the queue's lifetime.
    scheduled: u64,
    popped: u64,
    /// Currently pending events. Tracked explicitly because `seq` no
    /// longer counts pushes when sequence numbers come from outside.
    depth: usize,
    peak: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue. The in-memory representation (inline vs.
    /// slot-store) is picked from the payload size; both honor the same
    /// ordering contract.
    pub fn new() -> Self {
        let slab = std::mem::size_of::<E>() > INLINE_MAX_BYTES;
        EventQueue {
            backend: if slab {
                Backend::HeapSlab(BinaryHeap::new())
            } else {
                Backend::Heap(BinaryHeap::new())
            },
            store: Vec::new(),
            free: Vec::new(),
            seq: 0,
            scheduled: 0,
            popped: 0,
            depth: 0,
            peak: 0,
        }
    }

    /// Pre-size the backing storage for an expected pending-event depth,
    /// sparing short-lived worlds the first few growth reallocations.
    pub fn reserve(&mut self, depth: usize) {
        match &mut self.backend {
            Backend::Heap(heap) => heap.reserve(depth),
            Backend::HeapSlab(heap) => {
                heap.reserve(depth);
                self.store.reserve(depth);
                self.free.reserve(depth);
            }
        }
    }

    fn store_insert(&mut self, event: E) -> u32 {
        if let Some(slot) = self.free.pop() {
            self.store[slot as usize] = Some(event);
            slot
        } else {
            assert!(self.store.len() < u32::MAX as usize, "event queue overflow");
            self.store.push(Some(event));
            (self.store.len() - 1) as u32
        }
    }

    fn store_take(&mut self, slot: u32) -> E {
        let event = self.store[slot as usize]
            .take()
            .expect("backend keys and slot store in sync");
        self.free.push(slot);
        event
    }

    /// Hand `event` to the backend under an already-assigned sequence
    /// number. Shared by [`push`], [`push_seq`] and [`requeue`]; counter
    /// maintenance stays with the callers.
    ///
    /// [`push`]: EventQueue::push
    /// [`push_seq`]: EventQueue::push_seq
    /// [`requeue`]: EventQueue::requeue
    fn place(&mut self, at: SimTime, seq: u64, event: E) {
        match &mut self.backend {
            Backend::Heap(heap) => heap.push(Entry { at, seq, event }),
            Backend::HeapSlab(_) => {
                let slot = self.store_insert(event);
                let Backend::HeapSlab(heap) = &mut self.backend else {
                    unreachable!()
                };
                heap.push(Entry {
                    at,
                    seq,
                    event: slot,
                });
            }
        }
    }

    /// Schedule `event` at absolute time `at`.
    pub fn push(&mut self, at: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.scheduled += 1;
        self.place(at, seq, event);
        self.depth += 1;
        if self.depth > self.peak {
            self.peak = self.depth;
        }
    }

    /// Schedule `event` at `at` under an externally allocated sequence
    /// key. The parallel kernel assigns machine-affine dispatch keys
    /// ([`crate::DispatchKey`]) at push time; they are unique and strictly
    /// increasing *per origin machine* but arbitrary per queue, so no
    /// watermark is enforced — ties in `at` break by the key's `u64`
    /// order, whatever interleaving the keys arrived in.
    pub fn push_seq(&mut self, at: SimTime, seq: u64, event: E) {
        self.seq = self.seq.max(seq + 1);
        self.scheduled += 1;
        self.place(at, seq, event);
        self.depth += 1;
        if self.depth > self.peak {
            self.peak = self.depth;
        }
    }

    /// Remove and return the earliest event together with its insertion
    /// sequence number, without touching the lifetime counters.
    fn pop_entry(&mut self) -> Option<(SimTime, u64, E)> {
        enum Popped<E> {
            Inline(SimTime, u64, E),
            Slab(SimTime, u64, u32),
        }
        let popped = match &mut self.backend {
            Backend::Heap(heap) => heap.pop().map(|e| Popped::Inline(e.at, e.seq, e.event)),
            Backend::HeapSlab(heap) => heap.pop().map(|e| Popped::Slab(e.at, e.seq, e.event)),
        }?;
        Some(match popped {
            Popped::Inline(at, seq, event) => (at, seq, event),
            Popped::Slab(at, seq, slot) => (at, seq, self.store_take(slot)),
        })
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (at, _, event) = self.pop_entry()?;
        self.popped += 1;
        self.depth -= 1;
        Some((at, event))
    }

    /// Remove and return *every* event scheduled for the earliest pending
    /// instant, in FIFO (sequence) order. Each entry carries its original
    /// sequence number so unchosen entries can be [`requeue`]d without
    /// disturbing the tie-break of later pops.
    ///
    /// [`requeue`]: EventQueue::requeue
    pub fn pop_front_batch(&mut self) -> Option<(SimTime, Vec<(u64, E)>)> {
        let at = self.peek_time()?;
        let mut batch = Vec::new();
        while self.peek_time() == Some(at) {
            let (_, seq, event) = self.pop_entry().expect("peeked time implies an event");
            batch.push((seq, event));
        }
        self.popped += batch.len() as u64;
        self.depth -= batch.len();
        Some((at, batch))
    }

    /// Put back an event taken by [`pop_front_batch`] with its original
    /// sequence number, undoing its share of the dispatch accounting. The
    /// heap orders by `(time, seq)`, so requeues may come in any order.
    ///
    /// [`pop_front_batch`]: EventQueue::pop_front_batch
    pub fn requeue(&mut self, at: SimTime, seq: u64, event: E) {
        debug_assert!(seq < self.seq, "requeue of a sequence never issued");
        self.place(at, seq, event);
        self.popped -= 1;
        self.depth += 1;
    }

    /// Remove the next event, letting `oracle` pick among same-time ties.
    ///
    /// Singleton instants skip the oracle entirely, so installing one only
    /// perturbs executions where a genuine scheduling choice exists. The
    /// chosen index is clamped; returning `0` reproduces the default
    /// `(time, seq)` FIFO tie-break exactly.
    pub fn pop_with_oracle(&mut self, oracle: &mut dyn ScheduleOracle<E>) -> Option<(SimTime, E)> {
        let (at, mut batch) = self.pop_front_batch()?;
        let idx = if batch.len() == 1 {
            0
        } else {
            oracle.choose(at, &batch).min(batch.len() - 1)
        };
        let (_, chosen) = batch.swap_remove(idx);
        // `pop_front_batch` counted the whole batch as dispatched and each
        // requeue undoes one share, so the chosen event's accounting is
        // already exact here.
        for (seq, event) in batch {
            self.requeue(at, seq, event);
        }
        Some((at, chosen))
    }

    /// Visit every pending event in unspecified order (heap order).
    /// Intended for order-independent accounting such as state
    /// fingerprinting; nothing about iteration order is stable.
    pub fn for_each_pending(&self, mut f: impl FnMut(SimTime, u64, &E)) {
        match &self.backend {
            Backend::Heap(heap) => {
                for e in heap.iter() {
                    f(e.at, e.seq, &e.event);
                }
            }
            Backend::HeapSlab(heap) => {
                for e in heap.iter() {
                    let ev = self.store[e.event as usize]
                        .as_ref()
                        .expect("backend keys and slot store in sync");
                    f(e.at, e.seq, ev);
                }
            }
        }
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        match &self.backend {
            Backend::Heap(heap) => heap.peek().map(|e| e.at),
            Backend::HeapSlab(heap) => heap.peek().map(|e| e.at),
        }
    }

    /// `(time, sequence)` key of the earliest pending event — what the
    /// lane coordinator compares across lane queues to find the globally
    /// next dispatch without popping. The heap root is the true minimum
    /// even for the parallel kernel's machine-affine keys, which are not
    /// globally monotone within a lane.
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        match &self.backend {
            Backend::Heap(heap) => heap.peek().map(|e| (e.at, e.seq)),
            Backend::HeapSlab(heap) => heap.peek().map(|e| (e.at, e.seq)),
        }
    }

    pub fn len(&self) -> usize {
        self.depth
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events scheduled so far (including popped ones).
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled
    }

    /// Total number of events dispatched so far.
    pub fn popped_total(&self) -> u64 {
        self.popped
    }

    /// Largest number of simultaneously pending events so far.
    pub fn peak_depth(&self) -> usize {
        self.peak
    }

    /// Snapshot of the queue's work counters.
    pub fn stats(&self) -> QueueStats {
        QueueStats {
            scheduled: self.scheduled,
            dispatched: self.popped,
            peak_depth: self.peak,
            depth: self.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime(30), "c");
        q.push(SimTime(10), "a");
        q.push(SimTime(20), "b");
        assert_eq!(q.pop(), Some((SimTime(10), "a")));
        assert_eq!(q.pop(), Some((SimTime(20), "b")));
        assert_eq!(q.pop(), Some((SimTime(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((SimTime(5), i)));
        }
    }

    #[test]
    fn batch_pop_and_requeue_preserve_fifo_and_counters() {
        let mut q = EventQueue::new();
        q.push(SimTime(5), "a");
        q.push(SimTime(5), "b");
        q.push(SimTime(5), "c");
        q.push(SimTime(9), "z");
        let (at, batch) = q.pop_front_batch().unwrap();
        assert_eq!(at, SimTime(5));
        assert_eq!(
            batch.iter().map(|&(_, e)| e).collect::<Vec<_>>(),
            ["a", "b", "c"]
        );
        // Dispatch "b"; requeue the rest newest first — the heap restores
        // FIFO from the sequence numbers alone.
        let rest: Vec<_> = batch.into_iter().filter(|&(_, e)| e != "b").collect();
        for (seq, e) in rest.into_iter().rev() {
            q.requeue(at, seq, e);
        }
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((SimTime(5), "a")));
        assert_eq!(q.pop(), Some((SimTime(5), "c")));
        assert_eq!(q.pop(), Some((SimTime(9), "z")));
        assert_eq!(q.scheduled_total(), 4);
        assert_eq!(q.popped_total(), 4);
    }

    #[test]
    fn oracle_index_zero_matches_fifo() {
        struct Fifo;
        impl<E> ScheduleOracle<E> for Fifo {
            fn choose(&mut self, _at: SimTime, _batch: &[(u64, E)]) -> usize {
                0
            }
        }
        let mut plain = EventQueue::new();
        let mut guided = EventQueue::new();
        for (t, v) in [(5, 'a'), (5, 'b'), (3, 'x'), (5, 'c'), (3, 'y')] {
            plain.push(SimTime(t), v);
            guided.push(SimTime(t), v);
        }
        loop {
            let a = plain.pop();
            let b = guided.pop_with_oracle(&mut Fifo);
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        assert_eq!(plain.stats(), guided.stats());
    }

    #[test]
    fn oracle_can_flip_a_tie() {
        struct Last;
        impl<E> ScheduleOracle<E> for Last {
            fn choose(&mut self, _at: SimTime, batch: &[(u64, E)]) -> usize {
                batch.len() - 1
            }
        }
        let mut q = EventQueue::new();
        q.push(SimTime(5), "a");
        q.push(SimTime(5), "b");
        assert_eq!(q.pop_with_oracle(&mut Last), Some((SimTime(5), "b")));
        // The remainder still pops FIFO.
        assert_eq!(q.pop_with_oracle(&mut Last), Some((SimTime(5), "a")));
        assert_eq!(q.pop_with_oracle(&mut Last), None);
    }

    #[test]
    fn oracle_requeue_keeps_fifo_after_middle_pick() {
        // Picking from the middle of a 4-wide tie must leave the other
        // three popping in their original FIFO order, although the
        // swap_remove in pop_with_oracle requeues them out of order.
        struct Pick(usize);
        impl<E> ScheduleOracle<E> for Pick {
            fn choose(&mut self, _at: SimTime, _batch: &[(u64, E)]) -> usize {
                let i = self.0;
                self.0 = 0;
                i
            }
        }
        let mut q = EventQueue::new();
        for v in ["a", "b", "c", "d"] {
            q.push(SimTime(5), v);
        }
        q.push(SimTime(9), "z");
        let mut oracle = Pick(2);
        assert_eq!(q.pop_with_oracle(&mut oracle), Some((SimTime(5), "c")));
        assert_eq!(q.pop_with_oracle(&mut oracle), Some((SimTime(5), "a")));
        assert_eq!(q.pop_with_oracle(&mut oracle), Some((SimTime(5), "b")));
        assert_eq!(q.pop_with_oracle(&mut oracle), Some((SimTime(5), "d")));
        assert_eq!(q.pop_with_oracle(&mut oracle), Some((SimTime(9), "z")));
        assert_eq!(q.stats().dispatched, 5);
        assert_eq!(q.stats().depth, 0);
    }

    #[test]
    fn push_seq_interleaves_with_external_counter() {
        // Two lanes fed from one shared counter: each lane sees a gapping
        // but increasing sequence stream and pops in global (time, seq)
        // order; depth/scheduled counters track pushes, not the watermark.
        let mut a = EventQueue::new();
        let mut b = EventQueue::new();
        let mut next = 0u64;
        let mut alloc = || {
            let s = next;
            next += 1;
            s
        };
        a.push_seq(SimTime(5), alloc(), "a0");
        b.push_seq(SimTime(5), alloc(), "b0");
        b.push_seq(SimTime(3), alloc(), "b1");
        a.push_seq(SimTime(5), alloc(), "a1");
        assert_eq!(a.len(), 2);
        assert_eq!(a.scheduled_total(), 2);
        assert_eq!(b.peek_key(), Some((SimTime(3), 2)));
        assert_eq!(a.peek_key(), Some((SimTime(5), 0)));
        assert_eq!(b.pop(), Some((SimTime(3), "b1")));
        assert_eq!(b.peek_key(), Some((SimTime(5), 1)));
        assert_eq!(a.pop(), Some((SimTime(5), "a0")));
        assert_eq!(b.pop(), Some((SimTime(5), "b0")));
        assert_eq!(a.pop(), Some((SimTime(5), "a1")));
        assert_eq!(a.stats().depth + b.stats().depth, 0);
    }

    #[test]
    fn peek_key_matches_next_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_key(), None);
        for (t, v) in [(30u64, 0u64), (10, 1), (10, 2), (900_000, 3), (10, 4)] {
            q.push(SimTime(t), v);
        }
        while let Some((at, seq)) = q.peek_key() {
            let (pat, _) = q.pop().unwrap();
            assert_eq!(pat, at);
            // seq numbers were assigned in push order 0..5.
            assert!(seq < 5);
        }
        assert!(q.is_empty());
    }

    #[test]
    fn for_each_pending_sees_exactly_the_pending_multiset() {
        let mut q = EventQueue::new();
        for i in 0..20u64 {
            q.push(SimTime(i % 4), i);
        }
        q.pop();
        q.pop();
        let mut seen = Vec::new();
        q.for_each_pending(|at, _seq, &ev| seen.push((at, ev)));
        assert_eq!(seen.len(), q.len());
        seen.sort();
        let mut expect: Vec<_> = (0..20u64).map(|i| (SimTime(i % 4), i)).collect();
        expect.sort();
        assert_eq!(seen, expect[2..].to_vec());
    }

    #[test]
    fn counters_and_peek() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime(7), ());
        q.push(SimTime(3), ());
        assert_eq!(q.peek_time(), Some(SimTime(3)));
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.scheduled_total(), 2);
        assert_eq!(q.popped_total(), 1);
        assert_eq!(q.peak_depth(), 2);
    }
}

#[cfg(test)]
mod randomized {
    use super::*;
    use crate::rng::SimRng;

    /// Popping never yields a time earlier than the previous pop, and
    /// every pushed event comes back exactly once.
    #[test]
    fn pops_are_monotone_and_complete() {
        let mut rng = SimRng::seeded(0x0101);
        for _ in 0..128 {
            let times: Vec<u64> = (0..rng.uniform_u64(1, 200))
                .map(|_| rng.uniform_u64(0, 1_000))
                .collect();
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime(t), i);
            }
            let mut seen = vec![false; times.len()];
            let mut last = SimTime::ZERO;
            while let Some((at, idx)) = q.pop() {
                assert!(at >= last);
                assert_eq!(at, SimTime(times[idx]));
                assert!(!seen[idx]);
                seen[idx] = true;
                last = at;
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    /// FIFO among equal timestamps holds for arbitrary interleavings.
    #[test]
    fn fifo_within_timestamp() {
        let mut rng = SimRng::seeded(0x0202);
        for _ in 0..128 {
            let times: Vec<u64> = (0..rng.uniform_u64(1, 100))
                .map(|_| rng.uniform_u64(0, 5))
                .collect();
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime(t), i);
            }
            let mut last_seq_at: std::collections::HashMap<u64, usize> = Default::default();
            while let Some((at, idx)) = q.pop() {
                if let Some(&prev) = last_seq_at.get(&at.0) {
                    assert!(idx > prev, "FIFO violated at t={}", at.0);
                }
                last_seq_at.insert(at.0, idx);
            }
        }
    }

    /// Payloads above `INLINE_MAX_BYTES` switch the heap to the slot-store
    /// representation; the ordering contract must be indistinguishable
    /// from the inline one.
    #[test]
    fn slab_representation_is_equivalent() {
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        struct Big([u64; 12]);
        assert!(std::mem::size_of::<Big>() > super::INLINE_MAX_BYTES);
        let mut rng = SimRng::seeded(0x0404);
        for _ in 0..32 {
            let mut heap = EventQueue::new();
            let mut expect = Vec::new();
            for i in 0..300u64 {
                let at = SimTime(rng.uniform_u64(0, 1 << 20));
                heap.push(at, Big([i; 12]));
                expect.push((at, i));
            }
            expect.sort_by_key(|&(at, i)| (at, i));
            for &(at, i) in &expect {
                assert_eq!(heap.pop(), Some((at, Big([i; 12]))));
            }
            assert_eq!(heap.pop(), None);
        }
    }
}
