//! The central event queue of the discrete-event engine: a hierarchical
//! timing wheel in the style of the kernel's timer wheel — two
//! fixed-size near levels of slotted FIFO buckets plus an overflow heap
//! for far timers. Schedule and pop are O(1) amortized for the near
//! levels, which is where a discrete-event simulation's events
//! overwhelmingly land (device completions and CPU work sit
//! microseconds out).
//!
//! Events are ordered by `(instant, schedule sequence)`, so events at
//! the same instant pop in the order they were scheduled — the
//! determinism invariant every simulation in this workspace leans on.
//! A test-local binary heap is the reference model: a proptest below
//! checks that the wheel's pop order matches it for arbitrary
//! schedule/pop/`alloc_seq`/peek sequences. See DESIGN.md §"Engine
//! internals" for the wheel layout and the cursor invariants.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::SimTime;

#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> Entry<E> {
    /// The queue's total order.
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
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
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
        other.key().cmp(&self.key())
    }
}

/// Log2 of the level-0 slot width: 1024 ns (~1 µs) per slot.
const SLOT_SHIFT: u32 = 10;
/// Slots per level (both levels). 256 slots × 1 µs ≈ 262 µs near horizon.
const SLOTS: usize = 256;
const SLOT_MASK: u64 = SLOTS as u64 - 1;
/// Log2 of the level-1 slot width: one L1 slot spans a whole L0 wheel
/// (~262 µs); 256 of them cover ~67 ms. Anything farther is a far timer.
const L1_SHIFT: u32 = SLOT_SHIFT + 8;

/// A time-ordered queue of events with FIFO tie-breaking.
///
/// Events scheduled for the same instant pop in the order they were
/// scheduled, which keeps simulations deterministic without requiring the
/// payload type to be `Ord`.
///
/// # Example
///
/// ```
/// use simcore::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_nanos(10), 'b');
/// q.schedule(SimTime::from_nanos(10), 'c');
/// q.schedule(SimTime::from_nanos(5), 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!['a', 'b', 'c']);
/// ```
//
// Wheel invariants (absolute L0 slot number = `at >> SLOT_SHIFT`):
//
// 1. `bucket` holds every pending event whose slot ≤ `cursor`, sorted
//    **descending** by `(at, seq)` so the next event pops from the back.
// 2. `l0[s & 255]` holds events with slot `s` ∈ (`cursor`, `cursor`+256);
//    at most one absolute slot maps to an index at a time (older
//    occupants were drained before the cursor could advance this far).
// 3. `l1[s1 & 255]` holds events with L1 slot `s1` ∈ (`cursor1`,
//    `cursor1`+256) that are beyond the L0 window.
// 4. `far` (a min-heap) holds only events with L1 slot ≥ `cursor1`+256;
//    `advance_cursor` re-files newly eligible far events into `l1`
//    every time `cursor1` grows, so levels never hide an earlier event.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Absolute L0 slot currently draining through `bucket`.
    cursor: u64,
    bucket: Vec<Entry<E>>,
    l0: Vec<Vec<Entry<E>>>,
    l0_occ: [u64; SLOTS / 64],
    l1: Vec<Vec<Entry<E>>>,
    l1_occ: [u64; SLOTS / 64],
    far: BinaryHeap<Entry<E>>,
    len: usize,
    /// Next FIFO tie-break sequence number.
    seq: u64,
}

fn slot_of(at: SimTime) -> u64 {
    at.as_nanos() >> SLOT_SHIFT
}

fn l1_slot_of(at: SimTime) -> u64 {
    at.as_nanos() >> L1_SHIFT
}

fn occ_set(occ: &mut [u64; SLOTS / 64], idx: usize) {
    occ[idx / 64] |= 1 << (idx % 64);
}

fn occ_clear(occ: &mut [u64; SLOTS / 64], idx: usize) {
    occ[idx / 64] &= !(1 << (idx % 64));
}

/// First occupied index at wrapped offsets `1..SLOTS` from `from`, as
/// that offset; `None` if the level is empty. The bit at `from` itself
/// is always clear (the active slot drains into the bucket, and window
/// bounds keep `from + SLOTS` out of the level), so a full wrapped scan
/// starting at `from` never yields offset 0.
fn occ_next(occ: &[u64; SLOTS / 64], from: usize) -> Option<u64> {
    const WORDS: usize = SLOTS / 64;
    let (w0, b0) = (from / 64, from % 64);
    for k in 0..=WORDS {
        let wi = (w0 + k) % WORDS;
        let mut word = occ[wi];
        if k == 0 {
            word &= !0u64 << b0; // only bits at or above `from`
        } else if k == WORDS {
            word &= !(!0u64 << b0); // the wrapped remainder below `from`
        }
        if word != 0 {
            let idx = wi * 64 + word.trailing_zeros() as usize;
            let off = (idx + SLOTS - from) % SLOTS;
            debug_assert_ne!(off, 0, "active slot bit must be clear");
            return Some(off as u64);
        }
    }
    None
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue pre-sized for `cap` pending events.
    ///
    /// Simulations whose pending-event count has a knowable upper bound
    /// (e.g. one timer per component plus one completion per in-flight
    /// request) can pre-size once and keep the hot schedule/pop loop
    /// (nearly) allocation-free.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            cursor: 0,
            bucket: Vec::with_capacity(cap.min(1024)),
            l0: (0..SLOTS).map(|_| Vec::new()).collect(),
            l0_occ: [0; SLOTS / 64],
            l1: (0..SLOTS).map(|_| Vec::new()).collect(),
            l1_occ: [0; SLOTS / 64],
            far: BinaryHeap::new(),
            len: 0,
            seq: 0,
        }
    }

    /// Number of events the queue can hold without reallocating its main
    /// storage (the drain bucket + far heap; the slot lists grow
    /// independently on demand).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.bucket.capacity() + self.far.capacity()
    }

    /// Schedules `payload` to fire at instant `at`, returning the FIFO
    /// tie-break seq assigned to it (callers tracking the queue's front
    /// key can min-update their cache without a peek).
    pub fn schedule(&mut self, at: SimTime, payload: E) -> u64 {
        let seq = self.alloc_seq();
        self.len += 1;
        self.place(Entry { at, seq, payload });
        seq
    }

    /// Claims the next FIFO tie-break sequence number without
    /// scheduling anything.
    ///
    /// Engines that keep some event classes *outside* the queue (e.g. a
    /// tournament merge over per-source frontiers) draw their keys from
    /// here so queue events and merged events share one total
    /// `(time, seq)` order.
    pub fn alloc_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_keyed().map(|(at, _, payload)| (at, payload))
    }

    /// Removes and returns the earliest event together with its FIFO
    /// tie-break sequence number (the queue's total order is
    /// `(time, seq)`). See [`EventQueue::alloc_seq`] for how external
    /// event sources join that order.
    pub fn pop_keyed(&mut self) -> Option<(SimTime, u64, E)> {
        self.peek_key()?;
        let e = self.bucket.pop().expect("settled wheel has a front event");
        self.len -= 1;
        Some((e.at, e.seq, e.payload))
    }

    /// The full `(time, seq)` key of the earliest pending event, without
    /// removing it.
    ///
    /// Takes `&mut self` because it advances the wheel's levels until
    /// the earliest pending event sits at the back of the drain bucket
    /// (storage movement only — the pop sequence is unaffected, so
    /// peeking is unobservable). The cursor moves to the front's slot
    /// however far away it is; external-frontier merges, which only
    /// need the front when it can beat their own candidates, use
    /// [`EventQueue::peek_key_within`] instead.
    pub fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        self.peek_key_within(SimTime::MAX).ok()
    }

    /// The earliest pending event's key if it lies in `limit`'s slot or
    /// earlier; otherwise `Err(lb)`, where `lb > limit` and every
    /// pending event is at or after `lb` (`SimTime::MAX` for an empty
    /// queue).
    ///
    /// The cursor never moves past `limit`'s slot. On `Err` it catches
    /// up to that slot, so events scheduled near `limit` later still
    /// land in level-0 slots. An unbounded peek instead jumps the
    /// cursor to the front however far away it is, and every event
    /// scheduled behind a jumped cursor is sorted-inserted into the
    /// drain bucket. An engine that merges the queue with other sources
    /// passes their minimum as `limit`: a queue front beyond it cannot
    /// pop next anyway.
    pub fn peek_key_within(&mut self, limit: SimTime) -> Result<(SimTime, u64), SimTime> {
        let limit_slot = slot_of(limit);
        loop {
            if let Some(e) = self.bucket.last() {
                return if slot_of(e.at) <= limit_slot {
                    Ok(e.key())
                } else {
                    Err(e.at)
                };
            }
            let next0 = occ_next(&self.l0_occ, (self.cursor & SLOT_MASK) as usize)
                .map(|off| self.cursor + off);
            let cursor1 = self.cursor >> 8;
            let start1 = occ_next(&self.l1_occ, (cursor1 & SLOT_MASK) as usize)
                .map(|off| (cursor1 + off) << 8);
            // The earliest level-0 slot either level holds. An occupied
            // L1 slot must scatter before the L0 scan may advance into
            // (or past) its range, or its events would be skipped; ties
            // also scatter first.
            let (first, from_l1) = match (next0, start1) {
                (Some(s0), Some(s1)) if s1 <= s0 => (Some(s1), true),
                (None, Some(s1)) => (Some(s1), true),
                (s0, _) => (s0, false),
            };
            let lb = match first {
                Some(slot) if slot <= limit_slot => {
                    if from_l1 {
                        self.scatter_l1(slot >> 8);
                    } else {
                        self.advance_cursor(slot);
                        self.load_bucket(slot);
                    }
                    continue;
                }
                Some(slot) => SimTime::from_nanos(slot << SLOT_SHIFT),
                None => match self.far.peek() {
                    None => return Err(SimTime::MAX),
                    Some(e) if slot_of(e.at) <= limit_slot => {
                        // advance_cursor re-files every newly eligible
                        // far timer (at least the minimum); loop to
                        // drain it.
                        self.advance_cursor(slot_of(e.at));
                        continue;
                    }
                    Some(e) => e.at,
                },
            };
            // Nothing at or before `limit`'s slot: every level's next
            // occupant lies beyond it, so the cursor may stand there.
            if self.cursor < limit_slot {
                self.advance_cursor(limit_slot);
            }
            return Err(lb);
        }
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all pending events and resets the queue to a clean
    /// deterministic state: the FIFO tie-break counter restarts at 0 and
    /// the cursor rewinds to the time origin, so a reused queue behaves
    /// exactly like a freshly built one. Allocated storage is kept for
    /// reuse; see [`EventQueue::reset`] to also drop it.
    pub fn clear(&mut self) {
        self.cursor = 0;
        self.bucket.clear();
        for v in &mut self.l0 {
            v.clear();
        }
        self.l0_occ = [0; SLOTS / 64];
        for v in &mut self.l1 {
            v.clear();
        }
        self.l1_occ = [0; SLOTS / 64];
        self.far.clear();
        self.len = 0;
        self.seq = 0;
    }

    /// Rebuilds the queue from scratch: like [`EventQueue::clear`], but
    /// also discards all retained storage. Use when recycling a queue
    /// across simulations of very different sizes.
    pub fn reset(&mut self) {
        *self = Self::new();
    }

    /// Files one entry into the level its slot falls in, relative to the
    /// current cursor. Never moves the cursor.
    fn place(&mut self, e: Entry<E>) {
        let slot = slot_of(e.at);
        if slot <= self.cursor {
            // At or before the active instant (e.g. an event scheduled
            // for "now" from inside a handler): ordered insert into the
            // draining bucket, which is sorted descending by (at, seq).
            let pos = self
                .bucket
                .binary_search_by_key(&Reverse(e.key()), |p| Reverse(p.key()))
                .unwrap_err();
            self.bucket.insert(pos, e);
        } else if slot < self.cursor + SLOTS as u64 {
            let idx = (slot & SLOT_MASK) as usize;
            self.l0[idx].push(e);
            occ_set(&mut self.l0_occ, idx);
        } else {
            let s1 = l1_slot_of(e.at);
            let cursor1 = self.cursor >> 8;
            if s1 < cursor1 + SLOTS as u64 {
                let idx = (s1 & SLOT_MASK) as usize;
                self.l1[idx].push(e);
                occ_set(&mut self.l1_occ, idx);
            } else {
                self.far.push(e);
            }
        }
    }

    /// Moves the cursor forward, re-filing far timers that the larger
    /// `cursor1` window now admits (wheel invariant 4).
    fn advance_cursor(&mut self, new_cursor: u64) {
        debug_assert!(new_cursor >= self.cursor);
        self.cursor = new_cursor;
        let cursor1 = self.cursor >> 8;
        while let Some(top) = self.far.peek() {
            if l1_slot_of(top.at) < cursor1 + SLOTS as u64 {
                let e = self.far.pop().expect("peeked entry exists");
                self.place(e);
            } else {
                break;
            }
        }
    }

    /// Entries in the drain bucket (what `place` binary-search inserts
    /// into when an event lands at or before the cursor).
    #[cfg(test)]
    fn bucket_len(&self) -> usize {
        self.bucket.len()
    }

    /// Loads L0 slot `slot` (== the new cursor) into the drain bucket.
    fn load_bucket(&mut self, slot: u64) {
        let idx = (slot & SLOT_MASK) as usize;
        occ_clear(&mut self.l0_occ, idx);
        // append + sort keeps both the slot's and the bucket's allocation.
        let slot_vec = &mut self.l0[idx];
        self.bucket.append(slot_vec);
        // Descending by (at, seq): unique keys, so unstable sort is exact.
        self.bucket.sort_unstable_by_key(|e| Reverse((e.at, e.seq)));
    }

    /// Scatters L1 slot `s1` down into L0 after jumping the cursor to
    /// the start of its range.
    fn scatter_l1(&mut self, s1: u64) {
        self.advance_cursor(s1 << 8);
        // L0 may already hold events at exactly the boundary slot the
        // cursor just landed on (`next0 == s1 << 8`); fold them into the
        // bucket first so `place` below can't file around them.
        self.load_bucket(self.cursor);
        let idx = (s1 & SLOT_MASK) as usize;
        occ_clear(&mut self.l1_occ, idx);
        let mut pending = std::mem::take(&mut self.l1[idx]);
        for e in pending.drain(..) {
            self.place(e);
        }
        // Hand the emptied Vec back so the slot keeps its capacity.
        self.l1[idx] = pending;
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimDuration;
    use proptest::prelude::*;

    #[test]
    fn with_capacity_pre_sizes_without_growth() {
        let mut q = EventQueue::<u64>::with_capacity(64);
        let cap = q.capacity();
        assert!(cap >= 64);
        for i in 0..64u64 {
            q.schedule(SimTime::from_nanos(i), i);
        }
        assert_eq!(
            q.capacity(),
            cap,
            "no reallocation within the pre-sized bound"
        );
        assert_eq!(q.len(), 64);
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(30), 3);
        q.schedule(SimTime::from_nanos(10), 1);
        q.schedule(SimTime::from_nanos(20), 2);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(10), 1)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(20), 2)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime::from_nanos(7), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(42), ());
        assert_eq!(q.peek_key(), Some((SimTime::from_nanos(42), 0)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn peek_sees_far_timers_and_l1() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), 'f'); // far heap
        q.schedule(SimTime::from_millis(3), 'm'); // L1 range
        q.schedule(SimTime::from_micros(9), 'n'); // L0 range
        for (at, seq, ev) in [
            (SimTime::from_micros(9), 2, 'n'),
            (SimTime::from_millis(3), 1, 'm'),
            (SimTime::from_secs(5), 0, 'f'),
        ] {
            assert_eq!(q.peek_key(), Some((at, seq)));
            assert_eq!(q.pop(), Some((at, ev)));
        }
        assert_eq!(q.peek_key(), None);
    }

    #[test]
    fn clear_empties_queue_and_resets_fifo_seq() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(1), 1);
        q.schedule(SimTime::from_nanos(2), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.seq, 0, "clear() must rewind the tie-break counter");
        // A reused queue behaves exactly like a fresh one.
        q.schedule(SimTime::from_nanos(7), 10);
        q.schedule(SimTime::from_nanos(7), 11);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(7), 10)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(7), 11)));
    }

    #[test]
    fn reset_rebuilds_pristine_state() {
        let mut q = EventQueue::with_capacity(512);
        for i in 0..1000u64 {
            q.schedule(SimTime::from_micros(i * 37), i);
        }
        for _ in 0..500 {
            q.pop();
        }
        q.reset();
        assert!(q.is_empty());
        assert_eq!(q.seq, 0);
        q.schedule(SimTime::from_nanos(3), 99);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(3), 99)));
    }

    #[test]
    fn interleaved_schedule_and_pop_stay_ordered() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(5), 'a');
        q.schedule(SimTime::from_nanos(15), 'c');
        assert_eq!(q.pop().unwrap().1, 'a');
        q.schedule(SimTime::from_nanos(10), 'b');
        assert_eq!(q.pop().unwrap().1, 'b');
        assert_eq!(q.pop().unwrap().1, 'c');
    }

    #[test]
    fn bounded_peek_stops_at_the_limit() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_key_within(SimTime::MAX), Err(SimTime::MAX));
        q.schedule(SimTime::from_millis(40), 'f');
        let limit = SimTime::from_micros(10);
        let lb = q.peek_key_within(limit).unwrap_err();
        assert!(limit < lb && lb <= SimTime::from_millis(40));
        assert_eq!(q.cursor, slot_of(limit), "cursor catches up to the limit");
        q.schedule(SimTime::from_micros(12), 'n');
        assert_eq!(
            q.peek_key_within(SimTime::from_micros(12)),
            Ok((SimTime::from_micros(12), 1))
        );
        assert_eq!(q.pop(), Some((SimTime::from_micros(12), 'n')));
        assert_eq!(
            q.peek_key_within(SimTime::MAX),
            Ok((SimTime::from_millis(40), 0))
        );
    }

    /// The 7-SSD pathology: one far timer plus ~300 pending near events
    /// churned under an advancing clock. A merging engine peeks with
    /// the other sources' minimum as the limit; the cursor then never
    /// passes the clock, so no near event is scheduled at or behind it
    /// and the drain bucket only ever holds the slot being drained.
    #[test]
    fn far_timer_never_pulls_near_events_into_the_drain_bucket() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(50), u64::MAX);
        let mut now = SimTime::ZERO;
        let mut rng = 0x2545_F491_4F6C_DD1Du64;
        let mut next_near = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            2_000 + rng % 100_000
        };
        for i in 0..300 {
            q.schedule(now + SimDuration::from_nanos(next_near()), i);
        }
        for i in 300..20_000u64 {
            // Another source's event sits just past the clock, so the
            // queue front is only wanted up to it.
            let other = now + SimDuration::from_nanos(500);
            match q.peek_key_within(other) {
                Ok((at, _)) if at <= other => {
                    now = q.pop_keyed().unwrap().0;
                }
                _ => now = other,
            }
            let before = q.bucket_len();
            q.schedule(now + SimDuration::from_nanos(next_near()), i);
            assert_eq!(
                q.bucket_len(),
                before,
                "sorted insert into the drain bucket"
            );
            assert!(q.cursor <= slot_of(now), "cursor ran ahead of the clock");
        }
        assert!(now < SimTime::from_millis(50), "the far timer stayed far");
    }

    #[test]
    fn same_instant_reschedule_from_handler_pops_after_pending() {
        // An event scheduled for "now" while draining that instant must
        // pop after events already pending at the same instant.
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(50);
        q.schedule(t, 0);
        q.schedule(t, 1);
        assert_eq!(q.pop(), Some((t, 0)));
        q.schedule(t, 2); // "handler" re-arms at the same instant
        assert_eq!(q.pop(), Some((t, 1)));
        assert_eq!(q.pop(), Some((t, 2)));
    }

    /// The reference model: a plain binary heap over `(time, seq)`
    /// keys, with the same sequence counter as [`EventQueue`].
    #[derive(Default)]
    struct HeapQueue {
        heap: BinaryHeap<Reverse<(SimTime, u64, u64)>>,
        seq: u64,
    }

    impl HeapQueue {
        fn schedule(&mut self, at: SimTime, payload: u64) -> u64 {
            let seq = self.alloc_seq();
            self.heap.push(Reverse((at, seq, payload)));
            seq
        }

        fn alloc_seq(&mut self) -> u64 {
            self.seq += 1;
            self.seq - 1
        }

        fn pop_keyed(&mut self) -> Option<(SimTime, u64, u64)> {
            self.heap.pop().map(|Reverse(e)| e)
        }

        fn peek_key(&self) -> Option<(SimTime, u64)> {
            self.heap.peek().map(|&Reverse((at, seq, _))| (at, seq))
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// Schedule an event this many nanoseconds after the last pop.
        Schedule(u64),
        /// Pop up to this many events (long drains let time leap and
        /// force L1 scatters and far-heap re-filing).
        Pop(u64),
        /// Claim a seq without scheduling (an external event source).
        AllocSeq,
        /// Settle the wheel through `peek_key` (storage movement only).
        PeekKey,
        /// Bounded peek with the limit this many nanoseconds after the
        /// last pop.
        PeekWithin(u64),
    }

    /// Op mix: ~56 % schedules (mostly near, some L1 and far), ~37 %
    /// single pops, and rare long drains, so the pending set grows
    /// slowly and the cursor sweeps many L1 windows in one sequence.
    fn op() -> impl Strategy<Value = Op> {
        (0u64..=u64::MAX).prop_map(|r| {
            let v = r / 100;
            match r % 100 {
                0..=5 => Op::Schedule(0),                          // exactly "now"
                6..=15 => Op::Schedule(v % 4 * 1_000),             // tie-heavy near
                16..=35 => Op::Schedule(v % 200_000),              // L0 range
                36..=45 => Op::Schedule(300_000 + v % 50_000_000), // L1 range
                46..=50 => Op::Schedule(v % 200_000_000),          // L1 edge / far
                51..=55 => Op::Schedule(v % 5_000_000_000),        // far timers
                56..=92 => Op::Pop(1),
                93 => Op::Pop(1 + v % 16),
                94..=95 => Op::AllocSeq,
                96 => Op::PeekKey,
                _ => Op::PeekWithin(v % [1_000, 300_000, 100_000_000][v as usize % 3]),
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The guarantee everything rests on: for arbitrary interleavings
        /// of schedules, pops and external seq claims — including
        /// same-instant ties, far timers, long quiet gaps, and re-arms at
        /// the current instant — the wheel pops the exact `(time, seq)`
        /// sequence the reference heap pops.
        #[test]
        fn wheel_matches_reference_heap(ops in proptest::collection::vec(op(), 1..20_000)) {
            let mut wheel = EventQueue::new();
            let mut heap = HeapQueue::default();
            let mut now = SimTime::ZERO;
            let mut payload = 0u64;
            for op in ops {
                match op {
                    Op::Schedule(offset) => {
                        let at = now + SimDuration::from_nanos(offset);
                        prop_assert_eq!(wheel.schedule(at, payload), heap.schedule(at, payload));
                        payload += 1;
                    }
                    Op::Pop(n) => {
                        for _ in 0..n {
                            let w = wheel.pop_keyed();
                            prop_assert_eq!(w, heap.pop_keyed(), "wheel diverged from heap");
                            match w {
                                Some((t, _, _)) => {
                                    prop_assert!(t >= now, "time went backwards");
                                    now = t;
                                }
                                None => break,
                            }
                        }
                    }
                    Op::AllocSeq => prop_assert_eq!(wheel.alloc_seq(), heap.alloc_seq()),
                    Op::PeekKey => prop_assert_eq!(wheel.peek_key(), heap.peek_key()),
                    Op::PeekWithin(offset) => {
                        let limit = now + SimDuration::from_nanos(offset);
                        match (wheel.peek_key_within(limit), heap.peek_key()) {
                            (Ok(k), Some(front)) => {
                                prop_assert_eq!(k, front);
                                prop_assert!(slot_of(front.0) <= slot_of(limit));
                            }
                            (Err(lb), Some(front)) => {
                                prop_assert!(slot_of(front.0) > slot_of(limit));
                                prop_assert!(limit < lb && lb <= front.0, "bad bound {lb:?}");
                            }
                            (Err(lb), None) => prop_assert_eq!(lb, SimTime::MAX),
                            (Ok(k), None) => prop_assert!(false, "front {k:?} of an empty queue"),
                        }
                    }
                }
                prop_assert_eq!(wheel.len(), heap.heap.len());
            }
            loop {
                let w = wheel.pop_keyed();
                prop_assert_eq!(w, heap.pop_keyed(), "drain diverged");
                if w.is_none() {
                    break;
                }
            }
        }
    }
}
