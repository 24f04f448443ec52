//! Hierarchical timer wheel — the O(1) event queue behind the engine.
//!
//! Eleven levels of 64 slots each cover the full `u64` microsecond
//! range: a slot at level `l` spans `64^l` ticks, so an event lands at
//! the lowest level whose slot span still separates it from the wheel's
//! cursor (`level_for`, the hashed-wheel trick of taking the highest
//! bit where `elapsed ^ when` differ). Scheduling is an append to the
//! slot's list plus one bitmask OR; advancing skips empty slots with
//! `trailing_zeros` on the per-level occupancy masks instead of walking
//! ticks one by one.
//!
//! ## Exact heap equivalence
//!
//! The wheel must dispatch in exactly the order the binary-heap oracle
//! ([`crate::queue::EventQueue`]) does: ascending `(time, seq)`, where
//! `seq` is the engine-assigned insertion sequence carried on every
//! push. Two properties make that hold:
//!
//! * a level-0 slot spans exactly one tick, so every item in a fired
//!   slot shares one timestamp and a sort by `seq` restores sequence
//!   order — necessary because cascades can append an early-scheduled
//!   item after a late-scheduled one;
//! * among equal deadlines, higher levels are processed (cascaded)
//!   first, so items trickle down into the level-0 slot before it
//!   fires and same-tick events are never split across two firings.
//!
//! The heap is kept as the wheel's test reference: a proptest here
//! drives both through random interleavings of pushes (at the tick
//! being dispatched, far in the future, and within a few slot spans of
//! `u64::MAX` on every level — the top-level shift arithmetic flirts
//! with the 64-bit boundary, so it is computed in `u128`), bursts of
//! more than three chunks into one tick or one coarse slot, peeks and
//! pops at random horizons, and cursor-free hints, and requires
//! identical answers. The unit tests cover the wheel's own edges
//! (far-future times, same-tick ties, re-entrant pushes, chunk reuse).
//!
//! ## Memory: the events in flight
//!
//! As in Varghese & Lauck's hashed hierarchical wheel (SOSP '87), a
//! slot is a list: here a chain of fixed-size chunks of `CHUNK` items,
//! linked by index. Every slot draws its chunks from one LIFO free list
//! that the wheel owns; firing or cascading a slot drains each chunk and
//! returns it. So the wheel holds the peak number of events in flight
//! plus at most one partial chunk per non-empty slot, and allocates only
//! when it needs more chunks than it has ever held at once. A slot that
//! kept a growable array's capacity after draining would instead hold
//! the largest burst it ever took: a flood storm would leave a multi-MiB
//! buffer in every 4 ms level-2 slot it passed through, and grow a fresh
//! one in the next. The firing buffer is a reused `VecDeque`. The unit
//! tests count chunks: a second burst reuses the first one's, and a
//! drained wheel has every chunk on the free list.

use crate::queue::Event;
use crate::time::SimTime;
use std::collections::VecDeque;

const SLOT_BITS: u32 = 6;
const SLOTS: usize = 1 << SLOT_BITS; // 64
const SLOT_MASK: u64 = (SLOTS - 1) as u64;
/// 11 × 6 = 66 bits ≥ the 64-bit time range.
const LEVELS: usize = 11;

struct WheelItem {
    time: SimTime,
    seq: u64,
    event: Event,
}

/// Items per chunk: 32 × 48 bytes, 1.5 KiB. The smallest size at which
/// allocating chunks adds under 1 % to the allocation calls of a
/// 3,000-host flood storm; larger ones leave more of each slot's tail
/// chunk unused (sizes 16 to 128 are measured in docs/PERF.md).
const CHUNK: usize = 32;
/// End of a chunk chain: an empty slot's head and tail, the last
/// chunk's `next`, an empty free list.
const NIL: usize = usize::MAX;

/// A fixed-size run of a slot's items, linked to the slot's next one.
/// `items` is allocated at `CHUNK` capacity and never grows.
struct Chunk {
    items: Vec<WheelItem>,
    next: usize,
}

/// A slot's chain of chunks, oldest first; every chunk but the tail is
/// full.
#[derive(Clone, Copy)]
struct Slot {
    head: usize,
    tail: usize,
}

const EMPTY: Slot = Slot {
    head: NIL,
    tail: NIL,
};

struct Level {
    /// Bit `s` set ⇔ slot `s` is non-empty.
    occupied: u64,
    slots: [Slot; SLOTS],
}

/// Level an event at `when` belongs to, seen from cursor `elapsed`:
/// index of the highest 6-bit group where the two differ (0 if they
/// agree everywhere above the low 6 bits).
#[inline]
fn level_for(elapsed: u64, when: u64) -> usize {
    let masked = (elapsed ^ when) | SLOT_MASK;
    let hi = 63 - masked.leading_zeros();
    (hi / SLOT_BITS) as usize
}

#[inline]
fn slot_of(when: u64, level: usize) -> usize {
    ((when >> (SLOT_BITS as usize * level)) & SLOT_MASK) as usize
}

/// The timer wheel. Same contract as [`crate::queue::EventQueue`]:
/// `push_seq` anywhere at or after the last popped time, `pop_due_seq`
/// yields strictly `(time, seq)`-ascending events up to a horizon.
pub(crate) struct TimerWheel {
    levels: Vec<Level>,
    /// Cursor: every event before this tick has been popped.
    elapsed: u64,
    /// Events currently stored (wheel + firing buffer).
    len: usize,
    /// The tick currently being dispatched, sorted by `seq`.
    firing: VecDeque<WheelItem>,
    /// Every chunk ever allocated, each in one slot's chain or on the
    /// free list.
    chunks: Vec<Chunk>,
    /// Head of the LIFO free list, chained through `Chunk::next`.
    free: usize,
}

impl TimerWheel {
    pub(crate) fn new() -> Self {
        TimerWheel {
            levels: (0..LEVELS)
                .map(|_| Level {
                    occupied: 0,
                    slots: [EMPTY; SLOTS],
                })
                .collect(),
            elapsed: 0,
            len: 0,
            firing: VecDeque::new(),
            chunks: Vec::new(),
            free: NIL,
        }
    }

    pub(crate) fn push_seq(&mut self, time: SimTime, seq: u64, event: Event) {
        // The engine never schedules into the past (`time >= now`, and
        // the cursor only advances to dispatched times). Checked in
        // every profile: a slot behind the cursor would fire a whole
        // wheel rotation late, and clamping it to "now" would reorder
        // the universe just as silently.
        assert!(
            time.0 >= self.elapsed,
            "event scheduled into the past: (time {time:?}, seq {seq}, node {:?}) behind wheel cursor {}",
            event.owner_node(),
            self.elapsed
        );
        self.insert(WheelItem { time, seq, event });
        self.len += 1;
    }

    /// Append to the slot's tail chunk, or link a chunk from the free
    /// list (allocating one only when the free list is empty).
    fn insert(&mut self, item: WheelItem) {
        let level = level_for(self.elapsed, item.time.0);
        let s = slot_of(item.time.0, level);
        let lvl = &mut self.levels[level];
        lvl.occupied |= 1 << s;
        let slot = &mut lvl.slots[s];
        if slot.tail != NIL {
            let tail = &mut self.chunks[slot.tail];
            if tail.items.len() < CHUNK {
                tail.items.push(item);
                return;
            }
        }
        let c = if self.free == NIL {
            self.chunks.push(Chunk {
                items: Vec::with_capacity(CHUNK),
                next: NIL,
            });
            self.chunks.len() - 1
        } else {
            let c = self.free;
            self.free = std::mem::replace(&mut self.chunks[c].next, NIL);
            c
        };
        self.chunks[c].items.push(item);
        match slot.tail {
            NIL => slot.head = c,
            tail => self.chunks[tail].next = c,
        }
        slot.tail = c;
    }

    /// Earliest `(deadline, level)` across all levels, preferring the
    /// highest level on a deadline tie so cascades run before the
    /// level-0 slot they feed is fired.
    fn next_expiration(&self) -> Option<(u64, usize)> {
        let mut best: Option<(u64, usize)> = None;
        for (level, lvl) in self.levels.iter().enumerate() {
            if lvl.occupied == 0 {
                continue;
            }
            let cursor = slot_of(self.elapsed, level) as u32;
            let dist = lvl.occupied.rotate_right(cursor).trailing_zeros() as u64;
            // Slots strictly behind the cursor can't be occupied: an
            // event whose slot index already passed would differ from
            // `elapsed` in a higher bit group and live on a higher
            // level.
            debug_assert!(cursor as u64 + dist < SLOTS as u64, "slot behind cursor");
            let slot = cursor as u64 + dist;
            // The slot-base arithmetic runs against the top of the u64
            // range: at the top level the "bits above this level" shift
            // is ≥ 64 (guarded to 0), and `slot << 60` overflows u64 for
            // slot ≥ 16 — which valid contents never produce, but a
            // silent wrap here would fire a far-future event *early*
            // and corrupt the dispatch order. Compute in u128 and
            // saturate so the boundary is explicit.
            let shift = SLOT_BITS as usize * (level + 1);
            let high = if shift >= 64 {
                0
            } else {
                (self.elapsed >> shift) << shift
            };
            let wide = (high as u128) + ((slot as u128) << (SLOT_BITS as usize * level));
            debug_assert!(wide <= u64::MAX as u128, "deadline past u64::MAX");
            let deadline = u64::try_from(wide).unwrap_or(u64::MAX);
            let better = match best {
                None => true,
                // Higher level first on ties: those items still need to
                // cascade down before the tick can fire completely.
                Some((d, l)) => deadline < d || (deadline == d && level > l),
            };
            if better {
                best = Some((deadline, level));
            }
        }
        best
    }

    /// Advance cascades until the firing buffer holds the next due tick
    /// (or prove nothing is due). True ⇔ the front of `firing` is an
    /// event with `time <= until`.
    fn prime(&mut self, until: SimTime) -> bool {
        loop {
            if let Some(front) = self.firing.front() {
                return front.time <= until;
            }
            // "Anything else at the cursor's own tick?" (every tick
            // loop's last question) needs no scan: the tick fired whole,
            // so only a later push can be due, in its own level-0 slot.
            let own_slot = 1 << slot_of(self.elapsed, 0);
            if until.0 == self.elapsed && self.levels[0].occupied & own_slot == 0 {
                return false;
            }
            let Some((deadline, level)) = self.next_expiration() else {
                return false;
            };
            if deadline > until.0 {
                return false;
            }
            // Advance, never retreat: a level>0 slot's start can sit at
            // or before the cursor when its slot index equals the
            // cursor's.
            self.elapsed = self.elapsed.max(deadline);
            let cursor_slot = slot_of(deadline, level);
            let lvl = &mut self.levels[level];
            lvl.occupied &= !(1 << cursor_slot);
            let mut c = std::mem::replace(&mut lvl.slots[cursor_slot], EMPTY).head;
            debug_assert!(level > 0 || self.firing.is_empty());
            // Drain the chain chunk by chunk, each back to the free list
            // once empty: a level-0 slot into the firing buffer, a coarse
            // one down a level (or several).
            while c != NIL {
                let chunk = &mut self.chunks[c];
                let next = chunk.next;
                let mut items = std::mem::take(&mut chunk.items);
                if level == 0 {
                    self.firing.extend(items.drain(..));
                } else {
                    for item in items.drain(..) {
                        debug_assert!(item.time.0 >= self.elapsed);
                        self.insert(item);
                    }
                }
                let chunk = &mut self.chunks[c];
                chunk.items = items;
                chunk.next = self.free;
                self.free = c;
                c = next;
            }
            if level == 0 {
                // One tick's worth of events: restore sequence order.
                self.firing
                    .make_contiguous()
                    .sort_unstable_by_key(|i| i.seq);
                debug_assert!(self.firing.iter().all(|i| i.time.0 == deadline));
            }
        }
    }

    /// Pop the next event if it is due at or before `until`. Identical
    /// observable behavior to the heap's `pop_due_seq`.
    pub(crate) fn pop_due_seq(&mut self, until: SimTime) -> Option<(SimTime, u64, Event)> {
        if !self.prime(until) {
            return None;
        }
        let item = self.firing.pop_front().expect("primed");
        self.len -= 1;
        Some((item.time, item.seq, item.event))
    }

    /// A lower bound on the earliest stored event's time: exact when a
    /// tick already sits in the firing buffer, otherwise the earliest
    /// occupied slot's base time. Unlike [`TimerWheel::peek_due`], this
    /// never cascades — the cursor does not move, so nothing commits
    /// the wheel past times that a concurrent shard may still schedule
    /// into (the sharded executor's epoch picker depends on this).
    pub(crate) fn next_time_hint(&self) -> Option<SimTime> {
        if let Some(front) = self.firing.front() {
            return Some(front.time);
        }
        self.next_expiration()
            .map(|(d, _)| SimTime(d.max(self.elapsed)))
    }

    /// `(time, seq)` of the next due event without consuming it. The
    /// cascades this may run are the same ones `pop_due_seq` would run —
    /// internal cursor motion, observably a no-op.
    pub(crate) fn peek_due(&mut self, until: SimTime) -> Option<(SimTime, u64)> {
        if !self.prime(until) {
            return None;
        }
        let front = self.firing.front().expect("primed");
        Some((front.time, front.seq))
    }

    /// Events currently queued (including a partially dispatched tick).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::NodeId;
    use crate::queue::EventQueue;
    use proptest::prelude::*;

    fn start(n: usize) -> Event {
        Event::Start(NodeId(n))
    }

    /// Push helper carrying its own monotone sequence, like the engine.
    struct Pusher {
        seq: u64,
    }

    impl Pusher {
        fn new() -> Self {
            Pusher { seq: 0 }
        }
        fn push(&mut self, w: &mut TimerWheel, t: u64, n: usize) {
            w.push_seq(SimTime(t), self.seq, start(n));
            self.seq += 1;
        }
    }

    fn drain(w: &mut TimerWheel, until: SimTime) -> Vec<(u64, usize)> {
        std::iter::from_fn(|| w.pop_due_seq(until))
            .map(|(t, _, e)| match e {
                Event::Start(NodeId(n)) => (t.0, n),
                _ => unreachable!(),
            })
            .collect()
    }

    #[test]
    fn orders_by_time_then_seq() {
        let mut w = TimerWheel::new();
        let mut p = Pusher::new();
        p.push(&mut w, 5, 0);
        p.push(&mut w, 1, 1);
        p.push(&mut w, 1, 2);
        assert_eq!(
            drain(&mut w, SimTime(u64::MAX)),
            vec![(1, 1), (1, 2), (5, 0)]
        );
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn respects_horizon() {
        let mut w = TimerWheel::new();
        let mut p = Pusher::new();
        p.push(&mut w, 10, 0);
        assert!(w.pop_due_seq(SimTime(9)).is_none());
        assert!(w.pop_due_seq(SimTime(10)).is_some());
        assert!(w.pop_due_seq(SimTime(u64::MAX)).is_none());
    }

    #[test]
    fn peek_previews_pop_without_consuming() {
        let mut w = TimerWheel::new();
        let mut p = Pusher::new();
        p.push(&mut w, 70, 4);
        p.push(&mut w, 70, 9);
        assert_eq!(w.peek_due(SimTime(69)), None);
        assert_eq!(w.peek_due(SimTime(70)), Some((SimTime(70), 0)));
        assert_eq!(w.peek_due(SimTime(70)), Some((SimTime(70), 0)), "consumed");
        assert_eq!(w.len(), 2, "peek must not drop items");
        assert_eq!(drain(&mut w, SimTime(u64::MAX)), vec![(70, 4), (70, 9)]);
    }

    #[test]
    fn far_future_events_cascade_correctly() {
        let mut w = TimerWheel::new();
        let mut p = Pusher::new();
        // One event per level's range, plus two in the same far tick to
        // exercise seq ordering after a long cascade chain.
        let far = 1u64 << 40;
        p.push(&mut w, far, 0);
        p.push(&mut w, far, 1);
        p.push(&mut w, 64, 2);
        p.push(&mut w, 4096 + 3, 3);
        p.push(&mut w, 262_144 + 9, 4);
        assert_eq!(
            drain(&mut w, SimTime(u64::MAX)),
            vec![(64, 2), (4096 + 3, 3), (262_144 + 9, 4), (far, 0), (far, 1)]
        );
    }

    #[test]
    fn same_tick_push_during_dispatch_fires_after() {
        let mut w = TimerWheel::new();
        let mut p = Pusher::new();
        p.push(&mut w, 7, 0);
        p.push(&mut w, 7, 1);
        let (t, _, _) = w.pop_due_seq(SimTime(u64::MAX)).expect("first");
        assert_eq!(t, SimTime(7));
        // Mid-tick push at the tick being dispatched (delay-0 timer).
        p.push(&mut w, 7, 2);
        assert_eq!(drain(&mut w, SimTime(u64::MAX)), vec![(7, 1), (7, 2)]);
    }

    #[test]
    fn interleaves_pushes_and_pops_across_rotations() {
        let mut w = TimerWheel::new();
        let mut p = Pusher::new();
        let mut fired = Vec::new();
        let mut t = 0u64;
        for round in 0..300u64 {
            p.push(&mut w, t + 1 + (round * 37) % 511, round as usize);
            while let Some((at, _, _)) = w.pop_due_seq(SimTime(t + 64)) {
                assert!(at.0 >= t, "time went backwards");
                t = at.0;
                fired.push(at.0);
            }
            t += 64;
        }
        let mut sorted = fired.clone();
        sorted.sort_unstable();
        assert_eq!(fired, sorted, "fire order must be time-ascending");
        fired.extend(drain(&mut w, SimTime(u64::MAX)).iter().map(|&(at, _)| at));
        assert_eq!(fired.len(), 300, "every scheduled event fired exactly once");
    }

    #[test]
    fn zero_time_and_max_horizon_edges() {
        let mut w = TimerWheel::new();
        let mut p = Pusher::new();
        p.push(&mut w, 0, 0);
        p.push(&mut w, u64::MAX - 1, 1);
        assert_eq!(
            w.pop_due_seq(SimTime(u64::MAX)).map(|(t, _, _)| t),
            Some(SimTime(0))
        );
        assert_eq!(
            w.pop_due_seq(SimTime(u64::MAX)).map(|(t, _, _)| t),
            Some(SimTime(u64::MAX - 1))
        );
    }

    #[test]
    fn u64_max_deadline_fires_exactly_once_at_the_end_of_time() {
        let mut w = TimerWheel::new();
        let mut p = Pusher::new();
        p.push(&mut w, u64::MAX, 0);
        p.push(&mut w, 5, 1);
        assert!(w.pop_due_seq(SimTime(u64::MAX - 1)).map(|(t, _, _)| t) == Some(SimTime(5)));
        assert!(w.pop_due_seq(SimTime(u64::MAX - 1)).is_none());
        assert_eq!(
            w.pop_due_seq(SimTime(u64::MAX)).map(|(t, _, _)| t),
            Some(SimTime(u64::MAX))
        );
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn near_max_deadlines_fire_in_order_through_every_level() {
        // One deadline a slot-span below u64::MAX per level: cascading
        // each one walks the top-level shift arithmetic right at the
        // 64-bit boundary (the regression this pins: a wrapped shift
        // would compute a tiny deadline and fire these out of order).
        let mut w = TimerWheel::new();
        let mut p = Pusher::new();
        let mut expect = Vec::new();
        for level in 0..LEVELS {
            let span = 1u128 << (SLOT_BITS as usize * level);
            let t = (u64::MAX as u128 - span) as u64;
            p.push(&mut w, t, level);
            expect.push((t, level));
        }
        p.push(&mut w, u64::MAX, LEVELS);
        expect.push((u64::MAX, LEVELS));
        expect.sort_unstable();
        assert_eq!(drain(&mut w, SimTime(u64::MAX)), expect);
    }

    /// Pushes in one burst: more than three chunks' worth.
    const BURST: usize = 3 * CHUNK + 1;

    /// Chunks on the free list.
    fn free_chunks(w: &TimerWheel) -> usize {
        std::iter::successors(Some(w.free).filter(|&c| c != NIL), |&c| {
            Some(w.chunks[c].next).filter(|&c| c != NIL)
        })
        .count()
    }

    #[test]
    fn drained_chunks_serve_the_next_burst() {
        let level2 = 1u64 << (2 * SLOT_BITS);
        let mut w = TimerWheel::new();
        let mut p = Pusher::new();
        // Two equal bursts, each filling one level-2 slot across several
        // level-1 slots and level-0 ticks.
        let burst = |w: &mut TimerWheel, p: &mut Pusher, slot: u64| {
            for i in 0..BURST {
                p.push(w, slot * level2 + (i as u64 * 97) % level2, i);
            }
        };
        burst(&mut w, &mut p, 1);
        assert_eq!(
            w.chunks.len(),
            BURST.div_ceil(CHUNK),
            "tail chunks are filled first"
        );
        assert_eq!(drain(&mut w, SimTime(2 * level2 - 1)).len(), BURST);
        let allocated = w.chunks.len();
        assert_eq!(
            free_chunks(&w),
            allocated,
            "fired chunks return to the free list"
        );

        burst(&mut w, &mut p, 3);
        assert_eq!(
            w.chunks.len(),
            allocated,
            "the second burst allocated a chunk"
        );
        assert_eq!(drain(&mut w, SimTime(u64::MAX)).len(), BURST);
        assert_eq!(
            w.chunks.len(),
            allocated,
            "the second drain allocated a chunk"
        );
        assert_eq!(free_chunks(&w), allocated);
    }

    #[test]
    fn empty_wheel_is_cheap_and_none() {
        let mut w = TimerWheel::new();
        assert!(w.pop_due_seq(SimTime(u64::MAX)).is_none());
        assert_eq!(w.len(), 0);
    }

    /// A push time for op `kind`, seen from `floor`: the tick being
    /// dispatched, a near tick, a far-future one, or a deadline a few
    /// slot spans of some level below `u64::MAX`.
    fn push_time(floor: u64, kind: u8, r: u64) -> u64 {
        match kind {
            0 => floor,
            1 => floor.saturating_add(r % 64),
            2 => floor.saturating_add(r % 100_000),
            3 => floor.saturating_add((1 << 30) + r % (1 << 50)),
            _ => {
                let span = 1u128 << (SLOT_BITS as usize * (r as usize % LEVELS));
                let below = (u128::from(r >> 58) * span).min(u128::from(u64::MAX));
                ((u128::from(u64::MAX) - below) as u64).max(floor)
            }
        }
    }

    /// A horizon for op `kind`: the tick being dispatched, one before
    /// it, or a near, mid or far step past it.
    fn horizon(floor: u64, kind: u8, r: u64) -> u64 {
        match kind {
            0 => floor,
            1 => floor.saturating_sub(1 + r % 64),
            2 => floor.saturating_add(r % 64),
            3 => floor.saturating_add(r % 100_000),
            _ => floor.saturating_add(r % (1 << 52)),
        }
    }

    /// The `i`-th push time of a burst seen from `floor`: all in one
    /// level-0 tick, or spread over one coarse slot of level 1 to 3.
    fn burst_time(floor: u64, kind: u8, r: u64, i: u64) -> u64 {
        if kind < 2 {
            return floor.saturating_add(r % 64);
        }
        let span = 1u64 << (SLOT_BITS as u64 * (1 + r % 3));
        let slot = (floor / span).saturating_add(1 + (r >> 8) % 8);
        slot.saturating_mul(span)
            .saturating_add((r >> 16).wrapping_add(i * 37) % span)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// The wheel against its reference, the binary heap, over random
        /// interleavings of pushes, bursts, peeks, pops and hints, then a
        /// drain to the end of time: every answer must be identical, and
        /// `next_time_hint` a lower bound on the heap's exact head that
        /// moves no cursor. Pushes never precede `floor`, the highest
        /// horizon asked so far — the wheel's cursor never passes it —
        /// so a push at `floor` is the engine's delay-0 timer set while
        /// its tick is dispatched. A burst fills several chunks of one
        /// slot, so cascades and the seq sort of a fired tick cross chunk
        /// boundaries; after the drain every chunk is free again.
        #[test]
        fn wheel_matches_heap_on_random_interleavings(
            ops in proptest::collection::vec((0u8..5, 0u8..5, any::<u64>()), 1..200),
        ) {
            let mut w = TimerWheel::new();
            let mut h = EventQueue::new();
            let (mut floor, mut seq) = (0u64, 0u64);
            let key = |(t, s, _): (SimTime, u64, Event)| (t, s);
            for &(op, kind, r) in &ops {
                match op {
                    0 => {
                        let t = SimTime(push_time(floor, kind, r));
                        w.push_seq(t, seq, start(seq as usize));
                        h.push_seq(t, seq, start(seq as usize));
                        seq += 1;
                    }
                    1 => {
                        let until = SimTime(horizon(floor, kind, r));
                        floor = floor.max(until.0);
                        prop_assert_eq!(w.peek_due(until), h.peek_due(until));
                    }
                    2 => {
                        let until = SimTime(horizon(floor, kind, r));
                        floor = floor.max(until.0);
                        prop_assert_eq!(w.pop_due_seq(until).map(key), h.pop_due_seq(until).map(key));
                    }
                    3 => {
                        let cursor = w.elapsed;
                        let hint = w.next_time_hint();
                        prop_assert!(w.elapsed == cursor, "the hint moved the cursor");
                        match (hint, h.peek_due(SimTime(u64::MAX))) {
                            (None, None) => {}
                            (Some(hint), Some((head, _))) => prop_assert!(hint <= head),
                            (hint, head) => prop_assert!(false, "hint {hint:?} vs head {head:?}"),
                        }
                    }
                    _ => {
                        for i in 0..BURST as u64 {
                            let t = SimTime(burst_time(floor, kind, r, i));
                            w.push_seq(t, seq, start(seq as usize));
                            h.push_seq(t, seq, start(seq as usize));
                            seq += 1;
                        }
                    }
                }
            }
            let end = SimTime(u64::MAX);
            let drained: Vec<_> = std::iter::from_fn(|| w.pop_due_seq(end)).map(key).collect();
            let reference: Vec<_> = std::iter::from_fn(|| h.pop_due_seq(end)).map(key).collect();
            prop_assert_eq!(drained, reference);
            prop_assert_eq!(w.len(), 0);
            prop_assert_eq!(free_chunks(&w), w.chunks.len());
        }
    }
}
