//! Event scheduling: the events, their binary-heap store, and timer
//! bookkeeping.
//!
//! The engine's event store is the hierarchical timer wheel
//! ([`crate::wheel`]). [`EventQueue`] — a binary heap ordered by
//! `(time, insertion sequence)` — has two jobs: it is the sharded
//! executor's in-window store (`Shard::in_window`, whose timers land
//! behind the wheel's cursor), and it is the reference the wheel is
//! tested against (`wheel.rs`'s differential proptest). Both dispatch
//! simultaneous events in `(time, seq)` order — the backbone of the
//! determinism contract.
//!
//! The insertion sequence is owned by the *engine*, not the queue:
//! every push carries an explicit `seq`. That is what lets the sharded
//! executor keep one global sequence stream across K per-shard queues —
//! an event's `(time, seq)` key is identical whichever queue physically
//! holds it, so the merged dispatch order is the single-threaded order
//! by construction.
//!
//! [`TimerTable`] tracks which timer handles are armed and which armed
//! handles have been cancelled. Both sets are bounded: a handle leaves
//! `pending` when its event pops, and `cancelled` only ever holds
//! handles that are still in flight — cancelling an already-fired timer
//! is dropped on the floor instead of lingering forever, so long runs
//! with heavy timer churn don't leak memory.

use crate::ctx::NodeId;
use crate::fxhash::FxHashSet;
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Everything the engine can dispatch.
pub(crate) enum Event {
    Start(NodeId),
    Deliver {
        to: NodeId,
        src: NodeId,
        bytes: Arc<Vec<u8>>,
    },
    Timer {
        node: NodeId,
        handle: u64,
        tag: u64,
    },
    LinkFailure {
        node: NodeId,
        to: NodeId,
        bytes: Arc<Vec<u8>>,
    },
    MobilityTick,
    Kill(NodeId),
}

impl Event {
    /// The node whose shard dispatches this event; `None` for the two
    /// with global effects, which only the engine itself can dispatch.
    pub(crate) fn owner_node(&self) -> Option<NodeId> {
        match self {
            Event::Start(n) => Some(*n),
            Event::Deliver { to, .. } => Some(*to),
            Event::Timer { node, .. } | Event::LinkFailure { node, .. } => Some(*node),
            Event::MobilityTick | Event::Kill(_) => None,
        }
    }
}

struct QueueItem {
    time: SimTime,
    seq: u64,
    event: Event,
}

impl PartialEq for QueueItem {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for QueueItem {}
impl PartialOrd for QueueItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueueItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// Min-heap of pending events keyed by `(time, seq)`.
pub(crate) struct EventQueue {
    heap: BinaryHeap<Reverse<QueueItem>>,
}

impl EventQueue {
    pub(crate) fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
        }
    }

    pub(crate) fn push_seq(&mut self, time: SimTime, seq: u64, event: Event) {
        self.heap.push(Reverse(QueueItem { time, seq, event }));
    }

    /// Pop the next event if it is due at or before `until`.
    pub(crate) fn pop_due_seq(&mut self, until: SimTime) -> Option<(SimTime, u64, Event)> {
        self.peek_due(until)?;
        let Reverse(item) = self.heap.pop()?;
        Some((item.time, item.seq, item.event))
    }

    pub(crate) fn peek_due(&mut self, until: SimTime) -> Option<(SimTime, u64)> {
        match self.heap.peek() {
            Some(Reverse(head)) if head.time <= until => Some((head.time, head.seq)),
            _ => None,
        }
    }
}

/// Armed-timer and cancellation bookkeeping (see module docs for the
/// boundedness invariant). Handle *allocation* lives with the node
/// (`NodeSlot::next_handle`, namespaced by node id) so both execution
/// modes and all shards draw from identical handle streams.
pub(crate) struct TimerTable {
    /// Handles armed and not yet popped from the event queue.
    pending: FxHashSet<u64>,
    /// Armed handles whose owners cancelled them before they fired.
    cancelled: FxHashSet<u64>,
}

impl TimerTable {
    pub(crate) fn new() -> Self {
        TimerTable {
            pending: FxHashSet::default(),
            cancelled: FxHashSet::default(),
        }
    }

    /// A timer event for `handle` was pushed onto the queue.
    pub(crate) fn arm(&mut self, handle: u64) {
        self.pending.insert(handle);
    }

    /// Cancel `handle`. Cancels of already-fired (or never-armed) handles
    /// are dropped immediately instead of being remembered.
    pub(crate) fn cancel(&mut self, handle: u64) {
        if self.pending.remove(&handle) {
            self.cancelled.insert(handle);
        }
    }

    /// The timer event for `handle` just popped: should it be delivered?
    /// Either way, all bookkeeping for the handle is released.
    pub(crate) fn should_fire(&mut self, handle: u64) -> bool {
        if self.cancelled.remove(&handle) {
            return false;
        }
        self.pending.remove(&handle)
    }

    /// Live cancellation entries (bounded-growth regression hook).
    #[cfg(test)]
    pub(crate) fn cancelled_len(&self) -> usize {
        self.cancelled.len()
    }

    /// Armed-and-unfired entries (bounded-growth regression hook).
    #[cfg(test)]
    pub(crate) fn pending_len(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_orders_by_time_then_seq() {
        let mut q = EventQueue::new();
        q.push_seq(SimTime(5), 0, Event::Start(NodeId(0)));
        q.push_seq(SimTime(1), 1, Event::Start(NodeId(1)));
        q.push_seq(SimTime(1), 2, Event::Start(NodeId(2)));
        let order: Vec<NodeId> = std::iter::from_fn(|| q.pop_due_seq(SimTime(u64::MAX)))
            .map(|(_, _, e)| match e {
                Event::Start(n) => n,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![NodeId(1), NodeId(2), NodeId(0)]);
    }

    #[test]
    fn seq_breaks_ties_regardless_of_push_order() {
        // The engine owns the sequence stream; the queue must honor it
        // even when pushes arrive out of seq order (the sharded replay
        // path routes deferred events into queues in merge order, which
        // is not push order).
        let mut q = EventQueue::new();
        q.push_seq(SimTime(3), 9, Event::Start(NodeId(9)));
        q.push_seq(SimTime(3), 4, Event::Start(NodeId(4)));
        let first = q.pop_due_seq(SimTime(u64::MAX)).unwrap();
        assert_eq!(first.1, 4);
        assert_eq!(q.pop_due_seq(SimTime(u64::MAX)).unwrap().1, 9);
    }

    #[test]
    fn pop_due_respects_horizon() {
        let mut q = EventQueue::new();
        q.push_seq(SimTime(10), 0, Event::MobilityTick);
        assert!(q.pop_due_seq(SimTime(9)).is_none());
        assert!(q.pop_due_seq(SimTime(10)).is_some());
        assert!(q.pop_due_seq(SimTime(u64::MAX)).is_none());
    }

    #[test]
    fn peek_matches_pop_and_does_not_consume() {
        let mut q = EventQueue::new();
        q.push_seq(SimTime(7), 3, Event::MobilityTick);
        assert_eq!(q.peek_due(SimTime(6)), None);
        assert_eq!(q.peek_due(SimTime(7)), Some((SimTime(7), 3)));
        assert_eq!(
            q.peek_due(SimTime(7)),
            Some((SimTime(7), 3)),
            "peek consumed"
        );
        let (t, s, _) = q.pop_due_seq(SimTime(7)).unwrap();
        assert_eq!((t, s), (SimTime(7), 3));
    }

    #[test]
    fn cancel_before_fire_suppresses_and_releases() {
        let mut t = TimerTable::new();
        t.arm(1);
        t.cancel(1);
        assert!(!t.should_fire(1));
        assert_eq!(t.cancelled_len(), 0, "entry released on pop");
        assert_eq!(t.pending_len(), 0);
    }

    #[test]
    fn cancel_after_fire_does_not_leak() {
        let mut t = TimerTable::new();
        t.arm(7);
        assert!(t.should_fire(7));
        // The protocol cancels a timer that already fired — common when a
        // reply and its timeout race. Must not accumulate state.
        t.cancel(7);
        t.cancel(7);
        assert_eq!(t.cancelled_len(), 0);
        assert_eq!(t.pending_len(), 0);
    }

    #[test]
    fn duplicate_cancels_are_idempotent() {
        let mut t = TimerTable::new();
        t.arm(3);
        t.cancel(3);
        t.cancel(3);
        assert_eq!(t.cancelled_len(), 1);
        assert!(!t.should_fire(3));
        assert_eq!(t.cancelled_len(), 0);
    }

    #[test]
    fn unrelated_timers_are_untouched() {
        let mut t = TimerTable::new();
        t.arm(1);
        t.arm(2);
        t.cancel(1);
        assert!(!t.should_fire(1));
        assert!(t.should_fire(2));
        assert_eq!(t.pending_len(), 0);
        assert_eq!(t.cancelled_len(), 0);
    }
}
