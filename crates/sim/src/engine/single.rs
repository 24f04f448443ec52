//! The `Single` executor — the differential oracle: one queue, strictly
//! ascending `(time, seq)` pops, one tick at a time.

use super::Engine;
use crate::time::SimTime;

impl Engine {
    /// Each iteration is one tick: buffer the events due at the
    /// earliest pending time, (with a tick hook) prefetch its
    /// deliveries and run the hook, then dispatch the buffer in the
    /// order it was popped. Events a dispatch pushes back onto the same
    /// tick are *not* folded into the running buffer — they form the
    /// next iteration's batch, which `pop_due_seq`'s global
    /// `(time, seq)` minimum ordering makes identical to popping and
    /// dispatching one event at a time.
    pub(super) fn run_single(&mut self, until: SimTime) {
        while let Some((time, seq)) = self.shards[0].queue.peek_due(until) {
            assert!(
                time >= self.now,
                "event from the past: (time {time:?}, seq {seq}) behind now {:?}",
                self.now
            );
            self.now = time;
            self.shards[0].collect(time, self.tick_hook.is_some(), &self.hot, &self.local);
            if let Some(hook) = self.tick_hook.as_mut() {
                hook();
            }
            let mut tick = std::mem::take(&mut self.shards[0].batch);
            for (_, _, event) in tick.drain(..) {
                self.count_events(1);
                self.dispatch_serial(event, until);
            }
            self.shards[0].batch = tick;
        }
    }
}
