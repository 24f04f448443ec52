//! The `Sharded(K)` executor: the epoch picker, the per-shard window
//! routine, serially dispatched barrier ticks, and the replay merge
//! that turns K window logs back into the single-threaded universe.
//! Every event still goes through [`Shard::dispatch`]; what is
//! specific to this executor is *ordering* — which events may run
//! concurrently, and how their effects are sequenced afterwards.

use super::shard::{PushOp, Rec, Shard, Sink, WindowLog, PROV_BIT};
use super::Engine;
use crate::link::LinkEnv;
use crate::time::SimTime;
use crate::trace::TraceEvent;
use rayon::prelude::*;

impl Shard {
    /// Dispatch the window `collect` buffered, `[window start, w_last]`
    /// (concurrently with the other shards' windows; `env` is frozen
    /// until the next barrier), merged with the timers the dispatches
    /// themselves set inside this window (`in_window`, provisional
    /// sequences) in raw `(time, seq)` order. The batch holds only real
    /// sequences, and provisional sequences (bit 63 set) sort after
    /// every real sequence of the same tick — exactly where replay
    /// resolves them to — so this merge dispatches the window in the
    /// order the single-threaded loop pops it.
    fn run_window(&mut self, w_last: SimTime, w_end: SimTime, env: &LinkEnv<'_>, local: &[u32]) {
        let mut batch = std::mem::take(&mut self.batch);
        self.pops += batch.len() as u64;
        let mut buffered = batch.drain(..).peekable();
        loop {
            let next = buffered.peek().map(|&(time, seq, _)| (time, seq));
            let (time, seq, ev) = match self.in_window.peek_due(w_last) {
                Some(key) if next.is_none_or(|n| key < n) => {
                    self.pops += 1;
                    self.in_window.pop_due_seq(w_last).expect("peeked")
                }
                _ => match buffered.next() {
                    Some(event) => event,
                    None => break,
                },
            };
            self.dispatch(time, ev, env, local, Sink::Window { w_end, seq });
        }
        drop(buffered);
        self.batch = batch;
    }
}

impl Engine {
    /// The sharded executor's epoch loop: alternate conservative
    /// parallel windows with serially dispatched barrier ticks.
    pub(super) fn run_sharded(&mut self, until: SimTime) {
        let lookahead = self.cfg.radio.base_delay;
        loop {
            // Picking the next epoch must not commit any wheel cursor
            // past times other shards may still schedule into: a
            // `peek_due` cascades the wheel up to its answer, and once
            // the cursor has passed a tick, a cross-shard delivery
            // replayed at that tick would land "in the past" (which the
            // wheel refuses outright). So the global minimum is found
            // in two steps: a cursor-free lower bound `h` over every
            // queue, then real peeks bounded by `h + lookahead` — every
            // future push lands at ≥ t_min + lookahead ≥ h + lookahead,
            // so no cursor this bound moves can ever overtake one.
            let queues = self.shards.iter().map(|sh| &sh.queue);
            let hint = queues
                .chain([&self.barrier])
                .filter_map(|q| q.next_time_hint());
            let Some(h) = hint.min() else { break };
            if h > until {
                break;
            }
            let bound = SimTime(h.0.saturating_add(lookahead.0)).min(until);
            let barrier_next = self.barrier.peek_due(bound).map(|(t, _)| t);
            let shard_next = self
                .shards
                .iter_mut()
                .filter_map(|sh| sh.queue.peek_due(bound));
            let Some(t) = shard_next.map(|(t, _)| t).chain(barrier_next).min() else {
                // The hint was a coarse slot base with nothing actually
                // due by `bound`; the peeks cascaded the hinting wheel,
                // so the next round's hint is strictly tighter.
                continue;
            };
            assert!(
                t >= self.now,
                "event from the past: next epoch at {t:?} behind now {:?}",
                self.now
            );
            self.now = t;
            if barrier_next == Some(t) {
                self.dispatch_barrier_tick(t, until);
                continue;
            }
            // Half-open window [t, w_end): long enough that no send
            // inside it can land inside it, clipped to the next global
            // event, the peek horizon (past `bound` nothing has been
            // seen — a barrier event could hide there), and the run
            // horizon.
            let mut w_end = (t + lookahead)
                .min(SimTime(bound.0.saturating_add(1)))
                .min(SimTime(until.0.saturating_add(1)));
            if let Some(bt) = barrier_next {
                w_end = w_end.min(bt);
            }
            let w_last = SimTime(w_end.0 - 1);
            let env = LinkEnv {
                radio: &self.cfg.radio,
                hot: &self.hot,
                grid: &self.grid,
            };
            let local = &self.local[..];
            match self.tick_hook.as_mut() {
                // Collect + prefetch in parallel, drain the batch once
                // serially, then dispatch in parallel.
                Some(hook) => {
                    self.shards
                        .par_iter_mut()
                        .for_each(|sh| sh.collect(w_last, true, env.hot, local));
                    hook();
                    self.shards
                        .par_iter_mut()
                        .for_each(|sh| sh.run_window(w_last, w_end, &env, local));
                }
                // Nothing runs between the two halves: one fork-join.
                None => self.shards.par_iter_mut().for_each(|sh| {
                    sh.collect(w_last, false, env.hot, local);
                    sh.run_window(w_last, w_end, &env, local);
                }),
            }
            self.replay_window();
        }
    }

    /// Serially dispatch every event at tick `t`, merging the barrier
    /// queue and all shard queues in `seq` order — including events the
    /// dispatches themselves push back onto tick `t`.
    fn dispatch_barrier_tick(&mut self, t: SimTime, until: SimTime) {
        loop {
            // The queue (`None`: the barrier's) whose head has the
            // smallest sequence due at `t`.
            let barrier = self.barrier.peek_due(t).map(|(_, seq)| (seq, None));
            let shards = self.shards.iter_mut().enumerate();
            let heads = shards.filter_map(|(i, sh)| Some((sh.queue.peek_due(t)?.1, Some(i))));
            let Some((_, qi)) = heads.chain(barrier).min() else {
                break;
            };
            let queue = match qi {
                None => &mut self.barrier,
                Some(i) => &mut self.shards[i].queue,
            };
            let (time, seq, event) = queue.pop_due_seq(t).expect("peeked");
            // Everything before `t` belonged to an earlier window.
            assert!(
                time == t,
                "pre-window event missed: (time {time:?}, seq {seq}, node {:?}) still queued at \
                 barrier tick {t:?}",
                event.owner_node()
            );
            self.count_events(1);
            self.dispatch_serial(event, until);
        }
    }

    /// Serial epilogue of a parallel window: merge the per-shard logs
    /// in `(time, resolved seq)` order, moving trace lines and samples
    /// to the global collectors and assigning real sequence numbers to
    /// the deferred pushes — exactly the order the single-threaded loop
    /// would have produced.
    fn replay_window(&mut self) {
        let mut logs: Vec<(WindowLog, Vec<TraceEvent>)> = self
            .shards
            .iter_mut()
            .map(|s| {
                (
                    std::mem::take(&mut s.log),
                    std::mem::take(s.tracer.events_mut()),
                )
            })
            .collect();
        // Per shard, the next record to replay.
        let mut rec_cur = vec![0usize; logs.len()];
        let ends = |r: &Rec| [r.trace_end, r.sample_end, r.push_end];
        loop {
            // K-way merge head: the pending record with the smallest
            // (time, resolved seq). A provisional record's real seq is
            // already in prov_seq — its parent precedes it in the same
            // shard's stream, so it was replayed (and resolved) first.
            let mut best: Option<(SimTime, u64, usize)> = None;
            for (s, (log, _)) in logs.iter().enumerate() {
                let Some(rec) = log.recs.get(rec_cur[s]) else {
                    continue;
                };
                let rseq = if rec.seq & PROV_BIT != 0 {
                    log.prov_seq[(rec.seq & !PROV_BIT) as usize]
                } else {
                    rec.seq
                };
                if best.is_none_or(|(bt, bs, _)| (rec.time, rseq) < (bt, bs)) {
                    best = Some((rec.time, rseq, s));
                }
            }
            let Some((_, _, s)) = best else { break };
            let (log, trace) = &mut logs[s];
            // A record's log ranges start where its predecessor's ended.
            let prev = rec_cur[s].checked_sub(1).map(|p| &log.recs[p]);
            let [trace_at, sample_at, push_at] = prev.map_or([0; 3], ends);
            let [trace_end, sample_end, push_end] = ends(&log.recs[rec_cur[s]]);
            rec_cur[s] += 1;
            for ev in &mut trace[trace_at..trace_end] {
                self.tracer.record(TraceEvent {
                    time: ev.time,
                    node: ev.node,
                    dir: ev.dir,
                    kind: ev.kind,
                    detail: std::mem::take(&mut ev.detail),
                });
            }
            for &(name, v) in &log.samples[sample_at..sample_end] {
                self.metrics.sample(name, v);
            }
            for op in &mut log.pushes[push_at..push_end] {
                // Moving the op out leaves a `Provisional` placeholder
                // behind; the log is cleared below, never read again.
                match std::mem::replace(op, PushOp::Provisional) {
                    // Already in its queue (and possibly already
                    // fired); just resolve its real sequence.
                    PushOp::Provisional => {
                        log.prov_seq.push(self.seq);
                        self.seq += 1;
                    }
                    PushOp::Ev(at, ev) => self.push_event(at, ev),
                }
            }
        }
        // Put the (drained) logs back so their capacity is reused, and
        // fold the order-insensitive leftovers.
        let mut popped = 0;
        for (s, (mut log, mut trace)) in logs.into_iter().enumerate() {
            let replayed = log.recs.last().map_or([0; 3], ends);
            let logged = [trace.len(), log.samples.len(), log.pushes.len()];
            assert!(
                rec_cur[s] == log.recs.len() && replayed == logged,
                "shard {s}: unreplayed records ({} of {}) or orphaned [trace lines, samples, \
                 pushes] past the last record: replayed {replayed:?} of {logged:?}",
                rec_cur[s],
                log.recs.len()
            );
            log.recs.clear();
            log.pushes.clear();
            log.samples.clear();
            log.prov_seq.clear();
            trace.clear();
            let shard = &mut self.shards[s];
            shard.log = log;
            *shard.tracer.events_mut() = trace;
            shard.prov_ctr = 0;
            shard.metrics.drain_counts_into(&mut self.metrics);
            popped += std::mem::take(&mut shard.pops);
        }
        self.count_events(popped);
    }
}
