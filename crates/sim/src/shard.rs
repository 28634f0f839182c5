//! Conservative-lookahead shard executor.
//!
//! A sharded world splits its state into disjoint [`Shard`]s, each with
//! its own event queue, and runs them in *epochs*: every epoch processes
//! the half-open window `[M, min(M + L, target + 1))` where `M` is the
//! global minimum pending-event time across shards and `L` is the
//! **lookahead** — the minimum latency of any cross-shard link. Any
//! message a shard emits at time `s ≥ M` arrives at `s + L ≥ M + L`, i.e.
//! at or after the window end, so shards can process their windows
//! independently and exchange the produced messages at the barrier
//! without ever violating causality.
//!
//! Messages travel through per-shard **outboxes**: a shard appends
//! `(destination, message)` to its own outbox while it steps, and at the
//! barrier [`route`] walks the outboxes in sender-rank order, applying
//! each message to its destination. Every destination therefore receives
//! sender 0's mail in send order, then sender 1's, and so on. The cost is
//! O(shards + messages) per epoch, and every buffer is owned by exactly
//! one shard, so the executor is safe Rust throughout: each shard sits
//! behind its own uncontended `Mutex`, claimed by one worker during the
//! step phase and by the main thread between barriers.
//!
//! Determinism: a shard's window execution depends only on its own state
//! plus mail routed at previous barriers, and routing order is fixed by
//! sender rank. Neither depends on which OS thread claimed the shard, so
//! every thread count — and every shard count, down to one — runs the
//! same epoch loop and produces identical results.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard};

use crate::time::{SimDuration, SimTime};

/// A relaxed atomic job cursor: hands out `0, 1, 2, …` to whoever calls
/// [`Cursor::next`], exactly once each. This is the one atomic primitive
/// the workspace's parallel paths share (sweep job dispatch, shard
/// claiming); no simulated result ever flows through it — it only decides
/// *which thread* does a unit of work, never *what* the work computes.
#[derive(Debug, Default)]
pub struct Cursor(AtomicUsize);

impl Cursor {
    /// A cursor starting at index 0.
    pub const fn new() -> Cursor {
        Cursor(AtomicUsize::new(0))
    }

    /// Claim the next index.
    pub fn next(&self) -> usize {
        self.0.fetch_add(1, Ordering::Relaxed)
    }

    /// Rewind to 0. Only sound while no other thread is claiming; the
    /// epoch loop calls this between barriers while workers are parked.
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// One shard of a partitioned world, as the epoch executor sees it.
pub trait Shard: Send {
    /// A cross-shard message.
    type Mail: Send;

    /// Time of the earliest pending event, if any.
    fn next_time(&self) -> Option<SimTime>;

    /// Mail sent since the last [`route`], as `(destination rank,
    /// message)` in send order.
    fn outbox(&mut self) -> &mut Vec<(usize, Self::Mail)>;

    /// Apply one inbound message.
    fn deliver(&mut self, mail: Self::Mail);
}

/// Deliver shard `from`'s outbox to its destinations in send order. The
/// outbox is left empty with its capacity intact, so steady-state mail
/// does not allocate. `get` projects a slot of `shards` onto its shard
/// (`|s| s` for a plain slice).
pub fn route<T, S: Shard>(shards: &mut [T], from: usize, get: impl Fn(&mut T) -> &mut S) {
    let mut out = std::mem::take(get(&mut shards[from]).outbox());
    for (to, m) in out.drain(..) {
        get(&mut shards[to]).deliver(m);
    }
    *get(&mut shards[from]).outbox() = out;
}

/// Epoch parameters for [`run_epochs`].
#[derive(Debug, Clone, Copy)]
pub struct EpochPlan {
    /// Worker threads to use (clamped to `[1, shards]`).
    pub threads: usize,
    /// Run all events with `time <= target` (inclusive, like `run_until`).
    pub target: SimTime,
    /// Conservative lookahead: minimum cross-shard message latency. Must
    /// be non-zero when more than one shard exchanges messages.
    pub lookahead: SimDuration,
}

fn window_end(m: SimTime, plan: &EpochPlan) -> SimTime {
    let cap = plan.target.saturating_add(SimDuration::from_us(1));
    m.saturating_add(plan.lookahead).min(cap)
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("invariant: a shard step panicked and poisoned its lock")
}

/// Run shards to `plan.target` in conservative-lookahead epochs.
///
/// `step(rank, &mut shard, window_end)` processes every event strictly
/// before `window_end`, appending cross-shard messages to the shard's
/// outbox. Each epoch is: route all outboxes, pick the window, release
/// the workers, step every shard, barrier. The loop ends when, right
/// after a route, no shard has an event at or before `plan.target`, so
/// no mail is pending at exit. One shard or one thread runs the same
/// loop, with no workers. The number of executed epochs is returned
/// (observability + tests).
pub fn run_epochs<S, F>(shards: &mut [S], plan: EpochPlan, step: F) -> u64
where
    S: Shard,
    F: Fn(usize, &mut S, SimTime) + Sync,
{
    let n = shards.len();
    let threads = plan.threads.clamp(1, n.max(1));
    if n > 1 {
        assert!(!plan.lookahead.is_zero(), "multi-shard worlds need non-zero lookahead");
    }
    // The cursor hands each shard to one thread per step phase, and the
    // main thread takes the locks only while the workers are parked at
    // the gate, so no lock is ever contended.
    let cells: Vec<Mutex<&mut S>> = shards.iter_mut().map(Mutex::new).collect();
    let cursor = Cursor::new();
    // The current window end; `None` tells the workers to exit.
    let window: Mutex<Option<SimTime>> = Mutex::new(None);
    let gate = Barrier::new(threads);
    let step_claimed = |wend: SimTime| loop {
        let i = cursor.next();
        if i >= n {
            break;
        }
        step(i, &mut lock(&cells[i]), wend);
    };
    let mut epochs = 0u64;

    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(|| loop {
                gate.wait();
                let Some(wend) = *lock(&window) else { break };
                step_claimed(wend);
                gate.wait();
            });
        }
        let mut held = Vec::with_capacity(n);
        loop {
            held.extend(cells.iter().map(lock));
            for from in 0..n {
                route(&mut held, from, |g| &mut ***g);
            }
            let m = held.iter().filter_map(|s| s.next_time()).min();
            held.clear();
            let wend = m.filter(|&m| m <= plan.target).map(|m| window_end(m, &plan));
            *lock(&window) = wend;
            cursor.reset();
            gate.wait();
            let Some(wend) = wend else { break };
            step_claimed(wend);
            gate.wait();
            epochs += 1;
        }
    });
    epochs
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy shard: a sorted pending list of `(time, hops)` tokens. Each
    /// token is logged when processed; a token with hops left is forwarded
    /// to the next shard, arriving one lookahead later.
    #[derive(Debug, Default)]
    struct Toy {
        pending: Vec<(u64, u32)>,
        log: Vec<(u64, u32)>,
        outbox: Vec<(usize, (u64, u32))>,
    }

    impl Toy {
        /// Insert after every token due at or before `t`, so same-time
        /// tokens keep their arrival order.
        fn push(&mut self, t: u64, hops: u32) {
            let at = self.pending.partition_point(|&(p, _)| p <= t);
            self.pending.insert(at, (t, hops));
        }
    }

    impl Shard for Toy {
        type Mail = (u64, u32);

        fn next_time(&self) -> Option<SimTime> {
            self.pending.first().map(|&(t, _)| SimTime::from_us(t))
        }

        fn outbox(&mut self) -> &mut Vec<(usize, (u64, u32))> {
            &mut self.outbox
        }

        fn deliver(&mut self, (t, hops): (u64, u32)) {
            self.push(t, hops);
        }
    }

    const L: u64 = 7;

    fn plan(threads: usize) -> EpochPlan {
        EpochPlan { threads, target: SimTime::from_us(10_000), lookahead: SimDuration::from_us(L) }
    }

    fn run_toy(n: usize, threads: usize) -> (Vec<Vec<(u64, u32)>>, u64) {
        let mut shards: Vec<Toy> = (0..n).map(|_| Toy::default()).collect();
        for (i, s) in shards.iter_mut().enumerate() {
            s.push(i as u64 * 3, 20 + i as u32);
        }
        let epochs = run_epochs(&mut shards, plan(threads), |r, s: &mut Toy, wend| {
            while let Some(&(t, hops)) = s.pending.first() {
                if t >= wend.as_us() {
                    break;
                }
                s.pending.remove(0);
                s.log.push((t, hops));
                if hops > 0 {
                    s.outbox.push(((r + 1) % n, (t + L, hops - 1)));
                }
            }
        });
        (shards.into_iter().map(|s| s.log).collect(), epochs)
    }

    #[test]
    fn epochs_are_deterministic_across_thread_counts() {
        let (base, base_epochs) = run_toy(5, 1);
        // Every token chain ran to exhaustion: total logged events =
        // 5 seeds + sum of hops forwarded.
        let total: usize = base.iter().map(Vec::len).sum();
        assert_eq!(total, 5 + (20..25).sum::<u32>() as usize);
        assert!(base_epochs > 0);
        for threads in [2, 3, 5, 8] {
            let (got, epochs) = run_toy(5, threads);
            assert_eq!(got, base, "threads={threads} diverged");
            assert_eq!(epochs, base_epochs, "threads={threads} epoch count diverged");
        }
        // Single shard degenerates to one pass over its own queue.
        let (solo, _) = run_toy(1, 4);
        assert_eq!(solo[0].len(), 1 + 20);
    }

    #[test]
    fn same_time_mail_applies_in_sender_rank_order() {
        // Shards 1..=4 each send two same-timestamp tokens to shard 0 in
        // the first epoch; shard 0 logs them in delivery order. Payloads
        // fall with rank, so any sort by value would show.
        let n = 5;
        let run = |threads: usize| {
            let mut shards: Vec<Toy> = (0..n).map(|_| Toy::default()).collect();
            for s in &mut shards[1..] {
                s.push(0, 0);
            }
            run_epochs(&mut shards, plan(threads), |r, s: &mut Toy, wend| {
                while let Some(&(t, hops)) = s.pending.first() {
                    if t >= wend.as_us() {
                        break;
                    }
                    s.pending.remove(0);
                    s.log.push((t, hops));
                    if r > 0 {
                        s.outbox.push((0, (L, 100 - 10 * r as u32)));
                        s.outbox.push((0, (L, 101 - 10 * r as u32)));
                    }
                }
            });
            shards.swap_remove(0).log
        };
        let expect: Vec<(u64, u32)> =
            (1..n as u32).flat_map(|r| [(L, 100 - 10 * r), (L, 101 - 10 * r)]).collect();
        for threads in [1, 2, 4, 8] {
            assert_eq!(run(threads), expect, "threads={threads}");
        }
    }

    #[test]
    fn route_applies_one_senders_mail_in_send_order() {
        let mut shards: Vec<Toy> = (0..3).map(|_| Toy::default()).collect();
        shards[1].outbox = vec![(2, (9, 4)), (0, (4, 2)), (2, (9, 1)), (2, (9, 3))];
        shards[0].outbox = vec![(2, (9, 0))];
        route(&mut shards, 1, |s| s);
        assert!(shards[1].outbox.is_empty() && shards[1].outbox.capacity() >= 4);
        assert_eq!(shards[0].pending, vec![(4, 2)]);
        assert_eq!(shards[2].pending, vec![(9, 4), (9, 1), (9, 3)]);
        assert_eq!(shards[0].outbox, vec![(2, (9, 0))], "other senders are left alone");
    }

    #[test]
    fn cursor_hands_out_each_index_once_and_resets() {
        let c = Cursor::new();
        assert_eq!((c.next(), c.next(), c.next()), (0, 1, 2));
        c.reset();
        assert_eq!(c.next(), 0);
    }
}
