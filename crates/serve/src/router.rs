//! The service's work queue: a bounded MPMC queue with blocking
//! backpressure, one shared lane plus a targeted mailbox per worker.
//!
//! The tree is offline — no tokio, no crossbeam — so the spine is a
//! `Mutex` over the lanes with two condition variables: `not_empty`
//! wakes workers, `not_full` wakes producers blocked on backpressure.
//! Closing wakes everyone; producers get their item back, consumers
//! drain what is left and then observe the close.
//!
//! Placement needs *directed* delivery — replica `r` of shard `s` lives
//! on a specific worker, so a sharded sub-query must land on that
//! worker and no other. A single shared deque cannot express that, and
//! per-worker queues alone would lose the work-stealing behaviour that
//! keeps unsharded jobs balanced. The router keeps both under one
//! mutex: untargeted jobs go to the shared lane any worker may pop;
//! targeted jobs go to the owner's mailbox, which that worker drains
//! *first* on every pop. A worker thread outlives its engine, so a
//! mailbox always has a live consumer — a job routed to a dead engine is
//! popped by its worker and re-routed through the catalog rather than
//! stranded.
//!
//! There is one enqueue, [`WorkRouter::push`]: a lane (the shared one or
//! a worker's mailbox) and a [`WhenFull`] mode. Capacity bounds the
//! *total* of all lanes; a producer either waits for space or is
//! refused, and a re-route of an item a worker already accepted
//! bypasses the bound. Every mode refuses once the router is closed
//! (pinned by the requeue-vs-close race test below).

use crate::sync;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a push was refused; the item is handed back.
#[derive(Debug)]
pub(crate) enum PushRefused<T> {
    /// The router is at capacity (backpressure signal).
    Full(T),
    /// The router has been closed.
    Closed(T),
}

/// What [`WorkRouter::push`] does when the lanes are at capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WhenFull {
    /// Block until space appears (the backpressure path).
    Wait,
    /// Refuse with [`PushRefused::Full`].
    Refuse,
    /// Ignore the bound: the item was admitted once and is being
    /// re-routed, and blocking here could deadlock a worker against
    /// producers.
    Bypass,
}

#[derive(Debug)]
struct RouterState<T> {
    shared: VecDeque<T>,
    mailboxes: Vec<VecDeque<T>>,
    closed: bool,
}

impl<T> RouterState<T> {
    fn len(&self) -> usize {
        self.shared.len() + self.mailboxes.iter().map(VecDeque::len).sum::<usize>()
    }
}

/// A bounded MPMC queue with one shared lane and per-worker mailboxes.
#[derive(Debug)]
pub(crate) struct WorkRouter<T> {
    state: Mutex<RouterState<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl<T> WorkRouter<T> {
    /// A router for `workers` consumers holding at most `capacity`
    /// items across all lanes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `workers` is zero.
    pub(crate) fn new(capacity: usize, workers: usize) -> Self {
        assert!(capacity > 0, "router capacity must be non-zero");
        assert!(workers > 0, "router needs at least one worker");
        Self {
            state: Mutex::new(RouterState {
                shared: VecDeque::with_capacity(capacity),
                mailboxes: (0..workers).map(|_| VecDeque::new()).collect(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        }
    }

    /// Items queued across all lanes.
    pub(crate) fn len(&self) -> usize {
        sync::lock(&self.state).len()
    }

    /// `true` once [`close`](Self::close) was called.
    pub(crate) fn is_closed(&self) -> bool {
        sync::lock(&self.state).closed
    }

    /// Enqueues `item` into `worker`'s mailbox, or onto the shared lane
    /// for `None`, handling a full router per `when_full`.
    ///
    /// # Errors
    ///
    /// [`PushRefused::Full`] at capacity under [`WhenFull::Refuse`],
    /// [`PushRefused::Closed`] after [`close`](Self::close) in every
    /// mode (so shutdown cannot be held open by a re-route loop); the
    /// item is returned either way.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range.
    pub(crate) fn push(
        &self,
        worker: Option<usize>,
        when_full: WhenFull,
        item: T,
    ) -> Result<(), PushRefused<T>> {
        let mut state = sync::lock(&self.state);
        loop {
            if state.closed {
                return Err(PushRefused::Closed(item));
            }
            if state.len() < self.capacity || when_full == WhenFull::Bypass {
                break;
            }
            if when_full == WhenFull::Refuse {
                return Err(PushRefused::Full(item));
            }
            state = sync::wait(&self.not_full, state);
        }
        match worker {
            None => {
                state.shared.push_back(item);
                drop(state);
                self.not_empty.notify_one();
            }
            Some(worker) => {
                state.mailboxes[worker].push_back(item);
                drop(state);
                // Targeted delivery must wake the owner specifically;
                // the lane discipline cannot know which sleeper that
                // is, so wake all.
                self.not_empty.notify_all();
            }
        }
        Ok(())
    }

    /// Blocks until `worker` has something to do (its mailbox or the
    /// shared lane is non-empty, or the router is closed and both are
    /// drained), then moves up to `max` items into `sink` — mailbox
    /// first, so routed work cannot be starved by shared-lane load.
    /// Returns `false` exactly when this worker should exit: closed,
    /// mailbox empty, shared lane empty.
    pub(crate) fn pop_burst(&self, worker: usize, max: usize, sink: &mut Vec<T>) -> bool {
        let mut state = sync::lock(&self.state);
        while state.mailboxes[worker].is_empty() && state.shared.is_empty() && !state.closed {
            state = sync::wait(&self.not_empty, state);
        }
        if state.mailboxes[worker].is_empty() && state.shared.is_empty() {
            return false; // closed and drained (for this worker)
        }
        let max = max.max(1);
        let from_mailbox = max.min(state.mailboxes[worker].len());
        sink.extend(state.mailboxes[worker].drain(..from_mailbox));
        let from_shared = (max - from_mailbox).min(state.shared.len());
        sink.extend(state.shared.drain(..from_shared));
        drop(state);
        // Space appeared: wake blocked producers (and more consumers in
        // case shared items remain).
        self.not_full.notify_all();
        self.not_empty.notify_one();
        true
    }

    /// Closes the router: further pushes are refused, consumers drain
    /// their remaining work and then observe the close. Idempotent.
    pub(crate) fn close(&self) {
        sync::lock(&self.state).closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Removes and returns everything still queued in any lane (used at
    /// abort to fail leftover jobs explicitly).
    pub(crate) fn drain_remaining(&self) -> Vec<T> {
        let mut state = sync::lock(&self.state);
        let mut out: Vec<T> = state.shared.drain(..).collect();
        for mailbox in &mut state.mailboxes {
            out.extend(mailbox.drain(..));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn blocking_push_waits_for_space() {
        let r = Arc::new(WorkRouter::new(1, 1));
        r.push(None, WhenFull::Wait, 0u32).expect("open");
        let producer = {
            let r = Arc::clone(&r);
            thread::spawn(move || r.push(None, WhenFull::Wait, 1).is_ok())
        };
        thread::sleep(std::time::Duration::from_millis(10));
        let mut sink = Vec::new();
        assert!(r.pop_burst(0, 1, &mut sink));
        assert!(producer.join().expect("joins"), "push succeeded once space appeared");
        assert!(r.pop_burst(0, 1, &mut sink));
        assert_eq!(sink, vec![0, 1]);
    }

    #[test]
    fn mailbox_drains_before_the_shared_lane() {
        let r = WorkRouter::new(8, 2);
        r.push(None, WhenFull::Wait, "shared-a").expect("open");
        r.push(Some(1), WhenFull::Wait, "mine").expect("open");
        r.push(None, WhenFull::Wait, "shared-b").expect("open");
        r.push(None, WhenFull::Wait, "shared-c").expect("open");
        let mut sink = Vec::new();
        assert!(r.pop_burst(1, 3, &mut sink), "a burst takes at most `max` items");
        assert_eq!(sink, vec!["mine", "shared-a", "shared-b"], "mailbox first, then FIFO");
        assert!(r.pop_burst(0, 3, &mut sink));
        assert_eq!(sink[3..], ["shared-c"]);
    }

    #[test]
    fn workers_do_not_see_each_others_mailboxes() {
        let r = WorkRouter::new(8, 3);
        r.push(Some(2), WhenFull::Wait, 42u32).expect("open");
        r.close();
        let mut sink = Vec::new();
        // Workers 0 and 1 observe a closed, (for them) empty router.
        assert!(!r.pop_burst(0, 4, &mut sink));
        assert!(!r.pop_burst(1, 4, &mut sink));
        assert!(sink.is_empty());
        // Worker 2 still drains its mailbox before exiting.
        assert!(r.pop_burst(2, 4, &mut sink));
        assert_eq!(sink, vec![42]);
        assert!(!r.pop_burst(2, 4, &mut sink));
    }

    #[test]
    fn capacity_bounds_the_total_across_lanes() {
        let r = WorkRouter::new(2, 2);
        r.push(None, WhenFull::Refuse, 0u8).expect("space");
        r.push(Some(1), WhenFull::Wait, 1).expect("space");
        assert!(matches!(r.push(None, WhenFull::Refuse, 2), Err(PushRefused::Full(2))));
        // Re-routes bypass the bound.
        r.push(Some(0), WhenFull::Bypass, 3).expect("admitted once, lands");
        r.push(None, WhenFull::Bypass, 4).expect("admitted once, lands");
        assert_eq!(r.len(), 4);
        assert!(!r.is_closed());
        r.close();
        assert!(r.is_closed());
        assert!(matches!(r.push(Some(0), WhenFull::Bypass, 5), Err(PushRefused::Closed(5))));
        assert!(matches!(r.push(None, WhenFull::Refuse, 6), Err(PushRefused::Closed(6))));
        // Blocking pushes hand the item back once closed, too.
        assert!(matches!(r.push(None, WhenFull::Wait, 7), Err(PushRefused::Closed(7))));
        assert!(matches!(r.push(Some(1), WhenFull::Wait, 8), Err(PushRefused::Closed(8))));
    }

    #[test]
    fn targeted_push_wakes_the_owning_worker() {
        let r = Arc::new(WorkRouter::new(4, 2));
        let owner = {
            let r = Arc::clone(&r);
            thread::spawn(move || {
                let mut sink: Vec<u32> = Vec::new();
                while r.pop_burst(1, 4, &mut sink) {}
                sink
            })
        };
        // A second consumer parked on the same condvar must not steal.
        let bystander = {
            let r = Arc::clone(&r);
            thread::spawn(move || {
                let mut sink: Vec<u32> = Vec::new();
                while r.pop_burst(0, 4, &mut sink) {}
                sink
            })
        };
        thread::sleep(std::time::Duration::from_millis(10));
        r.push(Some(1), WhenFull::Wait, 7).expect("open");
        thread::sleep(std::time::Duration::from_millis(10));
        r.close();
        assert_eq!(owner.join().expect("joins"), vec![7]);
        assert!(bystander.join().expect("joins").is_empty());
    }

    /// Mirror of the queue's requeue-vs-close regression: a targeted
    /// requeue (a bypassing push) racing close must land (and be drained
    /// by the owner) or be handed back — never silently stranded.
    #[test]
    fn requeue_to_racing_close_lands_or_returns_every_item() {
        for round in 0..50u32 {
            let r: Arc<WorkRouter<u32>> = Arc::new(WorkRouter::new(2, 2));
            let owner = {
                let r = Arc::clone(&r);
                thread::spawn(move || {
                    let mut sink = Vec::new();
                    while r.pop_burst(1, 4, &mut sink) {}
                    sink.len()
                })
            };
            let requeuer = {
                let r = Arc::clone(&r);
                thread::spawn(move || {
                    let mut landed = 0usize;
                    let mut returned = 0usize;
                    for i in 0..100u32 {
                        match r.push(Some(1), WhenFull::Bypass, i) {
                            Ok(()) => landed += 1,
                            Err(PushRefused::Full(item) | PushRefused::Closed(item)) => {
                                assert_eq!(item, i, "the refused item comes back intact");
                                returned += 1;
                            }
                        }
                    }
                    (landed, returned)
                })
            };
            if round % 2 == 0 {
                thread::sleep(std::time::Duration::from_micros(u64::from(round)));
            }
            r.close();
            let (landed, returned) = requeuer.join().expect("requeuer joins");
            let popped = owner.join().expect("owner joins");
            assert_eq!(landed + returned, 100, "every requeue resolved one way");
            assert_eq!(popped, landed, "every landed item was drained before the owner exited");
        }
    }
}
