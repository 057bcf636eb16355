//! The bounded multi-producer update queue feeding a shard's writer thread.

use crate::{ServiceError, UpdateOp};
use pref_sync::{Condvar, LockRank, Mutex};
use std::collections::VecDeque;

/// A bounded blocking queue of update **batches**.
///
/// Producers enqueue whole batches ([`UpdateQueue::push`], blocking while the
/// queue is over capacity); the shard's writer drains them
/// ([`UpdateQueue::pop`], blocking while empty). Batches are the atomicity
/// unit of the serving tier: the writer never publishes a snapshot in the
/// middle of a batch, so a batch submitted together becomes visible
/// together.
///
/// Capacity is counted in *updates* (summed batch lengths), which is what
/// actually bounds memory and writer lag. A single batch larger than the
/// whole capacity is still accepted — once the queue is empty — so oversized
/// batches degrade to a stop-and-go handoff instead of deadlocking.
#[derive(Debug)]
pub(crate) struct UpdateQueue {
    state: Mutex<QueueState>,
    /// Signalled when batches are enqueued or the queue closes.
    not_empty: Condvar,
    /// Signalled when the writer drains batches or the queue closes.
    not_full: Condvar,
    capacity: usize,
}

#[derive(Debug)]
struct QueueState {
    batches: VecDeque<Vec<UpdateOp>>,
    /// Sum of the queued batch lengths.
    queued_updates: usize,
    closed: bool,
    /// Closed because the writer died (panic), not by shutdown: producers —
    /// including ones already parked in [`UpdateQueue::push`]'s backpressure
    /// wait — get [`ServiceError::WriterCrashed`] instead of blocking on a
    /// drain that can no longer happen.
    crashed: bool,
}

impl UpdateQueue {
    /// Creates a queue bounded at `capacity` queued updates (≥ 1).
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "queue capacity must be at least 1");
        Self {
            state: Mutex::new(
                QueueState {
                    batches: VecDeque::new(),
                    queued_updates: 0,
                    closed: false,
                    crashed: false,
                },
                LockRank::UpdateQueue,
            ),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        }
    }

    /// Enqueues one batch, blocking while the queue is at capacity. Empty
    /// batches are accepted and act as pure publication triggers (the writer
    /// applies nothing and publishes a snapshot). Fails with
    /// [`ServiceError::Stopped`] once the queue is closed by shutdown, and
    /// with [`ServiceError::WriterCrashed`] — including from the middle of
    /// the backpressure wait — once the writer has died.
    pub(crate) fn push(&self, batch: Vec<UpdateOp>) -> Result<(), ServiceError> {
        let mut state = self.state.lock();
        loop {
            if state.crashed {
                return Err(ServiceError::WriterCrashed);
            }
            if state.closed {
                return Err(ServiceError::Stopped);
            }
            let fits = state.queued_updates + batch.len() <= self.capacity
                // oversized batches are accepted into an empty queue
                || state.queued_updates == 0;
            if fits {
                state.queued_updates += batch.len();
                state.batches.push_back(batch);
                self.not_empty.notify_one();
                return Ok(());
            }
            state = self.not_full.wait(state);
        }
    }

    /// Non-blocking [`UpdateQueue::push`] for the admission-control path:
    /// where `push` would park in the backpressure wait, this returns
    /// [`ServiceError::Overloaded`] immediately — the caller turns it into a
    /// typed reject instead of a stalled connection handler.
    pub(crate) fn try_push(&self, batch: Vec<UpdateOp>) -> Result<(), ServiceError> {
        let mut state = self.state.lock();
        if state.crashed {
            return Err(ServiceError::WriterCrashed);
        }
        if state.closed {
            return Err(ServiceError::Stopped);
        }
        let fits = state.queued_updates + batch.len() <= self.capacity
            // oversized batches are accepted into an empty queue
            || state.queued_updates == 0;
        if !fits {
            return Err(ServiceError::Overloaded);
        }
        state.queued_updates += batch.len();
        state.batches.push_back(batch);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeues whole batches totalling at most `max_updates` (but always at
    /// least one batch), blocking while the queue is empty. Returns `None`
    /// once the queue is closed **and** drained — the writer's signal to
    /// exit.
    pub(crate) fn pop(&self, max_updates: usize) -> Option<Vec<Vec<UpdateOp>>> {
        let mut state = self.state.lock();
        loop {
            if !state.batches.is_empty() {
                let mut drained = Vec::new();
                let mut drained_updates = 0;
                loop {
                    let take = match state.batches.front() {
                        Some(front) => {
                            drained.is_empty() || drained_updates + front.len() <= max_updates
                        }
                        None => false,
                    };
                    if !take {
                        break;
                    }
                    match state.batches.pop_front() {
                        Some(front) => {
                            drained_updates += front.len();
                            drained.push(front);
                        }
                        None => break,
                    }
                }
                state.queued_updates -= drained_updates;
                self.not_full.notify_all();
                return Some(drained);
            }
            if state.closed {
                return None;
            }
            state = self.not_empty.wait(state);
        }
    }

    /// Closes the queue: producers fail fast, the writer drains what is left
    /// and exits.
    pub(crate) fn close(&self) {
        let mut state = self.state.lock();
        state.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Closes the queue because the writer died: every producer — parked in
    /// the backpressure wait or arriving later — fails with
    /// [`ServiceError::WriterCrashed`]. Called from the writer's exit guard
    /// on unwind only; a clean writer exit leaves the plain `closed` /
    /// `Stopped` semantics untouched.
    pub(crate) fn close_crashed(&self) {
        let mut state = self.state.lock();
        state.closed = true;
        state.crashed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Updates currently queued (diagnostics).
    pub(crate) fn queued_updates(&self) -> usize {
        self.state.lock().queued_updates
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "tests drive real OS threads on purpose"
)]
mod tests {
    use super::*;
    use pref_rtree::RecordId;
    use std::sync::Arc;

    fn op(id: u64) -> UpdateOp {
        UpdateOp::RemoveObject(RecordId(id))
    }

    #[test]
    fn pop_drains_whole_batches_up_to_the_update_budget() {
        let queue = UpdateQueue::new(16);
        queue.push(vec![op(0), op(1)]).unwrap();
        queue.push(vec![op(2)]).unwrap();
        queue.push(vec![op(3), op(4), op(5)]).unwrap();
        assert_eq!(queue.queued_updates(), 6);
        // budget 3 takes the first two batches (2 + 1), not half of batch 3
        let drained = queue.pop(3).unwrap();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].len(), 2);
        assert_eq!(drained[1].len(), 1);
        assert_eq!(queue.queued_updates(), 3);
        // a batch larger than the budget still comes out whole
        let drained = queue.pop(1).unwrap();
        assert_eq!(drained, vec![vec![op(3), op(4), op(5)]]);
        assert_eq!(queue.queued_updates(), 0);
    }

    #[test]
    fn close_fails_producers_and_drains_consumers() {
        let queue = UpdateQueue::new(4);
        queue.push(vec![op(0)]).unwrap();
        queue.close();
        assert_eq!(queue.push(vec![op(1)]), Err(ServiceError::Stopped));
        // the consumer still sees the pre-close batch, then the exit signal
        assert_eq!(queue.pop(8), Some(vec![vec![op(0)]]));
        assert_eq!(queue.pop(8), None);
    }

    #[test]
    fn producers_block_at_capacity_until_the_writer_drains() {
        let queue = Arc::new(UpdateQueue::new(2));
        queue.push(vec![op(0), op(1)]).unwrap();
        let producer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.push(vec![op(2)]))
        };
        // the producer cannot finish until we drain; drain and join
        let drained = queue.pop(8).unwrap();
        assert_eq!(drained.len(), 1);
        producer.join().unwrap().unwrap();
        assert_eq!(queue.pop(8), Some(vec![vec![op(2)]]));
    }

    #[test]
    fn oversized_batches_enter_an_empty_queue() {
        let queue = UpdateQueue::new(2);
        queue.push(vec![op(0), op(1), op(2), op(3)]).unwrap();
        assert_eq!(queue.queued_updates(), 4);
        assert_eq!(queue.pop(1).unwrap()[0].len(), 4);
    }

    #[test]
    fn empty_batches_pass_through() {
        let queue = UpdateQueue::new(2);
        queue.push(Vec::new()).unwrap();
        assert_eq!(queue.pop(4), Some(vec![Vec::new()]));
    }

    #[test]
    fn try_push_rejects_at_capacity_instead_of_blocking() {
        let queue = UpdateQueue::new(2);
        queue.try_push(vec![op(0), op(1)]).unwrap();
        assert_eq!(queue.try_push(vec![op(2)]), Err(ServiceError::Overloaded));
        // nothing was partially enqueued by the reject
        assert_eq!(queue.queued_updates(), 2);
        // draining reopens admission
        queue.pop(8).unwrap();
        queue.try_push(vec![op(2)]).unwrap();
        // oversized batches still enter an empty queue on the try path
        queue.pop(8).unwrap();
        queue.try_push(vec![op(3), op(4), op(5)]).unwrap();
        assert_eq!(queue.queued_updates(), 3);
    }

    #[test]
    fn crash_close_fails_parked_and_future_producers_with_writer_crashed() {
        let queue = Arc::new(UpdateQueue::new(1));
        queue.push(vec![op(0)]).unwrap();
        let parked = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.push(vec![op(1)]))
        };
        // the producer is (about to be) parked in the backpressure wait; a
        // writer crash must wake it with the typed error, not leave it
        // hanging on a drain that will never come
        queue.close_crashed();
        assert_eq!(parked.join().unwrap(), Err(ServiceError::WriterCrashed));
        assert_eq!(
            queue.push(vec![op(2)]),
            Err(ServiceError::WriterCrashed),
            "future producers see the crash too"
        );
        assert_eq!(
            queue.try_push(vec![op(2)]),
            Err(ServiceError::WriterCrashed),
            "the non-blocking path reports the crash, not Overloaded"
        );
    }
}
