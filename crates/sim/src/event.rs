//! The virtual-time event heap.
//!
//! A discrete-event simulation is a loop over a priority queue: pop the
//! earliest event, advance the clock to its timestamp, let the handler
//! schedule more events. Determinism requires a total order, so ties on
//! the timestamp are broken by a monotonically increasing sequence
//! number — two events scheduled for the same instant pop in the order
//! they were pushed, regardless of heap internals.
//!
//! The heap orders small `(at, seq, slot)` keys only. Each payload sits
//! in a slab slot that the key names, so a sift moves 24 bytes whatever
//! the event type, and a popped event's slot is reused through a chain
//! of free slots.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One heap key. Ordering looks only at `(at, seq)`: `seq` is unique,
/// so `slot` never decides, and the payload type needs no bounds.
struct Key {
    at: u64,
    seq: u64,
    slot: usize,
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    /// Reversed so the std max-heap pops the *earliest* `(at, seq)`.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A deterministic event queue keyed by `(virtual_time_ns, seq)`.
///
/// # Examples
///
/// ```
/// use pisa_sim::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.push(20, "late");
/// q.push(10, "early");
/// q.push(10, "early-too"); // same instant: FIFO by push order
/// assert_eq!(q.pop(), Some((10, "early")));
/// assert_eq!(q.pop(), Some((10, "early-too")));
/// assert_eq!(q.pop(), Some((20, "late")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Key>,
    /// Payloads by slot.
    slab: Vec<Slot<E>>,
    /// The most recently freed slot, head of the chain of free slots.
    free: Option<usize>,
    seq: u64,
}

/// One slab slot: a pending event, or a free slot naming the next free
/// one, so reusing slots needs no list beside the slab.
enum Slot<E> {
    Pending(E),
    Free(Option<usize>),
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at virtual time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: None,
            seq: 0,
        }
    }

    /// Schedules `ev` at virtual time `at` (nanoseconds).
    pub fn push(&mut self, at: u64, ev: E) {
        let seq = self.seq;
        self.seq += 1;
        let reused = self
            .free
            .and_then(|slot| Some((slot, self.slab.get_mut(slot)?)));
        let slot = match reused {
            Some((slot, entry)) => {
                if let Slot::Free(next) = std::mem::replace(entry, Slot::Pending(ev)) {
                    self.free = next;
                }
                slot
            }
            None => {
                self.slab.push(Slot::Pending(ev));
                self.slab.len() - 1
            }
        };
        self.heap.push(Key { at, seq, slot });
    }

    /// Pops the earliest event and its timestamp.
    pub fn pop(&mut self) -> Option<(u64, E)> {
        let key = self.heap.pop()?;
        let entry = self.slab.get_mut(key.slot)?;
        // Every key names a pending slot: a slot is freed only here, as
        // its one key leaves the heap.
        let Slot::Pending(ev) = std::mem::replace(entry, Slot::Free(self.free)) else {
            return None;
        };
        self.free = Some(key.slot);
        Some((key.at, ev))
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|k| k.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(5, 'c');
        q.push(1, 'a');
        q.push(3, 'b');
        assert_eq!(q.peek_time(), Some(1));
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100u32 {
            q.push(7, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// Against a sorted-`Vec` model: random pushes over a handful of
        /// instants (so most timestamps tie), interleaved with pops,
        /// come out in exact `(at, seq)` order, and the slab grows only
        /// to the most events ever pending at once, reusing every freed
        /// slot.
        #[test]
        fn pops_match_a_sorted_model(
            ops in proptest::collection::vec((0u8..3, 0u64..6), 0..400),
        ) {
            let mut q = EventQueue::new();
            // (at, seq); the payload is the push's seq.
            let mut model: Vec<(u64, u64)> = Vec::new();
            let (mut seq, mut peak) = (0u64, 0usize);
            for (op, at) in ops {
                if op < 2 {
                    q.push(at, seq);
                    model.push((at, seq));
                    seq += 1;
                    peak = peak.max(model.len());
                } else {
                    model.sort_unstable();
                    let want = (!model.is_empty()).then(|| model.remove(0));
                    proptest::prop_assert_eq!(q.pop(), want);
                }
                proptest::prop_assert_eq!(q.len(), model.len());
                proptest::prop_assert_eq!(q.peek_time(), model.iter().map(|e| e.0).min());
            }
            proptest::prop_assert_eq!(q.slab.len(), peak);
            model.sort_unstable();
            let rest: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop()).collect();
            proptest::prop_assert_eq!(rest, model);
        }
    }

    #[test]
    fn interleaved_pushes_stay_ordered() {
        let mut q = EventQueue::new();
        q.push(10, "first@10");
        assert_eq!(q.pop(), Some((10, "first@10")));
        // Later pushes at earlier times still pop first.
        q.push(20, "late");
        q.push(15, "early");
        assert_eq!(q.pop(), Some((15, "early")));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        assert_eq!(q.pop(), Some((20, "late")));
        assert!(q.is_empty());
    }

    #[test]
    fn empty_queue_reports_nothing() {
        let mut q: EventQueue<()> = EventQueue::default();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.pop(), None);
        q.push(1, ());
        assert_eq!(q.pop(), Some((1, ())));
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn extreme_timestamps_order() {
        let mut q = EventQueue::new();
        q.push(u64::MAX, "end");
        q.push(0, "start");
        q.push(u64::MAX, "end-too");
        q.push(u64::MAX - 1, "almost");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            vec![
                (0, "start"),
                (u64::MAX - 1, "almost"),
                (u64::MAX, "end"),
                (u64::MAX, "end-too")
            ]
        );
    }

    /// A long run that keeps a few events pending (as a storm keeps its
    /// timers) never grows the slab past that few.
    #[test]
    fn steady_state_reuses_a_bounded_slab() {
        let mut q = EventQueue::new();
        for i in 0..3u64 {
            q.push(i, i);
        }
        let mut last = 0;
        for i in 3..20_000u64 {
            let (at, ev) = q.pop().unwrap();
            assert!(at >= last);
            assert_eq!(at, ev);
            last = at;
            q.push(i, i);
        }
        assert_eq!(q.len(), 3);
        assert_eq!(q.slab.len(), 3);
    }

    /// Popping hands the payload out, and dropping the queue drops what
    /// it still holds: no payload lingers in a freed slot.
    #[test]
    fn payloads_leave_with_pop_and_drop_with_the_queue() {
        let token = std::rc::Rc::new(());
        let mut q = EventQueue::new();
        for at in 0..5 {
            q.push(at, std::rc::Rc::clone(&token));
        }
        assert_eq!(std::rc::Rc::strong_count(&token), 6);
        drop(q.pop());
        drop(q.pop());
        assert_eq!(std::rc::Rc::strong_count(&token), 4);
        drop(q);
        assert_eq!(std::rc::Rc::strong_count(&token), 1);
    }
}
