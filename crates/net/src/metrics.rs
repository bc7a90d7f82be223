//! Per-link traffic accounting.

use crate::transport::Party;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Traffic counters for one directed link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkStats {
    /// Messages delivered.
    pub messages: u64,
    /// Payload bytes delivered.
    pub bytes: u64,
}

/// One directed link's delivery counters. Statistics only: they
/// publish no other data, so every access is `Relaxed`.
#[derive(Debug, Default)]
struct LinkCell {
    messages: AtomicU64,
    bytes: AtomicU64,
}

/// A handle on one directed link's delivery counters inside a
/// [`NetMetrics`], as [`FaultPipeline::inject`](crate::FaultPipeline::inject)
/// returns it.
///
/// Counting through it is what [`NetMetrics::record`] does for that
/// link, without the lock and the map lookup, so a transport that
/// sends on a link many times can keep the handle and count each
/// frame for the price of two atomic adds. Cloning shares the
/// counters.
#[derive(Debug, Clone)]
pub struct LinkCounter(Arc<LinkCell>);

impl LinkCounter {
    fn new() -> Self {
        LinkCounter(Arc::default())
    }

    /// Counts one delivered frame of `bytes` payload bytes.
    pub fn count_frame(&self, bytes: usize) {
        self.0.messages.fetch_add(1, Ordering::Relaxed);
        self.0.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// The counters, or `None` while nothing was delivered.
    fn stats(&self) -> Option<LinkStats> {
        let messages = self.0.messages.load(Ordering::Relaxed);
        (messages > 0).then(|| LinkStats {
            messages,
            bytes: self.0.bytes.load(Ordering::Relaxed),
        })
    }

    fn clear(&self) {
        self.0.messages.store(0, Ordering::Relaxed);
        self.0.bytes.store(0, Ordering::Relaxed);
    }
}

/// Injected-fault counters for one directed link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Messages silently dropped.
    pub dropped: u64,
    /// Messages delivered twice.
    pub duplicated: u64,
    /// Messages held back and swapped with a later one.
    pub reordered: u64,
    /// Messages bit-flipped but still parseable (delivered mangled).
    pub corrupted: u64,
    /// Messages bit-flipped into garbage (absorbed like a drop).
    pub corrupt_dropped: u64,
}

impl FaultStats {
    /// Total faults injected on this link.
    pub fn total(&self) -> u64 {
        self.dropped + self.duplicated + self.reordered + self.corrupted + self.corrupt_dropped
    }

    fn add(&mut self, other: &FaultStats) {
        self.dropped += other.dropped;
        self.duplicated += other.duplicated;
        self.reordered += other.reordered;
        self.corrupted += other.corrupted;
        self.corrupt_dropped += other.corrupt_dropped;
    }
}

/// Which fault the network injected (see [`FaultStats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Message silently disappeared.
    Dropped,
    /// Message delivered twice.
    Duplicated,
    /// Message held back and swapped with a later one.
    Reordered,
    /// Message mangled but still parseable.
    Corrupted,
    /// Message mangled into garbage and absorbed.
    CorruptDropped,
}

/// Resilience counters for one protocol session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionStats {
    /// Requests re-sent after a lost or late reply.
    pub retries: u64,
    /// `recv_timeout` deadlines that expired.
    pub timeouts: u64,
    /// Malformed or out-of-order messages rejected.
    pub rejected: u64,
}

impl SessionStats {
    fn add(&mut self, other: &SessionStats) {
        self.retries += other.retries;
        self.timeouts += other.timeouts;
        self.rejected += other.rejected;
    }
}

/// Shared traffic metrics for one transport: the simulator's network,
/// a socket node, or a single-threaded storm loop.
///
/// Cloning shares the counters.
#[derive(Clone, Default)]
pub struct NetMetrics {
    /// Delivery counters by link. An entry outlives [`reset`](Self::reset)
    /// (which zeroes it) so that handed-out [`LinkCounter`]s stay
    /// attached; a link that counts no message reads as absent.
    inner: Arc<Mutex<HashMap<(Party, Party), LinkCounter>>>,
    faults: Arc<Mutex<HashMap<(Party, Party), FaultStats>>>,
    sessions: Arc<Mutex<HashMap<u64, SessionStats>>>,
}

impl NetMetrics {
    /// Fresh, zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one delivered message.
    pub fn record(&self, from: Party, to: Party, bytes: usize) {
        self.inner
            .lock()
            .entry((from, to))
            .or_insert_with(LinkCounter::new)
            .count_frame(bytes);
    }

    /// The handle on `from → to`'s delivery counters, for a transport
    /// that keeps it and counts through it instead of calling
    /// [`record`](Self::record) per frame.
    pub(crate) fn link_counter(&self, from: Party, to: Party) -> LinkCounter {
        self.inner
            .lock()
            .entry((from, to))
            .or_insert_with(LinkCounter::new)
            .clone()
    }

    /// Counters for one directed link, if any traffic flowed.
    pub fn link(&self, from: Party, to: Party) -> Option<LinkStats> {
        self.inner
            .lock()
            .get(&(from, to))
            .and_then(LinkCounter::stats)
    }

    /// Sums `field` over every link that carried traffic and whose
    /// `(from, to)` passes `keep`.
    fn sum(&self, keep: impl Fn(&(Party, Party)) -> bool, field: fn(LinkStats) -> u64) -> u64 {
        self.inner
            .lock()
            .iter()
            .filter(|(link, _)| keep(link))
            .filter_map(|(_, c)| c.stats())
            .map(field)
            .sum()
    }

    /// Total bytes across all links.
    pub fn total_bytes(&self) -> u64 {
        self.sum(|_| true, |s| s.bytes)
    }

    /// Total messages across all links.
    pub fn total_messages(&self) -> u64 {
        self.sum(|_| true, |s| s.messages)
    }

    /// Bytes sent *to* a party (e.g. everything the SDC received).
    pub fn bytes_to(&self, to: Party) -> u64 {
        self.sum(|(_, t)| *t == to, |s| s.bytes)
    }

    /// Bytes sent *by* a party.
    pub fn bytes_from(&self, from: Party) -> u64 {
        self.sum(|(f, _)| *f == from, |s| s.bytes)
    }

    /// Snapshot of every link, sorted by address pair.
    pub fn snapshot(&self) -> Vec<((Party, Party), LinkStats)> {
        let mut v: Vec<_> = self
            .inner
            .lock()
            .iter()
            .filter_map(|(k, c)| Some((*k, c.stats()?)))
            .collect();
        v.sort_by_key(|(k, _)| *k);
        v
    }

    /// Records one injected fault on a directed link.
    pub fn record_fault(&self, from: Party, to: Party, kind: FaultKind) {
        let mut faults = self.faults.lock();
        let stats = faults.entry((from, to)).or_default();
        match kind {
            FaultKind::Dropped => stats.dropped += 1,
            FaultKind::Duplicated => stats.duplicated += 1,
            FaultKind::Reordered => stats.reordered += 1,
            FaultKind::Corrupted => stats.corrupted += 1,
            FaultKind::CorruptDropped => stats.corrupt_dropped += 1,
        }
    }

    /// Fault counters for one directed link, if any fault fired there.
    pub fn link_faults(&self, from: Party, to: Party) -> Option<FaultStats> {
        self.faults.lock().get(&(from, to)).copied()
    }

    /// Faults absorbed across all links.
    pub fn fault_totals(&self) -> FaultStats {
        let mut total = FaultStats::default();
        for stats in self.faults.lock().values() {
            // pisa-lint: allow(blocking-call): this is FaultStats::add, a counter sum; by-name method resolution also charges CipherMatrix::add, whose fan-out joins its own scoped workers
            total.add(stats);
        }
        total
    }

    /// Records one request retry for `session`.
    pub fn record_session_retry(&self, session: u64) {
        self.sessions.lock().entry(session).or_default().retries += 1;
    }

    /// Records one expired receive deadline for `session`.
    pub fn record_session_timeout(&self, session: u64) {
        self.sessions.lock().entry(session).or_default().timeouts += 1;
    }

    /// Records one rejected (malformed / out-of-order) message for
    /// `session`.
    pub fn record_session_reject(&self, session: u64) {
        self.sessions.lock().entry(session).or_default().rejected += 1;
    }

    /// Resilience counters for one session, if it reported anything.
    pub fn session(&self, session: u64) -> Option<SessionStats> {
        self.sessions.lock().get(&session).copied()
    }

    /// Resilience counters summed over every session.
    pub fn session_totals(&self) -> SessionStats {
        let mut total = SessionStats::default();
        for stats in self.sessions.lock().values() {
            // pisa-lint: allow(blocking-call): this is SessionStats::add, a counter sum; by-name method resolution also charges CipherMatrix::add, whose fan-out joins its own scoped workers
            total.add(stats);
        }
        total
    }

    /// Per-session counters, sorted by session id.
    pub fn session_snapshot(&self) -> Vec<(u64, SessionStats)> {
        let mut v: Vec<_> = self.sessions.lock().iter().map(|(k, s)| (*k, *s)).collect();
        v.sort_by_key(|(k, _)| *k);
        v
    }

    /// Resets all counters (start of a new measured phase).
    pub fn reset(&self) {
        self.inner.lock().values().for_each(LinkCounter::clear);
        self.faults.lock().clear();
        self.sessions.lock().clear();
    }
}

impl fmt::Debug for NetMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "NetMetrics({} msgs, {} bytes)",
            self.total_messages(),
            self.total_bytes()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let m = NetMetrics::new();
        m.record(Party::Su(0), Party::Sdc, 100);
        m.record(Party::Su(0), Party::Sdc, 50);
        m.record(Party::Sdc, Party::Stp, 10);
        assert_eq!(m.total_bytes(), 160);
        assert_eq!(m.total_messages(), 3);
        assert_eq!(m.bytes_to(Party::Sdc), 150);
        assert_eq!(m.bytes_from(Party::Sdc), 10);
        assert_eq!(m.link(Party::Stp, Party::Sdc), None);
    }

    #[test]
    fn snapshot_sorted_and_reset() {
        let m = NetMetrics::new();
        m.record(Party::Su(1), Party::Sdc, 1);
        m.record(Party::Pu(0), Party::Sdc, 2);
        let snap = m.snapshot();
        assert_eq!(snap.len(), 2);
        assert!(snap[0].0 < snap[1].0);
        m.reset();
        assert_eq!(m.total_bytes(), 0);
    }

    #[test]
    fn shared_between_clones() {
        let m = NetMetrics::new();
        let m2 = m.clone();
        m.record(Party::Sdc, Party::Stp, 5);
        assert_eq!(m2.total_bytes(), 5);
    }

    #[test]
    fn fault_counters_accumulate() {
        let m = NetMetrics::new();
        m.record_fault(Party::Su(0), Party::Sdc, FaultKind::Dropped);
        m.record_fault(Party::Su(0), Party::Sdc, FaultKind::Dropped);
        m.record_fault(Party::Su(0), Party::Sdc, FaultKind::Corrupted);
        m.record_fault(Party::Sdc, Party::Stp, FaultKind::Duplicated);
        m.record_fault(Party::Sdc, Party::Stp, FaultKind::Reordered);
        m.record_fault(Party::Sdc, Party::Stp, FaultKind::CorruptDropped);
        let link = m.link_faults(Party::Su(0), Party::Sdc).unwrap();
        assert_eq!(link.dropped, 2);
        assert_eq!(link.corrupted, 1);
        let totals = m.fault_totals();
        assert_eq!(totals.total(), 6);
        assert_eq!(totals.duplicated, 1);
        assert_eq!(m.link_faults(Party::Stp, Party::Sdc), None);
    }

    #[test]
    fn session_counters_accumulate() {
        let m = NetMetrics::new();
        m.record_session_retry(3);
        m.record_session_retry(3);
        m.record_session_timeout(3);
        m.record_session_reject(7);
        assert_eq!(
            m.session(3),
            Some(SessionStats {
                retries: 2,
                timeouts: 1,
                rejected: 0
            })
        );
        let totals = m.session_totals();
        assert_eq!(totals.retries, 2);
        assert_eq!(totals.rejected, 1);
        let snap = m.session_snapshot();
        assert_eq!(snap.len(), 2);
        assert!(snap[0].0 < snap[1].0);
        m.reset();
        assert_eq!(m.session_totals(), SessionStats::default());
        assert_eq!(m.fault_totals(), FaultStats::default());
    }

    #[test]
    fn link_counter_counts_like_record() {
        let (by_handle, by_record) = (NetMetrics::new(), NetMetrics::new());
        let handle = by_handle.link_counter(Party::Su(2), Party::Sdc);
        for bytes in [0usize, 1, 700, 64 * 1024] {
            handle.count_frame(bytes);
            by_record.record(Party::Su(2), Party::Sdc, bytes);
        }
        assert_eq!(by_handle.snapshot(), by_record.snapshot());
        assert_eq!(
            by_handle.link(Party::Su(2), Party::Sdc),
            Some(LinkStats {
                messages: 4,
                bytes: 701 + 64 * 1024
            })
        );
        assert_eq!(
            by_handle.bytes_to(Party::Sdc),
            by_record.bytes_to(Party::Sdc)
        );
        assert_eq!(format!("{by_handle:?}"), format!("{by_record:?}"));
    }

    #[test]
    fn link_counter_stays_attached_across_reset() {
        let m = NetMetrics::new();
        let handle = m.link_counter(Party::Sdc, Party::Stp);
        handle.count_frame(40);
        m.reset();
        assert_eq!(m.link(Party::Sdc, Party::Stp), None);
        assert!(m.snapshot().is_empty());
        handle.count_frame(9);
        m.record(Party::Sdc, Party::Stp, 1);
        assert_eq!(
            m.link(Party::Sdc, Party::Stp),
            Some(LinkStats {
                messages: 2,
                bytes: 10
            })
        );
    }

    /// A handle taken for a link that never carries a frame leaves the
    /// numbers as if it had never been taken.
    #[test]
    fn idle_link_counter_reads_as_absent() {
        let m = NetMetrics::new();
        let _idle = m.link_counter(Party::Pu(1), Party::Sdc);
        m.record(Party::Su(0), Party::Sdc, 3);
        assert_eq!(m.link(Party::Pu(1), Party::Sdc), None);
        assert_eq!(m.snapshot().len(), 1);
        assert_eq!(m.total_messages(), 1);
        assert_eq!(m.bytes_to(Party::Sdc), 3);
        assert_eq!(m.bytes_from(Party::Pu(1)), 0);
    }

    #[test]
    fn one_link_one_counter_however_obtained() {
        let m = NetMetrics::new();
        let a = m.link_counter(Party::Stp, Party::Sdc);
        let b = m.clone().link_counter(Party::Stp, Party::Sdc);
        a.count_frame(5);
        b.clone().count_frame(6);
        m.record(Party::Stp, Party::Sdc, 7);
        assert_eq!(
            m.link(Party::Stp, Party::Sdc),
            Some(LinkStats {
                messages: 3,
                bytes: 18
            })
        );
        assert_eq!(m.snapshot().len(), 1);
    }

    #[test]
    fn link_counters_add_up_across_threads() {
        let m = NetMetrics::new();
        std::thread::scope(|s| {
            for t in 0..4usize {
                let handle = m.link_counter(Party::Su(0), Party::Sdc);
                let m = &m;
                s.spawn(move || {
                    for _ in 0..1000 {
                        handle.count_frame(t + 1);
                        m.record(Party::Sdc, Party::Su(0), 2);
                    }
                });
            }
        });
        assert_eq!(
            m.link(Party::Su(0), Party::Sdc),
            Some(LinkStats {
                messages: 4000,
                bytes: 10_000
            })
        );
        assert_eq!(m.total_messages(), 8000);
        assert_eq!(m.bytes_from(Party::Sdc), 8000);
    }
}
