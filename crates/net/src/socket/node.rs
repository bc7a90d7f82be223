//! A TCP node: listener, per-peer connection pool, reader threads.
//!
//! One [`SocketNode`] serves a whole process, whichever PISA roles it
//! hosts. Outbound routes come from two places:
//!
//! * **dialed peers** — static addresses registered with
//!   [`add_peer`](SocketNode::add_peer), connected lazily with capped
//!   exponential backoff and redialed once after a write failure;
//! * **learned routes** — every inbound data frame maps its `from`
//!   party to the connection it arrived on, so servers reply to clients
//!   without any static configuration (latest connection wins).
//!
//! Each live connection has exactly one reader thread deframing with a
//! [`FrameBuffer`] and pushing decoded messages onto the node's inbound
//! queue; writes from any thread serialize on a per-connection mutex.
//! Shutdown is in-band (a control frame), so a remote operator can
//! drain a fleet gracefully: the accept loop polls a stop flag, reader
//! threads wake on their read timeout and exit.
//!
//! Outbound data frames run through the shared
//! [`FaultPipeline`](crate::FaultPipeline) as **encoded envelope
//! bytes**, just before they are written. Corruption flips one
//! tweak-chosen bit of the *payload* region — the exact bytes the
//! simulator's corruption oracle flips — and keeps the frame only if the
//! payload still decodes; otherwise the frame is absorbed like a drop.

use super::frame::{
    decode_envelope, encode_envelope, write_frame, FrameBuffer, FrameCodec, FrameKind,
    ENVELOPE_HEADER_BYTES,
};
use super::{SocketConfig, SocketError};
use crate::fault::{FaultConfig, FaultPipeline};
use crate::metrics::NetMetrics;
use crate::transport::{Envelope, Party};
use crate::WireSize;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What a node's inbound queue yields.
#[derive(Debug)]
pub enum SocketEvent<M> {
    /// A decoded protocol message.
    Frame(Envelope<M>),
    /// A peer asked this node to shut down gracefully.
    Shutdown(Party),
}

/// An encoded data envelope on its way out. Its wire size is the
/// payload alone: the byte counters and the latency model both leave
/// the envelope header out.
#[derive(Clone)]
struct EnvelopeBytes(Vec<u8>);

impl WireSize for EnvelopeBytes {
    fn wire_bytes(&self) -> usize {
        self.0.len().saturating_sub(ENVELOPE_HEADER_BYTES)
    }
}

/// The socket corruption oracle: flips the tweak-chosen bit of the
/// envelope's payload region (never the header) and keeps the frame
/// only if the payload still decodes as an `M`.
fn corrupt_envelope<M: FrameCodec>(frame: &EnvelopeBytes, tweak: u64) -> Option<EnvelopeBytes> {
    let nbits = (frame.wire_bytes() as u64).saturating_mul(8);
    if nbits == 0 {
        return None;
    }
    let bit = usize::try_from(tweak % nbits).unwrap_or(0);
    let mut mangled = frame.0.clone();
    let byte = mangled.get_mut(ENVELOPE_HEADER_BYTES + bit / 8)?;
    *byte ^= 1 << (bit % 8);
    let payload = mangled.get(ENVELOPE_HEADER_BYTES..)?;
    M::decode_frame(payload)
        .is_ok()
        .then_some(EnvelopeBytes(mangled))
}

/// A pooled write handle onto one TCP connection.
#[derive(Clone)]
struct Conn {
    stream: Arc<Mutex<TcpStream>>,
}

struct NodeInner<M> {
    party: Party,
    cfg: SocketConfig,
    metrics: NetMetrics,
    faults: Option<Mutex<FaultPipeline<EnvelopeBytes>>>,
    /// Write halves by party: learned from inbound frames or dialed.
    routes: Mutex<HashMap<Party, Conn>>,
    /// Static dial addresses for peers this node initiates to.
    peers: Mutex<HashMap<Party, String>>,
    inbound_tx: Sender<SocketEvent<M>>,
    inbound_rx: Receiver<SocketEvent<M>>,
    stop: AtomicBool,
    local_addr: Mutex<Option<SocketAddr>>,
}

/// One process's handle onto the PISA TCP fabric. Cheap to clone; all
/// clones share the pool, metrics and inbound queue.
pub struct SocketNode<M> {
    inner: Arc<NodeInner<M>>,
}

impl<M> Clone for SocketNode<M> {
    fn clone(&self) -> Self {
        SocketNode {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<M> std::fmt::Debug for SocketNode<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SocketNode({})", self.inner.party)
    }
}

impl<M: FrameCodec + Send + 'static> SocketNode<M> {
    /// A node identified as `party`, with optional fault injection on
    /// its outbound traffic; faults are counted into `metrics`.
    pub fn new(
        party: Party,
        cfg: SocketConfig,
        metrics: NetMetrics,
        faults: Option<FaultConfig>,
    ) -> Self {
        let faults = faults.map(|config| {
            let mut pipeline = FaultPipeline::new(config, 0.0, metrics.clone());
            pipeline.set_corruptor(Arc::new(corrupt_envelope::<M>));
            Mutex::new(pipeline)
        });
        let (inbound_tx, inbound_rx) = unbounded();
        SocketNode {
            inner: Arc::new(NodeInner {
                party,
                cfg,
                metrics,
                faults,
                routes: Mutex::new(HashMap::new()),
                peers: Mutex::new(HashMap::new()),
                inbound_tx,
                inbound_rx,
                stop: AtomicBool::new(false),
                local_addr: Mutex::new(None),
            }),
        }
    }

    /// This node's own address.
    pub fn party(&self) -> Party {
        self.inner.party
    }

    /// The shared traffic metrics.
    pub fn metrics(&self) -> &NetMetrics {
        &self.inner.metrics
    }

    /// The bound listen address, once [`bind`](Self::bind) succeeded.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        *self.inner.local_addr.lock()
    }

    /// `true` once [`stop`](Self::stop) was called or a shutdown frame
    /// was processed by a service loop that called it.
    pub fn stopping(&self) -> bool {
        self.inner.stop.load(Ordering::SeqCst)
    }

    /// Registers the dial address for a peer this node initiates to.
    pub fn add_peer(&self, party: Party, addr: impl Into<String>) {
        self.inner.peers.lock().insert(party, addr.into());
    }

    /// Binds a listener and spawns the accept loop.
    ///
    /// Accepted connections get a reader thread each; their sender
    /// parties become reply routes as frames arrive.
    ///
    /// # Errors
    ///
    /// Any I/O error from binding.
    pub fn bind(&self, addr: &str) -> Result<SocketAddr, SocketError> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        *self.inner.local_addr.lock() = Some(local);
        let inner = Arc::clone(&self.inner);
        std::thread::spawn(move || accept_loop(&inner, &listener));
        Ok(local)
    }

    /// Sends `msg` from `from` to `to`, running outbound faults.
    ///
    /// A process may host many parties (e.g. 16 SU sessions pooled over
    /// one connection), so the sender address is explicit.
    ///
    /// # Errors
    ///
    /// [`SocketError::NoRoute`] if `to` is neither a registered peer
    /// nor a learned route, codec errors from encoding, or the I/O
    /// error after a failed write + redial.
    pub fn send_from(&self, from: Party, to: Party, msg: &M) -> Result<(), SocketError> {
        let payload = msg.encode_frame()?;
        let frame = EnvelopeBytes(encode_envelope(FrameKind::Data, from, to, &payload));
        let Some(faults) = &self.inner.faults else {
            return self.write_data(from, to, &frame);
        };
        let mut frames = Vec::with_capacity(3);
        let (wire, _) = faults.lock().inject(from, to, frame, &mut frames);
        std::thread::sleep(wire);
        for frame in &frames {
            self.write_data(from, to, frame)?;
        }
        Ok(())
    }

    /// Sends an in-band shutdown request to `to` (bypasses faults:
    /// control frames must not be dropped by chaos knobs).
    ///
    /// # Errors
    ///
    /// Same as [`send_from`](Self::send_from).
    pub fn send_shutdown(&self, to: Party) -> Result<(), SocketError> {
        let frame = encode_envelope(FrameKind::Shutdown, self.inner.party, to, &[]);
        self.write_to(to, &frame)
    }

    /// Receives the next inbound event, waiting up to `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<SocketEvent<M>> {
        self.inner.inbound_rx.recv_timeout(timeout).ok()
    }

    /// Asks the accept loop and every reader thread to wind down (they
    /// notice within one read-poll interval), then writes any frames
    /// the reorder stage still holds, best effort, over the routes
    /// already open: once the stop flag is up a dial fails at once, so
    /// shutdown never waits on a redial.
    pub fn stop(&self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        let Some(faults) = &self.inner.faults else {
            return;
        };
        let held = faults.lock().drain_held();
        for ((from, to), frame) in held {
            let _ = self.write_data(from, to, &frame);
        }
    }

    /// Counts one data envelope's payload bytes, then writes it. A frame
    /// counts once it is handed to the socket, so a peer can never act on
    /// a frame its sender has not counted yet (a failed write stays
    /// counted).
    fn write_data(&self, from: Party, to: Party, frame: &EnvelopeBytes) -> Result<(), SocketError> {
        self.inner.metrics.record(from, to, frame.wire_bytes());
        self.write_to(to, &frame.0)
    }

    fn write_to(&self, to: Party, frame: &[u8]) -> Result<(), SocketError> {
        let conn = self.route_or_dial(to)?;
        let first = {
            let _span = pisa_obs::span("net.write");
            let mut stream = conn.stream.lock();
            // pisa-lint: allow(blocking-call): the mutex exists to serialize frame writes; the write is bounded by cfg.write_timeout set on every stream at dial/accept
            write_frame(&mut *stream, frame, self.inner.cfg.max_frame)
        };
        let Err(err) = first else {
            return Ok(());
        };
        // One redial for dialed peers; learned routes cannot be redialed
        // (the peer connects to us), so the failure surfaces and the
        // protocol's retry budget covers the lost frame.
        self.inner.routes.lock().remove(&to);
        if !self.inner.peers.lock().contains_key(&to) {
            return Err(err);
        }
        let conn = self.route_or_dial(to)?;
        let _span = pisa_obs::span("net.write");
        let mut stream = conn.stream.lock();
        // pisa-lint: allow(blocking-call): same as above — bounded by cfg.write_timeout on the redialed stream
        write_frame(&mut *stream, frame, self.inner.cfg.max_frame)
    }

    fn route_or_dial(&self, to: Party) -> Result<Conn, SocketError> {
        if let Some(conn) = self.inner.routes.lock().get(&to) {
            return Ok(conn.clone());
        }
        let addr = self
            .inner
            .peers
            .lock()
            .get(&to)
            .cloned()
            .ok_or(SocketError::NoRoute(to))?;
        let stream = self.dial(&addr)?;
        let conn = Conn {
            stream: Arc::new(Mutex::new(stream.try_clone()?)),
        };
        // Replies to a dialed peer come back on the same connection, so
        // it needs a reader thread just like an accepted one.
        let inner = Arc::clone(&self.inner);
        std::thread::spawn(move || reader_loop(&inner, stream));
        self.inner.routes.lock().insert(to, conn.clone());
        Ok(conn)
    }

    fn dial(&self, addr: &str) -> Result<TcpStream, SocketError> {
        let cfg = &self.inner.cfg;
        let mut last = SocketError::Io(std::io::ErrorKind::NotConnected);
        for attempt in 0..cfg.connect_attempts.max(1) {
            if self.stopping() {
                return Err(SocketError::Stopped);
            }
            let _span = pisa_obs::span("net.connect");
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(Some(cfg.read_poll))?;
                    stream.set_write_timeout(Some(cfg.write_timeout))?;
                    return Ok(stream);
                }
                Err(e) => last = SocketError::from(e),
            }
            let shift = attempt.min(4);
            std::thread::sleep(cfg.connect_backoff * (1 << shift));
        }
        Err(last)
    }
}

fn accept_loop<M: FrameCodec + Send + 'static>(inner: &Arc<NodeInner<M>>, listener: &TcpListener) {
    while !inner.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _span = pisa_obs::span("net.accept");
                // The listener is non-blocking; accepted streams must
                // block (with a poll timeout) for the reader thread.
                let ready = stream.set_nonblocking(false).is_ok()
                    && stream.set_nodelay(true).is_ok()
                    && stream.set_read_timeout(Some(inner.cfg.read_poll)).is_ok()
                    && stream
                        .set_write_timeout(Some(inner.cfg.write_timeout))
                        .is_ok();
                if !ready {
                    continue;
                }
                let inner = Arc::clone(inner);
                std::thread::spawn(move || reader_loop(&inner, stream));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(inner.cfg.accept_poll);
            }
            Err(_) => std::thread::sleep(inner.cfg.accept_poll),
        }
    }
}

/// Deframes one connection until EOF, error, or node stop. Every data
/// frame learns a reply route and lands on the inbound queue; frames
/// whose payload fails to decode are discarded (genuine wire damage —
/// injected corruption is classified on the sender side).
fn reader_loop<M: FrameCodec + Send + 'static>(inner: &Arc<NodeInner<M>>, mut stream: TcpStream) {
    let write_half = match stream.try_clone() {
        Ok(clone) => Conn {
            stream: Arc::new(Mutex::new(clone)),
        },
        Err(_) => return,
    };
    let mut fb = FrameBuffer::new(inner.cfg.max_frame);
    let mut chunk = vec![0u8; inner.cfg.read_chunk.max(1)];
    while !inner.stop.load(Ordering::SeqCst) {
        let n = match stream.read(&mut chunk) {
            Ok(0) => return, // clean EOF
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        };
        let _span = pisa_obs::span("net.read");
        let Some(received) = chunk.get(..n) else {
            return;
        };
        fb.extend(received);
        loop {
            let frame = match fb.next_frame() {
                Ok(Some(frame)) => frame,
                Ok(None) => break,
                // Oversized prefix: the stream is poisoned, close it.
                Err(_) => return,
            };
            let Ok(env) = decode_envelope(&frame) else {
                continue;
            };
            match env.kind {
                FrameKind::Shutdown => {
                    let _ = inner.inbound_tx.send(SocketEvent::Shutdown(env.from));
                }
                FrameKind::Data => {
                    inner.routes.lock().insert(env.from, write_half.clone());
                    inner.metrics.record(env.from, env.to, env.payload.len());
                    let Ok(msg) = M::decode_frame(&env.payload) else {
                        continue;
                    };
                    let _ = inner.inbound_tx.send(SocketEvent::Frame(Envelope {
                        from: env.from,
                        to: env.to,
                        payload: msg,
                    }));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::CodecError;
    use crate::fault::FaultPlan;

    /// Accepts only all-zero payloads, so every bit flip is unparseable.
    struct Zeros;

    impl FrameCodec for Zeros {
        fn encode_frame(&self) -> Result<bytes::Bytes, CodecError> {
            Ok(bytes::Bytes::new())
        }

        fn decode_frame(frame: &[u8]) -> Result<Self, CodecError> {
            if frame.iter().all(|&b| b == 0) {
                Ok(Zeros)
            } else {
                Err(CodecError::Invalid("nonzero payload".into()))
            }
        }
    }

    /// Accepts any payload, so every bit flip survives.
    struct Anything;

    impl FrameCodec for Anything {
        fn encode_frame(&self) -> Result<bytes::Bytes, CodecError> {
            Ok(bytes::Bytes::new())
        }

        fn decode_frame(_: &[u8]) -> Result<Self, CodecError> {
            Ok(Anything)
        }
    }

    /// An envelope pipeline as [`SocketNode::new`] builds one for `M`.
    fn pipeline<M: FrameCodec + 'static>(
        plan: FaultPlan,
        metrics: &NetMetrics,
    ) -> FaultPipeline<EnvelopeBytes> {
        let config = FaultConfig::new(7).with_default_plan(plan);
        let mut pipeline = FaultPipeline::new(config, 0.0, metrics.clone());
        pipeline.set_corruptor(Arc::new(corrupt_envelope::<M>));
        pipeline
    }

    fn envelope(payload: &[u8]) -> EnvelopeBytes {
        EnvelopeBytes(encode_envelope(
            FrameKind::Data,
            Party::Su(0),
            Party::Sdc,
            payload,
        ))
    }

    #[test]
    fn corruption_flips_exactly_one_payload_bit() {
        let metrics = NetMetrics::new();
        let mut p = pipeline::<Anything>(FaultPlan::none().with_corrupt(1.0), &metrics);
        let frame = envelope(&[0u8; 8]);
        let mut out = Vec::new();
        p.inject(Party::Su(0), Party::Sdc, frame.clone(), &mut out);
        assert_eq!(out.len(), 1);
        let (header, payload) = out[0].0.split_at(ENVELOPE_HEADER_BYTES);
        assert_eq!(
            header,
            &frame.0[..ENVELOPE_HEADER_BYTES],
            "header untouched"
        );
        assert_eq!(payload.iter().map(|b| b.count_ones()).sum::<u32>(), 1);
        assert_eq!(metrics.fault_totals().corrupted, 1);
    }

    #[test]
    fn unparseable_corruption_is_absorbed() {
        let metrics = NetMetrics::new();
        let mut p = pipeline::<Zeros>(FaultPlan::none().with_corrupt(1.0), &metrics);
        let mut out = Vec::new();
        p.inject(Party::Su(0), Party::Sdc, envelope(&[0u8; 8]), &mut out);
        // An empty payload has no bit to flip: absorbed as well.
        p.inject(Party::Su(0), Party::Sdc, envelope(&[]), &mut out);
        assert!(out.is_empty());
        assert_eq!(metrics.fault_totals().corrupt_dropped, 2);
    }

    #[test]
    fn drain_recovers_stranded_envelope() {
        let metrics = NetMetrics::new();
        let mut p = pipeline::<Anything>(FaultPlan::none().with_reorder(1.0), &metrics);
        let frame = envelope(b"stranded");
        let mut out = Vec::new();
        p.inject(Party::Su(0), Party::Sdc, frame.clone(), &mut out);
        assert!(out.is_empty());
        let held: Vec<_> = p.drain_held().map(|(link, f)| (link, f.0)).collect();
        assert_eq!(held, vec![((Party::Su(0), Party::Sdc), frame.0)]);
    }
}
