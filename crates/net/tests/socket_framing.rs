//! Property-based tests for the TCP framing layer: frames must survive
//! any segmentation the kernel produces (split reads, partial writes,
//! batched deliveries), truncated streams must stay pending rather than
//! yield garbage, and adversarial length prefixes must error before any
//! frame-sized allocation — plus a loopback smoke test driving real
//! sockets through [`SocketNode`].

use pisa_net::codec::{CodecError, Writer, MAX_FRAME_LEN};
use pisa_net::socket::frame::{
    decode_envelope, encode_envelope, write_frame, FrameKind, ENVELOPE_HEADER_BYTES,
};
use pisa_net::socket::FrameBuffer;
use pisa_net::{
    FaultConfig, FaultPlan, FrameCodec, NetMetrics, Party, SocketConfig, SocketEvent, SocketNode,
};
use proptest::prelude::*;

/// Opaque test payload: the socket layer must treat it as raw bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Blob(Vec<u8>);

impl FrameCodec for Blob {
    fn encode_frame(&self) -> Result<bytes::Bytes, CodecError> {
        let mut w = Writer::with_capacity(self.0.len());
        w.put_raw(&self.0);
        Ok(w.finish())
    }

    fn decode_frame(frame: &[u8]) -> Result<Self, CodecError> {
        Ok(Blob(frame.to_vec()))
    }
}

/// Splits `wire` into chunks at the given cut fractions and feeds them
/// to a fresh [`FrameBuffer`], collecting every complete frame.
fn reassemble(wire: &[u8], cuts: &[usize], max_frame: usize) -> Vec<Vec<u8>> {
    let mut fb = FrameBuffer::new(max_frame);
    let mut out = Vec::new();
    let mut cursor = 0usize;
    let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (wire.len() + 1)).collect();
    bounds.push(wire.len());
    bounds.sort_unstable();
    for b in bounds {
        if b > cursor {
            fb.extend(&wire[cursor..b]);
            cursor = b;
        }
        while let Some(frame) = fb.next_frame().expect("well-formed stream") {
            out.push(frame);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any frame sequence, chopped at any positions (1-byte reads, huge
    /// batched reads, anything between), reassembles byte-identically.
    #[test]
    fn frames_survive_arbitrary_segmentation(
        frames in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..200), 1..8),
        cuts in proptest::collection::vec(any::<usize>(), 0..24),
    ) {
        let mut wire = Vec::new();
        for f in &frames {
            write_frame(&mut wire, f, 1 << 16).expect("fits");
        }
        let out = reassemble(&wire, &cuts, 1 << 16);
        prop_assert_eq!(out, frames);
    }

    /// A stream cut short mid-frame yields exactly the complete frames
    /// and keeps the tail pending — no partial frame ever escapes.
    #[test]
    fn truncated_stream_yields_only_complete_frames(
        frames in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..100), 1..6),
        chop in any::<usize>(),
    ) {
        let mut wire = Vec::new();
        let mut ends = Vec::new();
        for f in &frames {
            write_frame(&mut wire, f, 1 << 16).expect("fits");
            ends.push(wire.len());
        }
        let cut = chop % wire.len(); // strictly short of the last byte
        let mut fb = FrameBuffer::new(1 << 16);
        fb.extend(&wire[..cut]);
        let mut got = 0usize;
        while let Some(frame) = fb.next_frame().expect("well-formed prefix") {
            prop_assert_eq!(&frame, &frames[got]);
            got += 1;
        }
        // Exactly the frames whose bytes fully arrived.
        let complete = ends.iter().filter(|e| **e <= cut).count();
        prop_assert_eq!(got, complete);
        // The remainder is buffered, not lost: feed the rest and drain.
        fb.extend(&wire[cut..]);
        while let Some(frame) = fb.next_frame().expect("completed stream") {
            prop_assert_eq!(&frame, &frames[got]);
            got += 1;
        }
        prop_assert_eq!(got, frames.len());
        prop_assert_eq!(fb.pending(), 0);
    }

    /// A length prefix above the ceiling errors as soon as the four
    /// prefix bytes arrive — before the (absent) body could allocate.
    #[test]
    fn oversized_prefix_errors_before_body(
        limit in 1usize..4096,
        excess in 1u32..1 << 20,
    ) {
        let len = u32::try_from(limit).unwrap() + excess;
        let mut fb = FrameBuffer::new(limit);
        fb.extend(&len.to_be_bytes());
        match fb.next_frame() {
            Err(CodecError::Oversized(claimed, max)) => {
                prop_assert_eq!(claimed, u64::from(len));
                prop_assert_eq!(max, limit as u64);
            }
            other => prop_assert!(false, "expected Oversized, got {other:?}"),
        }
    }

    /// Arbitrary garbage never panics the deframer: every outcome is a
    /// frame, a wait-for-more, or a typed error.
    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut fb = FrameBuffer::new(256);
        fb.extend(&bytes);
        while let Ok(Some(_)) = fb.next_frame() {}
    }

    /// Envelope encode/decode round-trips for every kind/party/payload.
    #[test]
    fn envelope_roundtrip(
        kind_data in any::<bool>(),
        from_tag in 0u8..4,
        to_tag in 0u8..4,
        idx in any::<u32>(),
        payload in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let party = |tag: u8| match tag {
            0 => Party::Sdc,
            1 => Party::Stp,
            2 => Party::Pu(idx),
            _ => Party::Su(idx),
        };
        let kind = if kind_data { FrameKind::Data } else { FrameKind::Shutdown };
        let wire = encode_envelope(kind, party(from_tag), party(to_tag), &payload);
        prop_assert_eq!(wire.len(), ENVELOPE_HEADER_BYTES + payload.len());
        let env = decode_envelope(&wire).expect("own encoding");
        prop_assert_eq!(env.kind, kind);
        prop_assert_eq!(env.from, party(from_tag));
        prop_assert_eq!(env.to, party(to_tag));
        prop_assert_eq!(env.payload, payload);
    }

    /// A bit flip anywhere in the envelope either still decodes (the
    /// protocol layer must reject it) or errors — never panics.
    #[test]
    fn flipped_envelope_never_panics(
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        bit in any::<usize>(),
    ) {
        let mut wire = encode_envelope(FrameKind::Data, Party::Su(3), Party::Sdc, &payload);
        let nbits = wire.len() * 8;
        let bit = bit % nbits;
        wire[bit / 8] ^= 1 << (bit % 8);
        let _ = decode_envelope(&wire);
    }
}

#[test]
fn default_ceiling_is_the_codec_ceiling() {
    assert_eq!(SocketConfig::default().max_frame, MAX_FRAME_LEN);
}

/// Loopback smoke test over real sockets: a client node dials a bound
/// server node, the server replies over the learned route, and an
/// in-band shutdown frame arrives as a [`SocketEvent::Shutdown`].
#[test]
fn loopback_request_reply_shutdown() {
    use std::time::Duration;

    let server: SocketNode<Blob> =
        SocketNode::new(Party::Sdc, SocketConfig::default(), NetMetrics::new(), None);
    let addr = server.bind("127.0.0.1:0").expect("bind").to_string();

    let client: SocketNode<Blob> = SocketNode::new(
        Party::Su(5),
        SocketConfig::default(),
        NetMetrics::new(),
        None,
    );
    client.add_peer(Party::Sdc, &addr);

    client
        .send_from(Party::Su(5), Party::Sdc, &Blob(b"ping".to_vec()))
        .expect("send");
    let Some(SocketEvent::Frame(env)) = server.recv_timeout(Duration::from_secs(10)) else {
        panic!("server never received the request");
    };
    assert_eq!(env.from, Party::Su(5));
    assert_eq!(env.payload, Blob(b"ping".to_vec()));

    // Reply via the learned route — the server has no static peers.
    server
        .send_from(Party::Sdc, Party::Su(5), &Blob(b"pong".to_vec()))
        .expect("reply");
    let Some(SocketEvent::Frame(env)) = client.recv_timeout(Duration::from_secs(10)) else {
        panic!("client never received the reply");
    };
    assert_eq!(env.payload, Blob(b"pong".to_vec()));

    client.send_shutdown(Party::Sdc).expect("shutdown");
    let Some(SocketEvent::Shutdown(from)) = server.recv_timeout(Duration::from_secs(10)) else {
        panic!("server never received the shutdown");
    };
    assert_eq!(from, Party::Su(5));

    client.stop();
    server.stop();
}

/// Byte accounting matches on both ends of a clean loopback exchange.
#[test]
fn loopback_metrics_account_payload_bytes() {
    use std::time::Duration;

    let server: SocketNode<Blob> =
        SocketNode::new(Party::Stp, SocketConfig::default(), NetMetrics::new(), None);
    let addr = server.bind("127.0.0.1:0").expect("bind").to_string();
    let client: SocketNode<Blob> =
        SocketNode::new(Party::Sdc, SocketConfig::default(), NetMetrics::new(), None);
    client.add_peer(Party::Stp, &addr);

    let payload = Blob(vec![0xa5; 1000]);
    client
        .send_from(Party::Sdc, Party::Stp, &payload)
        .expect("send");
    assert!(matches!(
        server.recv_timeout(Duration::from_secs(10)),
        Some(SocketEvent::Frame(_))
    ));
    assert_eq!(client.metrics().total_bytes(), 1000);
    assert_eq!(server.metrics().total_bytes(), 1000);
    client.stop();
    server.stop();
}

/// A frame the reorder stage is holding when a node stops is written on
/// the way out, not stranded: it reaches the peer only after `stop()`.
#[test]
fn stop_flushes_a_held_back_frame() {
    use std::time::Duration;

    let server: SocketNode<Blob> =
        SocketNode::new(Party::Sdc, SocketConfig::default(), NetMetrics::new(), None);
    let addr = server.bind("127.0.0.1:0").expect("bind").to_string();
    // SU2's link reorders every frame; SU1's quiet link only opens the
    // pooled connection that `stop` writes over (it never dials).
    let faults = FaultConfig::new(11)
        .with_default_plan(FaultPlan::none().with_reorder(1.0))
        .with_link(Party::Su(1), Party::Sdc, FaultPlan::none());
    let client: SocketNode<Blob> = SocketNode::new(
        Party::Su(1),
        SocketConfig::default(),
        NetMetrics::new(),
        Some(faults),
    );
    client.add_peer(Party::Sdc, &addr);

    client
        .send_from(Party::Su(1), Party::Sdc, &Blob(b"open".to_vec()))
        .expect("send");
    client
        .send_from(Party::Su(2), Party::Sdc, &Blob(b"held".to_vec()))
        .expect("send");
    let Some(SocketEvent::Frame(env)) = server.recv_timeout(Duration::from_secs(10)) else {
        panic!("the quiet link's frame never arrived");
    };
    assert_eq!(env.payload, Blob(b"open".to_vec()));
    assert!(
        server.recv_timeout(Duration::from_millis(200)).is_none(),
        "the reorder stage holds SU2's only frame back"
    );
    assert_eq!(client.metrics().fault_totals().reordered, 1);
    assert!(client.metrics().link(Party::Su(2), Party::Sdc).is_none());

    client.stop();
    let Some(SocketEvent::Frame(env)) = server.recv_timeout(Duration::from_secs(10)) else {
        panic!("the held frame never arrived after stop");
    };
    assert_eq!(
        (env.from, env.payload),
        (Party::Su(2), Blob(b"held".to_vec()))
    );
    let flushed = client.metrics().link(Party::Su(2), Party::Sdc);
    assert_eq!(flushed.map(|l| l.bytes), Some(4));
    server.stop();
}
