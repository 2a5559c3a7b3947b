//! The binary wire format for cross-worker traffic.
//!
//! Everything that crosses a worker boundary — BGP advertisements, OSPF
//! advertisements, symbolic packets — is encoded into a self-delimiting
//! byte string and decoded on the far side. The paper uses gRPC with Java
//! serialization; a hand-rolled codec keeps the serialization cost real
//! and observable (the sidecar counts every byte) without pulling in an
//! RPC stack.
//!
//! Layout (all integers big-endian):
//!
//! ```text
//! frame     := len:u32 src:u32 epoch:u32 seq:u64 crc:u32 message
//! message   := tag:u8 body
//! tag       := 1 (BGP) | 2 (OSPF) | 3 (packet)
//! bgp       := target_node:u32 target_session:u32 n:u32 route*
//! route     := prefix_addr:u32 prefix_len:u8 next_hop:u32 local_pref:u32
//!              med:u32 origin:u8 weight:u32 proto:u8
//!              plen:u16 asn:u32{plen} clen:u16 community:u32{clen}
//! ospf      := target_node:u32 via_iface:u16 n:u32 (addr:u32 len:u8 cost:u32)*
//! packet    := src:u32 node:u32 ingress:u16 hops:u16 bddlen:u32 bdd-bytes
//! ```
//!
//! Every message travelling between sidecars is wrapped in a *frame*
//! carrying the sending worker, the controller epoch it was sent in, a
//! per-link sequence number, and a CRC-32 of the message bytes. `len` is
//! the total frame length — redundant over an in-process channel, but it
//! is what makes truncation detectable once the transport is a byte
//! stream, and the receiver verifies it. Decode failures are *per-frame*
//! errors: the receiving sidecar counts and skips the bad frame rather
//! than tearing the worker down.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use s2_dataplane::FinalKind;
use s2_net::policy::Protocol;
use s2_net::topology::{InterfaceId, NodeId};
use s2_net::{Ipv4Addr, Prefix};
use s2_routing::{BgpRoute, Origin, RibRoute, RibSnapshot};

/// Decoded form of a cross-worker message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// A full per-session BGP advertisement.
    BgpAdvertisement {
        /// Receiving node.
        target_node: NodeId,
        /// Session index on the receiving node.
        target_session: u32,
        /// Advertised routes (may be empty — "nothing to advertise" must
        /// still clear the stale Adj-RIB-In).
        routes: Vec<BgpRoute>,
    },
    /// A full OSPF table advertisement.
    OspfAdvertisement {
        /// Receiving node.
        target_node: NodeId,
        /// The interface the advertisement arrives on (receiver side).
        via_iface: InterfaceId,
        /// `(prefix, cost)` pairs.
        entries: Vec<(Prefix, u32)>,
    },
    /// A symbolic packet; the BDD payload must be re-encoded into the
    /// receiving worker's manager.
    Packet {
        /// Injection node.
        src: NodeId,
        /// Receiving node.
        node: NodeId,
        /// Ingress port on the receiving node (`None` = injection).
        ingress: Option<InterfaceId>,
        /// Hops taken so far.
        hops: u16,
        /// Serialized BDD (see [`s2_bdd::serialize`]).
        bdd: Bytes,
    },
}

/// Decoding failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the message was complete.
    Truncated,
    /// An unknown message tag.
    BadTag(u8),
    /// A field held an invalid value.
    BadValue(&'static str),
    /// The frame checksum did not match the payload.
    ChecksumMismatch {
        /// CRC-32 carried by the frame.
        expected: u32,
        /// CRC-32 computed over the received payload.
        actual: u32,
    },
    /// The frame's length field disagrees with the received byte count.
    LengthMismatch {
        /// Length carried by the frame.
        declared: u32,
        /// Bytes actually received.
        received: u32,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated message"),
            WireError::BadTag(t) => write!(f, "unknown message tag {t}"),
            WireError::BadValue(what) => write!(f, "invalid {what}"),
            WireError::ChecksumMismatch { expected, actual } => {
                write!(f, "frame checksum mismatch (expected {expected:#010x}, got {actual:#010x})")
            }
            WireError::LengthMismatch { declared, received } => {
                write!(f, "frame length mismatch (declared {declared}, received {received})")
            }
        }
    }
}

impl std::error::Error for WireError {}

// ---- framing ----

/// Size of the frame header preceding the message bytes.
pub const FRAME_HEADER_LEN: usize = 4 + 4 + 4 + 8 + 4;

const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xedb8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE 802.3 polynomial) over `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xffff_ffffu32;
    for &b in data {
        c = CRC32_TABLE[((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

/// A decoded frame header plus the message payload it guarded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Sending worker.
    pub src: u32,
    /// Controller epoch the frame was sent in.
    pub epoch: u32,
    /// Per-(sender, receiver) sequence number.
    pub seq: u64,
    /// The encoded [`Message`].
    pub payload: Bytes,
}

/// Wraps an encoded message in a checksummed frame.
pub fn frame(src: u32, epoch: u32, seq: u64, payload: &Bytes) -> Bytes {
    let mut buf = BytesMut::with_capacity(FRAME_HEADER_LEN + payload.len());
    buf.put_u32((FRAME_HEADER_LEN + payload.len()) as u32);
    buf.put_u32(src);
    buf.put_u32(epoch);
    buf.put_u64(seq);
    buf.put_u32(crc32(payload));
    buf.put_slice(payload);
    buf.freeze()
}

/// Validates and strips a frame header: length first, then checksum.
pub fn deframe(bytes: Bytes) -> Result<Frame, WireError> {
    if bytes.len() < FRAME_HEADER_LEN {
        return Err(WireError::Truncated);
    }
    let mut buf = bytes.clone();
    let declared = buf.get_u32();
    if declared as usize != bytes.len() {
        return Err(WireError::LengthMismatch {
            declared,
            received: bytes.len() as u32,
        });
    }
    let src = buf.get_u32();
    let epoch = buf.get_u32();
    let seq = buf.get_u64();
    let expected = buf.get_u32();
    let payload = bytes.slice(FRAME_HEADER_LEN..);
    let actual = crc32(&payload);
    if actual != expected {
        return Err(WireError::ChecksumMismatch { expected, actual });
    }
    Ok(Frame {
        src,
        epoch,
        seq,
        payload,
    })
}

// ---- primitive codecs ----
//
// The one set of field codecs every byte format in this crate is built
// from: data frames here, the control channel (`crate::remote`), and
// the admin protocol plus warm checkpoint (`crate::admin`).

pub(crate) fn need(buf: &impl Buf, n: usize) -> Result<(), WireError> {
    if buf.remaining() < n {
        Err(WireError::Truncated)
    } else {
        Ok(())
    }
}

/// `with_capacity` guard: trust the declared element count only up to a
/// sanity bound so a corrupt count cannot pre-allocate gigabytes.
// s2-lint: sanitizer(alloc-bound): the returned count is min-capped at 64 Ki elements, so allocations sized by it are bounded regardless of the peer's declared length.
pub(crate) fn cap(n: usize) -> usize {
    n.min(1 << 16)
}

pub(crate) fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

pub(crate) fn get_str(buf: &mut Bytes) -> Result<String, WireError> {
    need(buf, 4)?;
    let n = buf.get_u32() as usize;
    need(buf, n)?;
    let raw = buf.copy_to_bytes(n);
    String::from_utf8(raw.to_vec()).map_err(|_| WireError::BadValue("utf-8 string"))
}

pub(crate) fn put_prefix(buf: &mut BytesMut, p: &Prefix) {
    buf.put_u32(p.addr().0);
    buf.put_u8(p.len());
}

pub(crate) fn get_prefix(buf: &mut impl Buf) -> Result<Prefix, WireError> {
    need(buf, 5)?;
    let addr = buf.get_u32();
    let len = buf.get_u8();
    if len > 32 {
        return Err(WireError::BadValue("prefix length"));
    }
    Ok(Prefix::new(Ipv4Addr(addr), len))
}

pub(crate) fn put_node_pairs(buf: &mut BytesMut, pairs: &[(NodeId, NodeId)]) {
    buf.put_u32(pairs.len() as u32);
    for (a, b) in pairs {
        buf.put_u32(a.0);
        buf.put_u32(b.0);
    }
}

pub(crate) fn get_node_pairs(buf: &mut impl Buf) -> Result<Vec<(NodeId, NodeId)>, WireError> {
    need(buf, 4)?;
    let n = buf.get_u32() as usize;
    need(buf, n * 8)?;
    Ok((0..n).map(|_| (NodeId(buf.get_u32()), NodeId(buf.get_u32()))).collect())
}

pub(crate) fn put_bool(buf: &mut BytesMut, v: bool) {
    buf.put_u8(u8::from(v));
}

pub(crate) fn get_bool(buf: &mut impl Buf) -> Result<bool, WireError> {
    need(buf, 1)?;
    match buf.get_u8() {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(WireError::BadValue("bool")),
    }
}

pub(crate) fn put_protocol(buf: &mut BytesMut, p: Protocol) {
    buf.put_u8(match p {
        Protocol::Connected => 0,
        Protocol::Static => 1,
        Protocol::Ospf => 2,
        Protocol::Bgp => 3,
        Protocol::Aggregate => 4,
    });
}

pub(crate) fn get_protocol(buf: &mut impl Buf) -> Result<Protocol, WireError> {
    need(buf, 1)?;
    Ok(match buf.get_u8() {
        0 => Protocol::Connected,
        1 => Protocol::Static,
        2 => Protocol::Ospf,
        3 => Protocol::Bgp,
        4 => Protocol::Aggregate,
        _ => return Err(WireError::BadValue("protocol")),
    })
}

pub(crate) fn put_rib_route(buf: &mut BytesMut, r: &RibRoute) {
    put_prefix(buf, &r.prefix);
    put_protocol(buf, r.protocol);
    buf.put_u16(r.egress.len() as u16);
    for e in &r.egress {
        buf.put_u16(e.0);
    }
    put_bool(buf, r.is_local);
    buf.put_u32(r.as_path_len);
}

pub(crate) fn get_rib_route(buf: &mut impl Buf) -> Result<RibRoute, WireError> {
    let prefix = get_prefix(buf)?;
    let protocol = get_protocol(buf)?;
    need(buf, 2)?;
    let n = buf.get_u16() as usize;
    need(buf, n * 2)?;
    let egress = (0..n).map(|_| InterfaceId(buf.get_u16())).collect();
    let is_local = get_bool(buf)?;
    need(buf, 4)?;
    let as_path_len = buf.get_u32();
    Ok(RibRoute {
        prefix,
        protocol,
        egress,
        is_local,
        as_path_len,
    })
}

pub(crate) fn put_rib_snapshot(buf: &mut BytesMut, rib: &RibSnapshot) {
    buf.put_u32(rib.per_node.len() as u32);
    for routes in &rib.per_node {
        buf.put_u32(routes.len() as u32);
        for r in routes {
            put_rib_route(buf, r);
        }
    }
}

pub(crate) fn get_rib_snapshot(buf: &mut impl Buf) -> Result<RibSnapshot, WireError> {
    need(buf, 4)?;
    let nodes = buf.get_u32() as usize;
    let mut per_node = Vec::with_capacity(cap(nodes));
    for _ in 0..nodes {
        need(buf, 4)?;
        let m = buf.get_u32() as usize;
        let mut routes = Vec::with_capacity(cap(m));
        for _ in 0..m {
            routes.push(get_rib_route(buf)?);
        }
        per_node.push(routes);
    }
    Ok(RibSnapshot { per_node })
}

pub(crate) fn put_final_kind(buf: &mut BytesMut, k: FinalKind) {
    buf.put_u8(match k {
        FinalKind::Arrive => 0,
        FinalKind::Exit => 1,
        FinalKind::Blackhole => 2,
        FinalKind::Loop => 3,
    });
}

pub(crate) fn get_final_kind(buf: &mut impl Buf) -> Result<FinalKind, WireError> {
    need(buf, 1)?;
    Ok(match buf.get_u8() {
        0 => FinalKind::Arrive,
        1 => FinalKind::Exit,
        2 => FinalKind::Blackhole,
        3 => FinalKind::Loop,
        _ => return Err(WireError::BadValue("final kind")),
    })
}

/// Encodes one route.
pub fn put_route(buf: &mut BytesMut, r: &BgpRoute) {
    put_prefix(buf, &r.prefix);
    buf.put_u32(r.next_hop.0);
    buf.put_u32(r.local_pref);
    buf.put_u32(r.med);
    buf.put_u8(match r.origin {
        Origin::Igp => 0,
        Origin::Incomplete => 1,
    });
    buf.put_u32(r.weight);
    put_protocol(buf, r.source_protocol);
    buf.put_u16(r.as_path.len() as u16);
    for asn in &r.as_path {
        buf.put_u32(*asn);
    }
    buf.put_u16(r.communities.len() as u16);
    for c in &r.communities {
        buf.put_u32(*c);
    }
}

/// Decodes one route.
pub fn get_route(buf: &mut impl Buf) -> Result<BgpRoute, WireError> {
    need(buf, 4 + 1 + 4 + 4 + 4 + 1 + 4 + 1 + 2)?;
    let prefix = get_prefix(buf)?;
    let next_hop = Ipv4Addr(buf.get_u32());
    let local_pref = buf.get_u32();
    let med = buf.get_u32();
    let origin = match buf.get_u8() {
        0 => Origin::Igp,
        1 => Origin::Incomplete,
        _ => return Err(WireError::BadValue("origin")),
    };
    let weight = buf.get_u32();
    let source_protocol = get_protocol(buf)?;
    let plen = buf.get_u16() as usize;
    need(buf, plen * 4 + 2)?;
    let as_path = (0..plen).map(|_| buf.get_u32()).collect();
    let clen = buf.get_u16() as usize;
    need(buf, clen * 4)?;
    let communities = (0..clen).map(|_| buf.get_u32()).collect();
    Ok(BgpRoute {
        prefix,
        next_hop,
        as_path,
        local_pref,
        med,
        origin,
        communities,
        weight,
        source_protocol,
    })
}

/// Encodes a message into a fresh byte string.
pub fn encode(msg: &Message) -> Bytes {
    let mut buf = BytesMut::with_capacity(64);
    match msg {
        Message::BgpAdvertisement {
            target_node,
            target_session,
            routes,
        } => {
            buf.put_u8(1);
            buf.put_u32(target_node.0);
            buf.put_u32(*target_session);
            buf.put_u32(routes.len() as u32);
            for r in routes {
                put_route(&mut buf, r);
            }
        }
        Message::OspfAdvertisement {
            target_node,
            via_iface,
            entries,
        } => {
            buf.put_u8(2);
            buf.put_u32(target_node.0);
            buf.put_u16(via_iface.0);
            buf.put_u32(entries.len() as u32);
            for (p, cost) in entries {
                buf.put_u32(p.addr().0);
                buf.put_u8(p.len());
                buf.put_u32(*cost);
            }
        }
        Message::Packet {
            src,
            node,
            ingress,
            hops,
            bdd,
        } => {
            buf.put_u8(3);
            buf.put_u32(src.0);
            buf.put_u32(node.0);
            buf.put_u16(ingress.map(|i| i.0).unwrap_or(u16::MAX));
            buf.put_u16(*hops);
            buf.put_u32(bdd.len() as u32);
            buf.put_slice(bdd);
        }
    }
    buf.freeze()
}

/// Decodes a message.
pub fn decode(mut buf: Bytes) -> Result<Message, WireError> {
    need(&buf, 1)?;
    match buf.get_u8() {
        1 => {
            need(&buf, 12)?;
            let target_node = NodeId(buf.get_u32());
            let target_session = buf.get_u32();
            let n = buf.get_u32() as usize;
            let mut routes = Vec::with_capacity(n.min(65536));
            for _ in 0..n {
                routes.push(get_route(&mut buf)?);
            }
            Ok(Message::BgpAdvertisement {
                target_node,
                target_session,
                routes,
            })
        }
        2 => {
            need(&buf, 10)?;
            let target_node = NodeId(buf.get_u32());
            let via_iface = InterfaceId(buf.get_u16());
            let n = buf.get_u32() as usize;
            let mut entries = Vec::with_capacity(n.min(65536));
            for _ in 0..n {
                need(&buf, 9)?;
                let addr = buf.get_u32();
                let len = buf.get_u8();
                if len > 32 {
                    return Err(WireError::BadValue("prefix length"));
                }
                let cost = buf.get_u32();
                entries.push((Prefix::new(Ipv4Addr(addr), len), cost));
            }
            Ok(Message::OspfAdvertisement {
                target_node,
                via_iface,
                entries,
            })
        }
        3 => {
            need(&buf, 16)?;
            let src = NodeId(buf.get_u32());
            let node = NodeId(buf.get_u32());
            let ingress = match buf.get_u16() {
                u16::MAX => None,
                i => Some(InterfaceId(i)),
            };
            let hops = buf.get_u16();
            let blen = buf.get_u32() as usize;
            need(&buf, blen)?;
            let bdd = buf.copy_to_bytes(blen);
            Ok(Message::Packet {
                src,
                node,
                ingress,
                hops,
                bdd,
            })
        }
        t => Err(WireError::BadTag(t)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_route() -> BgpRoute {
        BgpRoute {
            prefix: "10.1.2.0/24".parse().unwrap(),
            next_hop: Ipv4Addr::new(172, 16, 0, 1),
            as_path: vec![65001, 65002, 65001],
            local_pref: 200,
            med: 5,
            origin: Origin::Igp,
            communities: vec![1, 99],
            weight: 0,
            source_protocol: Protocol::Bgp,
        }
    }

    #[test]
    fn bgp_roundtrip() {
        let msg = Message::BgpAdvertisement {
            target_node: NodeId(7),
            target_session: 3,
            routes: vec![sample_route(), BgpRoute::local(
                "0.0.0.0/0".parse().unwrap(),
                Origin::Incomplete,
                Protocol::Static,
            )],
        };
        let bytes = encode(&msg);
        assert_eq!(decode(bytes).unwrap(), msg);
    }

    #[test]
    fn empty_advertisement_roundtrips() {
        let msg = Message::BgpAdvertisement {
            target_node: NodeId(0),
            target_session: 0,
            routes: vec![],
        };
        assert_eq!(decode(encode(&msg)).unwrap(), msg);
    }

    #[test]
    fn ospf_roundtrip() {
        let msg = Message::OspfAdvertisement {
            target_node: NodeId(2),
            via_iface: InterfaceId(5),
            entries: vec![
                ("10.0.0.0/31".parse().unwrap(), 1),
                ("1.1.1.1/32".parse().unwrap(), 10),
            ],
        };
        assert_eq!(decode(encode(&msg)).unwrap(), msg);
    }

    #[test]
    fn packet_roundtrip() {
        let msg = Message::Packet {
            src: NodeId(1),
            node: NodeId(9),
            ingress: Some(InterfaceId(4)),
            hops: 3,
            bdd: Bytes::from_static(&[1, 2, 3, 4]),
        };
        assert_eq!(decode(encode(&msg)).unwrap(), msg);
        let none = Message::Packet {
            src: NodeId(1),
            node: NodeId(9),
            ingress: None,
            hops: 0,
            bdd: Bytes::new(),
        };
        assert_eq!(decode(encode(&none)).unwrap(), none);
    }

    #[test]
    fn truncation_is_detected_everywhere() {
        let msg = Message::BgpAdvertisement {
            target_node: NodeId(7),
            target_session: 3,
            routes: vec![sample_route()],
        };
        let bytes = encode(&msg);
        for cut in 0..bytes.len() {
            assert!(decode(bytes.slice(..cut)).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn bad_tag_rejected() {
        assert_eq!(decode(Bytes::from_static(&[9])), Err(WireError::BadTag(9)));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    }

    #[test]
    fn frame_roundtrips() {
        let payload = encode(&Message::OspfAdvertisement {
            target_node: NodeId(3),
            via_iface: InterfaceId(1),
            entries: vec![("10.0.0.0/24".parse().unwrap(), 5)],
        });
        let framed = frame(2, 7, 41, &payload);
        let f = deframe(framed).unwrap();
        assert_eq!((f.src, f.epoch, f.seq), (2, 7, 41));
        assert_eq!(f.payload, payload);
        assert!(decode(f.payload).is_ok());
    }

    #[test]
    fn corrupted_frame_fails_checksum() {
        let payload = encode(&Message::BgpAdvertisement {
            target_node: NodeId(0),
            target_session: 0,
            routes: vec![sample_route()],
        });
        let framed = frame(0, 0, 0, &payload);
        // Flip the last byte (payload region) — the checksum must catch it.
        let mut raw: Vec<u8> = framed.as_ref().to_vec();
        *raw.last_mut().unwrap() ^= 0xff;
        assert!(matches!(
            deframe(Bytes::from(raw)),
            Err(WireError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn truncated_or_padded_frame_fails_length_check() {
        let payload = encode(&Message::BgpAdvertisement {
            target_node: NodeId(0),
            target_session: 0,
            routes: vec![],
        });
        let framed = frame(0, 0, 0, &payload);
        assert!(matches!(
            deframe(framed.slice(..framed.len() - 1)),
            Err(WireError::LengthMismatch { .. })
        ));
        let mut padded: Vec<u8> = framed.as_ref().to_vec();
        padded.push(0);
        assert!(matches!(
            deframe(Bytes::from(padded)),
            Err(WireError::LengthMismatch { .. })
        ));
        assert_eq!(deframe(Bytes::new()), Err(WireError::Truncated));
    }

    proptest! {
        #[test]
        fn prop_route_roundtrip(
            addr in any::<u32>(),
            len in 0u8..=32,
            nh in any::<u32>(),
            lp in any::<u32>(),
            med in any::<u32>(),
            origin_igp in any::<bool>(),
            path in proptest::collection::vec(any::<u32>(), 0..16),
            comms in proptest::collection::vec(any::<u32>(), 0..8),
            weight in any::<u32>(),
        ) {
            let mut comms = comms;
            comms.sort_unstable();
            comms.dedup();
            let r = BgpRoute {
                prefix: Prefix::new(Ipv4Addr(addr), len),
                next_hop: Ipv4Addr(nh),
                as_path: path,
                local_pref: lp,
                med,
                origin: if origin_igp { Origin::Igp } else { Origin::Incomplete },
                communities: comms,
                weight,
                source_protocol: Protocol::Bgp,
            };
            let mut buf = BytesMut::new();
            put_route(&mut buf, &r);
            let mut b = buf.freeze();
            prop_assert_eq!(get_route(&mut b).unwrap(), r);
            prop_assert_eq!(b.remaining(), 0);
        }

        /// Adversarial input: random byte strings must never panic the
        /// deframer, and (length prefix + CRC) must reject essentially
        /// all of them as frames.
        #[test]
        fn prop_arbitrary_bytes_never_panic_deframe(
            raw in proptest::collection::vec(any::<u8>(), 0..256),
        ) {
            prop_assert!(deframe(Bytes::from(raw)).is_err());
        }

        /// Random byte strings through the message decoder: decoding may
        /// succeed by coincidence (the decoder ignores trailing bytes;
        /// the frame layer owns length integrity), but it must never
        /// panic, and anything it accepts must re-encode decodably.
        #[test]
        fn prop_arbitrary_bytes_never_panic_decode(
            raw in proptest::collection::vec(any::<u8>(), 0..256),
        ) {
            if let Ok(msg) = decode(Bytes::from(raw)) {
                prop_assert_eq!(decode(encode(&msg)).unwrap(), msg);
            }
        }

        /// Any single bit flip in a frame's length field or payload is
        /// caught (`src`/`epoch`/`seq` are metadata outside the CRC; the
        /// sequence/epoch checks one layer up own those).
        #[test]
        fn prop_bitflip_in_frame_is_caught(
            session in any::<u32>(),
            byte_sel in any::<prop::sample::Index>(),
            bit in 0u8..8,
        ) {
            let payload = encode(&Message::BgpAdvertisement {
                target_node: NodeId(3),
                target_session: session,
                routes: vec![sample_route()],
            });
            let framed = frame(1, 2, 3, &payload);
            let mut raw: Vec<u8> = framed.as_ref().to_vec();
            let idx = byte_sel.index(raw.len());
            raw[idx] ^= 1 << bit;
            let result = deframe(Bytes::from(raw));
            if idx < 4 || idx >= FRAME_HEADER_LEN {
                // Length field or payload: must be rejected.
                prop_assert!(result.is_err(), "idx={idx} bit={bit}");
            }
            // Header metadata region: flips pass the CRC by design, but
            // must still not panic (asserted by reaching this line).
        }

        /// A corrupted message body (post-CRC, e.g. memory corruption)
        /// must never panic the decoder.
        #[test]
        fn prop_corrupted_message_never_panics(
            byte_sel in any::<prop::sample::Index>(),
            patch in any::<u8>(),
        ) {
            let bytes = encode(&Message::BgpAdvertisement {
                target_node: NodeId(7),
                target_session: 1,
                routes: vec![sample_route(), sample_route()],
            });
            let mut raw: Vec<u8> = bytes.as_ref().to_vec();
            let idx = byte_sel.index(raw.len());
            raw[idx] = patch;
            let _ = decode(Bytes::from(raw));
        }
    }
}
