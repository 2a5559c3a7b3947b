//! The binary wire format for cross-worker traffic.
//!
//! Everything that crosses a worker boundary — BGP advertisements, OSPF
//! advertisements, symbolic packets — is encoded into a self-delimiting
//! byte string and decoded on the far side. The paper uses gRPC with Java
//! serialization; a hand-rolled codec keeps the serialization cost real
//! and observable (the sidecar counts every byte) without pulling in an
//! RPC stack. The messages are [`Wire`] values built from the crate's
//! one codec ([`crate::codec`]); this module adds the frame around them.
//!
//! Layout (all integers big-endian):
//!
//! ```text
//! frame     := len:u32 src:u32 epoch:u32 seq:u64 crc:u32 message
//! message   := tag:u8 body
//! tag       := 1 (BGP) | 2 (OSPF) | 4 (BGP, shared body) | 6 (packet batch)
//! bgp       := target_node:u32 target_session:u32 n:u32 route*
//! bgp_class := t:u32 (target_node:u32 target_session:u32){t} n:u32 route*
//! route     := prefix_addr:u32 prefix_len:u8 next_hop:u32 local_pref:u32
//!              med:u32 origin:u8 weight:u32 proto:u8
//!              plen:u16 asn:u32{plen} clen:u16 community:u32{clen}
//! ospf      := target_node:u32 via_iface:u16 n:u32 (addr:u32 len:u8 cost:u32)*
//! batch     := n:u32 (bddlen:u32 bdd-bytes){n} m:u32 packet{m}
//! packet    := node:u32 ingress:u16 hops:u16 bdd_index:u32
//! ```
//!
//! Tag 3 (one symbolic packet per frame, its BDD inline) and tag 5 (a
//! batch whose packets also named their injection source, from before a
//! packet carried every source's traffic in its source-id bits) are
//! retired: their bytes fail as an unknown tag.
//!
//! Every message travelling between sidecars is wrapped in a *frame*
//! carrying the sending worker, the controller epoch it was sent in, a
//! per-link sequence number, and a CRC-32 of the message bytes. `len` is
//! the total frame length — redundant over an in-process channel, but it
//! is what makes truncation detectable once the transport is a byte
//! stream, and the receiver verifies it. Decode failures are *per-frame*
//! errors: the receiving sidecar counts and skips the bad frame rather
//! than tearing the worker down.

// r1: peer bytes reach this module, so nothing here may panic on them
// (DESIGN.md § "Static analysis"); tests are exempt (clippy.toml).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]
#![deny(clippy::todo, clippy::unimplemented, clippy::indexing_slicing)]

use crate::codec::{cap, need, put_seq16, take_seq16, wire_struct, Wire};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use s2_net::topology::{InterfaceId, NodeId};
use s2_net::Prefix;
use s2_routing::{BgpRoute, RibRoute, RibSnapshot};
use std::sync::Arc;

/// Decoded form of a cross-worker message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// A full per-session BGP advertisement. Nothing sends it any more;
    /// it decodes into the same one-body/many-targets delivery as
    /// [`Message::BgpClassAdvertisement`], with a single target.
    BgpAdvertisement {
        /// Receiving node.
        target_node: NodeId,
        /// Session index on the receiving node.
        target_session: u32,
        /// Advertised routes (may be empty — "nothing to advertise" must
        /// still clear the stale Adj-RIB-In).
        routes: Vec<BgpRoute>,
    },
    /// A full BGP advertisement of one export class (see
    /// `SwitchModel::bgp_export`) to every listed session on the
    /// receiving worker: encoded once, decoded once, one shared body.
    BgpClassAdvertisement {
        /// `(receiving node, session index on it)`, all hosted by the
        /// frame's destination worker; never empty.
        targets: Vec<(NodeId, u32)>,
        /// Advertised routes (may be empty, as for tag 1), next hop
        /// unspecified: each receiver writes its own session's.
        routes: Arc<[BgpRoute]>,
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
    /// One forward round's symbolic packets for every node of the
    /// destination worker: each distinct BDD once, re-encoded into the
    /// receiving worker's manager once per frame. Each BDD carries the
    /// source-id bits of the sources whose traffic it is.
    PacketBatch {
        /// Serialized BDDs (see [`s2_bdd::serialize`]).
        bdds: Vec<Bytes>,
        /// The packets, each naming its BDD by index into `bdds`.
        packets: Vec<PacketRef>,
    },
}

/// One symbolic packet of a [`Message::PacketBatch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketRef {
    /// Receiving node.
    pub node: NodeId,
    /// Ingress class on the receiving node, as its lowest port
    /// (`None` = injection).
    pub ingress: Option<InterfaceId>,
    /// Hops taken so far.
    pub hops: u16,
    /// Index of the packet's set in the batch's `bdds`.
    pub bdd: u32,
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

/// The slicing-by-8 tables: `CRC32_TABLES[0]` is the bytewise table,
/// and `CRC32_TABLES[k][b]` is `CRC32_TABLES[0][b]` carried through `k`
/// more zero bytes, so eight lookups advance the CRC by eight bytes.
#[expect(
    clippy::indexing_slicing,
    reason = "evaluated at compile time over constant bounds: i < 256, k < 8, a masked byte"
)]
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xedb8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            k += 1;
        }
        i += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3 polynomial) over `data`, eight bytes per step.
#[expect(
    clippy::indexing_slicing,
    reason = "constant table rows and `byte` masks to 0..=255: every index is in bounds"
)]
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let byte = |x: u32, shift: u32| ((x >> shift) & 0xff) as usize;
    let (words, rest) = data.as_chunks::<8>();
    let mut c = 0xffff_ffffu32;
    for &[b0, b1, b2, b3, b4, b5, b6, b7] in words {
        let lo = c ^ u32::from_le_bytes([b0, b1, b2, b3]);
        let hi = u32::from_le_bytes([b4, b5, b6, b7]);
        c = t[7][byte(lo, 0)]
            ^ t[6][byte(lo, 8)]
            ^ t[5][byte(lo, 16)]
            ^ t[4][byte(lo, 24)]
            ^ t[3][byte(hi, 0)]
            ^ t[2][byte(hi, 8)]
            ^ t[1][byte(hi, 16)]
            ^ t[0][byte(hi, 24)];
    }
    for &b in rest {
        c = t[0][byte(c ^ u32::from(b), 0)] ^ (c >> 8);
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

// ---- message codec ----
//
// Built from the crate's one codec (`crate::codec`); what is spelled
// out here is only what deviates from its generic rules.

impl Wire for RibRoute {
    fn put(&self, buf: &mut BytesMut) {
        self.prefix.put(buf);
        self.protocol.put(buf);
        put_seq16(&self.egress, buf);
        self.is_local.put(buf);
        self.as_path_len.put(buf);
    }
    fn take(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(RibRoute {
            prefix: Wire::take(buf)?,
            protocol: Wire::take(buf)?,
            egress: take_seq16(buf)?,
            is_local: Wire::take(buf)?,
            as_path_len: Wire::take(buf)?,
        })
    }
}

wire_struct!(RibSnapshot { per_node });

// Wire order differs from the struct's field order, and both attribute
// lists are `u16`-counted.
impl Wire for BgpRoute {
    #[inline]
    fn put(&self, buf: &mut BytesMut) {
        self.prefix.put(buf);
        self.next_hop.put(buf);
        self.local_pref.put(buf);
        self.med.put(buf);
        self.origin.put(buf);
        self.weight.put(buf);
        self.source_protocol.put(buf);
        put_seq16(&self.as_path, buf);
        put_seq16(&self.communities, buf);
    }
    #[inline]
    fn take(buf: &mut Bytes) -> Result<Self, WireError> {
        take_route(buf, None)
    }
    /// Decodes a class body, sharing equal attribute lists between
    /// neighbours. A count beyond the bytes of that many shortest routes
    /// fails before it sizes anything.
    fn take_shared(buf: &mut Bytes, n: usize) -> Result<Arc<[Self]>, WireError> {
        need(buf, n.saturating_mul(MIN_ROUTE_WIRE))?;
        let mut routes: Vec<BgpRoute> = Vec::with_capacity(cap(n, buf));
        for _ in 0..n {
            let route = take_route(buf, routes.last())?;
            routes.push(route);
        }
        Ok(routes.into())
    }
}

/// The fewest bytes a route takes on the wire: its fixed fields and two
/// empty list counts.
const MIN_ROUTE_WIRE: usize = 27;

// Not the generic `Option`: "injected, no ingress port" is the
// `u16::MAX` sentinel, one fixed packet header for both.
impl Wire for PacketRef {
    #[inline]
    fn put(&self, buf: &mut BytesMut) {
        self.node.put(buf);
        self.ingress.map_or(u16::MAX, |i| i.0).put(buf);
        self.hops.put(buf);
        self.bdd.put(buf);
    }
    #[inline]
    fn take(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(PacketRef {
            node: Wire::take(buf)?,
            ingress: match u16::take(buf)? {
                u16::MAX => None,
                i => Some(InterfaceId(i)),
            },
            hops: Wire::take(buf)?,
            bdd: Wire::take(buf)?,
        })
    }
    /// A count beyond the bytes of that many packets fails before it
    /// sizes anything.
    fn take_seq(buf: &mut Bytes, n: usize) -> Result<Vec<Self>, WireError> {
        need(buf, n.saturating_mul(PACKET_REF_WIRE))?;
        let mut packets = Vec::with_capacity(cap(n, buf));
        for _ in 0..n {
            packets.push(Self::take(buf)?);
        }
        Ok(packets)
    }
}

/// The bytes of one packet of a batch.
const PACKET_REF_WIRE: usize = 12;

/// One route; an attribute list equal to `prev`'s is `prev`'s list.
fn take_route(buf: &mut Bytes, prev: Option<&BgpRoute>) -> Result<BgpRoute, WireError> {
    Ok(BgpRoute {
        prefix: Wire::take(buf)?,
        next_hop: Wire::take(buf)?,
        local_pref: Wire::take(buf)?,
        med: Wire::take(buf)?,
        origin: Wire::take(buf)?,
        weight: Wire::take(buf)?,
        source_protocol: Wire::take(buf)?,
        as_path: take_list16(buf, prev.map(|p| &p.as_path))?,
        communities: take_list16(buf, prev.map(|p| &p.communities))?,
    })
}

/// A `u16`-counted list of `u32`s (see `put_seq16`) as a shared slice:
/// `prev` itself when it holds the same elements, else a new slice.
fn take_list16(buf: &mut Bytes, prev: Option<&Arc<[u32]>>) -> Result<Arc<[u32]>, WireError> {
    let n = usize::from(u16::take(buf)?);
    need(buf, 4 * n)?;
    if let Some(prev) = prev.filter(|p| p.len() == n) {
        let mut next = buf.chunk();
        if prev.iter().all(|&asn| next.get_u32() == asn) {
            buf.advance(4 * n);
            return Ok(prev.clone());
        }
    }
    Ok((0..n).map(|_| buf.get_u32()).collect())
}

impl Wire for Message {
    fn put(&self, buf: &mut BytesMut) {
        match self {
            Message::BgpAdvertisement {
                target_node,
                target_session,
                routes,
            } => {
                1u8.put(buf);
                target_node.put(buf);
                target_session.put(buf);
                routes.put(buf);
            }
            Message::OspfAdvertisement {
                target_node,
                via_iface,
                entries,
            } => {
                2u8.put(buf);
                target_node.put(buf);
                via_iface.put(buf);
                entries.put(buf);
            }
            Message::BgpClassAdvertisement { targets, routes } => {
                4u8.put(buf);
                targets.put(buf);
                routes.put(buf);
            }
            Message::PacketBatch { bdds, packets } => {
                6u8.put(buf);
                bdds.put(buf);
                packets.put(buf);
            }
        }
    }

    fn take(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(match u8::take(buf)? {
            1 => Message::BgpAdvertisement {
                target_node: Wire::take(buf)?,
                target_session: Wire::take(buf)?,
                routes: Wire::take(buf)?,
            },
            2 => Message::OspfAdvertisement {
                target_node: Wire::take(buf)?,
                via_iface: Wire::take(buf)?,
                entries: Wire::take(buf)?,
            },
            4 => Message::BgpClassAdvertisement {
                targets: Wire::take(buf)?,
                routes: Wire::take(buf)?,
            },
            6 => {
                let bdds: Vec<Bytes> = Wire::take(buf)?;
                let packets: Vec<PacketRef> = Wire::take(buf)?;
                if packets.iter().any(|p| p.bdd as usize >= bdds.len()) {
                    return Err(WireError::BadValue("packet bdd index"));
                }
                Message::PacketBatch { bdds, packets }
            }
            t => return Err(WireError::BadTag(t)),
        })
    }
}

/// Encodes a message into a fresh byte string.
pub fn encode(msg: &Message) -> Bytes {
    msg.to_bytes()
}

/// Decodes a message; anything after it is an error.
pub fn decode(buf: Bytes) -> Result<Message, WireError> {
    Message::from_bytes(buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use s2_net::policy::Protocol;
    use s2_net::Ipv4Addr;
    use s2_routing::Origin;

    fn sample_route() -> BgpRoute {
        BgpRoute {
            prefix: "10.1.2.0/24".parse().unwrap(),
            next_hop: Ipv4Addr::new(172, 16, 0, 1),
            as_path: vec![65001, 65002, 65001].into(),
            local_pref: 200,
            med: 5,
            origin: Origin::Igp,
            communities: vec![1, 99].into(),
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

    /// A decoded class body shares an attribute list equal to the
    /// previous route's: a repeated AS path, and the empty community
    /// lists.
    #[test]
    fn class_body_shares_lists_equal_to_the_previous_route() {
        let route = |prefix: &str, as_path: Vec<u32>| BgpRoute {
            as_path: as_path.into(),
            weight: 0,
            ..BgpRoute::local(prefix.parse().unwrap(), Origin::Igp, Protocol::Bgp)
        };
        let tagged = |r: BgpRoute, c: u32| BgpRoute { communities: vec![c].into(), ..r };
        let sent: Arc<[BgpRoute]> = vec![
            route("10.0.0.0/24", vec![65001, 65002]),
            route("10.0.1.0/24", vec![65001, 65002]),
            route("10.0.2.0/24", vec![65003]),
            route("10.0.3.0/24", vec![65001, 65002]),
            // As long as the previous route's lists, not equal to them.
            tagged(route("10.0.4.0/24", vec![65001, 65003]), 1),
            tagged(route("10.0.5.0/24", vec![65001, 65003]), 2),
        ]
        .into();
        let msg = Message::BgpClassAdvertisement {
            targets: vec![(NodeId(1), 0)],
            routes: sent.clone(),
        };
        let Ok(Message::BgpClassAdvertisement { routes, .. }) = decode(encode(&msg)) else {
            panic!("a class body decodes");
        };
        assert_eq!(routes, sent);
        assert!(Arc::ptr_eq(&routes[0].as_path, &routes[1].as_path));
        assert!(!Arc::ptr_eq(&routes[1].as_path, &routes[2].as_path));
        // Only the previous route's list is reused.
        assert!(!Arc::ptr_eq(&routes[0].as_path, &routes[3].as_path));
        assert!(routes[..4].windows(2).all(|w| Arc::ptr_eq(&w[0].communities, &w[1].communities)));
        assert!(Arc::ptr_eq(&routes[4].as_path, &routes[5].as_path));
    }

    #[test]
    fn truncated_class_body_fails() {
        let msg = Message::BgpClassAdvertisement {
            targets: vec![(NodeId(1), 0)],
            routes: vec![sample_route(), sample_route()].into(),
        };
        let bytes = encode(&msg);
        // The last route ends in a 14-byte AS path and 10-byte community
        // list: cut inside each, and right after the AS path's count.
        for cut in [bytes.len() - 2, bytes.len() - 10 - 6, bytes.len() - 10 - 12] {
            assert_eq!(decode(bytes.slice(..cut)), Err(WireError::Truncated), "cut {cut}");
        }
        // A route count far beyond the bytes fails before it sizes anything.
        let mut huge = vec![4u8, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff];
        huge.extend(sample_route().to_bytes().as_ref());
        assert_eq!(decode(Bytes::from(huge)), Err(WireError::Truncated));
    }

    #[test]
    fn min_route_wire_is_an_empty_route() {
        let empty = BgpRoute::local("0.0.0.0/0".parse().unwrap(), Origin::Igp, Protocol::Bgp);
        assert_eq!(empty.to_bytes().len(), MIN_ROUTE_WIRE);
    }

    #[test]
    fn bgp_class_roundtrip() {
        let msg = Message::BgpClassAdvertisement {
            targets: vec![(NodeId(7), 3), (NodeId(2), 0)],
            routes: vec![sample_route()].into(),
        };
        assert_eq!(decode(encode(&msg)).unwrap(), msg);
        // The route list is tag 1's, byte for byte.
        let single = encode(&Message::BgpAdvertisement {
            target_node: NodeId(7),
            target_session: 3,
            routes: vec![sample_route()],
        });
        assert!(encode(&msg).ends_with(&single[9..]));
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

    /// Two packets sharing one payload, one of them injected.
    fn sample_batch() -> Message {
        let packet = |node: u32, ingress: Option<u16>, bdd: u32| PacketRef {
            node: NodeId(node),
            ingress: ingress.map(InterfaceId),
            hops: 3,
            bdd,
        };
        Message::PacketBatch {
            bdds: vec![Bytes::from_static(&[1, 2, 3, 4]), Bytes::from_static(&[5])],
            packets: vec![packet(9, Some(4), 0), packet(2, None, 0), packet(9, Some(7), 1)],
        }
    }

    #[test]
    fn packet_batch_roundtrip() {
        let msg = sample_batch();
        assert_eq!(decode(encode(&msg)).unwrap(), msg);
        let empty = Message::PacketBatch {
            bdds: vec![],
            packets: vec![],
        };
        assert_eq!(decode(encode(&empty)).unwrap(), empty);
    }

    /// A packet count far beyond the bytes fails before it sizes
    /// anything; a payload count sizes its list only through `cap`.
    /// Both are `Truncated`. (`wire_golden` cuts the pinned batches at
    /// every strict prefix.)
    #[test]
    fn oversized_packet_batch_counts_fail() {
        let huge_packets = [6u8, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 1];
        assert_eq!(decode(Bytes::from(huge_packets.to_vec())), Err(WireError::Truncated));
        let huge_bdds = [6u8, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0];
        assert_eq!(decode(Bytes::from(huge_bdds.to_vec())), Err(WireError::Truncated));
    }

    #[test]
    fn packet_batch_index_out_of_range_is_a_bad_value() {
        let Message::PacketBatch { bdds, mut packets } = sample_batch() else {
            panic!("sample_batch is a packet batch")
        };
        packets[1].bdd = 2;
        let bad = encode(&Message::PacketBatch { bdds, packets });
        assert_eq!(decode(bad), Err(WireError::BadValue("packet bdd index")));
    }

    #[test]
    fn bad_tag_rejected() {
        assert_eq!(decode(Bytes::from_static(&[9])), Err(WireError::BadTag(9)));
    }

    /// The bytewise CRC-32 loop `crc32` replaced: the oracle.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xffff_ffffu32;
        for &b in data {
            c = CRC32_TABLES[0][((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
        }
        c ^ 0xffff_ffff
    }

    /// Slicing-by-8 equals the bytewise loop on random lengths 0..=4096
    /// from unaligned starts, so every tail length and alignment meets
    /// the eight-byte loop.
    #[test]
    fn crc32_equals_the_bytewise_loop() {
        let mut rng = s2_net::rng::SeededRng::seed_from_u64(0x5eed_c3c3);
        let data: Vec<u8> = (0..4096 + 8).map(|_| rng.next_u64() as u8).collect();
        let lens: Vec<usize> = (0..200).map(|_| rng.next_u64() as usize % 4097).collect();
        for len in (0..=64).chain(lens) {
            let start = rng.next_u64() as usize % 8;
            let slice = &data[start..start + len];
            assert_eq!(crc32(slice), crc32_bytewise(slice), "len {len} start {start}");
        }
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
                as_path: path.into(),
                local_pref: lp,
                med,
                origin: if origin_igp { Origin::Igp } else { Origin::Incomplete },
                communities: comms.into(),
                weight,
                source_protocol: Protocol::Bgp,
            };
            prop_assert_eq!(BgpRoute::from_bytes(r.to_bytes()).unwrap(), r);
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
        /// succeed by coincidence, but it must never panic, and anything
        /// it accepts must re-encode decodably.
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
            if !(4..FRAME_HEADER_LEN).contains(&idx) {
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
