//! The one codec: how a value becomes bytes, decided in one place.
//!
//! Every byte format in this crate — data-frame messages
//! ([`crate::wire`]), the control channel ([`crate::remote`]), the admin
//! protocol and the warm checkpoint ([`crate::admin`]) — is built from
//! the [`Wire`] trait and the vocabulary implemented here. The rules
//! (DESIGN.md § "Byte formats" has the full table):
//!
//! * integers are big-endian at their own width; `usize` crosses as
//!   `u64`, `f64` as its bits, `bool` as a strict `0`/`1` byte;
//! * a string, byte string, list, set or map is a `u32` count followed
//!   by its elements (raw bytes for strings and byte strings);
//! * `Option<T>` is a `0`/`1` tag byte, then `T` if `1`;
//! * tuples and `Arc<T>` are transparent;
//! * an enum is a tag byte followed by the variant's fields in order.
//!
//! Decoding is the safety half: every read checks `remaining()` first,
//! every tag and discriminant is validated, a peer-declared count sizes
//! an allocation only through `cap` (or after the bytes it counts are
//! known to be there), and [`Wire::from_bytes`] is the single place that
//! rejects trailing bytes. A malformed peer or file yields a
//! [`WireError`] — never a panic, never an unbounded allocation.

// r1: peer bytes reach this module, so nothing here may panic on them
// (DESIGN.md § "Static analysis"); tests are exempt (clippy.toml).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]
#![deny(clippy::todo, clippy::unimplemented, clippy::indexing_slicing)]

use crate::wire::WireError;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use s2_dataplane::FinalKind;
use s2_net::policy::Protocol;
use s2_net::topology::{InterfaceId, NodeId};
use s2_net::{Ipv4Addr, Prefix};
use s2_routing::Origin;
use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::sync::Arc;

/// A value with a byte format.
///
/// Raw BDD handles never cross the wire (r4): a [`s2_bdd::Bdd`] is an
/// index into one worker's private manager, so neither it nor the
/// [`s2_bdd::BddManager`] has a byte format. A BDD crosses only as
/// `s2_bdd::serialize` bytes, re-encoded into the receiver's manager.
///
/// ```
/// fn wire<T: s2_runtime::Wire>() {}
/// wire::<Vec<u8>>();
/// let (_, _) = (s2_bdd::Bdd::TRUE, s2_bdd::BddManager::new(1));
/// ```
///
/// ```compile_fail,E0277
/// fn wire<T: s2_runtime::Wire>() {}
/// wire::<s2_bdd::Bdd>();
/// ```
///
/// ```compile_fail,E0277
/// fn wire<T: s2_runtime::Wire>() {}
/// wire::<s2_bdd::BddManager>();
/// ```
pub trait Wire: Sized {
    /// Appends this value's encoding to `buf`.
    fn put(&self, buf: &mut BytesMut);

    /// Consumes one value from the front of `buf`.
    fn take(buf: &mut Bytes) -> Result<Self, WireError>;

    /// Appends the elements of a list of `Self` (the count is the
    /// caller's). `u8` overrides the pair with one bulk copy — same
    /// bytes, so `Vec<u8>` is a length plus raw data.
    #[inline]
    fn put_seq(items: &[Self], buf: &mut BytesMut) {
        for item in items {
            item.put(buf);
        }
    }

    /// Consumes `n` elements. `n` is peer-declared: it bounds the loop
    /// (which fails `Truncated` as soon as the bytes run out) but sizes
    /// the allocation only through `cap`. The fixed-width integers
    /// override this with one bulk `remaining()` check instead.
    #[inline]
    fn take_seq(buf: &mut Bytes, n: usize) -> Result<Vec<Self>, WireError> {
        let mut items = Vec::with_capacity(cap(n, buf));
        for _ in 0..n {
            items.push(Self::take(buf)?);
        }
        Ok(items)
    }

    /// Consumes `n` elements into one shared slice, as [`Wire::take_seq`]
    /// does into a list. The default moves the decoded list into the
    /// slice; [`s2_routing::BgpRoute`] overrides it to share equal attribute
    /// lists between neighbours.
    fn take_shared(buf: &mut Bytes, n: usize) -> Result<Arc<[Self]>, WireError> {
        Self::take_seq(buf, n).map(Arc::from)
    }

    /// Encodes into a fresh byte string.
    fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(64);
        self.put(&mut buf);
        buf.freeze()
    }

    /// Decodes a complete byte string: exactly one value, nothing after.
    fn from_bytes(mut buf: Bytes) -> Result<Self, WireError> {
        let value = Self::take(&mut buf)?;
        if !buf.is_empty() {
            return Err(WireError::BadValue("trailing bytes"));
        }
        Ok(value)
    }
}

/// Fails `Truncated` unless `n` more bytes are there.
#[inline]
pub(crate) fn need(buf: &Bytes, n: usize) -> Result<(), WireError> {
    if buf.remaining() < n {
        Err(WireError::Truncated)
    } else {
        Ok(())
    }
}

/// `with_capacity` guard: trust the declared element count only as far
/// as the bytes left in `buf` (every element takes at least one) and a
/// sanity bound of 64 Ki elements, so a corrupt count cannot
/// pre-allocate gigabytes. An allocation sized by it is bounded by the
/// input's length whatever the peer declared; `tests/decode_bounds.rs`
/// checks that.
pub(crate) fn cap(n: usize, buf: &Bytes) -> usize {
    n.min(buf.remaining()).min(1 << 16)
}

// ---- scalars ----

macro_rules! wire_int {
    ($($t:ty: $width:literal $put:ident $get:ident),+) => {$(
        impl Wire for $t {
            #[inline]
            fn put(&self, buf: &mut BytesMut) {
                buf.$put(*self);
            }
            #[inline]
            fn take(buf: &mut Bytes) -> Result<Self, WireError> {
                need(buf, $width)?;
                Ok(buf.$get())
            }
            // Fixed width: one bulk check, then an exact-size collect
            // (the allocation is bounded by bytes actually present).
            #[inline]
            fn take_seq(buf: &mut Bytes, n: usize) -> Result<Vec<Self>, WireError> {
                need(buf, n.saturating_mul($width))?;
                Ok((0..n).map(|_| buf.$get()).collect())
            }
        }
    )+};
}
wire_int!(u16: 2 put_u16 get_u16, u32: 4 put_u32 get_u32, u64: 8 put_u64 get_u64);

impl Wire for u8 {
    #[inline]
    fn put(&self, buf: &mut BytesMut) {
        buf.put_u8(*self);
    }
    #[inline]
    fn take(buf: &mut Bytes) -> Result<Self, WireError> {
        need(buf, 1)?;
        Ok(buf.get_u8())
    }
    fn put_seq(items: &[u8], buf: &mut BytesMut) {
        buf.put_slice(items);
    }
    fn take_seq(buf: &mut Bytes, n: usize) -> Result<Vec<u8>, WireError> {
        Ok(take_raw(buf, n)?.to_vec())
    }
}

/// The next `n` raw bytes, zero-copy.
fn take_raw(buf: &mut Bytes, n: usize) -> Result<Bytes, WireError> {
    need(buf, n)?;
    Ok(buf.copy_to_bytes(n))
}

impl Wire for usize {
    #[inline]
    fn put(&self, buf: &mut BytesMut) {
        (*self as u64).put(buf);
    }
    #[inline]
    fn take(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(u64::take(buf)? as usize)
    }
}

impl Wire for bool {
    #[inline]
    fn put(&self, buf: &mut BytesMut) {
        u8::from(*self).put(buf);
    }
    #[inline]
    fn take(buf: &mut Bytes) -> Result<Self, WireError> {
        match u8::take(buf)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::BadValue("bool")),
        }
    }
}

impl Wire for f64 {
    fn put(&self, buf: &mut BytesMut) {
        self.to_bits().put(buf);
    }
    fn take(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(f64::from_bits(u64::take(buf)?))
    }
}

// ---- strings and containers ----

impl Wire for Bytes {
    fn put(&self, buf: &mut BytesMut) {
        (self.len() as u32).put(buf);
        buf.put_slice(self);
    }
    fn take(buf: &mut Bytes) -> Result<Self, WireError> {
        let n = u32::take(buf)? as usize;
        take_raw(buf, n)
    }
}

impl Wire for String {
    fn put(&self, buf: &mut BytesMut) {
        (self.len() as u32).put(buf);
        buf.put_slice(self.as_bytes());
    }
    fn take(buf: &mut Bytes) -> Result<Self, WireError> {
        String::from_utf8(Vec::take(buf)?).map_err(|_| WireError::BadValue("utf-8 string"))
    }
}

impl<T: Wire> Wire for Vec<T> {
    #[inline]
    fn put(&self, buf: &mut BytesMut) {
        (self.len() as u32).put(buf);
        T::put_seq(self, buf);
    }
    #[inline]
    fn take(buf: &mut Bytes) -> Result<Self, WireError> {
        let n = u32::take(buf)? as usize;
        T::take_seq(buf, n)
    }
}

/// A list counted by a `u16` instead of the usual `u32`: the per-route
/// lists of the data-frame hot path (`RibRoute.egress`,
/// `BgpRoute.as_path` / `.communities`), where two bytes per list per
/// route are worth keeping.
#[inline]
pub(crate) fn put_seq16<T: Wire>(items: &[T], buf: &mut BytesMut) {
    (items.len() as u16).put(buf);
    T::put_seq(items, buf);
}

/// Inverse of [`put_seq16`].
#[inline]
pub(crate) fn take_seq16<T: Wire>(buf: &mut Bytes) -> Result<Vec<T>, WireError> {
    let n = u16::take(buf)? as usize;
    T::take_seq(buf, n)
}

// Sets and maps iterate in key order, so the bytes are a pure function
// of the contents (R2: re-runs and replicas must produce identical
// frames).
impl<T: Wire + Ord> Wire for BTreeSet<T> {
    fn put(&self, buf: &mut BytesMut) {
        (self.len() as u32).put(buf);
        for item in self {
            item.put(buf);
        }
    }
    fn take(buf: &mut Bytes) -> Result<Self, WireError> {
        let n = u32::take(buf)?;
        (0..n).map(|_| T::take(buf)).collect()
    }
}

impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    fn put(&self, buf: &mut BytesMut) {
        (self.len() as u32).put(buf);
        for (k, v) in self {
            k.put(buf);
            v.put(buf);
        }
    }
    fn take(buf: &mut Bytes) -> Result<Self, WireError> {
        let n = u32::take(buf)?;
        (0..n).map(|_| Wire::take(buf)).collect()
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, buf: &mut BytesMut) {
        match self {
            None => 0u8.put(buf),
            Some(v) => {
                1u8.put(buf);
                v.put(buf);
            }
        }
    }
    fn take(buf: &mut Bytes) -> Result<Self, WireError> {
        match u8::take(buf)? {
            0 => Ok(None),
            1 => Ok(Some(T::take(buf)?)),
            _ => Err(WireError::BadValue("option discriminant")),
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    #[inline]
    fn put(&self, buf: &mut BytesMut) {
        self.0.put(buf);
        self.1.put(buf);
    }
    #[inline]
    fn take(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok((A::take(buf)?, B::take(buf)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn put(&self, buf: &mut BytesMut) {
        self.0.put(buf);
        self.1.put(buf);
        self.2.put(buf);
    }
    fn take(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok((A::take(buf)?, B::take(buf)?, C::take(buf)?))
    }
}

impl<T: Wire> Wire for Arc<T> {
    fn put(&self, buf: &mut BytesMut) {
        (**self).put(buf);
    }
    fn take(buf: &mut Bytes) -> Result<Self, WireError> {
        T::take(buf).map(Arc::new)
    }
}

/// A shared slice crosses as the list it holds.
impl<T: Wire> Wire for Arc<[T]> {
    fn put(&self, buf: &mut BytesMut) {
        (self.len() as u32).put(buf);
        T::put_seq(self, buf);
    }
    fn take(buf: &mut Bytes) -> Result<Self, WireError> {
        let n = u32::take(buf)? as usize;
        T::take_shared(buf, n)
    }
}

// ---- the domain vocabulary ----

/// `impl Wire` for a newtype over one `Wire` field.
macro_rules! wire_newtype {
    ($($t:ident),+) => {$(
        impl Wire for $t {
            #[inline]
            fn put(&self, buf: &mut BytesMut) {
                self.0.put(buf);
            }
            #[inline]
            fn take(buf: &mut Bytes) -> Result<Self, WireError> {
                Wire::take(buf).map($t)
            }
        }
    )+};
}
wire_newtype!(NodeId, InterfaceId, Ipv4Addr);

/// `impl Wire` for a fieldless enum crossing as one tag byte.
macro_rules! wire_unit_enum {
    ($t:ty, $what:literal: $($tag:literal => $variant:ident),+) => {
        impl Wire for $t {
            #[inline]
            fn put(&self, buf: &mut BytesMut) {
                let tag: u8 = match self {
                    $(Self::$variant => $tag,)+
                };
                tag.put(buf);
            }
            #[inline]
            fn take(buf: &mut Bytes) -> Result<Self, WireError> {
                match u8::take(buf)? {
                    $($tag => Ok(Self::$variant),)+
                    _ => Err(WireError::BadValue($what)),
                }
            }
        }
    };
}
wire_unit_enum!(Protocol, "protocol": 0 => Connected, 1 => Static, 2 => Ospf, 3 => Bgp, 4 => Aggregate);
wire_unit_enum!(Origin, "origin": 0 => Igp, 1 => Incomplete);
wire_unit_enum!(FinalKind, "final kind": 0 => Arrive, 1 => Exit, 2 => Blackhole, 3 => Loop);

/// `impl Wire` for a struct whose byte format is its listed fields in
/// order.
macro_rules! wire_struct {
    ($t:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::codec::Wire for $t {
            fn put(&self, buf: &mut bytes::BytesMut) {
                $($crate::codec::Wire::put(&self.$field, buf);)+
            }
            fn take(buf: &mut bytes::Bytes) -> Result<Self, $crate::wire::WireError> {
                Ok(Self {
                    $($field: $crate::codec::Wire::take(buf)?,)+
                })
            }
        }
    };
}
pub(crate) use wire_struct;

impl Wire for Prefix {
    #[inline]
    fn put(&self, buf: &mut BytesMut) {
        self.addr().put(buf);
        self.len().put(buf);
    }
    #[inline]
    fn take(buf: &mut Bytes) -> Result<Self, WireError> {
        let addr = Ipv4Addr::take(buf)?;
        let len = u8::take(buf)?;
        if len > 32 {
            return Err(WireError::BadValue("prefix length"));
        }
        Ok(Prefix::new(addr, len))
    }
}

impl Wire for SocketAddr {
    fn put(&self, buf: &mut BytesMut) {
        self.to_string().put(buf);
    }
    fn take(buf: &mut Bytes) -> Result<Self, WireError> {
        String::take(buf)?
            .parse()
            .map_err(|_| WireError::BadValue("socket address"))
    }
}

// A metrics snapshot crosses as its canonical JSON encoding:
// deterministic (BTreeMap order) and schema-tagged, so the decode is
// exact.
impl Wire for s2_obs::MetricsSnapshot {
    fn put(&self, buf: &mut BytesMut) {
        self.to_json().put(buf);
    }
    fn take(buf: &mut Bytes) -> Result<Self, WireError> {
        s2_obs::MetricsSnapshot::from_json(&String::take(buf)?)
            .map_err(|_| WireError::BadValue("metrics snapshot"))
    }
}
