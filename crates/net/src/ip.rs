//! IPv4 addresses and prefixes.
//!
//! The verifier only reasons about IPv4 (the paper's prototype likewise
//! "now only supports IPv4", §7). Addresses are a thin `u32` newtype so they
//! can be used as BDD bit-vectors and trie keys without conversion cost.

use crate::error::NetError;
use std::fmt;
use std::str::FromStr;

/// Implements `Debug` by delegating to `Display`; keeps diagnostic dumps of
/// routing state readable.
macro_rules! fmt_debug_as_display {
    () => {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            fmt::Display::fmt(self, f)
        }
    };
}

/// An IPv4 address stored in host byte order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ipv4Addr(pub u32);

impl Ipv4Addr {
    /// The unspecified address `0.0.0.0`.
    pub const UNSPECIFIED: Ipv4Addr = Ipv4Addr(0);

    /// Builds an address from its four dotted-quad octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Ipv4Addr(((a as u32) << 24) | ((b as u32) << 16) | ((c as u32) << 8) | d as u32)
    }

    /// Returns the four octets, most significant first.
    pub const fn octets(self) -> [u8; 4] {
        [
            (self.0 >> 24) as u8,
            (self.0 >> 16) as u8,
            (self.0 >> 8) as u8,
            self.0 as u8,
        ]
    }

    /// Returns the value of bit `i`, where bit 0 is the most significant.
    ///
    /// This is the bit order used by prefix tries and by the BDD encoding of
    /// destination addresses.
    #[inline]
    pub const fn bit(self, i: u8) -> bool {
        debug_assert!(i < 32);
        (self.0 >> (31 - i)) & 1 == 1
    }
}

impl fmt::Display for Ipv4Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.octets();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

impl fmt::Debug for Ipv4Addr {
    fmt_debug_as_display!();
}

impl FromStr for Ipv4Addr {
    type Err = NetError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut octets = [0u8; 4];
        let mut parts = s.split('.');
        for slot in octets.iter_mut() {
            let part = parts.next().ok_or_else(|| NetError::BadAddress(s.into()))?;
            if part.is_empty() || part.len() > 3 || !part.bytes().all(|b| b.is_ascii_digit()) {
                return Err(NetError::BadAddress(s.into()));
            }
            *slot = part
                .parse::<u8>()
                .map_err(|_| NetError::BadAddress(s.into()))?;
        }
        if parts.next().is_some() {
            return Err(NetError::BadAddress(s.into()));
        }
        Ok(Ipv4Addr::new(octets[0], octets[1], octets[2], octets[3]))
    }
}

/// An IPv4 prefix: an address plus a mask length, always stored normalized
/// (host bits zeroed) so that equal prefixes compare equal.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Prefix {
    addr: Ipv4Addr,
    len: u8,
}

impl Prefix {
    /// The default route `0.0.0.0/0`.
    pub const DEFAULT: Prefix = Prefix {
        addr: Ipv4Addr(0),
        len: 0,
    };

    /// Builds a prefix, zeroing any bits beyond `len`.
    ///
    /// # Panics
    /// Panics if `len > 32`.
    pub fn new(addr: Ipv4Addr, len: u8) -> Self {
        assert!(len <= 32, "prefix length {len} out of range");
        Prefix {
            addr: Ipv4Addr(addr.0 & mask(len)),
            len,
        }
    }

    /// A /32 host prefix for `addr`.
    pub fn host(addr: Ipv4Addr) -> Self {
        Prefix::new(addr, 32)
    }

    /// The network address (host bits are always zero).
    pub const fn addr(self) -> Ipv4Addr {
        self.addr
    }

    /// The mask length in bits.
    #[allow(clippy::len_without_is_empty)]
    pub const fn len(self) -> u8 {
        self.len
    }

    /// Whether this is the zero-length default prefix.
    pub const fn is_default(self) -> bool {
        self.len == 0
    }

    /// The netmask as a `u32` (e.g. `/24` → `0xffff_ff00`).
    pub const fn netmask(self) -> u32 {
        mask(self.len)
    }

    /// Whether `addr` falls inside this prefix.
    #[inline]
    pub const fn contains_addr(self, addr: Ipv4Addr) -> bool {
        (addr.0 & mask(self.len)) == self.addr.0
    }

    /// Whether `other` is fully covered by `self` (i.e. `self` is equal or
    /// less specific). Every prefix covers itself.
    #[inline]
    pub const fn covers(self, other: Prefix) -> bool {
        self.len <= other.len && (other.addr.0 & mask(self.len)) == self.addr.0
    }

    /// Whether the two prefixes share any address.
    pub const fn overlaps(self, other: Prefix) -> bool {
        self.covers(other) || other.covers(self)
    }

    /// The first (lowest) address in the prefix.
    pub const fn first_addr(self) -> Ipv4Addr {
        self.addr
    }

    /// The last (highest) address in the prefix.
    pub const fn last_addr(self) -> Ipv4Addr {
        Ipv4Addr(self.addr.0 | !mask(self.len))
    }

    /// The immediate parent prefix (one bit shorter), or `None` for `/0`.
    pub fn parent(self) -> Option<Prefix> {
        if self.len == 0 {
            None
        } else {
            Some(Prefix::new(self.addr, self.len - 1))
        }
    }

    /// Returns the value of bit `i` of the network address (bit 0 = MSB).
    #[inline]
    pub const fn bit(self, i: u8) -> bool {
        self.addr.bit(i)
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr, self.len)
    }
}

impl fmt::Debug for Prefix {
    fmt_debug_as_display!();
}

impl FromStr for Prefix {
    type Err = NetError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = s.split_once('/').ok_or_else(|| NetError::BadPrefix(s.into()))?;
        let addr: Ipv4Addr = addr.parse().map_err(|_| NetError::BadPrefix(s.into()))?;
        let len: u8 = len.parse().map_err(|_| NetError::BadPrefix(s.into()))?;
        if len > 32 {
            return Err(NetError::BadPrefix(s.into()));
        }
        Ok(Prefix::new(addr, len))
    }
}

/// The netmask with `len` leading one bits.
#[inline]
const fn mask(len: u8) -> u32 {
    if len == 0 {
        0
    } else {
        u32::MAX << (32 - len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn address_roundtrip() {
        let a: Ipv4Addr = "10.1.2.3".parse().unwrap();
        assert_eq!(a, Ipv4Addr::new(10, 1, 2, 3));
        assert_eq!(a.to_string(), "10.1.2.3");
        assert_eq!(a.octets(), [10, 1, 2, 3]);
    }

    #[test]
    fn address_rejects_garbage() {
        for bad in ["", "1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d", "1..2.3", "01x.0.0.0"] {
            assert!(bad.parse::<Ipv4Addr>().is_err(), "{bad} should not parse");
        }
    }

    #[test]
    fn address_bits_msb_first() {
        let a = Ipv4Addr::new(0b1000_0000, 0, 0, 1);
        assert!(a.bit(0));
        assert!(!a.bit(1));
        assert!(a.bit(31));
    }

    #[test]
    fn prefix_normalizes_host_bits() {
        let p = Prefix::new(Ipv4Addr::new(10, 1, 2, 3), 16);
        assert_eq!(p.to_string(), "10.1.0.0/16");
        assert_eq!(p, "10.1.0.0/16".parse().unwrap());
    }

    #[test]
    fn prefix_rejects_garbage() {
        for bad in ["10.0.0.0", "10.0.0.0/33", "10.0.0.0/x", "/8", "10.0.0.0/"] {
            assert!(bad.parse::<Prefix>().is_err(), "{bad} should not parse");
        }
    }

    #[test]
    fn covers_and_overlaps() {
        let p16: Prefix = "10.1.0.0/16".parse().unwrap();
        let p24: Prefix = "10.1.2.0/24".parse().unwrap();
        let other: Prefix = "10.2.0.0/16".parse().unwrap();
        assert!(p16.covers(p24));
        assert!(!p24.covers(p16));
        assert!(p16.covers(p16));
        assert!(p16.overlaps(p24) && p24.overlaps(p16));
        assert!(!p16.overlaps(other));
        assert!(Prefix::DEFAULT.covers(p16));
    }

    #[test]
    fn contains_addr_honours_mask() {
        let p: Prefix = "192.168.4.0/22".parse().unwrap();
        assert!(p.contains_addr("192.168.7.255".parse().unwrap()));
        assert!(!p.contains_addr("192.168.8.0".parse().unwrap()));
    }

    #[test]
    fn first_last_parent() {
        let p: Prefix = "10.1.2.0/24".parse().unwrap();
        assert_eq!(p.first_addr().to_string(), "10.1.2.0");
        assert_eq!(p.last_addr().to_string(), "10.1.2.255");
        assert_eq!(p.parent().unwrap().to_string(), "10.1.2.0/23");
        assert_eq!(Prefix::DEFAULT.parent(), None);
        assert_eq!(Prefix::DEFAULT.last_addr(), Ipv4Addr(u32::MAX));
    }

    #[test]
    fn host_prefix_is_slash_32() {
        let a = Ipv4Addr::new(1, 2, 3, 4);
        let p = Prefix::host(a);
        assert_eq!(p.len(), 32);
        assert!(p.contains_addr(a));
        assert_eq!(p.first_addr(), p.last_addr());
    }

    proptest! {
        #[test]
        fn prop_display_parse_roundtrip(bits in any::<u32>(), len in 0u8..=32) {
            let p = Prefix::new(Ipv4Addr(bits), len);
            let back: Prefix = p.to_string().parse().unwrap();
            prop_assert_eq!(p, back);
        }

        #[test]
        fn prop_covers_iff_range_subset(a in any::<u32>(), la in 0u8..=32,
                                        b in any::<u32>(), lb in 0u8..=32) {
            let pa = Prefix::new(Ipv4Addr(a), la);
            let pb = Prefix::new(Ipv4Addr(b), lb);
            let range_subset = pa.first_addr() <= pb.first_addr()
                && pb.last_addr() <= pa.last_addr();
            prop_assert_eq!(pa.covers(pb), range_subset);
        }

        #[test]
        fn prop_contains_matches_range(a in any::<u32>(), len in 0u8..=32, x in any::<u32>()) {
            let p = Prefix::new(Ipv4Addr(a), len);
            let inside = p.first_addr().0 <= x && x <= p.last_addr().0;
            prop_assert_eq!(p.contains_addr(Ipv4Addr(x)), inside);
        }
    }
}
