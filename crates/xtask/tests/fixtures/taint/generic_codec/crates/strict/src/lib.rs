//! Fixture: the same trait-based codec as `loose`, done right — the
//! decoded count reaches `with_capacity` only through `cap`, the one
//! declared alloc-bound sanitizer. Same flow, no finding.

use std::io::Read;
use std::net::TcpStream;

pub struct Truncated;

pub trait Wire: Sized {
    fn take(buf: &mut &[u8]) -> Result<Self, Truncated>;

    fn from_bytes(mut buf: &[u8]) -> Result<Self, Truncated> {
        Self::take(&mut buf)
    }
}

// s2-lint: sanitizer(alloc-bound): the returned count is min-capped at 64 Ki elements, so allocations sized by it are bounded regardless of the peer's declared length.
fn cap(n: usize) -> usize {
    n.min(1 << 16)
}

impl Wire for u32 {
    fn take(buf: &mut &[u8]) -> Result<Self, Truncated> {
        let (head, rest) = buf.split_first_chunk::<4>().ok_or(Truncated)?;
        *buf = rest;
        Ok(u32::from_be_bytes(*head))
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn take(buf: &mut &[u8]) -> Result<Self, Truncated> {
        let n = u32::take(buf)? as usize;
        let mut items = Vec::with_capacity(cap(n));
        for _ in 0..n {
            items.push(T::take(buf)?);
        }
        Ok(items)
    }
}

pub fn recv<T: Wire>(sock: &mut TcpStream) -> Result<T, Truncated> {
    let mut payload = [0u8; 64];
    sock.read_exact(&mut payload).map_err(|_| Truncated)?;
    T::from_bytes(&payload)
}
