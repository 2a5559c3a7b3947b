//! Fixture: a trait-based codec in the shape of `s2_runtime::codec`,
//! with the one mistake the real one must never make. `recv` reads a
//! payload off a peer socket and decodes it through a generic
//! `T::from_bytes`; the generic `impl<T: Wire> Wire for Vec<T>` then
//! sizes `with_capacity` straight from the decoded count. No call on
//! the way names a concrete function — every hop is trait dispatch
//! (`T::from_bytes`, `Self::take`, `u32::take`, `T::take`) — so a
//! resolver that only matches paths loses the flow at the first hop.

use std::io::Read;
use std::net::TcpStream;

pub struct Truncated;

pub trait Wire: Sized {
    fn take(buf: &mut &[u8]) -> Result<Self, Truncated>;

    fn from_bytes(mut buf: &[u8]) -> Result<Self, Truncated> {
        Self::take(&mut buf)
    }
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
        let mut items = Vec::with_capacity(n);
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
