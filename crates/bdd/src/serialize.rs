//! BDD DAG serialization — the cross-worker transfer format.
//!
//! When an S2 worker forwards a symbolic packet to a node hosted on another
//! worker, the packet's BDD must be re-encoded in the destination worker's
//! private manager (§4.3, option 2). The wire format is a topologically
//! ordered node list:
//!
//! ```text
//! u32  node_count          (number of decision nodes, excluding terminals)
//! then node_count records of
//!   u16 var
//!   u32 lo                 (0 = FALSE, 1 = TRUE, k+2 = k-th record)
//!   u32 hi
//! u32  root                (same index encoding)
//! ```
//!
//! Deserialization rebuilds bottom-up through the destination manager's
//! hash-consing constructor, so shared subgraphs stay shared and the result
//! is canonical in the destination manager.

use crate::manager::{Bdd, BddManager};
use bytes::{Buf, BufMut};

/// Errors from [`deserialize`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended before the declared structure was complete.
    Truncated,
    /// A node referenced a child that has not been defined yet.
    ForwardReference,
    /// A node's variable is outside the destination manager's range.
    VarOutOfRange(u16),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "truncated BDD payload"),
            DecodeError::ForwardReference => write!(f, "BDD payload has a forward reference"),
            DecodeError::VarOutOfRange(v) => write!(f, "BDD variable {v} out of range"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Serializes `f` into `buf`. The encoding is self-delimiting.
///
/// The record order is the post-order DFS of the DAG — a pure function
/// of the function's canonical (ROBDD) structure, never of manager node
/// ids or hash-table layout — so two managers that built the same
/// boolean function independently emit byte-identical payloads (R2:
/// wire bytes must be deterministic; the chaos tests diff them).
pub fn serialize(m: &BddManager, f: Bdd, buf: &mut impl BufMut) {
    // Topological order: children before parents. A post-order DFS gives
    // exactly that. The node-id→slot index is only ever probed by key:
    // nothing may iterate it in hash order.
    let mut order: Vec<u32> = Vec::new();
    let mut index = SlotIndex::new();
    let mut stack: Vec<(u32, bool)> = vec![(f.0, false)];
    while let Some((i, expanded)) = stack.pop() {
        if i <= 1 || index.slot_of(i).is_some() {
            continue;
        }
        if expanded {
            index.insert(i, order.len() as u32);
            order.push(i);
        } else {
            stack.push((i, true));
            let n = m.node(Bdd(i));
            stack.push((n.lo, false));
            stack.push((n.hi, false));
        }
    }

    let encode_ref = |i: u32| match index.slot_of(i) {
        Some(slot) => slot + 2,
        None => i, // a terminal: the DFS indexed every decision node
    };
    buf.put_u32(order.len() as u32);
    for &i in &order {
        let n = m.node(Bdd(i));
        buf.put_u16(n.var);
        buf.put_u32(encode_ref(n.lo));
        buf.put_u32(encode_ref(n.hi));
    }
    buf.put_u32(encode_ref(f.0));
}

/// Node id → record slot for one [`serialize`] call: open addressing,
/// linear probing, at most half full. It offers no iteration, so its
/// layout cannot reach the bytes. Key 0 marks an empty cell: only decision
/// nodes (ids above 1) are inserted, and looking a terminal up finds none.
struct SlotIndex {
    cells: Vec<(u32, u32)>,
    len: usize,
}

impl SlotIndex {
    fn new() -> Self {
        SlotIndex {
            cells: vec![(0, 0); 64],
            len: 0,
        }
    }

    /// The cell holding `id`, or the empty cell where it would go.
    fn cell(&self, id: u32) -> usize {
        let mask = self.cells.len() - 1;
        let mut at = (id.wrapping_mul(0x9E37_79B9) >> 8) as usize & mask;
        while self.cells[at].0 != 0 && self.cells[at].0 != id {
            at = (at + 1) & mask;
        }
        at
    }

    fn slot_of(&self, id: u32) -> Option<u32> {
        let (key, slot) = self.cells[self.cell(id)];
        (key == id && id > 1).then_some(slot)
    }

    fn insert(&mut self, id: u32, slot: u32) {
        if (self.len + 1) * 2 > self.cells.len() {
            let doubled = vec![(0, 0); self.cells.len() * 2];
            let old = std::mem::replace(&mut self.cells, doubled);
            for (key, slot) in old.into_iter().filter(|c| c.0 != 0) {
                let at = self.cell(key);
                self.cells[at] = (key, slot);
            }
        }
        let at = self.cell(id);
        self.cells[at] = (id, slot);
        self.len += 1;
    }
}

/// Deserializes a BDD from `buf` into manager `m`.
pub fn deserialize(m: &mut BddManager, buf: &mut impl Buf) -> Result<Bdd, DecodeError> {
    if buf.remaining() < 4 {
        return Err(DecodeError::Truncated);
    }
    let count = buf.get_u32() as usize;
    let mut handles: Vec<Bdd> = Vec::with_capacity(count + 2);
    handles.push(Bdd::FALSE);
    handles.push(Bdd::TRUE);
    for _ in 0..count {
        if buf.remaining() < 10 {
            return Err(DecodeError::Truncated);
        }
        let var = buf.get_u16();
        if var >= m.num_vars() {
            return Err(DecodeError::VarOutOfRange(var));
        }
        let lo = buf.get_u32() as usize;
        let hi = buf.get_u32() as usize;
        if lo >= handles.len() || hi >= handles.len() {
            return Err(DecodeError::ForwardReference);
        }
        let (lo, hi) = (handles[lo], handles[hi]);
        let node = m.mk(var, lo.0, hi.0);
        handles.push(Bdd(node));
    }
    if buf.remaining() < 4 {
        return Err(DecodeError::Truncated);
    }
    let root = buf.get_u32() as usize;
    if root >= handles.len() {
        return Err(DecodeError::ForwardReference);
    }
    Ok(handles[root])
}

/// Convenience: serializes to a fresh byte vector.
pub fn to_bytes(m: &BddManager, f: Bdd) -> Vec<u8> {
    let mut buf = Vec::new();
    serialize(m, f, &mut buf);
    buf
}

/// Convenience: deserializes from a byte slice.
pub fn from_bytes(m: &mut BddManager, bytes: &[u8]) -> Result<Bdd, DecodeError> {
    let mut buf = bytes;
    deserialize(m, &mut buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constants_roundtrip() {
        let m = BddManager::new(4);
        let mut m2 = BddManager::new(4);
        for f in [Bdd::FALSE, Bdd::TRUE] {
            let bytes = to_bytes(&m, f);
            assert_eq!(from_bytes(&mut m2, &bytes).unwrap(), f);
        }
    }

    #[test]
    fn structure_roundtrips_across_managers() {
        let mut m1 = BddManager::new(8);
        let a = m1.var(0);
        let b = m1.var(3);
        let c = m1.nvar(5);
        let ab = m1.and(a, b);
        let f = m1.or(ab, c);

        let bytes = to_bytes(&m1, f);
        let mut m2 = BddManager::new(8);
        let g = from_bytes(&mut m2, &bytes).unwrap();

        for bits in 0u32..256 {
            let assign: Vec<bool> = (0..8).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(m1.eval(f, &assign), m2.eval(g, &assign));
        }
    }

    #[test]
    fn deserialize_is_canonical_in_destination() {
        // Re-encoding the same function twice must produce the same handle.
        let mut m1 = BddManager::new(4);
        let a = m1.var(0);
        let b = m1.var(1);
        let f = m1.and(a, b);
        let bytes = to_bytes(&m1, f);
        let mut m2 = BddManager::new(4);
        let g1 = from_bytes(&mut m2, &bytes).unwrap();
        let g2 = from_bytes(&mut m2, &bytes).unwrap();
        assert_eq!(g1, g2);
        // And it equals natively-built structure.
        let a2 = m2.var(0);
        let b2 = m2.var(1);
        let native = m2.and(a2, b2);
        assert_eq!(g1, native);
    }

    #[test]
    fn equivalent_bdds_serialize_byte_identically() {
        // Two managers build the same function along very different
        // construction paths (different operand orders, intermediate
        // results, and therefore different internal node ids); the wire
        // bytes must still be identical, because downstream consumers
        // (checkpoint digests, cross-run RIB diffs) compare them.
        let mut m1 = BddManager::new(8);
        let f1 = {
            let a = m1.var(0);
            let b = m1.var(3);
            let c = m1.nvar(5);
            let ab = m1.and(a, b);
            m1.or(ab, c)
        };

        let mut m2 = BddManager::new(8);
        let f2 = {
            // Same function, built inside-out with extra garbage nodes
            // created along the way to desynchronize the managers' ids.
            let junk1 = m2.var(7);
            let junk2 = m2.var(6);
            let _ = m2.xor(junk1, junk2);
            let c = m2.nvar(5);
            let b = m2.var(3);
            let a = m2.var(0);
            let ba = m2.and(b, a);
            m2.or(c, ba)
        };

        let bytes1 = to_bytes(&m1, f1);
        let bytes2 = to_bytes(&m2, f2);
        assert_eq!(
            bytes1, bytes2,
            "equivalent functions must serialize to identical bytes"
        );

        // And the common prerequisite actually holds: they are the same
        // function (checked semantically, not just assumed).
        for bits in 0u32..256 {
            let assign: Vec<bool> = (0..8).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(m1.eval(f1, &assign), m2.eval(f2, &assign));
        }
    }

    /// [`serialize`] as it was before the slot index: the same DFS over a
    /// `BTreeMap`. Kept as the byte-for-byte reference.
    fn serialize_reference(m: &BddManager, f: Bdd) -> Vec<u8> {
        let mut order: Vec<u32> = Vec::new();
        let mut index: std::collections::BTreeMap<u32, u32> = Default::default();
        let mut stack: Vec<(u32, bool)> = vec![(f.0, false)];
        while let Some((i, expanded)) = stack.pop() {
            if i <= 1 || index.contains_key(&i) {
                continue;
            }
            if expanded {
                index.insert(i, order.len() as u32);
                order.push(i);
            } else {
                stack.push((i, true));
                let n = m.node(Bdd(i));
                stack.push((n.lo, false));
                stack.push((n.hi, false));
            }
        }
        let encode_ref = |i: u32| if i <= 1 { i } else { index[&i] + 2 };
        let mut buf = Vec::new();
        buf.put_u32(order.len() as u32);
        for &i in &order {
            let n = m.node(Bdd(i));
            buf.put_u16(n.var);
            buf.put_u32(encode_ref(n.lo));
            buf.put_u32(encode_ref(n.hi));
        }
        buf.put_u32(encode_ref(f.0));
        buf
    }

    #[test]
    fn slot_index_growth_keeps_the_bytes() {
        // A union of scattered 16-bit minterms: hundreds of nodes, so the
        // index doubles several times on the way.
        let mut m = BddManager::new(16);
        let mut f = Bdd::FALSE;
        let mut x: u32 = 1;
        for _ in 0..400 {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let mut term = Bdd::TRUE;
            for v in 0..16 {
                let lit = if x >> (v + 8) & 1 == 1 { m.var(v) } else { m.nvar(v) };
                term = m.and(term, lit);
            }
            f = m.or(f, term);
        }
        assert!(m.size(f) > 500);
        let bytes = to_bytes(&m, f);
        assert_eq!(bytes, serialize_reference(&m, f));
        let mut m2 = BddManager::new(16);
        let g = from_bytes(&mut m2, &bytes).unwrap();
        assert_eq!(to_bytes(&m2, g), bytes);
    }

    #[test]
    fn truncated_inputs_are_rejected() {
        let mut m1 = BddManager::new(4);
        let a = m1.var(0);
        let b = m1.var(1);
        let f = m1.and(a, b);
        let bytes = to_bytes(&m1, f);
        let mut m2 = BddManager::new(4);
        for cut in 0..bytes.len() {
            assert!(from_bytes(&mut m2, &bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn var_out_of_range_is_rejected() {
        let mut m1 = BddManager::new(16);
        let f = m1.var(12);
        let bytes = to_bytes(&m1, f);
        let mut small = BddManager::new(4);
        assert_eq!(
            from_bytes(&mut small, &bytes),
            Err(DecodeError::VarOutOfRange(12))
        );
    }

    proptest! {
        /// Random functions roundtrip across managers with identical
        /// semantics and identical node counts (shared structure kept).
        #[test]
        fn prop_roundtrip(ops in proptest::collection::vec((0u8..4, 0u16..6, 0u16..6), 1..30)) {
            let mut m1 = BddManager::new(6);
            let mut f = Bdd::TRUE;
            for (op, v1, v2) in ops {
                let x = m1.var(v1);
                let y = m1.var(v2);
                let g = match op {
                    0 => m1.and(x, y),
                    1 => m1.or(x, y),
                    2 => m1.xor(x, y),
                    _ => m1.not(x),
                };
                f = match op % 2 {
                    0 => m1.and(f, g),
                    _ => m1.or(f, g),
                };
            }
            let bytes = to_bytes(&m1, f);
            let mut m2 = BddManager::new(6);
            let g = from_bytes(&mut m2, &bytes).unwrap();
            prop_assert_eq!(m1.size(f), m2.size(g));
            for bits in 0u32..64 {
                let assign: Vec<bool> = (0..6).map(|i| bits >> i & 1 == 1).collect();
                prop_assert_eq!(m1.eval(f, &assign), m2.eval(g, &assign));
            }
        }
    }
}
