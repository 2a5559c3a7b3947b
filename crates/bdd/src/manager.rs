//! The BDD manager: node storage, hash-consing and cache bookkeeping.
//!
//! ## Hot-path table design
//!
//! The unique table is an open-addressed, power-of-two-sized array of node
//! indices probed linearly from a multiplicative hash of `(var, lo, hi)` —
//! the design CUDD and JDD use, replacing the SipHash `std::HashMap` of the
//! seed implementation. Keys are never stored twice: a slot holds only the
//! node index, and the `(var, lo, hi)` triple is read back from the node
//! table on comparison.
//!
//! The computed caches (`apply`, `not`, `restrict`) are fixed-size *lossy*
//! direct-mapped arrays: a colliding insert silently overwrites. That is
//! safe because [`mk`](BddManager::mk) is canonical — a cache miss only
//! costs recomputation, never correctness. Each entry carries a generation
//! tag so [`clear_caches`](BddManager::clear_caches) is O(1): it bumps the
//! generation and every stale entry misses by tag mismatch.
//!
//! Nodes are appended and never collected one by one, but a run of work
//! whose results are all dropped can be undone whole:
//! [`release`](BddManager::release) truncates the node table back to a
//! [`Mark`], since a node only points at older ones.

/// A handle to a BDD rooted at some node of a [`BddManager`].
///
/// Handles are cheap to copy and compare; equality of handles created by the
/// *same* manager is semantic equivalence of the functions they denote
/// (canonicity of ROBDDs). Handles from different managers must never be
/// mixed; debug builds of the operations do not detect this, so the S2
/// runtime keeps managers strictly worker-private.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bdd(pub(crate) u32);

impl Bdd {
    /// The constant FALSE function.
    pub const FALSE: Bdd = Bdd(0);
    /// The constant TRUE function.
    pub const TRUE: Bdd = Bdd(1);

    /// Whether this is the constant FALSE.
    #[inline]
    pub const fn is_false(self) -> bool {
        self.0 == 0
    }

    /// Whether this is the constant TRUE.
    #[inline]
    pub const fn is_true(self) -> bool {
        self.0 == 1
    }

    /// Whether this is either constant.
    #[inline]
    pub const fn is_const(self) -> bool {
        self.0 <= 1
    }
}

/// A length of a manager's node table (see [`BddManager::mark`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mark(u32);

/// One decision node. Terminals live at indices 0 and 1 with `var == u16::MAX`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Node {
    /// Decision variable (lower = closer to the root).
    pub var: u16,
    /// Child when the variable is 0.
    pub lo: u32,
    /// Child when the variable is 1.
    pub hi: u32,
}

/// Sentinel variable number for the two terminal nodes.
pub(crate) const TERMINAL_VAR: u16 = u16::MAX;

/// Empty-slot sentinel in the open-addressed unique table.
const EMPTY: u32 = u32::MAX;

/// Generations are packed next to a 3-bit op code in the binary cache, so
/// they wrap early enough to stay representable there.
const GENERATION_LIMIT: u32 = 1 << 28;

/// Binary operation identifiers for the computed cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Op {
    And,
    Or,
    Xor,
    Diff,
}

/// One direct-mapped slot of the binary computed cache (16 bytes).
#[derive(Debug, Clone, Copy, Default)]
struct BinEntry {
    f: u32,
    g: u32,
    /// Generation tag (bits 3..) and op code (bits 0..3). Generation 0 is
    /// never current, so zeroed slots read as empty.
    op_gen: u32,
    result: u32,
}

/// One direct-mapped slot of the NOT cache (12 bytes).
#[derive(Debug, Clone, Copy, Default)]
struct NotEntry {
    f: u32,
    generation: u32,
    result: u32,
}

/// One direct-mapped slot of the reusable restrict/quantification memo
/// (12 bytes). The tag is a per-top-level-call generation, so the buffer
/// never needs clearing between calls.
#[derive(Debug, Clone, Copy, Default)]
struct MemoEntry {
    f: u32,
    generation: u32,
    result: u32,
}

/// Geometry of the manager's tables. All sizes are log2 of the entry
/// count; the tables are power-of-two sized so slot selection is a mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// log2 capacity of the binary (apply) computed cache.
    pub bin_bits: u32,
    /// log2 capacity of the NOT computed cache.
    pub not_bits: u32,
    /// log2 capacity of the restrict/quantification memo buffer.
    pub memo_bits: u32,
    /// log2 of the *initial* unique-table slot count (the unique table
    /// doubles as the node count grows; the computed caches never do).
    pub unique_bits: u32,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            bin_bits: 13,
            not_bits: 11,
            memo_bits: 11,
            unique_bits: 10,
        }
    }
}

/// Counters for the unique table and the computed caches, exposed through
/// the per-worker memory gauges into the run statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Unique-table lookups (one per canonical `mk` that was not reduced).
    pub unique_lookups: u64,
    /// Lookups that found an existing node.
    pub unique_hits: u64,
    /// Probe steps past the home slot (collision cost of the table).
    pub unique_probe_misses: u64,
    /// Times the unique table doubled.
    pub unique_resizes: u64,
    /// Binary computed-cache lookups.
    pub bin_lookups: u64,
    /// Binary computed-cache hits.
    pub bin_hits: u64,
    /// NOT-cache lookups.
    pub not_lookups: u64,
    /// NOT-cache hits.
    pub not_hits: u64,
    /// Restrict-memo lookups.
    pub memo_lookups: u64,
    /// Restrict-memo hits.
    pub memo_hits: u64,
    /// Times [`BddManager::clear_caches`] invalidated the computed caches.
    pub generation_clears: u64,
}

impl CacheStats {
    /// Accumulates another worker's counters into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.unique_lookups += other.unique_lookups;
        self.unique_hits += other.unique_hits;
        self.unique_probe_misses += other.unique_probe_misses;
        self.unique_resizes += other.unique_resizes;
        self.bin_lookups += other.bin_lookups;
        self.bin_hits += other.bin_hits;
        self.not_lookups += other.not_lookups;
        self.not_hits += other.not_hits;
        self.memo_lookups += other.memo_lookups;
        self.memo_hits += other.memo_hits;
        self.generation_clears += other.generation_clears;
    }

    /// Hit rate of the binary computed cache in `[0, 1]`.
    pub fn bin_hit_rate(&self) -> f64 {
        ratio(self.bin_hits, self.bin_lookups)
    }

    /// Hit rate of the unique table in `[0, 1]`.
    pub fn unique_hit_rate(&self) -> f64 {
        ratio(self.unique_hits, self.unique_lookups)
    }

    /// Average probe steps past the home slot per unique-table lookup.
    pub fn unique_probe_miss_rate(&self) -> f64 {
        ratio(self.unique_probe_misses, self.unique_lookups)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// A BDD manager: owns the node table, the unique table, and the computed
/// caches. All operations go through a `&mut` manager, which is what makes
/// a single manager inherently serial — and why S2 runs one manager per
/// worker to regain parallelism.
#[derive(Debug)]
pub struct BddManager {
    pub(crate) nodes: Vec<Node>,
    /// Open-addressed unique table: node indices, probed linearly.
    unique_slots: Vec<u32>,
    unique_mask: usize,
    bin_cache: Vec<BinEntry>,
    bin_mask: usize,
    not_cache: Vec<NotEntry>,
    not_mask: usize,
    memo: Vec<MemoEntry>,
    memo_mask: usize,
    /// Tag of memo entries written by the current restrict call.
    memo_gen: u32,
    /// Tag of computed-cache entries written since the last clear.
    generation: u32,
    stats: CacheStats,
    num_vars: u16,
    peak_nodes: usize,
}

/// Multiplicative hash of a node triple (or any three small words): three
/// odd 64-bit constants spread the inputs, and the high/low fold keeps the
/// entropy that a power-of-two mask would otherwise discard.
#[inline]
fn hash3(a: u64, b: u64, c: u64) -> usize {
    let h = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
        ^ c.wrapping_mul(0x1656_67B1_9E37_79F9);
    ((h >> 32) ^ h) as usize
}

impl BddManager {
    /// Creates a manager for functions over `num_vars` Boolean variables
    /// with the default table geometry.
    ///
    /// # Panics
    /// Panics if `num_vars >= u16::MAX` (the sentinel value is reserved).
    pub fn new(num_vars: u16) -> Self {
        Self::with_config(num_vars, CacheConfig::default())
    }

    /// Creates a manager with an explicit table geometry. Larger computed
    /// caches trade memory for hit rate; the unique table only sets the
    /// pre-resize starting size.
    ///
    /// # Panics
    /// Panics if `num_vars >= u16::MAX` or any size exceeds 30 bits.
    pub fn with_config(num_vars: u16, config: CacheConfig) -> Self {
        assert!(num_vars < TERMINAL_VAR, "too many variables");
        let max_bits = config
            .bin_bits
            .max(config.not_bits)
            .max(config.memo_bits)
            .max(config.unique_bits);
        assert!(max_bits <= 30, "cache geometry out of range");
        let terminals = vec![
            Node {
                var: TERMINAL_VAR,
                lo: 0,
                hi: 0,
            },
            Node {
                var: TERMINAL_VAR,
                lo: 1,
                hi: 1,
            },
        ];
        let unique_len = 1usize << config.unique_bits;
        let bin_len = 1usize << config.bin_bits;
        let not_len = 1usize << config.not_bits;
        let memo_len = 1usize << config.memo_bits;
        BddManager {
            nodes: terminals,
            unique_slots: vec![EMPTY; unique_len],
            unique_mask: unique_len - 1,
            bin_cache: vec![BinEntry::default(); bin_len],
            bin_mask: bin_len - 1,
            not_cache: vec![NotEntry::default(); not_len],
            not_mask: not_len - 1,
            memo: vec![MemoEntry::default(); memo_len],
            memo_mask: memo_len - 1,
            memo_gen: 0,
            generation: 1,
            stats: CacheStats::default(),
            num_vars,
            peak_nodes: 2,
        }
    }

    /// Number of variables this manager was created with.
    pub fn num_vars(&self) -> u16 {
        self.num_vars
    }

    /// Total number of live nodes (including the two terminals).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// High-water mark of [`node_count`](Self::node_count).
    pub fn peak_node_count(&self) -> usize {
        self.peak_nodes
    }

    /// Current slot count of the unique table (power of two; grows by
    /// doubling as nodes are interned).
    pub fn unique_capacity(&self) -> usize {
        self.unique_slots.len()
    }

    /// Table and cache counters since the manager was created.
    pub fn cache_stats(&self) -> CacheStats {
        self.stats
    }

    /// Approximate heap footprint in bytes: node table plus unique table
    /// plus computed caches. Used by the per-worker memory gauges. The
    /// computed caches are a fixed overhead chosen at construction; only
    /// the node and unique tables grow.
    pub fn approx_bytes(&self) -> usize {
        let node_bytes = self.nodes.len() * std::mem::size_of::<Node>();
        let unique_bytes = self.unique_slots.len() * std::mem::size_of::<u32>();
        let cache_bytes = self.bin_cache.len() * std::mem::size_of::<BinEntry>()
            + self.not_cache.len() * std::mem::size_of::<NotEntry>()
            + self.memo.len() * std::mem::size_of::<MemoEntry>();
        node_bytes + unique_bytes + cache_bytes
    }

    /// Invalidates the computed caches (the unique table is kept so
    /// canonicity is preserved). O(1): bumps the generation tag rather
    /// than touching the arrays. The S2 workers call this between prefix
    /// shards to bound stale-entry footprint, mirroring the paper's
    /// observation that cache/GC pressure dominates when memory is tight.
    pub fn clear_caches(&mut self) {
        s2_obs::event!("bdd.cache_clear", self.nodes.len());
        self.stats.generation_clears += 1;
        self.generation += 1;
        if self.generation >= GENERATION_LIMIT {
            // Tag space exhausted: pay one real clear and restart tags.
            self.bin_cache.fill(BinEntry::default());
            self.not_cache.fill(NotEntry::default());
            self.generation = 1;
        }
    }

    /// The number of decision nodes reachable from `f` (excluding
    /// terminals); the standard "BDD size" metric.
    #[expect(clippy::disallowed_types, reason = "a visited set, only counted")]
    pub fn size(&self, f: Bdd) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![f.0];
        while let Some(i) = stack.pop() {
            if i <= 1 || !seen.insert(i) {
                continue;
            }
            let n = self.nodes[i as usize];
            stack.push(n.lo);
            stack.push(n.hi);
        }
        seen.len()
    }

    /// Returns the (var, lo, hi) triple of a non-terminal node.
    #[inline]
    pub(crate) fn node(&self, f: Bdd) -> Node {
        self.nodes[f.0 as usize]
    }

    /// The decision variable at the root of `f`, or `None` for constants.
    pub fn root_var(&self, f: Bdd) -> Option<u16> {
        if f.is_const() {
            None
        } else {
            Some(self.node(f).var)
        }
    }

    /// Hash-consing constructor: returns the canonical node for
    /// `(var, lo, hi)`, applying the ROBDD reduction rule `lo == hi`.
    pub(crate) fn mk(&mut self, var: u16, lo: u32, hi: u32) -> u32 {
        if lo == hi {
            return lo;
        }
        self.stats.unique_lookups += 1;
        let mut slot = hash3(var as u64, lo as u64, hi as u64) & self.unique_mask;
        loop {
            let idx = self.unique_slots[slot];
            if idx == EMPTY {
                break;
            }
            let n = self.nodes[idx as usize];
            if n.var == var && n.lo == lo && n.hi == hi {
                self.stats.unique_hits += 1;
                return idx;
            }
            self.stats.unique_probe_misses += 1;
            slot = (slot + 1) & self.unique_mask;
        }
        let idx = self.nodes.len() as u32;
        self.nodes.push(Node { var, lo, hi });
        self.unique_slots[slot] = idx;
        if self.nodes.len() > self.peak_nodes {
            self.peak_nodes = self.nodes.len();
        }
        // Keep load factor under 3/4; doubling re-derives every slot from
        // the node table (no stored hashes, no tombstones — `release`
        // only drops the newest nodes, which displaced no older one).
        if (self.nodes.len() - 2) * 4 >= self.unique_slots.len() * 3 {
            self.grow_unique();
        }
        idx
    }

    fn grow_unique(&mut self) {
        let new_len = self.unique_slots.len() * 2;
        s2_obs::event!("bdd.resize", new_len);
        self.stats.unique_resizes += 1;
        let mask = new_len - 1;
        let mut slots = vec![EMPTY; new_len];
        for (idx, n) in self.nodes.iter().enumerate().skip(2) {
            let mut slot = hash3(n.var as u64, n.lo as u64, n.hi as u64) & mask;
            while slots[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            slots[slot] = idx as u32;
        }
        self.unique_slots = slots;
        self.unique_mask = mask;
    }

    /// The current end of the node table, for [`release`](Self::release).
    pub fn mark(&self) -> Mark {
        Mark(self.nodes.len() as u32)
    }

    /// Drops every node interned since `mark`, and every computed-cache
    /// entry that names one; what existed at `mark` keeps its handle and
    /// its cache entries. O(nodes dropped + cache size).
    ///
    /// The caller must hold no handle created after `mark`: a released
    /// index is handed out again by the next `mk`. A mark past the end
    /// of the table (taken before an earlier release) drops nothing.
    pub fn release(&mut self, mark: Mark) {
        let keep = mark.0;
        // The table is laid out as if the nodes were inserted in index
        // order (a resize re-inserts them so), and an insert moves no
        // older entry: emptying the newest nodes' slots, newest first,
        // leaves the table the older nodes alone would have built.
        for idx in (keep as usize..self.nodes.len()).rev() {
            let n = self.nodes[idx];
            let mut slot = hash3(n.var as u64, n.lo as u64, n.hi as u64) & self.unique_mask;
            while self.unique_slots[slot] != idx as u32 {
                slot = (slot + 1) & self.unique_mask;
            }
            self.unique_slots[slot] = EMPTY;
        }
        self.nodes.truncate(keep as usize);
        for e in &mut self.bin_cache {
            if e.f >= keep || e.g >= keep || e.result >= keep {
                *e = BinEntry::default();
            }
        }
        for e in &mut self.not_cache {
            if e.f >= keep || e.result >= keep {
                *e = NotEntry::default();
            }
        }
        // Memo entries never outlive their call (see `memo_begin`).
    }

    /// Looks up `(op, f, g)` in the direct-mapped binary computed cache.
    #[inline]
    pub(crate) fn bin_cache_get(&mut self, op: Op, f: u32, g: u32) -> Option<u32> {
        self.stats.bin_lookups += 1;
        let entry = self.bin_cache[hash3(op as u64, f as u64, g as u64) & self.bin_mask];
        if entry.f == f && entry.g == g && entry.op_gen == ((self.generation << 3) | op as u32) {
            self.stats.bin_hits += 1;
            Some(entry.result)
        } else {
            None
        }
    }

    /// Stores a result in the binary computed cache (lossy: overwrites
    /// whatever shared the slot).
    #[inline]
    pub(crate) fn bin_cache_put(&mut self, op: Op, f: u32, g: u32, result: u32) {
        let slot = hash3(op as u64, f as u64, g as u64) & self.bin_mask;
        self.bin_cache[slot] = BinEntry {
            f,
            g,
            op_gen: (self.generation << 3) | op as u32,
            result,
        };
    }

    /// Looks up `f` in the direct-mapped NOT cache.
    #[inline]
    pub(crate) fn not_cache_get(&mut self, f: u32) -> Option<u32> {
        self.stats.not_lookups += 1;
        let entry = self.not_cache[hash3(f as u64, 0, 0) & self.not_mask];
        if entry.f == f && entry.generation == self.generation {
            self.stats.not_hits += 1;
            Some(entry.result)
        } else {
            None
        }
    }

    /// Stores a result in the NOT cache (lossy).
    #[inline]
    pub(crate) fn not_cache_put(&mut self, f: u32, result: u32) {
        let slot = hash3(f as u64, 0, 0) & self.not_mask;
        self.not_cache[slot] = NotEntry {
            f,
            generation: self.generation,
            result,
        };
    }

    /// Starts a fresh restrict/quantification memo scope: entries written
    /// by earlier calls stop matching without the buffer being touched.
    #[inline]
    pub(crate) fn memo_begin(&mut self) {
        if self.memo_gen == u32::MAX {
            self.memo.fill(MemoEntry::default());
            self.memo_gen = 0;
        }
        self.memo_gen += 1;
    }

    /// Looks up `f` in the current memo scope.
    #[inline]
    pub(crate) fn memo_get(&mut self, f: u32) -> Option<u32> {
        self.stats.memo_lookups += 1;
        let entry = self.memo[hash3(f as u64, 0, 1) & self.memo_mask];
        if entry.f == f && entry.generation == self.memo_gen {
            self.stats.memo_hits += 1;
            Some(entry.result)
        } else {
            None
        }
    }

    /// Stores a result in the current memo scope (lossy).
    #[inline]
    pub(crate) fn memo_put(&mut self, f: u32, result: u32) {
        let slot = hash3(f as u64, 0, 1) & self.memo_mask;
        self.memo[slot] = MemoEntry {
            f,
            generation: self.memo_gen,
            result,
        };
    }

    /// The function that is true iff variable `var` is 1.
    ///
    /// # Panics
    /// Panics if `var` is out of range.
    pub fn var(&mut self, var: u16) -> Bdd {
        assert!(var < self.num_vars, "variable {var} out of range");
        Bdd(self.mk(var, 0, 1))
    }

    /// The function that is true iff variable `var` is 0.
    pub fn nvar(&mut self, var: u16) -> Bdd {
        assert!(var < self.num_vars, "variable {var} out of range");
        Bdd(self.mk(var, 1, 0))
    }

    /// Evaluates `f` under a complete assignment (indexed by variable).
    pub fn eval(&self, f: Bdd, assignment: &[bool]) -> bool {
        let mut cur = f.0;
        while cur > 1 {
            let n = self.nodes[cur as usize];
            cur = if assignment[n.var as usize] { n.hi } else { n.lo };
        }
        cur == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminals_are_fixed() {
        let m = BddManager::new(4);
        assert!(Bdd::FALSE.is_false() && !Bdd::FALSE.is_true());
        assert!(Bdd::TRUE.is_true() && Bdd::TRUE.is_const());
        assert_eq!(m.node_count(), 2);
        assert_eq!(m.root_var(Bdd::TRUE), None);
    }

    #[test]
    fn var_is_hash_consed() {
        let mut m = BddManager::new(4);
        let a1 = m.var(0);
        let a2 = m.var(0);
        assert_eq!(a1, a2);
        assert_eq!(m.node_count(), 3);
        assert_eq!(m.root_var(a1), Some(0));
        let stats = m.cache_stats();
        assert_eq!(stats.unique_lookups, 2);
        assert_eq!(stats.unique_hits, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn var_out_of_range_panics() {
        let mut m = BddManager::new(2);
        m.var(2);
    }

    #[test]
    fn eval_follows_decisions() {
        let mut m = BddManager::new(2);
        let a = m.var(0);
        let na = m.nvar(0);
        assert!(m.eval(a, &[true, false]));
        assert!(!m.eval(a, &[false, false]));
        assert!(m.eval(na, &[false, false]));
        assert!(m.eval(Bdd::TRUE, &[false, false]));
        assert!(!m.eval(Bdd::FALSE, &[true, true]));
    }

    #[test]
    fn size_counts_reachable_decision_nodes() {
        let mut m = BddManager::new(4);
        let a = m.var(0);
        assert_eq!(m.size(a), 1);
        assert_eq!(m.size(Bdd::TRUE), 0);
    }

    #[test]
    fn peak_tracks_high_water() {
        let mut m = BddManager::new(8);
        for v in 0..8 {
            m.var(v);
        }
        assert_eq!(m.peak_node_count(), 10);
        assert!(m.approx_bytes() > 0);
    }

    #[test]
    fn unique_table_grows_under_load() {
        // A tiny initial table must double repeatedly while staying
        // canonical (hash-consing hits keep working across resizes).
        let config = CacheConfig {
            unique_bits: 2,
            ..CacheConfig::default()
        };
        let mut m = BddManager::with_config(512, config);
        let mut handles = Vec::new();
        for v in 0..512 {
            handles.push(m.var(v));
        }
        assert!(m.cache_stats().unique_resizes >= 5);
        assert!(m.unique_capacity() >= 512);
        for (v, &h) in handles.iter().enumerate() {
            assert_eq!(m.var(v as u16), h, "resize broke canonicity");
        }
        // No node was duplicated: 2 terminals + 512 vars.
        assert_eq!(m.node_count(), 514);
    }

    /// A release drops what came after the mark and only that: the
    /// table is canonical again (rebuilding a kept node finds it, a
    /// dropped one is rebuilt fresh), and no cache entry answers with a
    /// released index that now names another node.
    #[test]
    fn release_drops_exactly_the_nodes_after_the_mark() {
        let config = CacheConfig {
            unique_bits: 2,
            ..CacheConfig::default()
        };
        let mut m = BddManager::with_config(16, config);
        let vars: Vec<Bdd> = (0..16).map(|v| m.var(v)).collect();
        let kept = m.or(vars[0], vars[5]);
        let mark = m.mark();
        let count = m.node_count();
        // Enough nodes to shift probe runs and double the table.
        let mut parity = Bdd::FALSE;
        for pair in vars.windows(2) {
            let p = m.and(pair[0], pair[1]);
            parity = m.xor(parity, p);
        }
        let gone = m.and(kept, parity);
        let gone_size = m.size(gone);
        assert!(m.node_count() > count + 16);
        m.release(mark);
        assert_eq!((m.node_count(), m.mark()), (count, mark));
        assert_table_holds_exactly_the_nodes(&m);
        for (v, &h) in vars.iter().enumerate() {
            assert_eq!(m.var(v as u16), h);
        }
        assert_eq!(m.or(vars[0], vars[5]), kept);
        assert_eq!(m.node_count(), count);
        // The released indices are reused by other functions; the cached
        // `and(kept, parity)` must not resurface under them.
        let other = m.and(vars[3], vars[9]);
        assert_eq!(other.0 as usize, count, "the first released index is reused");
        let mut again = Bdd::FALSE;
        for pair in vars.windows(2) {
            let p = m.and(pair[0], pair[1]);
            again = m.xor(again, p);
        }
        let rebuilt = m.and(kept, again);
        let expected = (0..1u32 << 16).all(|bits| {
            let a: Vec<bool> = (0..16).map(|i| bits >> i & 1 == 1).collect();
            let adjacent = (0..15).filter(|&i| a[i] && a[i + 1]).count();
            m.eval(rebuilt, &a) == ((a[0] || a[5]) && adjacent % 2 == 1)
        });
        assert!(expected);
        assert_eq!(m.size(rebuilt), gone_size);
        // A stale mark past the end drops nothing.
        let end = m.node_count();
        m.release(Mark(end as u32 + 5));
        assert_eq!(m.node_count(), end);
    }

    /// Every node is in the unique table once, reachable from its home
    /// slot, and the table holds nothing else.
    fn assert_table_holds_exactly_the_nodes(m: &BddManager) {
        let live = m.unique_slots.iter().filter(|&&i| i != EMPTY).count();
        assert_eq!(live, m.node_count() - 2);
        for idx in 2..m.node_count() as u32 {
            let n = m.nodes[idx as usize];
            let mut slot = hash3(n.var as u64, n.lo as u64, n.hi as u64) & m.unique_mask;
            while m.unique_slots[slot] != idx {
                assert_ne!(m.unique_slots[slot], EMPTY, "node {idx} unreachable");
                slot = (slot + 1) & m.unique_mask;
            }
        }
    }

    /// Releases into a crowded table, where dropped and kept nodes share
    /// probe runs: after each, every kept node is still found (the same
    /// handle, no new node) and the table holds nothing else.
    #[test]
    fn release_keeps_every_older_node_reachable() {
        let mut m = BddManager::new(40);
        let vars: Vec<Bdd> = (0..40).map(|v| m.var(v)).collect();
        let pairs: Vec<(usize, usize)> =
            (0..40).flat_map(|i| (i + 1..40).map(move |j| (i, j))).collect();
        let mut kept = Vec::new();
        for round in 0..6 {
            for &(i, j) in pairs.iter().skip(round).step_by(6) {
                kept.push(((i, j), m.and(vars[i], vars[j])));
            }
            let (mark, count) = (m.mark(), m.node_count());
            for &(i, j) in &pairs {
                m.or(vars[i], vars[j]);
            }
            m.release(mark);
            assert_eq!(m.node_count(), count, "round {round}");
            assert_table_holds_exactly_the_nodes(&m);
            for &((i, j), f) in &kept {
                assert_eq!(m.and(vars[i], vars[j]), f, "round {round}: {i} ∧ {j}");
            }
            assert_eq!(m.node_count(), count, "round {round}");
        }
    }

    #[test]
    fn generational_clear_is_cheap_and_effective() {
        let mut m = BddManager::new(8);
        let a = m.var(0);
        let b = m.var(1);
        let ab = m.and(a, b);
        let before = m.cache_stats();
        m.clear_caches();
        // Recomputing after the clear must miss the computed cache...
        let ab2 = m.and(a, b);
        assert_eq!(ab, ab2, "clear must not affect canonicity");
        let after = m.cache_stats();
        assert_eq!(after.generation_clears, before.generation_clears + 1);
        assert!(after.bin_lookups > before.bin_lookups);
        // ...but the unique table survives the clear.
        assert_eq!(m.node_count(), 5);
    }
}
