//! Verdict splicing for destination-scoped incremental verification.
//!
//! An incremental DPV pass recomputes verdicts only over a *scoped*
//! packet space (the destinations a RIB delta can actually perturb);
//! the full-space verdict is then reassembled by surgery:
//!
//! ```text
//! full = (baseline ∧ ¬scope) ∨ recomputed
//! ```
//!
//! Outside the scope the baseline is still valid by construction, and
//! inside it the fresh result wins. The identity distributes over
//! disjunction, so per-worker splices OR-merge at the controller into
//! exactly the verdict a cold full-space pass would have produced.
//!
//! A [`Splicer`] is built once per scope predicate: it memoizes
//! `¬scope` (every splice against the same scope reuses the negation)
//! and counts the splice operations performed so callers can report
//! honest `dpv.scoped.splice_ops` numbers.

use crate::{Bdd, BddManager};

/// Splices scoped recomputations into full-space baselines against one
/// fixed scope predicate. Create one per `(manager, scope)` pair; the
/// negated scope is computed once in [`Splicer::new`] and reused.
#[derive(Debug, Clone)]
pub struct Splicer {
    scope: Bdd,
    not_scope: Bdd,
    ops: u64,
}

impl Splicer {
    /// A splicer for `scope`, memoizing `¬scope` up front.
    pub fn new(m: &mut BddManager, scope: Bdd) -> Splicer {
        let not_scope = m.not(scope);
        Splicer {
            scope,
            not_scope,
            ops: 0,
        }
    }

    /// The scope predicate this splicer was built for.
    pub fn scope(&self) -> Bdd {
        self.scope
    }

    /// Whether the scope is the empty set (a fully skipped source: the
    /// splice degenerates to passing the baseline through unchanged).
    pub fn is_empty_scope(&self) -> bool {
        self.scope.is_false()
    }

    /// `(base ∧ ¬scope) ∨ recomputed` — the baseline verdict outside
    /// the scoped space, the fresh verdict inside it.
    pub fn splice(&mut self, m: &mut BddManager, base: Bdd, recomputed: Bdd) -> Bdd {
        self.ops += 1;
        let outside = m.and(base, self.not_scope);
        m.or(outside, recomputed)
    }

    /// Splice operations performed so far.
    pub fn ops(&self) -> u64 {
        self.ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr() -> BddManager {
        BddManager::new(8)
    }

    #[test]
    fn splice_is_ite_when_recomputed_stays_in_scope() {
        let mut m = mgr();
        let scope = m.var(0);
        let base = m.var(1);
        let v2 = m.var(2);
        let recomputed = m.and(scope, v2); // fresh result, inside scope
        let mut s = Splicer::new(&mut m, scope);
        let got = s.splice(&mut m, base, recomputed);
        // (base ∧ ¬scope) ∨ (scope ∧ v2)  ==  ite(scope, v2, base)
        let want = {
            let ns = m.not(scope);
            let lo = m.and(ns, base);
            let hi = m.and(scope, v2);
            m.or(lo, hi)
        };
        assert_eq!(got, want);
    }

    #[test]
    fn empty_scope_passes_baseline_through() {
        let mut m = mgr();
        let base = m.var(3);
        let mut s = Splicer::new(&mut m, Bdd::FALSE);
        assert!(s.is_empty_scope());
        let got = s.splice(&mut m, base, Bdd::FALSE);
        assert_eq!(got, base);
    }

    #[test]
    fn full_scope_replaces_baseline_entirely() {
        let mut m = mgr();
        let base = m.var(1);
        let recomputed = m.var(2);
        let mut s = Splicer::new(&mut m, Bdd::TRUE);
        let got = s.splice(&mut m, base, recomputed);
        assert_eq!(got, recomputed);
    }

    #[test]
    fn recomputing_the_scoped_part_of_base_is_identity() {
        let mut m = mgr();
        let scope = m.var(0);
        let v1 = m.var(1);
        let base = m.or(scope, v1);
        let inside = m.and(base, scope);
        let mut s = Splicer::new(&mut m, scope);
        let got = s.splice(&mut m, base, inside);
        assert_eq!(got, base);
    }

    #[test]
    fn ops_counts_every_splice() {
        let mut m = mgr();
        let scope = m.var(0);
        let base = m.var(1);
        let mut s = Splicer::new(&mut m, scope);
        assert_eq!(s.ops(), 0);
        s.splice(&mut m, base, Bdd::FALSE);
        s.splice(&mut m, Bdd::FALSE, base);
        assert_eq!(s.ops(), 2);
    }
}
