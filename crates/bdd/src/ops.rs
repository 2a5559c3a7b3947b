//! Boolean operations on BDDs: NOT, AND, OR, XOR, difference, ITE,
//! restriction and existential quantification.
//!
//! All binary operations use a shared computed cache keyed by
//! `(op, lhs, rhs)` with commutative normalization, the classic Bryant
//! apply algorithm.

use crate::manager::{Bdd, BddManager, Op, TERMINAL_VAR};

impl BddManager {
    /// Logical negation.
    pub fn not(&mut self, f: Bdd) -> Bdd {
        Bdd(self.not_rec(f.0))
    }

    fn not_rec(&mut self, f: u32) -> u32 {
        if f == 0 {
            return 1;
        }
        if f == 1 {
            return 0;
        }
        if let Some(r) = self.not_cache_get(f) {
            return r;
        }
        let n = self.nodes[f as usize];
        let lo = self.not_rec(n.lo);
        let hi = self.not_rec(n.hi);
        let r = self.mk(n.var, lo, hi);
        self.not_cache_put(f, r);
        r
    }

    /// Logical conjunction.
    pub fn and(&mut self, f: Bdd, g: Bdd) -> Bdd {
        Bdd(self.apply(Op::And, f.0, g.0))
    }

    /// Logical disjunction.
    pub fn or(&mut self, f: Bdd, g: Bdd) -> Bdd {
        Bdd(self.apply(Op::Or, f.0, g.0))
    }

    /// Exclusive or.
    pub fn xor(&mut self, f: Bdd, g: Bdd) -> Bdd {
        Bdd(self.apply(Op::Xor, f.0, g.0))
    }

    /// Set difference `f ∧ ¬g`.
    pub fn diff(&mut self, f: Bdd, g: Bdd) -> Bdd {
        Bdd(self.apply(Op::Diff, f.0, g.0))
    }

    /// Conjunction over an iterator (TRUE for an empty iterator).
    pub fn and_all(&mut self, fs: impl IntoIterator<Item = Bdd>) -> Bdd {
        let mut acc = Bdd::TRUE;
        for f in fs {
            acc = self.and(acc, f);
            if acc.is_false() {
                break;
            }
        }
        acc
    }

    /// Disjunction over an iterator (FALSE for an empty iterator).
    pub fn or_all(&mut self, fs: impl IntoIterator<Item = Bdd>) -> Bdd {
        let mut acc = Bdd::FALSE;
        for f in fs {
            acc = self.or(acc, f);
            if acc.is_true() {
                break;
            }
        }
        acc
    }

    /// If-then-else: `c ∧ t ∨ ¬c ∧ e`.
    pub fn ite(&mut self, c: Bdd, t: Bdd, e: Bdd) -> Bdd {
        // Implemented via the binary ops; with hash-consing this remains
        // canonical, and the two apply calls are themselves cached.
        let ct = self.and(c, t);
        let nc = self.not(c);
        let nce = self.and(nc, e);
        self.or(ct, nce)
    }

    /// Whether `f → g` is a tautology (i.e. `f ∧ ¬g = ⊥`).
    pub fn implies(&mut self, f: Bdd, g: Bdd) -> bool {
        self.diff(f, g).is_false()
    }

    /// Whether `f ∧ g` is satisfiable (the "overlap" test used by
    /// multipath-consistency checking).
    pub fn intersects(&mut self, f: Bdd, g: Bdd) -> bool {
        !self.and(f, g).is_false()
    }

    fn terminal_case(op: Op, f: u32, g: u32) -> Option<u32> {
        match op {
            Op::And => {
                if f == 0 || g == 0 {
                    Some(0)
                } else if f == 1 {
                    Some(g)
                } else if g == 1 || f == g {
                    Some(f)
                } else {
                    None
                }
            }
            Op::Or => {
                if f == 1 || g == 1 {
                    Some(1)
                } else if f == 0 {
                    Some(g)
                } else if g == 0 || f == g {
                    Some(f)
                } else {
                    None
                }
            }
            Op::Xor => {
                if f == g {
                    Some(0)
                } else if f == 0 {
                    Some(g)
                } else if g == 0 {
                    Some(f)
                } else {
                    None
                }
            }
            Op::Diff => {
                if f == 0 || g == 1 || f == g {
                    Some(0)
                } else if g == 0 {
                    Some(f)
                } else {
                    None
                }
            }
        }
    }

    fn apply(&mut self, op: Op, f: u32, g: u32) -> u32 {
        if let Some(r) = Self::terminal_case(op, f, g) {
            return r;
        }
        // Normalize commutative operations for better cache hit rates.
        let (f, g) = match op {
            Op::And | Op::Or | Op::Xor if f > g => (g, f),
            _ => (f, g),
        };
        if let Some(r) = self.bin_cache_get(op, f, g) {
            return r;
        }
        let nf = self.nodes[f as usize];
        let ng = self.nodes[g as usize];
        let var = nf.var.min(ng.var);
        debug_assert!(var != TERMINAL_VAR);
        let (flo, fhi) = if nf.var == var { (nf.lo, nf.hi) } else { (f, f) };
        let (glo, ghi) = if ng.var == var { (ng.lo, ng.hi) } else { (g, g) };
        let lo = self.apply(op, flo, glo);
        let hi = self.apply(op, fhi, ghi);
        let r = self.mk(var, lo, hi);
        self.bin_cache_put(op, f, g, r);
        r
    }

    /// Restricts variable `var` to the constant `value` in `f` (cofactor).
    ///
    /// Memoized through the manager's reusable direct-mapped memo buffer
    /// (one generation per call) instead of a per-call `HashMap` — the
    /// memo is lossy, which is safe because `mk` is canonical.
    pub fn restrict(&mut self, f: Bdd, var: u16, value: bool) -> Bdd {
        self.memo_begin();
        Bdd(self.restrict_rec(f.0, var, value))
    }

    fn restrict_rec(&mut self, f: u32, var: u16, value: bool) -> u32 {
        if f <= 1 {
            return f;
        }
        let n = self.nodes[f as usize];
        if n.var > var {
            return f;
        }
        if let Some(r) = self.memo_get(f) {
            return r;
        }
        let r = if n.var == var {
            if value {
                n.hi
            } else {
                n.lo
            }
        } else {
            let lo = self.restrict_rec(n.lo, var, value);
            let hi = self.restrict_rec(n.hi, var, value);
            self.mk(n.var, lo, hi)
        };
        self.memo_put(f, r);
        r
    }

    /// Restricts every variable of the cube `lits` to its value in one
    /// walk: `f[v₁:=b₁, …, vₖ:=bₖ]`. `lits` is sorted by variable, each
    /// variable at most once. Memoized like [`restrict`](Self::restrict):
    /// which literals still apply below a node is fixed by the node's
    /// variable, so one memo scope serves the whole walk.
    pub fn restrict_cube(&mut self, f: Bdd, lits: &[(u16, bool)]) -> Bdd {
        debug_assert!(lits.windows(2).all(|w| w[0].0 < w[1].0), "unsorted cube");
        if lits.is_empty() {
            return f;
        }
        self.memo_begin();
        Bdd(self.restrict_cube_rec(f.0, lits))
    }

    fn restrict_cube_rec(&mut self, f: u32, lits: &[(u16, bool)]) -> u32 {
        if f <= 1 {
            return f;
        }
        let n = self.nodes[f as usize];
        let lits = &lits[lits.partition_point(|&(v, _)| v < n.var)..];
        let Some(&(var, value)) = lits.first() else {
            return f;
        };
        if let Some(r) = self.memo_get(f) {
            return r;
        }
        let r = if n.var == var {
            self.restrict_cube_rec(if value { n.hi } else { n.lo }, &lits[1..])
        } else {
            let lo = self.restrict_cube_rec(n.lo, lits);
            let hi = self.restrict_cube_rec(n.hi, lits);
            self.mk(n.var, lo, hi)
        };
        self.memo_put(f, r);
        r
    }

    /// Existentially quantifies variable `var`: `f[var:=0] ∨ f[var:=1]`.
    pub fn exists(&mut self, f: Bdd, var: u16) -> Bdd {
        let lo = self.restrict(f, var, false);
        let hi = self.restrict(f, var, true);
        self.or(lo, hi)
    }

    /// Existentially quantifies a set of variables.
    pub fn exists_all(&mut self, f: Bdd, vars: impl IntoIterator<Item = u16>) -> Bdd {
        let mut acc = f;
        for v in vars {
            acc = self.exists(acc, v);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn setup() -> (BddManager, Bdd, Bdd, Bdd) {
        let mut m = BddManager::new(8);
        let a = m.var(0);
        let b = m.var(1);
        let c = m.var(2);
        (m, a, b, c)
    }

    #[test]
    fn basic_identities() {
        let (mut m, a, b, _) = setup();
        assert_eq!(m.and(a, Bdd::TRUE), a);
        assert_eq!(m.and(a, Bdd::FALSE), Bdd::FALSE);
        assert_eq!(m.or(a, Bdd::FALSE), a);
        assert_eq!(m.or(a, Bdd::TRUE), Bdd::TRUE);
        assert_eq!(m.xor(a, a), Bdd::FALSE);
        assert_eq!(m.and(a, b), m.and(b, a));
        let na = m.not(a);
        assert_eq!(m.and(a, na), Bdd::FALSE);
        assert_eq!(m.or(a, na), Bdd::TRUE);
        let nna = m.not(na);
        assert_eq!(nna, a);
    }

    #[test]
    fn de_morgan() {
        let (mut m, a, b, _) = setup();
        let lhs = {
            let ab = m.and(a, b);
            m.not(ab)
        };
        let rhs = {
            let na = m.not(a);
            let nb = m.not(b);
            m.or(na, nb)
        };
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn ite_matches_definition() {
        let (mut m, a, b, c) = setup();
        let ite = m.ite(a, b, c);
        let manual = {
            let ab = m.and(a, b);
            let na = m.not(a);
            let nac = m.and(na, c);
            m.or(ab, nac)
        };
        assert_eq!(ite, manual);
    }

    #[test]
    fn implies_and_intersects() {
        let (mut m, a, b, _) = setup();
        let ab = m.and(a, b);
        assert!(m.implies(ab, a));
        assert!(!m.implies(a, ab));
        assert!(m.intersects(a, b));
        let na = m.not(a);
        assert!(!m.intersects(a, na));
    }

    #[test]
    fn diff_is_and_not() {
        let (mut m, a, b, _) = setup();
        let d = m.diff(a, b);
        let nb = m.not(b);
        let manual = m.and(a, nb);
        assert_eq!(d, manual);
    }

    #[test]
    fn restrict_cofactors() {
        let (mut m, a, b, _) = setup();
        let ab = m.and(a, b);
        assert_eq!(m.restrict(ab, 0, true), b);
        assert_eq!(m.restrict(ab, 0, false), Bdd::FALSE);
        // Restricting a variable not in the support is a no-op.
        assert_eq!(m.restrict(ab, 7, true), ab);
    }

    #[test]
    fn restrict_cube_equals_chained_restricts() {
        let mut m = BddManager::new(8);
        let v: Vec<Bdd> = (0..8).map(|i| m.var(i)).collect();
        let (x, y) = (m.xor(v[1], v[6]), m.and(v[0], v[7]));
        let z = m.or(x, y);
        let f = m.ite(v[3], z, v[5]);
        for lits in [
            vec![],
            vec![(6, true)],
            vec![(0, false), (7, true)],
            vec![(1, true), (3, true), (6, false), (7, true)],
            vec![(2, true), (4, false)],
        ] {
            let chained = lits.iter().fold(f, |acc, &(var, b)| m.restrict(acc, var, b));
            assert_eq!(m.restrict_cube(f, &lits), chained, "{lits:?}");
        }
    }

    #[test]
    fn exists_removes_variable() {
        let (mut m, a, b, _) = setup();
        let ab = m.and(a, b);
        assert_eq!(m.exists(ab, 0), b);
        let ex_all = m.exists_all(ab, [0, 1]);
        assert_eq!(ex_all, Bdd::TRUE);
        assert_eq!(m.exists(Bdd::FALSE, 0), Bdd::FALSE);
    }

    #[test]
    fn and_all_or_all() {
        let (mut m, a, b, c) = setup();
        let all = m.and_all([a, b, c]);
        let manual = {
            let ab = m.and(a, b);
            m.and(ab, c)
        };
        assert_eq!(all, manual);
        assert_eq!(m.and_all([]), Bdd::TRUE);
        assert_eq!(m.or_all([]), Bdd::FALSE);
        let any = m.or_all([a, b]);
        assert_eq!(any, m.or(a, b));
    }

    /// A tiny randomized model check: build random expressions, compare BDD
    /// evaluation against direct Boolean evaluation on all assignments.
    #[derive(Debug, Clone)]
    enum Expr {
        Var(u16),
        Not(Box<Expr>),
        And(Box<Expr>, Box<Expr>),
        Or(Box<Expr>, Box<Expr>),
        Xor(Box<Expr>, Box<Expr>),
    }

    fn arb_expr(depth: u32) -> BoxedStrategy<Expr> {
        let leaf = (0u16..4).prop_map(Expr::Var).boxed();
        leaf.prop_recursive(depth, 32, 2, |inner| {
            prop_oneof![
                inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
                (inner.clone(), inner.clone())
                    .prop_map(|(a, b)| Expr::And(Box::new(a), Box::new(b))),
                (inner.clone(), inner.clone())
                    .prop_map(|(a, b)| Expr::Or(Box::new(a), Box::new(b))),
                (inner.clone(), inner).prop_map(|(a, b)| Expr::Xor(Box::new(a), Box::new(b))),
            ]
            .boxed()
        })
        .boxed()
    }

    fn build(m: &mut BddManager, e: &Expr) -> Bdd {
        match e {
            Expr::Var(v) => m.var(*v),
            Expr::Not(a) => {
                let a = build(m, a);
                m.not(a)
            }
            Expr::And(a, b) => {
                let (a, b) = (build(m, a), build(m, b));
                m.and(a, b)
            }
            Expr::Or(a, b) => {
                let (a, b) = (build(m, a), build(m, b));
                m.or(a, b)
            }
            Expr::Xor(a, b) => {
                let (a, b) = (build(m, a), build(m, b));
                m.xor(a, b)
            }
        }
    }

    fn eval_expr(e: &Expr, assign: &[bool]) -> bool {
        match e {
            Expr::Var(v) => assign[*v as usize],
            Expr::Not(a) => !eval_expr(a, assign),
            Expr::And(a, b) => eval_expr(a, assign) && eval_expr(b, assign),
            Expr::Or(a, b) => eval_expr(a, assign) || eval_expr(b, assign),
            Expr::Xor(a, b) => eval_expr(a, assign) ^ eval_expr(b, assign),
        }
    }

    proptest! {
        #[test]
        fn prop_bdd_agrees_with_truth_table(e in arb_expr(5)) {
            let mut m = BddManager::new(4);
            let f = build(&mut m, &e);
            for bits in 0u32..16 {
                let assign: Vec<bool> = (0..4).map(|i| bits >> i & 1 == 1).collect();
                prop_assert_eq!(m.eval(f, &assign), eval_expr(&e, &assign));
            }
        }

        #[test]
        fn prop_canonical_equality(e1 in arb_expr(4), e2 in arb_expr(4)) {
            let mut m = BddManager::new(4);
            let f1 = build(&mut m, &e1);
            let f2 = build(&mut m, &e2);
            let semantically_equal = (0u32..16).all(|bits| {
                let assign: Vec<bool> = (0..4).map(|i| bits >> i & 1 == 1).collect();
                eval_expr(&e1, &assign) == eval_expr(&e2, &assign)
            });
            prop_assert_eq!(f1 == f2, semantically_equal);
        }
    }
}
