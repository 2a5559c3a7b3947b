//! Satisfying-assignment counting and enumeration.

#![expect(
    clippy::disallowed_types,
    reason = "memo tables keyed by node id, probed and never iterated: no order reaches an output"
)]

use crate::manager::{Bdd, BddManager};
use std::collections::HashMap;

impl BddManager {
    /// Number of satisfying assignments of `f` over all
    /// [`num_vars`](Self::num_vars) variables, as an exact `u128`.
    ///
    /// # Panics
    /// Panics if the count overflows `u128` (needs > 128 variables all
    /// free, which the 104+m bit packet space can hit only for degenerate
    /// inputs; callers for the packet space use
    /// [`sat_fraction`](Self::sat_fraction) instead).
    pub fn sat_count(&self, f: Bdd) -> u128 {
        let mut memo = HashMap::new();
        let n = self.num_vars();
        self.count_rec(f.0, 0, n, &mut memo)
    }

    fn count_rec(&self, f: u32, from_var: u16, total: u16, memo: &mut HashMap<u32, u128>) -> u128 {
        // Count assignments of variables in [var(f), total), then scale by
        // the free variables between from_var and var(f).
        let var_of = |i: u32| -> u16 {
            if i <= 1 {
                total
            } else {
                self.nodes[i as usize].var
            }
        };
        let base = if f == 0 {
            0
        } else if f == 1 {
            1
        } else if let Some(&c) = memo.get(&f) {
            c
        } else {
            let n = self.nodes[f as usize];
            let lo = self.count_rec(n.lo, n.var + 1, total, memo);
            let hi = self.count_rec(n.hi, n.var + 1, total, memo);
            let c = lo + hi;
            memo.insert(f, c);
            c
        };
        let free = (var_of(f) - from_var) as u32;
        base << free
    }

    /// Fraction of the full assignment space satisfying `f`, as `f64`.
    /// Robust for very wide variable spaces.
    pub fn sat_fraction(&self, f: Bdd) -> f64 {
        let mut memo: HashMap<u32, f64> = HashMap::new();
        return rec(self, f.0, &mut memo);

        fn rec(m: &BddManager, f: u32, memo: &mut HashMap<u32, f64>) -> f64 {
            if f == 0 {
                return 0.0;
            }
            if f == 1 {
                return 1.0;
            }
            if let Some(&v) = memo.get(&f) {
                return v;
            }
            let n = m.nodes[f as usize];
            let v = 0.5 * rec(m, n.lo, memo) + 0.5 * rec(m, n.hi, memo);
            memo.insert(f, v);
            v
        }
    }

    /// Returns one satisfying assignment of `f` as a vector indexed by
    /// variable (don't-care variables are `false`), or `None` if
    /// unsatisfiable.
    pub fn any_sat(&self, f: Bdd) -> Option<Vec<bool>> {
        if f.is_false() {
            return None;
        }
        let mut assign = vec![false; self.num_vars() as usize];
        let mut cur = f.0;
        while cur > 1 {
            let n = self.nodes[cur as usize];
            if n.hi != 0 {
                assign[n.var as usize] = true;
                cur = n.hi;
            } else {
                cur = n.lo;
            }
        }
        Some(assign)
    }

    /// Enumerates the satisfying cubes of `f`. Each cube is a vector of
    /// `(var, value)` decisions along a root-to-TRUE path; variables absent
    /// from a cube are don't-cares. Stops after `limit` cubes.
    pub fn sat_cubes(&self, f: Bdd, limit: usize) -> Vec<Vec<(u16, bool)>> {
        let mut out = Vec::new();
        let mut path = Vec::new();
        self.cubes_rec(f.0, &mut path, &mut out, limit);
        out
    }

    fn cubes_rec(
        &self,
        f: u32,
        path: &mut Vec<(u16, bool)>,
        out: &mut Vec<Vec<(u16, bool)>>,
        limit: usize,
    ) {
        if out.len() >= limit || f == 0 {
            return;
        }
        if f == 1 {
            out.push(path.clone());
            return;
        }
        let n = self.nodes[f as usize];
        path.push((n.var, false));
        self.cubes_rec(n.lo, path, out, limit);
        path.pop();
        path.push((n.var, true));
        self.cubes_rec(n.hi, path, out, limit);
        path.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_on_small_functions() {
        let mut m = BddManager::new(3);
        assert_eq!(m.sat_count(Bdd::FALSE), 0);
        assert_eq!(m.sat_count(Bdd::TRUE), 8);
        let a = m.var(0);
        assert_eq!(m.sat_count(a), 4);
        let b = m.var(1);
        let ab = m.and(a, b);
        assert_eq!(m.sat_count(ab), 2);
        let aob = m.or(a, b);
        assert_eq!(m.sat_count(aob), 6);
        let x = m.xor(a, b);
        assert_eq!(m.sat_count(x), 4);
    }

    #[test]
    fn count_handles_gaps_in_variable_order() {
        let mut m = BddManager::new(8);
        let a = m.var(3);
        let b = m.var(6);
        let ab = m.and(a, b);
        assert_eq!(m.sat_count(ab), 1 << 6);
    }

    #[test]
    fn fraction_matches_count() {
        let mut m = BddManager::new(10);
        let a = m.var(0);
        let b = m.var(5);
        let f = m.or(a, b);
        let frac = m.sat_fraction(f);
        let count = m.sat_count(f) as f64;
        assert!((frac - count / 1024.0).abs() < 1e-12);
    }

    #[test]
    fn any_sat_finds_model() {
        let mut m = BddManager::new(4);
        let a = m.var(0);
        let nb = m.nvar(1);
        let f = m.and(a, nb);
        let assign = m.any_sat(f).unwrap();
        assert!(m.eval(f, &assign));
        assert!(assign[0] && !assign[1]);
        assert_eq!(m.any_sat(Bdd::FALSE), None);
        assert_eq!(m.any_sat(Bdd::TRUE).unwrap(), vec![false; 4]);
    }

    #[test]
    fn cubes_cover_the_function() {
        let mut m = BddManager::new(3);
        let a = m.var(0);
        let b = m.var(1);
        let f = m.xor(a, b);
        let cubes = m.sat_cubes(f, 100);
        assert_eq!(cubes.len(), 2);
        // Rebuild from cubes and compare.
        let mut rebuilt = Bdd::FALSE;
        for cube in &cubes {
            let mut term = Bdd::TRUE;
            for &(v, val) in cube {
                let lit = if val { m.var(v) } else { m.nvar(v) };
                term = m.and(term, lit);
            }
            rebuilt = m.or(rebuilt, term);
        }
        assert_eq!(rebuilt, f);
    }

    #[test]
    fn cube_limit_is_respected() {
        let mut m = BddManager::new(4);
        let vars: Vec<Bdd> = (0..4).map(|v| m.var(v)).collect();
        let f = m.or_all(vars);
        assert_eq!(m.sat_cubes(f, 2).len(), 2);
    }
}
