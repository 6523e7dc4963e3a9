//! Order-preserving variable renaming.
//!
//! The symbolic engine encodes a protocol state twice — current variables at
//! even levels, primed (next-state) variables at odd levels — and moves
//! predicates between the two vocabularies with a rename. Because the two
//! vocabularies are interleaved, the maps `x_i ↦ x_i'` (level `2i ↦ 2i+1`)
//! and back are strictly monotone on their domains, so renaming is a single
//! linear-time structural recursion; no general (exponential-in-the-worst-
//! case) substitution is needed.

use crate::manager::{Bdd, Manager, VarId};
use crate::table::Op;

/// Identity of an interned rename map (a partial variable map that is
/// strictly monotone with respect to the current order). Like varsets,
/// rename ids carry the reorder generation and must be re-interned after
/// a [`Manager::sift`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RenameId {
    pub(crate) gen: u32,
    pub(crate) idx: u32,
}

impl Manager {
    /// Intern a rename map given as `(from, to)` variable pairs.
    ///
    /// The map must be strictly monotone with respect to the current
    /// variable order: sorting the pairs by the level of `from` must also
    /// sort them strictly by the level of `to` — this is what makes the
    /// structural recursion in [`Manager::rename`] sound. Violations panic.
    pub fn rename_map(&mut self, pairs: &[(VarId, VarId)]) -> RenameId {
        // Validate monotonicity under the current order.
        let mut by_level: Vec<(u32, u32)> = pairs
            .iter()
            .map(|&(a, b)| (self.perm[a.0 as usize], self.perm[b.0 as usize]))
            .collect();
        by_level.sort_unstable();
        for w in by_level.windows(2) {
            assert!(w[0].0 < w[1].0, "duplicate source variable in rename map");
            assert!(
                w[0].1 < w[1].1,
                "rename map is not order-preserving: level {} ↦ {} vs {} ↦ {}",
                w[0].0,
                w[0].1,
                w[1].0,
                w[1].1
            );
        }
        // Store by variable id (what the recursion looks up).
        let mut map: Vec<(u32, u32)> = pairs.iter().map(|&(a, b)| (a.0, b.0)).collect();
        map.sort_unstable();
        let gen = self.order_generation;
        if let Some(&idx) = self.rename_ids.get(&map) {
            return RenameId { gen, idx };
        }
        let idx = u32::try_from(self.renames.len()).expect("too many rename maps");
        self.renames.push(map.clone());
        self.rename_ids.insert(map, idx);
        RenameId { gen, idx }
    }

    /// Validate a rename id against the current order generation.
    #[inline]
    pub(crate) fn check_rename(&self, id: RenameId) {
        assert_eq!(
            id.gen, self.order_generation,
            "rename map was interned before a reordering; re-intern it"
        );
    }

    /// Apply an interned rename map to `f`.
    ///
    /// Every variable in `f`'s support that appears as a source in the map
    /// is replaced by its image; other variables are untouched. For the
    /// result to be a well-formed ordered BDD the *combined* mapping over
    /// `f`'s support must be order-preserving; the debug-mode order check
    /// in the node constructor catches violations.
    pub fn rename(&mut self, f: Bdd, map: RenameId) -> Bdd {
        crate::budget::expect_budget(self.try_rename(f, map))
    }

    /// Fallible variant of [`Manager::rename`].
    #[must_use = "a budget violation is reported through the Result"]
    pub fn try_rename(&mut self, f: Bdd, map: RenameId) -> Result<Bdd, crate::BddError> {
        self.check_rename(map);
        self.rename_rec(f, map)
    }

    fn rename_rec(&mut self, f: Bdd, map: RenameId) -> Result<Bdd, crate::BddError> {
        self.tick()?;
        if f.is_const() {
            return Ok(f);
        }
        if let Some(r) = self.cached(Op::Rename, f.0, map.idx, 0) {
            return Ok(r);
        }
        let n = self.node(f);
        let lo = self.rename_rec(Bdd(n.lo), map)?;
        let hi = self.rename_rec(Bdd(n.hi), map)?;
        let new_var = match self.renames[map.idx as usize].binary_search_by_key(&n.var, |&(a, _)| a)
        {
            Ok(i) => self.renames[map.idx as usize][i].1,
            Err(_) => n.var,
        };
        let r = self.mk(new_var, lo, hi);
        Ok(self.memo(Op::Rename, f.0, map.idx, 0, r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rename_shifts_support() {
        let mut m = Manager::new();
        let vs = m.new_vars(4); // x0 x0' x1 x1' interleaved
        let x0 = m.var(vs[0]);
        let x1 = m.var(vs[2]);
        let f = m.and(x0, x1);
        let to_primed = m.rename_map(&[(vs[0], vs[1]), (vs[2], vs[3])]);
        let fp = m.rename(f, to_primed);
        let x0p = m.var(vs[1]);
        let x1p = m.var(vs[3]);
        let expect = m.and(x0p, x1p);
        assert_eq!(fp, expect);
    }

    #[test]
    fn rename_roundtrip() {
        let mut m = Manager::new();
        let vs = m.new_vars(6);
        let a = m.var(vs[0]);
        let b = m.var(vs[2]);
        let c = m.var(vs[4]);
        let ab = m.xor(a, b);
        let f = m.or(ab, c);
        let fwd = m.rename_map(&[(vs[0], vs[1]), (vs[2], vs[3]), (vs[4], vs[5])]);
        let bwd = m.rename_map(&[(vs[1], vs[0]), (vs[3], vs[2]), (vs[5], vs[4])]);
        let g = m.rename(f, fwd);
        assert_ne!(f, g);
        assert_eq!(m.rename(g, bwd), f);
    }

    #[test]
    fn rename_untouched_vars_stay() {
        let mut m = Manager::new();
        let vs = m.new_vars(4);
        let a = m.var(vs[0]);
        let d = m.var(vs[3]);
        let f = m.and(a, d);
        let map = m.rename_map(&[(vs[0], vs[1])]);
        let g = m.rename(f, map);
        let ap = m.var(vs[1]);
        let expect = m.and(ap, d);
        assert_eq!(g, expect);
    }

    #[test]
    #[should_panic(expected = "order-preserving")]
    fn non_monotone_map_panics() {
        let mut m = Manager::new();
        let vs = m.new_vars(4);
        m.rename_map(&[(vs[0], vs[3]), (vs[1], vs[2])]);
    }

    #[test]
    #[should_panic(expected = "duplicate source")]
    fn duplicate_source_panics() {
        let mut m = Manager::new();
        let vs = m.new_vars(4);
        m.rename_map(&[(vs[0], vs[1]), (vs[0], vs[2])]);
    }

    #[test]
    fn rename_constants_noop() {
        let mut m = Manager::new();
        let vs = m.new_vars(2);
        let map = m.rename_map(&[(vs[0], vs[1])]);
        assert!(m.rename(Bdd::TRUE, map).is_true());
        assert!(m.rename(Bdd::FALSE, map).is_false());
    }
}
