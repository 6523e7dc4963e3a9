//! The two flat tables of the BDD core, both sized from the node arena.
//!
//! * [`ComputedTable`] — one direct-mapped, lossy memo for every memoized
//!   operation, keyed by `(op, a, b, c)`. A colliding insert overwrites the
//!   old entry, so memory is bounded by the table size, not by the number
//!   of operations performed; a forgotten result only costs a
//!   recomputation. It holds at least as many entries as the arena has
//!   slots (at least [`COMPUTED_MIN_LOG2`], at most [`COMPUTED_MAX_LOG2`]
//!   bits of index), as in CUDD's design of one bounded cache.
//! * [`UniqueTable`] — the hash-consing index: open addressing with linear
//!   probing over arena indices (`0`, the `FALSE` terminal, marks a vacant
//!   slot). Keys are not stored; a probe compares `(var, lo, hi)` by reading
//!   the node itself. The table has at least twice as many slots as the
//!   arena, so its load stays at or below one half.
//!
//! Both tables hash with the multiply–rotate–xor step of rustc's `FxHasher`
//! and index by the top bits of the product, where its mixing is best.

use crate::manager::{BinOp, Node};

/// Multiplicative constant of the 64-bit Fx scheme.
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

#[inline]
fn mix(h: u64, word: u32) -> u64 {
    (h.rotate_left(5) ^ word as u64).wrapping_mul(K)
}

/// The `log2` of the smallest power of two at least `n`.
fn log2_ceil(n: usize) -> u32 {
    n.next_power_of_two().trailing_zeros()
}

/// Tags of the memoized operations, the `op` word of a computed-table key.
/// Zero is reserved for a vacant entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    And = 1,
    Or,
    Xor,
    Not,
    Ite,
    Exists,
    AndExists,
    Rename,
}

impl From<BinOp> for Op {
    fn from(op: BinOp) -> Op {
        match op {
            BinOp::And => Op::And,
            BinOp::Or => Op::Or,
            BinOp::Xor => Op::Xor,
        }
    }
}

/// One computed-table entry: `(op, a, b, c) → r`, vacant when `op == 0`.
#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    op: u32,
    a: u32,
    b: u32,
    c: u32,
    r: u32,
}

/// Smallest computed table: 2^12 entries.
pub(crate) const COMPUTED_MIN_LOG2: u32 = 12;
/// Largest computed table: 2^23 entries (160 MiB).
pub(crate) const COMPUTED_MAX_LOG2: u32 = 23;

/// The direct-mapped, lossy memo shared by every operation.
pub(crate) struct ComputedTable {
    entries: Vec<Entry>,
    /// `64 - log2(entries.len())`: the hash's top bits pick the slot.
    shift: u32,
}

impl ComputedTable {
    pub(crate) fn new() -> Self {
        Self::with_log2(COMPUTED_MIN_LOG2)
    }

    fn with_log2(log2: u32) -> Self {
        ComputedTable { entries: vec![Entry::default(); 1 << log2], shift: 64 - log2 }
    }

    #[inline]
    fn slot(&self, op: u32, a: u32, b: u32, c: u32) -> usize {
        (mix(mix(mix(mix(0, op), a), b), c) >> self.shift) as usize
    }

    /// The memoized result of `(op, a, b, c)`, if its slot still holds it.
    #[inline]
    pub(crate) fn get(&self, op: Op, a: u32, b: u32, c: u32) -> Option<u32> {
        let op = op as u32;
        let e = &self.entries[self.slot(op, a, b, c)];
        (e.op == op && e.a == a && e.b == b && e.c == c).then_some(e.r)
    }

    /// Record `(op, a, b, c) → r`, overwriting whatever held the slot.
    #[inline]
    pub(crate) fn insert(&mut self, op: Op, a: u32, b: u32, c: u32, r: u32) {
        let op = op as u32;
        let slot = self.slot(op, a, b, c);
        self.entries[slot] = Entry { op, a, b, c, r };
    }

    /// Forget every entry (after GC or a reordering).
    pub(crate) fn clear(&mut self) {
        self.entries.fill(Entry::default());
    }

    /// Number of entries (a power of two).
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Grow to at least `arena` entries (up to the cap), rehashing the
    /// entries held; where two land in one slot, the later one stays.
    #[inline]
    pub(crate) fn fit(&mut self, arena: usize) {
        if arena > self.entries.len() && self.entries.len() < 1 << COMPUTED_MAX_LOG2 {
            self.grow(log2_ceil(arena).min(COMPUTED_MAX_LOG2));
        }
    }

    fn grow(&mut self, log2: u32) {
        let old = std::mem::replace(self, Self::with_log2(log2));
        for e in old.entries.into_iter().filter(|e| e.op != 0) {
            let slot = self.slot(e.op, e.a, e.b, e.c);
            self.entries[slot] = e;
        }
    }
}

/// Smallest unique table: 2^12 slots.
const UNIQUE_MIN_LOG2: u32 = 12;

/// The open-addressed hash-consing index over the node arena.
pub(crate) struct UniqueTable {
    /// Arena indices of the live non-terminal nodes; `0` is vacant.
    slots: Vec<u32>,
    /// `64 - log2(slots.len())`.
    shift: u32,
    len: usize,
}

impl UniqueTable {
    pub(crate) fn new() -> Self {
        Self::with_log2(UNIQUE_MIN_LOG2)
    }

    fn with_log2(log2: u32) -> Self {
        UniqueTable { slots: vec![0; 1 << log2], shift: 64 - log2, len: 0 }
    }

    /// Number of nodes indexed.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Number of slots (a power of two).
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// The indexed arena indices, in slot order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.slots.iter().copied().filter(|&idx| idx != 0)
    }

    #[inline]
    fn home(&self, n: Node) -> usize {
        (mix(mix(mix(0, n.var), n.lo), n.hi) >> self.shift) as usize
    }

    #[inline]
    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    /// Look `key` up: `Ok(index)` of the node that has it, or `Err(slot)`,
    /// the vacant slot where it belongs.
    #[inline]
    pub(crate) fn find(&self, nodes: &[Node], key: Node) -> Result<u32, usize> {
        let mut i = self.home(key);
        loop {
            match self.slots[i] {
                0 => return Err(i),
                idx if nodes[idx as usize] == key => return Ok(idx),
                _ => i = (i + 1) & self.mask(),
            }
        }
    }

    /// Index node `idx` at `slot`, a vacant slot returned by [`Self::find`]
    /// for its key.
    #[inline]
    pub(crate) fn insert_at(&mut self, slot: usize, idx: u32) {
        debug_assert_eq!(self.slots[slot], 0, "unique-table slot taken");
        self.slots[slot] = idx;
        self.len += 1;
    }

    /// Index node `idx` under its current key, which must be absent.
    pub(crate) fn insert(&mut self, nodes: &[Node], idx: u32) {
        let key = nodes[idx as usize];
        let mut i = self.home(key);
        while self.slots[i] != 0 {
            debug_assert!(nodes[self.slots[i] as usize] != key, "duplicate unique-table key");
            i = (i + 1) & self.mask();
        }
        self.insert_at(i, idx);
    }

    /// Drop node `idx`, read under its current key, by backward-shift
    /// deletion: later members of its probe run move up, so no tombstone
    /// is left and every remaining key stays reachable from its home slot.
    pub(crate) fn remove(&mut self, nodes: &[Node], idx: u32) {
        let mask = self.mask();
        let mut hole = self.home(nodes[idx as usize]);
        while self.slots[hole] != idx {
            assert_ne!(self.slots[hole], 0, "node {idx} is not in the unique table");
            hole = (hole + 1) & mask;
        }
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let moved = self.slots[j];
            if moved == 0 {
                break;
            }
            // `moved` may fill the hole unless its home lies cyclically
            // in (hole, j]: then the hole is before where probing starts.
            let home = self.home(nodes[moved as usize]);
            let stays = if hole <= j { hole < home && home <= j } else { hole < home || home <= j };
            if !stays {
                self.slots[hole] = moved;
                hole = j;
            }
        }
        self.slots[hole] = 0;
        self.len -= 1;
    }

    /// Re-index exactly the nodes in `live` (ascending), keeping the size.
    pub(crate) fn rebuild(&mut self, nodes: &[Node], live: impl Iterator<Item = u32>) {
        self.slots.fill(0);
        self.len = 0;
        for idx in live {
            self.insert(nodes, idx);
        }
    }

    /// Double until the table has at least twice as many slots as the
    /// arena has, rehashing every node.
    #[inline]
    pub(crate) fn fit(&mut self, nodes: &[Node]) {
        if 2 * nodes.len() > self.slots.len() {
            let old = std::mem::replace(self, Self::with_log2(log2_ceil(2 * nodes.len())));
            for idx in old.iter() {
                self.insert(nodes, idx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `nth` key `(var, 0, 1)` whose home in `t` is `slot`.
    fn homed_at(t: &UniqueTable, slot: usize, nth: usize) -> Node {
        let keys = (0..).map(|var| Node { var, lo: 0, hi: 1 });
        keys.filter(|&n| t.home(n) == slot).nth(nth).unwrap()
    }

    /// Backward-shift deletion where a probe run wraps past the end of the
    /// table: after any one removal, every other key is still found.
    #[test]
    fn removal_keeps_wrapped_probe_runs_findable() {
        let empty = UniqueTable::new();
        let last = empty.mask();
        let terminal = Node { var: u32::MAX, lo: 0, hi: 0 };
        // Two keys homed at the last slot and two at slot 0, interleaved.
        let nodes = [
            terminal,
            terminal,
            homed_at(&empty, last, 0),
            homed_at(&empty, 0, 0),
            homed_at(&empty, last, 1),
            homed_at(&empty, 0, 1),
        ];
        for victim in 2..nodes.len() as u32 {
            let mut t = UniqueTable::new();
            for idx in 2..nodes.len() as u32 {
                t.insert(&nodes, idx);
            }
            t.remove(&nodes, victim);
            assert_eq!(t.len(), nodes.len() - 3);
            for idx in 2..nodes.len() as u32 {
                let found = t.find(&nodes, nodes[idx as usize]);
                assert_eq!(found.is_ok(), idx != victim, "removing {victim}: key of {idx}");
            }
        }
    }
}
