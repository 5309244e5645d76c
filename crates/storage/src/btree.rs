//! An ordered index: a from-scratch B+tree over `i64` keys.
//!
//! The paper supports only hash lookups and notes that "LTPG can be
//! readily extended to support range queries, by integrating indexing,
//! such as B-trees" (§VI-A, future work). This module provides that
//! extension: a classic arena-allocated B+tree (leaves linked for range
//! scans). Reads take `&`, inserts and removals `&mut`: batch engines scan
//! only in the execute phase and write only in write-back, so the borrow
//! that ends one phase is what orders it before the next. A table
//! bulk-loads its tree from sorted keys on its first range scan
//! ([`OrderedIndex::from_sorted`]). Deletion is lazy: nothing is
//! rebalanced, so nodes may underfill; lookups and scans stay correct.
//!
//! The tree is deliberately simple and verifiable rather than clever:
//! fixed fan-out, top-down splitting is avoided in favour of classic
//! bottom-up insertion with parent stacks, and every structural invariant
//! is checked by `validate()` under test.

use std::ops::Range;

use crate::table::RowId;

/// Maximum keys per node (order). Splits produce ⌈B/2⌉-filled nodes.
const B: usize = 32;

#[derive(Debug)]
enum Node {
    Leaf {
        keys: Vec<i64>,
        vals: Vec<RowId>,
        /// Arena index of the next leaf (key order), for range scans.
        next: Option<usize>,
    },
    Internal {
        /// Separator keys; `children.len() == keys.len() + 1`.
        keys: Vec<i64>,
        children: Vec<usize>,
    },
}

/// An ordered index: `i64` key → [`RowId`], in key order.
#[derive(Debug)]
pub struct OrderedIndex {
    arena: Vec<Node>,
    root: usize,
    len: usize,
}

impl OrderedIndex {
    /// Create an empty index.
    pub fn new() -> Self {
        OrderedIndex { arena: vec![Node::Leaf { keys: Vec::new(), vals: Vec::new(), next: None }], root: 0, len: 0 }
    }

    /// An index holding `pairs` (sorted by key, each key once), bulk-loaded
    /// with every node full: half the leaves of one grown by ascending
    /// inserts, as TPC-C's order keys arrive within a district. Built bottom
    /// up: leaves of up to `B` keys linked in order, then levels of internal
    /// nodes of up to `B + 1` children until one node is left, the root.
    pub fn from_sorted(pairs: &[(i64, RowId)]) -> Self {
        debug_assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0), "bulk load needs ascending keys");
        if pairs.is_empty() {
            return OrderedIndex::new();
        }
        let leaves = even_runs(pairs.len(), B);
        let count = leaves.len();
        let mut arena = Vec::with_capacity(count + count / B + 2);
        // Each node of the level being built on, with the smallest key
        // below it: the separator its parent files it under.
        let mut level: Vec<(usize, i64)> = Vec::with_capacity(count);
        for (i, run) in leaves.enumerate() {
            let run = &pairs[run];
            level.push((i, run[0].0));
            arena.push(Node::Leaf {
                keys: run.iter().map(|&(k, _)| k).collect(),
                vals: run.iter().map(|&(_, v)| v).collect(),
                next: (i + 1 < count).then_some(i + 1),
            });
        }
        while level.len() > 1 {
            let mut above = Vec::with_capacity(level.len() / B + 1);
            for run in even_runs(level.len(), B + 1) {
                let run = &level[run];
                above.push((arena.len(), run[0].1));
                arena.push(Node::Internal {
                    keys: run[1..].iter().map(|&(_, k)| k).collect(),
                    children: run.iter().map(|&(node, _)| node).collect(),
                });
            }
            level = above;
        }
        OrderedIndex { arena, root: level[0].0, len: pairs.len() }
    }

    /// Descend to the leaf that should hold `key`, telling `visit` each
    /// internal node passed and the child slot taken.
    fn descend(&self, key: i64, mut visit: impl FnMut(usize, usize)) -> usize {
        let mut node = self.root;
        loop {
            match &self.arena[node] {
                Node::Leaf { .. } => return node,
                Node::Internal { keys, children } => {
                    let slot = keys.partition_point(|&k| k <= key);
                    visit(node, slot);
                    node = children[slot];
                }
            }
        }
    }

    /// The leaf that should hold `key`.
    fn find_leaf(&self, key: i64) -> usize {
        self.descend(key, |_, _| {})
    }

    /// Insert `key → val`; returns the previous mapping if present.
    pub fn insert(&mut self, key: i64, val: RowId) -> Option<RowId> {
        let leaf_idx = self.find_leaf(key);
        // Insert into the leaf.
        let (split_key, new_node) = {
            let Node::Leaf { keys, vals, next } = &mut self.arena[leaf_idx] else { unreachable!() };
            match keys.binary_search(&key) {
                Ok(i) => {
                    let old = vals[i];
                    vals[i] = val;
                    return Some(old);
                }
                Err(i) => {
                    keys.insert(i, key);
                    vals.insert(i, val);
                    self.len += 1;
                }
            }
            if keys.len() <= B {
                return None;
            }
            // Split the leaf.
            let mid = keys.len() / 2;
            let right_keys = keys.split_off(mid);
            let right_vals = vals.split_off(mid);
            let split_key = right_keys[0];
            let right = Node::Leaf { keys: right_keys, vals: right_vals, next: *next };
            (split_key, right)
        };
        let right_idx = self.arena.len();
        self.arena.push(new_node);
        if let Node::Leaf { next, .. } = &mut self.arena[leaf_idx] {
            *next = Some(right_idx);
        }
        // Only a split needs the way back up, so only a split records it
        // (and allocates for it): one insert in seventeen.
        let mut path = Vec::new();
        self.descend(key, |node, slot| path.push((node, slot)));
        self.insert_into_parents(path, split_key, right_idx);
        None
    }

    /// Propagate a split up the recorded path, splitting internals as
    /// needed; grows a new root when the old root splits.
    fn insert_into_parents(&mut self, mut path: Vec<(usize, usize)>, mut key: i64, mut right: usize) {
        loop {
            match path.pop() {
                None => {
                    // Root split: build a new root.
                    let old_root = self.root;
                    let new_root = Node::Internal { keys: vec![key], children: vec![old_root, right] };
                    self.arena.push(new_root);
                    self.root = self.arena.len() - 1;
                    return;
                }
                Some((node, slot)) => {
                    let (split_key, new_node) = {
                        let Node::Internal { keys, children } = &mut self.arena[node] else {
                            unreachable!()
                        };
                        keys.insert(slot, key);
                        children.insert(slot + 1, right);
                        if keys.len() <= B {
                            return;
                        }
                        let mid = keys.len() / 2;
                        let right_keys = keys.split_off(mid + 1);
                        let right_children = children.split_off(mid + 1);
                        let up_key = keys.pop().expect("mid key");
                        (up_key, Node::Internal { keys: right_keys, children: right_children })
                    };
                    self.arena.push(new_node);
                    key = split_key;
                    right = self.arena.len() - 1;
                }
            }
        }
    }

    /// Point lookup.
    pub fn get(&self, key: i64) -> Option<RowId> {
        let leaf = self.find_leaf(key);
        let Node::Leaf { keys, vals, .. } = &self.arena[leaf] else { unreachable!() };
        keys.binary_search(&key).ok().map(|i| vals[i])
    }

    /// Remove `key`; returns the removed mapping.
    pub fn remove(&mut self, key: i64) -> Option<RowId> {
        // Lazy deletion (module docs): the leaf may underfill.
        let leaf = self.find_leaf(key);
        let Node::Leaf { keys, vals, .. } = &mut self.arena[leaf] else { unreachable!() };
        match keys.binary_search(&key) {
            Ok(i) => {
                keys.remove(i);
                let v = vals.remove(i);
                self.len -= 1;
                Some(v)
            }
            Err(_) => None,
        }
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// All `(key, rid)` pairs with `lo <= key < hi`, in key order.
    pub fn range(&self, lo: i64, hi: i64) -> Vec<(i64, RowId)> {
        let mut out = Vec::new();
        let mut leaf = self.find_leaf(lo);
        loop {
            let Node::Leaf { keys, vals, next } = &self.arena[leaf] else { unreachable!() };
            let start = keys.partition_point(|&k| k < lo);
            for i in start..keys.len() {
                if keys[i] >= hi {
                    return out;
                }
                out.push((keys[i], vals[i]));
            }
            match next {
                Some(n) => leaf = *n,
                None => return out,
            }
        }
    }

    /// The smallest entry with `key >= lo` (TPC-C Delivery's
    /// "oldest undelivered order" probe).
    pub fn first_at_or_after(&self, lo: i64) -> Option<(i64, RowId)> {
        let mut leaf = self.find_leaf(lo);
        loop {
            let Node::Leaf { keys, vals, next } = &self.arena[leaf] else { unreachable!() };
            let start = keys.partition_point(|&k| k < lo);
            if start < keys.len() {
                return Some((keys[start], vals[start]));
            }
            match next {
                Some(n) => leaf = *n,
                None => return None,
            }
        }
    }

    /// Check structural invariants (test helper): sorted keys, child
    /// separation, leaf chain ordering.
    #[cfg(test)]
    fn validate(&self) {
        fn check(tree: &OrderedIndex, node: usize, lo: Option<i64>, hi: Option<i64>) -> usize {
            match &tree.arena[node] {
                Node::Leaf { keys, vals, .. } => {
                    assert_eq!(keys.len(), vals.len());
                    assert!(keys.windows(2).all(|w| w[0] < w[1]), "leaf keys unsorted");
                    for &k in keys {
                        assert!(lo.is_none_or(|l| k >= l), "leaf key below bound");
                        assert!(hi.is_none_or(|h| k < h), "leaf key above bound");
                    }
                    keys.len()
                }
                Node::Internal { keys, children } => {
                    assert_eq!(children.len(), keys.len() + 1);
                    assert!(keys.windows(2).all(|w| w[0] < w[1]), "internal keys unsorted");
                    let mut count = 0;
                    for (i, &c) in children.iter().enumerate() {
                        let clo = if i == 0 { lo } else { Some(keys[i - 1]) };
                        let chi = if i == keys.len() { hi } else { Some(keys[i]) };
                        count += check(tree, c, clo, chi);
                    }
                    count
                }
            }
        }
        assert_eq!(check(self, self.root, None, None), self.len);
    }
}

/// `0..len` cut into the fewest runs of at most `cap`, as even as they go
/// (lengths differ by at most one). No run is empty.
fn even_runs(len: usize, cap: usize) -> impl ExactSizeIterator<Item = Range<usize>> {
    let n = len.div_ceil(cap);
    (0..n).map(move |i| i * len / n..(i + 1) * len / n)
}

impl Default for OrderedIndex {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn insert_get_range_roundtrip() {
        let mut idx = OrderedIndex::new();
        for k in (0..1_000).rev() {
            assert_eq!(idx.insert(k, RowId(k as u32)), None);
        }
        idx.validate();
        assert_eq!(idx.len(), 1_000);
        assert_eq!(idx.get(437), Some(RowId(437)));
        assert_eq!(idx.get(10_000), None);
        let r = idx.range(100, 110);
        assert_eq!(r.len(), 10);
        assert!(r.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(r[0], (100, RowId(100)));
    }

    #[test]
    fn duplicate_insert_replaces() {
        let mut idx = OrderedIndex::new();
        assert_eq!(idx.insert(5, RowId(1)), None);
        assert_eq!(idx.insert(5, RowId(2)), Some(RowId(1)));
        assert_eq!(idx.get(5), Some(RowId(2)));
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn remove_and_first_at_or_after() {
        let mut idx = OrderedIndex::new();
        for k in [10, 20, 30, 40] {
            idx.insert(k, RowId(k as u32));
        }
        assert_eq!(idx.first_at_or_after(15), Some((20, RowId(20))));
        assert_eq!(idx.remove(20), Some(RowId(20)));
        assert_eq!(idx.remove(20), None);
        assert_eq!(idx.first_at_or_after(15), Some((30, RowId(30))));
        assert_eq!(idx.first_at_or_after(45), None);
        idx.validate();
    }

    #[test]
    fn range_spans_leaf_boundaries() {
        let mut idx = OrderedIndex::new();
        for k in 0..10_000 {
            idx.insert(k * 2, RowId(k as u32)); // even keys only
        }
        idx.validate();
        let r = idx.range(1_001, 1_101);
        // Even keys in [1001, 1101): 1002..1100 step 2 = 50 keys.
        assert_eq!(r.len(), 50);
        assert_eq!(r[0].0, 1_002);
        assert_eq!(r.last().unwrap().0, 1_100);
    }

    /// Bulk loads of every size around the node boundaries give a valid
    /// tree of exactly the keys given, every leaf full but the runs the
    /// evening-out shortened by one.
    #[test]
    fn bulk_load_builds_a_full_valid_tree() {
        for n in [0usize, 1, 2, 31, 32, 33, 64, 65, 1_056, 1_057, 1_089, 40_000] {
            let pairs: Vec<(i64, RowId)> =
                (0..n as i64).map(|k| (3 * k - 7, RowId(k as u32))).collect();
            let idx = OrderedIndex::from_sorted(&pairs);
            idx.validate();
            assert_eq!(idx.len(), n);
            assert_eq!(idx.range(i64::MIN, i64::MAX), pairs, "n = {n}");
            let leaves = idx.arena.iter().filter(|node| matches!(node, Node::Leaf { .. })).count();
            assert_eq!(leaves, n.div_ceil(B).max(1), "n = {n}");
        }
    }

    /// Apply `ops` — `(0, k, v)` insert, `(1, k, _)` remove, `(2, k, _)`
    /// get, `(3, lo, width)` range — to the index and to the model, and
    /// require the same answer from both every time.
    fn follow_model(
        idx: &mut OrderedIndex,
        model: &mut BTreeMap<i64, RowId>,
        ops: &[(u8, i64, u32)],
    ) {
        for &(op, k, v) in ops {
            match op {
                0 => {
                    prop_assert_eq!(idx.insert(k, RowId(v)), model.insert(k, RowId(v)));
                }
                1 => {
                    prop_assert_eq!(idx.remove(k), model.remove(&k));
                }
                2 => {
                    prop_assert_eq!(idx.get(k), model.get(&k).copied());
                }
                _ => {
                    let hi = k + i64::from(v);
                    let got = idx.range(k, hi);
                    let pair = |(a, b): (&i64, &RowId)| (*a, *b);
                    let want: Vec<(i64, RowId)> = model.range(k..hi).map(pair).collect();
                    prop_assert_eq!(got, want);
                    prop_assert_eq!(idx.first_at_or_after(k), model.range(k..).next().map(pair));
                }
            }
        }
    }

    fn ops() -> impl Strategy<Value = Vec<(u8, i64, u32)>> {
        proptest::collection::vec(
            prop_oneof![
                (-500..500i64, 0..1_000u32).prop_map(|(k, v)| (0u8, k, v)),
                (-500..500i64,).prop_map(|(k,)| (1u8, k, 0)),
                (-500..500i64,).prop_map(|(k,)| (2u8, k, 0)),
                (-500..400i64, 1..120i64).prop_map(|(lo, w)| (3u8, lo, w as u32)),
            ],
            1..400,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// The B+tree behaves exactly like a `BTreeMap` under arbitrary
        /// interleavings of insert/remove/get/range.
        #[test]
        fn matches_btreemap_model(ops in ops()) {
            let mut idx = OrderedIndex::new();
            let mut model: BTreeMap<i64, RowId> = BTreeMap::new();
            follow_model(&mut idx, &mut model, &ops);
            idx.validate();
            prop_assert_eq!(idx.len(), model.len());
        }

        /// So does a tree bulk-loaded from the model's keys after one
        /// history, through a second: the full nodes it starts with split
        /// and underfill like any other.
        #[test]
        fn a_bulk_loaded_tree_matches_btreemap_model(before in ops(), after in ops()) {
            let mut model: BTreeMap<i64, RowId> = BTreeMap::new();
            follow_model(&mut OrderedIndex::new(), &mut model, &before);
            let pairs: Vec<(i64, RowId)> = model.iter().map(|(k, v)| (*k, *v)).collect();
            let mut idx = OrderedIndex::from_sorted(&pairs);
            idx.validate();
            follow_model(&mut idx, &mut model, &after);
            idx.validate();
            prop_assert_eq!(idx.len(), model.len());
        }
    }
}
