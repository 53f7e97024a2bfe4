//! A tournament tree merging per-source event frontiers.
//!
//! The engine keeps its three bounded event classes (app wakes,
//! per-core CPU completions, per-device dispatch completions) *outside*
//! the timer wheel, as per-source frontiers. This tree merges those
//! frontiers: each leaf holds one source's earliest `(time, seq)` key
//! (or [`Tourney::INF`] when the source is idle) and each internal node
//! the winner of its children, so the global minimum reads in O(1) and
//! a frontier update costs O(log n) comparisons — independent of how
//! many *provisioned* sources sit idle at `INF`.
//!
//! This is the winner-tree variant of the classic loser-tree merge:
//! same comparison structure, simpler replay logic. Keys are totally
//! ordered because every key draws its `seq` from the engine's one
//! event-queue counter ([`simcore::EventQueue::alloc_seq`]), so the
//! merged pop order is exactly the `(time, seq)` order a single queue
//! holding every event would produce (see DESIGN.md §17).

use simcore::SimTime;

/// Sentinel key for an idle (suppressed) source. Real events are
/// bounded by the run horizon, far below `SimTime::MAX`.
const INF: (SimTime, u64) = (SimTime::MAX, u64::MAX);

/// `(time, seq)` packed as `time << 64 | seq`, which orders exactly
/// like the tuple. `INF` packs to `u128::MAX`.
fn pack((at, seq): (SimTime, u64)) -> u128 {
    (u128::from(at.as_nanos()) << 64) | u128::from(seq)
}

fn unpack(key: u128) -> (SimTime, u64) {
    (SimTime::from_nanos((key >> 64) as u64), key as u64)
}

/// One tree node: the packed key of its subtree's winner and that
/// winner's leaf index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Node {
    key: u128,
    leaf: u32,
}

impl Node {
    /// The winner of two siblings; ties go to the left one.
    #[inline]
    fn winner(left: Node, right: Node) -> Node {
        if right.key < left.key {
            right
        } else {
            left
        }
    }
}

/// A fixed-arity tournament (winner) tree over `n` sources.
#[derive(Debug)]
pub(crate) struct Tourney {
    /// Leaf count padded to a power of two.
    size: usize,
    /// `node[1]` is the root; `node[i]` holds the winner of subtree `i`.
    /// Leaf `l` lives at `node[size + l]` and holds its own key.
    node: Vec<Node>,
}

impl Tourney {
    /// Sentinel key for an idle source (re-exported for callers).
    pub(crate) const INF: (SimTime, u64) = INF;

    /// A tree over `n` sources, all initially idle.
    pub(crate) fn new(n: usize) -> Self {
        let mut tree = Tourney {
            size: 0,
            node: Vec::new(),
        };
        tree.grow_to(n);
        tree
    }

    /// Sets source `leaf`'s frontier key and replays its path to the
    /// root. `INF` parks the source (it leaves the tournament); setting
    /// an armed leaf re-arms it in place.
    ///
    /// Each level loads the sibling, picks the winner without a branch
    /// on the keys, and stops early once the stored winner is already
    /// that node: its ancestors then see an unchanged child, so the rest
    /// of the path cannot change. Updates that lose immediately — the
    /// common case when parking or arming one of many sources — touch
    /// O(1) nodes.
    #[inline]
    pub(crate) fn set(&mut self, leaf: usize, key: (SimTime, u64)) {
        let mut j = self.size + leaf;
        let mut cur = Node {
            key: pack(key),
            leaf: leaf as u32,
        };
        self.node[j] = cur;
        while j > 1 {
            let sib = self.node[j ^ 1];
            cur = if j & 1 == 0 {
                Node::winner(cur, sib)
            } else {
                Node::winner(sib, cur)
            };
            j >>= 1;
            if self.node[j] == cur {
                return;
            }
            self.node[j] = cur;
        }
    }

    /// The minimum frontier and its source; `(INF, _)` when all idle.
    /// Equal keys resolve to the leftmost leaf.
    #[inline]
    pub(crate) fn min(&self) -> ((SimTime, u64), usize) {
        let root = self.node[1];
        (unpack(root.key), root.leaf as usize)
    }

    /// Leaf slots currently addressable (power-of-two padded).
    pub(crate) fn capacity(&self) -> usize {
        self.size
    }

    /// Grows the tree to hold at least `n` leaves, preserving every
    /// existing key. New leaves start idle (`INF`). The engine keeps
    /// the tree sized to the active-set high-water mark rather than the
    /// provisioned fleet: a 64k-tenant host with a few hundred active
    /// tenants merges over a few hundred leaves, so replay paths stay
    /// cache-resident. No-op if already large enough.
    pub(crate) fn grow_to(&mut self, n: usize) {
        let size = n.next_power_of_two().max(1);
        if size <= self.size {
            return;
        }
        let idle = Node {
            key: u128::MAX,
            leaf: 0,
        };
        let mut node = vec![idle; 2 * size];
        for (l, slot) in node[size..].iter_mut().enumerate() {
            slot.leaf = l as u32;
        }
        node[size..size + self.size].copy_from_slice(&self.node[self.size..]);
        for i in (1..size).rev() {
            node[i] = Node::winner(node[2 * i], node[2 * i + 1]);
        }
        self.size = size;
        self.node = node;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(n: u64) -> SimTime {
        SimTime::ZERO + simcore::SimDuration::from_nanos(n)
    }

    #[test]
    fn empty_tree_reports_inf() {
        let tree = Tourney::new(5);
        assert_eq!(tree.min().0, Tourney::INF);
    }

    #[test]
    fn packing_preserves_order_and_inf() {
        assert_eq!(pack(Tourney::INF), u128::MAX);
        let keys = [(t(0), 0), (t(0), 9), (t(1), 0), (t(1), u64::MAX), INF];
        for w in keys.windows(2) {
            assert!(pack(w[0]) < pack(w[1]));
            assert_eq!(unpack(pack(w[0])), w[0]);
        }
    }

    #[test]
    fn min_tracks_updates_and_parking() {
        let mut tree = Tourney::new(6);
        tree.set(3, (t(50), 2));
        tree.set(0, (t(10), 7));
        tree.set(5, (t(10), 3));
        // Equal times break ties by seq.
        assert_eq!(tree.min(), ((t(10), 3), 5));
        tree.set(5, Tourney::INF);
        assert_eq!(tree.min(), ((t(10), 7), 0));
        tree.set(0, Tourney::INF);
        assert_eq!(tree.min(), ((t(50), 2), 3));
        tree.set(3, Tourney::INF);
        assert_eq!(tree.min().0, Tourney::INF);
    }

    #[test]
    fn single_leaf_tree_works() {
        let mut tree = Tourney::new(1);
        tree.set(0, (t(9), 1));
        assert_eq!(tree.min(), ((t(9), 1), 0));
        tree.set(0, Tourney::INF);
        assert_eq!(tree.min(), (Tourney::INF, 0));
    }

    #[test]
    fn grow_preserves_keys_and_min() {
        let mut tree = Tourney::new(2);
        tree.set(0, (t(30), 4));
        tree.set(1, (t(20), 9));
        tree.grow_to(11);
        assert!(tree.capacity() >= 11);
        assert_eq!(tree.min(), ((t(20), 9), 1));
        tree.set(9, (t(5), 1));
        assert_eq!(tree.min(), ((t(5), 1), 9));
        tree.set(9, Tourney::INF);
        tree.set(1, Tourney::INF);
        assert_eq!(tree.min(), ((t(30), 4), 0));
        // Growing to a smaller or equal size is a no-op.
        let cap = tree.capacity();
        tree.grow_to(2);
        assert_eq!(tree.capacity(), cap);
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// Arm (or re-arm) any leaf with a key drawn from this value.
        Set(u64),
        /// Park a leaf.
        Park(u64),
        /// Re-arm an already armed leaf in place with a new key.
        Rearm(u64),
        /// Grow the tree to at least this many leaves (a no-op when it
        /// already has them).
        Grow(u64),
    }

    /// Keys come from a small `(time, seq)` grid, so equal keys on
    /// different leaves are common and exercise the tie rule.
    fn key_of(v: u64) -> (SimTime, u64) {
        (t(v % 16), (v >> 4) % 8)
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u64..=u64::MAX).prop_map(|r| {
            let v = r / 100;
            match r % 100 {
                0..=44 => Op::Set(v),
                45..=69 => Op::Park(v),
                70..=96 => Op::Rearm(v),
                _ => Op::Grow(v % 100),
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// After every set, park, in-place re-arm or growth, the root
        /// is the naive minimum over all leaves, and among equal keys
        /// (parked `INF` leaves included) the leftmost leaf.
        #[test]
        fn matches_a_naive_min_over_random_updates(
            n in 1usize..40,
            ops in proptest::collection::vec(op(), 1..600),
        ) {
            let mut tree = Tourney::new(n);
            let mut naive = vec![Tourney::INF; tree.capacity()];
            for op in ops {
                match op {
                    Op::Set(v) => {
                        let leaf = (v >> 8) as usize % naive.len();
                        tree.set(leaf, key_of(v));
                        naive[leaf] = key_of(v);
                    }
                    Op::Park(v) => {
                        let leaf = v as usize % naive.len();
                        tree.set(leaf, Tourney::INF);
                        naive[leaf] = Tourney::INF;
                    }
                    Op::Rearm(v) => {
                        let armed: Vec<usize> =
                            (0..naive.len()).filter(|&l| naive[l] != Tourney::INF).collect();
                        if let Some(&leaf) = armed.get((v >> 8) as usize % armed.len().max(1)) {
                            tree.set(leaf, key_of(v));
                            naive[leaf] = key_of(v);
                        }
                    }
                    Op::Grow(n) => {
                        tree.grow_to(n as usize);
                        prop_assert!(tree.capacity() >= naive.len().max(n as usize));
                        naive.resize(tree.capacity(), Tourney::INF);
                    }
                }
                // `min_by_key` returns the first of several minima.
                let want = naive
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, k)| k)
                    .map(|(i, k)| (*k, i))
                    .unwrap();
                prop_assert_eq!(tree.min(), want);
            }
        }
    }
}
