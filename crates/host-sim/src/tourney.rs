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

/// A fixed-arity tournament (winner) tree over `n` sources.
#[derive(Debug)]
pub(crate) struct Tourney {
    /// Leaf count padded to a power of two.
    size: usize,
    /// Per-leaf frontier key; `INF` when idle.
    key: Vec<(SimTime, u64)>,
    /// `node[1]` is the root; `node[i]` holds the winning leaf index of
    /// the subtree. Leaves live at `node[size..size + n]`.
    node: Vec<u32>,
}

impl Tourney {
    /// Sentinel key for an idle source (re-exported for callers).
    pub(crate) const INF: (SimTime, u64) = INF;

    /// A tree over `n` sources, all initially idle.
    pub(crate) fn new(n: usize) -> Self {
        let size = n.next_power_of_two().max(1);
        let mut node = vec![0u32; 2 * size];
        for (i, slot) in node[size..].iter_mut().enumerate() {
            *slot = i as u32;
        }
        // All keys are INF, so any child is a valid initial winner.
        for i in (1..size).rev() {
            node[i] = node[2 * i];
        }
        Tourney {
            size,
            key: vec![INF; size],
            node,
        }
    }

    /// Sets source `leaf`'s frontier key and replays its path to the
    /// root. `INF` parks the source (it leaves the tournament).
    ///
    /// The replay stops early once a subtree's winner is an unchanged
    /// *other* leaf: that subtree then presents the identical (leaf,
    /// key) pair to its ancestors, so the rest of the path cannot
    /// change. Updates that lose immediately — the common case when
    /// parking or arming one of many sources — touch O(1) nodes.
    #[inline]
    pub(crate) fn set(&mut self, leaf: usize, key: (SimTime, u64)) {
        self.key[leaf] = key;
        let leaf = leaf as u32;
        let mut i = (self.size + leaf as usize) >> 1;
        while i >= 1 {
            let l = self.node[2 * i];
            let r = self.node[2 * i + 1];
            let w = if self.key[l as usize] <= self.key[r as usize] {
                l
            } else {
                r
            };
            if self.node[i] == w && w != leaf {
                return;
            }
            self.node[i] = w;
            i >>= 1;
        }
    }

    /// The minimum frontier and its source; `(INF, _)` when all idle.
    #[inline]
    pub(crate) fn min(&self) -> ((SimTime, u64), usize) {
        let leaf = self.node[1] as usize;
        (self.key[leaf], leaf)
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
        let mut key = vec![INF; size];
        key[..self.size].copy_from_slice(&self.key);
        let mut node = vec![0u32; 2 * size];
        for (i, slot) in node[size..].iter_mut().enumerate() {
            *slot = i as u32;
        }
        for i in (1..size).rev() {
            let l = node[2 * i];
            let r = node[2 * i + 1];
            node[i] = if key[l as usize] <= key[r as usize] {
                l
            } else {
                r
            };
        }
        self.size = size;
        self.key = key;
        self.node = node;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u64) -> SimTime {
        SimTime::ZERO + simcore::SimDuration::from_nanos(n)
    }

    #[test]
    fn empty_tree_reports_inf() {
        let tree = Tourney::new(5);
        assert_eq!(tree.min().0, Tourney::INF);
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
    fn matches_a_naive_min_over_random_updates() {
        let mut tree = Tourney::new(37);
        let mut naive = vec![Tourney::INF; 37];
        let mut state = 0x9E37_79B9u64;
        for step in 0..2_000u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let leaf = (state >> 33) as usize % 37;
            let key = if state.is_multiple_of(5) {
                Tourney::INF
            } else {
                (t(state % 1000), step)
            };
            tree.set(leaf, key);
            naive[leaf] = key;
            let want = naive
                .iter()
                .enumerate()
                .min_by_key(|&(_, k)| k)
                .map(|(i, k)| (*k, i))
                .unwrap();
            // Ties between leaves can't happen for finite keys (seqs are
            // unique); INF ties may resolve to any parked leaf.
            if want.0 != Tourney::INF {
                assert_eq!(tree.min(), want, "step {step}");
            } else {
                assert_eq!(tree.min().0, Tourney::INF);
            }
        }
    }

    #[test]
    fn single_leaf_tree_works() {
        let mut tree = Tourney::new(1);
        tree.set(0, (t(9), 1));
        assert_eq!(tree.min(), ((t(9), 1), 0));
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
}
