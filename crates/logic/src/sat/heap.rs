//! Indexed max-heap ordering variables by VSIDS activity.
//!
//! The solver needs a priority queue that supports increasing the priority
//! of an element already in the queue (activity bumps) and membership tests,
//! so a plain `BinaryHeap` does not suffice.

use super::lit::Var;

/// A binary max-heap over variables keyed by an external activity array.
#[derive(Debug, Default, Clone)]
pub struct ActivityHeap {
    /// Heap of variable indices.
    heap: Vec<u32>,
    /// `positions[v]` is the index of `v` in `heap`, or `NOT_IN` if absent.
    positions: Vec<u32>,
}

const NOT_IN: u32 = u32::MAX;

impl ActivityHeap {
    /// Creates an empty heap.
    pub fn new() -> ActivityHeap {
        ActivityHeap::default()
    }

    /// Ensures capacity for variables up to `n - 1`.
    pub fn grow_to(&mut self, n: usize) {
        if self.positions.len() < n {
            self.positions.resize(n, NOT_IN);
        }
    }

    /// Returns `true` if the heap contains no variables.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Returns `true` if `v` is currently in the heap.
    pub fn contains(&self, v: Var) -> bool {
        self.positions.get(v.index()).is_some_and(|&p| p != NOT_IN)
    }

    /// Inserts `v`; no-op if already present.
    pub fn insert(&mut self, v: Var, activity: &[f64]) {
        self.grow_to(v.index() + 1);
        if self.contains(v) {
            return;
        }
        let pos = self.heap.len() as u32;
        self.heap.push(v.0);
        self.positions[v.index()] = pos;
        self.sift_up(pos as usize, activity);
    }

    /// Removes and returns the variable with the highest activity.
    pub fn pop(&mut self, activity: &[f64]) -> Option<Var> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty heap");
        self.positions[top as usize] = NOT_IN;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.positions[last as usize] = 0;
            self.sift_down(0, activity);
        }
        Some(Var(top))
    }

    /// Restores heap order for `v` after its activity increased.
    pub fn bumped(&mut self, v: Var, activity: &[f64]) {
        if let Some(&p) = self.positions.get(v.index()) {
            if p != NOT_IN {
                self.sift_up(p as usize, activity);
            }
        }
    }

    #[cfg(test)]
    pub(crate) fn layout(&self) -> &[u32] {
        &self.heap
    }

    /// Moves the variable at `i` up past every parent with strictly lower
    /// activity. The variable is held aside while parents slide down into
    /// the hole, so each level costs one write instead of a swap; the final
    /// layout is the one pairwise swaps would produce.
    fn sift_up(&mut self, mut i: usize, activity: &[f64]) {
        let x = self.heap[i];
        let ax = activity[x as usize];
        while i > 0 {
            let parent = (i - 1) / 2;
            let p = self.heap[parent];
            if ax > activity[p as usize] {
                self.heap[i] = p;
                self.positions[p as usize] = i as u32;
                i = parent;
            } else {
                break;
            }
        }
        self.heap[i] = x;
        self.positions[x as usize] = i as u32;
    }

    /// Moves the variable at `i` down while a child has strictly higher
    /// activity, preferring the left child on ties (as a swap-based sift
    /// comparing left first does).
    fn sift_down(&mut self, mut i: usize, activity: &[f64]) {
        let x = self.heap[i];
        let ax = activity[x as usize];
        let len = self.heap.len();
        loop {
            let left = 2 * i + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let child = if right < len
                && activity[self.heap[right] as usize] > activity[self.heap[left] as usize]
            {
                right
            } else {
                left
            };
            let c = self.heap[child];
            if activity[c as usize] > ax {
                self.heap[i] = c;
                self.positions[c as usize] = i as u32;
                i = child;
            } else {
                break;
            }
        }
        self.heap[i] = x;
        self.positions[x as usize] = i as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: usize) -> Var {
        Var::from_index(i)
    }

    #[test]
    fn pops_in_activity_order() {
        let activity = vec![1.0, 5.0, 3.0, 4.0, 2.0];
        let mut heap = ActivityHeap::new();
        for i in 0..5 {
            heap.insert(v(i), &activity);
        }
        let order: Vec<usize> = std::iter::from_fn(|| heap.pop(&activity))
            .map(Var::index)
            .collect();
        assert_eq!(order, vec![1, 3, 2, 4, 0]);
    }

    #[test]
    fn insert_is_idempotent() {
        let activity = vec![1.0, 2.0];
        let mut heap = ActivityHeap::new();
        heap.insert(v(0), &activity);
        heap.insert(v(0), &activity);
        assert_eq!(heap.pop(&activity), Some(v(0)));
        assert_eq!(heap.pop(&activity), None);
    }

    #[test]
    fn bump_reorders() {
        let mut activity = vec![1.0, 2.0, 3.0];
        let mut heap = ActivityHeap::new();
        for i in 0..3 {
            heap.insert(v(i), &activity);
        }
        activity[0] = 10.0;
        heap.bumped(v(0), &activity);
        assert_eq!(heap.pop(&activity), Some(v(0)));
    }

    /// Random inserts, activity bumps (many of them ties) and pops leave
    /// the hole-sifting heap in exactly the layout of the swapping one.
    #[test]
    fn hole_sifting_keeps_the_swapping_layout() {
        use crate::sat::reference::heap::ActivityHeap as SwapHeap;
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x4EA9);
        for _ in 0..40 {
            let n = rng.gen_range(1..64);
            let mut activity: Vec<f64> = (0..n).map(|_| f64::from(rng.gen_range(0..4u8))).collect();
            let mut holes = ActivityHeap::new();
            let mut swaps = SwapHeap::new();
            for _ in 0..400 {
                let var = v(rng.gen_range(0..n));
                match rng.gen_range(0..3) {
                    0 => {
                        holes.insert(var, &activity);
                        swaps.insert(var, &activity);
                    }
                    1 => {
                        activity[var.index()] += f64::from(rng.gen_range(0..3u8));
                        holes.bumped(var, &activity);
                        swaps.bumped(var, &activity);
                    }
                    _ => assert_eq!(holes.pop(&activity), swaps.pop(&activity)),
                }
                assert_eq!(holes.layout(), swaps.layout());
            }
        }
    }

    #[test]
    fn contains_tracks_membership() {
        let activity = vec![1.0];
        let mut heap = ActivityHeap::new();
        assert!(!heap.contains(v(0)));
        heap.insert(v(0), &activity);
        assert!(heap.contains(v(0)));
        heap.pop(&activity);
        assert!(!heap.contains(v(0)));
    }
}
