//! The CDCL solver as it was before its clause arena, blocker-first
//! propagation and hole-sifting heap: a reference oracle, built only for
//! tests (`cfg(test)` or the `reference` feature, which the crate's own
//! integration tests switch on).
//!
//! Its [`Solver`] must make exactly the decisions of
//! [`crate::sat::Solver`] — same propagations, conflicts, learnt clauses,
//! restarts and models — because the model finder stops enumerating at a
//! scenario limit, so the search order decides which models are reported.
//! `tests/solver_trajectory.rs` drives the two in lockstep. `reduce_db`
//! here still finds locked clauses by scanning every variable's reason,
//! where the production solver checks each clause's first literal; both
//! keep the same clauses.

use self::heap::ActivityHeap;
use super::lit::{LBool, Lit, Var};
use super::solver::{luby, SolveResult, SolverStats};

#[derive(Debug, Clone)]
struct Clause {
    lits: Vec<Lit>,
    learnt: bool,
    deleted: bool,
    activity: f64,
}

#[derive(Copy, Clone, Debug)]
struct Watcher {
    clause: u32,
    blocker: Lit,
}

/// The reference CDCL solver (see the module docs).
#[derive(Debug, Default)]
pub struct Solver {
    clauses: Vec<Clause>,
    watches: Vec<Vec<Watcher>>,
    assigns: Vec<LBool>,
    polarity: Vec<bool>,
    reason: Vec<Option<u32>>,
    level: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f64,
    order: ActivityHeap,
    seen: Vec<bool>,
    ok: bool,
    n_original: usize,
    stats: SolverStats,
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Solver {
        Solver {
            var_inc: 1.0,
            cla_inc: 1.0,
            ok: true,
            order: ActivityHeap::new(),
            ..Solver::default()
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assigns.len() as u32);
        self.assigns.push(LBool::Undef);
        self.polarity.push(false);
        self.reason.push(None);
        self.level.push(0);
        self.activity.push(0.0);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.grow_to(self.assigns.len());
        self.order.insert(v, &self.activity);
        v
    }

    /// Number of variables allocated so far.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Solver statistics.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Current value of a variable (meaningful after `solve` returns `Sat`).
    pub fn value(&self, v: Var) -> LBool {
        self.assigns[v.index()]
    }

    /// Returns `true` if `lit` is true in the current assignment.
    pub fn is_true(&self, lit: Lit) -> bool {
        self.lit_value(lit) == LBool::True
    }

    fn lit_value(&self, lit: Lit) -> LBool {
        self.assigns[lit.var().index()].under_sign(lit.is_positive())
    }

    /// Adds a clause. Returns `false` if the formula became trivially
    /// unsatisfiable (empty clause after simplification).
    ///
    /// Duplicated literals are removed and clauses containing `l` and `!l`
    /// or a literal already true at level 0 are dropped as tautological.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        if !self.ok {
            return false;
        }
        self.cancel_until(0);
        let mut cl: Vec<Lit> = Vec::with_capacity(lits.len());
        let mut sorted = lits.to_vec();
        sorted.sort();
        sorted.dedup();
        for &l in &sorted {
            debug_assert!(l.var().index() < self.num_vars(), "literal out of range");
            match self.lit_value(l) {
                LBool::True => return true, // satisfied at level 0
                LBool::False => continue,   // falsified at level 0: drop literal
                LBool::Undef => {}
            }
            if cl.contains(&!l) {
                return true; // tautology
            }
            cl.push(l);
        }
        match cl.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(cl[0], None);
                self.ok = self.propagate().is_none();
                self.ok
            }
            _ => {
                self.attach(cl, false);
                true
            }
        }
    }

    fn attach(&mut self, lits: Vec<Lit>, learnt: bool) -> u32 {
        let idx = self.clauses.len() as u32;
        self.watches[(!lits[0]).index()].push(Watcher {
            clause: idx,
            blocker: lits[1],
        });
        self.watches[(!lits[1]).index()].push(Watcher {
            clause: idx,
            blocker: lits[0],
        });
        self.clauses.push(Clause {
            lits,
            learnt,
            deleted: false,
            activity: 0.0,
        });
        if learnt {
            self.stats.learnts += 1;
        } else {
            self.n_original += 1;
        }
        idx
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn unchecked_enqueue(&mut self, lit: Lit, reason: Option<u32>) {
        debug_assert_eq!(self.lit_value(lit), LBool::Undef);
        let v = lit.var();
        self.assigns[v.index()] = LBool::from_bool(lit.is_positive());
        self.reason[v.index()] = reason;
        self.level[v.index()] = self.decision_level();
        self.trail.push(lit);
    }

    fn cancel_until(&mut self, target: u32) {
        if self.decision_level() <= target {
            return;
        }
        let bound = self.trail_lim[target as usize];
        while self.trail.len() > bound {
            let lit = self.trail.pop().expect("trail non-empty");
            let v = lit.var();
            self.polarity[v.index()] = lit.is_positive();
            self.assigns[v.index()] = LBool::Undef;
            self.reason[v.index()] = None;
            if !self.order.contains(v) {
                self.order.insert(v, &self.activity);
            }
        }
        self.trail_lim.truncate(target as usize);
        self.qhead = self.trail.len();
    }

    /// Unit propagation; returns the index of a conflicting clause, if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let lit = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let mut watchers = std::mem::take(&mut self.watches[lit.index()]);
            let mut kept = 0;
            let mut conflict = None;
            let mut i = 0;
            while i < watchers.len() {
                let w = watchers[i];
                i += 1;
                if self.clauses[w.clause as usize].deleted {
                    continue; // drop watcher of deleted clause
                }
                if self.lit_value(w.blocker) == LBool::True {
                    watchers[kept] = w;
                    kept += 1;
                    continue;
                }
                let ci = w.clause as usize;
                // Normalize so that the false literal (!lit) is at slot 1.
                let false_lit = !lit;
                if self.clauses[ci].lits[0] == false_lit {
                    self.clauses[ci].lits.swap(0, 1);
                }
                debug_assert_eq!(self.clauses[ci].lits[1], false_lit);
                let first = self.clauses[ci].lits[0];
                if first != w.blocker && self.lit_value(first) == LBool::True {
                    watchers[kept] = Watcher {
                        clause: w.clause,
                        blocker: first,
                    };
                    kept += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let mut moved = false;
                for k in 2..self.clauses[ci].lits.len() {
                    let cand = self.clauses[ci].lits[k];
                    if self.lit_value(cand) != LBool::False {
                        self.clauses[ci].lits.swap(1, k);
                        self.watches[(!cand).index()].push(Watcher {
                            clause: w.clause,
                            blocker: first,
                        });
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                // Clause is unit or conflicting.
                watchers[kept] = Watcher {
                    clause: w.clause,
                    blocker: first,
                };
                kept += 1;
                if self.lit_value(first) == LBool::False {
                    conflict = Some(w.clause);
                    // Copy remaining watchers back and stop.
                    while i < watchers.len() {
                        watchers[kept] = watchers[i];
                        kept += 1;
                        i += 1;
                    }
                    self.qhead = self.trail.len();
                } else {
                    self.unchecked_enqueue(first, Some(w.clause));
                }
            }
            watchers.truncate(kept);
            self.watches[lit.index()] = watchers;
            if let Some(c) = conflict {
                return Some(c);
            }
        }
        None
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.bumped(v, &self.activity);
    }

    fn bump_clause(&mut self, c: usize) {
        self.clauses[c].activity += self.cla_inc;
        if self.clauses[c].activity > 1e20 {
            for cl in &mut self.clauses {
                cl.activity *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first) and the backjump level.
    fn analyze(&mut self, mut conflict: u32) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // slot 0 for the asserting literal
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        loop {
            self.bump_clause(conflict as usize);
            let start = usize::from(p.is_some());
            // Clone needed literals to appease borrowck cheaply: clause lits
            // are short (learnt from small scopes).
            let lits: Vec<Lit> = self.clauses[conflict as usize].lits[start..].to_vec();
            for q in lits {
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    self.bump_var(v);
                    if self.level[v.index()] >= self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select next literal to look at.
            loop {
                index -= 1;
                let lit = self.trail[index];
                if self.seen[lit.var().index()] {
                    p = Some(lit);
                    break;
                }
            }
            let pv = p.expect("found UIP candidate").var();
            self.seen[pv.index()] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = !p.expect("asserting literal");
                break;
            }
            conflict = self.reason[pv.index()].expect("non-decision has a reason");
        }
        // Learnt-clause minimization by self-subsumption: a non-asserting
        // literal whose reason clause is entirely covered by the rest of the
        // learnt clause (plus level-0 facts) resolves away without weakening
        // the clause. `seen` is still true exactly for the variables of
        // `learnt[1..]` here, which makes the coverage check O(|reason|).
        let mut minimized: Vec<Lit> = Vec::with_capacity(learnt.len());
        for (i, &q) in learnt.iter().enumerate() {
            let redundant = i > 0
                && self.reason[q.var().index()].is_some_and(|r| {
                    self.clauses[r as usize].lits.iter().all(|&l| {
                        l.var() == q.var()
                            || self.seen[l.var().index()]
                            || self.level[l.var().index()] == 0
                    })
                });
            if redundant {
                self.stats.minimized_lits += 1;
            } else {
                minimized.push(q);
            }
        }
        // Clear seen flags of the pre-minimization learnt clause.
        for &l in &learnt {
            self.seen[l.var().index()] = false;
        }
        let mut learnt = minimized;
        let backjump = if learnt.len() == 1 {
            0
        } else {
            // Move the literal with the highest level to slot 1.
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()]
        };
        (learnt, backjump)
    }

    fn reduce_db(&mut self) {
        let mut learnt_idx: Vec<usize> = self
            .clauses
            .iter()
            .enumerate()
            .filter(|(_, c)| c.learnt && !c.deleted && c.lits.len() > 2)
            .map(|(i, _)| i)
            .collect();
        learnt_idx.sort_by(|&a, &b| {
            self.clauses[a]
                .activity
                .partial_cmp(&self.clauses[b].activity)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let locked: Vec<Option<u32>> = self.reason.clone();
        let is_locked = |i: usize| locked.contains(&Some(i as u32));
        for &i in learnt_idx.iter().take(learnt_idx.len() / 2) {
            if !is_locked(i) {
                self.clauses[i].deleted = true;
                self.stats.learnts = self.stats.learnts.saturating_sub(1);
            }
        }
    }

    fn pick_branch(&mut self) -> Option<Var> {
        while !self.order.is_empty() {
            let v = self.order.pop(&self.activity).expect("heap non-empty");
            if self.assigns[v.index()] == LBool::Undef {
                return Some(v);
            }
        }
        None
    }

    /// Exports the current clause database in DIMACS CNF format
    /// (original clauses plus level-0 unit assignments; learnt clauses
    /// are redundant and omitted). Useful for debugging against external
    /// solvers.
    pub fn to_dimacs(&self) -> String {
        use std::fmt::Write;
        let mut body = String::new();
        let mut count = 0usize;
        for cl in &self.clauses {
            if cl.learnt || cl.deleted {
                continue;
            }
            for &l in &cl.lits {
                let v = l.var().index() + 1;
                let _ = write!(
                    body,
                    "{} ",
                    if l.is_positive() {
                        v as i64
                    } else {
                        -(v as i64)
                    }
                );
            }
            body.push_str("0\n");
            count += 1;
        }
        // Level-0 units (facts discovered before any decision).
        let bound = self.trail_lim.first().copied().unwrap_or(self.trail.len());
        for &l in &self.trail[..bound] {
            let v = l.var().index() + 1;
            let _ = writeln!(
                body,
                "{} 0",
                if l.is_positive() {
                    v as i64
                } else {
                    -(v as i64)
                }
            );
            count += 1;
        }
        format!("p cnf {} {count}\n{body}", self.num_vars())
    }

    /// Solves under the given assumptions.
    ///
    /// Assumption literals are forced (as pseudo-decisions) before any free
    /// branching. If they are jointly inconsistent with the clauses the
    /// result is `Unsat`, but the clause set itself is left intact, so
    /// later calls with other assumptions may still succeed.
    pub fn solve(&mut self, assumptions: &[Lit]) -> SolveResult {
        if !self.ok {
            return SolveResult::Unsat;
        }
        self.cancel_until(0);
        if self.propagate().is_some() {
            self.ok = false;
            return SolveResult::Unsat;
        }
        let mut restart = 0u64;
        loop {
            let budget = 100 * luby(restart);
            match self.search(assumptions, budget) {
                Some(r) => {
                    self.stats.restarts += restart;
                    // Leave the trail intact on Sat so values can be read;
                    // callers adding clauses will trigger cancel_until(0).
                    if r == SolveResult::Unsat {
                        self.cancel_until(0);
                    }
                    return r;
                }
                None => {
                    restart += 1;
                    self.cancel_until(0);
                }
            }
        }
    }

    /// Runs CDCL search for up to `max_conflicts`; `None` requests a restart.
    fn search(&mut self, assumptions: &[Lit], max_conflicts: u64) -> Option<SolveResult> {
        let mut conflicts = 0u64;
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return Some(SolveResult::Unsat);
                }
                let (learnt, backjump) = self.analyze(confl);
                self.cancel_until(backjump);
                if learnt.len() == 1 {
                    if self.decision_level() > 0 {
                        self.cancel_until(0);
                    }
                    if self.lit_value(learnt[0]) == LBool::False {
                        self.ok = false;
                        return Some(SolveResult::Unsat);
                    }
                    if self.lit_value(learnt[0]) == LBool::Undef {
                        self.unchecked_enqueue(learnt[0], None);
                    }
                } else {
                    let ci = self.attach(learnt.clone(), true);
                    self.unchecked_enqueue(learnt[0], Some(ci));
                }
                self.var_inc /= 0.95;
                self.cla_inc /= 0.999;
                if self.stats.learnts as usize > 4 * self.n_original + 300 {
                    self.reduce_db();
                }
                if conflicts >= max_conflicts {
                    return None;
                }
            } else {
                // Re-establish assumptions that restarts may have undone.
                if (self.decision_level() as usize) < assumptions.len() {
                    let a = assumptions[self.decision_level() as usize];
                    match self.lit_value(a) {
                        LBool::True => {
                            // Already implied: introduce an empty decision level.
                            self.trail_lim.push(self.trail.len());
                        }
                        LBool::False => return Some(SolveResult::Unsat),
                        LBool::Undef => {
                            self.trail_lim.push(self.trail.len());
                            self.unchecked_enqueue(a, None);
                        }
                    }
                    continue;
                }
                match self.pick_branch() {
                    None => return Some(SolveResult::Sat),
                    Some(v) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let phase = self.polarity[v.index()];
                        self.unchecked_enqueue(v.lit(phase), None);
                    }
                }
            }
        }
    }
}

/// The VSIDS heap as it was: sifts by swapping.
pub(crate) mod heap {
    use crate::sat::Var;

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

        fn sift_up(&mut self, mut i: usize, activity: &[f64]) {
            while i > 0 {
                let parent = (i - 1) / 2;
                if activity[self.heap[i] as usize] > activity[self.heap[parent] as usize] {
                    self.swap(i, parent);
                    i = parent;
                } else {
                    break;
                }
            }
        }

        fn sift_down(&mut self, mut i: usize, activity: &[f64]) {
            loop {
                let left = 2 * i + 1;
                let right = 2 * i + 2;
                let mut largest = i;
                if left < self.heap.len()
                    && activity[self.heap[left] as usize] > activity[self.heap[largest] as usize]
                {
                    largest = left;
                }
                if right < self.heap.len()
                    && activity[self.heap[right] as usize] > activity[self.heap[largest] as usize]
                {
                    largest = right;
                }
                if largest == i {
                    break;
                }
                self.swap(i, largest);
                i = largest;
            }
        }

        #[cfg(test)]
        pub(crate) fn layout(&self) -> &[u32] {
            &self.heap
        }

        fn swap(&mut self, a: usize, b: usize) {
            self.heap.swap(a, b);
            self.positions[self.heap[a] as usize] = a as u32;
            self.positions[self.heap[b] as usize] = b as u32;
        }
    }
}
