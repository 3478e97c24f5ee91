//! A CDCL (conflict-driven clause learning) SAT solver.
//!
//! The design follows MiniSat: two-watched-literal propagation, VSIDS
//! branching with phase saving, first-UIP conflict analysis with
//! backjumping, Luby restarts, and activity-based learnt-clause deletion.
//! The solver is incremental: clauses may be added between `solve` calls and
//! each call may carry a set of assumption literals, which is what the
//! model-enumeration and Aluminum-style minimization layers build on.
//!
//! Default decision polarity is *false*, which biases found models toward
//! few positive relation tuples — a cheap head start for minimal-scenario
//! generation.
//!
//! # The search order is part of the output
//!
//! Exploit synthesis enumerates minimal models until a scenario limit, and
//! at market scale most signatures reach it, so *which* models come first
//! decides which exploits are reported. Any change here must therefore
//! keep every decision: variable numbering, clause and literal order,
//! watch-list order, heap tie-breaking, learnt clauses and restarts. Make
//! the same search cheaper, never a different one. The solver as it was
//! before its arena rewrite is kept as a test-only oracle
//! (`sat::reference`), and `tests/solver_trajectory.rs` checks the two
//! step by step: results, models, [`SolverStats`] and
//! [`Solver::to_dimacs`].
//!
//! Clauses live in one flat arena of literals. A clause is named by the
//! arena offset of its first literal; the two words before it hold the
//! clause's creation number (which indexes [`ClauseInfo`]) and its length
//! word, so propagation reaches a watched clause with a single lookup.
//! Deleted clauses stay in the arena (their watchers are dropped lazily as
//! propagation meets them), so clause names are stable.

use super::heap::ActivityHeap;
use super::lit::{LBool, Lit, Var};

/// Result of a `solve` call.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum SolveResult {
    /// A satisfying assignment was found; read it with [`Solver::value`].
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable.
    Unsat,
}

/// Top bit of a clause's length word: the clause is deleted.
const DELETED: u32 = 1 << 31;

/// What propagation never reads about a clause, by creation number.
#[derive(Debug, Clone, Copy)]
struct ClauseInfo {
    learnt: bool,
    activity: f64,
}

#[derive(Copy, Clone, Debug)]
struct Watcher {
    /// The clause's arena offset.
    clause: u32,
    /// A literal of the clause other than the watched one; if it is already
    /// true the clause is satisfied and the watcher need not be inspected.
    blocker: Lit,
}

/// Conflict interval between `sat.tick` trace events during search.
const SOLVER_TICK_CONFLICTS: u64 = 4096;

/// Statistics accumulated across `solve` calls.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of literals propagated.
    pub propagations: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learnt clauses currently retained.
    pub learnts: u64,
    /// Number of literals removed from learnt clauses by self-subsumption.
    pub minimized_lits: u64,
}

/// An incremental CDCL SAT solver.
///
/// # Examples
///
/// ```
/// use separ_logic::sat::{Solver, SolveResult};
///
/// let mut solver = Solver::new();
/// let a = solver.new_var();
/// let b = solver.new_var();
/// solver.add_clause(&[a.positive(), b.positive()]);
/// solver.add_clause(&[!a.positive()]);
/// assert_eq!(solver.solve(&[]), SolveResult::Sat);
/// assert!(solver.is_true(b.positive()));
/// ```
#[derive(Debug, Default)]
pub struct Solver {
    /// Each clause's arena offset, in creation order.
    clauses: Vec<u32>,
    /// Per clause, in creation order.
    info: Vec<ClauseInfo>,
    /// Every clause as `[number, length word, literals...]`, back to back;
    /// the two header words are raw `u32`s stored as `Lit` bits.
    arena: Vec<Lit>,
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
    /// Scratch buffer `add_clause` normalizes into.
    add_buf: Vec<Lit>,
}

fn value_of(assigns: &[LBool], lit: Lit) -> LBool {
    assigns[lit.var().index()].under_sign(lit.is_positive())
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
        value_of(&self.assigns, lit)
    }

    /// The length word of clause `c`: its length, plus [`DELETED`].
    fn len_word(&self, c: u32) -> u32 {
        self.arena[c as usize - 1].0
    }

    fn range(&self, c: u32) -> std::ops::Range<usize> {
        let start = c as usize;
        start..start + (self.len_word(c) & !DELETED) as usize
    }

    fn lits(&self, c: u32) -> &[Lit] {
        &self.arena[self.range(c)]
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
        let mut cl = std::mem::take(&mut self.add_buf);
        cl.clear();
        cl.extend_from_slice(lits);
        cl.sort_unstable();
        cl.dedup();
        // Filter in place, keeping the unassigned literals. Sorting puts
        // `!l` (`2v`) right before `l` (`2v + 1`), and both are unassigned
        // if either is, so a tautology shows as equal neighbours.
        let mut kept = 0;
        let mut satisfied = false;
        for i in 0..cl.len() {
            let l = cl[i];
            debug_assert!(l.var().index() < self.num_vars(), "literal out of range");
            match self.lit_value(l) {
                LBool::True => {
                    satisfied = true; // satisfied at level 0
                    break;
                }
                LBool::False => continue, // falsified at level 0: drop literal
                LBool::Undef => {}
            }
            if kept > 0 && cl[kept - 1] == !l {
                satisfied = true; // tautology
                break;
            }
            cl[kept] = l;
            kept += 1;
        }
        cl.truncate(kept);
        let ok = if satisfied {
            true
        } else {
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
                    self.attach(&cl, false);
                    true
                }
            }
        };
        self.add_buf = cl;
        ok
    }

    fn attach(&mut self, lits: &[Lit], learnt: bool) -> u32 {
        let number = self.clauses.len() as u32;
        self.arena.push(Lit(number));
        self.arena.push(Lit(lits.len() as u32));
        let idx = self.arena.len() as u32;
        self.watches[(!lits[0]).index()].push(Watcher {
            clause: idx,
            blocker: lits[1],
        });
        self.watches[(!lits[1]).index()].push(Watcher {
            clause: idx,
            blocker: lits[0],
        });
        self.clauses.push(idx);
        self.info.push(ClauseInfo {
            learnt,
            activity: 0.0,
        });
        self.arena.extend_from_slice(lits);
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
            self.order.insert(v, &self.activity);
        }
        self.trail_lim.truncate(target as usize);
        self.qhead = self.trail.len();
    }

    /// Unit propagation; returns the conflicting clause, if any.
    ///
    /// A watcher whose blocker is true is kept without loading its clause,
    /// even if that clause was deleted; deleted clauses never propagate,
    /// and their watchers are dropped the first time the clause would be
    /// loaded. The live watchers keep their order either way.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let lit = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = !lit;
            let mut watchers = std::mem::take(&mut self.watches[lit.index()]);
            let mut kept = 0;
            let mut conflict = None;
            let mut i = 0;
            while i < watchers.len() {
                let w = watchers[i];
                i += 1;
                if value_of(&self.assigns, w.blocker) == LBool::True {
                    watchers[kept] = w;
                    kept += 1;
                    continue;
                }
                let start = w.clause as usize;
                let len_word = self.arena[start - 1].0;
                if len_word & DELETED != 0 {
                    continue; // drop watcher of deleted clause
                }
                let lits = &mut self.arena[start..start + len_word as usize];
                // Normalize so that the false literal (!lit) is at slot 1.
                if lits[0] == false_lit {
                    lits.swap(0, 1);
                }
                debug_assert_eq!(lits[1], false_lit);
                let first = lits[0];
                let first_value = value_of(&self.assigns, first);
                // This clause's watcher, with `first` as its blocker.
                let watcher = Watcher {
                    clause: w.clause,
                    blocker: first,
                };
                if first != w.blocker && first_value == LBool::True {
                    watchers[kept] = watcher;
                    kept += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let mut moved = false;
                for k in 2..lits.len() {
                    let cand = lits[k];
                    if value_of(&self.assigns, cand) != LBool::False {
                        lits.swap(1, k);
                        self.watches[(!cand).index()].push(watcher);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                // Clause is unit or conflicting.
                watchers[kept] = watcher;
                kept += 1;
                if first_value == LBool::False {
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

    fn bump_clause(&mut self, c: u32) {
        let number = self.arena[c as usize - 2].0 as usize;
        self.info[number].activity += self.cla_inc;
        if self.info[number].activity > 1e20 {
            for cl in &mut self.info {
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
            self.bump_clause(conflict);
            let range = self.range(conflict);
            // A reason clause's first literal is the one it implied (`p`).
            let skip = usize::from(p.is_some());
            for k in range.start + skip..range.end {
                let q = self.arena[k];
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
                    self.lits(r).iter().all(|&l| {
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

    /// Deletes the less active half of the learnt clauses longer than two
    /// literals, except locked ones.
    ///
    /// A clause is locked while it is the reason of an assignment. Only a
    /// clause's first literal is ever implied by it (propagation and
    /// learning both enqueue `lits[0]`, and slot 0 is never swapped while
    /// that literal is true), so the MiniSat test — is this clause the
    /// reason of its own first literal — finds exactly the locked clauses.
    fn reduce_db(&mut self) {
        // Live learnt clauses longer than two literals, by creation number.
        let mut learnt_idx: Vec<usize> = (0..self.clauses.len())
            .filter(|&i| {
                let len_word = self.len_word(self.clauses[i]);
                self.info[i].learnt && len_word > 2 && len_word & DELETED == 0
            })
            .collect();
        learnt_idx.sort_by(|&a, &b| {
            self.info[a]
                .activity
                .partial_cmp(&self.info[b].activity)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        for &i in learnt_idx.iter().take(learnt_idx.len() / 2) {
            let c = self.clauses[i];
            let first = self.arena[c as usize];
            if self.reason[first.var().index()] != Some(c) {
                self.arena[c as usize - 1].0 |= DELETED;
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
        for (&c, info) in self.clauses.iter().zip(&self.info) {
            if info.learnt || self.len_word(c) & DELETED != 0 {
                continue;
            }
            for &l in self.lits(c) {
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
                // Progress tick so long-running solves are visible
                // mid-flight in traces (no-op while tracing is off).
                if self.stats.conflicts.is_multiple_of(SOLVER_TICK_CONFLICTS)
                    && separ_obs::enabled()
                {
                    separ_obs::event(
                        "sat.tick",
                        vec![
                            ("conflicts", self.stats.conflicts.to_string()),
                            ("decisions", self.stats.decisions.to_string()),
                            ("restarts", self.stats.restarts.to_string()),
                            ("learnts", self.stats.learnts.to_string()),
                        ],
                    );
                }
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
                    let ci = self.attach(&learnt, true);
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

/// The Luby restart sequence (1, 1, 2, 1, 1, 2, 4, ...).
pub(super) fn luby(i: u64) -> u64 {
    let mut size = 1u64;
    let mut seq = 0u32;
    let mut x = i;
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) / 2;
        seq -= 1;
        x %= size;
    }
    1u64 << seq
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(solver: &mut Solver, n: usize) -> Vec<Lit> {
        (0..n).map(|_| solver.new_var().positive()).collect()
    }

    #[test]
    fn trivial_sat() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause(&[v[0], v[1]]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert!(s.is_true(v[0]) || s.is_true(v[1]));
    }

    #[test]
    fn trivial_unsat() {
        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        s.add_clause(&[v[0]]);
        s.add_clause(&[!v[0]]);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new();
        assert!(!s.add_clause(&[]));
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn unit_propagation_chain() {
        let mut s = Solver::new();
        let v = lits(&mut s, 4);
        s.add_clause(&[v[0]]);
        s.add_clause(&[!v[0], v[1]]);
        s.add_clause(&[!v[1], v[2]]);
        s.add_clause(&[!v[2], v[3]]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        for &l in &v {
            assert!(s.is_true(l));
        }
    }

    #[test]
    fn assumptions_flip_results() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause(&[v[0], v[1]]);
        assert_eq!(s.solve(&[!v[0], !v[1]]), SolveResult::Unsat);
        assert_eq!(s.solve(&[!v[0]]), SolveResult::Sat);
        assert!(s.is_true(v[1]));
        // Solver remains usable after an assumption failure.
        assert_eq!(s.solve(&[v[0]]), SolveResult::Sat);
    }

    #[test]
    fn incremental_clause_addition() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause(&[v[0], v[1]]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        s.add_clause(&[!v[0]]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert!(s.is_true(v[1]));
        s.add_clause(&[!v[1]]);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // p[i][j]: pigeon i in hole j.
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> = (0..3)
            .map(|_| (0..2).map(|_| s.new_var().positive()).collect())
            .collect();
        for row in &p {
            s.add_clause(row);
        }
        #[allow(clippy::needless_range_loop)] // triple-index form is the textbook encoding
        for j in 0..2 {
            for i in 0..3 {
                for k in (i + 1)..3 {
                    s.add_clause(&[!p[i][j], !p[k][j]]);
                }
            }
        }
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn pigeonhole_5_into_5_is_sat() {
        let mut s = Solver::new();
        let n = 5;
        let p: Vec<Vec<Lit>> = (0..n)
            .map(|_| (0..n).map(|_| s.new_var().positive()).collect())
            .collect();
        for row in &p {
            s.add_clause(row);
        }
        #[allow(clippy::needless_range_loop)] // triple-index form is the textbook encoding
        for j in 0..n {
            for i in 0..n {
                for k in (i + 1)..n {
                    s.add_clause(&[!p[i][j], !p[k][j]]);
                }
            }
        }
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        // Verify it is a permutation matrix.
        #[allow(clippy::needless_range_loop)] // column scan over a square matrix
        for j in 0..n {
            let count = (0..n).filter(|&i| s.is_true(p[i][j])).count();
            assert!(count <= 1, "two pigeons share hole {j}");
        }
        for (i, row) in p.iter().enumerate() {
            assert!(row.iter().any(|&l| s.is_true(l)), "pigeon {i} homeless");
        }
    }

    #[test]
    fn duplicate_and_tautological_clauses_are_handled() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        assert!(s.add_clause(&[v[0], v[0], v[1]]));
        assert!(s.add_clause(&[v[0], !v[0]])); // tautology, dropped
        assert_eq!(s.solve(&[]), SolveResult::Sat);
    }

    #[test]
    fn model_enumeration_via_blocking_clauses() {
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.add_clause(&[v[0], v[1], v[2]]);
        let mut models = 0;
        while s.solve(&[]) == SolveResult::Sat {
            models += 1;
            assert!(models <= 7, "more models than exist");
            let blocking: Vec<Lit> = v
                .iter()
                .map(|&l| if s.is_true(l) { !l } else { l })
                .collect();
            s.add_clause(&blocking);
        }
        assert_eq!(models, 7);
    }

    #[test]
    fn dimacs_export_round_trips_through_a_reference_check() {
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.add_clause(&[v[0], v[1]]);
        s.add_clause(&[!v[1], v[2]]);
        s.add_clause(&[!v[0]]); // becomes a level-0 unit
        let dimacs = s.to_dimacs();
        assert!(dimacs.starts_with("p cnf 3 "));
        // Parse it back and check each clause against the solver's model.
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        for line in dimacs.lines().skip(1) {
            let lits: Vec<i64> = line
                .split_whitespace()
                .map(|t| t.parse().expect("integer"))
                .take_while(|&x| x != 0)
                .collect();
            assert!(
                lits.iter().any(|&x| {
                    let var = Var::from_index((x.unsigned_abs() as usize) - 1);
                    s.is_true(var.lit(x > 0))
                }),
                "model violates exported clause {line}"
            );
        }
    }

    #[test]
    fn dimacs_export_is_byte_stable() {
        // Golden output: clauses are normalized (sorted, deduplicated) on
        // entry and emitted in insertion order, so this exact string is part
        // of the determinism guarantee.
        let mut s = Solver::new();
        let v = lits(&mut s, 4);
        s.add_clause(&[v[0], v[1]]);
        s.add_clause(&[!v[1], v[2]]);
        s.add_clause(&[!v[0], !v[2]]);
        s.add_clause(&[v[3]]); // level-0 unit
        assert_eq!(s.to_dimacs(), "p cnf 4 4\n1 2 0\n-2 3 0\n-1 -3 0\n4 0\n");
    }

    #[test]
    fn conflict_analysis_minimizes_learnt_clauses() {
        // Assumption x0 propagates x1 (c0). Assumption y then propagates a
        // and b (c1, c2), falsifying c3 — which kept two free literals at
        // level 1, so the conflict genuinely happens at level 2. First-UIP
        // learns (!y !x0 !x1), where !x1 is self-subsumed by c0 (its reason
        // mentions only x0, already in the clause) and must be resolved away.
        let mut s = Solver::new();
        let v = lits(&mut s, 5);
        let (x0, x1, y, a, b) = (v[0], v[1], v[2], v[3], v[4]);
        s.add_clause(&[!x0, x1]); // c0
        s.add_clause(&[!y, a]); // c1
        s.add_clause(&[!y, b]); // c2
        s.add_clause(&[!a, !b, !x0, !x1]); // c3
        assert_eq!(s.solve(&[x0, y]), SolveResult::Unsat);
        assert_eq!(s.stats().conflicts, 1);
        assert!(
            s.stats().minimized_lits >= 1,
            "expected self-subsumption to fire: {:?}",
            s.stats()
        );
        // The clause set itself stays satisfiable.
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        for cl in [
            vec![!x0, x1],
            vec![!y, a],
            vec![!y, b],
            vec![!a, !b, !x0, !x1],
        ] {
            assert!(cl.iter().any(|&l| s.is_true(l)));
        }
    }

    #[test]
    fn luby_sequence_prefix() {
        let seq: Vec<u64> = (0..15).map(luby).collect();
        assert_eq!(seq, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    #[test]
    fn random_3sat_agrees_with_brute_force() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x5E9A12 + 42);
        for round in 0..60 {
            let n = 8;
            let m = 3 + (round % 30);
            let mut clauses: Vec<Vec<(usize, bool)>> = Vec::new();
            for _ in 0..m {
                let mut cl = Vec::new();
                for _ in 0..3 {
                    cl.push((rng.gen_range(0..n), rng.gen_bool(0.5)));
                }
                clauses.push(cl);
            }
            // Brute force.
            let mut any = false;
            'outer: for bits in 0u32..(1 << n) {
                for cl in &clauses {
                    if !cl.iter().any(|&(v, sign)| ((bits >> v) & 1 == 1) == sign) {
                        continue 'outer;
                    }
                }
                any = true;
                break;
            }
            // CDCL.
            let mut s = Solver::new();
            let vars: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
            for cl in &clauses {
                let lits: Vec<Lit> = cl.iter().map(|&(v, sign)| vars[v].lit(sign)).collect();
                s.add_clause(&lits);
            }
            let got = s.solve(&[]) == SolveResult::Sat;
            assert_eq!(got, any, "mismatch on round {round}");
            if got {
                for cl in &clauses {
                    assert!(
                        cl.iter().any(|&(v, sign)| s.is_true(vars[v].lit(sign))),
                        "returned model violates a clause"
                    );
                }
            }
        }
    }
}
