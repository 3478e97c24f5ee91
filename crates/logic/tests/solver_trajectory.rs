//! Lockstep checks of the SAT core and the CNF lowering against their
//! reference oracles (`sat::reference`, `circuit::reference`: the solver
//! and lowering as they were before the clause arena, blocker-first
//! propagation, hole-sifting heap and gate-indexed lowering tables).
//!
//! Exploit synthesis stops at a scenario limit, so the solver's search
//! order decides which exploits are reported. A faster solver must
//! therefore run the *same* search. Every step here — `solve` under
//! assumptions, `add_clause`, and the model finder's `next_model` and
//! `next_minimal_model` loops — is applied to both sides, and after each
//! one the results, the models, the [`SolverStats`] and the DIMACS export
//! must be equal.

mod support;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use separ_logic::ast::{Expr, Formula};
use separ_logic::circuit::{self, CnfEncoding};
use separ_logic::relation::{RelationDecl, RelationId, Tuple};
use separ_logic::sat::{reference, LBool, Lit, SolveResult, Solver, SolverStats, Var};
use separ_logic::translate::translate;

use support::{edge_sets, setup, N_ATOMS};

/// The production solver and the reference solver, driven together.
struct Pair {
    new: Solver,
    old: reference::Solver,
}

impl Pair {
    fn new() -> Pair {
        Pair {
            new: Solver::new(),
            old: reference::Solver::new(),
        }
    }

    /// Asserts the two sides are indistinguishable after `step`.
    fn check(&self, step: &str) {
        assert_eq!(self.new.stats(), self.old.stats(), "stats after {step}");
        assert_eq!(
            self.new.num_vars(),
            self.old.num_vars(),
            "vars after {step}"
        );
        assert_eq!(
            self.new.to_dimacs(),
            self.old.to_dimacs(),
            "DIMACS after {step}"
        );
    }

    fn stats(&self) -> SolverStats {
        self.new.stats()
    }

    fn new_var(&mut self) -> Var {
        let v = self.new.new_var();
        assert_eq!(self.old.new_var(), v);
        v
    }

    fn add_clause(&mut self, lits: &[Lit]) -> bool {
        let ok = self.new.add_clause(lits);
        assert_eq!(self.old.add_clause(lits), ok, "add_clause({lits:?})");
        self.check("add_clause");
        ok
    }

    fn solve(&mut self, assumptions: &[Lit]) -> SolveResult {
        let r = self.new.solve(assumptions);
        assert_eq!(self.old.solve(assumptions), r, "solve({assumptions:?})");
        if r == SolveResult::Sat {
            let model = |value: &dyn Fn(Var) -> LBool| -> Vec<LBool> {
                (0..self.new.num_vars())
                    .map(|i| value(Var::from_index(i)))
                    .collect()
            };
            assert_eq!(
                model(&|v| self.new.value(v)),
                model(&|v| self.old.value(v)),
                "model of solve({assumptions:?})"
            );
        }
        self.check("solve");
        r
    }

    fn is_true(&self, lit: Lit) -> bool {
        self.new.is_true(lit)
    }
}

/// The model finder's enumeration loops (`ModelFinder::next_model` and
/// `ModelFinder::next_minimal_model`), step for step, over a [`Pair`] and a
/// list of primary variables.
struct Enumerator {
    primaries: Vec<Var>,
    exhausted: bool,
}

impl Enumerator {
    fn new(primaries: Vec<Var>) -> Enumerator {
        Enumerator {
            primaries,
            exhausted: false,
        }
    }

    fn snapshot(&self, pair: &Pair) -> Vec<bool> {
        self.primaries
            .iter()
            .map(|v| pair.is_true(v.positive()))
            .collect()
    }

    fn next_model(&mut self, pair: &mut Pair) -> Option<Vec<bool>> {
        if self.exhausted {
            return None;
        }
        if pair.solve(&[]) != SolveResult::Sat {
            self.exhausted = true;
            return None;
        }
        let assignment = self.snapshot(pair);
        if self.primaries.is_empty() {
            self.exhausted = true;
            return Some(assignment);
        }
        let blocking: Vec<Lit> = self
            .primaries
            .iter()
            .zip(&assignment)
            .map(|(v, &val)| v.lit(!val))
            .collect();
        pair.add_clause(&blocking);
        Some(assignment)
    }

    fn next_minimal_model(&mut self, pair: &mut Pair) -> Option<Vec<bool>> {
        if self.exhausted {
            return None;
        }
        if pair.solve(&[]) != SolveResult::Sat {
            self.exhausted = true;
            return None;
        }
        let mut assignment = self.snapshot(pair);
        loop {
            let positives: Vec<usize> = (0..assignment.len()).filter(|&i| assignment[i]).collect();
            if positives.is_empty() {
                break;
            }
            let act = pair.new_var();
            let mut clause: Vec<Lit> = positives
                .iter()
                .map(|&i| self.primaries[i].negative())
                .collect();
            clause.push(act.negative());
            pair.add_clause(&clause);
            let mut assumptions = vec![act.positive()];
            for (i, &val) in assignment.iter().enumerate() {
                if !val {
                    assumptions.push(self.primaries[i].negative());
                }
            }
            let shrunk = pair.solve(&assumptions) == SolveResult::Sat;
            if shrunk {
                assignment = self.snapshot(pair);
            }
            pair.add_clause(&[act.negative()]);
            if !shrunk {
                break;
            }
        }
        let positives: Vec<Lit> = (0..assignment.len())
            .filter(|&i| assignment[i])
            .map(|i| self.primaries[i].negative())
            .collect();
        if positives.is_empty() {
            self.exhausted = true;
        } else {
            pair.add_clause(&positives);
        }
        Some(assignment)
    }
}

fn random_lit(rng: &mut SmallRng, n_vars: usize) -> Lit {
    Var::from_index(rng.gen_range(0..n_vars)).lit(rng.gen_bool(0.5))
}

fn random_clause(rng: &mut SmallRng, n_vars: usize, max_len: usize) -> Vec<Lit> {
    let len = rng.gen_range(1..=max_len);
    (0..len).map(|_| random_lit(rng, n_vars)).collect()
}

/// Runs a random script of solver steps over a random CNF on both sides.
fn random_cnf_script(seed: u64, n_vars: usize, n_clauses: usize, steps: usize) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut pair = Pair::new();
    for _ in 0..n_vars {
        pair.new_var();
    }
    for _ in 0..n_clauses {
        let clause = random_clause(&mut rng, n_vars, 5);
        pair.add_clause(&clause);
    }
    for _ in 0..steps {
        match rng.gen_range(0..4) {
            0 => {
                let k = rng.gen_range(0..=4);
                let assumptions: Vec<Lit> = (0..k).map(|_| random_lit(&mut rng, n_vars)).collect();
                pair.solve(&assumptions);
            }
            1 => {
                let clause = random_clause(&mut rng, n_vars, 4);
                pair.add_clause(&clause);
            }
            2 => {
                let primaries = (0..rng.gen_range(1..=n_vars.min(8)))
                    .map(|_| Var::from_index(rng.gen_range(0..n_vars)))
                    .collect();
                let mut e = Enumerator::new(primaries);
                for _ in 0..rng.gen_range(1..6) {
                    if e.next_model(&mut pair).is_none() {
                        break;
                    }
                }
            }
            _ => {
                let primaries = (0..n_vars.min(12)).map(Var::from_index).collect();
                let mut e = Enumerator::new(primaries);
                for _ in 0..rng.gen_range(1..6) {
                    if e.next_minimal_model(&mut pair).is_none() {
                        break;
                    }
                }
            }
        }
    }
}

/// The pigeonhole formula `pigeons → holes`, with clause order and each
/// clause's literal order shuffled by `seed`.
fn pigeonhole(pair: &mut Pair, pigeons: usize, holes: usize, seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let p: Vec<Vec<Lit>> = (0..pigeons)
        .map(|_| (0..holes).map(|_| pair.new_var().positive()).collect())
        .collect();
    let mut clauses: Vec<Vec<Lit>> = p.clone();
    #[allow(clippy::needless_range_loop)] // triple-index form is the textbook encoding
    for j in 0..holes {
        for i in 0..pigeons {
            for k in (i + 1)..pigeons {
                clauses.push(vec![!p[i][j], !p[k][j]]);
            }
        }
    }
    for i in (1..clauses.len()).rev() {
        clauses.swap(i, rng.gen_range(0..=i));
    }
    for clause in &mut clauses {
        for i in (1..clause.len()).rev() {
            clause.swap(i, rng.gen_range(0..=i));
        }
        pair.add_clause(clause);
    }
}

/// Pigeonhole 8 → 7 is hard enough to fill the learnt-clause database past
/// `4 · originals + 300`, so `reduce_db` (and its locked-clause test) runs
/// many times on both sides.
#[test]
fn pigeonhole_8_into_7_deletes_learnts_in_lockstep() {
    let mut pair = Pair::new();
    pigeonhole(&mut pair, 8, 7, 0);
    let originals = 8 + 7 * 28;
    assert_eq!(pair.solve(&[]), SolveResult::Unsat);
    let stats = pair.stats();
    assert!(
        stats.conflicts > 2 * (4 * originals as u64 + 300),
        "too easy to exercise reduce_db: {stats:?}"
    );
    // Every non-unit learnt clause was retained unless reduce_db ran.
    assert!(stats.learnts <= 4 * originals as u64 + 301, "{stats:?}");
}

/// Random relational facts over the free relations of [`setup`]: set
/// operators, closure and the multiplicity/comparison formulas.
fn random_expr(rng: &mut SmallRng, leaves: &[Expr], depth: u32) -> Expr {
    if depth == 0 || rng.gen_bool(0.3) {
        return leaves[rng.gen_range(0..leaves.len())].clone();
    }
    let a = random_expr(rng, leaves, depth - 1);
    match rng.gen_range(0..6) {
        0 => a.union(&random_expr(rng, leaves, depth - 1)),
        1 => a.intersect(&random_expr(rng, leaves, depth - 1)),
        2 => a.difference(&random_expr(rng, leaves, depth - 1)),
        3 => a.join(&random_expr(rng, leaves, depth - 1)),
        4 => a.transpose(),
        _ => a.closure(),
    }
}

fn random_fact(rng: &mut SmallRng, leaves: &[Expr]) -> Formula {
    let a = random_expr(rng, leaves, 2);
    match rng.gen_range(0..6) {
        0 => a.some(),
        1 => a.no(),
        2 => a.one(),
        3 => a.lone(),
        4 => a.in_(&random_expr(rng, leaves, 2)),
        _ => a.equal(&random_expr(rng, leaves, 2)).not(),
    }
}

/// Enumerates `facts` with the production [`separ_logic::ModelFinder`]
/// and, in lockstep, with the same translation lowered by the reference
/// and production lowerings into a [`Pair`] and walked by an
/// [`Enumerator`]. Returns how many models were compared.
fn relational_lockstep(facts: &[Formula], minimal: bool, encoding: CnfEncoding) -> usize {
    let (mut problem, _) = setup();
    for f in facts {
        problem.fact(f.clone());
    }
    let ids: Vec<RelationId> = ["r", "s", "t"]
        .iter()
        .map(|name| problem.relation_by_name(name).expect("declared"))
        .collect();
    let decls: Vec<RelationDecl> = ids.iter().map(|&id| problem.decl(id).clone()).collect();
    let options = separ_logic::FinderOptions { encoding };
    let mut finder = problem.model_finder_with(options).expect("well-typed");

    let translation = translate(
        problem.universe(),
        &decls,
        &Formula::and(facts.iter().cloned()),
    )
    .expect("well-typed");
    let mut pair = Pair::new();
    let new_map = circuit::assert_circuit_with(
        &translation.circuit,
        translation.root,
        &mut pair.new,
        encoding,
    );
    let old_map = circuit::reference::assert_circuit_with(
        &translation.circuit,
        translation.root,
        &mut pair.old,
        encoding,
    );
    pair.check("lowering");
    assert_eq!(new_map.num_clauses(), old_map.num_clauses());
    assert_eq!(new_map.num_aux_vars(), old_map.num_aux_vars());
    let mut new_inputs: Vec<(u32, Var)> = new_map.inputs().collect();
    let mut old_inputs: Vec<(u32, Var)> = old_map.inputs().collect();
    new_inputs.sort_unstable();
    old_inputs.sort_unstable();
    assert_eq!(new_inputs, old_inputs);
    assert_eq!(finder.cnf_clauses(), new_map.num_clauses());
    assert_eq!(finder.num_solver_vars(), pair.new.num_vars());

    // The finder's primary variables: free tuples that reached the CNF,
    // sorted by (relation, tuple).
    let mut free: Vec<(RelationId, Tuple, Var)> = translation
        .free_inputs
        .iter()
        .filter_map(|(&label, (rel, tuple))| {
            Some((*rel, tuple.clone(), new_map.var_for_input(label)?))
        })
        .collect();
    free.sort_unstable_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
    assert_eq!(free.len(), finder.num_primary_vars());
    let mut walk = Enumerator::new(free.iter().map(|f| f.2).collect());

    let mut compared = 0;
    for step in 0..24 {
        let (got, want) = if minimal {
            (
                finder.next_minimal_model(),
                walk.next_minimal_model(&mut pair),
            )
        } else {
            (finder.next_model(), walk.next_model(&mut pair))
        };
        assert_eq!(
            finder.solver_stats(),
            pair.stats(),
            "finder stats at step {step}"
        );
        match (got, want) {
            (None, None) => break,
            (Some(instance), Some(assignment)) => {
                for ((rel, tuple, _), &chosen) in free.iter().zip(&assignment) {
                    assert_eq!(
                        instance.contains(*rel, tuple),
                        chosen,
                        "step {step}: {tuple:?} of relation {}",
                        rel.index()
                    );
                }
                compared += 1;
            }
            (got, want) => panic!(
                "step {step}: finder {:?} vs reference {:?}",
                got.map(|_| "model"),
                want.map(|_| "model")
            ),
        }
    }
    compared
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random CNFs under a random script of solves, clause additions and
    /// enumeration loops.
    #[test]
    fn random_cnf_trajectories_match_the_reference(
        seed in any::<u64>(),
        n_vars in 2usize..40,
        density in 1usize..6,
        steps in 1usize..24,
    ) {
        random_cnf_script(seed, n_vars, n_vars * density, steps);
    }

    /// Pigeonhole instances around the hard edge, with shuffled clause and
    /// literal orders, solved under random assumptions.
    #[test]
    fn shuffled_pigeonholes_match_the_reference(
        seed in any::<u64>(),
        holes in 3usize..6,
        extra in 0usize..2,
    ) {
        let mut pair = Pair::new();
        pigeonhole(&mut pair, holes + extra, holes, seed);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x9E37);
        let n_vars = pair.new.num_vars();
        for _ in 0..4 {
            let assumptions: Vec<Lit> = (0..rng.gen_range(0..3))
                .map(|_| random_lit(&mut rng, n_vars))
                .collect();
            pair.solve(&assumptions);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random relational problems: translation, both lowerings, and the
    /// finder's enumeration loops against the reference trajectory.
    #[test]
    fn relational_enumeration_matches_the_reference(
        seed in any::<u64>(),
        n_facts in 1usize..4,
        minimal in any::<bool>(),
        tseitin in any::<bool>(),
        edges in edge_sets(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (problem, leaves) = setup();
        // One more leaf: a constant relation built from the sampled edges.
        let atoms: Vec<Expr> = (0..N_ATOMS)
            .map(|i| Expr::atom(problem.universe().atoms().nth(i).expect("atom")))
            .collect();
        let mut leaves = leaves.to_vec();
        if let Some(&(a, b)) = edges.iter().next() {
            leaves.push(atoms[a].product(&atoms[b]));
        }
        let facts: Vec<Formula> = (0..n_facts).map(|_| random_fact(&mut rng, &leaves)).collect();
        let encoding = if tseitin { CnfEncoding::Tseitin } else { CnfEncoding::PlaistedGreenbaum };
        relational_lockstep(&facts, minimal, encoding);
    }
}

/// A fixed relational problem with many minimal models, so the finder's
/// loops run to their step cap rather than ending early.
#[test]
fn minimal_enumeration_of_a_wide_problem_matches_the_reference() {
    let (_, [r, s, _]) = setup();
    let facts = [r.join(&s).some(), r.intersect(&s).no()];
    assert!(relational_lockstep(&facts, true, CnfEncoding::default()) >= 20);
    assert!(relational_lockstep(&facts, false, CnfEncoding::default()) >= 20);
}
