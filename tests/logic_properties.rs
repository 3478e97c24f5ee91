//! Property-based tests of the relational-logic / SAT substrate.

use proptest::prelude::*;

use std::fmt::Write as _;

use separ::logic::ast::{Expr, Formula};
use separ::logic::relation::{RelationDecl, RelationId, Tuple, TupleSet};
use separ::logic::sat::{SolveResult, Solver};
use separ::logic::universe::{Atom, Universe};
use separ::logic::{Instance, Problem};

/// Bounds of one generated relation, one code per candidate tuple: 0 puts
/// it in the lower (and upper) bound, 1 leaves it out, anything else makes
/// it free.
type BoundFlags = Vec<u8>;

/// A random problem over four atoms: a unary, a binary and an exact
/// unary relation with the given bounds, and facts picked from `facts`.
fn random_problem(
    unary: &BoundFlags,
    binary: &BoundFlags,
    exact: &[bool],
    facts: &[u8],
) -> (Problem, Vec<RelationId>) {
    let mut u = Universe::new();
    let atoms: Vec<Atom> = (0..4).map(|i| u.add(format!("a{i}"))).collect();
    let pairs: Vec<Tuple> = atoms
        .iter()
        .flat_map(|&a| atoms.iter().map(move |&b| Tuple::binary(a, b)))
        .collect();
    let singles: Vec<Tuple> = atoms.iter().map(|&a| Tuple::unary(a)).collect();
    let bounds = |candidates: &[Tuple], flags: &BoundFlags, arity: usize| {
        let (mut lower, mut upper) = (TupleSet::new(arity), TupleSet::new(arity));
        for (t, &code) in candidates.iter().zip(flags) {
            if code != 1 {
                upper.insert(t.clone());
            }
            if code == 0 {
                lower.insert(t.clone());
            }
        }
        (lower, upper)
    };
    let mut p = Problem::new(u);
    let (lower, upper) = bounds(&singles, unary, 1);
    let r = p.relation(RelationDecl::new("r", lower, upper));
    let (lower, upper) = bounds(&pairs, binary, 2);
    let e = p.relation(RelationDecl::new("e", lower, upper));
    let s = p.relation(RelationDecl::exact(
        "s",
        TupleSet::unary_from(atoms.iter().zip(exact).filter(|(_, &x)| x).map(|(&a, _)| a)),
    ));
    let rels = vec![r, e, s];
    for fact in random_facts(&rels, facts) {
        p.fact(fact);
    }
    (p, rels)
}

/// The facts `facts` picks over the relations `r`, `e`, `s`.
fn random_facts(rels: &[RelationId], facts: &[u8]) -> Vec<Formula> {
    let (re, ee, se) = (
        Expr::relation(rels[0]),
        Expr::relation(rels[1]),
        Expr::relation(rels[2]),
    );
    facts
        .iter()
        .map(|&fact| match fact % 6 {
            0 => re.some(),
            1 => ee.some(),
            2 => re.join(&ee).some(),
            3 => ee.lone(),
            4 => re.join(&ee).in_(&re.union(&se)),
            _ => se.join(&ee.transpose()).some(),
        })
        .collect()
}

/// The reference decoding of `instance`, materialised for every
/// relation: its lower bound plus the free tuples (upper minus lower) the
/// model made true.
fn materialise(p: &Problem, rels: &[RelationId], instance: &Instance) -> Vec<TupleSet> {
    rels.iter()
        .map(|&r| {
            let decl = p.decl(r);
            let mut tuples = decl.lower().clone();
            for t in decl.upper().iter() {
                if !decl.lower().contains(t) && instance.contains(r, t) {
                    tuples.insert(t.clone());
                }
            }
            tuples
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The CDCL solver agrees with brute force on random small CNF.
    #[test]
    fn cdcl_matches_brute_force(
        clauses in prop::collection::vec(
            prop::collection::vec((0usize..7, any::<bool>()), 1..4),
            1..24,
        )
    ) {
        let n = 7;
        let mut brute_sat = false;
        'assignments: for bits in 0u32..(1 << n) {
            for clause in &clauses {
                if !clause.iter().any(|&(v, sign)| ((bits >> v) & 1 == 1) == sign) {
                    continue 'assignments;
                }
            }
            brute_sat = true;
            break;
        }
        let mut solver = Solver::new();
        let vars: Vec<_> = (0..n).map(|_| solver.new_var()).collect();
        for clause in &clauses {
            let lits: Vec<_> = clause.iter().map(|&(v, sign)| vars[v].lit(sign)).collect();
            solver.add_clause(&lits);
        }
        let got = solver.solve(&[]) == SolveResult::Sat;
        prop_assert_eq!(got, brute_sat);
        if got {
            for clause in &clauses {
                prop_assert!(clause.iter().any(|&(v, sign)| solver.is_true(vars[v].lit(sign))));
            }
        }
    }

    /// Every model the finder returns satisfies `some r` and `lone s`,
    /// and enumeration counts exactly the expected number of models.
    #[test]
    fn enumeration_is_exact_for_known_spaces(n_atoms in 1usize..5) {
        let mut u = Universe::new();
        let atoms: Vec<_> = (0..n_atoms).map(|i| u.add(format!("a{i}"))).collect();
        let mut p = Problem::new(u);
        let r = p.relation(RelationDecl::free("r", TupleSet::unary_from(atoms)));
        p.fact(Expr::relation(r).some());
        let mut finder = p.model_finder().expect("well-typed");
        let mut count = 0usize;
        while let Some(inst) = finder.next_model() {
            prop_assert!(!inst.tuples(r).is_empty());
            count += 1;
            prop_assert!(count <= (1 << n_atoms));
        }
        // Non-empty subsets of n atoms.
        prop_assert_eq!(count, (1usize << n_atoms) - 1);
    }

    /// Minimal-model enumeration of `some r` yields exactly the singletons.
    #[test]
    fn minimal_models_are_singletons(n_atoms in 1usize..6) {
        let mut u = Universe::new();
        let atoms: Vec<_> = (0..n_atoms).map(|i| u.add(format!("a{i}"))).collect();
        let mut p = Problem::new(u);
        let r = p.relation(RelationDecl::free("r", TupleSet::unary_from(atoms)));
        p.fact(Expr::relation(r).some());
        let mut finder = p.model_finder().expect("well-typed");
        let mut count = 0usize;
        while let Some(inst) = finder.next_minimal_model() {
            prop_assert_eq!(inst.tuples(r).len(), 1);
            count += 1;
            prop_assert!(count <= n_atoms);
        }
        prop_assert_eq!(count, n_atoms);
    }

    /// Every enumerated minimal model reads exactly like its materialised
    /// reference through `tuples`, `total_tuples`, `iter` and `Display`,
    /// stays within its bounds, satisfies the facts, and shares the
    /// problem's universe with every other instance of the finder.
    #[test]
    fn minimal_models_match_a_materialised_reference(
        unary in prop::collection::vec(0u8..5, 4),
        binary in prop::collection::vec(0u8..8, 16),
        exact in prop::collection::vec(any::<bool>(), 4),
        facts in prop::collection::vec(0u8..6, 1..4),
    ) {
        let (p, rels) = random_problem(&unary, &binary, &exact, &facts);
        let mut finder = p.model_finder().expect("well-typed");
        let mut models = 0;
        while let Some(instance) = finder.next_minimal_model() {
            models += 1;
            prop_assert!(models <= 1 << 10, "runaway enumeration");
            prop_assert!(std::ptr::eq(instance.universe(), p.universe()));
            let reference = materialise(&p, &rels, &instance);
            let mut display = String::new();
            for (&r, tuples) in rels.iter().zip(&reference) {
                let decl = p.decl(r);
                prop_assert!(decl.lower().is_subset(tuples) && tuples.is_subset(decl.upper()));
                prop_assert_eq!(instance.tuples(r), tuples);
                let rendered: Vec<String> = tuples
                    .iter()
                    .map(|t| {
                        let names: Vec<&str> =
                            t.atoms().iter().map(|&a| p.universe().name(a)).collect();
                        format!("({})", names.join(","))
                    })
                    .collect();
                let _ = writeln!(display, "{} = {{{}}}", decl.name(), rendered.join(", "));
            }
            prop_assert_eq!(
                instance.total_tuples(),
                reference.iter().map(TupleSet::len).sum::<usize>()
            );
            let iterated: Vec<(RelationId, String, TupleSet)> = instance
                .iter()
                .map(|(r, name, tuples)| (r, name.to_string(), tuples.clone()))
                .collect();
            let expected: Vec<(RelationId, String, TupleSet)> = rels
                .iter()
                .zip(&reference)
                .map(|(&r, tuples)| (r, p.decl(r).name().to_string(), tuples.clone()))
                .collect();
            prop_assert_eq!(iterated, expected);
            prop_assert_eq!(instance.to_string(), display);
            // The instance is a model: with every relation fixed to it,
            // the facts still hold.
            let mut fixed = Problem::new(p.universe().clone());
            for (&r, tuples) in rels.iter().zip(&reference) {
                fixed.relation(RelationDecl::exact(p.decl(r).name(), tuples.clone()));
            }
            for fact in random_facts(&rels, &facts) {
                fixed.fact(fact);
            }
            prop_assert!(fixed.solve().expect("well-typed").is_some());
        }
    }

    /// Transitive closure in the finder agrees with a reference
    /// Floyd-Warshall on random digraphs.
    #[test]
    fn closure_matches_reference(
        edges in prop::collection::btree_set((0usize..4, 0usize..4), 0..10)
    ) {
        let n = 4;
        let mut u = Universe::new();
        let atoms: Vec<_> = (0..n).map(|i| u.add(format!("v{i}"))).collect();
        let mut p = Problem::new(u);
        let e = p.relation(RelationDecl::exact(
            "e",
            {
                let mut ts = TupleSet::new(2);
                for &(a, b) in &edges {
                    ts.insert(Tuple::binary(atoms[a], atoms[b]));
                }
                ts
            },
        ));
        // Reference reachability.
        let mut reach = vec![vec![false; n]; n];
        for &(a, b) in &edges {
            reach[a][b] = true;
        }
        for k in 0..n {
            for i in 0..n {
                for j in 0..n {
                    reach[i][j] |= reach[i][k] && reach[k][j];
                }
            }
        }
        for i in 0..n {
            for j in 0..n {
                let f = Expr::atom(atoms[i])
                    .product(&Expr::atom(atoms[j]))
                    .in_(&Expr::relation(e).closure());
                let mut q = Problem::new(p.universe().clone());
                let e2 = q.relation(RelationDecl::exact(
                    "e",
                    p.decl(e).lower().clone(),
                ));
                let f = match f {
                    Formula::Subset(a, _) => Formula::Subset(a, Expr::relation(e2).closure()),
                    other => other,
                };
                q.fact(f);
                let sat = q.solve().expect("well-typed").is_some();
                prop_assert_eq!(sat, reach[i][j], "pair ({}, {})", i, j);
            }
        }
    }
}

#[test]
fn quantifier_scoping_restores_outer_bindings() {
    // all x: S | (some x': S | x' in S) and x in S — nested quantifiers
    // over the same variable id must not corrupt the outer binding.
    let mut u = Universe::new();
    let a = u.add("a");
    let b = u.add("b");
    let mut p = Problem::new(u);
    let s = p.relation(RelationDecl::exact("S", TupleSet::unary_from([a, b])));
    let x = p.fresh_var();
    let inner = Formula::exists(x, Expr::relation(s), Expr::var(x).in_(&Expr::relation(s)));
    let body = Formula::and([inner, Expr::var(x).in_(&Expr::relation(s))]);
    p.fact(Formula::for_all(x, Expr::relation(s), body));
    assert!(p.solve().expect("well-typed").is_some());
}
