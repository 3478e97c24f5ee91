//! Property-based tests of relational-algebra laws, checked semantically:
//! two expressions are equivalent iff the bounded model finder proves
//! their equality has no counterexample.

mod support;

use proptest::prelude::*;

use separ_logic::ast::Expr;
use separ_logic::relation::{RelationDecl, Tuple, TupleSet};
use separ_logic::universe::Universe;
use separ_logic::Problem;

use support::{edge_sets, setup, N_ATOMS};

/// Asserts a law `lhs = rhs` holds for ALL instances (no counterexample).
fn assert_law(lhs: Expr, rhs: Expr) {
    let (p, _) = setup();
    let cex = p.check(lhs.equal(&rhs)).expect("well-typed");
    assert!(cex.is_none(), "law violated:\n{}", cex.expect("some"));
}

#[test]
fn union_is_commutative_and_associative() {
    let (_, [r, s, t]) = setup();
    assert_law(r.union(&s), s.union(&r));
    assert_law(r.union(&s).union(&t), r.union(&s.union(&t)));
}

#[test]
fn intersection_distributes_over_union() {
    let (_, [r, s, t]) = setup();
    assert_law(
        r.intersect(&s.union(&t)),
        r.intersect(&s).union(&r.intersect(&t)),
    );
}

#[test]
fn de_morgan_via_difference() {
    // r - (s + t) = (r - s) & (r - t)
    let (_, [r, s, t]) = setup();
    assert_law(
        r.difference(&s.union(&t)),
        r.difference(&s).intersect(&r.difference(&t)),
    );
}

#[test]
fn transpose_is_an_involution_and_antidistributes_over_join() {
    let (_, [r, s, _]) = setup();
    assert_law(r.transpose().transpose(), r.clone());
    // ~(r.s) = ~s.~r
    assert_law(r.join(&s).transpose(), s.transpose().join(&r.transpose()));
}

#[test]
fn join_distributes_over_union() {
    let (_, [r, s, t]) = setup();
    assert_law(r.join(&s.union(&t)), r.join(&s).union(&r.join(&t)));
}

#[test]
fn closure_is_a_fixpoint() {
    // ^r = r + r.^r
    let (_, [r, _, _]) = setup();
    assert_law(r.closure(), r.union(&r.join(&r.closure())));
    // ^^r = ^r (idempotent)
    assert_law(r.closure().closure(), r.closure());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Semantic spot-check on concrete relations: the finder's unique
    /// instance of exact bounds evaluates operators like a reference
    /// set implementation.
    #[test]
    fn operators_match_reference_sets(
        r_edges in edge_sets(),
        s_edges in edge_sets(),
    ) {
        let mut u = Universe::new();
        let atoms: Vec<_> = (0..N_ATOMS).map(|i| u.add(format!("a{i}"))).collect();
        let to_ts = |edges: &std::collections::BTreeSet<(usize, usize)>| {
            let mut ts = TupleSet::new(2);
            for &(a, b) in edges {
                ts.insert(Tuple::binary(atoms[a], atoms[b]));
            }
            ts
        };
        let mut p = Problem::new(u);
        let r = p.relation(RelationDecl::exact("r", to_ts(&r_edges)));
        let s = p.relation(RelationDecl::exact("s", to_ts(&s_edges)));
        // Reference computations.
        let union: std::collections::BTreeSet<_> = r_edges.union(&s_edges).cloned().collect();
        let mut join = std::collections::BTreeSet::new();
        for &(a, b) in &r_edges {
            for &(c, d) in &s_edges {
                if b == c {
                    join.insert((a, d));
                }
            }
        }
        // The finder must agree that the exact relations equal the
        // reference results.
        let expected_union = to_ts(&union);
        let expected_join = to_ts(&join);
        let u_rel = p.relation(RelationDecl::exact("u", expected_union));
        let j_rel = p.relation(RelationDecl::exact("j", expected_join));
        let union_ok = p
            .check(Expr::relation(r).union(&Expr::relation(s)).equal(&Expr::relation(u_rel)))
            .expect("well-typed");
        prop_assert!(union_ok.is_none());
        let join_ok = p
            .check(Expr::relation(r).join(&Expr::relation(s)).equal(&Expr::relation(j_rel)))
            .expect("well-typed");
        prop_assert!(join_ok.is_none());
    }
}
