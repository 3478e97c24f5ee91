//! Generators shared by the relational integration tests.

#![allow(dead_code)] // each test binary uses its own subset

use std::collections::BTreeSet;

use proptest::prelude::*;

use separ_logic::ast::Expr;
use separ_logic::relation::{RelationDecl, Tuple, TupleSet};
use separ_logic::universe::Universe;
use separ_logic::Problem;

/// Atoms in the universe of [`setup`].
pub const N_ATOMS: usize = 4;

/// A problem with three free binary relations (`r`, `s`, `t`) over a
/// small universe.
pub fn setup() -> (Problem, [Expr; 3]) {
    let mut u = Universe::new();
    let atoms: Vec<_> = (0..N_ATOMS).map(|i| u.add(format!("a{i}"))).collect();
    let mut pairs = TupleSet::new(2);
    for &x in &atoms {
        for &y in &atoms {
            pairs.insert(Tuple::binary(x, y));
        }
    }
    let mut p = Problem::new(u);
    let r = p.relation(RelationDecl::free("r", pairs.clone()));
    let s = p.relation(RelationDecl::free("s", pairs.clone()));
    let t = p.relation(RelationDecl::free("t", pairs));
    (p, [Expr::relation(r), Expr::relation(s), Expr::relation(t)])
}

/// Up to seven distinct edges `(from, to)` over the atoms of [`setup`].
pub fn edge_sets() -> impl Strategy<Value = BTreeSet<(usize, usize)>> {
    prop::collection::btree_set((0usize..N_ATOMS, 0usize..N_ATOMS), 0..8)
}
