//! Hash-consed boolean circuits and their lowering to CNF.
//!
//! The relational-logic translator (the Kodkod analog) produces circuits
//! rather than CNF directly: intermediate gates are shared aggressively via
//! hash-consing, and only the gates reachable from the root formula get
//! solver variables. Lowering is polarity-aware by default
//! ([`CnfEncoding::PlaistedGreenbaum`]): each reachable gate's polarity is
//! computed from the root first, and only the implication direction(s) that
//! polarity requires are emitted. The classic bidirectional encoding stays
//! available as [`CnfEncoding::Tseitin`].

use std::collections::HashMap;

use crate::sat::{Lit, Solver, Var};

/// A reference to a circuit node, with a sign bit for negation.
///
/// Negation is free: `!b` flips the sign bit rather than allocating a gate.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BoolRef(u32);

const TRUE_IDX: u32 = 0;

impl BoolRef {
    fn new(index: u32, negated: bool) -> BoolRef {
        BoolRef((index << 1) | u32::from(negated))
    }

    fn index(self) -> u32 {
        self.0 >> 1
    }

    fn negated(self) -> bool {
        self.0 & 1 == 1
    }

    /// Returns `true` if this reference is the constant true.
    pub fn is_const_true(self) -> bool {
        self.index() == TRUE_IDX && !self.negated()
    }

    /// Returns `true` if this reference is the constant false.
    pub fn is_const_false(self) -> bool {
        self.index() == TRUE_IDX && self.negated()
    }
}

impl std::ops::Not for BoolRef {
    type Output = BoolRef;

    fn not(self) -> BoolRef {
        BoolRef(self.0 ^ 1)
    }
}

impl std::fmt::Debug for BoolRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.negated() {
            write!(f, "!n{}", self.index())
        } else {
            write!(f, "n{}", self.index())
        }
    }
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum Gate {
    /// The constant true (index 0 only).
    True,
    /// A free input, identified by an opaque label assigned by the caller.
    Input(u32),
    /// Conjunction of two or more references (sorted, deduplicated).
    And(Vec<BoolRef>),
    /// Disjunction of two or more references (sorted, deduplicated).
    Or(Vec<BoolRef>),
}

/// A builder for hash-consed boolean circuits.
///
/// # Examples
///
/// ```
/// use separ_logic::circuit::Circuit;
///
/// let mut c = Circuit::new();
/// let a = c.input();
/// let b = c.input();
/// let both = c.and(a, b);
/// assert_eq!(c.and(a, b), both); // hash-consed
/// assert!(c.or(a, !a).is_const_true());
/// ```
#[derive(Debug, Default, Clone)]
pub struct Circuit {
    gates: Vec<Gate>,
    dedup: HashMap<Gate, u32>,
    next_input: u32,
}

impl Circuit {
    /// Creates a circuit containing only the constants.
    pub fn new() -> Circuit {
        let mut c = Circuit::default();
        c.gates.push(Gate::True);
        c
    }

    /// The constant true.
    pub fn mk_true(&self) -> BoolRef {
        BoolRef::new(TRUE_IDX, false)
    }

    /// The constant false.
    pub fn mk_false(&self) -> BoolRef {
        BoolRef::new(TRUE_IDX, true)
    }

    /// Allocates a fresh free input.
    pub fn input(&mut self) -> BoolRef {
        let gate = Gate::Input(self.next_input);
        self.next_input += 1;
        BoolRef::new(self.intern(gate), false)
    }

    /// Number of inputs allocated so far. The most recent input created by
    /// [`Circuit::input`] carries the label `num_inputs() - 1`.
    pub fn num_inputs(&self) -> u32 {
        self.next_input
    }

    /// Number of gates allocated (including the constant).
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Returns `true` if the circuit has no gates beyond the constant.
    pub fn is_empty(&self) -> bool {
        self.gates.len() <= 1
    }

    fn intern(&mut self, gate: Gate) -> u32 {
        if let Some(&i) = self.dedup.get(&gate) {
            return i;
        }
        let i = self.gates.len() as u32;
        self.gates.push(gate.clone());
        self.dedup.insert(gate, i);
        i
    }

    /// Conjunction of two references, with constant folding and sharing.
    pub fn and(&mut self, a: BoolRef, b: BoolRef) -> BoolRef {
        self.and_all([a, b])
    }

    /// Disjunction of two references, with constant folding and sharing.
    pub fn or(&mut self, a: BoolRef, b: BoolRef) -> BoolRef {
        self.or_all([a, b])
    }

    /// `a => b`.
    pub fn implies(&mut self, a: BoolRef, b: BoolRef) -> BoolRef {
        self.or(!a, b)
    }

    /// `a <=> b`.
    pub fn iff(&mut self, a: BoolRef, b: BoolRef) -> BoolRef {
        let fwd = self.implies(a, b);
        let back = self.implies(b, a);
        self.and(fwd, back)
    }

    /// Conjunction over an iterator of references.
    pub fn and_all<I: IntoIterator<Item = BoolRef>>(&mut self, items: I) -> BoolRef {
        let mut flat: Vec<BoolRef> = Vec::new();
        for r in items {
            if r.is_const_false() {
                return self.mk_false();
            }
            if r.is_const_true() {
                continue;
            }
            flat.push(r);
        }
        flat.sort();
        flat.dedup();
        // x & !x == false
        for w in flat.windows(2) {
            if w[0].index() == w[1].index() {
                return self.mk_false();
            }
        }
        match flat.len() {
            0 => self.mk_true(),
            1 => flat[0],
            _ => BoolRef::new(self.intern(Gate::And(flat)), false),
        }
    }

    /// Disjunction over an iterator of references.
    pub fn or_all<I: IntoIterator<Item = BoolRef>>(&mut self, items: I) -> BoolRef {
        let mut flat: Vec<BoolRef> = Vec::new();
        for r in items {
            if r.is_const_true() {
                return self.mk_true();
            }
            if r.is_const_false() {
                continue;
            }
            flat.push(r);
        }
        flat.sort();
        flat.dedup();
        for w in flat.windows(2) {
            if w[0].index() == w[1].index() {
                return self.mk_true();
            }
        }
        match flat.len() {
            0 => self.mk_false(),
            1 => flat[0],
            _ => BoolRef::new(self.intern(Gate::Or(flat)), false),
        }
    }

    /// At most one of `items` is true.
    ///
    /// Small sets use the pairwise encoding (best propagation); larger
    /// ones a linear "ladder": walking the items with a running
    /// any-so-far disjunction and forbidding `item ∧ any-before`, which
    /// keeps the circuit linear in `items.len()`.
    pub fn at_most_one(&mut self, items: &[BoolRef]) -> BoolRef {
        if items.len() <= 8 {
            let mut constraints = Vec::new();
            for i in 0..items.len() {
                for j in (i + 1)..items.len() {
                    let not_both = self.or(!items[i], !items[j]);
                    constraints.push(not_both);
                }
            }
            return self.and_all(constraints);
        }
        let mut any_before = items[0];
        let mut parts = Vec::with_capacity(items.len());
        for &item in &items[1..] {
            let both = self.and(item, any_before);
            parts.push(!both);
            any_before = self.or(any_before, item);
        }
        self.and_all(parts)
    }

    /// Exactly one of `items` is true.
    pub fn exactly_one(&mut self, items: &[BoolRef]) -> BoolRef {
        let some = self.or_all(items.iter().copied());
        let amo = self.at_most_one(items);
        self.and(some, amo)
    }

    /// Evaluates a reference under an assignment of input labels to booleans.
    ///
    /// Inputs missing from `env` default to `false`.
    pub fn eval(&self, r: BoolRef, env: &HashMap<u32, bool>) -> bool {
        let base = match &self.gates[r.index() as usize] {
            Gate::True => true,
            Gate::Input(label) => *env.get(label).unwrap_or(&false),
            Gate::And(children) => children.iter().all(|&c| self.eval(c, env)),
            Gate::Or(children) => children.iter().any(|&c| self.eval(c, env)),
        };
        base != r.negated()
    }
}

/// The CNF transformation used by [`assert_circuit_with`].
#[derive(Debug, Default, Copy, Clone, PartialEq, Eq, Hash)]
pub enum CnfEncoding {
    /// Polarity-aware Plaisted–Greenbaum encoding (the default): each gate
    /// emits only the implication direction(s) its polarity from the root
    /// requires. Equisatisfiable with the circuit, and the projections of
    /// CNF models onto the input variables are exactly the circuit's
    /// models, so model enumeration is unaffected.
    #[default]
    PlaistedGreenbaum,
    /// Classic bidirectional Tseitin encoding: every gate is fully defined
    /// in both directions. Roughly twice the clauses, kept as a toggle for
    /// cross-checking the polarity analysis.
    Tseitin,
}

/// The result of lowering a circuit to CNF inside a [`Solver`].
///
/// Maps circuit input labels to solver variables so models can be decoded,
/// and records how large the emitted CNF was.
#[derive(Debug, Default)]
pub struct CnfMap {
    /// `input_vars[label]`: the solver variable of a reachable input.
    input_vars: Vec<Option<Var>>,
    clauses: usize,
    aux_vars: usize,
}

impl CnfMap {
    /// The solver variable allocated for a circuit input, if it was
    /// reachable from the asserted root.
    pub fn var_for_input(&self, label: u32) -> Option<Var> {
        self.input_vars.get(label as usize).copied().flatten()
    }

    /// Iterates over `(input label, solver var)` pairs, by label.
    pub fn inputs(&self) -> impl Iterator<Item = (u32, Var)> + '_ {
        self.input_vars
            .iter()
            .enumerate()
            .filter_map(|(l, v)| Some((l as u32, (*v)?)))
    }

    /// Number of clauses this lowering handed to the solver (before the
    /// solver's own simplifications).
    pub fn num_clauses(&self) -> usize {
        self.clauses
    }

    /// Number of auxiliary (gate-definition) variables allocated.
    pub fn num_aux_vars(&self) -> usize {
        self.aux_vars
    }

    fn set_input(&mut self, label: u32, v: Var) {
        let i = label as usize;
        if self.input_vars.len() <= i {
            self.input_vars.resize(i + 1, None);
        }
        self.input_vars[i] = Some(v);
    }
}

/// Polarity bits: whether a gate is observed positively and/or negatively
/// from the asserted root.
const POL_POS: u8 = 1;
const POL_NEG: u8 = 2;

fn flip_polarity(p: u8) -> u8 {
    ((p & POL_POS) << 1) | ((p & POL_NEG) >> 1)
}

/// Computes each gate's polarity set from `root`, indexed by gate; `0`
/// marks a gate the root does not reach.
///
/// A gate has positive polarity if some path from the root reaches it
/// through an even number of negations, negative polarity for an odd
/// number; both bits can be set.
fn polarities(circuit: &Circuit, root: BoolRef) -> Vec<u8> {
    let mut pol = vec![0u8; circuit.gates.len()];
    let seed = if root.negated() { POL_NEG } else { POL_POS };
    let mut work: Vec<(u32, u8)> = vec![(root.index(), seed)];
    while let Some((idx, p)) = work.pop() {
        let entry = &mut pol[idx as usize];
        if *entry & p == p {
            continue;
        }
        *entry |= p;
        if let Gate::And(children) | Gate::Or(children) = &circuit.gates[idx as usize] {
            for c in children {
                let cp = if c.negated() { flip_polarity(p) } else { p };
                work.push((c.index(), cp));
            }
        }
    }
    pol
}

/// Asserts `root` into `solver` using the default (polarity-aware) encoding.
///
/// Only gates reachable from `root` are translated. Returns the mapping
/// from circuit inputs to solver variables.
pub fn assert_circuit(circuit: &Circuit, root: BoolRef, solver: &mut Solver) -> CnfMap {
    assert_circuit_with(circuit, root, solver, CnfEncoding::default())
}

/// Asserts `root` into `solver` with an explicit CNF encoding choice.
///
/// Gates are lowered in creation order (children always precede parents in
/// a hash-consed circuit), so variable numbering is deterministic for a
/// given circuit and root. The numbering, and the order of clauses and of
/// their literals, is part of the solver's search order (see the
/// [`sat`](crate::sat) solver docs), and `tests/solver_trajectory.rs`
/// checks it byte for byte against the reference lowering.
pub fn assert_circuit_with(
    circuit: &Circuit,
    root: BoolRef,
    solver: &mut Solver,
    encoding: CnfEncoding,
) -> CnfMap {
    let mut map = CnfMap::default();
    if root.is_const_true() {
        return map;
    }
    if root.is_const_false() {
        solver.add_clause(&[]);
        map.clauses = 1;
        return map;
    }
    let pol = polarities(circuit, root);
    // Every slot read below belongs to a reachable gate lowered earlier;
    // unreachable slots keep this placeholder.
    let mut gate_lit: Vec<Lit> = vec![Lit(0); circuit.gates.len()];
    let signed = |gate_lit: &[Lit], r: BoolRef| -> Lit {
        let l = gate_lit[r.index() as usize];
        if r.negated() {
            !l
        } else {
            l
        }
    };
    let mut clause: Vec<Lit> = Vec::new();
    for (idx, &reached) in pol.iter().enumerate() {
        if reached == 0 {
            continue;
        }
        let p = match encoding {
            CnfEncoding::PlaistedGreenbaum => reached,
            CnfEncoding::Tseitin => POL_POS | POL_NEG,
        };
        gate_lit[idx] = match &circuit.gates[idx] {
            Gate::True => unreachable!("constants never appear inside gates"),
            Gate::Input(label) => {
                let v = solver.new_var();
                map.set_input(*label, v);
                v.positive()
            }
            Gate::And(children) => {
                let g = solver.new_var().positive();
                map.aux_vars += 1;
                if p & POL_POS != 0 {
                    // g => child, for each child
                    for &c in children {
                        solver.add_clause(&[!g, signed(&gate_lit, c)]);
                        map.clauses += 1;
                    }
                }
                if p & POL_NEG != 0 {
                    // (children) => g
                    clause.clear();
                    clause.extend(children.iter().map(|&c| !signed(&gate_lit, c)));
                    clause.push(g);
                    solver.add_clause(&clause);
                    map.clauses += 1;
                }
                g
            }
            Gate::Or(children) => {
                let g = solver.new_var().positive();
                map.aux_vars += 1;
                if p & POL_NEG != 0 {
                    // child => g, for each child
                    for &c in children {
                        solver.add_clause(&[!signed(&gate_lit, c), g]);
                        map.clauses += 1;
                    }
                }
                if p & POL_POS != 0 {
                    // g => (children)
                    clause.clear();
                    clause.extend(children.iter().map(|&c| signed(&gate_lit, c)));
                    clause.push(!g);
                    solver.add_clause(&clause);
                    map.clauses += 1;
                }
                g
            }
        };
    }
    let root_lit = signed(&gate_lit, root);
    solver.add_clause(&[root_lit]);
    map.clauses += 1;
    map
}

/// The CNF lowering as it was before its gate-indexed tables: a reference
/// oracle for tests only (see [`crate::sat::reference`]). It must emit the
/// same variables and clauses, in the same order, as
/// [`assert_circuit_with`].
#[cfg(any(test, feature = "reference"))]
#[doc(hidden)]
pub mod reference {
    use std::collections::HashMap;

    use super::{flip_polarity, BoolRef, Circuit, CnfEncoding, CnfMap, Gate, POL_NEG, POL_POS};
    use crate::sat::reference::Solver;
    use crate::sat::Lit;

    fn polarities(circuit: &Circuit, root: BoolRef) -> HashMap<u32, u8> {
        let mut pol: HashMap<u32, u8> = HashMap::new();
        let seed = if root.negated() { POL_NEG } else { POL_POS };
        let mut work: Vec<(u32, u8)> = vec![(root.index(), seed)];
        while let Some((idx, p)) = work.pop() {
            let entry = pol.entry(idx).or_insert(0);
            if *entry & p == p {
                continue;
            }
            *entry |= p;
            if let Gate::And(children) | Gate::Or(children) = &circuit.gates[idx as usize] {
                for c in children {
                    let cp = if c.negated() { flip_polarity(p) } else { p };
                    work.push((c.index(), cp));
                }
            }
        }
        pol
    }

    /// The reference counterpart of [`super::assert_circuit_with`],
    /// lowering into the reference solver.
    pub fn assert_circuit_with(
        circuit: &Circuit,
        root: BoolRef,
        solver: &mut Solver,
        encoding: CnfEncoding,
    ) -> CnfMap {
        let mut map = CnfMap::default();
        if root.is_const_true() {
            return map;
        }
        if root.is_const_false() {
            solver.add_clause(&[]);
            map.clauses = 1;
            return map;
        }
        let pol = polarities(circuit, root);
        let mut indices: Vec<u32> = pol.keys().copied().collect();
        indices.sort_unstable();
        let mut gate_lit: HashMap<u32, Lit> = HashMap::new();
        let signed = |gate_lit: &HashMap<u32, Lit>, r: BoolRef| -> Lit {
            let l = gate_lit[&r.index()];
            if r.negated() {
                !l
            } else {
                l
            }
        };
        for idx in indices {
            let p = match encoding {
                CnfEncoding::PlaistedGreenbaum => pol[&idx],
                CnfEncoding::Tseitin => POL_POS | POL_NEG,
            };
            match &circuit.gates[idx as usize] {
                Gate::True => unreachable!("constants never appear inside gates"),
                Gate::Input(label) => {
                    let v = solver.new_var();
                    map.set_input(*label, v);
                    gate_lit.insert(idx, v.positive());
                }
                Gate::And(children) => {
                    let child_lits: Vec<Lit> =
                        children.iter().map(|&c| signed(&gate_lit, c)).collect();
                    let g = solver.new_var().positive();
                    map.aux_vars += 1;
                    if p & POL_POS != 0 {
                        for &cl in &child_lits {
                            solver.add_clause(&[!g, cl]);
                            map.clauses += 1;
                        }
                    }
                    if p & POL_NEG != 0 {
                        let mut clause: Vec<Lit> = child_lits.iter().map(|&c| !c).collect();
                        clause.push(g);
                        solver.add_clause(&clause);
                        map.clauses += 1;
                    }
                    gate_lit.insert(idx, g);
                }
                Gate::Or(children) => {
                    let child_lits: Vec<Lit> =
                        children.iter().map(|&c| signed(&gate_lit, c)).collect();
                    let g = solver.new_var().positive();
                    map.aux_vars += 1;
                    if p & POL_NEG != 0 {
                        for &cl in &child_lits {
                            solver.add_clause(&[!cl, g]);
                            map.clauses += 1;
                        }
                    }
                    if p & POL_POS != 0 {
                        let mut clause = child_lits.clone();
                        clause.push(!g);
                        solver.add_clause(&clause);
                        map.clauses += 1;
                    }
                    gate_lit.insert(idx, g);
                }
            }
        }
        let root_lit = signed(&gate_lit, BoolRef::new(root.index(), root.negated()));
        solver.add_clause(&[root_lit]);
        map.clauses += 1;
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::SolveResult;

    #[test]
    fn constant_folding() {
        let mut c = Circuit::new();
        let a = c.input();
        let t = c.mk_true();
        let f = c.mk_false();
        assert_eq!(c.and(a, t), a);
        assert_eq!(c.and(a, f), f);
        assert_eq!(c.or(a, f), a);
        assert_eq!(c.or(a, t), t);
        assert_eq!(c.and(a, !a), f);
        assert_eq!(c.or(a, !a), t);
        assert_eq!(c.and(a, a), a);
    }

    #[test]
    fn hash_consing_shares_gates() {
        let mut c = Circuit::new();
        let a = c.input();
        let b = c.input();
        let g1 = c.and(a, b);
        let g2 = c.and(b, a);
        assert_eq!(g1, g2);
        let before = c.len();
        let _ = c.and(a, b);
        assert_eq!(c.len(), before);
    }

    #[test]
    fn tseitin_sat_round_trip() {
        let mut c = Circuit::new();
        let a = c.input();
        let b = c.input();
        let xor_ish = {
            let l = c.and(a, !b);
            let r = c.and(!a, b);
            c.or(l, r)
        };
        let mut s = Solver::new();
        let map = assert_circuit(&c, xor_ish, &mut s);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        let va = map.var_for_input(0).expect("input a mapped");
        let vb = map.var_for_input(1).expect("input b mapped");
        assert_ne!(s.is_true(va.positive()), s.is_true(vb.positive()));
    }

    #[test]
    fn tseitin_unsat_contradiction() {
        let mut c = Circuit::new();
        let a = c.input();
        let b = c.input();
        let g = c.and(a, b);
        let contradiction = c.and(g, !a);
        // Folding may or may not collapse this; assert via SAT either way.
        let mut s = Solver::new();
        assert_circuit(&c, contradiction, &mut s);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn constant_roots() {
        let c0 = Circuit::new();
        let mut s = Solver::new();
        assert_circuit(&c0, c0.mk_true(), &mut s);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        let mut s2 = Solver::new();
        assert_circuit(&c0, c0.mk_false(), &mut s2);
        assert_eq!(s2.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn exactly_one_enumerates_n_models() {
        let mut c = Circuit::new();
        let inputs: Vec<BoolRef> = (0..4).map(|_| c.input()).collect();
        let formula = c.exactly_one(&inputs);
        let mut s = Solver::new();
        let map = assert_circuit(&c, formula, &mut s);
        let vars: Vec<_> = (0..4)
            .map(|i| map.var_for_input(i).expect("mapped"))
            .collect();
        let mut models = 0;
        while s.solve(&[]) == SolveResult::Sat {
            models += 1;
            assert!(models <= 4);
            assert_eq!(vars.iter().filter(|v| s.is_true(v.positive())).count(), 1);
            let blocking: Vec<_> = vars
                .iter()
                .map(|v| {
                    if s.is_true(v.positive()) {
                        v.negative()
                    } else {
                        v.positive()
                    }
                })
                .collect();
            s.add_clause(&blocking);
        }
        assert_eq!(models, 4);
    }

    /// Builds a random circuit over `n_inputs` inputs and returns the root.
    fn random_circuit(rng: &mut impl rand::Rng, c: &mut Circuit, n_inputs: u32) -> BoolRef {
        let mut refs: Vec<BoolRef> = (0..n_inputs).map(|_| c.input()).collect();
        for _ in 0..14 {
            let mut a = refs[rng.gen_range(0..refs.len())];
            let mut b = refs[rng.gen_range(0..refs.len())];
            if rng.gen_bool(0.3) {
                a = !a;
            }
            if rng.gen_bool(0.3) {
                b = !b;
            }
            let g = if rng.gen_bool(0.5) {
                c.and(a, b)
            } else {
                c.or(a, b)
            };
            refs.push(g);
        }
        let root = *refs.last().expect("non-empty");
        if rng.gen_bool(0.3) {
            !root
        } else {
            root
        }
    }

    /// Both encodings must agree with `Circuit::eval` on every input
    /// assignment — a property strictly stronger than equisatisfiability:
    /// the CNF's models, projected onto the input variables, are exactly
    /// the circuit's models.
    #[test]
    fn encodings_agree_with_eval_on_random_circuits() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(0xC1C1_2026);
        for round in 0..60 {
            let n_inputs = 4;
            let mut c = Circuit::new();
            let root = random_circuit(&mut rng, &mut c, n_inputs);
            for encoding in [CnfEncoding::PlaistedGreenbaum, CnfEncoding::Tseitin] {
                let mut s = Solver::new();
                let map = assert_circuit_with(&c, root, &mut s, encoding);
                if root.is_const_true() {
                    assert_eq!(s.solve(&[]), SolveResult::Sat);
                    continue;
                }
                if root.is_const_false() {
                    assert_eq!(s.solve(&[]), SolveResult::Unsat);
                    continue;
                }
                for bits in 0u32..(1 << n_inputs) {
                    let env: HashMap<u32, bool> =
                        (0..n_inputs).map(|i| (i, bits >> i & 1 == 1)).collect();
                    let expected = c.eval(root, &env);
                    // Fix every mapped (= reachable) input; unmapped inputs
                    // cannot influence the root's value.
                    let assumptions: Vec<Lit> = (0..n_inputs)
                        .filter_map(|l| map.var_for_input(l).map(|v| v.lit(env[&l])))
                        .collect();
                    let got = s.solve(&assumptions) == SolveResult::Sat;
                    assert_eq!(
                        got, expected,
                        "round {round}, {encoding:?}, assignment {bits:04b}"
                    );
                }
            }
        }
    }

    #[test]
    fn polarity_encoding_emits_fewer_clauses() {
        // A deep one-sided formula (big disjunction of conjunctions): every
        // internal gate has a single polarity, so Plaisted–Greenbaum should
        // emit roughly half the clauses Tseitin does.
        let mut c = Circuit::new();
        let mut disjuncts = Vec::new();
        for _ in 0..16 {
            let a = c.input();
            let b = c.input();
            let d = c.input();
            let ab = c.and(a, b);
            disjuncts.push(c.and(ab, !d));
        }
        let root = c.or_all(disjuncts.iter().copied());
        let mut s_pg = Solver::new();
        let pg = assert_circuit_with(&c, root, &mut s_pg, CnfEncoding::PlaistedGreenbaum);
        let mut s_ts = Solver::new();
        let ts = assert_circuit_with(&c, root, &mut s_ts, CnfEncoding::Tseitin);
        assert_eq!(pg.num_aux_vars(), ts.num_aux_vars());
        assert!(
            pg.num_clauses() * 4 <= ts.num_clauses() * 3,
            "expected >= 25% clause reduction: pg {} vs tseitin {}",
            pg.num_clauses(),
            ts.num_clauses()
        );
        assert_eq!(s_pg.solve(&[]), SolveResult::Sat);
        assert_eq!(s_ts.solve(&[]), SolveResult::Sat);
    }

    #[test]
    fn only_inputs_reachable_from_the_root_get_solver_variables() {
        let mut c = Circuit::new();
        let a = c.input();
        let b = c.input();
        let _unused = c.input();
        let root = c.and(a, !b);
        let mut s = Solver::new();
        let map = assert_circuit(&c, root, &mut s);
        assert!(map.var_for_input(0).is_some());
        assert!(map.var_for_input(2).is_none());
    }

    #[test]
    fn eval_matches_sat_model() {
        let mut c = Circuit::new();
        let a = c.input();
        let b = c.input();
        let d = c.input();
        let ab = c.or(a, b);
        let formula = c.and(ab, !d);
        let mut s = Solver::new();
        let map = assert_circuit(&c, formula, &mut s);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        let mut env = HashMap::new();
        for (label, var) in map.inputs() {
            env.insert(label, s.is_true(var.positive()));
        }
        assert!(c.eval(formula, &env));
    }
}
