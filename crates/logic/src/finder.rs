//! Problems and the bounded model finder.
//!
//! A [`Problem`] bundles a universe, bounded relation declarations and a
//! conjunction of facts. [`ModelFinder`] solves it and supports both plain
//! model enumeration (Alloy Analyzer style) and *minimal* model enumeration
//! (Aluminum style), which the paper relies on to synthesize minimal exploit
//! scenarios.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::ast::{Formula, QuantVar};
use crate::circuit;
use crate::error::Result;
use crate::instance::Instance;
use crate::relation::{RelationDecl, RelationId, Tuple, TupleSet};
use crate::sat::{Lit, SolveResult, Solver, SolverStats, Var};
use crate::translate::{build_base, translate, translate_from, Translation, TranslationBase};
use crate::universe::Universe;

/// Options controlling how a [`Problem`] is lowered into a test-only
/// [`ModelFinder`] (see [`Problem::model_finder_with`]). Every option
/// preserves the model set.
#[cfg(any(test, feature = "reference"))]
#[doc(hidden)]
#[derive(Debug, Default, Copy, Clone, PartialEq, Eq)]
pub struct FinderOptions {
    /// CNF transformation for the circuit-to-solver lowering.
    pub encoding: circuit::CnfEncoding,
}

/// A bounded relational-logic problem.
///
/// # Examples
///
/// ```
/// use separ_logic::finder::Problem;
/// use separ_logic::ast::Expr;
/// use separ_logic::relation::{RelationDecl, TupleSet};
/// use separ_logic::universe::Universe;
///
/// let mut u = Universe::new();
/// let atoms: Vec<_> = (0..2).map(|i| u.add(format!("c{i}"))).collect();
/// let mut p = Problem::new(u);
/// let comp = p.relation(RelationDecl::free(
///     "Component",
///     TupleSet::unary_from(atoms),
/// ));
/// p.fact(Expr::relation(comp).some());
/// let mut finder = p.model_finder()?;
/// let instance = finder.next_model().expect("satisfiable");
/// assert!(!instance.tuples(comp).is_empty());
/// # Ok::<(), separ_logic::error::LogicError>(())
/// ```
///
/// The universe and the relations' names and bounds are shared, not
/// copied, by clones of a problem and by the [`ModelFinder`]s and
/// [`Instance`]s built from it.
#[derive(Debug, Clone)]
pub struct Problem {
    universe: Arc<Universe>,
    relations: Vec<RelationDecl>,
    facts: Vec<Formula>,
    next_var: u32,
}

impl Problem {
    /// Creates a problem over the given universe.
    pub fn new(universe: Universe) -> Problem {
        Problem {
            universe: Arc::new(universe),
            relations: Vec::new(),
            facts: Vec::new(),
            next_var: 0,
        }
    }

    /// The universe of this problem.
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// Declares a bounded relation, returning its id.
    pub fn relation(&mut self, decl: RelationDecl) -> RelationId {
        let id = RelationId(self.relations.len() as u32);
        self.relations.push(decl);
        id
    }

    /// Looks up a declared relation id by name.
    pub fn relation_by_name(&self, name: &str) -> Option<RelationId> {
        self.relations
            .iter()
            .position(|d| d.name() == name)
            .map(|i| RelationId(i as u32))
    }

    /// The declaration of a relation.
    pub fn decl(&self, r: RelationId) -> &RelationDecl {
        &self.relations[r.index()]
    }

    /// Number of declared relations.
    pub fn num_relations(&self) -> usize {
        self.relations.len()
    }

    /// Adds a fact (conjoined with all others).
    pub fn fact(&mut self, f: Formula) {
        self.facts.push(f);
    }

    /// Tightens the upper bound of `rel`, keeping lower-bound tuples plus
    /// free tuples satisfying `keep`, and returns how many free tuples were
    /// dropped. This is the relevance-slicing entry point: callers must
    /// ensure dropped tuples are false in every (minimal) model of the
    /// facts they intend to assert, which preserves the minimal-model set
    /// while shrinking the primary-variable count.
    ///
    /// Must be called before [`Problem::translation_base`] /
    /// [`Problem::model_finder_from`]; bases built from the old bounds do
    /// not see the tightening.
    pub fn tighten_upper(&mut self, rel: RelationId, keep: impl FnMut(&Tuple) -> bool) -> usize {
        let decl = &self.relations[rel.index()];
        let before = decl.upper().len();
        let tightened = decl.tightened_upper(keep);
        let dropped = before - tightened.upper().len();
        self.relations[rel.index()] = tightened;
        dropped
    }

    /// Allocates a quantified variable unique within this problem.
    pub fn fresh_var(&mut self) -> QuantVar {
        let v = QuantVar::new(self.next_var);
        self.next_var += 1;
        v
    }

    /// Translates the problem and returns a reusable model finder.
    ///
    /// # Errors
    ///
    /// Returns an error if any fact is ill-typed.
    pub fn model_finder(&self) -> Result<ModelFinder> {
        self.build_finder(None, false)
    }

    /// Translates the problem with explicit [`FinderOptions`]: the
    /// test-only entry point of the Tseitin oracle.
    ///
    /// # Errors
    ///
    /// Returns an error if any fact is ill-typed.
    #[cfg(any(test, feature = "reference"))]
    #[doc(hidden)]
    pub fn model_finder_with(&self, options: FinderOptions) -> Result<ModelFinder> {
        self.build_finder(None, options.encoding == circuit::CnfEncoding::Tseitin)
    }

    /// Builds the reusable, fact-independent translation base (all leaf
    /// matrices) for this problem's bounds. Share it across several
    /// problems derived from these declarations via
    /// [`Problem::model_finder_from`].
    pub fn translation_base(&self) -> TranslationBase {
        build_base(&self.universe, &self.relations)
    }

    /// Translates the problem starting from a shared [`TranslationBase`],
    /// which must have been built from a prefix of this problem's relation
    /// declarations (relations appended afterwards translate lazily).
    ///
    /// # Errors
    ///
    /// Returns an error if any fact is ill-typed.
    pub fn model_finder_from(&self, base: &TranslationBase) -> Result<ModelFinder> {
        self.build_finder(Some(base), false)
    }

    /// `tseitin` selects the reference CNF encoding (see
    /// [`circuit::lower`]).
    fn build_finder(&self, base: Option<&TranslationBase>, tseitin: bool) -> Result<ModelFinder> {
        let conj = Formula::and(self.facts.iter().cloned());
        let mut span = separ_obs::span("logic.translate");
        let t0 = Instant::now();
        let translation = match base {
            Some(b) => translate_from(b, &self.universe, &self.relations, &conj)?,
            None => translate(&self.universe, &self.relations, &conj)?,
        };
        let finder = self.finder_for(translation, tseitin, base.is_some());
        span.set_arg("shared_base", base.is_some().to_string());
        span.set_arg("clauses", finder.cnf_clauses.to_string());
        drop(span);
        Ok(ModelFinder {
            construction_time: t0.elapsed(),
            ..finder
        })
    }

    /// Lowers a translation into a solver and wraps it in a
    /// [`ModelFinder`] sharing this problem's universe and relations.
    fn finder_for(
        &self,
        translation: Translation,
        tseitin: bool,
        shared_base: bool,
    ) -> ModelFinder {
        let mut solver = Solver::new();
        let cnf = circuit::lower(&translation.circuit, translation.root, &mut solver, tseitin);
        // Map each free tuple to its solver variable, if the tuple's input
        // survived into the CNF (inputs the formula never constrains do
        // not; they decode as absent, biasing toward minimal instances).
        let mut free_vars: Vec<(RelationId, Tuple, Var)> = translation
            .free_inputs
            .into_iter()
            .filter_map(|(label, (rel, tuple))| Some((rel, tuple, cnf.var_for_input(label)?)))
            .collect();
        free_vars.sort_unstable_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        ModelFinder {
            universe: Arc::clone(&self.universe),
            relations: self.relations.as_slice().into(),
            solver,
            free_vars,
            construction_time: Duration::ZERO,
            solve_time: Duration::ZERO,
            exhausted: false,
            cnf_clauses: cnf.num_clauses(),
            shared_base,
        }
    }

    /// Convenience: finds one satisfying instance, if any.
    ///
    /// # Errors
    ///
    /// Returns an error if any fact is ill-typed.
    pub fn solve(&self) -> Result<Option<Instance>> {
        Ok(self.model_finder()?.next_model())
    }

    /// Convenience: finds one minimal satisfying instance, if any.
    ///
    /// # Errors
    ///
    /// Returns an error if any fact is ill-typed.
    pub fn solve_minimal(&self) -> Result<Option<Instance>> {
        Ok(self.model_finder()?.next_minimal_model())
    }

    /// Checks an assertion against the facts: returns a counterexample
    /// instance if the facts do not entail `assertion` within the bounds,
    /// or `None` if the assertion holds.
    ///
    /// This is the *verification* direction of the paper's observation
    /// that synthesis is the dual of verification: `solve` looks for a
    /// model of `facts ∧ property`, `check` looks for a model of
    /// `facts ∧ ¬assertion`.
    ///
    /// # Errors
    ///
    /// Returns an error if the assertion or any fact is ill-typed.
    pub fn check(&self, assertion: Formula) -> Result<Option<Instance>> {
        let conj = Formula::and(
            self.facts
                .iter()
                .cloned()
                .chain(std::iter::once(assertion.not())),
        );
        let translation = translate(&self.universe, &self.relations, &conj)?;
        let mut finder = self.finder_for(translation, false, false);
        Ok(finder.next_model())
    }
}

/// An incremental model finder over a translated [`Problem`].
///
/// Use either [`next_model`](ModelFinder::next_model) repeatedly (plain
/// enumeration with blocking clauses) or
/// [`next_minimal_model`](ModelFinder::next_minimal_model) repeatedly
/// (Aluminum-style minimal-scenario enumeration: each returned instance is
/// minimal, and all of its supersets are excluded from later results). The
/// two modes should not be mixed on one finder.
#[derive(Debug)]
pub struct ModelFinder {
    universe: Arc<Universe>,
    relations: Arc<[RelationDecl]>,
    solver: Solver,
    /// Free tuples with their solver variables, sorted for determinism.
    free_vars: Vec<(RelationId, Tuple, Var)>,
    construction_time: Duration,
    solve_time: Duration,
    exhausted: bool,
    cnf_clauses: usize,
    shared_base: bool,
}

impl ModelFinder {
    /// Time spent translating the relational problem into CNF.
    pub fn construction_time(&self) -> Duration {
        self.construction_time
    }

    /// Cumulative time spent inside the SAT solver.
    pub fn solve_time(&self) -> Duration {
        self.solve_time
    }

    /// Number of free boolean variables (primary variables).
    pub fn num_primary_vars(&self) -> usize {
        self.free_vars.len()
    }

    /// Total number of solver variables, including gate auxiliaries.
    pub fn num_solver_vars(&self) -> usize {
        self.solver.num_vars()
    }

    /// Number of CNF clauses the translation emitted at construction time
    /// (enumeration adds blocking clauses afterwards; they are not counted).
    pub fn cnf_clauses(&self) -> usize {
        self.cnf_clauses
    }

    /// Returns `true` if this finder was built from a shared
    /// [`TranslationBase`].
    pub fn used_shared_base(&self) -> bool {
        self.shared_base
    }

    /// A snapshot of the underlying SAT solver's counters.
    pub fn solver_stats(&self) -> SolverStats {
        self.solver.stats()
    }

    fn timed_solve(&mut self, assumptions: &[Lit]) -> SolveResult {
        let _span = separ_obs::span("logic.solve");
        let t0 = Instant::now();
        let r = self.solver.solve(assumptions);
        self.solve_time += t0.elapsed();
        r
    }

    fn snapshot(&self) -> Vec<bool> {
        self.free_vars
            .iter()
            .map(|&(_, _, v)| self.solver.is_true(v.positive()))
            .collect()
    }

    /// Builds the instance of `assignment`: each relation with a chosen
    /// free tuple becomes lower bound ∪ chosen tuples; the rest stay
    /// shared with this finder's declarations.
    fn decode(&self, assignment: &[bool]) -> Instance {
        let mut chosen: Vec<(RelationId, TupleSet)> = Vec::new();
        // `free_vars` is sorted by relation, so each relation's chosen
        // tuples are consecutive.
        for ((rel, tuple, _), _) in self.free_vars.iter().zip(assignment).filter(|(_, &v)| v) {
            match chosen.last_mut() {
                Some((last, tuples)) if last == rel => {
                    tuples.insert(tuple.clone());
                }
                _ => {
                    let mut tuples = self.relations[rel.index()].lower().clone();
                    tuples.insert(tuple.clone());
                    chosen.push((*rel, tuples));
                }
            }
        }
        Instance::new(
            Arc::clone(&self.universe),
            Arc::clone(&self.relations),
            chosen,
        )
    }

    /// Finds the next satisfying instance, blocking it for later calls.
    ///
    /// Returns `None` once the instance space is exhausted. Instances are
    /// distinguished by their free-tuple assignment.
    pub fn next_model(&mut self) -> Option<Instance> {
        if self.exhausted {
            return None;
        }
        if self.timed_solve(&[]) != SolveResult::Sat {
            self.exhausted = true;
            return None;
        }
        let assignment = self.snapshot();
        if self.free_vars.is_empty() {
            // A unique (fully determined) instance.
            self.exhausted = true;
            return Some(self.decode(&assignment));
        }
        let blocking: Vec<Lit> = self
            .free_vars
            .iter()
            .zip(&assignment)
            .map(|(&(_, _, v), &val)| v.lit(!val))
            .collect();
        self.solver.add_clause(&blocking);
        Some(self.decode(&assignment))
    }

    /// Finds the next *minimal* satisfying instance.
    ///
    /// An instance is minimal if no other satisfying instance has a strict
    /// subset of its free tuples. After one is returned, every superset of
    /// its positive tuples (including itself) is excluded, so repeated calls
    /// walk the antichain of minimal scenarios, as Aluminum does.
    pub fn next_minimal_model(&mut self) -> Option<Instance> {
        if self.exhausted {
            return None;
        }
        if self.timed_solve(&[]) != SolveResult::Sat {
            self.exhausted = true;
            return None;
        }
        let mut assignment = self.snapshot();
        // Shrink: repeatedly ask for a model whose positives are a strict
        // subset of the current ones.
        loop {
            let positives: Vec<usize> = (0..assignment.len()).filter(|&i| assignment[i]).collect();
            if positives.is_empty() {
                break;
            }
            // Activation literal for the "drop at least one positive" clause.
            let act = self.solver.new_var();
            let mut clause: Vec<Lit> = positives
                .iter()
                .map(|&i| self.free_vars[i].2.negative())
                .collect();
            clause.push(act.negative());
            self.solver.add_clause(&clause);
            let mut assumptions: Vec<Lit> = vec![act.positive()];
            for (i, &val) in assignment.iter().enumerate() {
                if !val {
                    assumptions.push(self.free_vars[i].2.negative());
                }
            }
            if self.timed_solve(&assumptions) == SolveResult::Sat {
                assignment = self.snapshot();
                // Retire the activation var so its clause becomes inert.
                self.solver.add_clause(&[act.negative()]);
            } else {
                self.solver.add_clause(&[act.negative()]);
                break;
            }
        }
        // Block the upward cone of this minimal model.
        let positives: Vec<Lit> = (0..assignment.len())
            .filter(|&i| assignment[i])
            .map(|i| self.free_vars[i].2.negative())
            .collect();
        if positives.is_empty() {
            self.exhausted = true;
        } else {
            self.solver.add_clause(&positives);
        }
        Some(self.decode(&assignment))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Expr;

    fn unary_problem(n_atoms: usize) -> (Problem, RelationId) {
        let mut u = Universe::new();
        let atoms: Vec<_> = (0..n_atoms).map(|i| u.add(format!("a{i}"))).collect();
        let mut p = Problem::new(u);
        let r = p.relation(RelationDecl::free("r", TupleSet::unary_from(atoms)));
        (p, r)
    }

    #[test]
    fn some_forces_nonempty() {
        let (mut p, r) = unary_problem(3);
        p.fact(Expr::relation(r).some());
        let inst = p.solve().expect("well-typed").expect("satisfiable");
        assert!(!inst.tuples(r).is_empty());
    }

    #[test]
    fn contradiction_is_unsat() {
        let (mut p, r) = unary_problem(2);
        p.fact(Expr::relation(r).some());
        p.fact(Expr::relation(r).no());
        assert!(p.solve().expect("well-typed").is_none());
    }

    #[test]
    fn one_gives_singleton() {
        let (mut p, r) = unary_problem(4);
        p.fact(Expr::relation(r).one());
        let inst = p.solve().expect("well-typed").expect("satisfiable");
        assert_eq!(inst.tuples(r).len(), 1);
    }

    #[test]
    fn enumeration_counts_models() {
        // `lone r` over 3 atoms: the empty set plus 3 singletons = 4 models.
        let (mut p, r) = unary_problem(3);
        p.fact(Expr::relation(r).lone());
        let mut finder = p.model_finder().expect("well-typed");
        let mut count = 0;
        while let Some(inst) = finder.next_model() {
            assert!(inst.tuples(r).len() <= 1);
            count += 1;
            assert!(count <= 4, "too many models");
        }
        assert_eq!(count, 4);
    }

    #[test]
    fn minimal_model_of_some_is_singleton() {
        let (mut p, r) = unary_problem(5);
        p.fact(Expr::relation(r).some());
        let inst = p.solve_minimal().expect("well-typed").expect("satisfiable");
        assert_eq!(
            inst.tuples(r).len(),
            1,
            "minimal witness of `some` is a singleton"
        );
    }

    #[test]
    fn minimal_enumeration_walks_the_antichain() {
        // `some r` over 3 atoms has exactly 3 minimal models (singletons).
        let (mut p, r) = unary_problem(3);
        p.fact(Expr::relation(r).some());
        let mut finder = p.model_finder().expect("well-typed");
        let mut count = 0;
        while let Some(inst) = finder.next_minimal_model() {
            assert_eq!(inst.tuples(r).len(), 1);
            count += 1;
            assert!(count <= 3);
        }
        assert_eq!(count, 3);
    }

    fn count_models(finder: &mut ModelFinder) -> usize {
        let mut count = 0;
        while finder.next_model().is_some() {
            count += 1;
            assert!(count <= 64, "runaway enumeration");
        }
        count
    }

    #[test]
    fn encodings_and_sharing_agree_on_model_counts() {
        for tseitin in [false, true] {
            let (mut p, r) = unary_problem(3);
            p.fact(Expr::relation(r).lone());
            let mut fresh = p.build_finder(None, tseitin).expect("well-typed");
            assert_eq!(count_models(&mut fresh), 4, "tseitin: {tseitin}");
            let base = p.translation_base();
            let mut shared = p.build_finder(Some(&base), tseitin).expect("well-typed");
            assert!(shared.used_shared_base());
            assert_eq!(count_models(&mut shared), 4, "tseitin: {tseitin}, shared");
        }
    }

    #[test]
    fn polarity_encoding_reduces_clause_counts() {
        let (mut p, r) = unary_problem(6);
        p.fact(Expr::relation(r).one());
        let pg = p.model_finder().expect("well-typed");
        let ts = p
            .model_finder_with(FinderOptions {
                encoding: circuit::CnfEncoding::Tseitin,
            })
            .expect("well-typed");
        assert!(
            pg.cnf_clauses() < ts.cnf_clauses(),
            "pg {} vs tseitin {}",
            pg.cnf_clauses(),
            ts.cnf_clauses()
        );
    }

    #[test]
    fn quantifiers_and_join_interact() {
        // Universe: two components, one app. cmp_app: Component -> App,
        // constrained so every component maps to exactly one app.
        let mut u = Universe::new();
        let c0 = u.add("C0");
        let c1 = u.add("C1");
        let a0 = u.add("A0");
        let mut p = Problem::new(u);
        let comp = p.relation(RelationDecl::exact(
            "Component",
            TupleSet::unary_from([c0, c1]),
        ));
        let app = p.relation(RelationDecl::exact("App", TupleSet::unary_from([a0])));
        let cmp_app = p.relation(RelationDecl::free(
            "cmp_app",
            TupleSet::binary_from([(c0, a0), (c1, a0)]),
        ));
        let v = p.fresh_var();
        p.fact(Formula::for_all(
            v,
            Expr::relation(comp),
            Expr::var(v).join(&Expr::relation(cmp_app)).one(),
        ));
        // Redundant but exercises join in the other direction:
        p.fact(
            Expr::relation(app)
                .join(&Expr::relation(cmp_app).transpose())
                .some(),
        );
        let inst = p.solve().expect("well-typed").expect("satisfiable");
        assert_eq!(inst.tuples(cmp_app).len(), 2);
    }

    #[test]
    fn closure_reaches_transitively() {
        // edges is exact {(a,b),(b,c)}; fact: (a,c) in ^edges must hold —
        // trivially true, so solvable; and (c,a) in ^edges must be
        // unsatisfiable.
        let mut u = Universe::new();
        let a = u.add("a");
        let b = u.add("b");
        let c = u.add("c");
        let mut p = Problem::new(u.clone());
        let edges = p.relation(RelationDecl::exact(
            "edges",
            TupleSet::binary_from([(a, b), (b, c)]),
        ));
        p.fact(
            Expr::atom(a)
                .product(&Expr::atom(c))
                .in_(&Expr::relation(edges).closure()),
        );
        assert!(p.solve().expect("ok").is_some());

        let mut p2 = Problem::new(u);
        let edges2 = p2.relation(RelationDecl::exact(
            "edges",
            TupleSet::binary_from([(a, b), (b, c)]),
        ));
        p2.fact(
            Expr::atom(c)
                .product(&Expr::atom(a))
                .in_(&Expr::relation(edges2).closure()),
        );
        assert!(p2.solve().expect("ok").is_none());
    }

    #[test]
    fn paper_style_component_app_meta_model() {
        // The Alloy example from the paper (Fig. 4): each Component belongs
        // to exactly one Application. With 1 app and 2 components, the
        // instance where a component is orphaned must be excluded.
        let mut u = Universe::new();
        let app1 = u.add("App1");
        let app2 = u.add("App2");
        let c1 = u.add("Comp1");
        let c2 = u.add("Comp2");
        let mut p = Problem::new(u);
        let application = p.relation(RelationDecl::exact(
            "Application",
            TupleSet::unary_from([app1, app2]),
        ));
        let component = p.relation(RelationDecl::exact(
            "Component",
            TupleSet::unary_from([c1, c2]),
        ));
        let cmps = p.relation(RelationDecl::free(
            "cmps",
            TupleSet::binary_from([(app1, c1), (app1, c2), (app2, c1), (app2, c2)]),
        ));
        // fact { all c: Component | one c.~cmps }
        let v = p.fresh_var();
        p.fact(Formula::for_all(
            v,
            Expr::relation(component),
            Expr::var(v).join(&Expr::relation(cmps).transpose()).one(),
        ));
        let _ = application;
        let mut finder = p.model_finder().expect("well-typed");
        let mut count = 0;
        while let Some(inst) = finder.next_model() {
            // Every model assigns each component exactly one app.
            let ts = inst.tuples(cmps);
            assert_eq!(ts.len(), 2);
            count += 1;
            assert!(count <= 4);
        }
        // 2 choices for c1 × 2 choices for c2.
        assert_eq!(count, 4);
    }

    #[test]
    fn check_returns_counterexamples_or_proves() {
        // Facts: r is a singleton. Assertion `some r` holds; assertion
        // `no r` has a counterexample.
        let (mut p, r) = unary_problem(3);
        p.fact(Expr::relation(r).one());
        assert!(
            p.check(Expr::relation(r).some()).expect("ok").is_none(),
            "one(r) entails some(r)"
        );
        let cex = p
            .check(Expr::relation(r).no())
            .expect("ok")
            .expect("counterexample exists");
        assert_eq!(cex.tuples(r).len(), 1, "counterexample satisfies facts");
    }

    #[test]
    fn check_is_bounded_verification() {
        // Vacuous entailment: with an empty-upper-bound constraint the
        // assertion holds for want of counterexamples.
        let (mut p, r) = unary_problem(2);
        p.fact(Expr::relation(r).no());
        assert!(p.check(Expr::relation(r).lone()).expect("ok").is_none());
    }

    #[test]
    fn timing_counters_accumulate() {
        let (mut p, r) = unary_problem(6);
        p.fact(Expr::relation(r).some());
        let mut finder = p.model_finder().expect("well-typed");
        let _ = finder.next_model();
        assert!(finder.num_primary_vars() > 0);
        assert!(finder.num_solver_vars() >= finder.num_primary_vars());
    }
}
