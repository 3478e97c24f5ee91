//! **separ-logic** — a bounded relational-logic model finder over a
//! from-scratch CDCL SAT core.
//!
//! This crate is the reproduction of the formal-methods substrate the SEPAR
//! paper builds on (Alloy + Kodkod + SAT4J + Aluminum): specifications are
//! written in first-order relational logic with transitive closure
//! ([`ast`]), bounded by finite universes and per-relation tuple bounds
//! ([`universe`], [`relation`]), translated to boolean circuits and CNF
//! ([`translate`], [`circuit`]), and solved with a CDCL SAT solver
//! ([`sat`]). The [`finder`] module exposes plain model enumeration (the
//! Alloy Analyzer behaviour) and minimal-model enumeration (the Aluminum
//! behaviour the paper uses to synthesize minimal exploit scenarios).
//!
//! # Examples
//!
//! ```
//! use separ_logic::ast::Expr;
//! use separ_logic::finder::Problem;
//! use separ_logic::relation::{RelationDecl, TupleSet};
//! use separ_logic::universe::Universe;
//!
//! // A toy "some component is exported" check.
//! let mut u = Universe::new();
//! let c0 = u.add("Comp0");
//! let c1 = u.add("Comp1");
//! let mut p = Problem::new(u);
//! let exported = p.relation(RelationDecl::free(
//!     "exported",
//!     TupleSet::unary_from([c0, c1]),
//! ));
//! p.fact(Expr::relation(exported).some());
//! let instance = p.solve_minimal()?.expect("satisfiable");
//! assert_eq!(instance.tuples(exported).len(), 1);
//! # Ok::<(), separ_logic::error::LogicError>(())
//! ```
#![warn(missing_docs)]

pub mod ast;
pub mod circuit;
pub mod error;
pub mod finder;
pub mod instance;
pub mod relation;
pub mod sat;
pub mod translate;
pub mod universe;

pub use ast::{Expr, Formula, QuantVar};
pub use error::LogicError;
#[cfg(any(test, feature = "reference"))]
#[doc(hidden)]
pub use finder::FinderOptions;
pub use finder::{ModelFinder, Problem};
pub use instance::Instance;
pub use relation::{RelationDecl, RelationId, Tuple, TupleSet};
pub use sat::SolverStats;
pub use translate::TranslationBase;
pub use universe::{Atom, Universe};
