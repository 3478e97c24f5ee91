//! A from-scratch CDCL SAT solver.
//!
//! This is the reproduction of the paper's "off-the-shelf SAT solver"
//! substrate (the authors used SAT4J): SEPAR's analysis and synthesis engine
//! translates relational-logic specifications into CNF and solves them here.

mod heap;
mod lit;
#[cfg(any(test, feature = "reference"))]
#[doc(hidden)]
pub mod reference;
mod solver;

pub use lit::{LBool, Lit, Var};
pub use solver::{SolveResult, Solver, SolverStats};
