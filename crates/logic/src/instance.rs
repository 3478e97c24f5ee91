//! Decoded model instances.

use std::fmt;
use std::sync::Arc;

use crate::relation::{RelationDecl, RelationId, Tuple, TupleSet};
use crate::universe::Universe;

/// A satisfying instance: a concrete tuple set for every declared relation.
///
/// An instance shares its universe and its relations' names and lower
/// bounds with the [`ModelFinder`] that produced it. It owns only the
/// relations in which the model chose at least one free tuple, stored
/// materialised as lower bound ∪ chosen tuples; every other relation's
/// tuples are its shared lower bound. Decoding and dropping an instance
/// therefore cost in proportion to the chosen tuples, not to the bounds.
///
/// [`ModelFinder`]: crate::finder::ModelFinder
#[derive(Clone, Debug)]
pub struct Instance {
    universe: Arc<Universe>,
    decls: Arc<[RelationDecl]>,
    /// `(relation, lower ∪ chosen)` for each relation with a chosen free
    /// tuple, sorted by relation.
    chosen: Vec<(RelationId, TupleSet)>,
}

impl Instance {
    pub(crate) fn new(
        universe: Arc<Universe>,
        decls: Arc<[RelationDecl]>,
        chosen: Vec<(RelationId, TupleSet)>,
    ) -> Instance {
        debug_assert!(chosen.windows(2).all(|w| w[0].0 < w[1].0));
        Instance {
            universe,
            decls,
            chosen,
        }
    }

    /// The tuples of a relation in this instance.
    ///
    /// # Panics
    ///
    /// Panics if `r` was not declared in the problem that produced this
    /// instance.
    pub fn tuples(&self, r: RelationId) -> &TupleSet {
        match self.chosen.binary_search_by_key(&r, |(id, _)| *id) {
            Ok(i) => &self.chosen[i].1,
            Err(_) => self
                .decls
                .get(r.index())
                .expect("relation declared in the originating problem")
                .lower(),
        }
    }

    /// Returns `true` if the relation contains the given tuple.
    pub fn contains(&self, r: RelationId, t: &Tuple) -> bool {
        self.tuples(r).contains(t)
    }

    /// The universe this instance was found in (for naming atoms).
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// Total number of tuples across all relations (a size measure used by
    /// minimality tests).
    pub fn total_tuples(&self) -> usize {
        self.iter().map(|(_, _, tuples)| tuples.len()).sum()
    }

    /// Iterates over `(relation, name, tuples)` in relation order.
    pub fn iter(&self) -> impl Iterator<Item = (RelationId, &str, &TupleSet)> + '_ {
        self.decls.iter().enumerate().map(move |(i, decl)| {
            let r = RelationId(i as u32);
            (r, decl.name(), self.tuples(r))
        })
    }
}

impl fmt::Display for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (_, name, tuples) in self.iter() {
            write!(f, "{name} = {{")?;
            for (i, t) in tuples.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "(")?;
                for (j, a) in t.atoms().iter().enumerate() {
                    if j > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{}", self.universe.name(*a))?;
                }
                write!(f, ")")?;
            }
            writeln!(f, "}}")?;
        }
        Ok(())
    }
}
