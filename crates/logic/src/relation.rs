//! Tuples, tuple sets, and bounded relation declarations.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use crate::universe::Atom;

/// An ordered tuple of atoms.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tuple(Vec<Atom>);

impl Tuple {
    /// Creates a tuple from atoms.
    pub fn new(atoms: impl Into<Vec<Atom>>) -> Tuple {
        Tuple(atoms.into())
    }

    /// Singleton tuple.
    pub fn unary(a: Atom) -> Tuple {
        Tuple(vec![a])
    }

    /// Pair tuple.
    pub fn binary(a: Atom, b: Atom) -> Tuple {
        Tuple(vec![a, b])
    }

    /// Triple tuple.
    pub fn ternary(a: Atom, b: Atom, c: Atom) -> Tuple {
        Tuple(vec![a, b, c])
    }

    /// Number of atoms in the tuple.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// The atoms of the tuple.
    pub fn atoms(&self) -> &[Atom] {
        &self.0
    }

    /// First atom.
    ///
    /// # Panics
    ///
    /// Panics on the empty tuple, which cannot be constructed through the
    /// public API of [`TupleSet`].
    pub fn first(&self) -> Atom {
        *self.0.first().expect("non-empty tuple")
    }

    /// Last atom.
    ///
    /// # Panics
    ///
    /// Panics on the empty tuple.
    pub fn last(&self) -> Atom {
        *self.0.last().expect("non-empty tuple")
    }

    /// Concatenation of two tuples (for products).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        let mut v = self.0.clone();
        v.extend_from_slice(&other.0);
        Tuple(v)
    }

    /// The tuple reversed (for transposes).
    pub fn reversed(&self) -> Tuple {
        let mut v = self.0.clone();
        v.reverse();
        Tuple(v)
    }

    /// Joins `self` with `other` on `self.last() == other.first()`,
    /// yielding the combined tuple without the matched atom, or `None` if
    /// the join atoms differ.
    pub fn join(&self, other: &Tuple) -> Option<Tuple> {
        if self.last() != other.first() {
            return None;
        }
        let mut v = Vec::with_capacity(self.arity() + other.arity() - 2);
        v.extend_from_slice(&self.0[..self.arity() - 1]);
        v.extend_from_slice(&other.0[1..]);
        Some(Tuple(v))
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, a) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{a:?}")?;
        }
        write!(f, ")")
    }
}

/// A set of same-arity tuples.
///
/// # Examples
///
/// ```
/// use separ_logic::relation::{Tuple, TupleSet};
/// use separ_logic::universe::Universe;
///
/// let mut u = Universe::new();
/// let a = u.add("a");
/// let b = u.add("b");
/// let mut ts = TupleSet::new(2);
/// ts.insert(Tuple::binary(a, b));
/// assert!(ts.contains(&Tuple::binary(a, b)));
/// assert_eq!(ts.len(), 1);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TupleSet {
    arity: usize,
    tuples: BTreeSet<Tuple>,
}

impl TupleSet {
    /// Creates an empty tuple set of the given arity.
    ///
    /// # Panics
    ///
    /// Panics if `arity` is zero.
    pub fn new(arity: usize) -> TupleSet {
        assert!(arity > 0, "relations must have positive arity");
        TupleSet {
            arity,
            tuples: BTreeSet::new(),
        }
    }

    /// Builds a unary tuple set from atoms.
    pub fn unary_from<I: IntoIterator<Item = Atom>>(atoms: I) -> TupleSet {
        let mut ts = TupleSet::new(1);
        for a in atoms {
            ts.insert(Tuple::unary(a));
        }
        ts
    }

    /// Builds a binary tuple set from atom pairs.
    pub fn binary_from<I: IntoIterator<Item = (Atom, Atom)>>(pairs: I) -> TupleSet {
        let mut ts = TupleSet::new(2);
        for (a, b) in pairs {
            ts.insert(Tuple::binary(a, b));
        }
        ts
    }

    /// The arity of all tuples in the set.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Inserts a tuple.
    ///
    /// # Panics
    ///
    /// Panics if the tuple's arity differs from the set's.
    pub fn insert(&mut self, t: Tuple) -> bool {
        assert_eq!(t.arity(), self.arity, "arity mismatch");
        self.tuples.insert(t)
    }

    /// Membership test.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.tuples.contains(t)
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Returns `true` if the set has no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Iterates over the tuples in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> + '_ {
        self.tuples.iter()
    }

    /// Set union.
    ///
    /// # Panics
    ///
    /// Panics on arity mismatch.
    pub fn union(&self, other: &TupleSet) -> TupleSet {
        assert_eq!(self.arity, other.arity, "arity mismatch");
        TupleSet {
            arity: self.arity,
            tuples: self.tuples.union(&other.tuples).cloned().collect(),
        }
    }

    /// Returns `true` if `self` is a subset of `other`.
    pub fn is_subset(&self, other: &TupleSet) -> bool {
        self.tuples.is_subset(&other.tuples)
    }

    /// The cartesian product of two unary-or-higher tuple sets.
    pub fn product(&self, other: &TupleSet) -> TupleSet {
        let mut out = TupleSet::new(self.arity + other.arity);
        for a in &self.tuples {
            for b in &other.tuples {
                out.insert(a.concat(b));
            }
        }
        out
    }
}

impl FromIterator<Tuple> for TupleSet {
    /// Collects tuples into a set.
    ///
    /// # Panics
    ///
    /// Panics if the iterator is empty (arity would be unknown) or if
    /// arities are inconsistent. Use [`TupleSet::new`] for empty sets.
    fn from_iter<I: IntoIterator<Item = Tuple>>(iter: I) -> TupleSet {
        let mut iter = iter.into_iter();
        let first = iter.next().expect("cannot infer arity of an empty set");
        let mut ts = TupleSet::new(first.arity());
        ts.insert(first);
        ts.extend(iter);
        ts
    }
}

impl Extend<Tuple> for TupleSet {
    fn extend<I: IntoIterator<Item = Tuple>>(&mut self, iter: I) {
        for t in iter {
            self.insert(t);
        }
    }
}

/// Identifier of a relation declared in a [`Problem`].
///
/// [`Problem`]: crate::finder::Problem
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RelationId(pub(crate) u32);

impl RelationId {
    /// Dense index of the relation.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for RelationId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A relation with lower and upper tuple bounds (Kodkod-style).
///
/// Tuples in `lower` are in every instance; tuples in `upper \ lower` are
/// free — the model finder assigns each one a boolean variable.
///
/// The name and both bounds sit behind [`Arc`]s, so cloning a declaration
/// (as every [`Problem`] clone, model finder and decoded instance does)
/// shares them instead of copying tuple sets.
///
/// [`Problem`]: crate::finder::Problem
#[derive(Clone, Debug)]
pub struct RelationDecl {
    name: Arc<str>,
    lower: Arc<TupleSet>,
    upper: Arc<TupleSet>,
}

impl RelationDecl {
    /// Declares a relation.
    ///
    /// # Panics
    ///
    /// Panics if arities differ or `lower` is not contained in `upper`.
    pub fn new(name: impl Into<String>, lower: TupleSet, upper: TupleSet) -> RelationDecl {
        assert_eq!(lower.arity(), upper.arity(), "bound arity mismatch");
        assert!(lower.is_subset(&upper), "lower bound must be within upper");
        RelationDecl {
            name: name.into().into(),
            lower: Arc::new(lower),
            upper: Arc::new(upper),
        }
    }

    /// Declares a relation with exact bounds (every instance equals
    /// `tuples`); both bounds share one tuple set.
    pub fn exact(name: impl Into<String>, tuples: TupleSet) -> RelationDecl {
        let tuples = Arc::new(tuples);
        RelationDecl {
            name: name.into().into(),
            lower: Arc::clone(&tuples),
            upper: tuples,
        }
    }

    /// Declares an entirely free relation bounded above by `upper`.
    pub fn free(name: impl Into<String>, upper: TupleSet) -> RelationDecl {
        RelationDecl::new(name, TupleSet::new(upper.arity()), upper)
    }

    /// The relation's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The relation's arity.
    pub fn arity(&self) -> usize {
        self.upper.arity()
    }

    /// The lower bound.
    pub fn lower(&self) -> &TupleSet {
        &self.lower
    }

    /// The upper bound.
    pub fn upper(&self) -> &TupleSet {
        &self.upper
    }

    /// Returns a copy of this declaration whose upper bound keeps only the
    /// lower-bound tuples plus free tuples satisfying `keep` — the
    /// bound-tightening primitive relevance slicing uses to discard free
    /// rows a signature's facts can never force true. Lower-bound tuples
    /// are always retained, so the result is a valid declaration; the
    /// name and lower bound are shared with `self`.
    pub fn tightened_upper(&self, mut keep: impl FnMut(&Tuple) -> bool) -> RelationDecl {
        let mut upper = (*self.lower).clone();
        for t in self.upper.iter() {
            if !self.lower.contains(t) && keep(t) {
                upper.insert(t.clone());
            }
        }
        RelationDecl {
            name: Arc::clone(&self.name),
            lower: Arc::clone(&self.lower),
            upper: Arc::new(upper),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::Universe;

    fn atoms(n: usize) -> (Universe, Vec<Atom>) {
        let mut u = Universe::new();
        let v = (0..n).map(|i| u.add(format!("a{i}"))).collect();
        (u, v)
    }

    #[test]
    fn tuple_join_matches_on_endpoint() {
        let (_u, a) = atoms(3);
        let t1 = Tuple::binary(a[0], a[1]);
        let t2 = Tuple::binary(a[1], a[2]);
        let t3 = Tuple::binary(a[2], a[0]);
        assert_eq!(t1.join(&t2), Some(Tuple::binary(a[0], a[2])));
        assert_eq!(t1.join(&t3), None);
    }

    #[test]
    fn unary_join_produces_shorter_tuple() {
        let (_u, a) = atoms(2);
        let s = Tuple::unary(a[0]);
        let r = Tuple::binary(a[0], a[1]);
        assert_eq!(s.join(&r), Some(Tuple::unary(a[1])));
    }

    #[test]
    fn tuple_set_operations() {
        let (_u, a) = atoms(3);
        let s1 = TupleSet::unary_from([a[0], a[1]]);
        let s2 = TupleSet::unary_from([a[1], a[2]]);
        let u12 = s1.union(&s2);
        assert_eq!(u12.len(), 3);
        assert!(s1.is_subset(&u12));
        let prod = s1.product(&s2);
        assert_eq!(prod.arity(), 2);
        assert_eq!(prod.len(), 4);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_mismatch_panics() {
        let (_u, a) = atoms(2);
        let mut ts = TupleSet::new(2);
        ts.insert(Tuple::unary(a[0]));
    }

    #[test]
    #[should_panic(expected = "lower bound must be within upper")]
    fn invalid_bounds_panic() {
        let (_u, a) = atoms(2);
        let lower = TupleSet::unary_from([a[0]]);
        let upper = TupleSet::unary_from([a[1]]);
        RelationDecl::new("r", lower, upper);
    }

    #[test]
    fn exact_and_free_bounds() {
        let (_u, a) = atoms(2);
        let ts = TupleSet::unary_from([a[0], a[1]]);
        let e = RelationDecl::exact("e", ts.clone());
        assert_eq!(e.lower(), e.upper());
        let f = RelationDecl::free("f", ts);
        assert!(f.lower().is_empty());
        assert_eq!(f.upper().len(), 2);
    }
}
