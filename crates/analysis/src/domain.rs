//! Sparse abstract-value domains for the interpreter.
//!
//! The seed analyzer tracked constants and taints in `BTreeSet<String>` /
//! `BTreeSet<Resource>`, so every join allocated and every memo-key hash
//! walked heap strings. This module replaces those with interned,
//! integer-backed representations:
//!
//! * strings are the dex **string-pool ids** (`StrId` indices) — the pool
//!   is the arena, and every constant the analysis can observe is already
//!   interned there;
//! * taints are a [`ResourceSet`] — one bit per [`Resource`] variant, so
//!   joins, widening and membership are single integer ops;
//! * a value's constant and intent sets are [`CapSet`]s: sorted arrays of
//!   at most `SET_CAP` elements stored inline, so a [`Val`] is `Copy` and
//!   cloning a register frame, storing a program-point state or keying
//!   the memo table copies bytes instead of allocating. A set that grows
//!   past the cap drops its elements and becomes *overflowed*;
//!   [`Val::widen`] turns an overflowed set into "empty, value unknown",
//!   exactly what widening does to a growable set holding more than
//!   `SET_CAP` elements (the test-only `reference::Val`).
//!   Every value the interpreter stores or compares has been widened, so
//!   the overflow state is only ever seen between a growth and its widen;
//! * the uncapped sets of the engine (an abstract intent's actions, a
//!   summary's entered methods, the dynamic permission checks) are
//!   [`SmallSet`]s, sorted vectors.
//!
//! The public model types ([`crate::model`]) stay string-based; ids are
//! resolved back through the pool once per component when the engine's
//! internal state is converted to [`crate::absint::ComponentFacts`].

use separ_android::types::Resource;

/// Cap on tracked constants per register before widening to "unknown".
pub(crate) const SET_CAP: usize = 8;

/// A sorted-vector set: ordered, deduplicated, growable (the engine's
/// uncapped sets; a [`Val`]'s sets are [`CapSet`]s).
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub(crate) struct SmallSet<T>(Vec<T>);

impl<T: Ord + Copy> SmallSet<T> {
    /// Inserts a value; returns `true` if it was new.
    pub fn insert(&mut self, v: T) -> bool {
        match self.0.binary_search(&v) {
            Ok(_) => false,
            Err(i) => {
                self.0.insert(i, v);
                true
            }
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the set is empty.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Iterates in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        self.0.iter().copied()
    }

    /// Removes all elements.
    #[cfg(test)]
    pub fn clear(&mut self) {
        self.0.clear();
    }

    /// Merges `other` in; returns `true` if anything was added.
    pub fn merge(&mut self, other: &SmallSet<T>) -> bool {
        let mut changed = false;
        for v in other.iter() {
            changed |= self.insert(v);
        }
        changed
    }
}

/// A set of [`Resource`]s as a bitmask (19 variants fit in a `u32`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub(crate) struct ResourceSet(u32);

impl ResourceSet {
    fn bit(r: Resource) -> u32 {
        1u32 << (r as u32)
    }

    /// The mask of every source resource (the taint-widening fixpoint).
    pub fn all_sources() -> ResourceSet {
        let mut mask = 0;
        for &r in Resource::ALL.iter().filter(|r| r.is_source()) {
            mask |= ResourceSet::bit(r);
        }
        ResourceSet(mask)
    }

    /// Inserts a resource; returns `true` if it was new.
    pub fn insert(&mut self, r: Resource) -> bool {
        let before = self.0;
        self.0 |= ResourceSet::bit(r);
        self.0 != before
    }

    /// Membership test.
    pub fn contains(self, r: Resource) -> bool {
        self.0 & ResourceSet::bit(r) != 0
    }

    /// Number of resources in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Unions `other` in; returns `true` if anything was added.
    pub fn union(&mut self, other: ResourceSet) -> bool {
        let before = self.0;
        self.0 |= other.0;
        self.0 != before
    }

    /// Iterates members in declaration order.
    pub fn iter(self) -> impl Iterator<Item = Resource> {
        Resource::ALL
            .iter()
            .copied()
            .filter(move |&r| self.contains(r))
    }

    /// The members as an ordered standard set (boundary conversion).
    pub fn to_btree(self) -> std::collections::BTreeSet<Resource> {
        self.iter().collect()
    }
}

/// Element count marking an overflowed [`CapSet`].
const OVERFLOW: u8 = u8::MAX;

/// An inline sorted set of at most `SET_CAP` elements: ordered,
/// deduplicated and `Copy`. Inserting a new element into a full set
/// drops every element and marks the set overflowed; an overflowed set
/// absorbs further inserts and merges until [`CapSet::clear`]. Slots past
/// the count always hold `T::default()`, so the derived equality and
/// hash see exactly the elements and the overflow mark.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub(crate) struct CapSet<T> {
    items: [T; SET_CAP],
    /// Number of elements, or [`OVERFLOW`].
    len: u8,
}

impl<T: Ord + Copy + Default> CapSet<T> {
    /// The elements (none while overflowed).
    fn as_slice(&self) -> &[T] {
        if self.is_overflowed() {
            &[]
        } else {
            &self.items[..usize::from(self.len)]
        }
    }

    /// Whether the set grew past the cap since it was last cleared.
    pub fn is_overflowed(&self) -> bool {
        self.len == OVERFLOW
    }

    fn overflow(&mut self) {
        *self = CapSet {
            items: [T::default(); SET_CAP],
            len: OVERFLOW,
        };
    }

    /// Inserts a value; a new value in a full set overflows it.
    pub fn insert(&mut self, v: T) {
        if self.is_overflowed() {
            return;
        }
        let n = usize::from(self.len);
        let i = self.items[..n].partition_point(|&x| x < v);
        if i < n && self.items[i] == v {
            return;
        }
        if n == SET_CAP {
            self.overflow();
            return;
        }
        self.items.copy_within(i..n, i + 1);
        self.items[i] = v;
        self.len += 1;
    }

    /// Number of elements; an overflowed set counts as `SET_CAP + 1`,
    /// like the smallest set the cap rejects.
    pub fn len(&self) -> usize {
        if self.is_overflowed() {
            SET_CAP + 1
        } else {
            usize::from(self.len)
        }
    }

    /// Whether the set is empty (an overflowed set is not).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates the elements in ascending order (none while overflowed).
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        self.as_slice().iter().copied()
    }

    /// Removes all elements and the overflow mark.
    pub fn clear(&mut self) {
        *self = CapSet::default();
    }

    /// Unions `other` in, overflowing if the union exceeds the cap.
    pub fn merge(&mut self, other: &CapSet<T>) {
        if other.is_empty() || self == other {
            return;
        }
        if other.is_overflowed() {
            self.overflow();
            return;
        }
        for v in other.iter() {
            self.insert(v);
        }
    }
}

/// An abstract value: interned constant sets, a taint bitmask, abstract
/// intent references, plus an "other values possible" flag.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub(crate) struct Val {
    /// Possible constant strings (string-pool indices).
    pub strings: CapSet<u32>,
    /// Possible constant integers.
    pub ints: CapSet<i64>,
    /// Sensitive resources that may have flowed into this value.
    pub taints: ResourceSet,
    /// Abstract intent objects this value may reference (table indices).
    pub intents: CapSet<u32>,
    /// Whether values outside the tracked sets are possible.
    pub unknown: bool,
}

impl Val {
    /// The fully-unknown value.
    pub fn top() -> Val {
        Val {
            unknown: true,
            ..Val::default()
        }
    }

    /// A known constant string (by pool id).
    pub fn of_string(id: u32) -> Val {
        let mut v = Val::default();
        v.strings.insert(id);
        v
    }

    /// A known constant integer.
    pub fn of_int(i: i64) -> Val {
        let mut v = Val::default();
        v.ints.insert(i);
        v
    }

    /// Joins `other` into `self`; returns `true` if anything changed.
    pub fn join(&mut self, other: &Val) -> bool {
        let before = (
            self.strings.len(),
            self.ints.len(),
            self.taints.len(),
            self.intents.len(),
            self.unknown,
        );
        self.strings.merge(&other.strings);
        self.ints.merge(&other.ints);
        self.taints.union(other.taints);
        self.intents.merge(&other.intents);
        self.unknown |= other.unknown;
        self.widen();
        before
            != (
                self.strings.len(),
                self.ints.len(),
                self.taints.len(),
                self.intents.len(),
                self.unknown,
            )
    }

    /// Applies the `SET_CAP` widening.
    pub fn widen(&mut self) {
        if self.strings.is_overflowed() {
            self.strings.clear();
            self.unknown = true;
        }
        if self.ints.is_overflowed() {
            self.ints.clear();
            self.unknown = true;
        }
        if self.taints.len() > SET_CAP {
            // Taints must stay sound: widen to "tainted by every source"
            // rather than dropping them (the full set is the fixpoint).
            self.taints.union(ResourceSet::all_sources());
        }
        if self.intents.is_overflowed() {
            // Dropping intent references loses precision, not soundness:
            // `unknown` marks the value as referencing untracked objects.
            self.intents.clear();
            self.unknown = true;
        }
    }

    /// Mixes this value into an order-sensitive FNV-1a fingerprint. Used
    /// as a memo-bucket key: collisions are resolved by full comparison,
    /// so only distribution matters, not cryptographic strength.
    pub fn fingerprint(&self, h: &mut u64) {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut mix = |v: u64| *h = (*h ^ v).wrapping_mul(PRIME);
        mix(self.strings.len() as u64);
        for s in self.strings.iter() {
            mix(s as u64);
        }
        mix(self.ints.len() as u64);
        for i in self.ints.iter() {
            mix(i as u64);
        }
        mix(u64::from(self.taints.0));
        mix(self.intents.len() as u64);
        for i in self.intents.iter() {
            mix(i as u64);
        }
        mix(u64::from(self.unknown));
    }

    /// Definite truthiness, if statically known: `Some(false)` when the
    /// value is exactly the integer 0 or null-like, `Some(true)` when it
    /// cannot be zero, `None` otherwise.
    pub fn definite_nonzero(&self) -> Option<bool> {
        if self.unknown || !self.intents.is_empty() || !self.taints.is_empty() {
            return None;
        }
        if !self.strings.is_empty() {
            // Strings are non-null references.
            return if self.ints.is_empty() {
                Some(true)
            } else {
                None
            };
        }
        if self.ints.len() == 1 {
            return Some(self.ints.iter().next().expect("len 1") != 0);
        }
        if self.ints.is_empty() {
            // Default-initialized register: null.
            return Some(false);
        }
        if self.ints.iter().all(|i| i != 0) {
            return Some(true);
        }
        if self.ints.iter().all(|i| i == 0) {
            return Some(false);
        }
        None
    }
}

/// The reference for [`Val`]: the same value over growable sets, kept as
/// the executable specification the inline sets are tested against.
#[cfg(test)]
mod reference {
    use super::{ResourceSet, SmallSet, SET_CAP};

    /// [`super::Val`]'s fields and rules over growable [`SmallSet`]s: a
    /// set holds every inserted element until `widen` clears it for
    /// holding more than `SET_CAP`.
    #[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
    pub(crate) struct Val {
        /// Possible constant strings (string-pool indices).
        pub strings: SmallSet<u32>,
        /// Possible constant integers.
        pub ints: SmallSet<i64>,
        /// Sensitive resources that may have flowed into this value.
        pub taints: ResourceSet,
        /// Abstract intent objects this value may reference (table indices).
        pub intents: SmallSet<u32>,
        /// Whether values outside the tracked sets are possible.
        pub unknown: bool,
    }

    impl Val {
        /// Joins `other` into `self`; returns `true` if anything changed.
        pub fn join(&mut self, other: &Val) -> bool {
            let before = (
                self.strings.len(),
                self.ints.len(),
                self.taints.len(),
                self.intents.len(),
                self.unknown,
            );
            self.strings.merge(&other.strings);
            self.ints.merge(&other.ints);
            self.taints.union(other.taints);
            self.intents.merge(&other.intents);
            self.unknown |= other.unknown;
            self.widen();
            before
                != (
                    self.strings.len(),
                    self.ints.len(),
                    self.taints.len(),
                    self.intents.len(),
                    self.unknown,
                )
        }

        /// Applies the `SET_CAP` widening.
        pub fn widen(&mut self) {
            if self.strings.len() > SET_CAP {
                self.strings.clear();
                self.unknown = true;
            }
            if self.ints.len() > SET_CAP {
                self.ints.clear();
                self.unknown = true;
            }
            if self.taints.len() > SET_CAP {
                // Taints must stay sound: widen to "tainted by every source"
                // rather than dropping them (the full set is the fixpoint).
                self.taints.union(ResourceSet::all_sources());
            }
            if self.intents.len() > SET_CAP {
                // Dropping intent references loses precision, not soundness:
                // `unknown` marks the value as referencing untracked objects.
                self.intents.clear();
                self.unknown = true;
            }
        }

        /// Mixes this value into an order-sensitive FNV-1a fingerprint. Used
        /// as a memo-bucket key: collisions are resolved by full comparison,
        /// so only distribution matters, not cryptographic strength.
        pub fn fingerprint(&self, h: &mut u64) {
            const PRIME: u64 = 0x0000_0100_0000_01b3;
            let mut mix = |v: u64| *h = (*h ^ v).wrapping_mul(PRIME);
            mix(self.strings.0.len() as u64);
            for &s in &self.strings.0 {
                mix(s as u64);
            }
            mix(self.ints.0.len() as u64);
            for &i in &self.ints.0 {
                mix(i as u64);
            }
            mix(u64::from(self.taints.0));
            mix(self.intents.0.len() as u64);
            for &i in &self.intents.0 {
                mix(i as u64);
            }
            mix(u64::from(self.unknown));
        }

        /// Definite truthiness, if statically known: `Some(false)` when the
        /// value is exactly the integer 0 or null-like, `Some(true)` when it
        /// cannot be zero, `None` otherwise.
        pub fn definite_nonzero(&self) -> Option<bool> {
            if self.unknown || !self.intents.is_empty() || !self.taints.is_empty() {
                return None;
            }
            if !self.strings.is_empty() {
                // Strings are non-null references.
                return if self.ints.is_empty() {
                    Some(true)
                } else {
                    None
                };
            }
            if self.ints.len() == 1 {
                return Some(self.ints.iter().next().expect("len 1") != 0);
            }
            if self.ints.is_empty() {
                // Default-initialized register: null.
                return Some(false);
            }
            if self.ints.iter().all(|i| i != 0) {
                return Some(true);
            }
            if self.ints.iter().all(|i| i == 0) {
                return Some(false);
            }
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn small_set_is_sorted_and_deduplicated() {
        let mut s = SmallSet::default();
        assert!(s.insert(5u32));
        assert!(s.insert(1));
        assert!(!s.insert(5));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 5]);
        assert!(s.iter().any(|v| v == 1) && !s.iter().any(|v| v == 2));
    }

    #[test]
    fn resource_set_matches_btree_semantics() {
        let mut rs = ResourceSet::default();
        assert!(rs.insert(Resource::Location));
        assert!(!rs.insert(Resource::Location));
        assert!(rs.insert(Resource::Sms));
        assert_eq!(rs.len(), 2);
        let bt = rs.to_btree();
        assert!(bt.contains(&Resource::Location) && bt.contains(&Resource::Sms));
        let sources = ResourceSet::all_sources();
        assert_eq!(
            sources.len(),
            Resource::ALL.iter().filter(|r| r.is_source()).count()
        );
    }

    #[test]
    fn widening_caps_each_set() {
        let mut v = Val::default();
        for i in 0..=SET_CAP as i64 {
            let mut o = Val::default();
            o.ints.insert(i);
            v.join(&o);
        }
        assert!(v.ints.is_empty() && v.unknown);

        let mut v = Val::default();
        for i in 0..=SET_CAP as u32 {
            let mut o = Val::default();
            o.intents.insert(i);
            v.join(&o);
        }
        assert!(v.intents.is_empty() && v.unknown);
    }

    #[test]
    fn taint_widening_is_a_fixpoint() {
        let mut v = Val::default();
        for &r in Resource::ALL.iter().filter(|r| r.is_source()).take(SET_CAP) {
            v.taints.insert(r);
        }
        let mut extra = Val::default();
        extra.taints.insert(Resource::PhoneState);
        assert!(v.join(&extra));
        assert_eq!(v.taints, ResourceSet::all_sources());
        assert!(!v.join(&extra), "widened taints are a fixpoint");
    }

    #[test]
    fn definite_nonzero_matches_reference_rules() {
        assert_eq!(Val::default().definite_nonzero(), Some(false));
        assert_eq!(Val::of_int(0).definite_nonzero(), Some(false));
        assert_eq!(Val::of_int(3).definite_nonzero(), Some(true));
        assert_eq!(Val::of_string(0).definite_nonzero(), Some(true));
        assert_eq!(Val::top().definite_nonzero(), None);
        let mut v = Val::of_int(0);
        v.ints.insert(1);
        assert_eq!(v.definite_nonzero(), None);
    }

    #[test]
    fn cap_set_overflows_past_the_cap_until_cleared() {
        let mut s = CapSet::default();
        for v in (0..SET_CAP as u32).rev() {
            s.insert(v);
            s.insert(v);
        }
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            (0..SET_CAP as u32).collect::<Vec<_>>()
        );
        assert!(!s.is_overflowed());
        let full = s;
        s.insert(0);
        assert_eq!(s, full, "a present element does not overflow a full set");
        s.insert(99);
        assert!(s.is_overflowed() && s.len() == SET_CAP + 1 && s.iter().next().is_none());
        s.insert(1);
        assert!(s.is_overflowed());
        let mut t = CapSet::default();
        t.insert(5);
        t.merge(&s);
        assert_eq!(t, s, "merging an overflowed set overflows");
        t.clear();
        assert!(t.is_empty() && t == CapSet::default());
    }

    /// One operation applied to pool value `target` (and to its
    /// reference twin).
    #[derive(Debug, Clone)]
    enum Step {
        /// Insert `count` strings from `first` on, in either order.
        Strings {
            first: u32,
            count: u32,
            rev: bool,
        },
        /// Insert `count` integers from `first` on.
        Ints {
            first: i64,
            count: i64,
        },
        /// Insert `count` intent references from `first` on.
        Intents {
            first: u32,
            count: u32,
        },
        Taint(usize),
        Unknown,
        /// Join pool value `n` into the target.
        Join(usize),
        Widen,
    }

    const POOL: usize = 3;

    fn step() -> BoxedStrategy<Step> {
        prop_oneof![
            (0u32..12, 0u32..6, any::<bool>()).prop_map(|(first, count, rev)| Step::Strings {
                first,
                count,
                rev
            }),
            (-2i64..10, 0i64..10).prop_map(|(first, count)| Step::Ints { first, count }),
            (0u32..12, 0u32..6).prop_map(|(first, count)| Step::Intents { first, count }),
            (0usize..Resource::ALL.len()).prop_map(Step::Taint),
            Just(Step::Unknown),
            (0usize..POOL).prop_map(Step::Join),
            (0usize..POOL).prop_map(Step::Join),
            Just(Step::Widen),
        ]
        .boxed()
    }

    /// The inline value's sets as the reference sees them: `None` for an
    /// overflowed set, which must be the reference's oversized one.
    fn agree_on_set<T: Ord + Copy + Default + std::fmt::Debug>(
        new: &CapSet<T>,
        old: &SmallSet<T>,
    ) -> bool {
        if old.len() > SET_CAP {
            assert!(new.is_overflowed(), "{new:?} vs {old:?}");
            return false;
        }
        assert_eq!(
            new.iter().collect::<Vec<_>>(),
            old.iter().collect::<Vec<_>>()
        );
        assert_eq!(new.len(), old.len());
        true
    }

    /// Asserts `new` is `old` with inline sets; returns whether no set is
    /// oversized, the only state in which values are stored or compared.
    fn agree(new: &Val, old: &reference::Val) -> bool {
        let within_cap = agree_on_set(&new.strings, &old.strings)
            & agree_on_set(&new.ints, &old.ints)
            & agree_on_set(&new.intents, &old.intents);
        assert_eq!(new.taints, old.taints);
        assert_eq!(new.unknown, old.unknown);
        if within_cap {
            let (mut h_new, mut h_old) = (7u64, 7u64);
            new.fingerprint(&mut h_new);
            old.fingerprint(&mut h_old);
            assert_eq!(h_new, h_old, "fingerprints of {new:?}");
            assert_eq!(new.definite_nonzero(), old.definite_nonzero());
        }
        within_cap
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The inline value agrees with the growable reference after every
        /// insert, join and widen: same elements (or overflow exactly when
        /// the reference set is oversized), same fingerprint, same
        /// definite truthiness, same equalities, same join results.
        #[test]
        fn inline_value_matches_the_reference(
            steps in prop::collection::vec((0usize..POOL, step()), 0..48)
        ) {
            let mut new = [Val::default(); POOL];
            let mut old: [reference::Val; POOL] = Default::default();
            for (target, step) in steps {
                match step {
                    Step::Strings { first, count, rev } => {
                        let mut run: Vec<u32> = (first..first + count).collect();
                        if rev {
                            run.reverse();
                        }
                        for v in run {
                            new[target].strings.insert(v);
                            old[target].strings.insert(v);
                        }
                    }
                    Step::Ints { first, count } => {
                        for v in first..first + count {
                            new[target].ints.insert(v);
                            old[target].ints.insert(v);
                        }
                    }
                    Step::Intents { first, count } => {
                        for v in first..first + count {
                            new[target].intents.insert(v);
                            old[target].intents.insert(v);
                        }
                    }
                    Step::Taint(i) => {
                        new[target].taints.insert(Resource::ALL[i]);
                        old[target].taints.insert(Resource::ALL[i]);
                    }
                    Step::Unknown => {
                        new[target].unknown = true;
                        old[target].unknown = true;
                    }
                    Step::Join(n) => {
                        let (other_new, other_old) = (new[n], old[n].clone());
                        prop_assert_eq!(
                            new[target].join(&other_new),
                            old[target].join(&other_old)
                        );
                    }
                    Step::Widen => {
                        new[target].widen();
                        old[target].widen();
                    }
                }
                let within: Vec<bool> = (0..POOL).map(|i| agree(&new[i], &old[i])).collect();
                for a in 0..POOL {
                    for b in 0..POOL {
                        if within[a] && within[b] {
                            prop_assert_eq!(new[a] == new[b], old[a] == old[b]);
                        }
                    }
                }
            }
            for (n, o) in new.iter_mut().zip(old.iter_mut()) {
                n.widen();
                o.widen();
                prop_assert!(agree(n, o), "a widened value is within the cap");
            }
        }
    }
}
