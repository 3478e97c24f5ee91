//! Constant-pool references: strings, types, fields and methods.
//!
//! Like dex, an sdex file stores all names once in pools; code refers to
//! pool entries by dense indices. The pool also gives static analysis cheap
//! interning: two call sites invoking the same API share a `MethodId`.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Index into the string pool.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StrId(pub(crate) u32);

/// Index into the type pool.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TypeId(pub(crate) u32);

/// Index into the field pool.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FieldId(pub(crate) u32);

/// Index into the method pool.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MethodId(pub(crate) u32);

macro_rules! impl_id {
    ($ty:ident, $tag:literal) => {
        impl $ty {
            /// Dense pool index.
            pub fn index(self) -> usize {
                self.0 as usize
            }

            /// Constructs an id from a raw index (for codec use).
            pub fn from_index(i: usize) -> $ty {
                $ty(i as u32)
            }
        }

        impl fmt::Debug for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($tag, "{}"), self.0)
            }
        }
    };
}

impl_id!(StrId, "str");
impl_id!(TypeId, "type");
impl_id!(FieldId, "field");
impl_id!(MethodId, "method");

/// A method reference: declaring class, name and arity.
///
/// Arity counts explicit arguments only; instance methods additionally
/// receive the receiver in the first argument register, as in dex.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct MethodRef {
    /// Declaring class (or API class for framework methods).
    pub class: TypeId,
    /// Method name.
    pub name: StrId,
    /// Number of declared parameters (excluding any receiver).
    pub arity: u8,
    /// Whether the method produces a value `move-result` can fetch.
    pub returns_value: bool,
}

/// A field reference: declaring class and name.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct FieldRef {
    /// Declaring class.
    pub class: TypeId,
    /// Field name.
    pub name: StrId,
}

/// The constant pools of an sdex program.
///
/// Strings and type descriptors are stored once each, as `Arc<str>`
/// shared with their intern index; the interpreter hands out clones
/// ([`Pools::shared_str`], [`Pools::shared_type`]) so a string constant
/// or an object's class costs a refcount, not a copy.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Pools {
    strings: Vec<Arc<str>>,
    string_index: HashMap<Arc<str>, StrId>,
    types: Vec<Arc<str>>,
    type_index: HashMap<Arc<str>, TypeId>,
    fields: Vec<FieldRef>,
    field_index: HashMap<FieldRef, FieldId>,
    methods: Vec<MethodRef>,
    method_index: HashMap<MethodRef, MethodId>,
}

impl Pools {
    /// Creates empty pools.
    pub fn new() -> Pools {
        Pools::default()
    }

    /// Interns a string.
    pub fn str(&mut self, s: impl AsRef<str>) -> StrId {
        let s = s.as_ref();
        if let Some(&id) = self.string_index.get(s) {
            return id;
        }
        let id = StrId(self.strings.len() as u32);
        let s: Arc<str> = Arc::from(s);
        self.strings.push(Arc::clone(&s));
        self.string_index.insert(s, id);
        id
    }

    /// Interns a type descriptor (e.g. `"Lcom/example/Main;"`).
    pub fn ty(&mut self, descriptor: impl AsRef<str>) -> TypeId {
        let s = descriptor.as_ref();
        if let Some(&id) = self.type_index.get(s) {
            return id;
        }
        let id = TypeId(self.types.len() as u32);
        let s: Arc<str> = Arc::from(s);
        self.types.push(Arc::clone(&s));
        self.type_index.insert(s, id);
        id
    }

    /// Interns a field reference.
    pub fn field(&mut self, class: TypeId, name: impl AsRef<str>) -> FieldId {
        let name = self.str(name);
        let fref = FieldRef { class, name };
        if let Some(&id) = self.field_index.get(&fref) {
            return id;
        }
        let id = FieldId(self.fields.len() as u32);
        self.fields.push(fref.clone());
        self.field_index.insert(fref, id);
        id
    }

    /// Interns a method reference.
    pub fn method(
        &mut self,
        class: TypeId,
        name: impl AsRef<str>,
        arity: u8,
        returns_value: bool,
    ) -> MethodId {
        let name = self.str(name);
        let mref = MethodRef {
            class,
            name,
            arity,
            returns_value,
        };
        if let Some(&id) = self.method_index.get(&mref) {
            return id;
        }
        let id = MethodId(self.methods.len() as u32);
        self.methods.push(mref.clone());
        self.method_index.insert(mref, id);
        id
    }

    /// The text of a string-pool entry.
    pub fn str_at(&self, id: StrId) -> &str {
        &self.strings[id.index()]
    }

    /// The descriptor of a type-pool entry.
    pub fn type_at(&self, id: TypeId) -> &str {
        &self.types[id.index()]
    }

    /// A string-pool entry as the pool's own shared string.
    pub fn shared_str(&self, id: StrId) -> &Arc<str> {
        &self.strings[id.index()]
    }

    /// A type-pool entry as the pool's own shared string.
    pub fn shared_type(&self, id: TypeId) -> &Arc<str> {
        &self.types[id.index()]
    }

    /// The field reference at an id.
    pub fn field_at(&self, id: FieldId) -> &FieldRef {
        &self.fields[id.index()]
    }

    /// The method reference at an id.
    pub fn method_at(&self, id: MethodId) -> &MethodRef {
        &self.methods[id.index()]
    }

    /// Looks up a type descriptor without interning.
    pub fn find_type(&self, descriptor: &str) -> Option<TypeId> {
        self.type_index.get(descriptor).copied()
    }

    /// Number of strings.
    pub fn num_strings(&self) -> usize {
        self.strings.len()
    }

    /// Number of types.
    pub fn num_types(&self) -> usize {
        self.types.len()
    }

    /// Number of fields.
    pub fn num_fields(&self) -> usize {
        self.fields.len()
    }

    /// Number of methods.
    pub fn num_methods(&self) -> usize {
        self.methods.len()
    }

    /// Iterates over string-pool entries in index order.
    pub fn strings(&self) -> impl Iterator<Item = &str> + '_ {
        self.strings.iter().map(|s| &**s)
    }

    /// Iterates over type-pool entries in index order.
    pub fn types(&self) -> impl Iterator<Item = &str> + '_ {
        self.types.iter().map(|t| &**t)
    }

    /// Iterates over field-pool entries in index order.
    pub fn fields(&self) -> impl Iterator<Item = &FieldRef> + '_ {
        self.fields.iter()
    }

    /// Iterates over method-pool entries in index order.
    pub fn methods(&self) -> impl Iterator<Item = &MethodRef> + '_ {
        self.methods.iter()
    }

    /// Reassembles pools from decoded parts, rebuilding the intern indices.
    ///
    /// Returns `None` if entries are duplicated or reference out-of-range
    /// pool indices.
    pub(crate) fn from_parts(
        strings: Vec<String>,
        types: Vec<String>,
        fields: Vec<FieldRef>,
        methods: Vec<MethodRef>,
    ) -> Option<Pools> {
        let mut p = Pools::new();
        for s in strings {
            if p.string_index.contains_key(s.as_str()) {
                return None;
            }
            let id = StrId(p.strings.len() as u32);
            let s: Arc<str> = Arc::from(s);
            p.string_index.insert(Arc::clone(&s), id);
            p.strings.push(s);
        }
        for t in types {
            if p.type_index.contains_key(t.as_str()) {
                return None;
            }
            let id = TypeId(p.types.len() as u32);
            let t: Arc<str> = Arc::from(t);
            p.type_index.insert(Arc::clone(&t), id);
            p.types.push(t);
        }
        for f in fields {
            if f.class.index() >= p.types.len()
                || f.name.index() >= p.strings.len()
                || p.field_index.contains_key(&f)
            {
                return None;
            }
            let id = FieldId(p.fields.len() as u32);
            p.field_index.insert(f.clone(), id);
            p.fields.push(f);
        }
        for m in methods {
            if m.class.index() >= p.types.len()
                || m.name.index() >= p.strings.len()
                || p.method_index.contains_key(&m)
            {
                return None;
            }
            let id = MethodId(p.methods.len() as u32);
            p.method_index.insert(m.clone(), id);
            p.methods.push(m);
        }
        Some(p)
    }

    /// Human-readable `Class.name/arity` form of a method, for diagnostics.
    pub fn method_display(&self, id: MethodId) -> String {
        let m = self.method_at(id);
        format!(
            "{}->{}({})",
            self.type_at(m.class),
            self.str_at(m.name),
            m.arity
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_deduplicates() {
        let mut p = Pools::new();
        let a = p.str("hello");
        let b = p.str("hello");
        assert_eq!(a, b);
        assert_eq!(p.num_strings(), 1);
        let t1 = p.ty("Lcom/App;");
        let t2 = p.ty("Lcom/App;");
        assert_eq!(t1, t2);
    }

    #[test]
    fn method_identity_includes_arity() {
        let mut p = Pools::new();
        let c = p.ty("LFoo;");
        let m1 = p.method(c, "run", 0, false);
        let m2 = p.method(c, "run", 1, false);
        assert_ne!(m1, m2, "overloads by arity are distinct");
        assert_eq!(p.num_methods(), 2);
    }

    #[test]
    fn lookups_round_trip() {
        let mut p = Pools::new();
        let c = p.ty("LFoo;");
        let f = p.field(c, "count");
        let fr = p.field_at(f);
        assert_eq!(fr.class, c);
        assert_eq!(p.str_at(fr.name), "count");
        assert_eq!(p.find_type("LFoo;"), Some(c));
        assert_eq!(p.find_type("LBar;"), None);
    }

    #[test]
    fn method_display_formats() {
        let mut p = Pools::new();
        let c = p.ty("Landroid/telephony/SmsManager;");
        let m = p.method(c, "sendTextMessage", 5, false);
        assert_eq!(
            p.method_display(m),
            "Landroid/telephony/SmsManager;->sendTextMessage(5)"
        );
    }
}
