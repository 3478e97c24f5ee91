//! Programs: classes, methods, fields, and the APK container.

use crate::instr::Instr;
use crate::manifest::Manifest;
use crate::refs::{Pools, StrId, TypeId};

/// A method definition with its code.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Method {
    /// Method name (string-pool entry).
    pub name: StrId,
    /// Total registers in the frame.
    pub num_registers: u16,
    /// Number of parameters; they arrive in the *last* `num_params`
    /// registers, receiver (if any) first among them.
    pub num_params: u8,
    /// Whether this is a static method (no receiver among the params).
    pub is_static: bool,
    /// Whether the method returns a value.
    pub returns_value: bool,
    /// The instruction stream.
    pub code: Vec<Instr>,
}

impl Method {
    /// The register holding parameter `i` (receiver counts as parameter 0
    /// for instance methods).
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_params`.
    pub fn param_reg(&self, i: u8) -> crate::instr::Reg {
        assert!(i < self.num_params, "parameter index out of range");
        crate::instr::Reg(self.num_registers - u16::from(self.num_params) + u16::from(i))
    }
}

/// A field definition.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FieldDef {
    /// Field name (string-pool entry).
    pub name: StrId,
    /// Whether the field is static.
    pub is_static: bool,
}

/// A class definition.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Class {
    /// This class's type-pool entry.
    pub ty: TypeId,
    /// Superclass, if any (e.g. `Landroid/app/Service;`).
    pub super_ty: Option<TypeId>,
    /// Field definitions.
    pub fields: Vec<FieldDef>,
    /// Method definitions.
    pub methods: Vec<Method>,
}

/// A dex-like code unit: pools plus class definitions.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Dex {
    /// The constant pools.
    pub pools: Pools,
    /// Defined classes.
    pub classes: Vec<Class>,
}

impl Dex {
    /// Creates an empty unit.
    pub fn new() -> Dex {
        Dex::default()
    }

    /// Finds a class by type id.
    pub fn class(&self, ty: TypeId) -> Option<&Class> {
        self.classes.iter().find(|c| c.ty == ty)
    }

    /// Finds a class by descriptor.
    pub fn class_by_name(&self, descriptor: &str) -> Option<&Class> {
        let ty = self.pools.find_type(descriptor)?;
        self.class(ty)
    }

    /// Finds a defined method by class type and name.
    pub fn method(&self, ty: TypeId, name: &str) -> Option<&Method> {
        self.class(ty)?
            .methods
            .iter()
            .find(|m| self.pools.str_at(m.name) == name)
    }

    /// Resolves a method by walking up the superclass chain from `ty`.
    ///
    /// Returns the defining class and the method.
    pub fn resolve_method(&self, ty: TypeId, name: &str) -> Option<(TypeId, &Method)> {
        let mut current = Some(ty);
        // Bound the walk: a chain longer than the class count means a
        // superclass cycle (hostile input), not a deeper hierarchy.
        let mut hops = 0;
        while let Some(t) = current {
            if hops > self.classes.len() {
                return None;
            }
            hops += 1;
            if let Some(m) = self.method(t, name) {
                return Some((t, m));
            }
            current = self.class(t).and_then(|c| c.super_ty);
        }
        None
    }

    /// Total number of instructions across all methods (a size measure).
    pub fn code_size(&self) -> usize {
        self.classes
            .iter()
            .flat_map(|c| &c.methods)
            .map(|m| m.code.len())
            .sum()
    }
}

/// An application package: manifest + code, the unit AME consumes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Apk {
    /// The manifest.
    pub manifest: Manifest,
    /// The code unit.
    pub dex: Dex,
}

impl Apk {
    /// Creates a package from parts.
    pub fn new(manifest: Manifest, dex: Dex) -> Apk {
        Apk { manifest, dex }
    }

    /// The application package name.
    pub fn package(&self) -> &str {
        &self.manifest.package
    }

    /// Approximate size in "instructions + declarations", used by the
    /// Figure-5 experiment as the app-size axis.
    pub fn size_metric(&self) -> usize {
        self.dex.code_size() + self.manifest.components.len() * 10 + self.dex.classes.len() * 5
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{Instr, Reg};

    fn sample_dex() -> Dex {
        let mut dex = Dex::new();
        let base = dex.pools.ty("LBase;");
        let derived = dex.pools.ty("LDerived;");
        let run = dex.pools.str("run");
        let only_base = dex.pools.str("onlyBase");
        dex.classes.push(Class {
            ty: base,
            super_ty: None,
            fields: vec![],
            methods: vec![
                Method {
                    name: run,
                    num_registers: 1,
                    num_params: 1,
                    is_static: false,
                    returns_value: false,
                    code: vec![Instr::ReturnVoid],
                },
                Method {
                    name: only_base,
                    num_registers: 1,
                    num_params: 1,
                    is_static: false,
                    returns_value: false,
                    code: vec![Instr::ReturnVoid],
                },
            ],
        });
        dex.classes.push(Class {
            ty: derived,
            super_ty: Some(base),
            fields: vec![],
            methods: vec![Method {
                name: run,
                num_registers: 2,
                num_params: 1,
                is_static: false,
                returns_value: false,
                code: vec![Instr::Nop, Instr::ReturnVoid],
            }],
        });
        dex
    }

    #[test]
    fn method_resolution_walks_superclasses() {
        let dex = sample_dex();
        let derived = dex.pools.find_type("LDerived;").expect("type");
        let (def_ty, m) = dex.resolve_method(derived, "run").expect("found");
        assert_eq!(def_ty, derived, "override wins");
        assert_eq!(m.code.len(), 2);
        let (def_ty2, _) = dex.resolve_method(derived, "onlyBase").expect("inherited");
        assert_eq!(dex.pools.type_at(def_ty2), "LBase;");
        assert!(dex.resolve_method(derived, "missing").is_none());
    }

    #[test]
    fn param_registers_are_trailing() {
        let m = Method {
            name: StrId::from_index(0),
            num_registers: 5,
            num_params: 2,
            is_static: true,
            returns_value: false,
            code: vec![],
        };
        assert_eq!(m.param_reg(0), Reg(3));
        assert_eq!(m.param_reg(1), Reg(4));
    }

    #[test]
    fn code_size_sums_methods() {
        let dex = sample_dex();
        assert_eq!(dex.code_size(), 4);
    }
}
