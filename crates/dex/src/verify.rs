//! Static bytecode verification over decoded sdex programs.
//!
//! Dalvik's bytecode verifier gives Android static analyses their
//! well-formedness guarantees for free; the sdex substrate gets the same
//! guarantees from this module. [`verify_dex`] walks every class and method
//! and reports structured [`Defect`]s:
//!
//! * **register bounds** — every register a method touches fits inside its
//!   declared frame, and the declared parameters do too;
//! * **pool indices** — every string/type/field/method id referenced by
//!   class structure or code points inside its pool;
//! * **branch targets** — branches land on real instruction indices and
//!   control cannot run off the end of a method body;
//! * **`move-result` pairing** — each `move-result` directly follows an
//!   invoke of a value-returning method and cannot be jumped into;
//! * **use-before-definition** — a register read before it is assigned on
//!   some path from entry (a warning: the sdex VM null-initializes frames,
//!   and the corpus deliberately uses fresh registers as receiver
//!   placeholders);
//! * **unreachable code** — instructions no path from entry reaches;
//! * **superclass cycles** and **duplicate classes** at the class level.
//!
//! Error-severity defects mark structure the downstream analyses must never
//! see ([`DefectScope`] says whether the method body or the whole class is
//! poisoned); warnings are suspicious but analyzable. The analysis crate's
//! diagnostics layer turns defects into per-app diagnostics and quarantines
//! accordingly.

use std::collections::{BTreeSet, HashMap};

use crate::instr::Instr;
use crate::program::{Dex, Method};
use crate::refs::Pools;

/// How serious a defect is.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Severity {
    /// Informational only.
    Info,
    /// Suspicious but analyzable; analysis proceeds.
    Warning,
    /// Malformed; the defective scope is quarantined from analysis.
    Error,
}

impl Severity {
    /// Stable lowercase tag for display and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The defect classes the verifier detects.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum DefectKind {
    /// A register index is outside the declared frame.
    RegisterBounds,
    /// A register may be read before any assignment on some path.
    UseBeforeDef,
    /// A `move-result` without a directly preceding value-returning invoke.
    MoveResultPairing,
    /// A branch target outside the method body, or control running off its
    /// end.
    BranchTarget,
    /// A string/type/field/method id outside its pool.
    PoolIndex,
    /// Instructions unreachable from the method entry.
    UnreachableCode,
    /// The superclass chain never terminates.
    SuperclassCycle,
    /// Two classes share one type descriptor.
    DuplicateClass,
}

impl DefectKind {
    /// The severity this defect class always carries.
    pub fn severity(self) -> Severity {
        match self {
            DefectKind::RegisterBounds
            | DefectKind::MoveResultPairing
            | DefectKind::BranchTarget
            | DefectKind::PoolIndex
            | DefectKind::SuperclassCycle => Severity::Error,
            DefectKind::UseBeforeDef | DefectKind::UnreachableCode | DefectKind::DuplicateClass => {
                Severity::Warning
            }
        }
    }

    /// Stable kebab-case tag for display and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            DefectKind::RegisterBounds => "register-bounds",
            DefectKind::UseBeforeDef => "use-before-def",
            DefectKind::MoveResultPairing => "move-result-pairing",
            DefectKind::BranchTarget => "branch-target",
            DefectKind::PoolIndex => "pool-index",
            DefectKind::UnreachableCode => "unreachable-code",
            DefectKind::SuperclassCycle => "superclass-cycle",
            DefectKind::DuplicateClass => "duplicate-class",
        }
    }
}

/// What an Error-severity defect poisons.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum DefectScope {
    /// The whole class (its structure cannot be trusted).
    Class,
    /// One method body.
    Method,
}

/// One verification finding.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Defect {
    /// The defect class.
    pub kind: DefectKind,
    /// What the defect poisons if it is an error.
    pub scope: DefectScope,
    /// Index of the class in [`Dex::classes`].
    pub class_idx: usize,
    /// Index of the method within the class, for method-level defects.
    pub method_idx: Option<usize>,
    /// Class descriptor (or `class#N` when the type id itself is bad).
    pub class: String,
    /// Method name (or `method#N` when the name id itself is bad).
    pub method: Option<String>,
    /// Instruction index, for instruction-level defects.
    pub pc: Option<u32>,
    /// Human-readable explanation.
    pub message: String,
}

impl Defect {
    /// The severity of this defect (a function of its kind).
    pub fn severity(&self) -> Severity {
        self.kind.severity()
    }

    /// A `LClass;->method@pc` location string.
    pub fn location(&self) -> String {
        let mut loc = self.class.clone();
        if let Some(m) = &self.method {
            loc.push_str("->");
            loc.push_str(m);
        }
        if let Some(pc) = self.pc {
            loc.push('@');
            loc.push_str(&pc.to_string());
        }
        loc
    }
}

/// Verifies every class and method of a code unit.
///
/// Defects come out grouped by class, then by method, then by instruction
/// index — a deterministic order suitable for golden tests.
pub fn verify_dex(dex: &Dex) -> Vec<Defect> {
    let mut span = separ_obs::span("dex.verify");
    span.set_arg("classes", dex.classes.len().to_string());
    let pools = &dex.pools;
    let mut out = Vec::new();
    let mut seen_types: HashMap<usize, usize> = HashMap::new();
    for (ci, class) in dex.classes.iter().enumerate() {
        let class_name = display_class(pools, dex, ci);
        let mut class_broken = false;
        if class.ty.index() >= pools.num_types() {
            class_broken = true;
            out.push(class_defect(
                DefectKind::PoolIndex,
                ci,
                &class_name,
                format!(
                    "class type id {} outside type pool of {}",
                    class.ty.index(),
                    pools.num_types()
                ),
            ));
        } else if let Some(first) = seen_types.insert(class.ty.index(), ci) {
            out.push(class_defect(
                DefectKind::DuplicateClass,
                ci,
                &class_name,
                format!("duplicate definition of {class_name} (first at class #{first})"),
            ));
        }
        if let Some(sup) = class.super_ty {
            if sup.index() >= pools.num_types() {
                class_broken = true;
                out.push(class_defect(
                    DefectKind::PoolIndex,
                    ci,
                    &class_name,
                    format!(
                        "superclass type id {} outside type pool of {}",
                        sup.index(),
                        pools.num_types()
                    ),
                ));
            }
        }
        for (fi, field) in class.fields.iter().enumerate() {
            if field.name.index() >= pools.num_strings() {
                class_broken = true;
                out.push(class_defect(
                    DefectKind::PoolIndex,
                    ci,
                    &class_name,
                    format!(
                        "field #{fi} name id {} outside string pool of {}",
                        field.name.index(),
                        pools.num_strings()
                    ),
                ));
            }
        }
        for (mi, method) in class.methods.iter().enumerate() {
            if method.name.index() >= pools.num_strings() {
                // A method the class structure itself cannot name poisons
                // the class: lookups by name would index out of the pool.
                class_broken = true;
                out.push(class_defect(
                    DefectKind::PoolIndex,
                    ci,
                    &class_name,
                    format!(
                        "method #{mi} name id {} outside string pool of {}",
                        method.name.index(),
                        pools.num_strings()
                    ),
                ));
            }
            let body = verify_method_body(pools, method);
            if body.is_empty() {
                continue;
            }
            let method_name = display_method(pools, method, mi);
            for (kind, pc, message) in body {
                out.push(Defect {
                    kind,
                    scope: DefectScope::Method,
                    class_idx: ci,
                    method_idx: Some(mi),
                    class: class_name.clone(),
                    method: Some(method_name.clone()),
                    pc,
                    message,
                });
            }
        }
        if !class_broken && !superclass_chain_terminates(dex, ci) {
            out.push(class_defect(
                DefectKind::SuperclassCycle,
                ci,
                &class_name,
                format!("superclass chain of {class_name} never terminates"),
            ));
        }
    }
    span.set_arg("defects", out.len().to_string());
    out
}

fn class_defect(kind: DefectKind, ci: usize, class: &str, message: String) -> Defect {
    Defect {
        kind,
        scope: DefectScope::Class,
        class_idx: ci,
        method_idx: None,
        class: class.to_string(),
        method: None,
        pc: None,
        message,
    }
}

fn display_class(pools: &Pools, dex: &Dex, ci: usize) -> String {
    let ty = dex.classes[ci].ty;
    if ty.index() < pools.num_types() {
        pools.type_at(ty).to_string()
    } else {
        format!("class#{ci}")
    }
}

fn display_method(pools: &Pools, method: &Method, mi: usize) -> String {
    if method.name.index() < pools.num_strings() {
        pools.str_at(method.name).to_string()
    } else {
        format!("method#{mi}")
    }
}

/// Walks the superclass chain with a hop budget; a chain longer than the
/// class count must contain a cycle.
fn superclass_chain_terminates(dex: &Dex, ci: usize) -> bool {
    let mut current = dex.classes[ci].super_ty;
    let mut hops = 0usize;
    while let Some(t) = current {
        if hops > dex.classes.len() {
            return false;
        }
        hops += 1;
        current = dex.class(t).and_then(|c| c.super_ty);
    }
    true
}

/// Verifies one method body. Returns `(kind, pc, message)` triples in
/// deterministic order: structural errors first, then pairing, then
/// flow-derived warnings.
fn verify_method_body(pools: &Pools, method: &Method) -> Vec<(DefectKind, Option<u32>, String)> {
    let mut out = Vec::new();
    let code = &method.code;
    let nr = method.num_registers;
    if u16::from(method.num_params) > nr {
        out.push((
            DefectKind::RegisterBounds,
            None,
            format!(
                "{} parameters do not fit in {} registers",
                method.num_params, nr
            ),
        ));
    }
    if code.is_empty() {
        out.push((
            DefectKind::BranchTarget,
            None,
            "method body is empty; control immediately runs off the end".to_string(),
        ));
        return out;
    }
    for (pc, instr) in code.iter().enumerate() {
        let pc32 = pc as u32;
        for reg in instr.uses().chain(instr.def()) {
            if reg.0 >= nr {
                out.push((
                    DefectKind::RegisterBounds,
                    Some(pc32),
                    format!("register v{} outside frame of {nr} registers", reg.0),
                ));
            }
        }
        if let Some(target) = instr.branch_target() {
            if target as usize >= code.len() {
                out.push((
                    DefectKind::BranchTarget,
                    Some(pc32),
                    format!(
                        "branch target {target} outside method body of {} instructions",
                        code.len()
                    ),
                ));
            }
        }
        if let Some((pool, index, len)) = bad_pool_ref(pools, instr) {
            out.push((
                DefectKind::PoolIndex,
                Some(pc32),
                format!("{pool} id {index} outside {pool} pool of {len}"),
            ));
        }
    }
    if !code[code.len() - 1].is_terminator() {
        out.push((
            DefectKind::BranchTarget,
            Some((code.len() - 1) as u32),
            "control runs off the end of the method body".to_string(),
        ));
    }
    if out
        .iter()
        .any(|(kind, _, _)| kind.severity() == Severity::Error)
    {
        // Structural errors make target/pool lookups below unsafe; the
        // method is quarantined anyway.
        return out;
    }
    // Built at the first `move-result` that needs it.
    let mut branch_targets: Option<Vec<bool>> = None;
    for (pc, instr) in code.iter().enumerate() {
        if !matches!(instr, Instr::MoveResult { .. }) {
            continue;
        }
        let pc32 = pc as u32;
        if pc == 0 {
            out.push((
                DefectKind::MoveResultPairing,
                Some(pc32),
                "move-result at method entry has no preceding invoke".to_string(),
            ));
        } else if branch_targets.get_or_insert_with(|| {
            let mut targets = vec![false; code.len()];
            for t in code.iter().filter_map(Instr::branch_target) {
                targets[t as usize] = true;
            }
            targets
        })[pc]
        {
            out.push((
                DefectKind::MoveResultPairing,
                Some(pc32),
                "move-result is a branch target; a jump skips its invoke".to_string(),
            ));
        } else {
            match &code[pc - 1] {
                Instr::Invoke { method: id, .. } if pools.method_at(*id).returns_value => {}
                Instr::Invoke { method: id, .. } => {
                    out.push((
                        DefectKind::MoveResultPairing,
                        Some(pc32),
                        format!(
                            "move-result after void invoke of {}",
                            pools.method_display(*id)
                        ),
                    ));
                }
                _ => {
                    out.push((
                        DefectKind::MoveResultPairing,
                        Some(pc32),
                        "move-result does not directly follow an invoke".to_string(),
                    ));
                }
            }
        }
    }
    let reachable = reachable_pcs(code);
    let mut pc = 0;
    while pc < code.len() {
        if reachable[pc] {
            pc += 1;
            continue;
        }
        let start = pc;
        while pc < code.len() && !reachable[pc] {
            pc += 1;
        }
        out.push((
            DefectKind::UnreachableCode,
            Some(start as u32),
            format!(
                "instructions {start}..{} are unreachable from the method entry",
                pc - 1
            ),
        ));
    }
    out.extend(check_definite_assignment(method, &reachable));
    out
}

/// The pool an instruction's operand indexes, if the index is out of range.
fn bad_pool_ref(pools: &Pools, instr: &Instr) -> Option<(&'static str, usize, usize)> {
    match instr {
        Instr::ConstString { value, .. } if value.index() >= pools.num_strings() => {
            Some(("string", value.index(), pools.num_strings()))
        }
        Instr::NewInstance { class, .. } if class.index() >= pools.num_types() => {
            Some(("type", class.index(), pools.num_types()))
        }
        Instr::Invoke { method, .. } if method.index() >= pools.num_methods() => {
            Some(("method", method.index(), pools.num_methods()))
        }
        Instr::IGet { field, .. }
        | Instr::IPut { field, .. }
        | Instr::SGet { field, .. }
        | Instr::SPut { field, .. }
            if field.index() >= pools.num_fields() =>
        {
            Some(("field", field.index(), pools.num_fields()))
        }
        _ => None,
    }
}

/// Instruction indices reachable from entry (structural checks passed, so
/// every branch target is in range).
fn reachable_pcs(code: &[Instr]) -> Vec<bool> {
    let mut reachable = vec![false; code.len()];
    let mut stack = vec![0usize];
    while let Some(pc) = stack.pop() {
        if std::mem::replace(&mut reachable[pc], true) {
            continue;
        }
        if let Some(target) = code[pc].branch_target() {
            stack.push(target as usize);
        }
        if !code[pc].is_terminator() && pc + 1 < code.len() {
            stack.push(pc + 1);
        }
    }
    reachable
}

/// Forward definite-assignment dataflow: a register is *definitely
/// assigned* at a pc if every path from entry assigns it first. Parameters
/// arrive pre-assigned in the trailing registers. Reads of registers not
/// definitely assigned are reported as [`DefectKind::UseBeforeDef`]
/// warnings.
fn check_definite_assignment(
    method: &Method,
    reachable: &[bool],
) -> Vec<(DefectKind, Option<u32>, String)> {
    let code = &method.code;
    let nr = method.num_registers as usize;
    let words = nr.div_ceil(64).max(1);
    // `states[pc * words..][..words]` is the meet (intersection) over all
    // paths reaching `pc`, once `reached[pc]`; the worklist drives it
    // monotonically downward to a fixpoint. `bits` is the working copy.
    let mut states = vec![0u64; code.len() * words];
    let mut reached = vec![false; code.len()];
    let mut bits = vec![0u64; words];
    for r in (nr - method.num_params as usize)..nr {
        states[r / 64] |= 1 << (r % 64);
    }
    reached[0] = true;
    let mut worklist = vec![0usize];
    while let Some(pc) = worklist.pop() {
        bits.copy_from_slice(&states[pc * words..][..words]);
        if let Some(def) = code[pc].def() {
            bits[def.index() / 64] |= 1 << (def.index() % 64);
        }
        let mut successors = [None, None];
        if let Some(target) = code[pc].branch_target() {
            successors[0] = Some(target as usize);
        }
        if !code[pc].is_terminator() && pc + 1 < code.len() {
            successors[1] = Some(pc + 1);
        }
        for succ in successors.into_iter().flatten() {
            let existing = &mut states[succ * words..][..words];
            if std::mem::replace(&mut reached[succ], true) {
                let mut changed = false;
                for (e, b) in existing.iter_mut().zip(&bits) {
                    let met = *e & b;
                    changed |= met != *e;
                    *e = met;
                }
                if changed {
                    worklist.push(succ);
                }
            } else {
                existing.copy_from_slice(&bits);
                worklist.push(succ);
            }
        }
    }
    let mut findings: BTreeSet<(usize, u16)> = BTreeSet::new();
    for (pc, instr) in code.iter().enumerate() {
        if !reachable[pc] || !reached[pc] {
            continue;
        }
        let bits = &states[pc * words..][..words];
        for reg in instr.uses() {
            if bits[reg.index() / 64] & (1 << (reg.index() % 64)) == 0 {
                findings.insert((pc, reg.0));
            }
        }
    }
    findings
        .into_iter()
        .map(|(pc, reg)| {
            (
                DefectKind::UseBeforeDef,
                Some(pc as u32),
                format!("register v{reg} may be read before it is assigned"),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{InvokeKind, Reg};
    use crate::program::Class;
    use crate::refs::{MethodId, StrId, TypeId};

    fn named_method(dex: &mut Dex, code: Vec<Instr>, num_registers: u16) -> Method {
        Method {
            name: dex.pools.str("m"),
            num_registers,
            num_params: 0,
            is_static: true,
            returns_value: false,
            code,
        }
    }

    fn kinds(dex: &Dex) -> Vec<DefectKind> {
        verify_dex(dex).into_iter().map(|d| d.kind).collect()
    }

    #[test]
    fn clean_method_verifies_clean() {
        let mut dex = Dex::new();
        let m = named_method(
            &mut dex,
            vec![
                Instr::ConstInt {
                    dst: Reg(0),
                    value: 1,
                },
                Instr::IfEqz {
                    reg: Reg(0),
                    target: 3,
                },
                Instr::Nop,
                Instr::ReturnVoid,
            ],
            1,
        );
        let mut dex = host_with(dex, m);
        assert!(verify_dex(&dex).is_empty());
        // Params count as assigned.
        let p = Method {
            name: dex.pools.str("p"),
            num_registers: 2,
            num_params: 1,
            is_static: true,
            returns_value: false,
            code: vec![Instr::Return { reg: Reg(1) }],
        };
        dex.classes[0].methods.push(p);
        assert!(verify_dex(&dex).is_empty());
    }

    fn host_with(mut dex: Dex, method: Method) -> Dex {
        let ty = dex.pools.ty("LHost;");
        dex.classes.push(Class {
            ty,
            super_ty: None,
            fields: vec![],
            methods: vec![method],
        });
        dex
    }

    #[test]
    fn register_bounds_defects() {
        let mut dex = Dex::new();
        let m = named_method(
            &mut dex,
            vec![
                Instr::ConstInt {
                    dst: Reg(5),
                    value: 0,
                },
                Instr::ReturnVoid,
            ],
            2,
        );
        let dex = host_with(dex, m);
        assert_eq!(kinds(&dex), vec![DefectKind::RegisterBounds]);
        let d = &verify_dex(&dex)[0];
        assert_eq!(d.severity(), Severity::Error);
        assert_eq!(d.scope, DefectScope::Method);
        assert_eq!(d.location(), "LHost;->m@0");
    }

    #[test]
    fn params_must_fit_in_frame() {
        let mut dex = Dex::new();
        let mut m = named_method(&mut dex, vec![Instr::ReturnVoid], 1);
        m.num_params = 3;
        let dex = host_with(dex, m);
        assert_eq!(kinds(&dex), vec![DefectKind::RegisterBounds]);
    }

    #[test]
    fn branch_target_defects() {
        let mut dex = Dex::new();
        let m = named_method(&mut dex, vec![Instr::Goto { target: 9 }], 1);
        let dex = host_with(dex, m);
        assert_eq!(kinds(&dex), vec![DefectKind::BranchTarget]);
    }

    #[test]
    fn falling_off_the_end_is_a_branch_defect() {
        let mut dex = Dex::new();
        let m = named_method(&mut dex, vec![Instr::Nop], 1);
        let dex = host_with(dex, m);
        assert_eq!(kinds(&dex), vec![DefectKind::BranchTarget]);
        let mut dex2 = Dex::new();
        let empty = named_method(&mut dex2, vec![], 1);
        let dex2 = host_with(dex2, empty);
        assert_eq!(kinds(&dex2), vec![DefectKind::BranchTarget]);
    }

    #[test]
    fn pool_index_defects_in_code() {
        let mut dex = Dex::new();
        let m = named_method(
            &mut dex,
            vec![
                Instr::ConstString {
                    dst: Reg(0),
                    value: StrId::from_index(999),
                },
                Instr::ReturnVoid,
            ],
            1,
        );
        let dex = host_with(dex, m);
        assert_eq!(kinds(&dex), vec![DefectKind::PoolIndex]);
        let mut dex2 = Dex::new();
        let m2 = named_method(
            &mut dex2,
            vec![
                Instr::Invoke {
                    kind: InvokeKind::Static,
                    method: MethodId::from_index(7),
                    args: vec![],
                },
                Instr::ReturnVoid,
            ],
            1,
        );
        let dex2 = host_with(dex2, m2);
        assert_eq!(kinds(&dex2), vec![DefectKind::PoolIndex]);
    }

    #[test]
    fn move_result_pairing_defects() {
        let mut dex = Dex::new();
        let m = named_method(
            &mut dex,
            vec![Instr::MoveResult { dst: Reg(0) }, Instr::ReturnVoid],
            1,
        );
        let dex = host_with(dex, m);
        assert_eq!(kinds(&dex), vec![DefectKind::MoveResultPairing]);

        // move-result after a void invoke.
        let mut dex2 = Dex::new();
        let api = dex2.pools.ty("LApi;");
        let void_m = dex2.pools.method(api, "fire", 0, false);
        let m2 = named_method(
            &mut dex2,
            vec![
                Instr::Invoke {
                    kind: InvokeKind::Static,
                    method: void_m,
                    args: vec![],
                },
                Instr::MoveResult { dst: Reg(0) },
                Instr::ReturnVoid,
            ],
            1,
        );
        let dex2 = host_with(dex2, m2);
        assert_eq!(kinds(&dex2), vec![DefectKind::MoveResultPairing]);

        // A jump into a move-result skips its invoke.
        let mut dex3 = Dex::new();
        let api3 = dex3.pools.ty("LApi;");
        let val_m = dex3.pools.method(api3, "get", 0, true);
        let m3 = named_method(
            &mut dex3,
            vec![
                Instr::Goto { target: 2 },
                Instr::Invoke {
                    kind: InvokeKind::Static,
                    method: val_m,
                    args: vec![],
                },
                Instr::MoveResult { dst: Reg(0) },
                Instr::ReturnVoid,
            ],
            1,
        );
        let dex3 = host_with(dex3, m3);
        let ks = kinds(&dex3);
        assert!(ks.contains(&DefectKind::MoveResultPairing), "{ks:?}");
    }

    #[test]
    fn paired_move_result_is_clean() {
        let mut dex = Dex::new();
        let api = dex.pools.ty("LApi;");
        let val_m = dex.pools.method(api, "get", 0, true);
        let m = named_method(
            &mut dex,
            vec![
                Instr::Invoke {
                    kind: InvokeKind::Static,
                    method: val_m,
                    args: vec![],
                },
                Instr::MoveResult { dst: Reg(0) },
                Instr::ReturnVoid,
            ],
            1,
        );
        let dex = host_with(dex, m);
        assert!(verify_dex(&dex).is_empty());
    }

    #[test]
    fn unreachable_code_is_a_warning() {
        let mut dex = Dex::new();
        let m = named_method(
            &mut dex,
            vec![Instr::ReturnVoid, Instr::Nop, Instr::ReturnVoid],
            1,
        );
        let dex = host_with(dex, m);
        let defects = verify_dex(&dex);
        assert_eq!(defects.len(), 1);
        assert_eq!(defects[0].kind, DefectKind::UnreachableCode);
        assert_eq!(defects[0].severity(), Severity::Warning);
        assert_eq!(defects[0].pc, Some(1));
    }

    #[test]
    fn use_before_def_is_a_warning() {
        let mut dex = Dex::new();
        let m = named_method(
            &mut dex,
            vec![
                Instr::Move {
                    dst: Reg(0),
                    src: Reg(1),
                },
                Instr::ReturnVoid,
            ],
            2,
        );
        let dex = host_with(dex, m);
        let defects = verify_dex(&dex);
        assert_eq!(defects.len(), 1);
        assert_eq!(defects[0].kind, DefectKind::UseBeforeDef);
        assert_eq!(defects[0].severity(), Severity::Warning);
    }

    #[test]
    fn definite_assignment_needs_all_paths() {
        // v0 is assigned on only one arm of the branch.
        let mut dex = Dex::new();
        let m = Method {
            name: dex.pools.str("m"),
            num_registers: 2,
            num_params: 1,
            is_static: true,
            returns_value: true,
            code: vec![
                Instr::IfEqz {
                    reg: Reg(1),
                    target: 2,
                },
                Instr::ConstInt {
                    dst: Reg(0),
                    value: 1,
                },
                Instr::Return { reg: Reg(0) },
            ],
        };
        let dex = host_with(dex, m);
        let defects = verify_dex(&dex);
        assert_eq!(defects.len(), 1);
        assert_eq!(defects[0].kind, DefectKind::UseBeforeDef);
        assert_eq!(defects[0].pc, Some(2));
    }

    #[test]
    fn assignment_on_all_paths_is_clean() {
        let mut dex = Dex::new();
        let m = Method {
            name: dex.pools.str("m"),
            num_registers: 2,
            num_params: 1,
            is_static: true,
            returns_value: true,
            code: vec![
                Instr::IfEqz {
                    reg: Reg(1),
                    target: 3,
                },
                Instr::ConstInt {
                    dst: Reg(0),
                    value: 1,
                },
                Instr::Goto { target: 4 },
                Instr::ConstInt {
                    dst: Reg(0),
                    value: 2,
                },
                Instr::Return { reg: Reg(0) },
            ],
        };
        let dex = host_with(dex, m);
        assert!(verify_dex(&dex).is_empty());
    }

    #[test]
    fn class_level_pool_defects() {
        let mut dex = Dex::new();
        dex.pools.ty("LReal;");
        dex.classes.push(Class {
            ty: TypeId::from_index(42),
            super_ty: None,
            fields: vec![],
            methods: vec![],
        });
        let defects = verify_dex(&dex);
        assert_eq!(defects.len(), 1);
        assert_eq!(defects[0].kind, DefectKind::PoolIndex);
        assert_eq!(defects[0].scope, DefectScope::Class);
        assert_eq!(defects[0].class, "class#0");
    }

    #[test]
    fn superclass_cycles_are_detected() {
        let mut dex = Dex::new();
        let a = dex.pools.ty("LA;");
        let b = dex.pools.ty("LB;");
        for (ty, sup) in [(a, b), (b, a)] {
            dex.classes.push(Class {
                ty,
                super_ty: Some(sup),
                fields: vec![],
                methods: vec![],
            });
        }
        let defects = verify_dex(&dex);
        assert_eq!(defects.len(), 2);
        assert!(defects.iter().all(|d| d.kind == DefectKind::SuperclassCycle
            && d.severity() == Severity::Error
            && d.scope == DefectScope::Class));
    }

    #[test]
    fn duplicate_classes_are_warnings() {
        let mut dex = Dex::new();
        let ty = dex.pools.ty("LDup;");
        for _ in 0..2 {
            dex.classes.push(Class {
                ty,
                super_ty: None,
                fields: vec![],
                methods: vec![],
            });
        }
        let defects = verify_dex(&dex);
        assert_eq!(defects.len(), 1);
        assert_eq!(defects[0].kind, DefectKind::DuplicateClass);
        assert_eq!(defects[0].class_idx, 1);
    }
}
