//! A small interpreter for sdex programs.
//!
//! The enforcement runtime (the paper's APE) executes components' bytecode
//! on this VM: framework calls (`Landroid/...` APIs) are routed to a
//! pluggable [`Syscalls`] implementation, which is exactly where the hook
//! manager intercepts ICC operations, while program-defined methods run
//! natively with virtual dispatch over the class hierarchy.
//!
//! Strings are shared, not copied: a string constant, a new object's
//! class and a field name are each a clone of an `Arc<str>` the
//! constant pool or the heap's bounded [`Interner`] already holds.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use crate::error::VmError;
use crate::instr::{BinOp, Instr, InvokeKind, Reg};
use crate::program::{Dex, Method};

/// A runtime value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Value {
    /// Null / absent.
    Null,
    /// A 64-bit integer.
    Int(i64),
    /// An immutable string.
    Str(Arc<str>),
    /// A heap object reference.
    Object(ObjRef),
}

impl Value {
    /// Creates a string value.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Truthiness used by `if-eqz` / `if-nez`.
    pub fn is_zero(&self) -> bool {
        match self {
            Value::Null => true,
            Value::Int(i) => *i == 0,
            Value::Str(_) | Value::Object(_) => false,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The object reference, if this is an object.
    pub fn as_object(&self) -> Option<ObjRef> {
        match self {
            Value::Object(r) => Some(*r),
            _ => None,
        }
    }
}

/// How many distinct strings an [`Interner`] shares; the heap's field
/// name table and the device's extra-key table both use it.
pub const INTERN_CAP: usize = 256;

/// A bounded string intern table: one shared `Arc<str>` per distinct
/// string, for the first [`INTERN_CAP`] distinct strings. Past the cap a
/// string comes back as a fresh, unshared `Arc` and the table does not
/// grow, so a program that makes up names without end costs an
/// allocation per name, not unbounded memory.
#[derive(Clone, Debug, Default)]
pub struct Interner {
    table: HashSet<Arc<str>>,
}

impl Interner {
    /// Creates an empty table.
    pub fn new() -> Interner {
        Interner::default()
    }

    /// The shared copy of `s`, added to the table if there is room.
    pub fn intern(&mut self, s: &str) -> Arc<str> {
        if let Some(shared) = self.table.get(s) {
            return Arc::clone(shared);
        }
        let fresh: Arc<str> = Arc::from(s);
        if self.table.len() < INTERN_CAP {
            self.table.insert(Arc::clone(&fresh));
        }
        fresh
    }

    /// Number of strings held (at most [`INTERN_CAP`]).
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Returns `true` if nothing was interned.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }
}

/// A reference into a [`Heap`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct ObjRef(u32);

impl ObjRef {
    /// The object's position in allocation order.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A heap object: a class name and named fields.
///
/// Fields are written only through [`Heap::put_field`], which keeps the
/// heap's escape floor (see [`Heap::reclaim`]) up to date. An object has
/// a handful of fields, so they live in a small vector searched in order.
#[derive(Clone, Debug)]
pub struct Object {
    /// Runtime class descriptor.
    pub class: Arc<str>,
    fields: Vec<(Arc<str>, Value)>,
}

impl Object {
    /// The value of a field, if it was ever written.
    pub fn field(&self, name: &str) -> Option<&Value> {
        self.fields
            .iter()
            .find_map(|(k, v)| (**k == *name).then_some(v))
    }

    /// Every written field, in the order first written.
    pub fn fields(&self) -> impl Iterator<Item = (&Arc<str>, &Value)> + '_ {
        self.fields.iter().map(|(k, v)| (k, v))
    }
}

/// The VM heap: objects plus static fields.
///
/// Objects live in allocation order, so an [`ObjRef`] is also an age.
/// A host that runs one bounded invocation at a time (the device runs one
/// component entry point) reclaims what the invocation allocated with
/// [`Heap::mark`] before it and [`Heap::reclaim`] after it. Whatever
/// escaped the invocation survives: every store of an object reference
/// into a static, or into a field of an *older* object, raises the
/// heap's escape floor past the stored object, and reclaim never cuts
/// below the floor.
#[derive(Clone, Debug, Default)]
pub struct Heap {
    objects: Vec<Object>,
    /// Static fields by class, then by field name, so a read borrows its
    /// key instead of building one.
    statics: HashMap<String, HashMap<String, Value>>,
    /// Objects below this index may be reachable from a static or from an
    /// older object; reclaim keeps them.
    floor: usize,
    /// Field names, shared by every object that has the field.
    names: Interner,
}

impl Heap {
    /// Creates an empty heap.
    pub fn new() -> Heap {
        Heap::default()
    }

    /// Allocates an object of the given class.
    pub fn alloc(&mut self, class: impl Into<Arc<str>>) -> ObjRef {
        let r = ObjRef(self.objects.len() as u32);
        self.objects.push(Object {
            class: class.into(),
            fields: Vec::new(),
        });
        r
    }

    /// Reads an object.
    pub fn get(&self, r: ObjRef) -> &Object {
        &self.objects[r.0 as usize]
    }

    /// Every live object, oldest first.
    pub fn objects(&self) -> impl Iterator<Item = (ObjRef, &Object)> + '_ {
        self.objects
            .iter()
            .enumerate()
            .map(|(i, o)| (ObjRef(i as u32), o))
    }

    /// Writes a field of `obj`. Storing a reference to an object younger
    /// than `obj` raises the escape floor past it. A new field's name
    /// comes from the heap's name table.
    pub fn put_field(&mut self, obj: ObjRef, name: &str, value: Value) {
        if let Value::Object(r) = value {
            if r.0 > obj.0 {
                self.escape(r);
            }
        }
        let fields = &mut self.objects[obj.0 as usize].fields;
        match fields.iter_mut().find(|(k, _)| **k == *name) {
            Some((_, slot)) => *slot = value,
            None => fields.push((self.names.intern(name), value)),
        }
    }

    /// The table new fields' names come from.
    pub fn field_names(&self) -> &Interner {
        &self.names
    }

    /// Reads a static field (Null if unset).
    pub fn static_get(&self, class: &str, field: &str) -> Value {
        self.statics
            .get(class)
            .and_then(|fields| fields.get(field))
            .cloned()
            .unwrap_or(Value::Null)
    }

    /// Writes a static field. A stored object reference raises the escape
    /// floor past the object.
    pub fn static_put(&mut self, class: &str, field: &str, value: Value) {
        if let Value::Object(r) = value {
            self.escape(r);
        }
        match self.statics.get_mut(class).and_then(|f| f.get_mut(field)) {
            Some(slot) => *slot = value,
            None => {
                self.statics
                    .entry(class.to_string())
                    .or_default()
                    .insert(field.to_string(), value);
            }
        }
    }

    /// Every static field as `(class, field, value)`, in no particular
    /// order.
    pub fn statics(&self) -> impl Iterator<Item = (&str, &str, &Value)> + '_ {
        self.statics.iter().flat_map(|(class, fields)| {
            fields
                .iter()
                .map(move |(field, v)| (class.as_str(), field.as_str(), v))
        })
    }

    fn escape(&mut self, r: ObjRef) {
        self.floor = self.floor.max(r.0 as usize + 1);
    }

    /// A mark to [`Heap::reclaim`] back to: the current object count.
    pub fn mark(&self) -> usize {
        self.objects.len()
    }

    /// Frees every object allocated since `mark` that did not escape:
    /// truncates the heap to `max(mark, floor)` objects. The kept prefix
    /// is closed under references (a reference from an object to a
    /// younger one, or from a static, lies below the floor), so no
    /// surviving [`ObjRef`] dangles; references the host still holds to
    /// freed objects must not be used.
    pub fn reclaim(&mut self, mark: usize) {
        self.objects.truncate(mark.max(self.floor));
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Returns `true` if no objects were allocated.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }
}

/// Host interface for methods the program does not define (framework APIs).
pub trait Syscalls {
    /// Handles an external invocation.
    ///
    /// `class` and `name` are descriptor strings (e.g.
    /// `"Landroid/content/Intent;"`, `"setAction"`); `args` include the
    /// receiver for instance calls. Return `Ok(Some(v))` to provide a
    /// result for `move-result`, `Ok(None)` for void.
    ///
    /// # Errors
    ///
    /// Implementations may return [`VmError::UnresolvedMethod`] for APIs
    /// they do not model.
    fn call(
        &mut self,
        heap: &mut Heap,
        class: &str,
        name: &str,
        args: &[Value],
    ) -> Result<Option<Value>, VmError>;
}

/// A [`Syscalls`] that models every unknown API as a no-op returning null.
#[derive(Debug, Default, Clone, Copy)]
pub struct NopSyscalls;

impl Syscalls for NopSyscalls {
    fn call(
        &mut self,
        _heap: &mut Heap,
        _class: &str,
        _name: &str,
        _args: &[Value],
    ) -> Result<Option<Value>, VmError> {
        Ok(Some(Value::Null))
    }
}

/// A [`Vm`]'s working memory, kept by a host that runs many invocations
/// so their buffers are allocated once (see [`Vm::with_buffers`]).
#[derive(Debug, Default)]
pub struct VmBuffers {
    /// The register stack: each active call's frame is a window on top
    /// of its caller's.
    regs: Vec<Value>,
    /// Argument buffer for framework calls (syscalls cannot re-enter the
    /// VM, so one buffer suffices).
    sys_args: Vec<Value>,
}

/// The interpreter for one loaded program.
#[derive(Debug)]
pub struct Vm<'p> {
    dex: &'p Dex,
    /// Remaining instruction budget (runaway-loop guard).
    budget: u64,
    /// Instructions executed so far.
    executed: u64,
    buffers: VmBuffers,
}

/// Default per-[`Vm`] instruction budget.
pub const DEFAULT_BUDGET: u64 = 1_000_000;

impl<'p> Vm<'p> {
    /// Creates a VM over a program with the default budget.
    pub fn new(dex: &'p Dex) -> Vm<'p> {
        Vm::with_budget(dex, DEFAULT_BUDGET)
    }

    /// Creates a VM with an explicit instruction budget.
    pub fn with_budget(dex: &'p Dex, budget: u64) -> Vm<'p> {
        Vm::with_buffers(dex, budget, VmBuffers::default())
    }

    /// [`Vm::with_budget`] over buffers an earlier VM handed back with
    /// [`Vm::into_buffers`].
    pub fn with_buffers(dex: &'p Dex, budget: u64, buffers: VmBuffers) -> Vm<'p> {
        Vm {
            dex,
            budget,
            executed: 0,
            buffers,
        }
    }

    /// Ends the VM, returning its buffers emptied for the next one.
    pub fn into_buffers(mut self) -> VmBuffers {
        self.buffers.regs.clear();
        self.buffers.sys_args.clear();
        self.buffers
    }

    /// Instructions executed so far (across all calls on this VM).
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Invokes a program method by class descriptor and name.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::UnresolvedMethod`] if the class or method is not
    /// defined, or any error raised during execution.
    pub fn invoke(
        &mut self,
        heap: &mut Heap,
        sys: &mut dyn Syscalls,
        class_descriptor: &str,
        method_name: &str,
        args: Vec<Value>,
    ) -> Result<Option<Value>, VmError> {
        let ty = self
            .dex
            .pools
            .find_type(class_descriptor)
            .ok_or_else(|| VmError::UnresolvedMethod(class_descriptor.to_string()))?;
        let (_, method) = self.dex.resolve_method(ty, method_name).ok_or_else(|| {
            VmError::UnresolvedMethod(format!("{class_descriptor}->{method_name}"))
        })?;
        self.run_method(heap, sys, method, args)
    }

    /// Runs `method`, already resolved in this VM's program, with `args`
    /// in its parameter registers (extra arguments are ignored, missing
    /// ones stay null).
    ///
    /// # Errors
    ///
    /// Any error raised during execution.
    pub fn run_method(
        &mut self,
        heap: &mut Heap,
        sys: &mut dyn Syscalls,
        method: &'p Method,
        args: impl IntoIterator<Item = Value>,
    ) -> Result<Option<Value>, VmError> {
        let (base, params) = self.push_frame(method);
        for (slot, v) in self.buffers.regs[params..].iter_mut().zip(args) {
            *slot = v;
        }
        let result = self.run(heap, sys, method, base);
        self.buffers.regs.truncate(base);
        result
    }

    /// Pushes a frame for `method` of null registers; returns where it
    /// starts and where its parameter registers start.
    fn push_frame(&mut self, method: &Method) -> (usize, usize) {
        let regs = &mut self.buffers.regs;
        let base = regs.len();
        let n = method.num_registers as usize;
        regs.resize(base + n, Value::Null);
        (base, base + n - method.num_params as usize)
    }

    /// Runs `method` in the frame starting at `base` of the register
    /// stack (see [`Vm::push_frame`]).
    fn run(
        &mut self,
        heap: &mut Heap,
        sys: &mut dyn Syscalls,
        method: &'p Method,
        base: usize,
    ) -> Result<Option<Value>, VmError> {
        // Copied out of `self` so pool entries and callee methods borrow
        // the program, not the VM.
        let dex: &'p Dex = self.dex;
        let mut pc = 0usize;
        let mut pending: Option<Value> = None;
        while pc < method.code.len() {
            if self.budget == 0 {
                return Err(VmError::BudgetExhausted);
            }
            self.budget -= 1;
            self.executed += 1;
            let instr = &method.code[pc];
            pc += 1;
            let regs = &mut self.buffers.regs;
            let reg = |r: Reg| base + r.index();
            match instr {
                Instr::Nop => {}
                Instr::ConstString { dst, value } => {
                    regs[reg(*dst)] = Value::Str(Arc::clone(dex.pools.shared_str(*value)));
                }
                Instr::ConstInt { dst, value } => {
                    regs[reg(*dst)] = Value::Int(*value);
                }
                Instr::ConstNull { dst } => {
                    regs[reg(*dst)] = Value::Null;
                }
                Instr::Move { dst, src } => {
                    regs[reg(*dst)] = regs[reg(*src)].clone();
                }
                Instr::NewInstance { dst, class } => {
                    let class = Arc::clone(dex.pools.shared_type(*class));
                    regs[reg(*dst)] = Value::Object(heap.alloc(class));
                }
                Instr::Invoke {
                    kind,
                    method: m,
                    args,
                } => {
                    let mref = dex.pools.method_at(*m);
                    let name = dex.pools.str_at(mref.name);
                    // Virtual dispatch: prefer the runtime class of the
                    // receiver when it names a program class. The type
                    // pool holds no duplicate descriptors, so the declared
                    // class's id is what looking up its descriptor finds.
                    let dispatch_ty = match kind {
                        InvokeKind::Virtual | InvokeKind::Direct => args
                            .first()
                            .and_then(|r| regs[reg(*r)].as_object())
                            .and_then(|o| dex.pools.find_type(&heap.get(o).class))
                            .or(Some(mref.class)),
                        InvokeKind::Static => Some(mref.class),
                    };
                    let target = dispatch_ty.and_then(|t| dex.resolve_method(t, name));
                    pending = match target {
                        Some((_, target)) => {
                            let (callee, params) = self.push_frame(target);
                            let regs = &mut self.buffers.regs;
                            for (i, r) in args.iter().take(target.num_params.into()).enumerate() {
                                regs[params + i] = regs[reg(*r)].clone();
                            }
                            let result = self.run(heap, sys, target, callee);
                            self.buffers.regs.truncate(callee);
                            result?
                        }
                        None => {
                            let sys_args = &mut self.buffers.sys_args;
                            sys_args.clear();
                            sys_args.extend(args.iter().map(|r| regs[reg(*r)].clone()));
                            let declared_class = dex.pools.type_at(mref.class);
                            sys.call(heap, declared_class, name, sys_args)?
                        }
                    };
                }
                Instr::MoveResult { dst } => {
                    regs[reg(*dst)] = pending.take().ok_or(VmError::NoPendingResult)?;
                }
                Instr::IGet { dst, object, field } => {
                    let obj = regs[reg(*object)]
                        .as_object()
                        .ok_or(VmError::NotAnObject("iget"))?;
                    let fname = dex.pools.str_at(dex.pools.field_at(*field).name);
                    regs[reg(*dst)] = heap.get(obj).field(fname).cloned().unwrap_or(Value::Null);
                }
                Instr::IPut { src, object, field } => {
                    let obj = regs[reg(*object)]
                        .as_object()
                        .ok_or(VmError::NotAnObject("iput"))?;
                    let fname = dex.pools.str_at(dex.pools.field_at(*field).name);
                    heap.put_field(obj, fname, regs[reg(*src)].clone());
                }
                Instr::SGet { dst, field } => {
                    let fref = dex.pools.field_at(*field);
                    let class = dex.pools.type_at(fref.class);
                    let fname = dex.pools.str_at(fref.name);
                    regs[reg(*dst)] = heap.static_get(class, fname);
                }
                Instr::SPut { src, field } => {
                    let fref = dex.pools.field_at(*field);
                    let class = dex.pools.type_at(fref.class);
                    let fname = dex.pools.str_at(fref.name);
                    heap.static_put(class, fname, regs[reg(*src)].clone());
                }
                Instr::IfEqz { reg: r, target } => {
                    if regs[reg(*r)].is_zero() {
                        pc = *target as usize;
                    }
                }
                Instr::IfNez { reg: r, target } => {
                    if !regs[reg(*r)].is_zero() {
                        pc = *target as usize;
                    }
                }
                Instr::Goto { target } => {
                    pc = *target as usize;
                }
                Instr::BinOp { op, dst, lhs, rhs } => {
                    let l = match &regs[reg(*lhs)] {
                        Value::Int(i) => *i,
                        _ => 0,
                    };
                    let r = match &regs[reg(*rhs)] {
                        Value::Int(i) => *i,
                        _ => 0,
                    };
                    regs[reg(*dst)] = Value::Int(match op {
                        BinOp::Add => l.wrapping_add(r),
                        BinOp::Sub => l.wrapping_sub(r),
                        BinOp::Mul => l.wrapping_mul(r),
                        BinOp::CmpEq => i64::from(l == r),
                    });
                }
                Instr::ReturnVoid => return Ok(None),
                Instr::Return { reg: r } => return Ok(Some(regs[reg(*r)].clone())),
                Instr::Throw { .. } => return Err(VmError::UncaughtThrow),
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::ApkBuilder;
    use crate::instr::BinOp;
    use crate::program::Apk;

    /// Syscalls that record every external call.
    #[derive(Default)]
    struct Recorder {
        calls: Vec<(String, String, usize)>,
    }

    impl Syscalls for Recorder {
        fn call(
            &mut self,
            _heap: &mut Heap,
            class: &str,
            name: &str,
            args: &[Value],
        ) -> Result<Option<Value>, VmError> {
            self.calls
                .push((class.to_string(), name.to_string(), args.len()));
            Ok(Some(Value::str("syscall-result")))
        }
    }

    #[test]
    fn arithmetic_and_branches() {
        let mut apk = ApkBuilder::new("t");
        {
            let mut class = apk.class("LMath;");
            // fn triple(x) { r = x + x; r = r + x; return r }
            let mut m = class.method("triple", 1, true, true);
            let r = m.reg();
            let x = m.param(0);
            m.binop(BinOp::Add, r, x, x);
            m.binop(BinOp::Add, r, r, x);
            m.ret(r);
            m.finish();
            class.finish();
        }
        let apk = apk.finish();
        let mut vm = Vm::new(&apk.dex);
        let mut heap = Heap::new();
        let result = vm
            .invoke(
                &mut heap,
                &mut NopSyscalls,
                "LMath;",
                "triple",
                vec![Value::Int(7)],
            )
            .expect("runs");
        assert_eq!(result, Some(Value::Int(21)));
    }

    #[test]
    fn loop_with_budget_guard() {
        let mut apk = ApkBuilder::new("t");
        {
            let mut class = apk.class("LLoop;");
            let mut m = class.method("spin", 0, true, false);
            let top = m.new_label();
            m.bind(top);
            m.goto(top);
            m.finish();
            class.finish();
        }
        let apk = apk.finish();
        let mut vm = Vm::with_budget(&apk.dex, 1000);
        let mut heap = Heap::new();
        let err = vm
            .invoke(&mut heap, &mut NopSyscalls, "LLoop;", "spin", vec![])
            .expect_err("must exhaust");
        assert_eq!(err, VmError::BudgetExhausted);
    }

    #[test]
    fn syscalls_receive_framework_calls() {
        let mut apk = ApkBuilder::new("t");
        {
            let mut class = apk.class("LApp;");
            let mut m = class.method("go", 0, true, false);
            let v0 = m.reg();
            let v1 = m.reg();
            m.new_instance(v0, "Landroid/content/Intent;");
            m.const_string(v1, "showLoc");
            m.invoke_virtual("Landroid/content/Intent;", "setAction", &[v0, v1], false);
            m.invoke_virtual("Landroid/content/Intent;", "getAction", &[v0], true);
            m.move_result(v1);
            m.ret_void();
            m.finish();
            class.finish();
        }
        let apk = apk.finish();
        let mut vm = Vm::new(&apk.dex);
        let mut heap = Heap::new();
        let mut sys = Recorder::default();
        vm.invoke(&mut heap, &mut sys, "LApp;", "go", vec![])
            .expect("runs");
        assert_eq!(sys.calls.len(), 2);
        assert_eq!(sys.calls[0].1, "setAction");
        assert_eq!(sys.calls[0].2, 2);
        assert_eq!(sys.calls[1].1, "getAction");
    }

    #[test]
    fn fields_and_statics() {
        let mut apk = ApkBuilder::new("t");
        {
            let mut class = apk.class("LBox;");
            class.field("content", false);
            // store(box, v) { box.content = v }
            let mut m = class.method("store", 2, true, false);
            m.iput(m.param(1), m.param(0), "LBox;", "content");
            m.ret_void();
            m.finish();
            // load(box) -> box.content
            let mut m = class.method("load", 1, true, true);
            let r = m.reg();
            m.iget(r, m.param(0), "LBox;", "content");
            m.ret(r);
            m.finish();
            // stash(v) { LBox;.global = v } ; unstash() -> global
            let mut m = class.method("stash", 1, true, false);
            m.sput(m.param(0), "LBox;", "global");
            m.ret_void();
            m.finish();
            let mut m = class.method("unstash", 0, true, true);
            let r = m.reg();
            m.sget(r, "LBox;", "global");
            m.ret(r);
            m.finish();
            class.finish();
        }
        let apk = apk.finish();
        let mut vm = Vm::new(&apk.dex);
        let mut heap = Heap::new();
        let obj = Value::Object(heap.alloc("LBox;"));
        vm.invoke(
            &mut heap,
            &mut NopSyscalls,
            "LBox;",
            "store",
            vec![obj.clone(), Value::Int(5)],
        )
        .expect("store");
        let loaded = vm
            .invoke(&mut heap, &mut NopSyscalls, "LBox;", "load", vec![obj])
            .expect("load");
        assert_eq!(loaded, Some(Value::Int(5)));
        vm.invoke(
            &mut heap,
            &mut NopSyscalls,
            "LBox;",
            "stash",
            vec![Value::str("x")],
        )
        .expect("stash");
        let un = vm
            .invoke(&mut heap, &mut NopSyscalls, "LBox;", "unstash", vec![])
            .expect("unstash");
        assert_eq!(un, Some(Value::str("x")));
    }

    #[test]
    fn virtual_dispatch_uses_runtime_class() {
        let mut apk = ApkBuilder::new("t");
        {
            let mut class = apk.class("LBase;");
            let mut m = class.method("tag", 1, false, true);
            let r = m.reg();
            m.const_int(r, 1);
            m.ret(r);
            m.finish();
            class.finish();
        }
        {
            let mut class = apk.class_extends("LDerived;", "LBase;");
            let mut m = class.method("tag", 1, false, true);
            let r = m.reg();
            m.const_int(r, 2);
            m.ret(r);
            m.finish();
            class.finish();
        }
        {
            // calls tag() through the Base-typed method ref on a Derived obj
            let mut class = apk.class("LMain;");
            let mut m = class.method("go", 0, true, true);
            let v = m.reg();
            m.new_instance(v, "LDerived;");
            m.invoke_virtual("LBase;", "tag", &[v], true);
            m.move_result(v);
            m.ret(v);
            m.finish();
            class.finish();
        }
        let apk = apk.finish();
        let mut vm = Vm::new(&apk.dex);
        let mut heap = Heap::new();
        let r = vm
            .invoke(&mut heap, &mut NopSyscalls, "LMain;", "go", vec![])
            .expect("runs");
        assert_eq!(r, Some(Value::Int(2)), "override must win");
    }

    /// Syscalls that record every external call with its full arguments.
    #[derive(Default)]
    struct Transcript {
        calls: Vec<(String, String, Vec<Value>)>,
    }

    impl Syscalls for Transcript {
        fn call(
            &mut self,
            _heap: &mut Heap,
            class: &str,
            name: &str,
            args: &[Value],
        ) -> Result<Option<Value>, VmError> {
            self.calls
                .push((class.to_string(), name.to_string(), args.to_vec()));
            Ok(Some(Value::str("syscall-result")))
        }
    }

    /// `LBase;` (`tag` → 1, `inherited` → 10), `LDerived; extends LBase;`
    /// (`tag` → 2), `LUtil;` (static `twice`) and `LMain;`, whose static
    /// methods each make one kind of call.
    fn dispatch_program() -> Apk {
        let mut apk = ApkBuilder::new("t");
        let returns = |class: &mut crate::build::ClassBuilder<'_>, name: &str, value: i64| {
            let mut m = class.method(name, 1, false, true);
            let r = m.reg();
            m.const_int(r, value);
            m.ret(r);
            m.finish();
        };
        {
            let mut class = apk.class("LBase;");
            returns(&mut class, "tag", 1);
            returns(&mut class, "inherited", 10);
            class.finish();
        }
        {
            let mut class = apk.class_extends("LDerived;", "LBase;");
            returns(&mut class, "tag", 2);
            class.finish();
        }
        {
            let mut class = apk.class("LUtil;");
            let mut m = class.method("twice", 1, true, true);
            let r = m.reg();
            m.binop(BinOp::Add, r, m.param(0), m.param(0));
            m.ret(r);
            m.finish();
            class.finish();
        }
        let mut class = apk.class("LMain;");
        // A call on a fresh `LDerived;` through a method ref.
        for (name, declared, callee) in [
            ("override", "LBase;", "tag"),
            ("inherited", "LDerived;", "inherited"),
            ("unresolved", "LBase;", "missing"),
        ] {
            let mut m = class.method(name, 0, true, true);
            let v = m.reg();
            m.new_instance(v, "LDerived;");
            m.invoke_virtual(declared, callee, &[v], true);
            m.move_result(v);
            m.ret(v);
            m.finish();
        }
        {
            let mut m = class.method("static", 0, true, true);
            let v = m.reg();
            m.const_int(v, 21);
            m.invoke_static("LUtil;", "twice", &[v], true);
            m.move_result(v);
            m.ret(v);
            m.finish();
        }
        {
            // `LBase;.tag` on whatever object arrives.
            let mut m = class.method("foreign", 1, true, true);
            let v = m.reg();
            m.invoke_virtual("LBase;", "tag", &[m.param(0)], true);
            m.move_result(v);
            m.ret(v);
            m.finish();
        }
        {
            let mut m = class.method("framework", 1, true, true);
            let (s, i) = (m.reg(), m.reg());
            m.const_string(s, "payload");
            m.const_int(i, 3);
            m.invoke_virtual("Landroid/util/Log;", "d", &[m.param(0), s, i], true);
            m.move_result(s);
            m.ret(s);
            m.finish();
        }
        class.finish();
        apk.finish()
    }

    fn call(apk: &Apk, name: &str, args: Vec<Value>, heap: &mut Heap) -> (Value, Transcript) {
        let mut sys = Transcript::default();
        let r = Vm::new(&apk.dex)
            .invoke(heap, &mut sys, "LMain;", name, args)
            .expect("runs")
            .expect("returns a value");
        (r, sys)
    }

    #[test]
    fn invoke_dispatches_to_program_methods() {
        let apk = dispatch_program();
        let mut heap = Heap::new();
        for (name, expected) in [("override", 2), ("inherited", 10), ("static", 42)] {
            let (r, sys) = call(&apk, name, vec![], &mut heap);
            assert_eq!(r, Value::Int(expected), "{name}");
            assert!(sys.calls.is_empty(), "{name} reached the syscalls");
        }
    }

    #[test]
    fn receivers_of_unknown_classes_dispatch_on_the_declared_class() {
        let apk = dispatch_program();
        let mut heap = Heap::new();
        let foreign = Value::Object(heap.alloc("Lext/Foreign;"));
        let (r, sys) = call(&apk, "foreign", vec![foreign], &mut heap);
        assert_eq!(r, Value::Int(1), "LBase;.tag runs");
        assert!(sys.calls.is_empty());
        let derived = Value::Object(heap.alloc("LDerived;"));
        assert_eq!(
            call(&apk, "foreign", vec![derived], &mut heap).0,
            Value::Int(2)
        );
    }

    #[test]
    fn framework_calls_reach_the_syscalls_verbatim() {
        let apk = dispatch_program();
        let mut heap = Heap::new();
        let obj = heap.alloc("Lext/Foreign;");
        let (r, sys) = call(&apk, "framework", vec![Value::Object(obj)], &mut heap);
        assert_eq!(r, Value::str("syscall-result"));
        assert_eq!(
            sys.calls,
            vec![(
                "Landroid/util/Log;".to_string(),
                "d".to_string(),
                vec![Value::Object(obj), Value::str("payload"), Value::Int(3)],
            )]
        );
        // A method no class in the hierarchy defines goes out under the
        // declared class, not the receiver's runtime class.
        let (_, sys) = call(&apk, "unresolved", vec![], &mut heap);
        assert_eq!(sys.calls.len(), 1);
        let (class, name, args) = &sys.calls[0];
        assert_eq!((class.as_str(), name.as_str()), ("LBase;", "missing"));
        assert!(
            matches!(args.as_slice(), [Value::Object(o)] if &*heap.get(*o).class == "LDerived;")
        );
    }

    #[test]
    fn reclaim_frees_what_did_not_escape() {
        let mut heap = Heap::new();
        let old = heap.alloc("LOld;");
        let mark = heap.mark();
        let kept = heap.alloc("LKept;");
        let inner = heap.alloc("LInner;");
        let freed = heap.alloc("LFreed;");
        // Younger into older raises the floor; older into younger and
        // a store into a freed object do not.
        heap.put_field(old, "f", Value::Object(kept));
        heap.put_field(kept, "g", Value::Object(inner));
        heap.put_field(freed, "h", Value::Object(old));
        heap.reclaim(mark);
        assert_eq!(heap.len(), 3);
        assert_eq!(&*heap.get(inner).class, "LInner;");

        // A static keeps its object; nothing else survives.
        let mark = heap.mark();
        let a = heap.alloc("LA;");
        heap.alloc("LB;");
        heap.static_put("LS;", "x", Value::Object(a));
        heap.reclaim(mark);
        assert_eq!(heap.len(), 4);
        assert_eq!(heap.static_get("LS;", "x"), Value::Object(a));
        let mark = heap.mark();
        heap.alloc("LC;");
        heap.reclaim(mark);
        assert_eq!(heap.len(), 4, "the floor never drops");
    }

    #[test]
    fn the_interner_shares_up_to_its_cap_then_hands_out_fresh_strings() {
        let mut names = Interner::new();
        let first = names.intern("a");
        assert!(Arc::ptr_eq(&first, &names.intern("a")), "shared");
        for i in 1..INTERN_CAP {
            names.intern(&i.to_string());
        }
        assert_eq!(names.len(), INTERN_CAP);
        let past = names.intern("past-the-cap");
        assert_eq!(&*past, "past-the-cap");
        assert!(
            !Arc::ptr_eq(&past, &names.intern("past-the-cap")),
            "not kept"
        );
        assert_eq!(names.len(), INTERN_CAP);
        assert!(Arc::ptr_eq(&first, &names.intern("a")), "still shared");
    }

    #[test]
    fn buffers_carry_over_to_the_next_vm() {
        let apk = dispatch_program();
        let mut heap = Heap::new();
        let mut buffers = VmBuffers::default();
        for (name, expected) in [("override", 2), ("static", 42), ("inherited", 10)] {
            let (_, method) = apk
                .dex
                .class_by_name("LMain;")
                .and_then(|c| apk.dex.resolve_method(c.ty, name))
                .expect("defined");
            let mut vm = Vm::with_buffers(&apk.dex, DEFAULT_BUDGET, buffers);
            let r = vm.run_method(&mut heap, &mut NopSyscalls, method, []);
            assert_eq!(r, Ok(Some(Value::Int(expected))), "{name}");
            buffers = vm.into_buffers();
            assert!(buffers.regs.is_empty() && buffers.sys_args.is_empty());
        }
    }

    #[test]
    fn unresolved_program_method_errors() {
        let apk = ApkBuilder::new("t").finish();
        let mut vm = Vm::new(&apk.dex);
        let mut heap = Heap::new();
        let err = vm
            .invoke(&mut heap, &mut NopSyscalls, "LNope;", "x", vec![])
            .expect_err("missing");
        assert!(matches!(err, VmError::UnresolvedMethod(_)));
    }
}
