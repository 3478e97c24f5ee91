//! Soundness of heap reclaim. Generated programs allocate objects and
//! store them into older objects, younger objects, statics and chains of
//! fields. One program runs first (the state earlier invocations left),
//! then the heap is marked and a second program runs. Reclaiming a clone
//! of the heap to the mark must leave no reference from a static or a
//! surviving object past the heap's end, and must change nothing that is
//! reachable from the statics.

use std::collections::BTreeMap;

use proptest::prelude::*;

use separ_dex::build::{ApkBuilder, MethodBuilder};
use separ_dex::vm::{Heap, NopSyscalls, ObjRef, Value, Vm};

/// Object registers (null or an object, never a string); register
/// `REGS` holds the string payload.
const REGS: u16 = 4;
/// Object-valued instance and static fields.
const FIELDS: [&str; 2] = ["a", "b"];
const STATICS: [&str; 2] = ["x", "y"];
/// The string-valued instance and static field.
const STR_FIELD: &str = "s";
const OBJ: &str = "LObj;";
const STATIC_CLASS: &str = "LS;";

#[derive(Clone, Debug)]
enum Step {
    New {
        dst: u16,
    },
    Str {
        tag: u8,
    },
    /// `obj.field = src`.
    IPut {
        src: u16,
        obj: u16,
        field: usize,
    },
    /// `obj.s = <string register>`.
    IPutStr {
        obj: u16,
    },
    IGet {
        dst: u16,
        obj: u16,
        field: usize,
    },
    SPut {
        src: u16,
        field: usize,
    },
    /// `LS;.s = <string register>`.
    SPutStr,
    SGet {
        dst: u16,
        field: usize,
    },
}

fn arb_step() -> impl Strategy<Value = Step> {
    let iput = (0..REGS, 0..REGS, 0usize..2);
    prop_oneof![
        (0..REGS).prop_map(|dst| Step::New { dst }),
        (0u8..3).prop_map(|tag| Step::Str { tag }),
        // Object stores are what reclaim must get right: twice the weight.
        iput.clone()
            .prop_map(|(src, obj, field)| Step::IPut { src, obj, field }),
        iput.prop_map(|(src, obj, field)| Step::IPut { src, obj, field }),
        (0..REGS).prop_map(|obj| Step::IPutStr { obj }),
        (0..REGS, 0..REGS, 0usize..2).prop_map(|(dst, obj, field)| Step::IGet { dst, obj, field }),
        (0..REGS, 0usize..2).prop_map(|(src, field)| Step::SPut { src, field }),
        Just(Step::SPutStr),
        (0..REGS, 0usize..2).prop_map(|(dst, field)| Step::SGet { dst, field }),
    ]
}

/// A program: a prologue that puts the statics' objects in registers
/// (so the steps reach what earlier invocations left), then `steps`.
fn program(steps: Vec<Step>) -> Vec<Step> {
    let prologue = (0..FIELDS.len()).map(|field| Step::SGet {
        dst: field as u16,
        field,
    });
    prologue.chain(steps).collect()
}

fn emit(m: &mut MethodBuilder<'_, '_>, steps: &[Step]) {
    let regs: Vec<_> = (0..=REGS).map(|_| m.reg()).collect();
    for step in steps {
        match *step {
            Step::New { dst } => {
                m.new_instance(regs[dst as usize], OBJ);
            }
            Step::Str { tag } => {
                m.const_string(regs[REGS as usize], &format!("s{tag}"));
            }
            // Field accesses skip a null base.
            Step::IPut { src, obj, field } => {
                let skip = m.new_label();
                m.if_eqz(regs[obj as usize], skip);
                m.iput(regs[src as usize], regs[obj as usize], OBJ, FIELDS[field]);
                m.bind(skip);
            }
            Step::IPutStr { obj } => {
                let skip = m.new_label();
                m.if_eqz(regs[obj as usize], skip);
                m.iput(regs[REGS as usize], regs[obj as usize], OBJ, STR_FIELD);
                m.bind(skip);
            }
            Step::IGet { dst, obj, field } => {
                let skip = m.new_label();
                m.if_eqz(regs[obj as usize], skip);
                m.iget(regs[dst as usize], regs[obj as usize], OBJ, FIELDS[field]);
                m.bind(skip);
            }
            Step::SPut { src, field } => {
                m.sput(regs[src as usize], STATIC_CLASS, STATICS[field]);
            }
            Step::SPutStr => {
                m.sput(regs[REGS as usize], STATIC_CLASS, STR_FIELD);
            }
            Step::SGet { dst, field } => {
                m.sget(regs[dst as usize], STATIC_CLASS, STATICS[field]);
            }
        }
    }
    m.ret_void();
}

/// Runs `setup`, marks the heap, runs `call`: returns the heap and mark.
fn run(setup: &[Step], call: &[Step]) -> (Heap, usize) {
    let mut apk = ApkBuilder::new("t.reclaim");
    {
        let mut class = apk.class("LP;");
        for (name, steps) in [("setup", setup), ("call", call)] {
            let mut m = class.method(name, 0, true, false);
            emit(&mut m, &program(steps.to_vec()));
            m.finish();
        }
        class.finish();
    }
    let apk = apk.finish();
    let invoke = |heap: &mut Heap, name: &str| {
        Vm::new(&apk.dex)
            .invoke(heap, &mut NopSyscalls, "LP;", name, vec![])
            .expect("object registers never hold a string");
    };
    let mut heap = Heap::new();
    invoke(&mut heap, "setup");
    let mark = heap.mark();
    invoke(&mut heap, "call");
    (heap, mark)
}

fn refs<'v, I: Iterator<Item = &'v Value> + 'v>(values: I) -> impl Iterator<Item = ObjRef> + 'v {
    values.filter_map(Value::as_object)
}

/// An object's class and fields, in a comparable form.
fn contents(heap: &Heap, r: ObjRef) -> (String, BTreeMap<String, Value>) {
    let o = heap.get(r);
    let fields = o
        .fields()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect();
    (o.class.to_string(), fields)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn reclaim_keeps_everything_reachable_and_nothing_dangles(
        setup in prop::collection::vec(arb_step(), 0..24),
        call in prop::collection::vec(arb_step(), 0..24),
    ) {
        let (heap, mark) = run(&setup, &call);
        let mut reclaimed = heap.clone();
        reclaimed.reclaim(mark);
        let len = reclaimed.len();
        prop_assert!(len >= mark.min(heap.len()) && len <= heap.len());

        // No reference from a static or a surviving object dangles.
        for r in refs(reclaimed.statics().map(|(_, _, v)| v)) {
            prop_assert!(r.index() < len, "static -> {:?} past {}", r, len);
        }
        for (from, o) in reclaimed.objects() {
            for r in refs(o.fields().map(|(_, v)| v)) {
                prop_assert!(r.index() < len, "{:?} -> {:?} past {}", from, r, len);
            }
        }

        // Everything reachable from the statics reads the same.
        let statics = |h: &Heap| -> BTreeMap<(String, String), Value> {
            h.statics().map(|(c, f, v)| ((c.to_string(), f.to_string()), v.clone())).collect()
        };
        prop_assert_eq!(statics(&heap), statics(&reclaimed));
        let mut stack: Vec<ObjRef> = refs(heap.statics().map(|(_, _, v)| v)).collect();
        let mut seen = vec![false; heap.len()];
        while let Some(r) = stack.pop() {
            if std::mem::replace(&mut seen[r.index()], true) {
                continue;
            }
            prop_assert!(r.index() < len, "reachable {:?} was freed", r);
            prop_assert_eq!(contents(&heap, r), contents(&reclaimed, r));
            stack.extend(refs(heap.get(r).fields().map(|(_, v)| v)));
        }
    }
}
