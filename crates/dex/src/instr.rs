//! The sdex instruction set.
//!
//! A register-based bytecode modelled on Dalvik: methods declare a register
//! frame, arguments arrive in the highest registers, `invoke` results are
//! fetched with `move-result`, and branches target instruction indices.

use std::fmt;

use crate::refs::{FieldId, MethodId, StrId, TypeId};

/// A virtual register within a method frame.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(pub u16);

impl Reg {
    /// Dense register index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Invocation kind, mirroring dex's `invoke-*` family.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum InvokeKind {
    /// Dispatch on the runtime class of the receiver (first argument).
    Virtual,
    /// Static method; no receiver.
    Static,
    /// Direct (constructor / private); receiver in first argument.
    Direct,
}

/// Binary integer operations.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Comparison: 1 if equal else 0.
    CmpEq,
}

/// One sdex instruction.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Instr {
    /// No operation.
    Nop,
    /// Load a string-pool constant.
    ConstString {
        /// Destination register.
        dst: Reg,
        /// String-pool entry.
        value: StrId,
    },
    /// Load an integer constant.
    ConstInt {
        /// Destination register.
        dst: Reg,
        /// The constant.
        value: i64,
    },
    /// Load null.
    ConstNull {
        /// Destination register.
        dst: Reg,
    },
    /// Register-to-register copy.
    Move {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// Allocate an object of a class.
    NewInstance {
        /// Destination register.
        dst: Reg,
        /// Class to instantiate.
        class: TypeId,
    },
    /// Invoke a method; arguments are registers (receiver first for
    /// non-static kinds).
    Invoke {
        /// Dispatch kind.
        kind: InvokeKind,
        /// Method-pool entry.
        method: MethodId,
        /// Argument registers.
        args: Vec<Reg>,
    },
    /// Fetch the result of the most recent invoke.
    MoveResult {
        /// Destination register.
        dst: Reg,
    },
    /// Read an instance field.
    IGet {
        /// Destination register.
        dst: Reg,
        /// Object register.
        object: Reg,
        /// Field-pool entry.
        field: FieldId,
    },
    /// Write an instance field.
    IPut {
        /// Source register.
        src: Reg,
        /// Object register.
        object: Reg,
        /// Field-pool entry.
        field: FieldId,
    },
    /// Read a static field.
    SGet {
        /// Destination register.
        dst: Reg,
        /// Field-pool entry.
        field: FieldId,
    },
    /// Write a static field.
    SPut {
        /// Source register.
        src: Reg,
        /// Field-pool entry.
        field: FieldId,
    },
    /// Branch if the register is zero / null.
    IfEqz {
        /// Tested register.
        reg: Reg,
        /// Target instruction index.
        target: u32,
    },
    /// Branch if the register is non-zero / non-null.
    IfNez {
        /// Tested register.
        reg: Reg,
        /// Target instruction index.
        target: u32,
    },
    /// Unconditional branch.
    Goto {
        /// Target instruction index.
        target: u32,
    },
    /// Integer binary operation.
    BinOp {
        /// The operation.
        op: BinOp,
        /// Destination register.
        dst: Reg,
        /// Left operand register.
        lhs: Reg,
        /// Right operand register.
        rhs: Reg,
    },
    /// Return without a value.
    ReturnVoid,
    /// Return a value.
    Return {
        /// Returned register.
        reg: Reg,
    },
    /// Throw the object in the register.
    Throw {
        /// Thrown register.
        reg: Reg,
    },
}

impl Instr {
    /// The branch target, if this is a branch instruction.
    pub fn branch_target(&self) -> Option<u32> {
        match self {
            Instr::IfEqz { target, .. } | Instr::IfNez { target, .. } | Instr::Goto { target } => {
                Some(*target)
            }
            _ => None,
        }
    }

    /// Returns `true` if control never falls through to the next
    /// instruction.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            Instr::Goto { .. } | Instr::ReturnVoid | Instr::Return { .. } | Instr::Throw { .. }
        )
    }

    /// The register this instruction defines, if any.
    pub fn def(&self) -> Option<Reg> {
        match self {
            Instr::ConstString { dst, .. }
            | Instr::ConstInt { dst, .. }
            | Instr::ConstNull { dst }
            | Instr::Move { dst, .. }
            | Instr::NewInstance { dst, .. }
            | Instr::MoveResult { dst }
            | Instr::IGet { dst, .. }
            | Instr::SGet { dst, .. }
            | Instr::BinOp { dst, .. } => Some(*dst),
            _ => None,
        }
    }

    /// The registers this instruction uses, in operand order.
    pub fn uses(&self) -> impl Iterator<Item = Reg> + '_ {
        let (args, fixed): (&[Reg], [Option<Reg>; 2]) = match self {
            Instr::Invoke { args, .. } => (args, [None, None]),
            Instr::Move { src, .. } | Instr::SPut { src, .. } => (&[], [Some(*src), None]),
            Instr::IGet { object, .. } => (&[], [Some(*object), None]),
            Instr::IPut { src, object, .. } => (&[], [Some(*src), Some(*object)]),
            Instr::IfEqz { reg, .. }
            | Instr::IfNez { reg, .. }
            | Instr::Return { reg }
            | Instr::Throw { reg } => (&[], [Some(*reg), None]),
            Instr::BinOp { lhs, rhs, .. } => (&[], [Some(*lhs), Some(*rhs)]),
            _ => (&[], [None, None]),
        };
        args.iter().copied().chain(fixed.into_iter().flatten())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn branch_metadata() {
        let g = Instr::Goto { target: 7 };
        assert_eq!(g.branch_target(), Some(7));
        assert!(g.is_terminator());
        let iff = Instr::IfEqz {
            reg: Reg(0),
            target: 3,
        };
        assert_eq!(iff.branch_target(), Some(3));
        assert!(!iff.is_terminator());
        assert!(Instr::ReturnVoid.is_terminator());
        assert_eq!(Instr::Nop.branch_target(), None);
    }

    #[test]
    fn def_use_sets() {
        let mv = Instr::Move {
            dst: Reg(1),
            src: Reg(2),
        };
        assert_eq!(mv.def(), Some(Reg(1)));
        assert_eq!(mv.uses().collect::<Vec<_>>(), vec![Reg(2)]);

        let iput = Instr::IPut {
            src: Reg(3),
            object: Reg(4),
            field: FieldId::from_index(0),
        };
        assert_eq!(iput.def(), None);
        assert_eq!(iput.uses().collect::<Vec<_>>(), vec![Reg(3), Reg(4)]);

        let binop = Instr::BinOp {
            op: BinOp::Add,
            dst: Reg(0),
            lhs: Reg(1),
            rhs: Reg(2),
        };
        assert_eq!(binop.def(), Some(Reg(0)));
        assert_eq!(binop.uses().collect::<Vec<_>>(), vec![Reg(1), Reg(2)]);

        let invoke = Instr::Invoke {
            kind: InvokeKind::Virtual,
            method: MethodId::from_index(0),
            args: vec![Reg(5), Reg(6)],
        };
        assert_eq!(invoke.def(), None);
        assert_eq!(invoke.uses().collect::<Vec<_>>(), vec![Reg(5), Reg(6)]);
        assert_eq!(Instr::ReturnVoid.uses().count(), 0);
    }
}
