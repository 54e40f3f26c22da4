//! The instruction model for the Alpha subset.

use crate::reg::Reg;
use std::fmt;

/// Memory-format operations (opcode, alignment requirement, store flag).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemOp {
    /// `lda ra, disp(rb)` — address computation, no memory access.
    Lda,
    /// `ldah ra, disp(rb)` — address computation with `disp << 16`.
    Ldah,
    /// Load byte, zero-extended. Never misaligned.
    Ldbu,
    /// Load word (2 bytes), zero-extended. Traps unless 2-aligned.
    Ldwu,
    /// Load longword (4 bytes), sign-extended. Traps unless 4-aligned.
    Ldl,
    /// Load quadword (8 bytes). Traps unless 8-aligned.
    Ldq,
    /// Load *unaligned* quadword: loads the aligned quad containing the
    /// address (low 3 address bits ignored). Never traps.
    LdqU,
    /// Store byte. Never misaligned.
    Stb,
    /// Store word. Traps unless 2-aligned.
    Stw,
    /// Store longword. Traps unless 4-aligned.
    Stl,
    /// Store quadword. Traps unless 8-aligned.
    Stq,
    /// Store *unaligned* quadword (low 3 address bits ignored). Never traps.
    StqU,
}

impl MemOp {
    /// Primary opcode.
    pub fn opcode(self) -> u8 {
        match self {
            MemOp::Lda => 0x08,
            MemOp::Ldah => 0x09,
            MemOp::Ldbu => 0x0A,
            MemOp::LdqU => 0x0B,
            MemOp::Ldwu => 0x0C,
            MemOp::Stw => 0x0D,
            MemOp::Stb => 0x0E,
            MemOp::StqU => 0x0F,
            MemOp::Ldl => 0x28,
            MemOp::Ldq => 0x29,
            MemOp::Stl => 0x2C,
            MemOp::Stq => 0x2D,
        }
    }

    /// Memory op for a primary opcode, if it is one.
    pub fn from_opcode(op: u8) -> Option<MemOp> {
        Some(match op {
            0x08 => MemOp::Lda,
            0x09 => MemOp::Ldah,
            0x0A => MemOp::Ldbu,
            0x0B => MemOp::LdqU,
            0x0C => MemOp::Ldwu,
            0x0D => MemOp::Stw,
            0x0E => MemOp::Stb,
            0x0F => MemOp::StqU,
            0x28 => MemOp::Ldl,
            0x29 => MemOp::Ldq,
            0x2C => MemOp::Stl,
            0x2D => MemOp::Stq,
            _ => return None,
        })
    }

    /// Whether this operation writes memory.
    pub fn is_store(self) -> bool {
        matches!(
            self,
            MemOp::Stb | MemOp::Stw | MemOp::Stl | MemOp::Stq | MemOp::StqU
        )
    }

    /// Whether this operation reads or writes memory at all (`lda`/`ldah`
    /// do not).
    pub fn touches_memory(self) -> bool {
        !matches!(self, MemOp::Lda | MemOp::Ldah)
    }

    /// Access size in bytes (0 for `lda`/`ldah`).
    pub fn size(self) -> u32 {
        match self {
            MemOp::Lda | MemOp::Ldah => 0,
            MemOp::Ldbu | MemOp::Stb => 1,
            MemOp::Ldwu | MemOp::Stw => 2,
            MemOp::Ldl | MemOp::Stl => 4,
            MemOp::Ldq | MemOp::Stq | MemOp::LdqU | MemOp::StqU => 8,
        }
    }

    /// Alignment the hardware enforces, in bytes (1 = any address is fine;
    /// `ldq_u`/`stq_u` silently clear the low bits instead of trapping).
    pub fn required_alignment(self) -> u32 {
        match self {
            MemOp::Ldwu | MemOp::Stw => 2,
            MemOp::Ldl | MemOp::Stl => 4,
            MemOp::Ldq | MemOp::Stq => 8,
            _ => 1,
        }
    }

    /// Mnemonic, e.g. `"ldq_u"`.
    pub fn mnemonic(self) -> &'static str {
        match self {
            MemOp::Lda => "lda",
            MemOp::Ldah => "ldah",
            MemOp::Ldbu => "ldbu",
            MemOp::Ldwu => "ldwu",
            MemOp::Ldl => "ldl",
            MemOp::Ldq => "ldq",
            MemOp::LdqU => "ldq_u",
            MemOp::Stb => "stb",
            MemOp::Stw => "stw",
            MemOp::Stl => "stl",
            MemOp::Stq => "stq",
            MemOp::StqU => "stq_u",
        }
    }
}

/// Branch-format operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BrOp {
    /// Unconditional branch, links `pc+4` into `ra`.
    Br,
    /// Branch to subroutine (identical semantics to `br`, different
    /// branch-prediction hint on hardware).
    Bsr,
    /// Branch if `ra == 0`.
    Beq,
    /// Branch if `ra != 0`.
    Bne,
    /// Branch if `ra < 0` (signed).
    Blt,
    /// Branch if `ra <= 0` (signed).
    Ble,
    /// Branch if `ra > 0` (signed).
    Bgt,
    /// Branch if `ra >= 0` (signed).
    Bge,
    /// Branch if low bit of `ra` is clear.
    Blbc,
    /// Branch if low bit of `ra` is set.
    Blbs,
}

impl BrOp {
    /// Primary opcode.
    pub fn opcode(self) -> u8 {
        match self {
            BrOp::Br => 0x30,
            BrOp::Bsr => 0x34,
            BrOp::Blbc => 0x38,
            BrOp::Beq => 0x39,
            BrOp::Blt => 0x3A,
            BrOp::Ble => 0x3B,
            BrOp::Blbs => 0x3C,
            BrOp::Bne => 0x3D,
            BrOp::Bge => 0x3E,
            BrOp::Bgt => 0x3F,
        }
    }

    /// Branch op for a primary opcode, if it is one.
    pub fn from_opcode(op: u8) -> Option<BrOp> {
        Some(match op {
            0x30 => BrOp::Br,
            0x34 => BrOp::Bsr,
            0x38 => BrOp::Blbc,
            0x39 => BrOp::Beq,
            0x3A => BrOp::Blt,
            0x3B => BrOp::Ble,
            0x3C => BrOp::Blbs,
            0x3D => BrOp::Bne,
            0x3E => BrOp::Bge,
            0x3F => BrOp::Bgt,
            _ => return None,
        })
    }

    /// Whether the branch is unconditional (and writes the link register).
    pub fn is_unconditional(self) -> bool {
        matches!(self, BrOp::Br | BrOp::Bsr)
    }

    /// Evaluates the branch condition against the `ra` value.
    /// Unconditional branches always return `true`.
    pub fn taken(self, ra: u64) -> bool {
        match self {
            BrOp::Br | BrOp::Bsr => true,
            BrOp::Beq => ra == 0,
            BrOp::Bne => ra != 0,
            BrOp::Blt => (ra as i64) < 0,
            BrOp::Ble => (ra as i64) <= 0,
            BrOp::Bgt => (ra as i64) > 0,
            BrOp::Bge => (ra as i64) >= 0,
            BrOp::Blbc => ra & 1 == 0,
            BrOp::Blbs => ra & 1 == 1,
        }
    }

    /// Mnemonic, e.g. `"bne"`.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BrOp::Br => "br",
            BrOp::Bsr => "bsr",
            BrOp::Beq => "beq",
            BrOp::Bne => "bne",
            BrOp::Blt => "blt",
            BrOp::Ble => "ble",
            BrOp::Bgt => "bgt",
            BrOp::Bge => "bge",
            BrOp::Blbc => "blbc",
            BrOp::Blbs => "blbs",
        }
    }
}

/// Operate-format functions. The discriminant packs `(opcode << 8) | func`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
#[allow(missing_docs)] // the variants are the Alpha mnemonics themselves
pub enum OpFn {
    // Opcode 0x10: integer arithmetic.
    Addl = 0x1000,
    S4addl = 0x1002,
    Subl = 0x1009,
    S4subl = 0x100B,
    Cmpult = 0x101D,
    Addq = 0x1020,
    S4addq = 0x1022,
    Subq = 0x1029,
    Cmpeq = 0x102D,
    S8addq = 0x1032,
    Cmpule = 0x103D,
    Cmplt = 0x104D,
    Cmple = 0x106D,
    // Opcode 0x11: logical and conditional move.
    And = 0x1100,
    Bic = 0x1108,
    Cmovlbs = 0x1114,
    Cmovlbc = 0x1116,
    Bis = 0x1120,
    Cmoveq = 0x1124,
    Cmovne = 0x1126,
    Ornot = 0x1128,
    Xor = 0x1140,
    Cmovlt = 0x1144,
    Cmovge = 0x1146,
    Eqv = 0x1148,
    Cmovle = 0x1164,
    Cmovgt = 0x1166,
    // Opcode 0x12: shifts and byte manipulation.
    Mskbl = 0x1202,
    Extbl = 0x1206,
    Insbl = 0x120B,
    Mskwl = 0x1212,
    Extwl = 0x1216,
    Inswl = 0x121B,
    Mskll = 0x1222,
    Extll = 0x1226,
    Insll = 0x122B,
    Zap = 0x1230,
    Zapnot = 0x1231,
    Mskql = 0x1232,
    Srl = 0x1234,
    Extql = 0x1236,
    Sll = 0x1239,
    Insql = 0x123B,
    Sra = 0x123C,
    Mskwh = 0x1252,
    Inswh = 0x1257,
    Extwh = 0x125A,
    Msklh = 0x1262,
    Inslh = 0x1267,
    Extlh = 0x126A,
    Mskqh = 0x1272,
    Insqh = 0x1277,
    Extqh = 0x127A,
    // Opcode 0x13: multiply.
    Mull = 0x1300,
    Mulq = 0x1320,
}

impl OpFn {
    /// All operate functions.
    pub const ALL: [OpFn; 55] = [
        OpFn::Addl,
        OpFn::S4addl,
        OpFn::Subl,
        OpFn::S4subl,
        OpFn::Cmpult,
        OpFn::Addq,
        OpFn::S4addq,
        OpFn::Subq,
        OpFn::Cmpeq,
        OpFn::S8addq,
        OpFn::Cmpule,
        OpFn::Cmplt,
        OpFn::Cmple,
        OpFn::And,
        OpFn::Bic,
        OpFn::Cmovlbs,
        OpFn::Cmovlbc,
        OpFn::Bis,
        OpFn::Cmoveq,
        OpFn::Cmovne,
        OpFn::Ornot,
        OpFn::Xor,
        OpFn::Cmovlt,
        OpFn::Cmovge,
        OpFn::Eqv,
        OpFn::Cmovle,
        OpFn::Cmovgt,
        OpFn::Mskbl,
        OpFn::Extbl,
        OpFn::Insbl,
        OpFn::Mskwl,
        OpFn::Extwl,
        OpFn::Inswl,
        OpFn::Mskll,
        OpFn::Extll,
        OpFn::Insll,
        OpFn::Zap,
        OpFn::Zapnot,
        OpFn::Mskql,
        OpFn::Srl,
        OpFn::Extql,
        OpFn::Sll,
        OpFn::Insql,
        OpFn::Sra,
        OpFn::Mskwh,
        OpFn::Inswh,
        OpFn::Extwh,
        OpFn::Msklh,
        OpFn::Inslh,
        OpFn::Extlh,
        OpFn::Mskqh,
        OpFn::Insqh,
        OpFn::Extqh,
        OpFn::Mull,
        OpFn::Mulq,
    ];

    /// Primary opcode (0x10..=0x13).
    #[inline]
    pub fn opcode(self) -> u8 {
        ((self as u16) >> 8) as u8
    }

    /// 7-bit function code within the opcode.
    #[inline]
    pub fn func(self) -> u8 {
        (self as u16) as u8
    }

    /// Operate function for `(opcode, func)`, if it is in the subset.
    pub fn from_parts(opcode: u8, func: u8) -> Option<OpFn> {
        let key = (u16::from(opcode) << 8) | u16::from(func);
        OpFn::ALL.iter().copied().find(|f| *f as u16 == key)
    }

    /// Whether this is a conditional move (write of `rc` depends on `ra`).
    pub fn is_cmov(self) -> bool {
        matches!(
            self,
            OpFn::Cmoveq
                | OpFn::Cmovne
                | OpFn::Cmovlt
                | OpFn::Cmovge
                | OpFn::Cmovle
                | OpFn::Cmovgt
                | OpFn::Cmovlbs
                | OpFn::Cmovlbc
        )
    }

    /// For conditional moves: whether the move happens given the `ra` value.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not a conditional move.
    #[inline]
    pub fn cmov_taken(self, ra: u64) -> bool {
        match self {
            OpFn::Cmoveq => ra == 0,
            OpFn::Cmovne => ra != 0,
            OpFn::Cmovlt => (ra as i64) < 0,
            OpFn::Cmovge => (ra as i64) >= 0,
            OpFn::Cmovle => (ra as i64) <= 0,
            OpFn::Cmovgt => (ra as i64) > 0,
            OpFn::Cmovlbs => ra & 1 == 1,
            OpFn::Cmovlbc => ra & 1 == 0,
            other => panic!("{other:?} is not a conditional move"),
        }
    }

    /// Mnemonic, e.g. `"extlh"`.
    pub fn mnemonic(self) -> &'static str {
        match self {
            OpFn::Addl => "addl",
            OpFn::S4addl => "s4addl",
            OpFn::Subl => "subl",
            OpFn::S4subl => "s4subl",
            OpFn::Cmpult => "cmpult",
            OpFn::Addq => "addq",
            OpFn::S4addq => "s4addq",
            OpFn::Subq => "subq",
            OpFn::Cmpeq => "cmpeq",
            OpFn::S8addq => "s8addq",
            OpFn::Cmpule => "cmpule",
            OpFn::Cmplt => "cmplt",
            OpFn::Cmple => "cmple",
            OpFn::And => "and",
            OpFn::Bic => "bic",
            OpFn::Cmovlbs => "cmovlbs",
            OpFn::Cmovlbc => "cmovlbc",
            OpFn::Bis => "bis",
            OpFn::Cmoveq => "cmoveq",
            OpFn::Cmovne => "cmovne",
            OpFn::Ornot => "ornot",
            OpFn::Xor => "xor",
            OpFn::Cmovlt => "cmovlt",
            OpFn::Cmovge => "cmovge",
            OpFn::Eqv => "eqv",
            OpFn::Cmovle => "cmovle",
            OpFn::Cmovgt => "cmovgt",
            OpFn::Mskbl => "mskbl",
            OpFn::Extbl => "extbl",
            OpFn::Insbl => "insbl",
            OpFn::Mskwl => "mskwl",
            OpFn::Extwl => "extwl",
            OpFn::Inswl => "inswl",
            OpFn::Mskll => "mskll",
            OpFn::Extll => "extll",
            OpFn::Insll => "insll",
            OpFn::Zap => "zap",
            OpFn::Zapnot => "zapnot",
            OpFn::Mskql => "mskql",
            OpFn::Srl => "srl",
            OpFn::Extql => "extql",
            OpFn::Sll => "sll",
            OpFn::Insql => "insql",
            OpFn::Sra => "sra",
            OpFn::Mskwh => "mskwh",
            OpFn::Inswh => "inswh",
            OpFn::Extwh => "extwh",
            OpFn::Msklh => "msklh",
            OpFn::Inslh => "inslh",
            OpFn::Extlh => "extlh",
            OpFn::Mskqh => "mskqh",
            OpFn::Insqh => "insqh",
            OpFn::Extqh => "extqh",
            OpFn::Mull => "mull",
            OpFn::Mulq => "mulq",
        }
    }
}

/// The `rb` operand of an operate instruction: a register or an 8-bit
/// literal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rb {
    /// Register operand.
    Reg(Reg),
    /// Zero-extended 8-bit literal operand.
    Lit(u8),
}

impl fmt::Display for Rb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rb::Reg(r) => write!(f, "{r}"),
            Rb::Lit(l) => write!(f, "#{l}"),
        }
    }
}

/// Jump-format (opcode 0x1A) kinds, encoded in displacement bits 15:14.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum JumpKind {
    /// `jmp ra, (rb)`
    Jmp = 0,
    /// `jsr ra, (rb)`
    Jsr = 1,
    /// `ret ra, (rb)`
    Ret = 2,
}

impl JumpKind {
    /// Kind for hint bits.
    pub fn from_bits(bits: u8) -> Option<JumpKind> {
        Some(match bits {
            0 => JumpKind::Jmp,
            1 => JumpKind::Jsr,
            2 => JumpKind::Ret,
            _ => return None,
        })
    }

    /// Mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            JumpKind::Jmp => "jmp",
            JumpKind::Jsr => "jsr",
            JumpKind::Ret => "ret",
        }
    }
}

/// One instruction of the Alpha subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Insn {
    /// Memory format: `op ra, disp(rb)`.
    Mem {
        /// Operation.
        op: MemOp,
        /// Data (or destination-address) register.
        ra: Reg,
        /// Base register.
        rb: Reg,
        /// 16-bit signed byte displacement.
        disp: i16,
    },
    /// Branch format: `op ra, disp` where `disp` counts *instructions*
    /// relative to the updated PC (signed 21-bit).
    Br {
        /// Operation.
        op: BrOp,
        /// Condition / link register.
        ra: Reg,
        /// Signed instruction-count displacement.
        disp: i32,
    },
    /// Jump format: `kind ra, (rb)`. The target is `rb & !3`; `pc+4` is
    /// written to `ra`.
    Jmp {
        /// Jump kind (prediction hint on real hardware).
        kind: JumpKind,
        /// Link register.
        ra: Reg,
        /// Target-address register.
        rb: Reg,
    },
    /// Operate format: `op ra, rb_or_lit, rc`.
    Op {
        /// Function.
        op: OpFn,
        /// Left operand register.
        ra: Reg,
        /// Right operand: register or literal.
        rb: Rb,
        /// Destination register.
        rc: Reg,
    },
    /// `call_pal func` — PALcode call; the DBT uses [`crate::PAL_HALT`] and
    /// [`crate::PAL_EXIT_MONITOR`].
    CallPal {
        /// 26-bit PAL function code.
        func: u32,
    },
}

impl Insn {
    /// Shorthand for `bis zero, zero, zero`, the canonical Alpha no-op.
    pub const NOP: Insn = Insn::Op {
        op: OpFn::Bis,
        ra: Reg::R31,
        rb: Rb::Reg(Reg::R31),
        rc: Reg::R31,
    };

    /// Whether this instruction can raise a misalignment trap.
    pub fn can_trap_unaligned(&self) -> bool {
        matches!(self, Insn::Mem { op, .. } if op.required_alignment() > 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memop_opcode_roundtrip() {
        for op in [
            MemOp::Lda,
            MemOp::Ldah,
            MemOp::Ldbu,
            MemOp::Ldwu,
            MemOp::Ldl,
            MemOp::Ldq,
            MemOp::LdqU,
            MemOp::Stb,
            MemOp::Stw,
            MemOp::Stl,
            MemOp::Stq,
            MemOp::StqU,
        ] {
            assert_eq!(MemOp::from_opcode(op.opcode()), Some(op));
        }
        assert_eq!(MemOp::from_opcode(0x3F), None);
    }

    #[test]
    fn brop_opcode_roundtrip() {
        for op in [
            BrOp::Br,
            BrOp::Bsr,
            BrOp::Beq,
            BrOp::Bne,
            BrOp::Blt,
            BrOp::Ble,
            BrOp::Bgt,
            BrOp::Bge,
            BrOp::Blbc,
            BrOp::Blbs,
        ] {
            assert_eq!(BrOp::from_opcode(op.opcode()), Some(op));
        }
    }

    #[test]
    fn opfn_parts_roundtrip() {
        for f in OpFn::ALL {
            assert_eq!(OpFn::from_parts(f.opcode(), f.func()), Some(f), "{f:?}");
        }
        assert_eq!(OpFn::from_parts(0x10, 0x7F), None);
    }

    #[test]
    fn alignment_rules() {
        assert_eq!(MemOp::Ldl.required_alignment(), 4);
        assert_eq!(MemOp::LdqU.required_alignment(), 1);
        assert_eq!(MemOp::Stq.required_alignment(), 8);
        assert!(!MemOp::Lda.touches_memory());
        assert!(MemOp::StqU.is_store());
        assert!(Insn::Mem {
            op: MemOp::Ldl,
            ra: Reg::R1,
            rb: Reg::R2,
            disp: 0
        }
        .can_trap_unaligned());
        assert!(!Insn::Mem {
            op: MemOp::LdqU,
            ra: Reg::R1,
            rb: Reg::R2,
            disp: 0
        }
        .can_trap_unaligned());
        assert!(!Insn::NOP.can_trap_unaligned());
    }

    #[test]
    fn branch_conditions() {
        assert!(BrOp::Beq.taken(0));
        assert!(!BrOp::Beq.taken(1));
        assert!(BrOp::Blt.taken(u64::MAX)); // -1 signed
        assert!(!BrOp::Blt.taken(0));
        assert!(BrOp::Bge.taken(0));
        assert!(BrOp::Blbs.taken(3));
        assert!(BrOp::Blbc.taken(2));
        assert!(BrOp::Br.taken(12345));
    }

    #[test]
    fn cmov_conditions() {
        assert!(OpFn::Cmoveq.cmov_taken(0));
        assert!(!OpFn::Cmoveq.cmov_taken(5));
        assert!(OpFn::Cmovne.cmov_taken(5));
        assert!(OpFn::Cmovlt.cmov_taken(u64::MAX));
        assert!(OpFn::Cmovgt.cmov_taken(1));
        assert!(OpFn::Cmovlbs.cmov_taken(1));
        assert!(OpFn::Cmoveq.is_cmov());
        assert!(!OpFn::Addl.is_cmov());
    }
}
