//! Pure evaluation of Alpha operate functions.
//!
//! Shared by the host simulator and by the property tests that validate the
//! MDA code sequences against direct unaligned-memory semantics. The
//! byte-manipulation instructions follow the Alpha Architecture Handbook:
//! `ext*h`/`ins*h`/`msk*h` treat a byte offset of zero as contributing
//! nothing from the "high" quadword, which is what makes the unaligned
//! sequences degenerate correctly when the access happens to fit in one
//! aligned quadword.

use crate::insn::OpFn;

#[inline]
fn sext32(v: u64) -> u64 {
    v as u32 as i32 as i64 as u64
}

#[inline]
fn byte_shift(rb: u64) -> u32 {
    ((rb & 7) * 8) as u32
}

/// Left shift where an amount of 64 produces zero (the `ext*h`/`ins*h`
/// boundary case).
#[inline]
fn shl_sat(v: u64, amount: u32) -> u64 {
    if amount >= 64 {
        0
    } else {
        v << amount
    }
}

/// Right shift where an amount of 64 produces zero.
#[inline]
fn shr_sat(v: u64, amount: u32) -> u64 {
    if amount >= 64 {
        0
    } else {
        v >> amount
    }
}

/// Applies a `zap`-style byte mask: clears byte `i` of `v` when bit `i` of
/// `mask_bits` is set.
///
/// Branch-free: the multiply copies the low mask byte into every byte
/// lane and the AND keeps only bit `i` in lane `i`. A lane then holds at
/// most 0x80, so adding 0x7F sets its top bit exactly when it is non-zero
/// without carrying into the next lane. Shifting the top bits down leaves
/// 0 or 1 per lane, and the final multiply widens that to a 0x00/0xFF
/// byte mask.
#[inline]
fn zap(v: u64, mask_bits: u64) -> u64 {
    const LANES: u64 = 0x0101_0101_0101_0101;
    let y = ((mask_bits & 0xFF).wrapping_mul(LANES)) & 0x8040_2010_0804_0201;
    let z = (y.wrapping_add(0x7F7F_7F7F_7F7F_7F7F) & 0x8080_8080_8080_8080) >> 7;
    v & !(z * 0xFF)
}

/// Evaluates an operate function over operand values `av` (the `ra` value)
/// and `bv` (the `rb` register value or zero-extended literal).
///
/// Conditional moves return `bv` unconditionally here; whether `rc` is
/// actually written is decided by the executor via
/// [`OpFn::cmov_taken`](crate::insn::OpFn::cmov_taken).
///
/// Always inlined: in the simulator's block loop the operate-function
/// `match` then shares one dispatch with the instruction `match` instead
/// of costing a call per operate instruction.
#[inline(always)]
pub fn eval(op: OpFn, av: u64, bv: u64) -> u64 {
    match op {
        OpFn::Addl => sext32(av.wrapping_add(bv)),
        OpFn::S4addl => sext32((av << 2).wrapping_add(bv)),
        OpFn::Subl => sext32(av.wrapping_sub(bv)),
        OpFn::S4subl => sext32((av << 2).wrapping_sub(bv)),
        OpFn::Addq => av.wrapping_add(bv),
        OpFn::S4addq => (av << 2).wrapping_add(bv),
        OpFn::S8addq => (av << 3).wrapping_add(bv),
        OpFn::Subq => av.wrapping_sub(bv),
        OpFn::Cmpeq => u64::from(av == bv),
        OpFn::Cmplt => u64::from((av as i64) < (bv as i64)),
        OpFn::Cmple => u64::from((av as i64) <= (bv as i64)),
        OpFn::Cmpult => u64::from(av < bv),
        OpFn::Cmpule => u64::from(av <= bv),
        OpFn::And => av & bv,
        OpFn::Bic => av & !bv,
        OpFn::Bis => av | bv,
        OpFn::Ornot => av | !bv,
        OpFn::Xor => av ^ bv,
        OpFn::Eqv => av ^ !bv,
        OpFn::Cmoveq
        | OpFn::Cmovne
        | OpFn::Cmovlt
        | OpFn::Cmovge
        | OpFn::Cmovle
        | OpFn::Cmovgt
        | OpFn::Cmovlbs
        | OpFn::Cmovlbc => bv,
        OpFn::Sll => av << (bv & 63),
        OpFn::Srl => av >> (bv & 63),
        OpFn::Sra => ((av as i64) >> (bv & 63)) as u64,
        OpFn::Zap => zap(av, bv),
        OpFn::Zapnot => zap(av, !bv),
        OpFn::Extbl => (av >> byte_shift(bv)) & 0xFF,
        OpFn::Extwl => (av >> byte_shift(bv)) & 0xFFFF,
        OpFn::Extll => (av >> byte_shift(bv)) & 0xFFFF_FFFF,
        OpFn::Extql => av >> byte_shift(bv),
        OpFn::Extwh => shl_sat(av, 64 - byte_shift(bv)) & 0xFFFF,
        OpFn::Extlh => shl_sat(av, 64 - byte_shift(bv)) & 0xFFFF_FFFF,
        OpFn::Extqh => shl_sat(av, 64 - byte_shift(bv)),
        OpFn::Insbl => (av & 0xFF) << byte_shift(bv),
        OpFn::Inswl => {
            let s = byte_shift(bv);
            (av & 0xFFFF).wrapping_shl(s)
        }
        OpFn::Insll => (av & 0xFFFF_FFFF).wrapping_shl(byte_shift(bv)),
        OpFn::Insql => av.wrapping_shl(byte_shift(bv)),
        OpFn::Inswh => shr_sat(av & 0xFFFF, 64 - byte_shift(bv)),
        OpFn::Inslh => shr_sat(av & 0xFFFF_FFFF, 64 - byte_shift(bv)),
        OpFn::Insqh => shr_sat(av, 64 - byte_shift(bv)),
        OpFn::Mskbl => av & !(0xFFu64 << byte_shift(bv)),
        OpFn::Mskwl => av & !(0xFFFFu64.wrapping_shl(byte_shift(bv))),
        OpFn::Mskll => av & !(0xFFFF_FFFFu64.wrapping_shl(byte_shift(bv))),
        OpFn::Mskql => av & !(u64::MAX.wrapping_shl(byte_shift(bv))),
        OpFn::Mskwh => av & !shr_sat(0xFFFF, 64 - byte_shift(bv)),
        OpFn::Msklh => av & !shr_sat(0xFFFF_FFFF, 64 - byte_shift(bv)),
        OpFn::Mskqh => av & !shr_sat(u64::MAX, 64 - byte_shift(bv)),
        OpFn::Mull => sext32(av.wrapping_mul(bv)),
        OpFn::Mulq => av.wrapping_mul(bv),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zap_matches_bytewise_reference_for_every_mask() {
        for v in [0x0123_4567_89AB_CDEFu64, u64::MAX] {
            for mask in 0..256u64 {
                let mut want = v;
                for i in 0..8 {
                    if mask & (1 << i) != 0 {
                        want &= !(0xFFu64 << (8 * i));
                    }
                }
                // Bits above the mask operand's low byte are ignored.
                assert_eq!(zap(v, mask | 0xABCD_0000_0000_0000), want, "mask {mask:#x}");
                assert_eq!(eval(OpFn::Zapnot, v, !mask), want, "mask {mask:#x}");
            }
        }
    }

    #[test]
    fn arithmetic_sign_extension() {
        assert_eq!(eval(OpFn::Addl, 0x7FFF_FFFF, 1), 0xFFFF_FFFF_8000_0000);
        assert_eq!(eval(OpFn::Addq, 0x7FFF_FFFF, 1), 0x8000_0000);
        assert_eq!(eval(OpFn::Subl, 0, 1), u64::MAX);
        assert_eq!(eval(OpFn::Mull, 0x10000, 0x10000), 0); // low 32 bits
        assert_eq!(eval(OpFn::Mulq, 0x10000, 0x10000), 1 << 32);
        assert_eq!(eval(OpFn::S4addq, 3, 5), 17);
        assert_eq!(eval(OpFn::S8addq, 2, 1), 17);
    }

    #[test]
    fn comparisons() {
        assert_eq!(eval(OpFn::Cmpeq, 5, 5), 1);
        assert_eq!(eval(OpFn::Cmpeq, 5, 6), 0);
        assert_eq!(eval(OpFn::Cmplt, u64::MAX, 0), 1); // -1 < 0 signed
        assert_eq!(eval(OpFn::Cmpult, u64::MAX, 0), 0); // huge unsigned
        assert_eq!(eval(OpFn::Cmple, 7, 7), 1);
        assert_eq!(eval(OpFn::Cmpule, 7, 6), 0);
    }

    #[test]
    fn logic_ops() {
        assert_eq!(eval(OpFn::Bic, 0xFF, 0x0F), 0xF0);
        assert_eq!(eval(OpFn::Ornot, 0, 0), u64::MAX);
        assert_eq!(eval(OpFn::Eqv, 0xF0F0, 0xF0F0), u64::MAX);
        assert_eq!(eval(OpFn::Xor, 0xFF00, 0x0FF0), 0xF0F0);
    }

    #[test]
    fn shifts_mask_amount() {
        assert_eq!(eval(OpFn::Sll, 1, 64), 1); // 64 & 63 == 0
        assert_eq!(eval(OpFn::Sra, 0x8000_0000_0000_0000, 63), u64::MAX);
        assert_eq!(eval(OpFn::Srl, 0x8000_0000_0000_0000, 63), 1);
    }

    #[test]
    fn zap_and_zapnot() {
        assert_eq!(eval(OpFn::Zap, u64::MAX, 0x01), 0xFFFF_FFFF_FFFF_FF00);
        assert_eq!(eval(OpFn::Zapnot, u64::MAX, 0x0F), 0xFFFF_FFFF);
        assert_eq!(eval(OpFn::Zapnot, 0x1234_5678_9ABC_DEF0, 0x03), 0xDEF0);
    }

    /// Model an unaligned longword load with extll/extlh, for every byte
    /// offset, against direct byte assembly.
    #[test]
    fn extll_extlh_compose_longword() {
        let low: u64 = 0x0706_0504_0302_0100; // byte i has value i
        let high: u64 = 0x0F0E_0D0C_0B0A_0908;
        for bl in 0..8u64 {
            let lo_part = eval(OpFn::Extll, low, bl);
            // The "high" ldq_u reads addr+3; for bl <= 4 that is the same
            // quad, so pass `low` in that case exactly as hardware would.
            let high_src = if bl <= 4 { low } else { high };
            let hi_part = eval(OpFn::Extlh, high_src, bl);
            let got = (lo_part | hi_part) as u32;
            // Expected: 4 little-endian bytes starting at offset bl of the
            // 16-byte buffer low||high.
            let mut expect = 0u32;
            for i in 0..4 {
                let idx = bl + i;
                let byte = if idx < 8 {
                    (low >> (8 * idx)) & 0xFF
                } else {
                    (high >> (8 * (idx - 8))) & 0xFF
                };
                expect |= (byte as u32) << (8 * i);
            }
            assert_eq!(got, expect, "offset {bl}");
        }
    }

    /// Same composition check for quadword (extql/extqh).
    #[test]
    fn extql_extqh_compose_quadword() {
        let low: u64 = 0x0706_0504_0302_0100;
        let high: u64 = 0x0F0E_0D0C_0B0A_0908;
        for bl in 0..8u64 {
            let lo_part = eval(OpFn::Extql, low, bl);
            let high_src = if bl == 0 { low } else { high };
            let hi_part = eval(OpFn::Extqh, high_src, bl);
            let got = lo_part | hi_part;
            let mut expect = 0u64;
            for i in 0..8 {
                let idx = bl + i;
                let byte = if idx < 8 {
                    (low >> (8 * idx)) & 0xFF
                } else {
                    (high >> (8 * (idx - 8))) & 0xFF
                };
                expect |= byte << (8 * i);
            }
            assert_eq!(got, expect, "offset {bl}");
        }
    }

    /// ins/msk compose an unaligned longword store correctly at every
    /// offset.
    #[test]
    fn insl_mskl_compose_store() {
        let value: u64 = 0xDDCC_BBAA;
        for bl in 0..8u64 {
            let low_before: u64 = 0x1111_1111_1111_1111;
            let high_before: u64 = 0x2222_2222_2222_2222;
            let ins_lo = eval(OpFn::Insll, value, bl);
            let ins_hi = eval(OpFn::Inslh, value, bl);
            let msk_lo = eval(OpFn::Mskll, low_before, bl);
            let msk_hi = eval(OpFn::Msklh, high_before, bl);
            let new_lo = msk_lo | ins_lo;
            let new_hi = msk_hi | ins_hi;

            // Byte-level expectation over the 16-byte buffer.
            let mut bytes = [0u8; 16];
            bytes[..8].copy_from_slice(&low_before.to_le_bytes());
            bytes[8..].copy_from_slice(&high_before.to_le_bytes());
            for i in 0..4usize {
                bytes[bl as usize + i] = (value >> (8 * i)) as u8;
            }
            let want_lo = u64::from_le_bytes(bytes[..8].try_into().unwrap());
            let want_hi = u64::from_le_bytes(bytes[8..].try_into().unwrap());

            assert_eq!(new_lo, want_lo, "low quad at offset {bl}");
            if bl > 4 {
                assert_eq!(new_hi, want_hi, "high quad at offset {bl}");
            } else {
                // No spill: high ins/msk must leave the high quad intact.
                assert_eq!(ins_hi, 0, "no spill insertion at offset {bl}");
                assert_eq!(msk_hi, high_before, "no spill masking at offset {bl}");
            }
        }
    }
}
