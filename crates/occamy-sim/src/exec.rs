//! Pure functional semantics of vector operations, shared by the timing
//! model's issue stage and the functional engine. Every kernel that
//! produces a vector writes it into a caller-supplied buffer (cleared
//! first), so the caller decides where results live and recycles their
//! storage.

use em_simd::{VBinOp, VCmpOp, VUnOp};
use mem_sim::Memory;

/// Applies a unary lane-wise operation.
pub fn exec_unary(op: VUnOp, src: &[f32], out: &mut Vec<f32>) {
    out.clear();
    out.extend(src.iter().map(|&x| match op {
        VUnOp::Fneg => -x,
        VUnOp::Fabs => x.abs(),
        VUnOp::Fsqrt => x.sqrt(),
    }));
}

/// Applies a binary lane-wise operation.
///
/// # Panics
///
/// Panics if the operand widths differ (a renamer invariant violation).
pub fn exec_binary(op: VBinOp, a: &[f32], b: &[f32], out: &mut Vec<f32>) {
    assert_eq!(a.len(), b.len(), "vector width mismatch");
    out.clear();
    out.extend(a.iter().zip(b).map(|(&x, &y)| match op {
        VBinOp::Fadd => x + y,
        VBinOp::Fsub => x - y,
        VBinOp::Fmul => x * y,
        VBinOp::Fdiv => x / y,
        VBinOp::Fmax => x.max(y),
        VBinOp::Fmin => x.min(y),
    }));
}

/// Fused multiply-add: `acc[i] + a[i] * b[i]` per lane.
///
/// # Panics
///
/// Panics if the operand widths differ.
pub fn exec_fma(acc: &[f32], a: &[f32], b: &[f32], out: &mut Vec<f32>) {
    assert!(acc.len() == a.len() && a.len() == b.len(), "vector width mismatch");
    out.clear();
    out.extend(acc.iter().zip(a).zip(b).map(|((&c, &x), &y)| x.mul_add(y, c)));
}

/// Broadcasts `value` to `lanes` lanes.
pub fn broadcast(value: f32, lanes: usize, out: &mut Vec<f32>) {
    out.clear();
    out.resize(lanes, value);
}

/// Horizontal sum over all lanes (SVE `FADDV` semantics: strict
/// left-to-right order, so results are deterministic for any lane count).
pub fn reduce_add(src: &[f32]) -> f32 {
    src.iter().fold(0.0, |acc, &x| acc + x)
}

/// Lane select: `mask[i] ? a[i] : b[i]` per lane (SVE `SEL`).
///
/// # Panics
///
/// Panics if the widths differ.
pub fn blend(mask: &[f32], a: &[f32], b: &[f32], out: &mut Vec<f32>) {
    assert!(mask.len() == a.len() && a.len() == b.len(), "vector width mismatch");
    out.clear();
    out.extend(mask.iter().zip(a.iter().zip(b)).map(|(&m, (&x, &y))| if m != 0.0 { x } else { y }));
}

/// Merging predication, in place: inactive lanes of `value` take the old
/// destination's value.
///
/// # Panics
///
/// Panics if the widths differ.
pub fn merge(mask: &[f32], value: &mut [f32], old: &[f32]) {
    assert!(mask.len() == value.len() && value.len() == old.len(), "vector width mismatch");
    for ((v, &m), &o) in value.iter_mut().zip(mask).zip(old) {
        if m == 0.0 {
            *v = o;
        }
    }
}

/// Predicated horizontal sum: only active lanes contribute.
///
/// # Panics
///
/// Panics if the widths differ.
pub fn reduce_add_masked(mask: &[f32], src: &[f32]) -> f32 {
    assert_eq!(mask.len(), src.len(), "vector width mismatch");
    mask.iter().zip(src).fold(0.0, |acc, (&m, &x)| if m != 0.0 { acc + x } else { acc })
}

/// The WHILELO predicate: lane `i` is active iff `a + i < b`
/// (represented as 1.0/0.0 per lane).
pub fn whilelo(a: u64, b: u64, lanes: usize, out: &mut Vec<f32>) {
    out.clear();
    out.extend((0..lanes as u64).map(|i| if a + i < b { 1.0 } else { 0.0 }));
}

/// Lane-wise comparison producing a predicate mask (SVE `FCMxx`).
///
/// # Panics
///
/// Panics if the widths differ.
pub fn compare(op: VCmpOp, a: &[f32], b: &[f32], out: &mut Vec<f32>) {
    assert_eq!(a.len(), b.len(), "vector width mismatch");
    out.clear();
    out.extend(a.iter().zip(b).map(|(&x, &y)| if op.eval(x, y) { 1.0 } else { 0.0 }));
}

/// Bytes a predicated access touches: up to and including the last
/// active lane (SVE fault suppression — inactive trailing lanes are
/// neither bounds-checked nor accessed).
pub fn active_span(mask: &[f32]) -> u64 {
    mask.iter().rposition(|&a| a != 0.0).map_or(0, |i| (i as u64 + 1) * 4)
}

/// A contiguous vector load of `lanes` f32 elements at `addr`. Under a
/// governing predicate the load is zeroing (SVE `LD1`): inactive lanes
/// read as 0.0 without touching memory.
pub fn load(mem: &Memory, addr: u64, lanes: usize, mask: Option<&[f32]>, out: &mut Vec<f32>) {
    out.clear();
    match mask {
        Some(m) => out.extend(m.iter().enumerate().map(|(i, &active)| {
            if active != 0.0 {
                mem.read_f32(addr + 4 * i as u64)
            } else {
                0.0
            }
        })),
        None => out.extend((0..lanes).map(|i| mem.read_f32(addr + 4 * i as u64))),
    }
}

/// A contiguous vector store of `value` at `addr`. Under a governing
/// predicate only active lanes are written.
pub fn store(mem: &mut Memory, addr: u64, value: &[f32], mask: Option<&[f32]>) {
    for (i, &v) in value.iter().enumerate() {
        if mask.is_none_or(|m| m.get(i).is_some_and(|&active| active != 0.0)) {
            mem.write_f32(addr + 4 * i as u64, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(f: impl FnOnce(&mut Vec<f32>)) -> Vec<f32> {
        let mut out = vec![99.0; 7];
        f(&mut out);
        out
    }

    #[test]
    fn unary_ops() {
        assert_eq!(run(|o| exec_unary(VUnOp::Fneg, &[1.0, -2.0], o)), vec![-1.0, 2.0]);
        assert_eq!(run(|o| exec_unary(VUnOp::Fabs, &[-3.0, 4.0], o)), vec![3.0, 4.0]);
        assert_eq!(run(|o| exec_unary(VUnOp::Fsqrt, &[9.0, 16.0], o)), vec![3.0, 4.0]);
    }

    #[test]
    fn binary_ops() {
        let bin = |op, a: &[f32], b: &[f32]| run(|o| exec_binary(op, a, b, o));
        assert_eq!(bin(VBinOp::Fadd, &[1.0, 2.0], &[3.0, 4.0]), vec![4.0, 6.0]);
        assert_eq!(bin(VBinOp::Fsub, &[1.0, 2.0], &[3.0, 4.0]), vec![-2.0, -2.0]);
        assert_eq!(bin(VBinOp::Fmul, &[2.0, 3.0], &[4.0, 5.0]), vec![8.0, 15.0]);
        assert_eq!(bin(VBinOp::Fdiv, &[8.0, 9.0], &[2.0, 3.0]), vec![4.0, 3.0]);
        assert_eq!(bin(VBinOp::Fmax, &[1.0, 5.0], &[2.0, 3.0]), vec![2.0, 5.0]);
        assert_eq!(bin(VBinOp::Fmin, &[1.0, 5.0], &[2.0, 3.0]), vec![1.0, 3.0]);
    }

    #[test]
    fn fma_is_fused() {
        assert_eq!(run(|o| exec_fma(&[1.0], &[2.0], &[3.0], o)), vec![7.0]);
    }

    #[test]
    fn broadcast_fills_every_lane() {
        assert_eq!(run(|o| broadcast(2.5, 3, o)), vec![2.5; 3]);
    }

    #[test]
    fn reduce_is_left_to_right() {
        assert_eq!(reduce_add(&[1.0, 2.0, 3.0, 4.0]), 10.0);
        assert_eq!(reduce_add(&[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn width_mismatch_panics() {
        exec_binary(VBinOp::Fadd, &[1.0], &[1.0, 2.0], &mut Vec::new());
    }

    #[test]
    fn blend_selects_by_mask() {
        let r = run(|o| blend(&[1.0, 0.0, 1.0], &[9.0, 9.0, 9.0], &[1.0, 2.0, 3.0], o));
        assert_eq!(r, vec![9.0, 2.0, 9.0]);
    }

    #[test]
    fn merge_keeps_inactive_lanes() {
        let mut v = vec![9.0, 9.0, 9.0];
        merge(&[1.0, 0.0, 1.0], &mut v, &[1.0, 2.0, 3.0]);
        assert_eq!(v, vec![9.0, 2.0, 9.0]);
    }

    #[test]
    fn masked_reduce_skips_inactive() {
        assert_eq!(reduce_add_masked(&[1.0, 0.0, 1.0], &[5.0, 100.0, 7.0]), 12.0);
    }

    #[test]
    fn compare_produces_masks() {
        let m = run(|o| compare(VCmpOp::Gt, &[1.0, 5.0, 3.0], &[2.0, 2.0, 3.0], o));
        assert_eq!(m, vec![0.0, 1.0, 0.0]);
        let m = run(|o| compare(VCmpOp::Le, &[1.0, 5.0, 3.0], &[2.0, 2.0, 3.0], o));
        assert_eq!(m, vec![1.0, 0.0, 1.0]);
    }

    #[test]
    fn whilelo_counts_remaining() {
        assert_eq!(run(|o| whilelo(6, 8, 4, o)), vec![1.0, 1.0, 0.0, 0.0]);
        assert_eq!(run(|o| whilelo(8, 8, 4, o)), vec![0.0; 4]);
        assert_eq!(run(|o| whilelo(0, 100, 4, o)), vec![1.0; 4]);
    }

    #[test]
    fn predicated_memory_touches_active_lanes_only() {
        let mut mem = Memory::new(64);
        store(&mut mem, 0, &[1.0, 2.0, 3.0], Some(&[1.0, 0.0, 1.0]));
        assert_eq!(run(|o| load(&mem, 0, 3, None, o)), vec![1.0, 0.0, 3.0]);
        assert_eq!(run(|o| load(&mem, 0, 3, Some(&[0.0, 0.0, 1.0]), o)), vec![0.0, 0.0, 3.0]);
        assert_eq!(active_span(&[1.0, 0.0, 1.0, 0.0]), 12);
        assert_eq!(active_span(&[0.0; 4]), 0);
    }
}
