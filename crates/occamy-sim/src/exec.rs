//! Pure functional semantics of vector operations, shared by the timing
//! model's issue stage and the functional engine. Every kernel that
//! produces a vector writes it into a caller-supplied buffer (cleared
//! first), so the caller decides where results live and recycles their
//! storage. Both also share [`scalar_payload`], [`compute`] and
//! [`out_of_bounds`], so each rule above the kernels is written once.
//! The lane kernels [`compute`] dispatches to stay out of line: inlined
//! into its match they lost their loop optimizations, and perfbench's
//! `fig10-functional` ran ~10% slower (2-vCPU Xeon VM).

use em_simd::{VBinOp, VCmpOp, VUnOp, VectorInst, XReg};
use mem_sim::Memory;

/// The scalar payload the unwrapped vector instruction `inst` captures
/// from the scalar register file `x` when it leaves the scalar core
/// (Table 2: scalar operands are ready at transmit): the effective
/// address of a `Load` or `Store`, the bits a `Dup` broadcasts, and the
/// `Whilelo` bounds packed as two u32 (`lo << 32 | hi`). `None` for
/// every other instruction.
#[inline]
pub fn scalar_payload(inst: &VectorInst, x: &[u64]) -> Option<u64> {
    match inst {
        VectorInst::Load { base, index, .. } | VectorInst::Store { base, index, .. } => {
            Some(x[base.index()].wrapping_add(x[index.index()].wrapping_mul(4)))
        }
        VectorInst::Dup { src, .. } => Some(x[src.index()]),
        VectorInst::Whilelo { a, b, .. } => {
            let lo = x[a.index()] as u32;
            let hi = x[b.index()] as u32;
            Some((u64::from(lo) << 32) | u64::from(hi))
        }
        _ => None,
    }
}

/// The operands of one vector compute instruction, read by the caller
/// from the register file it models (physical in the timing model,
/// architectural in the functional engine).
pub struct Operands<'a, S: Fn(usize) -> &'a [f32]> {
    /// The `i`th vector source, in [`VectorInst::vector_srcs`] order.
    pub src: S,
    /// `Sel`'s selector predicate.
    pub sel: Option<&'a [f32]>,
    /// The governing predicate, if predicated.
    pub mask: Option<&'a [f32]>,
    /// The old destination value that merging predication keeps.
    pub old: Option<&'a [f32]>,
    /// The [`scalar_payload`] captured at transmit.
    pub payload: Option<u64>,
    /// Lanes at the configured `<VL>`.
    pub lanes: usize,
}

/// Executes the compute instruction `inst` (unwrapped; its predicate is
/// [`Operands::mask`]) into `out`: the lane operation, then merging
/// predication (inactive lanes keep the old destination). Returns the
/// scalar write-back of a `ReduceAdd`.
pub fn compute<'a, S: Fn(usize) -> &'a [f32]>(
    inst: &VectorInst,
    ops: &Operands<'a, S>,
    out: &mut Vec<f32>,
) -> Option<(XReg, f32)> {
    let needs_payload = matches!(inst, VectorInst::Dup { .. } | VectorInst::Whilelo { .. });
    debug_assert!(!needs_payload || ops.payload.is_some(), "scalar payload captured at transmit");
    let (src, payload) = (&ops.src, ops.payload.unwrap_or(0));
    let mut scalar_wb = None;
    match inst {
        VectorInst::Unary { op, .. } => exec_unary(*op, src(0), out),
        VectorInst::Binary { op, .. } => exec_binary(*op, src(0), src(1), out),
        VectorInst::Fma { .. } => exec_fma(src(0), src(1), src(2), out),
        VectorInst::DupImm { imm, .. } => broadcast(*imm, ops.lanes, out),
        VectorInst::Dup { .. } => broadcast(f32::from_bits(payload as u32), ops.lanes, out),
        VectorInst::ReduceAdd { dst, .. } => {
            let sum = match ops.mask {
                Some(m) => reduce_add_masked(m, src(0)),
                None => reduce_add(src(0)),
            };
            scalar_wb = Some((*dst, sum));
        }
        VectorInst::Whilelo { .. } => whilelo(payload >> 32, payload & 0xffff_ffff, ops.lanes, out),
        VectorInst::Fcm { op, .. } => compare(*op, src(0), src(1), out),
        VectorInst::Sel { .. } => blend(ops.sel.unwrap_or_default(), src(0), src(1), out),
        VectorInst::Load { .. } | VectorInst::Store { .. } | VectorInst::Predicated { .. } => {
            // Memory ops take the memory path and callers unwrap
            // predication; neither reaches here.
            debug_assert!(false, "non-compute instruction in the compute path");
            broadcast(0.0, ops.lanes, out);
        }
    }
    if let (Some(m), Some(old)) = (ops.mask, ops.old) {
        merge(m, out, old);
    }
    scalar_wb
}

/// The bounds check of a vector access of `bytes` at `addr` under the
/// governing predicate `mask`: predicated accesses only touch active
/// lanes (SVE fault suppression), so the checked span ends at the last
/// active lane. Returns the span of an access that leaves the
/// `capacity`-byte arena.
pub fn out_of_bounds(addr: u64, bytes: u64, mask: Option<&[f32]>, capacity: u64) -> Option<u64> {
    let span = mask.map_or(bytes, active_span);
    (span > 0 && addr.checked_add(span).is_none_or(|end| end > capacity)).then_some(span)
}

/// Applies a unary lane-wise operation.
#[inline(never)]
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
#[inline(never)]
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
#[inline(never)]
pub fn exec_fma(acc: &[f32], a: &[f32], b: &[f32], out: &mut Vec<f32>) {
    assert!(acc.len() == a.len() && a.len() == b.len(), "vector width mismatch");
    out.clear();
    out.extend(acc.iter().zip(a).zip(b).map(|((&c, &x), &y)| x.mul_add(y, c)));
}

/// Broadcasts `value` to `lanes` lanes.
#[inline(never)]
pub fn broadcast(value: f32, lanes: usize, out: &mut Vec<f32>) {
    out.clear();
    out.resize(lanes, value);
}

/// Horizontal sum over all lanes (SVE `FADDV` semantics: strict
/// left-to-right order, so results are deterministic for any lane count).
#[inline(never)]
pub fn reduce_add(src: &[f32]) -> f32 {
    src.iter().fold(0.0, |acc, &x| acc + x)
}

/// Lane select: `mask[i] ? a[i] : b[i]` per lane (SVE `SEL`).
///
/// # Panics
///
/// Panics if the widths differ.
#[inline(never)]
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
#[inline(never)]
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
#[inline(never)]
pub fn reduce_add_masked(mask: &[f32], src: &[f32]) -> f32 {
    assert_eq!(mask.len(), src.len(), "vector width mismatch");
    mask.iter().zip(src).fold(0.0, |acc, (&m, &x)| if m != 0.0 { acc + x } else { acc })
}

/// The WHILELO predicate: lane `i` is active iff `a + i < b`
/// (represented as 1.0/0.0 per lane).
#[inline(never)]
pub fn whilelo(a: u64, b: u64, lanes: usize, out: &mut Vec<f32>) {
    out.clear();
    out.extend((0..lanes as u64).map(|i| if a + i < b { 1.0 } else { 0.0 }));
}

/// Lane-wise comparison producing a predicate mask (SVE `FCMxx`).
///
/// # Panics
///
/// Panics if the widths differ.
#[inline(never)]
pub fn compare(op: VCmpOp, a: &[f32], b: &[f32], out: &mut Vec<f32>) {
    assert_eq!(a.len(), b.len(), "vector width mismatch");
    out.clear();
    out.extend(a.iter().zip(b).map(|(&x, &y)| if op.eval(x, y) { 1.0 } else { 0.0 }));
}

/// Bytes a predicated access touches: up to and including the last
/// active lane (SVE fault suppression — inactive trailing lanes are
/// neither bounds-checked nor accessed).
fn active_span(mask: &[f32]) -> u64 {
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
