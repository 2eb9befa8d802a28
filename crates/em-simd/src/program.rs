//! Programs and the assembler-style [`ProgramBuilder`].

use std::fmt;

use crate::inst::{EmSimdInst, Inst, ScalarInst, VectorInst};
use crate::tag::InstTag;

/// An opaque branch-target label.
///
/// Labels are created with [`ProgramBuilder::fresh_label`] and bound to a
/// position with [`ProgramBuilder::bind`]; at [`ProgramBuilder::build`] time
/// every label used by a branch must have been bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(u32);

impl Label {
    /// Creates a label from a raw id. Intended for tests and tooling; real
    /// programs should obtain labels from [`ProgramBuilder::fresh_label`].
    pub fn from_raw(id: u32) -> Label {
        Label(id)
    }

    /// The raw label id.
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, ".L{}", self.0)
    }
}

/// A fully assembled program: a flat instruction sequence with all branch
/// labels resolved to instruction indices.
///
/// # Examples
///
/// ```
/// use em_simd::{ProgramBuilder, ScalarInst, XReg, Operand};
///
/// let mut b = ProgramBuilder::new();
/// let top = b.fresh_label("loop");
/// b.scalar(ScalarInst::MovImm { dst: XReg::X0, imm: 0 });
/// b.bind(top);
/// b.scalar(ScalarInst::Add { dst: XReg::X0, a: XReg::X0, b: Operand::Imm(1) });
/// b.scalar(ScalarInst::Blt { a: XReg::X0, b: Operand::Imm(10), target: top });
/// b.halt();
/// let p = b.build();
/// assert_eq!(p.resolve(top), 1);
/// assert_eq!(p.len(), 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    insts: Vec<Inst>,
    tags: Vec<InstTag>,
    label_targets: Vec<usize>,
    label_names: Vec<String>,
}

impl Program {
    /// The instruction at `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is out of bounds.
    pub fn fetch(&self, pc: usize) -> &Inst {
        &self.insts[pc]
    }

    /// The number of instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the program contains no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// All instructions in program order.
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// The provenance tag of the instruction at `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is out of bounds.
    pub fn tag(&self, pc: usize) -> InstTag {
        self.tags[pc]
    }

    /// Resolves a label to its instruction index.
    ///
    /// # Panics
    ///
    /// Panics if the label does not belong to this program.
    pub fn resolve(&self, label: Label) -> usize {
        self.label_targets[label.0 as usize]
    }

    /// The bound target of every label, indexed by label id (for tooling
    /// that rebuilds or transforms programs).
    pub fn label_targets(&self) -> &[usize] {
        &self.label_targets
    }

    /// The debug name of label `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn label_name(&self, id: usize) -> &str {
        &self.label_names[id]
    }

    /// A human-readable disassembly listing with label annotations.
    pub fn disassemble(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (pc, inst) in self.insts.iter().enumerate() {
            for (id, &target) in self.label_targets.iter().enumerate() {
                if target == pc {
                    let _ = writeln!(out, ".L{id}: ; {}", self.label_names[id]);
                }
            }
            let _ = writeln!(out, "  {pc:4}: {inst}");
        }
        out
    }
}

/// Incrementally assembles a [`Program`].
///
/// The builder follows the non-consuming builder convention: emit methods
/// take `&mut self`, and [`build`](ProgramBuilder::build) consumes the
/// builder once the program is complete.
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    insts: Vec<Inst>,
    tags: Vec<InstTag>,
    current_tag: InstTag,
    label_targets: Vec<Option<usize>>,
    label_names: Vec<String>,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a new, unbound label. `name` is kept for disassembly only.
    pub fn fresh_label(&mut self, name: &str) -> Label {
        let id = self.label_targets.len() as u32;
        self.label_targets.push(None);
        self.label_names.push(name.to_owned());
        Label(id)
    }

    /// Binds `label` to the position of the *next* emitted instruction.
    ///
    /// # Panics
    ///
    /// Panics if the label is already bound or belongs to another builder.
    pub fn bind(&mut self, label: Label) {
        let slot = self
            .label_targets
            .get_mut(label.0 as usize)
            .expect("label does not belong to this builder");
        assert!(slot.is_none(), "label {label} bound twice");
        *slot = Some(self.insts.len());
    }

    /// Sets the provenance tag applied to subsequently emitted
    /// instructions (until the next call).
    pub fn set_tag(&mut self, tag: InstTag) -> &mut Self {
        self.current_tag = tag;
        self
    }

    /// The tag currently applied to emitted instructions.
    pub fn current_tag(&self) -> InstTag {
        self.current_tag
    }

    /// Emits any instruction.
    pub fn push(&mut self, inst: impl Into<Inst>) -> &mut Self {
        self.insts.push(inst.into());
        self.tags.push(self.current_tag);
        self
    }

    /// Emits a scalar instruction.
    pub fn scalar(&mut self, inst: ScalarInst) -> &mut Self {
        self.push(inst)
    }

    /// Emits a vector instruction.
    pub fn vector(&mut self, inst: VectorInst) -> &mut Self {
        self.push(inst)
    }

    /// Emits an EM-SIMD instruction.
    pub fn em_simd(&mut self, inst: EmSimdInst) -> &mut Self {
        self.push(inst)
    }

    /// Emits the halt marker.
    pub fn halt(&mut self) -> &mut Self {
        self.push(Inst::Halt)
    }

    /// The index of the next instruction to be emitted.
    pub fn next_pc(&self) -> usize {
        self.insts.len()
    }

    /// Finishes assembly.
    ///
    /// # Panics
    ///
    /// Panics if any branch references an unbound label.
    pub fn build(self) -> Program {
        let label_targets: Vec<usize> = self
            .label_targets
            .iter()
            .enumerate()
            .map(|(id, t)| {
                t.unwrap_or_else(|| panic!("label .L{id} ({}) never bound", self.label_names[id]))
            })
            .collect();
        // Validate that every branch target is in range.
        for inst in &self.insts {
            if let Inst::Scalar(s) = inst {
                if let Some(l) = s.branch_target() {
                    let t = label_targets[l.0 as usize];
                    assert!(
                        t <= self.insts.len(),
                        "branch target {t} out of range for program of length {}",
                        self.insts.len()
                    );
                }
            }
        }
        Program {
            insts: self.insts,
            tags: self.tags,
            label_targets,
            label_names: self.label_names,
        }
    }
}

// --- Checkpoint serialization --------------------------------------------

impl statecodec::Codec for Label {
    fn encode(&self, sink: &mut statecodec::Sink) {
        statecodec::Codec::encode(&self.0, sink);
    }
    fn decode(src: &mut statecodec::Src<'_>) -> Result<Self, statecodec::DecodeError> {
        Ok(Label(<u32 as statecodec::Codec>::decode(src)?))
    }
}

// Hand-written rather than `impl_codec!` so decode can re-establish the
// invariants `build()` guarantees: one tag per instruction, and every
// label target within the program.
impl statecodec::Codec for Program {
    fn encode(&self, sink: &mut statecodec::Sink) {
        statecodec::Codec::encode(&self.insts, sink);
        statecodec::Codec::encode(&self.tags, sink);
        statecodec::Codec::encode(&self.label_targets, sink);
        statecodec::Codec::encode(&self.label_names, sink);
    }
    fn decode(src: &mut statecodec::Src<'_>) -> Result<Self, statecodec::DecodeError> {
        let insts: Vec<Inst> = statecodec::Codec::decode(src)?;
        let tags: Vec<InstTag> = statecodec::Codec::decode(src)?;
        let label_targets: Vec<usize> = statecodec::Codec::decode(src)?;
        let label_names: Vec<String> = statecodec::Codec::decode(src)?;
        if tags.len() != insts.len() {
            return Err(statecodec::DecodeError::at(
                src,
                format!("program has {} insts but {} tags", insts.len(), tags.len()),
            ));
        }
        if label_names.len() != label_targets.len() {
            return Err(statecodec::DecodeError::at(
                src,
                format!(
                    "program has {} label targets but {} label names",
                    label_targets.len(),
                    label_names.len()
                ),
            ));
        }
        if let Some(&bad) = label_targets.iter().find(|&&t| t > insts.len()) {
            return Err(statecodec::DecodeError::at(
                src,
                format!("label target {bad} out of range for {}-inst program", insts.len()),
            ));
        }
        Ok(Program { insts, tags, label_targets, label_names })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Operand;
    use crate::regs::XReg;

    #[test]
    fn labels_resolve_to_bind_position() {
        let mut b = ProgramBuilder::new();
        let l = b.fresh_label("x");
        b.scalar(ScalarInst::Nop);
        b.scalar(ScalarInst::Nop);
        b.bind(l);
        b.halt();
        let p = b.build();
        assert_eq!(p.resolve(l), 2);
    }

    #[test]
    #[should_panic(expected = "never bound")]
    fn unbound_label_panics_at_build() {
        let mut b = ProgramBuilder::new();
        let l = b.fresh_label("dangling");
        b.scalar(ScalarInst::B { target: l });
        let _ = b.build();
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn double_bind_panics() {
        let mut b = ProgramBuilder::new();
        let l = b.fresh_label("x");
        b.bind(l);
        b.bind(l);
    }

    #[test]
    fn disassembly_includes_labels_and_insts() {
        let mut b = ProgramBuilder::new();
        let top = b.fresh_label("loop_top");
        b.bind(top);
        b.scalar(ScalarInst::Add { dst: XReg::X0, a: XReg::X0, b: Operand::Imm(1) });
        b.scalar(ScalarInst::B { target: top });
        b.halt();
        let text = b.build().disassemble();
        assert!(text.contains("loop_top"), "{text}");
        assert!(text.contains("add x0, x0, #1"), "{text}");
        assert!(text.contains("halt"), "{text}");
    }

    #[test]
    fn fetch_and_len() {
        let mut b = ProgramBuilder::new();
        b.scalar(ScalarInst::Nop);
        b.halt();
        let p = b.build();
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        assert_eq!(*p.fetch(1), Inst::Halt);
    }
}
