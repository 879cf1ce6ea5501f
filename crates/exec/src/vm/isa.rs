//! The bytecode ISA and the compiled-program container.
//!
//! Everything here is plain data: the instruction set the
//! [compiler](super::compiler) emits, the fused superinstruction's
//! operand record, and [`VmProgram`] — the immutable artefact the
//! [machines](super::machine) execute. No instruction is interpreted
//! in this module (see [`super::dispatch`]).

use cora_ir::slots::StmtSlots;
use cora_ir::{CmpOp, FBinOp, FUnaryOp, IBinOp, StoreKind};

use crate::microkernel::{MathMode, NestClass};

/// One bytecode instruction. Jump targets are program counters after
/// [`Compiler::finish`] resolves labels.
#[derive(Debug, Clone)]
pub(super) enum Instr {
    /// `ireg[dst] = v`.
    IConst { dst: u16, v: i64 },
    /// `ireg[dst] = vars[slot]`.
    IVar { dst: u16, slot: u32 },
    /// `ireg[dst] = ireg[src]`.
    ICopy { dst: u16, src: u16 },
    /// `ireg[dst] = op(ireg[a], ireg[b])`.
    IBin {
        op: IBinOp,
        dst: u16,
        a: u16,
        b: u16,
    },
    /// `ireg[dst] = ibufs[buf][ireg[idx]]` (no stat bump: aux loads are
    /// charged statically at each evaluation site).
    ILoad { dst: u16, buf: u32, idx: u16 },
    /// `ireg[dst] = ibufs[buf][vars[vslot]]` — fused load-by-variable,
    /// the hot shape of ragged offset/extent accesses.
    ILoadV { dst: u16, buf: u32, vslot: u32 },
    /// `ireg[dst] = op(ireg[a], c)` (immediate right operand).
    IBinC {
        op: IBinOp,
        dst: u16,
        a: u16,
        c: i64,
    },
    /// `ireg[dst] = op(ireg[a], vars[vslot])` (variable right operand).
    IBinV {
        op: IBinOp,
        dst: u16,
        a: u16,
        vslot: u32,
    },
    /// `vars[slot] = ireg[src]` (loop initialisation).
    SetVar { slot: u32, src: u16 },
    /// `vars[slot] = ireg[src]`, charging `aux` loads (`LetInt`).
    LetVar { slot: u32, src: u16, aux: u64 },
    /// Jump to `to` if `vars[slot] >= ireg[lim]` (loop zero-trip test).
    BrVarGe { slot: u32, lim: u16, to: u32 },
    /// `vars[slot] += 1; if vars[slot] < ireg[lim] jump back` — the fused
    /// loop back-edge (increment + test + jump in one dispatch).
    LoopNext { slot: u32, lim: u16, back: u32 },
    /// Jump to `on_true`/`on_false` after comparing two registers.
    BrCmp {
        op: CmpOp,
        a: u16,
        b: u16,
        on_true: u32,
        on_false: u32,
    },
    /// Unconditional jump.
    Jump { to: u32 },
    /// `guards += 1; aux_loads += aux` (guard evaluation site).
    Guard { aux: u64 },
    /// `aux_loads += n` (loop-bound evaluation site).
    BumpAux { n: u64 },
    /// `freg[dst] = v`.
    FConst { dst: u16, v: f32 },
    /// `freg[dst] = fbufs[buf][ireg[idx]]`, charging `aux` loads for the
    /// index expression.
    FLoad {
        dst: u16,
        buf: u32,
        idx: u16,
        aux: u64,
    },
    /// `freg[dst] = ireg[src] as f32`, charging `aux` loads.
    FCast { dst: u16, src: u16, aux: u64 },
    /// `freg[dst] = freg[src]`.
    FCopy { dst: u16, src: u16 },
    /// `freg[dst] = op(freg[a], freg[b])`; `flops += 1`.
    FBin {
        op: FBinOp,
        dst: u16,
        a: u16,
        b: u16,
    },
    /// `freg[dst] = op(freg[a], c)`; `flops += 1` (constant right
    /// operand; constants are side-effect free so fusing preserves both
    /// evaluation order and operand order).
    FBinC {
        op: FBinOp,
        dst: u16,
        a: u16,
        c: f32,
    },
    /// `freg[dst] = op(c, freg[b])`; `flops += 1` (constant left
    /// operand, operand order preserved).
    FBinCL {
        op: FBinOp,
        dst: u16,
        c: f32,
        b: u16,
    },
    /// `freg[dst] = op(freg[a])`; `flops += 1`.
    FUn { op: FUnaryOp, dst: u16, a: u16 },
    /// Store `freg[val]` into `fbufs[buf][ireg[idx]]` with the given
    /// combine rule; charges `aux` index loads, one store, and one flop
    /// for reducing kinds.
    FStore {
        buf: u32,
        idx: u16,
        val: u16,
        kind: StoreKind,
        aux: u64,
    },
    /// (Re)allocate `fbufs[slot]` as `ireg[size]` zeroes; charges `aux`.
    FAlloc { slot: u32, size: u16, aux: u64 },
    /// Fused loop nest (see [`FusedNest`]): a whole one- or two-deep
    /// loop nest around one store in a single dispatch, bit- and
    /// stats-identical to the unfused instruction sequence.
    FNest(Box<FusedNest>),
}

/// One step of a [`FusedNest`] tape, producing SSA temp `t<index>`.
#[derive(Debug, Clone)]
pub(super) enum MapOp {
    /// Broadcast constant.
    Const { v: f32 },
    /// Element load through an affine site.
    Load { site: u16 },
    /// `i64 → f32` cast of an affine index expression.
    Cast { site: u16 },
    /// Binary float op over two earlier temps.
    Bin { op: FBinOp, a: u16, b: u16 },
    /// Unary float op over an earlier temp.
    Un { op: FUnaryOp, a: u16 },
}

/// Registers holding one affine index of a [`FusedNest`] at the nest's
/// first iteration (`base`), one step along the inner loop (`inner`)
/// and — in a two-deep nest — one step along the outer loop (`outer`):
/// `idx(u, t) = base + u·(outer − base) + t·(inner − base)`.
#[derive(Debug, Clone)]
pub(super) struct Probe {
    pub(super) base: u16,
    pub(super) inner: u16,
    pub(super) outer: Option<u16>,
}

/// One affine index site of a [`FusedNest`] tape. `buf == u32::MAX`
/// marks a pure-index [`MapOp::Cast`] site.
#[derive(Debug, Clone)]
pub(super) struct MapSite {
    pub(super) buf: u32,
    pub(super) idx: Probe,
}

/// The fused loop nest: a one- or two-deep nest
/// `for u { for t { out[o(u,t)] (=|+=|max=) f(loads at affine sites) } }`
/// around a single store, where the value expression is branch-free (no
/// selects), the output buffer is not among the loaded ones, and every
/// integer index is affine in the loop variables. The multiply-accumulate
/// nests of GEMM-, score- and AttnV-style operators are the tape
/// `ld a; ld b; fmul` under `+=` ([`NestClass::MulAcc`], classified once
/// at compile time); row sweeps, bias/GELU epilogues and layer-norm
/// passes are longer tapes in the same instruction.
///
/// **Why probes describe an index.** The compiler proves (syntactically)
/// that each index is *bilinear-free affine* in the loop variables — a
/// variable appears only under `+`/`-`/`×`-by-invariant, never inside a
/// buffer load, select, division or min/max, and never multiplied by the
/// other variable — so `idx = base + u·s_o + t·s_i` with constant
/// strides, fully described by its value at the first iteration and one
/// step along each loop (a [`Probe`]). The probes are pure arithmetic
/// over the loop variables (no memory access depends on them), so
/// evaluating them touches exactly the memory a first iteration would.
/// The zero-trip case of the nest's outermost loop is branched around
/// *before* the probes, so an empty loop evaluates nothing — exactly like
/// the unfused back-edge. A two-deep nest's inner bounds are
/// outer-invariant and evaluated once; the serial program charges their
/// static loads per outer iteration, which `aux_inner_bounds` reproduces.
/// (Its *inner* extent is tested at run time, after the probes: a
/// two-deep nest whose inner loop is empty still reads the
/// loop-invariant tables its indices mention, which the serial program
/// would not.)
///
/// **Execution.** The nest's runtime stride pattern is looked up in the
/// one microkernel table ([`crate::microkernel::NEST_KERNELS`]); a
/// matching row runs the whole nest as a native panel. Otherwise the
/// value tree — a flat SSA tape — is evaluated once per outer iteration
/// in small chunks, each tape op applied across the whole chunk
/// (vectorizable slice loops) before the next — legal because elements
/// are independent (the per-element float op sequence is unchanged) —
/// and chunk results are stored in ascending element order, so reducing
/// kinds accumulate in exactly the serial order. Repeated loads of one
/// `(buffer, index)` site are computed once but still charge their aux
/// loads per occurrence, matching the interpreter. Either way the nest
/// performs its iterations in serial nest order and charges the
/// statistics the unfused loops would: per element `aux` auxiliary
/// loads, `flops` float ops and one store.
#[derive(Debug, Clone)]
pub(super) struct FusedNest {
    /// Output buffer slot (proved distinct from every site's buffer).
    pub(super) out: u32,
    pub(super) kind: StoreKind,
    /// The output index.
    pub(super) out_idx: Probe,
    pub(super) sites: Box<[MapSite]>,
    pub(super) tape: Box<[MapOp]>,
    /// What the tape computes, as the kernel table keys it.
    pub(super) class: NestClass,
    /// Register holding the inner trip count.
    pub(super) n_inner: u16,
    /// Register holding the outer trip count of a two-deep nest (present
    /// iff every probe has an `outer` register).
    pub(super) n_outer: Option<u16>,
    /// Static aux loads per element (every load/cast occurrence plus the
    /// store index). `u64`: deeply shared (`Rc`-DAG) index expressions
    /// have exponential static load counts, which the interpreter
    /// charges in full at run time — truncating here would break stats
    /// parity (and used to abort compilation outright).
    pub(super) aux: u64,
    /// Static aux loads of a two-deep nest's inner bounds, charged once
    /// per outer iteration (the serial inner-loop header's `BumpAux`);
    /// zero for a one-deep nest, whose header charges them itself.
    pub(super) aux_inner_bounds: u64,
    /// Float ops per element (tape `Bin`/`Un` plus reducing store).
    pub(super) flops: u64,
}

impl FusedNest {
    /// Classifies a tape under its store kind — the compile-time half of
    /// kernel selection, so the executor never inspects the tape.
    pub(super) fn classify(tape: &[MapOp], kind: StoreKind) -> NestClass {
        use MapOp::{Bin, Load};
        match (tape, kind) {
            (
                [Load { site: 0 }, Load { site: 1 }, Bin {
                    op: FBinOp::Mul,
                    a: 0,
                    b: 1,
                }],
                StoreKind::AddAssign,
            ) => NestClass::MulAcc,
            _ => NestClass::Map,
        }
    }
}

/// A lowered statement compiled to slot-resolved bytecode.
///
/// Immutable after compilation and `Sync`: one program may back any
/// number of concurrent machines / parallel workers.
#[derive(Debug, Clone)]
pub struct VmProgram {
    pub(super) code: Vec<Instr>,
    pub(super) n_iregs: usize,
    pub(super) n_fregs: usize,
    pub(super) slots: StmtSlots,
    /// Float semantics the fused microkernels execute under. `Strict`
    /// (the compile-time default) is bit-identical to the interpreter;
    /// `Fast` permits the documented reassociations/approximations.
    /// Statistics are charged identically in both modes.
    pub(super) math: MathMode,
    /// Source name of each alpha-renamed `For`/`LetInt` binding slot,
    /// indexed by `slot - slots.free_vars.len()` (disassembly only).
    pub(super) var_slot_names: Vec<String>,
    /// Source name of each `Alloc` scratch slot, indexed by
    /// `slot - slots.free_fbufs.len()` (disassembly only).
    pub(super) fbuf_slot_names: Vec<String>,
}

/// Pattern caps: the tape cap sizes the [`FusedNest`] executor's chunk
/// scratch, the site cap bounds the probe rounds a nest's prologue runs.
pub(super) const MAX_MAP_SITES: usize = 12;
pub(super) const MAX_MAP_TAPE: usize = 24;
/// Elements processed per tape sweep.
pub(super) const MAP_CHUNK: usize = 64;

impl VmProgram {
    /// Number of bytecode instructions.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// True for an empty program (e.g. compiled from [`cora_ir::Stmt::Nop`]).
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// The name census the program was resolved against.
    pub fn slots(&self) -> &StmtSlots {
        &self.slots
    }

    /// Counts of the fused superinstructions in the stream, as
    /// `(one-deep mul-acc, two-deep mul-acc, map)` — they disassemble as
    /// `fmulacc`, `fmulacc2` and `fmap`. The autotuner's deterministic
    /// proxy measurer uses these to credit schedules whose loop nests
    /// the fusion pass could collapse into panel microkernels.
    pub fn fused_counts(&self) -> (usize, usize, usize) {
        let mut counts = (0usize, 0usize, 0usize);
        for instr in &self.code {
            if let Instr::FNest(op) = instr {
                match (op.class, op.n_outer) {
                    (NestClass::MulAcc, None) => counts.0 += 1,
                    (NestClass::MulAcc, Some(_)) => counts.1 += 1,
                    (NestClass::Map, _) => counts.2 += 1,
                }
            }
        }
        counts
    }

    /// Float semantics the fused microkernels execute under.
    pub fn math_mode(&self) -> MathMode {
        self.math
    }

    /// Sets the float semantics for subsequent executions. Compilation
    /// always produces [`MathMode::Strict`]; opting into
    /// [`MathMode::Fast`] never changes the instruction stream or the
    /// charged statistics, only which microkernel bodies run.
    pub fn set_math_mode(&mut self, math: MathMode) {
        self.math = math;
    }

    /// Resolves a variable slot back to a source name for diagnostics and
    /// disassembly: free variables print bare, alpha-renamed binding
    /// slots print as `name@slot`.
    pub(super) fn var_name(&self, slot: u32) -> String {
        let free = self.slots.free_vars.len();
        match self.slots.free_vars.names().get(slot as usize) {
            Some(n) => n.clone(),
            None => format!("{}@{slot}", self.var_slot_names[slot as usize - free]),
        }
    }
}

/// Best-effort name for a float-buffer slot (free buffers have names;
/// `Alloc` scratch slots are past the free range).
pub(super) fn fbuf_name(prog: &VmProgram, slot: u32) -> String {
    let free = prog.slots.free_fbufs.len();
    match prog.slots.free_fbufs.names().get(slot as usize) {
        Some(n) => n.clone(),
        None => match prog.fbuf_slot_names.get(slot as usize - free) {
            Some(n) => format!("{n}@{slot}"),
            None => format!("<scratch slot {slot}>"),
        },
    }
}
