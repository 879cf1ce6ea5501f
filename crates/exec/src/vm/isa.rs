//! The bytecode ISA and the compiled-program container.
//!
//! Everything here is plain data: the instruction set the
//! [compiler](super::compiler) emits, the fused superinstruction
//! operand records, and [`VmProgram`] — the immutable artefact the
//! [machines](super::machine) execute. No instruction is interpreted
//! in this module (see [`super::dispatch`]).

use cora_ir::slots::StmtSlots;
use cora_ir::{CmpOp, FBinOp, FUnaryOp, IBinOp, StoreKind};

use crate::microkernel::MathMode;

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
    /// Fused multiply-accumulate loop (see [`FusedMulAcc`]): the whole
    /// innermost `for t { out[..] += a[..] * b[..] }` reduction in one
    /// dispatch, bit- and stats-identical to the unfused instruction
    /// sequence.
    FMulAcc(Box<FusedMulAcc>),
    /// Two-level fused multiply-accumulate (see [`FusedMulAcc2`]): a
    /// whole two-deep loop nest in one dispatch.
    FMulAcc2(Box<FusedMulAcc2>),
    /// Fused map/reduce loop (see [`FusedMap`]): a branch-free store
    /// loop executed as a float-op tape over element chunks.
    FMap(Box<FusedMap>),
}

/// One step of a [`FusedMap`] tape, producing SSA temp `t<index>`.
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

/// One affine index site of a [`FusedMap`]: `idx(t) = r0 + t·(r1 − r0)`.
/// `buf == u32::MAX` marks a pure-index [`MapOp::Cast`] site.
#[derive(Debug, Clone)]
pub(super) struct MapSite {
    pub(super) buf: u32,
    pub(super) r0: u16,
    pub(super) r1: u16,
}

/// The fused map/reduce loop: an innermost
/// `for t { out[o(t)] (=|+=|max=) f(loads at affine sites) }` where the
/// value expression is branch-free (no selects) and every integer index
/// is affine in the loop variable.
///
/// The value tree compiles to a flat SSA tape; execution processes the
/// iteration space in small chunks, applying each tape op across the
/// whole chunk (vectorizable slice loops) before the next — legal
/// because elements are independent (the per-element float op sequence
/// is unchanged) — then stores chunk results in ascending element
/// order, so reducing kinds accumulate in exactly the serial order.
/// Repeated loads of one `(buffer, index)` site are computed once but
/// still charge their aux loads per occurrence, matching the
/// interpreter. Statistics per element are static: `aux` auxiliary
/// loads, `flops` float ops (tape ops plus one for reducing stores) and
/// one store.
#[derive(Debug, Clone)]
pub(super) struct FusedMap {
    pub(super) out: u32,
    /// Output index probes at `t = min` / `t = min + 1`.
    pub(super) o0: u16,
    pub(super) o1: u16,
    pub(super) kind: StoreKind,
    pub(super) sites: Box<[MapSite]>,
    pub(super) tape: Box<[MapOp]>,
    /// Register holding the trip count.
    pub(super) n: u16,
    /// Static aux loads per element (every load/cast occurrence plus the
    /// store index). `u64`: deeply shared (`Rc`-DAG) index expressions
    /// have exponential static load counts, which the interpreter
    /// charges in full at run time — truncating here would break stats
    /// parity (and used to abort compilation outright).
    pub(super) aux: u64,
    /// Float ops per element (tape `Bin`/`Un` plus reducing store).
    pub(super) flops: u64,
}

/// Operands of the fused multiply-accumulate loop.
///
/// The compiler proves (syntactically) that all three index expressions
/// are *affine* in the loop variable — the variable appears only under
/// `+`/`-`/`×`-by-invariant, never inside a buffer load, select,
/// division or min/max — so each index is fully
/// described by its value at `i = min` (the `*0` registers) and at
/// `i = min + 1` (the `*1` registers): `idx(t) = idx0 + t·(idx1 - idx0)`.
/// Both probes are pure arithmetic over the loop variable (no memory
/// access depends on it), so evaluating them touches exactly the memory
/// a first iteration would.
///
/// Executing the instruction performs `n` iterations of
/// `out[o(t)] += a[a(t)] * b[b(t)]` in serial order and charges the same
/// statistics the unfused loop would: per iteration `aux` auxiliary
/// loads (the three indices' static load counts), two FLOPs (multiply +
/// add-assign) and one store. The zero-trip case is branched around
/// before the index probes, so an empty loop executes nothing — exactly
/// like the unfused back-edge.
#[derive(Debug, Clone)]
pub(super) struct FusedMulAcc {
    /// Output buffer slot (proved distinct from `a` and `b`).
    pub(super) out: u32,
    /// Left operand buffer slot.
    pub(super) a: u32,
    /// Right operand buffer slot.
    pub(super) b: u32,
    /// Registers holding each index at `i = min` / `i = min + 1`.
    pub(super) o0: u16,
    pub(super) o1: u16,
    pub(super) a0: u16,
    pub(super) a1: u16,
    pub(super) b0: u16,
    pub(super) b1: u16,
    /// Register holding the trip count (the loop extent).
    pub(super) n: u16,
    /// Static aux loads charged per iteration (all three indices); `u64`
    /// because shared expression DAGs count exponentially (see
    /// [`FusedMap::aux`]).
    pub(super) aux: u64,
}

/// Operands of the two-level fused multiply-accumulate loop: a whole
/// `for o { for i { out[..] += a[..] · b[..] } }` nest in one dispatch.
///
/// All three indices are proven *bilinear-free* 2-D affine in the two
/// loop variables (`idx = base + o·so + i·si` with constant strides), so
/// three probes fully describe each: at `(o₀, i₀)` (`*00`), at
/// `(o₀, i₀+1)` (`*0i`, inner stride) and at `(o₀+1, i₀)` (`*0o`, outer
/// stride). The inner bounds are outer-invariant and evaluated once; the
/// serial program charges their static loads per outer iteration, which
/// [`FusedMulAcc2::aux_inner_bounds`] reproduces.
///
/// The common stride shapes execute as native *panels* — the i-k-j GEMM
/// row (`out_row += a[t]·b_row(t)`, vectorizable) and the per-row dot
/// (`out[t] += a_row(t)·b_row(t)`) — with bit-identical results and
/// statistics to the unfused nest.
#[derive(Debug, Clone)]
pub(super) struct FusedMulAcc2 {
    /// Output buffer slot (proved distinct from `a` and `b`).
    pub(super) out: u32,
    /// Left operand buffer slot.
    pub(super) a: u32,
    /// Right operand buffer slot.
    pub(super) b: u32,
    /// Index probes (see type docs).
    pub(super) o00: u16,
    pub(super) o0i: u16,
    pub(super) o0o: u16,
    pub(super) a00: u16,
    pub(super) a0i: u16,
    pub(super) a0o: u16,
    pub(super) b00: u16,
    pub(super) b0i: u16,
    pub(super) b0o: u16,
    /// Registers holding the outer / inner trip counts.
    pub(super) n_outer: u16,
    pub(super) n_inner: u16,
    /// Static aux loads charged per inner iteration (all three indices);
    /// `u64` because shared expression DAGs count exponentially (see
    /// [`FusedMap::aux`]).
    pub(super) aux: u64,
    /// Static aux loads of the inner loop's bounds, charged once per
    /// outer iteration (the serial inner-loop header's `BumpAux`).
    pub(super) aux_inner_bounds: u64,
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

/// Pattern caps keeping the [`FusedMap`] executor's stack scratch small.
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
    /// `(fmulacc, fmulacc2, fmap)`. The autotuner's deterministic proxy
    /// measurer uses these to credit schedules whose loop nests the
    /// fusion pass could collapse into panel microkernels.
    pub fn fused_counts(&self) -> (usize, usize, usize) {
        let mut counts = (0usize, 0usize, 0usize);
        for instr in &self.code {
            match instr {
                Instr::FMulAcc(_) => counts.0 += 1,
                Instr::FMulAcc2(_) => counts.1 += 1,
                Instr::FMap(_) => counts.2 += 1,
                _ => {}
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
