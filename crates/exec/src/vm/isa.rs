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
    /// loop nest around one store — optionally inside a ragged row
    /// level — in a single dispatch, bit- and stats-identical to the
    /// unfused instruction sequence.
    FNest(Box<FusedNest>),
    /// Announces the block value `vars[slot]` to the output ports (store
    /// diagnostics): the first instruction of a tile body's block loop
    /// when that loop runs in bytecode.
    EnterBlock { slot: u32 },
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

/// A row-invariant integer operand of a [`FusedNest`], resolved once per
/// execution of the instruction: a literal folded at compile time, or a
/// register the bytecode before the nest computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Coef {
    Lit(i64),
    Reg(u16),
}

impl Coef {
    /// The value, reading `iregs` for a register operand.
    #[inline]
    pub(super) fn get(self, iregs: &[i64]) -> i64 {
        match self {
            Coef::Lit(v) => v,
            Coef::Reg(r) => iregs[r as usize],
        }
    }
}

/// An integer that varies only with the row of a [`FusedNest`]'s row
/// level: `c + step·v + Σ w·T[v]`, over the row variable `v` and
/// auxiliary tables indexed by `v` alone. Without a row level (or for a
/// row-invariant value) only `c` is set.
#[derive(Debug, Clone)]
pub(super) struct RowAffine {
    pub(super) c: Coef,
    pub(super) step: Coef,
    /// `(table slot, weight w)` per table term.
    pub(super) tables: Box<[(u32, Coef)]>,
}

impl RowAffine {
    /// The row-invariant value `c`.
    pub(super) fn invariant(c: Coef) -> RowAffine {
        RowAffine {
            c,
            step: Coef::Lit(0),
            tables: Box::new([]),
        }
    }
}

/// One affine index of a [`FusedNest`]: its value at the nest's first
/// iteration in a row (`base`) and its strides along the inner and
/// outer nest loops (the outer stride is zero in a one-deep nest):
/// `idx(u, t) = base + u·outer + t·inner`.
#[derive(Debug, Clone)]
pub(super) struct NestIndex {
    pub(super) base: RowAffine,
    pub(super) inner: Coef,
    pub(super) outer: Coef,
}

/// One affine index site of a [`FusedNest`] tape. `buf == u32::MAX`
/// marks a pure-index [`MapOp::Cast`] site.
#[derive(Debug, Clone)]
pub(super) struct MapSite {
    pub(super) buf: u32,
    pub(super) idx: NestIndex,
}

/// The ragged row level of a [`FusedNest`]: the loop
/// `for v in [first, first + n)` around the nest, run natively.
#[derive(Debug, Clone)]
pub(super) struct RowLevel {
    /// The row variable's slot (disassembly only: no instruction reads
    /// it).
    pub(super) slot: u32,
    /// Registers holding the first row and the row count.
    pub(super) first: u16,
    pub(super) n: u16,
    /// Static aux loads of the nest's outermost loop header — its bounds,
    /// which the serial row evaluates before its zero-trip test —
    /// charged once per row.
    pub(super) aux: u64,
    /// True when the rows are the blocks of a tile body: each row is
    /// announced to the output ports ([`super::bufs::OutPort::enter_block`])
    /// before it runs, so store diagnostics name the block.
    pub(super) block: bool,
}

/// The fused loop nest: a one- or two-deep nest
/// `for u { for t { out[o(u,t)] (=|+=|max=) f(loads at affine sites) } }`
/// around a single store, where the value expression is branch-free (no
/// selects), the output buffer is not among the loaded ones, and every
/// integer index is affine in the loop variables — optionally inside one
/// *ragged row level* `for v in [first, first + n)`. The
/// multiply-accumulate nests of GEMM-, score- and AttnV-style operators
/// are the tape `ld a; ld b; fmul` under `+=` ([`NestClass::MulAcc`],
/// classified once at compile time); row sweeps, bias/GELU epilogues and
/// layer-norm passes are longer tapes in the same instruction.
///
/// **Indices.** The compiler proves (syntactically) that each index is
/// *bilinear-free affine* in the nest variables — a variable appears
/// only under `+`/`-`/`×`-by-invariant, never inside a buffer load,
/// select, division or min/max, and never multiplied by the other
/// variable — so `idx = base + u·s_o + t·s_i` with strides that do not
/// change during the nest ([`NestIndex`]). The strides are the
/// coefficients of the nest variables, read off the index expression at
/// compile time: literals, or registers the bytecode before the nest
/// computes once per execution. Without a row level, the base is the
/// index evaluated at the nest's first iteration — after the zero-trip
/// test of the nest's outermost loop, so an empty loop evaluates
/// nothing, exactly like the unfused back-edge.
///
/// **The row level.** A loop `for v in [first, first + n)` whose body is
/// one such nest, in which every index and every nest bound is affine in
/// `v` plus auxiliary tables indexed by `v` alone (`T[v]`), with strides
/// and coefficients that are literals or loop-invariant load-free
/// expressions, is the same instruction with [`FusedNest::rows`] set.
/// Every base, extent and stride is then a [`RowAffine`] whose
/// coefficients are resolved once per execution, so a row costs a few
/// table reads instead of a trip through bytecode. Per row the executor
/// charges the outermost nest loop's header loads ([`RowLevel::aux`])
/// and reads its extent — the tables the serial row's header reads —
/// and stops there when the extent is not positive, exactly like the
/// serial zero-trip test: an empty row reads its extent tables and
/// nothing else. Only a non-empty row reads its base tables. Kernel
/// selection and the sweep's set-up happen once per execution, since
/// the strides they depend on do not change from row to row.
///
/// A two-deep nest's inner bounds are outer-invariant and evaluated once
/// per row; the serial program charges their static loads per outer
/// iteration, which `aux_inner_bounds` reproduces. (A two-deep nest
/// without a row level evaluates its bases before testing the inner
/// extent: when that inner loop is empty it still reads the
/// loop-invariant tables its indices mention, which the serial program
/// would not.)
///
/// **Execution.** The nest's stride pattern is looked up in the one
/// microkernel table ([`crate::microkernel::NEST_KERNELS`]); a matching
/// row runs the whole nest (per row of the row level) as a native
/// panel. Otherwise the value tree — a flat SSA tape — is evaluated once
/// per outer iteration in small chunks, each tape op applied across the
/// whole chunk (vectorizable slice loops) before the next — legal because
/// elements are independent (the per-element float op sequence is
/// unchanged) — and chunk results are stored in ascending element order,
/// so reducing kinds accumulate in exactly the serial order. Repeated
/// loads of one `(buffer, index)` site are computed once but still
/// charge their aux loads per occurrence, matching the interpreter.
/// Either way the nest performs its iterations in serial nest order
/// (rows ascending) and charges the statistics the unfused loops would:
/// per element `aux` auxiliary loads, `flops` float ops and one store.
#[derive(Debug, Clone)]
pub(super) struct FusedNest {
    /// Output buffer slot (proved distinct from every site's buffer).
    pub(super) out: u32,
    pub(super) kind: StoreKind,
    /// The output index.
    pub(super) out_idx: NestIndex,
    pub(super) sites: Box<[MapSite]>,
    pub(super) tape: Box<[MapOp]>,
    /// What the tape computes, as the kernel table keys it.
    pub(super) class: NestClass,
    /// The inner trip count.
    pub(super) n_inner: RowAffine,
    /// The outer trip count of a two-deep nest (present iff the nest is
    /// two deep; every index's outer stride is zero otherwise).
    pub(super) n_outer: Option<RowAffine>,
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
    /// The ragged row level around the nest, if any.
    pub(super) rows: Option<RowLevel>,
}

impl FusedNest {
    /// Calls `f` with every integer register the nest reads: the row
    /// level's bounds and every register operand of its forms.
    pub(super) fn for_each_reg(&self, f: &mut impl FnMut(u16)) {
        fn coef(c: &Coef, f: &mut impl FnMut(u16)) {
            if let Coef::Reg(r) = c {
                f(*r);
            }
        }
        fn form(a: &RowAffine, f: &mut impl FnMut(u16)) {
            coef(&a.c, f);
            coef(&a.step, f);
            for (_, w) in a.tables.iter() {
                coef(w, f);
            }
        }
        let sites = self.sites.iter().map(|s| &s.idx);
        for idx in std::iter::once(&self.out_idx).chain(sites) {
            form(&idx.base, f);
            coef(&idx.inner, f);
            coef(&idx.outer, f);
        }
        form(&self.n_inner, f);
        if let Some(n) = &self.n_outer {
            form(n, f);
        }
        if let Some(rows) = &self.rows {
            f(rows.first);
            f(rows.n);
        }
    }

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
/// scratch, the site cap its per-execution axis table.
pub(super) const MAX_MAP_SITES: usize = 12;
pub(super) const MAX_MAP_TAPE: usize = 24;
/// Table terms one [`RowAffine`] may hold: the executor resolves each
/// form into a fixed-size record once per execution.
pub(super) const MAX_ROW_TABLES: usize = 4;
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
    /// `fmulacc`, `fmulacc2` and `fmap`. A nest with a row level counts
    /// by its nest.
    pub fn fused_counts(&self) -> (usize, usize, usize) {
        let mut counts = (0usize, 0usize, 0usize);
        for instr in &self.code {
            if let Instr::FNest(op) = instr {
                match (op.class, &op.n_outer) {
                    (NestClass::MulAcc, None) => counts.0 += 1,
                    (NestClass::MulAcc, Some(_)) => counts.1 += 1,
                    (NestClass::Map, _) => counts.2 += 1,
                }
            }
        }
        counts
    }

    /// The source name of the row variable of every fused nest with a
    /// ragged row level, in stream order — the loops that run natively
    /// row by row instead of through bytecode.
    pub fn fused_row_vars(&self) -> Vec<String> {
        (self.code.iter())
            .filter_map(|instr| match instr {
                Instr::FNest(op) => op.rows.as_ref(),
                _ => None,
            })
            .map(|r| self.var_slot_names[r.slot as usize - self.slots.free_vars.len()].clone())
            .collect()
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
