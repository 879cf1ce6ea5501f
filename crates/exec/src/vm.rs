//! A slot-resolved bytecode VM: the compiled execution tier for lowered
//! statements.
//!
//! The tree-walking interpreter ([`crate::interp::Machine`]) defines the
//! IR's semantics, but it pays a `HashMap<String, i64>` lookup for every
//! variable, auxiliary-buffer and uninterpreted-function access, recurses
//! through `Rc` expression trees, and allocates a fresh `Vec` per
//! expression just to count aux loads. [`compile`] removes all three
//! costs:
//!
//! * **Slot resolution** ([`cora_ir::slots`]): every name the statement
//!   references is interned to a dense index. Free variables, auxiliary
//!   buffers, float buffers and UF tables become positions in flat `Vec`s
//!   bound once before execution; each `For`/`LetInt` binding site and
//!   each `Alloc` site is alpha-renamed to its own fresh slot past the
//!   free range, so shadowing needs no save/restore at run time.
//! * **Flattening**: expressions become straight-line register
//!   instructions over `Vec<i64>`/`Vec<f32>` register files; loops and
//!   conditionals become explicit jumps. Conditions compile to
//!   short-circuit branch chains in the interpreter's evaluation order,
//!   so exactly the same sub-expressions execute (and can panic) in both
//!   tiers.
//! * **Static instruction-mix metadata**: the per-expression aux-load
//!   counts the interpreter derives by collecting loads into a `Vec` are
//!   computed once at compile time and attached to the instructions that
//!   charge them, so a [`VmMachine`] run produces *identical*
//!   [`InterpStats`] to the tree walker by construction. The interpreter
//!   stays as semantic ground truth; differential tests assert
//!   bit-identical outputs and stats between the two tiers.
//! * **Loop fusion** (`FusedMulAcc`/`FusedMulAcc2`/`FusedMap`): an
//!   innermost reduction of the
//!   shape `out[i(t)] += A[j(t)] · B[k(t)]` with indices provably affine
//!   in the loop variable — the inner loop of every GEMM-, score- and
//!   AttnV-style operator — compiles to a single instruction that runs
//!   the whole loop natively (vectorizable for the unit-stride shapes),
//!   with bit-identical results and statistics to the unfused form.
//!
//! Float buffers can be *owned* by the machine (the classic
//! [`VmMachine`] interface) or *borrowed* from the caller
//! ([`VmShared::run_borrowed`] serially, [`VmShared::run_blocks_borrowed`]
//! in parallel, both binding [`BoundBuf`] slices): multi-operator
//! pipelines keep their intermediates in one arena and hand each stage
//! views instead of moving vectors in and out per call.
//!
//! # Parallel execution
//!
//! A [`VmProgram`] is immutable after compilation and `Sync`
//! (compile-time asserted below), so one compiled artefact can back many
//! concurrent executions. The split mirrors that:
//!
//! * [`VmShared`] holds the *shared, immutable* per-run bindings — free
//!   variables, auxiliary buffers, read-only float inputs, UF tables —
//!   bound once on the calling thread;
//! * each worker carries only *cheap private* state (register files, loop
//!   variables, `Alloc` scratch, an [`InterpStats`] accumulator), created
//!   per batch by [`VmShared::run_blocks`];
//! * the single written buffer (the kernel output) is shared through
//!   `SharedOut`, whose soundness rests on the outliner's guarantee
//!   that different block indices store to disjoint output elements.
//!
//! Statistics are plain counters, so summing the per-worker accumulators
//! reproduces the serial run's numbers exactly, regardless of how blocks
//! were scheduled.
//!
//! The disassembler ([`VmProgram`]'s `Display` impl) prints one
//! instruction per line with every slot resolved back to its source name,
//! so golden tests can diff the compiled form of a kernel.

use std::cell::Cell;
use std::fmt;
use std::sync::{Arc, Mutex};

use cora_ir::fexpr::apply_unary;
use cora_ir::interval::SInt;
use cora_ir::slots::StmtSlots;
use cora_ir::visit::{count_cond_loads, count_loads};
use cora_ir::{
    Cond, CondKind, Env, Expr, ExprKind, FExpr, FExprKind, FUnaryOp, Stmt, StoreKind, UfHandle,
};

use crate::cpu::CpuPool;
use crate::interp::InterpStats;
use crate::microkernel::{self, AxpyKind, MathMode, PanelKind, PanelShape};

/// Integer ALU operations (mirror [`ExprKind`] binary nodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum IBinOp {
    Add,
    Sub,
    Mul,
    FloorDiv,
    FloorMod,
    Min,
    Max,
}

/// Float ALU operations (mirror [`FExprKind`] binary nodes).
#[derive(Debug, Clone, Copy)]
enum FBinOp {
    Add,
    Sub,
    Mul,
    Div,
    Max,
}

/// Comparison operators for branch instructions.
#[derive(Debug, Clone, Copy)]
enum CmpOp {
    Lt,
    Le,
    Eq,
    Ne,
}

/// One bytecode instruction. Jump targets are program counters after
/// [`Compiler::finish`] resolves labels.
#[derive(Debug, Clone)]
enum Instr {
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
    /// `ireg[dst] = ufs[uf](ireg[args..])`.
    IUf { dst: u16, uf: u32, args: Box<[u16]> },
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
enum MapOp {
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
struct MapSite {
    buf: u32,
    r0: u16,
    r1: u16,
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
struct FusedMap {
    out: u32,
    /// Output index probes at `t = min` / `t = min + 1`.
    o0: u16,
    o1: u16,
    kind: StoreKind,
    sites: Box<[MapSite]>,
    tape: Box<[MapOp]>,
    /// Register holding the trip count.
    n: u16,
    /// Static aux loads per element (every load/cast occurrence plus the
    /// store index). `u64`: deeply shared (`Rc`-DAG) index expressions
    /// have exponential static load counts, which the interpreter
    /// charges in full at run time — truncating here would break stats
    /// parity (and used to abort compilation outright).
    aux: u64,
    /// Float ops per element (tape `Bin`/`Un` plus reducing store).
    flops: u64,
}

/// Operands of the fused multiply-accumulate loop.
///
/// The compiler proves (syntactically) that all three index expressions
/// are *affine* in the loop variable — the variable appears only under
/// `+`/`-`/`×`-by-invariant, never inside a buffer load, uninterpreted
/// function, select, division or min/max — so each index is fully
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
struct FusedMulAcc {
    /// Output buffer slot (proved distinct from `a` and `b`).
    out: u32,
    /// Left operand buffer slot.
    a: u32,
    /// Right operand buffer slot.
    b: u32,
    /// Registers holding each index at `i = min` / `i = min + 1`.
    o0: u16,
    o1: u16,
    a0: u16,
    a1: u16,
    b0: u16,
    b1: u16,
    /// Register holding the trip count (the loop extent).
    n: u16,
    /// Static aux loads charged per iteration (all three indices); `u64`
    /// because shared expression DAGs count exponentially (see
    /// [`FusedMap::aux`]).
    aux: u64,
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
struct FusedMulAcc2 {
    /// Output buffer slot (proved distinct from `a` and `b`).
    out: u32,
    /// Left operand buffer slot.
    a: u32,
    /// Right operand buffer slot.
    b: u32,
    /// Index probes (see type docs).
    o00: u16,
    o0i: u16,
    o0o: u16,
    a00: u16,
    a0i: u16,
    a0o: u16,
    b00: u16,
    b0i: u16,
    b0o: u16,
    /// Registers holding the outer / inner trip counts.
    n_outer: u16,
    n_inner: u16,
    /// Static aux loads charged per inner iteration (all three indices);
    /// `u64` because shared expression DAGs count exponentially (see
    /// [`FusedMap::aux`]).
    aux: u64,
    /// Static aux loads of the inner loop's bounds, charged once per
    /// outer iteration (the serial inner-loop header's `BumpAux`).
    aux_inner_bounds: u64,
}

/// A lowered statement compiled to slot-resolved bytecode.
///
/// Immutable after compilation and `Sync`: one program may back any
/// number of concurrent [`VmMachine`]s / parallel workers.
#[derive(Debug, Clone)]
pub struct VmProgram {
    code: Vec<Instr>,
    n_iregs: usize,
    n_fregs: usize,
    slots: StmtSlots,
    /// Float semantics the fused microkernels execute under. `Strict`
    /// (the compile-time default) is bit-identical to the interpreter;
    /// `Fast` permits the documented reassociations/approximations.
    /// Statistics are charged identically in both modes.
    math: MathMode,
    /// Source name of each alpha-renamed `For`/`LetInt` binding slot,
    /// indexed by `slot - slots.free_vars.len()` (disassembly only).
    var_slot_names: Vec<String>,
    /// Source name of each `Alloc` scratch slot, indexed by
    /// `slot - slots.free_fbufs.len()` (disassembly only).
    fbuf_slot_names: Vec<String>,
}

/// Compile-time proof that a compiled program (and the shared binding
/// state built on top of it) can be handed to worker threads by
/// reference.
const _: () = {
    const fn assert_sync<T: Sync>() {}
    assert_sync::<VmProgram>();
    assert_sync::<VmShared<'static>>();
};

/// Compiles a lowered statement to bytecode.
///
/// The result is immutable and reusable: create a fresh [`VmMachine`]
/// per execution (or reuse one across runs of the same bindings).
pub fn compile(stmt: &Stmt) -> VmProgram {
    let slots = StmtSlots::resolve(stmt);
    let mut c = Compiler {
        code: Vec::new(),
        labels: Vec::new(),
        iregs: RegAlloc::default(),
        fregs: RegAlloc::default(),
        var_scope: Vec::new(),
        fbuf_scope: Vec::new(),
        next_var_slot: u32::try_from(slots.free_vars.len()).expect("var census fits u32"),
        next_fbuf_slot: u32::try_from(slots.free_fbufs.len()).expect("fbuf census fits u32"),
        var_slot_names: Vec::new(),
        fbuf_slot_names: Vec::new(),
        slots,
    };
    c.stmt(stmt);
    c.finish()
}

impl VmProgram {
    /// Number of bytecode instructions.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// True for an empty program (e.g. compiled from [`Stmt::Nop`]).
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

    /// Creates a fresh machine with all external bindings unset.
    pub fn machine(&self) -> VmMachine<'_> {
        let s = &self.slots;
        VmMachine {
            prog: self,
            vars: vec![0; s.var_slot_count()],
            var_bound: vec![false; s.free_vars.len()],
            ibufs: vec![Arc::from([]); s.ibufs.len()],
            ibuf_bound: vec![false; s.ibufs.len()],
            fbufs: vec![Vec::new(); s.fbuf_slot_count()],
            fbuf_bound: vec![false; s.free_fbufs.len()],
            ufs: vec![None; s.ufs.len()],
            iregs: vec![0; self.n_iregs],
            fregs: vec![0.0; self.n_fregs],
            uf_args: Vec::new(),
            stats: InterpStats::default(),
        }
    }

    /// Creates the shared, immutable binding table for parallel block
    /// execution ([`VmShared::run_blocks`]): bind everything once on the
    /// calling thread, then dispatch blocks across a [`CpuPool`].
    pub fn shared(&self) -> VmShared<'_> {
        let s = &self.slots;
        VmShared {
            prog: self,
            vars: vec![0; s.var_slot_count()],
            var_bound: vec![false; s.free_vars.len()],
            ibufs: vec![Arc::from([]); s.ibufs.len()],
            ibuf_bound: vec![false; s.ibufs.len()],
            fbufs: vec![Vec::new(); s.free_fbufs.len()],
            fbuf_bound: vec![false; s.free_fbufs.len()],
            ufs: vec![None; s.ufs.len()],
        }
    }

    /// Resolves a variable slot back to a source name for diagnostics and
    /// disassembly: free variables print bare, alpha-renamed binding
    /// slots print as `name@slot`.
    fn var_name(&self, slot: u32) -> String {
        let free = self.slots.free_vars.len();
        match self.slots.free_vars.names().get(slot as usize) {
            Some(n) => n.clone(),
            None => format!("{}@{slot}", self.var_slot_names[slot as usize - free]),
        }
    }

    /// Validates the compiled stream against the program's own censuses
    /// and register files.
    ///
    /// Checks, in order: every jump target lands inside the program (or
    /// one past the end — the halt address); every variable / integer
    /// buffer / float buffer / UF slot is within its census and UF call
    /// arities match; every register index is within the allocated
    /// file; fused-superinstruction metadata is self-consistent (a
    /// `FusedMap`'s static flop count equals its tape, tape operands
    /// are in SSA order, `FMulAcc`/`FMulAcc2` outputs are distinct from
    /// their operands, `FAlloc` only targets scratch slots); and — via
    /// a forward dataflow pass with intersection merge over the
    /// instruction-level CFG — no integer or float register is read on
    /// *any* path before an instruction wrote it.
    ///
    /// This is the bytecode layer of the three-layer safety story (see
    /// the README's "Safety & verification"): a regression net under
    /// the compiler's CSE/DCE/register-renaming passes, run on every
    /// `CompiledProgram::compile`.
    pub fn validate(&self) -> Result<(), String> {
        let code = &self.code;
        let n = code.len();
        let s = &self.slots;
        let n_vars = s.var_slot_count();
        let n_ibufs = s.ibufs.len();
        let n_fbufs = s.fbuf_slot_count();
        let free_fbufs = s.free_fbufs.len();
        let n_ufs = s.ufs.len();

        /// Per-pc effect summary feeding the dataflow pass: integer /
        /// float register uses and defs, plus CFG successors.
        struct Fx {
            ui: Vec<u16>,
            uf: Vec<u16>,
            di: Vec<u16>,
            df: Vec<u16>,
            succ: Vec<usize>,
        }
        let mut fx: Vec<Fx> = Vec::with_capacity(n);

        for (pc, ins) in code.iter().enumerate() {
            let ck_var = |slot: u32| -> Result<(), String> {
                if (slot as usize) < n_vars {
                    Ok(())
                } else {
                    Err(format!(
                        "bytecode pc {pc} ({ins:?}): variable slot {slot} out of census ({n_vars} slots)"
                    ))
                }
            };
            let ck_ibuf = |buf: u32| -> Result<(), String> {
                if (buf as usize) < n_ibufs {
                    Ok(())
                } else {
                    Err(format!(
                        "bytecode pc {pc} ({ins:?}): integer buffer slot {buf} out of census ({n_ibufs} buffers)"
                    ))
                }
            };
            let ck_fbuf = |buf: u32| -> Result<(), String> {
                if (buf as usize) < n_fbufs {
                    Ok(())
                } else {
                    Err(format!(
                        "bytecode pc {pc} ({ins:?}): float buffer slot {buf} out of census ({n_fbufs} buffers)"
                    ))
                }
            };
            let mut e = Fx {
                ui: Vec::new(),
                uf: Vec::new(),
                di: Vec::new(),
                df: Vec::new(),
                succ: vec![pc + 1],
            };
            match ins {
                Instr::IConst { dst, .. } => e.di.push(*dst),
                Instr::IVar { dst, slot } => {
                    ck_var(*slot)?;
                    e.di.push(*dst);
                }
                Instr::ICopy { dst, src } => {
                    e.ui.push(*src);
                    e.di.push(*dst);
                }
                Instr::IBin { dst, a, b, .. } => {
                    e.ui.extend([*a, *b]);
                    e.di.push(*dst);
                }
                Instr::ILoad { dst, buf, idx } => {
                    ck_ibuf(*buf)?;
                    e.ui.push(*idx);
                    e.di.push(*dst);
                }
                Instr::ILoadV { dst, buf, vslot } => {
                    ck_ibuf(*buf)?;
                    ck_var(*vslot)?;
                    e.di.push(*dst);
                }
                Instr::IBinC { dst, a, .. } => {
                    e.ui.push(*a);
                    e.di.push(*dst);
                }
                Instr::IBinV { dst, a, vslot, .. } => {
                    ck_var(*vslot)?;
                    e.ui.push(*a);
                    e.di.push(*dst);
                }
                Instr::IUf { dst, uf, args } => {
                    if *uf as usize >= n_ufs {
                        return Err(format!(
                            "bytecode pc {pc} ({ins:?}): UF slot {uf} out of census ({n_ufs} UFs)"
                        ));
                    }
                    let arity = s.uf_arities[*uf as usize];
                    if args.len() != arity {
                        return Err(format!(
                            "bytecode pc {pc} ({ins:?}): UF call arity {} disagrees with census arity {arity}",
                            args.len()
                        ));
                    }
                    e.ui.extend(args.iter().copied());
                    e.di.push(*dst);
                }
                Instr::SetVar { slot, src } | Instr::LetVar { slot, src, .. } => {
                    ck_var(*slot)?;
                    e.ui.push(*src);
                }
                Instr::BrVarGe { slot, lim, to } => {
                    ck_var(*slot)?;
                    e.ui.push(*lim);
                    e.succ.push(*to as usize);
                }
                Instr::LoopNext { slot, lim, back } => {
                    ck_var(*slot)?;
                    e.ui.push(*lim);
                    e.succ.push(*back as usize);
                }
                Instr::BrCmp {
                    a,
                    b,
                    on_true,
                    on_false,
                    ..
                } => {
                    e.ui.extend([*a, *b]);
                    e.succ = vec![*on_true as usize, *on_false as usize];
                }
                Instr::Jump { to } => e.succ = vec![*to as usize],
                Instr::Guard { .. } | Instr::BumpAux { .. } => {}
                Instr::FConst { dst, .. } => e.df.push(*dst),
                Instr::FLoad { dst, buf, idx, .. } => {
                    ck_fbuf(*buf)?;
                    e.ui.push(*idx);
                    e.df.push(*dst);
                }
                Instr::FCast { dst, src, .. } => {
                    e.ui.push(*src);
                    e.df.push(*dst);
                }
                Instr::FCopy { dst, src } => {
                    e.uf.push(*src);
                    e.df.push(*dst);
                }
                Instr::FBin { dst, a, b, .. } => {
                    e.uf.extend([*a, *b]);
                    e.df.push(*dst);
                }
                Instr::FBinC { dst, a, .. } => {
                    e.uf.push(*a);
                    e.df.push(*dst);
                }
                Instr::FBinCL { dst, b, .. } => {
                    e.uf.push(*b);
                    e.df.push(*dst);
                }
                Instr::FUn { dst, a, .. } => {
                    e.uf.push(*a);
                    e.df.push(*dst);
                }
                Instr::FStore { buf, idx, val, .. } => {
                    ck_fbuf(*buf)?;
                    e.ui.push(*idx);
                    e.uf.push(*val);
                }
                Instr::FAlloc { slot, size, .. } => {
                    if (*slot as usize) < free_fbufs || (*slot as usize) >= n_fbufs {
                        return Err(format!(
                            "bytecode pc {pc} ({ins:?}): FAlloc targets non-scratch slot {slot} \
                             (scratch slots are {free_fbufs}..{n_fbufs})"
                        ));
                    }
                    e.ui.push(*size);
                }
                Instr::FMulAcc(m) => {
                    for b in [m.out, m.a, m.b] {
                        ck_fbuf(b)?;
                    }
                    if m.out == m.a || m.out == m.b {
                        return Err(format!(
                            "bytecode pc {pc} ({ins:?}): FMulAcc output buffer aliases an operand"
                        ));
                    }
                    e.ui.extend([m.o0, m.o1, m.a0, m.a1, m.b0, m.b1, m.n]);
                }
                Instr::FMulAcc2(m) => {
                    for b in [m.out, m.a, m.b] {
                        ck_fbuf(b)?;
                    }
                    if m.out == m.a || m.out == m.b {
                        return Err(format!(
                            "bytecode pc {pc} ({ins:?}): FMulAcc2 output buffer aliases an operand"
                        ));
                    }
                    e.ui.extend([
                        m.o00, m.o0i, m.o0o, m.a00, m.a0i, m.a0o, m.b00, m.b0i, m.b0o, m.n_outer,
                        m.n_inner,
                    ]);
                }
                Instr::FMap(m) => {
                    ck_fbuf(m.out)?;
                    e.ui.extend([m.o0, m.o1, m.n]);
                    for site in m.sites.iter() {
                        if site.buf != u32::MAX {
                            ck_fbuf(site.buf)?;
                        }
                        e.ui.extend([site.r0, site.r1]);
                    }
                    if m.tape.is_empty() {
                        return Err(format!("bytecode pc {pc}: FMap with an empty tape"));
                    }
                    let mut flops = 0u64;
                    for (ti, op) in m.tape.iter().enumerate() {
                        match op {
                            MapOp::Const { .. } => {}
                            MapOp::Load { site } => {
                                if *site as usize >= m.sites.len()
                                    || m.sites[*site as usize].buf == u32::MAX
                                {
                                    return Err(format!(
                                        "bytecode pc {pc}: FMap tape op {ti} loads through an \
                                         invalid site {site}"
                                    ));
                                }
                            }
                            MapOp::Cast { site } => {
                                if *site as usize >= m.sites.len()
                                    || m.sites[*site as usize].buf != u32::MAX
                                {
                                    return Err(format!(
                                        "bytecode pc {pc}: FMap tape op {ti} casts through a \
                                         non-index site {site}"
                                    ));
                                }
                            }
                            MapOp::Bin { a, b, .. } => {
                                if *a as usize >= ti || *b as usize >= ti {
                                    return Err(format!(
                                        "bytecode pc {pc}: FMap tape op {ti} reads a temp that \
                                         is not yet computed"
                                    ));
                                }
                                flops += 1;
                            }
                            MapOp::Un { a, .. } => {
                                if *a as usize >= ti {
                                    return Err(format!(
                                        "bytecode pc {pc}: FMap tape op {ti} reads a temp that \
                                         is not yet computed"
                                    ));
                                }
                                flops += 1;
                            }
                        }
                    }
                    if !matches!(m.kind, StoreKind::Assign) {
                        flops += 1;
                    }
                    if flops != m.flops {
                        return Err(format!(
                            "bytecode pc {pc}: FMap static flop metadata {} disagrees with its \
                             tape ({flops} per element)",
                            m.flops
                        ));
                    }
                }
            }
            for &r in e.ui.iter().chain(&e.di) {
                if r as usize >= self.n_iregs {
                    return Err(format!(
                        "bytecode pc {pc} ({ins:?}): integer register r{r} out of file \
                         ({} allocated)",
                        self.n_iregs
                    ));
                }
            }
            for &r in e.uf.iter().chain(&e.df) {
                if r as usize >= self.n_fregs {
                    return Err(format!(
                        "bytecode pc {pc} ({ins:?}): float register f{r} out of file \
                         ({} allocated)",
                        self.n_fregs
                    ));
                }
            }
            for &t in &e.succ {
                if t > n {
                    return Err(format!(
                        "bytecode pc {pc} ({ins:?}): jump target {t} beyond program end {n}"
                    ));
                }
            }
            fx.push(e);
        }

        // Def-before-use: forward dataflow over the instruction-level
        // CFG with *intersection* merge, so a register counts as
        // defined at a join only if every incoming path defined it.
        // Intersection over a finite bitset lattice is monotone
        // decreasing, so the worklist terminates.
        let wi = self.n_iregs.div_ceil(64).max(1);
        let wf = self.n_fregs.div_ceil(64).max(1);
        let has = |bits: &[u64], r: u16| bits[r as usize / 64] >> (r as usize % 64) & 1 == 1;
        let set = |bits: &mut [u64], r: u16| bits[r as usize / 64] |= 1 << (r as usize % 64);
        let mut states: Vec<Option<(Vec<u64>, Vec<u64>)>> = vec![None; n];
        let mut work = std::collections::VecDeque::new();
        if n > 0 {
            states[0] = Some((vec![0u64; wi], vec![0u64; wf]));
            work.push_back(0usize);
        }
        while let Some(pc) = work.pop_front() {
            let (mut bi, mut bf) = states[pc].clone().expect("queued pcs have a state");
            let e = &fx[pc];
            for &r in &e.ui {
                if !has(&bi, r) {
                    return Err(format!(
                        "bytecode pc {pc} ({:?}): integer register r{r} may be read before any \
                         write reaches it",
                        code[pc]
                    ));
                }
            }
            for &r in &e.uf {
                if !has(&bf, r) {
                    return Err(format!(
                        "bytecode pc {pc} ({:?}): float register f{r} may be read before any \
                         write reaches it",
                        code[pc]
                    ));
                }
            }
            for &r in &e.di {
                set(&mut bi, r);
            }
            for &r in &e.df {
                set(&mut bf, r);
            }
            for &t in &e.succ {
                if t == n {
                    continue;
                }
                match &mut states[t] {
                    st @ None => {
                        *st = Some((bi.clone(), bf.clone()));
                        work.push_back(t);
                    }
                    Some((si, sf)) => {
                        let mut changed = false;
                        for (w, v) in si.iter_mut().zip(&bi) {
                            let m = *w & *v;
                            if m != *w {
                                *w = m;
                                changed = true;
                            }
                        }
                        for (w, v) in sf.iter_mut().zip(&bf) {
                            let m = *w & *v;
                            if m != *w {
                                *w = m;
                                changed = true;
                            }
                        }
                        if changed {
                            work.push_back(t);
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Disassembler
// ---------------------------------------------------------------------

/// Disassembly: one instruction per line (`pc  mnemonic operands`), with
/// every variable, buffer and UF slot resolved back to its source name.
/// Alpha-renamed binding slots print as `name@slot` so shadowed loops
/// stay distinguishable. Golden tests diff this text to catch bytecode
/// and outlining regressions.
impl fmt::Display for VmProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ibin = |op: IBinOp| match op {
            IBinOp::Add => "iadd",
            IBinOp::Sub => "isub",
            IBinOp::Mul => "imul",
            IBinOp::FloorDiv => "idiv",
            IBinOp::FloorMod => "imod",
            IBinOp::Min => "imin",
            IBinOp::Max => "imax",
        };
        let fbin = |op: FBinOp| match op {
            FBinOp::Add => "fadd",
            FBinOp::Sub => "fsub",
            FBinOp::Mul => "fmul",
            FBinOp::Div => "fdiv",
            FBinOp::Max => "fmax",
        };
        let cmp = |op: CmpOp| match op {
            CmpOp::Lt => "br.lt",
            CmpOp::Le => "br.le",
            CmpOp::Eq => "br.eq",
            CmpOp::Ne => "br.ne",
        };
        let var = |slot: u32| self.var_name(slot);
        let ibuf = |slot: u32| self.slots.ibufs.names()[slot as usize].clone();
        let fbuf = |slot: u32| fbuf_name(self, slot);
        for (pc, instr) in self.code.iter().enumerate() {
            let line = match instr {
                Instr::IConst { dst, v } => format!("iconst   r{dst}, {v}"),
                Instr::IVar { dst, slot } => format!("ivar     r{dst}, {}", var(*slot)),
                Instr::ICopy { dst, src } => format!("icopy    r{dst}, r{src}"),
                Instr::IBin { op, dst, a, b } => {
                    format!("{:<8} r{dst}, r{a}, r{b}", ibin(*op))
                }
                Instr::IBinC { op, dst, a, c } => {
                    format!("{:<8} r{dst}, r{a}, #{c}", format!("{}.c", ibin(*op)))
                }
                Instr::IBinV { op, dst, a, vslot } => {
                    format!(
                        "{:<8} r{dst}, r{a}, {}",
                        format!("{}.v", ibin(*op)),
                        var(*vslot)
                    )
                }
                Instr::ILoad { dst, buf, idx } => {
                    format!("iload    r{dst}, {}[r{idx}]", ibuf(*buf))
                }
                Instr::ILoadV { dst, buf, vslot } => {
                    format!("iload.v  r{dst}, {}[{}]", ibuf(*buf), var(*vslot))
                }
                Instr::IUf { dst, uf, args } => {
                    let args: Vec<String> = args.iter().map(|a| format!("r{a}")).collect();
                    format!(
                        "iuf      r{dst}, {}({})",
                        self.slots.ufs.names()[*uf as usize],
                        args.join(", ")
                    )
                }
                Instr::SetVar { slot, src } => format!("setvar   {}, r{src}", var(*slot)),
                Instr::LetVar { slot, src, aux } => {
                    format!("letvar   {}, r{src}, aux={aux}", var(*slot))
                }
                Instr::BrVarGe { slot, lim, to } => {
                    format!("br.ge    {}, r{lim} -> {to}", var(*slot))
                }
                Instr::LoopNext { slot, lim, back } => {
                    format!("loop     {}, r{lim} -> {back}", var(*slot))
                }
                Instr::BrCmp {
                    op,
                    a,
                    b,
                    on_true,
                    on_false,
                } => format!("{:<8} r{a}, r{b} -> {on_true}, {on_false}", cmp(*op)),
                Instr::Jump { to } => format!("jump     -> {to}"),
                Instr::Guard { aux } => format!("guard    aux={aux}"),
                Instr::BumpAux { n } => format!("bumpaux  n={n}"),
                Instr::FConst { dst, v } => format!("fconst   f{dst}, {v:?}"),
                Instr::FLoad { dst, buf, idx, aux } => {
                    format!("fload    f{dst}, {}[r{idx}], aux={aux}", fbuf(*buf))
                }
                Instr::FCast { dst, src, aux } => {
                    format!("fcast    f{dst}, r{src}, aux={aux}")
                }
                Instr::FCopy { dst, src } => format!("fcopy    f{dst}, f{src}"),
                Instr::FBin { op, dst, a, b } => {
                    format!("{:<8} f{dst}, f{a}, f{b}", fbin(*op))
                }
                Instr::FBinC { op, dst, a, c } => {
                    format!("{:<8} f{dst}, f{a}, #{c:?}", format!("{}.c", fbin(*op)))
                }
                Instr::FBinCL { op, dst, c, b } => {
                    format!("{:<8} f{dst}, #{c:?}, f{b}", format!("{}.cl", fbin(*op)))
                }
                Instr::FUn { op, dst, a } => {
                    let name = match op {
                        FUnaryOp::Neg => "f.neg",
                        FUnaryOp::Exp => "f.exp",
                        FUnaryOp::Sqrt => "f.sqrt",
                        FUnaryOp::Recip => "f.recip",
                        FUnaryOp::Tanh => "f.tanh",
                        FUnaryOp::Relu => "f.relu",
                    };
                    format!("{name:<8} f{dst}, f{a}")
                }
                Instr::FStore {
                    buf,
                    idx,
                    val,
                    kind,
                    aux,
                } => {
                    let k = match kind {
                        StoreKind::Assign => "assign",
                        StoreKind::AddAssign => "add",
                        StoreKind::MaxAssign => "max",
                    };
                    format!("fstore   {}[r{idx}], f{val}, {k}, aux={aux}", fbuf(*buf))
                }
                Instr::FAlloc { slot, size, aux } => {
                    format!("falloc   {}, r{size}, aux={aux}", fbuf(*slot))
                }
                Instr::FMulAcc(op) => {
                    format!(
                        "fmulacc  {}[r{}:r{}] += {}[r{}:r{}] * {}[r{}:r{}], n=r{}, aux={}",
                        fbuf(op.out),
                        op.o0,
                        op.o1,
                        fbuf(op.a),
                        op.a0,
                        op.a1,
                        fbuf(op.b),
                        op.b0,
                        op.b1,
                        op.n,
                        op.aux
                    )
                }
                Instr::FMap(op) => {
                    let sites: Vec<String> = op
                        .sites
                        .iter()
                        .map(|s| {
                            if s.buf == u32::MAX {
                                format!("<idx r{}:r{}>", s.r0, s.r1)
                            } else {
                                format!("{}[r{}:r{}]", fbuf(s.buf), s.r0, s.r1)
                            }
                        })
                        .collect();
                    let tape: Vec<String> = op
                        .tape
                        .iter()
                        .map(|o| match o {
                            MapOp::Const { v } => format!("#{v:?}"),
                            MapOp::Load { site } => format!("ld{site}"),
                            MapOp::Cast { site } => format!("cast{site}"),
                            MapOp::Bin { op, a, b } => format!("{} t{a} t{b}", fbin(*op)),
                            MapOp::Un { op, a } => {
                                let name = match op {
                                    FUnaryOp::Neg => "neg",
                                    FUnaryOp::Exp => "exp",
                                    FUnaryOp::Sqrt => "sqrt",
                                    FUnaryOp::Recip => "recip",
                                    FUnaryOp::Tanh => "tanh",
                                    FUnaryOp::Relu => "relu",
                                };
                                format!("{name} t{a}")
                            }
                        })
                        .collect();
                    let k = match op.kind {
                        StoreKind::Assign => "assign",
                        StoreKind::AddAssign => "add",
                        StoreKind::MaxAssign => "max",
                    };
                    format!(
                        "fmap     {}[r{}:r{}] {k} ({}), sites=[{}], n=r{}, aux={}, flops={}",
                        fbuf(op.out),
                        op.o0,
                        op.o1,
                        tape.join("; "),
                        sites.join(", "),
                        op.n,
                        op.aux,
                        op.flops
                    )
                }
                Instr::FMulAcc2(op) => {
                    format!(
                        "fmulacc2 {}[r{}:r{}:r{}] += {}[r{}:r{}:r{}] * {}[r{}:r{}:r{}], \
                         n=r{}xr{}, aux={}, baux={}",
                        fbuf(op.out),
                        op.o00,
                        op.o0i,
                        op.o0o,
                        fbuf(op.a),
                        op.a00,
                        op.a0i,
                        op.a0o,
                        fbuf(op.b),
                        op.b00,
                        op.b0i,
                        op.b0o,
                        op.n_outer,
                        op.n_inner,
                        op.aux,
                        op.aux_inner_bounds
                    )
                }
            };
            writeln!(f, "{pc:>4}  {line}")?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Compiler
// ---------------------------------------------------------------------

/// Stack-disciplined scratch-register allocator: expression compilation
/// allocates upward and releases back to a mark; values that must survive
/// a sub-compilation (a loop limit across its body) simply keep their
/// mark held. `max` becomes the register-file size.
#[derive(Debug, Default)]
struct RegAlloc {
    next: u16,
    max: u16,
}

impl RegAlloc {
    fn alloc(&mut self) -> u16 {
        let r = self.next;
        self.next = self.next.checked_add(1).expect("register file overflow");
        self.max = self.max.max(self.next);
        r
    }

    fn mark(&self) -> u16 {
        self.next
    }

    fn release(&mut self, mark: u16) {
        self.next = mark;
    }
}

/// Builder state for one [`FusedMap`] tape.
#[derive(Default)]
struct MapBuild {
    /// `(buffer slot | u32::MAX for casts, index expr)` per site.
    sites: Vec<(u32, Expr)>,
    /// `(slot, rendered index)` → temp id, for site deduplication.
    memo: std::collections::HashMap<(u32, String), u16>,
    tape: Vec<MapOp>,
    /// Static aux loads per element (occurrence-counted).
    aux: u64,
    /// Float (tape) ops per element.
    flops: u64,
}

/// Pattern caps keeping the [`FusedMap`] executor's stack scratch small.
const MAX_MAP_SITES: usize = 12;
const MAX_MAP_TAPE: usize = 24;
/// Elements processed per tape sweep.
const MAP_CHUNK: usize = 64;

/// Reusable chunk scratch for [`run_fused_map`], owned by the dispatch
/// loop so the ~6 KiB zero-fill happens once per dispatch instead of
/// once per fused-map execution (which, in the outlined parallel tier,
/// would mean once per row). Every tape op fully overwrites its
/// `dst[..m]` slice before anything reads it, so stale chunk contents
/// are never observed.
struct MapScratch([[f32; MAP_CHUNK]; MAX_MAP_TAPE]);

impl Default for MapScratch {
    fn default() -> Self {
        MapScratch([[0f32; MAP_CHUNK]; MAX_MAP_TAPE])
    }
}

struct Compiler {
    code: Vec<Instr>,
    /// Label id -> program counter (`u32::MAX` until placed).
    labels: Vec<u32>,
    iregs: RegAlloc,
    fregs: RegAlloc,
    /// Active `For`/`LetInt` bindings (name -> alpha-renamed slot).
    var_scope: Vec<(String, u32)>,
    /// Active `Alloc` bindings (name -> alpha-renamed slot).
    fbuf_scope: Vec<(String, u32)>,
    next_var_slot: u32,
    next_fbuf_slot: u32,
    /// Source names of alpha-renamed binding slots, in slot order.
    var_slot_names: Vec<String>,
    /// Source names of `Alloc` scratch slots, in slot order.
    fbuf_slot_names: Vec<String>,
    slots: StmtSlots,
}

impl Compiler {
    fn new_label(&mut self) -> u32 {
        let id = u32::try_from(self.labels.len()).expect("label count fits u32");
        self.labels.push(u32::MAX);
        id
    }

    fn place(&mut self, label: u32) {
        self.labels[label as usize] = u32::try_from(self.code.len()).expect("code fits u32");
    }

    fn emit(&mut self, i: Instr) {
        self.code.push(i);
    }

    fn resolve_var(&self, name: &str) -> u32 {
        if let Some((_, slot)) = self.var_scope.iter().rev().find(|(n, _)| n == name) {
            return *slot;
        }
        self.slots
            .free_vars
            .get(name)
            .unwrap_or_else(|| panic!("unresolved variable `{name}`"))
    }

    fn resolve_fbuf(&self, name: &str) -> u32 {
        if let Some((_, slot)) = self.fbuf_scope.iter().rev().find(|(n, _)| n == name) {
            return *slot;
        }
        self.slots
            .free_fbufs
            .get(name)
            .unwrap_or_else(|| panic!("unresolved float buffer `{name}`"))
    }

    fn push_var(&mut self, name: &str) -> u32 {
        let slot = self.next_var_slot;
        self.next_var_slot += 1;
        self.var_scope.push((name.to_string(), slot));
        self.var_slot_names.push(name.to_string());
        slot
    }

    fn push_fbuf(&mut self, name: &str) -> u32 {
        let slot = self.next_fbuf_slot;
        self.next_fbuf_slot += 1;
        self.fbuf_scope.push((name.to_string(), slot));
        self.fbuf_slot_names.push(name.to_string());
        slot
    }

    /// Compiles `e` into a fresh register and returns it. Emits no stat
    /// bumps: integer-expression aux loads are charged statically at each
    /// statement-level evaluation site, exactly like the interpreter's
    /// `eval_counting` (which counts the whole tree, both `Select`
    /// branches included, regardless of what actually executes).
    fn expr(&mut self, e: &Expr) -> u16 {
        // Neutral-element peephole on the shapes Algorithm-1 offset
        // lowering produces (`0 + x`, `x*1`, ...). Only literal operands
        // are discarded, so evaluation order, panic behaviour and the
        // (separately pre-computed) load counts are all unchanged.
        match e.kind() {
            ExprKind::Add(a, b) if a.as_int() == Some(0) => return self.expr(b),
            ExprKind::Add(a, b) if b.as_int() == Some(0) => return self.expr(a),
            ExprKind::Sub(a, b) if b.as_int() == Some(0) => return self.expr(a),
            ExprKind::Mul(a, b) if b.as_int() == Some(1) => return self.expr(a),
            ExprKind::Mul(a, b) if a.as_int() == Some(1) => return self.expr(b),
            _ => {}
        }
        match e.kind() {
            ExprKind::Int(v) => {
                let dst = self.iregs.alloc();
                self.emit(Instr::IConst { dst, v: *v });
                dst
            }
            ExprKind::Var(n) => {
                let slot = self.resolve_var(n);
                let dst = self.iregs.alloc();
                self.emit(Instr::IVar { dst, slot });
                dst
            }
            ExprKind::Add(a, b) => self.ibin(IBinOp::Add, a, b),
            ExprKind::Sub(a, b) => self.ibin(IBinOp::Sub, a, b),
            ExprKind::Mul(a, b) => self.ibin(IBinOp::Mul, a, b),
            ExprKind::FloorDiv(a, b) => self.ibin(IBinOp::FloorDiv, a, b),
            ExprKind::FloorMod(a, b) => self.ibin(IBinOp::FloorMod, a, b),
            ExprKind::Min(a, b) => self.ibin(IBinOp::Min, a, b),
            ExprKind::Max(a, b) => self.ibin(IBinOp::Max, a, b),
            ExprKind::Select(c, a, b) => {
                // The interpreter's `Env::eval` evaluates only the taken
                // branch and counts no guard; mirror with a plain branch.
                let dst = self.iregs.alloc();
                let (l_then, l_else, l_end) =
                    (self.new_label(), self.new_label(), self.new_label());
                self.cond(c, l_then, l_else);
                self.place(l_then);
                let m = self.iregs.mark();
                let r = self.expr(a);
                self.emit(Instr::ICopy { dst, src: r });
                self.iregs.release(m);
                self.emit(Instr::Jump { to: l_end });
                self.place(l_else);
                let r = self.expr(b);
                self.emit(Instr::ICopy { dst, src: r });
                self.iregs.release(m);
                self.place(l_end);
                dst
            }
            ExprKind::Uf(f, args) => {
                let m = self.iregs.mark();
                let regs: Box<[u16]> = args.iter().map(|a| self.expr(a)).collect();
                self.iregs.release(m);
                let dst = self.iregs.alloc();
                let uf =
                    self.slots.ufs.get(f.name()).unwrap_or_else(|| {
                        panic!("unresolved uninterpreted function `{}`", f.name())
                    });
                self.emit(Instr::IUf {
                    dst,
                    uf,
                    args: regs,
                });
                dst
            }
            ExprKind::Load(buf, idx) => {
                let b = self
                    .slots
                    .ibufs
                    .get(buf)
                    .unwrap_or_else(|| panic!("unresolved auxiliary buffer `{buf}`"));
                // Peephole: `aux[var]` is the hot ragged-access shape.
                if let ExprKind::Var(n) = idx.kind() {
                    let vslot = self.resolve_var(n);
                    let dst = self.iregs.alloc();
                    self.emit(Instr::ILoadV { dst, buf: b, vslot });
                    return dst;
                }
                let m = self.iregs.mark();
                let r_idx = self.expr(idx);
                self.iregs.release(m);
                let dst = self.iregs.alloc();
                self.emit(Instr::ILoad {
                    dst,
                    buf: b,
                    idx: r_idx,
                });
                dst
            }
        }
    }

    fn ibin(&mut self, op: IBinOp, a: &Expr, b: &Expr) -> u16 {
        // Peephole right-operand fusions. Constants and variables are
        // side-effect free, so evaluation order and stats are unchanged.
        match b.kind() {
            ExprKind::Int(c) => {
                let m = self.iregs.mark();
                let ra = self.expr(a);
                self.iregs.release(m);
                let dst = self.iregs.alloc();
                self.emit(Instr::IBinC {
                    op,
                    dst,
                    a: ra,
                    c: *c,
                });
                return dst;
            }
            ExprKind::Var(n) => {
                let vslot = self.resolve_var(n);
                let m = self.iregs.mark();
                let ra = self.expr(a);
                self.iregs.release(m);
                let dst = self.iregs.alloc();
                self.emit(Instr::IBinV {
                    op,
                    dst,
                    a: ra,
                    vslot,
                });
                return dst;
            }
            _ => {}
        }
        let m = self.iregs.mark();
        let ra = self.expr(a);
        let rb = self.expr(b);
        self.iregs.release(m);
        let dst = self.iregs.alloc();
        self.emit(Instr::IBin {
            op,
            dst,
            a: ra,
            b: rb,
        });
        dst
    }

    /// Compiles `c` as a short-circuit branch chain jumping to `on_true`
    /// or `on_false`. Evaluation order matches `Env::eval_cond`: `&&`
    /// evaluates its right side only when the left is true, `||` only
    /// when the left is false.
    fn cond(&mut self, c: &Cond, on_true: u32, on_false: u32) {
        match c.kind() {
            CondKind::Const(b) => {
                let to = if *b { on_true } else { on_false };
                self.emit(Instr::Jump { to });
            }
            CondKind::Lt(a, b) => self.cmp(CmpOp::Lt, a, b, on_true, on_false),
            CondKind::Le(a, b) => self.cmp(CmpOp::Le, a, b, on_true, on_false),
            CondKind::Eq(a, b) => self.cmp(CmpOp::Eq, a, b, on_true, on_false),
            CondKind::Ne(a, b) => self.cmp(CmpOp::Ne, a, b, on_true, on_false),
            CondKind::And(a, b) => {
                let mid = self.new_label();
                self.cond(a, mid, on_false);
                self.place(mid);
                self.cond(b, on_true, on_false);
            }
            CondKind::Or(a, b) => {
                let mid = self.new_label();
                self.cond(a, on_true, mid);
                self.place(mid);
                self.cond(b, on_true, on_false);
            }
            CondKind::Not(a) => self.cond(a, on_false, on_true),
        }
    }

    fn cmp(&mut self, op: CmpOp, a: &Expr, b: &Expr, on_true: u32, on_false: u32) {
        let m = self.iregs.mark();
        let ra = self.expr(a);
        let rb = self.expr(b);
        self.iregs.release(m);
        self.emit(Instr::BrCmp {
            op,
            a: ra,
            b: rb,
            on_true,
            on_false,
        });
    }

    /// Compiles a float expression into a fresh float register. Float
    /// arithmetic bumps `flops` per executed instruction; integer index
    /// sub-expressions charge their static aux-load counts when (and only
    /// when) their `FLoad`/`FCast` executes — the interpreter's dynamic
    /// behaviour for float `Select` branches.
    fn fexpr(&mut self, e: &FExpr) -> u16 {
        match e.kind() {
            FExprKind::Const(v) => {
                let dst = self.fregs.alloc();
                self.emit(Instr::FConst { dst, v: *v });
                dst
            }
            FExprKind::Load(buf, idx) => {
                let m = self.iregs.mark();
                let r_idx = self.expr(idx);
                self.iregs.release(m);
                let dst = self.fregs.alloc();
                let b = self.resolve_fbuf(buf);
                self.emit(Instr::FLoad {
                    dst,
                    buf: b,
                    idx: r_idx,
                    aux: count_loads(idx),
                });
                dst
            }
            FExprKind::Cast(i) => {
                let m = self.iregs.mark();
                let r = self.expr(i);
                self.iregs.release(m);
                let dst = self.fregs.alloc();
                self.emit(Instr::FCast {
                    dst,
                    src: r,
                    aux: count_loads(i),
                });
                dst
            }
            FExprKind::Add(a, b) => self.fbin(FBinOp::Add, a, b),
            FExprKind::Sub(a, b) => self.fbin(FBinOp::Sub, a, b),
            FExprKind::Mul(a, b) => self.fbin(FBinOp::Mul, a, b),
            FExprKind::Div(a, b) => self.fbin(FBinOp::Div, a, b),
            FExprKind::Max(a, b) => self.fbin(FBinOp::Max, a, b),
            FExprKind::Unary(op, a) => {
                let m = self.fregs.mark();
                let ra = self.fexpr(a);
                self.fregs.release(m);
                let dst = self.fregs.alloc();
                self.emit(Instr::FUn {
                    op: *op,
                    dst,
                    a: ra,
                });
                dst
            }
            FExprKind::Select(c, a, b) => {
                let dst = self.fregs.alloc();
                // Interpreter parity: a float select is a guard and (after
                // the stats-parity fix) charges its condition's aux loads,
                // exactly like `Stmt::If`.
                self.emit(Instr::Guard {
                    aux: count_cond_loads(c),
                });
                let (l_then, l_else, l_end) =
                    (self.new_label(), self.new_label(), self.new_label());
                self.cond(c, l_then, l_else);
                self.place(l_then);
                let m = self.fregs.mark();
                let r = self.fexpr(a);
                self.emit(Instr::FCopy { dst, src: r });
                self.fregs.release(m);
                self.emit(Instr::Jump { to: l_end });
                self.place(l_else);
                let r = self.fexpr(b);
                self.emit(Instr::FCopy { dst, src: r });
                self.fregs.release(m);
                self.place(l_end);
                dst
            }
        }
    }

    fn fbin(&mut self, op: FBinOp, a: &FExpr, b: &FExpr) -> u16 {
        // Peephole constant-operand fusions; operand order is preserved
        // (no commutativity assumptions), so results stay bit-identical.
        if let FExprKind::Const(c) = b.kind() {
            let m = self.fregs.mark();
            let ra = self.fexpr(a);
            self.fregs.release(m);
            let dst = self.fregs.alloc();
            self.emit(Instr::FBinC {
                op,
                dst,
                a: ra,
                c: *c,
            });
            return dst;
        }
        if let FExprKind::Const(c) = a.kind() {
            let m = self.fregs.mark();
            let rb = self.fexpr(b);
            self.fregs.release(m);
            let dst = self.fregs.alloc();
            self.emit(Instr::FBinCL {
                op,
                dst,
                c: *c,
                b: rb,
            });
            return dst;
        }
        let m = self.fregs.mark();
        let ra = self.fexpr(a);
        let rb = self.fexpr(b);
        self.fregs.release(m);
        let dst = self.fregs.alloc();
        self.emit(Instr::FBin {
            op,
            dst,
            a: ra,
            b: rb,
        });
        dst
    }

    /// Attempts to compile `for var in min..min+extent { body }` as one
    /// [`FusedMulAcc`] instruction. Succeeds only for the canonical
    /// reduction shape `out[i(var)] += A[j(var)] * B[k(var)]` with all
    /// three indices affine in `var` and the output buffer distinct from
    /// both operands — the inner loop of every lowered GEMM-, score- and
    /// AttnV-style operator. Returns `false` (and emits nothing) when the
    /// pattern does not apply; the caller then compiles the loop normally.
    fn try_fused_mul_acc(&mut self, var: &str, min: &Expr, extent: &Expr, body: &Stmt) -> bool {
        // Prefer fusing a whole two-deep nest (this loop + the loop
        // directly inside it) when the body is itself a loop around the
        // canonical store — the GEMM/scores/AttnV shape.
        if let Stmt::For {
            var: ivar,
            min: imin,
            extent: iext,
            body: ibody,
            kind: _,
        } = body
        {
            if self.try_fused_mul_acc2(var, min, extent, ivar, imin, iext, ibody) {
                return true;
            }
        }
        let Some((buffer, index, abuf, aidx, bbuf, bidx)) = as_mul_acc_store(body) else {
            return false;
        };
        if !is_affine_in(index, var) || !is_affine_in(aidx, var) || !is_affine_in(bidx, var) {
            return false;
        }
        let out = self.resolve_fbuf(buffer);
        let a_slot = self.resolve_fbuf(abuf);
        let b_slot = self.resolve_fbuf(bbuf);
        // The fused form accumulates out-of-buffer (and `saxpy` splits
        // borrows), so the output must not alias either operand.
        if a_slot == out || b_slot == out {
            return false;
        }

        let im = self.iregs.mark();
        let r_min = self.expr(min);
        let r_ext = self.expr(extent);
        // Loop bounds charge their static load counts once, exactly like
        // the unfused loop header.
        self.emit(Instr::BumpAux {
            n: count_loads(min) + count_loads(extent),
        });
        let slot = self.push_var(var);
        self.emit(Instr::SetVar { slot, src: r_min });
        // Zero-trip guard *before* the index probes: an empty loop must
        // evaluate nothing, like the unfused `BrVarGe` would ensure.
        let rz = self.iregs.alloc();
        self.emit(Instr::IConst { dst: rz, v: 0 });
        let (l_run, l_end) = (self.new_label(), self.new_label());
        self.emit(Instr::BrCmp {
            op: CmpOp::Le,
            a: r_ext,
            b: rz,
            on_true: l_end,
            on_false: l_run,
        });
        self.place(l_run);
        // Probe each index at i = min and i = min + 1; affine-ness makes
        // the pair a full description (base + stride).
        let o0 = self.expr(index);
        let a0 = self.expr(aidx);
        let b0 = self.expr(bidx);
        let bump = self.iregs.alloc();
        self.emit(Instr::IVar { dst: bump, slot });
        self.emit(Instr::IBinC {
            op: IBinOp::Add,
            dst: bump,
            a: bump,
            c: 1,
        });
        self.emit(Instr::SetVar { slot, src: bump });
        let o1 = self.expr(index);
        let a1 = self.expr(aidx);
        let b1 = self.expr(bidx);
        self.emit(Instr::FMulAcc(Box::new(FusedMulAcc {
            out,
            a: a_slot,
            b: b_slot,
            o0,
            o1,
            a0,
            a1,
            b0,
            b1,
            n: r_ext,
            aux: count_loads(index) + count_loads(aidx) + count_loads(bidx),
        })));
        self.place(l_end);
        self.var_scope.pop();
        self.iregs.release(im);
        true
    }

    /// Attempts to compile the two-deep nest
    /// `for ovar { for ivar { out[..] += A[..] * B[..] } }` as one
    /// [`FusedMulAcc2`]. Requires all three indices bilinear-free 2-D
    /// affine in `(ivar, ovar)` and the inner bounds outer-invariant;
    /// returns `false` (emitting nothing) otherwise.
    #[allow(clippy::too_many_arguments)]
    fn try_fused_mul_acc2(
        &mut self,
        ovar: &str,
        omin: &Expr,
        oext: &Expr,
        ivar: &str,
        imin: &Expr,
        iext: &Expr,
        body: &Stmt,
    ) -> bool {
        if ovar == ivar {
            return false;
        }
        let Some((buffer, index, abuf, aidx, bbuf, bidx)) = as_mul_acc_store(body) else {
            return false;
        };
        // Inner bounds are hoisted out of the outer loop, so they must
        // not depend on it.
        if expr_mentions(imin, ovar) || expr_mentions(iext, ovar) {
            return false;
        }
        if !is_affine2(index, ivar, ovar)
            || !is_affine2(aidx, ivar, ovar)
            || !is_affine2(bidx, ivar, ovar)
        {
            return false;
        }
        let out = self.resolve_fbuf(buffer);
        let a_slot = self.resolve_fbuf(abuf);
        let b_slot = self.resolve_fbuf(bbuf);
        if a_slot == out || b_slot == out {
            return false;
        }

        let im = self.iregs.mark();
        let r_omin = self.expr(omin);
        let r_oext = self.expr(oext);
        self.emit(Instr::BumpAux {
            n: count_loads(omin) + count_loads(oext),
        });
        let oslot = self.push_var(ovar);
        self.emit(Instr::SetVar {
            slot: oslot,
            src: r_omin,
        });
        let rz = self.iregs.alloc();
        self.emit(Instr::IConst { dst: rz, v: 0 });
        let (l_run, l_end) = (self.new_label(), self.new_label());
        self.emit(Instr::BrCmp {
            op: CmpOp::Le,
            a: r_oext,
            b: rz,
            on_true: l_end,
            on_false: l_run,
        });
        self.place(l_run);
        // Inner bounds, evaluated once (outer-invariant); the serial
        // nest charges their loads per outer iteration — reproduced by
        // `aux_inner_bounds` at run time.
        let r_imin = self.expr(imin);
        let r_iext = self.expr(iext);
        let islot = self.push_var(ivar);
        self.emit(Instr::SetVar {
            slot: islot,
            src: r_imin,
        });
        // Probes at (o₀, i₀), (o₀, i₀+1) and (o₀+1, i₀).
        let o00 = self.expr(index);
        let a00 = self.expr(aidx);
        let b00 = self.expr(bidx);
        let bump_i = self.iregs.alloc();
        self.emit(Instr::IVar {
            dst: bump_i,
            slot: islot,
        });
        self.emit(Instr::IBinC {
            op: IBinOp::Add,
            dst: bump_i,
            a: bump_i,
            c: 1,
        });
        self.emit(Instr::SetVar {
            slot: islot,
            src: bump_i,
        });
        let o0i = self.expr(index);
        let a0i = self.expr(aidx);
        let b0i = self.expr(bidx);
        self.emit(Instr::SetVar {
            slot: islot,
            src: r_imin,
        });
        let bump_o = self.iregs.alloc();
        self.emit(Instr::IVar {
            dst: bump_o,
            slot: oslot,
        });
        self.emit(Instr::IBinC {
            op: IBinOp::Add,
            dst: bump_o,
            a: bump_o,
            c: 1,
        });
        self.emit(Instr::SetVar {
            slot: oslot,
            src: bump_o,
        });
        let o0o = self.expr(index);
        let a0o = self.expr(aidx);
        let b0o = self.expr(bidx);
        self.emit(Instr::FMulAcc2(Box::new(FusedMulAcc2 {
            out,
            a: a_slot,
            b: b_slot,
            o00,
            o0i,
            o0o,
            a00,
            a0i,
            a0o,
            b00,
            b0i,
            b0o,
            n_outer: r_oext,
            n_inner: r_iext,
            aux: count_loads(index) + count_loads(aidx) + count_loads(bidx),
            aux_inner_bounds: count_loads(imin) + count_loads(iext),
        })));
        self.place(l_end);
        self.var_scope.pop();
        self.var_scope.pop();
        self.iregs.release(im);
        true
    }

    /// Builds the [`FusedMap`] tape for `e`, returning the producing temp
    /// id, or `None` when `e` contains a select or a non-affine index.
    /// Repeated `(buffer, index)` sites are memoised into one temp but
    /// still charge their aux loads per occurrence.
    fn map_tape(&self, e: &FExpr, var: &str, mb: &mut MapBuild) -> Option<u16> {
        let t = match e.kind() {
            FExprKind::Const(v) => {
                mb.tape.push(MapOp::Const { v: *v });
                mb.tape.len() - 1
            }
            FExprKind::Load(buf, idx) => {
                if !is_affine_in(idx, var) {
                    return None;
                }
                let slot = self.resolve_fbuf(buf);
                mb.aux += count_loads(idx);
                let key = (slot, format!("{idx}"));
                if let Some(&t) = mb.memo.get(&key) {
                    return Some(t);
                }
                let site = u16::try_from(mb.sites.len()).ok()?;
                mb.sites.push((slot, idx.clone()));
                mb.tape.push(MapOp::Load { site });
                let t = (mb.tape.len() - 1) as u16;
                mb.memo.insert(key, t);
                return Some(t);
            }
            FExprKind::Cast(i) => {
                if !is_affine_in(i, var) {
                    return None;
                }
                mb.aux += count_loads(i);
                let key = (u32::MAX, format!("{i}"));
                if let Some(&t) = mb.memo.get(&key) {
                    return Some(t);
                }
                let site = u16::try_from(mb.sites.len()).ok()?;
                mb.sites.push((u32::MAX, i.clone()));
                mb.tape.push(MapOp::Cast { site });
                let t = (mb.tape.len() - 1) as u16;
                mb.memo.insert(key, t);
                return Some(t);
            }
            FExprKind::Add(a, b) => self.map_bin(FBinOp::Add, a, b, var, mb)?,
            FExprKind::Sub(a, b) => self.map_bin(FBinOp::Sub, a, b, var, mb)?,
            FExprKind::Mul(a, b) => self.map_bin(FBinOp::Mul, a, b, var, mb)?,
            FExprKind::Div(a, b) => self.map_bin(FBinOp::Div, a, b, var, mb)?,
            FExprKind::Max(a, b) => self.map_bin(FBinOp::Max, a, b, var, mb)?,
            FExprKind::Unary(op, a) => {
                let ta = self.map_tape(a, var, mb)?;
                mb.flops += 1;
                mb.tape.push(MapOp::Un { op: *op, a: ta });
                mb.tape.len() - 1
            }
            FExprKind::Select(_, _, _) => return None,
        };
        u16::try_from(t).ok()
    }

    fn map_bin(
        &self,
        op: FBinOp,
        a: &FExpr,
        b: &FExpr,
        var: &str,
        mb: &mut MapBuild,
    ) -> Option<usize> {
        let ta = self.map_tape(a, var, mb)?;
        let tb = self.map_tape(b, var, mb)?;
        mb.flops += 1;
        mb.tape.push(MapOp::Bin { op, a: ta, b: tb });
        Some(mb.tape.len() - 1)
    }

    /// Attempts to compile `for var { out[..] (=|+=|max=) f(..) }` as one
    /// [`FusedMap`]. Applies to branch-free bodies whose every integer
    /// index is affine in `var` (and that do not load the output buffer,
    /// which chunked evaluation could observe mid-store). Returns `false`
    /// (emitting nothing) when the pattern does not apply.
    fn try_fused_map(&mut self, var: &str, min: &Expr, extent: &Expr, body: &Stmt) -> bool {
        let Stmt::Store {
            buffer,
            index,
            value,
            kind,
        } = body
        else {
            return false;
        };
        if !is_affine_in(index, var) {
            return false;
        }
        let out = self.resolve_fbuf(buffer);
        let mut mb = MapBuild::default();
        if self.map_tape(value, var, &mut mb).is_none() {
            return false;
        }
        if mb.sites.len() > MAX_MAP_SITES || mb.tape.len() > MAX_MAP_TAPE {
            return false;
        }
        if mb.sites.iter().any(|(slot, _)| *slot == out) {
            return false;
        }
        let aux = mb.aux + count_loads(index);
        let flops = mb.flops + u64::from(!matches!(kind, StoreKind::Assign));

        let im = self.iregs.mark();
        let r_min = self.expr(min);
        let r_ext = self.expr(extent);
        self.emit(Instr::BumpAux {
            n: count_loads(min) + count_loads(extent),
        });
        let slot = self.push_var(var);
        self.emit(Instr::SetVar { slot, src: r_min });
        let rz = self.iregs.alloc();
        self.emit(Instr::IConst { dst: rz, v: 0 });
        let (l_run, l_end) = (self.new_label(), self.new_label());
        self.emit(Instr::BrCmp {
            op: CmpOp::Le,
            a: r_ext,
            b: rz,
            on_true: l_end,
            on_false: l_run,
        });
        self.place(l_run);
        let o0 = self.expr(index);
        let site_exprs: Vec<Expr> = mb.sites.iter().map(|(_, e)| e.clone()).collect();
        let r0s: Vec<u16> = site_exprs.iter().map(|e| self.expr(e)).collect();
        let bump = self.iregs.alloc();
        self.emit(Instr::IVar { dst: bump, slot });
        self.emit(Instr::IBinC {
            op: IBinOp::Add,
            dst: bump,
            a: bump,
            c: 1,
        });
        self.emit(Instr::SetVar { slot, src: bump });
        let o1 = self.expr(index);
        let r1s: Vec<u16> = site_exprs.iter().map(|e| self.expr(e)).collect();
        let sites: Box<[MapSite]> = mb
            .sites
            .iter()
            .zip(r0s.iter().zip(&r1s))
            .map(|((slot, _), (&r0, &r1))| MapSite { buf: *slot, r0, r1 })
            .collect();
        self.emit(Instr::FMap(Box::new(FusedMap {
            out,
            o0,
            o1,
            kind: *kind,
            sites,
            tape: mb.tape.into_boxed_slice(),
            n: r_ext,
            aux,
            flops,
        })));
        self.place(l_end);
        self.var_scope.pop();
        self.iregs.release(im);
        true
    }

    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::For {
                var,
                min,
                extent,
                body,
                kind: _,
            } => {
                if self.try_fused_mul_acc(var, min, extent, body) {
                    return;
                }
                if self.try_fused_map(var, min, extent, body) {
                    return;
                }
                let im = self.iregs.mark();
                let r_min = self.expr(min);
                let r_ext = self.expr(extent);
                // Loop bounds are evaluated once per For execution; the
                // interpreter charges their static load counts there.
                self.emit(Instr::BumpAux {
                    n: count_loads(min) + count_loads(extent),
                });
                let slot = self.push_var(var);
                self.emit(Instr::SetVar { slot, src: r_min });
                // The limit register must survive the body: release the
                // operand marks, then hold one register for lo + n.
                self.iregs.release(im);
                let r_lim = self.iregs.alloc();
                self.emit(Instr::IBin {
                    op: IBinOp::Add,
                    dst: r_lim,
                    a: r_min,
                    b: r_ext,
                });
                let (l_body, l_exit) = (self.new_label(), self.new_label());
                // Zero-trip test once, then a fused increment+test+jump
                // back-edge: one dispatch of loop overhead per iteration.
                self.emit(Instr::BrVarGe {
                    slot,
                    lim: r_lim,
                    to: l_exit,
                });
                self.place(l_body);
                self.stmt(body);
                self.emit(Instr::LoopNext {
                    slot,
                    lim: r_lim,
                    back: l_body,
                });
                self.place(l_exit);
                self.var_scope.pop();
                self.iregs.release(im);
            }
            Stmt::LetInt { var, value, body } => {
                let m = self.iregs.mark();
                let r = self.expr(value);
                self.iregs.release(m);
                let slot = self.push_var(var);
                self.emit(Instr::LetVar {
                    slot,
                    src: r,
                    aux: count_loads(value),
                });
                self.stmt(body);
                self.var_scope.pop();
            }
            Stmt::Store {
                buffer,
                index,
                value,
                kind,
            } => {
                let im = self.iregs.mark();
                let fm = self.fregs.mark();
                let r_idx = self.expr(index);
                let r_val = self.fexpr(value);
                let buf = self.resolve_fbuf(buffer);
                self.emit(Instr::FStore {
                    buf,
                    idx: r_idx,
                    val: r_val,
                    kind: *kind,
                    aux: count_loads(index),
                });
                self.iregs.release(im);
                self.fregs.release(fm);
            }
            Stmt::If { cond, then_, else_ } => {
                self.emit(Instr::Guard {
                    aux: count_cond_loads(cond),
                });
                let (l_then, l_else, l_end) =
                    (self.new_label(), self.new_label(), self.new_label());
                self.cond(cond, l_then, l_else);
                self.place(l_then);
                self.stmt(then_);
                self.emit(Instr::Jump { to: l_end });
                self.place(l_else);
                if let Some(e) = else_ {
                    self.stmt(e);
                }
                self.place(l_end);
            }
            Stmt::Seq(items) => {
                for item in items {
                    self.stmt(item);
                }
            }
            Stmt::Alloc { buffer, size, body } => {
                let m = self.iregs.mark();
                let r = self.expr(size);
                self.iregs.release(m);
                let slot = self.push_fbuf(buffer);
                self.emit(Instr::FAlloc {
                    slot,
                    size: r,
                    aux: count_loads(size),
                });
                self.stmt(body);
                self.fbuf_scope.pop();
            }
            Stmt::Nop => {}
        }
    }

    /// Resolves label ids in jump fields to program counters.
    fn finish(mut self) -> VmProgram {
        for instr in &mut self.code {
            match instr {
                Instr::Jump { to }
                | Instr::BrVarGe { to, .. }
                | Instr::LoopNext { back: to, .. } => *to = self.labels[*to as usize],
                Instr::BrCmp {
                    on_true, on_false, ..
                } => {
                    *on_true = self.labels[*on_true as usize];
                    *on_false = self.labels[*on_false as usize];
                }
                _ => {}
            }
        }
        let mut n_iregs = self.iregs.max as usize;
        let code = local_cse(self.code, &mut n_iregs);
        VmProgram {
            code,
            n_iregs,
            n_fregs: self.fregs.max as usize,
            slots: self.slots,
            var_slot_names: self.var_slot_names,
            fbuf_slot_names: self.fbuf_slot_names,
            math: MathMode::Strict,
        }
    }
}

// ---------------------------------------------------------------------
// Block-local common-subexpression elimination
// ---------------------------------------------------------------------

/// Symbolic value of one pure integer instruction, over value ids rather
/// than register names (so operand overwrites can never produce a stale
/// hit) with per-block-versioned variable reads.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum ValKey {
    Const(i64),
    Var(u32, u32),
    Bin(IBinOp, u32, u32),
    BinC(IBinOp, u32, i64),
    BinV(IBinOp, u32, u32, u32),
    Load(u32, u32),
    LoadV(u32, u32, u32),
}

/// Calls `f` with every integer register the instruction *reads*.
fn ireg_reads_mut(ins: &mut Instr, f: &mut impl FnMut(&mut u16)) {
    match ins {
        Instr::ICopy { src, .. } => f(src),
        Instr::IBin { a, b, .. } => {
            f(a);
            f(b);
        }
        Instr::IBinC { a, .. } | Instr::IBinV { a, .. } => f(a),
        Instr::ILoad { idx, .. } => f(idx),
        Instr::IUf { args, .. } => {
            for a in args.iter_mut() {
                f(a);
            }
        }
        Instr::SetVar { src, .. } | Instr::LetVar { src, .. } | Instr::FCast { src, .. } => f(src),
        Instr::BrVarGe { lim, .. } | Instr::LoopNext { lim, .. } => f(lim),
        Instr::BrCmp { a, b, .. } => {
            f(a);
            f(b);
        }
        Instr::FLoad { idx, .. } | Instr::FStore { idx, .. } => f(idx),
        Instr::FAlloc { size, .. } => f(size),
        Instr::FMulAcc(op) => {
            for r in [
                &mut op.o0, &mut op.o1, &mut op.a0, &mut op.a1, &mut op.b0, &mut op.b1, &mut op.n,
            ] {
                f(r);
            }
        }
        Instr::FMulAcc2(op) => {
            for r in [
                &mut op.o00,
                &mut op.o0i,
                &mut op.o0o,
                &mut op.a00,
                &mut op.a0i,
                &mut op.a0o,
                &mut op.b00,
                &mut op.b0i,
                &mut op.b0o,
                &mut op.n_outer,
                &mut op.n_inner,
            ] {
                f(r);
            }
        }
        Instr::FMap(op) => {
            f(&mut op.o0);
            f(&mut op.o1);
            f(&mut op.n);
            for s in op.sites.iter_mut() {
                f(&mut s.r0);
                f(&mut s.r1);
            }
        }
        Instr::IConst { .. }
        | Instr::IVar { .. }
        | Instr::ILoadV { .. }
        | Instr::Jump { .. }
        | Instr::Guard { .. }
        | Instr::BumpAux { .. }
        | Instr::FConst { .. }
        | Instr::FCopy { .. }
        | Instr::FBin { .. }
        | Instr::FBinC { .. }
        | Instr::FBinCL { .. }
        | Instr::FUn { .. } => {}
    }
}

/// Redirects a pure integer instruction's destination register.
fn set_ireg_dst(ins: &mut Instr, d: u16) {
    match ins {
        Instr::IConst { dst, .. }
        | Instr::IVar { dst, .. }
        | Instr::ICopy { dst, .. }
        | Instr::IBin { dst, .. }
        | Instr::IBinC { dst, .. }
        | Instr::IBinV { dst, .. }
        | Instr::ILoad { dst, .. }
        | Instr::ILoadV { dst, .. } => *dst = d,
        _ => unreachable!("only pure integer instructions are renamed"),
    }
}

/// The integer register the instruction writes, if any.
fn ireg_write(ins: &Instr) -> Option<u16> {
    match ins {
        Instr::IConst { dst, .. }
        | Instr::IVar { dst, .. }
        | Instr::ICopy { dst, .. }
        | Instr::IBin { dst, .. }
        | Instr::IBinC { dst, .. }
        | Instr::IBinV { dst, .. }
        | Instr::ILoad { dst, .. }
        | Instr::ILoadV { dst, .. }
        | Instr::IUf { dst, .. } => Some(*dst),
        _ => None,
    }
}

/// Block-local value-numbering CSE over the resolved bytecode.
///
/// The compiler's fused-loop lowering evaluates each affine index
/// expression at two or three probe points, re-emitting whole
/// subexpressions (aux-table loads, invariant products) that only differ
/// in the probed loop variable — per *row* of a ragged operator this
/// redundant integer arithmetic dominates the scalar dispatch overhead.
/// This pass value-numbers pure integer instructions (`iconst`, `ivar`,
/// `icopy`, `ibin[.c|.v]`, `iload[.v]`) within each basic block and
/// deletes recomputations, rewriting later reads to the register that
/// already holds the value.
///
/// Soundness:
/// * keys are built over value ids, and variable reads carry a
///   per-block version bumped on every `setvar`/`letvar`, so any state
///   change produces a different key;
/// * integer buffers are bound before execution and never written by
///   the program, so `iload` is pure;
/// * a def of `D` is deleted only when every read of `D` in the whole
///   program sits in the same block at or after the def (reads in other
///   blocks, or upstream of the def on a back-edge re-entry, keep the
///   instruction); if the aliased source register is overwritten while
///   `D` still has later reads, an `icopy` rematerialises `D` first;
/// * statistics are charged by dedicated instructions (`bumpaux`,
///   `guard`, `letvar`, the `aux` fields of float ops), none of which
///   are touched, so interpreter-stats parity is preserved.
fn local_cse(code: Vec<Instr>, n_iregs: &mut usize) -> Vec<Instr> {
    let n = code.len();
    if n == 0 {
        return code;
    }
    // Basic-block starts: entry, every branch target, every fall-through
    // successor of a branch.
    let mut is_start = vec![false; n + 1];
    is_start[0] = true;
    for (pc, ins) in code.iter().enumerate() {
        match ins {
            Instr::Jump { to } => {
                is_start[*to as usize] = true;
                is_start[pc + 1] = true;
            }
            Instr::BrVarGe { to, .. } | Instr::LoopNext { back: to, .. } => {
                is_start[*to as usize] = true;
                is_start[pc + 1] = true;
            }
            Instr::BrCmp {
                on_true, on_false, ..
            } => {
                is_start[*on_true as usize] = true;
                is_start[*on_false as usize] = true;
                is_start[pc + 1] = true;
            }
            _ => {}
        }
    }
    let mut block_of = vec![0u32; n];
    let mut bid = 0u32;
    for pc in 0..n {
        if pc > 0 && is_start[pc] {
            bid += 1;
        }
        block_of[pc] = bid;
    }
    // Global read map: which block(s) read each register, and at which
    // positions (sorted by construction).
    const MULTI: u32 = u32::MAX;
    let mut read_in: std::collections::HashMap<u16, u32> = std::collections::HashMap::new();
    let mut read_pos: std::collections::HashMap<u16, Vec<usize>> = std::collections::HashMap::new();
    // Registers whose first access within a block is a read: on a
    // back-edge re-entry such a read observes the value a *later* def in
    // the block produced on the previous trip, so those defs must stay.
    let mut ue_read: std::collections::HashSet<(u32, u16)> = std::collections::HashSet::new();
    let mut written: std::collections::HashSet<u16> = std::collections::HashSet::new();
    for (pc, ins) in code.iter().enumerate() {
        if is_start[pc] {
            written.clear();
        }
        let mut probe = ins.clone();
        ireg_reads_mut(&mut probe, &mut |r| {
            let e = read_in.entry(*r).or_insert(block_of[pc]);
            if *e != block_of[pc] {
                *e = MULTI;
            }
            read_pos.entry(*r).or_default().push(pc);
            if !written.contains(r) {
                ue_read.insert((block_of[pc], *r));
            }
        });
        if let Some(d) = ireg_write(ins) {
            written.insert(d);
        }
    }
    let reads_in_range = |r: u16, lo: usize, hi: usize| -> bool {
        read_pos
            .get(&r)
            .is_some_and(|v| v.iter().any(|&p| p >= lo && p < hi))
    };

    let mut out: Vec<Instr> = Vec::with_capacity(n);
    let mut newpc = vec![0u32; n + 1];
    let mut next_val = 0u32;
    // Fresh registers for block-local renaming (SSA within a block, so
    // the compiler's in-place accumulations stop destroying values the
    // next probe could reuse).
    let mut next_reg = u16::try_from(*n_iregs).unwrap_or(u16::MAX);
    // Per-block state.
    let mut reg_val: std::collections::HashMap<u16, u32> = std::collections::HashMap::new();
    let mut key_id: std::collections::HashMap<ValKey, u32> = std::collections::HashMap::new();
    let mut avail: std::collections::HashMap<u32, u16> = std::collections::HashMap::new();
    let mut var_ver: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
    let mut alias: std::collections::HashMap<u16, u16> = std::collections::HashMap::new();
    let mut block_end_pc = n;

    for pc in 0..n {
        if is_start[pc] {
            reg_val.clear();
            key_id.clear();
            avail.clear();
            var_ver.clear();
            alias.clear();
            block_end_pc = (pc + 1..=n).find(|&q| q == n || is_start[q]).unwrap_or(n);
        }
        newpc[pc] = out.len() as u32;
        let mut ins = code[pc].clone();
        // Route reads through live aliases.
        ireg_reads_mut(&mut ins, &mut |r| {
            if let Some(s) = alias.get(r) {
                *r = *s;
            }
        });
        // Variable writes bump the version so later keys can't match
        // values computed from the old variable state.
        match &ins {
            Instr::SetVar { slot, .. }
            | Instr::LetVar { slot, .. }
            | Instr::LoopNext { slot, .. } => {
                *var_ver.entry(*slot).or_insert(0) += 1;
            }
            _ => {}
        }
        let dst = ireg_write(&ins);
        if let Some(d) = dst {
            // Overwriting an alias *source*: rematerialise still-needed
            // aliased registers from it first.
            let stale: Vec<u16> = alias
                .iter()
                .filter(|&(_, s)| *s == d)
                .map(|(x, _)| *x)
                .collect();
            for x in stale {
                alias.remove(&x);
                if reads_in_range(x, pc + 1, block_end_pc) {
                    out.push(Instr::ICopy { dst: x, src: d });
                }
            }
            // Overwriting an aliased register ends its alias.
            alias.remove(&d);
        }
        // Value id a register currently holds (fresh opaque id for
        // registers whose defining instruction precedes the block).
        fn val_of(
            reg_val: &mut std::collections::HashMap<u16, u32>,
            next: &mut u32,
            r: u16,
        ) -> u32 {
            *reg_val.entry(r).or_insert_with(|| {
                *next += 1;
                *next
            })
        }
        let ver = |var_ver: &std::collections::HashMap<u32, u32>, s: u32| -> u32 {
            var_ver.get(&s).copied().unwrap_or(0)
        };
        // Symbolic value of a pure instruction (`None` = impure/other).
        let key: Option<ValKey> = match &ins {
            Instr::IConst { v, .. } => Some(ValKey::Const(*v)),
            Instr::IVar { slot, .. } => Some(ValKey::Var(*slot, ver(&var_ver, *slot))),
            Instr::IBin { op, a, b, .. } => {
                let va = val_of(&mut reg_val, &mut next_val, *a);
                let vb = val_of(&mut reg_val, &mut next_val, *b);
                Some(ValKey::Bin(*op, va, vb))
            }
            Instr::IBinC { op, a, c, .. } => Some(ValKey::BinC(
                *op,
                val_of(&mut reg_val, &mut next_val, *a),
                *c,
            )),
            Instr::IBinV { op, a, vslot, .. } => {
                let va = val_of(&mut reg_val, &mut next_val, *a);
                Some(ValKey::BinV(*op, va, *vslot, ver(&var_ver, *vslot)))
            }
            Instr::ILoad { buf, idx, .. } => Some(ValKey::Load(
                *buf,
                val_of(&mut reg_val, &mut next_val, *idx),
            )),
            Instr::ILoadV { buf, vslot, .. } => {
                Some(ValKey::LoadV(*buf, *vslot, ver(&var_ver, *vslot)))
            }
            _ => None,
        };
        match (key, &ins) {
            (_, Instr::ICopy { dst: d, src }) => {
                // Copies just propagate the source's value id.
                let v = val_of(&mut reg_val, &mut next_val, *src);
                let (d, src) = (*d, *src);
                reg_val.insert(d, v);
                avail.entry(v).or_insert(src);
                out.push(ins);
            }
            (Some(k), _) => {
                let d = dst.expect("pure integer instructions write a register");
                let id = *key_id.entry(k).or_insert_with(|| {
                    next_val += 1;
                    next_val
                });
                // `d` can be retired (deleted or renamed) only when every
                // read of it sits in this block downstream of some def.
                let block_local = read_in.get(&d).map_or(true, |b| *b == block_of[pc])
                    && !ue_read.contains(&(block_of[pc], d));
                let hit = avail
                    .get(&id)
                    .copied()
                    .filter(|s| *s != d && reg_val.get(s) == Some(&id));
                match hit {
                    Some(s) if block_local => {
                        // Drop the recomputation, alias reads to `s`.
                        // `d` keeps its previous runtime value.
                        alias.insert(d, s);
                    }
                    Some(s) => {
                        // `d` may be read elsewhere: keep it live via a
                        // copy instead of recomputing.
                        out.push(Instr::ICopy { dst: d, src: s });
                        reg_val.insert(d, id);
                    }
                    None if block_local && next_reg < u16::MAX => {
                        // First computation: write it to a fresh register
                        // so a later in-place accumulation into `d` can't
                        // destroy the value before another probe needs it.
                        let nd = next_reg;
                        next_reg += 1;
                        set_ireg_dst(&mut ins, nd);
                        alias.insert(d, nd);
                        reg_val.insert(nd, id);
                        avail.insert(id, nd);
                        out.push(ins);
                    }
                    None => {
                        reg_val.insert(d, id);
                        avail.insert(id, d);
                        out.push(ins);
                    }
                }
            }
            (None, _) => {
                if let Some(d) = dst {
                    // Impure write (`iuf`): fresh opaque value.
                    next_val += 1;
                    reg_val.insert(d, next_val);
                }
                out.push(ins);
            }
        }
    }
    newpc[n] = out.len() as u32;
    remap_targets(&mut out, &newpc);
    *n_iregs = (*n_iregs).max(next_reg as usize);
    local_dce(out)
}

/// Rewrites every branch target through an old-pc → new-pc map.
fn remap_targets(code: &mut [Instr], newpc: &[u32]) {
    for ins in code {
        match ins {
            Instr::Jump { to } | Instr::BrVarGe { to, .. } | Instr::LoopNext { back: to, .. } => {
                *to = newpc[*to as usize]
            }
            Instr::BrCmp {
                on_true, on_false, ..
            } => {
                *on_true = newpc[*on_true as usize];
                *on_false = newpc[*on_false as usize];
            }
            _ => {}
        }
    }
}

/// Backward dead-code elimination over the pure integer instructions:
/// removes defs whose register is never read again, using the union of
/// every block's upward-exposed reads (reads before any write in that
/// block) as the conservative live-out set of *every* block — sound for
/// any control flow, and enough to sweep the operand chains stranded
/// when [`local_cse`] replaces a recomputation with a copy.
fn local_dce(code: Vec<Instr>) -> Vec<Instr> {
    let n = code.len();
    if n == 0 {
        return code;
    }
    let mut is_start = vec![false; n + 1];
    is_start[0] = true;
    for (pc, ins) in code.iter().enumerate() {
        match ins {
            Instr::Jump { to } => {
                is_start[*to as usize] = true;
                is_start[pc + 1] = true;
            }
            Instr::BrVarGe { to, .. } | Instr::LoopNext { back: to, .. } => {
                is_start[*to as usize] = true;
                is_start[pc + 1] = true;
            }
            Instr::BrCmp {
                on_true, on_false, ..
            } => {
                is_start[*on_true as usize] = true;
                is_start[*on_false as usize] = true;
                is_start[pc + 1] = true;
            }
            _ => {}
        }
    }
    // Upward-exposed reads across all blocks.
    let mut ue: std::collections::HashSet<u16> = std::collections::HashSet::new();
    let mut written: std::collections::HashSet<u16> = std::collections::HashSet::new();
    for (pc, ins) in code.iter().enumerate() {
        if is_start[pc] {
            written.clear();
        }
        let mut probe = ins.clone();
        ireg_reads_mut(&mut probe, &mut |r| {
            if !written.contains(r) {
                ue.insert(*r);
            }
        });
        if let Some(d) = ireg_write(ins) {
            written.insert(d);
        }
    }
    // Backward sweep, block by block.
    let mut keep = vec![true; n];
    let mut live: std::collections::HashSet<u16> = std::collections::HashSet::new();
    let mut block_ranges: Vec<(usize, usize)> = Vec::new();
    let mut start = 0usize;
    for (pc, st) in is_start.iter().enumerate().take(n).skip(1) {
        if *st {
            block_ranges.push((start, pc));
            start = pc;
        }
    }
    if n > 0 {
        block_ranges.push((start, n));
    }
    for &(lo, hi) in &block_ranges {
        live.clear();
        live.extend(ue.iter().copied());
        for pc in (lo..hi).rev() {
            let ins = &code[pc];
            let pure = matches!(
                ins,
                Instr::IConst { .. }
                    | Instr::IVar { .. }
                    | Instr::ICopy { .. }
                    | Instr::IBin { .. }
                    | Instr::IBinC { .. }
                    | Instr::IBinV { .. }
                    | Instr::ILoad { .. }
                    | Instr::ILoadV { .. }
            );
            if pure {
                if let Some(d) = ireg_write(ins) {
                    if !live.contains(&d) {
                        keep[pc] = false;
                        continue;
                    }
                }
            }
            if let Some(d) = ireg_write(ins) {
                live.remove(&d);
            }
            let mut probe = ins.clone();
            ireg_reads_mut(&mut probe, &mut |r| {
                live.insert(*r);
            });
        }
    }
    let mut newpc = vec![0u32; n + 1];
    let mut out = Vec::with_capacity(n);
    for (pc, ins) in code.into_iter().enumerate() {
        newpc[pc] = out.len() as u32;
        if keep[pc] {
            out.push(ins);
        }
    }
    newpc[n] = out.len() as u32;
    remap_targets(&mut out, &newpc);
    out
}

/// Matches the canonical fusable reduction store
/// `buffer[index] += A[aidx] * B[bidx]`.
fn as_mul_acc_store(body: &Stmt) -> Option<(&str, &Expr, &str, &Expr, &str, &Expr)> {
    let Stmt::Store {
        buffer,
        index,
        value,
        kind: StoreKind::AddAssign,
    } = body
    else {
        return None;
    };
    let FExprKind::Mul(a, b) = value.kind() else {
        return None;
    };
    let (FExprKind::Load(abuf, aidx), FExprKind::Load(bbuf, bidx)) = (a.kind(), b.kind()) else {
        return None;
    };
    Some((buffer, index, abuf, aidx, bbuf, bidx))
}

/// True when `e` is affine in `var` *and* no memory access, uninterpreted
/// function, select or non-linear operator involves `var`: `var` may
/// appear only under `+`/`-`, or under `×` with a `var`-free co-factor.
/// Such an expression is fully determined by its values at two
/// consecutive `var` points, and probing it at any in-range point
/// touches exactly the memory an ordinary evaluation would.
fn is_affine_in(e: &Expr, var: &str) -> bool {
    affine_degree(e, var).is_some()
}

/// True when `e` is `base + c_i·vi + c_o·vo` with constant coefficients:
/// affine in each variable, with no product of two variable-dependent
/// factors (which would make a stride depend on the other variable) and
/// no memory access through either variable.
fn is_affine2(e: &Expr, vi: &str, vo: &str) -> bool {
    affine2_degree(e, vi, vo).is_some()
}

/// `Some((mentions_vi, mentions_vo))` for bilinear-free 2-D affine
/// expressions, `None` otherwise.
fn affine2_degree(e: &Expr, vi: &str, vo: &str) -> Option<(bool, bool)> {
    match e.kind() {
        ExprKind::Int(_) => Some((false, false)),
        ExprKind::Var(n) => Some((n == vi, n == vo)),
        ExprKind::Add(a, b) | ExprKind::Sub(a, b) => {
            let (ai, ao) = affine2_degree(a, vi, vo)?;
            let (bi, bo) = affine2_degree(b, vi, vo)?;
            Some((ai || bi, ao || bo))
        }
        ExprKind::Mul(a, b) => {
            let (ai, ao) = affine2_degree(a, vi, vo)?;
            let (bi, bo) = affine2_degree(b, vi, vo)?;
            // A product of two variable-dependent factors is quadratic
            // or bilinear — its strides are not constant.
            if (ai || ao) && (bi || bo) {
                None
            } else {
                Some((ai || bi, ao || bo))
            }
        }
        ExprKind::FloorDiv(a, b)
        | ExprKind::FloorMod(a, b)
        | ExprKind::Min(a, b)
        | ExprKind::Max(a, b) => {
            let (ai, ao) = affine2_degree(a, vi, vo)?;
            let (bi, bo) = affine2_degree(b, vi, vo)?;
            if ai || ao || bi || bo {
                None
            } else {
                Some((false, false))
            }
        }
        ExprKind::Select(c, a, b) => {
            if cond_mentions(c, vi) || cond_mentions(c, vo) {
                return None;
            }
            let (ai, ao) = affine2_degree(a, vi, vo)?;
            let (bi, bo) = affine2_degree(b, vi, vo)?;
            if ai || ao || bi || bo {
                None
            } else {
                Some((false, false))
            }
        }
        ExprKind::Uf(_, args) => {
            for a in args {
                let (ai, ao) = affine2_degree(a, vi, vo)?;
                if ai || ao {
                    return None;
                }
            }
            Some((false, false))
        }
        ExprKind::Load(_, idx) => {
            let (ai, ao) = affine2_degree(idx, vi, vo)?;
            if ai || ao {
                None
            } else {
                Some((false, false))
            }
        }
    }
}

/// `Some(true)` if affine and mentioning `var`, `Some(false)` if `var`-free,
/// `None` if non-affine in `var`.
fn affine_degree(e: &Expr, var: &str) -> Option<bool> {
    match e.kind() {
        ExprKind::Int(_) => Some(false),
        ExprKind::Var(n) => Some(n == var),
        ExprKind::Add(a, b) | ExprKind::Sub(a, b) => {
            Some(affine_degree(a, var)? || affine_degree(b, var)?)
        }
        ExprKind::Mul(a, b) => {
            let (da, db) = (affine_degree(a, var)?, affine_degree(b, var)?);
            // Affine × var-free stays affine; var × var is quadratic.
            if da && db {
                None
            } else {
                Some(da || db)
            }
        }
        ExprKind::FloorDiv(a, b)
        | ExprKind::FloorMod(a, b)
        | ExprKind::Min(a, b)
        | ExprKind::Max(a, b) => {
            if affine_degree(a, var)? || affine_degree(b, var)? {
                None
            } else {
                Some(false)
            }
        }
        ExprKind::Select(c, a, b) => {
            if cond_mentions(c, var) || affine_degree(a, var)? || affine_degree(b, var)? {
                None
            } else {
                Some(false)
            }
        }
        ExprKind::Uf(_, args) => {
            for a in args {
                if affine_degree(a, var)? {
                    return None;
                }
            }
            Some(false)
        }
        ExprKind::Load(_, idx) => {
            // A table lookup indexed by the loop variable is not affine
            // (and probing it out of loop order would be unsound).
            if affine_degree(idx, var)? {
                None
            } else {
                Some(false)
            }
        }
    }
}

fn cond_mentions(c: &Cond, var: &str) -> bool {
    match c.kind() {
        CondKind::Const(_) => false,
        CondKind::Lt(a, b) | CondKind::Le(a, b) | CondKind::Eq(a, b) | CondKind::Ne(a, b) => {
            expr_mentions(a, var) || expr_mentions(b, var)
        }
        CondKind::And(a, b) | CondKind::Or(a, b) => cond_mentions(a, var) || cond_mentions(b, var),
        CondKind::Not(a) => cond_mentions(a, var),
    }
}

fn expr_mentions(e: &Expr, var: &str) -> bool {
    let mut vars = std::collections::BTreeSet::new();
    cora_ir::visit::free_vars(e, &mut vars);
    vars.contains(var)
}

// ---------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------

/// Run-state for one [`VmProgram`]: slot-indexed variable file, buffer
/// tables, register files, and execution statistics.
#[derive(Debug)]
pub struct VmMachine<'p> {
    prog: &'p VmProgram,
    vars: Vec<i64>,
    var_bound: Vec<bool>,
    /// Shared handles: binding a built prelude table copies nothing.
    ibufs: Vec<Arc<[i64]>>,
    ibuf_bound: Vec<bool>,
    fbufs: Vec<Vec<f32>>,
    fbuf_bound: Vec<bool>,
    ufs: Vec<Option<UfHandle>>,
    iregs: Vec<i64>,
    fregs: Vec<f32>,
    uf_args: Vec<i64>,
    /// Statistics accumulated by [`VmMachine::run`] (identical accounting
    /// to the tree-walking interpreter). For speed the dispatch loop
    /// batches counts in a local and publishes them on normal return, so
    /// unlike the interpreter this field is not updated if a run panics
    /// mid-kernel.
    pub stats: InterpStats,
}

impl VmMachine<'_> {
    /// Binds a free integer variable. Returns `false` if the program
    /// never references `name` (the binding is ignored).
    pub fn bind_var(&mut self, name: &str, v: i64) -> bool {
        match self.prog.slots.free_vars.get(name) {
            Some(slot) => {
                self.vars[slot as usize] = v;
                self.var_bound[slot as usize] = true;
                true
            }
            None => false,
        }
    }

    /// Installs an integer auxiliary buffer (an owned `Vec<i64>`, or a
    /// shared `Arc<[i64]>` handle, which is bound without copying).
    /// Returns `false` if unused.
    pub fn set_ibuffer(&mut self, name: &str, data: impl Into<Arc<[i64]>>) -> bool {
        match self.prog.slots.ibufs.get(name) {
            Some(slot) => {
                self.ibufs[slot as usize] = data.into();
                self.ibuf_bound[slot as usize] = true;
                true
            }
            None => false,
        }
    }

    /// Installs a float buffer. Returns `false` if unused.
    pub fn set_fbuffer(&mut self, name: &str, data: Vec<f32>) -> bool {
        match self.prog.slots.free_fbufs.get(name) {
            Some(slot) => {
                self.fbufs[slot as usize] = data;
                self.fbuf_bound[slot as usize] = true;
                true
            }
            None => false,
        }
    }

    /// Installs an uninterpreted-function table. Returns `false` if
    /// unused.
    pub fn set_uf(&mut self, name: &str, h: UfHandle) -> bool {
        match self.prog.slots.ufs.get(name) {
            Some(slot) => {
                self.ufs[slot as usize] = Some(h);
                true
            }
            None => false,
        }
    }

    /// Binds everything an interpreter [`Env`] holds: variables,
    /// auxiliary buffers, and uninterpreted-function tables the program
    /// references. Convenience for differential testing against the tree
    /// walker.
    pub fn bind_env(&mut self, env: &Env) {
        for (name, v) in env.vars() {
            self.bind_var(name, v);
        }
        for (name, buf) in env.buffers() {
            self.set_ibuffer(name, buf);
        }
        let names: Vec<String> = self.prog.slots.ufs.names().to_vec();
        for name in names {
            if let Some(h) = env.uf_table().handle(&name) {
                self.set_uf(&name, h);
            }
        }
    }

    /// Reads a float buffer by its free name.
    pub fn fbuffer(&self, name: &str) -> Option<&[f32]> {
        self.prog
            .slots
            .free_fbufs
            .get(name)
            .map(|slot| self.fbufs[slot as usize].as_slice())
    }

    /// Takes a float buffer out of the machine by its free name.
    pub fn take_fbuffer(&mut self, name: &str) -> Option<Vec<f32>> {
        self.prog.slots.free_fbufs.get(name).map(|slot| {
            self.fbuf_bound[slot as usize] = false;
            std::mem::take(&mut self.fbufs[slot as usize])
        })
    }

    fn check_bound(&self) {
        let s = &self.prog.slots;
        for (i, bound) in self.var_bound.iter().enumerate() {
            assert!(*bound, "unbound variable `{}`", s.free_vars.names()[i]);
        }
        for (i, bound) in self.ibuf_bound.iter().enumerate() {
            assert!(*bound, "missing auxiliary buffer `{}`", s.ibufs.names()[i]);
        }
        for (i, bound) in self.fbuf_bound.iter().enumerate() {
            assert!(*bound, "missing float buffer `{}`", s.free_fbufs.names()[i]);
        }
        for (i, h) in self.ufs.iter().enumerate() {
            assert!(
                h.is_some(),
                "no runtime table for uninterpreted function `{}`",
                s.ufs.names()[i]
            );
        }
    }

    /// Executes the program.
    ///
    /// # Panics
    ///
    /// Panics on unbound inputs, out-of-bounds or negative accesses —
    /// lowering bugs by definition, matching interpreter behaviour.
    pub fn run(&mut self) {
        self.check_bound();
        let VmMachine {
            prog,
            vars,
            ibufs,
            fbufs,
            ufs,
            iregs,
            fregs,
            uf_args,
            stats,
            ..
        } = self;
        dispatch(
            prog,
            ibufs,
            ufs,
            &mut Regs {
                vars,
                iregs,
                fregs,
                uf_args,
            },
            &mut OwnedBufs(fbufs),
            stats,
            &mut MapScratch::default(),
        );
    }
}

// ---------------------------------------------------------------------
// Dispatch loop (shared by the serial machine and parallel workers)
// ---------------------------------------------------------------------

/// Float-buffer access abstraction for the dispatch loop. The serial
/// machine owns every buffer ([`OwnedBufs`]); a parallel worker layers
/// private `Alloc` scratch over shared read-only inputs and the shared
/// output ([`WorkerBufs`]). Both monomorphize to direct indexing.
trait FloatBufs {
    fn get(&self, slot: u32, idx: usize) -> f32;
    fn set(&mut self, slot: u32, idx: usize, v: f32);
    fn rmw<F: FnOnce(f32) -> f32>(&mut self, slot: u32, idx: usize, f: F);
    fn alloc(&mut self, slot: u32, n: usize);

    /// Contiguous read-only view of a slot, when one exists (used by the
    /// fused-loop fast paths; `None` falls back to per-element `get`).
    fn ro(&self, slot: u32) -> Option<&[f32]>;

    /// Stores a chunk of values into the contiguous range
    /// `out[o0 .. o0 + vals.len()]` under the given combine rule — the
    /// unit-stride store sweep of [`FusedMap`]. Element order and the
    /// per-element float op are those of the serial store loop, so the
    /// result is bit-identical in every mode. Returns `false` when this
    /// representation has no contiguous view of `out` (caller falls back
    /// to per-element stores).
    fn store_chunk(&mut self, _out: u32, _o0: usize, _kind: StoreKind, _vals: &[f32]) -> bool {
        false
    }

    /// `out[o0 + t] += s * b[b0 + t]` for `t in 0..n`, the vectorizable
    /// unit-stride shape of [`FusedMulAcc`]. Returns `false` when this
    /// buffer representation has no fast path (caller falls back to
    /// per-element read-modify-writes). Callers guarantee `out != b`
    /// (established at compile time) and in-range, non-negative bases.
    fn saxpy(&mut self, _out: u32, _o0: usize, _b: u32, _b0: usize, _s: f32, _n: usize) -> bool {
        false
    }

    /// The i-k-j GEMM row panel of [`FusedMulAcc2`]:
    /// `out[o0..o0+n_i] += a[a0 + t·sa_o] · b[b0 + t·sb_o ..][..n_i]`
    /// for `t in 0..n_o`, in that order. Returns `false` when
    /// unsupported. Callers guarantee `out ∉ {a, b}` and non-negative
    /// bases/strides; results must be bit-identical to the per-element
    /// nest.
    #[allow(clippy::too_many_arguments)]
    fn saxpy_panel(
        &mut self,
        _out: u32,
        _o0: usize,
        _n_i: usize,
        _a: u32,
        _a0: usize,
        _sa_o: usize,
        _b: u32,
        _b0: usize,
        _sb_o: usize,
        _n_o: usize,
    ) -> bool {
        false
    }

    /// The per-row dot panel of [`FusedMulAcc2`]:
    /// `out[o0 + t] += Σ_u a[a0 + t·sa_o + u] · b[b0 + t·sb_o + u]`
    /// (`u in 0..n_i`) for `t in 0..n_o`. Same contract as
    /// [`FloatBufs::saxpy_panel`], except that under [`MathMode::Fast`]
    /// each row's reduction may reassociate across lanes (still
    /// deterministic).
    #[allow(clippy::too_many_arguments)]
    fn dot_panel(
        &mut self,
        _out: u32,
        _o0: usize,
        _a: u32,
        _a0: usize,
        _sa_o: usize,
        _b: u32,
        _b0: usize,
        _sb_o: usize,
        _n_i: usize,
        _n_o: usize,
        _mode: MathMode,
    ) -> bool {
        false
    }
}

/// Applies one [`StoreKind`] combine across a contiguous output chunk,
/// in ascending element order — the single store-sweep implementation
/// every [`FloatBufs::store_chunk`] funnels into.
fn store_chunk_slice(out: &mut [f32], kind: StoreKind, vals: &[f32]) {
    match kind {
        StoreKind::Assign => out.copy_from_slice(vals),
        StoreKind::AddAssign => {
            for (o, v) in out.iter_mut().zip(vals) {
                *o += *v;
            }
        }
        StoreKind::MaxAssign => {
            for (o, v) in out.iter_mut().zip(vals) {
                *o = o.max(*v);
            }
        }
    }
}

/// Shared panel kernels over plain slices — the single implementation
/// every [`FloatBufs`] fast path funnels into, so all representations
/// compute identical float sequences. Thin adapters over the
/// [`crate::microkernel`] SIMD bodies.
mod panel {
    #![allow(clippy::too_many_arguments)]

    use crate::microkernel::{self, MathMode};

    /// `out_row += a[t·sa_o] · b_row(t)`, `t` ascending per element —
    /// the register-blocked microkernel is bit-identical to the scalar
    /// nest in both math modes.
    pub(super) fn saxpy(
        out: &mut [f32],
        o0: usize,
        n_i: usize,
        a: &[f32],
        a0: usize,
        sa_o: usize,
        b: &[f32],
        b0: usize,
        sb_o: usize,
        n_o: usize,
    ) {
        microkernel::saxpy_panel(&mut out[o0..o0 + n_i], a, a0, sa_o, b, b0, sb_o, n_o);
    }

    /// `out[t] += a_row(t) · b_row(t)`, `t` ascending; `Strict`
    /// accumulates each row in element order, `Fast` across lanes.
    pub(super) fn dot(
        out: &mut [f32],
        o0: usize,
        a: &[f32],
        a0: usize,
        sa_o: usize,
        b: &[f32],
        b0: usize,
        sb_o: usize,
        n_i: usize,
        n_o: usize,
        mode: MathMode,
    ) {
        microkernel::dot_panel(out, o0, a, a0, sa_o, b, b0, sb_o, n_i, n_o, mode);
    }
}

/// Splits two distinct indices of a `Vec`-of-buffers into one mutable and
/// one shared reference.
fn split_mut_ref<T>(v: &mut [T], m: usize, r: usize) -> (&mut T, &T) {
    assert_ne!(m, r, "aliasing fused-loop operands");
    if m < r {
        let (lo, hi) = v.split_at_mut(r);
        (&mut lo[m], &hi[0])
    } else {
        let (lo, hi) = v.split_at_mut(m);
        (&mut hi[0], &lo[r])
    }
}

/// The serial machine's float buffers: one owned `Vec` per slot.
struct OwnedBufs<'a>(&'a mut Vec<Vec<f32>>);

impl FloatBufs for OwnedBufs<'_> {
    #[inline]
    fn get(&self, slot: u32, idx: usize) -> f32 {
        self.0[slot as usize][idx]
    }

    #[inline]
    fn set(&mut self, slot: u32, idx: usize, v: f32) {
        self.0[slot as usize][idx] = v;
    }

    #[inline]
    fn rmw<F: FnOnce(f32) -> f32>(&mut self, slot: u32, idx: usize, f: F) {
        let cell = &mut self.0[slot as usize][idx];
        *cell = f(*cell);
    }

    fn alloc(&mut self, slot: u32, n: usize) {
        let buf = &mut self.0[slot as usize];
        buf.clear();
        buf.resize(n, 0.0);
    }

    #[inline]
    fn ro(&self, slot: u32) -> Option<&[f32]> {
        Some(&self.0[slot as usize])
    }

    fn store_chunk(&mut self, out: u32, o0: usize, kind: StoreKind, vals: &[f32]) -> bool {
        store_chunk_slice(&mut self.0[out as usize][o0..o0 + vals.len()], kind, vals);
        true
    }

    fn saxpy(&mut self, out: u32, o0: usize, b: u32, b0: usize, s: f32, n: usize) -> bool {
        let (ov, bv) = split_mut_ref(self.0, out as usize, b as usize);
        for (o, x) in ov[o0..o0 + n].iter_mut().zip(&bv[b0..b0 + n]) {
            *o += s * *x;
        }
        true
    }

    fn saxpy_panel(
        &mut self,
        out: u32,
        o0: usize,
        n_i: usize,
        a: u32,
        a0: usize,
        sa_o: usize,
        b: u32,
        b0: usize,
        sb_o: usize,
        n_o: usize,
    ) -> bool {
        // `out ∉ {a, b}` by the caller's contract, so taking the output
        // vector leaves the operands readable in place.
        let mut ovec = std::mem::take(&mut self.0[out as usize]);
        panel::saxpy(
            &mut ovec,
            o0,
            n_i,
            &self.0[a as usize],
            a0,
            sa_o,
            &self.0[b as usize],
            b0,
            sb_o,
            n_o,
        );
        self.0[out as usize] = ovec;
        true
    }

    fn dot_panel(
        &mut self,
        out: u32,
        o0: usize,
        a: u32,
        a0: usize,
        sa_o: usize,
        b: u32,
        b0: usize,
        sb_o: usize,
        n_i: usize,
        n_o: usize,
        mode: MathMode,
    ) -> bool {
        let mut ovec = std::mem::take(&mut self.0[out as usize]);
        panel::dot(
            &mut ovec,
            o0,
            &self.0[a as usize],
            a0,
            sa_o,
            &self.0[b as usize],
            b0,
            sb_o,
            n_i,
            n_o,
            mode,
        );
        self.0[out as usize] = ovec;
        true
    }
}

/// One float-buffer binding for borrowed-buffer execution
/// ([`VmShared::run_borrowed`]): arena-backed pipelines hand the VM
/// views into caller-owned storage instead of moving `Vec`s in and out
/// per stage.
#[derive(Debug)]
pub enum BoundBuf<'a> {
    /// A read-only input slice.
    In(&'a [f32]),
    /// A written slice (the stage output), pre-initialised by the caller.
    Out(&'a mut [f32]),
}

/// Borrowed float buffers for one serial execution: free slots alias
/// caller storage, `Alloc` scratch stays private to the call.
struct BorrowedBufs<'a> {
    prog: &'a VmProgram,
    bufs: Vec<BoundBuf<'a>>,
    n_free: usize,
    scratch: Vec<Vec<f32>>,
}

impl FloatBufs for BorrowedBufs<'_> {
    #[inline]
    fn get(&self, slot: u32, idx: usize) -> f32 {
        if (slot as usize) < self.n_free {
            match &self.bufs[slot as usize] {
                BoundBuf::In(b) => b[idx],
                BoundBuf::Out(b) => b[idx],
            }
        } else {
            self.scratch[slot as usize - self.n_free][idx]
        }
    }

    #[inline]
    fn set(&mut self, slot: u32, idx: usize, v: f32) {
        if (slot as usize) < self.n_free {
            match &mut self.bufs[slot as usize] {
                BoundBuf::Out(b) => b[idx] = v,
                BoundBuf::In(_) => panic!(
                    "program stores to buffer `{}`, which was bound read-only",
                    fbuf_name(self.prog, slot)
                ),
            }
        } else {
            self.scratch[slot as usize - self.n_free][idx] = v;
        }
    }

    #[inline]
    fn rmw<F: FnOnce(f32) -> f32>(&mut self, slot: u32, idx: usize, f: F) {
        if (slot as usize) < self.n_free {
            match &mut self.bufs[slot as usize] {
                BoundBuf::Out(b) => {
                    let cell = &mut b[idx];
                    *cell = f(*cell);
                }
                BoundBuf::In(_) => panic!(
                    "program stores to buffer `{}`, which was bound read-only",
                    fbuf_name(self.prog, slot)
                ),
            }
        } else {
            let cell = &mut self.scratch[slot as usize - self.n_free][idx];
            *cell = f(*cell);
        }
    }

    fn alloc(&mut self, slot: u32, n: usize) {
        assert!(
            (slot as usize) >= self.n_free,
            "alloc of non-scratch slot `{}`",
            fbuf_name(self.prog, slot)
        );
        let buf = &mut self.scratch[slot as usize - self.n_free];
        buf.clear();
        buf.resize(n, 0.0);
    }

    #[inline]
    fn ro(&self, slot: u32) -> Option<&[f32]> {
        if (slot as usize) < self.n_free {
            Some(match &self.bufs[slot as usize] {
                BoundBuf::In(b) => b,
                BoundBuf::Out(b) => b,
            })
        } else {
            Some(&self.scratch[slot as usize - self.n_free])
        }
    }

    fn store_chunk(&mut self, out: u32, o0: usize, kind: StoreKind, vals: &[f32]) -> bool {
        // A read-only output binding returns `false`; the per-element
        // fallback then raises the canonical bound-read-only panic.
        self.with_out_taken(out, |ov, _| {
            store_chunk_slice(&mut ov[o0..o0 + vals.len()], kind, vals);
            true
        })
    }

    fn saxpy(&mut self, out: u32, o0: usize, b: u32, b0: usize, s: f32, n: usize) -> bool {
        fn run(ov: &mut [f32], o0: usize, bv: &[f32], b0: usize, s: f32, n: usize) {
            for (o, x) in ov[o0..o0 + n].iter_mut().zip(&bv[b0..b0 + n]) {
                *o += s * *x;
            }
        }
        let (on, bn) = (out as usize, b as usize);
        match (on < self.n_free, bn < self.n_free) {
            (true, true) => {
                let (ob, bb) = split_mut_ref(&mut self.bufs, on, bn);
                let BoundBuf::Out(ov) = ob else { return false };
                let bv: &[f32] = match bb {
                    BoundBuf::In(x) => x,
                    BoundBuf::Out(x) => x,
                };
                run(ov, o0, bv, b0, s, n);
            }
            (true, false) => {
                let bv = &self.scratch[bn - self.n_free];
                let BoundBuf::Out(ov) = &mut self.bufs[on] else {
                    return false;
                };
                run(ov, o0, bv, b0, s, n);
            }
            (false, true) => {
                let bv: &[f32] = match &self.bufs[bn] {
                    BoundBuf::In(x) => x,
                    BoundBuf::Out(x) => x,
                };
                let ov = &mut self.scratch[on - self.n_free];
                run(ov, o0, bv, b0, s, n);
            }
            (false, false) => {
                let (ov, bv) = split_mut_ref(&mut self.scratch, on - self.n_free, bn - self.n_free);
                run(ov, o0, bv, b0, s, n);
            }
        }
        true
    }

    fn saxpy_panel(
        &mut self,
        out: u32,
        o0: usize,
        n_i: usize,
        a: u32,
        a0: usize,
        sa_o: usize,
        b: u32,
        b0: usize,
        sb_o: usize,
        n_o: usize,
    ) -> bool {
        self.with_out_taken(out, |ov, me| {
            let (Some(av), Some(bv)) = (me.ro(a), me.ro(b)) else {
                return false;
            };
            panel::saxpy(ov, o0, n_i, av, a0, sa_o, bv, b0, sb_o, n_o);
            true
        })
    }

    fn dot_panel(
        &mut self,
        out: u32,
        o0: usize,
        a: u32,
        a0: usize,
        sa_o: usize,
        b: u32,
        b0: usize,
        sb_o: usize,
        n_i: usize,
        n_o: usize,
        mode: MathMode,
    ) -> bool {
        self.with_out_taken(out, |ov, me| {
            let (Some(av), Some(bv)) = (me.ro(a), me.ro(b)) else {
                return false;
            };
            panel::dot(ov, o0, av, a0, sa_o, bv, b0, sb_o, n_i, n_o, mode);
            true
        })
    }
}

impl<'a> BorrowedBufs<'a> {
    /// Runs `f` with the writable view of slot `out` temporarily moved
    /// out of the table (so the operand slots stay readable through
    /// `self`), restoring it afterwards. Returns `false` without calling
    /// `f` when `out` is bound read-only.
    fn with_out_taken(&mut self, out: u32, f: impl FnOnce(&mut [f32], &Self) -> bool) -> bool {
        if (out as usize) < self.n_free {
            let taken = std::mem::replace(&mut self.bufs[out as usize], BoundBuf::In(&[]));
            let BoundBuf::Out(ov) = taken else {
                self.bufs[out as usize] = taken;
                return false;
            };
            let done = f(ov, self);
            self.bufs[out as usize] = BoundBuf::Out(ov);
            done
        } else {
            let mut ovec = std::mem::take(&mut self.scratch[out as usize - self.n_free]);
            let done = f(&mut ovec, self);
            self.scratch[out as usize - self.n_free] = ovec;
            done
        }
    }
}

/// Mutable per-execution register state handed to the dispatch loop.
struct Regs<'a> {
    vars: &'a mut [i64],
    iregs: &'a mut [i64],
    fregs: &'a mut [f32],
    uf_args: &'a mut Vec<i64>,
}

/// Executes `prog` to completion over the given state. Statistics are
/// batched in a local and published on normal return, so `stats` is not
/// updated if execution panics mid-kernel.
fn dispatch<B: FloatBufs>(
    prog: &VmProgram,
    ibufs: &[Arc<[i64]>],
    ufs: &[Option<UfHandle>],
    regs: &mut Regs<'_>,
    fbufs: &mut B,
    stats: &mut InterpStats,
    map_scratch: &mut MapScratch,
) {
    let code = prog.code.as_slice();
    let Regs {
        vars,
        iregs,
        fregs,
        uf_args,
    } = regs;
    let mut st = *stats;
    let mut pc = 0usize;
    while pc < code.len() {
        match &code[pc] {
            Instr::IConst { dst, v } => iregs[*dst as usize] = *v,
            Instr::IVar { dst, slot } => {
                iregs[*dst as usize] = vars[*slot as usize];
            }
            Instr::ICopy { dst, src } => {
                iregs[*dst as usize] = iregs[*src as usize];
            }
            Instr::IBin { op, dst, a, b } => {
                let x = iregs[*a as usize];
                let y = iregs[*b as usize];
                iregs[*dst as usize] = ibin_apply(*op, x, y);
            }
            Instr::IBinC { op, dst, a, c } => {
                let x = iregs[*a as usize];
                iregs[*dst as usize] = ibin_apply(*op, x, *c);
            }
            Instr::IBinV { op, dst, a, vslot } => {
                let x = iregs[*a as usize];
                let y = vars[*vslot as usize];
                iregs[*dst as usize] = ibin_apply(*op, x, y);
            }
            Instr::ILoad { dst, buf, idx } => {
                let i = iregs[*idx as usize];
                let iu = usize::try_from(i).unwrap_or_else(|_| {
                    panic!(
                        "negative index {i} into buffer `{}`",
                        prog.slots.ibufs.names()[*buf as usize]
                    )
                });
                iregs[*dst as usize] = ibufs[*buf as usize][iu];
            }
            Instr::ILoadV { dst, buf, vslot } => {
                let i = vars[*vslot as usize];
                let iu = usize::try_from(i).unwrap_or_else(|_| {
                    panic!(
                        "negative index {i} into buffer `{}`",
                        prog.slots.ibufs.names()[*buf as usize]
                    )
                });
                iregs[*dst as usize] = ibufs[*buf as usize][iu];
            }
            Instr::IUf { dst, uf, args } => {
                uf_args.clear();
                for &a in args.iter() {
                    uf_args.push(iregs[a as usize]);
                }
                let h = ufs[*uf as usize].as_ref().expect("checked bound");
                iregs[*dst as usize] = h.call(uf_args);
            }
            Instr::SetVar { slot, src } => {
                vars[*slot as usize] = iregs[*src as usize];
            }
            Instr::LetVar { slot, src, aux } => {
                vars[*slot as usize] = iregs[*src as usize];
                st.aux_loads += *aux;
            }
            Instr::BrVarGe { slot, lim, to } => {
                if vars[*slot as usize] >= iregs[*lim as usize] {
                    pc = *to as usize;
                    continue;
                }
            }
            Instr::LoopNext { slot, lim, back } => {
                let v = vars[*slot as usize] + 1;
                vars[*slot as usize] = v;
                if v < iregs[*lim as usize] {
                    pc = *back as usize;
                    continue;
                }
            }
            Instr::BrCmp {
                op,
                a,
                b,
                on_true,
                on_false,
            } => {
                let x = iregs[*a as usize];
                let y = iregs[*b as usize];
                let t = match op {
                    CmpOp::Lt => x < y,
                    CmpOp::Le => x <= y,
                    CmpOp::Eq => x == y,
                    CmpOp::Ne => x != y,
                };
                pc = if t { *on_true } else { *on_false } as usize;
                continue;
            }
            Instr::Jump { to } => {
                pc = *to as usize;
                continue;
            }
            Instr::Guard { aux } => {
                st.guards += 1;
                st.aux_loads += *aux;
            }
            Instr::BumpAux { n } => st.aux_loads += *n,
            Instr::FConst { dst, v } => fregs[*dst as usize] = *v,
            Instr::FLoad { dst, buf, idx, aux } => {
                st.aux_loads += *aux;
                let i = iregs[*idx as usize];
                let iu = usize::try_from(i).unwrap_or_else(|_| {
                    panic!("negative load index {i} into `{}`", fbuf_name(prog, *buf))
                });
                fregs[*dst as usize] = fbufs.get(*buf, iu);
            }
            Instr::FCast { dst, src, aux } => {
                st.aux_loads += *aux;
                fregs[*dst as usize] = iregs[*src as usize] as f32;
            }
            Instr::FCopy { dst, src } => {
                fregs[*dst as usize] = fregs[*src as usize];
            }
            Instr::FBin { op, dst, a, b } => {
                let x = fregs[*a as usize];
                let y = fregs[*b as usize];
                fregs[*dst as usize] = fbin_apply(*op, x, y);
                st.flops += 1;
            }
            Instr::FBinC { op, dst, a, c } => {
                let x = fregs[*a as usize];
                fregs[*dst as usize] = fbin_apply(*op, x, *c);
                st.flops += 1;
            }
            Instr::FBinCL { op, dst, c, b } => {
                let y = fregs[*b as usize];
                fregs[*dst as usize] = fbin_apply(*op, *c, y);
                st.flops += 1;
            }
            Instr::FUn { op, dst, a } => {
                fregs[*dst as usize] = apply_unary(*op, fregs[*a as usize]);
                st.flops += 1;
            }
            Instr::FStore {
                buf,
                idx,
                val,
                kind,
                aux,
            } => {
                st.aux_loads += *aux;
                let i = iregs[*idx as usize];
                let v = fregs[*val as usize];
                let iu = usize::try_from(i).unwrap_or_else(|_| {
                    panic!("negative store index {i} into `{}`", fbuf_name(prog, *buf))
                });
                match kind {
                    StoreKind::Assign => fbufs.set(*buf, iu, v),
                    StoreKind::AddAssign => {
                        fbufs.rmw(*buf, iu, |c| c + v);
                        st.flops += 1;
                    }
                    StoreKind::MaxAssign => {
                        fbufs.rmw(*buf, iu, |c| c.max(v));
                        st.flops += 1;
                    }
                }
                st.stores += 1;
            }
            Instr::FAlloc { slot, size, aux } => {
                st.aux_loads += *aux;
                let n = iregs[*size as usize];
                let nu = usize::try_from(n)
                    .unwrap_or_else(|_| panic!("negative alloc size {n} for scratch buffer"));
                fbufs.alloc(*slot, nu);
            }
            Instr::FMulAcc(op) => {
                let n = iregs[op.n as usize];
                debug_assert!(n > 0, "zero-trip fused loops are branched around");
                let o0 = iregs[op.o0 as usize];
                let so = iregs[op.o1 as usize] - o0;
                let a0 = iregs[op.a0 as usize];
                let sa = iregs[op.a1 as usize] - a0;
                let b0 = iregs[op.b0 as usize];
                let sb = iregs[op.b1 as usize] - b0;
                run_fused_mul_acc(prog, fbufs, op.out, op.a, op.b, n, o0, so, a0, sa, b0, sb);
                let iters = n as u64;
                st.aux_loads += iters * op.aux;
                st.flops += 2 * iters;
                st.stores += iters;
            }
            Instr::FMap(op) => {
                let n = iregs[op.n as usize];
                debug_assert!(n > 0, "zero-trip fused loops are branched around");
                let o0 = iregs[op.o0 as usize];
                let so = iregs[op.o1 as usize] - o0;
                run_fused_map(prog, fbufs, op, n, o0, so, iregs, map_scratch);
                let iters = n as u64;
                st.aux_loads += iters * op.aux;
                st.flops += iters * op.flops;
                st.stores += iters;
            }
            Instr::FMulAcc2(op) => {
                let n_o = iregs[op.n_outer as usize];
                debug_assert!(n_o > 0, "zero-trip fused loops are branched around");
                let n_i = iregs[op.n_inner as usize];
                // The serial nest charges the inner loop header's bound
                // loads once per outer iteration, body or not.
                st.aux_loads += (n_o as u64) * op.aux_inner_bounds;
                if n_i > 0 {
                    let o00 = iregs[op.o00 as usize];
                    let (so_i, so_o) = (iregs[op.o0i as usize] - o00, iregs[op.o0o as usize] - o00);
                    let a00 = iregs[op.a00 as usize];
                    let (sa_i, sa_o) = (iregs[op.a0i as usize] - a00, iregs[op.a0o as usize] - a00);
                    let b00 = iregs[op.b00 as usize];
                    let (sb_i, sb_o) = (iregs[op.b0i as usize] - b00, iregs[op.b0o as usize] - b00);
                    run_fused_mul_acc2(
                        prog,
                        fbufs,
                        op,
                        [n_o, n_i],
                        [o00, so_i, so_o],
                        [a00, sa_i, sa_o],
                        [b00, sb_i, sb_o],
                    );
                    let iters = (n_o as u64) * (n_i as u64);
                    st.aux_loads += iters * op.aux;
                    st.flops += 2 * iters;
                    st.stores += iters;
                }
            }
        }
        pc += 1;
    }
    *stats = st;
}

/// Executes one [`FusedMap`]: `n` elements of
/// `out[o0 + t·so] (=|+=|max=) tape(t)`, evaluated chunk-wise (each tape
/// op swept across a whole chunk before the next — element independence
/// keeps the per-element float sequence identical) and stored in
/// ascending element order, so reductions accumulate exactly as the
/// unfused loop would.
#[allow(clippy::too_many_arguments)]
fn run_fused_map<B: FloatBufs>(
    prog: &VmProgram,
    fbufs: &mut B,
    op: &FusedMap,
    n: i64,
    o0: i64,
    so: i64,
    iregs: &[i64],
    map_scratch: &mut MapScratch,
) {
    let nneg = |i: i64, slot: u32, what: &str| -> usize {
        usize::try_from(i).unwrap_or_else(|_| {
            panic!("negative {what} index {i} into `{}`", fbuf_name(prog, slot))
        })
    };
    let mut bases = [(0i64, 0i64); MAX_MAP_SITES];
    for (i, s) in op.sites.iter().enumerate() {
        let b = iregs[s.r0 as usize];
        bases[i] = (b, iregs[s.r1 as usize] - b);
    }
    // An entry is *uniform* when every element of its chunk holds the
    // same value — constants, stride-0 loads/casts, and any op whose
    // inputs are all uniform. Uniform entries are computed once per
    // chunk and broadcast: the same operation on the same input yields
    // the same bits, so this is legal even in Strict mode (it hoists
    // the per-element `1/rowsum`, `rsqrt(var)`-style scalars that
    // row-normalise and layer-norm tapes recompute per element).
    let mut uniform = [false; MAX_MAP_TAPE];
    for (ti, t) in op.tape.iter().enumerate() {
        uniform[ti] = match t {
            MapOp::Const { .. } => true,
            MapOp::Load { site } | MapOp::Cast { site } => bases[*site as usize].1 == 0,
            MapOp::Bin { a, b, .. } => uniform[*a as usize] && uniform[*b as usize],
            MapOp::Un { a, .. } => uniform[*a as usize],
        };
    }
    let scratch = &mut map_scratch.0;
    let mut start = 0i64;
    while start < n {
        let m = ((n - start) as usize).min(MAP_CHUNK);
        for ti in 0..op.tape.len() {
            let (prev, cur) = scratch.split_at_mut(ti);
            let dst = &mut cur[0][..m];
            match &op.tape[ti] {
                MapOp::Const { v } => dst.fill(*v),
                MapOp::Load { site } => {
                    let s = &op.sites[*site as usize];
                    let (base, stride) = bases[*site as usize];
                    let first = base + start * stride;
                    if stride == 0 {
                        dst.fill(fbufs.get(s.buf, nneg(first, s.buf, "load")));
                    } else if stride == 1 {
                        if let Some(bufv) = fbufs.ro(s.buf) {
                            let i0 = nneg(first, s.buf, "load");
                            dst.copy_from_slice(&bufv[i0..i0 + m]);
                        } else {
                            for (e, d) in dst.iter_mut().enumerate() {
                                *d = fbufs.get(s.buf, nneg(first + e as i64, s.buf, "load"));
                            }
                        }
                    } else {
                        for (e, d) in dst.iter_mut().enumerate() {
                            *d = fbufs.get(s.buf, nneg(first + e as i64 * stride, s.buf, "load"));
                        }
                    }
                }
                MapOp::Cast { site } => {
                    let (base, stride) = bases[*site as usize];
                    if stride == 0 {
                        dst.fill(base as f32);
                    } else {
                        for (e, d) in dst.iter_mut().enumerate() {
                            *d = (base + (start + e as i64) * stride) as f32;
                        }
                    }
                }
                MapOp::Bin { op: bop, a, b } => {
                    let (av, bv) = (&prev[*a as usize], &prev[*b as usize]);
                    let (ua, ub) = (uniform[*a as usize], uniform[*b as usize]);
                    if ua && ub {
                        dst.fill(fbin_apply(*bop, av[0], bv[0]));
                    } else if ua {
                        bin_chunk_sv(*bop, dst, av[0], &bv[..m]);
                    } else if ub {
                        bin_chunk_vs(*bop, dst, &av[..m], bv[0]);
                    } else {
                        bin_chunk(*bop, dst, &av[..m], &bv[..m]);
                    }
                }
                MapOp::Un { op: uop, a } => {
                    let av = &prev[*a as usize];
                    if uniform[*a as usize] {
                        let v = match (prog.math, uop) {
                            (MathMode::Fast, FUnaryOp::Exp) => microkernel::exp_fast(av[0]),
                            (MathMode::Fast, FUnaryOp::Tanh) => microkernel::tanh_fast(av[0]),
                            _ => apply_unary(*uop, av[0]),
                        };
                        dst.fill(v);
                    } else {
                        match (prog.math, uop) {
                            // Fast mode swaps the libm transcendentals
                            // for the branch-free polynomial chunk
                            // sweeps, under the microkernel module's
                            // documented tolerances.
                            (MathMode::Fast, FUnaryOp::Exp) => {
                                microkernel::exp_chunk(dst, &av[..m]);
                            }
                            (MathMode::Fast, FUnaryOp::Tanh) => {
                                microkernel::tanh_chunk(dst, &av[..m]);
                            }
                            _ => un_chunk(*uop, dst, &av[..m]),
                        }
                    }
                }
            }
        }
        let vals = &scratch[op.tape.len() - 1][..m];
        let first = o0 + start * so;
        if so == 1 {
            // Contiguous output: one bounds-checked chunk store instead
            // of a dispatch per element (bit-identical element order).
            let i0 = nneg(first, op.out, "store");
            if fbufs.store_chunk(op.out, i0, op.kind, vals) {
                start += m as i64;
                continue;
            }
        }
        if so == 0 {
            // Every element of the chunk lands on one output cell:
            // fold locally and touch memory once per chunk. Chunks are
            // combined in ascending order, so Strict folds reproduce
            // the serial store sequence exactly; Fast reassociates the
            // in-chunk reduction across lanes (still deterministic).
            let idx = nneg(first, op.out, "store");
            match op.kind {
                // Repeated plain stores: the last value wins.
                StoreKind::Assign => fbufs.set(op.out, idx, vals[m - 1]),
                StoreKind::AddAssign => {
                    let mut acc = fbufs.get(op.out, idx);
                    match prog.math {
                        MathMode::Strict => {
                            for v in vals {
                                acc += *v;
                            }
                        }
                        MathMode::Fast => acc += microkernel::sum_fast(vals),
                    }
                    fbufs.set(op.out, idx, acc);
                }
                StoreKind::MaxAssign => {
                    let acc = fbufs.get(op.out, idx);
                    let acc = match prog.math {
                        MathMode::Strict => vals.iter().fold(acc, |c, v| c.max(*v)),
                        MathMode::Fast => microkernel::max_fast(acc, vals),
                    };
                    fbufs.set(op.out, idx, acc);
                }
            }
            start += m as i64;
            continue;
        }
        match op.kind {
            StoreKind::Assign => {
                for (e, v) in vals.iter().enumerate() {
                    let idx = nneg(o0 + (start + e as i64) * so, op.out, "store");
                    fbufs.set(op.out, idx, *v);
                }
            }
            StoreKind::AddAssign => {
                for (e, v) in vals.iter().enumerate() {
                    let idx = nneg(o0 + (start + e as i64) * so, op.out, "store");
                    fbufs.rmw(op.out, idx, |c| c + *v);
                }
            }
            StoreKind::MaxAssign => {
                for (e, v) in vals.iter().enumerate() {
                    let idx = nneg(o0 + (start + e as i64) * so, op.out, "store");
                    fbufs.rmw(op.out, idx, |c| c.max(*v));
                }
            }
        }
        start += m as i64;
    }
}

/// Executes one [`FusedMulAcc2`]: the full `n_o × n_i` nest of
/// `out[o(t,u)] += a[a(t,u)] · b[b(t,u)]` with 2-D affine indices
/// (`[base, inner stride, outer stride]` triples), in serial nest order.
/// The two ubiquitous stride shapes run as native panels; anything else
/// falls back to one fused inner loop per outer iteration.
fn run_fused_mul_acc2<B: FloatBufs>(
    prog: &VmProgram,
    fbufs: &mut B,
    op: &FusedMulAcc2,
    n: [i64; 2],
    o: [i64; 3],
    a: [i64; 3],
    b: [i64; 3],
) {
    let [n_o, n_i] = n;
    let ([o00, so_i, so_o], [a00, sa_i, sa_o], [b00, sb_i, sb_o]) = (o, a, b);
    // The nest's runtime stride shape, pattern-matched against the
    // declarative microkernel ISA (`microkernel::PANEL_KERNELS`) instead
    // of hard-coded stride peepholes; negative outer strides never
    // classify (the kernels address `usize` ranges).
    let shape = PanelShape {
        out: (so_i, so_o),
        a: (sa_i, sa_o),
        b: (sb_i, sb_o),
    };
    let bases_ok = o00 >= 0 && a00 >= 0 && b00 >= 0;
    let kind = if bases_ok {
        microkernel::classify_panel(&shape)
    } else {
        None
    };
    match kind {
        // i-k-j GEMM row: out_row += a[t] · b_row(t).
        Some(PanelKind::Saxpy) => {
            let done = fbufs.saxpy_panel(
                op.out,
                o00 as usize,
                n_i as usize,
                op.a,
                a00 as usize,
                sa_o as usize,
                op.b,
                b00 as usize,
                sb_o as usize,
                n_o as usize,
            );
            if done {
                return;
            }
        }
        // Per-row dots: out[t] += a_row(t) · b_row(t).
        Some(PanelKind::Dot) => {
            let done = fbufs.dot_panel(
                op.out,
                o00 as usize,
                op.a,
                a00 as usize,
                sa_o as usize,
                op.b,
                b00 as usize,
                sb_o as usize,
                n_i as usize,
                n_o as usize,
                prog.math,
            );
            if done {
                return;
            }
        }
        None => {}
    }
    for t in 0..n_o {
        run_fused_mul_acc(
            prog,
            fbufs,
            op.out,
            op.a,
            op.b,
            n_i,
            o00 + t * so_o,
            so_i,
            a00 + t * sa_o,
            sa_i,
            b00 + t * sb_o,
            sb_i,
        );
    }
}

/// Executes one [`FusedMulAcc`]: `n` iterations of
/// `out[o0 + t·so] += a[a0 + t·sa] · b[b0 + t·sb]` in serial order, so the
/// result is bit-identical to the unfused loop's per-iteration stores.
#[allow(clippy::too_many_arguments)]
fn run_fused_mul_acc<B: FloatBufs>(
    prog: &VmProgram,
    fbufs: &mut B,
    out: u32,
    a: u32,
    b: u32,
    n: i64,
    o0: i64,
    so: i64,
    a0: i64,
    sa: i64,
    b0: i64,
    sb: i64,
) {
    let load_idx = |base: i64, stride: i64, t: i64, slot: u32| -> usize {
        let i = base + t * stride;
        usize::try_from(i)
            .unwrap_or_else(|_| panic!("negative load index {i} into `{}`", fbuf_name(prog, slot)))
    };
    let store_idx = |i: i64| -> usize {
        usize::try_from(i)
            .unwrap_or_else(|_| panic!("negative store index {i} into `{}`", fbuf_name(prog, out)))
    };
    let nu = n as usize;
    // Classify the stride triple against the one-deep microkernel ISA
    // (`microkernel::AXPY_KERNELS`) rather than matching strides inline.
    match microkernel::classify_axpy(so, sa, sb) {
        Some(AxpyKind::DotAcc) => {
            // A reduction into one element: accumulate locally and write
            // once. In Strict mode the float-add sequence
            // `((out + x₀y₀) + x₁y₁) + …` is exactly what per-iteration
            // read-modify-writes produce; Fast mode reassociates the
            // unit-stride shape across lanes.
            let o = store_idx(o0);
            let mut acc = fbufs.get(out, o);
            if sa == 1 && sb == 1 {
                if let (Some(av), Some(bv)) = (fbufs.ro(a), fbufs.ro(b)) {
                    let ab = load_idx(a0, 1, 0, a);
                    let bb = load_idx(b0, 1, 0, b);
                    let (ar, br) = (&av[ab..ab + nu], &bv[bb..bb + nu]);
                    match prog.math {
                        MathMode::Strict => {
                            for (x, y) in ar.iter().zip(br) {
                                acc += *x * *y;
                            }
                        }
                        MathMode::Fast => acc += microkernel::dot_fast(ar, br),
                    }
                    fbufs.set(out, o, acc);
                    return;
                }
            }
            for t in 0..n {
                let x = fbufs.get(a, load_idx(a0, sa, t, a));
                let y = fbufs.get(b, load_idx(b0, sb, t, b));
                acc += x * y;
            }
            fbufs.set(out, o, acc);
        }
        Some(AxpyKind::Saxpy) => {
            // The vectorizable saxpy shape: a scalar left operand
            // streaming over contiguous right/output rows.
            let s = fbufs.get(a, load_idx(a0, 0, 0, a));
            let ob = store_idx(o0);
            let bb = load_idx(b0, 1, 0, b);
            if !fbufs.saxpy(out, ob, b, bb, s, nu) {
                for t in 0..n {
                    let y = fbufs.get(b, load_idx(b0, 1, t, b));
                    fbufs.rmw(out, store_idx(o0 + t), |c| c + s * y);
                }
            }
        }
        None => {
            for t in 0..n {
                let x = fbufs.get(a, load_idx(a0, sa, t, a));
                let y = fbufs.get(b, load_idx(b0, sb, t, b));
                fbufs.rmw(out, store_idx(o0 + t * so), |c| c + x * y);
            }
        }
    }
}

#[inline]
fn ibin_apply(op: IBinOp, x: i64, y: i64) -> i64 {
    match op {
        IBinOp::Add => x + y,
        IBinOp::Sub => x - y,
        IBinOp::Mul => x * y,
        IBinOp::FloorDiv => cora_ir::expr::floor_div_i64(x, y),
        IBinOp::FloorMod => cora_ir::expr::floor_mod_i64(x, y),
        IBinOp::Min => x.min(y),
        IBinOp::Max => x.max(y),
    }
}

#[inline]
fn fbin_apply(op: FBinOp, x: f32, y: f32) -> f32 {
    match op {
        FBinOp::Add => x + y,
        FBinOp::Sub => x - y,
        FBinOp::Mul => x * y,
        FBinOp::Div => x / y,
        FBinOp::Max => x.max(y),
    }
}

/// Tape binary over a chunk, dispatching on the op *once* so each arm is
/// a tight loop the compiler vectorizes (per-element results identical
/// to `fbin_apply`, so both math modes use these).
fn bin_chunk(op: FBinOp, dst: &mut [f32], a: &[f32], b: &[f32]) {
    macro_rules! sweep {
        ($f:expr) => {
            for ((d, x), y) in dst.iter_mut().zip(a).zip(b) {
                *d = $f(*x, *y);
            }
        };
    }
    match op {
        FBinOp::Add => sweep!(|x: f32, y: f32| x + y),
        FBinOp::Sub => sweep!(|x: f32, y: f32| x - y),
        FBinOp::Mul => sweep!(|x: f32, y: f32| x * y),
        FBinOp::Div => sweep!(|x: f32, y: f32| x / y),
        FBinOp::Max => sweep!(|x: f32, y: f32| x.max(y)),
    }
}

/// [`bin_chunk`] with a uniform (broadcast-scalar) left operand.
fn bin_chunk_sv(op: FBinOp, dst: &mut [f32], x: f32, b: &[f32]) {
    macro_rules! sweep {
        ($f:expr) => {
            for (d, y) in dst.iter_mut().zip(b) {
                *d = $f(x, *y);
            }
        };
    }
    match op {
        FBinOp::Add => sweep!(|x: f32, y: f32| x + y),
        FBinOp::Sub => sweep!(|x: f32, y: f32| x - y),
        FBinOp::Mul => sweep!(|x: f32, y: f32| x * y),
        FBinOp::Div => sweep!(|x: f32, y: f32| x / y),
        FBinOp::Max => sweep!(|x: f32, y: f32| x.max(y)),
    }
}

/// [`bin_chunk`] with a uniform (broadcast-scalar) right operand.
fn bin_chunk_vs(op: FBinOp, dst: &mut [f32], a: &[f32], y: f32) {
    macro_rules! sweep {
        ($f:expr) => {
            for (d, x) in dst.iter_mut().zip(a) {
                *d = $f(*x, y);
            }
        };
    }
    match op {
        FBinOp::Add => sweep!(|x: f32, y: f32| x + y),
        FBinOp::Sub => sweep!(|x: f32, y: f32| x - y),
        FBinOp::Mul => sweep!(|x: f32, y: f32| x * y),
        FBinOp::Div => sweep!(|x: f32, y: f32| x / y),
        FBinOp::Max => sweep!(|x: f32, y: f32| x.max(y)),
    }
}

/// Tape unary over a chunk with the op dispatch hoisted out of the loop
/// (per-element results identical to `apply_unary`; `Fast` transcendental
/// sweeps are handled by the caller).
fn un_chunk(op: FUnaryOp, dst: &mut [f32], a: &[f32]) {
    macro_rules! sweep {
        ($f:expr) => {
            for (d, x) in dst.iter_mut().zip(a) {
                *d = $f(*x);
            }
        };
    }
    match op {
        FUnaryOp::Neg => sweep!(|x: f32| -x),
        FUnaryOp::Exp => sweep!(|x: f32| x.exp()),
        FUnaryOp::Sqrt => sweep!(|x: f32| x.sqrt()),
        FUnaryOp::Recip => sweep!(|x: f32| 1.0 / x),
        FUnaryOp::Tanh => sweep!(|x: f32| x.tanh()),
        FUnaryOp::Relu => sweep!(|x: f32| x.max(0.0)),
    }
}

/// Best-effort name for a float-buffer slot (free buffers have names;
/// `Alloc` scratch slots are past the free range).
fn fbuf_name(prog: &VmProgram, slot: u32) -> String {
    let free = prog.slots.free_fbufs.len();
    match prog.slots.free_fbufs.names().get(slot as usize) {
        Some(n) => n.clone(),
        None => match prog.fbuf_slot_names.get(slot as usize - free) {
            Some(n) => format!("{n}@{slot}"),
            None => format!("<scratch slot {slot}>"),
        },
    }
}

// ---------------------------------------------------------------------
// Parallel execution
// ---------------------------------------------------------------------

/// A machine-checked disjoint-store certificate: for every block value,
/// the strided-interval regions of the output its stores may touch.
///
/// Produced by the static verifier (`cora_core::verify`) from a
/// concrete abstract interpretation of the outlined body, and consumed
/// by [`VmShared::run_blocks_proven`] — the *safe* parallel entry
/// point. Soundness does not rest on trusting the verifier:
/// [`StoreCert::new`] re-validates that regions of distinct blocks are
/// pairwise disjoint (so the type cannot exist for a non-partitioned
/// store space), and the executor checks every output store against the
/// executing block's regions at run time. A verifier bug can therefore
/// produce a deterministic panic, never a data race.
///
/// The layout is a flat CSR table: block `b` owns
/// `regions[offsets[b - min_block] .. offsets[b - min_block + 1]]`, so
/// the per-block lookup on the dispatch path is two index operations.
#[derive(Debug, Clone, Default)]
pub struct StoreCert {
    min_block: i64,
    /// One entry past each block of `min_block ..= max_block`; empty for
    /// the empty certificate.
    offsets: Vec<u32>,
    regions: Vec<SInt>,
}

/// Why a set of per-block store regions is not a certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertError {
    /// A block has an unbounded ([`SInt::Top`]) store region.
    Unbounded {
        /// The block value.
        block: i64,
    },
    /// Two distinct blocks have regions the congruence test cannot
    /// separate: the first such pair in `(lo, hi, block)` order.
    Overlap {
        /// First witness block value.
        block_a: i64,
        /// Its region.
        region_a: SInt,
        /// Second witness block value.
        block_b: i64,
        /// Its overlapping region.
        region_b: SInt,
    },
    /// The block values span more than [`StoreCert::MAX_BLOCK_SPAN`], or
    /// there are more regions than a `u32` offset can address.
    TooLarge,
}

impl StoreCert {
    /// Widest `max_block - min_block` a certificate indexes densely: the
    /// offsets table is allocated for the whole span, so the span of an
    /// arbitrary caller's block values is bounded before allocating.
    pub const MAX_BLOCK_SPAN: usize = 1 << 24;

    /// Builds a certificate from `(block value, region)` spans,
    /// re-validating pairwise disjointness across blocks (interval
    /// separation with stride/congruence fallback, via a sort-and-sweep
    /// over the regions). A block's regions keep their input order;
    /// empty regions are dropped.
    ///
    /// # Errors
    ///
    /// Rejects unbounded ([`SInt::Top`]) regions and any cross-block
    /// overlap the congruence test cannot refute, naming the first
    /// offending pair in `(lo, hi, block)` order.
    pub fn new(spans: impl IntoIterator<Item = (i64, SInt)>) -> Result<StoreCert, CertError> {
        let mut sweep: Vec<(i64, i64, i64, SInt)> = Vec::new();
        for (block, r) in spans {
            match r {
                SInt::Empty => {}
                SInt::Top => return Err(CertError::Unbounded { block }),
                SInt::Set { lo, hi, .. } => sweep.push((lo, hi, block, r)),
            }
        }
        let (Some(min_block), Some(max_block)) = (
            sweep.iter().map(|s| s.2).min(),
            sweep.iter().map(|s| s.2).max(),
        ) else {
            return Ok(StoreCert::default());
        };
        let span = max_block
            .checked_sub(min_block)
            .and_then(|d| usize::try_from(d).ok())
            .filter(|&d| d <= Self::MAX_BLOCK_SPAN && u32::try_from(sweep.len()).is_ok())
            .ok_or(CertError::TooLarge)?;
        // Counting sort by block into the CSR table: count, prefix-sum
        // into each block's start, scatter in input order.
        let slot = |block: i64| (block - min_block) as usize;
        let mut offsets = vec![0u32; span + 2];
        for s in &sweep {
            offsets[slot(s.2) + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut next = offsets.clone();
        let mut regions = vec![SInt::Empty; sweep.len()];
        for s in &sweep {
            regions[next[slot(s.2)] as usize] = s.3;
            next[slot(s.2)] += 1;
        }

        sweep.sort_by_key(|&(lo, hi, b, _)| (lo, hi, b));
        for (i, &(_, hi_i, block_a, region_a)) in sweep.iter().enumerate() {
            for &(lo_j, _, block_b, region_b) in &sweep[i + 1..] {
                if lo_j > hi_i {
                    break;
                }
                if block_a != block_b && !region_a.disjoint(region_b) {
                    return Err(CertError::Overlap {
                        block_a,
                        region_a,
                        block_b,
                        region_b,
                    });
                }
            }
        }
        Ok(StoreCert {
            min_block,
            offsets,
            regions,
        })
    }

    /// The certified store regions of one block value. Blocks absent
    /// from the certificate (e.g. zero-length rows) own no elements, so
    /// any store they attempt panics.
    #[inline]
    pub fn regions_for(&self, block: i64) -> &[SInt] {
        let bounds = block
            .checked_sub(self.min_block)
            .and_then(|d| usize::try_from(d).ok())
            .and_then(|i| Some((*self.offsets.get(i)?, *self.offsets.get(i + 1)?)));
        match bounds {
            Some((start, end)) => &self.regions[start as usize..end as usize],
            None => &[],
        }
    }
}

/// True when the per-element owning-block tracker should run: always in
/// debug builds, and in release builds when `CORA_CHECK_DISJOINT=1`
/// opts in — the verifier cross-check the `verify` CI job uses to run
/// a release-speed encoder batch under full dynamic enforcement.
fn dynamic_check_enabled() -> bool {
    static ENABLED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ENABLED.get_or_init(|| {
        cfg!(debug_assertions) || std::env::var("CORA_CHECK_DISJOINT").is_ok_and(|v| v == "1")
    })
}

/// The kernel output buffer shared by every parallel worker.
///
/// Built safely from an exclusive `&mut [f32]` via
/// [`Cell::from_mut`]/[`Cell::as_slice_of_cells`]; the only `unsafe` is
/// the `Sync` impl and the raw-pointer cell accesses below.
///
/// # Safety
///
/// Unsynchronized writes through the cells are sound *given* the
/// disjoint-store contract of [`VmShared::run_blocks`]: every store
/// executed for block index `b` targets an output element owned by `b`,
/// distinct blocks own disjoint element sets, and reads through
/// `SharedOut::get` only observe elements owned by the reading block
/// (read-modify-write reductions) — so no location is ever accessed
/// from two threads without ordering. The exclusive borrow keeps all
/// other access paths frozen for the region's lifetime, and
/// [`CpuPool::parallel_for`] joins every worker before `run_blocks`
/// returns.
///
/// The contract itself is the *caller's* obligation, discharged at
/// three layers (the README's "Safety & verification" story). First,
/// statically: the outliner's taint screen is a fast necessary-filter,
/// and `cora_core::verify` then *proves* disjointness per block value
/// by abstract interpretation over strided intervals, recording the
/// proof as a [`StoreCert`] inside the session's `VerifyOutcome`; the
/// safe entry point [`VmShared::run_blocks_proven`] enforces cert
/// membership on every store, so even a verifier bug panics
/// deterministically instead of racing. Second, dynamically: debug
/// builds — and release builds under `CORA_CHECK_DISJOINT=1` — track a
/// per-element owning block ([`OutOwners`]) and panic on any
/// cross-block overlap. Third, `miri` runs the parallel suites against
/// the raw `unsafe` entry points.
struct SharedOut<'a>(&'a [Cell<f32>]);

// SAFETY: see the type-level contract above — concurrent access is
// restricted to disjoint cells by the outliner.
#[allow(unsafe_code)]
unsafe impl Sync for SharedOut<'_> {}

impl<'a> SharedOut<'a> {
    fn new(buf: &'a mut [f32]) -> SharedOut<'a> {
        SharedOut(Cell::from_mut(buf).as_slice_of_cells())
    }

    #[inline]
    #[allow(unsafe_code)]
    fn get(&self, idx: usize) -> f32 {
        // SAFETY: only the block owning this element accesses it (see the
        // type-level contract), so the read cannot race a write.
        unsafe { *self.0[idx].as_ptr() }
    }

    #[inline]
    #[allow(unsafe_code)]
    fn set(&self, idx: usize, v: f32) {
        // SAFETY: as for `get` — this thread is the element's only
        // accessor during the region.
        unsafe { *self.0[idx].as_ptr() = v }
    }

    /// Exclusive mutable view of `[start, start + n)`, for the fused
    /// panel kernels.
    ///
    /// # Safety
    ///
    /// The executing block must own every element of the range under the
    /// disjoint-store contract (its stores all land there and no other
    /// block touches it), making the access exclusive for the view's
    /// lifetime. Debug builds claim each element beforehand, so a
    /// violated contract panics instead of racing.
    #[inline]
    #[allow(unsafe_code)]
    #[allow(clippy::mut_from_ref)] // exclusivity is the method's safety contract
    unsafe fn slice_mut(&self, start: usize, n: usize) -> &mut [f32] {
        assert!(start + n <= self.0.len(), "panel range out of bounds");
        // SAFETY: cells are layout-identical to f32 and the caller
        // guarantees exclusive ownership of the range (see above).
        unsafe { std::slice::from_raw_parts_mut(self.0[start].as_ptr(), n) }
    }
}

/// Dynamic enforcement of the disjoint-store contract: one atomic
/// owner record per output element, claimed by the first block that
/// stores there. A second block claiming the same element means the
/// contract the `unsafe impl Sync` relies on is violated — panic
/// deterministically instead of racing. Active in every debug build
/// and, via `CORA_CHECK_DISJOINT=1` (see [`dynamic_check_enabled`]),
/// in release builds as the verifier's runtime cross-check.
struct OutOwners(Vec<std::sync::atomic::AtomicI64>);

impl OutOwners {
    const UNCLAIMED: i64 = i64::MIN;

    fn new(len: usize) -> OutOwners {
        OutOwners(
            (0..len)
                .map(|_| std::sync::atomic::AtomicI64::new(Self::UNCLAIMED))
                .collect(),
        )
    }

    fn claim(&self, idx: usize, block: i64) {
        use std::sync::atomic::Ordering;
        if let Err(owner) = self.0[idx].compare_exchange(
            Self::UNCLAIMED,
            block,
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            assert!(
                owner == block,
                "disjoint-store contract violated: blocks {owner} and {block} \
                 both stored to output element {idx}"
            );
        }
    }
}

/// A parallel worker's float-buffer view: shared read-only inputs, the
/// shared output, and private `Alloc` scratch.
struct WorkerBufs<'a> {
    prog: &'a VmProgram,
    /// Free-slot inputs, shared read-only (the output slot's entry is
    /// unused). Slices rather than owned vectors, so inputs may live in
    /// the caller's buffers (e.g. a pipeline arena) as well as in a
    /// [`VmShared`].
    shared: &'a [&'a [f32]],
    out_slot: u32,
    out: &'a SharedOut<'a>,
    /// Number of free float-buffer slots; slots at or past this index are
    /// per-worker `Alloc` scratch.
    n_free: usize,
    scratch: Vec<Vec<f32>>,
    /// Per-element owner records, when the dynamic tracker is active
    /// (debug builds, or release under `CORA_CHECK_DISJOINT=1`).
    owners: Option<&'a OutOwners>,
    /// Block-variable value currently executing (owner records and
    /// certificate diagnostics).
    cur_block: i64,
    /// The certified store regions of `cur_block`, when running through
    /// the safe proven entry points. `None` means the caller vouched
    /// for the contract through the raw `unsafe` entry points.
    regions: Option<&'a [SInt]>,
}

impl WorkerBufs<'_> {
    #[inline]
    fn out_bounds_check(&self, idx: usize) {
        assert!(
            idx < self.out.0.len(),
            "index {idx} out of bounds for output `{}` (len {})",
            fbuf_name(self.prog, self.out_slot),
            self.out.0.len()
        );
    }

    #[inline]
    fn out_claim(&self, idx: usize) {
        self.out_bounds_check(idx);
        if let Some(regions) = self.regions {
            assert!(
                regions.iter().any(|r| r.contains(idx as i64)),
                "store to output element {idx} outside block {}'s certified regions",
                self.cur_block
            );
        }
        if let Some(owners) = self.owners {
            owners.claim(idx, self.cur_block);
        }
    }

    /// [`WorkerBufs::out_claim`] for a dense run `[o0, o0 + n)` — the
    /// chunked store paths. Certificate membership is checked once per
    /// run ([`SInt::contains_run`]); owner records still claim each
    /// element when the tracker is active.
    #[inline]
    fn out_claim_run(&self, o0: usize, n: usize) {
        if n == 0 {
            return;
        }
        self.out_bounds_check(o0 + n - 1);
        if let Some(regions) = self.regions {
            assert!(
                regions.iter().any(|r| r.contains_run(o0 as i64, n as i64)),
                "store run [{o0}, {}) outside block {}'s certified regions",
                o0 + n,
                self.cur_block
            );
        }
        if let Some(owners) = self.owners {
            for idx in o0..o0 + n {
                owners.claim(idx, self.cur_block);
            }
        }
    }
}

impl FloatBufs for WorkerBufs<'_> {
    #[inline]
    fn get(&self, slot: u32, idx: usize) -> f32 {
        if slot == self.out_slot {
            self.out_bounds_check(idx);
            self.out.get(idx)
        } else if (slot as usize) < self.n_free {
            self.shared[slot as usize][idx]
        } else {
            self.scratch[slot as usize - self.n_free][idx]
        }
    }

    #[inline]
    fn set(&mut self, slot: u32, idx: usize, v: f32) {
        if slot == self.out_slot {
            self.out_claim(idx);
            self.out.set(idx, v);
        } else if (slot as usize) >= self.n_free {
            self.scratch[slot as usize - self.n_free][idx] = v;
        } else {
            // The outliner rejects such programs statically; reaching this
            // arm means a compiler bug, not a user error.
            panic!(
                "parallel block stored to shared input buffer `{}`",
                fbuf_name(self.prog, slot)
            );
        }
    }

    #[inline]
    fn rmw<F: FnOnce(f32) -> f32>(&mut self, slot: u32, idx: usize, f: F) {
        if slot == self.out_slot {
            self.out_claim(idx);
            self.out.set(idx, f(self.out.get(idx)));
        } else if (slot as usize) >= self.n_free {
            let cell = &mut self.scratch[slot as usize - self.n_free][idx];
            *cell = f(*cell);
        } else {
            panic!(
                "parallel block stored to shared input buffer `{}`",
                fbuf_name(self.prog, slot)
            );
        }
    }

    fn alloc(&mut self, slot: u32, n: usize) {
        assert!(
            (slot as usize) >= self.n_free,
            "alloc of non-scratch slot `{}`",
            fbuf_name(self.prog, slot)
        );
        let buf = &mut self.scratch[slot as usize - self.n_free];
        buf.clear();
        buf.resize(n, 0.0);
    }

    #[inline]
    fn ro(&self, slot: u32) -> Option<&[f32]> {
        if slot == self.out_slot {
            None
        } else if (slot as usize) < self.n_free {
            Some(self.shared[slot as usize])
        } else {
            Some(&self.scratch[slot as usize - self.n_free])
        }
    }

    #[allow(unsafe_code)] // exclusive chunk view of the shared output; see SAFETY below
    fn store_chunk(&mut self, out: u32, o0: usize, kind: StoreKind, vals: &[f32]) -> bool {
        if out == self.out_slot {
            self.out_claim_run(o0, vals.len());
            // SAFETY: this block stores to exactly `[o0, o0 + len)` of
            // the output (checked against the certificate and claimed
            // above when the tracker is active); under the
            // disjoint-store contract the view is exclusive.
            let orow = unsafe { self.out.slice_mut(o0, vals.len()) };
            store_chunk_slice(orow, kind, vals);
            true
        } else if (out as usize) >= self.n_free {
            let ov = &mut self.scratch[out as usize - self.n_free];
            store_chunk_slice(&mut ov[o0..o0 + vals.len()], kind, vals);
            true
        } else {
            // Storing to a shared input: fall back so `set`/`rmw` raise
            // the canonical compiler-bug panic.
            false
        }
    }

    fn saxpy(&mut self, out: u32, o0: usize, b: u32, b0: usize, s: f32, n: usize) -> bool {
        if out == self.out_slot {
            // `b` is never the output (compile-time contract), so `ro`
            // always covers it here.
            let Some(bv) = self.ro(b) else { return false };
            self.out_claim_run(o0, n);
            for (t, x) in bv[b0..b0 + n].iter().enumerate() {
                let idx = o0 + t;
                self.out.set(idx, self.out.get(idx) + s * *x);
            }
            true
        } else if (out as usize) >= self.n_free {
            let oi = out as usize - self.n_free;
            if (b as usize) >= self.n_free {
                let (ov, bv) = split_mut_ref(&mut self.scratch, oi, b as usize - self.n_free);
                for (o, x) in ov[o0..o0 + n].iter_mut().zip(&bv[b0..b0 + n]) {
                    *o += s * *x;
                }
            } else {
                let bv: &[f32] = self.shared[b as usize];
                let ov = &mut self.scratch[oi];
                for (o, x) in ov[o0..o0 + n].iter_mut().zip(&bv[b0..b0 + n]) {
                    *o += s * *x;
                }
            }
            true
        } else {
            // Storing to a shared input: fall back so `set`/`rmw` raise
            // the canonical compiler-bug panic.
            false
        }
    }

    #[allow(unsafe_code)] // exclusive panel view of the shared output; see SAFETY below
    fn saxpy_panel(
        &mut self,
        out: u32,
        o0: usize,
        n_i: usize,
        a: u32,
        a0: usize,
        sa_o: usize,
        b: u32,
        b0: usize,
        sb_o: usize,
        n_o: usize,
    ) -> bool {
        if out == self.out_slot {
            self.out_claim_run(o0, n_i);
            // `a`/`b` are never the output (compile-time contract).
            let (Some(av), Some(bv)) = (self.ro(a), self.ro(b)) else {
                return false;
            };
            // SAFETY: this block stores to exactly `[o0, o0+n_i)` of the
            // output (checked against the certificate and claimed above
            // when the tracker is active); under the disjoint-store
            // contract no other block accesses those elements, so the
            // view is exclusive.
            let orow = unsafe { self.out.slice_mut(o0, n_i) };
            panel::saxpy(orow, 0, n_i, av, a0, sa_o, bv, b0, sb_o, n_o);
            true
        } else if (out as usize) >= self.n_free {
            let mut ovec = std::mem::take(&mut self.scratch[out as usize - self.n_free]);
            let (Some(av), Some(bv)) = (self.ro(a), self.ro(b)) else {
                self.scratch[out as usize - self.n_free] = ovec;
                return false;
            };
            panel::saxpy(&mut ovec, o0, n_i, av, a0, sa_o, bv, b0, sb_o, n_o);
            self.scratch[out as usize - self.n_free] = ovec;
            true
        } else {
            false
        }
    }

    #[allow(unsafe_code)] // exclusive panel view of the shared output; see SAFETY below
    fn dot_panel(
        &mut self,
        out: u32,
        o0: usize,
        a: u32,
        a0: usize,
        sa_o: usize,
        b: u32,
        b0: usize,
        sb_o: usize,
        n_i: usize,
        n_o: usize,
        mode: MathMode,
    ) -> bool {
        if out == self.out_slot {
            self.out_claim_run(o0, n_o);
            let (Some(av), Some(bv)) = (self.ro(a), self.ro(b)) else {
                return false;
            };
            // SAFETY: as in `saxpy_panel` — the block owns
            // `[o0, o0+n_o)` of the output, so the view is exclusive.
            let orow = unsafe { self.out.slice_mut(o0, n_o) };
            panel::dot(orow, 0, av, a0, sa_o, bv, b0, sb_o, n_i, n_o, mode);
            true
        } else if (out as usize) >= self.n_free {
            let mut ovec = std::mem::take(&mut self.scratch[out as usize - self.n_free]);
            let (Some(av), Some(bv)) = (self.ro(a), self.ro(b)) else {
                self.scratch[out as usize - self.n_free] = ovec;
                return false;
            };
            panel::dot(&mut ovec, o0, av, a0, sa_o, bv, b0, sb_o, n_i, n_o, mode);
            self.scratch[out as usize - self.n_free] = ovec;
            true
        } else {
            false
        }
    }
}

/// Shared, immutable per-run bindings for parallel block execution.
///
/// Created by [`VmProgram::shared`]; bind free variables, auxiliary
/// buffers, read-only float inputs and UF tables once, then execute the
/// program once per block index with [`VmShared::run_blocks`]. The block
/// variable and the output buffer stay unbound here — they are supplied
/// per block / per region.
#[derive(Debug)]
pub struct VmShared<'p> {
    prog: &'p VmProgram,
    /// Free-variable values (binding-site slots stay zero; each worker
    /// copies this file and writes its own loop variables).
    vars: Vec<i64>,
    var_bound: Vec<bool>,
    /// Shared handles: binding a built prelude table copies nothing.
    ibufs: Vec<Arc<[i64]>>,
    ibuf_bound: Vec<bool>,
    /// Free float buffers only (workers keep private `Alloc` scratch).
    fbufs: Vec<Vec<f32>>,
    fbuf_bound: Vec<bool>,
    ufs: Vec<Option<UfHandle>>,
}

impl VmShared<'_> {
    /// Binds a free integer variable. Returns `false` if the program
    /// never references `name` (the binding is ignored).
    pub fn bind_var(&mut self, name: &str, v: i64) -> bool {
        match self.prog.slots.free_vars.get(name) {
            Some(slot) => {
                self.vars[slot as usize] = v;
                self.var_bound[slot as usize] = true;
                true
            }
            None => false,
        }
    }

    /// Installs an integer auxiliary buffer (an owned `Vec<i64>`, or a
    /// shared `Arc<[i64]>` handle, which is bound without copying).
    /// Returns `false` if unused.
    pub fn set_ibuffer(&mut self, name: &str, data: impl Into<Arc<[i64]>>) -> bool {
        match self.prog.slots.ibufs.get(name) {
            Some(slot) => {
                self.ibufs[slot as usize] = data.into();
                self.ibuf_bound[slot as usize] = true;
                true
            }
            None => false,
        }
    }

    /// Installs a read-only float input buffer. Returns `false` if
    /// unused.
    pub fn set_fbuffer(&mut self, name: &str, data: Vec<f32>) -> bool {
        match self.prog.slots.free_fbufs.get(name) {
            Some(slot) => {
                self.fbufs[slot as usize] = data;
                self.fbuf_bound[slot as usize] = true;
                true
            }
            None => false,
        }
    }

    /// Installs an uninterpreted-function table. Returns `false` if
    /// unused.
    pub fn set_uf(&mut self, name: &str, h: UfHandle) -> bool {
        match self.prog.slots.ufs.get(name) {
            Some(slot) => {
                self.ufs[slot as usize] = Some(h);
                true
            }
            None => false,
        }
    }

    /// Verifies every external binding is present, except the block
    /// variable and the output buffer (supplied by `run_blocks` itself).
    /// `fbuf_bound` may extend [`Self::fbuf_bound`] with borrowed inputs.
    fn check_bound(&self, block_slot: Option<u32>, out_slot: u32, fbuf_bound: &[bool]) {
        let s = &self.prog.slots;
        for (i, bound) in self.var_bound.iter().enumerate() {
            assert!(
                *bound || Some(i) == block_slot.map(|b| b as usize),
                "unbound variable `{}`",
                s.free_vars.names()[i]
            );
        }
        for (i, bound) in self.ibuf_bound.iter().enumerate() {
            assert!(*bound, "missing auxiliary buffer `{}`", s.ibufs.names()[i]);
        }
        for (i, bound) in fbuf_bound.iter().enumerate() {
            assert!(
                *bound || i == out_slot as usize,
                "missing float buffer `{}`",
                s.free_fbufs.names()[i]
            );
        }
        for (i, h) in self.ufs.iter().enumerate() {
            assert!(
                h.is_some(),
                "no runtime table for uninterpreted function `{}`",
                s.ufs.names()[i]
            );
        }
    }

    /// Executes the whole program serially, with the float buffers
    /// supplied as *borrowed* slices instead of owned vectors — the entry
    /// point arena-backed pipelines use. Inputs bind as
    /// [`BoundBuf::In`]; written buffers bind as [`BoundBuf::Out`] and
    /// must be pre-initialised by the caller (the executor does not zero
    /// them). Buffers already installed with [`VmShared::set_fbuffer`]
    /// serve as read-only fallbacks; bindings for names the program never
    /// references are ignored.
    ///
    /// Loop variables, registers and `Alloc` scratch are private to the
    /// call, so `&self` executions are independent; outputs and
    /// statistics are bit-identical to an owned-buffer [`VmMachine::run`]
    /// with the same bindings.
    ///
    /// # Panics
    ///
    /// Panics on unbound inputs, stores to a buffer bound read-only, and
    /// out-of-bounds or negative accesses — matching the owned-buffer
    /// tiers.
    pub fn run_borrowed(&self, fbufs: Vec<(&str, BoundBuf<'_>)>) -> InterpStats {
        let s = &self.prog.slots;
        let mut table: Vec<Option<BoundBuf<'_>>> = (0..s.free_fbufs.len())
            .map(|i| {
                if self.fbuf_bound[i] {
                    Some(BoundBuf::In(&self.fbufs[i]))
                } else {
                    None
                }
            })
            .collect();
        for (name, buf) in fbufs {
            if let Some(slot) = s.free_fbufs.get(name) {
                table[slot as usize] = Some(buf);
            }
        }
        for (i, entry) in table.iter().enumerate() {
            assert!(
                entry.is_some(),
                "missing float buffer `{}`",
                s.free_fbufs.names()[i]
            );
        }
        // No block variable is exempt here: every free variable must be
        // bound for a full serial execution.
        let all_bound = vec![true; s.free_fbufs.len()];
        self.check_bound(None, u32::MAX, &all_bound);
        let mut bufs = BorrowedBufs {
            prog: self.prog,
            bufs: table.into_iter().map(Option::unwrap).collect(),
            n_free: s.free_fbufs.len(),
            scratch: vec![Vec::new(); s.alloc_sites],
        };
        let mut vars = self.vars.clone();
        let mut iregs = vec![0i64; self.prog.n_iregs];
        let mut fregs = vec![0.0f32; self.prog.n_fregs];
        let mut uf_args = Vec::new();
        let mut stats = InterpStats::default();
        dispatch(
            self.prog,
            &self.ibufs,
            &self.ufs,
            &mut Regs {
                vars: &mut vars,
                iregs: &mut iregs,
                fregs: &mut fregs,
                uf_args: &mut uf_args,
            },
            &mut bufs,
            &mut stats,
            &mut MapScratch::default(),
        );
        stats
    }

    /// Executes the program once per block index, in parallel.
    ///
    /// `batches` holds *values of the block variable* (`min + b`), packed
    /// into cost-balanced batches in dispatch order; each batch runs on
    /// one participant of `pool`, with its own registers, loop variables
    /// and `Alloc` scratch. All stores land in `out` (bound to the
    /// `output` buffer slot); per-worker [`InterpStats`] are summed, so
    /// the aggregate equals a serial run's statistics exactly (the
    /// counters are plain sums).
    ///
    /// # Safety
    ///
    /// The caller must guarantee the disjoint-store contract: across all
    /// of `batches`, distinct block-variable values store to disjoint
    /// elements of `out` and never load another block's elements (see
    /// `SharedOut`). Two helpers reduce the obligation but do not
    /// discharge it: in-place programs (output loaded *and* stored) are
    /// rejected up front, and the dynamic tracker (debug builds, or
    /// release under `CORA_CHECK_DISJOINT=1`) records each output
    /// element's owning block, panicking deterministically on any
    /// cross-block overlap — untracked release builds run unchecked, so
    /// a violated contract is a data race (undefined behaviour).
    ///
    /// Prefer [`VmShared::run_blocks_proven`]: it is *safe*, taking a
    /// [`StoreCert`] produced by the static verifier
    /// (`cora_core::verify`, recorded in a session's `VerifyOutcome`)
    /// and enforcing it per store. This raw entry point remains for
    /// callers with an external proof and for the miri suites.
    ///
    /// # Panics
    ///
    /// Panics if `block_var` or `output` are unknown to the program, if
    /// the program reads the output buffer back, if any other external
    /// binding is missing, or if the program itself panics
    /// (out-of-bounds access, negative index) — propagated after the
    /// region drains.
    #[allow(unsafe_code)] // the disjoint-store contract is the caller's proof here
    pub unsafe fn run_blocks(
        &self,
        pool: &CpuPool,
        block_var: &str,
        output: &str,
        out: &mut [f32],
        batches: &[Vec<i64>],
    ) -> InterpStats {
        let views: Vec<&[f32]> = self.fbufs.iter().map(|v| v.as_slice()).collect();
        self.run_blocks_views(
            pool,
            block_var,
            output,
            &views,
            &self.fbuf_bound,
            out,
            batches,
            None,
        )
    }

    /// The *safe* parallel entry point: [`VmShared::run_blocks`] under a
    /// machine-checked disjoint-store certificate.
    ///
    /// Soundness is enforced, not assumed: [`StoreCert::new`] has
    /// already re-validated that distinct blocks' certified regions are
    /// pairwise disjoint, and every output store is checked for
    /// membership in the executing block's regions before it lands. A
    /// store outside its certificate — i.e. any disagreement between
    /// the static verifier and the actual execution — panics
    /// deterministically before the write, so no interleaving can
    /// produce a data race. That is what makes this function safe to
    /// expose despite the internal `unsafe` dispatch.
    ///
    /// # Panics
    ///
    /// As for [`VmShared::run_blocks`], plus any store outside the
    /// executing block's certified regions.
    #[allow(unsafe_code)] // contains the one audited unsafe dispatch; see SAFETY below
    pub fn run_blocks_proven(
        &self,
        pool: &CpuPool,
        block_var: &str,
        output: &str,
        out: &mut [f32],
        batches: &[Vec<i64>],
        cert: &StoreCert,
    ) -> InterpStats {
        let views: Vec<&[f32]> = self.fbufs.iter().map(|v| v.as_slice()).collect();
        // SAFETY: every output store is checked against the executing
        // block's certified regions before it happens, and the regions
        // of distinct blocks are pairwise disjoint by `StoreCert`'s
        // construction-time validation — so two threads can never touch
        // the same output element (stores or read-modify-writes), which
        // is exactly the `run_blocks_views` contract.
        unsafe {
            self.run_blocks_views(
                pool,
                block_var,
                output,
                &views,
                &self.fbuf_bound,
                out,
                batches,
                Some(cert),
            )
        }
    }

    /// [`VmShared::run_blocks_proven`] with additional float inputs
    /// supplied as *borrowed* slices — the safe parallel entry point for
    /// arena-backed pipelines. Bindings for names the program never
    /// references are ignored.
    ///
    /// # Panics
    ///
    /// As for [`VmShared::run_blocks_proven`].
    #[allow(unsafe_code)] // contains the one audited unsafe dispatch; see SAFETY below
    #[allow(clippy::too_many_arguments)]
    pub fn run_blocks_proven_borrowed(
        &self,
        pool: &CpuPool,
        block_var: &str,
        output: &str,
        out: &mut [f32],
        inputs: &[(&str, &[f32])],
        batches: &[Vec<i64>],
        cert: &StoreCert,
    ) -> InterpStats {
        let s = &self.prog.slots;
        let mut views: Vec<&[f32]> = self.fbufs.iter().map(|v| v.as_slice()).collect();
        let mut bound = self.fbuf_bound.clone();
        for (name, buf) in inputs {
            if let Some(slot) = s.free_fbufs.get(name) {
                views[slot as usize] = buf;
                bound[slot as usize] = true;
            }
        }
        // SAFETY: as for `run_blocks_proven` — per-store certificate
        // enforcement plus the cert's pairwise disjointness.
        unsafe {
            self.run_blocks_views(
                pool,
                block_var,
                output,
                &views,
                &bound,
                out,
                batches,
                Some(cert),
            )
        }
    }

    /// [`VmShared::run_blocks`] with additional float inputs supplied as
    /// *borrowed* slices (overriding any same-named owned binding) — the
    /// parallel entry point for arena-backed pipelines, which cannot hand
    /// the shared state owned copies of every intermediate. Bindings for
    /// names the program never references are ignored.
    ///
    /// # Safety
    ///
    /// Identical contract to [`VmShared::run_blocks`].
    ///
    /// # Panics
    ///
    /// As for [`VmShared::run_blocks`].
    #[allow(unsafe_code)] // same contract as `run_blocks`
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn run_blocks_borrowed(
        &self,
        pool: &CpuPool,
        block_var: &str,
        output: &str,
        out: &mut [f32],
        inputs: &[(&str, &[f32])],
        batches: &[Vec<i64>],
    ) -> InterpStats {
        let s = &self.prog.slots;
        let mut views: Vec<&[f32]> = self.fbufs.iter().map(|v| v.as_slice()).collect();
        let mut bound = self.fbuf_bound.clone();
        for (name, buf) in inputs {
            if let Some(slot) = s.free_fbufs.get(name) {
                views[slot as usize] = buf;
                bound[slot as usize] = true;
            }
        }
        self.run_blocks_views(pool, block_var, output, &views, &bound, out, batches, None)
    }

    /// Shared core of [`VmShared::run_blocks`] /
    /// [`VmShared::run_blocks_borrowed`].
    ///
    /// # Safety
    ///
    /// As for [`VmShared::run_blocks`].
    #[allow(unsafe_code)]
    #[allow(clippy::too_many_arguments)]
    unsafe fn run_blocks_views(
        &self,
        pool: &CpuPool,
        block_var: &str,
        output: &str,
        views: &[&[f32]],
        fbuf_bound: &[bool],
        out: &mut [f32],
        batches: &[Vec<i64>],
        cert: Option<&StoreCert>,
    ) -> InterpStats {
        let s = &self.prog.slots;
        let block_slot = s
            .free_vars
            .get(block_var)
            .unwrap_or_else(|| panic!("unknown block variable `{block_var}`"));
        let out_slot = s
            .free_fbufs
            .get(output)
            .unwrap_or_else(|| panic!("unknown output buffer `{output}`"));
        // An in-place program could read elements another block is
        // writing — reject it here (not just in the outliner) so the
        // race is unreachable through this public entry point.
        assert!(
            !s.fbuf_is_inplace(output),
            "program both loads and stores output `{output}`; \
             the parallel tier forbids in-place output access"
        );
        self.check_bound(Some(block_slot), out_slot, fbuf_bound);
        let owners = dynamic_check_enabled().then(|| OutOwners::new(out.len()));
        let shared_out = SharedOut::new(out);
        let total = Mutex::new(InterpStats::default());
        pool.parallel_for(batches.len(), |bi| {
            let prog = self.prog;
            let mut vars = self.vars.clone();
            let mut iregs = vec![0i64; prog.n_iregs];
            let mut fregs = vec![0.0f32; prog.n_fregs];
            let mut uf_args = Vec::new();
            let mut bufs = WorkerBufs {
                prog,
                shared: views,
                out_slot,
                out: &shared_out,
                n_free: s.free_fbufs.len(),
                scratch: vec![Vec::new(); s.alloc_sites],
                owners: owners.as_ref(),
                cur_block: 0,
                regions: None,
            };
            let mut stats = InterpStats::default();
            let mut map_scratch = MapScratch::default();
            for &bv in &batches[bi] {
                vars[block_slot as usize] = bv;
                bufs.cur_block = bv;
                bufs.regions = cert.map(|c| c.regions_for(bv));
                dispatch(
                    prog,
                    &self.ibufs,
                    &self.ufs,
                    &mut Regs {
                        vars: &mut vars,
                        iregs: &mut iregs,
                        fregs: &mut fregs,
                        uf_args: &mut uf_args,
                    },
                    &mut bufs,
                    &mut stats,
                    &mut map_scratch,
                );
            }
            let mut t = total.lock().unwrap_or_else(|e| e.into_inner());
            *t += stats;
        });
        total.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    // Tests exercise the unsafe `run_blocks` entry point directly; each
    // call either upholds the disjoint-store contract or deliberately
    // violates it to check the guards, which fire before any racing
    // write (in-place rejection up front; debug owner check before the
    // store).
    #![allow(unsafe_code)]

    use super::*;
    use crate::interp::Machine;
    use cora_ir::{Expr, ForKind, UfRef};

    /// Runs `s` through both tiers with the same bindings and asserts
    /// bit-identical buffers and identical statistics.
    fn differential(
        s: &Stmt,
        setup: impl Fn(&mut Machine),
        out_bufs: &[&str],
    ) -> (InterpStats, Vec<Vec<f32>>) {
        let mut m = Machine::new();
        setup(&mut m);
        let prog = compile(s);
        let mut vm = prog.machine();
        vm.bind_env(&m.env);
        for (name, buf) in m.fbuffers() {
            vm.set_fbuffer(name, buf.to_vec());
        }
        m.run(s);
        vm.run();
        assert_eq!(m.stats, vm.stats, "instruction-mix statistics diverge");
        let mut outs = Vec::new();
        for name in out_bufs {
            let a = m.fbuffer(name).expect("interp buffer");
            let b = vm.fbuffer(name).expect("vm buffer");
            let ab: Vec<u32> = a.iter().map(|v| v.to_bits()).collect();
            let bb: Vec<u32> = b.iter().map(|v| v.to_bits()).collect();
            assert_eq!(ab, bb, "buffer `{name}` diverges");
            outs.push(b.to_vec());
        }
        (vm.stats, outs)
    }

    #[test]
    fn ragged_doubling_matches_interpreter() {
        let s_uf = UfRef::new("s", 1);
        let idx = Expr::load("row", Expr::var("o")) + Expr::var("i");
        let body = Stmt::store("B", idx.clone(), FExpr::load("A", idx) * 2.0);
        let nest = Stmt::loop_(
            "o",
            Expr::int(3),
            Stmt::loop_("i", Expr::uf(s_uf, vec![Expr::var("o")]), body),
        );
        let (stats, outs) = differential(
            &nest,
            |m| {
                m.env.uf_table_mut().insert_table1d("s", vec![5, 2, 3]);
                m.env.set_buffer("row", vec![0, 5, 7]);
                m.set_fbuffer("A", (0..10).map(|x| x as f32).collect());
                m.set_fbuffer("B", vec![0.0; 10]);
            },
            &["B"],
        );
        let expect: Vec<f32> = (0..10).map(|x| 2.0 * x as f32).collect();
        assert_eq!(outs[0], expect);
        assert_eq!(stats.stores, 10);
        assert_eq!(stats.flops, 10);
    }

    #[test]
    fn load_extent_loops_match_and_count() {
        // The satellite-bug shape: a ragged loop whose extent is an aux
        // load must charge aux_loads in both tiers.
        let body = Stmt::store("B", Expr::var("i"), FExpr::constant(1.0));
        let nest = Stmt::loop_(
            "o",
            Expr::int(2),
            Stmt::loop_("i", Expr::load("lens", Expr::var("o")), body),
        );
        let (stats, _) = differential(
            &nest,
            |m| {
                m.env.set_buffer("lens", vec![2, 3]);
                m.set_fbuffer("B", vec![0.0; 4]);
            },
            &["B"],
        );
        // Two inner-loop entries, each charging one extent load.
        assert_eq!(stats.aux_loads, 2);
        assert_eq!(stats.stores, 5);
    }

    #[test]
    fn aux_counts_survive_u32_overflow() {
        // Regression: aux metadata used to be `u32`, and Rc-shared
        // doubling expression DAGs produce per-site load counts past
        // 2^32, so `compile` panicked on the checked cast. The fields
        // are `u64` now. Building a real >2^32-load expression is
        // exponential-time, so inject a boundary-crossing count into
        // the compiled code directly and check each evaluation charges
        // the full 64-bit value.
        const BIG: u64 = u32::MAX as u64 + 7;
        let body = Stmt::store("B", Expr::var("i"), FExpr::load("A", Expr::var("i")));
        let nest = Stmt::loop_(
            "i",
            Expr::int(4),
            Stmt::if_then(Expr::var("i").lt(Expr::int(2)), body),
        );
        let mut prog = compile(&nest);
        let mut patched = 0u64;
        for ins in &mut prog.code {
            if let Instr::Guard { aux } = ins {
                *aux = BIG;
                patched += 1;
            }
        }
        assert_eq!(patched, 1, "expected exactly one guard in the loop body");
        let mut vm = prog.machine();
        vm.set_fbuffer("A", vec![1.0; 4]);
        vm.set_fbuffer("B", vec![0.0; 4]);
        vm.run();
        // One guard evaluation per iteration, each charging the full
        // (formerly truncated) count.
        assert_eq!(vm.stats.guards, 4);
        assert_eq!(vm.stats.aux_loads, 4 * BIG);
    }

    #[test]
    fn guards_selects_and_short_circuit_match() {
        // if (i < 2 && lens[i] != 0) B[i] = select(lens[i] < 2, A[i], -A[i])
        // Note: lens has only 2 entries, so the && must short-circuit for
        // i in 2..4 exactly as the interpreter does.
        let cond = Expr::var("i")
            .lt(Expr::int(2))
            .and(Expr::load("lens", Expr::var("i")).ne_expr(Expr::int(0)));
        let sel = FExpr::select(
            Expr::load("lens", Expr::var("i")).lt(Expr::int(2)),
            FExpr::load("A", Expr::var("i")),
            FExpr::load("A", Expr::var("i")).unary(FUnaryOp::Neg),
        );
        let body = Stmt::if_then(cond, Stmt::store("B", Expr::var("i"), sel));
        let nest = Stmt::loop_("i", Expr::int(4), body);
        let (stats, outs) = differential(
            &nest,
            |m| {
                m.env.set_buffer("lens", vec![1, 5]);
                m.set_fbuffer("A", vec![1.0, 2.0, 3.0, 4.0]);
                m.set_fbuffer("B", vec![0.0; 4]);
            },
            &["B"],
        );
        assert_eq!(outs[0], vec![1.0, -2.0, 0.0, 0.0]);
        // 4 If guards + 2 Select guards (taken branch only evaluated).
        assert_eq!(stats.guards, 6);
    }

    #[test]
    fn alloc_let_and_reductions_match() {
        // Alloc a scratch row, accumulate with AddAssign and MaxAssign,
        // and exercise LetInt hoist bindings + Cast.
        let idx = Expr::var("h") + Expr::var("i");
        let fill = Stmt::store("tile", idx.clone(), FExpr::cast(idx));
        let acc = Stmt::Store {
            buffer: "acc".into(),
            index: Expr::int(0),
            value: FExpr::load("tile", Expr::var("i")),
            kind: StoreKind::AddAssign,
        };
        let mx = Stmt::Store {
            buffer: "acc".into(),
            index: Expr::int(1),
            value: FExpr::load("tile", Expr::var("i")),
            kind: StoreKind::MaxAssign,
        };
        let inner = Stmt::loop_("i", Expr::int(4), fill.then(acc).then(mx));
        let alloc = Stmt::Alloc {
            buffer: "tile".into(),
            size: Expr::load("sz", Expr::int(0)),
            body: Box::new(inner),
        };
        let s = Stmt::LetInt {
            var: "h".into(),
            value: Expr::load("off", Expr::int(0)),
            body: Box::new(alloc),
        };
        let (stats, outs) = differential(
            &s,
            |m| {
                m.env.set_buffer("sz", vec![8]);
                m.env.set_buffer("off", vec![2]);
                m.set_fbuffer("acc", vec![0.0, f32::NEG_INFINITY]);
            },
            &["acc"],
        );
        // tile[h+i] = h+i for i in 0..4 with h = 2; acc[0] sums tile[i]
        // (i < 4: values 0,0,2,3... tile[0..2] stay zero).
        assert_eq!(outs[0][0], 0.0 + 0.0 + 2.0 + 3.0);
        assert_eq!(outs[0][1], 3.0);
        // LetInt charges 1 (off), Alloc charges 1 (sz).
        assert!(stats.aux_loads >= 2);
    }

    #[test]
    fn gpu_axes_execute_sequentially() {
        let body = Stmt::loop_kind(
            "t",
            Expr::int(3),
            ForKind::GpuThreadX,
            Stmt::store(
                "B",
                Expr::var("b") * 3 + Expr::var("t"),
                FExpr::constant(1.0),
            ),
        );
        let s = Stmt::loop_kind("b", Expr::int(2), ForKind::GpuBlockX, body);
        let (_, outs) = differential(
            &s,
            |m| {
                m.set_fbuffer("B", vec![0.0; 6]);
            },
            &["B"],
        );
        assert_eq!(outs[0], vec![1.0; 6]);
    }

    #[test]
    fn shadowed_loop_vars_are_alpha_renamed() {
        // for i in 0..2 { B[i] = 0; for i in 0..3 { C[i] = 1 } D[i] = 2 }
        // The inner `i` must not clobber the outer one.
        let inner = Stmt::loop_(
            "i",
            Expr::int(3),
            Stmt::store("C", Expr::var("i"), FExpr::constant(1.0)),
        );
        let body = Stmt::store("B", Expr::var("i"), FExpr::constant(0.0))
            .then(inner)
            .then(Stmt::store("D", Expr::var("i"), FExpr::constant(2.0)));
        let s = Stmt::loop_("i", Expr::int(2), body);
        differential(
            &s,
            |m| {
                m.set_fbuffer("B", vec![9.0; 2]);
                m.set_fbuffer("C", vec![9.0; 3]);
                m.set_fbuffer("D", vec![9.0; 2]);
            },
            &["B", "C", "D"],
        );
    }

    #[test]
    fn empty_and_negative_extents_run_zero_iterations() {
        let body = Stmt::store("B", Expr::int(0), FExpr::constant(1.0));
        let s = Stmt::loop_("i", Expr::int(0), body.clone()).then(Stmt::loop_(
            "j",
            Expr::int(-3),
            body,
        ));
        let (stats, outs) = differential(
            &s,
            |m| {
                m.set_fbuffer("B", vec![0.0]);
            },
            &["B"],
        );
        assert_eq!(outs[0], vec![0.0]);
        assert_eq!(stats.stores, 0);
    }

    #[test]
    #[should_panic(expected = "missing float buffer `A`")]
    fn unbound_input_panics() {
        let s = Stmt::store("B", Expr::int(0), FExpr::load("A", Expr::int(0)));
        let prog = compile(&s);
        let mut vm = prog.machine();
        vm.set_fbuffer("B", vec![0.0]);
        vm.run();
    }

    #[test]
    fn program_len_reports_flattened_size() {
        let s = Stmt::loop_(
            "i",
            Expr::int(4),
            Stmt::store("B", Expr::var("i"), FExpr::constant(1.0)),
        );
        let p = compile(&s);
        assert!(!p.is_empty());
        assert!(
            p.len() >= 6,
            "loop + store should flatten to several instrs"
        );
        assert!(compile(&Stmt::Nop).is_empty());
        assert_eq!(p.slots().free_fbufs.names(), &["B".to_string()]);
    }

    /// The block body of a ragged doubling kernel, outlined: `b` is the
    /// (free) block variable, `row` maps blocks to output rows.
    fn outlined_doubling_body() -> Stmt {
        let idx = Expr::load("row", Expr::var("b")) + Expr::var("i");
        let body = Stmt::store("B", idx.clone(), FExpr::load("A", idx) * 2.0);
        Stmt::loop_("i", Expr::load("lens", Expr::var("b")), body)
    }

    /// Runs `outlined_doubling_body` serially (block loop on one machine)
    /// and in parallel over `batches`, asserting identical outputs and
    /// stats.
    fn parallel_matches_serial(pool: &CpuPool, batches: &[Vec<i64>]) {
        let lens = vec![5i64, 0, 3, 2];
        let row = vec![0i64, 5, 5, 8];
        let n = 10usize;
        let input: Vec<f32> = (0..n).map(|x| x as f32 - 4.5).collect();

        // Serial reference: wrap the body in the block loop.
        let serial = Stmt::loop_kind(
            "b",
            Expr::int(4),
            ForKind::GpuBlockX,
            outlined_doubling_body(),
        );
        let sp = compile(&serial);
        let mut sm = sp.machine();
        sm.set_ibuffer("lens", lens.clone());
        sm.set_ibuffer("row", row.clone());
        sm.set_fbuffer("A", input.clone());
        sm.set_fbuffer("B", vec![0.0; n]);
        sm.run();

        // Parallel: compile only the body; `b` becomes a free variable.
        let bp = compile(&outlined_doubling_body());
        let mut shared = bp.shared();
        shared.set_ibuffer("lens", lens);
        shared.set_ibuffer("row", row);
        shared.set_fbuffer("A", input);
        let mut out = vec![0.0f32; n];
        let stats = unsafe { shared.run_blocks(pool, "b", "B", &mut out, batches) };

        assert_eq!(sm.fbuffer("B").unwrap(), out.as_slice());
        // The serial program additionally charges the block loop's own
        // bound evaluation (a constant here: zero aux loads), so the sums
        // must line up exactly.
        assert_eq!(sm.stats, stats);
    }

    #[test]
    fn run_blocks_matches_serial_execution() {
        let pool = CpuPool::new(4);
        parallel_matches_serial(&pool, &[vec![0], vec![1], vec![2], vec![3]]);
        parallel_matches_serial(&pool, &[vec![3, 1], vec![0, 2]]);
        parallel_matches_serial(&pool, &[vec![0, 1, 2, 3]]);
        // The spawn backend exercises real OS-thread concurrency even on
        // single-core hosts.
        let spawn = CpuPool::new(4).with_backend(crate::cpu::Backend::Spawn);
        parallel_matches_serial(&spawn, &[vec![0], vec![1], vec![2], vec![3]]);
    }

    #[test]
    fn run_blocks_zero_batches_is_noop() {
        let bp = compile(&outlined_doubling_body());
        let mut shared = bp.shared();
        shared.set_ibuffer("lens", vec![1]);
        shared.set_ibuffer("row", vec![0]);
        shared.set_fbuffer("A", vec![1.0]);
        let mut out = vec![7.0f32];
        let stats = unsafe { shared.run_blocks(&CpuPool::new(2), "b", "B", &mut out, &[]) };
        assert_eq!(stats, InterpStats::default());
        assert_eq!(out, vec![7.0]);
    }

    #[test]
    fn validate_accepts_compiled_programs() {
        for s in [
            outlined_doubling_body(),
            Stmt::loop_(
                "i",
                Expr::int(4),
                Stmt::store("B", Expr::var("i"), FExpr::constant(1.0)),
            ),
            Stmt::Nop,
        ] {
            compile(&s)
                .validate()
                .unwrap_or_else(|e| panic!("fresh compile must validate: {e}"));
        }
    }

    #[test]
    fn validate_rejects_corrupted_streams() {
        let base = compile(&outlined_doubling_body());
        base.validate().expect("baseline validates");

        // A jump beyond the halt address.
        let mut p = base.clone();
        p.code.push(Instr::Jump {
            to: u32::try_from(p.code.len() + 5).unwrap(),
        });
        assert!(p.validate().unwrap_err().contains("beyond program end"));

        // A read of a register no path has written (appended at the
        // program end, which stays reachable by fallthrough).
        let mut p = base.clone();
        let fresh = u16::try_from(p.n_iregs).unwrap();
        p.n_iregs += 1;
        p.code.push(Instr::ICopy { dst: 0, src: fresh });
        assert!(p.validate().unwrap_err().contains("read before any write"));

        // A register index outside the allocated file.
        let mut p = base.clone();
        p.code.push(Instr::IConst {
            dst: u16::try_from(p.n_iregs).unwrap(),
            v: 0,
        });
        assert!(p.validate().unwrap_err().contains("out of file"));

        // A variable slot outside the census.
        let mut p = base;
        let slot = u32::try_from(p.slots.var_slot_count()).unwrap();
        p.code.push(Instr::IVar { dst: 0, slot });
        assert!(p.validate().unwrap_err().contains("out of census"));
    }

    #[test]
    fn store_cert_validates_pairwise_disjointness() {
        // Disjoint rows certify; a block's regions keep their input
        // order, and blocks between, below and above the certified ones
        // own nothing.
        let cert = StoreCert::new([
            (3i64, SInt::range(5, 9)),
            (1, SInt::range(0, 4)),
            (3, SInt::range(12, 13)),
            (1, SInt::Empty),
        ])
        .expect("disjoint rows certify");
        assert_eq!(cert.regions_for(1), &[SInt::range(0, 4)]);
        assert_eq!(
            cert.regions_for(3),
            &[SInt::range(5, 9), SInt::range(12, 13)]
        );
        for absent in [i64::MIN, -1, 0, 2, 4, i64::MAX] {
            assert!(cert.regions_for(absent).is_empty(), "block {absent}");
        }
        let empty = StoreCert::new([(7i64, SInt::Empty)]).expect("nothing to overlap");
        assert!(empty.regions_for(7).is_empty());

        // Interleaved but congruence-disjoint strided lanes certify.
        StoreCert::new([(0i64, SInt::make(0, 8, 2)), (1, SInt::make(1, 9, 2))])
            .expect("even/odd lanes certify");

        // A genuine overlap is rejected, naming both blocks.
        let err = StoreCert::new([(0i64, SInt::range(0, 5)), (1, SInt::range(5, 9))]).unwrap_err();
        assert_eq!(
            err,
            CertError::Overlap {
                block_a: 0,
                region_a: SInt::range(0, 5),
                block_b: 1,
                region_b: SInt::range(5, 9),
            }
        );

        // Unbounded regions can never certify, and block values too far
        // apart to index densely are refused before anything is allocated.
        let err = StoreCert::new([(0i64, SInt::Top)]).unwrap_err();
        assert_eq!(err, CertError::Unbounded { block: 0 });
        let far = [(i64::MIN, SInt::point(0)), (i64::MAX, SInt::point(1))];
        assert_eq!(StoreCert::new(far).unwrap_err(), CertError::TooLarge);
    }

    /// The row partition of `outlined_doubling_body`: block `b` owns
    /// `[row[b], row[b] + lens[b])`.
    fn doubling_spans() -> Vec<(i64, SInt)> {
        let lens = [5i64, 0, 3, 2];
        let row = [0i64, 5, 5, 8];
        (0..4usize)
            .map(|b| (b as i64, SInt::range(row[b], row[b] + lens[b] - 1)))
            .collect()
    }

    fn doubling_cert() -> StoreCert {
        StoreCert::new(doubling_spans()).expect("rows are disjoint")
    }

    #[test]
    fn run_blocks_proven_matches_unsafe_entry_point() {
        let bp = compile(&outlined_doubling_body());
        let input: Vec<f32> = (0..10).map(|x| x as f32 - 4.5).collect();
        let mut shared = bp.shared();
        shared.set_ibuffer("lens", vec![5, 0, 3, 2]);
        shared.set_ibuffer("row", vec![0, 5, 5, 8]);
        shared.set_fbuffer("A", input);
        let pool = CpuPool::new(3);
        let batches = vec![vec![0, 2], vec![1, 3]];
        let mut reference = vec![0.0f32; 10];
        let ref_stats = unsafe { shared.run_blocks(&pool, "b", "B", &mut reference, &batches) };
        let mut proven = vec![0.0f32; 10];
        let stats =
            shared.run_blocks_proven(&pool, "b", "B", &mut proven, &batches, &doubling_cert());
        assert_eq!(proven, reference);
        assert_eq!(stats, ref_stats);
    }

    /// Runs every block of the doubling body under `cert`.
    fn run_doubling_under(cert: &StoreCert) {
        let bp = compile(&outlined_doubling_body());
        let mut shared = bp.shared();
        shared.set_ibuffer("lens", vec![5, 0, 3, 2]);
        shared.set_ibuffer("row", vec![0, 5, 5, 8]);
        shared.set_fbuffer("A", vec![1.0; 10]);
        let mut out = vec![0.0f32; 10];
        let batches = vec![vec![0, 1, 2, 3]];
        shared.run_blocks_proven(&CpuPool::new(2), "b", "B", &mut out, &batches, cert);
    }

    #[test]
    #[should_panic(expected = "outside block 3's certified regions")]
    fn run_blocks_proven_rejects_uncertified_stores() {
        // A certificate that certifies every block except 3: the store
        // must panic before it lands, not race.
        let mut spans = doubling_spans();
        spans.retain(|&(b, _)| b != 3);
        run_doubling_under(&StoreCert::new(spans).unwrap());
    }

    #[test]
    #[should_panic(expected = "store run [8, 10) outside block 3's certified regions")]
    fn run_blocks_proven_rejects_a_certificate_shifted_by_one_element() {
        // Block 3 stores [8, 9]; certify [9, 10] instead — still a valid
        // (pairwise disjoint) certificate, so only the per-store check
        // can catch it, at the block's first store.
        let mut spans = doubling_spans();
        spans[3].1 = SInt::range(9, 10);
        run_doubling_under(&StoreCert::new(spans).unwrap());
    }

    #[test]
    fn run_blocks_gives_each_worker_private_scratch() {
        // Each block fills a scratch tile with its own block index and
        // reduces it into its private output cell; racing scratch would
        // corrupt the sums.
        let fill = Stmt::loop_(
            "i",
            Expr::int(8),
            Stmt::store("tile", Expr::var("i"), FExpr::cast(Expr::var("b"))),
        );
        let acc = Stmt::loop_(
            "i",
            Expr::int(8),
            Stmt::Store {
                buffer: "out".into(),
                index: Expr::var("b"),
                value: FExpr::load("tile", Expr::var("i")),
                kind: StoreKind::AddAssign,
            },
        );
        let body = Stmt::Alloc {
            buffer: "tile".into(),
            size: Expr::int(8),
            body: Box::new(fill.then(acc)),
        };
        let bp = compile(&body);
        let shared = bp.shared();
        let mut out = vec![0.0f32; 16];
        let batches: Vec<Vec<i64>> = (0..16).map(|b| vec![b]).collect();
        let pool = CpuPool::new(4).with_backend(crate::cpu::Backend::Spawn);
        unsafe { shared.run_blocks(&pool, "b", "out", &mut out, &batches) };
        let want: Vec<f32> = (0..16).map(|b| 8.0 * b as f32).collect();
        assert_eq!(out, want);
    }

    #[test]
    #[should_panic(expected = "forbids in-place output access")]
    fn run_blocks_rejects_inplace_output_programs() {
        // out[b] = out[1 - b] * 2: block 0 would read the element block 1
        // writes — rejected up front, in release builds too.
        let body = Stmt::store(
            "out",
            Expr::var("b"),
            FExpr::load("out", Expr::int(1) - Expr::var("b")) * 2.0,
        );
        let bp = compile(&body);
        let shared = bp.shared();
        let mut out = vec![0.0f32; 2];
        unsafe { shared.run_blocks(&CpuPool::new(2), "b", "out", &mut out, &[vec![0], vec![1]]) };
    }

    #[test]
    #[cfg(debug_assertions)]
    fn cross_block_store_overlap_panics_in_debug() {
        // Both blocks store to out[0]: the disjoint-store contract is
        // violated, and debug builds must fail deterministically instead
        // of racing.
        let body = Stmt::store("out", Expr::int(0), FExpr::cast(Expr::var("b")));
        let bp = compile(&body);
        let shared = bp.shared();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut out = vec![0.0f32; 1];
            unsafe {
                shared.run_blocks(&CpuPool::new(2), "b", "out", &mut out, &[vec![0], vec![1]])
            };
        }));
        let payload = r.expect_err("overlapping stores must panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            msg.contains("disjoint-store contract violated"),
            "unexpected panic payload: {msg}"
        );
    }

    #[test]
    #[should_panic(expected = "missing auxiliary buffer `lens`")]
    fn run_blocks_checks_bindings() {
        let bp = compile(&outlined_doubling_body());
        let mut shared = bp.shared();
        shared.set_ibuffer("row", vec![0]);
        shared.set_fbuffer("A", vec![1.0]);
        let mut out = vec![0.0f32];
        unsafe { shared.run_blocks(&CpuPool::new(1), "b", "B", &mut out, &[vec![0]]) };
    }

    #[test]
    #[should_panic(expected = "unknown block variable `nope`")]
    fn run_blocks_rejects_unknown_block_var() {
        let bp = compile(&outlined_doubling_body());
        let shared = bp.shared();
        let mut out = vec![0.0f32];
        unsafe { shared.run_blocks(&CpuPool::new(1), "nope", "B", &mut out, &[]) };
    }

    #[test]
    fn run_blocks_propagates_body_panics() {
        // Block 1 indexes `lens` out of bounds; the panic must reach the
        // caller instead of poisoning the pool.
        let bp = compile(&outlined_doubling_body());
        let mut shared = bp.shared();
        shared.set_ibuffer("lens", vec![1]);
        shared.set_ibuffer("row", vec![0]);
        shared.set_fbuffer("A", vec![1.0, 2.0]);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut out = vec![0.0f32; 2];
            unsafe { shared.run_blocks(&CpuPool::new(2), "b", "B", &mut out, &[vec![0], vec![1]]) };
        }));
        assert!(r.is_err(), "out-of-bounds block must panic the caller");
    }

    /// `C[i·n+j] += A[i·k+d] · B[d·n+j]` for the given loop order; the
    /// canonical fused-loop shapes (dot for `..d` innermost, saxpy for
    /// `..j` innermost).
    fn gemm_nest(m: i64, k: i64, n: i64, inner_j: bool) -> Stmt {
        let c_idx = Expr::var("i") * n + Expr::var("j");
        let a_idx = Expr::var("i") * k + Expr::var("d");
        let b_idx = Expr::var("d") * n + Expr::var("j");
        let store = Stmt::Store {
            buffer: "C".into(),
            index: c_idx,
            value: FExpr::load("A", a_idx) * FExpr::load("B", b_idx),
            kind: StoreKind::AddAssign,
        };
        if inner_j {
            Stmt::loop_(
                "i",
                Expr::int(m),
                Stmt::loop_("d", Expr::int(k), Stmt::loop_("j", Expr::int(n), store)),
            )
        } else {
            Stmt::loop_(
                "i",
                Expr::int(m),
                Stmt::loop_("j", Expr::int(n), Stmt::loop_("d", Expr::int(k), store)),
            )
        }
    }

    #[test]
    fn fused_mul_acc_matches_interpreter_bitwise() {
        let (m, k, n) = (3i64, 4, 5);
        for inner_j in [false, true] {
            let s = gemm_nest(m, k, n, inner_j);
            let p = compile(&s);
            assert!(
                p.to_string().contains("fmulacc"),
                "inner reduction must fuse (inner_j = {inner_j}):\n{p}"
            );
            let (stats, outs) = differential(
                &s,
                |mach| {
                    mach.set_fbuffer("A", (0..m * k).map(|x| (x as f32 * 0.7).sin()).collect());
                    mach.set_fbuffer("B", (0..k * n).map(|x| (x as f32 * 0.3).cos()).collect());
                    mach.set_fbuffer("C", vec![0.5; (m * n) as usize]);
                },
                &["C"],
            );
            // Both loop orders compute the same element count of work.
            assert_eq!(stats.stores, (m * k * n) as u64, "inner_j = {inner_j}");
            assert_eq!(stats.flops, (2 * m * k * n) as u64);
            assert_eq!(outs[0].len(), (m * n) as usize);
        }
    }

    #[test]
    fn fused_loop_with_ragged_extent_and_zero_trips() {
        // out[o] += A[row[o]+i] * B[row[o]+i], i over lens[o] (incl. 0).
        let idx = Expr::load("row", Expr::var("o")) + Expr::var("i");
        let store = Stmt::Store {
            buffer: "out".into(),
            index: Expr::var("o"),
            value: FExpr::load("A", idx.clone()) * FExpr::load("B", idx),
            kind: StoreKind::AddAssign,
        };
        let s = Stmt::loop_(
            "o",
            Expr::int(4),
            Stmt::loop_("i", Expr::load("lens", Expr::var("o")), store),
        );
        let p = compile(&s);
        assert!(p.to_string().contains("fmulacc"), "{p}");
        let (stats, _) = differential(
            &s,
            |m| {
                m.env.set_buffer("lens", vec![3, 0, 2, 0]);
                m.env.set_buffer("row", vec![0, 3, 3, 5]);
                m.set_fbuffer("A", (0..5).map(|x| x as f32).collect());
                m.set_fbuffer("B", (0..5).map(|x| 1.0 - x as f32).collect());
                m.set_fbuffer("out", vec![0.0; 4]);
            },
            &["out"],
        );
        // 5 fused iterations; each charges 1 store-index + 2 load-index
        // aux loads... the store index `o` has none, each load one.
        assert_eq!(stats.stores, 5);
        assert_eq!(stats.flops, 10);
    }

    #[test]
    fn aliasing_and_nonaffine_reductions_are_not_fused() {
        // Output aliases an operand: C[0] += C[i] * B[i] stays unfused
        // (and is also in-place, which only matters to the parallel tier).
        let alias = Stmt::loop_(
            "i",
            Expr::int(3),
            Stmt::Store {
                buffer: "C".into(),
                index: Expr::int(0),
                value: FExpr::load("C", Expr::var("i") + 1) * FExpr::load("B", Expr::var("i")),
                kind: StoreKind::AddAssign,
            },
        );
        let p = compile(&alias);
        assert!(!p.to_string().contains("fmulacc"), "{p}");
        differential(
            &alias,
            |m| {
                m.set_fbuffer("C", vec![1.0, 2.0, 3.0, 4.0]);
                m.set_fbuffer("B", vec![0.5, 0.25, 0.125]);
            },
            &["C"],
        );
        // A table lookup through the loop variable is not affine.
        let gather = Stmt::loop_(
            "i",
            Expr::int(3),
            Stmt::Store {
                buffer: "out".into(),
                index: Expr::int(0),
                value: FExpr::load("A", Expr::load("tbl", Expr::var("i")))
                    * FExpr::load("B", Expr::var("i")),
                kind: StoreKind::AddAssign,
            },
        );
        let p = compile(&gather);
        assert!(!p.to_string().contains("fmulacc"), "{p}");
        differential(
            &gather,
            |m| {
                m.env.set_buffer("tbl", vec![2, 0, 1]);
                m.set_fbuffer("A", vec![1.0, 2.0, 3.0]);
                m.set_fbuffer("B", vec![4.0, 5.0, 6.0]);
                m.set_fbuffer("out", vec![0.0]);
            },
            &["out"],
        );
    }

    #[test]
    fn run_borrowed_matches_owned_serial() {
        let s = gemm_nest(3, 4, 5, true);
        let prog = compile(&s);
        let a: Vec<f32> = (0..12).map(|x| x as f32 * 0.5 - 3.0).collect();
        let b: Vec<f32> = (0..20).map(|x| (x as f32 * 0.2).sin()).collect();
        let mut vm = prog.machine();
        vm.set_fbuffer("A", a.clone());
        vm.set_fbuffer("B", b.clone());
        vm.set_fbuffer("C", vec![0.0; 15]);
        vm.run();

        let shared = prog.shared();
        let mut out = vec![0.0f32; 15];
        let stats = shared.run_borrowed(vec![
            ("A", BoundBuf::In(&a)),
            ("B", BoundBuf::In(&b)),
            ("C", BoundBuf::Out(&mut out)),
        ]);
        assert_eq!(vm.fbuffer("C").unwrap(), out.as_slice());
        assert_eq!(vm.stats, stats);
        // A second execution over the same shared state is independent.
        let mut out2 = vec![0.0f32; 15];
        let stats2 = shared.run_borrowed(vec![
            ("A", BoundBuf::In(&a)),
            ("B", BoundBuf::In(&b)),
            ("C", BoundBuf::Out(&mut out2)),
        ]);
        assert_eq!(out, out2);
        assert_eq!(stats, stats2);
    }

    #[test]
    #[should_panic(expected = "bound read-only")]
    fn run_borrowed_rejects_stores_to_inputs() {
        let s = Stmt::store("B", Expr::int(0), FExpr::load("A", Expr::int(0)));
        let prog = compile(&s);
        let shared = prog.shared();
        let a = vec![1.0f32];
        let b = vec![0.0f32];
        shared.run_borrowed(vec![("A", BoundBuf::In(&a)), ("B", BoundBuf::In(&b))]);
    }

    #[test]
    fn run_blocks_borrowed_matches_owned() {
        let lens = vec![5i64, 0, 3, 2];
        let row = vec![0i64, 5, 5, 8];
        let input: Vec<f32> = (0..10).map(|x| x as f32 - 4.5).collect();
        let bp = compile(&outlined_doubling_body());
        let mut shared = bp.shared();
        shared.set_ibuffer("lens", lens);
        shared.set_ibuffer("row", row);
        let pool = CpuPool::new(4);
        let batches: Vec<Vec<i64>> = (0..4).map(|b| vec![b]).collect();

        let mut owned_shared = bp.shared();
        owned_shared.set_ibuffer("lens", vec![5, 0, 3, 2]);
        owned_shared.set_ibuffer("row", vec![0, 5, 5, 8]);
        owned_shared.set_fbuffer("A", input.clone());
        let mut out_owned = vec![0.0f32; 10];
        let st_owned =
            unsafe { owned_shared.run_blocks(&pool, "b", "B", &mut out_owned, &batches) };

        // Borrowed: `A` supplied as a slice at run time.
        let mut out = vec![0.0f32; 10];
        let st = unsafe {
            shared.run_blocks_borrowed(&pool, "b", "B", &mut out, &[("A", &input)], &batches)
        };
        assert_eq!(out_owned, out);
        assert_eq!(st_owned, st);
    }

    #[test]
    fn disassembly_resolves_slot_names() {
        // The float select keeps the inner loop out of the fused-map
        // path, so the plain fload/fstore forms stay visible.
        let s = Stmt::loop_(
            "o",
            Expr::int(3),
            Stmt::loop_(
                "i",
                Expr::load("lens", Expr::var("o")),
                Stmt::store(
                    "B",
                    Expr::load("row", Expr::var("o")) + Expr::var("i"),
                    FExpr::select(
                        Expr::var("i").lt(Expr::int(1)),
                        FExpr::load("A", Expr::var("n_free")) * 2.0,
                        FExpr::constant(0.0),
                    ),
                ),
            ),
        );
        let p = compile(&s);
        let text = p.to_string();
        assert!(text.contains("o@"), "bound loop var with slot:\n{text}");
        assert!(text.contains("lens["), "aux buffer name:\n{text}");
        assert!(text.contains("fstore   B["), "output store:\n{text}");
        assert!(
            text.contains("ivar     r0, n_free") || text.contains("n_free"),
            "free var by name:\n{text}"
        );
        assert_eq!(
            text.lines().count(),
            p.len(),
            "one line per instruction:\n{text}"
        );
        // Every line is `pc  mnemonic ...` with aligned pcs.
        for (i, line) in text.lines().enumerate() {
            assert!(
                line.starts_with(&format!("{i:>4}  ")),
                "line {i} misformatted: {line:?}"
            );
        }
    }
}
