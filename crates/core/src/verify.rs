//! The shape-symbolic safety verifier: machine-checked proofs of the
//! two theorems the parallel tier's soundness rests on.
//!
//! CoRa's lowering emits dense-like unpredicated loops whose bounds come
//! from auxiliary data structures (PAPER.md §4), so every memory-safety
//! guarantee of the compiled tier is a statement about affine index
//! arithmetic over those bounds. This module proves, per outlined
//! program and shape:
//!
//! 1. **in-bounds** — every output store and auxiliary-table load lands
//!    inside its planned buffer, and every float input access implies a
//!    minimal input length ([`VerifyOutcome::required_inputs`]) that the
//!    execution entry points check against the buffers actually bound;
//! 2. **disjoint-store** — the store-index sets of any two distinct
//!    *tiles* of block values are disjoint, the contract the VM's
//!    parallel dispatch needs for lock-free shared-output writes.
//!
//! # Tiles
//!
//! A tile is `g` consecutive block values; the dispatcher hands a tile
//! to one worker, which runs its blocks in ascending order, so blocks of
//! one tile never race and only distinct tiles need disjoint stores.
//! The grain is a fixed function of the block count, [`tile_grain`]:
//! `g = clamp(⌈n_blocks / 64⌉, 1, 16)`, at least 64 tiles until the
//! grain reaches 16. The walk evaluates the body once per tile with the
//! block variable bound to the tile's range, which is what makes an
//! unseen shape's proof cost ~`1/g` of a per-block one. When the tiled
//! proof fails — a tile's hull can be looser than its blocks' union
//! (a guard that only a single block satisfies exactly, a table read
//! past its end by the tile's widest index) — [`ProofProgram::verify`]
//! proves once more at grain 1 and records the grain that won in
//! [`VerifyOutcome::grain`]. [`verify_outlined`] always proves per
//! block.
//!
//! # How the proof works
//!
//! The engine is an abstract interpretation over the *strided interval*
//! domain [`SInt`] from `cora_ir::interval` — the compiler's only
//! abstract domain, shared with lowering's guard elision. Every transfer
//! function (arithmetic, floor division/modulo, comparisons, clamping)
//! is an `SInt` method; this module adds only what needs the shape:
//! grounding table loads and narrowing under guards. The proof is split
//! into two phases so that what an unseen shape pays is a walk, not a
//! compilation:
//!
//! * **Once per compiled program, no shape data** — [`ProofProgram`]:
//!   the outlined body with every variable, auxiliary table, float
//!   buffer and output store site resolved to a dense index
//!   (`cora_ir::slots`), binding scopes settled by giving each
//!   `For`/`LetInt`/`Alloc` site its own slot, and every guard's
//!   `lhs − rhs ≤ bound` linear form ([`cora_ir::affine`]) extracted.
//!   Nothing is pretty-printed unless an error is raised.
//! * **Once per shape** — [`ProofWalk`]: for each tile the proof
//!   program is evaluated over one reused slot-indexed environment with
//!   the block variable bound to the tile's range (the point `{b}` at
//!   grain 1), host parameters and hoisted bindings bound to their
//!   concrete values, and auxiliary-table loads *grounded* in the
//!   shape's built prelude tables, read in place (a point index reads
//!   the exact entry; a range index yields the slice's min/max hull).
//!   Loop variables become dense ranges; guards narrow variable ranges
//!   along the taken branch by Fourier–Motzkin elimination — which is
//!   what makes padded/guarded schedules verify precisely. Every access
//!   is proven in bounds, every output store records a strided region
//!   and every input load joins the tile's load set for that input
//!   ([`VerifyOutcome::tile_loads`], what a pipeline's chain pass checks
//!   against a producer's regions). The walk allocates nothing per tile.
//!
//! **Correlated table pairs.** A range index loses the correlation
//! between two tables read at the same row: over a tile, the hull of a
//! ragged row's `base[x] + j` with `j < len[x]` is `max base + max len`,
//! which escapes the buffer although no row does. So one rule is added:
//! when an access index is `Load(A, X) + c·j + rest` and `j` is the
//! variable of an enclosing `for j in 0..Load(L, X)` with the same `X`
//! (compared through `LetInt` bindings), that part is bounded by one
//! scan over `x ∈ X` as `[min A[x], max (A[x] + c·(L[x] − 1))]` (for
//! `c ≥ 0`; mirrored for `c < 0`), skipping rows with `L[x] = 0`, whose
//! loop body never runs. The rule is exact — it needs no monotonicity
//! of either table — and the access's range is the intersection of its
//! plain interval value with this bound.
//!
//! The walk's regions become a [`StoreCert`], whose constructor proves
//! the regions of distinct tiles pairwise disjoint with one
//! sort-and-sweep (interval separation or, for interleaved lanes,
//! stride/congruence separation) while laying them out as a flat
//! per-tile table. That certificate is what the safe executor entry
//! point `cora_exec::vm::run_chain_proven` enforces per store at run time,
//! dispatching whole tiles, so soundness does not hinge on this module
//! being bug-free: nothing reaches the executor that the certificate's
//! own constructor did not check, and every store is checked against it
//! before it lands — a verifier bug surfaces as a deterministic panic,
//! never a data race.
//!
//! Failures produce structured [`VerifyError`]s carrying the offending
//! store statement (pretty-printed via `cora_ir::printer`), its index
//! expression, and — for overlaps — the two witness tiles (blocks, at
//! grain 1) and their regions, replacing the previously opaque "cannot
//! be outlined" rejection.
//!
//! [`symbolic_store_check`] is the *symbolic* companion (Rule A): a
//! shape-independent linear-form pass the outliner runs before any
//! concrete data exists, catching stores whose block-variable
//! coefficient cancels (`out[b - b + i]`) — programs that evade the
//! syntactic taint screen yet are definitely wrong for every shape.

// `VerifyError` carries full overlap witnesses (two regions + the
// pretty-printed store); the size only matters on the cold compile path.
#![allow(clippy::result_large_err)]

use std::collections::HashMap;
use std::fmt;

use cora_exec::vm::{CertError, StoreCert};
use cora_ir::affine::{linearize, LinForm, LinTerm};
use cora_ir::interval::SInt;
use cora_ir::printer::print_c;
use cora_ir::slots::StmtSlots;
use cora_ir::{CmpOp, Cond, CondKind, Env, Expr, ExprKind, FExpr, FExprKind, IBinOp, Stmt};

/// A failed safety proof, with the evidence.
#[derive(Debug, Clone)]
pub enum VerifyError {
    /// Two distinct tiles of block values may store to the same output
    /// element.
    StoreOverlap {
        /// Pretty-printed offending store statement.
        store: String,
        /// The store's index expression.
        index: String,
        /// Block values per tile of the failed proof (1: per block).
        grain: usize,
        /// First block value of the first witness tile.
        block_a: i64,
        /// Its store region containing the collision.
        region_a: SInt,
        /// First block value of the second witness tile.
        block_b: i64,
        /// Its overlapping store region.
        region_b: SInt,
    },
    /// An access provably escapes a buffer of known size.
    OutOfBounds {
        /// Buffer name.
        buffer: String,
        /// The access's index expression.
        index: String,
        /// The abstract index range of the access.
        range: SInt,
        /// The buffer's planned size in elements.
        size: i64,
    },
    /// A store to the output whose index is block-invariant: every
    /// block writes the same elements (found symbolically, so it holds
    /// for *all* shapes).
    BlockInvariantStore {
        /// Pretty-printed offending store statement.
        store: String,
        /// The store's index expression.
        index: String,
    },
    /// The program uses a construct the verifier cannot bound (e.g. an
    /// unbounded store index).
    Unsupported {
        /// Description of the unsupported construct.
        what: String,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::StoreOverlap {
                store,
                index,
                grain,
                block_a,
                region_a,
                block_b,
                region_b,
            } => {
                if *grain == 1 {
                    write!(f, "blocks {block_a} and {block_b}")?;
                } else {
                    write!(
                        f,
                        "the tiles of {grain} blocks starting at blocks {block_a} \
                         and {block_b}"
                    )?;
                }
                write!(
                    f,
                    " may store to the same output elements: regions {region_a} \
                     and {region_b} overlap at the store `{}` (index `{index}`)",
                    store.trim_end()
                )
            }
            VerifyError::OutOfBounds {
                buffer,
                index,
                range,
                size,
            } => write!(
                f,
                "access to `{buffer}` via `{index}` spans {range}, escaping \
                 the planned size {size}"
            ),
            VerifyError::BlockInvariantStore { store, index } => write!(
                f,
                "the store `{}` indexes through `{index}`, whose linear form \
                 has block-variable coefficient 0: every block writes the \
                 same elements",
                store.trim_end()
            ),
            VerifyError::Unsupported { what } => {
                write!(f, "cannot bound {what}")
            }
        }
    }
}

/// Which proof strategy discharged the obligations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProofKind {
    /// Per-block concrete abstract interpretation over strided
    /// intervals, grounded in the built prelude tables (shape-exact).
    ConcreteInterpretation,
}

/// A successful safety proof for one outlined program at one shape.
///
/// Recorded by `ParallelSession` so the safe wrapper around the
/// parallel executor cites a machine-checked artifact, and so callers
/// (tests, CI, the README's safety story) can inspect what was proven.
#[derive(Debug, Clone)]
pub struct VerifyOutcome {
    /// The proof strategy used.
    pub proof: ProofKind,
    /// The disjoint-store certificate (per-tile store regions,
    /// re-validated on construction) the executor enforces at run time.
    pub cert: StoreCert,
    /// Number of block values covered by the proof.
    pub n_blocks: usize,
    /// Block values per tile of the proof that succeeded: the
    /// [`tile_grain`] rule's, or 1 when only the per-block retry proved
    /// the program.
    pub grain: usize,
    /// Number of tiles proven and dispatched.
    pub tiles: usize,
    /// Number of distinct syntactic store sites to the output.
    pub store_sites: usize,
    /// Minimal length of each float input buffer implied by the proven
    /// access hulls, sorted by name. Execution entry points check the
    /// buffers actually bound against these.
    pub required_inputs: Vec<(String, i64)>,
    /// Per float input the body reads, sorted by name: the elements
    /// each tile loads, one set per tile in tile order ([`SInt::Empty`]
    /// for a tile that loads nothing) — what a pipeline checks against
    /// the producing stage's per-tile store regions before it runs the
    /// two stages tile by tile.
    pub tile_loads: Vec<(String, Vec<SInt>)>,
}

/// The tile count the grain rule aims for.
const TARGET_TILES: usize = 64;

/// The widest tile the grain rule forms.
const MAX_GRAIN: usize = 16;

/// Block values per proof and dispatch tile for a block loop of
/// `n_blocks`: `clamp(⌈n_blocks / 64⌉, 1, 16)`. A fixed function of the
/// block count: small loops keep one block per tile (and every worker
/// something to steal), large ones prove and dispatch 16 rows at a time.
pub fn tile_grain(n_blocks: usize) -> usize {
    n_blocks.div_ceil(TARGET_TILES).clamp(1, MAX_GRAIN)
}

impl VerifyOutcome {
    /// Minimal required length of `input`, if the program reads it.
    pub fn required_input_len(&self, input: &str) -> Option<i64> {
        self.required_inputs
            .binary_search_by(|(n, _)| n.as_str().cmp(input))
            .ok()
            .map(|i| self.required_inputs[i].1)
    }

    /// The per-tile load sets of `input` ([`VerifyOutcome::tile_loads`]),
    /// if the program reads it.
    pub fn loads_of(&self, input: &str) -> Option<&[SInt]> {
        self.tile_loads
            .binary_search_by(|(n, _)| n.as_str().cmp(input))
            .ok()
            .map(|i| &self.tile_loads[i].1[..])
    }
}

/// Shape-level context the concrete proof runs against.
pub struct VerifyCtx<'a> {
    /// Host environment holding the built auxiliary integer tables
    /// (grounding for `Load` expressions).
    pub env: &'a Env,
    /// Scalar bindings: prelude parameters plus hoisted `LetInt`s,
    /// already evaluated on the host.
    pub scalars: &'a [(String, i64)],
    /// The designated output buffer name.
    pub output: &'a str,
    /// The output buffer's planned size in elements.
    pub output_size: usize,
}

/// Proves the in-bounds and disjoint-store theorems for an outlined
/// block body at one concrete shape, per block (grain 1):
/// [`ProofProgram::build`] followed by [`ProofProgram::verify_tiles`],
/// for callers that prove a body once.
///
/// `min` and `n_blocks` are the block loop's (host-evaluated) lower
/// bound and trip count: block values `min .. min + n_blocks` are each
/// interpreted abstractly and their store regions checked pairwise
/// disjoint.
///
/// # Errors
///
/// Returns a structured [`VerifyError`] naming the offending store,
/// its index expression and the witness regions when a proof fails.
pub fn verify_outlined(
    body: &Stmt,
    block_var: &str,
    min: i64,
    n_blocks: usize,
    ctx: &VerifyCtx<'_>,
) -> Result<VerifyOutcome, VerifyError> {
    ProofProgram::build(body, block_var, ctx.output).verify_tiles(min, n_blocks, 1, ctx)
}

// ---------------------------------------------------------------------
// Phase 1: the shape-independent proof program
// ---------------------------------------------------------------------

/// The shape-independent half of the proof: an outlined block body with
/// every name resolved to a dense index, built once per compiled
/// program and walked once per tile per shape.
///
/// Free variables, auxiliary tables and float inputs take their slots
/// from the body's [`StmtSlots`] census; each `For`/`LetInt` site gets a
/// fresh variable slot past the free range and each `Alloc` site a
/// scratch slot, so scoping is settled here and the walk needs no
/// save/restore for bindings. Guards carry their `lhs − rhs ≤ bound`
/// linear forms pre-linearised, and access indices of the correlated
/// table-pair form (module docs) their pair. Source expressions and
/// store statements ride along only to be pretty-printed if an error is
/// raised.
#[derive(Debug, Clone)]
pub struct ProofProgram {
    slots: StmtSlots,
    body: PStmt,
    /// Variable slots: the census's free variables, then binding sites.
    n_vars: usize,
    /// The block variable's slot, when the body mentions it.
    block_slot: Option<u32>,
    output: String,
    /// Buffer name of each `Alloc` site.
    scratch_names: Vec<String>,
    /// Distinct output store sites: the statement and its index.
    sites: Vec<(Stmt, Expr)>,
    /// Terms over all guards: bounds the narrowing undo stack.
    narrow_terms: usize,
}

/// Which buffer a float access touches, settled by scope at build time:
/// an enclosing `Alloc` site, the output, or a free input (census slot).
#[derive(Debug, Clone, Copy)]
enum Buf {
    Scratch(u32),
    Output,
    Input(u32),
}

#[derive(Debug, Clone)]
enum PExpr {
    Int(i64),
    Var(u32),
    Bin(IBinOp, Box<(PExpr, PExpr)>),
    Select(Box<(PCond, PExpr, PExpr)>),
    /// Auxiliary-table slot, index, and the index as written.
    Load(u32, Box<PExpr>, Expr),
}

#[derive(Debug, Clone)]
enum PCond {
    Const(bool),
    Cmp(CmpOp, PExpr, PExpr),
    And(Box<(PCond, PCond)>),
    Or(Box<(PCond, PCond)>),
    Not(Box<PCond>),
}

/// `constant + Σ coeff·term ≤ bound`, terms in [`LinForm`] key order:
/// a [`PExpr::Var`] is a variable to narrow, anything else is opaque.
#[derive(Debug, Clone)]
struct NarrowLe {
    terms: Vec<(PExpr, i64)>,
    constant: i64,
    bound: i64,
}

/// A branch condition plus the narrowings its truth implies, applied
/// in order until one empties a range.
#[derive(Debug, Clone)]
struct Guard {
    cond: PCond,
    narrow: Vec<NarrowLe>,
}

/// An access index `Load(base, at) + coeff·j + rest` under an enclosing
/// `for j in 0..Load(extent, at)`: the part before `rest` is bounded by
/// one scan of the two tables over `at` (module docs).
#[derive(Debug, Clone)]
struct Pair {
    base: u32,
    extent: u32,
    at: PExpr,
    coeff: i64,
    rest: Option<PExpr>,
}

/// A float-access index: its plain form, and its correlated table pair
/// when it has one.
#[derive(Debug, Clone)]
struct PIndex {
    expr: PExpr,
    pair: Option<Box<Pair>>,
}

#[derive(Debug, Clone)]
enum PStmt {
    /// Variable slot, min, extent, body.
    For(u32, PExpr, PExpr, Box<PStmt>),
    Let(u32, PExpr, Box<PStmt>),
    /// One float-buffer access: index, the index as written, and — for
    /// a store to the output — its [`ProofProgram::sites`] entry. A store
    /// is its value's loads in evaluation order, then its own access
    /// (float arithmetic and constants carry no proof obligation).
    Access(Buf, PIndex, Expr, Option<u32>),
    /// An index-valued float operand (`Cast`), evaluated for its loads.
    Eval(PExpr),
    /// A statement guard or a float `Select`: then-side, else-side.
    If(Guard, Box<PStmt>, Option<Box<PStmt>>),
    Seq(Vec<PStmt>),
    /// Scratch slot, size, body.
    Alloc(u32, PExpr, Box<PStmt>),
}

impl ProofProgram {
    /// Resolves `body` — an outlined block body whose block variable
    /// `block_var` is free and whose parallel stores target `output` —
    /// into a proof program. Needs no shape data.
    pub fn build(body: &Stmt, block_var: &str, output: &str) -> ProofProgram {
        let slots = StmtSlots::resolve(body);
        let mut b = Builder {
            slots: &slots,
            output,
            vars: Vec::new(),
            next_var: u32::try_from(slots.free_vars.len()).expect("slot count fits u32"),
            lets: HashMap::new(),
            vloops: Vec::new(),
            scratch: Vec::new(),
            scratch_names: Vec::new(),
            sites: Vec::new(),
            narrow_terms: 0,
        };
        ProofProgram {
            body: b.stmt(body),
            n_vars: b.next_var as usize,
            block_slot: slots.free_vars.get(block_var),
            output: output.to_string(),
            scratch_names: b.scratch_names,
            sites: b.sites,
            narrow_terms: b.narrow_terms,
            slots,
        }
    }

    /// Proves block values `min .. min + n_blocks` in tiles of the
    /// [`tile_grain`] rule's grain, and — if that proof fails — once more
    /// per block; [`VerifyOutcome::grain`] records which succeeded.
    /// `ctx.output` must be the output this program was built for.
    ///
    /// # Errors
    ///
    /// As for [`verify_outlined`]: the per-block proof's error when
    /// both fail.
    pub fn verify(
        &self,
        min: i64,
        n_blocks: usize,
        ctx: &VerifyCtx<'_>,
    ) -> Result<VerifyOutcome, VerifyError> {
        let grain = tile_grain(n_blocks);
        match self.verify_tiles(min, n_blocks, grain, ctx) {
            Err(_) if grain > 1 => self.verify_tiles(min, n_blocks, 1, ctx),
            proved => proved,
        }
    }

    /// One proof of block values `min .. min + n_blocks` in tiles of
    /// `grain`, with no retry: the per-shape walk over every tile, then
    /// the certificate.
    ///
    /// # Errors
    ///
    /// As for [`verify_outlined`]; an overlap names two witness tiles.
    ///
    /// # Panics
    ///
    /// Panics if `grain` is zero.
    pub fn verify_tiles(
        &self,
        min: i64,
        n_blocks: usize,
        grain: usize,
        ctx: &VerifyCtx<'_>,
    ) -> Result<VerifyOutcome, VerifyError> {
        let mut walk = self.walk(ctx, min, n_blocks, grain);
        for t in 0..walk.tiles() {
            walk.tile(t)?;
        }
        walk.finish()
    }

    /// Starts a per-shape walk over block values `min .. min + n_blocks`
    /// in tiles of `grain`: binds the shape's scalars and auxiliary
    /// tables to their slots and reserves room for every tile's store
    /// regions, so [`ProofWalk::tile`] allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `grain` is zero or the block values overflow `i64`.
    pub fn walk<'a>(
        &'a self,
        ctx: &VerifyCtx<'a>,
        min: i64,
        n_blocks: usize,
        grain: usize,
    ) -> ProofWalk<'a> {
        assert_eq!(ctx.output, self.output, "proof built for another output");
        assert!(grain > 0, "a tile holds at least one block");
        let end = i64::try_from(n_blocks)
            .ok()
            .and_then(|n| min.checked_add(n));
        assert!(
            end.is_some(),
            "block values {min} + {n_blocks} overflow i64"
        );
        let mut env = vec![SInt::Top; self.n_vars];
        for (name, v) in ctx.scalars {
            if let Some(slot) = self.slots.free_vars.get(name) {
                env[slot as usize] = SInt::point(*v);
            }
        }
        let tables = self.slots.ibufs.names().iter();
        let tiles = n_blocks.div_ceil(grain);
        ProofWalk {
            prog: self,
            tables: tables.map(|name| ctx.env.buffer(name)).collect(),
            output_size: i64::try_from(ctx.output_size).expect("output size fits i64"),
            min,
            total: n_blocks,
            grain,
            env,
            scratch_cap: vec![None; self.scratch_names.len()],
            undo: Vec::with_capacity(self.narrow_terms),
            regions: Vec::with_capacity(self.sites.len()),
            required: vec![None; self.slots.free_fbufs.len()],
            loads: vec![SInt::Empty; tiles.saturating_mul(self.slots.free_fbufs.len())],
            tile: 0,
            visited: vec![false; self.sites.len()],
            spans: Vec::with_capacity(tiles.saturating_mul(self.sites.len())),
            n_blocks: 0,
        }
    }
}

/// Resolves names by scope while translating the body.
struct Builder<'a> {
    slots: &'a StmtSlots,
    output: &'a str,
    /// Innermost-last `For`/`LetInt` scopes and their slots.
    vars: Vec<(&'a str, u32)>,
    next_var: u32,
    /// The value of every `LetInt` slot bound so far.
    lets: HashMap<u32, PExpr>,
    /// Innermost-last enclosing loops `for j in 0..Load(extent, at)`:
    /// `(j's slot, extent table, at)`.
    vloops: Vec<(u32, u32, PExpr)>,
    /// Innermost-last `Alloc` scopes and their slots.
    scratch: Vec<(&'a str, u32)>,
    scratch_names: Vec<String>,
    sites: Vec<(Stmt, Expr)>,
    narrow_terms: usize,
}

impl<'a> Builder<'a> {
    fn var(&self, name: &str) -> u32 {
        let bound = self.vars.iter().rev().find(|(n, _)| *n == name);
        bound
            .map(|&(_, slot)| slot)
            .or_else(|| self.slots.free_vars.get(name))
            .expect("the slot census covers every referenced variable")
    }

    fn buf(&self, name: &str) -> Buf {
        if let Some(&(_, slot)) = self.scratch.iter().rev().find(|(n, _)| *n == name) {
            Buf::Scratch(slot)
        } else if name == self.output {
            Buf::Output
        } else {
            let slot = self.slots.free_fbufs.get(name);
            Buf::Input(slot.expect("the slot census covers every free float buffer"))
        }
    }

    fn expr(&self, e: &Expr) -> PExpr {
        match e.kind() {
            ExprKind::Int(v) => PExpr::Int(*v),
            ExprKind::Var(n) => PExpr::Var(self.var(n)),
            // An identity operand is dropped: lowering leaves `0 + x` and
            // `x * 1` in every index, and removing them is exact in the
            // strided-interval domain.
            ExprKind::Bin(op, a, b) => match (self.expr(a), self.expr(b), op.identities()) {
                (PExpr::Int(v), x, [Some(id), _]) if v == id => x,
                (x, PExpr::Int(v), [_, Some(id)]) if v == id => x,
                (a, b, _) => PExpr::Bin(*op, Box::new((a, b))),
            },
            ExprKind::Select(c, a, b) => {
                PExpr::Select(Box::new((self.cond(c), self.expr(a), self.expr(b))))
            }
            ExprKind::Load(buf, idx) => {
                let table = self.slots.ibufs.get(buf);
                PExpr::Load(
                    table.expect("the slot census covers every table"),
                    Box::new(self.expr(idx)),
                    idx.clone(),
                )
            }
        }
    }

    /// `e` seen through `LetInt` bindings: a let-bound variable is its
    /// value.
    fn deref<'e>(&'e self, mut e: &'e PExpr) -> &'e PExpr {
        while let PExpr::Var(slot) = e {
            match self.lets.get(slot) {
                Some(value) => e = value,
                None => break,
            }
        }
        e
    }

    /// True when `a` and `b` are the same expression through `LetInt`
    /// bindings. Slots are per binding site, so equal expressions over
    /// the same slots have equal values wherever both are in scope.
    fn same(&self, a: &PExpr, b: &PExpr) -> bool {
        match (self.deref(a), self.deref(b)) {
            (PExpr::Int(x), PExpr::Int(y)) => x == y,
            (PExpr::Var(x), PExpr::Var(y)) => x == y,
            (PExpr::Bin(op, xy), PExpr::Bin(oq, zw)) => {
                op == oq && self.same(&xy.0, &zw.0) && self.same(&xy.1, &zw.1)
            }
            (PExpr::Load(t, x, _), PExpr::Load(u, y, _)) => t == u && self.same(x, y),
            _ => false,
        }
    }

    /// An access index with its correlated table pair, if it has one:
    /// an additive term `Load(A, X)` and a term `c·j` for an enclosing
    /// `for j in 0..Load(L, X)` at the same `X`; the other terms are the
    /// pair's `rest`.
    fn index(&self, e: &Expr) -> PIndex {
        let expr = self.expr(e);
        let mut terms = Vec::new();
        sum_terms(&expr, &mut terms);
        let mut pair = None;
        'search: for (k, term) in terms.iter().enumerate() {
            let PExpr::Load(base, at, _) = self.deref(term) else {
                continue;
            };
            for (m, scaled) in terms.iter().enumerate() {
                let Some((j, coeff)) = scaled_var(scaled).filter(|_| m != k) else {
                    continue;
                };
                let vloop = self.vloops.iter().find(|(v, _, _)| *v == j);
                let Some(&(_, extent, _)) = vloop.filter(|(_, _, x)| self.same(x, at)) else {
                    continue;
                };
                let rest = (terms.iter().enumerate())
                    .filter(|&(i, _)| i != k && i != m)
                    .map(|(_, t)| (*t).clone())
                    .reduce(|a, b| PExpr::Bin(IBinOp::Add, Box::new((a, b))));
                pair = Some(Box::new(Pair {
                    base: *base,
                    extent,
                    at: (**at).clone(),
                    coeff,
                    rest,
                }));
                break 'search;
            }
        }
        PIndex { expr, pair }
    }

    fn cond(&self, c: &Cond) -> PCond {
        match c.kind() {
            CondKind::Const(b) => PCond::Const(*b),
            CondKind::Cmp(op, a, b) => PCond::Cmp(*op, self.expr(a), self.expr(b)),
            CondKind::And(x, y) => PCond::And(Box::new((self.cond(x), self.cond(y)))),
            CondKind::Or(x, y) => PCond::Or(Box::new((self.cond(x), self.cond(y)))),
            CondKind::Not(x) => PCond::Not(Box::new(self.cond(x))),
        }
    }

    fn guard(&mut self, c: &Cond) -> Guard {
        let mut narrow = Vec::new();
        self.narrowings(c, &mut narrow);
        self.narrow_terms += narrow.iter().map(|n| n.terms.len()).sum::<usize>();
        Guard {
            cond: self.cond(c),
            narrow,
        }
    }

    /// The `≤` constraints `c` implies when true: conjunctions
    /// contribute both sides, `a < b` is `a − b ≤ −1`, `a ≤ b` is
    /// `a − b ≤ 0`, equality is both directions. `Or`/`Not`/`Ne`
    /// narrow nothing (sound: wider ranges only).
    fn narrowings(&self, c: &Cond, out: &mut Vec<NarrowLe>) {
        match c.kind() {
            CondKind::And(a, b) => {
                self.narrowings(a, out);
                self.narrowings(b, out);
            }
            CondKind::Cmp(CmpOp::Lt, a, b) => out.push(self.narrow_le(a, b, -1)),
            CondKind::Cmp(CmpOp::Le, a, b) => out.push(self.narrow_le(a, b, 0)),
            CondKind::Cmp(CmpOp::Eq, a, b) => {
                out.push(self.narrow_le(a, b, 0));
                out.push(self.narrow_le(b, a, 0));
            }
            _ => {}
        }
    }

    fn narrow_le(&self, lhs: &Expr, rhs: &Expr, bound: i64) -> NarrowLe {
        let binds = HashMap::new();
        let form = linearize(lhs, &binds).sub(&linearize(rhs, &binds));
        let term = |t: &LinTerm| match t {
            LinTerm::Var(n) => PExpr::Var(self.var(n)),
            LinTerm::Opaque(e) => self.expr(e),
        };
        NarrowLe {
            terms: form.terms().map(|(t, c)| (term(t), c)).collect(),
            constant: form.constant_part(),
            bound,
        }
    }

    /// Appends the accesses evaluating `f` performs, in order.
    fn floats(&mut self, f: &FExpr, out: &mut Vec<PStmt>) {
        match f.kind() {
            FExprKind::Const(_) => {}
            FExprKind::Load(buf, idx) => {
                out.push(PStmt::Access(
                    self.buf(buf),
                    self.index(idx),
                    idx.clone(),
                    None,
                ));
            }
            FExprKind::Cast(e) => out.push(PStmt::Eval(self.expr(e))),
            FExprKind::Bin(_, a, b) => {
                self.floats(a, out);
                self.floats(b, out);
            }
            FExprKind::Unary(_, a) => self.floats(a, out),
            FExprKind::Select(cond, a, b) => {
                let (mut then_, mut else_) = (Vec::new(), Vec::new());
                self.floats(a, &mut then_);
                self.floats(b, &mut else_);
                let sides = (Box::new(PStmt::Seq(then_)), Box::new(PStmt::Seq(else_)));
                out.push(PStmt::If(self.guard(cond), sides.0, Some(sides.1)));
            }
        }
    }

    /// Binds `var` to a fresh slot for the scope being translated.
    fn bind(&mut self, var: &'a str) -> u32 {
        let slot = self.next_var;
        self.next_var += 1;
        self.vars.push((var, slot));
        slot
    }

    fn stmt(&mut self, s: &'a Stmt) -> PStmt {
        match s {
            Stmt::For {
                var,
                min,
                extent,
                body,
                ..
            } => {
                let (min, extent) = (self.expr(min), self.expr(extent));
                let vloop = match (&min, self.deref(&extent)) {
                    (PExpr::Int(0), PExpr::Load(table, at, _)) => Some((*table, (**at).clone())),
                    _ => None,
                };
                let slot = self.bind(var);
                let enclosing = self.vloops.len();
                if let Some((table, at)) = vloop {
                    self.vloops.push((slot, table, at));
                }
                let body = Box::new(self.stmt(body));
                self.vloops.truncate(enclosing);
                self.vars.pop();
                PStmt::For(slot, min, extent, body)
            }
            Stmt::LetInt { var, value, body } => {
                let value = self.expr(value);
                let slot = self.bind(var);
                self.lets.insert(slot, value.clone());
                let body = Box::new(self.stmt(body));
                self.vars.pop();
                PStmt::Let(slot, value, body)
            }
            Stmt::Store {
                buffer,
                index,
                value,
                ..
            } => {
                let mut accesses = Vec::new();
                self.floats(value, &mut accesses);
                let buf = self.buf(buffer);
                let site = matches!(buf, Buf::Output).then(|| {
                    // Syntactically identical stores are one site.
                    let known = self.sites.iter().position(|(st, _)| st == s);
                    let site = known.unwrap_or_else(|| {
                        self.sites.push((s.clone(), index.clone()));
                        self.sites.len() - 1
                    });
                    u32::try_from(site).expect("site count fits u32")
                });
                accesses.push(PStmt::Access(buf, self.index(index), index.clone(), site));
                PStmt::Seq(accesses)
            }
            Stmt::If { cond, then_, else_ } => PStmt::If(
                self.guard(cond),
                Box::new(self.stmt(then_)),
                else_.as_ref().map(|e| Box::new(self.stmt(e))),
            ),
            Stmt::Seq(items) => PStmt::Seq(items.iter().map(|i| self.stmt(i)).collect()),
            Stmt::Alloc { buffer, size, body } => {
                let size = self.expr(size);
                let slot = u32::try_from(self.scratch_names.len()).expect("slot count fits u32");
                self.scratch_names.push(buffer.clone());
                self.scratch.push((buffer, slot));
                let body = Box::new(self.stmt(body));
                self.scratch.pop();
                PStmt::Alloc(slot, size, body)
            }
            Stmt::Nop => PStmt::Seq(Vec::new()),
        }
    }
}

/// The additive terms of `e`, left to right.
fn sum_terms<'e>(e: &'e PExpr, out: &mut Vec<&'e PExpr>) {
    match e {
        PExpr::Bin(IBinOp::Add, ab) => {
            sum_terms(&ab.0, out);
            sum_terms(&ab.1, out);
        }
        other => out.push(other),
    }
}

/// `j` or `j·c` / `c·j` as `(j's slot, c)`.
fn scaled_var(e: &PExpr) -> Option<(u32, i64)> {
    match e {
        PExpr::Var(j) => Some((*j, 1)),
        PExpr::Bin(IBinOp::Mul, ab) => match &**ab {
            (PExpr::Var(j), PExpr::Int(c)) | (PExpr::Int(c), PExpr::Var(j)) => Some((*j, *c)),
            _ => None,
        },
        _ => None,
    }
}

// ---------------------------------------------------------------------
// Phase 2: the per-shape walk
// ---------------------------------------------------------------------

/// Errors are boxed inside the walk so the per-node `Result`s stay small.
type Walked<T> = Result<T, Box<VerifyError>>;

/// One shape's abstract interpretation of a [`ProofProgram`]: call
/// [`ProofWalk::tile`] once per tile, then [`ProofWalk::finish`].
///
/// All state lives in slot-indexed vectors sized at construction and
/// reused across tiles, and auxiliary tables are read in place from the
/// shape's built prelude — a walk allocates nothing per tile.
#[derive(Debug)]
pub struct ProofWalk<'a> {
    prog: &'a ProofProgram,
    /// Ground truth for auxiliary-table loads, by table slot (`None`:
    /// not built — an error only if a load actually reaches it).
    tables: Vec<Option<&'a [i64]>>,
    output_size: i64,
    /// The block values `min .. min + total`, in tiles of `grain`.
    min: i64,
    total: usize,
    grain: usize,
    /// Abstract value of every variable slot.
    env: Vec<SInt>,
    /// Minimal guaranteed capacity of each `Alloc` site (when its size
    /// expression is bounded below), set on scope entry.
    scratch_cap: Vec<Option<i64>>,
    /// Ranges shadowed by guard narrowing, restored on branch exit.
    undo: Vec<(u32, SInt)>,
    /// The current tile's output store region per visited site.
    regions: Vec<(u32, SInt)>,
    /// Minimal required length per float input slot (access hulls).
    required: Vec<Option<i64>>,
    /// The elements each tile loads, per float input slot: tile-major,
    /// one entry per `(tile, slot)`.
    loads: Vec<SInt>,
    /// The tile being walked.
    tile: usize,
    /// Which output store sites any tile has reached.
    visited: Vec<bool>,
    /// `(tile, site, region)` of every non-empty store region.
    spans: Vec<(usize, u32, SInt)>,
    /// Block values walked so far.
    n_blocks: usize,
}

impl ProofWalk<'_> {
    /// Number of tiles the block values fall into.
    pub fn tiles(&self) -> usize {
        self.total.div_ceil(self.grain)
    }

    /// Interprets the body abstractly once for tile `t`, with the block
    /// variable bound to the tile's block values, proving its accesses
    /// in bounds and recording its store regions and, per float input,
    /// the elements it loads.
    ///
    /// # Errors
    ///
    /// [`VerifyError::OutOfBounds`] or [`VerifyError::Unsupported`]; the
    /// proof has failed and the walk must not be continued.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not below [`ProofWalk::tiles`].
    pub fn tile(&mut self, t: usize) -> Result<(), VerifyError> {
        let prog = self.prog;
        let first = t * self.grain;
        assert!(first < self.total, "tile {t} of {} tiles", self.tiles());
        let len = self.grain.min(self.total - first);
        // Both ends lie inside `min .. min + total`, checked by `walk`.
        let lo = self.min + first as i64;
        if let Some(slot) = prog.block_slot {
            self.env[slot as usize] = SInt::range(lo, lo + (len - 1) as i64);
        }
        self.n_blocks += len;
        self.tile = t;
        self.stmt(&prog.body).map_err(|e| *e)?;
        for (site, region) in self.regions.drain(..) {
            if !matches!(region, SInt::Empty) {
                self.spans.push((t, site, region));
            }
        }
        Ok(())
    }

    /// Certifies the walked tiles: [`StoreCert::tiled`] proves the store
    /// regions of distinct tiles pairwise disjoint by sort-and-sweep
    /// (interval separation or, for interleaved lanes, stride/congruence
    /// separation) while assembling the certificate, so the executor
    /// enforces exactly what was checked. Tiles not walked own nothing.
    ///
    /// # Errors
    ///
    /// [`VerifyError::StoreOverlap`] with the two witness tiles.
    pub fn finish(self) -> Result<VerifyOutcome, VerifyError> {
        let spans = self.spans.iter().map(|&(t, _, r)| (t, r));
        let cert = StoreCert::tiled(self.min, self.total, self.grain, spans)
            .map_err(|e| self.cert_error(e))?;
        let names = self.prog.slots.free_fbufs.names().iter();
        let mut required_inputs: Vec<(String, i64)> = names
            .zip(&self.required)
            .filter_map(|(name, need)| Some((name.clone(), (*need)?)))
            .collect();
        required_inputs.sort();
        let inputs = self.prog.slots.free_fbufs.names();
        let mut tile_loads: Vec<(String, Vec<SInt>)> = (inputs.iter().enumerate())
            .filter(|&(slot, _)| self.required[slot].is_some())
            .map(|(slot, name)| {
                let per_tile = self.loads.iter().skip(slot).step_by(inputs.len());
                (name.clone(), per_tile.copied().collect())
            })
            .collect();
        tile_loads.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(VerifyOutcome {
            proof: ProofKind::ConcreteInterpretation,
            n_blocks: self.n_blocks,
            grain: self.grain,
            tiles: cert.tiles(),
            cert,
            store_sites: self.visited.iter().filter(|&&v| v).count(),
            required_inputs,
            tile_loads,
        })
    }

    fn cert_error(&self, e: CertError) -> VerifyError {
        let CertError::Overlap {
            block_a,
            region_a,
            block_b,
            region_b,
        } = e
        else {
            return VerifyError::Unsupported {
                what: format!("the store regions into a certificate: {e:?}"),
            };
        };
        // Cite the syntactically first store either witness came from.
        let is_witness = |b, r| (b, r) == (block_a, region_a) || (b, r) == (block_b, region_b);
        let first_block = |t: usize| self.min + (t * self.grain) as i64;
        let witnesses = (self.spans.iter()).filter(|&&(t, _, r)| is_witness(first_block(t), r));
        let site = witnesses.map(|&(_, site, _)| site).min();
        let (store, index) = &self.prog.sites[site.expect("witnesses are walked spans") as usize];
        VerifyError::StoreOverlap {
            store: print_c(store),
            index: format!("{index}"),
            grain: self.grain,
            block_a,
            region_a,
            block_b,
            region_b,
        }
    }

    fn stmt(&mut self, s: &PStmt) -> Walked<()> {
        match s {
            PStmt::For(var, min, extent, body) => {
                let mn = self.expr(min)?;
                let ext = self.expr(extent)?;
                // A provably zero-trip loop contributes nothing (the empty
                // rows of a ragged batch).
                if matches!(ext.hull(), Some((_, hi)) if hi <= 0) {
                    return Ok(());
                }
                self.env[*var as usize] = match (mn.hull(), ext.hull()) {
                    (Some((lo, mhi)), Some((_, ehi))) => {
                        SInt::range(lo, mhi.saturating_add(ehi).saturating_sub(1))
                    }
                    _ => SInt::Top,
                };
                self.stmt(body)
            }
            PStmt::Let(var, value, body) => {
                self.env[*var as usize] = self.expr(value)?;
                self.stmt(body)
            }
            PStmt::Access(buf, index, src, site) => {
                let r = self.index(index)?;
                self.access(*buf, src, r)?;
                if let Some(site) = site {
                    self.visited[*site as usize] = true;
                    match self.regions.iter_mut().find(|(id, _)| id == site) {
                        Some((_, region)) => *region = region.union(r),
                        None => self.regions.push((*site, r)),
                    }
                }
                Ok(())
            }
            PStmt::Eval(e) => self.expr(e).map(|_| ()),
            PStmt::If(guard, then_, else_) => match (self.cond(&guard.cond)?, else_) {
                (Some(true), _) => self.stmt(then_),
                (Some(false), Some(e)) => self.stmt(e),
                (Some(false), None) => Ok(()),
                (None, _) => {
                    // Walk the taken branch under the guard-narrowed
                    // ranges; infeasible narrowing skips the branch.
                    self.under(&guard.narrow, then_)?;
                    else_.as_ref().map_or(Ok(()), |e| self.stmt(e))
                }
            },
            PStmt::Seq(items) => items.iter().try_for_each(|item| self.stmt(item)),
            PStmt::Alloc(slot, size, body) => {
                let cap = self.expr(size)?.hull().map(|(lo, _)| lo);
                self.scratch_cap[*slot as usize] = cap;
                self.stmt(body)
            }
        }
    }

    /// One float-buffer access over index range `r`. Inputs record the
    /// minimal length covering it (the outliner's screen rejects stores
    /// to shared inputs before the verifier runs; a direct caller still
    /// gets the bound). Scratch and the output — whose loads the
    /// outliner likewise rejects — are checked against their capacity;
    /// an unbounded scratch size proves nothing, which is tolerated (the
    /// VM's slice indexing still panics safely at run time) unless the
    /// scratch shadows the output's name.
    fn access(&mut self, buf: Buf, index: &Expr, r: SInt) -> Walked<()> {
        let (name, cap) = match buf {
            Buf::Input(slot) => {
                let at = self.tile * self.required.len() + slot as usize;
                self.loads[at] = self.loads[at].union(r);
                if let Some((_, hi)) = r.hull() {
                    let need = &mut self.required[slot as usize];
                    *need = Some(need.unwrap_or(0).max(hi.saturating_add(1)));
                }
                return Ok(());
            }
            Buf::Scratch(slot) => (
                &self.prog.scratch_names[slot as usize],
                self.scratch_cap[slot as usize],
            ),
            Buf::Output => (&self.prog.output, Some(self.output_size)),
        };
        let proven = match (r, cap) {
            (SInt::Empty, _) => true,
            (_, Some(size)) => matches!(r.hull(), Some((lo, hi)) if lo >= 0 && hi < size),
            (_, None) => *name != self.prog.output,
        };
        if proven {
            Ok(())
        } else {
            Err(oob(name, index, r, cap.unwrap_or(self.output_size)))
        }
    }

    /// The range of an access index: its plain value, narrowed to its
    /// correlated pair's bound when it has one.
    fn index(&mut self, ix: &PIndex) -> Walked<SInt> {
        let plain = self.expr(&ix.expr)?;
        let Some(pair) = &ix.pair else {
            return Ok(plain);
        };
        Ok(match self.pair(pair)? {
            SInt::Empty => SInt::Empty,
            SInt::Top => plain,
            bound @ SInt::Set { lo, hi, .. } => match plain {
                SInt::Top => bound,
                _ => plain.clamp(Some(lo), Some(hi)).unwrap_or(plain),
            },
        })
    }

    /// Bounds `Load(base, at) + coeff·j + rest` by one scan over
    /// `x ∈ at`: each row `x` with `extent[x] > 0` contributes
    /// `base[x] + coeff·[0, extent[x] − 1]`, and a row with
    /// `extent[x] = 0` never runs the loop that holds the access. Empty
    /// when no row runs it; [`SInt::Top`] (no bound) when `at` is not a
    /// bounded in-range set or the arithmetic overflows.
    fn pair(&mut self, p: &Pair) -> Walked<SInt> {
        let (SInt::Set { lo, hi, stride }, Some(base), Some(extent)) = (
            self.expr(&p.at)?,
            self.tables[p.base as usize],
            self.tables[p.extent as usize],
        ) else {
            return Ok(SInt::Top);
        };
        let rows = base.len().min(extent.len());
        let (Ok(lo), Ok(hi)) = (usize::try_from(lo), usize::try_from(hi)) else {
            return Ok(SInt::Top);
        };
        if hi >= rows {
            return Ok(SInt::Top);
        }
        let mut span: Option<(i64, i64)> = None;
        for x in (lo..=hi).step_by(stride as usize) {
            if extent[x] <= 0 {
                continue;
            }
            let reach = (extent[x] - 1).checked_mul(p.coeff);
            let row = reach.and_then(|d| {
                Some((
                    base[x].checked_add(d.min(0))?,
                    base[x].checked_add(d.max(0))?,
                ))
            });
            let Some((a, b)) = row else {
                return Ok(SInt::Top);
            };
            span = Some(span.map_or((a, b), |(s, t)| (s.min(a), t.max(b))));
        }
        let Some((s, t)) = span else {
            return Ok(SInt::Empty);
        };
        let rest = match &p.rest {
            Some(rest) => self.expr(rest)?,
            None => SInt::point(0),
        };
        Ok(SInt::range(s, t).add(rest))
    }

    /// Evaluates `e` over strided intervals.
    fn expr(&mut self, e: &PExpr) -> Walked<SInt> {
        Ok(match e {
            PExpr::Int(v) => SInt::point(*v),
            PExpr::Var(slot) => self.env[*slot as usize],
            PExpr::Bin(op, ab) => op.apply_sint(self.expr(&ab.0)?, self.expr(&ab.1)?),
            PExpr::Select(cab) => match self.cond(&cab.0)? {
                Some(true) => self.expr(&cab.1)?,
                Some(false) => self.expr(&cab.2)?,
                None => self.expr(&cab.1)?.union(self.expr(&cab.2)?),
            },
            PExpr::Load(table, index, src) => {
                let r = self.expr(index)?;
                let name = &self.prog.slots.ibufs.names()[*table as usize];
                let Some(data) = self.tables[*table as usize] else {
                    return Err(Box::new(VerifyError::Unsupported {
                        what: format!("a load from unbuilt auxiliary table `{name}`"),
                    }));
                };
                let len = i64::try_from(data.len()).expect("table length fits i64");
                match r {
                    SInt::Empty => SInt::Empty,
                    SInt::Set { lo, hi, stride } if lo >= 0 && hi < len => {
                        // Hull of the touched members: exact min/max over
                        // the congruence class within the slice (a point
                        // index reads the exact entry).
                        let touched = data[lo as usize..=hi as usize].iter();
                        let (vmin, vmax) = (touched.step_by(stride as usize))
                            .fold((i64::MAX, i64::MIN), |(mn, mx), &v| (mn.min(v), mx.max(v)));
                        SInt::range(vmin, vmax)
                    }
                    _ => return Err(oob(name, src, r, len)),
                }
            }
        })
    }

    /// Three-valued condition evaluation: `Some(b)` when provable,
    /// `None` when the hulls do not decide it.
    fn cond(&mut self, c: &PCond) -> Walked<Option<bool>> {
        Ok(match c {
            PCond::Const(b) => Some(*b),
            PCond::Cmp(op, a, b) => op.apply_sint(self.expr(a)?, self.expr(b)?),
            PCond::And(xy) => match (self.cond(&xy.0)?, self.cond(&xy.1)?) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            },
            PCond::Or(xy) => match (self.cond(&xy.0)?, self.cond(&xy.1)?) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            },
            PCond::Not(x) => self.cond(x)?.map(|b| !b),
        })
    }

    /// Runs `body` with variable ranges narrowed by `steps` (a guard
    /// assumed true), then restores them. A narrowing that empties a
    /// range proves the branch infeasible for this block: `body` is
    /// skipped.
    fn under(&mut self, steps: &[NarrowLe], body: &PStmt) -> Walked<()> {
        let mark = self.undo.len();
        let mut feasible = true;
        for step in steps {
            feasible = feasible && self.narrow(step)?;
        }
        let walked = if feasible { self.stmt(body) } else { Ok(()) };
        // Innermost-first, so a range narrowed twice gets its original back.
        for (slot, old) in self.undo.drain(mark..).rev() {
            self.env[slot as usize] = old;
        }
        walked
    }

    /// Fourier–Motzkin narrowing of every variable appearing linearly
    /// in `form ≤ bound`: for coefficient `c > 0`,
    /// `v ≤ ⌊(bound − rest_lo) / c⌋`; for `c < 0` (as `−d`),
    /// `v ≥ ⌈(rest_lo − bound) / d⌉`, where `rest` is the form without
    /// `v`'s term, evaluated over the current ranges. An arithmetic
    /// overflow skips that narrowing (a wider range is sound). Returns
    /// whether the branch remains feasible.
    fn narrow(&mut self, step: &NarrowLe) -> Walked<bool> {
        for (k, (term, c)) in step.terms.iter().enumerate() {
            // Only variables with a known set have anything to tighten.
            let PExpr::Var(slot) = term else { continue };
            let cur = self.env[*slot as usize];
            if cur.hull().is_none() {
                continue;
            }
            let mut rest = SInt::point(step.constant);
            for (j, (t, coeff)) in step.terms.iter().enumerate() {
                if j != k {
                    rest = rest.add(self.expr(t)?.mul_const(*coeff));
                }
            }
            let Some((rest_lo, _)) = rest.hull() else {
                continue;
            };
            let narrowed = if *c > 0 {
                (step.bound.checked_sub(rest_lo))
                    .and_then(|n| cur.clamp(None, Some(n.div_euclid(*c))))
            } else {
                (rest_lo.checked_sub(step.bound))
                    .zip(c.checked_neg())
                    .map(|(n, d)| n.div_euclid(d) + i64::from(n.rem_euclid(d) != 0))
                    .and_then(|new_lo| cur.clamp(Some(new_lo), None))
            };
            let Some(narrowed) = narrowed else { continue };
            if narrowed != cur {
                self.undo.push((*slot, cur));
                self.env[*slot as usize] = narrowed;
            }
            if matches!(narrowed, SInt::Empty) {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

fn oob(buffer: &str, index: &Expr, range: SInt, size: i64) -> Box<VerifyError> {
    Box::new(VerifyError::OutOfBounds {
        buffer: buffer.to_string(),
        index: format!("{index}"),
        range,
        size,
    })
}

// ---------------------------------------------------------------------
// Rule A: symbolic block-invariance (shape-independent)
// ---------------------------------------------------------------------

/// Symbolically checks every store to `output` for a block-invariant
/// index: a store whose index's linear form has block-variable
/// coefficient 0 and no remaining term that can depend on the block
/// variable is *definitely* wrong — every block writes the same
/// elements, regardless of shapes. This catches cancellation forms
/// (`out[b − b + i]`, `out[b·0 + i]`) that evade the syntactic taint
/// screen, before any concrete shape data exists.
///
/// Taint flows like the screen's: a `For`/`LetInt` variable is
/// block-dependent iff its `min`/value form depends on a tainted
/// variable; shadowing un-taints for the scope. `LetInt` values are
/// substituted through the linear form, so cancellation across a
/// binding is also caught.
///
/// Returns the first offending store as a [`VerifyError::BlockInvariantStore`].
pub fn symbolic_store_check(body: &Stmt, output: &str, block_var: &str) -> Result<(), VerifyError> {
    let mut binds: HashMap<String, LinForm> = HashMap::new();
    let mut tainted: Vec<String> = vec![block_var.to_string()];
    sym_walk(body, output, &mut binds, &mut tainted)
}

fn form_tainted(f: &LinForm, tainted: &[String]) -> bool {
    f.terms()
        .any(|(term, _)| tainted.iter().any(|t| term.mentions(t)))
}

fn sym_walk(
    s: &Stmt,
    output: &str,
    binds: &mut HashMap<String, LinForm>,
    tainted: &mut Vec<String>,
) -> Result<(), VerifyError> {
    match s {
        Stmt::For { var, min, body, .. } => {
            sym_scope(var, min, body, output, binds, tainted, false)
        }
        Stmt::LetInt { var, value, body } => {
            sym_scope(var, value, body, output, binds, tainted, true)
        }
        Stmt::Store { buffer, index, .. } => {
            if buffer == output {
                let form = linearize(index, binds);
                if form.coeff_of(block_var_of(tainted)) == 0 && !form_tainted(&form, tainted) {
                    return Err(VerifyError::BlockInvariantStore {
                        store: print_c(s),
                        index: format!("{index}"),
                    });
                }
            }
            Ok(())
        }
        Stmt::If { then_, else_, .. } => {
            sym_walk(then_, output, binds, tainted)?;
            if let Some(e) = else_ {
                sym_walk(e, output, binds, tainted)?;
            }
            Ok(())
        }
        Stmt::Seq(items) => {
            for item in items {
                sym_walk(item, output, binds, tainted)?;
            }
            Ok(())
        }
        Stmt::Alloc { buffer, body, .. } => {
            if buffer == output {
                // Scratch shadowing the output name: inner stores are
                // private (the screen established this already).
                return Ok(());
            }
            sym_walk(body, output, binds, tainted)
        }
        Stmt::Nop => Ok(()),
    }
}

/// The root taint — index 0 is always the block variable itself.
fn block_var_of(tainted: &[String]) -> &str {
    &tainted[0]
}

/// Scoping protocol for one binding site: compute the bound form, set
/// taint, shadow, recurse, restore. `substitute` distinguishes `LetInt`
/// (value substitutes through forms) from `For` (the variable is a
/// range, only its taint propagates).
#[allow(clippy::too_many_arguments)]
fn sym_scope(
    var: &str,
    dep: &Expr,
    body: &Stmt,
    output: &str,
    binds: &mut HashMap<String, LinForm>,
    tainted: &mut Vec<String>,
    substitute: bool,
) -> Result<(), VerifyError> {
    let dep_form = linearize(dep, binds);
    let var_tainted = form_tainted(&dep_form, tainted);
    let shadowed_bind = if substitute {
        binds.insert(var.to_string(), dep_form)
    } else {
        binds.remove(var)
    };
    let shadow_pos = tainted.iter().position(|t| t == var);
    let was_shadowed = if let Some(p) = shadow_pos {
        // Never shadow the block variable itself out of the root slot.
        if p == 0 {
            false
        } else {
            tainted.remove(p);
            true
        }
    } else {
        false
    };
    if var_tainted {
        tainted.push(var.to_string());
    }
    let r = sym_walk(body, output, binds, tainted);
    if var_tainted {
        tainted.pop();
    }
    if was_shadowed {
        tainted.push(var.to_string());
    }
    match shadowed_bind {
        Some(f) => {
            binds.insert(var.to_string(), f);
        }
        None => {
            binds.remove(var);
        }
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use cora_ir::FExpr;

    fn ctx_env() -> Env {
        let mut env = Env::new();
        env.set_buffer("row", vec![0i64, 5, 5, 8]);
        env.set_buffer("lens", vec![5i64, 0, 3, 2]);
        env
    }

    fn doubling_body() -> Stmt {
        let idx = Expr::load("row", Expr::var("b")) + Expr::var("i");
        Stmt::loop_(
            "i",
            Expr::load("lens", Expr::var("b")),
            Stmt::store("out", idx.clone(), FExpr::load("A", idx) * 2.0),
        )
    }

    #[test]
    fn ragged_row_partition_verifies() {
        let env = ctx_env();
        let ctx = VerifyCtx {
            env: &env,
            scalars: &[],
            output: "out",
            output_size: 10,
        };
        let out = verify_outlined(&doubling_body(), "b", 0, 4, &ctx).expect("verifies");
        assert_eq!(out.n_blocks, 4);
        assert_eq!(out.store_sites, 1);
        assert_eq!(out.cert.regions_for(0), &[SInt::range(0, 4)]);
        // Block 1 is a zero-length row: no region at all.
        assert!(out.cert.regions_for(1).is_empty());
        assert_eq!(out.required_input_len("A"), Some(10));
    }

    #[test]
    fn overlapping_rows_are_rejected_with_witnesses() {
        let mut env = Env::new();
        // Rows 0 and 2 share element 4.
        env.set_buffer("row", vec![0i64, 5, 4, 8]);
        env.set_buffer("lens", vec![5i64, 0, 3, 2]);
        let ctx = VerifyCtx {
            env: &env,
            scalars: &[],
            output: "out",
            output_size: 10,
        };
        let err = verify_outlined(&doubling_body(), "b", 0, 4, &ctx).unwrap_err();
        match &err {
            VerifyError::StoreOverlap {
                block_a, block_b, ..
            } => {
                assert_eq!((*block_a, *block_b), (0, 2));
            }
            other => panic!("wrong error: {other:?}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("out["), "store cited: {msg}");
        assert!(msg.contains("overlap"), "{msg}");
    }

    #[test]
    fn out_of_bounds_store_is_rejected() {
        let env = ctx_env();
        let ctx = VerifyCtx {
            env: &env,
            scalars: &[],
            output: "out",
            output_size: 9, // one short of the required 10
        };
        let err = verify_outlined(&doubling_body(), "b", 0, 4, &ctx).unwrap_err();
        assert!(matches!(err, VerifyError::OutOfBounds { .. }), "{err}");
        assert!(err.to_string().contains("escaping"), "{err}");
    }

    #[test]
    fn padded_guarded_loop_narrows_to_true_extent() {
        // for i in 0..8 { if i < lens[b] { out[row[b] + i] = 1 } } — the
        // pad_loop shape. Without guard narrowing the padded hull would
        // collide with the next row.
        let env = ctx_env();
        let idx = Expr::load("row", Expr::var("b")) + Expr::var("i");
        let body = Stmt::loop_(
            "i",
            Expr::int(8),
            Stmt::if_then(
                Expr::var("i").lt(Expr::load("lens", Expr::var("b"))),
                Stmt::store("out", idx, FExpr::constant(1.0)),
            ),
        );
        let ctx = VerifyCtx {
            env: &env,
            scalars: &[],
            output: "out",
            output_size: 10,
        };
        let out = verify_outlined(&body, "b", 0, 4, &ctx).expect("narrowing verifies");
        assert_eq!(out.cert.regions_for(0), &[SInt::range(0, 4)]);
        assert_eq!(out.cert.regions_for(3), &[SInt::range(8, 9)]);
    }

    /// `for i in 0..8 { if cond(i) { out[b*8 + i] = 1 } }` over two blocks.
    fn guarded_rows(cond: Cond) -> Result<VerifyOutcome, VerifyError> {
        let body = Stmt::loop_(
            "i",
            Expr::int(8),
            Stmt::if_then(
                cond,
                Stmt::store(
                    "out",
                    Expr::var("b") * 8 + Expr::var("i"),
                    FExpr::constant(1.0),
                ),
            ),
        );
        let env = Env::new();
        let ctx = VerifyCtx {
            env: &env,
            scalars: &[],
            output: "out",
            output_size: 16,
        };
        verify_outlined(&body, "b", 0, 2, &ctx)
    }

    #[test]
    fn narrowing_near_the_i64_limits_never_shrinks_a_range_wrongly() {
        let big = 1i64 << 62;
        // `i·2^62 + i64::MIN <= 0` holds for i in 0..=2. The product's
        // range overflows to ⊤, so the hulls cannot decide the guard and
        // narrowing computes `bound − rest_lo = 0 − i64::MIN`, which
        // does not fit: wrapping used to turn that into `i <= −2`, an
        // empty range — "branch infeasible" — and the stores below the
        // guard went unproven. The narrowing must be skipped instead.
        let near_min = (Expr::var("i") * big + Expr::int(i64::MIN)).le(Expr::int(0));
        let out = guarded_rows(near_min).expect("rows stay disjoint");
        let (lo, hi) = out.cert.regions_for(0)[0].hull().unwrap();
        assert!(
            lo == 0 && hi >= 2,
            "block 0 stores [0, 2]: got [{lo}, {hi}]"
        );

        // `i64::MAX − i·2^62 <= 0` holds for i >= 2: the lower bound
        // `⌈(rest_lo − bound) / d⌉` has `rest_lo = i64::MAX`, where the
        // textbook `+ d − 1` rounding overflows.
        let near_max = (Expr::int(i64::MAX) - Expr::var("i") * big).le(Expr::int(0));
        let out = guarded_rows(near_max).expect("rows stay disjoint");
        let (lo, hi) = out.cert.regions_for(1)[0].hull().unwrap();
        assert!(
            lo <= 10 && hi == 15,
            "block 1 stores [10, 15]: got [{lo}, {hi}]"
        );
    }

    #[test]
    fn ranges_narrowed_twice_are_fully_restored_after_the_branch() {
        // for i in 0..8 { if i < 6 && i < 2 { out[b*16 + i] = 1 }
        //                 out[b*16 + 8 + i] = 1 }
        // The guard narrows `i` twice; the store after the branch must
        // see the whole loop range again, not the first narrowing.
        let at = |off: i64| Expr::var("b") * 16 + Expr::var("i") + off;
        let i = || Expr::var("i");
        let body = Stmt::loop_(
            "i",
            Expr::int(8),
            Stmt::if_then(
                i().lt(Expr::int(6)).and(i().lt(Expr::int(2))),
                Stmt::store("out", at(0), FExpr::constant(1.0)),
            )
            .then(Stmt::store("out", at(8), FExpr::constant(1.0))),
        );
        let env = Env::new();
        let ctx = VerifyCtx {
            env: &env,
            scalars: &[],
            output: "out",
            output_size: 32,
        };
        let out = verify_outlined(&body, "b", 0, 2, &ctx).expect("verifies");
        assert_eq!(out.store_sites, 2);
        assert_eq!(
            out.cert.regions_for(1),
            &[SInt::range(16, 17), SInt::range(24, 31)]
        );
    }

    #[test]
    fn interleaved_lanes_verify_by_congruence() {
        // Block b writes out[i*2 + b] for i in 0..4: hulls overlap,
        // parity separates.
        let body = Stmt::loop_(
            "i",
            Expr::int(4),
            Stmt::store(
                "out",
                Expr::var("i") * 2 + Expr::var("b"),
                FExpr::constant(1.0),
            ),
        );
        let env = Env::new();
        let ctx = VerifyCtx {
            env: &env,
            scalars: &[],
            output: "out",
            output_size: 8,
        };
        let out = verify_outlined(&body, "b", 0, 2, &ctx).expect("parity lanes verify");
        assert_eq!(out.cert.regions_for(0), &[SInt::make(0, 6, 2)]);
        assert_eq!(out.cert.regions_for(1), &[SInt::make(1, 7, 2)]);
    }

    #[test]
    fn symbolic_check_catches_cancelled_block_coefficient() {
        // out[b − b + i]: the taint screen sees `b` mentioned; the
        // linear form knows the coefficient is zero.
        let body = Stmt::loop_(
            "i",
            Expr::int(4),
            Stmt::store(
                "out",
                Expr::var("b") - Expr::var("b") + Expr::var("i"),
                FExpr::constant(1.0),
            ),
        );
        let err = symbolic_store_check(&body, "out", "b").unwrap_err();
        assert!(matches!(err, VerifyError::BlockInvariantStore { .. }));
        let msg = err.to_string();
        assert!(msg.contains("coefficient 0"), "{msg}");

        // out[b·0 + i] likewise.
        let zero = Stmt::loop_(
            "i",
            Expr::int(4),
            #[allow(clippy::erasing_op)] // the cancellation is the point
            Stmt::store(
                "out",
                Expr::var("b") * 0 + Expr::var("i"),
                FExpr::constant(1.0),
            ),
        );
        assert!(symbolic_store_check(&zero, "out", "b").is_err());

        // The legitimate hoisted-row pattern stays accepted.
        let ok = Stmt::LetInt {
            var: "h".into(),
            value: Expr::load("row", Expr::var("b")),
            body: Box::new(Stmt::loop_(
                "i",
                Expr::int(4),
                Stmt::store("out", Expr::var("h") + Expr::var("i"), FExpr::constant(1.0)),
            )),
        };
        assert!(symbolic_store_check(&ok, "out", "b").is_ok());
    }
}
