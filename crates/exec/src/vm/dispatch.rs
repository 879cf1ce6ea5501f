//! The dispatch loop: one instruction interpreter shared by the serial
//! machine and the parallel workers, monomorphised over the output
//! port of the float-buffer view ([`super::bufs`]).

use std::ops::Range;
use std::sync::Arc;

use cora_ir::{FBinOp, FUnaryOp, StoreKind};

use super::bufs::{Bufs, Operands, OutPort, Sink};
use super::isa::{
    fbuf_name, FusedNest, Instr, MapOp, NestIndex, RowAffine, VmProgram, MAP_CHUNK, MAX_MAP_SITES,
    MAX_MAP_TAPE, MAX_ROW_TABLES,
};
use crate::interp::InterpStats;
use crate::microkernel::{self, KernelArgs, MathMode, NestClass, NestKernel, Operand, PanelCache};

/// Private per-execution state of one dispatch: the variable file (a
/// copy of the binding table's, so loop variables never touch shared
/// state), the register files, and the fused-nest scratch. One `Regs`
/// is created beside the [`Bufs`] of each execution — a serial run, or
/// one parallel worker's batch of tiles — and dropped with it, which is
/// what keeps the packed panel in [`NestScratch`] from outliving the
/// buffers it copies.
pub(super) struct Regs {
    pub(super) vars: Vec<i64>,
    iregs: Vec<i64>,
    fregs: Vec<f32>,
    scratch: NestScratch,
}

/// What the fused-nest executor keeps across the nests of one execution,
/// handed to it as one pointer so [`dispatch`]'s register footprint does
/// not grow. `map` is the chunk scratch of [`sweep_nest`], kept here so
/// its ~6 KiB zero-fill happens once per execution context instead of
/// once per fused instruction (which, in the outlined parallel tier,
/// would mean once per row); every tape op fully overwrites its
/// `dst[..m]` slice before anything reads it, so stale chunk contents
/// are never observed — which is also why executions that run one after
/// another may pass one chunk scratch between them
/// ([`Regs::swap_chunk_scratch`]; `None` while another execution holds
/// it). `panel` is the packed-panel row's cache, reused across the nests
/// that read the same read-only rows.
pub(super) struct NestScratch {
    map: Option<Box<[[f32; MAP_CHUNK]; MAX_MAP_TAPE]>>,
    panel: PanelCache,
}

impl Regs {
    /// Fresh register state for `prog`, starting from the bound
    /// variable file `vars`.
    pub(super) fn new(prog: &VmProgram, vars: &[i64]) -> Regs {
        let mut regs = Regs::without_chunk_scratch(prog, vars);
        regs.scratch.map = Some(Box::new([[0f32; MAP_CHUNK]; MAX_MAP_TAPE]));
        regs
    }

    /// [`Regs::new`] without a chunk scratch of its own: for an execution
    /// that is handed one ([`Regs::swap_chunk_scratch`]) before each run.
    pub(super) fn without_chunk_scratch(prog: &VmProgram, vars: &[i64]) -> Regs {
        Regs {
            vars: vars.to_vec(),
            iregs: vec![0; prog.n_iregs],
            fregs: vec![0.0; prog.n_fregs],
            scratch: NestScratch {
                map: None,
                panel: PanelCache::default(),
            },
        }
    }

    /// Exchanges the fused-nest chunk scratch with `other`'s. The stages
    /// of a chain run one after another on a worker, tile after tile;
    /// handing one chunk scratch from stage to stage keeps a single one
    /// warm in cache instead of one per stage.
    pub(super) fn swap_chunk_scratch(&mut self, other: &mut Regs) {
        std::mem::swap(&mut self.scratch.map, &mut other.scratch.map);
    }
}

/// Executes `prog` to completion over the given state. Statistics are
/// batched in a local and published on normal return, so `stats` is not
/// updated if execution panics mid-kernel.
pub(super) fn dispatch<P: OutPort>(
    prog: &VmProgram,
    ibufs: &[Arc<[i64]>],
    regs: &mut Regs,
    fbufs: &mut Bufs<'_, P>,
    stats: &mut InterpStats,
) {
    let code = prog.code.as_slice();
    let Regs {
        vars,
        iregs,
        fregs,
        scratch,
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
                iregs[*dst as usize] = op.apply(x, y);
            }
            Instr::IBinC { op, dst, a, c } => {
                let x = iregs[*a as usize];
                iregs[*dst as usize] = op.apply(x, *c);
            }
            Instr::IBinV { op, dst, a, vslot } => {
                let x = iregs[*a as usize];
                let y = vars[*vslot as usize];
                iregs[*dst as usize] = op.apply(x, y);
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
                pc = if op.apply(x, y) { *on_true } else { *on_false } as usize;
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
                fregs[*dst as usize] = op.apply(x, y);
                st.flops += 1;
            }
            Instr::FBinC { op, dst, a, c } => {
                let x = fregs[*a as usize];
                fregs[*dst as usize] = op.apply(x, *c);
                st.flops += 1;
            }
            Instr::FBinCL { op, dst, c, b } => {
                let y = fregs[*b as usize];
                fregs[*dst as usize] = op.apply(*c, y);
                st.flops += 1;
            }
            Instr::FUn { op, dst, a } => {
                fregs[*dst as usize] = op.apply(fregs[*a as usize]);
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
            Instr::FNest(op) => {
                run_fused_nest(prog, ibufs, fbufs, op, iregs, scratch, &mut st);
            }
            Instr::EnterBlock { slot } => fbufs.enter_block(vars[*slot as usize]),
        }
        pc += 1;
    }
    *stats = st;
}

/// One affine index of a nest at run time: its value at the first
/// iteration and its strides along the inner and outer loops.
#[derive(Clone, Copy, Default)]
struct Axis {
    base: i64,
    inner: i64,
    outer: i64,
}

impl Axis {
    /// The kernel operand reading `data` — the contents of buffer `slot`
    /// from absolute index `origin` on — along this (non-negative) axis.
    fn operand(self, slot: u32, (data, origin): (&[f32], usize)) -> Operand<'_> {
        Operand {
            slot,
            data,
            base: (self.base as usize)
                .checked_sub(origin)
                .expect("kernel operand starts below its window"),
            outer: self.outer as usize,
        }
    }
}

/// A [`RowAffine`] with its operands resolved for one execution:
/// `c + step·v + Σ w·T[v]`.
#[derive(Clone, Copy, Default)]
struct RowValue {
    c: i64,
    step: i64,
    tables: [(usize, i64); MAX_ROW_TABLES],
    n_tables: usize,
}

impl RowValue {
    fn resolve(form: &RowAffine, iregs: &[i64]) -> RowValue {
        let mut v = RowValue {
            c: form.c.get(iregs),
            step: form.step.get(iregs),
            n_tables: form.tables.len(),
            ..RowValue::default()
        };
        for (t, (buf, w)) in v.tables.iter_mut().zip(form.tables.iter()) {
            *t = (*buf as usize, w.get(iregs));
        }
        v
    }

    /// The value in row `v`, reading each table at `v` (the panics of
    /// the serial `T[v]` loads).
    #[inline]
    fn at(&self, v: i64, ibufs: &[Arc<[i64]>], prog: &VmProgram) -> i64 {
        let mut x = self.c + self.step * v;
        if self.n_tables > 0 {
            let iu = usize::try_from(v).unwrap_or_else(|_| {
                let buf = self.tables[0].0;
                panic!(
                    "negative index {v} into buffer `{}`",
                    prog.slots.ibufs.names()[buf]
                )
            });
            for &(buf, w) in &self.tables[..self.n_tables] {
                x += w * ibufs[buf][iu];
            }
        }
        x
    }
}

/// Executes one [`FusedNest`] — every row of its row level, or the one
/// nest without — charging its statistics to `st`.
///
/// Once per execution (for a tile body's row level: once per tile) it
/// resolves the strides, the kernel, the sweep's uniform flags, each
/// operand's contiguous view and where the stores land: the output
/// port hands over the dense run spanning every row's stores when it
/// covers that run with one check ([`Bufs::split_out`]), and every row
/// then stores into that run unchecked. When the port does not cover
/// it — a tile certified region by region, say — each row's stores are
/// checked as they land, with the row's block announced first. Per row
/// the executor reads the extent tables (stopping at an empty row, as
/// the serial zero-trip test does), then the base tables, and runs the
/// nest as a native kernel when the microkernel table has a row for its
/// class and strides, as the chunked tape sweep otherwise.
///
/// Kept out of line, like [`sweep_nest`]: its locals would otherwise
/// compete with [`dispatch`]'s for machine registers.
#[inline(never)]
fn run_fused_nest<P: OutPort>(
    prog: &VmProgram,
    ibufs: &[Arc<[i64]>],
    fbufs: &mut Bufs<'_, P>,
    op: &FusedNest,
    iregs: &[i64],
    scratch: &mut NestScratch,
    st: &mut InterpStats,
) {
    // Once per execution: every index's strides and base form, the
    // extents' forms, the kernel and the sweep's uniform flags.
    let n_idx = 1 + op.sites.len();
    let indices = std::iter::once(&op.out_idx).chain(op.sites.iter().map(|s| &s.idx));
    let mut axes = [Axis::default(); MAX_MAP_SITES + 1];
    let mut bases = [RowValue::default(); MAX_MAP_SITES + 1];
    for ((axis, base), idx) in axes.iter_mut().zip(&mut bases).zip(indices) {
        let NestIndex {
            base: b,
            inner,
            outer,
        } = idx;
        (axis.inner, axis.outer) = (inner.get(iregs), outer.get(iregs));
        *base = RowValue::resolve(b, iregs);
    }
    let n_inner = RowValue::resolve(&op.n_inner, iregs);
    let n_outer = op.n_outer.as_ref().map(|f| RowValue::resolve(f, iregs));
    let kernel = match op.class {
        NestClass::MulAcc => {
            let strides = [axes[0], axes[1], axes[2]].map(|x| [x.inner, x.outer]);
            microkernel::select_kernel(op.class, &strides, op.n_outer.is_some())
        }
        NestClass::Map => None,
    };
    let uniform = uniform_temps(op, &axes[1..n_idx]);
    let rows = match &op.rows {
        Some(level) => {
            let first = iregs[level.first as usize];
            first..first + iregs[level.n as usize]
        }
        None => 0..1,
    };
    // A row's trip counts, read as the serial row reads them: the outer
    // extent, then the inner one only when the outer is positive.
    let extents = |v: i64| {
        let n_o = n_outer.as_ref().map_or(1, |n| n.at(v, ibufs, prog));
        let n_i = if n_o > 0 {
            n_inner.at(v, ibufs, prog)
        } else {
            0
        };
        [n_o, n_i]
    };
    let out_base = |v: i64| bases[0].at(v, ibufs, prog);
    let mut io = NestIo::new(fbufs, op, || {
        store_hull(rows.clone(), extents, out_base, axes[0])
    });
    for v in rows {
        if let Some(level) = &op.rows {
            // The serial row's nest header: its bound loads, then its
            // zero-trip test.
            st.aux_loads += level.aux;
            if level.block {
                io.out.enter_block(v);
            }
        }
        let [n_o, n_i] = extents(v);
        if n_o <= 0 {
            continue;
        }
        // The serial nest charges the inner loop header's bound loads
        // once per outer iteration, body or not.
        st.aux_loads += (n_o as u64) * op.aux_inner_bounds;
        if n_i <= 0 {
            continue;
        }
        for (axis, base) in axes[..n_idx].iter_mut().zip(&bases) {
            axis.base = base.at(v, ibufs, prog);
        }
        let n = [n_o, n_i];
        let ran = kernel.is_some_and(|kernel| {
            // A multiply-accumulate's operands are its two sites, in
            // tape order.
            let axes = [axes[0], axes[1], axes[2]];
            run_kernel(prog, op, kernel, n, axes, &mut io, &mut scratch.panel)
        });
        if !ran {
            let map = scratch.map.as_deref_mut();
            let map = map.expect("a chunk scratch is handed in before the run");
            sweep_nest(prog, op, n, &axes[..n_idx], &uniform, &mut io, map);
        }
        let iters = (n_o as u64) * (n_i as u64);
        st.aux_loads += iters * op.aux;
        st.flops += iters * op.flops;
        st.stores += iters;
    }
}

/// The dense run `(first index, length)` spanning every store of the
/// nest's `rows`: per row its `extents`, and only for a row that stores
/// its `base` (the output index at the row's first iteration), moved
/// along the output axis `out`. `None` when no row stores, an index is
/// negative or the arithmetic overflows.
fn store_hull(
    rows: Range<i64>,
    extents: impl Fn(i64) -> [i64; 2],
    base: impl Fn(i64) -> i64,
    out: Axis,
) -> Option<(usize, usize)> {
    let mut hull: Option<(i64, i64)> = None;
    for v in rows {
        let [n_o, n_i] = extents(v);
        if n_o <= 0 || n_i <= 0 {
            continue;
        }
        let (di, d_o) = (
            (n_i - 1).checked_mul(out.inner)?,
            (n_o - 1).checked_mul(out.outer)?,
        );
        let b = base(v);
        let lo = b.checked_add(di.min(0))?.checked_add(d_o.min(0))?;
        let hi = b.checked_add(di.max(0))?.checked_add(d_o.max(0))?;
        hull = Some(hull.map_or((lo, hi), |(l, h)| (l.min(lo), h.max(hi))));
    }
    let (lo, hi) = hull?;
    let n = hi.checked_sub(lo)?.checked_add(1)?;
    Some((usize::try_from(lo).ok()?, usize::try_from(n).ok()?))
}

/// The buffers of one fused-nest execution, resolved once: every slot
/// but the output, each site's contiguous view, and where the stores
/// land.
struct NestIo<'s, 'a, P> {
    slots: Operands<'s, 'a, P>,
    /// Per site, its buffer's contiguous view and the absolute index of
    /// the view's first element, when it has one (never for a cast
    /// site).
    views: [Option<(&'s [f32], usize)>; MAX_MAP_SITES],
    out: Sink<'s, P>,
}

impl<'s, 'a, P: OutPort> NestIo<'s, 'a, P> {
    /// Splits `fbufs` around `op`'s output, which takes the run `hull()`
    /// names when its port covers it ([`Bufs::split_out`]).
    fn new(
        fbufs: &'s mut Bufs<'a, P>,
        op: &FusedNest,
        hull: impl FnOnce() -> Option<(usize, usize)>,
    ) -> Self {
        let (out, slots) = fbufs.split_out(op.out, hull);
        let views = std::array::from_fn(|k| {
            let site = op.sites.get(k).filter(|s| s.buf != u32::MAX)?;
            slots.ro(site.buf)
        });
        NestIo { slots, views, out }
    }

    /// Element `idx` of site `k`, whose buffer is `buf`.
    #[inline]
    fn load(&self, k: usize, buf: u32, idx: usize) -> f32 {
        match self.views[k] {
            Some((data, origin)) => data[idx - origin],
            None => self.slots.get(buf, idx),
        }
    }
}

/// The tape entries that are *uniform* — every element of a chunk holds
/// the same value: constants, stride-0 loads/casts (`sites` are the
/// sites' axes), and any op whose inputs are all uniform. The sweep
/// computes them once per chunk and broadcasts: the same operation on
/// the same input yields the same bits, so this is legal even in Strict
/// mode (it hoists the per-element `1/rowsum`, `rsqrt(var)`-style
/// scalars that row-normalise and layer-norm tapes recompute per
/// element).
fn uniform_temps(op: &FusedNest, sites: &[Axis]) -> [bool; MAX_MAP_TAPE] {
    let mut uniform = [false; MAX_MAP_TAPE];
    for (ti, t) in op.tape.iter().enumerate() {
        uniform[ti] = match t {
            MapOp::Const { .. } => true,
            MapOp::Load { site } | MapOp::Cast { site } => sites[*site as usize].inner == 0,
            MapOp::Bin { a, b, .. } => uniform[*a as usize] && uniform[*b as usize],
            MapOp::Un { a, .. } => uniform[*a as usize],
        };
    }
    uniform
}

/// Runs one row of the nest through `kernel`, the microkernel-table row
/// matching its class and strides; `axes` are the output's and the two
/// sites' axes, `panels` the execution's packed-panel cache. Returns
/// `false`, having stored nothing, when a base is negative (the kernels
/// address `usize` ranges), an operand has no contiguous view or the
/// output is bound read-only.
fn run_kernel<P: OutPort>(
    prog: &VmProgram,
    op: &FusedNest,
    kernel: &NestKernel,
    [n_o, n_i]: [i64; 2],
    [out, a, b]: [Axis; 3],
    io: &mut NestIo<'_, '_, P>,
    panels: &mut PanelCache,
) -> bool {
    if out.base < 0 || a.base < 0 || b.base < 0 {
        return false;
    }
    let (Some(av), Some(bv)) = (io.views[0], io.views[1]) else {
        return false;
    };
    let [a_buf, b_buf] = [0, 1].map(|k| op.sites[k].buf);
    // A packed copy of `b` may be reused only while `b` cannot change.
    let b_fixed = io.slots.is_input(b_buf);
    // A row pins the output strides to a dense pattern, so the nest's
    // stores cover exactly this run.
    let span = 1 + (n_i - 1) * out.inner + (n_o - 1) * out.outer;
    let Some(run) = io.out.run(out.base as usize, span as usize) else {
        return false;
    };
    let args = KernelArgs {
        a: a.operand(a_buf, av),
        b: b.operand(b_buf, bv),
        n_inner: n_i as usize,
        n_outer: n_o as usize,
        mode: prog.math,
    };
    (kernel.run)(run, &args, b_fixed.then_some(panels));
    true
}

/// The generic executor of a [`FusedNest`]: per outer iteration, `n_i`
/// elements of `out[o(t)] (=|+=|max=) tape(t)`, evaluated chunk-wise
/// (each tape op swept across a whole chunk before the next — element
/// independence keeps the per-element float sequence identical) and
/// stored in ascending element order, so reductions accumulate exactly
/// as the unfused loops would. Loads read the execution's resolved
/// views and stores land in its [`Sink`].
///
/// Kept out of line: inlined into [`dispatch`], its locals compete with
/// the loop's program counter and register-file pointers for machine
/// registers, and every *scalar* instruction of the per-row prologues
/// slows down (measured at up to 10 % of a `scale`/`attnv` block).
#[inline(never)]
fn sweep_nest<P: OutPort>(
    prog: &VmProgram,
    op: &FusedNest,
    [n_o, n]: [i64; 2],
    axes: &[Axis],
    uniform: &[bool; MAX_MAP_TAPE],
    io: &mut NestIo<'_, '_, P>,
    scratch: &mut [[f32; MAP_CHUNK]; MAX_MAP_TAPE],
) {
    let nneg = |i: i64, slot: u32, what: &str| -> usize {
        usize::try_from(i).unwrap_or_else(|_| {
            panic!("negative {what} index {i} into `{}`", fbuf_name(prog, slot))
        })
    };
    // `axes` is the store index's axis, then every site's.
    let (out, sites) = (axes[0], &axes[1..]);
    for u in 0..n_o {
        let (o0, so) = (out.base + u * out.outer, out.inner);
        // A site's first index and inner stride in this outer iteration.
        let row = |site: u16| {
            let x = sites[site as usize];
            (x.base + u * x.outer, x.inner)
        };
        let mut start = 0i64;
        while start < n {
            let m = ((n - start) as usize).min(MAP_CHUNK);
            for ti in 0..op.tape.len() {
                let (prev, cur) = scratch.split_at_mut(ti);
                let dst = &mut cur[0][..m];
                match &op.tape[ti] {
                    MapOp::Const { v } => dst.fill(*v),
                    MapOp::Load { site } => {
                        let (k, (base, stride)) = (*site as usize, row(*site));
                        let buf = op.sites[k].buf;
                        let at = |i: i64| nneg(i, buf, "load");
                        let first = base + start * stride;
                        match (io.views[k], stride) {
                            (_, 0) => dst.fill(io.load(k, buf, at(first))),
                            (Some((data, origin)), 1) => {
                                dst.copy_from_slice(&data[at(first) - origin..][..m]);
                            }
                            _ => {
                                for (e, d) in dst.iter_mut().enumerate() {
                                    *d = io.load(k, buf, at(first + e as i64 * stride));
                                }
                            }
                        }
                    }
                    MapOp::Cast { site } => {
                        let (base, stride) = row(*site);
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
                            dst.fill(bop.apply(av[0], bv[0]));
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
                                _ => uop.apply(av[0]),
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
                // Contiguous output: one chunk store instead of a store
                // per element (bit-identical element order).
                if let Some(run) = io.out.run(nneg(first, op.out, "store"), m) {
                    match op.kind {
                        StoreKind::Assign => run.copy_from_slice(vals),
                        StoreKind::AddAssign => {
                            for (o, v) in run.iter_mut().zip(vals) {
                                *o += *v;
                            }
                        }
                        StoreKind::MaxAssign => {
                            for (o, v) in run.iter_mut().zip(vals) {
                                *o = o.max(*v);
                            }
                        }
                    }
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
                    StoreKind::Assign => io.out.set(idx, vals[m - 1]),
                    StoreKind::AddAssign => {
                        let mut acc = io.out.get(idx);
                        match prog.math {
                            MathMode::Strict => {
                                for v in vals {
                                    acc += *v;
                                }
                            }
                            MathMode::Fast => acc += microkernel::sum_fast(vals),
                        }
                        io.out.set(idx, acc);
                    }
                    StoreKind::MaxAssign => {
                        let acc = io.out.get(idx);
                        let acc = match prog.math {
                            MathMode::Strict => vals.iter().fold(acc, |c, v| c.max(*v)),
                            MathMode::Fast => microkernel::max_fast(acc, vals),
                        };
                        io.out.set(idx, acc);
                    }
                }
                start += m as i64;
                continue;
            }
            match op.kind {
                StoreKind::Assign => {
                    for (e, v) in vals.iter().enumerate() {
                        let idx = nneg(o0 + (start + e as i64) * so, op.out, "store");
                        io.out.set(idx, *v);
                    }
                }
                StoreKind::AddAssign => {
                    for (e, v) in vals.iter().enumerate() {
                        let idx = nneg(o0 + (start + e as i64) * so, op.out, "store");
                        io.out.rmw(idx, |c| c + *v);
                    }
                }
                StoreKind::MaxAssign => {
                    for (e, v) in vals.iter().enumerate() {
                        let idx = nneg(o0 + (start + e as i64) * so, op.out, "store");
                        io.out.rmw(idx, |c| c.max(*v));
                    }
                }
            }
            start += m as i64;
        }
    }
}

/// Tape binary over a chunk, dispatching on the op *once* so each arm is
/// a tight loop the compiler vectorizes (per-element results identical
/// to [`FBinOp::apply`], so both math modes use these).
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
/// (per-element results identical to [`FUnaryOp::apply`]; `Fast` transcendental
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

#[cfg(test)]
mod tests {
    use cora_ir::interval::SInt;
    use cora_ir::{Expr, FExpr, ForKind, Stmt};

    use super::super::bufs::Slot;
    use super::super::testutil::{differential, outlined_doubling_body};
    use super::super::{compile, compile_tile, BoundBuf, StoreCert};
    use super::*;
    use crate::cpu::CpuPool;
    use crate::interp::Machine;
    use crate::microkernel::{select_kernel, NEST_KERNELS};

    /// `C[cb + i·c_i + o·c_o] += A[ab + i·a_i + o·a_o] · B[bb + i·b_i + o·b_o]`
    /// with every base and stride a run-time variable, so one program
    /// realises every stride vector. `wrap` is the loop around the
    /// `i < ni[0]` reduction, if any.
    fn strided_mul_acc(wrap: Option<(&str, Expr)>) -> Stmt {
        let idx = |t: &str| {
            Expr::var(format!("{t}b"))
                + Expr::var("i") * Expr::var(format!("{t}_i"))
                + Expr::var("o") * Expr::var(format!("{t}_o"))
        };
        let store = Stmt::Store {
            buffer: "C".into(),
            index: idx("c"),
            value: FExpr::load("A", idx("a")) * FExpr::load("B", idx("b")),
            kind: StoreKind::AddAssign,
        };
        let inner = Stmt::loop_("i", Expr::load("ni", Expr::int(0)), store);
        match wrap {
            Some((var, extent)) => Stmt::loop_(var, extent, inner),
            None => inner,
        }
    }

    /// One concrete nest: trip counts and `[base, inner, outer]` per
    /// index (`C`, `A`, `B`).
    #[derive(Clone, Copy)]
    struct Shape {
        n: [i64; 2],
        axes: [[i64; 3]; 3],
    }

    impl Shape {
        /// Deterministic contents for buffer `k`, long enough for every
        /// index the nest touches.
        fn data(&self, k: usize) -> Vec<f32> {
            let [base, inner, outer] = self.axes[k];
            let len = base + self.n[1].max(1) * inner + self.n[0] * outer + 1;
            (0..len)
                .map(|x| ((x * 7 + 3 + 5 * k as i64) % 23) as f32 * 0.125 - 1.25)
                .collect()
        }

        /// Binds the interpreter's variables, tables and buffers (`o`
        /// only when the nest leaves it free).
        fn bind(&self, m: &mut Machine, free_o: bool) {
            for (t, [base, inner, outer]) in ["c", "a", "b"].iter().zip(self.axes) {
                m.env.bind(format!("{t}b"), base);
                m.env.bind(format!("{t}_i"), inner);
                m.env.bind(format!("{t}_o"), outer);
            }
            m.env.bind("no", self.n[0]);
            if free_o {
                m.env.bind("o", 0);
            }
            m.env.set_buffer("ni", vec![self.n[1]]);
            for (k, name) in ["C", "A", "B"].iter().enumerate() {
                m.set_fbuffer(*name, self.data(k));
            }
        }

        /// Runs the nest record of `stmt`'s program directly — through
        /// the table's kernel or through the chunked sweep, `B` bound
        /// read-only iff `b_read_only` — and returns `C`, or `None` when
        /// no kernel ran.
        fn execute(
            &self,
            stmt: &Stmt,
            math: MathMode,
            kernel: bool,
            b_read_only: bool,
        ) -> Option<Vec<f32>> {
            let mut prog = compile(stmt);
            prog.set_math_mode(math);
            let nest = prog
                .code
                .iter()
                .find_map(|i| match i {
                    Instr::FNest(nest) => Some(&**nest),
                    _ => None,
                })
                .expect("the nest fuses");
            let [out, a, b] = self
                .axes
                .map(|[base, inner, outer]| Axis { base, inner, outer });
            let (mut c, av, mut bv) = (self.data(0), self.data(1), self.data(2));
            let mut c_port = Some(&mut c[..]);
            let mut b_slot = Some(if b_read_only {
                Slot::In(&bv[..])
            } else {
                Slot::Out(&mut bv[..])
            });
            let free = prog
                .slots
                .free_fbufs
                .names()
                .iter()
                .map(|name| match name.as_str() {
                    "C" => Slot::Out(c_port.take().expect("one output slot")),
                    "A" => Slot::In(&av[..]),
                    _ => b_slot.take().expect("one `B` slot"),
                });
            let mut fbufs = Bufs::new(&prog, free);
            let mut io = NestIo::new(&mut fbufs, nest, || None);
            if kernel {
                let mut panels = PanelCache::default();
                let strides = [out, a, b].map(|x| [x.inner, x.outer]);
                let kernel = select_kernel(nest.class, &strides, true)?;
                let (n, axes) = (self.n, [out, a, b]);
                if !run_kernel(&prog, nest, kernel, n, axes, &mut io, &mut panels) {
                    return None;
                }
            } else {
                let mut scratch = [[0f32; MAP_CHUNK]; MAX_MAP_TAPE];
                let axes = [out, a, b];
                let uniform = uniform_temps(nest, &axes[1..]);
                let n = self.n;
                sweep_nest(&prog, nest, n, &axes, &uniform, &mut io, &mut scratch);
            }
            drop(io);
            drop(fbufs);
            Some(c)
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Runs `stmt` under `math` through the borrowed entry point with the
    /// bindings `setup` gives the interpreter: `C` written, every other
    /// float buffer read-only iff `read_only`. Returns the statistics,
    /// `C`, and the panels packed on the way.
    fn run_borrowed(
        stmt: &Stmt,
        setup: impl Fn(&mut Machine),
        read_only: bool,
        math: MathMode,
    ) -> (InterpStats, Vec<f32>, u64) {
        let mut m = Machine::new();
        setup(&mut m);
        let mut prog = compile(stmt);
        prog.set_math_mode(math);
        let mut shared = Arc::new(prog).shared();
        shared.bind_env(&m.env);
        let mut owned: Vec<(String, Vec<f32>)> = (m.fbuffers())
            .map(|(name, buf)| (name.to_string(), buf.to_vec()))
            .collect();
        let packed = microkernel::panels_packed();
        let stats = shared.run_borrowed(
            (owned.iter_mut())
                .map(|(name, buf)| {
                    let buf = if read_only && name != "C" {
                        BoundBuf::In(&buf[..])
                    } else {
                        BoundBuf::Out(&mut buf[..])
                    };
                    (name.as_str(), buf)
                })
                .collect(),
        );
        let packed = microkernel::panels_packed() - packed;
        let c = owned.into_iter().find(|(name, _)| name == "C").unwrap().1;
        (stats, c, packed)
    }

    /// The score stage's nest over rows `r` with per-row tables:
    /// `C[c0[r] + o] += A[a0[r] + i] · B[b0[r] + o·ld + i]`, `o < no[r]`,
    /// `i < ni`.
    fn score_rows(ld: i64) -> Stmt {
        let r = || Expr::var("r");
        let store = Stmt::Store {
            buffer: "C".into(),
            index: Expr::load("c0", r()) + Expr::var("o"),
            value: FExpr::load("A", Expr::load("a0", r()) + Expr::var("i"))
                * FExpr::load(
                    "B",
                    Expr::load("b0", r()) + Expr::var("o") * ld + Expr::var("i"),
                ),
            kind: StoreKind::AddAssign,
        };
        let keys = Stmt::loop_("i", Expr::var("ni"), store);
        let row = Stmt::loop_("o", Expr::load("no", r()), keys);
        Stmt::loop_("r", Expr::var("rows"), row)
    }

    /// Runs [`score_rows`] over rows of `(b0, no)` with `ni`-long query
    /// and key rows, through the interpreter, the owned machine and the
    /// borrowed entry point (inputs read-only iff `read_only`) in both
    /// math modes; asserts all agree bit for bit and in statistics — the
    /// panel row reassociates nothing, packed or not — and returns the
    /// panels the borrowed run packed.
    fn run_score_rows(rows: &[(i64, i64)], ni: i64, read_only: bool) -> u64 {
        let ld = 2 * ni + 3;
        let stmt = score_rows(ld);
        assert!(compile(&stmt).to_string().contains("fmulacc2"), "fuses");
        let n = rows.len() as i64;
        let c0: Vec<i64> = (rows.iter())
            .scan(0, |at, &(_, no)| Some(std::mem::replace(at, *at + no)))
            .collect();
        let last = rows.iter().map(|&(b0, no)| b0 + no * ld).max().unwrap_or(0);
        let data = |len: i64, k: i64| -> Vec<f32> {
            (0..len)
                .map(|x| ((x * 7 + 3 * k) % 29) as f32 * 0.375 - 5.0)
                .collect()
        };
        let setup = |m: &mut Machine| {
            m.env.bind("rows", n);
            m.env.bind("ni", ni);
            m.env
                .set_buffer("a0", (0..n).map(|r| r * ni).collect::<Vec<_>>());
            m.env
                .set_buffer("b0", rows.iter().map(|r| r.0).collect::<Vec<_>>());
            m.env
                .set_buffer("no", rows.iter().map(|r| r.1).collect::<Vec<_>>());
            m.env.set_buffer("c0", c0.clone());
            m.set_fbuffer("A", data(n * ni, 1));
            m.set_fbuffer("B", data(last + ni, 2));
            m.set_fbuffer("C", data(rows.iter().map(|r| r.1).sum(), 3));
        };
        let (stats, outs) = differential(&stmt, setup, &["C"]);
        let [strict, fast] = [MathMode::Strict, MathMode::Fast].map(|math| {
            let (b_stats, c, packed) = run_borrowed(&stmt, setup, read_only, math);
            assert_eq!(
                (b_stats, bits(&c)),
                (stats, bits(&outs[0])),
                "{math:?} {rows:?}"
            );
            packed
        });
        assert_eq!(strict, fast);
        strict
    }

    /// Rows that read one key panel reuse its packed copy — repeated,
    /// growing row by row (causal attention: the extend path) and
    /// shrinking — while a different base repacks, also when two panels
    /// alternate; a row without keys runs no nest. Every order matches
    /// the interpreter bit for bit.
    #[test]
    fn panels_are_reused_across_rows_that_share_them() {
        let causal: Vec<(i64, i64)> = (1..=20).map(|no| (5, no)).collect();
        let cases: [(&[(i64, i64)], u64); 5] = [
            (&[(5, 9), (5, 9), (5, 9)], 1),
            (&causal, 1),
            (&[(5, 20), (5, 9), (5, 1)], 1),
            (&[(5, 9), (60, 9), (5, 9), (60, 9)], 4),
            (
                &[(0, 5), (0, 12), (0, 3), (60, 0), (60, 7), (60, 2), (0, 7)],
                3,
            ),
        ];
        for ni in [1, 7, 8, 9] {
            for (rows, packs) in cases {
                assert_eq!(run_score_rows(rows, ni, true), packs, "ni={ni} {rows:?}");
            }
        }
    }

    /// A nest whose `b` may change during the execution — bound written,
    /// or `Alloc` scratch — is never packed, even where its strides
    /// select the panel row: it runs per-row dots to the same bits. The
    /// same nest over a read-only `b` packs.
    #[test]
    fn a_written_or_scratch_b_is_never_packed() {
        let rows = [(0, 9), (0, 9), (40, 3)];
        assert_eq!(run_score_rows(&rows, 8, false), 0, "written `B`");
        assert_eq!(run_score_rows(&rows, 8, true), 2, "read-only `B`");

        // `K` is scratch, filled from `B`, then read as the key panel.
        let (no, ni) = (13i64, 8i64);
        let nest = |keys: &str| {
            let store = Stmt::Store {
                buffer: "C".into(),
                index: Expr::var("o"),
                value: FExpr::load("A", Expr::var("i"))
                    * FExpr::load(keys, Expr::var("o") * ni + Expr::var("i")),
                kind: StoreKind::AddAssign,
            };
            Stmt::loop_("o", Expr::int(no), Stmt::loop_("i", Expr::int(ni), store))
        };
        let copy = Stmt::loop_(
            "t",
            Expr::int(no * ni),
            Stmt::store("K", Expr::var("t"), FExpr::load("B", Expr::var("t"))),
        );
        let scratch = Stmt::Alloc {
            buffer: "K".into(),
            size: Expr::int(no * ni),
            body: Box::new(copy.then(nest("K"))),
        };
        let setup = |m: &mut Machine| {
            m.set_fbuffer("A", (0..ni).map(|x| x as f32 * 0.5 - 1.0).collect());
            m.set_fbuffer("B", (0..no * ni).map(|x| (x % 11) as f32 - 4.0).collect());
            m.set_fbuffer("C", vec![0.25; no as usize]);
        };
        for (stmt, packs) in [(scratch, 0), (nest("B"), 1)] {
            assert!(compile(&stmt).to_string().contains("fmulacc2"), "fuses");
            let (stats, outs) = differential(&stmt, setup, &["C"]);
            let (b_stats, c, packed) = run_borrowed(&stmt, setup, true, MathMode::Strict);
            assert_eq!((b_stats, bits(&c)), (stats, bits(&outs[0])));
            assert_eq!(packed, packs, "{stmt:?}");
        }
    }

    /// The kernel table, tested as a table: every row, on the ragged
    /// extent grid, with `b` bound read-only and written, against the
    /// chunked sweep and the interpreter. A `packs_b` row packs once per
    /// nest exactly when `b` is read-only.
    #[test]
    fn every_kernel_row_matches_the_sweep() {
        let stmt = strided_mul_acc(Some(("o", Expr::var("no"))));
        assert!(compile(&stmt).to_string().contains("fmulacc2"), "fuses");
        for (ri, row) in NEST_KERNELS.iter().enumerate() {
            assert_eq!(
                row.class,
                NestClass::MulAcc,
                "this test builds mul-acc nests"
            );
            for n_o in [1i64, 2, 17, 37] {
                for n_i in [0i64, 1, 7, 8, 9, 64, 65] {
                    for (bases, free) in [([0i64, 0, 0], 0), ([3, 1, 2], n_i + 1)] {
                        // The row's pattern, its don't-cares set to `free`.
                        let strides = row.strides.map(|s| s.map(|w| w.unwrap_or(free)));
                        let at = format!("row {ri} n={n_o}x{n_i} bases {bases:?} free {free}");
                        let shape = Shape {
                            n: [n_o, n_i],
                            axes: [0, 1, 2].map(|k| [bases[k], strides[k][0], strides[k][1]]),
                        };
                        let selected = select_kernel(row.class, &strides, true).expect("matches");
                        if !std::ptr::eq(selected, row) {
                            // All-zero don't-cares may fall to an earlier,
                            // narrower row (a dot whose `a` row does not
                            // move is the panel row's); that row is tested
                            // on its own turn.
                            let earlier =
                                NEST_KERNELS[..ri].iter().any(|k| std::ptr::eq(k, selected));
                            assert!(free == 0 && earlier, "{at}");
                            continue;
                        }

                        // Whole program: VM (kernel path) == interpreter,
                        // bit for bit and in statistics.
                        let (stats, outs) = differential(&stmt, |m| shape.bind(m, false), &["C"]);
                        let iters = (n_o * n_i) as u64;
                        assert_eq!((stats.stores, stats.flops), (iters, 2 * iters), "{at}");
                        // The inner extent's table load, once per outer
                        // iteration — also when the inner loop is empty.
                        assert_eq!(stats.aux_loads, n_o as u64, "{at}");
                        for ro in [true, false] {
                            let at = format!("{at} read-only b {ro}");
                            // The same through the borrowed entry point,
                            // which can bind `b` read-only.
                            let (b_stats, b_out, packed) =
                                run_borrowed(&stmt, |m| shape.bind(m, false), ro, MathMode::Strict);
                            assert_eq!((b_stats, bits(&b_out)), (stats, bits(&outs[0])), "{at}");
                            assert_eq!(packed, u64::from(row.packs_b && ro && n_i > 0), "{at}");
                            if n_i == 0 {
                                continue;
                            }

                            // The record, run both ways on the same buffers.
                            let kernel = shape.execute(&stmt, MathMode::Strict, true, ro);
                            let sweep = shape.execute(&stmt, MathMode::Strict, false, ro).unwrap();
                            assert_eq!(kernel.as_deref().map(bits), Some(bits(&sweep)), "{at}");
                            assert_eq!(bits(&sweep), bits(&outs[0]), "{at}");
                            let fast = shape
                                .execute(&stmt, MathMode::Fast, true, ro)
                                .expect("selected");
                            let fast_sweep =
                                shape.execute(&stmt, MathMode::Fast, false, ro).unwrap();
                            for fast in [fast, fast_sweep] {
                                for (strict, fast) in sweep.iter().zip(&fast) {
                                    assert!(
                                        (fast - strict).abs() <= 1e-3 * (1.0 + strict.abs()),
                                        "{at}: fast {fast} vs strict {strict}"
                                    );
                                }
                            }
                        }
                    }
                }
            }

            // One off in any pinned stride: the row is not selected, and
            // whatever runs instead still equals the interpreter.
            for (k, axis) in [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)] {
                let Some(pinned) = row.strides[k][axis] else {
                    continue;
                };
                let mut strides = row.strides.map(|s| s.map(|w| w.unwrap_or(9)));
                strides[k][axis] = pinned + 1;
                let selected = select_kernel(row.class, &strides, true);
                assert!(
                    !selected.is_some_and(|k| std::ptr::eq(k, row)),
                    "row {ri} selected by {strides:?}"
                );
                let shape = Shape {
                    n: [3, 9],
                    axes: [0, 1, 2].map(|k| [k as i64, strides[k][0], strides[k][1]]),
                };
                differential(&stmt, |m| shape.bind(m, false), &["C"]);
            }
        }
    }

    /// A tile whose rows interleave with another tile's, certified one
    /// region per row: no region covers the tile's hull, so each row's
    /// stores are checked as they land — the hull would take the other
    /// tile's rows, outside this tile's regions. The result equals the
    /// interpreter's bit for bit and in statistics, on one worker and on
    /// two.
    #[test]
    fn rows_certified_region_by_region_are_claimed_row_by_row() {
        let body = outlined_doubling_body();
        let (row, lens) = (vec![0i64, 4, 2, 6], vec![2i64; 4]);
        let a: Vec<f32> = (0..8).map(|x| x as f32 * 0.75 - 2.0).collect();
        let mut m = Machine::new();
        m.env.set_buffer("row", row.clone());
        m.env.set_buffer("lens", lens.clone());
        m.set_fbuffer("A", a.clone());
        m.set_fbuffer("B", vec![0.0; 8]);
        m.run(&Stmt::loop_kind(
            "b",
            Expr::int(4),
            ForKind::GpuBlockX,
            body.clone(),
        ));
        let want = (bits(m.fbuffer("B").unwrap()), m.stats);

        let program = compile_tile(&body, "b");
        assert_eq!(program.fused_row_vars(), ["b"], "{program}");
        let mut shared = Arc::new(program).shared();
        shared.set_ibuffer("row", row.clone());
        shared.set_ibuffer("lens", lens);
        // Tile 0 stores [0, 2) and [4, 6), tile 1 [2, 4) and [6, 8).
        let spans = (0..4).map(|b| (b / 2, SInt::range(row[b], row[b] + 1)));
        let cert = StoreCert::tiled(0, 4, 2, spans).expect("the rows are disjoint");
        for threads in [1, 2] {
            let mut out = vec![0.0f32; 8];
            let pool = CpuPool::new(threads);
            let batches = [0..1, 1..2];
            let stats = shared.run_blocks_proven(
                &pool,
                "B",
                &mut out,
                &[("A", &a)],
                &[2, 0],
                &batches,
                &cert,
            );
            assert_eq!((bits(&out), stats), want, "{threads} threads");
        }
    }

    /// A one-deep multiply-accumulate is the two-deep nest at one outer
    /// trip: both forms agree with the interpreter, hence each other.
    #[test]
    fn one_deep_mul_acc_equals_its_one_trip_wrapping() {
        let bare = strided_mul_acc(None);
        let wrapped = strided_mul_acc(Some(("o", Expr::int(1))));
        assert!(compile(&bare).to_string().contains("fmulacc  "));
        assert!(compile(&wrapped).to_string().contains("fmulacc2 "));
        // The two kernel shapes, then strides no row matches.
        for inner in [[1i64, 0, 1], [0, 1, 1], [2, 3, 1], [0, 2, 1]] {
            for n_i in [0i64, 1, 7, 8, 9, 64, 65] {
                let shape = Shape {
                    n: [1, n_i],
                    axes: [0, 1, 2].map(|k| [k as i64 + 1, inner[k], 0]),
                };
                let (bare_stats, bare_out) = differential(&bare, |m| shape.bind(m, true), &["C"]);
                let (stats, out) = differential(&wrapped, |m| shape.bind(m, false), &["C"]);
                assert_eq!(bits(&bare_out[0]), bits(&out[0]), "{inner:?} n={n_i}");
                assert_eq!(
                    (bare_stats.stores, bare_stats.flops, bare_stats.aux_loads),
                    (stats.stores, stats.flops, stats.aux_loads),
                    "{inner:?} n={n_i}"
                );
            }
        }
    }
}
