//! The dispatch loop: one instruction interpreter shared by the serial
//! machine and the parallel workers, monomorphised over the output
//! port of the float-buffer view ([`super::bufs`]).

use std::sync::Arc;

use cora_ir::{FBinOp, FUnaryOp, StoreKind};

use super::bufs::{Bufs, OutPort};
use super::isa::{
    fbuf_name, FusedNest, Instr, MapOp, Probe, VmProgram, MAP_CHUNK, MAX_MAP_SITES, MAX_MAP_TAPE,
};
use crate::interp::InterpStats;
use crate::microkernel::{self, KernelArgs, MathMode, NestClass, Operand};

/// Private per-execution state of one dispatch: the variable file (a
/// copy of the binding table's, so loop variables never touch shared
/// state), the register files, and the chunk scratch of
/// [`sweep_nest`] — kept here so its ~6 KiB zero-fill happens once
/// per execution context instead of once per fused instruction
/// (which, in the outlined parallel tier, would mean once per row).
/// Every tape op fully overwrites its `dst[..m]` slice before anything
/// reads it, so stale chunk contents are never observed.
pub(super) struct Regs {
    pub(super) vars: Vec<i64>,
    iregs: Vec<i64>,
    fregs: Vec<f32>,
    map_scratch: [[f32; MAP_CHUNK]; MAX_MAP_TAPE],
}

impl Regs {
    /// Fresh register state for `prog`, starting from the bound
    /// variable file `vars`.
    pub(super) fn new(prog: &VmProgram, vars: &[i64]) -> Regs {
        Regs {
            vars: vars.to_vec(),
            iregs: vec![0; prog.n_iregs],
            fregs: vec![0.0; prog.n_fregs],
            map_scratch: [[0f32; MAP_CHUNK]; MAX_MAP_TAPE],
        }
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
        map_scratch,
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
                let n_o = op.n_outer.map_or(1, |r| iregs[r as usize]);
                debug_assert!(n_o > 0, "zero-trip fused loops are branched around");
                let n_i = iregs[op.n_inner as usize];
                // The serial nest charges the inner loop header's bound
                // loads once per outer iteration, body or not.
                st.aux_loads += (n_o as u64) * op.aux_inner_bounds;
                if n_i > 0 {
                    run_fused_nest(prog, fbufs, op, [n_o, n_i], iregs, map_scratch);
                    let iters = (n_o as u64) * (n_i as u64);
                    st.aux_loads += iters * op.aux;
                    st.flops += iters * op.flops;
                    st.stores += iters;
                }
            }
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
    /// The kernel operand reading `data` along this (non-negative) axis.
    fn operand(self, data: &[f32]) -> Operand<'_> {
        Operand {
            data,
            base: self.base as usize,
            outer: self.outer as usize,
        }
    }
}

/// Executes one [`FusedNest`] of `n = [n_outer, n_inner]` (both positive)
/// iterations: as a native kernel when the microkernel table has a row
/// for its class and runtime strides, as the chunked tape sweep
/// otherwise.
fn run_fused_nest<P: OutPort>(
    prog: &VmProgram,
    fbufs: &mut Bufs<'_, P>,
    op: &FusedNest,
    n: [i64; 2],
    iregs: &[i64],
    scratch: &mut [[f32; MAP_CHUNK]; MAX_MAP_TAPE],
) {
    let axis = |p: &Probe| {
        let base = iregs[p.base as usize];
        Axis {
            base,
            inner: iregs[p.inner as usize] - base,
            outer: p.outer.map_or(0, |r| iregs[r as usize] - base),
        }
    };
    let out = axis(&op.out_idx);
    let site = |s: u16| axis(&op.sites[s as usize].idx);
    let ran = match op.class {
        // A multiply-accumulate's operands are its two sites, in tape
        // order.
        NestClass::MulAcc => {
            let operands = [0, 1].map(|s| (op.sites[s as usize].buf, site(s)));
            run_kernel(prog, fbufs, op, n, out, operands)
        }
        NestClass::Map => false,
    };
    if !ran {
        sweep_nest(prog, fbufs, op, n, out, &site, scratch);
    }
}

/// Runs the whole nest through the microkernel-table row matching its
/// class and runtime strides; `operands` are the buffer slot and axis
/// of each site the kernel loads through. Returns `false`, having
/// stored nothing, when no row matches, a base is negative (the kernels
/// address `usize` ranges) or the buffers have no contiguous views.
fn run_kernel<P: OutPort>(
    prog: &VmProgram,
    fbufs: &mut Bufs<'_, P>,
    op: &FusedNest,
    [n_o, n_i]: [i64; 2],
    out: Axis,
    [(a_buf, a), (b_buf, b)]: [(u32, Axis); 2],
) -> bool {
    let strides = [out, a, b].map(|x| [x.inner, x.outer]);
    let Some(kernel) = microkernel::select_kernel(op.class, &strides, op.n_outer.is_some()) else {
        return false;
    };
    if out.base < 0 || a.base < 0 || b.base < 0 {
        return false;
    }
    // A row pins the output strides to a dense pattern, so the nest's
    // stores cover exactly this run.
    let span = 1 + (n_i - 1) * out.inner + (n_o - 1) * out.outer;
    let (o0, span) = (out.base as usize, span as usize);
    fbufs.run_kernel(op.out, o0, span, [a_buf, b_buf], |run, av, bv| {
        let args = KernelArgs {
            a: a.operand(av),
            b: b.operand(bv),
            n_inner: n_i as usize,
            n_outer: n_o as usize,
            mode: prog.math,
        };
        (kernel.run)(run, &args);
    })
}

/// The generic executor of a [`FusedNest`]: per outer iteration, `n_i`
/// elements of `out[o(t)] (=|+=|max=) tape(t)`, evaluated chunk-wise
/// (each tape op swept across a whole chunk before the next — element
/// independence keeps the per-element float sequence identical) and
/// stored in ascending element order, so reductions accumulate exactly
/// as the unfused loops would.
///
/// Kept out of line: inlined into [`dispatch`], its locals compete with
/// the loop's program counter and register-file pointers for machine
/// registers, and every *scalar* instruction of the per-row prologues
/// slows down (measured at up to 10 % of a `scale`/`attnv` block).
#[inline(never)]
fn sweep_nest<P: OutPort>(
    prog: &VmProgram,
    fbufs: &mut Bufs<'_, P>,
    op: &FusedNest,
    [n_o, n]: [i64; 2],
    out: Axis,
    site: &impl Fn(u16) -> Axis,
    scratch: &mut [[f32; MAP_CHUNK]; MAX_MAP_TAPE],
) {
    let nneg = |i: i64, slot: u32, what: &str| -> usize {
        usize::try_from(i).unwrap_or_else(|_| {
            panic!("negative {what} index {i} into `{}`", fbuf_name(prog, slot))
        })
    };
    // Every site's axis, read once.
    let mut sites = [Axis::default(); MAX_MAP_SITES];
    for (s, x) in (0..).zip(&mut sites[..op.sites.len()]) {
        *x = site(s);
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
            MapOp::Load { site } | MapOp::Cast { site } => sites[*site as usize].inner == 0,
            MapOp::Bin { a, b, .. } => uniform[*a as usize] && uniform[*b as usize],
            MapOp::Un { a, .. } => uniform[*a as usize],
        };
    }
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
                        let s = &op.sites[*site as usize];
                        let (base, stride) = row(*site);
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
                                *d = fbufs
                                    .get(s.buf, nneg(first + e as i64 * stride, s.buf, "load"));
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
    use cora_ir::{Expr, FExpr, Stmt};

    use super::super::bufs::Slot;
    use super::super::compile;
    use super::super::testutil::differential;
    use super::*;
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
        /// the table's kernel or through the chunked sweep — and returns
        /// `C`, or `None` when no kernel ran.
        fn execute(&self, stmt: &Stmt, math: MathMode, kernel: bool) -> Option<Vec<f32>> {
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
            let site = |s: u16| [a, b][s as usize];
            let operands = [(nest.sites[0].buf, a), (nest.sites[1].buf, b)];
            let (mut c, av, bv) = (self.data(0), self.data(1), self.data(2));
            let mut c_port = Some(&mut c[..]);
            let free = prog
                .slots
                .free_fbufs
                .names()
                .iter()
                .map(|name| match name.as_str() {
                    "C" => Slot::Out(c_port.take().expect("one output slot")),
                    "A" => Slot::In(&av[..]),
                    _ => Slot::In(&bv[..]),
                });
            let mut fbufs = Bufs::new(&prog, free);
            if kernel {
                if !run_kernel(&prog, &mut fbufs, nest, self.n, out, operands) {
                    return None;
                }
            } else {
                let mut scratch = [[0f32; MAP_CHUNK]; MAX_MAP_TAPE];
                sweep_nest(&prog, &mut fbufs, nest, self.n, out, &site, &mut scratch);
            }
            drop(fbufs);
            Some(c)
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The kernel table, tested as a table: every row, on the ragged
    /// extent grid, against the chunked sweep and the interpreter.
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
            for n_o in [1i64, 2, 37] {
                for n_i in [0i64, 1, 7, 8, 9, 64, 65] {
                    for (bases, free) in [([0i64, 0, 0], 0), ([3, 1, 2], n_i + 1)] {
                        // The row's pattern, its don't-cares set to `free`.
                        let strides = row.strides.map(|s| s.map(|w| w.unwrap_or(free)));
                        let at = format!("row {ri} n={n_o}x{n_i} bases {bases:?} free {free}");
                        let shape = Shape {
                            n: [n_o, n_i],
                            axes: [0, 1, 2].map(|k| [bases[k], strides[k][0], strides[k][1]]),
                        };
                        let selected = select_kernel(row.class, &strides, true);
                        assert!(selected.is_some_and(|k| std::ptr::eq(k, row)), "{at}");

                        // Whole program: VM (kernel path) == interpreter,
                        // bit for bit and in statistics.
                        let (stats, outs) = differential(&stmt, |m| shape.bind(m, false), &["C"]);
                        let iters = (n_o * n_i) as u64;
                        assert_eq!((stats.stores, stats.flops), (iters, 2 * iters), "{at}");
                        // The inner extent's table load, once per outer
                        // iteration — also when the inner loop is empty.
                        assert_eq!(stats.aux_loads, n_o as u64, "{at}");
                        if n_i == 0 {
                            continue;
                        }

                        // The record, run both ways on the same buffers.
                        let kernel = shape.execute(&stmt, MathMode::Strict, true);
                        let sweep = shape.execute(&stmt, MathMode::Strict, false).unwrap();
                        assert_eq!(kernel.as_deref().map(bits), Some(bits(&sweep)), "{at}");
                        assert_eq!(bits(&sweep), bits(&outs[0]), "{at}");
                        let fast = shape
                            .execute(&stmt, MathMode::Fast, true)
                            .expect("selected");
                        let fast_sweep = shape.execute(&stmt, MathMode::Fast, false).unwrap();
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
