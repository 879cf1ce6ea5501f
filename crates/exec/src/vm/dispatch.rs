//! The dispatch loop: one instruction interpreter shared by the serial
//! machine and the parallel workers, monomorphised over the output
//! port of the float-buffer view ([`super::bufs`]).

use std::sync::Arc;

use cora_ir::{FBinOp, FUnaryOp, StoreKind};

use super::bufs::{Bufs, OutPort};
use super::isa::{
    fbuf_name, FusedMap, FusedMulAcc2, Instr, MapOp, VmProgram, MAP_CHUNK, MAX_MAP_SITES,
    MAX_MAP_TAPE,
};
use crate::interp::InterpStats;
use crate::microkernel::{self, AxpyKind, MathMode, PanelKind, PanelShape};

/// Private per-execution state of one dispatch: the variable file (a
/// copy of the binding table's, so loop variables never touch shared
/// state), the register files, and the chunk scratch of
/// [`run_fused_map`] — kept here so its ~6 KiB zero-fill happens once
/// per execution context instead of once per fused-map instruction
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
fn run_fused_map<P: OutPort>(
    prog: &VmProgram,
    fbufs: &mut Bufs<'_, P>,
    op: &FusedMap,
    n: i64,
    o0: i64,
    so: i64,
    iregs: &[i64],
    scratch: &mut [[f32; MAP_CHUNK]; MAX_MAP_TAPE],
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

/// Executes one [`FusedMulAcc2`]: the full `n_o × n_i` nest of
/// `out[o(t,u)] += a[a(t,u)] · b[b(t,u)]` with 2-D affine indices
/// (`[base, inner stride, outer stride]` triples), in serial nest order.
/// The two ubiquitous stride shapes run as native panels; anything else
/// falls back to one fused inner loop per outer iteration.
fn run_fused_mul_acc2<P: OutPort>(
    prog: &VmProgram,
    fbufs: &mut Bufs<'_, P>,
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
fn run_fused_mul_acc<P: OutPort>(
    prog: &VmProgram,
    fbufs: &mut Bufs<'_, P>,
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
