//! Bytecode validation: the regression net under the compiler's
//! CSE/DCE/register-renaming passes, run on every
//! `CompiledProgram::compile`.

use super::isa::{
    Coef, FusedNest, Instr, MapOp, VmProgram, MAX_MAP_SITES, MAX_MAP_TAPE, MAX_ROW_TABLES,
};
use crate::microkernel::NestClass;
use cora_ir::StoreKind;

impl VmProgram {
    /// Validates the compiled stream against the program's own censuses
    /// and register files.
    ///
    /// Checks, in order: every jump target lands inside the program (or
    /// one past the end — the halt address); every variable / integer
    /// buffer / float buffer slot is within its census; every register
    /// index is within the allocated
    /// file; fused-nest metadata is self-consistent (no site loads the
    /// output buffer, a one-deep nest has no outer strides and a two-deep
    /// one is a multiply-accumulate, only a nest with a row level has
    /// forms that vary with the row, each over at most
    /// `MAX_ROW_TABLES` tables, the tape is non-empty, within the
    /// executor's caps and in SSA order over sites of the right kind,
    /// the static flop count and
    /// the nest class equal what the tape says); `FAlloc` only targets
    /// scratch slots; and — via
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
                Instr::EnterBlock { slot } => ck_var(*slot)?,
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
                Instr::FNest(m) => {
                    let bad = |what: String| Err(format!("bytecode pc {pc}: fused nest {what}"));
                    ck_fbuf(m.out)?;
                    let indices = std::iter::once(&m.out_idx).chain(m.sites.iter().map(|s| &s.idx));
                    if m.n_outer.is_none() && indices.clone().any(|i| i.outer != Coef::Lit(0)) {
                        return bad("has outer strides without an outer trip count".into());
                    }
                    let forms = (indices.map(|i| &i.base))
                        .chain([&m.n_inner])
                        .chain(m.n_outer.as_ref());
                    for form in forms {
                        let varies = form.step != Coef::Lit(0) || !form.tables.is_empty();
                        if varies && m.rows.is_none() {
                            return bad("has row terms without a row level".into());
                        }
                        if form.tables.len() > MAX_ROW_TABLES {
                            return bad(format!(
                                "has a row form over {} tables (at most {MAX_ROW_TABLES})",
                                form.tables.len()
                            ));
                        }
                        for (buf, _) in form.tables.iter() {
                            ck_ibuf(*buf)?;
                        }
                    }
                    if let Some(rows) = &m.rows {
                        ck_var(rows.slot)?;
                    }
                    let mut regs = (**m).clone();
                    regs.for_each_reg_mut(&mut |r| e.ui.push(*r));
                    for site in m.sites.iter() {
                        if site.buf == m.out {
                            return bad("loads its own output buffer".into());
                        }
                        if site.buf != u32::MAX {
                            ck_fbuf(site.buf)?;
                        }
                    }
                    if m.tape.is_empty()
                        || m.tape.len() > MAX_MAP_TAPE
                        || m.sites.len() > MAX_MAP_SITES
                    {
                        return bad(format!(
                            "has {} tape ops over {} sites (1..={MAX_MAP_TAPE} over at most \
                             {MAX_MAP_SITES} fit the executor's scratch)",
                            m.tape.len(),
                            m.sites.len()
                        ));
                    }
                    let mut flops = u64::from(!matches!(m.kind, StoreKind::Assign));
                    // A site of the kind an op reads: a buffer for a
                    // load, a bare index for a cast.
                    let site_is = |site: u16, index_only: bool| {
                        let found = m.sites.get(site as usize);
                        found.is_some_and(|s| (s.buf == u32::MAX) == index_only)
                    };
                    for (ti, op) in m.tape.iter().enumerate() {
                        let in_order = |t: u16| (t as usize) < ti;
                        let (ok, op_flops) = match op {
                            MapOp::Const { .. } => (true, 0),
                            MapOp::Load { site } => (site_is(*site, false), 0),
                            MapOp::Cast { site } => (site_is(*site, true), 0),
                            MapOp::Bin { a, b, .. } => (in_order(*a) && in_order(*b), 1),
                            MapOp::Un { a, .. } => (in_order(*a), 1),
                        };
                        if !ok {
                            return bad(format!(
                                "tape op {ti} ({op:?}) reads a temp that is not yet computed, \
                                 or a site that is missing or of the other kind"
                            ));
                        }
                        flops += op_flops;
                    }
                    if flops != m.flops {
                        return bad(format!(
                            "static flop metadata {} disagrees with its tape ({flops} per \
                             element)",
                            m.flops
                        ));
                    }
                    if m.class != FusedNest::classify(&m.tape, m.kind) {
                        return bad(format!("is classed {:?}, which its tape is not", m.class));
                    }
                    if m.n_outer.is_some() && m.class != NestClass::MulAcc {
                        return bad(
                            "has an outer trip count but is not a multiply-accumulate".into()
                        );
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

#[cfg(test)]
mod tests {
    use cora_ir::{Expr, FExpr, Stmt};

    use super::super::compile;
    use super::super::isa::RowAffine;
    use super::super::isa::VmProgram;
    use super::super::testutil::{gemm_nest, outlined_doubling_body};
    use super::{Coef, FusedNest, Instr, MapOp, MAX_MAP_SITES, MAX_MAP_TAPE, MAX_ROW_TABLES};
    use crate::microkernel::NestClass;

    /// A row-level nest: `C[c0[r] + i] = A[a0[r] + i]` over `i < n[r]`.
    fn row_nest() -> Stmt {
        let r = || Expr::var("r");
        let store = Stmt::store(
            "C",
            Expr::load("c0", r()) + Expr::var("i"),
            FExpr::load("A", Expr::load("a0", r()) + Expr::var("i")),
        );
        let row = Stmt::loop_("i", Expr::load("n", r()), store);
        Stmt::loop_("r", Expr::var("rows"), row)
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

    /// The program's (single) fused nest.
    fn nest_mut(p: &mut VmProgram) -> &mut FusedNest {
        p.code
            .iter_mut()
            .find_map(|i| match i {
                Instr::FNest(nest) => Some(&mut **nest),
                _ => None,
            })
            .expect("the program holds a fused nest")
    }

    #[test]
    fn validate_rejects_each_inconsistent_fused_nest() {
        // A one-deep map (`B[..] = A[..] * 2`) and a two-deep mul-acc.
        let map = compile(&outlined_doubling_body());
        let gemm = compile(&gemm_nest(2, 3, 4, true));
        for p in [&map, &gemm] {
            p.validate().expect("baselines validate");
        }
        let rejects = |base: &VmProgram, corrupt: &dyn Fn(&mut FusedNest), msg: &str| {
            let mut p = base.clone();
            corrupt(nest_mut(&mut p));
            let err = p.validate().expect_err(msg);
            assert!(err.contains(msg), "expected `{msg}` in: {err}");
        };

        // A site that loads the output buffer (one rule for every tape).
        rejects(&map, &|n| n.sites[0].buf = n.out, "loads its own output");
        rejects(&gemm, &|n| n.sites[1].buf = n.out, "loads its own output");

        // Outer strides without an outer trip count; an outer trip
        // count around a tape that is not a multiply-accumulate.
        rejects(
            &map,
            &|n| n.sites[0].idx.outer = Coef::Lit(3),
            "outer strides without an outer trip count",
        );
        rejects(&gemm, &|n| n.n_outer = None, "outer strides without");
        rejects(
            &map,
            &|n| n.n_outer = Some(n.n_inner.clone()),
            "not a multiply-accumulate",
        );

        // Row terms without a row level, and a row form over too many
        // tables.
        rejects(&map, &|n| n.out_idx.base.step = Coef::Lit(1), "row terms");
        let row = compile(&row_nest());
        row.validate().expect("a row nest validates");
        rejects(
            &row,
            &|n| {
                let t = n.n_inner.tables[0];
                n.n_inner.tables = vec![t; MAX_ROW_TABLES + 1].into();
            },
            "tables (at most",
        );

        // Tape shape: empty, beyond the executor's caps, out of SSA
        // order, through a missing site or one of the wrong kind.
        rejects(&map, &|n| n.tape = Box::new([]), "0 tape ops");
        rejects(
            &map,
            &|n| n.tape = vec![MapOp::Const { v: 0.0 }; MAX_MAP_TAPE + 1].into(),
            "tape ops",
        );
        rejects(
            &map,
            &|n| n.sites = vec![n.sites[0].clone(); MAX_MAP_SITES + 1].into(),
            "tape ops",
        );
        rejects(&gemm, &|n| n.tape.swap(1, 2), "tape op 1");
        rejects(&gemm, &|n| n.tape[1] = MapOp::Load { site: 2 }, "tape op 1");
        rejects(&gemm, &|n| n.tape[1] = MapOp::Cast { site: 1 }, "tape op 1");
        rejects(&map, &|n| n.sites[0].buf = u32::MAX, "tape op 0");

        // Static metadata the executor trusts: the flop charge and the
        // kernel-table class.
        rejects(&map, &|n| n.flops += 1, "static flop metadata");
        rejects(&gemm, &|n| n.flops -= 1, "static flop metadata");
        rejects(&gemm, &|n| n.class = NestClass::Map, "is classed");
        rejects(&map, &|n| n.class = NestClass::MulAcc, "is classed");

        // A base, stride, trip-count or row-bound register nothing wrote.
        for field in 0..5 {
            let mut p = if field == 4 {
                row.clone()
            } else {
                gemm.clone()
            };
            let fresh = u16::try_from(p.n_iregs).unwrap();
            p.n_iregs += 1;
            let nest = nest_mut(&mut p);
            match field {
                0 => nest.out_idx.base = RowAffine::invariant(Coef::Reg(fresh)),
                1 => nest.sites[0].idx.inner = Coef::Reg(fresh),
                2 => nest.sites[1].idx.outer = Coef::Reg(fresh),
                3 => nest.n_outer = Some(RowAffine::invariant(Coef::Reg(fresh))),
                _ => nest.rows.as_mut().expect("a row level").n = fresh,
            }
            assert!(p.validate().unwrap_err().contains("read before any write"));
        }
    }
}
