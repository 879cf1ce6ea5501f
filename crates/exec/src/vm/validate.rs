//! Bytecode validation: the regression net under the compiler's
//! CSE/DCE/register-renaming passes, run on every
//! `CompiledProgram::compile`.

use super::isa::{Instr, MapOp, VmProgram};
use cora_ir::StoreKind;

impl VmProgram {
    /// Validates the compiled stream against the program's own censuses
    /// and register files.
    ///
    /// Checks, in order: every jump target lands inside the program (or
    /// one past the end — the halt address); every variable / integer
    /// buffer / float buffer slot is within its census; every register
    /// index is within the allocated
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

#[cfg(test)]
mod tests {
    use cora_ir::{Expr, FExpr, Stmt};

    use super::super::compile;
    use super::super::testutil::outlined_doubling_body;
    use super::Instr;

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
}
