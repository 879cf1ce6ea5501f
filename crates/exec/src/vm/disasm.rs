//! The disassembler: [`VmProgram`]'s `Display` impl.

use std::fmt;

use cora_ir::StoreKind;

use super::isa::{fbuf_name, Coef, Instr, MapOp, NestIndex, RowAffine, VmProgram};
use crate::microkernel::NestClass;

/// Disassembly: one instruction per line (`pc  mnemonic operands`), with
/// every variable and buffer slot resolved back to its source name.
/// Alpha-renamed binding slots print as `name@slot` so shadowed loops
/// stay distinguishable. Golden tests diff this text to catch bytecode
/// and outlining regressions.
impl fmt::Display for VmProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let store = |kind: StoreKind| match kind {
            StoreKind::Assign => "assign",
            StoreKind::AddAssign => "add",
            StoreKind::MaxAssign => "max",
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
                    format!("{:<8} r{dst}, r{a}, r{b}", op.mnemonic())
                }
                Instr::IBinC { op, dst, a, c } => {
                    format!("{:<8} r{dst}, r{a}, #{c}", format!("{}.c", op.mnemonic()))
                }
                Instr::IBinV { op, dst, a, vslot } => {
                    format!(
                        "{:<8} r{dst}, r{a}, {}",
                        format!("{}.v", op.mnemonic()),
                        var(*vslot)
                    )
                }
                Instr::ILoad { dst, buf, idx } => {
                    format!("iload    r{dst}, {}[r{idx}]", ibuf(*buf))
                }
                Instr::ILoadV { dst, buf, vslot } => {
                    format!("iload.v  r{dst}, {}[{}]", ibuf(*buf), var(*vslot))
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
                } => format!(
                    "{:<8} r{a}, r{b} -> {on_true}, {on_false}",
                    format!("br.{}", op.mnemonic())
                ),
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
                    format!("{:<8} f{dst}, f{a}, f{b}", op.mnemonic())
                }
                Instr::FBinC { op, dst, a, c } => {
                    format!("{:<8} f{dst}, f{a}, #{c:?}", format!("{}.c", op.mnemonic()))
                }
                Instr::FBinCL { op, dst, c, b } => {
                    format!(
                        "{:<8} f{dst}, #{c:?}, f{b}",
                        format!("{}.cl", op.mnemonic())
                    )
                }
                Instr::FUn { op, dst, a } => {
                    format!("{:<8} f{dst}, f{a}", format!("f.{}", op.mnemonic()))
                }
                Instr::FStore {
                    buf,
                    idx,
                    val,
                    kind,
                    aux,
                } => {
                    let k = store(*kind);
                    format!("fstore   {}[r{idx}], f{val}, {k}, aux={aux}", fbuf(*buf))
                }
                Instr::FAlloc { slot, size, aux } => {
                    format!("falloc   {}, r{size}, aux={aux}", fbuf(*slot))
                }
                Instr::EnterBlock { slot } => format!("block    {}", var(*slot)),
                // One record, three mnemonics: a multiply-accumulate
                // nest prints its two operands inline (`fmulacc`, or
                // `fmulacc2` when two-deep), any other nest its tape and
                // site list (`fmap`). An index prints as `base:inner` or
                // `base:inner:outer`; a value that varies with the row
                // as its terms over the row variable, and the row level
                // itself as a `rows=` suffix.
                Instr::FNest(op) => {
                    let row_var = op.rows.as_ref().map(|r| var(r.slot)).unwrap_or_default();
                    let coef = |c: Coef| match c {
                        Coef::Lit(v) => v.to_string(),
                        Coef::Reg(r) => format!("r{r}"),
                    };
                    let form = |a: &RowAffine| {
                        let mut terms = Vec::new();
                        if a.c != Coef::Lit(0) {
                            terms.push(coef(a.c));
                        }
                        match a.step {
                            Coef::Lit(0) => {}
                            Coef::Lit(1) => terms.push(row_var.clone()),
                            step => terms.push(format!("{}*{row_var}", coef(step))),
                        }
                        for (t, w) in a.tables.iter() {
                            let w = match w {
                                Coef::Lit(1) => String::new(),
                                w => format!("{}*", coef(*w)),
                            };
                            terms.push(format!("{w}{}[{row_var}]", ibuf(*t)));
                        }
                        match terms.is_empty() {
                            true => "0".to_string(),
                            false => terms.join(" + "),
                        }
                    };
                    let index = |p: &NestIndex| match op.n_outer {
                        Some(_) => format!("{}:{}:{}", form(&p.base), coef(p.inner), coef(p.outer)),
                        None => format!("{}:{}", form(&p.base), coef(p.inner)),
                    };
                    let (depth, trips, mut baux) = match &op.n_outer {
                        Some(n_outer) => (
                            "2",
                            format!("{}x{}", form(n_outer), form(&op.n_inner)),
                            format!(", baux={}", op.aux_inner_bounds),
                        ),
                        None => (" ", form(&op.n_inner), String::new()),
                    };
                    if let Some(rows) = &op.rows {
                        let block = if rows.block { " block" } else { "" };
                        baux += &format!(
                            ", rows={row_var} in [r{}, +r{}){block}, raux={}",
                            rows.first, rows.n, rows.aux
                        );
                    }
                    let sites: Vec<String> = op
                        .sites
                        .iter()
                        .map(|s| {
                            if s.buf == u32::MAX {
                                format!("<idx {}>", index(&s.idx))
                            } else {
                                format!("{}[{}]", fbuf(s.buf), index(&s.idx))
                            }
                        })
                        .collect();
                    let out = format!("{}[{}]", fbuf(op.out), index(&op.out_idx));
                    match op.class {
                        NestClass::MulAcc => format!(
                            "fmulacc{depth} {out} += {} * {}, n={trips}, aux={}{baux}",
                            sites[0], sites[1], op.aux
                        ),
                        NestClass::Map => {
                            let tape: Vec<String> = op
                                .tape
                                .iter()
                                .map(|o| match o {
                                    MapOp::Const { v } => format!("#{v:?}"),
                                    MapOp::Load { site } => format!("ld{site}"),
                                    MapOp::Cast { site } => format!("cast{site}"),
                                    MapOp::Bin { op, a, b } => {
                                        format!("{} t{a} t{b}", op.mnemonic())
                                    }
                                    MapOp::Un { op, a } => format!("{} t{a}", op.mnemonic()),
                                })
                                .collect();
                            format!(
                                "fmap     {out} {} ({}), sites=[{}], n={trips}, aux={}, flops={}{baux}",
                                store(op.kind),
                                tape.join("; "),
                                sites.join(", "),
                                op.aux,
                                op.flops
                            )
                        }
                    }
                }
            };
            writeln!(f, "{pc:>4}  {line}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use cora_ir::{Expr, FExpr, Stmt};

    use super::super::compile;

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
