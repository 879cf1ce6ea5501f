//! The bytecode compiler: lowered [`Stmt`] → [`VmProgram`], including
//! the loop-fusion pattern matchers for the three superinstructions.

use cora_ir::slots::StmtSlots;
use cora_ir::visit::{count_cond_loads, count_loads, mentions, Node};
use cora_ir::{
    CmpOp, Cond, CondKind, Expr, ExprKind, FBinOp, FExpr, FExprKind, IBinOp, Stmt, StoreKind,
};

use super::isa::{
    FusedMap, FusedMulAcc, FusedMulAcc2, Instr, MapOp, MapSite, VmProgram, MAX_MAP_SITES,
    MAX_MAP_TAPE,
};
use super::opt::local_cse;
use crate::microkernel::MathMode;

/// Compiles a lowered statement to bytecode.
///
/// The result is immutable and reusable: create a fresh
/// [`VmMachine`](super::VmMachine) per execution (or reuse one across
/// runs of the same bindings).
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
        if let ExprKind::Bin(op, a, b) = e.kind() {
            let [left, right] = op.identities();
            if left.is_some() && a.as_int() == left {
                return self.expr(b);
            }
            if right.is_some() && b.as_int() == right {
                return self.expr(a);
            }
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
            ExprKind::Bin(op, a, b) => self.ibin(*op, a, b),
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
            CondKind::Cmp(op, a, b) => self.cmp(*op, a, b, on_true, on_false),
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
            FExprKind::Bin(op, a, b) => self.fbin(*op, a, b),
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
        if mentions(Node::Expr(imin), ovar) || mentions(Node::Expr(iext), ovar) {
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
            FExprKind::Bin(op, a, b) => {
                let ta = self.map_tape(a, var, mb)?;
                let tb = self.map_tape(b, var, mb)?;
                mb.flops += 1;
                mb.tape.push(MapOp::Bin {
                    op: *op,
                    a: ta,
                    b: tb,
                });
                mb.tape.len() - 1
            }
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
    let FExprKind::Bin(FBinOp::Mul, a, b) = value.kind() else {
        return None;
    };
    let (FExprKind::Load(abuf, aidx), FExprKind::Load(bbuf, bidx)) = (a.kind(), b.kind()) else {
        return None;
    };
    Some((buffer, index, abuf, aidx, bbuf, bidx))
}

/// True when `e` is affine in `var` *and* no memory access, select or
/// non-linear operator involves `var`: `var` may
/// appear only under `+`/`-`, or under `×` with a `var`-free co-factor.
/// Such an expression is fully determined by its values at two
/// consecutive `var` points, and probing it at any in-range point
/// touches exactly the memory an ordinary evaluation would.
fn is_affine_in(e: &Expr, var: &str) -> bool {
    is_affine2(e, var, var)
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
    // Operands of anything but `+ − ×` must not involve the variables.
    let var_free = |(i, o): (bool, bool)| (!i && !o).then_some((false, false));
    match e.kind() {
        ExprKind::Int(_) => Some((false, false)),
        ExprKind::Var(n) => Some((n == vi, n == vo)),
        ExprKind::Bin(op, a, b) => {
            let (ai, ao) = affine2_degree(a, vi, vo)?;
            let (bi, bo) = affine2_degree(b, vi, vo)?;
            let either = (ai || bi, ao || bo);
            match op {
                IBinOp::Add | IBinOp::Sub => Some(either),
                // A product of two variable-dependent factors is quadratic
                // or bilinear — its strides are not constant.
                IBinOp::Mul if (ai || ao) && (bi || bo) => None,
                IBinOp::Mul => Some(either),
                IBinOp::FloorDiv | IBinOp::FloorMod | IBinOp::Min | IBinOp::Max => var_free(either),
            }
        }
        ExprKind::Select(c, a, b) => {
            if mentions(Node::Cond(c), vi) || mentions(Node::Cond(c), vo) {
                return None;
            }
            let (ai, ao) = affine2_degree(a, vi, vo)?;
            let (bi, bo) = affine2_degree(b, vi, vo)?;
            var_free((ai || bi, ao || bo))
        }
        // A table lookup indexed by a loop variable is not affine (and
        // probing it out of loop order would be unsound).
        ExprKind::Load(_, idx) => var_free(affine2_degree(idx, vi, vo)?),
    }
}

#[cfg(test)]
mod tests {
    use cora_ir::{Expr, FExpr, Stmt, StoreKind};

    use super::super::testutil::{differential, gemm_nest};
    use super::compile;

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
}
