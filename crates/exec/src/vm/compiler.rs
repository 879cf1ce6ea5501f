//! The bytecode compiler: lowered [`Stmt`] → [`VmProgram`], including
//! the loop-fusion pattern matcher for the fused-nest superinstruction.

use cora_ir::slots::StmtSlots;
use cora_ir::visit::{count_cond_loads, count_loads, mentions, Node};
use cora_ir::{
    CmpOp, Cond, CondKind, Expr, ExprKind, FBinOp, FExpr, FExprKind, IBinOp, Stmt, StoreKind,
};

use super::isa::{FusedNest, Instr, MapOp, MapSite, Probe, VmProgram, MAX_MAP_SITES, MAX_MAP_TAPE};
use super::opt::local_cse;
use crate::microkernel::{MathMode, NestClass};

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

/// Builder state for one [`FusedNest`] tape.
#[derive(Default)]
struct MapBuild {
    /// `(buffer slot | u32::MAX for casts, index expr, producing temp)`
    /// per site.
    sites: Vec<(u32, Expr, u16)>,
    tape: Vec<MapOp>,
    /// Static aux loads per element (occurrence-counted).
    aux: u64,
    /// Float (tape) ops per element.
    flops: u64,
}

impl MapBuild {
    /// The temp holding the load (`slot`) or cast (`u32::MAX`) through
    /// `idx`, or `None` when `idx` is not bilinear-free affine in
    /// `(vi, vo)`. A repeated `(slot, index)` site is computed once but
    /// still charges its aux loads per occurrence.
    fn site(&mut self, slot: u32, idx: &Expr, vi: &str, vo: &str) -> Option<u16> {
        if !is_affine2(idx, vi, vo) {
            return None;
        }
        self.aux += count_loads(idx);
        if let Some((.., t)) = self.sites.iter().find(|(s, e, _)| *s == slot && e == idx) {
            return Some(*t);
        }
        let site = u16::try_from(self.sites.len()).ok()?;
        let t = u16::try_from(self.tape.len()).ok()?;
        self.tape.push(match slot {
            u32::MAX => MapOp::Cast { site },
            _ => MapOp::Load { site },
        });
        self.sites.push((slot, idx.clone(), t));
        Some(t)
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

    /// Builds the [`FusedNest`] tape for `e`, returning the producing
    /// temp id, or `None` when `e` contains a select or an index that is
    /// not bilinear-free affine in `(vi, vo)`.
    fn map_tape(&self, e: &FExpr, vi: &str, vo: &str, mb: &mut MapBuild) -> Option<u16> {
        let op = match e.kind() {
            FExprKind::Const(v) => MapOp::Const { v: *v },
            FExprKind::Load(buf, idx) => return mb.site(self.resolve_fbuf(buf), idx, vi, vo),
            FExprKind::Cast(i) => return mb.site(u32::MAX, i, vi, vo),
            FExprKind::Bin(op, a, b) => {
                let a = self.map_tape(a, vi, vo, mb)?;
                let b = self.map_tape(b, vi, vo, mb)?;
                mb.flops += 1;
                MapOp::Bin { op: *op, a, b }
            }
            FExprKind::Unary(op, a) => {
                let a = self.map_tape(a, vi, vo, mb)?;
                mb.flops += 1;
                MapOp::Un { op: *op, a }
            }
            FExprKind::Select(_, _, _) => return None,
        };
        mb.tape.push(op);
        u16::try_from(mb.tape.len() - 1).ok()
    }

    /// Emits the header of a fused loop: its bounds and the variable's
    /// initialisation, returning `(slot, min register, extent register)`.
    /// A nest's outermost loop passes `zero_trip: Some(end)` and also
    /// charges the bounds' static load counts once, exactly like the
    /// unfused loop header, and branches to `end` when the extent is not
    /// positive — *before* any index probe, so an empty loop evaluates
    /// nothing, like the unfused `BrVarGe` would ensure. The hoisted
    /// inner loop of a two-deep nest passes `None`: its loads are
    /// charged per outer iteration at run time
    /// ([`FusedNest::aux_inner_bounds`]) and its extent is tested there.
    fn fused_loop_header(
        &mut self,
        var: &str,
        min: &Expr,
        extent: &Expr,
        zero_trip: Option<u32>,
    ) -> (u32, u16, u16) {
        let r_min = self.expr(min);
        let r_ext = self.expr(extent);
        if zero_trip.is_some() {
            self.emit(Instr::BumpAux {
                n: count_loads(min) + count_loads(extent),
            });
        }
        let slot = self.push_var(var);
        self.emit(Instr::SetVar { slot, src: r_min });
        if let Some(l_end) = zero_trip {
            let rz = self.iregs.alloc();
            self.emit(Instr::IConst { dst: rz, v: 0 });
            let l_run = self.new_label();
            self.emit(Instr::BrCmp {
                op: CmpOp::Le,
                a: r_ext,
                b: rz,
                on_true: l_end,
                on_false: l_run,
            });
            self.place(l_run);
        }
        (slot, r_min, r_ext)
    }

    /// Emits one probe round: steps the loop variable in `step` (if any)
    /// by one, then evaluates the store index and every site index at
    /// the current loop variables, returning their registers in that
    /// order.
    fn probe_round(
        &mut self,
        step: Option<u32>,
        index: &Expr,
        sites: &[(u32, Expr, u16)],
    ) -> Vec<u16> {
        if let Some(slot) = step {
            let bump = self.iregs.alloc();
            self.emit(Instr::IVar { dst: bump, slot });
            self.emit(Instr::IBinC {
                op: IBinOp::Add,
                dst: bump,
                a: bump,
                c: 1,
            });
            self.emit(Instr::SetVar { slot, src: bump });
        }
        std::iter::once(index)
            .chain(sites.iter().map(|(_, e, _)| e))
            .map(|e| self.expr(e))
            .collect()
    }

    /// Attempts to compile `for var in min..min+extent { body }` as one
    /// [`FusedNest`]: `body` is either the store itself (a one-deep
    /// nest) or a loop directly around it (a two-deep nest, taken when
    /// the inner bounds are outer-invariant — and today only around
    /// multiply-accumulate tapes, the GEMM/scores/AttnV shape). The
    /// store's value must be branch-free, every integer index
    /// bilinear-free affine in the peeled loop variables, and the output
    /// buffer must not be loaded (chunked evaluation could observe it
    /// mid-store, and the kernels split borrows around it). Returns
    /// `false` (emitting nothing) when the pattern does not apply; the
    /// caller then compiles the loop normally.
    fn try_fused_nest(&mut self, var: &str, min: &Expr, extent: &Expr, body: &Stmt) -> bool {
        let (outer, (ivar, imin, iext), store) = match body {
            Stmt::For {
                var: ivar,
                min: imin,
                extent: iext,
                body: ibody,
                kind: _,
            } => (
                Some((var, min, extent)),
                (ivar.as_str(), imin, iext),
                &**ibody,
            ),
            _ => (None, (var, min, extent), body),
        };
        let Stmt::Store {
            buffer,
            index,
            value,
            kind,
        } = store
        else {
            return false;
        };
        let ovar = outer.map_or(ivar, |(ovar, ..)| ovar);
        // Inner bounds are hoisted out of the outer loop, so they must
        // not depend on it.
        if outer.is_some()
            && (ovar == ivar
                || mentions(Node::Expr(imin), ovar)
                || mentions(Node::Expr(iext), ovar))
        {
            return false;
        }
        if !is_affine2(index, ivar, ovar) {
            return false;
        }
        let out = self.resolve_fbuf(buffer);
        let mut mb = MapBuild::default();
        if self.map_tape(value, ivar, ovar, &mut mb).is_none() {
            return false;
        }
        if mb.sites.len() > MAX_MAP_SITES || mb.tape.len() > MAX_MAP_TAPE {
            return false;
        }
        if mb.sites.iter().any(|(slot, ..)| *slot == out) {
            return false;
        }
        let class = FusedNest::classify(&mb.tape, *kind);
        if outer.is_some() && class != NestClass::MulAcc {
            return false;
        }

        let (im, scope) = (self.iregs.mark(), self.var_scope.len());
        let l_end = self.new_label();
        let outer_loop =
            outer.map(|(ovar, omin, oext)| self.fused_loop_header(ovar, omin, oext, Some(l_end)));
        let zero_trip = outer.is_none().then_some(l_end);
        let (islot, r_imin, n_inner) = self.fused_loop_header(ivar, imin, iext, zero_trip);
        // Probe every index at the first iteration and one step along
        // each loop; affine-ness makes that a full description (base +
        // strides).
        let base = self.probe_round(None, index, &mb.sites);
        let inner = self.probe_round(Some(islot), index, &mb.sites);
        let outer_round = outer_loop.map(|(oslot, ..)| {
            self.emit(Instr::SetVar {
                slot: islot,
                src: r_imin,
            });
            self.probe_round(Some(oslot), index, &mb.sites)
        });
        let mut probes = (0..base.len()).map(|i| Probe {
            base: base[i],
            inner: inner[i],
            outer: outer_round.as_ref().map(|round| round[i]),
        });
        let out_idx = probes.next().expect("a round probes the store index first");
        let sites = mb
            .sites
            .iter()
            .zip(probes)
            .map(|((slot, ..), idx)| MapSite { buf: *slot, idx })
            .collect();
        self.emit(Instr::FNest(Box::new(FusedNest {
            out,
            kind: *kind,
            out_idx,
            sites,
            tape: mb.tape.into_boxed_slice(),
            class,
            n_inner,
            n_outer: outer_loop.map(|(_, _, r_ext)| r_ext),
            aux: mb.aux + count_loads(index),
            aux_inner_bounds: match outer {
                Some(_) => count_loads(imin) + count_loads(iext),
                None => 0,
            },
            flops: mb.flops + u64::from(!matches!(kind, StoreKind::Assign)),
        })));
        self.place(l_end);
        self.var_scope.truncate(scope);
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
                if self.try_fused_nest(var, min, extent, body) {
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

/// True when `e` is `base + c_i·vi + c_o·vo` with constant coefficients:
/// a variable may appear only under `+`/`-`, or under `×` with a
/// co-factor free of *both* variables (a product of two
/// variable-dependent factors would make a stride depend on the other
/// variable), and no memory access, select or non-linear operator
/// involves either. Such an expression is fully determined by its value
/// at one point and one step along each variable, and probing it at any
/// in-range point touches exactly the memory an ordinary evaluation
/// would. A one-deep nest passes its loop variable twice.
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
