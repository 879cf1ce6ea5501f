//! The bytecode compiler: lowered [`Stmt`] → [`VmProgram`], including
//! the loop-fusion pattern matcher for the fused-nest superinstruction.

use cora_ir::slots::StmtSlots;
use cora_ir::visit::{count_cond_loads, count_loads, mentions, Node};
use cora_ir::{
    CmpOp, Cond, CondKind, Expr, ExprKind, FBinOp, FExpr, FExprKind, ForKind, IBinOp, Stmt,
    StoreKind,
};

use super::isa::{
    Coef, FusedNest, Instr, MapOp, MapSite, NestIndex, RowAffine, RowLevel, VmProgram,
    MAX_MAP_SITES, MAX_MAP_TAPE, MAX_ROW_TABLES,
};
use super::opt::local_cse;
use crate::microkernel::{MathMode, NestClass};

/// Compiles a lowered statement to bytecode.
///
/// The result is immutable and reusable: create a fresh
/// [`VmMachine`](super::VmMachine) per execution (or reuse one across
/// runs of the same bindings).
pub fn compile(stmt: &Stmt) -> VmProgram {
    let mut c = Compiler::new(stmt);
    c.stmt(stmt);
    c.finish()
}

/// The free variable of a tile body holding the tile's first block
/// value.
pub const TILE_FIRST: &str = "tile.first";
/// The free variable of a tile body holding the tile's block count.
pub const TILE_LEN: &str = "tile.len";

/// Compiles an outlined block body — `block_var` free — as a *tile
/// body*: the program `for block_var in [tile.first, tile.first +
/// tile.len) { body }`, which runs the consecutive blocks of one tile in
/// ascending order, exactly as one execution of `body` per block would.
/// [`TILE_FIRST`] and [`TILE_LEN`] are its free variables in place of
/// the block variable; the parallel tier binds them once per tile
/// ([`super::run_chain_proven`]).
///
/// The block loop is compiled like any loop — as the row level of a
/// fused nest when its body is one, in bytecode otherwise — and
/// announces each block value to the output ports, so store
/// diagnostics name the block.
pub fn compile_tile(body: &Stmt, block_var: &str) -> VmProgram {
    let (first, len) = (Expr::var(TILE_FIRST), Expr::var(TILE_LEN));
    let tile = Stmt::For {
        var: block_var.to_string(),
        min: first.clone(),
        extent: len.clone(),
        body: Box::new(body.clone()),
        kind: ForKind::Serial,
    };
    let mut c = Compiler::new(&tile);
    c.for_loop(block_var, &first, &len, body, true);
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
    /// `(buffer slot | u32::MAX for casts, index expr, its linear form,
    /// producing temp)` per site.
    sites: Vec<(u32, Expr, Lin, u16)>,
    tape: Vec<MapOp>,
    /// Static aux loads per element (occurrence-counted).
    aux: u64,
    /// Float (tape) ops per element.
    flops: u64,
}

impl MapBuild {
    /// The temp holding the load (`slot`) or cast (`u32::MAX`) through
    /// `idx`, or `None` when `idx` is not linear in the nest's variables
    /// ([`linearize`]). A repeated `(slot, index)` site is computed once
    /// but still charges its aux loads per occurrence.
    fn site(&mut self, slot: u32, idx: &Expr, vars: NestVars<'_>) -> Option<u16> {
        let lin = linearize(idx, vars)?;
        self.aux += count_loads(idx);
        if let Some((.., t)) = self.sites.iter().find(|(s, e, ..)| *s == slot && e == idx) {
            return Some(*t);
        }
        let site = u16::try_from(self.sites.len()).ok()?;
        let t = u16::try_from(self.tape.len()).ok()?;
        self.tape.push(match slot {
            u32::MAX => MapOp::Cast { site },
            _ => MapOp::Load { site },
        });
        self.sites.push((slot, idx.clone(), lin, t));
        Some(t)
    }
}

/// A loop nest the fused-nest matcher may take:
/// `for ovar { for ivar { store } }`, or `for ivar { store }` (no
/// `outer`). Loops are `(variable, min, extent)`.
struct NestShape<'s> {
    outer: Option<(&'s str, &'s Expr, &'s Expr)>,
    inner: (&'s str, &'s Expr, &'s Expr),
    buffer: &'s str,
    index: &'s Expr,
    value: &'s FExpr,
    kind: StoreKind,
}

impl<'s> NestShape<'s> {
    /// The nest `for var in [min, min + extent) { body }`, if its body is
    /// the store or one loop directly around it.
    fn of(var: &'s str, min: &'s Expr, extent: &'s Expr, body: &'s Stmt) -> Option<Self> {
        let (outer, inner, store) = match body {
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
            return None;
        };
        Some(NestShape {
            outer,
            inner,
            buffer,
            index,
            value,
            kind: *kind,
        })
    }
}

/// A [`NestShape`] the matcher took: its output slot, the
/// store index's linear form, the tape and the tape's class.
struct Matched {
    out: u32,
    out_lin: Lin,
    mb: MapBuild,
    class: NestClass,
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
    /// A compiler over `stmt`'s name census.
    fn new(stmt: &Stmt) -> Compiler {
        let slots = StmtSlots::resolve(stmt);
        Compiler {
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
        }
    }

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
    /// not linear in the nest's variables.
    fn map_tape(&self, e: &FExpr, vars: NestVars<'_>, mb: &mut MapBuild) -> Option<u16> {
        let op = match e.kind() {
            FExprKind::Const(v) => MapOp::Const { v: *v },
            FExprKind::Load(buf, idx) => return mb.site(self.resolve_fbuf(buf), idx, vars),
            FExprKind::Cast(i) => return mb.site(u32::MAX, i, vars),
            FExprKind::Bin(op, a, b) => {
                let a = self.map_tape(a, vars, mb)?;
                let b = self.map_tape(b, vars, mb)?;
                mb.flops += 1;
                MapOp::Bin { op: *op, a, b }
            }
            FExprKind::Unary(op, a) => {
                let a = self.map_tape(a, vars, mb)?;
                mb.flops += 1;
                MapOp::Un { op: *op, a }
            }
            FExprKind::Select(_, _, _) => return None,
        };
        mb.tape.push(op);
        u16::try_from(mb.tape.len() - 1).ok()
    }

    /// The matcher's checks shared by both forms of the fused nest: the
    /// store's value is branch-free, every integer index is linear in
    /// the nest's variables (`vars`), the output buffer is not loaded
    /// (chunked evaluation could observe it mid-store, and the kernels
    /// split borrows around it), the tape fits the executor's caps, and
    /// a two-deep nest is a multiply-accumulate (the GEMM/scores/AttnV
    /// shape) whose inner bounds do not depend on its outer variable.
    fn match_nest(&self, shape: &NestShape<'_>, vars: NestVars<'_>) -> Option<Matched> {
        let (ivar, imin, iext) = shape.inner;
        if let Some((ovar, ..)) = shape.outer {
            // Inner bounds are hoisted out of the outer loop, so they must
            // not depend on it.
            if ovar == ivar || mentions(Node::Expr(imin), ovar) || mentions(Node::Expr(iext), ovar)
            {
                return None;
            }
        }
        let out_lin = linearize(shape.index, vars)?;
        let out = self.resolve_fbuf(shape.buffer);
        let mut mb = MapBuild::default();
        self.map_tape(shape.value, vars, &mut mb)?;
        if mb.sites.len() > MAX_MAP_SITES || mb.tape.len() > MAX_MAP_TAPE {
            return None;
        }
        if mb.sites.iter().any(|(slot, ..)| *slot == out) {
            return None;
        }
        let class = FusedNest::classify(&mb.tape, shape.kind);
        if shape.outer.is_some() && class != NestClass::MulAcc {
            return None;
        }
        Some(Matched {
            out,
            out_lin,
            mb,
            class,
        })
    }

    /// Emits the header of a fused loop: its bounds and the variable's
    /// initialisation, returning the extent register. A nest's
    /// outermost loop passes `zero_trip: Some(end)` and also charges the
    /// bounds' static load counts once, exactly like the unfused loop
    /// header, and branches to `end` when the extent is not positive —
    /// *before* any index is evaluated, so an empty loop evaluates
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
    ) -> u16 {
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
        r_ext
    }

    /// A row-invariant operand: the literal, or a register computing
    /// `e`.
    fn coef(&mut self, e: &Expr) -> Coef {
        match e.as_int() {
            Some(v) => Coef::Lit(v),
            None => Coef::Reg(self.expr(e)),
        }
    }

    /// The strides of an index with linear form `lin`.
    fn strides(&mut self, lin: &Lin) -> (Coef, Coef) {
        let inner = self.coef(&lin.coef(&Atom::Inner));
        let outer = self.coef(&lin.coef(&Atom::Outer));
        (inner, outer)
    }

    /// The [`RowAffine`] of a linear form's row atoms (its nest-variable
    /// terms are the strides), with `c` in place of the form's constant.
    fn row_affine(&mut self, lin: &Lin, c: &Expr) -> RowAffine {
        let c = self.coef(c);
        let step = self.coef(&lin.coef(&Atom::Row));
        let mut tables = Vec::new();
        for (atom, w) in &lin.terms {
            if let Atom::Table(buf) = atom {
                let slot = (self.slots.ibufs.get(buf))
                    .unwrap_or_else(|| panic!("unresolved auxiliary buffer `{buf}`"));
                tables.push((slot, self.coef(w)));
            }
        }
        RowAffine {
            c,
            step,
            tables: tables.into_boxed_slice(),
        }
    }

    /// Attempts to compile `for var in min..min+extent { body }` as one
    /// [`FusedNest`] without a row level: `body` is either the store
    /// itself (a one-deep nest) or a loop directly around it (a two-deep
    /// nest) — see [`Compiler::match_nest`]. Returns `false` (emitting
    /// nothing) when the pattern does not apply.
    fn try_fused_nest(&mut self, var: &str, min: &Expr, extent: &Expr, body: &Stmt) -> bool {
        let Some(shape) = NestShape::of(var, min, extent, body) else {
            return false;
        };
        let vars = NestVars {
            inner: shape.inner.0,
            outer: shape.outer.map(|o| o.0),
            row: None,
        };
        let Some(m) = self.match_nest(&shape, vars) else {
            return false;
        };
        let (ivar, imin, iext) = shape.inner;
        let (im, scope) = (self.iregs.mark(), self.var_scope.len());
        let l_end = self.new_label();
        let n_outer = (shape.outer)
            .map(|(ovar, omin, oext)| self.fused_loop_header(ovar, omin, oext, Some(l_end)));
        let zero_trip = shape.outer.is_none().then_some(l_end);
        let n_inner = self.fused_loop_header(ivar, imin, iext, zero_trip);
        // Every index at the nest's first iteration (the loop variables
        // sit at their minima), then the strides: the index's
        // coefficients of the nest variables.
        let bases: Vec<u16> = std::iter::once(shape.index)
            .chain(m.mb.sites.iter().map(|(_, e, ..)| e))
            .map(|e| self.expr(e))
            .collect();
        let lins = std::iter::once(&m.out_lin).chain(m.mb.sites.iter().map(|(_, _, lin, _)| lin));
        let mut indices = Vec::with_capacity(bases.len());
        for (base, lin) in bases.into_iter().zip(lins) {
            let (inner, outer) = self.strides(lin);
            indices.push(NestIndex {
                base: RowAffine::invariant(Coef::Reg(base)),
                inner,
                outer,
            });
        }
        let aux_inner_bounds = match shape.outer {
            Some(_) => count_loads(imin) + count_loads(iext),
            None => 0,
        };
        self.emit_nest(
            &shape,
            m,
            indices,
            (
                RowAffine::invariant(Coef::Reg(n_inner)),
                n_outer.map(|r| RowAffine::invariant(Coef::Reg(r))),
            ),
            aux_inner_bounds,
            None,
        );
        self.place(l_end);
        self.var_scope.truncate(scope);
        self.iregs.release(im);
        true
    }

    /// Attempts to compile `for var in min..min+extent { body }` as one
    /// [`FusedNest`] with a ragged row level over `var`: `body` is a
    /// nest [`Compiler::match_nest`] takes, in which every index and
    /// bound is linear in the nest variables, `var` and tables indexed
    /// by `var` alone, over load-free invariant coefficients
    /// ([`linearize`]), and whose loops start at row-invariant minima.
    /// `block` marks the block loop of a tile body. Returns `false`
    /// (emitting nothing) when the pattern does not apply.
    fn try_row_nest(
        &mut self,
        var: &str,
        min: &Expr,
        extent: &Expr,
        body: &Stmt,
        block: bool,
    ) -> bool {
        let Stmt::For {
            var: hvar,
            min: hmin,
            extent: hext,
            body: hbody,
            kind: _,
        } = body
        else {
            return false;
        };
        let Some(shape) = NestShape::of(hvar, hmin, hext, hbody) else {
            return false;
        };
        let (ivar, imin, iext) = shape.inner;
        let ovar = shape.outer.map(|o| o.0);
        if var == ivar || Some(var) == ovar {
            return false;
        }
        let vars = NestVars {
            inner: ivar,
            outer: ovar,
            row: Some(var),
        };
        let Some(m) = self.match_nest(&shape, vars) else {
            return false;
        };
        // Bounds: row-invariant minima, extents over the row atoms.
        let bound = |e: &Expr| linearize(e, vars);
        let (imin_l, iext_l) = (bound(imin), bound(iext));
        let outer_l = shape
            .outer
            .map(|(_, omin, oext)| (bound(omin), bound(oext)));
        let invariant = |l: &Option<Lin>| l.as_ref().is_some_and(|l| l.terms.is_empty());
        let over_rows =
            |l: &Option<Lin>| (l.as_ref()).is_some_and(|l| l.terms.iter().all(|(a, _)| a.is_row()));
        if !invariant(&imin_l) || !over_rows(&iext_l) {
            return false;
        }
        if let Some((omin_l, oext_l)) = &outer_l {
            if !invariant(omin_l) || !over_rows(oext_l) {
                return false;
            }
        }
        let (tmin, iext_l) = (imin_l.expect("checked").c, iext_l.expect("checked"));
        let (umin, oext_l) = match outer_l {
            Some((omin, oext)) => (omin.expect("checked").c, oext),
            None => (Expr::int(0), None),
        };
        let forms = || {
            (std::iter::once(&m.out_lin))
                .chain(m.mb.sites.iter().map(|(_, _, lin, _)| lin))
                .chain([&iext_l])
                .chain(oext_l.as_ref())
        };
        if forms().any(|lin| lin.tables() > MAX_ROW_TABLES) {
            return false;
        }

        let im = self.iregs.mark();
        let r_first = self.expr(min);
        let r_n = self.expr(extent);
        // The row loop's bounds, charged once like any loop header's.
        self.emit(Instr::BumpAux {
            n: count_loads(min) + count_loads(extent),
        });
        let slot = self.push_var(var);
        // The row-invariant operands, once per execution.
        let lins = std::iter::once(&m.out_lin).chain(m.mb.sites.iter().map(|(_, _, lin, _)| lin));
        let mut indices = Vec::new();
        for lin in lins {
            let (inner, outer) = self.strides(lin);
            // The base: the index at the nest's first iteration.
            let first = fold(
                IBinOp::Add,
                fold(IBinOp::Mul, lin.coef(&Atom::Inner), tmin.clone()),
                fold(IBinOp::Mul, lin.coef(&Atom::Outer), umin.clone()),
            );
            let base = self.row_affine(lin, &fold(IBinOp::Add, lin.c.clone(), first));
            indices.push(NestIndex { base, inner, outer });
        }
        let n_inner = self.row_affine(&iext_l, &iext_l.c);
        let n_outer = oext_l.map(|l| self.row_affine(&l, &l.c));
        // The nest's outermost loop, whose header the serial row runs.
        let (_, hmin, hext) = shape.outer.unwrap_or(shape.inner);
        let aux_inner_bounds = match shape.outer {
            Some(_) => count_loads(imin) + count_loads(iext),
            None => 0,
        };
        let rows = RowLevel {
            slot,
            first: r_first,
            n: r_n,
            aux: count_loads(hmin) + count_loads(hext),
            block,
        };
        self.emit_nest(
            &shape,
            m,
            indices,
            (n_inner, n_outer),
            aux_inner_bounds,
            Some(rows),
        );
        self.var_scope.pop();
        self.iregs.release(im);
        true
    }

    /// Emits the [`FusedNest`] of a matched nest.
    fn emit_nest(
        &mut self,
        shape: &NestShape<'_>,
        m: Matched,
        indices: Vec<NestIndex>,
        (n_inner, n_outer): (RowAffine, Option<RowAffine>),
        aux_inner_bounds: u64,
        rows: Option<RowLevel>,
    ) {
        let mut indices = indices.into_iter();
        let out_idx = indices.next().expect("the store index comes first");
        let sites = (m.mb.sites.iter())
            .zip(indices)
            .map(|((slot, ..), idx)| MapSite { buf: *slot, idx })
            .collect();
        self.emit(Instr::FNest(Box::new(FusedNest {
            out: m.out,
            kind: shape.kind,
            out_idx,
            sites,
            tape: m.mb.tape.into_boxed_slice(),
            class: m.class,
            n_inner,
            n_outer,
            aux: m.mb.aux + count_loads(shape.index),
            aux_inner_bounds,
            flops: m.mb.flops + u64::from(!matches!(shape.kind, StoreKind::Assign)),
            rows,
        })));
    }

    /// Compiles `for var in [min, min + extent) { body }`: as a fused
    /// nest when the loop and its body are one, else as a fused nest
    /// with a row level over `var`, else in bytecode. `block` marks the
    /// block loop of a tile body ([`compile_tile`]), whose rows are
    /// announced to the output ports; it is never the outer loop of a
    /// plain two-deep nest, which has no per-block hook.
    fn for_loop(&mut self, var: &str, min: &Expr, extent: &Expr, body: &Stmt, block: bool) {
        if !block && self.try_fused_nest(var, min, extent, body) {
            return;
        }
        if self.try_row_nest(var, min, extent, body, block) {
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
        if block {
            self.emit(Instr::EnterBlock { slot });
        }
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

    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::For {
                var,
                min,
                extent,
                body,
                kind: _,
            } => self.for_loop(var, min, extent, body, false),
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

/// The variables of a fused nest: its inner loop's, its outer loop's
/// (two-deep nests) and the row level's (nests with one).
#[derive(Clone, Copy)]
struct NestVars<'a> {
    inner: &'a str,
    outer: Option<&'a str>,
    row: Option<&'a str>,
}

impl NestVars<'_> {
    /// True when `e` mentions any of the variables.
    fn mentioned_in(&self, e: &Expr) -> bool {
        let names = [Some(self.inner), self.outer, self.row];
        names
            .into_iter()
            .flatten()
            .any(|v| mentions(Node::Expr(e), v))
    }
}

/// What an index of a fused nest is linear in: a nest variable, the row
/// variable, or an auxiliary table indexed by the row variable alone.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Atom {
    Inner,
    Outer,
    Row,
    Table(String),
}

impl Atom {
    /// True for the atoms a value that varies only with the row may hold.
    fn is_row(&self) -> bool {
        matches!(self, Atom::Row | Atom::Table(_))
    }
}

/// `c + Σ coef·atom`, where the constant and every coefficient are free
/// of the nest's variables. A term whose coefficient folds to zero is
/// kept: it records that the expression mentions the atom.
#[derive(Debug, Clone)]
struct Lin {
    c: Expr,
    terms: Vec<(Atom, Expr)>,
}

impl Lin {
    /// The coefficient of `atom` (zero when absent).
    fn coef(&self, atom: &Atom) -> Expr {
        let term = self.terms.iter().find(|(a, _)| a == atom);
        term.map_or(Expr::int(0), |(_, c)| c.clone())
    }

    /// The number of table terms.
    fn tables(&self) -> usize {
        (self.terms.iter())
            .filter(|(a, _)| matches!(a, Atom::Table(_)))
            .count()
    }

    /// `self ± other`.
    fn combine(mut self, other: Lin, op: IBinOp) -> Lin {
        self.c = fold(op, self.c, other.c);
        for (atom, coef) in other.terms {
            match self.terms.iter_mut().find(|(a, _)| *a == atom) {
                Some((_, mine)) => *mine = fold(op, mine.clone(), coef),
                None => self.terms.push((atom, fold(op, Expr::int(0), coef))),
            }
        }
        self
    }

    /// `self · k` for an atom-free `k`.
    fn scaled(mut self, k: &Expr) -> Lin {
        self.c = fold(IBinOp::Mul, self.c, k.clone());
        for (_, coef) in &mut self.terms {
            *coef = fold(IBinOp::Mul, coef.clone(), k.clone());
        }
        self
    }
}

/// `op(a, b)` with literal operands folded and neutral or absorbing
/// literals dropped. Only arithmetic that cannot change a value is
/// folded: an overflowing literal sum or product is left to run.
fn fold(op: IBinOp, a: Expr, b: Expr) -> Expr {
    if let (Some(x), Some(y)) = (a.as_int(), b.as_int()) {
        let v = match op {
            IBinOp::Add => x.checked_add(y),
            IBinOp::Sub => x.checked_sub(y),
            IBinOp::Mul => x.checked_mul(y),
            _ => None,
        };
        if let Some(v) = v {
            return Expr::int(v);
        }
    }
    let [left, right] = op.identities();
    if left.is_some() && a.as_int() == left {
        return b;
    }
    if right.is_some() && b.as_int() == right {
        return a;
    }
    if op == IBinOp::Mul && (a.as_int() == Some(0) || b.as_int() == Some(0)) {
        return Expr::int(0);
    }
    Expr::bin(op, a, b)
}

/// The value of `e` when it is literal arithmetic (`+ − ×` over
/// literals, none overflowing) — so a stride like `r·(1·2)` is the
/// literal 2.
fn literal(e: &Expr) -> Option<i64> {
    match e.kind() {
        ExprKind::Int(v) => Some(*v),
        ExprKind::Bin(op, a, b) => {
            let (a, b) = (literal(a)?, literal(b)?);
            match op {
                IBinOp::Add => a.checked_add(b),
                IBinOp::Sub => a.checked_sub(b),
                IBinOp::Mul => a.checked_mul(b),
                _ => None,
            }
        }
        _ => None,
    }
}

/// True when evaluating `e` can neither read memory nor panic: literals
/// and variables under `+ − × min max`.
fn is_pure(e: &Expr) -> bool {
    match e.kind() {
        ExprKind::Int(_) | ExprKind::Var(_) => true,
        ExprKind::Bin(op, a, b) => {
            matches!(
                op,
                IBinOp::Add | IBinOp::Sub | IBinOp::Mul | IBinOp::Min | IBinOp::Max
            ) && is_pure(a)
                && is_pure(b)
        }
        ExprKind::Select(..) | ExprKind::Load(..) => false,
    }
}

/// `e` as a linear form over the nest's [`Atom`]s, or `None` when it is
/// not *bilinear-free affine*: a variable may appear only under `+`/`-`,
/// or under `×` with a co-factor free of every variable (a product of
/// two variable-dependent factors would make a stride vary), and no
/// memory access, select or non-linear operator may involve one — except
/// that, in a nest with a row level, a table indexed by exactly the row
/// variable is an atom of its own. Such an expression is fully described
/// by its coefficients, and evaluating them touches only memory an
/// ordinary evaluation would.
///
/// With a row level, the constant and coefficients are evaluated once
/// per execution, before any row runs, so they must also be pure
/// ([`is_pure`]): an empty row evaluates nothing the serial row would
/// not.
fn linearize(e: &Expr, vars: NestVars<'_>) -> Option<Lin> {
    if !vars.mentioned_in(e) {
        let pure = vars.row.is_none() || is_pure(e);
        return pure.then(|| Lin {
            c: literal(e).map_or_else(|| e.clone(), Expr::int),
            terms: Vec::new(),
        });
    }
    let atom = |atom: Atom| Lin {
        c: Expr::int(0),
        terms: vec![(atom, Expr::int(1))],
    };
    match e.kind() {
        ExprKind::Var(n) if n == vars.inner => Some(atom(Atom::Inner)),
        ExprKind::Var(n) if Some(n.as_str()) == vars.outer => Some(atom(Atom::Outer)),
        ExprKind::Var(_) => Some(atom(Atom::Row)),
        ExprKind::Load(buf, idx) if vars.row.is_some() && idx.as_var() == vars.row => {
            Some(atom(Atom::Table(buf.clone())))
        }
        ExprKind::Bin(op @ (IBinOp::Add | IBinOp::Sub), a, b) => {
            Some(linearize(a, vars)?.combine(linearize(b, vars)?, *op))
        }
        ExprKind::Bin(IBinOp::Mul, a, b) => {
            let (a, b) = (linearize(a, vars)?, linearize(b, vars)?);
            match (a.terms.is_empty(), b.terms.is_empty()) {
                (true, _) => Some(b.scaled(&a.c)),
                (_, true) => Some(a.scaled(&b.c)),
                // A product of two variable-dependent factors is
                // quadratic or bilinear — its strides are not constant.
                _ => None,
            }
        }
        // A table lookup indexed by a nest variable is not affine (and
        // reading it out of loop order would be unsound).
        _ => None,
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
