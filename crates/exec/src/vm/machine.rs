//! The binding table and the serial machines.
//!
//! [`VmShared`] is the one binding table: free variables and auxiliary
//! buffers, bound by name once. It owns its program
//! through an `Arc`, so it has no lifetime and can be stored beside (or
//! inside) whatever prepared it. Float buffers are never part of the
//! table — every execution receives them as a slot view
//! ([`super::bufs`]): borrowed from the caller ([`VmShared::run_borrowed`],
//! [`VmShared::run_blocks_proven`]) or owned by a [`VmMachine`], which
//! is nothing more than a table plus its own `Vec`s.

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use cora_ir::Env;

use super::bufs::{Bufs, Slot};
use super::dispatch::{dispatch, Regs};
use super::isa::VmProgram;
use crate::interp::InterpStats;

impl VmProgram {
    /// Creates a fresh owned-buffer machine with all external bindings
    /// unset.
    pub fn machine(self: &Arc<Self>) -> VmMachine {
        let n_free = self.slots.free_fbufs.len();
        VmMachine {
            table: self.shared(),
            fbufs: vec![Vec::new(); n_free],
            fbuf_bound: vec![false; n_free],
            stats: InterpStats::default(),
        }
    }

    /// Creates the binding table for this program with everything
    /// unset: bind variables and auxiliary buffers once, then execute
    /// any number of times against per-call float buffers.
    pub fn shared(self: &Arc<Self>) -> VmShared {
        let s = &self.slots;
        VmShared {
            prog: Arc::clone(self),
            vars: vec![0; s.var_slot_count()],
            var_bound: vec![false; s.free_vars.len()],
            ibufs: vec![Arc::from([]); s.ibufs.len()],
            ibuf_bound: vec![false; s.ibufs.len()],
        }
    }
}

/// The per-shape bindings of one [`VmProgram`]: free variables and
/// auxiliary buffers. Immutable during execution and `Sync`, so one
/// table backs any number of serial runs and every
/// worker of a parallel region; each execution keeps its own registers,
/// loop variables and `Alloc` scratch.
#[derive(Debug, Clone)]
pub struct VmShared {
    pub(super) prog: Arc<VmProgram>,
    /// Free-variable values (binding-site slots stay zero; each
    /// execution copies this file and writes its own loop variables).
    pub(super) vars: Vec<i64>,
    var_bound: Vec<bool>,
    /// Shared handles: binding a built prelude table copies nothing.
    pub(super) ibufs: Vec<Arc<[i64]>>,
    ibuf_bound: Vec<bool>,
}

impl VmShared {
    /// Binds a free integer variable. Returns `false` if the program
    /// never references `name` (the binding is ignored).
    pub fn bind_var(&mut self, name: &str, v: i64) -> bool {
        match self.prog.slots.free_vars.get(name) {
            Some(slot) => {
                self.vars[slot as usize] = v;
                self.var_bound[slot as usize] = true;
                true
            }
            None => false,
        }
    }

    /// Installs an integer auxiliary buffer (an owned `Vec<i64>`, or a
    /// shared `Arc<[i64]>` handle, which is bound without copying).
    /// Returns `false` if unused.
    pub fn set_ibuffer(&mut self, name: &str, data: impl Into<Arc<[i64]>>) -> bool {
        match self.prog.slots.ibufs.get(name) {
            Some(slot) => {
                self.ibufs[slot as usize] = data.into();
                self.ibuf_bound[slot as usize] = true;
                true
            }
            None => false,
        }
    }

    /// Binds everything an interpreter [`Env`] holds: variables and
    /// auxiliary buffers the program references. Convenience for
    /// differential testing against the tree walker.
    pub fn bind_env(&mut self, env: &Env) {
        for (name, v) in env.vars() {
            self.bind_var(name, v);
        }
        for (name, buf) in env.buffers() {
            self.set_ibuffer(name, buf);
        }
    }

    /// Verifies every external binding is present. `block_slot` exempts
    /// the block variable of a parallel run (supplied per block);
    /// `fbuf_bound` answers for the float-buffer slots, which live
    /// outside the table.
    pub(super) fn check_bound(&self, block_slot: Option<u32>, fbuf_bound: impl Fn(usize) -> bool) {
        let s = &self.prog.slots;
        for (i, bound) in self.var_bound.iter().enumerate() {
            assert!(
                *bound || Some(i) == block_slot.map(|b| b as usize),
                "unbound variable `{}`",
                s.free_vars.names()[i]
            );
        }
        for (i, bound) in self.ibuf_bound.iter().enumerate() {
            assert!(*bound, "missing auxiliary buffer `{}`", s.ibufs.names()[i]);
        }
        for (i, name) in s.free_fbufs.names().iter().enumerate() {
            assert!(fbuf_bound(i), "missing float buffer `{name}`");
        }
    }

    /// Executes the whole program serially, with the float buffers
    /// supplied as *borrowed* slices — the entry point arena-backed
    /// pipelines use. Inputs bind as [`BoundBuf::In`]; written buffers
    /// bind as [`BoundBuf::Out`] and must be pre-initialised by the
    /// caller (the executor does not zero them). Bindings for names the
    /// program never references are ignored.
    ///
    /// Loop variables, registers and `Alloc` scratch are private to the
    /// call, so `&self` executions are independent; outputs and
    /// statistics are bit-identical to an owned-buffer [`VmMachine::run`]
    /// with the same bindings (it is the same code).
    ///
    /// # Panics
    ///
    /// Panics on unbound inputs, stores to a buffer bound read-only, and
    /// out-of-bounds or negative accesses — lowering bugs by definition,
    /// matching interpreter behaviour.
    pub fn run_borrowed(&self, fbufs: Vec<(&str, BoundBuf<'_>)>) -> InterpStats {
        let names = &self.prog.slots.free_fbufs;
        let mut table: Vec<Option<BoundBuf<'_>>> = (0..names.len()).map(|_| None).collect();
        for (name, buf) in fbufs {
            if let Some(slot) = names.get(name) {
                table[slot as usize] = Some(buf);
            }
        }
        self.run_serial(table)
    }

    /// Serial core shared by [`VmShared::run_borrowed`] and
    /// [`VmMachine::run`]: one binding (or `None`) per free float slot.
    fn run_serial(&self, table: Vec<Option<BoundBuf<'_>>>) -> InterpStats {
        // No block variable is exempt: every free variable must be bound
        // for a full serial execution.
        self.check_bound(None, |i| table[i].is_some());
        let free = table.into_iter().map(|b| match b.expect("checked bound") {
            BoundBuf::In(s) => Slot::In(s),
            BoundBuf::Out(s) => Slot::Out(s),
        });
        let mut stats = InterpStats::default();
        dispatch(
            &self.prog,
            &self.ibufs,
            &mut Regs::new(&self.prog, &self.vars),
            &mut Bufs::new(&self.prog, free),
            &mut stats,
        );
        stats
    }
}

/// One float-buffer binding for a serial execution: a view into
/// caller-owned storage, so arena-backed pipelines hand the VM slices
/// instead of moving `Vec`s in and out per stage.
#[derive(Debug)]
pub enum BoundBuf<'a> {
    /// A read-only input slice.
    In(&'a [f32]),
    /// A written slice (the stage output), pre-initialised by the caller.
    Out(&'a mut [f32]),
}

/// The owned-buffer machine: a binding table ([`VmShared`], reachable
/// through `Deref`, so `bind_var`/`set_ibuffer`/`bind_env` are
/// the table's own methods) plus one owned `Vec` per free float buffer.
/// [`VmMachine::run`] executes the borrowed view over those `Vec`s.
#[derive(Debug)]
pub struct VmMachine {
    table: VmShared,
    fbufs: Vec<Vec<f32>>,
    fbuf_bound: Vec<bool>,
    /// Statistics accumulated by [`VmMachine::run`] (identical accounting
    /// to the tree-walking interpreter). The dispatch loop publishes its
    /// counts on normal return, so unlike the interpreter this field is
    /// not updated if a run panics mid-kernel.
    pub stats: InterpStats,
}

impl Deref for VmMachine {
    type Target = VmShared;

    fn deref(&self) -> &VmShared {
        &self.table
    }
}

impl DerefMut for VmMachine {
    fn deref_mut(&mut self) -> &mut VmShared {
        &mut self.table
    }
}

impl VmMachine {
    /// Installs a float buffer. Returns `false` if unused.
    pub fn set_fbuffer(&mut self, name: &str, data: Vec<f32>) -> bool {
        match self.table.prog.slots.free_fbufs.get(name) {
            Some(slot) => {
                self.fbufs[slot as usize] = data;
                self.fbuf_bound[slot as usize] = true;
                true
            }
            None => false,
        }
    }

    /// Reads a float buffer by its free name.
    pub fn fbuffer(&self, name: &str) -> Option<&[f32]> {
        let slot = self.table.prog.slots.free_fbufs.get(name)?;
        Some(&self.fbufs[slot as usize])
    }

    /// Takes a float buffer out of the machine by its free name.
    pub fn take_fbuffer(&mut self, name: &str) -> Option<Vec<f32>> {
        let slot = self.table.prog.slots.free_fbufs.get(name)? as usize;
        self.fbuf_bound[slot] = false;
        Some(std::mem::take(&mut self.fbufs[slot]))
    }

    /// Executes the program; every owned buffer is writable.
    ///
    /// # Panics
    ///
    /// Panics on unbound inputs, out-of-bounds or negative accesses —
    /// lowering bugs by definition, matching interpreter behaviour.
    pub fn run(&mut self) {
        let table = self
            .fbufs
            .iter_mut()
            .zip(&self.fbuf_bound)
            .map(|(buf, bound)| bound.then_some(BoundBuf::Out(buf.as_mut_slice())))
            .collect();
        self.stats += self.table.run_serial(table);
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use cora_ir::{Expr, FExpr, FUnaryOp, ForKind, Stmt, StoreKind};

    use super::super::isa::Instr;
    use super::super::testutil::{differential, gemm_nest};
    use super::super::{compile, BoundBuf};

    #[test]
    fn ragged_doubling_matches_interpreter() {
        let idx = Expr::load("row", Expr::var("o")) + Expr::var("i");
        let body = Stmt::store("B", idx.clone(), FExpr::load("A", idx) * 2.0);
        let nest = Stmt::loop_(
            "o",
            Expr::int(3),
            Stmt::loop_("i", Expr::load("s", Expr::var("o")), body),
        );
        let (stats, outs) = differential(
            &nest,
            |m| {
                m.env.set_buffer("s", vec![5, 2, 3]);
                m.env.set_buffer("row", vec![0, 5, 7]);
                m.set_fbuffer("A", (0..10).map(|x| x as f32).collect());
                m.set_fbuffer("B", vec![0.0; 10]);
            },
            &["B"],
        );
        let expect: Vec<f32> = (0..10).map(|x| 2.0 * x as f32).collect();
        assert_eq!(outs[0], expect);
        assert_eq!(stats.stores, 10);
        assert_eq!(stats.flops, 10);
    }

    #[test]
    fn load_extent_loops_match_and_count() {
        // The satellite-bug shape: a ragged loop whose extent is an aux
        // load must charge aux_loads in both tiers.
        let body = Stmt::store("B", Expr::var("i"), FExpr::constant(1.0));
        let nest = Stmt::loop_(
            "o",
            Expr::int(2),
            Stmt::loop_("i", Expr::load("lens", Expr::var("o")), body),
        );
        let (stats, _) = differential(
            &nest,
            |m| {
                m.env.set_buffer("lens", vec![2, 3]);
                m.set_fbuffer("B", vec![0.0; 4]);
            },
            &["B"],
        );
        // Two inner-loop entries, each charging one extent load.
        assert_eq!(stats.aux_loads, 2);
        assert_eq!(stats.stores, 5);
    }

    #[test]
    fn aux_counts_survive_u32_overflow() {
        // Regression: aux metadata used to be `u32`, and Rc-shared
        // doubling expression DAGs produce per-site load counts past
        // 2^32, so `compile` panicked on the checked cast. The fields
        // are `u64` now. Building a real >2^32-load expression is
        // exponential-time, so inject a boundary-crossing count into
        // the compiled code directly and check each evaluation charges
        // the full 64-bit value.
        const BIG: u64 = u32::MAX as u64 + 7;
        let body = Stmt::store("B", Expr::var("i"), FExpr::load("A", Expr::var("i")));
        let nest = Stmt::loop_(
            "i",
            Expr::int(4),
            Stmt::if_then(Expr::var("i").lt(Expr::int(2)), body),
        );
        let mut prog = compile(&nest);
        let mut patched = 0u64;
        for ins in &mut prog.code {
            if let Instr::Guard { aux } = ins {
                *aux = BIG;
                patched += 1;
            }
        }
        assert_eq!(patched, 1, "expected exactly one guard in the loop body");
        let mut vm = Arc::new(prog).machine();
        vm.set_fbuffer("A", vec![1.0; 4]);
        vm.set_fbuffer("B", vec![0.0; 4]);
        vm.run();
        // One guard evaluation per iteration, each charging the full
        // (formerly truncated) count.
        assert_eq!(vm.stats.guards, 4);
        assert_eq!(vm.stats.aux_loads, 4 * BIG);
    }

    #[test]
    fn guards_selects_and_short_circuit_match() {
        // if (i < 2 && lens[i] != 0) B[i] = select(lens[i] < 2, A[i], -A[i])
        // Note: lens has only 2 entries, so the && must short-circuit for
        // i in 2..4 exactly as the interpreter does.
        let cond = Expr::var("i")
            .lt(Expr::int(2))
            .and(Expr::load("lens", Expr::var("i")).ne_expr(Expr::int(0)));
        let sel = FExpr::select(
            Expr::load("lens", Expr::var("i")).lt(Expr::int(2)),
            FExpr::load("A", Expr::var("i")),
            FExpr::load("A", Expr::var("i")).unary(FUnaryOp::Neg),
        );
        let body = Stmt::if_then(cond, Stmt::store("B", Expr::var("i"), sel));
        let nest = Stmt::loop_("i", Expr::int(4), body);
        let (stats, outs) = differential(
            &nest,
            |m| {
                m.env.set_buffer("lens", vec![1, 5]);
                m.set_fbuffer("A", vec![1.0, 2.0, 3.0, 4.0]);
                m.set_fbuffer("B", vec![0.0; 4]);
            },
            &["B"],
        );
        assert_eq!(outs[0], vec![1.0, -2.0, 0.0, 0.0]);
        // 4 If guards + 2 Select guards (taken branch only evaluated).
        assert_eq!(stats.guards, 6);
    }

    #[test]
    fn alloc_let_and_reductions_match() {
        // Alloc a scratch row, accumulate with AddAssign and MaxAssign,
        // and exercise LetInt hoist bindings + Cast.
        let idx = Expr::var("h") + Expr::var("i");
        let fill = Stmt::store("tile", idx.clone(), FExpr::cast(idx));
        let acc = Stmt::Store {
            buffer: "acc".into(),
            index: Expr::int(0),
            value: FExpr::load("tile", Expr::var("i")),
            kind: StoreKind::AddAssign,
        };
        let mx = Stmt::Store {
            buffer: "acc".into(),
            index: Expr::int(1),
            value: FExpr::load("tile", Expr::var("i")),
            kind: StoreKind::MaxAssign,
        };
        let inner = Stmt::loop_("i", Expr::int(4), fill.then(acc).then(mx));
        let alloc = Stmt::Alloc {
            buffer: "tile".into(),
            size: Expr::load("sz", Expr::int(0)),
            body: Box::new(inner),
        };
        let s = Stmt::LetInt {
            var: "h".into(),
            value: Expr::load("off", Expr::int(0)),
            body: Box::new(alloc),
        };
        let (stats, outs) = differential(
            &s,
            |m| {
                m.env.set_buffer("sz", vec![8]);
                m.env.set_buffer("off", vec![2]);
                m.set_fbuffer("acc", vec![0.0, f32::NEG_INFINITY]);
            },
            &["acc"],
        );
        // tile[h+i] = h+i for i in 0..4 with h = 2; acc[0] sums tile[i]
        // (i < 4: values 0,0,2,3... tile[0..2] stay zero).
        assert_eq!(outs[0][0], 0.0 + 0.0 + 2.0 + 3.0);
        assert_eq!(outs[0][1], 3.0);
        // LetInt charges 1 (off), Alloc charges 1 (sz).
        assert!(stats.aux_loads >= 2);
    }

    #[test]
    fn gpu_axes_execute_sequentially() {
        let body = Stmt::loop_kind(
            "t",
            Expr::int(3),
            ForKind::GpuThreadX,
            Stmt::store(
                "B",
                Expr::var("b") * 3 + Expr::var("t"),
                FExpr::constant(1.0),
            ),
        );
        let s = Stmt::loop_kind("b", Expr::int(2), ForKind::GpuBlockX, body);
        let (_, outs) = differential(
            &s,
            |m| {
                m.set_fbuffer("B", vec![0.0; 6]);
            },
            &["B"],
        );
        assert_eq!(outs[0], vec![1.0; 6]);
    }

    #[test]
    fn shadowed_loop_vars_are_alpha_renamed() {
        // for i in 0..2 { B[i] = 0; for i in 0..3 { C[i] = 1 } D[i] = 2 }
        // The inner `i` must not clobber the outer one.
        let inner = Stmt::loop_(
            "i",
            Expr::int(3),
            Stmt::store("C", Expr::var("i"), FExpr::constant(1.0)),
        );
        let body = Stmt::store("B", Expr::var("i"), FExpr::constant(0.0))
            .then(inner)
            .then(Stmt::store("D", Expr::var("i"), FExpr::constant(2.0)));
        let s = Stmt::loop_("i", Expr::int(2), body);
        differential(
            &s,
            |m| {
                m.set_fbuffer("B", vec![9.0; 2]);
                m.set_fbuffer("C", vec![9.0; 3]);
                m.set_fbuffer("D", vec![9.0; 2]);
            },
            &["B", "C", "D"],
        );
    }

    #[test]
    fn empty_and_negative_extents_run_zero_iterations() {
        let body = Stmt::store("B", Expr::int(0), FExpr::constant(1.0));
        let s = Stmt::loop_("i", Expr::int(0), body.clone()).then(Stmt::loop_(
            "j",
            Expr::int(-3),
            body,
        ));
        let (stats, outs) = differential(
            &s,
            |m| {
                m.set_fbuffer("B", vec![0.0]);
            },
            &["B"],
        );
        assert_eq!(outs[0], vec![0.0]);
        assert_eq!(stats.stores, 0);
    }

    #[test]
    #[should_panic(expected = "missing float buffer `A`")]
    fn unbound_input_panics() {
        let s = Stmt::store("B", Expr::int(0), FExpr::load("A", Expr::int(0)));
        let mut vm = Arc::new(compile(&s)).machine();
        vm.set_fbuffer("B", vec![0.0]);
        vm.run();
    }

    #[test]
    fn run_borrowed_matches_owned_serial() {
        let s = gemm_nest(3, 4, 5, true);
        let prog = Arc::new(compile(&s));
        let a: Vec<f32> = (0..12).map(|x| x as f32 * 0.5 - 3.0).collect();
        let b: Vec<f32> = (0..20).map(|x| (x as f32 * 0.2).sin()).collect();
        let mut vm = prog.machine();
        vm.set_fbuffer("A", a.clone());
        vm.set_fbuffer("B", b.clone());
        vm.set_fbuffer("C", vec![0.0; 15]);
        vm.run();

        let shared = prog.shared();
        let mut out = vec![0.0f32; 15];
        let stats = shared.run_borrowed(vec![
            ("A", BoundBuf::In(&a)),
            ("B", BoundBuf::In(&b)),
            ("C", BoundBuf::Out(&mut out)),
        ]);
        assert_eq!(vm.fbuffer("C").unwrap(), out.as_slice());
        assert_eq!(vm.stats, stats);
        // A second execution over the same shared state is independent.
        let mut out2 = vec![0.0f32; 15];
        let stats2 = shared.run_borrowed(vec![
            ("A", BoundBuf::In(&a)),
            ("B", BoundBuf::In(&b)),
            ("C", BoundBuf::Out(&mut out2)),
        ]);
        assert_eq!(out, out2);
        assert_eq!(stats, stats2);
    }

    #[test]
    #[should_panic(expected = "bound read-only")]
    fn run_borrowed_rejects_stores_to_inputs() {
        let s = Stmt::store("B", Expr::int(0), FExpr::load("A", Expr::int(0)));
        let shared = Arc::new(compile(&s)).shared();
        let a = vec![1.0f32];
        let b = vec![0.0f32];
        shared.run_borrowed(vec![("A", BoundBuf::In(&a)), ("B", BoundBuf::In(&b))]);
    }
}
