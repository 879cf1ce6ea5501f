//! A scalar interpreter for the lowered statement IR.
//!
//! Gives the compiler's output precise, executable semantics: tests lower
//! ragged operators, interpret them, and compare against plain dense
//! references. The interpreter also counts FLOPs, guard evaluations and
//! auxiliary-array loads — the quantities the cost model prices — so the
//! simulation layer is calibrated against the real instruction mix.

use std::collections::HashMap;

use cora_ir::visit::{count_cond_loads, count_loads};
use cora_ir::{Env, FExpr, FExprKind, Stmt, StoreKind};

/// Execution statistics gathered while interpreting.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct InterpStats {
    /// Floating-point operations executed (adds/subs/muls/divs/max/unary).
    pub flops: u64,
    /// Guard conditions evaluated.
    pub guards: u64,
    /// Auxiliary integer-array loads performed.
    pub aux_loads: u64,
    /// Float stores performed.
    pub stores: u64,
}

impl std::ops::AddAssign for InterpStats {
    fn add_assign(&mut self, o: InterpStats) {
        self.flops += o.flops;
        self.guards += o.guards;
        self.aux_loads += o.aux_loads;
        self.stores += o.stores;
    }
}

/// Statistics are plain event counts, so addition is exact and
/// order-independent: summing per-worker accumulators from a parallel
/// run reproduces the serial totals bit-for-bit.
impl std::ops::Add for InterpStats {
    type Output = InterpStats;

    fn add(mut self, o: InterpStats) -> InterpStats {
        self += o;
        self
    }
}

/// The interpreter's mutable machine state: float buffers plus the integer
/// environment (vars, int buffers).
#[derive(Debug, Default)]
pub struct Machine {
    /// Integer environment (loop vars, aux buffers).
    pub env: Env,
    fbufs: HashMap<String, Vec<f32>>,
    /// Statistics for the current/most recent run.
    pub stats: InterpStats,
}

impl Machine {
    /// Creates an empty machine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs (or replaces) a float buffer.
    pub fn set_fbuffer(&mut self, name: impl Into<String>, data: Vec<f32>) {
        self.fbufs.insert(name.into(), data);
    }

    /// Reads a float buffer.
    pub fn fbuffer(&self, name: &str) -> Option<&[f32]> {
        self.fbufs.get(name).map(|v| v.as_slice())
    }

    /// Iterates over every installed float buffer.
    pub fn fbuffers(&self) -> impl Iterator<Item = (&str, &[f32])> + '_ {
        self.fbufs.iter().map(|(n, v)| (n.as_str(), v.as_slice()))
    }

    /// Takes a float buffer out of the machine.
    pub fn take_fbuffer(&mut self, name: &str) -> Option<Vec<f32>> {
        self.fbufs.remove(name)
    }

    /// Runs a statement tree.
    ///
    /// # Panics
    ///
    /// Panics on missing buffers, unbound variables or out-of-bounds
    /// accesses — lowering bugs by definition.
    pub fn run(&mut self, s: &Stmt) {
        self.exec(s);
    }

    fn exec(&mut self, s: &Stmt) {
        match s {
            Stmt::For {
                var,
                min,
                extent,
                body,
                kind: _,
            } => {
                // GPU axes and parallel loops execute sequentially here;
                // the interpreter defines semantics, not performance.
                // Bounds are counted: ragged loop extents are aux loads
                // (`ExtentIr::Table` lowers to `Load(row, o)`), exactly
                // the accesses the cost model prices.
                let lo = self.eval_counting(min);
                let n = self.eval_counting(extent);
                let saved = self.env.lookup(var);
                for i in lo..lo + n {
                    self.env.bind(var.clone(), i);
                    self.exec(body);
                }
                match saved {
                    Some(v) => {
                        self.env.bind(var.clone(), v);
                    }
                    None => self.env.unbind(var),
                }
            }
            Stmt::LetInt { var, value, body } => {
                let v = self.eval_counting(value);
                let saved = self.env.lookup(var);
                self.env.bind(var.clone(), v);
                self.exec(body);
                match saved {
                    Some(v) => {
                        self.env.bind(var.clone(), v);
                    }
                    None => self.env.unbind(var),
                }
            }
            Stmt::Store {
                buffer,
                index,
                value,
                kind,
            } => {
                let i = self.eval_counting(index);
                let v = self.eval_f(value);
                let iu = usize::try_from(i)
                    .unwrap_or_else(|_| panic!("negative store index {i} into `{buffer}`"));
                let buf = self
                    .fbufs
                    .get_mut(buffer)
                    .unwrap_or_else(|| panic!("missing float buffer `{buffer}`"));
                match kind {
                    StoreKind::Assign => buf[iu] = v,
                    StoreKind::AddAssign => {
                        buf[iu] += v;
                        self.stats.flops += 1;
                    }
                    StoreKind::MaxAssign => {
                        buf[iu] = buf[iu].max(v);
                        self.stats.flops += 1;
                    }
                }
                self.stats.stores += 1;
            }
            Stmt::If { cond, then_, else_ } => {
                self.stats.guards += 1;
                self.stats.aux_loads += count_cond_loads(cond);
                if self.env.eval_cond(cond) {
                    self.exec(then_);
                } else if let Some(e) = else_ {
                    self.exec(e);
                }
            }
            Stmt::Seq(items) => {
                for item in items {
                    self.exec(item);
                }
            }
            Stmt::Alloc { buffer, size, body } => {
                let n = self.eval_counting(size);
                let nu = usize::try_from(n)
                    .unwrap_or_else(|_| panic!("negative alloc size {n} for `{buffer}`"));
                let saved = self.fbufs.insert(buffer.clone(), vec![0.0; nu]);
                self.exec(body);
                match saved {
                    Some(old) => {
                        self.fbufs.insert(buffer.clone(), old);
                    }
                    None => {
                        self.fbufs.remove(buffer);
                    }
                }
            }
            Stmt::Nop => {}
        }
    }

    fn eval_counting(&mut self, e: &cora_ir::Expr) -> i64 {
        self.stats.aux_loads += count_loads(e);
        self.env.eval(e)
    }

    fn eval_f(&mut self, e: &FExpr) -> f32 {
        match e.kind() {
            FExprKind::Const(v) => *v,
            FExprKind::Load(buf, idx) => {
                let i = self.eval_counting(idx);
                let iu = usize::try_from(i)
                    .unwrap_or_else(|_| panic!("negative load index {i} into `{buf}`"));
                self.fbufs
                    .get(buf)
                    .unwrap_or_else(|| panic!("missing float buffer `{buf}`"))[iu]
            }
            FExprKind::Cast(i) => {
                let v = self.eval_counting(i);
                v as f32
            }
            FExprKind::Bin(op, a, b) => {
                let r = op.apply(self.eval_f(a), self.eval_f(b));
                self.stats.flops += 1;
                r
            }
            FExprKind::Unary(op, a) => {
                let r = op.apply(self.eval_f(a));
                self.stats.flops += 1;
                r
            }
            FExprKind::Select(c, a, b) => {
                self.stats.guards += 1;
                // Stats parity with `Stmt::If`: the condition's aux loads
                // are charged whenever the guard is evaluated.
                self.stats.aux_loads += count_cond_loads(c);
                if self.env.eval_cond(c) {
                    self.eval_f(a)
                } else {
                    self.eval_f(b)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cora_ir::{Expr, FExpr, ForKind};

    #[test]
    fn ragged_doubling_from_fig1() {
        // for o in 0..3 { for i in 0..s[o] { B[row[o]+i] = 2*A[row[o]+i] } }
        let mut m = Machine::new();
        m.env.set_buffer("s", vec![5, 2, 3]);
        m.env.set_buffer("row", vec![0, 5, 7]);
        m.set_fbuffer("A", (0..10).map(|x| x as f32).collect());
        m.set_fbuffer("B", vec![0.0; 10]);
        let idx = Expr::load("row", Expr::var("o")) + Expr::var("i");
        let body = Stmt::store("B", idx.clone(), FExpr::load("A", idx) * 2.0);
        let nest = Stmt::loop_(
            "o",
            Expr::int(3),
            Stmt::loop_("i", Expr::load("s", Expr::var("o")), body),
        );
        m.run(&nest);
        let b = m.fbuffer("B").unwrap();
        let expect: Vec<f32> = (0..10).map(|x| 2.0 * x as f32).collect();
        assert_eq!(b, expect.as_slice());
        assert_eq!(m.stats.stores, 10);
        assert_eq!(m.stats.flops, 10);
        assert!(m.stats.aux_loads >= 20); // row[o] twice per element
    }

    #[test]
    fn reduction_with_add_assign() {
        let mut m = Machine::new();
        m.set_fbuffer("x", vec![1.0, 2.0, 3.0, 4.0]);
        m.set_fbuffer("acc", vec![0.0]);
        let body = Stmt::Store {
            buffer: "acc".into(),
            index: Expr::int(0),
            value: FExpr::load("x", Expr::var("i")),
            kind: StoreKind::AddAssign,
        };
        m.run(&Stmt::loop_("i", Expr::int(4), body));
        assert_eq!(m.fbuffer("acc").unwrap()[0], 10.0);
    }

    #[test]
    fn guards_count_and_branch() {
        let mut m = Machine::new();
        m.set_fbuffer("B", vec![0.0; 4]);
        let body = Stmt::if_then(
            Expr::var("i").lt(Expr::int(2)),
            Stmt::store("B", Expr::var("i"), FExpr::constant(1.0)),
        );
        m.run(&Stmt::loop_("i", Expr::int(4), body));
        assert_eq!(m.stats.guards, 4);
        assert_eq!(m.fbuffer("B").unwrap(), &[1.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn ragged_loop_extent_counts_aux_loads() {
        // Regression: `Stmt::For` bounds used to be evaluated with the
        // non-counting `env.eval`, dropping the `Load`-extent accesses
        // the cost model prices.
        let mut m = Machine::new();
        m.env.set_buffer("lens", vec![2, 3]);
        m.set_fbuffer("B", vec![0.0; 4]);
        let body = Stmt::store("B", Expr::var("i"), FExpr::constant(1.0));
        let nest = Stmt::loop_(
            "o",
            Expr::int(2),
            Stmt::loop_("i", Expr::load("lens", Expr::var("o")), body),
        );
        m.run(&nest);
        // The inner loop is entered twice; each entry loads lens[o] once.
        assert_eq!(m.stats.aux_loads, 2);
        assert_eq!(m.stats.stores, 5);
    }

    #[test]
    fn select_condition_counts_aux_loads_like_if() {
        // Regression: `FExprKind::Select` counted its guard but not the
        // condition's aux loads, unlike `Stmt::If`.
        let mut m = Machine::new();
        m.env.set_buffer("lens", vec![0, 2]);
        m.set_fbuffer("A", vec![1.0, 2.0]);
        m.set_fbuffer("B", vec![0.0; 2]);
        let sel = FExpr::select(
            Expr::load("lens", Expr::var("i")).lt(Expr::int(1)),
            FExpr::constant(0.0),
            FExpr::load("A", Expr::var("i")),
        );
        m.run(&Stmt::loop_(
            "i",
            Expr::int(2),
            Stmt::store("B", Expr::var("i"), sel),
        ));
        assert_eq!(m.fbuffer("B").unwrap(), &[0.0, 2.0]);
        assert_eq!(m.stats.guards, 2);
        // One condition load per select evaluation.
        assert_eq!(m.stats.aux_loads, 2);
    }

    #[test]
    fn alloc_scopes_scratch() {
        let mut m = Machine::new();
        m.set_fbuffer("out", vec![0.0]);
        let body = Stmt::store("tile", Expr::int(0), FExpr::constant(3.0)).then(Stmt::store(
            "out",
            Expr::int(0),
            FExpr::load("tile", Expr::int(0)),
        ));
        m.run(&Stmt::Alloc {
            buffer: "tile".into(),
            size: Expr::int(8),
            body: Box::new(body),
        });
        assert_eq!(m.fbuffer("out").unwrap()[0], 3.0);
        assert!(m.fbuffer("tile").is_none(), "scratch freed after scope");
    }

    #[test]
    fn let_binding_shadows_and_restores() {
        let mut m = Machine::new();
        m.env.bind("x", 1);
        m.set_fbuffer("B", vec![0.0; 1]);
        let inner = Stmt::store("B", Expr::int(0), FExpr::cast(Expr::var("x")));
        m.run(&Stmt::LetInt {
            var: "x".into(),
            value: Expr::int(9),
            body: Box::new(inner),
        });
        assert_eq!(m.fbuffer("B").unwrap()[0], 9.0);
        assert_eq!(m.env.lookup("x"), Some(1));
    }

    #[test]
    fn gpu_axes_interpret_as_loops() {
        let mut m = Machine::new();
        m.set_fbuffer("B", vec![0.0; 6]);
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
        m.run(&Stmt::loop_kind(
            "b",
            Expr::int(2),
            ForKind::GpuBlockX,
            body,
        ));
        assert_eq!(m.fbuffer("B").unwrap(), &[1.0; 6]);
    }
}
