//! Helpers shared by the unit tests of the `vm` modules.

use std::sync::Arc;

use cora_ir::{Expr, FExpr, Stmt, StoreKind};

use super::compile;
use crate::interp::{InterpStats, Machine};

/// Runs `s` through both tiers with the same bindings and asserts
/// bit-identical buffers and identical statistics.
pub(super) fn differential(
    s: &Stmt,
    setup: impl Fn(&mut Machine),
    out_bufs: &[&str],
) -> (InterpStats, Vec<Vec<f32>>) {
    let mut m = Machine::new();
    setup(&mut m);
    let prog = Arc::new(compile(s));
    let mut vm = prog.machine();
    vm.bind_env(&m.env);
    for (name, buf) in m.fbuffers() {
        vm.set_fbuffer(name, buf.to_vec());
    }
    m.run(s);
    vm.run();
    assert_eq!(m.stats, vm.stats, "instruction-mix statistics diverge");
    let mut outs = Vec::new();
    for name in out_bufs {
        let a = m.fbuffer(name).expect("interp buffer");
        let b = vm.fbuffer(name).expect("vm buffer");
        let ab: Vec<u32> = a.iter().map(|v| v.to_bits()).collect();
        let bb: Vec<u32> = b.iter().map(|v| v.to_bits()).collect();
        assert_eq!(ab, bb, "buffer `{name}` diverges");
        outs.push(b.to_vec());
    }
    (vm.stats, outs)
}

/// The block body of a ragged doubling kernel, outlined: `b` is the
/// (free) block variable, `row` maps blocks to output rows.
pub(super) fn outlined_doubling_body() -> Stmt {
    let idx = Expr::load("row", Expr::var("b")) + Expr::var("i");
    let body = Stmt::store("B", idx.clone(), FExpr::load("A", idx) * 2.0);
    Stmt::loop_("i", Expr::load("lens", Expr::var("b")), body)
}

/// `C[i·n+j] += A[i·k+d] · B[d·n+j]` for the given loop order; the
/// canonical fused-loop shapes (dot for `..d` innermost, saxpy for
/// `..j` innermost).
pub(super) fn gemm_nest(m: i64, k: i64, n: i64, inner_j: bool) -> Stmt {
    let c_idx = Expr::var("i") * n + Expr::var("j");
    let a_idx = Expr::var("i") * k + Expr::var("d");
    let b_idx = Expr::var("d") * n + Expr::var("j");
    let store = Stmt::Store {
        buffer: "C".into(),
        index: c_idx,
        value: FExpr::load("A", a_idx) * FExpr::load("B", b_idx),
        kind: StoreKind::AddAssign,
    };
    if inner_j {
        Stmt::loop_(
            "i",
            Expr::int(m),
            Stmt::loop_("d", Expr::int(k), Stmt::loop_("j", Expr::int(n), store)),
        )
    } else {
        Stmt::loop_(
            "i",
            Expr::int(m),
            Stmt::loop_("j", Expr::int(n), Stmt::loop_("d", Expr::int(k), store)),
        )
    }
}
