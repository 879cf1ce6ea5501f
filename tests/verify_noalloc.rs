//! Allocation guard for the verifier's per-shape walk.
//!
//! The safety proof runs once per block value per unseen shape, so its
//! per-block cost is what a cold shape pays. `ProofProgram::walk` sizes
//! every piece of state up front; this test pins that `ProofWalk::block`
//! then never touches the allocator — not for the block's environment,
//! not for guard narrowing, not for recording store regions.
//!
//! One `#[test]` only: the counters of the instrumented allocator are
//! process-wide, so nothing else may run beside the measured region.

use std::alloc::System;
use std::sync::Arc;

use stats_alloc::{Region, Stats, StatsAlloc, INSTRUMENTED_SYSTEM};

use cora::core::prelude::*;
use cora::core::verify::{ProofProgram, VerifyCtx};
use cora::ir::{Env, Stmt};
use cora::transformer::autotune::stage_operator;
use cora::transformer::EncoderConfig;

#[global_allocator]
static GLOBAL: &StatsAlloc<System> = &INSTRUMENTED_SYSTEM;

/// Walks block values `0 .. n_blocks` of an outlined `body`, returning
/// the allocator calls made by all `block` calls together.
fn walk_blocks(body: &Stmt, block_var: &str, n_blocks: usize, ctx: &VerifyCtx<'_>) -> Stats {
    let proof = ProofProgram::build(body, block_var, ctx.output);
    let mut walk = proof.walk(ctx, n_blocks);
    let region = Region::new(GLOBAL);
    for b in 0..n_blocks {
        walk.block(b as i64).expect("block verifies");
    }
    let change = region.change();
    let outcome = walk.finish().expect("blocks are disjoint");
    assert_eq!(outcome.n_blocks, n_blocks);
    change
}

#[test]
fn per_block_walk_never_allocates() {
    // Zero- and one-length rows first: later blocks reach deeper into
    // the body than the first one does.
    let lens = [0usize, 1, 9, 4, 0, 17, 6, 3, 12, 1];

    // Guarded: `for i in 0..24 { if i < lens[b] { out[row[b] + i] = A[..] } }`,
    // a `pad_loop`-shaped stage whose guard survives elision — every
    // block narrows `i` through the guard and restores it.
    let mut env = Env::new();
    let row: Vec<i64> = (lens.iter())
        .scan(0, |at, &l| Some(std::mem::replace(at, *at + l as i64)))
        .collect();
    env.set_buffer("row", row);
    env.set_buffer("lens", lens.iter().map(|&l| l as i64).collect::<Vec<i64>>());
    let idx = Expr::load("row", Expr::var("b")) + Expr::var("i");
    let guarded = Stmt::loop_(
        "i",
        Expr::int(24),
        Stmt::if_then(
            Expr::var("i").lt(Expr::load("lens", Expr::var("b"))),
            Stmt::store("out", idx.clone(), FExpr::load("A", idx) * 2.0),
        ),
    );
    let ctx = VerifyCtx {
        env: &env,
        scalars: &[],
        output: "out",
        output_size: lens.iter().sum(),
    };
    let change = walk_blocks(&guarded, "b", lens.len(), &ctx);
    assert_eq!(change, Stats::default(), "guarded pad_loop-shaped stage");

    // Unguarded: the encoder's attention-scores stage as lowered, with
    // its prelude tables bound the way `parallel_prep` binds them.
    let cfg = EncoderConfig::scaled(8);
    let scores = stage_operator("scores", &cfg, &lens).expect("a table stage");
    let program = lower(&scores).expect("legal schedule");
    let o = outline(program.stmt(), program.output_name())
        .expect("outlinable")
        .expect("block axis bound");
    assert!(o.hoisted.is_empty(), "no host bindings to evaluate");
    let data = program.prelude_spec().build();
    let mut env = Env::new();
    for (name, table) in &data.int_buffers {
        env.set_buffer(name.clone(), Arc::clone(table));
    }
    for (name, v) in &data.params {
        env.bind(name.clone(), *v);
    }
    assert_eq!(env.eval(&o.min), 0);
    let n_blocks = usize::try_from(env.eval(&o.extent)).expect("non-negative extent");
    assert!(n_blocks > lens.len(), "one block per (head, row)");
    let ctx = VerifyCtx {
        env: &env,
        scalars: &data.params,
        output: program.output_name(),
        output_size: program.output_size(),
    };
    let change = walk_blocks(&o.body, &o.block_var, n_blocks, &ctx);
    assert_eq!(change, Stats::default(), "unguarded scores stage");
}
