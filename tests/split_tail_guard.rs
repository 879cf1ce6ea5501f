//! Regression: a *non-dividing* constant split keeps one tail guard, and
//! that guard is over variables that exist.
//!
//! Lowering used to build the guard from the pre-split variable
//! (`if (r < 10)` under `for r_o … for r_i`), which the same directive
//! retires, so every execution tier panicked `unbound variable `r``. The
//! guard is now built from the rebuilt index (`r_o*4 + r_i < 10`) and
//! follows its loops through later splits.

use cora::core::prelude::*;
use cora::transformer::encoder_compiled::proj_operator;

const K: usize = 4;
const N: usize = 4;

fn inputs(rows: usize) -> [(&'static str, Vec<f32>); 2] {
    let data = |len: usize, seed: f32| (0..len).map(|x| (x as f32 * seed).sin()).collect();
    [("In", data(rows * K, 0.37)), ("W", data(K * N, 0.11))]
}

fn bits(output: &[f32]) -> Vec<u32> {
    output.iter().map(|v| v.to_bits()).collect()
}

/// Runs `op` on the interpreter, the VM and the parallel VM; checks the
/// three agree bit for bit (output and statistics), that the verifier
/// proves the outlined body over `blocks` blocks, and returns the output.
fn run_on_every_tier(op: &Operator, rows: usize, guards: usize, blocks: usize) -> Vec<u32> {
    let program = lower(op).expect("legal schedule");
    assert_eq!(
        program.stmt().count_guards(),
        guards,
        "{}",
        program.c_source()
    );
    let inputs = inputs(rows);
    let interp = program.run(&inputs);
    let vm = program.run_compiled(&inputs);
    let parallel = program
        .run_compiled_parallel(&CpuPool::new(2), &inputs)
        .expect("the block axis outlines and verifies");
    assert_eq!(bits(&vm.output), bits(&interp.output), "VM output");
    assert_eq!(bits(&parallel.output), bits(&interp.output), "parallel");
    assert_eq!(vm.stats, interp.stats, "VM statistics");
    assert_eq!(parallel.stats, interp.stats, "parallel statistics");
    let compiled = program.compile();
    let session = compiled.parallel_session().expect("verifies");
    let outcome = session.as_ref().expect("outlined").verify_outcome();
    assert_eq!(outcome.n_blocks, blocks);
    bits(&interp.output)
}

#[test]
fn non_dividing_constant_split_matches_the_unsplit_operator_on_every_tier() {
    for (rows, factor) in [(10usize, 4usize), (10, 3), (7, 8)] {
        // `proj_operator` binds `r` to `blockIdx.x`; the split comes after.
        let unsplit = run_on_every_tier(&proj_operator("p", rows, K, N), rows, 0, rows);
        let mut op = proj_operator("p", rows, K, N);
        op.schedule_mut().split("r", factor);
        let split = run_on_every_tier(&op, rows, 1, rows.div_ceil(factor));
        assert_eq!(split, unsplit, "rows {rows} split by {factor}");
    }
}

#[test]
fn a_pending_tail_guard_follows_its_loop_through_a_second_split() {
    // r (10) → r_o (3) × r_i (4), guarded; then r_o (3) → r_o_o (2) ×
    // r_o_i (2), guarded too: the first guard must now read r_o through
    // its halves, and neither may replace the other.
    let rows = 10;
    let unsplit = run_on_every_tier(&proj_operator("p", rows, K, N), rows, 0, rows);
    let mut op = proj_operator("p", rows, K, N);
    op.schedule_mut().split("r", 4).split("r_o", 2);
    assert_eq!(run_on_every_tier(&op, rows, 2, 2), unsplit);
}
