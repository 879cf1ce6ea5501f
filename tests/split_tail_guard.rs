//! Regression: a *non-dividing* constant split keeps one tail guard, and
//! that guard is over variables that exist.
//!
//! Lowering used to build the guard from the pre-split variable
//! (`if (r < 10)` under `for r_o … for r_i`), which the same directive
//! retires, so every execution tier panicked `unbound variable `r``. The
//! guard is now built from the rebuilt index (`r_o*4 + r_i < 10`) and
//! follows its loops through later splits.
//!
//! Regression: splitting a *fused* loop keeps its extent over the
//! parameter the prelude binds.
//!
//! Lowering used to rename the extent parameter with the loop
//! (`o_i_f_o < F_o_i_f_o`), and the prelude binds only `F_o_i_f`, so
//! every tier panicked `unbound variable `F_o_i_f_o``. The outer half's
//! extent is now the expression `F_o_i_f / k`.
//!
//! Regression: splitting the loop a vloop's extent depends on rewrites
//! the extent's table index.
//!
//! Lowering used to keep the extent reading the retired variable
//! (`split("hr", 4)` on `row_max` emitted `row_max__ext_j[hr]` under
//! `for hr_o … for hr_i`), so the interpreter panicked `unbound
//! variable`, the verifier could not bound the extent and block costs
//! fell back to the table maximum. The extent's index is now an
//! expression that splits and fusions rewrite like any other index.

use std::rc::Rc;

use cora::core::prelude::*;
use cora::ragged::{Dim, RaggedLayout};
use cora::transformer::encoder_compiled::{proj_operator, stage, Attend, Geometry};
use cora::transformer::EncoderConfig;

const K: usize = 4;
const N: usize = 4;

fn data(len: usize, seed: f32) -> Vec<f32> {
    (0..len).map(|x| (x as f32 * seed).sin()).collect()
}

fn inputs(rows: usize) -> [(&'static str, Vec<f32>); 2] {
    [("In", data(rows * K, 0.37)), ("W", data(K * N, 0.11))]
}

fn bits(output: &[f32]) -> Vec<u32> {
    output.iter().map(|v| v.to_bits()).collect()
}

/// Runs `op` on the interpreter, the VM and the parallel VM; checks the
/// three agree bit for bit (output and statistics), that the verifier
/// proves the outlined body over `blocks` blocks, and returns the output.
fn run_on_every_tier(op: &Operator, rows: usize, guards: usize, blocks: usize) -> Vec<u32> {
    run_with_inputs(op, &inputs(rows), guards, blocks)
}

/// [`run_on_every_tier`] over the given input buffers.
fn run_with_inputs(
    op: &Operator,
    inputs: &[(&str, Vec<f32>)],
    guards: usize,
    blocks: usize,
) -> Vec<u32> {
    let program = lower(op).expect("legal schedule");
    assert_eq!(
        program.stmt().count_guards(),
        guards,
        "{}",
        program.c_source()
    );
    let interp = program.run(inputs);
    let vm = program.run_compiled(inputs);
    let parallel = program
        .run_compiled_parallel(&CpuPool::new(2), inputs)
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

/// `B[o, i] = 2·A[o, i]` over the first `lens.len()` rows of tensors
/// laid out with `storage` row lengths — rows past the loops are the
/// storage a bulk-padded fused loop's virtual iterations land in.
fn doubling_operator(lens: &[usize], storage: &[usize]) -> Operator {
    let tensor = |name: &str| {
        let batch = Dim::new("batch");
        let layout = RaggedLayout::builder()
            .cdim(batch.clone(), storage.len())
            .vdim(Dim::new("len"), &batch, storage.to_vec())
            .build()
            .expect("a legal layout");
        TensorRef::new(name, layout)
    };
    let (a, out) = (tensor("A"), tensor("B"));
    let a2 = a.clone();
    let body: BodyFn = Rc::new(move |args| a2.at(args) * 2.0);
    let loops = vec![
        LoopSpec::fixed("o", lens.len()),
        LoopSpec::variable("i", 0, lens.to_vec()),
    ];
    Operator::new("doubling", loops, vec![], out, vec![a], body)
}

#[test]
fn split_fused_loop_matches_the_unsplit_fused_operator_on_every_tier() {
    // Rows that are multiples of the factor: F = 16, four blocks of four,
    // none straddling a row, so the verifier proves the outlined body.
    let lens = [4usize, 8, 4];
    let input = [("A", data(16, 0.37))];
    let fused = |split: bool| {
        let mut op = doubling_operator(&lens, &lens);
        let schedule = op.schedule_mut();
        schedule.fuse_loops("o", "i").bulk_pad("o_i_f", 4);
        if split {
            schedule
                .split("o_i_f", 4)
                .bind("o_i_f_o", ForKind::GpuBlockX);
        } else {
            schedule.bind("o_i_f", ForKind::GpuBlockX);
        }
        op
    };
    let unsplit = run_with_inputs(&fused(false), &input, 0, 16);
    let split = run_with_inputs(&fused(true), &input, 0, 16 / 4);
    assert_eq!(split, unsplit);
    let source = lower(&fused(true)).expect("legal schedule").c_source();
    assert!(source.contains("F_o_i_f/4"), "{source}");
}

#[test]
fn split_fused_loop_covers_its_bulk_padding() {
    // F = 7 pads to 8: the eighth iteration is a virtual row, landing in
    // the spare third row of the storage. Serial tiers only — a block
    // that straddles rows is beyond the verifier's table reasoning.
    let (lens, storage) = ([4usize, 3], [4usize, 3, 1]);
    let input = [("A", data(8, 0.37))];
    let run = |factors: &[usize]| {
        let mut op = doubling_operator(&lens, &storage);
        let schedule = op.schedule_mut();
        schedule.fuse_loops("o", "i").bulk_pad("o_i_f", 4);
        // Each split applies to the outer half of the one before.
        let mut name = String::from("o_i_f");
        for &factor in factors {
            schedule.split(name.clone(), factor);
            name.push_str("_o");
        }
        let program = lower(&op).expect("legal schedule");
        let (interp, vm) = (program.run(&input), program.run_compiled(&input));
        assert_eq!(bits(&vm.output), bits(&interp.output), "{factors:?}");
        assert_eq!(vm.stats, interp.stats, "{factors:?}");
        assert_eq!(interp.stats.stores, 8, "{factors:?}");
        bits(&interp.output)
    };
    let unsplit = run(&[]);
    assert_eq!(run(&[4]), unsplit);
    assert_eq!(run(&[2]), unsplit);
    // A second split divides the same parameter again: `F_o_i_f / 4`.
    assert_eq!(run(&[2, 2]), unsplit);
}

#[test]
fn splitting_the_loop_a_vloop_depends_on_rewrites_the_extent_index() {
    // 16 rows × 8 heads = 128 `(head, row)` blocks: 4 divides them and
    // 3 does not; `head_rows` is a shape parameter, so both splits keep
    // one tail guard. The last group of rows straddles the 7-row and the
    // 1-row sequence: a bound on its reads of `S` from the group's widest
    // base plus its longest row runs past the scores.
    let cfg = EncoderConfig::scaled(8);
    let lens = [5usize, 0, 3, 7, 1];
    let head_rows = cfg.heads * lens.iter().sum::<usize>();
    for attend in [Attend::Full, Attend::Causal] {
        let geometry = Geometry::new(&cfg, &lens, attend);
        let row_max = || stage("row_max").expect("a stage").operator(&geometry);
        // Every row's keys, as the per-block proof bounds them.
        let required_s = |op: &Operator| {
            let compiled = lower(op).expect("legal schedule").compile();
            let prep = compiled.parallel_prep_at_grain(1).expect("verifies");
            prep.expect("outlined")
                .verify_outcome()
                .required_input_len("S")
        };
        let scores_len = required_s(&row_max()).expect("reads S");
        let input = [("S", data(scores_len as usize, 0.37))];
        let want = run_with_inputs(&row_max(), &input, 0, head_rows);
        for factor in [4usize, 3] {
            let mut op = row_max();
            op.schedule_mut().split("hr", factor);
            let source = lower(&op).expect("legal schedule").c_source();
            assert!(
                source.contains(&format!("row_max__ext_j[((hr_o*{factor}) + hr_i)]")),
                "{source}"
            );
            let blocks = head_rows.div_ceil(factor);
            assert_eq!(
                run_with_inputs(&op, &input, 1, blocks),
                want,
                "{attend:?} / {factor}"
            );
            // A block is `factor` rows of two tables read at one row
            // index: only the correlated-pair rule bounds its reads of
            // `S` by the rows' own extents, as exactly as one row's.
            let need = required_s(&op);
            assert_eq!(need, Some(scores_len), "{attend:?} / {factor}");
        }
    }
}
