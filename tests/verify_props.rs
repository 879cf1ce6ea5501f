//! Adversarial and differential properties of the safety verifier.
//!
//! The old outlining screen was syntactic: a store was accepted if its
//! index *mentioned* a block-derived variable. That predicate has false
//! negatives — indices that mention the block variable yet collide
//! across blocks. Each adversarial program below passes the syntactic
//! screen and must be rejected by the verifier (symbolically at outline
//! time for shape-independent violations, concretely at session time
//! otherwise), with a diagnostic naming the offending store.
//!
//! The differential half is the converse obligation: every program the
//! verifier *accepts* must also satisfy the dynamic per-element
//! owning-block tracker (active in debug builds), i.e. the static proof
//! and the runtime oracle must never disagree in either direction.

use std::rc::Rc;

use proptest::prelude::*;

use cora::core::prelude::*;
use cora::core::verify::{tile_grain, verify_outlined, ProofProgram, VerifyCtx, VerifyError};
use cora::ir::interval::SInt;
use cora::ir::{Env, ForKind, Stmt};
use cora::ragged::{Dim, RaggedLayout};
use cora::transformer::encoder_compiled::Attend;
use cora::transformer::{CompiledEncoderLayer, EncoderConfig};

// ---------------------------------------------------------------------
// Adversarial: pass the syntactic screen, rejected by the verifier
// ---------------------------------------------------------------------

/// Outlines a hand-built block program, asserting the *syntactic* part
/// of the pipeline accepted it (any error must come from the verifier,
/// not the taint screen), then runs the concrete verifier.
#[allow(clippy::result_large_err)] // witness-rich error, cold path
fn outline_then_verify(
    stmt: &Stmt,
    env: &Env,
    n_blocks: usize,
    output_size: usize,
) -> Result<cora::core::verify::VerifyOutcome, VerifyError> {
    let o = outline(stmt, "out")
        .expect("the syntactic screen must accept this program")
        .expect("a block axis exists");
    let ctx = VerifyCtx {
        env,
        scalars: &[],
        output: "out",
        output_size,
    };
    verify_outlined(&o.body, &o.block_var, 0, n_blocks, &ctx)
}

#[test]
fn cancelled_coefficient_is_rejected_symbolically() {
    // out[b - b + i]: mentions `b`, so the taint screen passes; the
    // linear form has block coefficient 0, so every block writes
    // out[0..4]. Rejected at outline time, for every shape.
    let s = Stmt::loop_kind(
        "b",
        Expr::int(3),
        ForKind::GpuBlockX,
        Stmt::loop_(
            "i",
            Expr::int(4),
            Stmt::store(
                "out",
                Expr::var("b") - Expr::var("b") + Expr::var("i"),
                FExpr::constant(1.0),
            ),
        ),
    );
    let msg = outline(&s, "out").unwrap_err().to_string();
    assert!(msg.contains("coefficient 0"), "symbolic rejection: {msg}");
    assert!(msg.contains("out["), "cites the store: {msg}");
}

#[test]
fn multiplied_out_coefficient_is_rejected_symbolically() {
    // out[b*0 + i]: same cancellation through a multiplication.
    let s = Stmt::loop_kind(
        "b",
        Expr::int(3),
        ForKind::GpuBlockX,
        Stmt::loop_(
            "i",
            Expr::int(4),
            #[allow(clippy::erasing_op)] // the cancellation is the point
            Stmt::store(
                "out",
                Expr::var("b") * 0 + Expr::var("i"),
                FExpr::constant(1.0),
            ),
        ),
    );
    let msg = outline(&s, "out").unwrap_err().to_string();
    assert!(msg.contains("coefficient 0"), "symbolic rejection: {msg}");
}

#[test]
fn modulo_collision_is_rejected_concretely() {
    // out[b mod 2] with 4 blocks: blocks 0 and 2 both write out[0].
    // Symbolically opaque (the modulo mentions `b`), so the screen and
    // the linear-form pass both accept; the concrete interpretation
    // catches the collision with block witnesses.
    let s = Stmt::loop_kind(
        "b",
        Expr::int(4),
        ForKind::GpuBlockX,
        Stmt::store(
            "out",
            Expr::var("b").floor_mod(Expr::int(2)),
            FExpr::constant(1.0),
        ),
    );
    let err = outline_then_verify(&s, &Env::new(), 4, 4).unwrap_err();
    match &err {
        VerifyError::StoreOverlap {
            block_a, block_b, ..
        } => assert_eq!((*block_a, *block_b), (0, 2), "witness blocks"),
        other => panic!("expected StoreOverlap, got {other:?}"),
    }
    assert!(err.to_string().contains("same output elements"), "{err}");
}

#[test]
fn aliasing_indirection_table_is_rejected_concretely() {
    // out[map[b]] where the table aliases: map = [0, 1, 0, 2]. The index
    // depends on `b` through a load — exactly the shape of a legitimate
    // row-offset table — but *this* table's contents collide. Only
    // grounding the load in the built prelude data can tell the two
    // apart.
    let mut env = Env::new();
    env.set_buffer("map", vec![0i64, 1, 0, 2]);
    let s = Stmt::loop_kind(
        "b",
        Expr::int(4),
        ForKind::GpuBlockX,
        Stmt::store(
            "out",
            Expr::load("map", Expr::var("b")),
            FExpr::constant(1.0),
        ),
    );
    let err = outline_then_verify(&s, &env, 4, 4).unwrap_err();
    match &err {
        VerifyError::StoreOverlap {
            block_a, block_b, ..
        } => assert_eq!((*block_a, *block_b), (0, 2)),
        other => panic!("expected StoreOverlap, got {other:?}"),
    }
}

#[test]
fn coarsened_block_quotient_is_rejected_concretely() {
    // out[(b div 2)*4 + i]: blocks 0 and 1 both own row 0. The quotient
    // mentions `b`, so the screen passes; intervals catch the overlap.
    let s = Stmt::loop_kind(
        "b",
        Expr::int(4),
        ForKind::GpuBlockX,
        Stmt::loop_(
            "i",
            Expr::int(4),
            Stmt::store(
                "out",
                Expr::var("b").floor_div(Expr::int(2)) * 4 + Expr::var("i"),
                FExpr::constant(1.0),
            ),
        ),
    );
    let err = outline_then_verify(&s, &Env::new(), 4, 8).unwrap_err();
    assert!(matches!(err, VerifyError::StoreOverlap { .. }), "{err}");
}

#[test]
fn stride_narrower_than_row_width_is_rejected_concretely() {
    // out[b*3 + i] with rows of width 5: block b writes [3b, 3b+4],
    // which overlaps block b+1's [3b+3, ...]. Affine, block-dependent,
    // in-bounds — wrong purely in the stride-vs-width arithmetic.
    let s = Stmt::loop_kind(
        "b",
        Expr::int(3),
        ForKind::GpuBlockX,
        Stmt::loop_(
            "i",
            Expr::int(5),
            Stmt::store(
                "out",
                Expr::var("b") * 3 + Expr::var("i"),
                FExpr::constant(1.0),
            ),
        ),
    );
    let err = outline_then_verify(&s, &Env::new(), 3, 11).unwrap_err();
    match &err {
        VerifyError::StoreOverlap {
            block_a,
            block_b,
            region_a,
            region_b,
            ..
        } => {
            assert_eq!((*block_a, *block_b), (0, 1));
            let msg = err.to_string();
            assert!(
                msg.contains(&region_a.to_string()) && msg.contains(&region_b.to_string()),
                "witness regions shown: {msg}"
            );
        }
        other => panic!("expected StoreOverlap, got {other:?}"),
    }
}

#[test]
fn escaping_offset_table_is_rejected_as_out_of_bounds() {
    // A row-offset program whose table is corrupt: the last row starts
    // at 7 with length 2 but the output has 8 elements. Disjoint, yet
    // out of bounds — the other theorem.
    let mut env = Env::new();
    env.set_buffer("row", vec![0i64, 3, 7]);
    env.set_buffer("lens", vec![3i64, 4, 2]);
    let idx = Expr::load("row", Expr::var("b")) + Expr::var("i");
    let s = Stmt::loop_kind(
        "b",
        Expr::int(3),
        ForKind::GpuBlockX,
        Stmt::loop_(
            "i",
            Expr::load("lens", Expr::var("b")),
            Stmt::store("out", idx, FExpr::constant(1.0)),
        ),
    );
    let err = outline_then_verify(&s, &env, 3, 8).unwrap_err();
    match &err {
        VerifyError::OutOfBounds { buffer, size, .. } => {
            assert_eq!(buffer, "out");
            assert_eq!(*size, 8);
        }
        other => panic!("expected OutOfBounds, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Differential: verifier-accepted programs never trip the tracker
// ---------------------------------------------------------------------

fn ragged_2d(name: &str, lens: &[usize], pad: usize) -> TensorRef {
    let b = Dim::new("batch");
    let l = Dim::new("len");
    TensorRef::new(
        name,
        RaggedLayout::builder()
            .cdim(b.clone(), lens.len())
            .vdim(l, &b, lens.to_vec())
            .pad(pad)
            .build()
            .unwrap(),
    )
}

fn make_op(lens: &[usize], pad: usize) -> Operator {
    let a = ragged_2d("A", lens, pad);
    let out = ragged_2d("B", lens, pad);
    let a2 = a.clone();
    let body: BodyFn = Rc::new(move |args| a2.at(args) * 2.0 + 1.0);
    Operator::new(
        "verifydiff",
        vec![
            LoopSpec::fixed("o", lens.len()),
            LoopSpec::variable("i", 0, lens.to_vec()),
        ],
        vec![],
        out,
        vec![a],
        body,
    )
}

/// `make_op(lens, pad)` under schedule `sched`: the row axis bound to
/// blocks (0), the same heaviest-first (1), padded and split rows (2), or
/// the `(o, i)` nest fused and the fused axis bound (3).
fn scheduled_op(lens: &[usize], pad: usize, sched: usize) -> Operator {
    let mut op = make_op(lens, pad);
    match sched {
        0 => {
            op.schedule_mut().bind("o", ForKind::GpuBlockX);
        }
        1 => {
            op.schedule_mut()
                .bind("o", ForKind::GpuBlockX)
                .thread_remap(RemapPolicy::LongestFirst);
        }
        2 => {
            op.schedule_mut()
                .pad_loop("i", pad)
                .split("i", pad)
                .bind("o", ForKind::GpuBlockX);
        }
        _ => {
            op.schedule_mut()
                .fuse_loops("o", "i")
                .bind("o_i_f", ForKind::GpuBlockX);
        }
    }
    op
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Static/dynamic agreement: for random ragged shapes and block
    /// schedules the verifier accepts — at the tile-grain rule's grain
    /// (with its per-block retry, so always) and at fixed grains 1, 4, 16
    /// and past the block count — parallel execution under the
    /// per-element owning-tile tracker and the store-certificate checks
    /// — both active in debug builds — completes with serial-identical
    /// output and statistics. A tracker or certificate panic here means
    /// the static proof and the runtime oracle disagree. Only the fused
    /// block axis may need blocks proven one at a time: a tile of fused
    /// iterations straddles rows, and its hull covers the next tile's.
    #[test]
    fn verified_programs_never_trip_the_dynamic_tracker(
        lens in prop::collection::vec(0usize..24, 1..7),
        pad in 1usize..5,
        sched in 0usize..4,
    ) {
        let p = lower(&scheduled_op(&lens, pad, sched)).unwrap();
        let compiled = p.compile();
        let input: Vec<f32> = (0..p.output_size())
            .map(|x| x as f32 * 0.25 - 3.0)
            .collect();
        let serial = compiled.run(&[("A", input.clone())]);
        let pool = CpuPool::new(4);
        let rule = compiled
            .parallel_prep()
            .expect("verifier accepts lowered schedules")
            .expect("block axis outlined");
        let n_blocks = rule.verify_outcome().n_blocks;
        let fixed = [1, 4, 16, n_blocks + 1].map(|g| (g, compiled.parallel_prep_at_grain(g)));
        for (grain, prep) in std::iter::once((0, Ok(Some(rule)))).chain(fixed) {
            let prep = match prep {
                Ok(prep) => prep.expect("block axis outlined"),
                Err(e) => {
                    prop_assert!(sched == 3 && grain > 1, "grain {}: {}", grain, e);
                    continue;
                }
            };
            // The proof artifact is well-formed: every certified tile's
            // regions stay inside the output.
            let outcome = prep.verify_outcome();
            prop_assert!(outcome.n_blocks <= lens.len().max(lens.iter().map(|&l| l.max(1)).sum()));
            prop_assert_eq!(outcome.tiles, outcome.n_blocks.div_ceil(outcome.grain));
            for b in 0..outcome.n_blocks as i64 {
                for r in outcome.cert.regions_for(b) {
                    let (lo, hi) = r.hull().expect("certified regions are bounded");
                    prop_assert!(lo >= 0 && hi < p.output_size() as i64);
                }
            }
            let par = compiled.parallel_session_with(&prep).run(&pool, vec![("A", input.clone())]);
            prop_assert_eq!(
                bits(&serial.output), bits(&par.output),
                "verified parallel run at grain {} diverges from serial", outcome.grain
            );
            prop_assert_eq!(&serial.stats, &par.stats);
        }
    }
}

#[test]
fn the_fused_block_axis_proves_through_the_per_block_retry() {
    // 69 fused iterations: the rule's grain is 2. The tile of
    // iterations 42 and 43 straddles the end of the 30-element row: its
    // hull runs from that row's base (13) to the next row's base (43)
    // plus the long row's whole `i` range, past the output — so the
    // session's proof is the per-block one.
    let lens = [13usize, 0, 30, 1, 25];
    let compiled = lower(&scheduled_op(&lens, 1, 3)).unwrap().compile();
    let err = compiled.parallel_prep_at_grain(2).unwrap_err().to_string();
    assert!(
        err.contains("spans [13, 72], escaping the planned size 69"),
        "{err}"
    );
    let prep = compiled.parallel_prep().unwrap().unwrap();
    let outcome = prep.verify_outcome();
    assert_eq!(tile_grain(outcome.n_blocks), 2);
    assert_eq!(
        (outcome.n_blocks, outcome.grain, outcome.tiles),
        (69, 1, 69)
    );
    let input: Vec<f32> = (0..69).map(|x| x as f32 - 30.0).collect();
    let serial = compiled.run(&[("A", input.clone())]);
    let par = compiled
        .parallel_session_with(&prep)
        .run(&CpuPool::new(4), vec![("A", input)]);
    assert_eq!(bits(&par.output), bits(&serial.output));
}

// ---------------------------------------------------------------------
// Correlated table pairs
// ---------------------------------------------------------------------

/// `for b (block) { for j in 0..lens[b] { out[row[b'] + j] = 1 } }`,
/// with `b'` the block variable or `at_row` when given.
fn ragged_rows(at_row: Option<Expr>) -> Stmt {
    let at = at_row.unwrap_or_else(|| Expr::var("b"));
    Stmt::loop_kind(
        "b",
        Expr::int(8),
        ForKind::GpuBlockX,
        Stmt::loop_(
            "j",
            Expr::load("lens", Expr::var("b")),
            Stmt::store(
                "out",
                Expr::load("row", at) + Expr::var("j"),
                FExpr::constant(1.0),
            ),
        ),
    )
}

/// Proves `stmt` over its 8 blocks in tiles of `grain`.
#[allow(clippy::result_large_err)] // witness-rich error, cold path
fn prove_tiles(
    stmt: &Stmt,
    env: &Env,
    grain: usize,
    output_size: usize,
) -> Result<cora::core::verify::VerifyOutcome, VerifyError> {
    let o = outline(stmt, "out").unwrap().expect("a block axis exists");
    let ctx = VerifyCtx {
        env,
        scalars: &[],
        output: "out",
        output_size,
    };
    ProofProgram::build(&o.body, &o.block_var, "out").verify_tiles(0, 8, grain, &ctx)
}

#[test]
fn a_base_table_that_is_not_a_prefix_sum_is_rejected_with_witness_tiles() {
    // Rows of two, but row 4 starts at 7, inside row 3's [6, 7]: the
    // tiles [0, 4) and [4, 8) collide at element 7.
    let mut env = Env::new();
    env.set_buffer("lens", vec![2i64; 8]);
    env.set_buffer("row", vec![0i64, 2, 4, 6, 7, 9, 11, 13]);
    let err = prove_tiles(&ragged_rows(None), &env, 4, 15).unwrap_err();
    match &err {
        VerifyError::StoreOverlap {
            grain,
            block_a,
            block_b,
            region_a,
            region_b,
            ..
        } => {
            assert_eq!((*grain, *block_a, *block_b), (4, 0, 4), "witness tiles");
            // The pair rule bounds each tile by its own rows exactly.
            assert_eq!(
                (*region_a, *region_b),
                (SInt::range(0, 7), SInt::range(7, 14))
            );
        }
        other => panic!("expected StoreOverlap, got {other:?}"),
    }
    assert!(
        err.to_string()
            .contains("tiles of 4 blocks starting at blocks 0 and 4"),
        "{err}"
    );

    // The same collision inside one tile (rows 1 and 2) is no race: one
    // worker runs both rows in order. Per block it is still rejected.
    env.set_buffer("row", vec![0i64, 2, 3, 5, 7, 9, 11, 13]);
    let inside = prove_tiles(&ragged_rows(None), &env, 4, 15).expect("tiles are disjoint");
    assert_eq!(inside.cert.regions_for(1), &[SInt::range(0, 6)]);
    assert!(prove_tiles(&ragged_rows(None), &env, 1, 15).is_err());
}

#[test]
fn a_pair_read_at_two_different_indices_does_not_fire_the_rule() {
    // `out[row[7 − b] + j]` under `for j in 0..lens[b]`: the extent and
    // the base are read at different rows, so row 7 − b's base meets
    // row b's length. Block 0 really stores `row[7] + [0, 4]` = [9, 13],
    // escaping the 10-element output; pairing `row` with `lens` at the
    // access's index would claim `row[7] + [0, 0]` = {9} and accept.
    let mut env = Env::new();
    env.set_buffer("lens", vec![5i64, 1, 1, 1, 1, 1, 1, 1]);
    env.set_buffer("row", vec![0i64, 5, 6, 7, 8, 9, 9, 9]);
    let mirrored = Some(Expr::int(7) - Expr::var("b"));
    for grain in [1, 4] {
        let err = prove_tiles(&ragged_rows(mirrored.clone()), &env, grain, 10).unwrap_err();
        match &err {
            VerifyError::OutOfBounds { buffer, range, .. } => {
                assert_eq!(buffer, "out");
                assert!(range.hull().is_some_and(|(_, hi)| hi >= 13), "{err}");
            }
            other => panic!("expected OutOfBounds, got {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------
// End-to-end: every encoder stage carries a proof
// ---------------------------------------------------------------------

#[test]
fn every_encoder_stage_verifies() {
    let cfg = EncoderConfig::scaled(8);
    let lens = vec![5usize, 0, 3, 1, 7];
    let layer = CompiledEncoderLayer::build(&cfg, &lens).expect("builds");
    let session = layer.session().expect("verifies");
    let outcomes = session.verify_outcomes();
    assert!(!outcomes.is_empty(), "encoder pipeline has stages");
    for (label, o) in &outcomes {
        assert!(o.n_blocks > 0, "stage `{label}` proof covers no blocks");
        assert!(
            o.store_sites > 0,
            "stage `{label}` proof records no store sites"
        );
    }
}

/// Every encoder stage program, under both attention masks, run alone
/// on a 4-worker pool in tiles of 1, 4 and 16 blocks and in one tile of
/// them all — tiles that straddle sequence boundaries, in a batch with
/// zero-length and one-token sequences — matches its serial run bit for
/// bit with equal statistics, under the owning-tile tracker (debug
/// builds).
#[test]
fn every_encoder_stage_runs_as_serially_at_every_grain() {
    let cfg = EncoderConfig::scaled(8);
    let lens = [5usize, 0, 3, 1, 7, 12, 1, 0];
    let pool = CpuPool::new(4);
    for layer in [
        CompiledEncoderLayer::build(&cfg, &lens),
        CompiledEncoderLayer::build_mha(&cfg, &lens, Attend::Causal),
    ] {
        let layer = layer.expect("builds");
        for (label, program) in layer.pipeline().expect("rows").stage_programs() {
            let per_block = program.parallel_prep_at_grain(1).unwrap().unwrap();
            let outcome = per_block.verify_outcome();
            let inputs: Vec<(&str, Vec<f32>)> = (program.input_names().into_iter())
                .map(|name| {
                    let len = outcome.required_input_len(name).unwrap_or(0) as usize;
                    (
                        name,
                        (0..len)
                            .map(|x| 0.5 + (x as f32 * 0.37).sin() / 4.0)
                            .collect(),
                    )
                })
                .collect();
            let serial = program.run(&inputs);
            for grain in [1, 4, 16, outcome.n_blocks + 1] {
                let prep = program.parallel_prep_at_grain(grain);
                let prep = prep.unwrap_or_else(|e| panic!("`{label}` at grain {grain}: {e}"));
                let par = program
                    .parallel_session_with(prep.expect("a parallel stage"))
                    .run(&pool, inputs.clone());
                assert_eq!(
                    bits(&par.output),
                    bits(&serial.output),
                    "`{label}` at grain {grain}"
                );
                assert_eq!(par.stats, serial.stats, "`{label}` at grain {grain}");
            }
        }
    }
}
