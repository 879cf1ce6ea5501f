//! Differential properties of the fully compiled encoder layer: across
//! random ragged batches (including 0- and 1-length sequences), hidden
//! sizes and head counts, [`CompiledEncoderLayer`] must
//!
//! * match the hand-written reference `encoder_layer_ragged` within
//!   tight tolerance (the compiled operators replay the reference
//!   kernels' loop orders, so the drift is a few ULPs),
//! * produce bit-identical outputs serially and at 1, 2 and 8 workers
//!   on both pool backends, and
//! * report per-stage `InterpStats` whose parallel (per-worker-summed)
//!   values equal the serial run's exactly.
//!
//! The same table under `Attend::Causal` — the masked-MHA block — is
//! held to `masked_mha_ragged` the same way, plus the property that
//! defines it: no token's output depends on a later token.
//!
//! The encoder pipeline is the paper's end-to-end artifact; this suite
//! is what locks it to the reference implementation.

use proptest::prelude::*;

use cora::exec::{CpuPool, MathMode};
use cora::transformer::encoder_compiled::CompiledEncoderLayer;
use cora::transformer::masked_mha::masked_mha_ragged;
use cora::transformer::{
    encoder_layer_ragged, masked_mha_compiled, EncoderConfig, EncoderWeights, RaggedBatch,
};

fn small_config(heads: usize, head_dim: usize, ff_mult: usize) -> EncoderConfig {
    EncoderConfig {
        hidden: heads * head_dim,
        heads,
        head_dim,
        ff: heads * head_dim * ff_mult,
        layers: 1,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random raggedness (0-/1-length sequences included) × model shape:
    /// the compiled pipeline matches the reference kernels, parallel
    /// runs are bit-identical to serial at every worker count on both
    /// backends, and per-stage statistics sum exactly.
    #[test]
    fn compiled_encoder_layer_matches_reference(
        lens in prop::collection::vec(0usize..7, 1..5),
        heads_idx in 0usize..3,
        head_dim_idx in 0usize..3,
        ff_mult in 1usize..3,
        seed in 0u64..1000,
    ) {
        let heads = [1usize, 2, 4][heads_idx];
        let head_dim = [2usize, 4, 8][head_dim_idx];
        let cfg = small_config(heads, head_dim, ff_mult);
        let w = EncoderWeights::random(&cfg, seed);
        let x = RaggedBatch::random(&lens, cfg.hidden, seed.wrapping_add(1));
        let rows: usize = lens.iter().sum();

        let reference = encoder_layer_ragged(&CpuPool::new(4), &cfg, &w, &x);
        let layer = CompiledEncoderLayer::build(&cfg, &lens).expect("legal schedules");
        let mut session = layer.session().expect("stages outline");

        // Serial compiled run vs reference kernels: tight tolerance.
        let serial = session.run(None, &w, &x);
        prop_assert_eq!(serial.output.len(), reference.data.len());
        let worst = reference
            .data
            .iter()
            .zip(&serial.output)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        prop_assert!(
            worst < 1e-3,
            "compiled layer diverges from reference by {} (rows = {})",
            worst,
            rows
        );

        // Parallel runs: bit-identical outputs, exactly equal per-stage
        // statistics, across worker counts.
        for workers in [1usize, 2, 8] {
            let pool = CpuPool::new(workers);
            let par = session.run(Some(&pool), &w, &x);
            let sb: Vec<u32> = serial.output.iter().map(|v| v.to_bits()).collect();
            let pb: Vec<u32> = par.output.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(sb, pb, "parallel output diverges at {} workers", workers);
            prop_assert_eq!(par.stages.len(), serial.stages.len());
            for (p, s) in par.stages.iter().zip(&serial.stages) {
                prop_assert_eq!(&p.label, &s.label);
                prop_assert_eq!(
                    p.stats, s.stats,
                    "stage `{}` stats diverge at {} workers",
                    p.label, workers
                );
            }
            prop_assert_eq!(par.total_stats(), serial.total_stats());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Strict vs Fast differential across random ragged batches
    /// (0-/1-length sequences included): a Fast-mode layer stays within
    /// the compounded microkernel tolerances of both the Strict run and
    /// the hand-written reference, and Fast is deterministic — parallel
    /// runs are bit-identical to the Fast serial run.
    #[test]
    fn fast_encoder_layer_matches_strict_within_tolerance(
        lens in prop::collection::vec(0usize..7, 1..5),
        heads_idx in 0usize..3,
        head_dim_idx in 0usize..3,
        seed in 0u64..1000,
    ) {
        let heads = [1usize, 2, 4][heads_idx];
        let head_dim = [2usize, 4, 8][head_dim_idx];
        let cfg = small_config(heads, head_dim, 2);
        let w = EncoderWeights::random(&cfg, seed);
        let x = RaggedBatch::random(&lens, cfg.hidden, seed.wrapping_add(1));

        let strict = CompiledEncoderLayer::build(&cfg, &lens).expect("legal schedules");
        let fast = CompiledEncoderLayer::build_with_math(&cfg, &lens, MathMode::Fast)
            .expect("legal schedules");
        prop_assert_eq!(strict.math_mode(), MathMode::Strict);
        prop_assert_eq!(fast.math_mode(), MathMode::Fast);

        let mut s_session = strict.session().expect("stages outline");
        let mut f_session = fast.session().expect("stages outline");
        let s_out = s_session.run(None, &w, &x);
        let f_out = f_session.run(None, &w, &x);
        prop_assert_eq!(s_out.output.len(), f_out.output.len());

        // Layer-norm at the end keeps outputs O(1), so an absolute bound
        // covers the compounded per-op tolerances across all 21 stages.
        let worst = s_out
            .output
            .iter()
            .zip(&f_out.output)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        prop_assert!(
            worst < 5e-3,
            "fast layer diverges from strict by {}", worst
        );
        let reference = encoder_layer_ragged(&CpuPool::new(4), &cfg, &w, &x);
        let worst_ref = reference
            .data
            .iter()
            .zip(&f_out.output)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        prop_assert!(
            worst_ref < 5e-3,
            "fast layer diverges from reference by {}", worst_ref
        );

        // Stats are static metadata: mode must not change the charge.
        prop_assert_eq!(s_out.total_stats(), f_out.total_stats());

        // Fast is deterministic: parallel == serial, bit for bit.
        for workers in [2usize, 8] {
            let pool = CpuPool::new(workers);
            let par = f_session.run(Some(&pool), &w, &x);
            let fb: Vec<u32> = f_out.output.iter().map(|v| v.to_bits()).collect();
            let pb: Vec<u32> = par.output.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(
                fb, pb,
                "fast parallel output diverges at {} workers", workers
            );
        }
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The causal variant of the stage table (masked MHA: the attention
    /// prefix under `Attend::Causal` plus the output bias), across
    /// random raggedness (0-/1-length sequences included) × heads:
    /// matches the hand-written `masked_mha_ragged`, is triangular and
    /// proven block-parallel, runs bit-identically serially and at 1, 2
    /// and 8 workers, and never lets a later token reach an earlier one.
    #[test]
    fn causal_masked_mha_matches_reference_and_never_leaks(
        lens in prop::collection::vec(0usize..7, 1..5),
        heads_idx in 0usize..3,
        head_dim_idx in 0usize..3,
        seed in 0u64..1000,
    ) {
        let heads = [1usize, 2, 4][heads_idx];
        let head_dim = [2usize, 4, 8][head_dim_idx];
        let cfg = small_config(heads, head_dim, 1);
        let h = cfg.hidden;
        let w = EncoderWeights::random(&cfg, seed);
        let x = RaggedBatch::random(&lens, h, seed.wrapping_add(1));
        let rows: usize = lens.iter().sum();

        let reference = masked_mha_ragged(&CpuPool::new(4), &cfg, &w, &x);
        let layer = CompiledEncoderLayer::build_masked_mha(&cfg, &lens).expect("legal schedules");
        let mut session = layer.session().expect("stages outline");
        let serial = session.run(None, &w, &x);
        prop_assert_eq!(serial.output.len(), reference.len());
        let worst = reference
            .iter()
            .zip(&serial.output)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        prop_assert!(
            worst < 1e-3,
            "compiled masked MHA diverges from reference by {} (rows = {})",
            worst,
            rows
        );

        // Triangular and block-bound: the score stage stores `pos + 1`
        // entries per (head, row), and every stage carries a proof for
        // the parallel tier — one block per (head, row) in attention.
        if let Some(pipeline) = layer.pipeline() {
            let triangle: usize = lens.iter().map(|l| l * (l + 1) / 2).sum();
            let (_, scores) = pipeline
                .stage_programs()
                .find(|(label, _)| *label == "scores")
                .expect("the attention prefix has a score stage");
            prop_assert_eq!(scores.output_size(), heads * triangle);
            for (label, outcome) in session.verify_outcomes() {
                let outcome = outcome.expect("every stage binds a block axis");
                if label == "scores" {
                    prop_assert_eq!(outcome.n_blocks, heads * rows);
                }
            }
        }

        // Serial, every worker count, session reuse and the one-shot
        // convenience: bit-identical outputs, equal statistics.
        for workers in [1usize, 2, 8] {
            let pool = CpuPool::new(workers);
            let par = session.run(Some(&pool), &w, &x);
            prop_assert_eq!(
                bits(&par.output), bits(&serial.output),
                "parallel output diverges at {} workers", workers
            );
            prop_assert_eq!(par.total_stats(), serial.total_stats());
        }
        let one_shot = masked_mha_compiled(&CpuPool::new(2), &cfg, &w, &x);
        prop_assert_eq!(bits(&one_shot), bits(&serial.output));

        // Causality: perturb the last token of the first non-empty
        // sequence. Only that token's own row may change — not the
        // earlier rows of its sequence, not any other sequence.
        if let Some(s) = lens.iter().position(|&l| l > 0) {
            let last = x.row_offset(s) + lens[s] - 1;
            let mut moved = x.clone();
            for v in &mut moved.data[last * h..(last + 1) * h] {
                *v += 1.0;
            }
            let y = session.run(None, &w, &moved).output;
            let (before, own, after) = (..last * h, last * h..(last + 1) * h, (last + 1) * h..);
            prop_assert_eq!(
                bits(&y[before]), bits(&serial.output[before]),
                "future tokens must not leak"
            );
            prop_assert_eq!(bits(&y[after.clone()]), bits(&serial.output[after]));
            prop_assert_ne!(bits(&y[own.clone()]), bits(&serial.output[own]));
        }
    }
}

/// The session is shape-keyed: one build serves repeated calls (layers)
/// with different weights, with no recompilation — and results equal a
/// freshly built layer's.
#[test]
fn session_reuse_across_layers_matches_fresh_builds() {
    let cfg = small_config(4, 4, 2);
    let lens = vec![6usize, 0, 2, 1];
    let x = RaggedBatch::random(&lens, cfg.hidden, 11);
    let pool = CpuPool::new(4);
    let layer = CompiledEncoderLayer::build(&cfg, &lens).unwrap();
    let mut session = layer.session().unwrap();
    let mut activations = x.clone();
    for layer_idx in 0..3 {
        let w = EncoderWeights::random(&cfg, 100 + layer_idx);
        let out = session.forward(&pool, &w, &activations);
        // A freshly compiled layer agrees bit-for-bit.
        let fresh =
            CompiledEncoderLayer::build(&cfg, &lens)
                .unwrap()
                .forward(&pool, &w, &activations);
        assert_eq!(out, fresh, "layer {layer_idx} diverges from fresh build");
        activations = RaggedBatch {
            lens: lens.clone(),
            data: out,
            hidden: cfg.hidden,
        };
    }
}

/// Zero-row batches flow through the whole stack.
#[test]
fn empty_batch_round_trips() {
    let cfg = small_config(2, 4, 2);
    let lens = vec![0usize, 0, 0];
    let w = EncoderWeights::random(&cfg, 3);
    let x = RaggedBatch::random(&lens, cfg.hidden, 4);
    let reference = encoder_layer_ragged(&CpuPool::new(2), &cfg, &w, &x);
    assert!(reference.data.is_empty());
    let layer = CompiledEncoderLayer::build(&cfg, &lens).unwrap();
    let mut session = layer.session().unwrap();
    assert!(session.forward(&CpuPool::new(2), &w, &x).is_empty());
    assert!(session.forward_serial(&w, &x).is_empty());
}
