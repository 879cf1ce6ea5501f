//! The encoder's shape buckets, the frozen tuner surface, and the
//! alternative schedules kept as test inputs:
//!
//! * **Bucket-key stability** — permuting the sequences of a batch and
//!   resampling each length within its histogram class must map to the
//!   same [`BucketKey`]; crossing a class boundary must not.
//! * **Schedule-variant safety** — every row of
//!   `common/schedule_variants.rs` is bit-identical to its stage's
//!   declared schedule under Strict math, serially and in parallel, on
//!   ragged shapes with 0-/1-length sequences; the verifier accepts it
//!   under every remap policy; and its serial program differs from the
//!   declared one, so it is a real alternative.
//! * **The frozen shim** — `EncoderAutotuner::tuned_layer` compiles
//!   exactly what `CompiledEncoderLayer::build_with_math` compiles, for
//!   any budget, seed or math mode; it reports a hit only for a bucket
//!   the same enabled tuner built in the same math mode; and a server
//!   given an enabled tuner replays `Server::new` byte for byte.

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

use cora::core::autotune::{length_class, BucketKey, TuneBudget};
use cora::core::prelude::*;
use cora::serve::{Arrival, Server, ServerConfig, ServiceModel, TraceConfig, TraceSource};
use cora::transformer::autotune::{bucket_key, stage_operator, EncoderAutotuner};
use cora::transformer::encoder_compiled::CompiledEncoderLayer;
use cora::transformer::{EncoderConfig, EncoderWeights, RaggedBatch};

#[path = "common/schedule_variants.rs"]
mod schedule_variants;
use schedule_variants::{schedule_variants, variant_operator};

fn small_config() -> EncoderConfig {
    EncoderConfig {
        hidden: 8,
        heads: 2,
        head_dim: 4,
        ff: 16,
        layers: 1,
    }
}

/// A deterministic in-class resample: maps `len` to a different length
/// with the same [`length_class`] when the class has more than one
/// member (classes 0 and 1 are singletons).
fn resample_in_class(len: usize, salt: usize) -> usize {
    let class = length_class(len);
    if class <= 1 {
        return len;
    }
    let lo = 1usize << (class - 1);
    let hi = (1usize << class) - 1;
    lo + (len - lo + salt) % (hi - lo + 1)
}

/// Seeded inputs for `compiled`, each sized by the verifier's access
/// hull (`required_input_len`).
fn hull_sized_inputs(compiled: &CompiledProgram, seed: u64) -> Vec<(&str, Vec<f32>)> {
    let prep = compiled
        .parallel_prep()
        .expect("the declared schedule verifies")
        .expect("every stage binds a block axis");
    let mut rng = StdRng::seed_from_u64(seed);
    compiled
        .input_names()
        .into_iter()
        .map(|name| {
            let need = prep.verify_outcome().required_input_len(name).unwrap_or(0);
            let len = need.max(0) as usize;
            (
                name,
                (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
            )
        })
        .collect()
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Every stage's serial program and outlined body, as text.
fn stage_programs(layer: &CompiledEncoderLayer) -> Vec<String> {
    (layer.pipeline().expect("a pipeline"))
        .stage_programs()
        .map(|(label, compiled)| {
            let body = compiled.parallel_body().expect("every stage outlines");
            format!("{label}\n{}== body\n{body}", compiled.vm())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Permutation + in-class resampling invariance of the bucket key.
    #[test]
    fn bucket_key_is_stable_across_permutation_and_resampling(
        lens in prop::collection::vec(0usize..200, 1..12),
        rot in 0usize..12,
        salt in 0usize..100,
    ) {
        let cfg = small_config();
        let key = bucket_key(&cfg, MathMode::Strict, &lens);

        // Any rotation (a permutation) of the batch: same key.
        let mut permuted = lens.clone();
        permuted.rotate_left(rot % lens.len());
        prop_assert_eq!(&bucket_key(&cfg, MathMode::Strict, &permuted), &key);

        // Resampling every length within its class: same key.
        let resampled: Vec<usize> =
            lens.iter().map(|&l| resample_in_class(l, salt)).collect();
        for (&a, &b) in lens.iter().zip(&resampled) {
            prop_assert_eq!(length_class(a), length_class(b));
        }
        prop_assert_eq!(&bucket_key(&cfg, MathMode::Strict, &resampled), &key);

        // Moving one non-empty length across a class boundary: new key.
        if let Some(pos) = lens.iter().position(|&l| l > 0) {
            let mut crossed = lens.clone();
            crossed[pos] = 1usize << length_class(crossed[pos]); // next class
            prop_assert_ne!(&bucket_key(&cfg, MathMode::Strict, &crossed), &key);
        }

        // The generic key agrees with permutation invariance too.
        prop_assert_eq!(BucketKey::new("m", &lens), BucketKey::new("m", &permuted));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Every schedule variant computes its stage's declared output bit
    /// for bit under Strict math, serially and on a 2-thread pool.
    #[test]
    fn every_enumerated_schedule_is_bit_identical_strict(
        lens in prop::collection::vec(0usize..6, 0..3),
        seed in 0u64..1000,
    ) {
        let cfg = small_config();
        let mut lens = lens;
        lens.extend([0, 1]);
        let pool = CpuPool::new(2);

        for (stage, directives) in &schedule_variants() {
            let declared = stage_operator(stage, &cfg, &lens).expect("a table row");
            let declared = lower(&declared).expect("declared schedules lower").compile();
            let inputs = hull_sized_inputs(&declared, seed);
            let baseline = bits(&declared.run(&inputs).output);

            let op = variant_operator(stage, directives, &cfg, &lens);
            let variant = lower(&op)
                .unwrap_or_else(|e| panic!("{stage} {directives:?} fails to lower: {e:?}"))
                .compile();
            prop_assert_eq!(
                &bits(&variant.run(&inputs).output), &baseline,
                "{} {:?} diverges from the declared schedule (serial)", stage, directives
            );
            let parallel = variant
                .run_parallel(&pool, &inputs)
                .unwrap_or_else(|e| panic!("{stage} {directives:?} fails to verify: {e}"));
            prop_assert_eq!(
                &bits(&parallel.output), &baseline,
                "{} {:?} diverges in parallel", stage, directives
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The tuner's layer equals the default bit for bit under Strict,
    /// and the bucket is a zero-trial hit afterwards.
    #[test]
    fn tuned_layer_is_bit_identical_and_caches(
        lens in prop::collection::vec(0usize..8, 1..5),
        seed in 0u64..1000,
    ) {
        let cfg = small_config();
        let w = EncoderWeights::random(&cfg, seed);
        let x = RaggedBatch::random(&lens, cfg.hidden, seed.wrapping_add(1));

        let mut tuner = EncoderAutotuner::new(TuneBudget::trials(64), seed);
        let (tuned, out) = tuner
            .tuned_layer(&cfg, &lens, MathMode::Strict)
            .expect("declared schedules build");
        prop_assert!(!out.cache_hit);

        let default = CompiledEncoderLayer::build(&cfg, &lens).expect("default builds");
        let a = default.session().expect("outlines").forward_serial(&w, &x);
        let b = tuned.session().expect("outlines").forward_serial(&w, &x);
        prop_assert_eq!(bits(&a), bits(&b), "tuned layer output differs from default");

        // Same bucket again: cache hit, zero trials.
        let (_, again) = tuner
            .tuned_layer(&cfg, &lens, MathMode::Strict)
            .expect("cache hit");
        prop_assert!(again.cache_hit);
        prop_assert_eq!(again.trials, 0);
    }
}

#[test]
fn every_autotune_candidate_verifies_under_both_remap_policies() {
    // Safety sweep over every schedule variant, additionally forced onto
    // each remap policy: the verifier must accept it (a `ParallelPrep`
    // exists only for a proven program) and one parallel run must pass
    // the per-element owning-block tracker (active in debug builds).
    let cfg = small_config();
    let lens = [5usize, 0, 3, 1, 7];
    let pool = CpuPool::new(2);
    let mut swept = 0usize;
    for (stage, directives) in &schedule_variants() {
        for remap in [
            None,
            Some(RemapPolicy::Identity),
            Some(RemapPolicy::LongestFirst),
        ] {
            let mut directives = directives.clone();
            directives.extend(remap.map(Directive::ThreadRemap));
            let op = variant_operator(stage, &directives, &cfg, &lens);
            let compiled = lower(&op).expect("every variant lowers").compile();
            let prep = compiled
                .parallel_prep()
                .unwrap_or_else(|e| panic!("{stage} {directives:?} fails verification: {e}"))
                .expect("every variant keeps its block axis");
            assert!(
                prep.verify_outcome().n_blocks > 0,
                "{stage} {directives:?}: the proof covers no blocks"
            );
            let inputs = hull_sized_inputs(&compiled, 11);
            compiled
                .run_parallel(&pool, &inputs)
                .expect("a verified program runs");
            swept += 1;
        }
    }
    assert_eq!(swept, 42, "14 variants × 3 remap policies");
}

#[test]
fn every_candidate_is_observable_by_a_serial_run() {
    // A variant whose serial program is the declared one's is no
    // alternative at all. Block dispatch policies are the known case:
    // `RemapPolicy` is read only when blocks are dispatched in parallel,
    // so the table holds none.
    let cfg = EncoderConfig::scaled(8);
    let lens = [21usize, 34, 9, 17, 40, 13, 28, 6]; // program_golden's MNLI shape
    let serial_program = |op: &Operator| lower(op).expect("lowers").compile().vm().to_string();
    for (stage, directives) in &schedule_variants() {
        let declared = stage_operator(stage, &cfg, &lens).expect("a table row");
        let variant = variant_operator(stage, directives, &cfg, &lens);
        assert!(
            serial_program(&variant) != serial_program(&declared),
            "{stage} {directives:?} compiles to the declared serial program"
        );
    }
}

#[test]
fn the_frozen_time_cap_is_inert() {
    // `TuneBudget::with_max_ms` survives only as a signature the
    // benchmark calls (`trials(16).with_max_ms(..)`, then a same-bucket
    // second call): a capped and an uncapped tuner build the same layer,
    // run no trials, and hit on the second call.
    let cfg = small_config();
    let lens = [5usize, 0, 3, 1, 7];
    let reversed: Vec<usize> = lens.iter().rev().copied().collect();
    let mut runs = Vec::new();
    for (name, budget) in [
        ("capped", TuneBudget::trials(16).with_max_ms(0.0)),
        ("uncapped", TuneBudget::trials(16)),
    ] {
        let mut tuner = EncoderAutotuner::new(budget, 42);
        let (layer, out) = tuner.tuned_layer(&cfg, &lens, MathMode::Strict).unwrap();
        assert!(!out.cache_hit, "{name}: a fresh tuner misses");
        assert_eq!(out.trials, 0, "{name}: nothing is searched");
        let (_, hit) = tuner
            .tuned_layer(&cfg, &reversed, MathMode::Strict)
            .unwrap();
        assert!(hit.cache_hit && hit.trials == 0, "{name}: same bucket hits");
        runs.push(stage_programs(&layer));
    }
    assert_eq!(runs[0], runs[1], "a time cap changed the build");
}

#[test]
fn tuned_layer_compiles_the_default_programs_for_any_budget_seed_or_mode() {
    let cfg = small_config();
    let lens = [5usize, 0, 3, 1, 7];
    for math in [MathMode::Strict, MathMode::Fast] {
        let default = CompiledEncoderLayer::build_with_math(&cfg, &lens, math).unwrap();
        let want = stage_programs(&default);
        assert_eq!(want.len(), 21);
        for (budget, seed, disabled) in [
            (TuneBudget::trials(0), 0, false),
            (TuneBudget, 42, false),
            (TuneBudget::trials(16).with_max_ms(0.0), 7, true),
        ] {
            let mut tuner = EncoderAutotuner::new(budget, seed);
            tuner.disabled = disabled;
            for call in 0..2 {
                let (layer, _) = tuner.tuned_layer(&cfg, &lens, math).unwrap();
                assert_eq!(layer.math_mode(), math);
                assert!(
                    stage_programs(&layer) == want,
                    "{math:?}, {budget:?}, seed {seed}, disabled {disabled}, call {call}: \
                     the tuner compiled something build_with_math does not"
                );
            }
        }
    }
}

#[test]
fn a_server_with_an_enabled_tuner_replays_server_new_byte_for_byte() {
    let encoder = small_config();
    let trace = cora::serve::generate(&TraceConfig {
        seed: 17,
        requests: 16,
        hidden: encoder.hidden,
        len_range: (0, 6),
        arrival: Arrival::Bursty {
            burst: 3,
            gap_ns: 200_000,
        },
    });
    let run = |server: &mut Server| {
        server.run_sim(TraceSource::new(trace.clone()), &ServiceModel::default())
    };
    let mut cfg = ServerConfig::new(encoder);
    cfg.policy.max_batch_seqs = 4;
    cfg.pool_capacity = 2;
    let weights = EncoderWeights::random(&encoder, 3);
    let plain = run(&mut Server::new(cfg.clone(), weights.clone()));
    let tuner = EncoderAutotuner::new(TuneBudget::trials(64), 9);
    assert!(!tuner.disabled);
    let tuned = run(&mut Server::with_tuner(cfg, weights, tuner));

    assert!(plain.pool_stats.misses > 1 && plain.pool_stats.evictions > 0);
    assert_eq!(plain.event_log(), tuned.event_log());
    assert_eq!(plain.pool_stats, tuned.pool_stats);
    assert_eq!(plain.completions.len(), 16);
    assert_eq!(plain.completions.len(), tuned.completions.len());
    for (a, b) in plain.completions.iter().zip(&tuned.completions) {
        assert_eq!(a.id, b.id);
        let (a, b) = (a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
        assert_eq!(bits(a), bits(b), "completion outputs differ");
    }
}

#[test]
fn the_bucket_record_is_per_tuner_and_per_math_mode() {
    let cfg = small_config();
    let lens = [4usize, 2];
    let resampled = [5usize, 3]; // same length classes

    let mut tuner = EncoderAutotuner::new(TuneBudget, 42);
    let hit = |tuner: &mut EncoderAutotuner, lens: &[usize], math| {
        tuner.tuned_layer(&cfg, lens, math).unwrap().1.cache_hit
    };
    assert!(!hit(&mut tuner, &lens, MathMode::Strict));
    assert!(
        !hit(&mut tuner, &lens, MathMode::Fast),
        "a Fast call does not hit on a Strict build"
    );
    assert!(hit(&mut tuner, &resampled, MathMode::Strict));
    assert!(hit(&mut tuner, &resampled, MathMode::Fast));
    assert!(
        !hit(&mut tuner, &[4, 2, 1], MathMode::Strict),
        "another histogram is another bucket"
    );

    let mut other = EncoderAutotuner::new(TuneBudget, 42);
    assert!(
        !hit(&mut other, &lens, MathMode::Strict),
        "the record belongs to one tuner"
    );

    let mut disabled = EncoderAutotuner::new(TuneBudget, 42);
    disabled.disabled = true;
    for _ in 0..3 {
        assert!(!hit(&mut disabled, &lens, MathMode::Strict));
    }
}
