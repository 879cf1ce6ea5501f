//! Properties of the shape-bucketed autotuner:
//!
//! * **Bucket-key stability** — permuting the sequences of a batch and
//!   resampling each length within its histogram class must map to the
//!   same [`BucketKey`]; crossing a class boundary must not.
//! * **Schedule-space safety** — for *every* choice the encoder's
//!   enumerator can emit, the tuned layer's Strict output is
//!   bit-identical to the hand-picked default's, serially and in
//!   parallel, on random ragged batches including 0-/1-length
//!   sequences. This is the contract that lets the tuner swap
//!   schedules without a correctness re-validation per bucket.
//! * **Observability** — every non-default candidate's serial program
//!   differs from the default's: the tuner scores serial runs, so a
//!   candidate that compiles to the default's program (a block-dispatch
//!   `remap`) could only ever tie with it.
//! * **End-to-end tuning** — a tuned layer equals the default
//!   bit-for-bit (Strict), a second batch in the same bucket is a
//!   zero-trial cache hit, two identically seeded tuning runs produce
//!   byte-identical cache files, and the frozen `with_max_ms` is inert.
//! * **Cache robustness** — corrupted/unknown-version cache files are
//!   reported and re-tuned, and a schema-valid entry is applied only if
//!   the spaces enumerate every choice in it — never panicking and
//!   never silently applying a stale schedule.

use proptest::prelude::*;

use cora::core::autotune::{
    length_class, BucketKey, CacheLoad, StageChoice, TuneBudget, TuningCache,
};
use cora::core::prelude::lower;
use cora::exec::{CpuPool, MathMode};
use cora::transformer::autotune::{
    apply_choice, bucket_key, encoder_stage_spaces, stage_operator, EncoderAutotuner,
};
use cora::transformer::encoder_compiled::CompiledEncoderLayer;
use cora::transformer::{EncoderConfig, EncoderWeights, RaggedBatch};

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

    /// Every single choice the enumerator can emit produces a layer
    /// whose Strict output is bit-identical to the default's, serially
    /// and in parallel.
    #[test]
    fn every_enumerated_schedule_is_bit_identical_strict(
        lens in prop::collection::vec(0usize..6, 1..4),
        seed in 0u64..1000,
    ) {
        let cfg = small_config();
        let w = EncoderWeights::random(&cfg, seed);
        let x = RaggedBatch::random(&lens, cfg.hidden, seed.wrapping_add(1));
        let pool = CpuPool::new(2);

        let default = CompiledEncoderLayer::build(&cfg, &lens).expect("default builds");
        let mut dsession = default.session().expect("default outlines");
        let baseline: Vec<u32> = dsession
            .forward_serial(&w, &x)
            .iter()
            .map(|v| v.to_bits())
            .collect();

        for space in encoder_stage_spaces(&cfg) {
            for (ci, choice) in space.choices().iter().enumerate().skip(1) {
                let mut chosen = std::collections::BTreeMap::new();
                chosen.insert(space.stage().to_string(), choice.clone());
                let layer = CompiledEncoderLayer::build_with_choices(
                    &cfg, &lens, MathMode::Strict, &chosen,
                )
                .unwrap_or_else(|e| {
                    panic!("choice {ci} of {} fails to build: {e:?}", space.stage())
                });
                let mut session = layer.session().expect("tuned layer outlines");
                let serial: Vec<u32> = session
                    .forward_serial(&w, &x)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                prop_assert_eq!(
                    &serial, &baseline,
                    "stage {} choice {} diverges from the default (serial)",
                    space.stage(), ci
                );
                let parallel: Vec<u32> = session
                    .forward(&pool, &w, &x)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                prop_assert_eq!(
                    &parallel, &baseline,
                    "stage {} choice {} diverges in parallel",
                    space.stage(), ci
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The full tuned layer (whatever combination the search picked)
    /// equals the default bit-for-bit under Strict, and the bucket is
    /// a zero-trial cache hit afterwards.
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
            .expect("tuning never fails on legal defaults");
        prop_assert!(!out.cache_hit);

        let default = CompiledEncoderLayer::build(&cfg, &lens).expect("default builds");
        let a = default.session().expect("outlines").forward_serial(&w, &x);
        let b = tuned.session().expect("outlines").forward_serial(&w, &x);
        let ab: Vec<u32> = a.iter().map(|v| v.to_bits()).collect();
        let bb: Vec<u32> = b.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(ab, bb, "tuned layer output differs from default");

        // Fallback guarantee: the shipped schedule never scores worse
        // than the default under the measurer.
        prop_assert!(out.tuned_score <= out.default_score || out.chosen.is_empty());

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
    // Safety sweep over the whole tuning space: every candidate of every
    // stage space, additionally forced onto each remap policy, must
    // build a layer whose session construction succeeds — session
    // construction *is* the safety proof now (the verifier runs on
    // every outlined stage) — and one forward pass must run clean under
    // the per-element owning-block tracker (active in debug builds).
    use cora::core::RemapPolicy;

    let cfg = small_config();
    let lens = [5usize, 0, 3, 1, 7];
    let w = EncoderWeights::random(&cfg, 11);
    let x = RaggedBatch::random(&lens, cfg.hidden, 12);
    let pool = CpuPool::new(2);
    let mut candidates = 0usize;
    for space in encoder_stage_spaces(&cfg) {
        for choice in space.choices() {
            for remap in [
                None,
                Some(RemapPolicy::Identity),
                Some(RemapPolicy::LongestFirst),
            ] {
                let mut c = choice.clone();
                if remap.is_some() {
                    c.remap = remap;
                }
                let mut chosen = std::collections::BTreeMap::new();
                chosen.insert(space.stage().to_string(), c);
                let layer = CompiledEncoderLayer::build_with_choices(
                    &cfg,
                    &lens,
                    MathMode::Strict,
                    &chosen,
                )
                .unwrap_or_else(|e| {
                    panic!("stage {} candidate fails to build: {e:?}", space.stage())
                });
                let mut session = layer.session().unwrap_or_else(|e| {
                    panic!(
                        "stage {} candidate fails verification (remap {remap:?}): {e}",
                        space.stage()
                    )
                });
                for (label, outcome) in session.verify_outcomes() {
                    if let Some(o) = outcome {
                        assert!(o.n_blocks > 0, "stage `{label}` proof covers no blocks");
                    }
                }
                // One tracked forward pass: static proof vs runtime oracle.
                session.forward(&pool, &w, &x);
                candidates += 1;
            }
        }
    }
    assert!(
        candidates >= 42,
        "the tuning space shrank unexpectedly: only {candidates} candidates swept"
    );
}

#[test]
fn every_candidate_is_observable_by_a_serial_run() {
    // The tuner's only measurer scores a *serial* run of the stage's
    // compiled program. A candidate whose serial program is the
    // default's is an exact tie by construction — a wasted trial that
    // can never be chosen — so no space may enumerate one. Block
    // dispatch policies are the known case: `RemapPolicy` is read only
    // when blocks are dispatched in parallel.
    let cfg = EncoderConfig::scaled(8);
    let lens = [21usize, 34, 9, 17, 40, 13, 28, 6]; // program_golden's MNLI shape
    let serial_program = |stage: &str, choice: &StageChoice| {
        let mut op = stage_operator(stage, &cfg, &lens).expect("a space names a table row");
        apply_choice(&mut op, choice);
        let compiled = lower(&op).expect("every candidate lowers").compile();
        compiled.vm().to_string()
    };
    for space in encoder_stage_spaces(&cfg) {
        let default = serial_program(space.stage(), &space.choices()[0]);
        for choice in &space.choices()[1..] {
            assert!(
                serial_program(space.stage(), choice) != default,
                "stage {} choice {}: a candidate the measurer cannot observe \
                 (its serial program is the default's)",
                space.stage(),
                choice.to_json()
            );
        }
    }
}

#[test]
fn the_frozen_time_cap_is_inert() {
    // `TuneBudget::with_max_ms` survives only as a signature the
    // benchmark calls (`trials(16).with_max_ms(..)`, then a same-bucket
    // second call): whatever cap is passed, the search is the uncapped
    // one.
    let cfg = small_config();
    let lens = [5usize, 0, 3, 1, 7];
    let dir = std::env::temp_dir().join(format!("cora_tune_cap_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut runs = Vec::new();
    for (name, budget) in [
        ("capped", TuneBudget::trials(16).with_max_ms(0.0)),
        ("uncapped", TuneBudget::trials(16)),
    ] {
        let path = dir.join(format!("{name}/cache.json"));
        let mut tuner = EncoderAutotuner::new(budget, 42).with_cache_path(&path);
        let (_, out) = tuner.tuned_layer(&cfg, &lens, MathMode::Strict).unwrap();
        assert!(!out.cache_hit);
        assert_eq!(out.trials, 16, "{name}: the whole trial budget is spent");
        let reversed: Vec<usize> = lens.iter().rev().copied().collect();
        let (_, hit) = tuner
            .tuned_layer(&cfg, &reversed, MathMode::Strict)
            .unwrap();
        assert!(hit.cache_hit && hit.trials == 0, "{name}: same bucket hits");
        runs.push((
            out.trials,
            out.chosen,
            std::fs::read(&path).expect("cache written"),
        ));
    }
    assert_eq!(runs[0], runs[1], "a time cap changed the search");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn seeded_deterministic_runs_write_byte_identical_caches() {
    let cfg = small_config();
    let lens = [5usize, 0, 3, 1, 7];
    let dir = std::env::temp_dir().join(format!("cora_tune_det_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut files = Vec::new();
    for run in 0..2 {
        let path = dir.join(format!("run{run}/cache.json"));
        let mut tuner = EncoderAutotuner::new(TuneBudget::trials(64), 42).with_cache_path(&path);
        let (_, out) = tuner.tuned_layer(&cfg, &lens, MathMode::Strict).unwrap();
        assert!(!out.cache_hit);
        files.push(std::fs::read(&path).expect("cache written"));
    }
    assert_eq!(
        files[0], files[1],
        "identically seeded deterministic tuning runs must write byte-identical caches"
    );
    // A different seed may choose differently but must still parse.
    let parsed = TuningCache::parse(std::str::from_utf8(&files[0]).unwrap()).unwrap();
    assert_eq!(parsed.len(), 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupted_cache_fixtures_log_and_retune() {
    let cfg = small_config();
    let lens = [3usize, 1];
    let dir = std::env::temp_dir().join(format!("cora_tune_corrupt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // `retired_schema` is a well-formed file of the format that still
    // recorded a `measurer`: entries the deleted wall-clock measurer
    // may have written are refused, not trusted.
    let retired = format!(
        r#"{{"schema": 1, "entries": {{"{}": {{"measurer": "wallclock", "trials": 1, "stages": {{}}}}}}}}"#,
        bucket_key(&cfg, MathMode::Strict, &lens)
    );
    assert!(matches!(
        TuningCache::parse(&retired),
        Err(CacheLoad::UnknownVersion(_))
    ));
    let fixtures: [(&str, &str); 5] = [
        ("unknown_version", r#"{"schema": 99, "entries": {}}"#),
        ("retired_schema", &retired),
        ("truncated", r#"{"schema": 2, "entries": {"#),
        ("not_json", "definitely not json"),
        (
            "malformed_entry",
            r#"{"schema": 2, "entries": {"b": {"trials": 1, "stages": {"s": {"split": "oops"}}}}}"#,
        ),
    ];
    for (name, contents) in fixtures {
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, contents).unwrap();
        let mut tuner = EncoderAutotuner::new(TuneBudget::trials(8), 42).with_cache_path(&path);
        let (_, out) = tuner
            .tuned_layer(&cfg, &lens, MathMode::Strict)
            .unwrap_or_else(|e| panic!("fixture {name} must re-tune, not fail: {e:?}"));
        assert!(!out.cache_hit, "fixture {name} must not hit the cache");
        let note = out
            .cache_note
            .unwrap_or_else(|| panic!("fixture {name} must be reported"));
        assert!(note.contains("re-tuning"), "fixture {name}: {note}");
        // The file is healed with a valid, schema-current cache.
        let (_, status) = TuningCache::load(&path);
        assert!(
            status.is_usable(),
            "fixture {name} left a bad file: {status:?}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn stale_cache_entries_trigger_retune_not_silent_application() {
    // Schema-valid caches for the live bucket whose entry is not one
    // the spaces enumerate. Applying any of them is a silent partial
    // application or worse: the first names no loop (lowering fails),
    // the second names no stage (the wiring would ignore it), the next
    // three build layers whose sessions fail (an outlined block axis
    // moved inward, a split with a tail escaping the planned size), and
    // the last is what the deleted wall-clock measurer used to write.
    // Each must be discarded, reported and re-tuned.
    let cfg = small_config();
    let lens = [4usize, 2];
    let key = bucket_key(&cfg, MathMode::Strict, &lens);
    let dir = std::env::temp_dir().join(format!("cora_tune_stale_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cache.json");
    let fixtures = [
        r#"{"qkv_proj": {"split": ["no_such_loop", 8]}}"#,
        r#"{"no_such_stage": {"split": ["c", 8]}}"#,
        r#"{"scores": {"reorder": ["d", "hr", "j"]}}"#,
        r#"{"qkv_proj": {"reorder": ["c", "r", "d"]}}"#,
        r#"{"qkv_proj": {"split": ["c", 5]}}"#,
        r#"{"attnv": {"remap": "identity"}}"#,
    ];
    for stages in fixtures {
        let stale = format!(
            r#"{{"schema": 2, "entries": {{"{key}": {{"trials": 1, "stages": {stages}}}}}}}"#
        );
        assert!(
            TuningCache::parse(&stale).is_ok(),
            "{stages} is schema-valid"
        );
        std::fs::write(&path, stale).unwrap();
        let mut tuner = EncoderAutotuner::new(TuneBudget::trials(16), 42).with_cache_path(&path);
        let (layer, out) = tuner
            .tuned_layer(&cfg, &lens, MathMode::Strict)
            .unwrap_or_else(|e| panic!("{stages} must re-tune, not fail: {e:?}"));
        assert!(!out.cache_hit, "{stages} must not count as a hit");
        let note = out
            .cache_note
            .unwrap_or_else(|| panic!("{stages} must be reported"));
        assert!(note.contains("stale"), "{stages}: {note}");
        assert!(out.trials > 0, "{stages} must be re-tuned");
        layer
            .session()
            .unwrap_or_else(|e| panic!("{stages}: the re-tuned layer must outline: {e}"));
        // The entry is healed: the same bucket now hits.
        let (_, again) = tuner.tuned_layer(&cfg, &lens, MathMode::Strict).unwrap();
        assert!(again.cache_hit && again.cache_note.is_none(), "{stages}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
