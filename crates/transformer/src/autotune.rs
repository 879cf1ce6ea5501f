//! Shape-bucketed autotuning for the compiled encoder layer: the
//! concrete schedule spaces for every tunable pipeline stage, the
//! stage-level measurer, and [`EncoderAutotuner`] — the session-facing
//! driver that self-tunes on first contact with a shape bucket and
//! reuses the cached winner thereafter.
//!
//! The generic machinery (bucket keys, candidate enumeration, the
//! seeded search driver, the versioned cache) lives in
//! [`cora_core::autotune`]; this module binds it to the encoder:
//!
//! * [`encoder_stage_spaces`] projects the stage table
//!   ([`crate::encoder_compiled::STAGES`]): every row that names a
//!   [`Tune`] kind gets that kind's candidate [`StageChoice`]s — loop
//!   reorders and divisible tiling splits — and [`stage_operator`] is
//!   a lookup in the same table. Every candidate is
//!   **value-preserving**: each output element's reduction still
//!   accumulates in ascending reduction-index order, so tuned layers
//!   are bit-identical to the default under [`MathMode::Strict`]
//!   (locked by `tests/autotune_props.rs`). Every candidate is also
//!   **observable**: its serial program differs from the default's.
//!   Block-dispatch `remap` policies are not enumerated — they are read
//!   only when blocks are dispatched in parallel, so a serial run of a
//!   remap candidate is the default's run (same test file).
//! * [`EncoderAutotuner::tuned_layer`] runs the search with one
//!   measurer: the [`proxy_score`] of a serial run's
//!   interpreter-identical statistics, per stage and then end to end,
//!   where the tuned-vs-default comparison **falls back to the
//!   hand-picked schedule** whenever the assembled winner does not beat
//!   it. No clock is read in the search, so it is deterministic by
//!   construction: same seed and shape, same cache bytes.
//!
//! Configuration is four values: [`EncoderAutotuner::new`] (trial
//! budget, seed), [`EncoderAutotuner::with_cache_path`] and the public
//! `disabled` field.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use cora_core::autotune::{
    synthetic_data, Autotuner, BucketKey, CacheEntry, CacheLoad, StageChoice, StageSpace,
    TuneBudget, TuningCache,
};
use cora_core::prelude::*;
use cora_exec::proxy_score;

use crate::config::EncoderConfig;
use crate::encoder::RaggedBatch;
use crate::encoder_compiled::{stage, Attend, CompiledEncoderLayer, Geometry, Tune, STAGES};
use crate::weights::EncoderWeights;

/// Applies one autotuner choice on top of an operator's hand-picked
/// schedule: the `reorder` (if any) replaces the default loop order
/// (a later full-permutation reorder overrides an earlier one), then
/// the `split` and `remap` are layered after it.
pub fn apply_choice(op: &mut Operator, choice: &StageChoice) {
    if let Some(order) = &choice.reorder {
        let names: Vec<&str> = order.iter().map(String::as_str).collect();
        op.schedule_mut().reorder(&names);
    }
    if let Some((name, factor)) = &choice.split {
        op.schedule_mut().split(name.clone(), *factor);
    }
    if let Some(remap) = choice.remap {
        op.schedule_mut().thread_remap(remap);
    }
}

/// The encoder's shape-bucket key: the model/math descriptor plus the
/// batch's length-histogram class (see
/// [`cora_core::autotune::length_class`]).
pub fn bucket_key(cfg: &EncoderConfig, math: MathMode, lens: &[usize]) -> BucketKey {
    let mode = match math {
        MathMode::Strict => "strict",
        MathMode::Fast => "fast",
    };
    BucketKey::new(
        format!("enc_h{}_hd{}_ff{}_{mode}", cfg.hidden, cfg.head_dim, cfg.ff),
        lens,
    )
}

/// Largest of {8, 4} dividing `n`, if any — candidate tiling factors
/// are restricted to divisors so splits never introduce tail guards
/// (and stay value-preserving for reduction loops).
fn tile_factor(n: usize) -> Option<usize> {
    [8usize, 4].into_iter().find(|f| n % f == 0)
}

/// The candidates of one tuned kind, candidate 0 being the hand-picked
/// default. Tile factors are read off the stage's own operator (its
/// loop extents), so a stage's dimensions are written once — in the
/// stage table. All candidates preserve each output element's
/// reduction accumulation order.
fn candidates(tune: Tune, op: &Operator) -> Vec<StageChoice> {
    let d = StageChoice::default_choice;
    let tile = |name: &str| tile_factor(op.find_loop(name)?.extent.max());
    let mut c = vec![d()];
    match tune {
        // Default i-k-j: alternate i-j-k order, column tiling, and
        // reduction tiling. Splitting `d` into `d_o, d_i` still
        // enumerates the reduction in ascending `d` per output element.
        Tune::Gemm => {
            let ijk = || d().with_reorder(&["r", "c", "d"]);
            c.push(ijk());
            c.extend(tile("c").map(|f| d().with_split("c", f)));
            c.extend(tile("d").map(|f| ijk().with_split("d", f)));
        }
        // Default r, head, e, c: any order keeping (head, e)
        // lexicographically ascending per element is bit-identical.
        Tune::MergeProj => {
            c.push(d().with_reorder(&["r", "c", "head", "e"]));
            c.push(d().with_reorder(&["r", "head", "c", "e"]));
            c.extend(tile("c").map(|f| d().with_split("c", f)));
        }
        // The `d` reduction can move inside-out.
        Tune::Scores => c.push(d().with_reorder(&["hr", "d", "j"])),
        // Default hr, j, e: saxpy vs dot inner shape.
        Tune::Attnv => c.push(d().with_reorder(&["hr", "e", "j"])),
        Tune::None => {}
    }
    c
}

/// The per-stage schedule spaces of the compiled encoder layer: one per
/// row of the stage table that names a [`Tune`] kind, heaviest kind
/// first (the order [`Tune`] declares), table order within a kind.
/// Candidate 0 of every space is the hand-picked default, and every
/// schedule this enumerator can emit is bit-identical to the default
/// under [`MathMode::Strict`].
pub fn encoder_stage_spaces(cfg: &EncoderConfig) -> Vec<StageSpace> {
    // Only row counts depend on the batch; tile factors do not.
    let one_row = Geometry::new(cfg, &[1], Attend::Full);
    let mut tuned: Vec<_> = STAGES.iter().filter(|s| s.tune != Tune::None).collect();
    tuned.sort_by_key(|s| s.tune);
    tuned
        .into_iter()
        .map(|s| StageSpace::new(s.label, candidates(s.tune, &s.operator(&one_row))))
        .collect()
}

/// The standalone operator of a stage (any row of the stage table) for
/// one batch shape under full attention — the unit the per-stage
/// measurement compiles and runs. `None` for an unknown label.
pub fn stage_operator(label: &str, cfg: &EncoderConfig, lens: &[usize]) -> Option<Operator> {
    Some(stage(label)?.operator(&Geometry::new(cfg, lens, Attend::Full)))
}

/// What one [`EncoderAutotuner::tuned_layer`] call did.
#[derive(Debug, Clone)]
pub struct TuneOutcome {
    /// The batch's shape bucket.
    pub bucket: BucketKey,
    /// True when the bucket was served from the cache (zero trials).
    pub cache_hit: bool,
    /// Candidates measured (search trials) this call.
    pub trials: usize,
    /// Wall-clock spent in this call, milliseconds.
    pub tuning_ms: f64,
    /// Non-default winning choices per stage (empty = pure default).
    pub chosen: BTreeMap<String, StageChoice>,
    /// True when the end-to-end comparison rejected the assembled
    /// winner and the hand-picked default shipped instead.
    pub fell_back: bool,
    /// End-to-end [`proxy_score`] of the default schedule (lower is
    /// better). Zero for cache hits and disabled runs, which measure
    /// nothing.
    pub default_score: f64,
    /// End-to-end score of the shipped schedule.
    pub tuned_score: f64,
    /// Log-and-retune diagnostics (stale/corrupt cache), if any.
    pub cache_note: Option<String>,
}

/// The session-facing autotuner: owns the [`TuningCache`], keys batches
/// into shape buckets, searches on first contact and reuses winners
/// thereafter.
///
/// ```no_run
/// use cora_core::autotune::TuneBudget;
/// use cora_transformer::autotune::EncoderAutotuner;
/// use cora_transformer::EncoderConfig;
/// use cora_exec::MathMode;
///
/// let cfg = EncoderConfig::scaled(64);
/// let mut tuner = EncoderAutotuner::new(TuneBudget::default(), 42);
/// // First contact with this length histogram: searches, caches.
/// let (layer, out) = tuner.tuned_layer(&cfg, &[18, 5, 33], MathMode::Strict).unwrap();
/// assert!(!out.cache_hit);
/// let mut session = layer.session().unwrap();
/// // Same bucket, different exact lengths: served from the cache.
/// let (_, again) = tuner.tuned_layer(&cfg, &[17, 5, 40], MathMode::Strict).unwrap();
/// assert!(again.cache_hit && again.trials == 0);
/// # let _ = &mut session;
/// ```
#[derive(Debug)]
pub struct EncoderAutotuner {
    /// Trial cap for one tuning run, shared across all stages of the
    /// layer.
    pub budget: TuneBudget,
    /// Seed for the candidate visit order and the synthetic
    /// measurement data: same seed ⇒ byte-identical cache files.
    pub seed: u64,
    /// Skip search entirely and always build the hand-picked default.
    pub disabled: bool,
    cache: TuningCache,
    cache_path: Option<PathBuf>,
    load_note: Option<String>,
}

impl EncoderAutotuner {
    /// A tuner with no cache file (in-memory only).
    pub fn new(budget: TuneBudget, seed: u64) -> EncoderAutotuner {
        EncoderAutotuner {
            budget,
            seed,
            disabled: false,
            cache: TuningCache::new(),
            cache_path: None,
            load_note: None,
        }
    }

    /// Attaches a persistent cache file, loading it robustly: a missing
    /// file starts empty; an unknown schema version or malformed
    /// contents also start empty, with the reason recorded (surfaced in
    /// the next [`TuneOutcome::cache_note`]) — never a panic, never a
    /// silently applied stale schedule.
    pub fn with_cache_path(mut self, path: impl Into<PathBuf>) -> EncoderAutotuner {
        let path = path.into();
        let (cache, status) = TuningCache::load(&path);
        self.load_note = match &status {
            CacheLoad::Loaded(_) | CacheLoad::Missing => None,
            CacheLoad::UnknownVersion(v) => Some(format!("ignoring tuning cache: {v}; re-tuning")),
            CacheLoad::Malformed(m) => Some(format!("ignoring tuning cache: {m}; re-tuning")),
        };
        self.cache = cache;
        self.cache_path = Some(path);
        self
    }

    /// The in-memory cache (loaded + tuned entries).
    pub fn cache(&self) -> &TuningCache {
        &self.cache
    }

    /// Builds a compiled layer for the batch shape, self-tuning on
    /// first contact with its shape bucket:
    ///
    /// 1. cache hit → rebuild from the cached choices, zero trials.
    ///    An entry is usable only if every `(stage, choice)` in it is a
    ///    candidate [`encoder_stage_spaces`] enumerates for that stage
    ///    — the set proven bit-identical and verifier-clean — and still
    ///    builds; otherwise it is stale: discarded and re-tuned, with
    ///    the reason in [`TuneOutcome::cache_note`];
    /// 2. otherwise search every stage space under the budget, assemble
    ///    the per-stage winners, and compare end-to-end against the
    ///    hand-picked default — **falling back to the default if the
    ///    assembled winner is not at least as good** — then persist the
    ///    bucket's entry.
    ///
    /// # Errors
    ///
    /// Returns the schedule error only if the *default* schedule fails
    /// to build — a compiler regression by definition. Candidate or
    /// cached-choice failures are handled by disqualification/re-tune.
    pub fn tuned_layer(
        &mut self,
        cfg: &EncoderConfig,
        lens: &[usize],
        math: MathMode,
    ) -> Result<(CompiledEncoderLayer, TuneOutcome), ScheduleError> {
        let t0 = Instant::now();
        let bucket = bucket_key(cfg, math, lens);
        let mut outcome = TuneOutcome {
            bucket: bucket.clone(),
            cache_hit: false,
            trials: 0,
            tuning_ms: 0.0,
            chosen: BTreeMap::new(),
            fell_back: false,
            default_score: 0.0,
            tuned_score: 0.0,
            cache_note: self.load_note.take(),
        };
        let rows: usize = lens.iter().sum();

        if self.disabled || rows == 0 {
            let layer = CompiledEncoderLayer::build_with_math(cfg, lens, math)?;
            outcome.tuning_ms = t0.elapsed().as_secs_f64() * 1e3;
            return Ok((layer, outcome));
        }

        // Cache hit: rebuild the cached winner. The file is outside
        // input: a choice the spaces do not enumerate (they changed
        // since it was written, or it was edited) was never proven safe
        // to apply — it may be ignored by the wiring or build a layer
        // whose sessions fail — so such an entry is stale, as is one
        // that no longer builds.
        let spaces = encoder_stage_spaces(cfg);
        if let Some(entry) = self.cache.get(&bucket) {
            let foreign = entry.stages.iter().find(|&(stage, choice)| {
                !spaces
                    .iter()
                    .any(|s| s.stage() == stage && s.choices().contains(choice))
            });
            let rebuilt = match foreign {
                Some((stage, choice)) => Err(format!(
                    "`{stage}`: {} is not a candidate of that stage",
                    choice.to_json()
                )),
                None => CompiledEncoderLayer::build_with_choices(cfg, lens, math, &entry.stages)
                    .map_err(|e| e.to_string()),
            };
            match rebuilt {
                Ok(layer) => {
                    outcome.cache_hit = true;
                    outcome.chosen = entry.stages.clone();
                    outcome.tuning_ms = t0.elapsed().as_secs_f64() * 1e3;
                    return Ok((layer, outcome));
                }
                Err(why) => {
                    outcome.cache_note = Some(format!("stale cache entry ({why}); re-tuning"));
                }
            }
        }

        // Search. The trial budget is shared across stages.
        for space in spaces {
            if outcome.trials >= self.budget.max_trials {
                break;
            }
            let stage_budget = TuneBudget::trials(self.budget.max_trials - outcome.trials);
            let result = Autotuner::new(stage_budget, self.seed)
                .tune_stage(&space, |_idx, choice| {
                    self.measure_stage(space.stage(), cfg, lens, math, choice)
                });
            outcome.trials += result.measured;
            if result.best != 0 {
                outcome.chosen.insert(
                    space.stage().to_string(),
                    space.choices()[result.best].clone(),
                );
            }
        }

        // Fallback guarantee: the assembled winner must beat the
        // hand-picked default end-to-end, or the default ships. With
        // nothing chosen the winner *is* the default, already scored.
        let w = EncoderWeights::random(cfg, self.seed ^ 0x5EED);
        let x = RaggedBatch::random(lens, cfg.hidden, self.seed ^ 0xBA7C);
        let mut layer = CompiledEncoderLayer::build_with_math(cfg, lens, math)?;
        outcome.default_score = self.score_layer(&layer, &w, &x)?;
        outcome.tuned_score = outcome.default_score;
        if !outcome.chosen.is_empty() {
            let tuned = CompiledEncoderLayer::build_with_choices(cfg, lens, math, &outcome.chosen)?;
            let tuned_score = self.score_layer(&tuned, &w, &x)?;
            if tuned_score > outcome.default_score {
                outcome.chosen.clear();
                outcome.fell_back = true;
            } else {
                outcome.tuned_score = tuned_score;
                layer = tuned;
            }
        }

        self.cache.insert(
            &bucket,
            CacheEntry {
                stages: outcome.chosen.clone(),
                trials: outcome.trials,
            },
        );
        if let Some(path) = &self.cache_path {
            if let Err(e) = self.cache.save(path) {
                outcome.cache_note = Some(format!("failed to write tuning cache: {e}"));
            }
        }
        outcome.tuning_ms = t0.elapsed().as_secs_f64() * 1e3;
        Ok((layer, outcome))
    }

    /// Measures one candidate: compile the stage operator with the
    /// choice applied, run it serially once on seeded synthetic inputs,
    /// and score the run's statistics (lower is better). `None`
    /// disqualifies a candidate whose directives fail to lower.
    fn measure_stage(
        &self,
        stage: &str,
        cfg: &EncoderConfig,
        lens: &[usize],
        math: MathMode,
        choice: &StageChoice,
    ) -> Option<f64> {
        let mut op = stage_operator(stage, cfg, lens)?;
        apply_choice(&mut op, choice);
        let prog = lower(&op).ok()?.compile().with_math_mode(math);
        let inputs: Vec<(String, Vec<f32>)> = op
            .inputs
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let size = t.layout().size();
                (
                    t.name().to_string(),
                    synthetic_data(size, self.seed ^ (i as u64 + 1)),
                )
            })
            .collect();
        let bound: Vec<(&str, Vec<f32>)> = inputs
            .iter()
            .map(|(n, d)| (n.as_str(), d.clone()))
            .collect();
        let s = prog.run(&bound).stats;
        Some(proxy_score(
            s.flops,
            s.guards,
            s.aux_loads,
            s.stores,
            prog.vm().fused_counts(),
        ))
    }

    /// End-to-end score of a built layer on seeded synthetic
    /// weights/activations: the per-stage [`proxy_score`]s of one serial
    /// run, summed.
    fn score_layer(
        &self,
        layer: &CompiledEncoderLayer,
        w: &EncoderWeights,
        x: &RaggedBatch,
    ) -> Result<f64, ScheduleError> {
        let mut session = layer.session()?;
        let run = session.run(None, w, x);
        let fused: BTreeMap<String, (usize, usize, usize)> = layer
            .pipeline()
            .map(|p| {
                p.stage_programs()
                    .map(|(label, prog)| (label.to_string(), prog.vm().fused_counts()))
                    .collect()
            })
            .unwrap_or_default();
        Ok(run
            .stages
            .iter()
            .map(|s| {
                proxy_score(
                    s.stats.flops,
                    s.stats.guards,
                    s.stats.aux_loads,
                    s.stats.stores,
                    fused.get(&s.label).copied().unwrap_or((0, 0, 0)),
                )
            })
            .sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spaces_have_defaults_first_and_divisible_splits() {
        let cfg = EncoderConfig::scaled(8);
        let spaces = encoder_stage_spaces(&cfg);
        assert_eq!(spaces.len(), 6);
        for space in &spaces {
            assert!(space.choices()[0].is_default(), "{}", space.stage());
            assert!(
                space.choices().iter().all(|c| c.remap.is_none()),
                "{} enumerates a dispatch order, which no serial measurement sees",
                space.stage()
            );
            assert!(
                stage_operator(space.stage(), &cfg, &[3, 1]).is_some(),
                "space {} has no operator builder",
                space.stage()
            );
        }
    }

    #[test]
    fn bucket_key_separates_math_modes_and_models() {
        let a = EncoderConfig::scaled(8);
        let b = EncoderConfig::scaled(16);
        let lens = [4usize, 9];
        assert_ne!(
            bucket_key(&a, MathMode::Strict, &lens),
            bucket_key(&a, MathMode::Fast, &lens)
        );
        assert_ne!(
            bucket_key(&a, MathMode::Strict, &lens),
            bucket_key(&b, MathMode::Strict, &lens)
        );
    }

    #[test]
    fn deterministic_tuning_caches_and_hits() {
        let cfg = EncoderConfig::scaled(8);
        let lens = [5usize, 2, 0, 7];
        let mut tuner = EncoderAutotuner::new(TuneBudget::trials(64), 42);
        let (_, first) = tuner.tuned_layer(&cfg, &lens, MathMode::Strict).unwrap();
        assert!(!first.cache_hit);
        assert!(first.trials > 0);
        // Same bucket, resampled lengths within the same histogram
        // classes: zero-trial cache hit with the same choices.
        let resampled = [4usize, 3, 0, 6];
        let (_, second) = tuner
            .tuned_layer(&cfg, &resampled, MathMode::Strict)
            .unwrap();
        assert!(second.cache_hit);
        assert_eq!(second.trials, 0);
        assert_eq!(second.chosen, first.chosen);
    }

    #[test]
    fn empty_search_ships_the_default_without_a_comparison() {
        // Zero trials: nothing is chosen, so the default ships as built
        // and scored once — there is no tuned layer to compare it with.
        let cfg = EncoderConfig::scaled(8);
        let mut tuner = EncoderAutotuner::new(TuneBudget::trials(0), 42);
        let (layer, out) = tuner
            .tuned_layer(&cfg, &[5, 2, 7], MathMode::Strict)
            .unwrap();
        assert!(out.chosen.is_empty() && out.trials == 0);
        assert!(!out.fell_back, "nothing was compared");
        assert!(out.default_score > 0.0);
        assert_eq!(out.tuned_score, out.default_score);
        assert_eq!(layer.rows(), 14);
    }

    #[test]
    fn disabled_tuner_ships_defaults() {
        let cfg = EncoderConfig::scaled(8);
        let mut tuner = EncoderAutotuner::new(TuneBudget::trials(64), 42);
        tuner.disabled = true;
        let (_, out) = tuner.tuned_layer(&cfg, &[3, 2], MathMode::Strict).unwrap();
        assert!(out.chosen.is_empty());
        assert_eq!(out.trials, 0);
    }

    #[test]
    fn corrupt_cache_file_is_reported_and_retuned() {
        let dir = std::env::temp_dir().join(format!("cora_enc_tune_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");
        std::fs::write(&path, r#"{"schema": 99, "entries": {}}"#).unwrap();
        let mut tuner = EncoderAutotuner::new(TuneBudget::trials(8), 42).with_cache_path(&path);
        let cfg = EncoderConfig::scaled(8);
        let (_, out) = tuner.tuned_layer(&cfg, &[2, 1], MathMode::Strict).unwrap();
        let note = out.cache_note.expect("corrupt cache must be reported");
        assert!(note.contains("re-tuning"), "{note}");
        assert!(!out.cache_hit);
        // The rewritten cache is valid and schema-current again.
        let (reloaded, status) = TuningCache::load(&path);
        assert!(status.is_usable(), "{status:?}");
        assert_eq!(reloaded.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
