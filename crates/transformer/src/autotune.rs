//! The encoder's shape buckets, its per-stage operator lookup, and the
//! frozen tuner surface the benchmark compiles against.
//!
//! Every stage runs the schedule its row of
//! [`crate::encoder_compiled::STAGES`] declares; there is no schedule
//! search. The one that used to live here ranked candidates with a
//! statistics-based score that gave the four `qkv_proj` GEMM schedules
//! the same value while they ran 326 µs to 12 477 µs, and chose the
//! declared schedule in every probe (README, "Schedules"). What is left:
//!
//! * [`stage_operator`] — the standalone operator of any stage, a
//!   lookup in the stage table;
//! * [`bucket_key`] — the encoder's [`BucketKey`]: model, math mode and
//!   the batch's length-histogram class;
//! * [`EncoderAutotuner::tuned_layer`] —
//!   [`CompiledEncoderLayer::build_with_math`], plus a record of the
//!   buckets it has built so a same-bucket call reports a hit.

use std::collections::BTreeSet;
use std::time::Instant;

use cora_core::autotune::{BucketKey, TuneBudget};
use cora_core::prelude::*;

use crate::config::EncoderConfig;
use crate::encoder_compiled::{stage, Attend, CompiledEncoderLayer, Geometry};

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

/// The standalone operator of a stage (any row of the stage table) for
/// one batch shape under full attention. `None` for an unknown label.
pub fn stage_operator(label: &str, cfg: &EncoderConfig, lens: &[usize]) -> Option<Operator> {
    Some(stage(label)?.operator(&Geometry::new(cfg, lens, Attend::Full)))
}

/// What one [`EncoderAutotuner::tuned_layer`] call did.
#[derive(Debug, Clone)]
pub struct TuneOutcome {
    /// True when this tuner had already built the batch's bucket.
    pub cache_hit: bool,
    /// Search trials run: always zero.
    pub trials: usize,
    /// Wall-clock spent in the call (the build), milliseconds.
    pub tuning_ms: f64,
}

/// Builds compiled layers and remembers which shape buckets it built.
///
/// ```
/// use cora_core::autotune::TuneBudget;
/// use cora_transformer::autotune::EncoderAutotuner;
/// use cora_transformer::EncoderConfig;
/// use cora_exec::MathMode;
///
/// let cfg = EncoderConfig::scaled(64);
/// let mut tuner = EncoderAutotuner::new(TuneBudget, 42);
/// let (_, first) = tuner.tuned_layer(&cfg, &[18, 5, 33], MathMode::Strict).unwrap();
/// assert!(!first.cache_hit);
/// // Same bucket, different exact lengths: a hit, and still no trials.
/// let (_, again) = tuner.tuned_layer(&cfg, &[17, 5, 40], MathMode::Strict).unwrap();
/// assert!(again.cache_hit && again.trials == 0);
/// ```
#[derive(Debug)]
pub struct EncoderAutotuner {
    /// Record no buckets, so every call reports a miss.
    pub disabled: bool,
    built: BTreeSet<BucketKey>,
}

impl EncoderAutotuner {
    /// A tuner with an empty bucket record. Both arguments are ignored:
    /// there is no search for a budget or a seed to steer.
    pub fn new(_budget: TuneBudget, _seed: u64) -> EncoderAutotuner {
        EncoderAutotuner {
            disabled: false,
            built: BTreeSet::new(),
        }
    }

    /// [`CompiledEncoderLayer::build_with_math`] for the batch shape;
    /// the outcome reports a hit when this tuner, while enabled, has
    /// already built the shape's [`bucket_key`].
    ///
    /// # Errors
    ///
    /// Returns the schedule error if a built-in schedule fails to
    /// build — a compiler regression by definition.
    pub fn tuned_layer(
        &mut self,
        cfg: &EncoderConfig,
        lens: &[usize],
        math: MathMode,
    ) -> Result<(CompiledEncoderLayer, TuneOutcome), ScheduleError> {
        let t0 = Instant::now();
        let layer = CompiledEncoderLayer::build_with_math(cfg, lens, math)?;
        let cache_hit = !self.disabled && !self.built.insert(bucket_key(cfg, math, lens));
        let outcome = TuneOutcome {
            cache_hit,
            trials: 0,
            tuning_ms: t0.elapsed().as_secs_f64() * 1e3,
        };
        Ok((layer, outcome))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
