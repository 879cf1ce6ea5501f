//! What every workload shares: the run context, deadline-driven
//! measuring loops and output comparison.

use std::time::{Duration, Instant};

use cora_exec::CpuPool;
use cora_transformer::{EncoderConfig, EncoderWeights};

use crate::spans::Recorder;

/// Largest tolerated |compiled − hand-written reference|.
pub const REF_TOL: f32 = 1e-3;

/// One run's fixed settings plus its span recorder.
#[derive(Debug)]
pub struct Ctx {
    /// `EncoderConfig::scaled(8)`: hidden 64, 8 heads, ff 256.
    pub cfg: EncoderConfig,
    /// The pool every end-to-end number runs on: one thread. The box
    /// has two CPUs and the request feeder / scheduler need the other;
    /// two-thread runs spread several times wider than one-thread runs.
    pub pool: CpuPool,
    pub seed: u64,
    /// Length of the measured part of the run.
    pub seconds: f64,
    pub trace: bool,
    pub rec: Recorder,
}

impl Ctx {
    /// The run's weights: one seeded layer, shared by every path.
    pub fn weights(&self, rng: &mut crate::gen::Rng) -> EncoderWeights {
        EncoderWeights::random(&self.cfg, rng.next_u64())
    }
}

/// Runs `setup` repeatedly — at least three times and until half a
/// second of set-up has been seen, at most 25 times — and returns the
/// last state with the median set-up time in seconds. A traced run
/// does not report set-up time and sets up once.
pub fn timed_setup<T>(ctx: &Ctx, mut setup: impl FnMut(&Ctx) -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut state = None;
    loop {
        // Drop the previous state first so peak memory is one state's.
        drop(state.take());
        let t0 = Instant::now();
        state = Some(setup(ctx));
        times.push(t0.elapsed().as_secs_f64());
        let enough = times.len() >= 3 && times.iter().sum::<f64>() >= 0.5;
        if ctx.trace || enough || times.len() == 25 {
            let state = state.expect("set-up ran");
            return (state, crate::stats::median(&times));
        }
    }
}

/// A point in time the measuring loops run up to.
#[derive(Debug, Clone, Copy)]
pub struct Deadline(Instant);

impl Deadline {
    pub fn after(seconds: f64) -> Deadline {
        Deadline(Instant::now() + Duration::from_secs_f64(seconds))
    }

    pub fn passed(&self) -> bool {
        Instant::now() >= self.0
    }
}

/// Times one call in milliseconds.
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed().as_secs_f64() * 1e3)
}

/// Median milliseconds of `reps` calls (after the caller's warm-up).
pub fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| time_ms(&mut f).1).collect();
    crate::stats::median(&samples)
}

/// Repetitions that keep a probe of a `once_ms` operation near 300 ms.
pub fn reps_for(once_ms: f64) -> usize {
    ((300.0 / once_ms.max(1e-3)).ceil() as usize).clamp(3, 50)
}

pub fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    if a.len() != b.len() {
        return f32::INFINITY;
    }
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, |m, d| if d > m || d.is_nan() { d } else { m })
}

pub fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparisons_catch_length_nan_and_sign_of_zero() {
        assert_eq!(max_abs_diff(&[1.0, 2.0], &[1.0, 2.5]), 0.5);
        assert_eq!(max_abs_diff(&[1.0], &[1.0, 2.0]), f32::INFINITY);
        assert!(max_abs_diff(&[f32::NAN], &[0.0]).is_nan());
        assert!(bits_equal(&[0.5], &[0.5]));
        assert!(!bits_equal(&[0.0], &[-0.0]));
    }

    #[test]
    fn setup_repeats_cheap_setups_and_keeps_the_last_state() {
        let mut ctx = Ctx {
            cfg: EncoderConfig::scaled(8),
            pool: CpuPool::new(1),
            seed: 0,
            seconds: 1.0,
            trace: false,
            rec: Recorder::new(false),
        };
        let mut calls = 0;
        let (state, s) = timed_setup(&ctx, |_| {
            calls += 1;
            calls
        });
        assert_eq!((state, calls), (25, 25), "a free set-up runs the maximum");
        assert!(s >= 0.0);
        ctx.trace = true;
        assert_eq!(timed_setup(&ctx, |_| 7).0, 7);
    }
}
