//! The attention-score stage runs through the packed-panel row of the
//! microkernel table (`cora::exec::microkernel`), and the panel it packs
//! is reused only where that is sound.
//!
//! * Tripwire: at `program_golden`'s two shapes and at MNLI-16, under
//!   `Attend::Full` and `Attend::Causal`, a serial run of the `scores`
//!   stage packs exactly one key panel per (head, non-empty sequence) —
//!   so the row ran, and every other query row of a (head, sequence)
//!   reused its panel. Asserted on the pack counter, not inferred from
//!   speed.
//! * Soundness: one program run twice with different `QKV` contents —
//!   serially, and on the proven parallel tier at 1 and 4 workers and
//!   tile grains 1 and 16 — equals a fresh interpreter run each time.
//! * Chains keep the count: a chained forward on one worker packs
//!   exactly as many panels as its stages run one by one on their own
//!   parallel sessions — a chain dispatches its tiles in its first
//!   stage's order and batches, and each stage keeps its own panel.

use cora::core::prelude::*;
use cora::datasets::Dataset;
use cora::exec::microkernel::panels_packed;
use cora::exec::{BoundBuf, CpuPool, VmShared};
use cora::transformer::encoder_compiled::{stage, Attend, Geometry, SCORES};
use cora::transformer::{CompiledEncoderLayer, EncoderConfig, EncoderWeights, RaggedBatch};

/// `program_golden`'s shapes: empty and single-token sequences, and an
/// MNLI-like batch.
const EDGE_LENS: [usize; 8] = [5, 0, 3, 1, 7, 12, 1, 0];
const MNLI_LENS: [usize; 8] = [21, 34, 9, 17, 40, 13, 28, 6];

type Build = fn(&EncoderConfig, &[usize]) -> Result<CompiledEncoderLayer, ScheduleError>;

/// The encoder layer under `Full`, the masked attention block under
/// `Causal`.
const BUILDS: [(Attend, Build); 2] = [
    (Attend::Full, CompiledEncoderLayer::build),
    (Attend::Causal, |c, l| {
        CompiledEncoderLayer::build_mha(c, l, Attend::Causal)
    }),
];

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Packed `QKV` contents for `lens`, varied by `seed`.
fn qkv(cfg: &EncoderConfig, lens: &[usize], seed: u64) -> Vec<f32> {
    let n = lens.iter().sum::<usize>() * 3 * cfg.hidden;
    (0..n as u64)
        .map(|x| ((x * 7 + seed * 13) % 41) as f32 * 0.05 - 1.0)
        .collect()
}

/// Runs `scores` serially on its bound table `shared` through the
/// borrowed entry point, `QKV` bound read-only as the pipeline binds it;
/// returns the scores and the panels packed on the way.
fn run_serial(scores: &CompiledProgram, shared: &VmShared, qkv: &[f32]) -> (Vec<f32>, u64) {
    let mut out = vec![scores.output_init(); scores.output_size()];
    let before = panels_packed();
    shared.run_borrowed(vec![
        ("QKV", BoundBuf::In(qkv)),
        (scores.output_name(), BoundBuf::Out(&mut out)),
    ]);
    (out, panels_packed() - before)
}

#[test]
fn the_score_stage_runs_through_the_panel_row() {
    let cfg = EncoderConfig::scaled(8);
    let mnli16 = Dataset::Mnli.sample_lengths(16, 42);
    for lens in [&EDGE_LENS[..], &MNLI_LENS, &mnli16] {
        for (attend, build) in BUILDS {
            let at = format!("{attend:?} lens {lens:?}");
            let layer = build(&cfg, lens).expect("builds");
            let pipeline = layer.pipeline().expect("non-empty batch");
            let (_, scores) = (pipeline.stage_programs())
                .find(|(label, _)| *label == SCORES)
                .expect("a score stage");
            let data = qkv(&cfg, lens, 1);
            let shared = scores.serial_shared_with(&scores.build_prelude());
            let (out, packs) = run_serial(scores, &shared, &data);
            let sequences = lens.iter().filter(|&&l| l > 0).count();
            assert_eq!(packs, (cfg.heads * sequences) as u64, "{at}");
            // The owned-buffer machine binds `QKV` as written, so it runs
            // the per-row dot row: the panel row's result, bit for bit.
            let unpacked = scores.run(&[("QKV", data)]).output;
            assert_eq!(bits(&out), bits(&unpacked), "{at}");
        }
    }
}

/// Besides `EDGE_LENS` at the scaled model, one head over one sequence:
/// every row of every run reads the same key panel, so a packed copy that
/// outlived its execution would be reused with the previous run's keys.
#[test]
fn a_reused_panel_never_outlives_the_inputs_it_copies() {
    let one_head = EncoderConfig {
        hidden: 8,
        heads: 1,
        head_dim: 8,
        ff: 16,
        layers: 1,
    };
    let pools = [CpuPool::new(1), CpuPool::new(4)];
    let shapes = [
        (EncoderConfig::scaled(8), &EDGE_LENS[..]),
        (one_head, &[37]),
    ];
    for ((cfg, lens), (attend, _)) in shapes.into_iter().flat_map(|s| BUILDS.map(|b| (s, b))) {
        let geometry = Geometry::new(&cfg, lens, attend);
        let op = stage(SCORES).expect("a score stage").operator(&geometry);
        let program = lower(&op).expect("built-in schedules are legal");
        let compiled = program.compile();
        let shared = compiled.serial_shared_with(&compiled.build_prelude());
        let mut sessions: Vec<_> = [1, 16]
            .map(|grain| {
                let prep = compiled.parallel_prep_at_grain(grain).expect("proves");
                let prep = prep.expect("a parallel stage");
                (grain, compiled.parallel_session_with(prep))
            })
            .into();
        for seed in [1, 2] {
            let at = format!("{attend:?} lens {lens:?} QKV seed {seed}");
            let data = qkv(&cfg, lens, seed);
            let fresh = bits(&program.run(&[("QKV", data.clone())]).output);
            assert_eq!(
                bits(&run_serial(&compiled, &shared, &data).0),
                fresh,
                "{at}: serial"
            );
            for (grain, session) in &mut sessions {
                for pool in &pools {
                    let run = session.run(pool, vec![("QKV", data.clone())]);
                    let workers = pool.threads();
                    assert_eq!(
                        bits(&run.output),
                        fresh,
                        "{at}: grain {grain}, {workers} workers"
                    );
                }
            }
        }
    }
}

#[test]
fn a_chained_forward_packs_what_its_stages_pack_alone() {
    let cfg = EncoderConfig::scaled(8);
    let mnli16 = Dataset::Mnli.sample_lengths(16, 42);
    let w = EncoderWeights::random(&cfg, 3);
    let pool = CpuPool::new(1);
    for lens in [&EDGE_LENS[..], &MNLI_LENS, &mnli16] {
        for (attend, build) in BUILDS {
            let at = format!("{attend:?} lens {lens:?}");
            let layer = build(&cfg, lens).expect("builds");
            let pipeline = layer.pipeline().expect("non-empty batch");
            let x = RaggedBatch::random(lens, cfg.hidden, 4);
            let mut session = layer.session().expect("outlines");
            let before = panels_packed();
            let run = session.run(Some(&pool), &w, &x);
            let chained = panels_packed() - before;
            assert_eq!(run.dispatches, 3, "{at}");

            // The same stages, one dispatch each, on the chained run's
            // own intermediates.
            let mut bufs: Vec<(&str, Vec<f32>)> = vec![("X", x.data.clone())];
            let weights = [
                ("Wqkv", &w.wqkv),
                ("Bqkv", &w.bqkv),
                ("Wo", &w.wo),
                ("Bo", &w.bo),
                ("W1", &w.w1),
                ("B1", &w.b1),
                ("W2", &w.w2),
                ("B2", &w.b2),
                ("Ln1G", &w.ln1_g),
                ("Ln1B", &w.ln1_b),
                ("Ln2G", &w.ln2_g),
                ("Ln2B", &w.ln2_b),
            ];
            bufs.extend(weights.map(|(name, data)| (name, data.clone())));
            let before = panels_packed();
            for (label, program) in pipeline.stage_programs() {
                let row = stage(label).expect("a table stage");
                let find = |buf: &str| bufs.iter().find(|(n, _)| *n == buf).unwrap().1.clone();
                let inputs = (row.wires.iter())
                    .map(|(name, buf)| (*name, find(buf)))
                    .collect();
                let mut alone = program
                    .parallel_session()
                    .expect("proves")
                    .expect("parallel");
                let out = alone.run(&pool, inputs).output;
                bufs.push((row.out, out));
            }
            let alone = panels_packed() - before;
            assert_eq!(chained, alone, "{at}");
            assert!(chained > 0, "{at}");
            assert_eq!(bits(&run.output), bits(&bufs.last().unwrap().1), "{at}");
        }
    }
}
