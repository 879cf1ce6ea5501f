//! The compiled encoder's code is shape-generic: one compiled program
//! per stage serves every batch shape.
//!
//! Batch shape reaches a stage only through prelude data — the `rows`
//! and `head_rows` shape parameters and the ragged tables — so for every
//! row of the stage table plus the masked block's `attn_bias`, under
//! both attention kinds and both math modes, at four shapes (empty and
//! single-token sequences, 80–131-row sequences, equal lengths, one
//! token):
//!
//! * the serial disassembly, the outlined parallel body and the C source
//!   are byte-identical across the shapes, and
//! * a program rebound from any shape's compiled code to any other shape
//!   (`Program::rebind`) shares that code and returns output and
//!   statistics bit-identical to a fresh compile, serially and on two
//!   threads.
//!
//! Layer-level: `CompiledEncoderLayer::for_shape` matches `build` at the
//! new shape for the encoder layer and the masked block, from a
//! non-empty layer's code and from an empty layer's, and an empty layer
//! shares the code and forwards to an empty output.
//!
//! Math mode: the stages with no `exp`/`tanh` and no reducing store or
//! multiply-accumulate nest compute the same bits and statistics under
//! `Fast` as under `Strict`, so every stage compiles under the layer's
//! mode.

use cora::core::prelude::*;
use cora::transformer::encoder_compiled::{stage, Attend, Geometry, STAGES};
use cora::transformer::{CompiledEncoderLayer, EncoderConfig, EncoderWeights, RaggedBatch};

const SHAPES: [&[usize]; 4] = [
    &[5, 0, 3, 1, 7, 12, 1, 0],
    &[80, 131, 64, 97],
    &[9, 9, 9],
    &[1],
];

fn small_config() -> EncoderConfig {
    EncoderConfig {
        hidden: 8,
        heads: 2,
        head_dim: 4,
        ff: 16,
        layers: 1,
    }
}

/// Every stage label: the table's rows, then the masked block's bias.
fn labels() -> Vec<&'static str> {
    STAGES
        .iter()
        .map(|s| s.label)
        .chain(["attn_bias"])
        .collect()
}

/// One stage lowered and compiled at one shape under `math`, as the
/// layer compiles it.
struct AtShape {
    operator: Operator,
    lowered: Program,
    compiled: CompiledProgram,
}

fn at_shape(label: &str, attend: Attend, math: MathMode, lens: &[usize]) -> AtShape {
    let row = stage(label).expect("a table label");
    let operator = row.operator(&Geometry::new(&small_config(), lens, attend));
    let lowered = lower(&operator).expect("built-in schedules are legal");
    let compiled = lowered.compile().with_math_mode(math);
    AtShape {
        operator,
        lowered,
        compiled,
    }
}

/// Deterministic inputs for every buffer the stage loads, sized by the
/// operator's layouts; values in `[0.1, 1.1)` keep the layer-norm
/// square roots and softmax reciprocals finite.
fn inputs(s: &AtShape) -> Vec<(&str, Vec<f32>)> {
    s.compiled
        .input_names()
        .into_iter()
        .enumerate()
        .map(|(k, name)| {
            let tensor = s.operator.inputs.iter().find(|t| t.name() == name);
            let len = tensor.expect("a declared input").layout().size();
            let data = (0..len)
                .map(|i| ((i * 7919 + k * 104_729) % 997) as f32 / 997.0 + 0.1)
                .collect();
            (name, data)
        })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The first line where two texts differ, for a readable failure.
fn first_difference(a: &str, b: &str) -> String {
    let line = a.lines().zip(b.lines()).position(|(x, y)| x != y);
    match line {
        Some(i) => format!(
            "line {}: `{}` vs `{}`",
            i + 1,
            a.lines().nth(i).unwrap_or_default(),
            b.lines().nth(i).unwrap_or_default()
        ),
        None => "one text is a prefix of the other".to_string(),
    }
}

#[test]
fn stage_code_is_byte_identical_across_shapes() {
    let mut moved = Vec::new();
    for attend in [Attend::Full, Attend::Causal] {
        for math in [MathMode::Strict, MathMode::Fast] {
            for label in labels() {
                let texts: Vec<[String; 3]> = SHAPES
                    .iter()
                    .map(|lens| {
                        let s = at_shape(label, attend, math, lens);
                        let body = s.compiled.parallel_body().expect("every stage outlines");
                        [
                            s.compiled.vm().to_string(),
                            body.to_string(),
                            s.lowered.c_source(),
                        ]
                    })
                    .collect();
                for (lens, text) in SHAPES.iter().zip(&texts).skip(1) {
                    for (part, (a, b)) in ["serial", "body", "C"]
                        .iter()
                        .zip(texts[0].iter().zip(text))
                    {
                        if a != b {
                            moved.push(format!(
                                "{label} ({attend:?}, {math:?}) {part} at {lens:?} vs {:?}: {}",
                                SHAPES[0],
                                first_difference(a, b)
                            ));
                        }
                    }
                }
            }
        }
    }
    assert!(
        moved.is_empty(),
        "shape-dependent code:\n{}",
        moved.join("\n")
    );
}

#[test]
fn rebinding_any_shape_to_any_other_matches_a_fresh_compile() {
    let pool = CpuPool::new(2);
    for attend in [Attend::Full, Attend::Causal] {
        for math in [MathMode::Strict, MathMode::Fast] {
            for label in labels() {
                let shapes: Vec<AtShape> = SHAPES
                    .iter()
                    .map(|lens| at_shape(label, attend, math, lens))
                    .collect();
                for (to, target) in shapes.iter().enumerate() {
                    let data = inputs(target);
                    let fresh = target.compiled.run(&data);
                    for (from, code) in shapes.iter().enumerate().filter(|(from, _)| *from != to) {
                        let what = format!(
                            "{label} ({attend:?}, {math:?}) rebound from {:?} to {:?}",
                            SHAPES[from], SHAPES[to]
                        );
                        let rebound = target.lowered.rebind(&code.compiled);
                        assert!(std::ptr::eq(rebound.vm(), code.compiled.vm()), "{what}");
                        assert_eq!(rebound.math_mode(), target.compiled.math_mode(), "{what}");
                        assert_eq!(
                            rebound.output_size(),
                            target.compiled.output_size(),
                            "{what}"
                        );
                        let serial = rebound.run(&data);
                        assert_eq!(bits(&serial.output), bits(&fresh.output), "{what}");
                        assert_eq!(serial.stats, fresh.stats, "{what}");
                        let parallel = rebound.run_parallel(&pool, &data).expect("verifies");
                        assert_eq!(bits(&parallel.output), bits(&fresh.output), "{what}");
                        assert_eq!(parallel.stats, fresh.stats, "{what}");
                    }
                }
            }
        }
    }
}

#[test]
fn a_layer_moved_to_another_shape_matches_one_built_there() {
    let cfg = small_config();
    let w = EncoderWeights::random(&cfg, 7);
    let pool = CpuPool::new(2);
    type Build = fn(&EncoderConfig, &[usize]) -> Result<CompiledEncoderLayer, ScheduleError>;
    let builds: [(&str, Build); 2] = [
        ("encoder", CompiledEncoderLayer::build),
        ("masked block", |c, l| {
            CompiledEncoderLayer::build_mha(c, l, Attend::Causal)
        }),
    ];
    fn shares(a: &CompiledEncoderLayer, b: &CompiledEncoderLayer) -> bool {
        let (a, b) = (
            a.pipeline().expect("a pipeline"),
            b.pipeline().expect("a pipeline"),
        );
        (a.stage_programs().zip(b.stage_programs()))
            .all(|((_, a), (_, b))| std::ptr::eq(a.vm(), b.vm()))
    }
    for (what, build) in builds {
        // From a non-empty layer's code, and from an empty one's.
        for source in [SHAPES[0], &[]] {
            let code = build(&cfg, source).expect("builds");
            for lens in &SHAPES[1..] {
                let what = format!("{what} from {source:?} to {lens:?}");
                let x = RaggedBatch::random(lens, cfg.hidden, 11);
                let moved = code.for_shape(lens).expect("lowers");
                let built = build(&cfg, lens).expect("builds");
                let want = built.session().expect("verifies").forward_serial(&w, &x);
                let mut session = moved.session().expect("verifies");
                assert_eq!(bits(&session.forward_serial(&w, &x)), bits(&want), "{what}");
                assert_eq!(bits(&session.forward(&pool, &w, &x)), bits(&want), "{what}");
                assert!(shares(&moved, &code), "{what}: every stage shares the code");
            }
            // An empty batch is a batch: the layer moved there shares the
            // code and forwards to an empty output.
            let lens = [0, 0];
            let empty = code.for_shape(&lens).expect("lowers");
            assert!(shares(&empty, &code), "{what} from {source:?} to {lens:?}");
            let x = RaggedBatch::random(&lens, cfg.hidden, 11);
            let mut session = empty.session().expect("verifies");
            assert!(session.forward_serial(&w, &x).is_empty());
            assert!(session.forward(&pool, &w, &x).is_empty());
        }
    }
}

/// The stages with no `exp`/`tanh`, no reducing store and no
/// multiply-accumulate nest run alone under `Fast` to the same bits and
/// statistics as under `Strict`, serially and on two threads, at every
/// shape and under both attention kinds.
#[test]
fn elementwise_stages_compute_the_same_bits_under_either_math_mode() {
    const ELEMENTWISE: [&str; 8] = [
        "qkv_bias",
        "scale",
        "row_softmax",
        "attn_bias_residual",
        "ln1_norm",
        "ff_bias_residual",
        "ln2_norm",
        "attn_bias",
    ];
    let pool = CpuPool::new(2);
    for attend in [Attend::Full, Attend::Causal] {
        for lens in SHAPES {
            for label in ELEMENTWISE {
                let what = format!("{label} ({attend:?}) at {lens:?}");
                let strict = at_shape(label, attend, MathMode::Strict, lens);
                let fast = at_shape(label, attend, MathMode::Fast, lens);
                assert_eq!(fast.compiled.math_mode(), MathMode::Fast, "{what}");
                let data = inputs(&strict);
                let want = strict.compiled.run(&data);
                let serial = fast.compiled.run(&data);
                assert_eq!(bits(&serial.output), bits(&want.output), "{what}");
                assert_eq!(serial.stats, want.stats, "{what}");
                let parallel = fast.compiled.run_parallel(&pool, &data).expect("verifies");
                assert_eq!(bits(&parallel.output), bits(&want.output), "{what}");
                assert_eq!(parallel.stats, want.stats, "{what}");
            }
        }
    }
}
