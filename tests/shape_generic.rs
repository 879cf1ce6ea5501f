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
//! new shape for the encoder layer and the masked block.

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

/// One stage lowered and compiled at one shape, as the layer compiles
/// it (a stage that opts into the math mode gets it).
struct AtShape {
    operator: Operator,
    lowered: Program,
    compiled: CompiledProgram,
}

fn at_shape(label: &str, attend: Attend, math: MathMode, lens: &[usize]) -> AtShape {
    let row = stage(label).expect("a table label");
    let operator = row.operator(&Geometry::new(&small_config(), lens, attend));
    let lowered = lower(&operator).expect("built-in schedules are legal");
    let mut compiled = lowered.compile();
    if row.fast {
        compiled = compiled.with_math_mode(math);
    }
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
        ("masked block", CompiledEncoderLayer::build_masked_mha),
    ];
    for (what, build) in builds {
        let code = build(&cfg, SHAPES[0]).expect("builds");
        for lens in &SHAPES[1..] {
            let x = RaggedBatch::random(lens, cfg.hidden, 11);
            let moved = code.for_shape(lens).expect("lowers");
            let built = build(&cfg, lens).expect("builds");
            let want = built.session().expect("verifies").forward_serial(&w, &x);
            let mut session = moved.session().expect("verifies");
            assert_eq!(
                bits(&session.forward_serial(&w, &x)),
                bits(&want),
                "{what} {lens:?}"
            );
            assert_eq!(
                bits(&session.forward(&pool, &w, &x)),
                bits(&want),
                "{what} {lens:?}"
            );
            let shared = moved
                .pipeline()
                .expect("non-empty")
                .stage_programs()
                .zip(code.pipeline().expect("non-empty").stage_programs())
                .all(|((_, a), (_, b))| std::ptr::eq(a.vm(), b.vm()));
            assert!(shared, "{what} {lens:?}: every stage shares the code");
        }
        // An empty batch needs no code; a layer moved there is empty too.
        let empty = code.for_shape(&[0, 0]).expect("lowers");
        assert!(empty.pipeline().is_none());
    }
}
