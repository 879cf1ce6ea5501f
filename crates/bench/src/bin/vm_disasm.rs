//! Developer tool: disassemble and time every compiled encoder stage at
//! a bench-like shape, to check which fused superinstructions the
//! lowering actually emits and where the serial time goes.
//!
//! The stages come from the stage table
//! (`cora_transformer::encoder_compiled::STAGES`) and each stage's input
//! sizes from its verifier-proven access hulls, so the tool cannot drift
//! from what `CompiledEncoderLayer::build` compiles. Pass stage labels
//! as arguments to print their full disassembly.

use cora_core::prelude::*;
use cora_datasets::Dataset;
use cora_transformer::encoder_compiled::{Attend, Geometry, STAGES};
use cora_transformer::EncoderConfig;

fn main() {
    let cfg = EncoderConfig::scaled(8);
    let lens = Dataset::Mnli.sample_lengths(8, 42);
    let geometry = Geometry::new(&cfg, &lens, Attend::Full);
    println!("rows={} {cfg:?}", geometry.rows());

    let want: Vec<String> = std::env::args().skip(1).collect();
    let mut total_ns = 0.0f64;
    for stage in &STAGES {
        let label = stage.label;
        let p = lower(&stage.operator(&geometry)).expect("built-in schedules are legal");
        let c = p.compile();
        let disasm = format!("{}", c.vm());
        let fused: Vec<&str> = disasm
            .lines()
            .map(str::trim)
            .filter(|t| t.contains("fmulacc") || t.contains("fmap"))
            .collect();
        let prep = c
            .parallel_prep()
            .expect("built-in schedules verify")
            .expect("every stage binds a block axis");
        let hulls = prep.verify_outcome();
        let data: Vec<(&str, Vec<f32>)> = c
            .input_names()
            .into_iter()
            .map(|name| {
                let len = hulls.required_input_len(name).unwrap_or(0).max(0) as usize;
                (name, (0..len).map(|x| (x % 97) as f32 * 0.01).collect())
            })
            .collect();
        let time_ns = |program: &CompiledProgram| {
            let reps = 10;
            let t = std::time::Instant::now();
            for _ in 0..reps {
                std::hint::black_box(program.run(&data));
            }
            t.elapsed().as_secs_f64() * 1e9 / reps as f64
        };
        let ns = time_ns(&c);
        let fast_ns = time_ns(&p.compile().with_math_mode(MathMode::Fast));
        total_ns += ns;
        println!(
            "\n=== {label}: {} instrs, fused: {}, strict {:.3} ms, fast {:.3} ms",
            disasm.lines().count(),
            fused.len(),
            ns / 1e6,
            fast_ns / 1e6
        );
        for f in &fused {
            println!("    {f}");
        }
        if want.iter().any(|w| w == label) {
            println!("{disasm}");
        }
    }
    println!("\nsum of standalone stage times: {:.3} ms", total_ns / 1e6);

    // Microkernel primitive sweep: exp/tanh chunk cost per element.
    let src: Vec<f32> = (0..1_000_000)
        .map(|i| (i % 173) as f32 * 0.05 - 4.0)
        .collect();
    let mut dst = vec![0f32; src.len()];
    let t = std::time::Instant::now();
    for ch in src.chunks(64).zip(dst.chunks_mut(64)) {
        cora_exec::microkernel::exp_chunk(ch.1, ch.0);
    }
    println!(
        "exp_chunk: {:.2} ns/elem",
        t.elapsed().as_secs_f64() * 1e9 / src.len() as f64
    );
    let t = std::time::Instant::now();
    for (d, s) in dst.iter_mut().zip(&src) {
        *d = s.exp();
    }
    println!(
        "libm exp:  {:.2} ns/elem",
        t.elapsed().as_secs_f64() * 1e9 / src.len() as f64
    );
    let t = std::time::Instant::now();
    for ch in src.chunks(64).zip(dst.chunks_mut(64)) {
        cora_exec::microkernel::tanh_chunk(ch.1, ch.0);
    }
    println!(
        "tanh_chunk: {:.2} ns/elem",
        t.elapsed().as_secs_f64() * 1e9 / src.len() as f64
    );

    // Dot-panel sweep at the attention-scores shape: n_i = head_dim = 8,
    // b rows strided by 3*hidden, ~37 dots per panel.
    let (n_i, sb, n_o) = (8usize, 192usize, 37usize);
    let a: Vec<f32> = (0..n_i).map(|i| i as f32 * 0.1).collect();
    let b: Vec<f32> = (0..sb * n_o).map(|i| (i % 31) as f32 * 0.03).collect();
    let mut outp = vec![0f32; n_o];
    for mode in [MathMode::Strict, MathMode::Fast] {
        let t = std::time::Instant::now();
        let reps = 100_000;
        for _ in 0..reps {
            cora_exec::microkernel::dot_panel(
                std::hint::black_box(&mut outp),
                0,
                std::hint::black_box(&a),
                0,
                0,
                std::hint::black_box(&b),
                0,
                sb,
                n_i,
                n_o,
                mode,
            );
        }
        println!(
            "dot_panel {mode:?} (n_i=8, n_o=37): {:.2} ns/dot",
            t.elapsed().as_secs_f64() * 1e9 / (reps * n_o) as f64
        );
    }
    std::hint::black_box(&dst);
}
