//! Developer tool: disassemble and time every compiled encoder stage at
//! a bench-like shape, to check which fused superinstructions the
//! lowering actually emits and where the serial time goes.
//!
//! The stages come from the stage table
//! (`cora_transformer::encoder_compiled::STAGES`) and each stage's input
//! sizes from its verifier-proven access hulls, so the tool cannot drift
//! from what `CompiledEncoderLayer::build` compiles. Pass stage labels
//! as arguments to print their full disassembly. Times are best of N
//! calls.

use std::hint::black_box;

use cora_core::prelude::*;
use cora_datasets::Dataset;
use cora_exec::microkernel;
use cora_transformer::encoder_compiled::{Attend, Geometry, STAGES};
use cora_transformer::mha::time_best_ms;
use cora_transformer::EncoderConfig;

fn main() {
    let cfg = EncoderConfig::scaled(8);
    let lens = Dataset::Mnli.sample_lengths(8, 42);
    let geometry = Geometry::new(&cfg, &lens, Attend::Full);
    println!("rows={} {cfg:?}", geometry.rows());

    let want: Vec<String> = std::env::args().skip(1).collect();
    let mut total_ms = 0.0f64;
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
        let time_ms =
            |program: &CompiledProgram| time_best_ms(10, || drop(black_box(program.run(&data))));
        let ms = time_ms(&c);
        let fast_ms = time_ms(&p.compile().with_math_mode(MathMode::Fast));
        total_ms += ms;
        println!(
            "\n=== {label}: {} instrs, fused: {}, strict {ms:.3} ms, fast {fast_ms:.3} ms",
            disasm.lines().count(),
            fused.len(),
        );
        for f in &fused {
            println!("    {f}");
        }
        if want.iter().any(|w| w == label) {
            println!("{disasm}");
        }
    }
    println!("\nsum of standalone stage times: {total_ms:.3} ms");

    // Microkernel primitive sweep: exp/tanh chunk cost per element.
    let src: Vec<f32> = (0..1_000_000)
        .map(|i| (i % 173) as f32 * 0.05 - 4.0)
        .collect();
    let mut dst = vec![0f32; src.len()];
    let mut ns_per_elem = |f: &dyn Fn(&mut [f32], &[f32])| {
        let sweep = || {
            for (s, d) in src.chunks(64).zip(dst.chunks_mut(64)) {
                f(d, s);
            }
        };
        time_best_ms(1, sweep) * 1e6 / src.len() as f64
    };
    let libm = |d: &mut [f32], s: &[f32]| d.iter_mut().zip(s).for_each(|(d, s)| *d = s.exp());
    let exp = ns_per_elem(&microkernel::exp_chunk);
    println!("exp_chunk: {exp:.2} ns/elem");
    println!("libm exp:  {:.2} ns/elem", ns_per_elem(&libm));
    let tanh = ns_per_elem(&microkernel::tanh_chunk);
    println!("tanh_chunk: {tanh:.2} ns/elem");

    // Dot-panel sweep at the attention-scores shape: n_i = head_dim = 8,
    // b rows strided by 3*hidden, ~37 dots per panel.
    let (n_i, sb, n_o) = (8usize, 192usize, 37usize);
    let a: Vec<f32> = (0..n_i).map(|i| i as f32 * 0.1).collect();
    let b: Vec<f32> = (0..sb * n_o).map(|i| (i % 31) as f32 * 0.03).collect();
    let mut outp = vec![0f32; n_o];
    for mode in [MathMode::Strict, MathMode::Fast] {
        let (reps, a, b) = (100_000, black_box(&a), black_box(&b));
        let panel =
            |out: &mut [f32]| microkernel::dot_panel(out, 0, a, 0, 0, b, 0, sb, n_i, n_o, mode);
        let ms = time_best_ms(1, || (0..reps).for_each(|_| panel(black_box(&mut outp))));
        let ns_per_dot = ms * 1e6 / (reps * n_o) as f64;
        println!("dot_panel {mode:?} (n_i=8, n_o=37): {ns_per_dot:.2} ns/dot");
    }
    black_box(&dst);
}
