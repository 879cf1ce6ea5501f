//! Thread-scaling of the parallel compiled tier: serial bytecode VM vs
//! `run_parallel` at 1/2/4/8 workers on two kernels —
//!
//! * `affine`: a fig02-sized ragged elementwise kernel (`B[o,i] =
//!   2·A[o,i] + 1`, MNLI raggedness) with its batch loop bound to
//!   `blockIdx.x` — tiny per-block work, so this column is an honest
//!   measurement of the parallel tier's dispatch overhead;
//! * `masked_scores`: the encoder stage table's attention-score stage
//!   under `Attend::Causal` (one head) — `(pos+1)·head_dim` FLOPs per
//!   block, longest-first dispatch, the compute-bound shape the paper's
//!   CPU results depend on.
//!
//! `Program::compile()` is hoisted out of every timed region (the
//! closures only execute), and the harness asserts the parallel tier's
//! outputs and aggregated statistics are identical to the serial VM's
//! before timing anything. `--quick` shrinks sizes and repetitions for
//! the CI smoke job. Note that wall-clock speedup requires real cores:
//! single-core containers measure scheduling overhead, not parallelism
//! (pin with `CORA_NUM_THREADS`).

use std::rc::Rc;

use cora_bench::{f2, flag, print_table, seed, time_ns};
use cora_core::prelude::*;
use cora_datasets::Dataset;
use cora_exec::CpuPool;
use cora_ragged::{Dim, RaggedLayout};
use cora_transformer::encoder_compiled::{stage, Attend, Geometry, SCORES};
use cora_transformer::EncoderConfig;

fn ragged_2d(name: &str, lens: &[usize]) -> TensorRef {
    let b = Dim::new("batch");
    let l = Dim::new("len");
    TensorRef::new(
        name,
        RaggedLayout::builder()
            .cdim(b.clone(), lens.len())
            .vdim(l, &b, lens.to_vec())
            .build()
            .unwrap(),
    )
}

/// `B[o,i] = 2*A[o,i] + 1` with the batch loop bound to blocks.
fn affine_block_op(lens: &[usize]) -> Operator {
    let a = ragged_2d("A", lens);
    let out = ragged_2d("B", lens);
    let a2 = a.clone();
    let body: BodyFn = Rc::new(move |args| a2.at(args) * 2.0 + 1.0);
    let mut op = Operator::new(
        "affine",
        vec![
            LoopSpec::fixed("o", lens.len()),
            LoopSpec::variable("i", 0, lens.to_vec()),
        ],
        vec![],
        out,
        vec![a],
        body,
    );
    op.schedule_mut()
        .bind("o", ForKind::GpuBlockX)
        .thread_remap(RemapPolicy::LongestFirst);
    op
}

struct Kernel {
    name: &'static str,
    compiled: CompiledProgram,
    inputs: Vec<(&'static str, Vec<f32>)>,
    elems: usize,
    reps: usize,
}

fn main() {
    let quick = flag("quick");
    let batch = if quick { 16 } else { 64 };
    let head_dim = if quick { 16 } else { 64 };
    let thread_counts = [1usize, 2, 4, 8];

    let seed = seed();
    println!("vm_parallel_scaling — serial VM vs parallel compiled tier (ns per element)");
    println!(
        "batch = {batch} MNLI-shaped sequences, head_dim = {head_dim}, host_threads = {}\n",
        cora_exec::Runtime::global().threads()
    );

    let lens = Dataset::Mnli.sample_lengths(batch, seed);
    let elems: usize = lens.iter().sum();

    let mut kernels = Vec::new();
    {
        let p = lower(&affine_block_op(&lens)).expect("legal schedule");
        let input: Vec<f32> = (0..elems).map(|x| x as f32 * 0.5 - 3.0).collect();
        kernels.push(Kernel {
            name: "affine",
            compiled: p.compile(),
            inputs: vec![("A", input)],
            elems,
            reps: if quick { 40 } else { 200 },
        });
    }
    {
        // One head of width `head_dim`: the packed QKV rows are 3·head_dim wide.
        let cfg = EncoderConfig {
            hidden: head_dim,
            heads: 1,
            head_dim,
            ff: head_dim,
            layers: 1,
        };
        let causal = Geometry::new(&cfg, &lens, Attend::Causal);
        let scores = stage(SCORES).expect("the table has a score stage");
        let p = lower(&scores.operator(&causal)).expect("legal schedule");
        let qkv: Vec<f32> = (0..elems * 3 * head_dim)
            .map(|x| (x as f32 * 0.37).sin())
            .collect();
        let score_elems = p.output_size();
        kernels.push(Kernel {
            name: "masked_scores",
            compiled: p.compile(),
            inputs: vec![("QKV", qkv)],
            elems: score_elems,
            reps: if quick { 3 } else { 10 },
        });
    }

    let mut rows = Vec::new();
    for kernel in &kernels {
        let compiled = &kernel.compiled;
        assert!(compiled.has_parallel_tier(), "{} must outline", kernel.name);
        // Correctness gate: the parallel tier must be bit-identical to
        // the serial VM (outputs and stats) before any timing.
        let serial = compiled.run(&kernel.inputs);
        for &t in &thread_counts {
            let par = compiled
                .run_parallel(&CpuPool::new(t), &kernel.inputs)
                .expect("outlined kernel");
            assert_eq!(serial.output, par.output, "{} tier outputs", kernel.name);
            assert_eq!(serial.stats, par.stats, "{} tier stats", kernel.name);
        }

        // Timed: compile() is hoisted above; closures only execute.
        let serial_ns = time_ns(kernel.reps, || {
            std::hint::black_box(compiled.run(&kernel.inputs));
        });
        for &t in &thread_counts {
            let pool = CpuPool::new(t);
            let par_ns = time_ns(kernel.reps, || {
                std::hint::black_box(compiled.run_parallel(&pool, &kernel.inputs).unwrap());
            });
            let serial_per = serial_ns / kernel.elems as f64;
            let par_per = par_ns / kernel.elems as f64;
            rows.push(vec![
                kernel.name.to_string(),
                t.to_string(),
                kernel.elems.to_string(),
                f2(serial_per),
                f2(par_per),
                f2(serial_per / par_per),
            ]);
        }
    }

    print_table(
        &[
            "kernel",
            "threads",
            "elems",
            "serial ns/elem",
            "parallel ns/elem",
            "speedup",
        ],
        &rows,
    );

    println!("\nPaper shape: block-bound ragged kernels must scale with cores on the");
    println!("compiled tier (Fig. 27 / Table 5); on single-core hosts the parallel");
    println!("column measures dispatch overhead instead — read it with host_threads.");
}
