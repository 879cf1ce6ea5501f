//! Microbenchmark: tree-walking interpreter vs slot-resolved bytecode VM
//! on fig02-sized ragged elementwise kernels (encoder-layer raggedness).
//!
//! Both tiers execute the *same lowered statement* with the same
//! prelude-built auxiliary structures; the differential test suite
//! guarantees bit-identical outputs and statistics, so this harness
//! measures pure execution-tier overhead: string hashing + tree
//! recursion + per-expression allocation (interpreter) vs flat register
//! bytecode (VM).
//!
//! `--quick` shrinks batch and repetitions for the CI smoke job.

use std::rc::Rc;

use cora_bench::{f2, flag, print_table, seed, time_ns};
use cora_core::prelude::*;
use cora_datasets::Dataset;
use cora_ragged::{Dim, RaggedLayout};

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

/// `B[o,i] = 2*A[o,i] + 1` over a dataset-shaped ragged batch.
fn affine_op(lens: &[usize]) -> Operator {
    let a = ragged_2d("A", lens);
    let out = ragged_2d("B", lens);
    let a2 = a.clone();
    let body: BodyFn = Rc::new(move |args| a2.at(args) * 2.0 + 1.0);
    Operator::new(
        "affine",
        vec![
            LoopSpec::fixed("o", lens.len()),
            LoopSpec::variable("i", 0, lens.to_vec()),
        ],
        vec![],
        out,
        vec![a],
        body,
    )
}

fn main() {
    let quick = flag("quick");
    let batch = if quick { 16 } else { 64 };
    let interp_reps = if quick { 10 } else { 30 };
    let vm_reps = if quick { 200 } else { 1000 };

    let seed = seed();
    println!("interp_vs_vm — tree-walking interpreter vs bytecode VM (ns per element)");
    println!("batch = {batch} MNLI-shaped sequences, elementwise affine kernel\n");

    let lens = Dataset::Mnli.sample_lengths(batch, seed);
    let elems: usize = lens.iter().sum();

    let mut rows = Vec::new();
    for (label, schedule) in [("identity", 0usize), ("fused_hoisted", 1)] {
        let mut op = affine_op(&lens);
        if schedule == 1 {
            op.schedule_mut().fuse_loops("o", "i").hoist_loads();
        }
        let p = lower(&op).expect("legal schedule");
        let input: Vec<f32> = (0..elems).map(|x| x as f32 * 0.5 - 3.0).collect();

        // Interpreter: prepare once, execute the statement tree per rep.
        let (mut m, _) = p.prepare(&[("A", input.clone())]);
        let stmt = p.stmt().clone();
        let interp_ns = time_ns(interp_reps, || m.run(&stmt));

        // VM: compile once, bind once, execute the bytecode per rep —
        // `Program::compile()` stays hoisted out of the timed closure so
        // the measurement is pure execution-tier time.
        let compiled = p.compile();
        let (mut vm, _) = compiled.prepare(&[("A", input.clone())]);
        let vm_ns = time_ns(vm_reps, || vm.run());

        // Sanity: tiers agree on this kernel (cheap spot check; the
        // differential proptest suite is the real guarantee).
        let r1 = p.run(&[("A", input.clone())]);
        let r2 = compiled.run(&[("A", input)]);
        assert_eq!(r1.output, r2.output, "tier outputs diverge");
        assert_eq!(r1.stats, r2.stats, "tier statistics diverge");

        let interp_per_elem = interp_ns / elems as f64;
        let vm_per_elem = vm_ns / elems as f64;
        rows.push(vec![
            label.to_string(),
            elems.to_string(),
            compiled.vm().len().to_string(),
            f2(interp_per_elem),
            f2(vm_per_elem),
            f2(interp_per_elem / vm_per_elem),
        ]);
    }

    print_table(
        &[
            "kernel",
            "elems",
            "vm instrs",
            "interp ns/elem",
            "vm ns/elem",
            "speedup",
        ],
        &rows,
    );
    println!("\nPaper shape: the compiled tier must be >= 5x the interpreter on");
    println!("fig02-sized ragged kernels; CoRa's claim is dense-kernel speed, so");
    println!("the numeric path cannot afford per-access string hashing.");
}
