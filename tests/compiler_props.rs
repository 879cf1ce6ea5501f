//! Property tests over the *whole* compiler: for random raggedness
//! patterns and random legal schedules, compiled programs must agree
//! with a direct reference computation.

use std::rc::Rc;

use proptest::prelude::*;

use cora::core::prelude::*;
use cora::ragged::{Dim, RaggedLayout};

fn ragged_2d(name: &str, lens: &[usize], pad: usize) -> TensorRef {
    let b = Dim::new("batch");
    let l = Dim::new("len");
    TensorRef::new(
        name,
        RaggedLayout::builder()
            .cdim(b.clone(), lens.len())
            .vdim(l, &b, lens.to_vec())
            .pad(pad)
            .build()
            .unwrap(),
    )
}

/// Builds `B[o,i] = 2*A[o,i] + 1` with the given storage padding.
fn affine_op(lens: &[usize], pad: usize) -> Operator {
    let a = ragged_2d("A", lens, pad);
    let out = ragged_2d("B", lens, pad);
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

/// Valid (unpadded) flat positions of a padded 2-D ragged layout.
fn valid_positions(lens: &[usize], pad: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut start = 0usize;
    for &l in lens {
        for i in 0..l {
            out.push(start + i);
        }
        start += l.div_ceil(pad) * pad;
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any raggedness + any storage padding: the compiled program equals
    /// the reference on every valid element.
    #[test]
    fn compiled_affine_matches_reference(
        lens in prop::collection::vec(0usize..16, 1..8),
        pad in 1usize..5,
    ) {
        let p = lower(&affine_op(&lens, pad)).unwrap();
        let size = p.output_size();
        let input: Vec<f32> = (0..size).map(|x| x as f32 * 0.5 - 3.0).collect();
        let r = p.run(&[("A", input.clone())]);
        for pos in valid_positions(&lens, pad) {
            prop_assert_eq!(r.output[pos], 2.0 * input[pos] + 1.0);
        }
    }

    /// Loop padding within storage padding never changes valid results.
    #[test]
    fn loop_padding_is_transparent(
        lens in prop::collection::vec(1usize..16, 1..6),
        loop_pad in 1usize..4,
    ) {
        let storage_pad = loop_pad * 2; // always covers the loop padding
        let mut op = affine_op(&lens, storage_pad);
        op.schedule_mut().pad_loop("i", loop_pad);
        let p = lower(&op).unwrap();
        let input: Vec<f32> = (0..p.output_size()).map(|x| x as f32).collect();
        let r = p.run(&[("A", input.clone())]);
        for pos in valid_positions(&lens, storage_pad) {
            prop_assert_eq!(r.output[pos], 2.0 * input[pos] + 1.0);
        }
    }

    /// Operation splitting at any point partitions the work exactly.
    #[test]
    fn op_split_partitions(
        lens in prop::collection::vec(1usize..20, 1..6),
        split in 1usize..12,
    ) {
        let op = affine_op(&lens, 1);
        let (head, tail) = split_operation(&op, "i", &|_| split).unwrap();
        prop_assert_eq!(
            head.iteration_count() + tail.iteration_count(),
            lens.iter().sum::<usize>() as u64
        );
        let ph = lower(&head).unwrap();
        let pt = lower(&tail).unwrap();
        let input: Vec<f32> = (0..ph.output_size()).map(|x| x as f32).collect();
        let rh = ph.run(&[("A", input.clone())]);
        let (mut m, _) = pt.prepare(&[("A", input.clone())]);
        m.set_fbuffer("B", rh.output);
        m.run(pt.stmt());
        let out = m.take_fbuffer("B").unwrap();
        for (i, &x) in input.iter().enumerate() {
            prop_assert_eq!(out[i], 2.0 * x + 1.0);
        }
    }

    /// Fusing loops never changes results on valid elements (Fig. 6).
    #[test]
    fn loop_fusion_is_transparent(
        lens in prop::collection::vec(1usize..12, 1..6),
    ) {
        let mut op = affine_op(&lens, 1);
        op.schedule_mut().fuse_loops("o", "i");
        let p = lower(&op).unwrap();
        let input: Vec<f32> = (0..p.output_size()).map(|x| x as f32 - 7.0).collect();
        let r = p.run(&[("A", input.clone())]);
        let expect: Vec<f32> = input.iter().map(|x| 2.0 * x + 1.0).collect();
        prop_assert_eq!(r.output, expect);
    }

    /// Simulated kernels conserve total work under thread remapping.
    #[test]
    fn remap_conserves_work(lens in prop::collection::vec(1usize..64, 1..40)) {
        use cora::exec::gpu::SimKernel;
        let blocks: Vec<f64> = lens.iter().map(|&l| l as f64).collect();
        let k = SimKernel::new("k", blocks.clone());
        let r = k.clone().remap_longest_first();
        prop_assert!((k.total_work_us() - r.total_work_us()).abs() < 1e-9);
        let rev_n = blocks.len();
        let rev = k.remap_with(move |i| rev_n - 1 - i);
        prop_assert!((rev.total_work_us() - blocks.iter().sum::<f64>()).abs() < 1e-9);
    }
}
