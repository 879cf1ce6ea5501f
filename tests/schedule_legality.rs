//! Negative-path coverage: every illegal schedule or layout the paper's
//! rules forbid must be rejected with a precise error, never miscompiled.

use std::rc::Rc;

use cora::core::prelude::*;
use cora::ragged::{DgraphError, Dim, RaggedLayout};

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

fn op_with_pads(lens: &[usize], pad: usize) -> Operator {
    let a = ragged_2d("A", lens, pad);
    let out = ragged_2d("B", lens, pad);
    let a2 = a.clone();
    let body: BodyFn = Rc::new(move |args| a2.at(args));
    Operator::new(
        "op",
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

#[test]
fn loop_padding_beyond_storage_rejected() {
    // §4.1: "storage padding is at least as much as the loop padding".
    let mut op = op_with_pads(&[5, 2, 3], 2);
    op.schedule_mut().pad_loop("i", 8);
    match lower(&op) {
        Err(ScheduleError::LoopPaddingExceedsStorage {
            loop_name,
            loop_pad,
            storage_pad,
        }) => {
            assert_eq!(loop_name, "i");
            assert_eq!(loop_pad, 8);
            assert_eq!(storage_pad, 2);
        }
        other => panic!("expected LoopPaddingExceedsStorage, got {other:?}"),
    }
}

#[test]
fn unknown_loop_names_rejected_everywhere() {
    for build in [
        |s: &mut Schedule| {
            s.pad_loop("ghost", 2);
        },
        |s: &mut Schedule| {
            s.split("ghost", 2);
        },
        |s: &mut Schedule| {
            s.bind("ghost", ForKind::GpuBlockX);
        },
        |s: &mut Schedule| {
            s.fuse_loops("ghost", "i");
        },
        |s: &mut Schedule| {
            // `o` exists but is not a fused loop.
            s.bulk_pad("o", 8);
        },
        |s: &mut Schedule| {
            s.reorder(&["o", "ghost"]);
        },
    ] {
        let mut op = op_with_pads(&[4, 4], 1);
        build(op.schedule_mut());
        assert!(
            matches!(lower(&op), Err(ScheduleError::UnknownLoop(_))),
            "schedule touching a ghost loop must fail"
        );
    }
}

#[test]
fn non_adjacent_fusion_rejected() {
    // Insert a cloop between o and i via splitting, then try to fuse the
    // now-separated pair.
    let mut op = op_with_pads(&[4, 4], 4);
    op.schedule_mut()
        .pad_loop("i", 4)
        .split("i", 2)
        .fuse_loops("o", "i_i");
    assert!(matches!(
        lower(&op),
        Err(ScheduleError::NonAdjacentFusion { .. })
    ));
}

#[test]
fn bulk_pad_requires_a_fused_loop() {
    let mut op = op_with_pads(&[4, 4], 1);
    op.schedule_mut().bulk_pad("o", 8);
    assert!(lower(&op).is_err());
}

#[test]
fn splitting_fused_loop_requires_bulk_alignment() {
    // F = 7 (lens [4,3]) is not divisible by 4; bulk-padding to 8 first
    // makes the split legal.
    let mut bad = op_with_pads(&[4, 3], 1);
    bad.schedule_mut().fuse_loops("o", "i").split("o_i_f", 4);
    assert!(matches!(
        lower(&bad),
        Err(ScheduleError::SplitUnpaddedVloop { .. })
    ));
    let mut good = op_with_pads(&[4, 3], 1);
    good.schedule_mut()
        .fuse_loops("o", "i")
        .bulk_pad("o_i_f", 4)
        .split("o_i_f", 4);
    assert!(lower(&good).is_ok());
}

#[test]
fn layout_level_rules_enforced() {
    // Variable outermost dimension.
    let b = Dim::new("b");
    let err = RaggedLayout::builder()
        .vdim(Dim::new("l"), &b, vec![1usize])
        .build()
        .unwrap_err();
    assert!(matches!(
        err,
        DgraphError::UnknownDependence { .. } | DgraphError::VariableOutermost
    ));

    // Chained raggedness (vdim depending on a vdim) is out of prototype
    // scope, as in the paper's §6.
    let b2 = Dim::new("b");
    let l1 = Dim::new("l1");
    let err2 = RaggedLayout::builder()
        .cdim(b2.clone(), 2)
        .vdim(l1.clone(), &b2, vec![2usize, 3])
        .vdim(Dim::new("l2"), &l1, vec![1usize, 1, 1])
        .build()
        .unwrap_err();
    assert!(matches!(err2, DgraphError::NonOuterDependence { .. }));
}

#[test]
fn vloop_reordered_outside_its_dependence_is_a_schedule_error() {
    // §4.1: a vloop cannot move outside the loop its bound depends on.
    let lens = [1usize, 2, 3];
    let mut op = op_with_pads(&lens, 1);
    op.schedule_mut().reorder(&["i", "o"]);
    let err = lower(&op).expect_err("`i`'s extent is indexed by `o`");
    assert_eq!(
        err,
        ScheduleError::VloopReorderedPastDependence {
            loop_name: "i".into()
        }
    );
    assert!(err.to_string().contains("vloop `i`"), "{err}");
    // The identity order keeps the dependence inside and lowers.
    let mut op = op_with_pads(&lens, 1);
    op.schedule_mut().reorder(&["o", "i"]);
    assert!(lower(&op).is_ok());
}

#[test]
fn block_axis_inside_serial_loop_is_a_schedule_error_not_a_fallback() {
    // Binding the *inner* vloop to blocks leaves it nested inside the
    // serial batch loop: the parallel tier must refuse with a precise
    // error instead of silently running serially.
    let mut op = op_with_pads(&[5, 2, 3], 1);
    op.schedule_mut().bind("i", ForKind::GpuBlockX);
    let p = lower(&op).expect("the schedule itself lowers fine");
    let compiled = p.compile();
    assert!(!compiled.has_parallel_tier());
    let input: Vec<f32> = (0..p.output_size()).map(|x| x as f32).collect();
    let err = compiled
        .run_parallel(&CpuPool::new(4), &[("A", input.clone())])
        .expect_err("un-outlinable block axis must error");
    match &err {
        ScheduleError::BlockAxisNotOutlinable { loop_name, reason } => {
            assert_eq!(loop_name, "i");
            assert!(reason.contains("serial loop `o`"), "reason: {reason}");
        }
        other => panic!("expected BlockAxisNotOutlinable, got {other:?}"),
    }
    let msg = err.to_string();
    assert!(
        msg.contains("cannot be outlined") && msg.contains('i'),
        "message must name the loop and the failure: {msg}"
    );
    // The one-shot Program entry point surfaces the same error.
    assert!(matches!(
        p.run_compiled_parallel(&CpuPool::new(2), &[("A", input)]),
        Err(ScheduleError::BlockAxisNotOutlinable { .. })
    ));
}

#[test]
fn errors_render_actionable_messages() {
    let e = ScheduleError::SplitUnpaddedVloop {
        loop_name: "k".into(),
        factor: 64,
    };
    let msg = e.to_string();
    assert!(msg.contains('k') && msg.contains("64") && msg.contains("padded"));

    let e = ScheduleError::BlockAxisNotOutlinable {
        loop_name: "b".into(),
        reason: "it is nested inside the serial loop `o`".into(),
    };
    let msg = e.to_string();
    assert!(msg.contains("`b`") && msg.contains("serial loop `o`"));
}
