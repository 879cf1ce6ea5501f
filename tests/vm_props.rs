//! Differential properties: the bytecode VM must match the tree-walking
//! interpreter bit-for-bit — outputs *and* instruction-mix statistics —
//! across random operators, raggedness patterns and schedules.
//!
//! The interpreter is the semantic ground truth; `Program::run_compiled`
//! is the fast tier, and `Program::run_compiled_parallel` the parallel
//! tier, which must also be bit-identical (including aggregated stats)
//! at every worker count. All tiers execute through one float-buffer
//! view, so every program here also runs *four ways* — owned machine,
//! borrowed serial, proven parallel at 1 and 4 threads — in both math
//! modes. Any divergence (values, flops, guards, aux loads, stores) is
//! a compiler bug by definition.

use std::rc::Rc;
use std::sync::Arc;

use proptest::prelude::*;

use cora::core::pipeline::{CompiledPipeline, PipelineBuilder};
use cora::core::prelude::*;
use cora::exec::vm::{self, BoundBuf, StoreCert};
use cora::exec::InterpStats;
use cora::ir::interval::SInt;
use cora::ir::{Stmt, StoreKind};
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

/// Builds `B[o,i] = f(A[o,i])` with one of three body shapes chosen to
/// exercise distinct instruction mixes: plain affine, a guarded select
/// with a transcendental (float `Select` + `Unary`), and max/cast.
fn make_op(lens: &[usize], pad: usize, body_kind: usize) -> Operator {
    let a = ragged_2d("A", lens, pad);
    let out = ragged_2d("B", lens, pad);
    let a2 = a.clone();
    let body: BodyFn = match body_kind {
        0 => Rc::new(move |args| a2.at(args) * 2.0 + 1.0),
        1 => Rc::new(move |args| {
            FExpr::select(
                args[1].clone().lt(Expr::int(3)),
                a2.at(args) * 0.5,
                (a2.at(args) * 0.1).exp(),
            )
        }),
        _ => Rc::new(move |args| a2.at(args).max(FExpr::cast(args[1].clone())) * 0.25),
    };
    Operator::new(
        "vmdiff",
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

/// Applies one of six always-legal schedules.
fn apply_schedule(op: &mut Operator, sched: usize, pad: usize) {
    match sched {
        0 => {}
        1 => {
            // Loop padding covered by the (equal) storage padding.
            op.schedule_mut().pad_loop("i", pad);
        }
        2 => {
            op.schedule_mut().fuse_loops("o", "i");
        }
        3 => {
            op.schedule_mut().hoist_loads();
        }
        4 => {
            // Pad then split by the same factor: divisible, guard-free.
            op.schedule_mut().pad_loop("i", pad).split("i", pad);
        }
        _ => {
            op.schedule_mut().fuse_loops("o", "i").hoist_loads();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random raggedness × storage padding × body × schedule: the VM and
    /// the interpreter agree bit-for-bit on outputs and exactly on stats.
    #[test]
    fn vm_matches_interpreter(
        lens in prop::collection::vec(0usize..12, 1..7),
        pad in 1usize..5,
        body_kind in 0usize..3,
        sched in 0usize..6,
    ) {
        let mut op = make_op(&lens, pad, body_kind);
        apply_schedule(&mut op, sched, pad);
        let p = lower(&op).unwrap();
        let input: Vec<f32> = (0..p.output_size())
            .map(|x| x as f32 * 0.25 - 3.0)
            .collect();
        let r1 = p.run(&[("A", input.clone())]);
        let r2 = p.run_compiled(&[("A", input)]);
        prop_assert_eq!(r1.output.len(), r2.output.len());
        for (i, (a, b)) in r1.output.iter().zip(&r2.output).enumerate() {
            prop_assert_eq!(
                a.to_bits(), b.to_bits(),
                "element {} diverges: interp {} vs vm {}", i, a, b
            );
        }
        prop_assert_eq!(r1.stats, r2.stats);
    }

    /// Ragged reductions (`AddAssign` stores) agree across tiers.
    #[test]
    fn vm_matches_interpreter_on_reductions(
        lens in prop::collection::vec(0usize..10, 1..6),
    ) {
        let a = ragged_2d("A", &lens, 1);
        let out = TensorRef::new("S", RaggedLayout::dense(&[lens.len()]));
        let a2 = a.clone();
        let body: BodyFn = Rc::new(move |args| a2.at(args));
        let op = Operator::new(
            "rowsum",
            vec![LoopSpec::fixed("o", lens.len())],
            vec![LoopSpec::variable("i", 0, lens.to_vec())],
            out,
            vec![a],
            body,
        );
        let p = lower(&op).unwrap();
        let n: usize = lens.iter().sum();
        let input: Vec<f32> = (0..n).map(|x| x as f32 - 7.0).collect();
        let r1 = p.run(&[("A", input.clone())]);
        let r2 = p.run_compiled(&[("A", input)]);
        for (a, b) in r1.output.iter().zip(&r2.output) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        prop_assert_eq!(r1.stats, r2.stats);
    }
}

/// Applies one of four always-legal *block-bound* schedules, so the
/// lowered program has an outlinable parallel tier.
fn apply_block_schedule(op: &mut Operator, sched: usize, pad: usize) {
    match sched {
        0 => {
            op.schedule_mut().bind("o", ForKind::GpuBlockX);
        }
        1 => {
            op.schedule_mut()
                .bind("o", ForKind::GpuBlockX)
                .thread_remap(RemapPolicy::LongestFirst);
        }
        2 => {
            // Pad + dividing split below the block axis, reversed dispatch.
            op.schedule_mut()
                .pad_loop("i", pad)
                .split("i", pad)
                .bind("o", ForKind::GpuBlockX)
                .thread_remap(RemapPolicy::Reversed);
        }
        _ => {
            // Fused vloop bound to blocks: one block per (o, i) pair.
            op.schedule_mut()
                .fuse_loops("o", "i")
                .bind("o_i_f", ForKind::GpuBlockX)
                .thread_remap(RemapPolicy::LongestFirst);
        }
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Executes `compiled` four ways — the owned machine, the borrowed
/// serial view, and the proven parallel tier at 1 and 4 threads — and
/// asserts bit-identical outputs and identical statistics.
fn assert_four_ways_agree(compiled: &CompiledProgram, inputs: &[(&str, Vec<f32>)]) {
    let mode = compiled.math_mode();
    let owned = compiled.run(inputs);

    let table = compiled.serial_shared_with(&compiled.build_prelude());
    let mut out = vec![compiled.output_init(); compiled.output_size()];
    let mut bufs: Vec<(&str, BoundBuf<'_>)> =
        inputs.iter().map(|(n, b)| (*n, BoundBuf::In(b))).collect();
    bufs.push((compiled.output_name(), BoundBuf::Out(&mut out)));
    let stats = table.run_borrowed(bufs);
    assert_eq!(
        bits(&owned.output),
        bits(&out),
        "borrowed serial ({mode:?})"
    );
    assert_eq!(owned.stats, stats, "borrowed serial stats ({mode:?})");

    for threads in [1usize, 4] {
        let par = compiled
            .run_parallel(&CpuPool::new(threads), inputs)
            .unwrap();
        assert_eq!(
            bits(&owned.output),
            bits(&par.output),
            "parallel at {threads} threads ({mode:?})"
        );
        assert_eq!(
            owned.stats, par.stats,
            "parallel stats at {threads} threads ({mode:?})"
        );
    }
}

/// Block body over a free block variable `b`, with `Alloc` scratch that
/// is first a panel *output* and then a panel *operand*:
///
/// ```text
/// alloc tile[n] {
///   for d in 0..k    { for j in 0..n { tile[j]          += A[b·k + d] · W[d·n + j] } }
///   for r in lens[b] { for j in 0..n { O[row[b] + r]    += tile[j]    · V[r·n + j] } }
/// }
/// ```
///
/// The first nest is the i-k-j saxpy panel into scratch; the second is
/// the per-row dot panel reading scratch and storing the ragged output
/// row of block `b` (zero-length when `lens[b] == 0`).
fn scratch_panel_body(k: i64, n: i64) -> Stmt {
    let acc = |buffer: &str, index: Expr, value: FExpr| Stmt::Store {
        buffer: buffer.into(),
        index,
        value,
        kind: StoreKind::AddAssign,
    };
    let fill = Stmt::loop_(
        "d",
        Expr::int(k),
        Stmt::loop_(
            "j",
            Expr::int(n),
            acc(
                "tile",
                Expr::var("j"),
                FExpr::load("A", Expr::var("b") * k + Expr::var("d"))
                    * FExpr::load("W", Expr::var("d") * n + Expr::var("j")),
            ),
        ),
    );
    let reduce = Stmt::loop_(
        "r",
        Expr::load("lens", Expr::var("b")),
        Stmt::loop_(
            "j",
            Expr::int(n),
            acc(
                "O",
                Expr::load("row", Expr::var("b")) + Expr::var("r"),
                FExpr::load("tile", Expr::var("j"))
                    * FExpr::load("V", Expr::var("r") * n + Expr::var("j")),
            ),
        ),
    );
    Stmt::Alloc {
        buffer: "tile".into(),
        size: Expr::int(n),
        body: Box::new(fill.then(reduce)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A program whose `Alloc` scratch is both a panel output and a
    /// panel operand, over ragged output rows that include zero-length
    /// ones: owned machine, borrowed serial, and proven parallel at 1
    /// and 4 threads agree bit-for-bit and on statistics, in both math
    /// modes.
    #[test]
    fn scratch_panels_agree_four_ways(
        lens in prop::collection::vec(0usize..6, 1..5),
        k in 1usize..6,
        n in 1usize..20,
    ) {
        let nb = lens.len();
        let rows: Vec<i64> = lens.iter().scan(0i64, |at, &l| {
            let r = *at;
            *at += l as i64;
            Some(r)
        }).collect();
        let total: usize = lens.iter().sum();
        let max_len = lens.iter().copied().max().unwrap_or(0);
        let fill = |len: usize, f: f32| -> Vec<f32> {
            (0..len).map(|x| (x as f32 * f).sin()).collect()
        };
        let (a, w, v) = (fill(nb * k, 0.7), fill(k * n, 0.3), fill(max_len * n, 0.11));
        let lens_i: Vec<i64> = lens.iter().map(|&l| l as i64).collect();

        let body = scratch_panel_body(k as i64, n as i64);
        let serial = Stmt::loop_kind("b", Expr::int(nb as i64), ForKind::GpuBlockX, body.clone());
        let cert = StoreCert::new((0..nb).map(|b| {
            let region = match lens[b] {
                0 => SInt::Empty,
                l => SInt::range(rows[b], rows[b] + l as i64 - 1),
            };
            (b as i64, region)
        })).expect("ragged rows are disjoint");

        for mode in [MathMode::Strict, MathMode::Fast] {
            let compile = |s: &Stmt| {
                let mut p = vm::compile(s);
                p.set_math_mode(mode);
                Arc::new(p)
            };
            let (sp, bp) = (compile(&serial), compile(&body));
            prop_assert_eq!(bp.fused_counts().1, 2, "both nests must fuse to panels:\n{}", bp);

            // Owned machine.
            let mut m = sp.machine();
            m.set_ibuffer("lens", lens_i.clone());
            m.set_ibuffer("row", rows.clone());
            m.set_fbuffer("A", a.clone());
            m.set_fbuffer("W", w.clone());
            m.set_fbuffer("V", v.clone());
            m.set_fbuffer("O", vec![0.0; total]);
            m.run();
            let want = bits(m.fbuffer("O").unwrap());

            // Borrowed serial view over the same program.
            let mut table = sp.shared();
            table.set_ibuffer("lens", lens_i.clone());
            table.set_ibuffer("row", rows.clone());
            let mut out = vec![0.0f32; total];
            let stats = table.run_borrowed(vec![
                ("A", BoundBuf::In(&a)),
                ("W", BoundBuf::In(&w)),
                ("V", BoundBuf::In(&v)),
                ("O", BoundBuf::Out(&mut out)),
            ]);
            prop_assert_eq!(&want, &bits(&out), "borrowed serial ({:?})", mode);
            prop_assert_eq!(m.stats, stats, "borrowed serial stats ({:?})", mode);

            // Proven parallel: the body alone, one batch per block.
            let mut table = bp.shared();
            table.set_ibuffer("lens", lens_i.clone());
            table.set_ibuffer("row", rows.clone());
            let blocks: Vec<i64> = (0..nb as i64).rev().collect();
            let batches: Vec<std::ops::Range<usize>> = (0..nb).map(|i| i..i + 1).collect();
            for threads in [1usize, 4] {
                let mut out = vec![0.0f32; total];
                let stats: InterpStats = table.run_blocks_proven(
                    &CpuPool::new(threads),
                    "b",
                    "O",
                    &mut out,
                    &[("A", &a), ("W", &w), ("V", &v)],
                    &blocks,
                    &batches,
                    &cert,
                );
                prop_assert_eq!(&want, &bits(&out), "{} threads ({:?})", threads, mode);
                prop_assert_eq!(m.stats, stats, "stats at {} threads ({:?})", threads, mode);
            }
        }
    }

    /// Serial VM vs parallel VM across random ragged shapes, bodies and
    /// block-bound schedules, at 1, 2 and 8 workers: outputs
    /// bit-identical, aggregated stats identical — and the four
    /// execution routes agree with each other in both math modes.
    #[test]
    fn parallel_vm_matches_serial_vm(
        lens in prop::collection::vec(0usize..12, 1..7),
        pad in 1usize..5,
        body_kind in 0usize..3,
        sched in 0usize..4,
    ) {
        let mut op = make_op(&lens, pad, body_kind);
        apply_block_schedule(&mut op, sched, pad);
        let p = lower(&op).unwrap();
        let compiled = p.compile();
        prop_assert!(compiled.has_parallel_tier(), "schedule {} must outline", sched);
        let input: Vec<f32> = (0..p.output_size())
            .map(|x| x as f32 * 0.25 - 3.0)
            .collect();
        let serial = compiled.run(&[("A", input.clone())]);
        for workers in [1usize, 2, 8] {
            let pool = CpuPool::new(workers);
            let par = compiled
                .run_parallel(&pool, &[("A", input.clone())])
                .unwrap();
            prop_assert_eq!(serial.output.len(), par.output.len());
            for (i, (a, b)) in serial.output.iter().zip(&par.output).enumerate() {
                prop_assert_eq!(
                    a.to_bits(), b.to_bits(),
                    "element {} diverges at {} workers: serial {} vs parallel {}",
                    i, workers, a, b
                );
            }
            prop_assert_eq!(serial.stats, par.stats, "stats diverge at {} workers", workers);
        }
        let inputs = [("A", input)];
        assert_four_ways_agree(&compiled, &inputs);
        assert_four_ways_agree(&compiled.with_math_mode(MathMode::Fast), &inputs);
    }

    /// Ragged block-bound reductions (`AddAssign` inside a block) agree
    /// across the serial and parallel tiers.
    #[test]
    fn parallel_vm_matches_serial_on_reductions(
        lens in prop::collection::vec(0usize..10, 1..6),
    ) {
        let a = ragged_2d("A", &lens, 1);
        let out = TensorRef::new("S", RaggedLayout::dense(&[lens.len()]));
        let a2 = a.clone();
        let body: BodyFn = Rc::new(move |args| a2.at(args));
        let mut op = Operator::new(
            "rowsum",
            vec![LoopSpec::fixed("o", lens.len())],
            vec![LoopSpec::variable("i", 0, lens.to_vec())],
            out,
            vec![a],
            body,
        );
        op.schedule_mut()
            .bind("o", ForKind::GpuBlockX)
            .thread_remap(RemapPolicy::LongestFirst);
        let p = lower(&op).unwrap();
        let n: usize = lens.iter().sum();
        let input: Vec<f32> = (0..n).map(|x| x as f32 - 7.0).collect();
        let serial = p.run_compiled(&[("A", input.clone())]);
        let pool = CpuPool::new(8);
        let par = p.run_compiled_parallel(&pool, &[("A", input)]).unwrap();
        for (a, b) in serial.output.iter().zip(&par.output) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        prop_assert_eq!(serial.stats, par.stats);
    }
}

// ---------------------------------------------------------------------
// MathMode: strict/fast differential and fmap tail correctness
// ---------------------------------------------------------------------

/// `|a - b| <= abs + rel * |b|`, with NaN/inf required to agree exactly.
fn close(a: f32, b: f32, rel: f32, abs: f32) -> bool {
    if a.is_finite() && b.is_finite() {
        (a - b).abs() <= abs + rel * b.abs()
    } else {
        a.to_bits() == b.to_bits()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Strict vs Fast differential across random ragged batches: Strict
    /// stays bit-identical to the interpreter; Fast stays within the
    /// documented microkernel tolerances of Strict, and charges exactly
    /// the same statistics (stats are static metadata, not a function of
    /// the executing microkernel).
    #[test]
    fn fast_mode_matches_strict_within_tolerance(
        lens in prop::collection::vec(0usize..12, 1..7),
        pad in 1usize..5,
        body_kind in 0usize..3,
        sched in 0usize..6,
    ) {
        let mut op = make_op(&lens, pad, body_kind);
        apply_schedule(&mut op, sched, pad);
        let p = lower(&op).unwrap();
        let input: Vec<f32> = (0..p.output_size())
            .map(|x| x as f32 * 0.25 - 3.0)
            .collect();
        let interp = p.run(&[("A", input.clone())]);
        let strict = p.compile().run(&[("A", input.clone())]);
        let fast = p
            .compile()
            .with_math_mode(MathMode::Fast)
            .run(&[("A", input)]);
        for (i, (a, b)) in interp.output.iter().zip(&strict.output).enumerate() {
            prop_assert_eq!(
                a.to_bits(), b.to_bits(),
                "strict element {} diverges from interpreter: {} vs {}", i, a, b
            );
        }
        prop_assert_eq!(&interp.stats, &strict.stats);
        for (i, (f, s)) in fast.output.iter().zip(&strict.output).enumerate() {
            prop_assert!(
                close(*f, *s, 1e-5, 1e-6),
                "fast element {} out of tolerance: fast {} vs strict {}", i, f, s
            );
        }
        prop_assert_eq!(
            &strict.stats, &fast.stats,
            "stats must be mode-independent"
        );
    }

    /// Fast mode is deterministic: the parallel tier is bit-identical to
    /// the serial tier in Fast mode too (fixed-tree lane combines, no
    /// data races), at several worker counts.
    #[test]
    fn fast_mode_parallel_matches_fast_serial(
        lens in prop::collection::vec(0usize..12, 1..7),
        pad in 1usize..5,
        body_kind in 0usize..3,
        sched in 0usize..4,
    ) {
        let mut op = make_op(&lens, pad, body_kind);
        apply_block_schedule(&mut op, sched, pad);
        let p = lower(&op).unwrap();
        let compiled = p.compile().with_math_mode(MathMode::Fast);
        let input: Vec<f32> = (0..p.output_size())
            .map(|x| x as f32 * 0.25 - 3.0)
            .collect();
        let serial = compiled.run(&[("A", input.clone())]);
        for workers in [1usize, 4] {
            let pool = CpuPool::new(workers);
            let par = compiled.run_parallel(&pool, &[("A", input.clone())]).unwrap();
            for (i, (a, b)) in serial.output.iter().zip(&par.output).enumerate() {
                prop_assert_eq!(
                    a.to_bits(), b.to_bits(),
                    "fast element {} diverges at {} workers: serial {} vs parallel {}",
                    i, workers, a, b
                );
            }
            prop_assert_eq!(&serial.stats, &par.stats);
        }
    }
}

/// The fused-map chunk sweep (`MAP_CHUNK`-wide vector body + scalar
/// tail) must be bit-identical to the interpreter's serial loop at every
/// tail residue — lengths congruent to 1..=7 (mod 8), exactly 0, and
/// straddling the chunk boundaries 63/64/65 and 127/128/129.
#[test]
fn fmap_tail_lengths_are_bit_identical() {
    for body_kind in 0..3 {
        for len in [0usize, 1, 2, 3, 4, 5, 6, 7, 9, 63, 64, 65, 127, 128, 129] {
            let lens = [len];
            let op = make_op(&lens, 1, body_kind);
            let p = lower(&op).unwrap();
            let input: Vec<f32> = (0..p.output_size())
                .map(|x| (x as f32).mul_add(0.37, -11.0))
                .collect();
            let r1 = p.run(&[("A", input.clone())]);
            let r2 = p.run_compiled(&[("A", input)]);
            for (i, (a, b)) in r1.output.iter().zip(&r2.output).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "len {len} body {body_kind} element {i}: interp {a} vs vm {b}"
                );
            }
            assert_eq!(r1.stats, r2.stats, "len {len} body {body_kind} stats");
        }
    }
}

/// A reduction store (`AddAssign`) whose row crosses the chunk boundary
/// must preserve the serial accumulation order in Strict mode. The
/// inputs alternate magnitudes so any reassociation changes the bits.
#[test]
fn reduction_store_order_preserved_across_chunk_boundary() {
    for len in [63usize, 64, 65, 127, 128, 129, 200] {
        let lens = [len, 3];
        let a = ragged_2d("A", &lens, 1);
        let out = TensorRef::new("S", RaggedLayout::dense(&[lens.len()]));
        let a2 = a.clone();
        let body: BodyFn = Rc::new(move |args| a2.at(args));
        let op = Operator::new(
            "rowsum",
            vec![LoopSpec::fixed("o", lens.len())],
            vec![LoopSpec::variable("i", 0, lens.to_vec())],
            out,
            vec![a],
            body,
        );
        let p = lower(&op).unwrap();
        let n: usize = lens.iter().sum();
        // Alternate huge and tiny addends: the sum is order-sensitive,
        // so a reassociated fold would produce different bits.
        let input: Vec<f32> = (0..n)
            .map(|x| if x % 2 == 0 { 1.0e7 } else { 1.125 })
            .collect();
        let r1 = p.run(&[("A", input.clone())]);
        let r2 = p.run_compiled(&[("A", input)]);
        for (a, b) in r1.output.iter().zip(&r2.output) {
            assert_eq!(a.to_bits(), b.to_bits(), "len {len}: interp {a} vs vm {b}");
        }
        assert_eq!(r1.stats, r2.stats);
    }
}

// ---------------------------------------------------------------------
// Buffer-planned pipelines
// ---------------------------------------------------------------------

/// `(program, source buffer, output buffer)` of one chain stage.
type ChainStage = (CompiledProgram, String, String);

/// A random operator chain over external input `B0`: each stage reads a
/// pseudo-random earlier buffer, so lifetimes vary from die-immediately
/// to live-to-the-end. Returns the pipeline, its stages and the buffer
/// size.
fn random_chain(
    lens: &[usize],
    pad: usize,
    srcs: &[usize],
) -> (CompiledPipeline, Vec<ChainStage>, usize) {
    let size = lower(&make_op(lens, pad, 0)).unwrap().output_size();
    let mut b = PipelineBuilder::new("randchain");
    b.input("B0", size).unwrap();
    let mut names = vec!["B0".to_string()];
    let mut progs = Vec::new();
    for (i, &s) in srcs.iter().enumerate() {
        let mut op = make_op(lens, pad, s % 3);
        op.schedule_mut().bind("o", ForKind::GpuBlockX);
        let prog = lower(&op).unwrap().compile();
        let src = names[(s / 3) % names.len()].clone();
        let out = format!("B{}", i + 1);
        b.stage(&format!("s{i}"), prog.clone(), &[("A", &src)], &out)
            .unwrap();
        progs.push((prog, src, out.clone()));
        names.push(out);
    }
    let pipeline = b.build(names.last().unwrap()).unwrap();
    (pipeline, progs, size)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random operator chains through `CompiledPipeline`: (a) the arena
    /// plan never assigns one slot to two buffers with overlapping
    /// lifetimes, and (b) pipeline execution — serial and parallel — is
    /// bit-identical to running the same compiled programs one by one
    /// with fresh per-op buffers.
    #[test]
    fn pipeline_arena_matches_fresh_buffers(
        lens in prop::collection::vec(0usize..10, 1..5),
        pad in 1usize..4,
        srcs in prop::collection::vec(0usize..1000, 2..7),
    ) {
        use std::collections::HashMap;

        let (pipeline, progs, size) = random_chain(&lens, pad, &srcs);
        let last = &progs.last().unwrap().2;

        // (a) Plan soundness: a shared slot implies disjoint lifetimes.
        let entries = pipeline.plan().entries();
        for (i, a) in entries.iter().enumerate() {
            for o in &entries[i + 1..] {
                if a.slot == o.slot {
                    prop_assert!(
                        a.last_use < o.def || o.last_use < a.def,
                        "`{}` [{}, {}] and `{}` [{}, {}] share slot {}",
                        a.name, a.def, a.last_use, o.name, o.def, o.last_use, a.slot
                    );
                }
            }
        }

        // (b) Reference: the same programs with fresh buffers per op.
        let x: Vec<f32> = (0..size).map(|v| v as f32 * 0.25 - 2.0).collect();
        let mut vals: HashMap<String, Vec<f32>> = HashMap::new();
        vals.insert("B0".to_string(), x.clone());
        for (prog, src, out) in &progs {
            let r = prog.run(&[("A", vals[src].clone())]);
            vals.insert(out.clone(), r.output);
        }
        let want = &vals[last];

        let mut session = pipeline.session().unwrap();
        let serial = session.run_serial(&[("B0", &x)]);
        let wb: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
        let sb: Vec<u32> = serial.output.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(wb, sb, "arena execution diverges from fresh buffers");

        let par = session.run(&CpuPool::new(4), &[("B0", &x)]);
        let pb: Vec<u32> = par.output.iter().map(|v| v.to_bits()).collect();
        let sb: Vec<u32> = serial.output.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(pb, sb, "parallel pipeline diverges from serial");
        for (p, s) in par.stages.iter().zip(&serial.stages) {
            prop_assert_eq!(p.stats, s.stats, "stage `{}` stats diverge", p.label);
        }
    }

    /// A session is a view over a prep: sessions minted in turn from one
    /// `PipelinePrep`, the owned-convenience session and a session run
    /// at a different pool width all give identical outputs and stats,
    /// and the dispatch batches cut by the first session are still in
    /// the prep for the second — no re-cut.
    #[test]
    fn sessions_over_one_prep_agree(
        lens in prop::collection::vec(0usize..10, 1..5),
        pad in 1usize..4,
        srcs in prop::collection::vec(0usize..1000, 2..5),
    ) {
        let (pipeline, progs, size) = random_chain(&lens, pad, &srcs);
        let x: Vec<f32> = (0..size).map(|v| v as f32 * 0.25 - 2.0).collect();
        let inputs: [(&str, &[f32]); 1] = [("B0", &x)];
        let stats_of = |run: &cora::core::pipeline::PipelineRun| -> Vec<InterpStats> {
            run.stages.iter().map(|s| s.stats).collect()
        };

        let want = pipeline.session().unwrap().run(&CpuPool::new(4), &inputs);

        let mut prep = pipeline.prepare().unwrap();
        prop_assert_eq!(prep.dispatch_widths(), vec![0; progs.len()], "nothing cut yet");
        for mint in 0..3 {
            if mint > 0 {
                // The previous session's batches survive in the prep.
                prop_assert_eq!(prep.dispatch_widths(), vec![4; progs.len()]);
            }
            let run = pipeline.session_with(&mut prep).run(&CpuPool::new(4), &inputs);
            prop_assert_eq!(bits(&want.output), bits(&run.output), "mint {}", mint);
            prop_assert_eq!(stats_of(&want), stats_of(&run), "mint {}", mint);
        }
        let narrow = pipeline.session_with(&mut prep).run(&CpuPool::new(2), &inputs);
        prop_assert_eq!(prep.dispatch_widths(), vec![2; progs.len()], "re-cut for the new width");
        prop_assert_eq!(bits(&want.output), bits(&narrow.output));
        prop_assert_eq!(stats_of(&want), stats_of(&narrow));
        let serial = pipeline.session_with(&mut prep).run_serial(&inputs);
        prop_assert_eq!(bits(&want.output), bits(&serial.output));
        prop_assert_eq!(stats_of(&want), stats_of(&serial));
    }
}

/// An output slot bound read-only panics with the same message whether
/// the store goes through the chunked path (a fused unit-stride map) or
/// the per-element path (a select keeps the loop unfused).
#[test]
fn read_only_output_panics_identically_on_chunked_and_element_paths() {
    let lens = [4usize, 0, 7];
    let message = |body_kind: usize| -> String {
        let compiled = lower(&make_op(&lens, 1, body_kind)).unwrap().compile();
        let fused = compiled.vm().fused_counts().2 > 0;
        assert_eq!(
            fused,
            body_kind == 0,
            "body {body_kind} picks the intended store path"
        );
        let table = compiled.serial_shared_with(&compiled.build_prelude());
        let buf = vec![0.0f32; compiled.output_size()];
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            table.run_borrowed(vec![("A", BoundBuf::In(&buf)), ("B", BoundBuf::In(&buf))]);
        }))
        .expect_err("a store to a read-only binding must panic");
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default()
    };
    let (chunked, element) = (message(0), message(1));
    assert!(chunked.contains("bound read-only"), "{chunked}");
    assert_eq!(chunked, element);
}

#[test]
fn parallel_without_block_axis_falls_back_to_serial() {
    let lens = [4usize, 0, 7, 2];
    let op = make_op(&lens, 1, 0);
    let p = lower(&op).unwrap();
    let compiled = p.compile();
    assert!(!compiled.has_parallel_tier());
    let input: Vec<f32> = (0..p.output_size()).map(|x| x as f32).collect();
    let serial = compiled.run(&[("A", input.clone())]);
    let par = compiled
        .run_parallel(&CpuPool::new(4), &[("A", input)])
        .expect("no block axis means serial fallback, not an error");
    assert_eq!(serial.output, par.output);
    assert_eq!(serial.stats, par.stats);
}

#[test]
fn compiled_program_is_reusable_and_matches_run() {
    let lens = [5usize, 0, 3, 8];
    let op = make_op(&lens, 1, 0);
    let p = lower(&op).unwrap();
    let c = p.compile();
    let input: Vec<f32> = (0..p.output_size()).map(|x| x as f32 - 4.0).collect();
    let r1 = c.run(&[("A", input.clone())]);
    let r2 = c.run(&[("A", input.clone())]);
    assert_eq!(r1.output, r2.output, "compiled runs must be deterministic");
    assert_eq!(r1.stats, r2.stats);
    let ri = p.run(&[("A", input)]);
    assert_eq!(ri.output, r2.output);
    assert_eq!(ri.stats, r2.stats);
}

#[test]
fn hoisting_cuts_aux_loads_identically_in_both_tiers() {
    // The For-extent accounting fix and LetInt hoist bindings must agree:
    // hoisting reduces aux loads, and both tiers report the same number.
    let lens = [32usize, 16, 48];
    let plain = lower(&make_op(&lens, 1, 0)).unwrap();
    let mut hop = make_op(&lens, 1, 0);
    hop.schedule_mut().hoist_loads();
    let hoisted = lower(&hop).unwrap();
    let input: Vec<f32> = (0..plain.output_size()).map(|x| x as f32).collect();
    let rp = plain.run_compiled(&[("A", input.clone())]);
    let rh = hoisted.run_compiled(&[("A", input.clone())]);
    assert_eq!(rp.stats, plain.run(&[("A", input.clone())]).stats);
    assert_eq!(rh.stats, hoisted.run(&[("A", input)]).stats);
    assert!(
        rh.stats.aux_loads < rp.stats.aux_loads,
        "hoisting should cut aux loads: {} vs {}",
        rh.stats.aux_loads,
        rp.stats.aux_loads
    );
}
