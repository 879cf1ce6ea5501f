//! Golden tests on the generated source: the compilation artefacts the
//! paper's Fig. 4 walks through must be visible in the emitted code —
//! C/CUDA text and the bytecode VM's disassembly alike, so both codegen
//! and parallel-outlining regressions show up as plain text diffs.

use std::rc::Rc;

use cora::core::prelude::*;
use cora::ragged::{Dim, RaggedLayout};

fn fig4_operator() -> Operator {
    // The paper's running pipeline: B[o,i] = 2*A[o,i] with lens [5,2,3],
    // loop padded by 2, output storage padded by 4, loops fused.
    let lens = vec![5usize, 2, 3];
    let batch = Dim::new("batch");
    let len = Dim::new("len");
    let a_layout = RaggedLayout::builder()
        .cdim(batch.clone(), 3)
        .vdim(len.clone(), &batch, lens.clone())
        .pad(4)
        .build()
        .unwrap();
    let batch_b = Dim::new("batch");
    let len_b = Dim::new("len");
    let b_layout = RaggedLayout::builder()
        .cdim(batch_b.clone(), 3)
        .vdim(len_b, &batch_b, lens.clone())
        .pad(4)
        .build()
        .unwrap();
    let a = TensorRef::new("A", a_layout);
    let out = TensorRef::new("B", b_layout);
    let a2 = a.clone();
    let body: BodyFn = Rc::new(move |args| a2.at(args) * 2.0);
    Operator::new(
        "fig4",
        vec![LoopSpec::fixed("o", 3), LoopSpec::variable("i", 0, lens)],
        vec![],
        out,
        vec![a],
        body,
    )
}

#[test]
fn unfused_source_reads_row_index_arrays() {
    let p = lower(&fig4_operator()).unwrap();
    let src = p.c_source();
    // Fig. 4's generated code: B[row_idx_b[o] + i] = 2 * A[row_idx_a[o] + i].
    assert!(
        src.contains("B__A0[o]"),
        "output row offsets missing:\n{src}"
    );
    assert!(
        src.contains("A__A0[o]"),
        "input row offsets missing:\n{src}"
    );
    assert!(src.contains("*2.0f"), "body missing:\n{src}");
    // Extents come from the prelude's padded length table.
    assert!(
        src.contains("fig4__ext_i[o]"),
        "extent table missing:\n{src}"
    );
}

#[test]
fn fused_source_reads_fusion_maps_and_param() {
    let mut op = fig4_operator();
    op.schedule_mut().pad_loop("i", 2).fuse_loops("o", "i");
    let p = lower(&op).unwrap();
    let src = p.c_source();
    // Fig. 4: for f in foif[M, s(M-1)]: o = ffo(f); i = ffi(f).
    assert!(
        src.contains("F_o_i_f"),
        "fused extent parameter missing:\n{src}"
    );
    assert!(src.contains("o_i_f__ffo[o_i_f]"), "ffo map missing:\n{src}");
    assert!(src.contains("o_i_f__ffi[o_i_f]"), "ffi map missing:\n{src}");
    // The prelude must build exactly the Fig. 4 arrays: with loop pad 2,
    // lens [5,2,3] pad to [6,2,4] => F = 12.
    let data = p.prelude_spec().build();
    let f = data.params.iter().find(|(n, _)| n == "F_o_i_f").unwrap();
    assert_eq!(f.1, 12);
    let ffo = data
        .int_buffers
        .iter()
        .find(|(n, _)| n == "o_i_f__ffo")
        .unwrap();
    assert_eq!(ffo.1[..], [0, 0, 0, 0, 0, 0, 1, 1, 2, 2, 2, 2]);
}

#[test]
fn vm_disassembly_of_fig4_is_golden() {
    // The full bytecode of the block-bound Fig. 4 kernel, one line per
    // instruction with resolved slot names. Any change to slot
    // resolution, peepholes, loop shape or the outliner's input shows up
    // here as a one-line diff. The block
    // loop is the fused map's row level: each row reads its extent
    // (`fig4__ext_i[o]`) and its row-offset tables (`B__A0`, `A__A0`)
    // natively, with no bytecode per row.
    let mut op = fig4_operator();
    op.schedule_mut().bind("o", ForKind::GpuBlockX);
    let p = lower(&op).unwrap();
    let compiled = p.compile();
    let golden = "   0  iconst   r0, 0
   1  iconst   r1, 3
   2  bumpaux  n=0
   3  fmap     B[B__A0[o@0]:1] assign (ld0; #2.0; fmul t0 t1), sites=[A[A__A0[o@0]:1]], n=fig4__ext_i[o@0], aux=2, flops=1, rows=o@0 in [r0, +r1), raux=1
";
    assert_eq!(
        compiled.vm().to_string(),
        golden,
        "serial bytecode diverged from the golden disassembly"
    );
    // The outlined parallel tier's body, compiled as a tile body: the
    // block loop runs over `[tile.first, tile.first + tile.len)` — the
    // entry point each worker executes once per tile — and is the same
    // row level, announcing each block to the output port (`block`).
    let body_golden = "   0  ivar     r0, tile.first
   1  ivar     r1, tile.len
   2  bumpaux  n=0
   3  fmap     B[B__A0[o@2]:1] assign (ld0; #2.0; fmul t0 t1), sites=[A[A__A0[o@2]:1]], n=fig4__ext_i[o@2], aux=2, flops=1, rows=o@2 in [r0, +r1) block, raux=1
";
    let body = compiled
        .parallel_body()
        .expect("block-bound schedule outlines");
    assert_eq!(
        body.to_string(),
        body_golden,
        "outlined block body diverged from the golden disassembly"
    );
}

#[test]
fn cuda_and_c_dialects_differ_only_in_axis_binding() {
    let mut op = fig4_operator();
    op.schedule_mut().bind("o", ForKind::GpuBlockX);
    let p = lower(&op).unwrap();
    let c = p.c_source();
    let cuda = p.cuda_source();
    assert!(c.contains("for (int o"), "C keeps the loop:\n{c}");
    assert!(cuda.contains("blockIdx.x"), "CUDA binds the axis:\n{cuda}");
    assert!(
        !cuda.contains("for (int o"),
        "CUDA must not loop over o:\n{cuda}"
    );
}

#[test]
fn vm_disassembly_of_projection_gemm_is_golden() {
    // The encoder's projection GEMM (reordered r, d, c): the whole
    // two-deep (d, c) reduction nest, inside its row level over `r`,
    // compiles to a single `fmulacc2` — each index is `base:inner:outer`
    // with literal strides read off the index (`In[2*r:0:1]` — In has no
    // c term), and the instruction runs the i-k-j panel natively per
    // row. Any change to the reorder directive, the affine screen or the
    // fused emission shows here as a text diff.
    let p = lower(&cora::transformer::encoder_compiled::proj_operator(
        "proj", 3, 2, 2,
    ))
    .unwrap();
    let compiled = p.compile();
    let golden = "   0  iconst   r0, 0
   1  ivar     r1, rows
   2  bumpaux  n=0
   3  fmulacc2 Out[2*r@1:1:0] += In[2*r@1:0:1] * W[0:1:2], n=2x2, aux=0, baux=0, rows=r@1 in [r0, +r1), raux=0
";
    assert_eq!(
        compiled.vm().to_string(),
        golden,
        "projection-GEMM serial bytecode diverged"
    );
    // The tile body: the same instruction over the tile's rows.
    let body_golden = "   0  ivar     r0, tile.first
   1  ivar     r1, tile.len
   2  bumpaux  n=0
   3  fmulacc2 Out[2*r@2:1:0] += In[2*r@2:0:1] * W[0:1:2], n=2x2, aux=0, baux=0, rows=r@2 in [r0, +r1) block, raux=0
";
    let body = compiled
        .parallel_body()
        .expect("block-bound projection outlines");
    assert_eq!(
        body.to_string(),
        body_golden,
        "projection-GEMM outlined body diverged"
    );
}

#[test]
fn vm_disassembly_of_layernorm_is_golden() {
    // The layer-norm normalisation pass: the branch-free body compiles
    // to a fused-map tape (`fmap`) whose op sequence mirrors the
    // reference kernel exactly (sub, div-by-n, sqrt, recip, two muls,
    // add), with the row-invariant S/V loads deduplicated into sites.
    // The In site has Out's index (`2*r:1`), S/V move with the row and
    // not along it (`r:0`), and G/Bt along it only (`0:1`).
    let p = lower(&cora::transformer::encoder_compiled::ln_norm_operator(
        "ln_norm", 2, 2,
    ))
    .unwrap();
    let compiled = p.compile();
    let golden = "   0  iconst   r0, 0
   1  ivar     r1, rows
   2  bumpaux  n=0
   3  fmap     Out[2*r@1:1] assign (ld0; ld1; #2.0; fdiv t1 t2; fsub t0 t3; ld2; #2.0; fdiv t5 t6; #1e-5; fadd t7 t8; sqrt t9; recip t10; fmul t4 t11; ld3; fmul t12 t13; ld4; fadd t14 t15), sites=[In[2*r@1:1], S[r@1:0], V[r@1:0], G[0:1], Bt[0:1]], n=2, aux=0, flops=9, rows=r@1 in [r0, +r1), raux=0
";
    assert_eq!(
        compiled.vm().to_string(),
        golden,
        "layer-norm serial bytecode diverged"
    );
    let body_golden = "   0  ivar     r0, tile.first
   1  ivar     r1, tile.len
   2  bumpaux  n=0
   3  fmap     Out[2*r@2:1] assign (ld0; ld1; #2.0; fdiv t1 t2; fsub t0 t3; ld2; #2.0; fdiv t5 t6; #1e-5; fadd t7 t8; sqrt t9; recip t10; fmul t4 t11; ld3; fmul t12 t13; ld4; fadd t14 t15), sites=[In[2*r@2:1], S[r@2:0], V[r@2:0], G[0:1], Bt[0:1]], n=2, aux=0, flops=9, rows=r@2 in [r0, +r1) block, raux=0
";
    let body = compiled
        .parallel_body()
        .expect("block-bound layer norm outlines");
    assert_eq!(
        body.to_string(),
        body_golden,
        "layer-norm outlined body diverged"
    );
}

#[test]
fn guard_elision_under_padding() {
    // A split whose factor divides the padded extents needs no guard; a
    // non-dividing constant split keeps one.
    let lens = vec![8usize, 4, 8];
    let batch = Dim::new("batch");
    let len = Dim::new("len");
    let mk = |name: &str| {
        let b2 = Dim::new("batch");
        let l2 = Dim::new("len");
        TensorRef::new(
            name,
            RaggedLayout::builder()
                .cdim(b2.clone(), 3)
                .vdim(l2, &b2, lens.clone())
                .pad(4)
                .build()
                .unwrap(),
        )
    };
    let _ = (batch, len);
    let a = mk("A");
    let out = mk("B");
    let a2 = a.clone();
    let body: BodyFn = Rc::new(move |args| a2.at(args) * 2.0);
    let mut op = Operator::new(
        "split_t",
        vec![LoopSpec::fixed("o", 3), LoopSpec::variable("i", 0, lens)],
        vec![],
        out,
        vec![a],
        body,
    );
    op.schedule_mut().pad_loop("i", 4).split("i", 4);
    let p = lower(&op).unwrap();
    assert_eq!(
        p.stmt().count_guards(),
        0,
        "dividing split of a padded vloop needs no guard:\n{}",
        p.c_source()
    );
}
