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
    // resolution, peepholes, the block-local CSE/DCE pass, loop shape or
    // the outliner's input shows up here as a one-line diff. Note the
    // CSE pass loading each row-offset table (`B__A0`, `A__A0`) once and
    // reusing the register across both index probes.
    let mut op = fig4_operator();
    op.schedule_mut().bind("o", ForKind::GpuBlockX);
    let p = lower(&op).unwrap();
    let compiled = p.compile();
    let golden = "   0  iconst   r0, 0
   1  iconst   r1, 3
   2  bumpaux  n=0
   3  setvar   o@0, r0
   4  iadd     r0, r0, r1
   5  br.ge    o@0, r0 -> 23
   6  iconst   r1, 0
   7  iload.v  r2, fig4__ext_i[o@0]
   8  bumpaux  n=1
   9  setvar   i@1, r1
  10  br.le    r2, r1 -> 22, 11
  11  iload.v  r10, B__A0[o@0]
  12  ivar     r11, i@1
  13  iadd     r12, r10, r11
  14  iload.v  r13, A__A0[o@0]
  15  iadd     r14, r13, r11
  16  iadd.c   r15, r11, #1
  17  setvar   i@1, r15
  18  ivar     r16, i@1
  19  iadd     r17, r10, r16
  20  iadd     r18, r13, r16
  21  fmap     B[r12:r17] assign (ld0; #2.0; fmul t0 t1), sites=[A[r14:r18]], n=r2, aux=2, flops=1
  22  loop     o@0, r0 -> 6
";
    assert_eq!(
        compiled.vm().to_string(),
        golden,
        "serial bytecode diverged from the golden disassembly"
    );
    // The outlined parallel tier's body: the serial program minus the
    // block loop's header/back-edge, with `o` resolved as a *free*
    // variable (no `@slot` suffix) — the block-indexed entry point each
    // worker executes.
    let body_golden = "   0  iconst   r9, 0
   1  iload.v  r1, fig4__ext_i[o]
   2  bumpaux  n=1
   3  setvar   i@1, r9
   4  br.le    r1, r9 -> 16, 5
   5  iload.v  r10, B__A0[o]
   6  ivar     r11, i@1
   7  iadd     r12, r10, r11
   8  iload.v  r13, A__A0[o]
   9  iadd     r14, r13, r11
  10  iadd.c   r15, r11, #1
  11  setvar   i@1, r15
  12  ivar     r16, i@1
  13  iadd     r17, r10, r16
  14  iadd     r18, r13, r16
  15  fmap     B[r12:r17] assign (ld0; #2.0; fmul t0 t1), sites=[A[r14:r18]], n=r1, aux=2, flops=1
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
    // two-deep (d, c) reduction nest compiles to a single `fmulacc2` —
    // index probes at (0,0), (0,1) and (1,0) describe each affine index,
    // and the instruction runs the i-k-j panel natively. The CSE pass
    // shares `r*2` across all probes and even discovers that In's (0,0)
    // and (0,1) probes coincide (`In[r25:r25:r36]` — In has no c term).
    // Any change to the reorder directive, the affine screen, the fused
    // emission or the CSE/DCE pass shows here as a text diff.
    let p = lower(&cora::transformer::encoder_compiled::proj_operator(
        "proj", 3, 2, 2,
    ))
    .unwrap();
    let compiled = p.compile();
    let golden = "   0  iconst   r0, 0
   1  ivar     r1, rows
   2  bumpaux  n=0
   3  setvar   r@1, r0
   4  iadd     r0, r0, r1
   5  br.ge    r@1, r0 -> 38
   6  iconst   r1, 0
   7  iconst   r2, 2
   8  bumpaux  n=0
   9  setvar   d@2, r1
  10  br.le    r2, r1 -> 37, 11
  11  iconst   r18, 0
  12  iconst   r19, 2
  13  setvar   c@3, r18
  14  ivar     r20, r@1
  15  imul     r21, r20, r19
  16  ivar     r22, c@3
  17  iadd     r23, r21, r22
  18  ivar     r24, d@2
  19  iadd     r25, r21, r24
  20  imul     r26, r24, r19
  21  iadd     r27, r26, r22
  22  iadd.c   r28, r22, #1
  23  setvar   c@3, r28
  24  ivar     r29, c@3
  25  iadd     r30, r21, r29
  26  iadd     r31, r26, r29
  27  setvar   c@3, r18
  28  iadd.c   r32, r24, #1
  29  setvar   d@2, r32
  30  ivar     r33, c@3
  31  iadd     r34, r21, r33
  32  ivar     r35, d@2
  33  iadd     r36, r21, r35
  34  imul     r37, r35, r19
  35  iadd     r38, r37, r33
  36  fmulacc2 Out[r23:r30:r34] += In[r25:r25:r36] * W[r27:r31:r38], n=r2xr19, aux=0, baux=0
  37  loop     r@1, r0 -> 6
";
    assert_eq!(
        compiled.vm().to_string(),
        golden,
        "projection-GEMM serial bytecode diverged"
    );
    // The outlined block body: the row loop's header/back-edge gone, `r`
    // free, the fused inner loop unchanged.
    let body_golden = "   0  iconst   r17, 0
   1  iconst   r1, 2
   2  bumpaux  n=0
   3  setvar   d@1, r17
   4  br.le    r1, r17 -> 31, 5
   5  iconst   r18, 0
   6  iconst   r19, 2
   7  setvar   c@2, r18
   8  ivar     r20, r
   9  imul     r21, r20, r19
  10  ivar     r22, c@2
  11  iadd     r23, r21, r22
  12  ivar     r24, d@1
  13  iadd     r25, r21, r24
  14  imul     r26, r24, r19
  15  iadd     r27, r26, r22
  16  iadd.c   r28, r22, #1
  17  setvar   c@2, r28
  18  ivar     r29, c@2
  19  iadd     r30, r21, r29
  20  iadd     r31, r26, r29
  21  setvar   c@2, r18
  22  iadd.c   r32, r24, #1
  23  setvar   d@1, r32
  24  ivar     r33, c@2
  25  iadd     r34, r21, r33
  26  ivar     r35, d@1
  27  iadd     r36, r21, r35
  28  imul     r37, r35, r19
  29  iadd     r38, r37, r33
  30  fmulacc2 Out[r23:r30:r34] += In[r25:r25:r36] * W[r27:r31:r38], n=r1xr19, aux=0, baux=0
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
    // After CSE the In site shares Out's registers (`In[r21:r24]` — the
    // same affine index), S/V share the row register, and G/Bt the
    // column register.
    let p = lower(&cora::transformer::encoder_compiled::ln_norm_operator(
        "ln_norm", 2, 2,
    ))
    .unwrap();
    let compiled = p.compile();
    let golden = "   0  iconst   r0, 0
   1  ivar     r1, rows
   2  bumpaux  n=0
   3  setvar   r@1, r0
   4  iadd     r0, r0, r1
   5  br.ge    r@1, r0 -> 22
   6  iconst   r1, 0
   7  iconst   r2, 2
   8  bumpaux  n=0
   9  setvar   d@2, r1
  10  br.le    r2, r1 -> 21, 11
  11  ivar     r17, r@1
  12  iconst   r18, 2
  13  imul     r19, r17, r18
  14  ivar     r20, d@2
  15  iadd     r21, r19, r20
  16  iadd.c   r22, r20, #1
  17  setvar   d@2, r22
  18  ivar     r23, d@2
  19  iadd     r24, r19, r23
  20  fmap     Out[r21:r24] assign (ld0; ld1; #2.0; fdiv t1 t2; fsub t0 t3; ld2; #2.0; fdiv t5 t6; #1e-5; fadd t7 t8; sqrt t9; recip t10; fmul t4 t11; ld3; fmul t12 t13; ld4; fadd t14 t15), sites=[In[r21:r24], S[r17:r17], V[r17:r17], G[r20:r23], Bt[r20:r23]], n=r2, aux=0, flops=9
  21  loop     r@1, r0 -> 6
";
    assert_eq!(
        compiled.vm().to_string(),
        golden,
        "layer-norm serial bytecode diverged"
    );
    let body_golden = "   0  iconst   r16, 0
   1  iconst   r1, 2
   2  bumpaux  n=0
   3  setvar   d@1, r16
   4  br.le    r1, r16 -> 15, 5
   5  ivar     r17, r
   6  iconst   r18, 2
   7  imul     r19, r17, r18
   8  ivar     r20, d@1
   9  iadd     r21, r19, r20
  10  iadd.c   r22, r20, #1
  11  setvar   d@1, r22
  12  ivar     r23, d@1
  13  iadd     r24, r19, r23
  14  fmap     Out[r21:r24] assign (ld0; ld1; #2.0; fdiv t1 t2; fsub t0 t3; ld2; #2.0; fdiv t5 t6; #1e-5; fadd t7 t8; sqrt t9; recip t10; fmul t4 t11; ld3; fmul t12 t13; ld4; fadd t14 t15), sites=[In[r21:r24], S[r17:r17], V[r17:r17], G[r20:r23], Bt[r20:r23]], n=r1, aux=0, flops=9
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
