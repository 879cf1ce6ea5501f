//! Storage access lowering — Algorithm 1 of the paper (§5.3, §B.1).
//!
//! Given a multi-dimensional index `(b_1, .., b_n)` into a ragged layout,
//! the lowering produces the flat memory offset as
//! `Off = Σ_i D_i(B_≤i)`, where each dimension's contribution `D_i` is
//! either `b_i × (constant inner volume)` for independent dimensions or
//! `A_i[b_i] × (inner cdim volume)` when inner dimensions depend on `i`
//! (the `A_i` prefix sums come from [`crate::aux::AuxOffsets`]).
//!
//! Two artefacts are produced and cross-checked in tests:
//!
//! * [`offset`] — the runtime computation (used by executors), and
//! * [`offset_expr`] — the compile-time [`Expr`] referencing `A_i` as
//!   auxiliary-buffer loads, which the compiler embeds in lowered kernels.
//!
//! Both are O(1) per access: no searching, unlike CSR-style formats
//! (insight I2).

use cora_ir::{Env, Expr};

use crate::aux::AuxOffsets;
use crate::layout::RaggedLayout;

/// Computes the flat offset of `index` at runtime.
///
/// # Panics
///
/// Panics (in debug builds) if `index` is out of bounds for the layout.
pub fn offset(layout: &RaggedLayout, aux: &AuxOffsets, index: &[usize]) -> usize {
    let n = layout.ndim();
    debug_assert_eq!(index.len(), n, "index rank mismatch");
    let g = layout.graph();
    let mut off = 0i64;
    // Single backward pass: `vol` is the slice volume of everything
    // strictly inner to dimension d, resolved against the fixed outer
    // indices (O(1) work per dimension — insight I2's constant-time
    // access, matching the compiled expression form).
    let mut vol = 1i64;
    for d in (0..n).rev() {
        let extent = match g.incoming(d) {
            None => layout.fixed_extent(d).expect("cdim has fixed extent"),
            Some(k) => layout.extent_at(d, index[k]),
        };
        debug_assert!(
            index[d] < extent,
            "index {index:?} out of bounds at dim {d}"
        );
        off += if g.has_dependents(d) {
            let a = aux.array(d).expect("dependent dim has an A_d array");
            a[index[d]] * aux.outer_multiplier(d)
        } else {
            index[d] as i64 * vol
        };
        vol *= extent as i64;
    }
    usize::try_from(off).expect("offset is non-negative")
}

/// Builds the compile-time offset expression for symbolic indices `idx`
/// (one integer [`Expr`] per dimension, outermost first).
///
/// `aux_name(d)` names the auxiliary buffer carrying `A_d`; extents of
/// vdims are read from the same buffers as differences
/// `A_d[i+1] - A_d[i]` were they needed, but slice extents of *inner*
/// dimensions appear as `Load(lens_name(j), idx[k])` through
/// `lens_name` — the per-dimension padded length tables the prelude also
/// uploads.
pub fn offset_expr(
    layout: &RaggedLayout,
    idx: &[Expr],
    aux_name: &dyn Fn(usize) -> String,
    lens_name: &dyn Fn(usize) -> String,
) -> Expr {
    let n = layout.ndim();
    assert_eq!(idx.len(), n, "index rank mismatch");
    let g = layout.graph();
    let mut off = Expr::int(0);
    for d in 0..n {
        let contribution = if g.has_dependents(d) {
            let mult = {
                let mut m = 1i64;
                for j in (d + 1)..n {
                    if g.incoming(j).is_none() {
                        m *= layout.fixed_extent(j).unwrap() as i64;
                    }
                }
                m
            };
            Expr::load(aux_name(d), idx[d].clone()) * Expr::int(mult)
        } else {
            let mut vol = Expr::int(1);
            for j in (d + 1)..n {
                let e = match g.incoming(j) {
                    None => Expr::int(layout.fixed_extent(j).unwrap() as i64),
                    Some(k) => Expr::load(lens_name(j), idx[k].clone()),
                };
                vol = vol * e;
            }
            idx[d].clone() * vol
        };
        off = off + contribution;
    }
    off
}

/// Installs the auxiliary buffers referenced by [`offset_expr`] into an
/// evaluation environment (used by the interpreter and by tests).
pub fn install_buffers(
    env: &mut Env,
    layout: &RaggedLayout,
    aux: &AuxOffsets,
    aux_name: &dyn Fn(usize) -> String,
    lens_name: &dyn Fn(usize) -> String,
) {
    for d in 0..layout.ndim() {
        if let Some(a) = aux.array(d) {
            env.set_buffer(aux_name(d), a.to_vec());
        }
        if let Some(lens) = layout.padded_lens(d) {
            env.set_buffer(
                lens_name(d),
                lens.as_slice()
                    .iter()
                    .map(|&x| x as i64)
                    .collect::<std::sync::Arc<[i64]>>(),
            );
        }
    }
}

/// Enumerates all valid (unpadded) indices of a layout in storage order.
///
/// Used by tests to check that offsets of valid indices are unique and —
/// for unpadded layouts — dense in `0..size`.
pub fn valid_indices(layout: &RaggedLayout) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut cur = vec![0usize; layout.ndim()];
    enumerate_rec(layout, 0, &mut cur, &mut out);
    out
}

fn enumerate_rec(layout: &RaggedLayout, d: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    if d == layout.ndim() {
        out.push(cur.clone());
        return;
    }
    let extent = match layout.graph().incoming(d) {
        None => layout.fixed_extent(d).unwrap(),
        Some(k) => layout.raw_extent_at(d, cur[k]),
    };
    for i in 0..extent {
        cur[d] = i;
        enumerate_rec(layout, d + 1, cur, out);
    }
    cur[d] = 0;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dim::Dim;

    fn aux_name(d: usize) -> String {
        format!("A_{d}")
    }

    fn lens_name(d: usize) -> String {
        format!("lens_{d}")
    }

    fn fig4_layout() -> RaggedLayout {
        let batch = Dim::new("batch");
        let len = Dim::new("len");
        RaggedLayout::builder()
            .cdim(batch.clone(), 3)
            .vdim(len, &batch, vec![5usize, 2, 3])
            .build()
            .unwrap()
    }

    #[test]
    fn offsets_are_dense_for_unpadded_layout() {
        let l = fig4_layout();
        let aux = AuxOffsets::build(&l);
        let offsets: Vec<usize> = valid_indices(&l)
            .iter()
            .map(|ix| offset(&l, &aux, ix))
            .collect();
        let expect: Vec<usize> = (0..l.size()).collect();
        assert_eq!(offsets, expect);
    }

    #[test]
    fn offsets_respect_storage_padding() {
        let batch = Dim::new("batch");
        let len = Dim::new("len");
        let l = RaggedLayout::builder()
            .cdim(batch.clone(), 3)
            .vdim(len, &batch, vec![5usize, 2, 3])
            .pad(4)
            .build()
            .unwrap();
        let aux = AuxOffsets::build(&l);
        // Row starts must match Fig. 4's row_idx_b = [0, 8, 12].
        assert_eq!(offset(&l, &aux, &[0, 0]), 0);
        assert_eq!(offset(&l, &aux, &[1, 0]), 8);
        assert_eq!(offset(&l, &aux, &[2, 0]), 12);
        assert_eq!(offset(&l, &aux, &[2, 2]), 14);
    }

    #[test]
    fn four_dim_attention_offsets_bijective() {
        let batch = Dim::new("batch");
        let l1 = Dim::new("len1");
        let h = Dim::new("heads");
        let l2 = Dim::new("len2");
        let lens = vec![3usize, 1, 2];
        let l = RaggedLayout::builder()
            .cdim(batch.clone(), 3)
            .vdim(l1, &batch, lens.clone())
            .cdim(h, 2)
            .vdim(l2, &batch, lens)
            .build()
            .unwrap();
        let aux = AuxOffsets::build(&l);
        let mut offsets: Vec<usize> = valid_indices(&l)
            .iter()
            .map(|ix| offset(&l, &aux, ix))
            .collect();
        offsets.sort_unstable();
        offsets.dedup();
        assert_eq!(offsets.len(), l.size());
        assert_eq!(*offsets.last().unwrap(), l.size() - 1);
    }

    #[test]
    fn expr_form_agrees_with_runtime_form() {
        let batch = Dim::new("batch");
        let l1 = Dim::new("len1");
        let h = Dim::new("heads");
        let l2 = Dim::new("len2");
        let lens = vec![2usize, 4, 1];
        let l = RaggedLayout::builder()
            .cdim(batch.clone(), 3)
            .vdim(l1, &batch, lens.clone())
            .cdim(h, 2)
            .vdim(l2, &batch, lens)
            .build()
            .unwrap();
        let aux = AuxOffsets::build(&l);
        let idx_exprs: Vec<Expr> = (0..4).map(|d| Expr::var(format!("b{d}"))).collect();
        let e = offset_expr(&l, &idx_exprs, &aux_name, &lens_name);
        let mut env = Env::new();
        install_buffers(&mut env, &l, &aux, &aux_name, &lens_name);
        for ix in valid_indices(&l) {
            for (d, &v) in ix.iter().enumerate() {
                env.bind(format!("b{d}"), v as i64);
            }
            assert_eq!(
                env.eval(&e) as usize,
                offset(&l, &aux, &ix),
                "mismatch at {ix:?} (expr: {e})"
            );
        }
    }

    #[test]
    fn dense_layout_reduces_to_row_major() {
        let l = RaggedLayout::dense(&[2, 3, 4]);
        let aux = AuxOffsets::build(&l);
        assert_eq!(offset(&l, &aux, &[1, 2, 3]), 12 + 2 * 4 + 3);
        assert_eq!(aux.memory_bytes(), 0);
    }
}
