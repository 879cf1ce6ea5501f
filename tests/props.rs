//! Property-based tests over the core data structures and invariants.

use std::collections::HashMap;

use proptest::prelude::*;

use cora::ir::interval::{decide, range_of};
use cora::ir::simplify::{simplify, simplify_cond};
use cora::ir::{Cond, Env, Expr, SInt};
use cora::ragged::access::{offset, valid_indices};
use cora::ragged::aux::{AuxOffsets, FusedLoopMaps};
use cora::ragged::csf::CsfStorage;
use cora::ragged::{Dim, RaggedLayout};
use cora::sparse::CsrMatrix;

/// A random small integer expression over variables x, y with bounded
/// constants; division/modulo only by positive constants so evaluation is
/// total. Covers every operator the index IR has except table loads.
fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-20i64..20).prop_map(Expr::int),
        Just(Expr::var("x")),
        Just(Expr::var("y")),
    ];
    leaf.prop_recursive(4, 48, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a + b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a - b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a * b),
            (inner.clone(), -8i64..9).prop_map(|(a, c)| a * c),
            (inner.clone(), 1i64..8).prop_map(|(a, c)| a.floor_div(Expr::int(c))),
            (inner.clone(), 1i64..8).prop_map(|(a, c)| a.floor_mod(Expr::int(c))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.min(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.max(b)),
            (
                inner.clone(),
                inner.clone(),
                inner.clone(),
                inner,
                0usize..3
            )
                .prop_map(|(a, b, t, e, cmp)| {
                    let cond = match cmp {
                        0 => a.lt(b),
                        1 => a.le(b),
                        _ => a.eq_expr(b),
                    };
                    Expr::select(cond, t, e)
                }),
        ]
    })
}

/// Adversarial constants clustered at the `i64` boundaries.
fn edge_const() -> impl Strategy<Value = i64> {
    prop_oneof![
        Just(i64::MAX),
        Just(i64::MAX - 1),
        Just(i64::MIN),
        Just(i64::MIN + 1),
        Just(-1i64),
        Just(0i64),
        Just(1i64),
        Just(2i64),
        -100i64..100,
    ]
}

/// Overflow-aware reference evaluation of constant expressions: `None`
/// when any step would overflow or divide by zero.
fn checked_eval(e: &Expr) -> Option<i64> {
    use cora::ir::{ExprKind as K, IBinOp as Op};
    match e.kind() {
        K::Int(v) => Some(*v),
        K::Bin(Op::Add, a, b) => checked_eval(a)?.checked_add(checked_eval(b)?),
        K::Bin(Op::Sub, a, b) => checked_eval(a)?.checked_sub(checked_eval(b)?),
        K::Bin(Op::Mul, a, b) => checked_eval(a)?.checked_mul(checked_eval(b)?),
        K::Bin(Op::FloorDiv, a, b) => {
            let (x, y) = (checked_eval(a)?, checked_eval(b)?);
            if y == 0 || (x == i64::MIN && y == -1) {
                return None;
            }
            Some(cora::ir::expr::floor_div_i64(x, y))
        }
        K::Bin(Op::FloorMod, a, b) => {
            let (x, y) = (checked_eval(a)?, checked_eval(b)?);
            if y == 0 {
                return None;
            }
            Some(cora::ir::expr::floor_mod_i64(x, y))
        }
        _ => None,
    }
}

proptest! {
    /// The simplifier never changes an expression's value.
    #[test]
    fn simplify_preserves_evaluation(e in arb_expr(), x in -50i64..50, y in -50i64..50) {
        let s = simplify(&e);
        let mut env = Env::new();
        env.bind("x", x);
        env.bind("y", y);
        prop_assert_eq!(env.eval(&e), env.eval(&s), "expr {} vs {}", e, s);
    }

    /// Algorithm-1 offsets of an unpadded 2-D ragged layout are a
    /// bijection onto 0..size (dense packing, insight I2).
    #[test]
    fn ragged_offsets_bijective(lens in prop::collection::vec(0usize..12, 1..10)) {
        let b = Dim::new("b");
        let l = Dim::new("l");
        let layout = RaggedLayout::builder()
            .cdim(b.clone(), lens.len())
            .vdim(l, &b, lens.clone())
            .build()
            .unwrap();
        let aux = AuxOffsets::build(&layout);
        let offsets: Vec<usize> = valid_indices(&layout)
            .iter()
            .map(|ix| offset(&layout, &aux, ix))
            .collect();
        let expect: Vec<usize> = (0..layout.size()).collect();
        prop_assert_eq!(offsets, expect);
    }

    /// With storage padding, offsets remain injective and within bounds.
    #[test]
    fn padded_offsets_injective(
        lens in prop::collection::vec(0usize..12, 1..8),
        pad in 1usize..6,
    ) {
        let b = Dim::new("b");
        let l = Dim::new("l");
        let layout = RaggedLayout::builder()
            .cdim(b.clone(), lens.len())
            .vdim(l, &b, lens.clone())
            .pad(pad)
            .build()
            .unwrap();
        let aux = AuxOffsets::build(&layout);
        let mut offsets: Vec<usize> = valid_indices(&layout)
            .iter()
            .map(|ix| offset(&layout, &aux, ix))
            .collect();
        let n = offsets.len();
        offsets.sort_unstable();
        offsets.dedup();
        prop_assert_eq!(offsets.len(), n, "offsets must be unique");
        if let Some(&max) = offsets.last() {
            prop_assert!(max < layout.size());
        }
    }

    /// CSF-style offsets agree with CoRa offsets on 4-D attention layouts.
    #[test]
    fn csf_matches_cora_offsets(
        lens in prop::collection::vec(1usize..6, 1..5),
        heads in 1usize..4,
    ) {
        let batch = Dim::new("batch");
        let l1 = Dim::new("l1");
        let h = Dim::new("h");
        let l2 = Dim::new("l2");
        let layout = RaggedLayout::builder()
            .cdim(batch.clone(), lens.len())
            .vdim(l1, &batch, lens.clone())
            .cdim(h, heads)
            .vdim(l2, &batch, lens.clone())
            .build()
            .unwrap();
        let aux = AuxOffsets::build(&layout);
        let csf = CsfStorage::build(&layout);
        for ix in valid_indices(&layout) {
            prop_assert_eq!(csf.offset(&layout, &ix), offset(&layout, &aux, &ix));
        }
    }

    /// Fused-loop maps satisfy the three §B.2 axioms for arbitrary
    /// raggedness (including empty rows).
    #[test]
    fn fused_maps_axioms(lens in prop::collection::vec(0usize..10, 1..12)) {
        let maps = FusedLoopMaps::build(&lens);
        prop_assert_eq!(maps.fused_extent as usize, lens.iter().sum::<usize>());
        for f in 0..maps.fused_extent {
            let o = maps.ffo[f as usize] as usize;
            let i = maps.ffi[f as usize] as usize;
            prop_assert!(i < lens[o]);
            prop_assert_eq!(maps.foif(o, i), f);
        }
    }

    /// CSR round-trips dense matrices.
    #[test]
    fn csr_round_trip(
        vals in prop::collection::vec(-4i32..5, 12),
    ) {
        let dense: Vec<f32> = vals.iter().map(|&v| v as f32).collect();
        let m = CsrMatrix::from_dense(3, 4, &dense);
        prop_assert_eq!(m.to_dense(), dense.clone());
        for i in 0..3 {
            for j in 0..4 {
                prop_assert_eq!(m.get(i, j), dense[i * 4 + j]);
            }
        }
    }

    /// Constant folding uses checked arithmetic: adversarial constants
    /// near the `i64` boundaries must never overflow-panic, and wherever
    /// both the original and simplified expressions evaluate without
    /// overflow, they agree.
    #[test]
    fn simplify_constant_folding_never_overflows(
        a in edge_const(),
        b in edge_const(),
        c in edge_const(),
        op1 in 0usize..5,
        op2 in 0usize..5,
    ) {
        let build = |op: usize, x: Expr, y: Expr| match op {
            0 => x + y,
            1 => x - y,
            2 => x * y,
            3 => x.floor_div(y),
            _ => x.floor_mod(y),
        };
        let e = build(op2, build(op1, Expr::int(a), Expr::int(b)), Expr::int(c));
        let s = simplify(&e); // must not panic
        if let (Some(x), Some(y)) = (checked_eval(&e), checked_eval(&s)) {
            prop_assert_eq!(x, y, "expr {} vs {}", e, s);
        }
    }
}

// The abstract domain's soundness properties get more cases than the
// default 64: a wrong stride transfer shows on ~2 % of random
// expressions, so 512 cases catch one essentially always.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Interval analysis is sound: the concrete value is always a member
    /// of the inferred strided interval — inside the hull *and* in the
    /// congruence class — for the expression as written and as
    /// simplified. `x` ranges over a strided set so the stride transfer
    /// of every operator is exercised, not only the hulls.
    #[test]
    fn interval_is_sound(e in arb_expr(), stride in 1i64..6, k in 0i64..8, y in 0i64..16) {
        let x = 2 + stride * k;
        let ranges = HashMap::from([
            ("x".to_string(), SInt::make(2, 2 + stride * 7, stride)),
            ("y".to_string(), SInt::range(0, 15)),
        ]);
        let mut env = Env::new();
        env.bind("x", x);
        env.bind("y", y);
        let v = env.eval(&e);
        for form in [e.clone(), simplify(&e)] {
            let inferred = range_of(&form, &ranges);
            prop_assert!(
                inferred.contains(v),
                "{} evaluated to {} at x={} y={}, outside {}", form, v, x, y, inferred
            );
        }
    }

    /// The guard-elision oracle is safe: whatever `decide` claims about a
    /// bound check — the simple `i < bound` and the split-loop shape
    /// `i*tile + j < limit` — holds at every point of the loop ranges.
    #[test]
    fn guard_elision_is_safe(
        extent in 1i64..64,
        bound in 1i64..96,
        tile in 1i64..9,
        limit in 1i64..600,
    ) {
        let ranges = HashMap::from([
            ("i".to_string(), SInt::range(0, extent - 1)),
            ("j".to_string(), SInt::range(0, tile - 1)),
        ]);
        let (i, j) = (Expr::var("i"), Expr::var("j"));
        let guards: [Cond; 2] = [
            i.clone().lt(Expr::int(bound)),
            (i * tile + j).lt(Expr::int(limit)),
        ];
        for guard in guards {
            let Some(verdict) = decide(&simplify_cond(&guard), &ranges) else {
                continue;
            };
            let mut env = Env::new();
            for iv in 0..extent {
                for jv in 0..tile {
                    env.bind("i", iv);
                    env.bind("j", jv);
                    prop_assert_eq!(env.eval_cond(&guard), verdict, "{} at i={} j={}", guard, iv, jv);
                }
            }
        }
    }
}
