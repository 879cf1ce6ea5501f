//! The alternative schedules of the compiled encoder's stages, as test
//! inputs: 14 loop reorders and divisible splits over the six stages
//! that have any (the three projection GEMMs, `out_proj`, `scores`,
//! `attnv`). Every row must stay value-preserving — each output
//! element's reduction still accumulates in ascending reduction-index
//! order — so a variant is bit-identical to the stage's declared
//! schedule under `MathMode::Strict`.
//!
//! Split factors are 8, which divides the split loop's extent at every
//! config the suites use, so no split adds a tail guard.

use cora::core::prelude::*;
use cora::transformer::autotune::stage_operator;
use cora::transformer::EncoderConfig;

/// `(stage label, directives layered after the declared schedule)`, one
/// row per variant.
pub fn schedule_variants() -> Vec<(&'static str, Vec<Directive>)> {
    let reorder = |order: &[&str]| Directive::Reorder {
        order: order.iter().map(|s| s.to_string()).collect(),
    };
    let split = |loop_name: &str| Directive::Split {
        loop_name: loop_name.to_string(),
        factor: 8,
    };
    let mut rows = Vec::new();
    // Declared i-k-j (`r, d, c`): the i-j-k order, column tiling, and
    // i-j-k with the reduction tiled (`d_o, d_i` still ascend in `d`).
    for gemm in ["qkv_proj", "ff1", "ff2"] {
        rows.push((gemm, vec![reorder(&["r", "c", "d"])]));
        rows.push((gemm, vec![split("c")]));
        rows.push((gemm, vec![reorder(&["r", "c", "d"]), split("d")]));
    }
    // Declared `r, head, e, c`: any order keeping `(head, e)` ascending.
    rows.push(("out_proj", vec![reorder(&["r", "c", "head", "e"])]));
    rows.push(("out_proj", vec![reorder(&["r", "head", "c", "e"])]));
    rows.push(("out_proj", vec![split("c")]));
    // The score reduction moved inside-out; attention × values as a dot
    // instead of a saxpy.
    rows.push(("scores", vec![reorder(&["hr", "d", "j"])]));
    rows.push(("attnv", vec![reorder(&["hr", "e", "j"])]));
    rows
}

/// The stage's operator at `lens` with `directives` applied, through
/// the `Schedule` methods, after its declared schedule (a full
/// `Reorder` replaces the declared order).
pub fn variant_operator(
    label: &str,
    directives: &[Directive],
    cfg: &EncoderConfig,
    lens: &[usize],
) -> Operator {
    let mut op = stage_operator(label, cfg, lens).expect("a variant names a table row");
    let schedule = op.schedule_mut();
    for directive in directives {
        match directive {
            Directive::Reorder { order } => {
                let order: Vec<&str> = order.iter().map(String::as_str).collect();
                schedule.reorder(&order);
            }
            Directive::Split { loop_name, factor } => {
                schedule.split(loop_name.clone(), *factor);
            }
            Directive::ThreadRemap(policy) => {
                schedule.thread_remap(*policy);
            }
            other => panic!("no schedule variant uses {other:?}"),
        }
    }
    op
}
