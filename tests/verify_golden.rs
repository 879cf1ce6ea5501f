//! Verdict-identity golden for the safety verifier.
//!
//! The table below was recorded on the commit *before* the verifier was
//! rewritten into a shape-independent proof program plus a per-shape
//! slot-resolved walk (and before `StoreCert` became a flat CSR table).
//! For each of the 21 encoder stages at two fixed ragged shapes it pins
//! the whole verdict: the number of blocks proven, the store sites
//! visited, the required input lengths, and a hash over every block's
//! certified store regions in certificate order. (The causal tables —
//! the 11 stages of the masked-MHA block at the same shapes — were
//! recorded later, when the masked-attention operators were folded
//! into the encoder's stage table.) Any change to the
//! abstract domain, guard narrowing, site accounting or certificate
//! assembly shows up here as a one-line diff.

use std::rc::Rc;

use cora::core::prelude::*;
use cora::ir::interval::SInt;
use cora::ir::ForKind;
use cora::ragged::{Dim, RaggedLayout};
use cora::transformer::{CompiledEncoderLayer, EncoderConfig};

/// FNV-1a over a stream of `i64`s.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn push(&mut self, v: i64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// One stage's verdict, rendered as a golden line.
fn stage_line(label: &str, outcome: &cora::core::verify::VerifyOutcome) -> String {
    let mut h = Fnv::new();
    let n = i64::try_from(outcome.n_blocks).unwrap();
    for b in 0..n {
        let regions = outcome.cert.regions_for(b);
        h.push(b);
        h.push(i64::try_from(regions.len()).unwrap());
        for r in regions {
            match *r {
                SInt::Empty => h.push(0),
                SInt::Top => h.push(1),
                SInt::Set { lo, hi, stride } => {
                    h.push(2);
                    h.push(lo);
                    h.push(hi);
                    h.push(stride);
                }
            }
        }
    }
    // Block values outside the proven range own nothing.
    assert!(outcome.cert.regions_for(-1).is_empty(), "{label}");
    assert!(outcome.cert.regions_for(n).is_empty(), "{label}");
    let required: Vec<String> = outcome
        .required_inputs
        .iter()
        .map(|(name, len)| format!("{name}={len}"))
        .collect();
    format!(
        "{label} blocks={} sites={} required=[{}] regions={:016x}",
        outcome.n_blocks,
        outcome.store_sites,
        required.join(","),
        h.0
    )
}

type Build = fn(&EncoderConfig, &[usize]) -> Result<CompiledEncoderLayer, ScheduleError>;

fn verdicts(build: Build, lens: &[usize]) -> Vec<String> {
    let cfg = EncoderConfig::scaled(8);
    let layer = build(&cfg, lens).expect("builds");
    let session = layer.session().expect("verifies");
    session
        .verify_outcomes()
        .into_iter()
        .map(|(label, outcome)| match outcome {
            Some(o) => stage_line(label, o),
            None => format!("{label} serial"),
        })
        .collect()
}

fn check(build: Build, lens: &[usize], golden: &[&str]) {
    let actual = verdicts(build, lens);
    assert_eq!(
        actual,
        golden,
        "verifier verdicts changed for lens {lens:?}; actual table:\n{}",
        render(&actual)
    );
}

/// The table as source lines, for re-recording after an intended change.
fn render(lines: &[String]) -> String {
    lines
        .iter()
        .map(|l| format!("    \"{l}\","))
        .collect::<Vec<_>>()
        .join("\n")
}

/// A batch with empty and single-token sequences.
const EDGE_LENS: [usize; 8] = [5, 0, 3, 1, 7, 12, 1, 0];

/// An MNLI-like batch.
const MNLI_LENS: [usize; 8] = [21, 34, 9, 17, 40, 13, 28, 6];

#[test]
fn encoder_stage_verdicts_match_the_recorded_golden_edge_shape() {
    check(CompiledEncoderLayer::build, &EDGE_LENS, &EDGE_GOLDEN);
}

#[test]
fn encoder_stage_verdicts_match_the_recorded_golden_mnli_shape() {
    check(CompiledEncoderLayer::build, &MNLI_LENS, &MNLI_GOLDEN);
}

/// The same operators under `Attend::Causal`: triangular score shapes,
/// so the attention stages' hulls and regions differ from the lines
/// above while the dense stages' agree.
#[test]
fn causal_stage_verdicts_match_the_recorded_golden() {
    let build: Build = CompiledEncoderLayer::build_masked_mha;
    check(build, &EDGE_LENS, &CAUSAL_EDGE_GOLDEN);
    check(build, &MNLI_LENS, &CAUSAL_MNLI_GOLDEN);
}

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

/// The schedules the encoder stages do not exercise: thread remapping,
/// a guarded `pad_loop` + `split` (where the proof rests on narrowing
/// the padded range through the guard) and a fused block axis.
#[test]
fn scheduled_operator_verdicts_match_the_recorded_golden() {
    let lens = [5usize, 0, 3, 1, 7, 2];
    let mut actual = Vec::new();
    for pad in [2usize, 4] {
        for sched in ["block", "longest_first", "pad_split", "fused"] {
            let a = ragged_2d("A", &lens, pad);
            let out = ragged_2d("B", &lens, pad);
            let a2 = a.clone();
            let body: BodyFn = Rc::new(move |args| a2.at(args) * 2.0 + 1.0);
            let mut op = Operator::new(
                "golden",
                vec![
                    LoopSpec::fixed("o", lens.len()),
                    LoopSpec::variable("i", 0, lens.to_vec()),
                ],
                vec![],
                out,
                vec![a],
                body,
            );
            let s = op.schedule_mut();
            match sched {
                "block" => s.bind("o", ForKind::GpuBlockX),
                "longest_first" => s
                    .bind("o", ForKind::GpuBlockX)
                    .thread_remap(RemapPolicy::LongestFirst),
                "pad_split" => s
                    .pad_loop("i", pad)
                    .split("i", pad)
                    .bind("o", ForKind::GpuBlockX),
                _ => s.fuse_loops("o", "i").bind("o_i_f", ForKind::GpuBlockX),
            };
            let compiled = lower(&op).expect("legal schedule").compile();
            let session = compiled
                .parallel_session()
                .expect("verifies")
                .expect("block axis outlined");
            actual.push(stage_line(
                &format!("{sched}/pad{pad}"),
                session.verify_outcome(),
            ));
        }
    }
    assert_eq!(
        actual,
        SCHEDULED_GOLDEN,
        "actual table:\n{}",
        render(&actual)
    );
}

const SCHEDULED_GOLDEN: [&str; 8] = [
    "block/pad2 blocks=6 sites=1 required=[A=22] regions=c4617a08642ae573",
    "longest_first/pad2 blocks=6 sites=1 required=[A=22] regions=c4617a08642ae573",
    "pad_split/pad2 blocks=6 sites=1 required=[A=22] regions=98b8e6bb90fa65b3",
    "fused/pad2 blocks=18 sites=1 required=[A=22] regions=9917b70f279d4284",
    "block/pad4 blocks=6 sites=1 required=[A=26] regions=a6fc374f676f2367",
    "longest_first/pad4 blocks=6 sites=1 required=[A=26] regions=a6fc374f676f2367",
    "pad_split/pad4 blocks=6 sites=1 required=[A=28] regions=9d73f40d1e2042a5",
    "fused/pad4 blocks=18 sites=1 required=[A=26] regions=689b80f05c739f84",
];

const EDGE_GOLDEN: [&str; 21] = [
    "qkv_proj blocks=29 sites=1 required=[In=1856,W=12288] regions=fbf50b82326004be",
    "qkv_bias blocks=29 sites=1 required=[B=192,In=5568] regions=fbf50b82326004be",
    "scores blocks=232 sites=1 required=[QKV=5504] regions=fd933899585d1e85",
    "scale blocks=232 sites=1 required=[S=1832] regions=fd933899585d1e85",
    "row_max blocks=232 sites=1 required=[S=1832] regions=4ddaef7d54cf5525",
    "row_exp blocks=232 sites=1 required=[M=232,S=1832] regions=fd933899585d1e85",
    "row_sum blocks=232 sites=1 required=[Ex=1832] regions=4ddaef7d54cf5525",
    "row_softmax blocks=232 sites=1 required=[E=232,Ex=1832] regions=fd933899585d1e85",
    "attnv blocks=232 sites=1 required=[P=1832,QKV=5568] regions=5e866b201c4e2f45",
    "out_proj blocks=29 sites=1 required=[O=1856,W=4096] regions=9d3966ef1f1b16c0",
    "attn_bias_residual blocks=29 sites=1 required=[B=64,In=1856,R=1856] regions=9d3966ef1f1b16c0",
    "ln1_sum blocks=29 sites=1 required=[In=1856] regions=c558e74d41e1c17b",
    "ln1_var blocks=29 sites=1 required=[In=1856,S=29] regions=c558e74d41e1c17b",
    "ln1_norm blocks=29 sites=1 required=[Bt=64,G=64,In=1856,S=29,V=29] regions=9d3966ef1f1b16c0",
    "ff1 blocks=29 sites=1 required=[In=1856,W=16384] regions=015a46f5d40d1934",
    "ff1_bias_gelu blocks=29 sites=1 required=[B=256,In=7424] regions=015a46f5d40d1934",
    "ff2 blocks=29 sites=1 required=[In=7424,W=16384] regions=9d3966ef1f1b16c0",
    "ff_bias_residual blocks=29 sites=1 required=[B=64,In=1856,R=1856] regions=9d3966ef1f1b16c0",
    "ln2_sum blocks=29 sites=1 required=[In=1856] regions=c558e74d41e1c17b",
    "ln2_var blocks=29 sites=1 required=[In=1856,S=29] regions=c558e74d41e1c17b",
    "ln2_norm blocks=29 sites=1 required=[Bt=64,G=64,In=1856,S=29,V=29] regions=9d3966ef1f1b16c0",
];

const MNLI_GOLDEN: [&str; 21] = [
    "qkv_proj blocks=168 sites=1 required=[In=10752,W=12288] regions=1b0f792f4f778b89",
    "qkv_bias blocks=168 sites=1 required=[B=192,In=32256] regions=1b0f792f4f778b89",
    "scores blocks=1344 sites=1 required=[QKV=32192] regions=c34e8a3047253172",
    "scale blocks=1344 sites=1 required=[S=36448] regions=c34e8a3047253172",
    "row_max blocks=1344 sites=1 required=[S=36448] regions=ab854977a20377e5",
    "row_exp blocks=1344 sites=1 required=[M=1344,S=36448] regions=c34e8a3047253172",
    "row_sum blocks=1344 sites=1 required=[Ex=36448] regions=ab854977a20377e5",
    "row_softmax blocks=1344 sites=1 required=[E=1344,Ex=36448] regions=c34e8a3047253172",
    "attnv blocks=1344 sites=1 required=[P=36448,QKV=32256] regions=cdc73b6460a938a5",
    "out_proj blocks=168 sites=1 required=[O=10752,W=4096] regions=8c852945db6d4d65",
    "attn_bias_residual blocks=168 sites=1 required=[B=64,In=10752,R=10752] regions=8c852945db6d4d65",
    "ln1_sum blocks=168 sites=1 required=[In=10752] regions=8dc1a9ea83af8125",
    "ln1_var blocks=168 sites=1 required=[In=10752,S=168] regions=8dc1a9ea83af8125",
    "ln1_norm blocks=168 sites=1 required=[Bt=64,G=64,In=10752,S=168,V=168] regions=8c852945db6d4d65",
    "ff1 blocks=168 sites=1 required=[In=10752,W=16384] regions=8dd5ccb855de5ac5",
    "ff1_bias_gelu blocks=168 sites=1 required=[B=256,In=43008] regions=8dd5ccb855de5ac5",
    "ff2 blocks=168 sites=1 required=[In=43008,W=16384] regions=8c852945db6d4d65",
    "ff_bias_residual blocks=168 sites=1 required=[B=64,In=10752,R=10752] regions=8c852945db6d4d65",
    "ln2_sum blocks=168 sites=1 required=[In=10752] regions=8dc1a9ea83af8125",
    "ln2_var blocks=168 sites=1 required=[In=10752,S=168] regions=8dc1a9ea83af8125",
    "ln2_norm blocks=168 sites=1 required=[Bt=64,G=64,In=10752,S=168,V=168] regions=8c852945db6d4d65",
];

const CAUSAL_EDGE_GOLDEN: [&str; 11] = [
    "qkv_proj blocks=29 sites=1 required=[In=1856,W=12288] regions=fbf50b82326004be",
    "qkv_bias blocks=29 sites=1 required=[B=192,In=5568] regions=fbf50b82326004be",
    "scores blocks=232 sites=1 required=[QKV=5504] regions=7a086466c5f8ab99",
    "scale blocks=232 sites=1 required=[S=1032] regions=7a086466c5f8ab99",
    "row_max blocks=232 sites=1 required=[S=1032] regions=4ddaef7d54cf5525",
    "row_exp blocks=232 sites=1 required=[M=232,S=1032] regions=7a086466c5f8ab99",
    "row_sum blocks=232 sites=1 required=[Ex=1032] regions=4ddaef7d54cf5525",
    "row_softmax blocks=232 sites=1 required=[E=232,Ex=1032] regions=7a086466c5f8ab99",
    "attnv blocks=232 sites=1 required=[P=1032,QKV=5568] regions=5e866b201c4e2f45",
    "out_proj blocks=29 sites=1 required=[O=1856,W=4096] regions=9d3966ef1f1b16c0",
    "attn_bias blocks=29 sites=1 required=[B=64,In=1856] regions=9d3966ef1f1b16c0",
];

const CAUSAL_MNLI_GOLDEN: [&str; 11] = [
    "qkv_proj blocks=168 sites=1 required=[In=10752,W=12288] regions=1b0f792f4f778b89",
    "qkv_bias blocks=168 sites=1 required=[B=192,In=32256] regions=1b0f792f4f778b89",
    "scores blocks=1344 sites=1 required=[QKV=32192] regions=cadf308fed9a597c",
    "scale blocks=1344 sites=1 required=[S=18896] regions=cadf308fed9a597c",
    "row_max blocks=1344 sites=1 required=[S=18896] regions=ab854977a20377e5",
    "row_exp blocks=1344 sites=1 required=[M=1344,S=18896] regions=cadf308fed9a597c",
    "row_sum blocks=1344 sites=1 required=[Ex=18896] regions=ab854977a20377e5",
    "row_softmax blocks=1344 sites=1 required=[E=1344,Ex=18896] regions=cadf308fed9a597c",
    "attnv blocks=1344 sites=1 required=[P=18896,QKV=32256] regions=cdc73b6460a938a5",
    "out_proj blocks=168 sites=1 required=[O=10752,W=4096] regions=8c852945db6d4d65",
    "attn_bias blocks=168 sites=1 required=[B=64,In=10752] regions=8c852945db6d4d65",
];
