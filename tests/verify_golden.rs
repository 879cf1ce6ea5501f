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
//!
//! Those per-block tables are proven at grain 1 (one block per tile),
//! which the tile-grain rule no longer picks for large block counts;
//! `MNLI_TILED_GOLDEN` pins the verdicts the rule does pick, and the
//! tripwire below checks that every encoder stage proves in tiles
//! without falling back to the per-block proof, with the same input
//! requirements.

use std::rc::Rc;

use cora::core::prelude::*;
use cora::core::verify::{tile_grain, VerifyOutcome};
use cora::datasets::Dataset;
use cora::ir::interval::SInt;
use cora::ir::ForKind;
use cora::ragged::{Dim, RaggedLayout};
use cora::transformer::encoder_compiled::Attend;
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

/// Hashes the regions of `units` certificate entries — blocks at grain
/// 1, tiles otherwise — each looked up by its first block value.
fn regions_hash(outcome: &VerifyOutcome, units: i64, first: impl Fn(i64) -> i64) -> u64 {
    let mut h = Fnv::new();
    for u in 0..units {
        let regions = outcome.cert.regions_for(first(u));
        h.push(u);
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
    h.0
}

fn required(outcome: &VerifyOutcome) -> String {
    let required: Vec<String> = (outcome.required_inputs.iter())
        .map(|(name, len)| format!("{name}={len}"))
        .collect();
    required.join(",")
}

/// One stage's per-block verdict, rendered as a golden line.
fn stage_line(label: &str, outcome: &VerifyOutcome) -> String {
    assert_eq!(outcome.grain, 1, "{label}");
    let n = i64::try_from(outcome.n_blocks).unwrap();
    let hash = regions_hash(outcome, n, |b| b);
    // Block values outside the proven range own nothing.
    assert!(outcome.cert.regions_for(-1).is_empty(), "{label}");
    assert!(outcome.cert.regions_for(n).is_empty(), "{label}");
    format!(
        "{label} blocks={} sites={} required=[{}] regions={hash:016x}",
        outcome.n_blocks,
        outcome.store_sites,
        required(outcome),
    )
}

/// One stage's tiled verdict: the grain and tile count, then a hash
/// over the tiles' regions.
fn tiled_line(label: &str, outcome: &VerifyOutcome) -> String {
    let grain = i64::try_from(outcome.grain).unwrap();
    let tiles = i64::try_from(outcome.tiles).unwrap();
    let hash = regions_hash(outcome, tiles, |t| t * grain);
    format!(
        "{label} blocks={} grain={grain} tiles={tiles} sites={} required=[{}] regions={hash:016x}",
        outcome.n_blocks,
        outcome.store_sites,
        required(outcome),
    )
}

type Build = fn(&EncoderConfig, &[usize]) -> Result<CompiledEncoderLayer, ScheduleError>;

/// The layer `build` makes at `lens` for the scaled model.
fn layer(build: Build, lens: &[usize]) -> CompiledEncoderLayer {
    build(&EncoderConfig::scaled(8), lens).expect("builds")
}

/// The per-block (grain 1) verdict of every stage.
fn verdicts(build: Build, lens: &[usize]) -> Vec<String> {
    let layer = layer(build, lens);
    let pipeline = layer.pipeline().expect("non-empty batch");
    pipeline
        .stage_programs()
        .map(
            |(label, program)| match program.parallel_prep_at_grain(1).expect("verifies") {
                Some(prep) => stage_line(label, prep.verify_outcome()),
                None => format!("{label} serial"),
            },
        )
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
    let build: Build = |c, l| CompiledEncoderLayer::build_mha(c, l, Attend::Causal);
    check(build, &EDGE_LENS, &CAUSAL_EDGE_GOLDEN);
    check(build, &MNLI_LENS, &CAUSAL_MNLI_GOLDEN);
}

/// The verdicts a session proves — in tiles of the grain rule's grain.
#[test]
fn tiled_stage_verdicts_match_the_recorded_golden_mnli_shape() {
    let layer = layer(CompiledEncoderLayer::build, &MNLI_LENS);
    let session = layer.session().expect("verifies");
    let actual: Vec<String> = (session.verify_outcomes().into_iter())
        .map(|(label, outcome)| tiled_line(label, outcome))
        .collect();
    assert_eq!(
        actual,
        MNLI_TILED_GOLDEN,
        "tiled verdicts changed; actual table:\n{}",
        render(&actual)
    );
}

/// Every encoder stage, under both attention masks, at the program
/// goldens' two shapes and at a 16-sequence MNLI batch, proves in tiles
/// of the rule's grain without the per-block retry — and at grains 4
/// and 16, which the rule does not pick for the small shapes — and every
/// tiled proof requires exactly the input lengths the per-block proof
/// does (a looser tile hull would make a run reject inputs that fit).
#[test]
fn every_encoder_stage_proves_in_tiles_without_the_retry() {
    let mnli16 = Dataset::Mnli.sample_lengths(16, 42);
    let builds: [Build; 2] = [CompiledEncoderLayer::build, |c, l| {
        CompiledEncoderLayer::build_mha(c, l, Attend::Causal)
    }];
    for build in builds {
        for lens in [&EDGE_LENS[..], &MNLI_LENS, &mnli16] {
            let layer = layer(build, lens);
            let session = layer.session().expect("verifies");
            let pipeline = layer.pipeline().expect("non-empty batch");
            let proofs = session.verify_outcomes().into_iter();
            for ((label, outcome), (_, program)) in proofs.zip(pipeline.stage_programs()) {
                let rule = tile_grain(outcome.n_blocks);
                assert_eq!(outcome.grain, rule, "`{label}` at {lens:?} fell back");
                if lens == &mnli16[..] {
                    assert!(rule > 1, "`{label}`: {} blocks", outcome.n_blocks);
                }
                let prove = |grain| {
                    let prep = program.parallel_prep_at_grain(grain);
                    let prep = prep.unwrap_or_else(|e| panic!("`{label}` at grain {grain}: {e}"));
                    prep.expect("a parallel stage").verify_outcome().clone()
                };
                let per_block = prove(1);
                for grain in [rule, 4, 16] {
                    let tiled = prove(grain);
                    assert_eq!(tiled.n_blocks, per_block.n_blocks, "`{label}`");
                    assert_eq!(tiled.tiles, per_block.n_blocks.div_ceil(grain), "`{label}`");
                    assert_eq!(
                        tiled.required_inputs, per_block.required_inputs,
                        "`{label}` at {lens:?}, grain {grain}"
                    );
                }
            }
        }
    }
}

/// Every chain of the encoder layer (`full`) and of the masked block
/// (`causal`), at the program goldens' two shapes and at a 16-sequence
/// MNLI batch: its member stages, the grain and tile count they share,
/// and the typed refusal that ended it (`none` for the last chain). A
/// change to the chain rule, to a stage's block domain or to its proof
/// grain shows up here as a one-line diff.
#[test]
fn chain_rows_match_the_recorded_golden() {
    let mnli16 = Dataset::Mnli.sample_lengths(16, 42);
    let mut actual = Vec::new();
    for (shape, lens) in [
        ("edge", &EDGE_LENS[..]),
        ("mnli", &MNLI_LENS[..]),
        ("mnli16", &mnli16[..]),
    ] {
        let builds: [(&str, Build); 2] = [
            ("full", CompiledEncoderLayer::build),
            ("causal", |c, l| {
                CompiledEncoderLayer::build_mha(c, l, Attend::Causal)
            }),
        ];
        for (mask, build) in builds {
            let layer = layer(build, lens);
            let session = layer.session().expect("verifies");
            let outcomes = session.verify_outcomes();
            for chain in layer.pipeline().expect("non-empty batch").chains() {
                let members = &outcomes[chain.stages.clone()];
                let head = members[0].1;
                for (label, outcome) in members {
                    assert_eq!(
                        (outcome.grain, outcome.tiles),
                        (head.grain, head.tiles),
                        "{label}"
                    );
                }
                let labels: Vec<&str> = members.iter().map(|(label, _)| *label).collect();
                let refusal =
                    (chain.refusal.as_ref()).map_or("none".to_string(), |r| format!("{r:?}"));
                actual.push(format!(
                    "{shape}/{mask} [{}] grain={} tiles={} refusal={refusal}",
                    labels.join(","),
                    head.grain,
                    head.tiles
                ));
            }
        }
    }
    assert_eq!(
        actual,
        CHAIN_GOLDEN,
        "chains changed; actual table:\n{}",
        render(&actual)
    );
}

const CHAIN_GOLDEN: [&str; 18] = [
    "edge/full [qkv_proj,qkv_bias] grain=1 tiles=29 refusal=TilesDiffer",
    "edge/full [scores,scale,row_max,row_exp,row_sum,row_softmax,attnv] grain=4 tiles=58 refusal=TilesDiffer",
    "edge/full [out_proj,attn_bias_residual,ln1_sum,ln1_var,ln1_norm,ff1,ff1_bias_gelu,ff2,ff_bias_residual,ln2_sum,ln2_var,ln2_norm] grain=1 tiles=29 refusal=none",
    "edge/causal [qkv_proj,qkv_bias] grain=1 tiles=29 refusal=TilesDiffer",
    "edge/causal [scores,scale,row_max,row_exp,row_sum,row_softmax,attnv] grain=4 tiles=58 refusal=TilesDiffer",
    "edge/causal [out_proj,attn_bias] grain=1 tiles=29 refusal=none",
    "mnli/full [qkv_proj,qkv_bias] grain=3 tiles=56 refusal=TilesDiffer",
    "mnli/full [scores,scale,row_max,row_exp,row_sum,row_softmax,attnv] grain=16 tiles=84 refusal=TilesDiffer",
    "mnli/full [out_proj,attn_bias_residual,ln1_sum,ln1_var,ln1_norm,ff1,ff1_bias_gelu,ff2,ff_bias_residual,ln2_sum,ln2_var,ln2_norm] grain=3 tiles=56 refusal=none",
    "mnli/causal [qkv_proj,qkv_bias] grain=3 tiles=56 refusal=TilesDiffer",
    "mnli/causal [scores,scale,row_max,row_exp,row_sum,row_softmax,attnv] grain=16 tiles=84 refusal=TilesDiffer",
    "mnli/causal [out_proj,attn_bias] grain=3 tiles=56 refusal=none",
    "mnli16/full [qkv_proj,qkv_bias] grain=9 tiles=59 refusal=TilesDiffer",
    "mnli16/full [scores,scale,row_max,row_exp,row_sum,row_softmax,attnv] grain=16 tiles=262 refusal=TilesDiffer",
    "mnli16/full [out_proj,attn_bias_residual,ln1_sum,ln1_var,ln1_norm,ff1,ff1_bias_gelu,ff2,ff_bias_residual,ln2_sum,ln2_var,ln2_norm] grain=9 tiles=59 refusal=none",
    "mnli16/causal [qkv_proj,qkv_bias] grain=9 tiles=59 refusal=TilesDiffer",
    "mnli16/causal [scores,scale,row_max,row_exp,row_sum,row_softmax,attnv] grain=16 tiles=262 refusal=TilesDiffer",
    "mnli16/causal [out_proj,attn_bias] grain=9 tiles=59 refusal=none",
];

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

/// `MNLI_LENS` as a session proves it: 168 rows in tiles of 3, 1344
/// `(head, row)` blocks in tiles of 16.
const MNLI_TILED_GOLDEN: [&str; 21] = [
    "qkv_proj blocks=168 grain=3 tiles=56 sites=1 required=[In=10752,W=12288] regions=3021d7b1df57c28d",
    "qkv_bias blocks=168 grain=3 tiles=56 sites=1 required=[B=192,In=32256] regions=3021d7b1df57c28d",
    "scores blocks=1344 grain=16 tiles=84 sites=1 required=[QKV=32192] regions=9721f66b84736df3",
    "scale blocks=1344 grain=16 tiles=84 sites=1 required=[S=36448] regions=9721f66b84736df3",
    "row_max blocks=1344 grain=16 tiles=84 sites=1 required=[S=36448] regions=2e14a5e88335997d",
    "row_exp blocks=1344 grain=16 tiles=84 sites=1 required=[M=1344,S=36448] regions=9721f66b84736df3",
    "row_sum blocks=1344 grain=16 tiles=84 sites=1 required=[Ex=36448] regions=2e14a5e88335997d",
    "row_softmax blocks=1344 grain=16 tiles=84 sites=1 required=[E=1344,Ex=36448] regions=9721f66b84736df3",
    "attnv blocks=1344 grain=16 tiles=84 sites=1 required=[P=36448,QKV=32256] regions=dcc2944cb8401c05",
    "out_proj blocks=168 grain=3 tiles=56 sites=1 required=[O=10752,W=4096] regions=0f9510b96b5fec61",
    "attn_bias_residual blocks=168 grain=3 tiles=56 sites=1 required=[B=64,In=10752,R=10752] regions=0f9510b96b5fec61",
    "ln1_sum blocks=168 grain=3 tiles=56 sites=1 required=[In=10752] regions=fe4fccaebdd1deb5",
    "ln1_var blocks=168 grain=3 tiles=56 sites=1 required=[In=10752,S=168] regions=fe4fccaebdd1deb5",
    "ln1_norm blocks=168 grain=3 tiles=56 sites=1 required=[Bt=64,G=64,In=10752,S=168,V=168] regions=0f9510b96b5fec61",
    "ff1 blocks=168 grain=3 tiles=56 sites=1 required=[In=10752,W=16384] regions=6178f59cfb6702cd",
    "ff1_bias_gelu blocks=168 grain=3 tiles=56 sites=1 required=[B=256,In=43008] regions=6178f59cfb6702cd",
    "ff2 blocks=168 grain=3 tiles=56 sites=1 required=[In=43008,W=16384] regions=0f9510b96b5fec61",
    "ff_bias_residual blocks=168 grain=3 tiles=56 sites=1 required=[B=64,In=10752,R=10752] regions=0f9510b96b5fec61",
    "ln2_sum blocks=168 grain=3 tiles=56 sites=1 required=[In=10752] regions=fe4fccaebdd1deb5",
    "ln2_var blocks=168 grain=3 tiles=56 sites=1 required=[In=10752,S=168] regions=fe4fccaebdd1deb5",
    "ln2_norm blocks=168 grain=3 tiles=56 sites=1 required=[Bt=64,G=64,In=10752,S=168,V=168] regions=0f9510b96b5fec61",
];
