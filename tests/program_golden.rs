//! Program-identity golden for the compiled encoder stages.
//!
//! For each stage of the 21-row stage table and of the 11-stage causal
//! masked-MHA block, at the two ragged shapes `verify_golden.rs` uses,
//! two FNV-1a hashes pin *everything the compiler emits* for the stage,
//! split by layer so a change is attributed to the layer that made it:
//!
//! * the **front-end** hash (`fe=`) covers the C source of the lowered
//!   statement, every prelude table and parameter, and the stage's
//!   arena entry of the chain it ends (none for a chain intermediate) —
//!   what lowering, preludes and the pipeline plan decide;
//! * the **VM** hash (`vm=`) covers the serial program's disassembly and
//!   the parallel body's — what the bytecode compiler decides.
//!
//! A refactor that claims "byte-identical programs" proves it by leaving
//! this file untouched; an intended change re-records exactly the hashes
//! it moved (a VM-only change, such as a fusion pass or a new peephole,
//! moves only `vm=` hashes) — the failure prints the new table and the
//! full text of every stage whose row changed.

use std::fmt::Write;

use cora::core::prelude::*;
use cora::datasets::Dataset;
use cora::exec::VmProgram;
use cora::ir::Stmt;
use cora::transformer::encoder_compiled::STAGES;
use cora::transformer::encoder_compiled::{stage, Attend, Geometry};
use cora::transformer::{CompiledEncoderLayer, EncoderConfig};

#[path = "common/schedule_variants.rs"]
mod schedule_variants;
use schedule_variants::{schedule_variants, variant_operator};

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, byte| {
        (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Everything the compiler emitted for one pipeline stage, as text:
/// `(front end, VM)`.
fn stage_text(
    label: &str,
    compiled: &CompiledProgram,
    g: &Geometry,
    plan: &str,
) -> (String, String) {
    let row = stage(label).expect("pipeline labels come from the stage table");
    let program = lower(&row.operator(g)).expect("built-in schedules are legal");
    let mut vm = format!("== vm\n{}== parallel body\n", compiled.vm());
    match compiled.parallel_body() {
        Some(body) => write!(vm, "{body}").unwrap(),
        None => vm.push_str("none\n"),
    }
    let mut front = format!("== c\n{}== prelude\n", program.c_source());
    let prelude = compiled.build_prelude();
    for (name, table) in &prelude.int_buffers {
        writeln!(front, "table {name} = {table:?}").unwrap();
    }
    for (name, value) in &prelude.params {
        writeln!(front, "param {name} = {value}").unwrap();
    }
    writeln!(front, "== plan\n{plan}").unwrap();
    (front, vm)
}

type Build = fn(&EncoderConfig, &[usize]) -> Result<CompiledEncoderLayer, ScheduleError>;

fn check(build: Build, attend: Attend, lens: &[usize], golden: &[&str]) {
    let cfg = EncoderConfig::scaled(8);
    let layer = build(&cfg, lens).expect("builds");
    let pipeline = layer.pipeline().expect("non-empty batch");
    let geometry = Geometry::new(&cfg, lens, attend);
    let plan = pipeline.plan();
    let mut actual = Vec::new();
    let mut moved = String::new();
    for (si, (label, compiled)) in pipeline.stage_programs().enumerate() {
        // A chain's last stage writes the chain's arena entry (the arena
        // lists them in chain order); a chain intermediate has none.
        let chain = pipeline
            .chains()
            .iter()
            .position(|c| c.stages.end - 1 == si);
        let entry = chain.map(|k| &plan.arena()[k]);
        let (front, vm) = stage_text(label, compiled, &geometry, &format!("{entry:?}"));
        let line = format!("{label} fe={:016x} vm={:016x}", fnv1a(&front), fnv1a(&vm));
        if golden.get(si) != Some(&line.as_str()) {
            writeln!(moved, "\n######## {label}\n{vm}{front}").unwrap();
        }
        actual.push(line);
    }
    let table: Vec<String> = actual.iter().map(|l| format!("    \"{l}\",")).collect();
    assert_eq!(
        actual,
        golden,
        "compiled programs changed for {attend:?} lens {lens:?}; actual table:\n{}\n\
         full text of every stage that moved:{moved}",
        table.join("\n")
    );
}

/// A batch with empty and single-token sequences.
const EDGE_LENS: [usize; 8] = [5, 0, 3, 1, 7, 12, 1, 0];

/// An MNLI-like batch.
const MNLI_LENS: [usize; 8] = [21, 34, 9, 17, 40, 13, 28, 6];

#[test]
fn encoder_stage_programs_match_the_recorded_golden_edge_shape() {
    let build: Build = CompiledEncoderLayer::build;
    check(build, Attend::Full, &EDGE_LENS, &EDGE_GOLDEN);
}

#[test]
fn encoder_stage_programs_match_the_recorded_golden_mnli_shape() {
    let build: Build = CompiledEncoderLayer::build;
    check(build, Attend::Full, &MNLI_LENS, &MNLI_GOLDEN);
}

#[test]
fn causal_stage_programs_match_the_recorded_golden() {
    let build: Build = CompiledEncoderLayer::build_masked_mha;
    check(build, Attend::Causal, &EDGE_LENS, &CAUSAL_EDGE_GOLDEN);
    check(build, Attend::Causal, &MNLI_LENS, &CAUSAL_MNLI_GOLDEN);
}

const EDGE_GOLDEN: [&str; 21] = [
    "qkv_proj fe=93e012fc6bf8446f vm=8215b269e7f3b60b",
    "qkv_bias fe=cde11d71d83c5bcc vm=76175bd6bdd3e629",
    "scores fe=6bd9016091ef3d56 vm=91da3eabf2a4b966",
    "scale fe=142c9a3d0880c8d4 vm=5415276cca70b6c7",
    "row_max fe=674d9e77701d184c vm=cd81bc9c6f2016d5",
    "row_exp fe=7d9c734b0c60f288 vm=2545efa0ecaa2ee6",
    "row_sum fe=d2bb10659a6793ae vm=f7f14b2afb45cd91",
    "row_softmax fe=59856ae2279a99dd vm=e891ca6a3278ab88",
    "attnv fe=f9bd01b5896074d8 vm=6faf6fb3d2e4ccdc",
    "out_proj fe=512e927029e6d832 vm=664dd7156d34f739",
    "attn_bias_residual fe=4a6ddd332f06bc8a vm=7102b8da2b6ac632",
    "ln1_sum fe=dd6664c1cb183d75 vm=ac18f5198d4065bb",
    "ln1_var fe=0423e53803d28d4d vm=fe2e739e67a3cde6",
    "ln1_norm fe=273a7bc1c977339b vm=f81ff869c7aaec33",
    "ff1 fe=103c3ba4e6b0d3d3 vm=ab9bda60c5c305e9",
    "ff1_bias_gelu fe=0d4f1ed2df5284eb vm=fe2e18ac76fa146b",
    "ff2 fe=b626438997718bdd vm=62b44f9af593f549",
    "ff_bias_residual fe=15b65cd723f9aff1 vm=7102b8da2b6ac632",
    "ln2_sum fe=5244ef47c06f80b6 vm=ac18f5198d4065bb",
    "ln2_var fe=1a66a9cfedc7f598 vm=fe2e739e67a3cde6",
    "ln2_norm fe=b0684b9c6e5cffb5 vm=f81ff869c7aaec33",
];

const MNLI_GOLDEN: [&str; 21] = [
    "qkv_proj fe=91d9ecf6be166ca5 vm=8215b269e7f3b60b",
    "qkv_bias fe=d6eb29162db4d95a vm=76175bd6bdd3e629",
    "scores fe=b80b22dc241ff0e1 vm=91da3eabf2a4b966",
    "scale fe=46e37ae2760d3389 vm=5415276cca70b6c7",
    "row_max fe=20f78b7f185df4a0 vm=cd81bc9c6f2016d5",
    "row_exp fe=a6ff46b7b15f1447 vm=2545efa0ecaa2ee6",
    "row_sum fe=0f72816caefd1df0 vm=f7f14b2afb45cd91",
    "row_softmax fe=b176e6d23a029994 vm=e891ca6a3278ab88",
    "attnv fe=83ddf1f232336d40 vm=6faf6fb3d2e4ccdc",
    "out_proj fe=c999b405cd66e8e6 vm=664dd7156d34f739",
    "attn_bias_residual fe=4af6cd65d76d74ae vm=7102b8da2b6ac632",
    "ln1_sum fe=f53392ae7f73f6e7 vm=ac18f5198d4065bb",
    "ln1_var fe=c1915ebbe5e6d28f vm=fe2e739e67a3cde6",
    "ln1_norm fe=8262765e88008971 vm=f81ff869c7aaec33",
    "ff1 fe=55a120e17ca86839 vm=ab9bda60c5c305e9",
    "ff1_bias_gelu fe=a8c766fc33446981 vm=fe2e18ac76fa146b",
    "ff2 fe=4dfbd0313bca39df vm=62b44f9af593f549",
    "ff_bias_residual fe=c64d6c099757f993 vm=7102b8da2b6ac632",
    "ln2_sum fe=8ab6ca9715b2a59a vm=ac18f5198d4065bb",
    "ln2_var fe=85d63d6bd0266f90 vm=fe2e739e67a3cde6",
    "ln2_norm fe=cd85b3f9d1b5ad00 vm=f81ff869c7aaec33",
];

const CAUSAL_EDGE_GOLDEN: [&str; 11] = [
    "qkv_proj fe=93e012fc6bf8446f vm=8215b269e7f3b60b",
    "qkv_bias fe=cde11d71d83c5bcc vm=76175bd6bdd3e629",
    "scores fe=74915c4801278883 vm=91da3eabf2a4b966",
    "scale fe=1ff3b8af95f48eea vm=5415276cca70b6c7",
    "row_max fe=18c79fdfcb5927cd vm=cd81bc9c6f2016d5",
    "row_exp fe=95e38beebf2276ae vm=2545efa0ecaa2ee6",
    "row_sum fe=da53cd54df81b6c7 vm=f7f14b2afb45cd91",
    "row_softmax fe=c29aa8519fcddca9 vm=e891ca6a3278ab88",
    "attnv fe=76338dc4f1d0d476 vm=6faf6fb3d2e4ccdc",
    "out_proj fe=512e927029e6d832 vm=664dd7156d34f739",
    "attn_bias fe=7f0a853e0f36c3e1 vm=6446b943567da2b1",
];

const CAUSAL_MNLI_GOLDEN: [&str; 11] = [
    "qkv_proj fe=91d9ecf6be166ca5 vm=8215b269e7f3b60b",
    "qkv_bias fe=d6eb29162db4d95a vm=76175bd6bdd3e629",
    "scores fe=d073d1a7f56604a4 vm=91da3eabf2a4b966",
    "scale fe=37bc8c317bc10549 vm=5415276cca70b6c7",
    "row_max fe=5726ecb1f1eb6de5 vm=cd81bc9c6f2016d5",
    "row_exp fe=36332d7d77353867 vm=2545efa0ecaa2ee6",
    "row_sum fe=5bd2a15e883bffad vm=f7f14b2afb45cd91",
    "row_softmax fe=eefd3abe94152b92 vm=e891ca6a3278ab88",
    "attnv fe=3f2fdbdc82ce9a54 vm=6faf6fb3d2e4ccdc",
    "out_proj fe=c999b405cd66e8e6 vm=664dd7156d34f739",
    "attn_bias fe=39fd650e2d48f776 vm=6446b943567da2b1",
];

/// Adds `program`'s fused-instruction census to `total`; a program that
/// does not hold exactly one fused instruction — a stage that fell off
/// the fused path, or grew a second nest — is reported by label with its
/// disassembly.
fn tally_one_fused(
    label: &str,
    program: &VmProgram,
    total: &mut (usize, usize, usize),
    off_path: &mut String,
) {
    let (one_deep, two_deep, map) = program.fused_counts();
    if one_deep + two_deep + map != 1 {
        writeln!(off_path, "\n######## {label}\n{program}").unwrap();
    }
    *total = (total.0 + one_deep, total.1 + two_deep, total.2 + map);
}

/// The deterministic tripwire for "a stage compiles to scalar bytecode":
/// every built-in program — each row of the stage table (and the masked
/// block's `attn_bias`) under both attention kinds, whole program and
/// outlined body — and every schedule variant holds exactly one fused
/// superinstruction. The totals are `fused_counts()` summed:
/// `(one-deep mul-acc, two-deep mul-acc, map)`.
#[test]
fn every_stage_and_every_tuner_candidate_compiles_to_one_fused_instruction() {
    let cfg = EncoderConfig::scaled(8);
    let mut off_path = String::new();

    let mut built_in = (0, 0, 0);
    let mut causal_block = (0, 0, 0);
    for attend in [Attend::Full, Attend::Causal] {
        let geometry = Geometry::new(&cfg, &MNLI_LENS, attend);
        for row in STAGES.iter() {
            let compiled = lower(&row.operator(&geometry))
                .expect("built-in schedules are legal")
                .compile();
            let body = compiled.parallel_body().expect("every stage outlines");
            for (tier, program) in [("whole program", compiled.vm()), ("body", body)] {
                let label = format!("{} ({attend:?}, {tier})", row.label);
                tally_one_fused(&label, program, &mut built_in, &mut off_path);
            }
        }
    }
    let masked = CompiledEncoderLayer::build_masked_mha(&cfg, &MNLI_LENS).expect("builds");
    for (label, compiled) in masked.pipeline().expect("non-empty batch").stage_programs() {
        let body = compiled.parallel_body().expect("every stage outlines");
        for (tier, program) in [("whole program", compiled.vm()), ("body", body)] {
            let label = format!("{label} (masked block, {tier})");
            tally_one_fused(&label, program, &mut causal_block, &mut off_path);
        }
    }

    let mut variants = (0, 0, 0);
    for (stage, directives) in &schedule_variants() {
        let op = variant_operator(stage, directives, &cfg, &MNLI_LENS);
        let compiled = lower(&op).expect("every variant lowers").compile();
        let label = format!("{stage} variant {directives:?}");
        tally_one_fused(&label, compiled.vm(), &mut variants, &mut off_path);
    }

    assert!(
        off_path.is_empty(),
        "programs without exactly one fused instruction:{off_path}"
    );
    assert_eq!(built_in, (0, 24, 60), "the 84 stage-table programs");
    assert_eq!(causal_block, (0, 8, 14), "the masked block's 22 programs");
    assert_eq!(variants, (0, 14, 0), "the 14 schedule variants");
}

/// The first block-bound loop variable of a lowered statement.
fn block_var(stmt: &Stmt) -> String {
    match stmt {
        Stmt::For { var, kind, .. } if kind.is_block_axis() => var.clone(),
        Stmt::For { body, .. } | Stmt::LetInt { body, .. } => block_var(body),
        _ => panic!("a stage statement has a block-bound loop"),
    }
}

/// Checks that `program`'s only row level runs over `want`; a program
/// whose loop falls back to per-row bytecode is reported by label with
/// its disassembly.
fn expect_row_level(label: &str, program: &VmProgram, want: &str, off_path: &mut String) {
    let rows = program.fused_row_vars();
    if rows != [want] {
        writeln!(
            off_path,
            "\n######## {label}: row levels over {rows:?}, want [{want:?}]\n{program}"
        )
        .unwrap();
    }
}

/// The deterministic tripwire for "a stage's rows run in bytecode": at
/// both program-golden shapes and at a 16-sequence MNLI batch, under
/// both attention masks, every stage-table program — whole program and
/// tile body — and every program of the masked block compiles its block
/// loop into the row level of its one fused nest. `out_proj`'s block
/// loop holds its per-head loop, so the row level is that head loop,
/// inside each block.
#[test]
fn every_stage_runs_its_rows_in_a_fused_nest_row_level() {
    let cfg = EncoderConfig::scaled(8);
    let mnli16 = Dataset::Mnli.sample_lengths(16, 42);
    let mut off_path = String::new();
    let mut programs = 0;
    for lens in [&EDGE_LENS[..], &MNLI_LENS, &mnli16] {
        for attend in [Attend::Full, Attend::Causal] {
            let geometry = Geometry::new(&cfg, lens, attend);
            let want = |label: &str| {
                let row = stage(label).expect("pipeline labels come from the stage table");
                let program =
                    lower(&row.operator(&geometry)).expect("built-in schedules are legal");
                match label {
                    "out_proj" => "head".to_string(),
                    _ => block_var(program.stmt()),
                }
            };
            let mut check = |label: String, compiled: &CompiledProgram, want: &str| {
                let body = compiled.parallel_body().expect("every stage outlines");
                for (tier, program) in [("whole program", compiled.vm()), ("tile body", body)] {
                    let label = format!("{label} ({attend:?}, {} rows, {tier})", lens.len());
                    expect_row_level(&label, program, want, &mut off_path);
                    programs += 1;
                }
            };
            for row in STAGES.iter() {
                let compiled = lower(&row.operator(&geometry))
                    .expect("built-in schedules are legal")
                    .compile();
                check(row.label.to_string(), &compiled, &want(row.label));
            }
            if attend == Attend::Causal {
                let masked = CompiledEncoderLayer::build_masked_mha(&cfg, lens).expect("builds");
                let pipeline = masked.pipeline().expect("non-empty batch");
                for (label, compiled) in pipeline.stage_programs() {
                    check(format!("{label} (masked block)"), compiled, &want(label));
                }
            }
        }
    }
    assert!(
        off_path.is_empty(),
        "programs whose loop is not a fused nest's row level:{off_path}"
    );
    assert_eq!(programs, 3 * 2 * (2 * 21 + 11), "every case was checked");
}
