//! Program-identity golden for the compiled encoder stages.
//!
//! For each stage of the 21-row stage table and of the 11-stage causal
//! masked-MHA block, at the two ragged shapes `verify_golden.rs` uses,
//! one FNV-1a hash pins *everything the compiler emits* for the stage:
//! the serial VM disassembly, the outlined parallel body's disassembly,
//! the C source of the lowered statement, every prelude table and
//! parameter, and the stage's arena-plan entry. A refactor that claims
//! "byte-identical programs" proves it by leaving this file untouched; an
//! intended change (a fusion pass, a new peephole) re-records exactly the
//! rows it moved — the failure prints the new table and the full text of
//! every stage whose hash changed.

use std::fmt::Write;

use cora::core::prelude::*;
use cora::exec::VmProgram;
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

/// Everything the compiler emitted for one pipeline stage, as text.
fn stage_text(label: &str, compiled: &CompiledProgram, g: &Geometry, plan: &str) -> String {
    let row = stage(label).expect("pipeline labels come from the stage table");
    let program = lower(&row.operator(g)).expect("built-in schedules are legal");
    let mut text = format!("== vm\n{}== parallel body\n", compiled.vm());
    match compiled.parallel_body() {
        Some(body) => write!(text, "{body}").unwrap(),
        None => text.push_str("none\n"),
    }
    write!(text, "== c\n{}== prelude\n", program.c_source()).unwrap();
    let prelude = compiled.build_prelude();
    for (name, table) in &prelude.int_buffers {
        writeln!(text, "table {name} = {table:?}").unwrap();
    }
    for (name, value) in &prelude.params {
        writeln!(text, "param {name} = {value}").unwrap();
    }
    writeln!(text, "== plan\n{plan}").unwrap();
    text
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
        let entry = plan.entries().iter().find(|e| e.def == si);
        let text = stage_text(label, compiled, &geometry, &format!("{entry:?}"));
        let line = format!("{label} {:016x}", fnv1a(&text));
        if golden.get(si) != Some(&line.as_str()) {
            writeln!(moved, "\n######## {label}\n{text}").unwrap();
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
    "qkv_proj ab69488a7b2af1f4",
    "qkv_bias 1fc0eda7e3b67bb7",
    "scores 82b1f167b22f8c2f",
    "scale f94b435a8f71c4cd",
    "row_max 1157e76aa5a6bc65",
    "row_exp 40559290db36789a",
    "row_sum 2530d216be8369d7",
    "row_softmax df1606daacadced4",
    "attnv 2b106eb4422243c6",
    "out_proj 14d6b87eb58304cd",
    "attn_bias_residual e21131655f2cf8a9",
    "ln1_sum 4c645ec9320aa148",
    "ln1_var aa1483c7e5204f66",
    "ln1_norm afe1ec4d905bec81",
    "ff1 aab4a209fecefcdb",
    "ff1_bias_gelu 59f5839db6ea6be4",
    "ff2 a14af69f196d8f0b",
    "ff_bias_residual 183ce4b513b1f618",
    "ln2_sum acdc4178712c519b",
    "ln2_var 085fe42c5d409322",
    "ln2_norm 2c387679c0b845f3",
];

const MNLI_GOLDEN: [&str; 21] = [
    "qkv_proj c0d30b3b24c2d5ae",
    "qkv_bias ee2c9f71e96a1c99",
    "scores 4df9808dd4982b73",
    "scale 17bb59080d913d7d",
    "row_max cbb093fab60105d4",
    "row_exp 627a0ea068e76e82",
    "row_sum 56c4273be9705a7e",
    "row_softmax 732452fc5fd1f866",
    "attnv 92358994078234eb",
    "out_proj f7ae75274876427b",
    "attn_bias_residual 88a79b262fb4654a",
    "ln1_sum e468c337f737bbbd",
    "ln1_var 78a7b6f6ea191fb4",
    "ln1_norm 7761eec16abbd075",
    "ff1 92f351d67b03d50c",
    "ff1_bias_gelu 4c6d6a0c05282967",
    "ff2 a7e2a150bdeeb605",
    "ff_bias_residual 2e971affe7101c35",
    "ln2_sum fee179d5cce7d360",
    "ln2_var 8d55300cafb703f7",
    "ln2_norm c754f4f1e46059b8",
];

const CAUSAL_EDGE_GOLDEN: [&str; 11] = [
    "qkv_proj ab69488a7b2af1f4",
    "qkv_bias 1fc0eda7e3b67bb7",
    "scores 8522ec5d4143e8f2",
    "scale e5724b0fbca2a263",
    "row_max a3d4a115542d003e",
    "row_exp 9d8c7521d4765bdc",
    "row_sum 433a861fb6d194e0",
    "row_softmax e92faddbc61902c8",
    "attnv bb4a4d576cfec789",
    "out_proj 14d6b87eb58304cd",
    "attn_bias 720cb20bba5f4ac9",
];

const CAUSAL_MNLI_GOLDEN: [&str; 11] = [
    "qkv_proj c0d30b3b24c2d5ae",
    "qkv_bias ee2c9f71e96a1c99",
    "scores b1fc03ef01096b6b",
    "scale bd516046bdacd5f6",
    "row_max ab4c708251de675d",
    "row_exp 9bd8ff825280768d",
    "row_sum ff502bd4f9bf1ad1",
    "row_softmax 792091c808fbf56d",
    "attnv 2567dd3ce707b638",
    "out_proj f9ae619132cba2ad",
    "attn_bias 775a0b55536cef67",
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
