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
    "qkv_proj 772fb8b382fd3dfa",
    "qkv_bias ebd62bd101be48d9",
    "scores 00da1598b3d4b57b",
    "scale 6ada97117a8f9a36",
    "row_max bfbcabab92cf6b38",
    "row_exp 033e5b3e9b24b9f4",
    "row_sum f85502fc8ff41c92",
    "row_softmax f2b978565e5ce8bc",
    "attnv f7cf4849ae4f6f8b",
    "out_proj dd66c3ae665a9f20",
    "attn_bias_residual b37871857ea50c2d",
    "ln1_sum 74b9f1b6f3bd1096",
    "ln1_var 9a9410511d8603c6",
    "ln1_norm 582dea18c1b37123",
    "ff1 54988bee511c66b1",
    "ff1_bias_gelu 5fdc9bccfffe6aea",
    "ff2 907983b61b9cae4f",
    "ff_bias_residual 49c887de357fa9f4",
    "ln2_sum b68855f5c5d21d4d",
    "ln2_var dbb7a42d3c99da62",
    "ln2_norm 3d3ad733e4b2428d",
];

const MNLI_GOLDEN: [&str; 21] = [
    "qkv_proj 7626efd53712105a",
    "qkv_bias 57c51e2e6cd64f85",
    "scores 8ac44b486f78a1c4",
    "scale 81dce3aebd362739",
    "row_max 8ffd983e2263565e",
    "row_exp de6154f95e38900d",
    "row_sum 88a020f1d9fa904e",
    "row_softmax 972e2baaed2183b5",
    "attnv 87d3aa8299f2a00f",
    "out_proj 3d71ba0385eabe42",
    "attn_bias_residual bf9c8c59679672c0",
    "ln1_sum 1a252af36b10d5f7",
    "ln1_var f957958ea6a475cc",
    "ln1_norm 40a6369939eeefa5",
    "ff1 c3ac9a21db044f7e",
    "ff1_bias_gelu 7819364f042107b9",
    "ff2 315b0c2c0fe52843",
    "ff_bias_residual 00ea15684fd83ddb",
    "ln2_sum 86fe24ba1a747f46",
    "ln2_var 1c50d765f7eb1907",
    "ln2_norm e438c45166278808",
];

const CAUSAL_EDGE_GOLDEN: [&str; 11] = [
    "qkv_proj 772fb8b382fd3dfa",
    "qkv_bias ebd62bd101be48d9",
    "scores 5ae3aaf9a35efc8c",
    "scale 5c32f197dddd55bc",
    "row_max 78b6a0c4cad5a12b",
    "row_exp 4cb4774f7a377b86",
    "row_sum 732d75f9dd4ed83d",
    "row_softmax 2fd28e518319a010",
    "attnv d5f7f45ff334f254",
    "out_proj dd66c3ae665a9f20",
    "attn_bias 6437d5365207664f",
];

const CAUSAL_MNLI_GOLDEN: [&str; 11] = [
    "qkv_proj 7626efd53712105a",
    "qkv_bias 57c51e2e6cd64f85",
    "scores dfa78ad7d160d504",
    "scale deb7cc1e16ae0d12",
    "row_max dce63ac9aa066f11",
    "row_exp c598bcc7ad65e672",
    "row_sum 04948472b4644d67",
    "row_softmax 36d73eb2bfb63dfa",
    "attnv 7660fde31a8529da",
    "out_proj 38fe31c4b6a1d920",
    "attn_bias 973132503bca1bf7",
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
