//! Rows whose numbers are analytic (FLOP and byte counts) or come from
//! the simulated GPU, plus §7.4's prelude structures.

use cora_bench::{f2, f3};
use cora_datasets::Dataset::{self, Cola, Mnli, Race, Wiki128, Wiki512};
use cora_datasets::ALL_DATASETS;
use cora_exec::cost::{GpuModel, KernelTraits};
use cora_exec::gpu::{GpuSim, SimKernel};
use cora_exec::CpuPool;
use cora_kernels::vendor::elementwise_kernel;
use cora_transformer::config::EncoderConfig;
use cora_transformer::encoder::{max_divergence, RaggedBatch};
use cora_transformer::flops::wasted_computation_ratio;
use cora_transformer::flops::{encoder_activation_bytes, encoder_flops, Padding};
use cora_transformer::gpu::EncoderImpl::{self, Cora, Ft, FtEff, PyTorch};
use cora_transformer::gpu::EncoderSim;
use cora_transformer::masked::masked_sdpa_latency_ms as masked_ms;
use cora_transformer::masked::MaskedImpl::{self, CoraNoPad, CoraPad};
use cora_transformer::masked_mha::{masked_mha_padded, masked_mha_ragged};
use cora_transformer::prelude_costs::{measure_prelude, PreludeCosts};
use cora_transformer::variants::variant_latency_ms;
use cora_transformer::variants::SplitVariant::{self, NoSplit, Split, Split2HFused, SplitHFused};
use cora_transformer::variants::{attnv_kernels, cpu_device_model, qkt_kernels};
use cora_transformer::weights::EncoderWeights;

use crate::{geomean, joined, least, most, table, Run};

/// CoRa's padding as the paper schedules it: SDPA rows to 32, fused
/// linear rows to 64 (Fig. 3).
const PARTIAL: Padding = Padding::Partial {
    seq_multiple: 32,
    bulk_multiple: 64,
};

pub fn fig02(r: &mut Run) {
    println!("padded/ideal FLOPs of an encoder layer per dataset and batch (analytic)\n");
    let cfg = EncoderConfig::base();
    let batches = [1usize, 2, 4, 8, 16, 32, 64, 128];
    let ratio = |ds: Dataset, bs| wasted_computation_ratio(&cfg, &ds.sample_lengths(bs, 42));
    let mut headers = vec!["dataset".to_string()];
    headers.extend(batches.map(|bs| bs.to_string()));
    let rows = ALL_DATASETS.map(|ds| (ds.name(), batches.map(|bs| ratio(ds, bs))));
    table(&headers, rows, f2);
    let short = least([Mnli, Cola].map(|ds| ratio(ds, 128)));
    let long = most([Race, Wiki512, Wiki128].map(|ds| ratio(ds, 128)));
    let what = "batch 128: least of MNLI, CoLA vs most of RACE, Wiki512, Wiki128";
    r.cmp(what, short, ">", long);
}

/// Table 4 and Fig. 11's implementations, in column order.
const ENCODERS: [EncoderImpl; 4] = [PyTorch, Ft, Cora, FtEff];

/// The Table 4 / Fig. 11 sweep: simulated layer latency (ms) of each of
/// [`ENCODERS`] per dataset × batch, CoRa's with its prelude share.
fn encoder_sweep() -> Vec<(Dataset, usize, [f64; 4])> {
    let sim = EncoderSim::new(EncoderConfig::base());
    let mut sweep = Vec::new();
    for ds in ALL_DATASETS {
        for bs in [32usize, 64, 128] {
            let lens = ds.sample_batch_sorted(bs, 13);
            sweep.push((ds, bs, ENCODERS.map(|imp| sim.layer_latency_ms(imp, &lens))));
        }
    }
    sweep
}

fn encoder_headers(first: &str) -> Vec<&str> {
    [&[first][..], &ENCODERS.map(EncoderImpl::name)].concat()
}

pub fn tab04(r: &mut Run) {
    println!("encoder layer latency in ms (simulated GPU, 6-layer prelude share)\n");
    let sweep = encoder_sweep();
    let label = |ds: &Dataset, bs| format!("{} / {bs}", ds.name());
    let rows = sweep.iter().map(|(ds, bs, ms)| (label(ds, bs), *ms));
    table(&encoder_headers("dataset / batch"), rows, f3);
    let ratio = |a: usize, b: usize| sweep.iter().map(move |s| s.2[a] / s.2[b]);
    r.cmp("geomean PyTorch/CoRa", geomean(ratio(0, 2)), "≥", 1.6);
    r.cmp("least FT/CoRa", least(ratio(1, 2)), ">", 1.0);
    r.cmp("largest CoRa/FT-Eff", most(ratio(2, 3)), "≤", 1.05);
}

pub fn fig11(r: &mut Run) {
    println!("encoder layer time relative to FT-Eff, mean over datasets (simulated GPU)\n");
    let sweep = encoder_sweep();
    let mean = [32usize, 64, 128].map(|bs| {
        let runs: Vec<_> = sweep.iter().filter(|s| s.1 == bs).map(|s| s.2).collect();
        let mean = |i: usize| runs.iter().map(|ms| ms[i] / ms[3]).sum::<f64>() / runs.len() as f64;
        (bs, [0, 1, 2, 3].map(mean))
    });
    table(&encoder_headers("batch"), mean, f2);
    let ordered = |[pt, ft, cora, eff]: [f64; 4]| cora < eff && eff < ft && ft < pt;
    let what = "CoRa < FT-Eff < FT < PyTorch at every batch";
    r.check(what, mean.iter().all(|(_, m)| ordered(*m)), "table");
}

pub fn fig12(r: &mut Run) {
    println!("encoder layer time, RACE, padding changes fused vs not (simulated GPU)\n");
    let fused = EncoderSim::new(EncoderConfig::base());
    let mut unfused = fused.clone();
    unfused.fuse_pad_change = false;
    let ratio = [32usize, 64, 128].map(|bs| {
        let lens = Race.sample_batch_sorted(bs, 3);
        let ratio = fused.layer_latency_ms(Cora, &lens) / unfused.layer_latency_ms(Cora, &lens);
        (bs, [1.0, ratio])
    });
    table(&["batch", "Unfused", "Fused"], ratio, f2);
    let worst = most(ratio.map(|(_, x)| x[1]));
    r.cmp("largest fused/unfused", worst, "<", 0.97);
}

pub fn fig13(r: &mut Run) {
    let sim = EncoderSim::new(EncoderConfig::base());
    let lens = Race.sample_batch_sorted(128, 13);
    let [ft, _, cora] = [Ft, FtEff, Cora].map(|imp| {
        let breakdown = sim.breakdown_ms(imp, &lens);
        let total: f64 = breakdown.iter().map(|(_, ms)| ms).sum();
        let name = imp.name();
        println!("{name}, RACE @ 128: simulated ms per kernel, total {total:.3}\n");
        let rows = breakdown.iter().map(|(kernel, ms)| (kernel, [*ms]));
        table(&["kernel", "ms"], rows, f3);
        println!();
        breakdown
    });
    // Both breakdowns list the SDPA operators as three groups from `qkt` on.
    let sdpa = |b: &[(String, f64)]| {
        let qkt = b
            .iter()
            .position(|(k, _)| k == "qkt")
            .expect("an SDPA breakdown");
        b[qkt..qkt + 3].to_vec()
    };
    let pairs = sdpa(&cora).into_iter().zip(sdpa(&ft));
    let (kernels, ratios): (Vec<_>, Vec<_>) = pairs.map(|(c, f)| (c.0, c.1 / f.1)).unzip();
    let what = format!("largest CoRa/FT of {}", joined(kernels));
    r.cmp(&what, most(ratios), "<", 1.0);
}

/// The batch sizes of Figs. 14 and 20/21.
const SPLIT_BATCHES: [usize; 8] = [8, 16, 32, 64, 128, 256, 512, 1024];

type SplitKernels = fn(&EncoderConfig, &GpuModel, SplitVariant, &[usize]) -> Vec<SimKernel>;

/// Figs. 14 and 20/21: each variant's latency relative to the first
/// (`NoSplit`), MNLI, per batch, on the simulated GPU and the simulated
/// 64-core CPU. Returns `[gpu, cpu]`, each `[batch][variant]`.
fn split_tables(op: &str, kernels: SplitKernels, variants: &[SplitVariant]) -> [Vec<Vec<f64>>; 2] {
    let cfg = EncoderConfig::base();
    let mut headers = vec!["batch"];
    headers.extend(variants.iter().map(|v| v.name()));
    let gpu = ("GPU", GpuModel::default());
    [gpu, ("64-core ARM CPU", cpu_device_model(64))].map(|(device, model)| {
        println!("{op}, MNLI, simulated {device}: time relative to NoSplit\n");
        let relative = |&bs: &usize| {
            let lens = Mnli.sample_batch_sorted(bs, 2);
            let ms = |v| variant_latency_ms(&kernels(&cfg, &model, v, &lens), &model);
            let base = ms(variants[0]);
            variants.iter().map(|&v| ms(v) / base).collect::<Vec<_>>()
        };
        let rel: Vec<_> = SPLIT_BATCHES.iter().map(relative).collect();
        table(&headers, SPLIT_BATCHES.iter().zip(rel.clone()), f2);
        println!();
        rel
    })
}

/// The largest `row[a] / row[b]` over every batch of both devices.
fn worst_ratio(tables: &[Vec<Vec<f64>>; 2], a: usize, b: usize) -> f64 {
    most(tables.iter().flatten().map(|row| row[a] / row[b]))
}

pub fn fig14(r: &mut Run) {
    let tables = split_tables("AttnV", attnv_kernels, &[NoSplit, Split, SplitHFused]);
    let worst = worst_ratio(&tables, 2, 1);
    r.cmp("largest Split-HFused/Split", worst, "≤", 1.0);
    let cpu = SPLIT_BATCHES.iter().zip(&tables[1]);
    let slower: Vec<_> = cpu.filter(|(_, t)| t[1] > 1.0).collect();
    let here = slower.iter().map(|(bs, t)| format!("{:.2} @ {bs}", t[1]));
    let (held, here) = (slower.is_empty(), format!("Split/NoSplit {}", joined(here)));
    r.note("on the CPU, splitting alone helps", held, here);
}

pub fn fig20(r: &mut Run) {
    let variants = [NoSplit, Split, SplitHFused, Split2HFused];
    let tables = split_tables("QKT", qkt_kernels, &variants);
    let (split, split2) = (worst_ratio(&tables, 2, 1), worst_ratio(&tables, 2, 3));
    r.cmp("largest Split-HFused/Split", split, "≤", 1.0);
    r.cmp("largest Split-HFused/Split2-HFused", split2, "≤", 1.0);
}

pub fn fig18(r: &mut Run) {
    let (cfg, model) = (EncoderConfig::base(), GpuModel::default());
    let imps = [MaskedImpl::PyTorch, CoraPad, CoraNoPad];
    let mut worst = 0.0f64;
    for ds in [Race, Mnli] {
        println!("{}: time relative to PyTorch (simulated GPU)\n", ds.name());
        let rel = [32usize, 64, 128].map(|bs| {
            let lens = ds.sample_batch_sorted(bs, 4);
            let [pt, pad, nopad] = imps.map(|i| masked_ms(&cfg, &model, i, &lens, 32));
            worst = worst.max(nopad / pad).max(pad / pt);
            (bs, [1.0, pad / pt, nopad / pt])
        });
        table(&["batch", "PyTorch", "CoRa-Pad", "CoRa-NoPad"], rel, f2);
        println!();
    }
    r.cmp("largest NoPad/Pad and Pad/PyTorch", worst, "<", 1.0);
    // Numeric cross-check at reduced scale, real CPU execution: the
    // triangular ragged path and the masked padded path must agree.
    let cfg = EncoderConfig::scaled(8);
    let w = EncoderWeights::random(&cfg, 1);
    let x = RaggedBatch::random(&Cola.sample_batch_sorted(8, 9), cfg.hidden, 2);
    let (pool, max_len) = (CpuPool::host(), x.lens[0]);
    let data = masked_mha_ragged(&pool, &cfg, &w, &x);
    let padded = masked_mha_padded(&pool, &cfg, &w, &x.lens, max_len, &x.to_padded(max_len));
    let diff = max_divergence(&RaggedBatch { data, ..x.clone() }, &padded, max_len);
    r.cmp("CoLA @ 8: max |ragged - padded|", diff.into(), "≤", 1e-3);
}

pub fn fig19(r: &mut Run) {
    println!("forward-activation memory, ragged relative to dense, batch 64 (analytic)\n");
    let cfg = EncoderConfig::base();
    let dense_over_ragged = ALL_DATASETS.map(|ds| {
        let lens = ds.sample_batch_sorted(64, 17);
        let bytes = |padding| encoder_activation_bytes(&cfg, &lens, padding);
        bytes(Padding::Full) / bytes(PARTIAL)
    });
    let rows = ALL_DATASETS.iter().zip(dense_over_ragged);
    let rows = rows.map(|(ds, x)| (ds.name(), [1.0, 1.0 / x]));
    table(&["dataset", "Dense", "Ragged"], rows, f2);
    let mean = dense_over_ragged.iter().sum::<f64>() / ALL_DATASETS.len() as f64;
    r.cmp("mean dense/ragged", mean, "≥", 1.5);
}

pub fn fig22(r: &mut Run) {
    let cfg = EncoderConfig::base();
    for bs in [32usize, 128] {
        println!("FLOPs relative to ideal (no padding), batch {bs} (analytic)\n");
        let rel = ALL_DATASETS.map(|ds| {
            let lens = ds.sample_batch_sorted(bs, 21);
            let flops = |padding| encoder_flops(&cfg, &lens, padding);
            [Padding::Full, PARTIAL, Padding::None].map(|p| flops(p) / flops(Padding::None))
        });
        let rows = ALL_DATASETS.iter().zip(rel).map(|(ds, v)| (ds.name(), v));
        table(&["dataset", "Dense", "Actual", "Ideal"], rows, f2);
        let overhead = 100.0 * rel.iter().map(|v| v[1] - 1.0).sum::<f64>() / rel.len() as f64;
        let worst = most(rel.map(|v| v[1]));
        let what = format!("batch {bs}: largest Actual/Ideal");
        r.cmp(&what, worst, "≤", 1.06);
        r.cmp(&format!("batch {bs}: mean overhead, %"), overhead, "≤", 5.0);
        println!();
    }
}

pub fn fig23(r: &mut Run) {
    println!("ms per MHA operator, every length 512, batch 64 (simulated GPU)\n");
    let (cfg, model) = (EncoderConfig::base(), GpuModel::default());
    let (rows, attn, h) = (512.0 * 64.0, 64.0 * 512.0 * 512.0, cfg.hidden as f64);
    // The dense baseline has no guards or indirect accesses; vloops add
    // extent-table reads (small); vdims add offset-array reads (larger);
    // hoisting recovers most of it. QKT fuses two vloops, so its
    // un-hoisted penalty is the full indirect factor (§D.7).
    let generated = KernelTraits::generated();
    let traits = |factor| KernelTraits {
        indirect_factor: factor,
        ..generated
    };
    let ops = [
        ("Proj1", 2.0 * rows * h * 3.0 * h),
        ("QKT", 2.0 * attn * h),
        ("Softmax", 4.0 * attn * cfg.heads as f64),
        ("AttnV", 2.0 * attn * h),
        ("Proj2", 2.0 * rows * h * h),
    ];
    let ms = ops.map(|(op, flops)| {
        let vdims = if op == "QKT" {
            generated.with_indirect()
        } else {
            traits(1.10)
        };
        let hoisted = generated.with_hoisted_indirect();
        [generated, traits(1.05), vdims, hoisted].map(|t| {
            let k = elementwise_kernel(op, &model, t, (flops / 2.0) as usize, 2.0, 128 << 10);
            GpuSim::with_model(model).run(&[k], 0).total_ms()
        })
    });
    let rows = ops.iter().zip(ms).map(|((op, _), t)| (op, t));
    let headers = ["op", "Dense", "+vloops", "+vdims", "+LoadHoist"];
    table(&headers, rows, f3);
    let hoisting = most(ms.map(|t| t[3] / t[2]));
    r.cmp("largest +LoadHoist/+vdims", hoisting, "<", 1.0);
    let [proj1, qkt, softmax, attnv, proj2] = ms.map(|t| t[2] / t[0]);
    let others = most([proj1, softmax, attnv, proj2]);
    r.cmp("+vdims/Dense: QKT vs the other ops", qkt, ">", others);
}

/// §7.4's batches.
const PRELUDE_CASES: [(Dataset, usize); 4] = [(Cola, 32), (Cola, 128), (Race, 32), (Race, 128)];

fn prelude(builds: usize, (ds, bs): (Dataset, usize)) -> PreludeCosts {
    let lens = ds.sample_batch_sorted(bs, 31);
    measure_prelude(&EncoderConfig::base(), &GpuModel::default(), &lens, builds)
}

type Field = fn(&PreludeCosts) -> f64;

/// One §7.4 table over every batch, built once ("Optimized", shared) and
/// six times (the prototype's per-operator rebuilds, §6/§D.7), one
/// column per field. With `warm` > 0 each field is its minimum over
/// `warm` builds after one discarded build. Returns `[once, six
/// times][batch][column]`.
fn prelude_table<const N: usize>(
    columns: [(&str, Field); N],
    warm: usize,
    fmt: fn(f64) -> String,
) -> [[[f64; N]; 4]; 2] {
    let costs = |builds, case| {
        let runs: Vec<_> = (0..=warm).map(|_| prelude(builds, case)).collect();
        let runs = &runs[usize::from(warm > 0)..];
        columns.map(|(_, field)| least(runs.iter().map(field)))
    };
    let out = [1, 6].map(|builds| PRELUDE_CASES.map(|case| costs(builds, case)));
    let label = |n| PRELUDE_CASES.map(|(ds, bs)| format!("{} / {bs} ×{n}", ds.name()));
    let rows = [1, 6].map(label).into_iter().flatten().zip(out.concat());
    let headers = [&["dataset / batch ×builds"][..], &columns.map(|c| c.0)].concat();
    table(&headers, rows, fmt);
    out
}

pub fn sec74(r: &mut Run) {
    sec74_memory(r);
    sec74_times(r);
}

/// §7.4's memory columns: exact byte counts of the built structures.
pub fn sec74_memory(r: &mut Run) {
    println!("prelude memory in kB\n");
    let kb = prelude_table(
        [
            ("sparse (CSF)", |c| c.sparse_mem_kb),
            ("CoRa store", |c| c.cora_storage_mem_kb),
            ("CoRa fusion", |c| c.cora_fusion_mem_kb),
        ],
        0,
        f3,
    );
    let ratio = |a: usize, b: usize| least(kb[0].map(|v| v[a] / v[b]));
    r.cmp("least CSF/CoRa-store memory", ratio(0, 1), "≥", 50.0);
    r.cmp("least CoRa fusion/store memory", ratio(2, 1), ">", 1.0);
    let pairs = kb[0].iter().flatten().zip(kb[1].iter().flatten());
    let off = most(pairs.map(|(once, six)| (six / once - 6.0).abs()));
    let six = format!("6 ± {off:.0e}");
    r.check("×6/×1 of every memory figure", off < 1e-9, six);
}

/// §7.4's time columns, warm (the cold first build is discarded).
fn sec74_times(r: &mut Run) {
    let calls = r.size(3, 10);
    println!("\nprelude build and copy time in ms, best of {calls} warm calls\n");
    let ms = prelude_table(
        [
            ("sparse (CSF)", |c| c.sparse_time_ms),
            ("CoRa store", |c| c.cora_storage_time_ms),
            ("CoRa fusion", |c| c.cora_fusion_time_ms),
            ("copy", |c| c.cora_copy_ms),
        ],
        calls,
        |v| format!("{v:.2e}"),
    );
    let build = |t: &[f64; 4]| t[0] + t[1] + t[2];
    let cut = least((0..4).map(|i| build(&ms[1][i]) / build(&ms[0][i])));
    r.clock("least ×6/×1 build time", cut, 2.5, 3.42);
    let cases = PRELUDE_CASES.iter().zip(&ms[0]);
    let here = cases.map(|((ds, bs), t)| format!("{} / {bs} {:.3}", ds.name(), t[3] / t[2]));
    let here = format!("copy/fusion time {}", joined(here));
    let held = ms[0].iter().all(|t| t[3] >= t[1].max(t[2]));
    r.note("the device copy is CoRa's largest prelude cost", held, here);
}
