//! Rows timed in wall-clock on the host CPU: the execution tiers, MHA on
//! a multi-core CPU (Fig. 27, Tables 5 and 9) and the Taco comparison
//! (Table 6). Every time is `time_best_ms`, the best of N calls. CoRa's
//! column times compiled code — the compiled MHA block and the lowered
//! trmm — except Table 6's tradd and trmul, a hand-written packed loop.

use std::hint::black_box;
use std::rc::Rc;

use cora_bench::{f2, f3, print_table};
use cora_core::prelude::*;
use cora_datasets::{Dataset, ALL_DATASETS};
use cora_kernels::elementwise::{residual_add, scale};
use cora_ragged::{Dim, RaggedLayout};
use cora_sparse::ops::{tradd_csr, trmm_bcsr, trmm_csr, trmul_bcsr, trmul_csr};
use cora_sparse::{BcsrMatrix, CsrMatrix};
use cora_transformer::encoder::RaggedBatch;
use cora_transformer::encoder_compiled::{stage, Attend, CompiledEncoderLayer, Geometry, SCORES};
use cora_transformer::mha::{mha_padded, search_micro_batch, time_best_ms};
use cora_transformer::{EncoderConfig, EncoderWeights};

use crate::matmul::trmm_op;
use crate::{geomean, joined, least, table, Run};

/// `B[o,i] = 2*A[o,i] + 1` over a dataset-shaped ragged batch, with the
/// default schedule.
fn affine_op(lens: &[usize]) -> Operator {
    let tensor = |name| {
        let (b, l) = (Dim::new("batch"), Dim::new("len"));
        let layout = RaggedLayout::builder().cdim(b.clone(), lens.len());
        let layout = layout.vdim(l, &b, lens.to_vec()).build();
        TensorRef::new(name, layout.expect("a valid 2-d ragged layout"))
    };
    let a = tensor("A");
    let a2 = a.clone();
    let body: BodyFn = Rc::new(move |args| a2.at(args) * 2.0 + 1.0);
    let o = LoopSpec::fixed("o", lens.len());
    let i = LoopSpec::variable("i", 0, lens.to_vec());
    Operator::new("affine", vec![o, i], vec![], tensor("B"), vec![a], body)
}

/// The interpreter, the VM and the parallel VM on fig02-sized ragged
/// kernels: every tier must reproduce the interpreter, and the VM must be
/// fast enough that CoRa's dense-kernel claim is testable at all.
///
/// The kernels are the affine map under its default and a fused,
/// load-hoisted schedule, the same map with its rows bound to blocks
/// (tiny blocks: its parallel columns measure dispatch overhead), and the
/// causal attention-score stage, one head (`(pos+1)·head_dim` FLOPs per
/// block, longest first). Every tier is prepared outside its timed
/// closure — `prepare` for the interpreter and the VM, one
/// `parallel_session` (prelude and safety proof) for the parallel tier —
/// so the columns time execution only. Parallel speedup needs real
/// cores, so it is printed, not checked.
pub fn tiers(r: &mut Run) {
    let lens = Dataset::Mnli.sample_lengths(r.size(16, 64), 42);
    let elems: usize = lens.iter().sum();
    let input: Vec<f32> = (0..elems).map(|x| x as f32 * 0.5 - 3.0).collect();
    let affine_in = vec![("A", input)];
    let (plain, mut fused) = (affine_op(&lens), affine_op(&lens));
    fused.schedule_mut().fuse_loops("o", "i").hoist_loads();
    let mut blocks = affine_op(&lens);
    let schedule = blocks.schedule_mut().bind("o", ForKind::GpuBlockX);
    schedule.thread_remap(RemapPolicy::LongestFirst);
    // One head of width `hd`: the packed QKV rows are 3·hd wide.
    let hd = r.size(16, 64);
    let cfg = EncoderConfig {
        hidden: hd,
        heads: 1,
        head_dim: hd,
        ff: hd,
        layers: 1,
    };
    let scores = stage(SCORES).expect("the table has a score stage");
    let scores = scores.operator(&Geometry::new(&cfg, &lens, Attend::Causal));
    let qkv: Vec<f32> = (0..elems * 3 * hd)
        .map(|x| (x as f32 * 0.37).sin())
        .collect();
    let qkv_in = vec![("QKV", qkv)];
    // Per kernel: calls per interpreter and per VM timing, and the worst
    // interp/VM speedup of the quick runs where that speedup is checked.
    let (few, many) = r.size((10, 200), (30, 1000));
    let kernels = [
        ("identity", plain, &affine_in, (few, many), Some(92.5)),
        ("fused_hoisted", fused, &affine_in, (few, many), Some(13.3)),
        ("affine", blocks, &affine_in, (few, r.size(40, 200)), None),
        ("masked_scores", scores, &qkv_in, (1, r.size(3, 10)), None),
    ];
    let threads = CpuPool::host().threads();
    println!("ns/element (parN: N threads), head_dim {hd}, {threads} host threads\n");
    let (mut rows, mut checks) = (Vec::new(), Vec::new());
    for (name, op, inputs, (interp_reps, reps), seen) in kernels {
        let p = lower(&op).expect("legal schedule");
        let c = p.compile();
        let n = c.output_size();
        let per_elem = |ms: f64| ms * 1e6 / n as f64;
        let (mut m, _) = p.prepare(inputs);
        let stmt = p.stmt().clone();
        let interp = per_elem(time_best_ms(interp_reps, || m.run(&stmt)));
        let (mut vm, _) = c.prepare(inputs);
        let serial = per_elem(time_best_ms(reps, || vm.run()));
        let mut row = vec![interp, serial, interp / serial];
        // The VM and, when the program outlines a block axis, the
        // parallel tier must reproduce the interpreter's output and
        // `InterpStats` bit for bit.
        let reference = p.run(inputs);
        let same = |x: RunResult| x.output == reference.output && x.stats == reference.stats;
        let mut agree = same(c.run(inputs));
        if let Some(mut session) = c.parallel_session().expect("the kernels verify") {
            let borrowed: Vec<(&str, &[f32])> = inputs.iter().map(|(k, v)| (*k, &v[..])).collect();
            let mut out = vec![0.0; n];
            for t in [1, 2, 4, 8] {
                let pool = CpuPool::new(t);
                agree &= same(session.run(&pool, inputs.to_vec()));
                let run = || {
                    session.run_into(&pool, &borrowed, &mut out);
                };
                row.push(per_elem(time_best_ms(reps, run)));
            }
        }
        checks.push((name, agree, interp / serial, seen));
        rows.push((format!("{name} ({n} elems, {} instrs)", c.vm().len()), row));
    }
    let mut headers = vec!["kernel", "interp", "VM", "interp/VM"];
    headers.extend(["par1", "par2", "par4", "par8"]);
    table(&headers, rows, f2);
    for (name, agree, speedup, seen) in checks {
        let verdict = if agree { "bit-identical" } else { "differ" };
        r.check(&format!("{name}: tiers vs interpreter"), agree, verdict);
        if let Some(seen) = seen {
            r.clock(&format!("{name}: interp/VM time"), speedup, 5.0, seen);
        }
    }
}

/// The MHA-on-CPU setup of Fig. 27 and Tables 5 and 9: random weights
/// for the base model scaled down 8x (quick) or 4x — the comparison's
/// shape follows the length distribution, not the model size — and the
/// seed a batch's lengths come from (its data from the next seed).
struct Mha {
    cfg: EncoderConfig,
    w: EncoderWeights,
    lens_seed: u64,
}

/// Calls per MHA timing, best taken: the first call on a new batch pays
/// its cold caches and page faults.
const MHA_REPS: usize = 2;

impl Mha {
    fn new(r: &Run, w_seed: u64, lens_seed: u64) -> Mha {
        let cfg = EncoderConfig::scaled(r.size(8, 4));
        let w = EncoderWeights::random(&cfg, w_seed);
        Mha { cfg, w, lens_seed }
    }

    /// A length-sorted batch.
    fn batch(&self, ds: Dataset, bs: usize) -> RaggedBatch {
        let lens = ds.sample_batch_sorted(bs, self.lens_seed);
        RaggedBatch::random(&lens, self.cfg.hidden, self.lens_seed + 1)
    }

    /// Best-of-[`MHA_REPS`] ms of the fully padded (TF) and the compiled
    /// ragged (CoRa) MHA and, with `eager`, of PT: the padded MHA plus the
    /// unfused elementwise passes eager execution makes. CoRa's code is
    /// built per model, so it compiles outside the timed call; each call
    /// prepares (prelude, proofs, arena) and runs, paying the per-batch
    /// prelude as in §7.4.
    fn time(&self, pool: &CpuPool, x: &RaggedBatch, eager: bool) -> (f64, f64, Option<f64>) {
        let (cfg, w, max_len) = (&self.cfg, &self.w, x.lens[0]);
        let layer = CompiledEncoderLayer::build_mha(cfg, &x.lens, Attend::Full)
            .expect("built-in schedules are legal");
        let padded = x.to_padded(max_len);
        let tf = || mha_padded(pool, cfg, w, &x.lens, max_len, &padded);
        let pt = || {
            let mut out = tf();
            scale(&mut out, 1.0);
            let copy = out.to_vec();
            residual_add(&mut out, &copy);
            scale(&mut out, 0.5);
        };
        let tf = time_best_ms(MHA_REPS, || drop(tf()));
        let cora = time_best_ms(MHA_REPS, || drop(layer.forward(pool, w, x)));
        (tf, cora, eager.then(|| time_best_ms(MHA_REPS, pt)))
    }
}

pub fn fig27(r: &mut Run) {
    let m = Mha::new(r, 42, 47);
    let x = m.batch(Dataset::Mnli, r.size(8, 16));
    let bs = x.lens.len();
    println!("MHA latency in ms vs thread count, MNLI @ batch {bs}\n");
    let (mut rows, mut tf_over_cora) = (Vec::new(), Vec::new());
    let host = CpuPool::host().threads();
    for t in (0..).map(|i| 1 << i).take_while(|&t| t <= host) {
        let (tf, cora, _) = m.time(&CpuPool::new(t), &x, false);
        tf_over_cora.push(tf / cora);
        rows.push((t, [tf, cora]));
    }
    table(&["threads", "TF(padded)", "CoRa"], rows, f2);
    let least = least(tf_over_cora);
    r.clock("least TF/CoRa over thread counts", least, 1.0, 1.09);

    // Executor overhead on small ops: many short parallel regions, the
    // shape of an encoder forward pass (one region per operator), each
    // waking the runtime's parked workers. Printed, not checked.
    let (calls, n_small) = (r.size(200, 2000), 64);
    println!("\nexecutor overhead, {calls} parallel_for calls over {n_small} tiny iterations\n");
    let pool = CpuPool::host();
    let data: Vec<f32> = (0..n_small).map(|i| i as f32).collect();
    let total_ms = time_best_ms(r.size(1, 2), || {
        for _ in 0..calls {
            pool.parallel_for(n_small, |i| {
                black_box(data[i] * 2.0);
            });
        }
    });
    table(
        &["executor", "µs/call"],
        [("runtime", [total_ms * 1e3 / calls as f64])],
        f2,
    );
}

/// Tables 5 and 9: per dataset × batch, TF, TF-UB (best micro-batch
/// size) and CoRa, with `eager` preceded by Table 9's PT and PT-UB.
/// Returns the geomean speedups of CoRa over TF and over TF-UB.
fn mha_table(r: &Run, m: &Mha, pool: &CpuPool, eager: bool) -> (f64, f64) {
    // Quick keeps every dataset at one batch size: a geomean over two
    // datasets at batches 4 and 8 swung 1.33-1.83 between runs, too wide
    // for a bound with 1.3x headroom.
    let batches = r.size(vec![16usize], vec![8, 16, 32]);
    let (threads, hidden) = (pool.threads(), m.cfg.hidden);
    println!("MHA latency in ms ({threads} threads, hidden {hidden})\n");
    let (mut rows, mut over_tf, mut over_ub) = (Vec::new(), Vec::new(), Vec::new());
    for ds in &ALL_DATASETS {
        for &bs in &batches {
            let x = m.batch(*ds, bs);
            let (tf, cora, pt) = m.time(pool, &x, eager);
            let (ub, micro) = search_micro_batch(pool, &m.cfg, &m.w, &x, MHA_REPS);
            let mut row = vec![ds.name().to_string(), bs.to_string()];
            if let Some(pt) = pt {
                // Eager overhead is padding-independent per row.
                row.extend([f2(pt), format!("{} /{micro}", f2(ub + (pt - tf).max(0.0)))]);
            }
            row.extend([f2(tf), format!("{} /{micro}", f2(ub)), f2(cora)]);
            rows.push(row);
            over_tf.push(tf / cora);
            over_ub.push(ub / cora);
        }
    }
    let pt: &[&str] = if eager { &["PT", "PT-UB /uBS"] } else { &[] };
    let headers = [&["dataset", "batch"][..], pt, &["TF", "TF-UB /uBS", "CoRa"]];
    print_table(&headers.concat(), &rows);
    (geomean(over_tf), geomean(over_ub))
}

pub fn tab05(r: &mut Run) {
    let m = Mha::new(r, 42, 47);
    let (tf, ub) = mha_table(r, &m, &CpuPool::host(), false);
    r.clock("geomean TF/CoRa", tf, 1.2, 1.45);
    let here = format!("TF-UB/CoRa {ub:.2}");
    r.note("CoRa 1.37x faster than TF-UB in geomean", ub >= 1.37, here);
}

pub fn tab09(r: &mut Run) {
    let m = Mha::new(r, 1, 5);
    // An 8-core pool and the whole machine, once each when they coincide.
    let host = CpuPool::host().threads();
    let mut widths = vec![8.min(host), host];
    widths.dedup();
    for t in widths {
        let (tf, _) = mha_table(r, &m, &CpuPool::new(t), true);
        r.clock(&format!("{t} threads: geomean TF/CoRa"), tf, 1.2, 1.38);
        println!();
    }
}

/// Table 6's trmm ([`trmm_op`]) reordered `i, k, j` to stream rows of
/// `B` and `C`.
fn trmm_rows(n: usize) -> Operator {
    let mut op = trmm_op(n);
    op.schedule_mut().reorder(&["i", "k", "j"]);
    op
}

/// `c = op(a, b)` elementwise over CoRa's packed triangles: they share
/// one raggedness pattern (insight I1), so tradd and trmul are one
/// contiguous loop where Taco merges two coordinate streams. Written by
/// hand: the compiled map row is 3-9x slower than this loop (ROADMAP
/// item 8).
fn packed_elementwise(c: &mut [f32], a: &[f32], b: &[f32], op: impl Fn(f32, f32) -> f32) {
    for ((cv, av), bv) in c.iter_mut().zip(a).zip(b) {
        *cv = op(*av, *bv);
    }
}

/// Table 6, serial on the CPU for a like-for-like comparison, up to size
/// 2048 (the paper's 8192 trmm is ~0.3 TFLOP of scalar work). CoRa's
/// trmm is the compiled operator on the serial VM, prepared outside the
/// timed calls; its tradd and trmul are the hand-written packed loop.
/// BCSR tradd is absent, as in the paper (Taco's union iteration over
/// BCSR could not be scheduled).
pub fn tab06(r: &mut Run) {
    println!("triangular ops, best of 3 ms (slowdown vs CoRa): CoRa vs Taco-style CSR/BCSR");
    println!("CoRa: trmm compiled (serial VM); tradd, trmul the hand-written packed loop\n");
    let sizes = r.size(vec![128usize, 512], vec![128, 512, 1024, 2048]);
    let (mut rows, mut csr_ew, mut bcsr_mul, mut trmm) = (vec![], vec![], vec![], vec![]);
    for &n in &sizes {
        // A lower triangle of small integers; `seed` varies the values.
        let tri = |seed| {
            let value = |x| ((x / n * 7 + x % n * 13 + seed) % 17) as f32 - 8.0;
            (0..n * n)
                .map(|x| if x % n <= x / n { value(x) } else { 0.0 })
                .collect::<Vec<_>>()
        };
        let (ad, bd) = (tri(1), tri(2));
        let csr = |d: &[f32]| CsrMatrix::from_dense(n, n, d);
        let bcsr = |d: &[f32]| BcsrMatrix::from_dense(n, n, 32, d);
        let (a_csr, b_csr, a_bcsr, b_bcsr) = (csr(&ad), csr(&bd), bcsr(&ad), bcsr(&bd));
        let dense_b: Vec<f32> = (0..n * n).map(|i| ((i % 9) as f32) - 4.0).collect();
        // CoRa's ragged row storage of a lower triangle.
        let pack = |d: &[f32]| (0..n).flat_map(|i| d[i * n..=i * n + i].to_vec()).collect();
        let (ap, bp): (&Vec<f32>, &Vec<f32>) = (&pack(&ad), &pack(&bd));
        let trmm_in = [("L", ap.clone()), ("B", dense_b.clone())];
        let (mut vm, _) = lower(&trmm_rows(n))
            .expect("legal schedule")
            .compile()
            .prepare(&trmm_in);
        let mut c = vec![0.0f32; n * n];
        let mut time = |f: &dyn Fn(&mut [f32])| time_best_ms(3, || f(&mut c));
        let cora = [
            time_best_ms(3, || vm.run()),
            time(&|c| packed_elementwise(c, ap, bp, |a, b| a + b)),
            time(&|c| packed_elementwise(c, ap, bp, |a, b| a * b)),
        ];
        let csr = [
            time(&|c| trmm_csr(&a_csr, &dense_b, c)),
            time(&|c| tradd_csr(&a_csr, &b_csr, c)),
            time(&|c| trmul_csr(&a_csr, &b_csr, c)),
        ];
        let bcsr_mm = time(&|c| trmm_bcsr(&a_bcsr, &dense_b, c));
        let bcsr_mul_ms = time(&|c| trmul_bcsr(&a_bcsr, &b_bcsr, c));
        let bcsr = [Some(bcsr_mm), None, Some(bcsr_mul_ms)];
        for (i, op) in ["trmm", "tradd", "trmul"].into_iter().enumerate() {
            let slow = |t: f64| format!("{} ({:.2}x)", f3(t), t / cora[i]);
            let hand = if i == 0 { "" } else { " hand loop" };
            let cora_cell = format!("{}{hand}", f3(cora[i]));
            let cells = [cora_cell, slow(csr[i]), bcsr[i].map_or("-".into(), slow)];
            rows.push([vec![op.into(), n.to_string()], cells.into()].concat());
        }
        csr_ew.extend([csr[1] / cora[1], csr[2] / cora[2]]);
        bcsr_mul.push(bcsr_mul_ms / cora[2]);
        trmm.push([n as f64, csr[0] / cora[0], bcsr_mm / cora[0]]);
    }
    print_table(&["op", "size", "CoRa", "Taco-CSR", "Taco-BCSR"], &rows);
    r.clock("least CSR/CoRa tradd, trmul time", least(csr_ew), 2.0, 5.64);
    r.clock("geomean BCSR/CoRa trmul time", geomean(bcsr_mul), 1.2, 2.31);
    // Both trmm loop nests vectorise alike on a CPU, so the paper's GPU
    // gap (1.33x-95x) need not carry over to trmm.
    let held = trmm.iter().all(|t| t[1] >= 1.0 && t[2] >= 1.0);
    let here = trmm
        .iter()
        .map(|[n, csr, bcsr]| format!("{n}: {csr:.2}, {bcsr:.2}"));
    let here = format!("Taco CSR, BCSR / CoRa trmm time by size: {}", joined(here));
    r.note("Taco never beats CoRa, trmm included", held, here);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tab06 trmm operator, compiled, is bit-identical to a dense
    /// `sgemm` over the expanded triangle, the empty triangle included.
    #[test]
    fn compiled_trmm_matches_dense_sgemm() {
        for n in [0usize, 1, 2, 24, 33] {
            let packed: Vec<f32> = (0..n * (n + 1) / 2).map(|x| (x % 7) as f32 - 3.5).collect();
            let b: Vec<f32> = (0..n * n).map(|x| (x % 5) as f32 * 0.75 - 1.5).collect();
            let mut dense = vec![0.0f32; n * n];
            let rows = (0..n).map(|i| i * n..=i * n + i);
            for (row, v) in rows.flatten().zip(&packed) {
                dense[row] = *v;
            }
            let mut want = vec![0.0f32; n * n];
            cora_kernels::sgemm(n, n, n, &dense, &b, &mut want);
            let program = lower(&trmm_rows(n)).expect("legal schedule");
            let got = program.compile().run(&[("L", packed), ("B", b)]).output;
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "n = {n}");
        }
    }
}
