//! Figs. 9 and 10: variable-sized batched gemm and triangular matmul.

use std::sync::Mutex;

use cora_bench::f2;
use cora_exec::cost::{GpuModel, KernelTraits};
use cora_exec::gpu::{GpuSim, SimKernel};
use cora_exec::CpuPool;
use cora_kernels::sgemm;
use cora_kernels::vendor::{batched_gemm_kernel, gemm_kernel, vgemm_kernel, GemmTiling};
use cora_transformer::mha::time_best_ms;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{geomean, least, most, table, Run};

type Shape = (usize, usize, usize);

/// Samples vgemm problem shapes the way §7.1 does: dimensions are
/// uniformly random multiples of 128 in `[512, 1408]`.
fn vgemm_shapes(batch: usize, seed: u64) -> Vec<Shape> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut dim = move || 128 * rng.gen_range(4..=11usize);
    (0..batch).map(|_| (dim(), dim(), dim())).collect()
}

/// The shape every problem is padded to.
fn max_shape(shapes: &[Shape]) -> Shape {
    let max = |f: fn(&Shape) -> usize| shapes.iter().map(f).max().unwrap_or(0);
    (max(|s| s.0), max(|s| s.1), max(|s| s.2))
}

fn sim_ms(model: &GpuModel, kernel: SimKernel) -> f64 {
    GpuSim::with_model(*model).run(&[kernel], 0).total_ms()
}

pub fn fig09(r: &mut Run) {
    fig09_sim(r);
    fig09_cpu(r);
}

/// Fig. 9 on the simulated GPU: hand-optimized ragged vgemm (Li et al. /
/// MKL), CoRa's generated ragged vgemm, fully padded batched gemm.
pub fn fig09_sim(r: &mut Run) {
    println!("speedup over Ragged-HandOptimized (simulated GPU)\n");
    let (model, tiling) = (GpuModel::default(), GemmTiling::default());
    let (vendor, generated) = (KernelTraits::vendor(), KernelTraits::generated());
    let (mut rows, mut hand_over_cora, mut cora_over_padded) = (vec![], vec![], vec![]);
    for bs in [2usize, 4, 8, 16, 32, 64, 128, 256, 512] {
        let shapes = vgemm_shapes(bs, 7);
        let (m, k, n) = max_shape(&shapes);
        let vgemm = |name, traits| vgemm_kernel(name, &model, traits, tiling, &shapes);
        let [hand, cora, padded] = [
            vgemm("vgemm_hand", vendor),
            vgemm("vgemm_cora", generated).remap_longest_first(),
            batched_gemm_kernel("padded", &model, vendor, tiling, bs, m, k, n),
        ]
        .map(|kernel| sim_ms(&model, kernel));
        hand_over_cora.push(hand / cora);
        cora_over_padded.push(cora / padded);
        rows.push((bs, [1.0, hand / cora, hand / padded]));
    }
    let headers = ["batch", "Ragged-HandOpt", "Ragged-CoRa", "FullyPadded"];
    table(&headers, rows, f2);
    let (worst, best) = (least(hand_over_cora.clone()), most(hand_over_cora));
    r.cmp("largest hand/CoRa time", best, "≤", 1.0);
    r.cmp("least hand/CoRa time", worst, "≥", 0.73);
    r.cmp("largest CoRa/padded time", most(cora_over_padded), "<", 1.0);
}

/// Fig. 9 on the CPU: real execution of one `sgemm` per problem (the
/// ragged implementations share these microkernels), dimensions / 4.
fn fig09_cpu(r: &mut Run) {
    println!("\nspeedup over Ragged-HandOptimized (real CPU execution, dims / 4)\n");
    let pool = CpuPool::host();
    let (mut rows, mut padded_over_ragged) = (Vec::new(), Vec::new());
    let quarter = |(m, k, n): Shape| (m / 4, k / 4, n / 4);
    for bs in r.size(vec![2usize, 4, 8, 16], vec![2, 4, 8, 16, 32, 64]) {
        let shapes: Vec<Shape> = vgemm_shapes(bs, 7).into_iter().map(quarter).collect();
        let ragged = time_gemms(&pool, &shapes);
        let padded = time_gemms(&pool, &vec![max_shape(&shapes); bs]);
        if bs >= 8 {
            padded_over_ragged.push(padded / ragged);
        }
        rows.push((bs, [1.0, ragged / padded]));
    }
    table(&["batch", "Ragged-HandOpt", "FullyPadded"], rows, f2);
    let padded = geomean(padded_over_ragged);
    r.clock("geomean padded/ragged time, batch ≥ 8", padded, 1.5, 2.58);
}

/// Best-of-2 wall-clock ms of one `sgemm` per shape, spread over `pool`.
fn time_gemms(pool: &CpuPool, shapes: &[Shape]) -> f64 {
    let buffers = |&(m, k, n): &Shape| (vec![1.0; m * k], vec![0.5; k * n], vec![0.0; m * n]);
    let bufs: Vec<_> = shapes.iter().map(buffers).map(Mutex::new).collect();
    time_best_ms(2, || {
        pool.parallel_for(shapes.len(), |i| {
            let mut problem = bufs[i].lock().expect("each problem has one writer");
            let ((m, k, n), (a, b, c)) = (shapes[i], &mut *problem);
            sgemm(m, k, n, a, b, c);
        })
    })
}

/// Fig. 10's implementations, in column order.
const TRMM: [&str; 5] = [
    "CuBLAS sgemm",
    "CoRa-UnSplit-Unbalanced",
    "CoRa-Split-Unbalanced",
    "CoRa-Split-Balanced",
    "CuBLAS trmm",
];

const TRMM_TILE: usize = 64;

/// Simulated latency (ms) of each of [`TRMM`] for an `n×n`
/// lower-triangular times dense matrix.
fn trmm_latencies_ms(model: &GpuModel, n: usize) -> [f64; 5] {
    let tiles = n.div_ceil(TRMM_TILE);
    // The reduction depth of the row block ending at row `r` is `r` —
    // the raggedness that makes later blocks heavier and the natural
    // dispatch order unbalanced.
    let kernel = |name: &str, traits| {
        let mut blocks = Vec::new();
        for bi in 0..tiles {
            let rows = (n - bi * TRMM_TILE).min(TRMM_TILE);
            let depth = (bi * TRMM_TILE + rows) as f64;
            for bj in 0..tiles {
                let cols = (n - bj * TRMM_TILE).min(TRMM_TILE);
                blocks.push(model.block_time_us(2.0 * rows as f64 * depth * cols as f64, traits));
            }
        }
        SimKernel::new(name, blocks)
    };
    let (vendor, generated) = (KernelTraits::vendor(), KernelTraits::generated());
    // Hand-optimized trmm: exact triangular work, vendor-grade inner
    // loops slightly below sgemm's peak (trmm kernels are less tuned),
    // heaviest blocks first.
    let cublas = KernelTraits {
        efficiency: 0.92,
        ..vendor
    };
    [
        gemm_kernel("sgemm", model, vendor, GemmTiling::default(), n, n, n),
        // Unsplit, the tiled reduction vloop keeps a bound check in the
        // main body (§7.1); splitting elides it.
        kernel("cora_trmm", generated.with_guards()),
        kernel("cora_trmm", generated),
        kernel("cora_trmm", generated).remap_longest_first(),
        kernel("cublas_trmm", cublas).remap_longest_first(),
    ]
    .map(|k| sim_ms(model, k))
}

pub fn fig10(r: &mut Run) {
    println!("trmm speedup over cuBLAS sgemm (simulated GPU)\n");
    let model = GpuModel::default();
    let sizes = [512usize, 1024, 2048, 4096, 8192];
    let ms = sizes.map(|n| trmm_latencies_ms(&model, n));
    let speedup = ms.map(|t| t.map(|x| t[0] / x));
    table(
        &[&["size"][..], &TRMM].concat(),
        sizes.iter().zip(speedup),
        f2,
    );
    let trmms = |s: &[[f64; 5]]| s.iter().flat_map(|t| t[1..].to_vec()).collect::<Vec<_>>();
    let (small, large) = (most(trmms(&speedup[..1])), least(trmms(&speedup[1..])));
    r.cmp("size 512: largest trmm speedup", small, "<", 1.0);
    r.cmp("size ≥ 1024: least trmm speedup", large, ">", 1.0);
    r.cmp("size 8192: cuBLAS trmm speedup", speedup[4][4], ">", 1.5);
    let slowdown = |a: usize, b: usize| least(ms.map(|t| t[a] / t[b]));
    r.cmp("least UnSplit/Split time", slowdown(1, 2), ">", 1.0);
    r.cmp("least Unbalanced/Balanced time", slowdown(2, 3), "≥", 1.0);
    r.cmp("least trmm/Split-Balanced time", slowdown(4, 3), "≥", 0.81);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vgemm_shapes_are_multiples_in_range() {
        for (m, k, n) in vgemm_shapes(64, 1) {
            for d in [m, k, n] {
                assert_eq!(d % 128, 0);
                assert!((512..=1408).contains(&d));
            }
        }
    }
}
