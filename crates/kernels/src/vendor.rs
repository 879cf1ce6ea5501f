//! The vendor-library model: how cuBLAS/MKL-style kernels appear to the
//! simulated GPU.
//!
//! A vendor kernel computes on *fully padded* rectangular operands at top
//! efficiency. This module turns dense operator shapes into
//! [`SimKernel`]s (per-block cost lists) using the shared cost model, so
//! baselines and CoRa-generated kernels are priced by the same machine.
//! The defining trade-off is preserved: vendor kernels are the fastest per
//! FLOP but must execute every padding FLOP.

use cora_exec::cost::{GpuModel, KernelTraits};
use cora_exec::gpu::SimKernel;

use crate::gemm::gemm_flops;

/// Tile sizes used when carving dense gemms into thread blocks.
#[derive(Debug, Clone, Copy)]
pub struct GemmTiling {
    /// Output tile rows per block.
    pub tile_m: usize,
    /// Output tile columns per block.
    pub tile_n: usize,
}

impl Default for GemmTiling {
    fn default() -> Self {
        GemmTiling {
            tile_m: 64,
            tile_n: 64,
        }
    }
}

/// Builds the block-cost list of a dense `m×k×n` gemm.
pub fn gemm_kernel(
    name: &str,
    model: &GpuModel,
    traits: KernelTraits,
    tiling: GemmTiling,
    m: usize,
    k: usize,
    n: usize,
) -> SimKernel {
    let mut blocks = Vec::new();
    let bm = m.div_ceil(tiling.tile_m).max(1);
    let bn = n.div_ceil(tiling.tile_n).max(1);
    for bi in 0..bm {
        let rows = (m - bi * tiling.tile_m).min(tiling.tile_m);
        for bj in 0..bn {
            let cols = (n - bj * tiling.tile_n).min(tiling.tile_n);
            let flops = gemm_flops(rows, k, cols);
            blocks.push(model.block_time_us(flops, traits));
        }
    }
    SimKernel::new(name, blocks)
}

/// Builds the block list of a batched gemm with *per-problem* shapes —
/// the hand-optimised vgemm baselines (Li et al., 2019; MKL's vgemm),
/// which skip padding FLOPs but still run at vendor efficiency. With
/// every shape padded to the largest it is cuBLAS's batched gemm (Fig.
/// 9's fully padded baseline).
pub fn vgemm_kernel(
    name: &str,
    model: &GpuModel,
    traits: KernelTraits,
    tiling: GemmTiling,
    shapes: &[(usize, usize, usize)],
) -> SimKernel {
    let mut blocks = Vec::new();
    for &(m, k, n) in shapes {
        blocks.extend(gemm_kernel("t", model, traits, tiling, m, k, n).block_costs_us);
    }
    SimKernel::new(name, blocks)
}

/// Builds the block list of an elementwise kernel over `elems` elements
/// with `ops_per_elem` FLOPs each, `elems_per_block` per thread block.
pub fn elementwise_kernel(
    name: &str,
    model: &GpuModel,
    traits: KernelTraits,
    elems: usize,
    ops_per_elem: f64,
    elems_per_block: usize,
) -> SimKernel {
    let nblocks = elems.div_ceil(elems_per_block).max(1);
    let mut blocks = Vec::with_capacity(nblocks);
    for b in 0..nblocks {
        let e = (elems - b * elems_per_block).min(elems_per_block);
        blocks.push(model.block_time_us(e as f64 * ops_per_elem, traits));
    }
    SimKernel::new(name, blocks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cora_exec::gpu::GpuSim;

    #[test]
    fn gemm_blocks_cover_whole_output() {
        let model = GpuModel::default();
        let k = gemm_kernel(
            "g",
            &model,
            KernelTraits::vendor(),
            GemmTiling::default(),
            130,
            64,
            70,
        );
        // ceil(130/64) * ceil(70/64) = 3 * 2.
        assert_eq!(k.block_costs_us.len(), 6);
    }

    #[test]
    fn padded_batch_costs_more_than_vgemm() {
        let model = GpuModel::default();
        let shapes: Vec<(usize, usize, usize)> = (0..8).map(|i| (128 + 64 * i, 512, 512)).collect();
        let max_m = shapes.iter().map(|s| s.0).max().unwrap();
        let padded = vgemm_kernel(
            "pad",
            &model,
            KernelTraits::vendor(),
            GemmTiling::default(),
            &vec![(max_m, 512, 512); shapes.len()],
        );
        let ragged = vgemm_kernel(
            "vg",
            &model,
            KernelTraits::vendor(),
            GemmTiling::default(),
            &shapes,
        );
        let sim = GpuSim::new();
        let tp = sim.run_kernel(&padded).makespan_us;
        let tr = sim.run_kernel(&ragged).makespan_us;
        assert!(tr < tp, "ragged {tr} must beat padded {tp}");
    }

    #[test]
    fn elementwise_block_count() {
        let model = GpuModel::default();
        let k = elementwise_kernel("e", &model, KernelTraits::vendor(), 1000, 1.0, 256);
        assert_eq!(k.block_costs_us.len(), 4);
    }
}
