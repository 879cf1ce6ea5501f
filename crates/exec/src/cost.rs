//! The analytic cost model behind the simulated devices.
//!
//! The paper's GPU results are driven by four quantities: how many FLOPs a
//! kernel actually performs (padding inflates this), how evenly work is
//! spread over streaming multiprocessors (thread remapping changes this),
//! how many kernels are launched (fusion changes this), and how much
//! auxiliary data is copied to the device (prelude overhead). The model
//! prices exactly these quantities. Constants are calibrated loosely to a
//! V100 (§7's hardware) — absolute values are irrelevant to the
//! experiments, which compare implementations under the *same* model.

/// Multiplicative efficiency/overhead factors for a kernel's inner loops.
#[derive(Debug, Clone, Copy)]
pub struct KernelTraits {
    /// Fraction of peak FLOP throughput the kernel's inner tiles reach.
    /// Vendor-library kernels (cuBLAS/MKL stand-ins) are the best tuned;
    /// compiler-generated dense code is close; ragged inner loops lose a
    /// little more to shorter vector bodies.
    pub efficiency: f64,
    /// Extra cost factor for a bound check executed per element of the
    /// main body (elided by operation splitting / padding).
    pub guard_factor: f64,
    /// Extra cost factor for un-hoisted indirect (auxiliary array)
    /// accesses per element.
    pub indirect_factor: f64,
}

impl KernelTraits {
    /// A vendor-library dense kernel: top efficiency, no guards, no
    /// indirect accesses.
    pub fn vendor() -> Self {
        KernelTraits {
            efficiency: 1.0,
            guard_factor: 1.0,
            indirect_factor: 1.0,
        }
    }

    /// Compiler-generated dense code (the gap §7.1 observes: CoRa reaches
    /// "better than 73%" of MKL and "within 81.3%" of cuBLAS).
    pub fn generated() -> Self {
        KernelTraits {
            efficiency: 0.85,
            guard_factor: 1.0,
            indirect_factor: 1.0,
        }
    }

    /// Adds per-element guard cost (un-split vloop tails, masking).
    pub fn with_guards(mut self) -> Self {
        self.guard_factor = 1.25;
        self
    }

    /// Adds un-hoisted indirect access cost (fused-vloop offset chains,
    /// §D.7's QKT case).
    pub fn with_indirect(mut self) -> Self {
        self.indirect_factor = 1.35;
        self
    }

    /// Adds *hoisted* indirect access cost — most of the penalty
    /// recovered, a small residue remains.
    pub fn with_hoisted_indirect(mut self) -> Self {
        self.indirect_factor = 1.04;
        self
    }

    /// Marks a scalar inner loop: no panel microkernels reachable, so
    /// the tile loses most of its throughput (the compiled tier's
    /// measured scalar-vs-panel gap).
    pub fn with_scalar_inner(mut self) -> Self {
        self.efficiency *= 0.35;
        self
    }

    /// Effective seconds-per-FLOP multiplier.
    pub fn cost_multiplier(&self) -> f64 {
        self.guard_factor * self.indirect_factor / self.efficiency
    }
}

/// Device-level constants for the simulated GPU.
#[derive(Debug, Clone, Copy)]
pub struct GpuModel {
    /// Number of streaming multiprocessors (V100: 80).
    pub sm_count: usize,
    /// Peak FLOPs per SM per microsecond (V100 ≈ 15.7 TFLOP/s / 80 SMs).
    pub flops_per_sm_per_us: f64,
    /// Fixed cost of one kernel launch, microseconds.
    pub kernel_launch_us: f64,
    /// Host-to-device copy bandwidth, bytes per microsecond (PCIe 3 x16).
    pub h2d_bytes_per_us: f64,
    /// Fixed cost of one host-to-device copy call, microseconds.
    pub h2d_latency_us: f64,
    /// Smallest time a block can take (scheduling granularity floor), us.
    pub min_block_us: f64,
}

impl Default for GpuModel {
    fn default() -> Self {
        GpuModel {
            sm_count: 80,
            flops_per_sm_per_us: 196_000.0, // ~15.7 TFLOP/s across 80 SMs
            kernel_launch_us: 5.0,
            h2d_bytes_per_us: 12_000.0, // ~12 GB/s effective
            h2d_latency_us: 8.0,
            min_block_us: 0.2,
        }
    }
}

impl GpuModel {
    /// Time for one thread block executing `flops` with `traits`.
    pub fn block_time_us(&self, flops: f64, traits: KernelTraits) -> f64 {
        (flops * traits.cost_multiplier() / self.flops_per_sm_per_us).max(self.min_block_us)
    }

    /// Time to copy `bytes` host-to-device.
    pub fn copy_time_us(&self, bytes: usize) -> f64 {
        self.h2d_latency_us + bytes as f64 / self.h2d_bytes_per_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traits_order_as_expected() {
        let v = KernelTraits::vendor().cost_multiplier();
        let g = KernelTraits::generated().cost_multiplier();
        let gg = KernelTraits::generated().with_guards().cost_multiplier();
        let gi = KernelTraits::generated().with_indirect().cost_multiplier();
        let gh = KernelTraits::generated()
            .with_hoisted_indirect()
            .cost_multiplier();
        assert!(v < g && g < gg && g < gi);
        assert!(gh < gi, "hoisting must recover most of the penalty");
    }

    #[test]
    fn block_time_has_floor() {
        let m = GpuModel::default();
        assert_eq!(m.block_time_us(0.0, KernelTraits::vendor()), m.min_block_us);
        assert!(m.block_time_us(1e9, KernelTraits::vendor()) > 1000.0);
    }

    #[test]
    fn scalar_inner_is_a_heavy_penalty() {
        let base = KernelTraits::generated().cost_multiplier();
        let scalar = KernelTraits::generated()
            .with_scalar_inner()
            .cost_multiplier();
        assert!(scalar > 2.0 * base);
    }

    #[test]
    fn copy_time_scales_with_bytes() {
        let m = GpuModel::default();
        let t1 = m.copy_time_us(1_000);
        let t2 = m.copy_time_us(10_000_000);
        assert!(t2 > t1);
        assert!(t1 >= m.h2d_latency_us);
    }
}
