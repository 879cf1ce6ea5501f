//! Prelude generation: planning and building the auxiliary structures a
//! compiled kernel needs (§2 step 7, §5.1, §5.3).
//!
//! A [`PreludeSpec`] records *what* a program needs (tensor offset arrays,
//! vloop extent tables, fused-loop maps); [`PreludeSpec::build`] runs on
//! the host and produces the concrete arrays, timing each category
//! separately — the §7.4 overhead table reports exactly these times and
//! byte counts.

use std::sync::Arc;
use std::time::Duration;

use cora_ragged::aux::{AuxOffsets, FusedLoopMaps};
use cora_ragged::{LengthFn, RaggedLayout};

use crate::api::{aux_buffer_name, lens_buffer_name};

/// A planned vloop fusion: the data needed to build its maps.
#[derive(Debug, Clone)]
pub struct FusionSpec {
    name: String,
    outer_extent: usize,
    lens: LengthFn,
    /// Extra iterations appended by bulk padding (a virtual sequence).
    bulk_rows: Vec<usize>,
}

impl FusionSpec {
    /// Creates a fusion of an outer loop of `outer_extent` iterations with
    /// an inner vloop whose (loop-padded) extents are `lens`.
    pub fn new(name: impl Into<String>, outer_extent: usize, lens: LengthFn) -> FusionSpec {
        FusionSpec {
            name: name.into(),
            outer_extent,
            lens,
            bulk_rows: Vec::new(),
        }
    }

    /// The fused loop's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The outer loop's trip count at fusion time.
    pub fn outer_extent(&self) -> usize {
        self.outer_extent
    }

    /// Pads the fused extent to a multiple of `multiple` by appending a
    /// virtual padding sequence (§7.2's bulk padding). The caller must
    /// have allocated storage covering the padding, per §6's contract.
    pub fn bulk_pad(&mut self, multiple: usize) {
        assert!(multiple > 0, "bulk padding multiple must be positive");
        let total = self.fused_extent();
        let padded = total.div_ceil(multiple) * multiple;
        if padded > total {
            self.bulk_rows.push(padded - total);
        }
    }

    /// Total fused extent including bulk padding.
    pub fn fused_extent(&self) -> usize {
        self.lens.total() + self.bulk_rows.iter().sum::<usize>()
    }

    /// The per-row lengths including virtual bulk-padding rows.
    pub fn effective_lens(&self) -> Vec<usize> {
        let mut lens = self.lens.as_slice().to_vec();
        lens.extend(self.bulk_rows.iter().copied());
        lens
    }

    /// Builds the runtime maps.
    pub fn build_maps(&self) -> FusedLoopMaps {
        FusedLoopMaps::build(&self.effective_lens())
    }
}

/// Everything a program's prelude must materialise.
#[derive(Debug, Clone, Default)]
pub struct PreludeSpec {
    tensors: Vec<(String, Arc<RaggedLayout>)>,
    loop_tables: Vec<(String, LengthFn)>,
    fusions: Vec<FusionSpec>,
}

/// The concrete arrays produced by running a prelude, with per-category
/// cost accounting.
#[derive(Debug, Clone, Default)]
pub struct PreludeData {
    /// Integer buffers to install (aux offset arrays, length tables,
    /// fusion maps). Shared handles: every consumer of one built prelude
    /// (host evaluation, the safety proof, each minted session) binds
    /// the same tables without copying them.
    pub int_buffers: Vec<(String, Arc<[i64]>)>,
    /// Scalar parameters to bind (fused extents).
    pub params: Vec<(String, i64)>,
    /// Time spent building storage offset arrays.
    pub storage_time: Duration,
    /// Time spent building loop-fusion maps.
    pub fusion_time: Duration,
    /// Bytes of storage-related auxiliary data.
    pub storage_bytes: usize,
    /// Bytes of fusion-related auxiliary data.
    pub fusion_bytes: usize,
}

impl PreludeData {
    /// Total auxiliary bytes (what a GPU run must copy host-to-device).
    pub fn total_bytes(&self) -> usize {
        self.storage_bytes + self.fusion_bytes
    }
}

impl PreludeSpec {
    /// Creates an empty spec.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a tensor whose offset arrays and length tables the
    /// kernel reads. Duplicate names are kept once.
    pub fn add_tensor(&mut self, name: &str, layout: Arc<RaggedLayout>) {
        if !self.tensors.iter().any(|(n, _)| n == name) {
            self.tensors.push((name.to_string(), layout));
        }
    }

    /// Registers a vloop extent table.
    pub fn add_loop_table(&mut self, buffer: &str, lens: LengthFn) {
        if !self.loop_tables.iter().any(|(n, _)| n == buffer) {
            self.loop_tables.push((buffer.to_string(), lens));
        }
    }

    /// Registers a fusion.
    pub fn add_fusion(&mut self, spec: FusionSpec) {
        self.fusions.push(spec);
    }

    /// The registered fusions.
    pub fn fusions(&self) -> &[FusionSpec] {
        &self.fusions
    }

    /// The registered tensors.
    pub fn tensors(&self) -> &[(String, Arc<RaggedLayout>)] {
        &self.tensors
    }

    /// Builds all auxiliary structures, timing storage and fusion work
    /// separately (the split the §7.4 table reports).
    pub fn build(&self) -> PreludeData {
        let mut data = PreludeData::default();
        let t0 = std::time::Instant::now();
        for (name, layout) in &self.tensors {
            let aux = AuxOffsets::build(layout);
            for d in 0..layout.ndim() {
                if let Some(a) = aux.array(d) {
                    data.storage_bytes += a.len() * 8;
                    data.int_buffers.push((aux_buffer_name(name, d), a.into()));
                }
                if let Some(lens) = layout.padded_lens(d) {
                    let v: Arc<[i64]> = lens.as_slice().iter().map(|&x| x as i64).collect();
                    data.storage_bytes += v.len() * 8;
                    data.int_buffers.push((lens_buffer_name(name, d), v));
                }
            }
        }
        for (buffer, lens) in &self.loop_tables {
            let v: Arc<[i64]> = lens.as_slice().iter().map(|&x| x as i64).collect();
            data.storage_bytes += v.len() * 8;
            data.int_buffers.push((buffer.clone(), v));
        }
        data.storage_time = t0.elapsed();

        let t1 = std::time::Instant::now();
        for f in &self.fusions {
            let maps = f.build_maps();
            data.fusion_bytes += maps.memory_bytes();
            data.params
                .push((format!("F_{}", f.name()), maps.fused_extent));
            data.int_buffers
                .push((format!("{}__ffo", f.name()), maps.ffo.into()));
            data.int_buffers
                .push((format!("{}__ffi", f.name()), maps.ffi.into()));
            data.int_buffers
                .push((format!("{}__foif_row", f.name()), maps.foif_row.into()));
        }
        data.fusion_time = t1.elapsed();
        data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cora_ragged::Dim;

    fn layout(lens: &[usize]) -> RaggedLayout {
        let b = Dim::new("b");
        let l = Dim::new("l");
        RaggedLayout::builder()
            .cdim(b.clone(), lens.len())
            .vdim(l, &b, lens.to_vec())
            .build()
            .unwrap()
    }

    #[test]
    fn fusion_bulk_padding_extends_extent() {
        let mut f = FusionSpec::new("o_i_f", 3, LengthFn::new(vec![5, 2, 3]));
        assert_eq!(f.fused_extent(), 10);
        f.bulk_pad(8);
        assert_eq!(f.fused_extent(), 16);
        assert_eq!(f.effective_lens(), vec![5, 2, 3, 6]);
        // Already-aligned extents gain nothing.
        let mut g = FusionSpec::new("g", 1, LengthFn::new(vec![8]));
        g.bulk_pad(8);
        assert_eq!(g.fused_extent(), 8);
    }

    #[test]
    fn build_produces_buffers_and_params() {
        let mut spec = PreludeSpec::new();
        spec.add_tensor("A", Arc::new(layout(&[5, 2, 3])));
        spec.add_loop_table("op__ext_i", LengthFn::new(vec![5, 2, 3]));
        spec.add_fusion(FusionSpec::new("o_i_f", 3, LengthFn::new(vec![5, 2, 3])));
        let data = spec.build();
        let names: Vec<&str> = data.int_buffers.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"A__A0"));
        assert!(names.contains(&"A__lens1"));
        assert!(names.contains(&"op__ext_i"));
        assert!(names.contains(&"o_i_f__ffo"));
        assert_eq!(data.params, vec![("F_o_i_f".to_string(), 10)]);
        assert!(data.storage_bytes > 0 && data.fusion_bytes > 0);
        assert_eq!(data.total_bytes(), data.storage_bytes + data.fusion_bytes);
    }

    #[test]
    fn duplicate_tensor_registered_once() {
        let mut spec = PreludeSpec::new();
        let l = Arc::new(layout(&[1, 2]));
        spec.add_tensor("A", Arc::clone(&l));
        spec.add_tensor("A", l);
        assert_eq!(spec.tensors().len(), 1);
    }
}
