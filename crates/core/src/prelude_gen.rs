//! Prelude generation: planning and building the auxiliary structures a
//! compiled kernel needs (§2 step 7, §5.1, §5.3).
//!
//! A [`PreludeSpec`] records *what* a program needs (tensor offset arrays,
//! vloop extent tables, shape parameters, fused-loop maps) — everything a
//! shape changes, so the compiled code itself stays shape-generic;
//! [`PreludeSpec::build`] runs on
//! the host and produces the concrete arrays, timing each category
//! separately. [`PreludeSpec::build_union`] builds several programs'
//! preludes once, as one, each distinct table counted once: the
//! simulated encoder layer's prelude share and the `paper` binary's §7.4
//! overhead table are that union over the layer's lowered programs.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cora_ragged::aux::{AuxOffsets, FusedLoopMaps};
use cora_ragged::{LengthFn, RaggedLayout};

use crate::api::{aux_buffer_name, lens_buffer_name};

/// A planned vloop fusion: the data needed to build its maps.
#[derive(Debug, Clone)]
pub struct FusionSpec {
    name: String,
    lens: LengthFn,
    /// Extra iterations appended by bulk padding (a virtual sequence).
    bulk_rows: Vec<usize>,
}

impl FusionSpec {
    /// Creates a fusion of an outer loop with an inner vloop whose
    /// (loop-padded) extents are `lens`, one per outer iteration.
    pub fn new(name: impl Into<String>, lens: LengthFn) -> FusionSpec {
        FusionSpec {
            name: name.into(),
            lens,
            bulk_rows: Vec::new(),
        }
    }

    /// The fused loop's name.
    pub fn name(&self) -> &str {
        &self.name
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
}

/// Everything a program's prelude must materialise.
#[derive(Debug, Clone, Default)]
pub struct PreludeSpec {
    tensors: Vec<(String, Arc<RaggedLayout>)>,
    loop_tables: Vec<(String, LengthFn)>,
    /// Shape parameters (loop extents declared with
    /// [`crate::api::LoopSpec::param`]) and their values at this shape.
    params: Vec<(String, i64)>,
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
    /// Scalar parameters to bind (shape parameters, fused extents).
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

    /// Registers a shape parameter. A name registered twice must carry
    /// the same value; it is kept once.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered with another value.
    pub fn add_param(&mut self, name: &str, value: i64) {
        add_param(&mut self.params, name, value);
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
    /// separately (the split the §7.4 table makes).
    pub fn build(&self) -> PreludeData {
        build([self], false)
    }

    /// Builds the preludes of several programs once, as one prelude —
    /// what a mini-batch of those programs installs. A table bitwise
    /// equal to one already built is the same structure: it is installed
    /// as that table's `Arc` and counted once (`Q__A0` and `K__A0` are one
    /// per-sequence prefix sum).
    ///
    /// # Panics
    ///
    /// Panics if two specs register one table or parameter name with
    /// different contents.
    pub fn build_union<'a>(specs: impl IntoIterator<Item = &'a PreludeSpec>) -> PreludeData {
        build(specs, true)
    }
}

/// Registers parameter `name = value` in `params`, once.
fn add_param(params: &mut Vec<(String, i64)>, name: &str, value: i64) {
    match params.iter().find(|(n, _)| n == name) {
        Some((_, v)) => assert_eq!(*v, value, "parameter `{name}` bound twice"),
        None => params.push((name.to_string(), value)),
    }
}

/// Builds the preludes of `specs` as one. With `shared`, a table name
/// installed before must carry the same table and is kept once, and a
/// table equal to an installed one is that table's `Arc` and adds no
/// bytes.
fn build<'a>(specs: impl IntoIterator<Item = &'a PreludeSpec>, shared: bool) -> PreludeData {
    let specs: Vec<&PreludeSpec> = specs.into_iter().collect();
    let mut data = PreludeData::default();
    for (name, value) in specs.iter().flat_map(|spec| &spec.params) {
        add_param(&mut data.params, name, *value);
    }
    let mut tables: Vec<(String, Arc<[i64]>)> = Vec::new();
    // Installs `table` as `name`, returning the bytes it adds.
    let mut install = |name: String, table: Arc<[i64]>| {
        if shared {
            if let Some((_, t)) = tables.iter().find(|(n, _)| *n == name) {
                assert!(*t == table, "prelude table `{name}` registered twice");
                return 0;
            }
            if let Some((_, t)) = tables.iter().find(|(_, t)| *t == table) {
                tables.push((name, Arc::clone(t)));
                return 0;
            }
        }
        let bytes = table.len() * 8;
        tables.push((name, table));
        bytes
    };
    let table = |lens: &LengthFn| lens.as_slice().iter().map(|&x| x as i64).collect();
    let t0 = Instant::now();
    for spec in &specs {
        for (name, layout) in &spec.tensors {
            let aux = AuxOffsets::build(layout);
            for d in 0..layout.ndim() {
                if let Some(a) = aux.array(d) {
                    data.storage_bytes += install(aux_buffer_name(name, d), a.into());
                }
                if let Some(lens) = layout.padded_lens(d) {
                    data.storage_bytes += install(lens_buffer_name(name, d), table(lens));
                }
            }
        }
        for (buffer, lens) in &spec.loop_tables {
            data.storage_bytes += install(buffer.clone(), table(lens));
        }
    }
    data.storage_time = t0.elapsed();

    let t1 = Instant::now();
    for f in specs.iter().flat_map(|spec| &spec.fusions) {
        let maps = FusedLoopMaps::build(&f.effective_lens());
        add_param(
            &mut data.params,
            &format!("F_{}", f.name()),
            maps.fused_extent,
        );
        let name = |map| format!("{}__{map}", f.name());
        data.fusion_bytes += install(name("ffo"), maps.ffo.into());
        data.fusion_bytes += install(name("ffi"), maps.ffi.into());
        data.fusion_bytes += install(name("foif_row"), maps.foif_row.into());
    }
    data.fusion_time = t1.elapsed();
    data.int_buffers = tables;
    data
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
        let mut f = FusionSpec::new("o_i_f", LengthFn::new(vec![5, 2, 3]));
        assert_eq!(f.fused_extent(), 10);
        f.bulk_pad(8);
        assert_eq!(f.fused_extent(), 16);
        assert_eq!(f.effective_lens(), vec![5, 2, 3, 6]);
        // Already-aligned extents gain nothing.
        let mut g = FusionSpec::new("g", LengthFn::new(vec![8]));
        g.bulk_pad(8);
        assert_eq!(g.fused_extent(), 8);
    }

    #[test]
    fn build_produces_buffers_and_params() {
        let mut spec = PreludeSpec::new();
        spec.add_tensor("A", Arc::new(layout(&[5, 2, 3])));
        spec.add_loop_table("op__ext_i", LengthFn::new(vec![5, 2, 3]));
        spec.add_fusion(FusionSpec::new("o_i_f", LengthFn::new(vec![5, 2, 3])));
        spec.add_param("rows", 10);
        spec.add_param("rows", 10);
        let data = spec.build();
        let names: Vec<&str> = data.int_buffers.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"A__A0"));
        assert!(names.contains(&"A__lens1"));
        assert!(names.contains(&"op__ext_i"));
        assert!(names.contains(&"o_i_f__ffo"));
        assert_eq!(
            data.params,
            vec![("rows".to_string(), 10), ("F_o_i_f".to_string(), 10)]
        );
        assert!(data.storage_bytes > 0 && data.fusion_bytes > 0);
        assert_eq!(data.total_bytes(), data.storage_bytes + data.fusion_bytes);
    }

    fn spec(tensor: &str, lens: &[usize], fusion: &str) -> PreludeSpec {
        let mut spec = PreludeSpec::new();
        spec.add_tensor(tensor, Arc::new(layout(lens)));
        let mut f = FusionSpec::new(fusion, LengthFn::new(lens.to_vec()));
        f.bulk_pad(8);
        spec.add_fusion(f);
        spec.add_param("rows", 16);
        spec
    }

    #[test]
    fn a_union_shares_equal_tables_and_counts_them_once() {
        let (a, b) = (spec("A", &[5, 2, 3], "f"), spec("B", &[5, 2, 3], "g"));
        let one = a.build();
        let union = PreludeSpec::build_union([&a, &b, &a]);
        let table = |name: &str| {
            let found = union.int_buffers.iter().find(|(n, _)| n == name);
            Arc::clone(&found.expect("a table of the union").1)
        };
        // Every table of either spec, each name once.
        assert_eq!(union.int_buffers.len(), 2 * one.int_buffers.len());
        assert!(Arc::ptr_eq(&table("A__A0"), &table("B__A0")));
        assert!(Arc::ptr_eq(&table("f__ffo"), &table("g__ffo")));
        assert_eq!(union.storage_bytes, one.storage_bytes);
        assert_eq!(union.fusion_bytes, one.fusion_bytes);
        let params = ["rows", "F_f", "F_g"].map(|n| (n.to_string(), 16));
        assert_eq!(union.params, params);
        // Alone, a spec keeps every table it registers.
        let mut both = a.clone();
        both.add_tensor("B", Arc::new(layout(&[5, 2, 3])));
        assert_eq!(both.build().storage_bytes, 2 * one.storage_bytes);
    }

    #[test]
    #[should_panic(expected = "prelude table `A__A0` registered twice")]
    fn a_name_with_two_tables_is_refused() {
        PreludeSpec::build_union([&spec("A", &[5, 2, 3], "f"), &spec("A", &[5, 2], "f")]);
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
