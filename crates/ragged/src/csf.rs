//! The tree-based sparse storage scheme of past work (§5.3, §B.1, Fig. 16).
//!
//! Compressed Sparse Fiber (CSF)-style schemes model tensor storage as a
//! tree with one level per dimension and assume the number of non-zeros in
//! a slice may depend on *all* outer dimensions. For ragged tensors this
//! overapproximation forces one offset entry per *slice* of every variable
//! dimension — `s1 + s3·Σ_i s24(i)` entries for the paper's attention
//! tensor, versus CoRa's `s1` — which is exactly what the §7.4
//! prelude-overhead table measures.
//!
//! We build the real arrays (not just count them) so construction time is
//! measurable, and we verify the scheme produces the same flat offsets as
//! CoRa's.

use std::time::Instant;

use crate::layout::RaggedLayout;

/// CSF-style per-level offset structures for a ragged layout.
#[derive(Debug, Clone)]
pub struct CsfStorage {
    /// `pos[d]` is the offset array of level `d`: for each slice of the
    /// level (in tree order) the start of its children. Levels whose
    /// extent is constant *and* independent still store per-slice entries,
    /// mirroring the conservative dgraph.
    pos: Vec<Vec<i64>>,
    /// Time spent constructing all levels.
    pub build_time: std::time::Duration,
}

impl CsfStorage {
    /// Builds the CSF-style structures for `layout`.
    pub fn build(layout: &RaggedLayout) -> CsfStorage {
        let start = Instant::now();
        let n = layout.ndim();
        let g = layout.graph();
        // Walk levels outermost-first. `slices` is the list of index
        // prefixes for the current level (conservatively one node per
        // prefix, as the tree scheme stores).
        let mut prefixes: Vec<Vec<usize>> = vec![vec![]];
        let mut pos: Vec<Vec<i64>> = Vec::with_capacity(n);
        for d in 0..n {
            let mut level_pos = Vec::with_capacity(prefixes.len() + 1);
            let mut acc = 0i64;
            level_pos.push(0);
            let last_level = d + 1 == n;
            let mut next_prefixes = Vec::new();
            for p in &prefixes {
                let extent = match g.incoming(d) {
                    None => layout.fixed_extent(d).unwrap(),
                    Some(k) => layout.extent_at(d, p[k]),
                };
                acc += extent as i64;
                level_pos.push(acc);
                if !last_level {
                    for i in 0..extent {
                        let mut np = p.clone();
                        np.push(i);
                        next_prefixes.push(np);
                    }
                }
            }
            pos.push(level_pos);
            prefixes = next_prefixes;
        }
        CsfStorage {
            pos,
            build_time: start.elapsed(),
        }
    }

    /// Offset arrays per level.
    pub fn pos(&self) -> &[Vec<i64>] {
        &self.pos
    }

    /// Total auxiliary memory in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.pos
            .iter()
            .map(|p| p.len() * std::mem::size_of::<i64>())
            .sum()
    }

    /// Computes the flat offset of `index` by walking the tree levels —
    /// one dependent load per level, the cost the paper's comparison
    /// highlights.
    pub fn offset(&self, layout: &RaggedLayout, index: &[usize]) -> usize {
        let n = layout.ndim();
        debug_assert_eq!(index.len(), n);
        let mut node = 0usize; // node id within the current level
        for (d, &i) in index.iter().enumerate() {
            let start = self.pos[d][node];
            node = usize::try_from(start).unwrap() + i;
        }
        node
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{offset as cora_offset, valid_indices};
    use crate::aux::AuxOffsets;
    use crate::dim::Dim;

    fn attention_layout(lens: Vec<usize>, heads: usize) -> RaggedLayout {
        let batch = Dim::new("batch");
        let l1 = Dim::new("len1");
        let h = Dim::new("heads");
        let l2 = Dim::new("len2");
        RaggedLayout::builder()
            .cdim(batch.clone(), lens.len())
            .vdim(l1, &batch, lens.clone())
            .cdim(h, heads)
            .vdim(l2, &batch, lens)
            .build()
            .unwrap()
    }

    #[test]
    fn csf_offsets_agree_with_cora_offsets() {
        let l = attention_layout(vec![2, 3, 1], 2);
        let csf = CsfStorage::build(&l);
        let aux = AuxOffsets::build(&l);
        for ix in valid_indices(&l) {
            assert_eq!(
                csf.offset(&l, &ix),
                cora_offset(&l, &aux, &ix),
                "divergence at {ix:?}"
            );
        }
    }

    #[test]
    fn csf_stores_far_more_aux_data() {
        // Paper: CSF needs s1 + s3·Σ s24(i) entries for the inner vdim
        // alone; CoRa needs s1 (+1 sentinel).
        let lens = vec![64usize; 32];
        let l = attention_layout(lens.clone(), 8);
        let csf = CsfStorage::build(&l);
        let aux = AuxOffsets::build(&l);
        assert!(
            csf.memory_bytes() > 50 * aux.memory_bytes(),
            "csf {} vs cora {}",
            csf.memory_bytes(),
            aux.memory_bytes()
        );
    }

    #[test]
    fn csf_levels_have_expected_sizes() {
        let l = attention_layout(vec![1, 2], 2);
        let csf = CsfStorage::build(&l);
        // Level 0: 1 root -> 2 entries. Level 1: 2 batch slices.
        // Level 2: 1+2 = 3 len1 slices. Level 3: 3*2 = 6 head slices.
        assert_eq!(csf.pos()[0].len(), 2);
        assert_eq!(csf.pos()[1].len(), 3);
        assert_eq!(csf.pos()[2].len(), 4);
        assert_eq!(csf.pos()[3].len(), 7);
    }
}
