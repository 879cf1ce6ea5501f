//! Auxiliary prelude data structures (§2, §5.3, §B.1).
//!
//! The prelude runs on the host before kernel launch. From the raggedness
//! pattern alone (insight I1 — it is known before any values are computed)
//! it materialises:
//!
//! * **Offset arrays** `A_d` — one prefix-sum array per dimension that has
//!   dependents in the dgraph. These are the `row_idx` arrays of Fig. 4
//!   and the `A1` array of Fig. 16; they make tensor accesses O(1).
//! * **Fused-loop maps** `ffo`/`ffi`/`foif` — the variable relationships
//!   created by vloop fusion (§5.1).
//!
//! Construction cost (time and bytes) is what the §7.4 prelude-overhead
//! experiment measures, so builders report exact byte counts.

use crate::layout::RaggedLayout;

/// The offset arrays for one layout, plus accounting metadata.
#[derive(Debug, Clone)]
pub struct AuxOffsets {
    /// `arrays[d] = Some(A_d)` iff dimension `d` has dependents.
    /// `A_d[i]` is the cumulative padded slice volume of slices `0..i` of
    /// dimension `d` (so `A_d` has `extent(d) + 1` entries).
    arrays: Vec<Option<Vec<i64>>>,
    /// Inner volume multiplier applied *outside* `A_d` (product of inner
    /// cdims independent of `d`).
    outer_multipliers: Vec<i64>,
}

impl AuxOffsets {
    /// Builds the offset arrays for `layout`.
    pub fn build(layout: &RaggedLayout) -> AuxOffsets {
        let n = layout.ndim();
        let g = layout.graph();
        let mut arrays: Vec<Option<Vec<i64>>> = vec![None; n];
        let mut outer_multipliers = vec![1i64; n];
        for d in 0..n {
            if !g.has_dependents(d) {
                continue;
            }
            let extent = layout
                .fixed_extent(d)
                .expect("dims with dependents are cdims in the prototype");
            // Volume of one slice of dimension d at index i, split into
            // the i-dependent part (product over dependents of d and any
            // other vdims, evaluated at i) and the constant part
            // (product of inner cdims) which multiplies outside A_d.
            let mut constant_part = 1i64;
            for j in (d + 1)..n {
                if g.incoming(j).is_none() {
                    constant_part *= layout.fixed_extent(j).expect("cdim") as i64;
                }
            }
            let mut a = Vec::with_capacity(extent + 1);
            let mut acc = 0i64;
            a.push(0);
            for i in 0..extent {
                let mut vol = 1i64;
                for j in (d + 1)..n {
                    if let Some(k) = g.incoming(j) {
                        debug_assert_eq!(k, d, "prototype: single-level dependences");
                        vol *= layout.extent_at(j, i) as i64;
                    }
                }
                acc += vol;
                a.push(acc);
            }
            arrays[d] = Some(a);
            outer_multipliers[d] = constant_part;
        }
        AuxOffsets {
            arrays,
            outer_multipliers,
        }
    }

    /// The prefix-sum array of dimension `d`, if it needed one.
    pub fn array(&self, d: usize) -> Option<&[i64]> {
        self.arrays[d].as_deref()
    }

    /// The constant inner-volume multiplier applied outside `A_d`.
    pub fn outer_multiplier(&self, d: usize) -> i64 {
        self.outer_multipliers[d]
    }

    /// Total auxiliary memory in bytes (8 bytes per entry, matching the
    /// paper's accounting of index arrays).
    pub fn memory_bytes(&self) -> usize {
        self.arrays
            .iter()
            .flatten()
            .map(|a| a.len() * std::mem::size_of::<i64>())
            .sum()
    }
}

/// The maps created by fusing an outer loop `o` (extent `m`) with an inner
/// vloop `i` whose (loop-padded) extent is `lens[o]` (§5.1, Fig. 6).
#[derive(Debug, Clone)]
pub struct FusedLoopMaps {
    /// `ffo[f] = o` — outer variable recovered from the fused variable.
    pub ffo: Vec<i64>,
    /// `ffi[f] = i` — inner variable recovered from the fused variable.
    pub ffi: Vec<i64>,
    /// `foif_row[o]` — start of row `o` in fused iteration space, so
    /// `foif(o, i) = foif_row[o] + i`. (The paper notes the dense `foif`
    /// table "can, in most cases, be optimized away"; the row form is that
    /// optimisation.)
    pub foif_row: Vec<i64>,
    /// Fused extent `F = sum_o lens[o]`.
    pub fused_extent: i64,
}

impl FusedLoopMaps {
    /// Builds the maps with the dense `foif` table elided (the optimised
    /// form CoRa generates).
    pub fn build(lens: &[usize]) -> FusedLoopMaps {
        let total: usize = lens.iter().sum();
        let mut ffo = Vec::with_capacity(total);
        let mut ffi = Vec::with_capacity(total);
        let mut foif_row = Vec::with_capacity(lens.len() + 1);
        let mut fctr = 0i64;
        foif_row.push(0);
        for (o, &l) in lens.iter().enumerate() {
            for i in 0..l {
                ffo.push(o as i64);
                ffi.push(i as i64);
                fctr += 1;
            }
            foif_row.push(fctr);
        }
        FusedLoopMaps {
            ffo,
            ffi,
            foif_row,
            fused_extent: fctr,
        }
    }

    /// `foif(o, i)` — fused index for `(o, i)`.
    pub fn foif(&self, o: usize, i: usize) -> i64 {
        self.foif_row[o] + i as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dim::Dim;
    use crate::layout::RaggedLayout;

    #[test]
    fn fig4_row_offsets() {
        // A with lens [5,2,3] unpadded, B with pad 4: matches Fig. 4's
        // row_idx_a = [0,5,7,10] and row_idx_b = [0,8,12,16].
        let batch = Dim::new("batch");
        let len = Dim::new("len");
        let a = RaggedLayout::builder()
            .cdim(batch.clone(), 3)
            .vdim(len.clone(), &batch, vec![5usize, 2, 3])
            .build()
            .unwrap();
        let aux_a = AuxOffsets::build(&a);
        assert_eq!(aux_a.array(0).unwrap(), &[0, 5, 7, 10]);

        let batch2 = Dim::new("batch");
        let len2 = Dim::new("len");
        let b = RaggedLayout::builder()
            .cdim(batch2.clone(), 3)
            .vdim(len2, &batch2, vec![5usize, 2, 3])
            .pad(4)
            .build()
            .unwrap();
        let aux_b = AuxOffsets::build(&b);
        assert_eq!(aux_b.array(0).unwrap(), &[0, 8, 12, 16]);
    }

    #[test]
    fn attention_tensor_aux() {
        // Fig. 16: X[batch=2, len, heads=2, len] lens [1,2]:
        // A1 = [0, 1*1, 1*1+2*2] = [0,1,5]; multiplier outside = heads = 2.
        let batch = Dim::new("batch");
        let l1 = Dim::new("len1");
        let h = Dim::new("heads");
        let l2 = Dim::new("len2");
        let lens = vec![1usize, 2];
        let x = RaggedLayout::builder()
            .cdim(batch.clone(), 2)
            .vdim(l1, &batch, lens.clone())
            .cdim(h, 2)
            .vdim(l2, &batch, lens)
            .build()
            .unwrap();
        let aux = AuxOffsets::build(&x);
        assert_eq!(aux.array(0).unwrap(), &[0, 1, 5]);
        assert_eq!(aux.outer_multiplier(0), 2);
        assert_eq!(aux.memory_bytes(), 3 * 8);
    }

    #[test]
    fn fused_maps_match_fig4() {
        // Fig. 4 fuses lens [5,2,3] (loop-padded by 2 in the listing — here
        // unpadded to match the prelude sketch): ffo/ffi tables.
        let m = FusedLoopMaps::build(&[5, 2, 3]);
        assert_eq!(m.fused_extent, 10);
        assert_eq!(m.ffo, vec![0, 0, 0, 0, 0, 1, 1, 2, 2, 2]);
        assert_eq!(m.ffi, vec![0, 1, 2, 3, 4, 0, 1, 0, 1, 2]);
        assert_eq!(m.foif(1, 1), 6);
        assert_eq!(m.foif_row, vec![0, 5, 7, 10]);
    }

    #[test]
    fn fused_maps_satisfy_axioms() {
        let lens = [3usize, 0, 5, 1];
        let m = FusedLoopMaps::build(&lens);
        for f in 0..m.fused_extent {
            let o = m.ffo[f as usize];
            let i = m.ffi[f as usize];
            assert_eq!(m.foif(o as usize, i as usize), f);
        }
        for (o, &l) in lens.iter().enumerate() {
            for i in 0..l {
                let f = m.foif(o, i);
                assert_eq!(m.ffo[f as usize], o as i64);
                assert_eq!(m.ffi[f as usize], i as i64);
            }
        }
    }
}
