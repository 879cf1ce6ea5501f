//! Requests and the ragged boundary contract: sequences enter as
//! `(id, embedding rows, arrival time)` and microbatches are packed
//! into the existing [`RaggedBatch`] (row lengths + packed data), so the
//! compiled tier never sees padding.

use cora_transformer::RaggedBatch;

/// One inference request: `len` embedding rows of `hidden` floats each
/// (the server's [`crate::server::Server`] fixes `hidden`), arriving at
/// `arrival_ns`.
#[derive(Debug, Clone)]
pub struct Request {
    /// Caller-chosen unique id.
    pub id: u64,
    /// Sequence length in rows (0 and 1 are legal).
    pub len: usize,
    /// Row-major embedding rows, `len * hidden` floats.
    pub data: Vec<f32>,
    /// Arrival time, nanoseconds on the driving clock.
    pub arrival_ns: u64,
}

impl Request {
    /// Assembles a request.
    pub fn new(id: u64, len: usize, data: Vec<f32>, arrival_ns: u64) -> Request {
        Request {
            id,
            len,
            data,
            arrival_ns,
        }
    }
}

/// Packs selected requests (already in canonical batch order) into a
/// [`RaggedBatch`]: concatenated rows, no padding.
pub fn pack_ragged(selected: &[Request], hidden: usize) -> RaggedBatch {
    let rows: usize = selected.iter().map(|r| r.len).sum();
    let mut data = Vec::with_capacity(rows * hidden);
    for r in selected {
        debug_assert_eq!(r.data.len(), r.len * hidden);
        data.extend_from_slice(&r.data);
    }
    RaggedBatch {
        lens: selected.iter().map(|r| r.len).collect(),
        data,
        hidden,
    }
}

/// Splits a packed batch output back into per-request row blocks, in
/// batch order.
pub fn unpack_rows(output: &[f32], lens: &[usize], hidden: usize) -> Vec<Vec<f32>> {
    let mut out = Vec::with_capacity(lens.len());
    let mut off = 0usize;
    for &len in lens {
        out.push(output[off..off + len * hidden].to_vec());
        off += len * hidden;
    }
    assert_eq!(off, output.len(), "output rows mismatch");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_and_unpack_roundtrip_without_padding() {
        let hidden = 2usize;
        let lens = vec![2usize, 0, 3];
        let reqs: Vec<Request> = lens
            .iter()
            .enumerate()
            .map(|(s, &len)| {
                let data = (0..len * hidden).map(|k| (100 * s + k) as f32).collect();
                Request::new(7 + s as u64, len, data, 42)
            })
            .collect();
        let batch = pack_ragged(&reqs, hidden);
        assert_eq!(batch.lens, lens);
        assert_eq!(batch.data.len(), 5 * hidden, "no padding rows packed");
        let split = unpack_rows(&batch.data, &batch.lens, hidden);
        for (r, rows) in reqs.iter().zip(&split) {
            assert_eq!(&r.data, rows);
        }
    }
}
