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

/// `dense_to_ragged` ingestion: strips a `[batch, max_len, hidden]`
/// padded tensor down to per-sequence packed rows — the boundary
/// contract for callers arriving from padded-tensor land. Request ids
/// are `first_id..first_id + lens.len()`, all stamped `arrival_ns`.
///
/// # Panics
///
/// Panics if `dense` is not exactly `lens.len() * max_len * hidden`
/// floats or any length exceeds `max_len`.
pub fn requests_from_padded(
    dense: &[f32],
    lens: &[usize],
    max_len: usize,
    hidden: usize,
    first_id: u64,
    arrival_ns: u64,
) -> Vec<Request> {
    assert_eq!(
        dense.len(),
        lens.len() * max_len * hidden,
        "dense tensor shape mismatch"
    );
    lens.iter()
        .enumerate()
        .map(|(s, &len)| {
            assert!(len <= max_len, "sequence {s} longer than max_len");
            let row0 = s * max_len * hidden;
            Request::new(
                first_id + s as u64,
                len,
                dense[row0..row0 + len * hidden].to_vec(),
                arrival_ns,
            )
        })
        .collect()
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
    fn dense_to_ragged_strips_padding_and_roundtrips() {
        let (max_len, hidden) = (3usize, 2usize);
        let lens = vec![2usize, 0, 3];
        // dense[s][t][h] = 100*s + 10*t + h, padding rows included.
        let mut dense = Vec::new();
        for s in 0..lens.len() {
            for t in 0..max_len {
                for h in 0..hidden {
                    dense.push((100 * s + 10 * t + h) as f32);
                }
            }
        }
        let reqs = requests_from_padded(&dense, &lens, max_len, hidden, 7, 42);
        assert_eq!(reqs.len(), 3);
        assert_eq!(reqs[0].id, 7);
        assert_eq!(reqs[1].len, 0);
        assert!(reqs[1].data.is_empty());
        assert_eq!(reqs[2].data, vec![200.0, 201.0, 210.0, 211.0, 220.0, 221.0]);

        let batch = pack_ragged(&reqs, hidden);
        assert_eq!(batch.lens, lens);
        assert_eq!(batch.data.len(), 5 * hidden, "no padding rows packed");
        let split = unpack_rows(&batch.data, &batch.lens, hidden);
        for (r, rows) in reqs.iter().zip(&split) {
            assert_eq!(&r.data, rows);
        }
    }
}
