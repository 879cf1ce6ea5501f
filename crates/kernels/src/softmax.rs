//! Numerically stable row softmax, with optional masked/valid lengths.
//!
//! The transformer's Softmax operator runs over attention-score rows whose
//! valid length varies per sequence (and, under decoder masking, per row).

/// In-place softmax over `row[..valid]`; entries beyond `valid` are set to
/// zero (they correspond to padding and must not carry probability mass).
pub fn softmax_row(row: &mut [f32], valid: usize) {
    let valid = valid.min(row.len());
    if valid == 0 {
        for v in row.iter_mut() {
            *v = 0.0;
        }
        return;
    }
    let mut maxv = f32::NEG_INFINITY;
    for &v in &row[..valid] {
        maxv = maxv.max(v);
    }
    if maxv == f32::NEG_INFINITY {
        // Fully masked prefix (every score -inf, e.g. an empty sequence
        // under causal masking): `v - maxv` would be NaN. No token may
        // carry probability mass, so the row is all zeros.
        for v in row.iter_mut() {
            *v = 0.0;
        }
        return;
    }
    let mut sum = 0.0f32;
    for v in &mut row[..valid] {
        *v = (*v - maxv).exp();
        sum += *v;
    }
    let inv = 1.0 / sum;
    for v in &mut row[..valid] {
        *v *= inv;
    }
    for v in &mut row[valid..] {
        *v = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sums_to_one_and_orders() {
        let mut r = vec![1.0, 3.0, 2.0];
        softmax_row(&mut r, 3);
        let s: f32 = r.iter().sum();
        assert!((s - 1.0).abs() < 1e-6);
        assert!(r[1] > r[2] && r[2] > r[0]);
    }

    #[test]
    fn masked_tail_gets_zero() {
        let mut r = vec![5.0, 5.0, 100.0, 100.0];
        softmax_row(&mut r, 2);
        assert_eq!(&r[2..], &[0.0, 0.0]);
        assert!((r[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn stable_for_large_values() {
        let mut r = vec![1e30f32, 1e30];
        softmax_row(&mut r, 2);
        assert!((r[0] - 0.5).abs() < 1e-6);
        assert!(r.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn zero_valid_is_all_zero() {
        let mut r = vec![3.0, 4.0];
        softmax_row(&mut r, 0);
        assert_eq!(r, vec![0.0, 0.0]);
    }

    #[test]
    fn fully_masked_prefix_is_all_zero_not_nan() {
        // All valid entries -inf (a fully masked row): the old code
        // produced NaN everywhere via (-inf) - (-inf).
        let mut r = vec![f32::NEG_INFINITY, f32::NEG_INFINITY, 7.0];
        softmax_row(&mut r, 2);
        assert_eq!(r, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn partially_masked_prefix_still_normalizes() {
        let mut r = vec![f32::NEG_INFINITY, 1.0, 1.0];
        softmax_row(&mut r, 3);
        assert_eq!(r[0], 0.0);
        assert!((r[1] - 0.5).abs() < 1e-6 && (r[2] - 0.5).abs() < 1e-6);
    }
}
