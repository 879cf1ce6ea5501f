//! Elementwise operators of the encoder layer: bias add, residual add,
//! the GELU activation and scaling.

/// Adds `bias` (length `n`) to each length-`n` row of `data`.
pub fn bias_add_rows(data: &mut [f32], n: usize, bias: &[f32]) {
    assert_eq!(bias.len(), n, "bias length mismatch");
    for row in data.chunks_mut(n) {
        for (v, b) in row.iter_mut().zip(bias) {
            *v += *b;
        }
    }
}

/// `data[i] += other[i]`.
pub fn residual_add(data: &mut [f32], other: &[f32]) {
    assert_eq!(data.len(), other.len(), "residual length mismatch");
    for (v, o) in data.iter_mut().zip(other) {
        *v += *o;
    }
}

/// In-place tanh-approximation GELU (the activation of the encoder's FF1).
pub fn gelu(data: &mut [f32]) {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    for v in data.iter_mut() {
        let x = *v;
        *v = 0.5 * x * (1.0 + (C * (x + 0.044715 * x * x * x)).tanh());
    }
}

/// Scales every element by `s`.
pub fn scale(data: &mut [f32], s: f32) {
    for v in data.iter_mut() {
        *v *= s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bias_applies_per_row() {
        let mut d = vec![0.0, 0.0, 1.0, 1.0];
        bias_add_rows(&mut d, 2, &[10.0, 20.0]);
        assert_eq!(d, vec![10.0, 20.0, 11.0, 21.0]);
    }

    #[test]
    fn residual_adds() {
        let mut d = vec![1.0, 2.0];
        residual_add(&mut d, &[0.5, 0.5]);
        assert_eq!(d, vec![1.5, 2.5]);
    }

    #[test]
    fn gelu_fixed_points() {
        let mut d = vec![0.0f32, 100.0];
        gelu(&mut d);
        assert_eq!(d[0], 0.0);
        assert!((d[1] - 100.0).abs() < 1e-3, "gelu(x) -> x for large x");
    }
}
