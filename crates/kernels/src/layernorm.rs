//! Layer normalisation over hidden vectors.

/// In-place layer norm of one hidden vector with scale `gamma`, shift
/// `beta` and stabiliser `eps`.
pub fn layernorm_row(row: &mut [f32], gamma: &[f32], beta: &[f32], eps: f32) {
    let n = row.len();
    assert_eq!(gamma.len(), n, "gamma length mismatch");
    assert_eq!(beta.len(), n, "beta length mismatch");
    if n == 0 {
        return;
    }
    let mean: f32 = row.iter().sum::<f32>() / n as f32;
    let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n as f32;
    let inv = 1.0 / (var + eps).sqrt();
    for ((v, g), b) in row.iter_mut().zip(gamma).zip(beta) {
        *v = (*v - mean) * inv * *g + *b;
    }
}

/// Layer norm over each length-`n` row of a contiguous `[rows, n]` buffer.
pub fn layernorm_rows(data: &mut [f32], n: usize, gamma: &[f32], beta: &[f32], eps: f32) {
    for row in data.chunks_mut(n) {
        layernorm_row(row, gamma, beta, eps);
    }
}

/// Parallel layer norm over each length-`n` row of `data`, batched onto
/// the pool's persistent runtime.
pub fn parallel_layernorm_rows(
    pool: &cora_exec::CpuPool,
    data: &mut [f32],
    n: usize,
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
) {
    pool.parallel_uniform_rows(data, n, |row| layernorm_row(row, gamma, beta, eps));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalises_to_zero_mean_unit_var() {
        let mut r = vec![1.0, 2.0, 3.0, 4.0];
        let g = vec![1.0; 4];
        let b = vec![0.0; 4];
        layernorm_row(&mut r, &g, &b, 1e-5);
        let mean: f32 = r.iter().sum::<f32>() / 4.0;
        let var: f32 = r.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-6);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn gamma_beta_applied() {
        let mut r = vec![-1.0, 1.0];
        let g = vec![2.0, 2.0];
        let b = vec![10.0, 10.0];
        layernorm_row(&mut r, &g, &b, 0.0);
        assert!((r[0] - 8.0).abs() < 1e-5);
        assert!((r[1] - 12.0).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "gamma length mismatch")]
    fn mismatched_gamma_rejected() {
        let mut r = vec![1.0, 2.0];
        layernorm_row(&mut r, &[1.0], &[0.0, 0.0], 1e-5);
    }

    #[test]
    fn parallel_rows_matches_serial() {
        let n = 5;
        let rows = 257;
        let gamma: Vec<f32> = (0..n).map(|i| 0.5 + i as f32).collect();
        let beta: Vec<f32> = (0..n).map(|i| i as f32 - 2.0).collect();
        let mut serial: Vec<f32> = (0..rows * n).map(|i| ((i % 17) as f32) - 8.0).collect();
        let mut par = serial.clone();
        layernorm_rows(&mut serial, n, &gamma, &beta, 1e-5);
        parallel_layernorm_rows(
            &cora_exec::CpuPool::new(4),
            &mut par,
            n,
            &gamma,
            &beta,
            1e-5,
        );
        assert_eq!(serial, par);
    }
}
