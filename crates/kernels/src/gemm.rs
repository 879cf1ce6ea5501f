//! Dense single-precision matrix multiplication.
//!
//! These are the workhorse kernels: the fully padded baselines call them on
//! rectangular tensors, and CoRa-compiled operators call the
//! leading-dimension variants on the dense inner tiles of ragged iteration
//! spaces — mirroring the paper's CPU backend, which "offloads the
//! computation of inner gemm tiles to MKL".
//!
//! All matrices are row-major `f32`.

/// `C[m,n] += A[m,k] · B[k,n]` (row-major, contiguous).
pub fn sgemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    sgemm_ld(m, k, n, a, k, b, n, c, n);
}

/// `C += A · B` with explicit leading dimensions, so callers can address
/// tiles inside larger (possibly ragged) buffers.
///
/// # Panics
///
/// Panics (in debug builds) if any slice is too short for the given
/// dimensions and leading dimensions.
#[allow(clippy::too_many_arguments)]
pub fn sgemm_ld(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
) {
    debug_assert!(m == 0 || k == 0 || a.len() >= (m - 1) * lda + k);
    debug_assert!(k == 0 || n == 0 || b.len() >= (k - 1) * ldb + n);
    debug_assert!(m == 0 || n == 0 || c.len() >= (m - 1) * ldc + n);
    // i-k-j ordering: the innermost loop streams B and C rows and
    // auto-vectorizes.
    for i in 0..m {
        let c_row = &mut c[i * ldc..i * ldc + n];
        for p in 0..k {
            let a_ip = a[i * lda + p];
            if a_ip == 0.0 {
                continue;
            }
            let b_row = &b[p * ldb..p * ldb + n];
            for (cv, bv) in c_row.iter_mut().zip(b_row.iter()) {
                *cv += a_ip * *bv;
            }
        }
    }
}

/// `C[m,n] += A[m,k] · B[n,k]ᵀ` (B stored row-major as `[n,k]`).
///
/// The form attention's `QKᵀ` takes with row-major Q and K.
#[allow(clippy::too_many_arguments)]
pub fn sgemm_nt_ld(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
) {
    debug_assert!(m == 0 || k == 0 || a.len() >= (m - 1) * lda + k);
    debug_assert!(n == 0 || k == 0 || b.len() >= (n - 1) * ldb + k);
    debug_assert!(m == 0 || n == 0 || c.len() >= (m - 1) * ldc + n);
    for i in 0..m {
        let a_row = &a[i * lda..i * lda + k];
        for j in 0..n {
            let b_row = &b[j * ldb..j * ldb + k];
            let mut acc = 0.0f32;
            for (av, bv) in a_row.iter().zip(b_row.iter()) {
                acc += *av * *bv;
            }
            c[i * ldc + j] += acc;
        }
    }
}

/// Multithreaded gemm: `C[m,n] += A[m,k]·B[k,n]`, rows split into one
/// contiguous block per worker and dispatched onto the pool's persistent
/// runtime. Small problems (`m < 64`) run serially.
pub fn parallel_sgemm(
    pool: &cora_exec::CpuPool,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    if m == 0 || n == 0 {
        return;
    }
    let workers = pool.threads().min(m);
    if workers <= 1 || m < 64 {
        sgemm(m, k, n, a, b, c);
        return;
    }
    let chunk = m.div_ceil(workers);
    // Recompute the chunk count from the rounded-up chunk size: with
    // m=64, workers=24 → chunk=3 the last two "workers" would otherwise
    // get empty chunks starting past the end of `a`.
    let workers = m.div_ceil(chunk);
    let chunk_lens: Vec<usize> = (0..workers)
        .map(|w| {
            let lo = w * chunk;
            let hi = ((w + 1) * chunk).min(m);
            hi.saturating_sub(lo) * n
        })
        .collect();
    pool.parallel_rows(&mut c[..m * n], &chunk_lens, |w, c_chunk| {
        let rows = c_chunk.len() / n;
        let lo = w * chunk;
        sgemm(rows, k, n, &a[lo * k..(lo + rows) * k], b, c_chunk);
    });
}

/// FLOP count of a dense `m×k×n` gemm (multiply-adds counted as 2).
pub fn gemm_flops(m: usize, k: usize, n: usize) -> f64 {
    2.0 * m as f64 * k as f64 * n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for p in 0..k {
                    c[i * n + j] += a[i * k + p] * b[p * n + j];
                }
            }
        }
        c
    }

    fn seq(n: usize) -> Vec<f32> {
        (0..n).map(|i| ((i * 7 + 3) % 11) as f32 - 5.0).collect()
    }

    #[test]
    fn sgemm_matches_naive() {
        let (m, k, n) = (5, 7, 4);
        let a = seq(m * k);
        let b = seq(k * n);
        let mut c = vec![0.0; m * n];
        sgemm(m, k, n, &a, &b, &mut c);
        assert_eq!(c, naive(m, k, n, &a, &b));
    }

    #[test]
    fn sgemm_accumulates() {
        let (m, k, n) = (2, 2, 2);
        let a = vec![1.0; 4];
        let b = vec![1.0; 4];
        let mut c = vec![10.0; 4];
        sgemm(m, k, n, &a, &b, &mut c);
        assert_eq!(c, vec![12.0; 4]);
    }

    #[test]
    fn ld_variant_addresses_tiles() {
        // Multiply the top-left 2x2 tiles of 4x4 matrices.
        let a = seq(16);
        let b = seq(16);
        let mut c = vec![0.0; 16];
        sgemm_ld(2, 2, 2, &a, 4, &b, 4, &mut c, 4);
        for i in 0..2 {
            for j in 0..2 {
                let want: f32 = (0..2).map(|p| a[i * 4 + p] * b[p * 4 + j]).sum();
                assert_eq!(c[i * 4 + j], want);
            }
        }
        // Untouched region stays zero.
        assert_eq!(c[15], 0.0);
    }

    #[test]
    fn nt_matches_explicit_transpose() {
        let (m, k, n) = (3, 5, 4);
        let a = seq(m * k);
        let bt = seq(n * k); // stored as [n, k]
        let mut b = vec![0.0; k * n];
        for j in 0..n {
            for p in 0..k {
                b[p * n + j] = bt[j * k + p];
            }
        }
        let mut c1 = vec![0.0; m * n];
        sgemm_nt_ld(m, k, n, &a, k, &bt, k, &mut c1, n);
        assert_eq!(c1, naive(m, k, n, &a, &b));
    }

    #[test]
    fn flop_count() {
        assert_eq!(gemm_flops(2, 3, 4), 48.0);
    }

    #[test]
    fn parallel_sgemm_matches_serial() {
        let (m, k, n) = (130, 17, 11);
        let a = seq(m * k);
        let b = seq(k * n);
        let mut c_serial = vec![0.0; m * n];
        let mut c_par = vec![0.0; m * n];
        sgemm(m, k, n, &a, &b, &mut c_serial);
        parallel_sgemm(&cora_exec::CpuPool::new(4), m, k, n, &a, &b, &mut c_par);
        assert_eq!(c_serial, c_par);
    }

    #[test]
    fn parallel_sgemm_small_and_degenerate() {
        // Below the parallel threshold and with zero dimensions.
        let pool = cora_exec::CpuPool::new(4);
        let a = seq(8 * 3);
        let b = seq(3 * 2);
        let mut c1 = vec![0.0; 8 * 2];
        let mut c2 = vec![0.0; 8 * 2];
        sgemm(8, 3, 2, &a, &b, &mut c1);
        parallel_sgemm(&pool, 8, 3, 2, &a, &b, &mut c2);
        assert_eq!(c1, c2);
        parallel_sgemm(&pool, 0, 3, 2, &[], &b, &mut []);
        parallel_sgemm(&pool, 8, 3, 0, &a, &[], &mut []);
    }

    #[test]
    fn parallel_sgemm_more_threads_than_chunks() {
        // m=64, 24 workers → chunk=3 → only 22 non-empty chunks; the
        // trailing workers must not index past the end of `a`.
        let (m, k, n) = (64, 3, 2);
        let a = seq(m * k);
        let b = seq(k * n);
        let mut c1 = vec![0.0; m * n];
        let mut c2 = vec![0.0; m * n];
        sgemm(m, k, n, &a, &b, &mut c1);
        parallel_sgemm(&cora_exec::CpuPool::new(24), m, k, n, &a, &b, &mut c2);
        assert_eq!(c1, c2);
    }
}
