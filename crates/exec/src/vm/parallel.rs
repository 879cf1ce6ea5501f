//! Parallel block dispatch — the one VM module that contains `unsafe`.
//!
//! A [`VmShared`] binding table is executed once per block value across
//! a [`CpuPool`]: each worker keeps private registers, loop variables
//! and `Alloc` scratch, reads the float inputs through shared slices,
//! and writes the single kernel output through [`SharedOut`]. The
//! worker's [`OutPort`] ([`WorkerOut`]) is where the disjoint-store
//! contract is enforced — bounds, [`StoreCert`] membership and the
//! [`OutOwners`] tracker all run *before* any cell is touched — so the
//! shared dispatch loop and buffer view ([`super::dispatch`],
//! [`super::bufs`]) stay free of `unsafe`.

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Mutex, OnceLock};

use cora_ir::interval::SInt;

use super::bufs::{Bufs, OutPort, Slot};
use super::cert::StoreCert;
use super::dispatch::{dispatch, Regs};
use super::machine::VmShared;
use crate::cpu::CpuPool;
use crate::interp::InterpStats;

/// True when the per-element owning-block tracker should run: always in
/// debug builds, and in release builds when `CORA_CHECK_DISJOINT=1`
/// opts in — the verifier cross-check the `verify` CI job uses to run
/// a release-speed encoder batch under full dynamic enforcement.
fn dynamic_check_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| {
        cfg!(debug_assertions) || std::env::var("CORA_CHECK_DISJOINT").is_ok_and(|v| v == "1")
    })
}

/// The kernel output buffer shared by every parallel worker.
///
/// Built safely from an exclusive `&mut [f32]` via
/// [`Cell::from_mut`]/[`Cell::as_slice_of_cells`]; the only `unsafe` is
/// the `Sync` impl and the raw-pointer cell accesses below.
///
/// # Safety
///
/// Unsynchronized writes through the cells are sound *given* the
/// disjoint-store contract of [`VmShared::run_blocks`]: every store
/// executed for block index `b` targets an output element owned by `b`,
/// distinct blocks own disjoint element sets, and reads through
/// `SharedOut::get` only observe elements owned by the reading block
/// (read-modify-write reductions) — so no location is ever accessed
/// from two threads without ordering. The exclusive borrow keeps all
/// other access paths frozen for the region's lifetime, and
/// [`CpuPool::parallel_for`] joins every worker before `run_blocks`
/// returns.
///
/// The contract is discharged in layers (the README's "Safety &
/// verification" story). Statically, the outliner's taint screen is a
/// fast necessary-filter and `cora_core::verify` then *proves*
/// disjointness per block value by abstract interpretation over strided
/// intervals, recording the proof as a [`StoreCert`]. At run time the
/// only public entry point, [`VmShared::run_blocks_proven`], takes that
/// certificate and [`WorkerOut`] checks membership on every store, so
/// even a verifier bug panics deterministically instead of racing; in
/// debug builds — and release builds under `CORA_CHECK_DISJOINT=1` —
/// the [`OutOwners`] tracker additionally records a per-element owning
/// block and panics on any cross-block overlap. The uncertified
/// [`VmShared::run_blocks`] is private to this module: only the unit
/// tests below (the suites CI runs under `miri`) reach it, to drive the
/// tracker and the raw cell accesses without a certificate.
struct SharedOut<'a>(&'a [Cell<f32>]);

// SAFETY: see the type-level contract above — concurrent access is
// restricted to disjoint cells by the outliner.
#[allow(unsafe_code)]
unsafe impl Sync for SharedOut<'_> {}

impl<'a> SharedOut<'a> {
    fn new(buf: &'a mut [f32]) -> SharedOut<'a> {
        SharedOut(Cell::from_mut(buf).as_slice_of_cells())
    }

    #[inline]
    #[allow(unsafe_code)]
    fn get(&self, idx: usize) -> f32 {
        // SAFETY: only the block owning this element accesses it (see the
        // type-level contract), so the read cannot race a write.
        unsafe { *self.0[idx].as_ptr() }
    }

    #[inline]
    #[allow(unsafe_code)]
    fn set(&self, idx: usize, v: f32) {
        // SAFETY: as for `get` — this thread is the element's only
        // accessor during the region.
        unsafe { *self.0[idx].as_ptr() = v }
    }

    /// Exclusive mutable view of `[start, start + n)`, for the chunked
    /// store sweeps and panel kernels.
    ///
    /// # Safety
    ///
    /// The executing block must own every element of the range under the
    /// disjoint-store contract (its stores all land there and no other
    /// block touches it), making the access exclusive for the view's
    /// lifetime. Debug builds claim each element beforehand, so a
    /// violated contract panics instead of racing.
    #[inline]
    #[allow(unsafe_code)]
    #[allow(clippy::mut_from_ref)] // exclusivity is the method's safety contract
    unsafe fn slice_mut(&self, start: usize, n: usize) -> &mut [f32] {
        assert!(start + n <= self.0.len(), "panel range out of bounds");
        // SAFETY: cells are layout-identical to f32 and the caller
        // guarantees exclusive ownership of the range (see above).
        unsafe { std::slice::from_raw_parts_mut(self.0[start].as_ptr(), n) }
    }
}

/// Dynamic enforcement of the disjoint-store contract: one atomic
/// owner record per output element, claimed by the first block that
/// stores there. A second block claiming the same element means the
/// contract the `unsafe impl Sync` relies on is violated — panic
/// deterministically instead of racing. Active in every debug build
/// and, via `CORA_CHECK_DISJOINT=1` (see [`dynamic_check_enabled`]),
/// in release builds as the verifier's runtime cross-check.
struct OutOwners(Vec<AtomicI64>);

impl OutOwners {
    const UNCLAIMED: i64 = i64::MIN;

    fn new(len: usize) -> OutOwners {
        OutOwners((0..len).map(|_| AtomicI64::new(Self::UNCLAIMED)).collect())
    }

    fn claim(&self, idx: usize, block: i64) {
        if let Err(owner) = self.0[idx].compare_exchange(
            Self::UNCLAIMED,
            block,
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            assert!(
                owner == block,
                "disjoint-store contract violated: blocks {owner} and {block} \
                 both stored to output element {idx}"
            );
        }
    }
}

/// A parallel worker's [`OutPort`]: the shared output, with every store
/// checked — bounds, then certificate membership, then the owner
/// tracker — before the cell is written.
struct WorkerOut<'a> {
    out: &'a SharedOut<'a>,
    /// The output buffer's name (bounds diagnostics).
    name: &'a str,
    /// Per-element owner records, when the dynamic tracker is active
    /// (debug builds, or release under `CORA_CHECK_DISJOINT=1`).
    owners: Option<&'a OutOwners>,
    /// Block-variable value currently executing (owner records and
    /// certificate diagnostics).
    cur_block: i64,
    /// The certified store regions of `cur_block` under
    /// [`VmShared::run_blocks_proven`]; `None` only for the in-module
    /// uncertified runs.
    regions: Option<&'a [SInt]>,
}

impl WorkerOut<'_> {
    #[inline]
    fn bounds_check(&self, idx: usize) {
        assert!(
            idx < self.out.0.len(),
            "index {idx} out of bounds for output `{}` (len {})",
            self.name,
            self.out.0.len()
        );
    }

    #[inline]
    fn claim(&self, idx: usize) {
        self.bounds_check(idx);
        if let Some(regions) = self.regions {
            assert!(
                regions.iter().any(|r| r.contains(idx as i64)),
                "store to output element {idx} outside block {}'s certified regions",
                self.cur_block
            );
        }
        if let Some(owners) = self.owners {
            owners.claim(idx, self.cur_block);
        }
    }

    /// [`WorkerOut::claim`] for a dense run `[o0, o0 + n)` — the
    /// chunked store paths. Certificate membership is checked once per
    /// run ([`SInt::contains_run`]); owner records still claim each
    /// element when the tracker is active.
    #[inline]
    fn claim_run(&self, o0: usize, n: usize) {
        if n == 0 {
            return;
        }
        self.bounds_check(o0 + n - 1);
        if let Some(regions) = self.regions {
            assert!(
                regions.iter().any(|r| r.contains_run(o0 as i64, n as i64)),
                "store run [{o0}, {}) outside block {}'s certified regions",
                o0 + n,
                self.cur_block
            );
        }
        if let Some(owners) = self.owners {
            for idx in o0..o0 + n {
                owners.claim(idx, self.cur_block);
            }
        }
    }
}

impl OutPort for WorkerOut<'_> {
    /// Reads of the shared output go through [`OutPort::get`], element
    /// by element.
    #[inline]
    fn ro(&self) -> Option<&[f32]> {
        None
    }

    #[inline]
    fn get(&self, idx: usize) -> f32 {
        self.bounds_check(idx);
        self.out.get(idx)
    }

    #[inline]
    fn set(&mut self, idx: usize, v: f32) {
        self.claim(idx);
        self.out.set(idx, v);
    }

    #[inline]
    fn rmw(&mut self, idx: usize, f: impl FnOnce(f32) -> f32) {
        self.claim(idx);
        self.out.set(idx, f(self.out.get(idx)));
    }

    #[allow(unsafe_code)] // exclusive run view of the shared output; see SAFETY below
    fn run_mut(&mut self, o0: usize, n: usize) -> &mut [f32] {
        if n == 0 {
            return &mut [];
        }
        self.claim_run(o0, n);
        // SAFETY: this block stores to exactly `[o0, o0 + n)` of the
        // output (checked against the certificate and claimed above
        // when the tracker is active); under the disjoint-store
        // contract no other block accesses those elements, so the view
        // is exclusive.
        unsafe { self.out.slice_mut(o0, n) }
    }

    fn reject_input_store(name: &str) -> ! {
        // The outliner rejects such programs statically; reaching this
        // means a compiler bug, not a user error.
        panic!("parallel block stored to shared input buffer `{name}`")
    }
}

impl VmShared {
    /// Executes the program once per block index, in parallel, under a
    /// machine-checked disjoint-store certificate — the one public
    /// parallel entry point, and a *safe* one.
    ///
    /// `blocks` holds *values of the block variable* (`min + b`) in
    /// dispatch order and `batches` cuts it into consecutive
    /// cost-balanced ranges; each batch runs on one participant of
    /// `pool`, with its own registers, loop variables and `Alloc`
    /// scratch. `inputs` binds the read-only float buffers
    /// by name (bindings the program never references are ignored); all
    /// stores land in `out`, bound to the `output` buffer slot.
    /// Per-worker [`InterpStats`] are summed, so the aggregate equals a
    /// serial run's statistics exactly (the counters are plain sums).
    ///
    /// Soundness is enforced, not assumed: [`StoreCert::new`] has
    /// already re-validated that distinct blocks' certified regions are
    /// pairwise disjoint, and every output store is checked for
    /// membership in the executing block's regions before it lands. A
    /// store outside its certificate — i.e. any disagreement between
    /// the static verifier (`cora_core::verify`, which records the
    /// certificate in a session's `VerifyOutcome`) and the actual
    /// execution — panics deterministically before the write, so no
    /// interleaving can produce a data race. That is what makes this
    /// function safe to expose despite the internal `unsafe` dispatch.
    ///
    /// # Panics
    ///
    /// Panics if `block_var` or `output` are unknown to the program, if
    /// the program reads the output buffer back, if any other external
    /// binding is missing, on any store outside the executing block's
    /// certified regions, or if the program itself panics
    /// (out-of-bounds access, negative index) — propagated after the
    /// region drains.
    #[allow(unsafe_code)] // contains the one audited unsafe dispatch; see SAFETY below
    #[allow(clippy::too_many_arguments)]
    pub fn run_blocks_proven(
        &self,
        pool: &CpuPool,
        block_var: &str,
        output: &str,
        out: &mut [f32],
        inputs: &[(&str, &[f32])],
        blocks: &[i64],
        batches: &[Range<usize>],
        cert: &StoreCert,
    ) -> InterpStats {
        // SAFETY: every output store is checked against the executing
        // block's certified regions before it happens, and the regions
        // of distinct blocks are pairwise disjoint by `StoreCert`'s
        // construction-time validation — so two threads can never touch
        // the same output element (stores or read-modify-writes), which
        // is exactly the `run_blocks` contract.
        unsafe {
            self.run_blocks(
                pool,
                block_var,
                output,
                out,
                inputs,
                blocks,
                batches,
                Some(cert),
            )
        }
    }

    /// The dispatch behind [`VmShared::run_blocks_proven`]; with
    /// `cert == None` stores are checked only by the dynamic tracker.
    ///
    /// # Safety
    ///
    /// The caller must guarantee the disjoint-store contract: across all
    /// of `blocks`, distinct block-variable values store to disjoint
    /// elements of `out` and never load another block's elements (see
    /// [`SharedOut`]). A certificate discharges it. Without one, two
    /// helpers reduce the obligation but do not discharge it: in-place
    /// programs (output loaded *and* stored) are rejected up front, and
    /// the dynamic tracker (debug builds, or release under
    /// `CORA_CHECK_DISJOINT=1`) records each output element's owning
    /// block, panicking deterministically on any cross-block overlap —
    /// untracked release builds run unchecked, so a violated contract
    /// is a data race (undefined behaviour).
    #[allow(unsafe_code)]
    #[allow(clippy::too_many_arguments)]
    unsafe fn run_blocks(
        &self,
        pool: &CpuPool,
        block_var: &str,
        output: &str,
        out: &mut [f32],
        inputs: &[(&str, &[f32])],
        blocks: &[i64],
        batches: &[Range<usize>],
        cert: Option<&StoreCert>,
    ) -> InterpStats {
        let prog = &*self.prog;
        let s = &prog.slots;
        let block_slot = s
            .free_vars
            .get(block_var)
            .unwrap_or_else(|| panic!("unknown block variable `{block_var}`"));
        let out_slot = s
            .free_fbufs
            .get(output)
            .unwrap_or_else(|| panic!("unknown output buffer `{output}`"));
        // An in-place program could read elements another block is
        // writing — reject it here (not just in the outliner) so the
        // race is unreachable through this entry point.
        assert!(
            !s.fbuf_is_inplace(output),
            "program both loads and stores output `{output}`; \
             the parallel tier forbids in-place output access"
        );
        let mut views: Vec<Option<&[f32]>> = vec![None; s.free_fbufs.len()];
        for (name, buf) in inputs {
            if let Some(slot) = s.free_fbufs.get(name) {
                views[slot as usize] = Some(buf);
            }
        }
        self.check_bound(Some(block_slot), |i| {
            views[i].is_some() || i == out_slot as usize
        });
        let owners = dynamic_check_enabled().then(|| OutOwners::new(out.len()));
        let shared_out = SharedOut::new(out);
        let total = Mutex::new(InterpStats::default());
        pool.parallel_for(batches.len(), |bi| {
            let free = views.iter().enumerate().map(|(i, view)| {
                if i == out_slot as usize {
                    Slot::Out(WorkerOut {
                        out: &shared_out,
                        name: output,
                        owners: owners.as_ref(),
                        cur_block: 0,
                        regions: None,
                    })
                } else {
                    Slot::In(view.expect("checked bound"))
                }
            });
            let mut bufs = Bufs::new(prog, free);
            let mut regs = Regs::new(prog, &self.vars);
            let mut stats = InterpStats::default();
            for &bv in &blocks[batches[bi].clone()] {
                regs.vars[block_slot as usize] = bv;
                let port = bufs.port_mut(out_slot);
                port.cur_block = bv;
                port.regions = cert.map(|c| c.regions_for(bv));
                dispatch(prog, &self.ibufs, &mut regs, &mut bufs, &mut stats);
            }
            let mut t = total.lock().unwrap_or_else(|e| e.into_inner());
            *t += stats;
        });
        total.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use cora_ir::{Expr, FExpr, ForKind, Stmt, StoreKind};

    use super::super::compile;
    use super::super::testutil::outlined_doubling_body;
    use super::*;

    /// The uncertified dispatch: stores are checked only by the dynamic
    /// tracker (always on in these debug-profile tests).
    fn run_raw(
        shared: &VmShared,
        pool: &CpuPool,
        block_var: &str,
        output: &str,
        out: &mut [f32],
        inputs: &[(&str, &[f32])],
        batches: &[Vec<i64>],
    ) -> InterpStats {
        // SAFETY: each caller either upholds the disjoint-store contract
        // or deliberately violates it to check the guards, which fire
        // before any racing write (in-place rejection up front; debug
        // owner check before the store).
        let (blocks, ranges) = flat(batches);
        #[allow(unsafe_code)]
        unsafe {
            shared.run_blocks(pool, block_var, output, out, inputs, &blocks, &ranges, None)
        }
    }

    /// Nested batches as the flat `(blocks, ranges)` pair the dispatch
    /// takes.
    fn flat(batches: &[Vec<i64>]) -> (Vec<i64>, Vec<Range<usize>>) {
        let mut ranges = Vec::new();
        let mut at = 0;
        for b in batches {
            ranges.push(at..at + b.len());
            at += b.len();
        }
        (batches.concat(), ranges)
    }

    /// The doubling body's binding table for the 4-row ragged shape.
    fn doubling_shared() -> VmShared {
        let mut shared = Arc::new(compile(&outlined_doubling_body())).shared();
        shared.set_ibuffer("lens", vec![5, 0, 3, 2]);
        shared.set_ibuffer("row", vec![0, 5, 5, 8]);
        shared
    }

    /// Runs `outlined_doubling_body` serially (block loop on one machine)
    /// and in parallel over `batches`, asserting identical outputs and
    /// stats.
    fn parallel_matches_serial(pool: &CpuPool, batches: &[Vec<i64>]) {
        let n = 10usize;
        let input: Vec<f32> = (0..n).map(|x| x as f32 - 4.5).collect();

        // Serial reference: wrap the body in the block loop.
        let serial = Stmt::loop_kind(
            "b",
            Expr::int(4),
            ForKind::GpuBlockX,
            outlined_doubling_body(),
        );
        let mut sm = Arc::new(compile(&serial)).machine();
        sm.set_ibuffer("lens", vec![5, 0, 3, 2]);
        sm.set_ibuffer("row", vec![0, 5, 5, 8]);
        sm.set_fbuffer("A", input.clone());
        sm.set_fbuffer("B", vec![0.0; n]);
        sm.run();

        // Parallel: compile only the body; `b` becomes a free variable.
        let shared = doubling_shared();
        let mut out = vec![0.0f32; n];
        let stats = run_raw(&shared, pool, "b", "B", &mut out, &[("A", &input)], batches);

        assert_eq!(sm.fbuffer("B").unwrap(), out.as_slice());
        // The serial program additionally charges the block loop's own
        // bound evaluation (a constant here: zero aux loads), so the sums
        // must line up exactly.
        assert_eq!(sm.stats, stats);
    }

    #[test]
    fn run_blocks_matches_serial_execution() {
        let pool = CpuPool::new(4);
        parallel_matches_serial(&pool, &[vec![0], vec![1], vec![2], vec![3]]);
        parallel_matches_serial(&pool, &[vec![3, 1], vec![0, 2]]);
        parallel_matches_serial(&pool, &[vec![0, 1, 2, 3]]);
    }

    #[test]
    fn run_blocks_zero_batches_is_noop() {
        let shared = doubling_shared();
        let mut out = vec![7.0f32];
        let pool = CpuPool::new(2);
        let stats = run_raw(&shared, &pool, "b", "B", &mut out, &[("A", &[1.0])], &[]);
        assert_eq!(stats, InterpStats::default());
        assert_eq!(out, vec![7.0]);
    }

    /// The row partition of `outlined_doubling_body`: block `b` owns
    /// `[row[b], row[b] + lens[b])`.
    fn doubling_spans() -> Vec<(i64, SInt)> {
        let lens = [5i64, 0, 3, 2];
        let row = [0i64, 5, 5, 8];
        (0..4usize)
            .map(|b| (b as i64, SInt::range(row[b], row[b] + lens[b] - 1)))
            .collect()
    }

    fn doubling_cert() -> StoreCert {
        StoreCert::new(doubling_spans()).expect("rows are disjoint")
    }

    #[test]
    fn run_blocks_proven_matches_unsafe_entry_point() {
        let input: Vec<f32> = (0..10).map(|x| x as f32 - 4.5).collect();
        let inputs: [(&str, &[f32]); 1] = [("A", &input)];
        let shared = doubling_shared();
        let pool = CpuPool::new(3);
        let batches = vec![vec![0, 2], vec![1, 3]];
        let (blocks, ranges) = flat(&batches);
        let mut reference = vec![0.0f32; 10];
        let ref_stats = run_raw(&shared, &pool, "b", "B", &mut reference, &inputs, &batches);
        let mut proven = vec![0.0f32; 10];
        let cert = doubling_cert();
        let stats = shared.run_blocks_proven(
            &pool,
            "b",
            "B",
            &mut proven,
            &inputs,
            &blocks,
            &ranges,
            &cert,
        );
        assert_eq!(proven, reference);
        assert_eq!(stats, ref_stats);
    }

    /// Runs every block of the doubling body under `cert`.
    fn run_doubling_under(cert: &StoreCert) {
        let shared = doubling_shared();
        let mut out = vec![0.0f32; 10];
        let (blocks, ranges) = flat(&[vec![0, 1, 2, 3]]);
        let pool = CpuPool::new(2);
        shared.run_blocks_proven(
            &pool,
            "b",
            "B",
            &mut out,
            &[("A", &[1.0; 10])],
            &blocks,
            &ranges,
            cert,
        );
    }

    #[test]
    #[should_panic(expected = "outside block 3's certified regions")]
    fn run_blocks_proven_rejects_uncertified_stores() {
        // A certificate that certifies every block except 3: the store
        // must panic before it lands, not race.
        let mut spans = doubling_spans();
        spans.retain(|&(b, _)| b != 3);
        run_doubling_under(&StoreCert::new(spans).unwrap());
    }

    #[test]
    #[should_panic(expected = "store run [8, 10) outside block 3's certified regions")]
    fn run_blocks_proven_rejects_a_certificate_shifted_by_one_element() {
        // Block 3 stores [8, 9]; certify [9, 10] instead — still a valid
        // (pairwise disjoint) certificate, so only the per-store check
        // can catch it, at the block's first store.
        let mut spans = doubling_spans();
        spans[3].1 = SInt::range(9, 10);
        run_doubling_under(&StoreCert::new(spans).unwrap());
    }

    #[test]
    fn run_blocks_gives_each_worker_private_scratch() {
        // Each block fills a scratch tile with its own block index and
        // reduces it into its private output cell; racing scratch would
        // corrupt the sums.
        let fill = Stmt::loop_(
            "i",
            Expr::int(8),
            Stmt::store("tile", Expr::var("i"), FExpr::cast(Expr::var("b"))),
        );
        let acc = Stmt::loop_(
            "i",
            Expr::int(8),
            Stmt::Store {
                buffer: "out".into(),
                index: Expr::var("b"),
                value: FExpr::load("tile", Expr::var("i")),
                kind: StoreKind::AddAssign,
            },
        );
        let body = Stmt::Alloc {
            buffer: "tile".into(),
            size: Expr::int(8),
            body: Box::new(fill.then(acc)),
        };
        let shared = Arc::new(compile(&body)).shared();
        let mut out = vec![0.0f32; 16];
        let batches: Vec<Vec<i64>> = (0..16).map(|b| vec![b]).collect();
        run_raw(
            &shared,
            &CpuPool::new(4),
            "b",
            "out",
            &mut out,
            &[],
            &batches,
        );
        let want: Vec<f32> = (0..16).map(|b| 8.0 * b as f32).collect();
        assert_eq!(out, want);
    }

    /// Two single-block batches over a 2-thread pool.
    fn run_two_blocks(shared: &VmShared, output: &str, out: &mut [f32], inputs: &[(&str, &[f32])]) {
        let batches = [vec![0], vec![1]];
        run_raw(shared, &CpuPool::new(2), "b", output, out, inputs, &batches);
    }

    #[test]
    #[should_panic(expected = "forbids in-place output access")]
    fn run_blocks_rejects_inplace_output_programs() {
        // out[b] = out[1 - b] * 2: block 0 would read the element block 1
        // writes — rejected up front, in release builds too.
        let body = Stmt::store(
            "out",
            Expr::var("b"),
            FExpr::load("out", Expr::int(1) - Expr::var("b")) * 2.0,
        );
        let shared = Arc::new(compile(&body)).shared();
        run_two_blocks(&shared, "out", &mut [0.0; 2], &[]);
    }

    #[test]
    #[cfg(debug_assertions)]
    fn cross_block_store_overlap_panics_in_debug() {
        // Both blocks store to out[0]: the disjoint-store contract is
        // violated, and debug builds must fail deterministically instead
        // of racing.
        let body = Stmt::store("out", Expr::int(0), FExpr::cast(Expr::var("b")));
        let shared = Arc::new(compile(&body)).shared();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_two_blocks(&shared, "out", &mut [0.0; 1], &[]);
        }));
        let payload = r.expect_err("overlapping stores must panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            msg.contains("disjoint-store contract violated"),
            "unexpected panic payload: {msg}"
        );
    }

    #[test]
    #[should_panic(expected = "missing auxiliary buffer `lens`")]
    fn run_blocks_checks_bindings() {
        let mut shared = Arc::new(compile(&outlined_doubling_body())).shared();
        shared.set_ibuffer("row", vec![0]);
        let pool = CpuPool::new(1);
        run_raw(
            &shared,
            &pool,
            "b",
            "B",
            &mut [0.0],
            &[("A", &[1.0])],
            &[vec![0]],
        );
    }

    #[test]
    #[should_panic(expected = "unknown block variable `nope`")]
    fn run_blocks_rejects_unknown_block_var() {
        let shared = Arc::new(compile(&outlined_doubling_body())).shared();
        run_raw(&shared, &CpuPool::new(1), "nope", "B", &mut [0.0], &[], &[]);
    }

    #[test]
    fn run_blocks_propagates_body_panics() {
        // Block 1 indexes `lens` out of bounds; the panic must reach the
        // caller instead of poisoning the pool.
        let mut shared = Arc::new(compile(&outlined_doubling_body())).shared();
        shared.set_ibuffer("lens", vec![1]);
        shared.set_ibuffer("row", vec![0]);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_two_blocks(&shared, "B", &mut [0.0; 2], &[("A", &[1.0, 2.0])]);
        }));
        assert!(r.is_err(), "out-of-bounds block must panic the caller");
    }
}
