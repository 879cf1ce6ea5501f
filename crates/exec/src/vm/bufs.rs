//! The one float-buffer view the dispatch loop runs over.
//!
//! A [`Bufs`] is a slot table: every free float buffer of the program is
//! either a read-only slice ([`Slot::In`]) or a *written* buffer reached
//! through an [`OutPort`] ([`Slot::Out`]); every `Alloc` site is private
//! scratch ([`Slot::Scratch`]). The element accessors and the two fused
//! fast paths (chunk store, whole-nest kernel) are written once, here,
//! and monomorphised over the port:
//!
//! * serial runs use the exclusive-slice port (`&mut [f32]`) — the
//!   borrowed entry point binds caller storage, and the owned
//!   [`VmMachine`](super::VmMachine) is the same view over its own
//!   `Vec`s;
//! * parallel workers use the certificate-checked port over the shared
//!   output ([`super::parallel`]), which is where every `unsafe` access
//!   lives.

use cora_ir::StoreKind;

use super::isa::{fbuf_name, VmProgram};

/// Access to one *written* free float buffer. The dispatch loop never
/// sees the representation: an exclusive slice for serial runs, the
/// shared output checked per store for parallel workers.
pub(super) trait OutPort {
    /// Contiguous read-only view, when reads need no per-element check
    /// (`None` sends the fused fast paths through [`OutPort::get`]).
    fn ro(&self) -> Option<&[f32]>;

    /// Element load.
    fn get(&self, idx: usize) -> f32;

    /// Element store.
    fn set(&mut self, idx: usize, v: f32);

    /// Element read-modify-write (`+=`, `max=`).
    fn rmw(&mut self, idx: usize, f: impl FnOnce(f32) -> f32);

    /// Exclusive view of the dense run `[o0, o0 + n)` — the chunked
    /// store sweeps and panel kernels write through it.
    fn run_mut(&mut self, o0: usize, n: usize) -> &mut [f32];

    /// The panic for a store to the free buffer `name` bound read-only.
    fn reject_input_store(name: &str) -> !;
}

/// The serial port: the caller's exclusive slice, bounds-checked by
/// ordinary indexing.
impl OutPort for &mut [f32] {
    #[inline]
    fn ro(&self) -> Option<&[f32]> {
        Some(self)
    }

    #[inline]
    fn get(&self, idx: usize) -> f32 {
        self[idx]
    }

    #[inline]
    fn set(&mut self, idx: usize, v: f32) {
        self[idx] = v;
    }

    #[inline]
    fn rmw(&mut self, idx: usize, f: impl FnOnce(f32) -> f32) {
        let cell = &mut self[idx];
        *cell = f(*cell);
    }

    #[inline]
    fn run_mut(&mut self, o0: usize, n: usize) -> &mut [f32] {
        &mut self[o0..o0 + n]
    }

    fn reject_input_store(name: &str) -> ! {
        panic!("program stores to buffer `{name}`, which was bound read-only")
    }
}

/// One float-buffer slot of a [`Bufs`] table.
pub(super) enum Slot<'a, P> {
    /// A free buffer bound read-only.
    In(&'a [f32]),
    /// A free buffer the program may store to.
    Out(P),
    /// An `Alloc` site: scratch private to this execution.
    Scratch(Vec<f32>),
}

impl<P: OutPort> Slot<'_, P> {
    /// Contiguous read-only view, when one exists.
    #[inline]
    fn ro(&self) -> Option<&[f32]> {
        match self {
            Slot::In(b) => Some(b),
            Slot::Out(p) => p.ro(),
            Slot::Scratch(b) => Some(b),
        }
    }
}

/// Every slot of a table except the one a fast path is writing: the
/// operand view [`Bufs::with_out_run`] hands out beside the exclusive
/// output run.
struct Operands<'s, 'a, P> {
    /// Slots below the output slot.
    lo: &'s [Slot<'a, P>],
    /// Slots above it.
    hi: &'s [Slot<'a, P>],
}

impl<P: OutPort> Operands<'_, '_, P> {
    /// [`Bufs::ro`] of an operand slot.
    #[inline]
    fn ro(&self, slot: u32) -> Option<&[f32]> {
        let (slot, out) = (slot as usize, self.lo.len());
        assert_ne!(slot, out, "aliasing fused-loop operands");
        if slot < out {
            self.lo[slot].ro()
        } else {
            self.hi[slot - out - 1].ro()
        }
    }
}

/// The float-buffer view of one execution: free slots first (in census
/// order), then one scratch slot per `Alloc` site.
pub(super) struct Bufs<'a, P> {
    prog: &'a VmProgram,
    slots: Vec<Slot<'a, P>>,
}

impl<'a, P: OutPort> Bufs<'a, P> {
    /// Builds the view from one binding per free float-buffer slot.
    pub(super) fn new(prog: &'a VmProgram, free: impl Iterator<Item = Slot<'a, P>>) -> Self {
        let mut slots: Vec<Slot<'a, P>> = free.collect();
        debug_assert_eq!(slots.len(), prog.slots.free_fbufs.len());
        slots.resize_with(prog.slots.fbuf_slot_count(), || Slot::Scratch(Vec::new()));
        Bufs { prog, slots }
    }

    /// The port of a slot bound [`Slot::Out`].
    pub(super) fn port_mut(&mut self, slot: u32) -> &mut P {
        match &mut self.slots[slot as usize] {
            Slot::Out(p) => p,
            _ => unreachable!("slot {slot} was bound as an output"),
        }
    }

    #[inline]
    pub(super) fn get(&self, slot: u32, idx: usize) -> f32 {
        match &self.slots[slot as usize] {
            Slot::In(b) => b[idx],
            Slot::Out(p) => p.get(idx),
            Slot::Scratch(b) => b[idx],
        }
    }

    #[inline]
    pub(super) fn set(&mut self, slot: u32, idx: usize, v: f32) {
        match &mut self.slots[slot as usize] {
            Slot::Out(p) => p.set(idx, v),
            Slot::Scratch(b) => b[idx] = v,
            Slot::In(_) => P::reject_input_store(&fbuf_name(self.prog, slot)),
        }
    }

    #[inline]
    pub(super) fn rmw(&mut self, slot: u32, idx: usize, f: impl FnOnce(f32) -> f32) {
        match &mut self.slots[slot as usize] {
            Slot::Out(p) => p.rmw(idx, f),
            Slot::Scratch(b) => {
                let cell = &mut b[idx];
                *cell = f(*cell);
            }
            Slot::In(_) => P::reject_input_store(&fbuf_name(self.prog, slot)),
        }
    }

    /// (Re)allocates an `Alloc` site as `n` zeroes.
    pub(super) fn alloc(&mut self, slot: u32, n: usize) {
        match &mut self.slots[slot as usize] {
            Slot::Scratch(b) => {
                b.clear();
                b.resize(n, 0.0);
            }
            _ => panic!("alloc of non-scratch slot `{}`", fbuf_name(self.prog, slot)),
        }
    }

    /// Contiguous read-only view of a slot, when one exists (used by the
    /// fused-loop fast paths; `None` falls back to per-element `get`).
    #[inline]
    pub(super) fn ro(&self, slot: u32) -> Option<&[f32]> {
        self.slots[slot as usize].ro()
    }

    /// Runs `f` over the exclusive run `[o0, o0 + n)` of slot `out`,
    /// beside a read view of every *other* slot (the table is split
    /// around `out`, so nothing is moved or copied). Returns `false` —
    /// the caller falls back to per-element stores, which raise the
    /// canonical read-only panic — without calling `f` when `out` is
    /// bound read-only, else `f`'s verdict.
    #[inline]
    fn with_out_run(
        &mut self,
        out: u32,
        o0: usize,
        n: usize,
        f: impl FnOnce(&mut [f32], Operands<'_, 'a, P>) -> bool,
    ) -> bool {
        let (lo, rest) = self.slots.split_at_mut(out as usize);
        let (slot, hi) = rest.split_first_mut().expect("census-checked slot");
        let others = Operands { lo, hi };
        match slot {
            Slot::In(_) => false,
            Slot::Out(p) => f(p.run_mut(o0, n), others),
            Slot::Scratch(b) => f(&mut b[o0..o0 + n], others),
        }
    }

    /// Stores a chunk of values into the contiguous range
    /// `out[o0 .. o0 + vals.len()]` under the given combine rule — the
    /// unit-stride store sweep of a fused map. Element order and the
    /// per-element float op are those of the serial store loop, so the
    /// result is bit-identical in every mode.
    pub(super) fn store_chunk(
        &mut self,
        out: u32,
        o0: usize,
        kind: StoreKind,
        vals: &[f32],
    ) -> bool {
        self.with_out_run(out, o0, vals.len(), |run, _| {
            match kind {
                StoreKind::Assign => run.copy_from_slice(vals),
                StoreKind::AddAssign => {
                    for (o, v) in run.iter_mut().zip(vals) {
                        *o += *v;
                    }
                }
                StoreKind::MaxAssign => {
                    for (o, v) in run.iter_mut().zip(vals) {
                        *o = o.max(*v);
                    }
                }
            }
            true
        })
    }

    /// Runs a whole-nest microkernel `f` over the exclusive output run
    /// `[o0, o0 + n)` of slot `out` beside contiguous read-only views of
    /// the operand slots `a` and `b`. Callers guarantee `out ∉ {a, b}`
    /// (validated at compile time) and a non-negative base. Returns
    /// `false` without calling `f` — the caller falls back to the
    /// element paths — when `out` is bound read-only or an operand has
    /// no contiguous view.
    pub(super) fn run_kernel(
        &mut self,
        out: u32,
        o0: usize,
        n: usize,
        [a, b]: [u32; 2],
        f: impl FnOnce(&mut [f32], &[f32], &[f32]),
    ) -> bool {
        self.with_out_run(out, o0, n, |run, others| {
            let (Some(av), Some(bv)) = (others.ro(a), others.ro(b)) else {
                return false;
            };
            f(run, av, bv);
            true
        })
    }
}
