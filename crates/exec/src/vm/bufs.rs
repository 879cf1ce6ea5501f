//! The one float-buffer view the dispatch loop runs over.
//!
//! A [`Bufs`] is a slot table: every free float buffer of the program is
//! either a read-only slice ([`Slot::In`]) or a *written* buffer reached
//! through an [`OutPort`] ([`Slot::Out`]); every `Alloc` site is private
//! scratch ([`Slot::Scratch`]). The element accessors and the fused
//! nest's split of the table ([`Bufs::split_out`]: the output's [`Sink`]
//! beside the operand views) are written once, here, and monomorphised
//! over the port:
//!
//! * serial runs use the exclusive-slice port (`&mut [f32]`) — the
//!   borrowed entry point binds caller storage, and the owned
//!   [`VmMachine`](super::VmMachine) is the same view over its own
//!   `Vec`s;
//! * parallel workers use the certificate-checked port over the shared
//!   output ([`super::parallel`]), which is where every `unsafe` access
//!   lives.
//!
//! Only a [`Slot::In`] is immutable for the whole execution, which is
//! what a kernel reusing a packed copy of an operand requires: the
//! whole-nest path tells its kernel whether `b` is bound that way. The
//! owned machine binds every buffer as written, so only the borrowed and
//! parallel entry points bind inputs that way.
//!
//! A chain dispatch ([`super::chain`]) keeps an intermediate buffer in a
//! per-worker *window*: the elements `[origin, origin + len)` one tile
//! stores, held at `index − origin`. The producing stage writes it
//! through a [`WindowOut`] port; later stages read it as
//! [`Slot::Win`]. Both take the program's absolute indices, so a stage's
//! bytecode runs unchanged over a window. A window's contents change
//! from tile to tile, so it never counts as [`Slot::In`].

use cora_ir::interval::SInt;

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

    /// Whether [`OutPort::run_mut`] may take the dense run `[o0, o0 + n)`
    /// whole: in bounds and, for a certificate-checked port, inside one
    /// of the executing tile's certified regions. Never panics; a port
    /// without a certificate to check against answers `false`.
    fn covers(&self, o0: usize, n: usize) -> bool;

    /// The panic for a store to the free buffer `name` bound read-only.
    fn reject_input_store(name: &str) -> !;

    /// Notes the block value about to run (store diagnostics).
    #[inline]
    fn enter_block(&mut self, _block: i64) {}
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

    #[inline]
    fn covers(&self, o0: usize, n: usize) -> bool {
        o0.checked_add(n).is_some_and(|end| end <= self.len())
    }

    fn reject_input_store(name: &str) -> ! {
        panic!("program stores to buffer `{name}`, which was bound read-only")
    }
}

/// A chain stage's output window: the elements `[origin, origin +
/// data.len())` of the producing stage's output for one tile, every
/// store checked against the tile's certified regions before it lands.
/// The window owns its storage, which is lent to the reading stages'
/// [`Slot::Win`]s between tiles ([`Bufs::window_mut`]).
pub(super) struct WindowOut<'a> {
    pub(super) data: Vec<f32>,
    pub(super) origin: usize,
    pub(super) regions: &'a [SInt],
    /// Block value currently executing (diagnostics).
    pub(super) block: i64,
}

impl WindowOut<'_> {
    /// The window offset of the run `[idx, idx + n)`, after checking it
    /// lies in the tile's certified regions.
    #[inline]
    fn at(&self, idx: usize, n: usize) -> usize {
        assert!(
            (self.regions.iter()).any(|r| r.contains_run(idx as i64, n as i64)),
            "store to window element {idx} outside block {}'s certified regions",
            self.block
        );
        idx - self.origin
    }
}

impl OutPort for WindowOut<'_> {
    #[inline]
    fn ro(&self) -> Option<&[f32]> {
        None
    }

    #[inline]
    fn get(&self, idx: usize) -> f32 {
        self.data[idx - self.origin]
    }

    #[inline]
    fn set(&mut self, idx: usize, v: f32) {
        let i = self.at(idx, 1);
        self.data[i] = v;
    }

    #[inline]
    fn rmw(&mut self, idx: usize, f: impl FnOnce(f32) -> f32) {
        let i = self.at(idx, 1);
        self.data[i] = f(self.data[i]);
    }

    #[inline]
    fn run_mut(&mut self, o0: usize, n: usize) -> &mut [f32] {
        if n == 0 {
            return &mut [];
        }
        let i = self.at(o0, n);
        &mut self.data[i..i + n]
    }

    #[inline]
    fn covers(&self, o0: usize, n: usize) -> bool {
        (self.regions.iter()).any(|r| r.contains_run(o0 as i64, n as i64))
    }

    fn reject_input_store(name: &str) -> ! {
        panic!("chain stage stored to input buffer `{name}`")
    }

    #[inline]
    fn enter_block(&mut self, block: i64) {
        self.block = block;
    }
}

/// One float-buffer slot of a [`Bufs`] table.
pub(super) enum Slot<'a, P> {
    /// A free buffer bound read-only.
    In(&'a [f32]),
    /// A read-only window of a buffer, `(data, origin)`: element `i` at
    /// `data[i − origin]`.
    Win(Vec<f32>, usize),
    /// A free buffer the program may store to.
    Out(P),
    /// An `Alloc` site: scratch private to this execution.
    Scratch(Vec<f32>),
}

impl<P: OutPort> Slot<'_, P> {
    /// Contiguous read-only view, when one exists, and the absolute
    /// index of its first element.
    #[inline]
    fn ro(&self) -> Option<(&[f32], usize)> {
        match self {
            Slot::In(b) => Some((b, 0)),
            Slot::Win(b, origin) => Some((b, *origin)),
            Slot::Scratch(b) => Some((b, 0)),
            Slot::Out(p) => p.ro().map(|b| (b, 0)),
        }
    }

    #[inline]
    fn get(&self, idx: usize) -> f32 {
        match self {
            Slot::In(b) => b[idx],
            Slot::Win(b, origin) => b[idx - origin],
            Slot::Out(p) => p.get(idx),
            Slot::Scratch(b) => b[idx],
        }
    }
}

/// Every slot of a table except the output of a fused nest: the
/// operand side [`Bufs::split_out`] hands out beside the output's
/// [`Sink`].
pub(super) struct Operands<'s, 'a, P> {
    /// Slots below the output slot.
    lo: &'s [Slot<'a, P>],
    /// Slots above it.
    hi: &'s [Slot<'a, P>],
}

impl<'s, 'a, P: OutPort> Operands<'s, 'a, P> {
    /// An operand slot.
    #[inline]
    fn slot(&self, slot: u32) -> &'s Slot<'a, P> {
        let (slot, out) = (slot as usize, self.lo.len());
        assert_ne!(slot, out, "aliasing fused-loop operands");
        let (lo, hi) = (self.lo, self.hi);
        if slot < out {
            &lo[slot]
        } else {
            &hi[slot - out - 1]
        }
    }

    /// The contiguous read-only view of an operand slot, when it has
    /// one, and the absolute index of its first element.
    #[inline]
    pub(super) fn ro(&self, slot: u32) -> Option<(&'s [f32], usize)> {
        self.slot(slot).ro()
    }

    /// Element load from an operand slot.
    #[inline]
    pub(super) fn get(&self, slot: u32, idx: usize) -> f32 {
        self.slot(slot).get(idx)
    }

    /// Whether an operand slot is bound [`Slot::In`]: a shared borrow
    /// held for as long as the table exists, so its contents cannot
    /// change during the execution — what lets the packed-panel kernel
    /// reuse a copy of it across nests. Written and scratch slots never
    /// qualify.
    #[inline]
    pub(super) fn is_input(&self, slot: u32) -> bool {
        matches!(self.slot(slot), Slot::In(_))
    }
}

/// Where the stores of one fused-nest execution land
/// ([`Bufs::split_out`]).
pub(super) enum Sink<'s, P> {
    /// The exclusive run `[origin, origin + run.len())`, claimed once
    /// and spanning every store of the execution: stores land with no
    /// further check.
    Run(&'s mut [f32], usize),
    /// A written buffer whose port checks every store as it lands —
    /// each row's, announced first ([`Sink::enter_block`]).
    Port(&'s mut P),
    /// The output, named, is bound read-only: every access is the port's
    /// read-only panic.
    ReadOnly(String),
}

impl<P: OutPort> Sink<'_, P> {
    /// Notes the block value about to run (store diagnostics; only a
    /// port that checks each store needs it).
    #[inline]
    pub(super) fn enter_block(&mut self, block: i64) {
        if let Sink::Port(p) = self {
            p.enter_block(block);
        }
    }

    /// The exclusive run `[o0, o0 + n)`, or `None` when the output is
    /// bound read-only (the element paths then raise the panic).
    #[inline]
    pub(super) fn run(&mut self, o0: usize, n: usize) -> Option<&mut [f32]> {
        match self {
            Sink::Run(run, origin) => Some(&mut run[o0 - *origin..][..n]),
            Sink::Port(p) => Some(p.run_mut(o0, n)),
            Sink::ReadOnly(_) => None,
        }
    }

    #[inline]
    pub(super) fn get(&self, idx: usize) -> f32 {
        match self {
            Sink::Run(run, origin) => run[idx - origin],
            Sink::Port(p) => p.get(idx),
            Sink::ReadOnly(name) => P::reject_input_store(name),
        }
    }

    #[inline]
    pub(super) fn set(&mut self, idx: usize, v: f32) {
        match self {
            Sink::Run(run, origin) => run[idx - *origin] = v,
            Sink::Port(p) => p.set(idx, v),
            Sink::ReadOnly(name) => P::reject_input_store(name),
        }
    }

    #[inline]
    pub(super) fn rmw(&mut self, idx: usize, f: impl FnOnce(f32) -> f32) {
        match self {
            Sink::Run(run, origin) => {
                let cell = &mut run[idx - *origin];
                *cell = f(*cell);
            }
            Sink::Port(p) => p.rmw(idx, f),
            Sink::ReadOnly(name) => P::reject_input_store(name),
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
    /// Builds the view from one binding per free float-buffer slot (the
    /// written ones the caller moves in for the execution).
    pub(super) fn new(prog: &'a VmProgram, free: impl Iterator<Item = Slot<'a, P>>) -> Self {
        let mut slots: Vec<Slot<'a, P>> = free.collect();
        debug_assert_eq!(slots.len(), prog.slots.free_fbufs.len());
        slots.resize_with(prog.slots.fbuf_slot_count(), || Slot::Scratch(Vec::new()));
        Bufs { prog, slots }
    }

    /// The storage and origin of a slot bound [`Slot::Win`], to lend a
    /// window in or take it back.
    pub(super) fn window_mut(&mut self, slot: u32) -> (&mut Vec<f32>, &mut usize) {
        match &mut self.slots[slot as usize] {
            Slot::Win(data, origin) => (data, origin),
            _ => unreachable!("slot {slot} was bound as a window"),
        }
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
        self.slots[slot as usize].get(idx)
    }

    #[inline]
    pub(super) fn set(&mut self, slot: u32, idx: usize, v: f32) {
        match &mut self.slots[slot as usize] {
            Slot::Out(p) => p.set(idx, v),
            Slot::Scratch(b) => b[idx] = v,
            Slot::In(_) | Slot::Win(..) => P::reject_input_store(&fbuf_name(self.prog, slot)),
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
            Slot::In(_) | Slot::Win(..) => P::reject_input_store(&fbuf_name(self.prog, slot)),
        }
    }

    /// Announces the block value about to run to the port of every
    /// written slot (store diagnostics).
    #[inline]
    pub(super) fn enter_block(&mut self, block: i64) {
        for slot in &mut self.slots {
            if let Slot::Out(p) = slot {
                p.enter_block(block);
            }
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

    /// Splits the table around the output slot `out` of a fused nest:
    /// where its stores land beside a read view of every *other* slot
    /// (nothing is moved or copied). A written buffer's port hands over
    /// the run `hull()` names — the dense run spanning every store of
    /// the execution — when it covers that run ([`OutPort::covers`]);
    /// otherwise, or when `hull()` is `None`, its port checks each store.
    /// Scratch is private to the execution, so it is always one run.
    /// `hull` is evaluated only for a written buffer.
    pub(super) fn split_out(
        &mut self,
        out: u32,
        hull: impl FnOnce() -> Option<(usize, usize)>,
    ) -> (Sink<'_, P>, Operands<'_, 'a, P>) {
        let (lo, rest) = self.slots.split_at_mut(out as usize);
        let (slot, hi) = rest.split_first_mut().expect("census-checked slot");
        let sink = match slot {
            Slot::In(_) | Slot::Win(..) => Sink::ReadOnly(fbuf_name(self.prog, out)),
            Slot::Scratch(b) => Sink::Run(b, 0),
            Slot::Out(p) => match hull() {
                Some((o0, n)) if p.covers(o0, n) => Sink::Run(p.run_mut(o0, n), o0),
                _ => Sink::Port(p),
            },
        };
        (sink, Operands { lo, hi })
    }
}
