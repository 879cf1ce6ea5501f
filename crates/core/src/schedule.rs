//! Scheduling primitives (§4.1).
//!
//! A [`Schedule`] is an ordered list of directives applied during lowering.
//! Alongside the dense primitives the executors implement (split, reorder,
//! and binding a loop to the block or thread axis), CoRa adds the
//! ragged-specific ones this module models:
//!
//! * [`Schedule::pad_loop`] — partial padding of vloops, legal only when
//!   storage padding covers it (checked during lowering);
//! * [`Schedule::fuse_loops`] — vloop fusion via prelude-built maps;
//! * [`Schedule::bulk_pad`] — pad a *fused* loop's total extent;
//! * operation splitting ([`crate::opsplit`]) and horizontal fusion are
//!   operator-level transforms;
//! * [`Schedule::thread_remap`] — load-balancing block permutations.

use cora_ir::ForKind;

/// Thread-remapping policies for the block-axis loop (§4.1, Fig. 15):
/// the order in which [`crate::program::dispatch_order`] hands blocks to
/// the simulated GPU and to the CPU parallel tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum RemapPolicy {
    /// Blocks dispatch in loop order.
    #[default]
    Identity,
    /// Blocks with the most work dispatch first (the policy used for trmm
    /// and the transformer kernels).
    LongestFirst,
}

/// One scheduling directive.
#[derive(Debug, Clone)]
pub enum Directive {
    /// Pad the named vloop's per-slice extents to a multiple.
    PadLoop {
        /// Loop to pad.
        loop_name: String,
        /// Padding multiple.
        multiple: usize,
    },
    /// Split the named loop by a factor into `<name>_o` / `<name>_i`.
    Split {
        /// Loop to split.
        loop_name: String,
        /// Inner extent.
        factor: usize,
    },
    /// Bind the named loop to an execution axis.
    Bind {
        /// Loop to bind.
        loop_name: String,
        /// Target axis.
        kind: ForKind,
    },
    /// Fuse an outer loop with an inner vloop into `<outer>_<inner>_f`,
    /// generating the `ffo`/`ffi`/`foif` prelude maps (§5.1).
    FuseLoops {
        /// Outer loop name.
        outer: String,
        /// Inner loop name (must be immediately inside `outer`).
        inner: String,
    },
    /// Pad the total extent of a fused loop to a multiple (bulk padding,
    /// §7.2).
    BulkPad {
        /// Fused loop name.
        loop_name: String,
        /// Padding multiple.
        multiple: usize,
    },
    /// Reorder the loop nest to the given permutation of the current
    /// loop names (outermost first). A vloop may not move outside the
    /// loop its extent depends on (§4.1's reordering restriction,
    /// checked during lowering).
    Reorder {
        /// Complete permutation of the current loop names.
        order: Vec<String>,
    },
    /// Set the thread-remapping policy for the block axis.
    ThreadRemap(RemapPolicy),
    /// Hoist loop-invariant auxiliary-array loads (§D.7).
    HoistLoads,
}

/// Errors raised when a schedule is illegal for its operator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// Named loop does not exist.
    UnknownLoop(String),
    /// `pad_loop` exceeds the output tensor's storage padding: the padded
    /// loop nest would access non-existent storage (§4.1's legality rule).
    LoopPaddingExceedsStorage {
        /// The loop at fault.
        loop_name: String,
        /// Loop padding requested.
        loop_pad: usize,
        /// Storage padding available.
        storage_pad: usize,
    },
    /// Fusion partners are not adjacent (inner must be directly inside
    /// outer).
    NonAdjacentFusion {
        /// Outer loop name.
        outer: String,
        /// Inner loop name.
        inner: String,
    },
    /// A vloop was asked to move outside the loop its bound depends on —
    /// the reordering CoRa "currently does not allow" (§4.1).
    VloopReorderedPastDependence {
        /// The vloop at fault.
        loop_name: String,
    },
    /// Splitting a vloop without padding it to a multiple of the factor
    /// requires guards the current lowering refuses to silently add.
    SplitUnpaddedVloop {
        /// The loop at fault.
        loop_name: String,
        /// Requested split factor.
        factor: usize,
    },
    /// A loop bound to a GPU block axis sits where the parallel outliner
    /// cannot hoist it — nested inside a serial loop, guard, statement
    /// sequence or allocation, or storing in a way whose disjointness
    /// across blocks cannot be established. The compiled-parallel tier
    /// surfaces this instead of silently running serially.
    BlockAxisNotOutlinable {
        /// The block-bound loop at fault.
        loop_name: String,
        /// Why outlining is impossible.
        reason: String,
    },
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::UnknownLoop(n) => write!(f, "unknown loop `{n}`"),
            ScheduleError::LoopPaddingExceedsStorage {
                loop_name,
                loop_pad,
                storage_pad,
            } => write!(
                f,
                "loop `{loop_name}` padded to multiple of {loop_pad} but storage padding is only {storage_pad}; storage padding must be at least the loop padding"
            ),
            ScheduleError::NonAdjacentFusion { outer, inner } => {
                write!(f, "cannot fuse non-adjacent loops `{outer}` and `{inner}`")
            }
            ScheduleError::VloopReorderedPastDependence { loop_name } => write!(
                f,
                "vloop `{loop_name}` cannot be reordered outside the loop its bound depends on"
            ),
            ScheduleError::SplitUnpaddedVloop { loop_name, factor } => write!(
                f,
                "vloop `{loop_name}` must be padded to a multiple of {factor} before splitting by {factor}"
            ),
            ScheduleError::BlockAxisNotOutlinable { loop_name, reason } => write!(
                f,
                "block-bound loop `{loop_name}` cannot be outlined for parallel execution: {reason}"
            ),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// An ordered schedule.
#[derive(Debug, Clone, Default)]
pub struct Schedule {
    directives: Vec<Directive>,
}

impl Schedule {
    /// Creates an empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// The directives in application order.
    pub fn directives(&self) -> &[Directive] {
        &self.directives
    }

    /// Pads a vloop's extents to a multiple (§4.1 "Loop and Storage
    /// Padding").
    pub fn pad_loop(&mut self, loop_name: impl Into<String>, multiple: usize) -> &mut Self {
        assert!(multiple > 0, "padding multiple must be positive");
        self.directives.push(Directive::PadLoop {
            loop_name: loop_name.into(),
            multiple,
        });
        self
    }

    /// Splits a loop by `factor`.
    pub fn split(&mut self, loop_name: impl Into<String>, factor: usize) -> &mut Self {
        assert!(factor > 0, "split factor must be positive");
        self.directives.push(Directive::Split {
            loop_name: loop_name.into(),
            factor,
        });
        self
    }

    /// Binds a loop to an execution axis.
    pub fn bind(&mut self, loop_name: impl Into<String>, kind: ForKind) -> &mut Self {
        self.directives.push(Directive::Bind {
            loop_name: loop_name.into(),
            kind,
        });
        self
    }

    /// Fuses two adjacent loops (outer, inner vloop) — §5.1.
    pub fn fuse_loops(&mut self, outer: impl Into<String>, inner: impl Into<String>) -> &mut Self {
        self.directives.push(Directive::FuseLoops {
            outer: outer.into(),
            inner: inner.into(),
        });
        self
    }

    /// Bulk-pads a fused loop's total extent to a multiple.
    pub fn bulk_pad(&mut self, loop_name: impl Into<String>, multiple: usize) -> &mut Self {
        assert!(multiple > 0, "padding multiple must be positive");
        self.directives.push(Directive::BulkPad {
            loop_name: loop_name.into(),
            multiple,
        });
        self
    }

    /// Reorders the loop nest to the given permutation of the current
    /// loop names, outermost first (classic `reorder`; the paper's §4.1
    /// restriction that a vloop may not move outside its dependence is
    /// checked during lowering). Reordering only reduction loops against
    /// spatial loops is always value-preserving for `+=`/`max=`
    /// reductions; it changes cache behaviour and which loop is
    /// innermost (and hence fusable by the VM).
    pub fn reorder(&mut self, order: &[&str]) -> &mut Self {
        self.directives.push(Directive::Reorder {
            order: order.iter().map(|s| s.to_string()).collect(),
        });
        self
    }

    /// Sets the thread-remap policy.
    pub fn thread_remap(&mut self, policy: RemapPolicy) -> &mut Self {
        self.directives.push(Directive::ThreadRemap(policy));
        self
    }

    /// Enables auxiliary-load hoisting.
    pub fn hoist_loads(&mut self) -> &mut Self {
        self.directives.push(Directive::HoistLoads);
        self
    }

    /// The configured remap policy (last directive wins).
    pub fn remap_policy(&self) -> RemapPolicy {
        self.directives
            .iter()
            .rev()
            .find_map(|d| match d {
                Directive::ThreadRemap(p) => Some(*p),
                _ => None,
            })
            .unwrap_or_default()
    }

    /// True if load hoisting was requested.
    pub fn hoisting_enabled(&self) -> bool {
        self.directives
            .iter()
            .any(|d| matches!(d, Directive::HoistLoads))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_records_in_order() {
        let mut s = Schedule::new();
        s.pad_loop("i", 2)
            .split("o", 4)
            .bind("o_o", ForKind::GpuBlockX);
        assert_eq!(s.directives().len(), 3);
        assert!(matches!(
            s.directives()[0],
            Directive::PadLoop { ref loop_name, multiple: 2 } if loop_name == "i"
        ));
    }

    #[test]
    fn remap_policy_last_wins() {
        let mut s = Schedule::new();
        assert_eq!(s.remap_policy(), RemapPolicy::Identity);
        s.thread_remap(RemapPolicy::LongestFirst);
        assert_eq!(s.remap_policy(), RemapPolicy::LongestFirst);
        s.thread_remap(RemapPolicy::Identity);
        assert_eq!(s.remap_policy(), RemapPolicy::Identity);
    }

    #[test]
    fn hoisting_flag() {
        let mut s = Schedule::new();
        assert!(!s.hoisting_enabled());
        s.hoist_loads();
        assert!(s.hoisting_enabled());
    }

    #[test]
    #[should_panic(expected = "padding multiple must be positive")]
    fn zero_pad_rejected() {
        Schedule::new().pad_loop("i", 0);
    }

    #[test]
    fn error_display_is_informative() {
        let e = ScheduleError::LoopPaddingExceedsStorage {
            loop_name: "i".into(),
            loop_pad: 8,
            storage_pad: 4,
        };
        let s = e.to_string();
        assert!(s.contains("storage padding must be at least"));
    }
}
