//! The execution context: vector length + instruction accounting + optional
//! toolchain-fault injection.
//!
//! An [`SveCtx`] plays the role ArmIE played for the paper's authors: it
//! fixes the vector length for a run, observes every executed operation, and
//! can be asked — like ArmIE with a different `-vl` — to re-run the same code
//! under a different hardware width.

use crate::count::{CostModel, Counters, Opcode};
use crate::host::Lowering;
use crate::pred::PReg;
use crate::vl::VectorLength;

/// Simulated toolchain defects, for reproducing the paper's Section V-D
/// observation that "some tests fail due to incorrect results for some
/// choices of the SVE vector length and implementations of the predication
/// ... minor issues of the ARM SVE toolchain, which is still under
/// development".
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ToolchainFault {
    /// Faithful execution.
    #[default]
    None,
    /// `whilelt` drops the last active element of *partial* predicates at
    /// the given vector length — a tail-predication miscompile. Kernels that
    /// only ever use full vectors (the paper's fixed-size style, listing
    /// IV-D) are immune; VLA loops over non-multiple sizes corrupt their
    /// final iteration.
    TailPredicationBug(VectorLength),
}

/// Execution context for the SVE functional model.
///
/// Cheap to construct; intended to be created once per simulated "machine"
/// and shared (`&SveCtx` / `Arc<SveCtx>`) across threads.
pub struct SveCtx {
    /// The vector length, and which compiled copy of the lane loops this
    /// host runs it with — detected here, so an instruction reads a field.
    lowering: Lowering,
    counters: Counters,
    fault: ToolchainFault,
}

impl SveCtx {
    /// A faithful context at vector length `vl`.
    pub fn new(vl: VectorLength) -> Self {
        Self::with_fault(vl, ToolchainFault::None)
    }

    /// A context with an injected toolchain fault.
    pub fn with_fault(vl: VectorLength, fault: ToolchainFault) -> Self {
        SveCtx {
            lowering: Lowering::for_host(vl),
            counters: Counters::new(),
            fault,
        }
    }

    /// A faithful context that runs the baseline copy of the lane loops,
    /// whatever the host offers.
    #[cfg(test)]
    pub(crate) fn portable(vl: VectorLength) -> Self {
        SveCtx {
            lowering: Lowering::portable(vl),
            ..Self::new(vl)
        }
    }

    /// The vector length this "silicon" implements.
    #[inline]
    pub fn vl(&self) -> VectorLength {
        self.lowering.vl()
    }

    #[inline]
    pub(crate) fn lowering(&self) -> Lowering {
        self.lowering
    }

    /// This context as seen by code that holds `N`-byte registers — a
    /// kernel that fixed its vector length at compile time (paper, Section
    /// V-A) and sized its registers to match. `N` is usually inferred from
    /// the operands of the first instruction issued through the view.
    #[inline]
    pub fn sized<const N: usize>(&self) -> SizedCtx<'_, N> {
        SizedCtx { ctx: self }
    }

    /// Instruction tallies recorded so far.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Cycle estimate of everything recorded so far under `model`.
    pub fn cycles(&self, model: CostModel) -> u64 {
        model.cycles(&self.counters)
    }

    /// Record one execution of `op`. Called by every intrinsic.
    #[inline]
    pub fn exec(&self, op: Opcode) {
        self.counters.bump(op);
    }

    /// Record `n` executions of `op`.
    #[inline]
    pub fn exec_n(&self, op: Opcode, n: u64) {
        self.counters.bump_n(op, n);
    }

    /// The active fault model.
    pub fn fault(&self) -> ToolchainFault {
        self.fault
    }

    /// Apply the fault model to a freshly generated `whilelt` predicate.
    /// Used by [`crate::intrinsics::svwhilelt`].
    pub(crate) fn distort_whilelt<E: crate::elem::SveElem>(&self, p: PReg) -> PReg {
        match self.fault {
            ToolchainFault::None => p,
            ToolchainFault::TailPredicationBug(at_vl) => {
                let vl = self.vl();
                if vl != at_vl || p.is_full::<E>(vl) || p.is_empty::<E>(vl) {
                    return p;
                }
                // Drop the last active element of a partial predicate.
                let mut out = p;
                let last = (0..vl.lanes_of(E::BYTES))
                    .rev()
                    .find(|&e| p.elem_active::<E>(e));
                if let Some(e) = last {
                    out.set_elem_active::<E>(e, false);
                }
                out
            }
        }
    }
}

/// An [`SveCtx`] issuing instructions on registers of `N` bytes
/// ([`crate::Reg<N>`]): the sized forms of the intrinsics a fixed-length
/// kernel uses are its methods, and the free functions of
/// [`crate::intrinsics`] of the same names are these at `N =`
/// [`crate::VL_MAX_BYTES`]. An instruction panics if the context's vector is
/// longer than `N` bytes; a shorter one uses a prefix of the register.
#[derive(Clone, Copy)]
pub struct SizedCtx<'a, const N: usize> {
    pub(crate) ctx: &'a SveCtx,
}

impl std::fmt::Debug for SveCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SveCtx")
            .field("vl", &self.vl())
            .field("fault", &self.fault)
            .field("executed", &self.counters.total())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_records_and_reports() {
        let ctx = SveCtx::new(VectorLength::of(512));
        ctx.exec(Opcode::Fcmla);
        ctx.exec_n(Opcode::Ld1, 2);
        assert_eq!(ctx.counters().total(), 3);
        assert_eq!(ctx.cycles(CostModel::Uniform), 3);
        assert_eq!(ctx.cycles(CostModel::FcmlaSlow), 6);
    }

    #[test]
    fn fault_only_hits_partial_predicates_at_its_vl() {
        let vl = VectorLength::of(256);
        let ctx = SveCtx::with_fault(vl, ToolchainFault::TailPredicationBug(vl));
        let full = PReg::whilelt::<f64>(vl, 0, 100);
        assert_eq!(ctx.distort_whilelt::<f64>(full), full);
        let partial = PReg::whilelt::<f64>(vl, 0, 3); // 3 of 4 lanes
        let distorted = ctx.distort_whilelt::<f64>(partial);
        assert_eq!(distorted.active_count::<f64>(vl), 2);
        // A context at a different VL is unaffected.
        let other = SveCtx::with_fault(
            VectorLength::of(512),
            ToolchainFault::TailPredicationBug(vl),
        );
        let p512 = PReg::whilelt::<f64>(VectorLength::of(512), 0, 3);
        assert_eq!(other.distort_whilelt::<f64>(p512), p512);
    }
}
