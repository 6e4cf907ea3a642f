//! Instruction accounting and silicon cost profiles.
//!
//! The paper could not measure performance ("lack of processor architectures
//! supporting SVE", Section VII) and argues instead from instruction
//! sequences, noting that "the performance signatures of the instructions
//! might differ across different SVE platforms" and that "it is not
//! guaranteed that the FCMLA instruction outperforms alternative
//! implementations" (Section V-E). This module makes those arguments
//! quantitative: every intrinsic executed under an [`crate::SveCtx`] is
//! tallied per [`Opcode`], and pluggable [`CostModel`]s convert tallies into
//! cycle estimates for hypothetical silicon.

use std::cell::Cell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

macro_rules! opcodes {
    ($($name:ident => $mnemonic:literal, $class:ident;)*) => {
        /// The SVE (and supporting scalar) operations the model accounts for.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
        #[repr(usize)]
        pub enum Opcode {
            $(#[doc = $mnemonic] $name,)*
        }

        impl Opcode {
            /// Total number of distinct opcodes.
            pub const COUNT: usize = opcodes!(@count $($name)*);

            /// All opcodes, in declaration order.
            pub const ALL: [Opcode; Self::COUNT] = [$(Opcode::$name,)*];

            /// Assembly mnemonic as it appears in the paper's listings.
            pub fn mnemonic(self) -> &'static str {
                match self {
                    $(Opcode::$name => $mnemonic,)*
                }
            }

            /// Broad functional class, used by cost models and reports.
            pub fn class(self) -> OpClass {
                match self {
                    $(Opcode::$name => OpClass::$class,)*
                }
            }
        }
    };
    (@count) => { 0 };
    (@count $head:ident $($tail:ident)*) => { 1 + opcodes!(@count $($tail)*) };
}

/// Functional classes of operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Contiguous predicated loads (`ld1d` ...).
    Load,
    /// Structure loads (`ld2d`, `ld3d`, `ld4d`): de-interleave on the way in.
    LoadStruct,
    /// Gather loads (`ld1d` with vector index).
    Gather,
    /// Contiguous predicated stores.
    Store,
    /// Structure stores (`st2d` ...): re-interleave on the way out.
    StoreStruct,
    /// Real floating-point arithmetic (`fmul`, `fadd`, `fmla`, ...).
    FpArith,
    /// Complex floating-point arithmetic (`fcmla`, `fcadd`).
    FpComplex,
    /// Precision conversion (`fcvt`).
    FpConvert,
    /// Horizontal reductions (`faddv`, `fmaxv`).
    Reduce,
    /// Permutes and selects (`ext`, `rev`, `zip`, `uzp`, `trn`, `tbl`, `sel`, `dup`).
    Permute,
    /// Predicate manipulation (`ptrue`, `whilelo`, `brkns`, `cntp`).
    Predicate,
    /// Register moves and prefixes (`mov`, `movprfx`, `dup` immediate).
    Move,
    /// Scalar bookkeeping (`incd`, `add`, `lsl`, `cmp`, branches).
    Scalar,
}

opcodes! {
    // Loads / stores
    Ld1 => "ld1", Load;
    Ld1Gather => "ld1 (gather)", Gather;
    Ld2 => "ld2", LoadStruct;
    Ld3 => "ld3", LoadStruct;
    Ld4 => "ld4", LoadStruct;
    St1 => "st1", Store;
    St1Scatter => "st1 (scatter)", Store;
    St2 => "st2", StoreStruct;
    St3 => "st3", StoreStruct;
    St4 => "st4", StoreStruct;
    Prf => "prf", Load;
    // Real arithmetic
    Fadd => "fadd", FpArith;
    Fsub => "fsub", FpArith;
    Fmul => "fmul", FpArith;
    Fneg => "fneg", FpArith;
    Fabs => "fabs", FpArith;
    Fsqrt => "fsqrt", FpArith;
    Fmla => "fmla", FpArith;
    Fmls => "fmls", FpArith;
    Fnmls => "fnmls", FpArith;
    Fmax => "fmax", FpArith;
    Fmin => "fmin", FpArith;
    Fscale => "fscale", FpArith;
    // Integer arithmetic (index math inside kernels)
    Add => "add", FpArith;
    Sub => "sub", FpArith;
    Mul => "mul", FpArith;
    // Complex arithmetic
    Fcmla => "fcmla", FpComplex;
    Fcadd => "fcadd", FpComplex;
    // Conversion
    Fcvt => "fcvt", FpConvert;
    // Reductions
    Faddv => "faddv", Reduce;
    Fmaxv => "fmaxv", Reduce;
    // Permutes
    Dup => "dup", Move;
    DupLane => "dup (lane)", Permute;
    Ext => "ext", Permute;
    Rev => "rev", Permute;
    Zip1 => "zip1", Permute;
    Zip2 => "zip2", Permute;
    Uzp1 => "uzp1", Permute;
    Uzp2 => "uzp2", Permute;
    Trn1 => "trn1", Permute;
    Trn2 => "trn2", Permute;
    Tbl => "tbl", Permute;
    Sel => "sel", Permute;
    Splice => "splice", Permute;
    // Predicates
    Ptrue => "ptrue", Predicate;
    Whilelo => "whilelo", Predicate;
    Brkns => "brkns", Predicate;
    Cntp => "cntp", Predicate;
    PredLogic => "and/orr (pred)", Predicate;
    // Moves
    MovZ => "mov (z)", Move;
    MovP => "mov (p)", Move;
    Movprfx => "movprfx", Move;
    // Scalar bookkeeping
    Cnt => "cntb/h/w/d", Scalar;
    Incd => "incb/h/w/d", Scalar;
    ScalarAlu => "scalar alu", Scalar;
    Branch => "b.cond", Scalar;
}

/// Private shards per [`Counters`]. Threads holding a slot id below this
/// own one shard each; everyone else shares the overflow shard behind them.
const SHARDS: usize = 16;
/// Index of the shared overflow shard, and the slot id of a thread that
/// holds no private slot.
const OVERFLOW: usize = SHARDS;
/// Slot id of a thread that has not asked for one yet.
const UNASSIGNED: usize = usize::MAX;

/// Bit `s` set = slot `s` belongs to a live thread. Process-wide, so a slot
/// id names the same shard in every `Counters`.
static SLOTS_IN_USE: AtomicU32 = AtomicU32::new(0);

/// Returns the thread's slot to the pool when the thread exits. Threads
/// come and go — farm workers, rank threads, the threads a test starts, and
/// with each of them the rayon shim's helpers it owns — so without recycling
/// the private shards would be used up by the first sixteen of a process.
struct SlotLease(usize);

impl Drop for SlotLease {
    fn drop(&mut self) {
        // Later bumps from this thread (other TLS destructors) must not
        // touch a shard that is about to get a new owner.
        SLOT.with(|s| s.set(OVERFLOW));
        // Release pairs with the Acquire in `claim_slot`: the next owner of
        // this slot sees every plain store this thread made to its shards.
        SLOTS_IN_USE.fetch_and(!(1 << self.0), Ordering::Release);
    }
}

thread_local! {
    /// This thread's slot id; no destructor, so reading it is one TLS load
    /// and it stays readable while the thread is torn down.
    static SLOT: Cell<usize> = const { Cell::new(UNASSIGNED) };
    static LEASE: Cell<Option<SlotLease>> = const { Cell::new(None) };
}

/// First bump on this thread: take the lowest free slot, or the overflow
/// slot when all are taken or the thread's TLS is already being destroyed.
#[cold]
fn claim_slot() -> usize {
    let lowest_free = |used: u32| (!used).trailing_zeros() as usize;
    let claimed = SLOTS_IN_USE.fetch_update(Ordering::Acquire, Ordering::Relaxed, |used| {
        (lowest_free(used) < SHARDS).then(|| used | 1 << lowest_free(used))
    });
    let slot = claimed.map_or(OVERFLOW, lowest_free);
    SLOT.with(|s| s.set(slot));
    if slot != OVERFLOW {
        let lease = SlotLease(slot);
        // If this thread's TLS is already being destroyed the lease is
        // dropped right here, which hands the slot back.
        let _ = LEASE.try_with(move |l| l.set(Some(lease)));
    }
    SLOT.with(Cell::get)
}

#[inline(always)]
fn thread_slot() -> usize {
    let slot = SLOT.with(Cell::get);
    if slot == UNASSIGNED {
        claim_slot()
    } else {
        slot
    }
}

/// One thread's tallies, on cache lines of their own.
#[repr(align(64))]
struct Shard([AtomicU64; Opcode::COUNT]);

/// Per-opcode execution tally, exact under any number of threads.
///
/// The tally is split into [`SHARDS`] private shards plus one shared
/// overflow shard. A thread owns the shard its process-wide slot id names —
/// ids are unique among live threads, so the owner is the shard's only
/// writer and bumps it with a plain load and store; threads beyond the
/// private shards `fetch_add` on the overflow shard. Readers sum the shards.
pub struct Counters {
    shards: [Shard; SHARDS + 1],
}

impl Default for Counters {
    fn default() -> Self {
        Self::new()
    }
}

impl Counters {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Counters {
            shards: std::array::from_fn(|_| Shard(std::array::from_fn(|_| AtomicU64::new(0)))),
        }
    }

    /// Record one execution of `op`.
    #[inline(always)]
    pub fn bump(&self, op: Opcode) {
        self.bump_n(op, 1);
    }

    /// Record `n` executions of `op`.
    #[inline(always)]
    pub fn bump_n(&self, op: Opcode, n: u64) {
        // `min` tells the compiler the index is in range; a slot id never
        // exceeds OVERFLOW.
        let slot = thread_slot().min(OVERFLOW);
        let count = &self.shards[slot].0[op as usize];
        if slot == OVERFLOW {
            count.fetch_add(n, Ordering::Relaxed);
        } else {
            count.store(count.load(Ordering::Relaxed) + n, Ordering::Relaxed);
        }
    }

    /// Executions recorded for `op`.
    pub fn get(&self, op: Opcode) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0[op as usize].load(Ordering::Relaxed))
            .sum()
    }

    /// Total executions across all opcodes.
    pub fn total(&self) -> u64 {
        Opcode::ALL.iter().map(|&op| self.get(op)).sum()
    }

    /// Total executions within one functional class.
    pub fn total_class(&self, class: OpClass) -> u64 {
        Opcode::ALL
            .iter()
            .filter(|op| op.class() == class)
            .map(|&op| self.get(op))
            .sum()
    }

    /// Reset all tallies to zero. Meant for quiet moments: a bump racing
    /// with the reset may survive it.
    pub fn reset(&self) {
        for c in self.shards.iter().flat_map(|s| &s.0) {
            c.store(0, Ordering::Relaxed);
        }
    }

    /// Snapshot as (opcode, count) pairs with nonzero counts, sorted
    /// descending by count.
    pub fn snapshot(&self) -> Vec<(Opcode, u64)> {
        let mut v: Vec<_> = Opcode::ALL
            .iter()
            .map(|&op| (op, self.get(op)))
            .filter(|&(_, n)| n > 0)
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }
}

impl std::fmt::Debug for Counters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map()
            .entries(
                self.snapshot()
                    .into_iter()
                    .map(|(op, n)| (op.mnemonic(), n)),
            )
            .finish()
    }
}

/// A hypothetical silicon implementation: reciprocal-throughput cost (in
/// cycles) per opcode. "The silicon provider ... defines the performance
/// characteristics of the hardware" (paper, Section III-B) — these profiles
/// are the knob that sentence describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CostModel {
    /// Every instruction costs one cycle: pure instruction count, the
    /// metric the paper's Section IV comparisons use implicitly.
    Uniform,
    /// FCMLA at full rate (one per cycle), like a machine whose FP pipes
    /// implement complex arithmetic natively (A64FX-class).
    FcmlaFast,
    /// FCMLA microcoded at 4 cycles: the Section V-E scenario where "it is
    /// not guaranteed that the FCMLA instruction outperforms alternative
    /// implementations".
    FcmlaSlow,
}

impl CostModel {
    /// Reciprocal throughput, in cycles, of one execution of `op`.
    pub fn cost(self, op: Opcode) -> u64 {
        match self {
            CostModel::Uniform => 1,
            CostModel::FcmlaFast => match op.class() {
                OpClass::LoadStruct | OpClass::StoreStruct => 3,
                OpClass::Gather => 4,
                OpClass::Reduce => 4,
                OpClass::FpComplex => 1,
                _ => 1,
            },
            CostModel::FcmlaSlow => match op.class() {
                OpClass::LoadStruct | OpClass::StoreStruct => 3,
                OpClass::Gather => 4,
                OpClass::Reduce => 4,
                OpClass::FpComplex => 4,
                _ => 1,
            },
        }
    }

    /// Cycle estimate for a counter snapshot under this model.
    pub fn cycles(self, counters: &Counters) -> u64 {
        Opcode::ALL
            .iter()
            .map(|&op| counters.get(op) * self.cost(op))
            .sum()
    }

    /// All profiles, for sweeps.
    pub fn all() -> [CostModel; 3] {
        [
            CostModel::Uniform,
            CostModel::FcmlaFast,
            CostModel::FcmlaSlow,
        ]
    }

    /// Short profile name for reports.
    pub fn name(self) -> &'static str {
        match self {
            CostModel::Uniform => "uniform",
            CostModel::FcmlaFast => "fcmla-fast",
            CostModel::FcmlaSlow => "fcmla-slow",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_and_total() {
        let c = Counters::new();
        c.bump(Opcode::Fcmla);
        c.bump(Opcode::Fcmla);
        c.bump(Opcode::Ld1);
        assert_eq!(c.get(Opcode::Fcmla), 2);
        assert_eq!(c.get(Opcode::Ld1), 1);
        assert_eq!(c.get(Opcode::St1), 0);
        assert_eq!(c.total(), 3);
    }

    #[test]
    fn class_totals() {
        let c = Counters::new();
        c.bump_n(Opcode::Fmul, 4);
        c.bump_n(Opcode::Fmla, 2);
        c.bump(Opcode::Fcmla);
        assert_eq!(c.total_class(OpClass::FpArith), 6);
        assert_eq!(c.total_class(OpClass::FpComplex), 1);
    }

    #[test]
    fn reset_clears() {
        let c = Counters::new();
        c.bump_n(Opcode::St2, 7);
        c.reset();
        assert_eq!(c.total(), 0);
    }

    #[test]
    fn snapshot_sorted_desc() {
        let c = Counters::new();
        c.bump_n(Opcode::Ld1, 5);
        c.bump_n(Opcode::Fcmla, 9);
        c.bump_n(Opcode::St1, 1);
        let snap = c.snapshot();
        assert_eq!(snap[0], (Opcode::Fcmla, 9));
        assert_eq!(snap[2], (Opcode::St1, 1));
    }

    #[test]
    fn cost_models_diverge_only_where_documented() {
        // fcmla: 1 cycle fast, 4 slow; fmul identical everywhere.
        assert_eq!(CostModel::FcmlaFast.cost(Opcode::Fcmla), 1);
        assert_eq!(CostModel::FcmlaSlow.cost(Opcode::Fcmla), 4);
        for m in CostModel::all() {
            assert_eq!(m.cost(Opcode::Fmul), 1);
        }
    }

    #[test]
    fn cycles_weighted_sum() {
        let c = Counters::new();
        c.bump_n(Opcode::Fcmla, 10);
        c.bump_n(Opcode::Fmul, 10);
        assert_eq!(CostModel::Uniform.cycles(&c), 20);
        assert_eq!(CostModel::FcmlaSlow.cycles(&c), 50);
    }

    /// What `threads` threads add to each opcode in [`bump_mixed`].
    fn mixed_expectation(threads: usize, n: usize) -> [u64; Opcode::COUNT] {
        let mut want = [0u64; Opcode::COUNT];
        for t in 0..threads {
            for i in 0..n {
                want[(t + i) % Opcode::COUNT] += 1;
                want[Opcode::Fcmla as usize] += 2;
            }
        }
        want
    }

    /// `threads` threads, all alive at once, each bumping `n` rounds of mixed
    /// opcodes on `c`; returns how many of them held a private shard.
    fn bump_mixed(c: &Counters, threads: usize, n: usize) -> usize {
        let all_live = std::sync::Barrier::new(threads);
        let private = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..threads {
                let (all_live, private) = (&all_live, &private);
                s.spawn(move || {
                    c.bump(Opcode::Prf); // takes this thread's slot
                    all_live.wait();
                    if thread_slot() < OVERFLOW {
                        private.fetch_add(1, Ordering::Relaxed);
                    }
                    for i in 0..n {
                        c.bump(Opcode::ALL[(t + i) % Opcode::COUNT]);
                        c.bump_n(Opcode::Fcmla, 2);
                    }
                });
            }
        });
        private.load(Ordering::Relaxed) as usize
    }

    #[test]
    fn exact_with_more_threads_than_shards_and_under_thread_churn() {
        const THREADS: usize = 3 * SHARDS;
        const N: usize = 500;
        const GENERATIONS: usize = 4;
        let c = Counters::new();
        let bystander = Counters::new();
        let mut recycled = false;
        for generation in 0..GENERATIONS {
            let private = bump_mixed(&c, THREADS, N);
            // More live threads than private shards: some shared the
            // overflow shard.
            assert!(private <= SHARDS);
            // The earlier generations' threads have exited; had they kept
            // their slot ids, later ones would find none.
            recycled |= generation > 0 && private > 0;
        }
        assert!(recycled, "slot ids were not recycled");

        let mut want = mixed_expectation(THREADS, N).map(|n| n * GENERATIONS as u64);
        want[Opcode::Prf as usize] += (THREADS * GENERATIONS) as u64;
        for op in Opcode::ALL {
            assert_eq!(c.get(op), want[op as usize], "{op:?}");
        }
        assert_eq!(c.total(), want.iter().sum::<u64>());
        assert_eq!(bystander.total(), 0, "shards belong to one Counters");

        c.reset();
        assert_eq!(c.total(), 0);
    }

    #[test]
    fn two_contexts_bumped_from_one_thread_stay_apart() {
        let vl = crate::VectorLength::of(256);
        let (a, b) = (crate::SveCtx::new(vl), crate::SveCtx::new(vl));
        a.exec_n(Opcode::Ld1, 3);
        b.exec(Opcode::Ld1);
        b.exec(Opcode::St1);
        a.exec(Opcode::Fcmla);
        assert_eq!(
            a.counters().snapshot(),
            vec![(Opcode::Ld1, 3), (Opcode::Fcmla, 1)]
        );
        assert_eq!(
            b.counters().snapshot(),
            vec![(Opcode::Ld1, 1), (Opcode::St1, 1)]
        );
    }

    #[test]
    fn every_opcode_has_mnemonic_and_class() {
        for op in Opcode::ALL {
            assert!(!op.mnemonic().is_empty());
            let _ = op.class();
        }
        const _: () = assert!(Opcode::COUNT > 40);
    }
}
