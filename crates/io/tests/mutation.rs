//! The decoders behind the CRC never panic and never allocate more than a
//! small multiple of what they were given: random single-byte mutations of
//! each *payload* of a valid solver-state, HMC-chain and subspace
//! container — re-framed, so the CRC is fresh and the mutation reaches the
//! decoder — either load or return a typed error, with the peak of live
//! heap bytes during the load at most 4× the file size.
//!
//! The allocator is process-global, so this binary holds the one test.

use grid::codec::Precision;
use grid::krylov::{cg_solve, Start};
use grid::prelude::*;
use proptest::prelude::*;
use qcd_io::{
    load_state, read_hmc_chain, read_subspace, write_hmc_chain, write_subspace, Checkpointer,
    Container, HmcChainState,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        grew(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

const MASS: f64 = 0.25;

fn grid() -> Arc<Grid<f64>> {
    Grid::new([2, 2, 2, 4], VectorLength::of(128), SimdBackend::Fcmla)
}

fn file(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qcd-io-mutation-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Load `path` with the reader of container `which`; `Ok` or the error's
/// text.
fn load(which: usize, path: &Path) -> Result<(), String> {
    let g = &grid();
    match which {
        0 => load_state::<FermionBlock>(path, g).map(drop),
        1 => read_hmc_chain(path, g).map(drop),
        _ => read_subspace::<f64>(path, g, MASS).map(drop),
    }
    .map_err(|e| e.to_string())
}

/// The three valid containers: a two-RHS solver state three iterations in,
/// a chain snapshot, a two-vector subspace.
fn originals() -> &'static [Container; 3] {
    static ORIGINALS: OnceLock<[Container; 3]> = OnceLock::new();
    ORIGINALS.get_or_init(|| {
        let g = grid();
        let links = random_gauge(g.clone(), 7);
        let fields = [
            FermionField::random(g.clone(), 1),
            FermionField::random(g.clone(), 2),
        ];

        let state = file("state.qio");
        let op = WilsonDirac::new(links.clone(), MASS);
        let b = FermionBlock::from_fields(&fields);
        let mut checkpointer = Checkpointer::every(3, &state);
        let _ = cg_solve(
            &mut op.normal(&mut FermionBlock::zero(g.clone(), 2)),
            &b,
            Start::Zero,
            1e-10,
            3,
            qcd_trace::span!("test.solve"),
            "test.solve",
            checkpointer.observer(),
        );
        assert_eq!(checkpointer.finish().unwrap(), 1);

        let chain = file("chain.qio");
        let hmc = HmcChainState {
            beta: 5.6,
            step_size: 0.1,
            n_steps: 4,
            integrator: 0,
            seed: 11,
            trajectory: 3,
            accepted: 2,
            rejected: 1,
            dh_history: vec![0.25, -0.125, 1.5],
            accept_history: vec![true, true, false],
        };
        write_hmc_chain(&hmc, &StreamRng::from_state(3, 3), &links, &chain).unwrap();

        let subspace = file("subspace.qio");
        let (values, residuals) = ([0.017, 0.092], [1e-9, 3e-9]);
        write_subspace(
            &fields,
            &values,
            &residuals,
            MASS,
            &subspace,
            Precision::F64,
        )
        .unwrap();

        let paths = [state, chain, subspace];
        for (which, path) in paths.iter().enumerate() {
            // Each reader once on its own file and once on another's, so
            // what the span and flight-recorder registries allocate on
            // first use is not charged to a mutant.
            load(which, path).unwrap();
            load((which + 1) % 3, path).unwrap_err();
        }
        paths.map(|path| Container::open(&path).unwrap())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    #[test]
    fn a_mutated_payload_loads_or_is_refused_within_four_times_its_size(
        which in 0usize..3,
        record in any::<u64>(),
        offset in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let mut mutant = originals()[which].clone();
        // Odd draws go to the short records — metadata, scalars, counts —
        // which a uniform draw over payload bytes would almost never hit.
        let candidates: Vec<usize> = (0..mutant.records.len())
            .filter(|&i| record.is_multiple_of(2) || mutant.records[i].payload.len() < 1024)
            .collect();
        let pick = candidates[(record / 2) as usize % candidates.len()];
        let payload = &mut mutant.records[pick].payload;
        let at = offset as usize % payload.len();
        payload[at] ^= flip;
        let path = file("mutant.qio");
        let size = mutant.write_atomic(&path).unwrap() as usize;

        let before = LIVE.load(Ordering::SeqCst);
        PEAK.store(before, Ordering::SeqCst);
        let outcome = load(which, &path); // a panic fails the test
        let peak = PEAK.load(Ordering::SeqCst) - before;
        prop_assert!(
            peak <= 4 * size,
            "container {which}: {peak} bytes live at the peak for a {size}-byte file ({outcome:?})"
        );
    }
}
