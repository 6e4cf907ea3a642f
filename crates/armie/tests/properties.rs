//! Property-based tests of the emulator: the paper's listings must agree
//! with scalar references for arbitrary sizes and operands at every vector
//! length — including the tail-predication corner cases the paper's
//! toolchain got wrong.

use armie::listings;
use proptest::prelude::*;
use sve::{SveCtx, ToolchainFault, VectorLength};

fn any_vl() -> impl Strategy<Value = VectorLength> {
    proptest::sample::select(VectorLength::sweep().to_vec())
}

fn data(n: usize, seed: u64) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let h = seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(i as u64)
                .wrapping_mul(0xbf58_476d_1ce4_e5b9);
            ((h >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0
        })
        .collect()
}

fn close(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(p, q)| (p - q).abs() <= 1e-12 * q.abs().max(1.0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Listing IV-A matches the scalar product for any size and VL.
    #[test]
    fn listing_a_correct(vl in any_vl(), n in 0usize..200, seed in any::<u64>()) {
        let x = data(n, seed);
        let y = data(n, seed ^ 0xffff);
        let run = listings::run_mult_real(SveCtx::new(vl), &x, &y);
        prop_assert!(close(&run.z, &listings::mult_real_ref(&x, &y)));
    }

    /// Listings IV-B and IV-C agree with the scalar complex product and
    /// with each other for any size and VL.
    #[test]
    fn listings_b_c_correct(vl in any_vl(), n in 0usize..120, seed in any::<u64>()) {
        let x = data(2 * n, seed);
        let y = data(2 * n, seed ^ 0xaaaa);
        let want = listings::mult_cplx_ref(&x, &y);
        let b = listings::run_mult_cplx_autovec(SveCtx::new(vl), &x, &y);
        let c = listings::run_mult_cplx_fcmla_vla(SveCtx::new(vl), &x, &y);
        prop_assert!(close(&b.z, &want));
        prop_assert!(close(&c.z, &want));
        prop_assert!(close(&b.z, &c.z));
    }

    /// Results are identical whatever the vector length (the ArmIE
    /// multi-VL verification, as a property).
    #[test]
    fn results_are_vl_independent(n in 1usize..100, seed in any::<u64>()) {
        let x = data(2 * n, seed);
        let y = data(2 * n, seed ^ 0x1234);
        let reference =
            listings::run_mult_cplx_fcmla_vla(SveCtx::new(VectorLength::of(128)), &x, &y);
        for vl in VectorLength::sweep() {
            let run = listings::run_mult_cplx_fcmla_vla(SveCtx::new(vl), &x, &y);
            prop_assert_eq!(&run.z, &reference.z, "vl = {}", vl);
        }
    }

    /// Dynamic instruction count is monotone non-increasing in VL for a
    /// fixed workload.
    #[test]
    fn instruction_count_monotone_in_vl(n in 8usize..100, seed in any::<u64>()) {
        let x = data(2 * n, seed);
        let y = data(2 * n, seed ^ 0x5555);
        let mut last = u64::MAX;
        for vl in VectorLength::sweep() {
            let run = listings::run_mult_cplx_fcmla_vla(SveCtx::new(vl), &x, &y);
            prop_assert!(run.report.steps <= last, "steps grew at {}", vl);
            last = run.report.steps;
        }
    }

    /// Under a tail-predication fault, sizes that divide the vector length
    /// are always correct; other sizes are always wrong (deterministic
    /// failure, as §V-D observed "for some choices of the SVE vector
    /// length").
    #[test]
    fn fault_determinism(k in 1usize..12, extra in 0usize..8, seed in any::<u64>()) {
        let vl = VectorLength::of(512);
        let fault = ToolchainFault::TailPredicationBug(vl);
        let lanes = vl.lanes64();
        let n2 = k * lanes + extra; // doubles
        prop_assume!(n2.is_multiple_of(2));
        let x = data(n2, seed);
        let y = data(n2, seed ^ 0x9999);
        let want = listings::mult_cplx_ref(&x, &y);
        let run = listings::run_mult_cplx_fcmla_vla(SveCtx::with_fault(vl, fault), &x, &y);
        if extra == 0 {
            prop_assert!(close(&run.z, &want), "full vectors must survive");
        } else {
            prop_assert!(!close(&run.z, &want), "partial tails must corrupt");
        }
    }

    /// The fixed-length listing IV-D is immune to the fault at any VL
    /// (it never generates a whilelt predicate).
    #[test]
    fn fixed_size_immune_to_fault(vl in any_vl(), seed in any::<u64>()) {
        let fault = ToolchainFault::TailPredicationBug(vl);
        let lanes = vl.lanes64();
        let x = data(lanes, seed);
        let y = data(lanes, seed ^ 0x7777);
        let run = listings::run_mult_cplx_fcmla_fixed(SveCtx::with_fault(vl, fault), &x, &y);
        prop_assert!(close(&run.z, &listings::mult_cplx_ref(&x, &y)));
    }
}

/// The parser is a decoder of untrusted text: every prefix of every line of
/// listings IV-A and IV-D — alone, and in place of its line inside the
/// whole listing — either parses or returns an error; none panics.
#[test]
fn every_truncated_listing_line_parses_or_is_an_error() {
    let listings = [
        listings::mult_real_program(),
        listings::mult_cplx_fcmla_fixed_program(),
    ];
    for program in listings {
        let text = program.disassemble();
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            for (cut, _) in line.char_indices().chain([(line.len(), ' ')]) {
                let prefix = &line[..cut];
                let _ = armie::parse(&program.name, prefix);
                let mut whole = lines.clone();
                whole[i] = prefix;
                let _ = armie::parse(&program.name, &whole.join("\n"));
            }
        }
    }
}
