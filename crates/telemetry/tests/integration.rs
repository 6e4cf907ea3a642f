//! End-to-end tests of the span machinery against a real `SveCtx`:
//! exclusive nested attribution, hand-counted ACLE kernel deltas,
//! thread-merge determinism under the rayon worker pool, and
//! snapshot/reset isolation.
//!
//! The registry is process-global, so every test takes [`global_test_lock`]
//! before touching it.

use qcd_trace::{global_test_lock, span};
use sve::{Opcode, SveCtx, VectorLength};

fn ctx512() -> SveCtx {
    SveCtx::new(VectorLength::new(512).unwrap())
}

/// Run the paper's fixed-length FCMLA kernel once: exactly 7 instructions
/// (ptrue + 2 ld1d + dup + 2 fcmla + st1d) against one vector of data.
fn run_fixed_kernel(ctx: &SveCtx) {
    let lanes = ctx.vl().lanes64();
    let x: Vec<f64> = (0..lanes).map(|i| i as f64 * 0.5 - 1.0).collect();
    let y: Vec<f64> = (0..lanes).map(|i| 2.0 - i as f64 * 0.25).collect();
    let mut z = vec![0.0; lanes];
    sve::acle::mult_cplx_acle_fixed(ctx, &x, &y, &mut z);
}

#[test]
fn nested_spans_attribute_instructions_exclusively() {
    let _guard = global_test_lock();
    qcd_trace::reset();
    let ctx = ctx512();
    {
        let _outer = span!("nest_outer", &ctx);
        run_fixed_kernel(&ctx); // 7 instructions before the child opens
        {
            let _inner = span!("nest_inner", &ctx);
            run_fixed_kernel(&ctx);
            run_fixed_kernel(&ctx); // child claims 14
        }
        run_fixed_kernel(&ctx); // 7 more after the child closes
    }
    let snap = qcd_trace::snapshot();
    let outer = snap.region("nest_outer").unwrap();
    let inner = snap.region("nest_outer/nest_inner").unwrap();
    // The child's 14 instructions appear once — in the child — and the
    // parent keeps only the instructions issued outside the child.
    assert_eq!(inner.total_insts(), 14);
    assert_eq!(inner.insts_for(Opcode::Fcmla), 4);
    assert_eq!(outer.total_insts(), 14);
    assert_eq!(outer.insts_for(Opcode::Fcmla), 4);
    // Wall-time attribution is consistent too.
    assert!(outer.child_ns <= outer.wall_ns);
    assert_eq!(outer.child_ns, inner.wall_ns);
}

#[test]
fn counter_delta_matches_hand_counted_acle_kernel() {
    let _guard = global_test_lock();
    qcd_trace::reset();
    let ctx = ctx512();
    // Dirty the counters before the span: the span must report the delta,
    // not the absolute values.
    run_fixed_kernel(&ctx);
    let summary = {
        let span = span!("hand_count", &ctx);
        run_fixed_kernel(&ctx);
        span.finish()
    };
    let snap = qcd_trace::snapshot();
    let stat = snap.region("hand_count").unwrap();
    // Listing IV-D by hand: 1 ptrue + 2 ld1d + 1 dup + 2 fcmla + 1 st1d.
    for (op, n) in [
        (Opcode::Ptrue, 1),
        (Opcode::Ld1, 2),
        (Opcode::Dup, 1),
        (Opcode::Fcmla, 2),
        (Opcode::St1, 1),
    ] {
        assert_eq!(stat.insts_for(op), n, "opcode {}", op.mnemonic());
    }
    assert_eq!(stat.total_insts(), 7);
    // The per-invocation summary agrees with the registry.
    assert_eq!(summary.insts, 7);
    assert_eq!(summary.fcmla_insts, 2);
}

#[test]
fn thread_merge_is_deterministic_under_rayon() {
    use rayon::prelude::*;
    let _guard = global_test_lock();

    let run_once = || {
        qcd_trace::reset();
        let mut data = vec![0u64; 96];
        data.par_chunks_mut(8).enumerate().for_each(|(i, chunk)| {
            // Each worker thread opens its own root-level span; per-chunk
            // contributions merge into one region when the spans close.
            let ctx = ctx512();
            let _span = span!("rayon_chunk", &ctx);
            run_fixed_kernel(&ctx);
            qcd_trace::record_flops(10 + i as u64);
            for v in chunk.iter_mut() {
                *v = i as u64;
            }
        });
        qcd_trace::snapshot()
    };

    let a = run_once();
    let b = run_once();
    for snap in [&a, &b] {
        let stat = snap.region("rayon_chunk").unwrap();
        assert_eq!(stat.count, 12, "one span per chunk");
        assert_eq!(stat.total_insts(), 12 * 7);
        assert_eq!(stat.insts_for(Opcode::Fcmla), 12 * 2);
        assert_eq!(stat.flops, (0..12).map(|i| 10 + i).sum::<u64>());
    }
    // Everything except wall time is schedule-independent; two runs agree
    // exactly.
    let (sa, sb) = (
        a.region("rayon_chunk").unwrap(),
        b.region("rayon_chunk").unwrap(),
    );
    assert_eq!(sa.insts, sb.insts);
    assert_eq!(
        (sa.count, sa.flops, sa.sites),
        (sb.count, sb.flops, sb.sites)
    );
}

#[test]
fn snapshot_and_reset_isolate_runs() {
    let _guard = global_test_lock();
    qcd_trace::reset();
    {
        let _a = span!("iso_a");
        qcd_trace::record_sites(3);
    }
    let first = qcd_trace::snapshot();
    assert_eq!(first.region("iso_a").unwrap().sites, 3);

    qcd_trace::reset();
    assert!(qcd_trace::snapshot().regions.is_empty());
    // The earlier snapshot is a copy, untouched by the reset.
    assert_eq!(first.region("iso_a").unwrap().sites, 3);

    {
        let _b = span!("iso_b");
    }
    let second = qcd_trace::snapshot();
    assert!(second.region("iso_a").is_none());
    assert_eq!(second.region("iso_b").unwrap().count, 1);

    // Repeating a region after reset starts its accumulation from zero.
    {
        let _a = span!("iso_a");
        qcd_trace::record_sites(1);
    }
    assert_eq!(qcd_trace::snapshot().region("iso_a").unwrap().sites, 1);
}
