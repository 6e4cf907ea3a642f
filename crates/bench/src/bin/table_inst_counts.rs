//! The implicit table of the paper's Section IV: per-iteration and
//! per-element instruction costs of the four listings, across vector
//! lengths — what the listing walk-throughs argue in prose, in numbers.
//!
//! Built on the `qcd-trace` region registry: every emulated listing run is
//! a `listings/<bits>b/armie.<name>` region, so the table, the wall-time
//! profile, and the JSON export all come from one measurement.
//!
//! Usage: `table_inst_counts [--json <path>]` — with `--json`, writes the
//! registry snapshot as a `qcd-trace/v1` document (schema documented on
//! `qcd_trace::Snapshot::to_json`), validated by a parse-back round-trip.

use bench::profile;
use sve::{OpClass, VectorLength};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json_path = match profile::parse_json_arg(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("table_inst_counts: {e}");
            std::process::exit(2);
        }
    };

    let n = profile::MULT_CPLX_ELEMS; // complex elements
    let (all, snap) = profile::build_listings_profile(n);

    println!("host lanes: {}", sve::host_lanes());
    // The listings run under the emulator, whose registers have the
    // architectural maximum: it learns the vector length at run time.
    println!(
        "word bytes: {} ({:?})",
        std::mem::size_of::<sve::VReg>(),
        VectorLength::of(sve::VL_MAX_BITS)
    );
    println!("SECTION IV — DYNAMIC INSTRUCTION ANALYSIS ({n} complex elements)\n");
    println!(
        "{:<10} {:<28} {:>8} {:>10} {:>8} {:>8} {:>8}",
        "VL", "listing", "steps", "per cplx", "arith", "complex", "mem"
    );
    for (vl, runs) in &all {
        let lanes = vl.lanes64();
        for (name, run) in runs {
            let c = run.machine.ctx.counters();
            // IV-A processes 2n reals; the complex listings n complex; IV-D
            // one vector = lanes/2 complex.
            let elems = match *name {
                "IV-A real VLA" => 2 * n,
                "IV-D cplx FCMLA fixed" => lanes / 2,
                _ => n,
            };
            let mem = c.total_class(OpClass::Load)
                + c.total_class(OpClass::Store)
                + c.total_class(OpClass::LoadStruct)
                + c.total_class(OpClass::StoreStruct);
            println!(
                "{:<10} {:<28} {:>8} {:>10.2} {:>8} {:>8} {:>8}",
                format!("{vl}"),
                name,
                run.report.steps,
                run.report.steps as f64 / elems as f64,
                c.total_class(OpClass::FpArith),
                c.total_class(OpClass::FpComplex),
                mem,
            );
        }
        println!();
    }
    println!(
        "Shapes to check against the paper:\n\
         - dynamic instructions fall ~1/VL (the wide-vector promise);\n\
         - IV-C uses fcmla only (2 per vector), IV-B real arithmetic only\n\
           (4 + 2 movprfx per vector) plus structure loads/stores;\n\
         - IV-D is loop-free: 8 instructions regardless of VL."
    );

    println!("\nFULL REGION PROFILE\n");
    println!("{}", qcd_trace::render_table(&snap));

    if let Some(path) = json_path {
        match profile::write_validated_json(&snap, &path) {
            Ok(()) => println!("wrote validated qcd-trace/v1 profile to {path}"),
            Err(e) => {
                eprintln!("table_inst_counts: {e}");
                std::process::exit(1);
            }
        }
    }
}
