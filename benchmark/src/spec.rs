//! The benchmark's contract: workloads, metrics, and `BENCHMARK.json`.
//!
//! The tables here are the single source of every workload and metric name.
//! `BENCHMARK.json` at the repository root is [`benchmark_json`] written to
//! a file (`stackbench --emit-spec`); a self-test reads it back through
//! [`Json::parse`] and fails when the two disagree.

use std::fmt::Write as _;

/// Seconds one run measures for (`run_seconds`).
pub const RUN_SECONDS: u64 = 15;

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "wilson_cg_f64",
        why: "The paper's motivating solve: f64 CG on the Wilson normal equations, the only workload whose rayon threads share one SveCtx; grid.dirac does most of the work.",
    },
    WorkloadDef {
        name: "ladder_f16",
        why: "The same dirac and BLAS layers at f16 and f32 through the reliable-update ladder, single-threaded: a gain for f64 kernels that costs the narrow types shows here.",
    },
    WorkloadDef {
        name: "dist_cg_r2",
        why: "Two rank threads instead of rayon threads over the same kernels: face posts, halo waits and ring allgathers of grid.dist, grid.comms and topology run nowhere else.",
    },
    WorkloadDef {
        name: "hmc_quenched",
        why: "Pure-gauge HMC trajectories: bypasses grid.dirac and grid.solver entirely, so a dirac-only optimisation must leave it unmoved; qcd-hmc force and link update carry it.",
    },
    WorkloadDef {
        name: "farm_mix",
        why: "The service path: qcd-farm scheduling on two workers, qcd-io checkpoint writes at every chunk boundary, and requests coalesced into block_cg, in a fresh directory per drain.",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEndDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// Bounds follow the measured spread of ten runs with ten seeds (README.md
/// has the table), which the driver holds each metric's bound against: the
/// three timings usually repeat to 2–6 %, and to 11 % in a set that a
/// minute-long disturbance of the shared host fell into; peak RSS moves by up
/// to 3.5 % with where the allocator puts its arenas. Each bound is about
/// three times the usual spread. Set-up is short and gets the loosest the
/// contract allows.
pub const END_TO_END: [EndToEndDef; 5] = [
    EndToEndDef {
        name: "wall_s",
        unit: "s/unit",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEndDef {
        name: "work_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.20,
    },
    EndToEndDef {
        name: "cpu_s",
        unit: "s/unit",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEndDef {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.12,
    },
    EndToEndDef {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

pub struct LayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Which end-to-end metric the number should move, and where.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> LayerDef {
    LayerDef {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

/// Exact counts and physics pins carry `Lower` for want of a third value;
/// the README marks them as having no direction.
#[rustfmt::skip] // a table: one metric a row
pub const PER_LAYER: [LayerDef; 79] = [
    layer("sve.insts_per_unit", "count", Lower, "nothing: simulated statistic, a speed PR must leave it identical"),
    layer("sve.ns_per_inst", "ns", Lower, "wall_s on all five workloads"),
    layer("sve.op_ns.ld1", "ns", Lower, "wall_s on the four solver/HMC workloads"),
    layer("sve.op_ns.st1", "ns", Lower, "wall_s on the four solver/HMC workloads"),
    layer("sve.op_ns.fcmla", "ns", Lower, "wall_s on the four solver/HMC workloads"),
    layer("sve.op_ns.fmla", "ns", Lower, "wall_s on the four solver/HMC workloads"),
    layer("sve.op_ns.fcvt", "ns", Lower, "wall_s on ladder_f16"),
    layer("sve.op_ns.fcmla_f16", "ns", Lower, "wall_s on ladder_f16"),
    layer("sve.op_cost_ratio_vl128_vl2048", "ratio", Lower, "wall_s on wilson_cg_f64 once lanes are sized by VL (ideal 1/16)"),
    layer("sve.exec_ns_1t", "ns", Lower, "wall_s everywhere (the counter bump under every op)"),
    layer("sve.exec_ns_2t", "ns", Lower, "wall_s on wilson_cg_f64 only (shared-counter contention)"),
    layer("armie.ns_per_step", "ns", Lower, "no workload's path: ledger entry, predicted to move nothing"),
    layer("grid.simd.mult_complex_ns", "ns", Lower, "wall_s on wilson_cg_f64, dist_cg_r2"),
    layer("grid.simd.su3_vec_ns", "ns", Lower, "wall_s on wilson_cg_f64, dist_cg_r2"),
    layer("grid.dirac.hop_ns_per_site", "ns", Lower, "wall_s, work_per_s on wilson_cg_f64, dist_cg_r2; not hmc_quenched"),
    layer("grid.dirac.hop_ns_per_site.f32", "ns", Lower, "wall_s on ladder_f16 only"),
    layer("grid.dirac.hop_ns_per_site.f16", "ns", Lower, "wall_s on ladder_f16 only"),
    layer("grid.dirac.hop_ns_per_site.vl128", "ns", Lower, "no workload: guards a VL512 gain that costs other widths"),
    layer("grid.dirac.hop_ns_per_site.vl2048", "ns", Lower, "no workload: guards a VL512 gain that costs other widths"),
    layer("grid.dirac.insts_per_site", "count", Lower, "nothing: must stay identical"),
    layer("grid.dirac.mdagm_dot_ns_per_site", "ns", Lower, "wall_s on wilson_cg_f64"),
    layer("grid.dirac.block_ns_per_rhs_site", "ns", Lower, "wall_s on farm_mix"),
    layer("grid.dirac.thread_speedup", "ratio", Higher, "wall_s on wilson_cg_f64"),
    layer("grid.dirac.share", "fraction", Lower, "attribution: bounds what a dslash gain buys on wilson_cg_f64"),
    layer("grid.field.cg_update_ns_per_site", "ns", Lower, "wall_s on wilson_cg_f64"),
    layer("grid.field.aypx_ns_per_site", "ns", Lower, "wall_s on wilson_cg_f64"),
    layer("grid.field.axpy_norm2_ns_per_site", "ns", Lower, "wall_s on wilson_cg_f64"),
    layer("grid.field.norm2_ns_per_site", "ns", Lower, "wall_s on wilson_cg_f64"),
    layer("grid.field.canonical_norm2_ns_per_site", "ns", Lower, "wall_s on ladder_f16, dist_cg_r2"),
    layer("grid.field.share", "fraction", Lower, "attribution: BLAS share of the serial CG unit"),
    layer("grid.solver.iterations", "count", Lower, "wall_s but not work_per_s on wilson_cg_f64"),
    layer("grid.solver.cg_serial_s", "s", Lower, "the plain single-threaded baseline of wilson_cg_f64"),
    layer("grid.solver.thread_speedup", "ratio", Higher, "wall_s on wilson_cg_f64"),
    layer("grid.solver.accounted_frac", "fraction", Higher, "reconciliation: outside 0.9-1.1 the ledger misses a layer"),
    layer("grid.mixed.outer_rounds", "count", Lower, "wall_s on ladder_f16"),
    layer("grid.mixed.f16_iters", "count", Lower, "wall_s on ladder_f16"),
    layer("grid.mixed.f32_iters", "count", Lower, "wall_s on ladder_f16"),
    layer("grid.mixed.reliable_updates", "count", Lower, "wall_s on ladder_f16"),
    layer("grid.mixed.tier_fallbacks", "count", Lower, "wall_s on ladder_f16"),
    layer("grid.mixed.to_precision_ns_per_site.f64_f32", "ns", Lower, "wall_s on ladder_f16"),
    layer("grid.mixed.to_precision_ns_per_site.f32_f16", "ns", Lower, "wall_s on ladder_f16"),
    layer("grid.mixed.f32_only_s", "s", Lower, "the two-level baseline of ladder_f16"),
    layer("grid.mixed.f16_over_f32_wall", "ratio", Lower, "wall_s on ladder_f16 (ROADMAP gate: at most 1)"),
    layer("grid.dist.r1_s", "s", Lower, "the one-rank baseline of dist_cg_r2"),
    layer("grid.dist.strong_scaling_eff", "ratio", Higher, "wall_s on dist_cg_r2"),
    layer("grid.dist.hop_ns_per_site", "ns", Lower, "wall_s on dist_cg_r2"),
    layer("grid.dist.canon_norm2_us", "us", Lower, "wall_s on dist_cg_r2"),
    layer("grid.dist.setup_ghost_ms", "ms", Lower, "setup_s on dist_cg_r2"),
    layer("grid.dist.boundary_frac", "fraction", Lower, "nothing: pin"),
    layer("grid.comms.wire_bytes_per_sweep", "B", Lower, "nothing: pin, must equal the wire model"),
    layer("grid.comms.wait_frac", "fraction", Lower, "wall_s on dist_cg_r2"),
    layer("grid.comms.overlap_eff", "fraction", Higher, "wall_s on dist_cg_r2"),
    layer("grid.comms.halo_codec_ns_per_byte", "ns", Lower, "wall_s on dist_cg_r2"),
    layer("qcd-hmc.force_ms", "ms", Lower, "wall_s on hmc_quenched, partly farm_mix"),
    layer("qcd-hmc.update_links_ms", "ms", Lower, "wall_s on hmc_quenched, partly farm_mix"),
    layer("qcd-hmc.action_ms", "ms", Lower, "wall_s on hmc_quenched, partly farm_mix"),
    layer("qcd-hmc.refresh_ms", "ms", Lower, "wall_s on hmc_quenched, partly farm_mix"),
    layer("qcd-hmc.force_share", "fraction", Lower, "attribution: bounds what a force gain buys on hmc_quenched"),
    layer("qcd-hmc.accounted_frac", "fraction", Higher, "reconciliation: outside 0.9-1.1 the ledger misses a layer"),
    layer("qcd-hmc.acceptance", "fraction", Higher, "nothing: physics pin, exact for a seed"),
    layer("qcd-hmc.plaquette", "ratio", Lower, "nothing: physics pin, exact for a seed"),
    layer("qcd-io.chain_save_ms", "ms", Lower, "wall_s on farm_mix (includes fsync: host-dependent)"),
    layer("qcd-io.chain_load_ms", "ms", Lower, "wall_s on farm_mix"),
    layer("qcd-io.chain_bytes", "B", Lower, "nothing: pin"),
    layer("qcd-io.encode_ns_per_byte", "ns", Lower, "wall_s on farm_mix"),
    layer("qcd-io.decode_ns_per_byte", "ns", Lower, "wall_s on farm_mix"),
    layer("qcd-farm.units", "count", Lower, "nothing: pin"),
    layer("qcd-farm.worker_util", "fraction", Higher, "wall_s on farm_mix"),
    layer("qcd-farm.w1_drain_s", "s", Lower, "the one-worker baseline of farm_mix"),
    layer("qcd-farm.worker_scaling_eff", "ratio", Higher, "wall_s on farm_mix"),
    layer("qcd-farm.direct_s", "s", Lower, "the no-farm baseline of farm_mix"),
    layer("qcd-farm.service_overhead_frac", "fraction", Lower, "wall_s on farm_mix"),
    layer("qcd-farm.hmc_share", "fraction", Lower, "attribution: what a qcd-hmc gain can buy on farm_mix"),
    layer("qcd-farm.solve_share", "fraction", Lower, "attribution: what a grid.dirac gain can buy on farm_mix"),
    layer("qcd-farm.submit_ms", "ms", Lower, "setup_s on farm_mix"),
    layer("qcd-farm.recover_ms", "ms", Lower, "setup_s on farm_mix"),
    layer("qcd-trace.span_ns", "ns", Lower, "nothing today (the hot loop opens no spans): price list for the observability item"),
    layer("qcd-metrics.event_ns", "ns", Lower, "nothing today: price list for the observability item"),
    layer("harness.trace_overhead_frac", "fraction", Lower, "the traced run's own cost on this workload's unit"),
];

/// True when `name` is a legal workload or metric name of the contract.
#[cfg(test)]
fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// True when `unit` is a legal unit of the contract.
#[cfg(test)]
fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

// ---------------------------------------------------------------------------
// JSON

/// A JSON value. Objects keep their keys in file order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Compact one-line rendering. Numbers print with every digit `f64`
    /// needs to round-trip.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                assert!(n.is_finite(), "JSON has no NaN or infinity");
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => out.push_str(&json_string(s)),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&json_string(k));
                    out.push_str(": ");
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.fail("trailing characters"));
        }
        Ok(v)
    }
}

/// Nesting deeper than this is refused rather than recursed into.
const MAX_DEPTH: usize = 32;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn fail(&self, what: &str) -> String {
        format!("JSON: {what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.fail(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.fail("unknown literal"))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err(self.fail("unexpected end")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(_) => self.number(),
        }
    }

    fn nested(&mut self, f: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(self.fail("nesting too deep"));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.fail("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.fail("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.fail("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out).map_err(|_| self.fail("invalid UTF-8"));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = match self.bytes.get(self.pos) {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.fail("bad \\u escape"))?;
                            self.pos += 4;
                            hex
                        }
                        _ => return Err(self.fail("bad escape")),
                    };
                    self.pos += 1;
                    out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                Some(&b) if b < 0x20 => return Err(self.fail("control character in string")),
                Some(&b) => {
                    out.push(b);
                    self.pos += 1;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|n| n.is_finite())
            .map(Json::Num)
            .ok_or_else(|| self.fail("bad number"))
    }
}

// ---------------------------------------------------------------------------
// BENCHMARK.json

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn s(text: &str) -> Json {
    Json::Str(text.to_string())
}

/// The contract as a JSON value, built from the tables above.
pub fn benchmark_spec() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    obj(vec![
        ("command", Json::Arr(command.iter().map(|c| s(c)).collect())),
        ("paths", Json::Arr(vec![s("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| obj(vec![("name", s(w.name)), ("why", s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// `BENCHMARK.json` as committed: one top-level key per line group, one
/// array element per line.
pub fn benchmark_json() -> String {
    let Json::Obj(fields) = benchmark_spec() else {
        unreachable!("the spec is an object")
    };
    let mut out = String::from("{\n");
    for (i, (key, value)) in fields.iter().enumerate() {
        let _ = write!(out, "  {}: ", json_string(key));
        match value {
            Json::Arr(items) if matches!(items.first(), Some(Json::Obj(_))) => {
                out.push_str("[\n");
                for (j, item) in items.iter().enumerate() {
                    let _ = write!(out, "    {}", item.render());
                    out.push_str(if j + 1 < items.len() { ",\n" } else { "\n" });
                }
                out.push_str("  ]");
            }
            other => out.push_str(&other.render()),
        }
        out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_and_units_are_legal_and_unique() {
        let mut seen = BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(valid_name(name), "illegal name `{name}`");
            assert!(seen.insert(name), "name `{name}` is used twice");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(valid_unit(unit), "illegal unit `{unit}`");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(!valid_name(".hidden") && !valid_name("a b") && !valid_name(""));
        assert!(!valid_unit("µs") && !valid_unit("") && valid_unit("s/unit"));
    }

    #[test]
    fn contract_limits_hold() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, largest, "setup_s carries the largest bound");
        assert!(benchmark_json().len() <= 64 * 1024);
    }

    #[test]
    fn json_round_trips() {
        let text = r#"{"a": [1, -2.5e3, true, null], "b": {"c": "x\"y\\z\n\u00e9"}, "d": []}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
        assert_eq!(
            v.get("b").unwrap().get("c"),
            Some(&Json::Str("x\"y\\z\né".into()))
        );
        let Some(Json::Arr(a)) = v.get("a") else {
            panic!("`a` is an array")
        };
        assert_eq!(a[1].as_f64(), Some(-2500.0));
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "1 2",
            "\"\\q\"",
            "nul",
            "1e999",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted `{bad}`");
        }
        let deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        assert!(Json::parse(&deep).unwrap_err().contains("too deep"));
    }

    #[test]
    fn committed_benchmark_json_is_the_emitted_spec() {
        let emitted = benchmark_json();
        assert_eq!(Json::parse(&emitted).unwrap(), benchmark_spec());
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            Json::parse(&committed).unwrap(),
            benchmark_spec(),
            "BENCHMARK.json is stale: regenerate it with `stackbench --emit-spec`"
        );
    }
}
