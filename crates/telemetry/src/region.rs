//! Per-region accumulators, derived metrics, and the registry snapshot type.

use std::collections::BTreeMap;

use sve::{CostModel, Opcode};

use crate::json::{Json, JsonError};

/// Everything accumulated for one region path across all of its invocations.
///
/// Counter-style fields are raw sums; ratios (arithmetic intensity, cycle
/// estimates, percent-of-predicted) are derived on demand so a stat can keep
/// merging without re-normalisation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegionStat {
    /// Number of completed spans for this path.
    pub count: u64,
    /// Total inclusive wall time.
    pub wall_ns: u64,
    /// Wall time attributed to enclosed child spans (same thread).
    pub child_ns: u64,
    /// Exclusive per-opcode instruction deltas, indexed by `Opcode as usize`.
    /// Only populated for spans that observed an `SveCtx`.
    pub insts: [u64; Opcode::COUNT],
    /// Floating-point operations the instrumented code reported.
    pub flops: u64,
    /// Lattice sites processed.
    pub sites: u64,
    /// Bytes read from field storage.
    pub bytes_read: u64,
    /// Bytes written to field storage.
    pub bytes_written: u64,
    /// Bytes that crossed the (simulated) wire, after compression.
    pub wire_bytes: u64,
    /// Paper-predicted instruction count for the work done in this region,
    /// accumulated per invocation like the measured counters (so
    /// [`RegionStat::percent_of_predicted`] compares like with like).
    pub predicted_insts: u64,
}

impl Default for RegionStat {
    fn default() -> Self {
        RegionStat {
            count: 0,
            wall_ns: 0,
            child_ns: 0,
            insts: [0; Opcode::COUNT],
            flops: 0,
            sites: 0,
            bytes_read: 0,
            bytes_written: 0,
            wire_bytes: 0,
            predicted_insts: 0,
        }
    }
}

impl RegionStat {
    /// Wall time minus time attributed to children.
    pub fn self_ns(&self) -> u64 {
        self.wall_ns.saturating_sub(self.child_ns)
    }

    /// Total exclusive instruction count across all opcodes.
    pub fn total_insts(&self) -> u64 {
        self.insts.iter().sum()
    }

    /// Exclusive count for one opcode.
    pub fn insts_for(&self, op: Opcode) -> u64 {
        self.insts[op as usize]
    }

    /// Estimated cycles under a cost model, from the exclusive opcode mix.
    pub fn cycles(&self, model: CostModel) -> u64 {
        Opcode::ALL
            .iter()
            .map(|&op| model.cost(op) * self.insts[op as usize])
            .sum()
    }

    /// Flops per byte moved through field storage, when both were recorded.
    pub fn arithmetic_intensity(&self) -> Option<f64> {
        let bytes = self.bytes_read + self.bytes_written;
        if bytes == 0 || self.flops == 0 {
            None
        } else {
            Some(self.flops as f64 / bytes as f64)
        }
    }

    /// Measured instruction count as a percentage of the paper-predicted
    /// count, when a prediction was recorded.
    pub fn percent_of_predicted(&self) -> Option<f64> {
        if self.predicted_insts == 0 {
            None
        } else {
            Some(100.0 * self.total_insts() as f64 / self.predicted_insts as f64)
        }
    }

    /// Fold another stat for the same path into this one.
    pub fn merge(&mut self, other: &RegionStat) {
        self.count += other.count;
        self.wall_ns += other.wall_ns;
        self.child_ns += other.child_ns;
        for (acc, v) in self.insts.iter_mut().zip(other.insts.iter()) {
            *acc += v;
        }
        self.flops += other.flops;
        self.sites += other.sites;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.wire_bytes += other.wire_bytes;
        self.predicted_insts += other.predicted_insts;
    }
}

/// One completed span, returned by [`crate::SpanGuard::finish`]. Unlike the
/// global registry this is race-free per invocation: it describes exactly
/// the work that happened between enter and finish on this thread.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RegionSummary {
    /// Full `/`-joined region path.
    pub path: String,
    /// Inclusive wall time of the span.
    pub wall_ns: u64,
    /// Wall time spent in enclosed child spans.
    pub child_ns: u64,
    /// Total exclusive instruction delta (0 without an `SveCtx`).
    pub insts: u64,
    /// Exclusive FCMLA count — the paper's headline opcode.
    pub fcmla_insts: u64,
    /// Flops reported inside the span.
    pub flops: u64,
    /// Lattice sites reported inside the span.
    pub sites: u64,
    /// Field-storage bytes read inside the span.
    pub bytes_read: u64,
    /// Field-storage bytes written inside the span.
    pub bytes_written: u64,
    /// Post-compression wire bytes reported inside the span.
    pub wire_bytes: u64,
}

/// A point-in-time copy of the global registry.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Region stats keyed by full path, in path order.
    pub regions: BTreeMap<String, RegionStat>,
}

impl Snapshot {
    /// Stats for one path.
    pub fn region(&self, path: &str) -> Option<&RegionStat> {
        self.regions.get(path)
    }

    /// Direct children of `path` (one level deeper, `/`-separated).
    pub fn children(&self, path: &str) -> Vec<(&str, &RegionStat)> {
        let prefix = format!("{path}/");
        self.regions
            .iter()
            .filter(|(k, _)| k.starts_with(&prefix) && !k[prefix.len()..].contains('/'))
            .map(|(k, v)| (k.as_str(), v))
            .collect()
    }

    /// Serialize to the `qcd-trace/v1` JSON schema.
    ///
    /// Layout:
    /// ```json
    /// {"schema":"qcd-trace/v1",
    ///  "regions":[{"path":"...","count":N,"wall_ns":N,"child_ns":N,
    ///              "self_ns":N,"flops":N,"sites":N,"bytes_read":N,
    ///              "bytes_written":N,"wire_bytes":N,"predicted_insts":N,
    ///              "total_insts":N,"insts":{"<mnemonic>":N,...}}]}
    /// ```
    /// `self_ns` and `total_insts` are derived fields included for consumers
    /// that do not want to recompute them; `from_json` checks they are
    /// consistent with the raw fields.
    pub fn to_json(&self) -> Json {
        let regions = self
            .regions
            .iter()
            .map(|(path, stat)| {
                let insts: Vec<(String, Json)> = Opcode::ALL
                    .iter()
                    .filter(|&&op| stat.insts[op as usize] != 0)
                    .map(|&op| {
                        (
                            op.mnemonic().to_string(),
                            Json::Num(stat.insts[op as usize] as f64),
                        )
                    })
                    .collect();
                Json::Obj(vec![
                    ("path".into(), Json::Str(path.clone())),
                    ("count".into(), Json::Num(stat.count as f64)),
                    ("wall_ns".into(), Json::Num(stat.wall_ns as f64)),
                    ("child_ns".into(), Json::Num(stat.child_ns as f64)),
                    ("self_ns".into(), Json::Num(stat.self_ns() as f64)),
                    ("flops".into(), Json::Num(stat.flops as f64)),
                    ("sites".into(), Json::Num(stat.sites as f64)),
                    ("bytes_read".into(), Json::Num(stat.bytes_read as f64)),
                    ("bytes_written".into(), Json::Num(stat.bytes_written as f64)),
                    ("wire_bytes".into(), Json::Num(stat.wire_bytes as f64)),
                    (
                        "predicted_insts".into(),
                        Json::Num(stat.predicted_insts as f64),
                    ),
                    ("total_insts".into(), Json::Num(stat.total_insts() as f64)),
                    ("insts".into(), Json::Obj(insts)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::Str(SCHEMA.into())),
            ("regions".into(), Json::Arr(regions)),
        ])
    }

    /// Parse a `qcd-trace/v1` snapshot back, validating the schema tag,
    /// required fields, known opcode mnemonics, and the derived-field
    /// consistency (`self_ns`, `total_insts`).
    pub fn from_json(doc: &Json) -> Result<Snapshot, JsonError> {
        let bad = |msg: &str| JsonError {
            msg: msg.to_string(),
            at: 0,
        };
        match doc.get("schema").and_then(Json::as_str) {
            Some(SCHEMA) => {}
            Some(other) => return Err(bad(&format!("unknown schema `{other}`"))),
            None => return Err(bad("missing `schema`")),
        }
        let regions = doc
            .get("regions")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("missing `regions` array"))?;
        let mut out = BTreeMap::new();
        for region in regions {
            let path = region
                .get("path")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("region missing `path`"))?
                .to_string();
            let field = |name: &str| {
                region
                    .get(name)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad(&format!("region `{path}` missing counter `{name}`")))
            };
            let mut stat = RegionStat {
                count: field("count")?,
                wall_ns: field("wall_ns")?,
                child_ns: field("child_ns")?,
                flops: field("flops")?,
                sites: field("sites")?,
                bytes_read: field("bytes_read")?,
                bytes_written: field("bytes_written")?,
                wire_bytes: field("wire_bytes")?,
                predicted_insts: field("predicted_insts")?,
                ..RegionStat::default()
            };
            let insts = region
                .get("insts")
                .and_then(Json::as_obj)
                .ok_or_else(|| bad(&format!("region `{path}` missing `insts`")))?;
            for (mnemonic, n) in insts {
                let op = Opcode::ALL
                    .iter()
                    .copied()
                    .find(|op| op.mnemonic() == mnemonic)
                    .ok_or_else(|| bad(&format!("unknown opcode mnemonic `{mnemonic}`")))?;
                stat.insts[op as usize] = n
                    .as_u64()
                    .ok_or_else(|| bad(&format!("bad count for opcode `{mnemonic}`")))?;
            }
            if field("self_ns")? != stat.self_ns() {
                return Err(bad(&format!("region `{path}`: inconsistent self_ns")));
            }
            if field("total_insts")? != stat.total_insts() {
                return Err(bad(&format!("region `{path}`: inconsistent total_insts")));
            }
            if out.insert(path.clone(), stat).is_some() {
                return Err(bad(&format!("duplicate region path `{path}`")));
            }
        }
        Ok(Snapshot { regions: out })
    }
}

/// Schema tag emitted and required by [`Snapshot::to_json`] / `from_json`.
pub const SCHEMA: &str = "qcd-trace/v1";

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut s = Snapshot::default();
        let mut a = RegionStat {
            count: 3,
            wall_ns: 1_000,
            child_ns: 400,
            flops: 1320,
            sites: 1,
            bytes_read: 1296,
            bytes_written: 192,
            wire_bytes: 96,
            predicted_insts: 7,
            ..RegionStat::default()
        };
        a.insts[Opcode::Fcmla as usize] = 2;
        a.insts[Opcode::Ld1 as usize] = 2;
        s.regions.insert("dirac.hop".into(), a);
        s.regions
            .insert("dirac.hop/proj".into(), RegionStat::default());
        s
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let snap = sample();
        let text = snap.to_json().render();
        let back = Snapshot::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn from_json_rejects_tampering() {
        let snap = sample();
        let good = snap.to_json().render();
        assert!(Snapshot::from_json(&Json::parse(&good).unwrap()).is_ok());
        for (needle, replacement) in [
            ("qcd-trace/v1", "qcd-trace/v0"),
            ("\"total_insts\":4", "\"total_insts\":5"),
            ("\"self_ns\":600", "\"self_ns\":601"),
            ("\"fcmla\"", "\"not-an-op\""),
        ] {
            let bad = good.replace(needle, replacement);
            assert_ne!(bad, good, "test needle `{needle}` not found");
            assert!(
                Snapshot::from_json(&Json::parse(&bad).unwrap()).is_err(),
                "tampered doc accepted: {needle} -> {replacement}"
            );
        }
    }

    #[test]
    fn forged_huge_counts_are_an_error_not_an_overflow() {
        // `1e300 as u64` saturates: two of them overflowed `total_insts`
        // (a panic in the dev profile, a wrapped sum in release).
        let forged = sample().to_json().render().replace(
            "\"insts\":{\"ld1\":2,\"fcmla\":2}",
            "\"insts\":{\"fcmla\":1e300,\"ld1\":1e300}",
        );
        assert!(forged.contains("1e300"), "needle not found: {forged}");
        let e = Snapshot::from_json(&Json::parse(&forged).unwrap()).unwrap_err();
        assert!(e.msg.contains("bad count for opcode"), "{e}");
    }

    #[test]
    fn derived_metrics() {
        let snap = sample();
        let stat = snap.region("dirac.hop").unwrap();
        assert_eq!(stat.self_ns(), 600);
        assert_eq!(stat.total_insts(), 4);
        let ai = stat.arithmetic_intensity().unwrap();
        assert!((ai - 1320.0 / 1488.0).abs() < 1e-12);
        let pct = stat.percent_of_predicted().unwrap();
        assert!((pct - 100.0 * 4.0 / 7.0).abs() < 1e-12);
        assert_eq!(snap.children("dirac.hop").len(), 1);
    }

    #[test]
    fn merge_accumulates_all_counters() {
        let mut a = RegionStat {
            count: 1,
            wall_ns: 10,
            predicted_insts: 7,
            ..RegionStat::default()
        };
        let b = RegionStat {
            count: 2,
            wall_ns: 5,
            flops: 100,
            predicted_insts: 14,
            ..RegionStat::default()
        };
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.wall_ns, 15);
        assert_eq!(a.flops, 100);
        assert_eq!(a.predicted_insts, 21);
    }
}
