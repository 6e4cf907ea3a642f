//! Assembly text parser.
//!
//! Accepts the textual assembly exactly as printed in the paper's listings
//! (modulo whitespace) and produces a [`Program`]. Together with
//! [`Program::disassemble`] this closes the loop: the paper's listings can
//! be carried as text, parsed, executed, and printed back.
//!
//! Grammar: one instruction or label per line; labels end with `:`;
//! comments start with `//` or `;`. Supported mnemonics are exactly the
//! subset the listings use.

use crate::inst::{Cond, Inst, Program, XZR};
use std::collections::HashMap;
use sve::Rot;

/// Parse error with line context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based source line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        line,
        message: message.into(),
    })
}

/// Strip comments, trim, and classify each surviving line.
fn significant_lines(src: &str) -> Vec<(usize, &str)> {
    src.lines()
        .enumerate()
        .filter_map(|(i, raw)| {
            let no_comment = raw.split("//").next().unwrap_or("");
            let no_comment = no_comment.split(';').next().unwrap_or("");
            let t = no_comment.trim();
            if t.is_empty() {
                None
            } else {
                Some((i + 1, t))
            }
        })
        .collect()
}

fn parse_xreg(tok: &str, line: usize) -> Result<u8, ParseError> {
    let t = tok.trim_end_matches(',');
    if t == "xzr" {
        return Ok(XZR);
    }
    if let Some(n) = t.strip_prefix('x') {
        if let Ok(v) = n.parse::<u8>() {
            if v < 31 {
                return Ok(v);
            }
        }
    }
    err(line, format!("expected scalar register, got `{tok}`"))
}

fn parse_zreg(tok: &str, line: usize) -> Result<u8, ParseError> {
    let t = tok
        .trim_end_matches(',')
        .trim_start_matches('{')
        .trim_end_matches('}');
    let t = t.split('.').next().unwrap_or(t);
    if let Some(n) = t.strip_prefix('z') {
        if let Ok(v) = n.parse::<u8>() {
            if v < 32 {
                return Ok(v);
            }
        }
    }
    err(line, format!("expected vector register, got `{tok}`"))
}

fn parse_preg(tok: &str, line: usize) -> Result<u8, ParseError> {
    // Accept p1, p1.d, p1.b, p0/z, p1/m combinations.
    let t = tok.trim_end_matches(',');
    let t = t.split(['.', '/']).next().unwrap_or(t);
    if let Some(n) = t.strip_prefix('p') {
        if let Ok(v) = n.parse::<u8>() {
            if v < 16 {
                return Ok(v);
            }
        }
    }
    err(line, format!("expected predicate register, got `{tok}`"))
}

fn parse_imm(tok: &str, line: usize) -> Result<u64, ParseError> {
    let t = tok.trim_end_matches(',');
    let t = t.strip_prefix('#').unwrap_or(t);
    // Accept integers and a plain `0`-like float for `mov z0.d, #0`.
    if let Ok(v) = t.parse::<u64>() {
        return Ok(v);
    }
    if let Ok(v) = t.parse::<f64>() {
        if v >= 0.0 && v.fract() == 0.0 {
            return Ok(v as u64);
        }
    }
    err(line, format!("expected immediate, got `{tok}`"))
}

/// Parse a `[xbase]` or `[xbase, xidx, lsl #3]` memory operand from the
/// token stream following the predicate.
fn parse_mem(tokens: &[&str], line: usize) -> Result<(u8, u8), ParseError> {
    let joined = tokens.join(" ");
    let inner = joined
        .trim_start_matches('[')
        .trim_end_matches(']')
        .trim_end_matches("]!");
    let parts: Vec<&str> = inner.split(',').map(str::trim).collect();
    match parts.len() {
        1 => Ok((parse_xreg(parts[0], line)?, XZR)),
        3 => {
            if parts[2] != "lsl #3" {
                return err(line, format!("unsupported index scale `{}`", parts[2]));
            }
            Ok((parse_xreg(parts[0], line)?, parse_xreg(parts[1], line)?))
        }
        _ => err(line, format!("bad memory operand `{joined}`")),
    }
}

fn parse_rot(tok: &str, line: usize) -> Result<Rot, ParseError> {
    match parse_imm(tok, line)? {
        0 => Ok(Rot::R0),
        90 => Ok(Rot::R90),
        180 => Ok(Rot::R180),
        270 => Ok(Rot::R270),
        other => err(line, format!("invalid fcmla rotation #{other}")),
    }
}

/// Parse assembly text into a [`Program`].
pub fn parse(name: &str, src: &str) -> Result<Program, ParseError> {
    let lines = significant_lines(src);
    // Pass 1: map labels to instruction indices.
    let mut labels: HashMap<String, usize> = HashMap::new();
    let mut idx = 0usize;
    for &(lineno, text) in &lines {
        if let Some(label) = text.strip_suffix(':') {
            if labels.insert(label.to_string(), idx).is_some() {
                return err(lineno, format!("duplicate label `{label}`"));
            }
        } else {
            idx += 1;
        }
    }
    // Pass 2: instructions.
    let mut insts = Vec::with_capacity(idx);
    for &(line, text) in &lines {
        if text.ends_with(':') {
            continue;
        }
        let toks: Vec<&str> = text.split_whitespace().collect();
        let mnemonic = toks[0];
        let rest = &toks[1..];
        let operands = match mnemonic {
            "ret" => 0,
            "incd" | "ptrue" | "b" | "b.mi" | "b.lo" => 1,
            "mov" | "cmp" | "movprfx" => 2,
            "lsl" | "add" | "whilelo" | "ld1d" | "st1d" | "fmul" => 3,
            "brkns" | "ld2d" | "st2d" | "fmla" | "fnmls" => 4,
            "fcmla" => 5,
            _ => 0,
        };
        if rest.len() < operands {
            return err(
                line,
                format!("`{mnemonic}` takes {operands} operands, got {}", rest.len()),
            );
        }
        let inst = match mnemonic {
            "ret" => Inst::Ret,
            "mov" => parse_mov(rest, line)?,
            "lsl" => Inst::Lsl {
                xd: parse_xreg(rest[0], line)?,
                xn: parse_xreg(rest[1], line)?,
                shift: match parse_imm(rest[2], line)? {
                    shift @ 0..=63 => shift as u8,
                    other => return err(line, format!("shift #{other} is outside 0..=63")),
                },
            },
            "add" => Inst::AddXImm {
                xd: parse_xreg(rest[0], line)?,
                xn: parse_xreg(rest[1], line)?,
                imm: parse_imm(rest[2], line)?,
            },
            "incd" => Inst::IncD {
                xd: parse_xreg(rest[0], line)?,
            },
            "cmp" => Inst::CmpX {
                xn: parse_xreg(rest[0], line)?,
                xm: parse_xreg(rest[1], line)?,
            },
            "b" | "b.mi" | "b.lo" => {
                let cond = match mnemonic {
                    "b.mi" => Cond::Mi,
                    "b.lo" => Cond::Lo,
                    _ => Cond::Always,
                };
                let label = rest[0];
                let target = *labels.get(label).ok_or(ParseError {
                    line,
                    message: format!("unknown label `{label}`"),
                })?;
                Inst::B { cond, target }
            }
            "ptrue" => Inst::Ptrue {
                pd: parse_preg(rest[0], line)?,
            },
            "whilelo" => Inst::Whilelo {
                pd: parse_preg(rest[0], line)?,
                xn: parse_xreg(rest[1], line)?,
                xm: parse_xreg(rest[2], line)?,
            },
            "brkns" => Inst::Brkns {
                pd: parse_preg(rest[0], line)?,
                pg: parse_preg(rest[1], line)?,
                pn: parse_preg(rest[2], line)?,
                pm: parse_preg(rest[3], line)?,
            },
            "movprfx" => Inst::Movprfx {
                zd: parse_zreg(rest[0], line)?,
                zn: parse_zreg(rest[1], line)?,
            },
            "ld1d" => {
                let zt = parse_zreg(rest[0], line)?;
                let pg = parse_preg(rest[1], line)?;
                let (xbase, xidx) = parse_mem(&rest[2..], line)?;
                Inst::Ld1D {
                    zt,
                    pg,
                    xbase,
                    xidx,
                }
            }
            "st1d" => {
                let zt = parse_zreg(rest[0], line)?;
                let pg = parse_preg(rest[1], line)?;
                let (xbase, xidx) = parse_mem(&rest[2..], line)?;
                Inst::St1D {
                    zt,
                    pg,
                    xbase,
                    xidx,
                }
            }
            "ld2d" => {
                let zt = parse_zreg(rest[0], line)?;
                let zt2 = parse_zreg(rest[1], line)?;
                let pg = parse_preg(rest[2], line)?;
                let (xbase, xidx) = parse_mem(&rest[3..], line)?;
                Inst::Ld2D {
                    zt,
                    zt2,
                    pg,
                    xbase,
                    xidx,
                }
            }
            "st2d" => {
                let zt = parse_zreg(rest[0], line)?;
                let zt2 = parse_zreg(rest[1], line)?;
                let pg = parse_preg(rest[2], line)?;
                let (xbase, xidx) = parse_mem(&rest[3..], line)?;
                Inst::St2D {
                    zt,
                    zt2,
                    pg,
                    xbase,
                    xidx,
                }
            }
            "fmul" => Inst::Fmul {
                zd: parse_zreg(rest[0], line)?,
                zn: parse_zreg(rest[1], line)?,
                zm: parse_zreg(rest[2], line)?,
            },
            "fmla" => Inst::Fmla {
                zd: parse_zreg(rest[0], line)?,
                pg: parse_preg(rest[1], line)?,
                zn: parse_zreg(rest[2], line)?,
                zm: parse_zreg(rest[3], line)?,
            },
            "fnmls" => Inst::Fnmls {
                zd: parse_zreg(rest[0], line)?,
                pg: parse_preg(rest[1], line)?,
                zn: parse_zreg(rest[2], line)?,
                zm: parse_zreg(rest[3], line)?,
            },
            "fcmla" => Inst::Fcmla {
                zd: parse_zreg(rest[0], line)?,
                pg: parse_preg(rest[1], line)?,
                zn: parse_zreg(rest[2], line)?,
                zm: parse_zreg(rest[3], line)?,
                rot: parse_rot(rest[4], line)?,
            },
            other => return err(line, format!("unknown mnemonic `{other}`")),
        };
        insts.push(inst);
    }
    Ok(Program::new(name, insts))
}

/// `mov` is overloaded: scalar, scalar-immediate, predicate, vector,
/// vector-immediate. Disambiguate on the operand prefixes.
fn parse_mov(rest: &[&str], line: usize) -> Result<Inst, ParseError> {
    let dst = rest[0].trim_end_matches(',');
    let src = rest[1];
    if dst.starts_with('p') {
        return Ok(Inst::MovP {
            pd: parse_preg(dst, line)?,
            pn: parse_preg(src, line)?,
        });
    }
    if dst.starts_with('z') {
        if src.starts_with('#') {
            return Ok(Inst::DupImm {
                zd: parse_zreg(dst, line)?,
                imm: parse_imm(src, line)? as f64,
            });
        }
        return Ok(Inst::MovZ {
            zd: parse_zreg(dst, line)?,
            zn: parse_zreg(src, line)?,
        });
    }
    if src.starts_with('#') {
        return Ok(Inst::MovXImm {
            xd: parse_xreg(dst, line)?,
            imm: parse_imm(src, line)?,
        });
    }
    Ok(Inst::MovX {
        xd: parse_xreg(dst, line)?,
        xn: parse_xreg(src, line)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::listings;

    /// Listing IV-A exactly as the paper prints it (Section IV-A).
    const PAPER_IV_A: &str = r#"
        mov x8, xzr
        whilelo p1.d, xzr, x0
        ptrue p0.d
    .LBB0_4:
        ld1d {z0.d}, p1/z, [x1, x8, lsl #3]
        ld1d {z1.d}, p1/z, [x2, x8, lsl #3]
        fmul z0.d, z1.d, z0.d
        st1d {z0.d}, p1, [x3, x8, lsl #3]
        incd x8
        whilelo p2.d, x8, x0
        brkns p2.b, p0/z, p1.b, p2.b
        mov p1.b, p2.b
        b.mi .LBB0_4
        ret
    "#;

    /// Listing IV-D exactly as the paper prints it (Section IV-D).
    const PAPER_IV_D: &str = r#"
        ptrue p0.d
        ld1d {z0.d}, p0/z, [x1]
        ld1d {z1.d}, p0/z, [x2]
        mov z2.d, #0
        fcmla z2.d, p0/m, z0.d, z1.d, #90
        fcmla z2.d, p0/m, z0.d, z1.d, #0
        st1d {z2.d}, p0, [x3]
        ret
    "#;

    #[test]
    fn paper_text_iv_a_parses_to_the_encoded_listing() {
        let parsed = parse("IV-A", PAPER_IV_A).unwrap();
        assert_eq!(parsed.insts, listings::mult_real_program().insts);
    }

    #[test]
    fn paper_text_iv_d_parses_to_the_encoded_listing() {
        let parsed = parse("IV-D", PAPER_IV_D).unwrap();
        assert_eq!(
            parsed.insts,
            listings::mult_cplx_fcmla_fixed_program().insts
        );
    }

    #[test]
    fn disassembly_round_trips_through_the_parser() {
        for (_, program) in listings::all_listings() {
            let asm = program.disassemble();
            let reparsed = parse(&program.name, &asm).unwrap();
            assert_eq!(reparsed.insts, program.insts, "{}", program.name);
        }
    }

    #[test]
    fn parsed_program_executes_correctly() {
        use sve::VectorLength;
        let program = parse("IV-A", PAPER_IV_A).unwrap();
        let mut m = crate::Machine::new(VectorLength::of(512), 1 << 16);
        let x: Vec<f64> = (0..37).map(|i| i as f64 * 0.5).collect();
        let y: Vec<f64> = (0..37).map(|i| 3.0 - i as f64 * 0.25).collect();
        let xa = m.alloc_f64_slice(&x);
        let ya = m.alloc_f64_slice(&y);
        let za = m.alloc(8 * 37);
        m.set_x(0, 37);
        m.set_x(1, xa);
        m.set_x(2, ya);
        m.set_x(3, za);
        let _ = m.ctx; // keep context
        crate::run(&mut m, &program);
        let z = m.mem.load_f64_slice(za, 37);
        let want = listings::mult_real_ref(&x, &y);
        assert_eq!(z, want);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let p = parse("c", "// header\n  ret ; trailing\n\n// footer\n").unwrap();
        assert_eq!(p.insts, vec![Inst::Ret]);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse("bad", "mov x8, xzr\nbogus z0.d\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bogus"));
        let e = parse("bad", "b.mi .Lnowhere\n").unwrap_err();
        assert!(e.message.contains("unknown label"));
        let e = parse("bad", "fcmla z0.d, p0/m, z1.d, z2.d, #45\n").unwrap_err();
        assert!(e.message.contains("rotation"));
    }

    #[test]
    fn truncated_operands_and_wide_shifts_are_errors() {
        for src in [
            "lsl x0",
            "ld1d z0.d",
            "ld2d z0.d, z1.d",
            "b",
            "whilelo p0.d, x0",
        ] {
            let e = parse("t", &format!("ret\n{src}\n")).unwrap_err();
            assert_eq!(e.line, 2, "{src}");
            assert!(e.message.contains("operands"), "{src}: {}", e.message);
        }
        let e = parse("t", "lsl x0, x1, #300").unwrap_err();
        assert!(e.message.contains("#300"), "{}", e.message);
        let p = parse("t", "lsl x0, x1, #63").unwrap();
        assert_eq!(
            p.insts,
            vec![Inst::Lsl {
                xd: 0,
                xn: 1,
                shift: 63
            }]
        );
    }

    #[test]
    fn duplicate_labels_rejected() {
        let e = parse("dup", ".L0:\nret\n.L0:\nret\n").unwrap_err();
        assert!(e.message.contains("duplicate"));
    }
}
