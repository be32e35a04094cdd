//! Correctness checks, run after the timed rounds. Each compares the
//! program's output against something computed here, apart from the
//! program, or against a property the method must have.

use crate::workload::{Output, Workload};
use analysis::natchar;
use bismark::study::StudyConfig;
use bismark::validation::validate_availability;
use firmware::records::RouterId;
use std::collections::{BTreeMap, BTreeSet};

/// The paper's Table 1: routers per country, in the table's order.
pub const TABLE1: [(&str, u32); 19] = [
    ("CA", 2),
    ("DE", 2),
    ("FR", 1),
    ("GB", 12),
    ("IE", 2),
    ("IT", 1),
    ("JP", 2),
    ("NL", 3),
    ("SG", 2),
    ("US", 63),
    ("IN", 12),
    ("PK", 5),
    ("MY", 1),
    ("ZA", 10),
    ("MX", 2),
    ("CN", 2),
    ("BR", 2),
    ("ID", 1),
    ("TH", 1),
];

/// Mean coverage error the heartbeat instrument must stay under.
pub const MAX_COVERAGE_ERROR: f64 = 0.03;

/// Precision and recall CGN detection must reach.
pub const MIN_DETECTION: f64 = 0.9;

/// Windows a 60-day span yields at a 6 h cadence.
pub const STREAM_WINDOWS: u32 = 240;

/// The outcome of one named check.
pub struct Check {
    pub name: &'static str,
    pub result: Result<(), String>,
}

fn check(name: &'static str, ok: bool, why: impl FnOnce() -> String) -> Check {
    Check {
        name,
        result: if ok { Ok(()) } else { Err(why()) },
    }
}

/// Homes per country code in a study's deployment.
fn country_mix(out: &Output) -> BTreeMap<&'static str, u32> {
    let mut mix = BTreeMap::new();
    for home in &out.study.homes {
        *mix.entry(home.country.code()).or_insert(0) += 1;
    }
    mix
}

/// Run the workload's checks on the final round's output.
pub fn workload_checks(w: Workload, cfg: &StudyConfig, out: &Output) -> Vec<Check> {
    let data = &out.study.datasets;
    match w {
        Workload::Paper2013 => {
            let validation = validate_availability(&out.study, cfg.seed);
            let table1: BTreeMap<&str, u32> = TABLE1.into_iter().collect();
            let mix = country_mix(out);
            let deployed: BTreeSet<RouterId> =
                out.study.homes.iter().map(|h| RouterId(h.id.0)).collect();
            let registered: BTreeSet<RouterId> = data.routers.iter().map(|m| m.router).collect();
            let beating: BTreeSet<RouterId> = data.heartbeats.keys().copied().collect();
            let release = out.export.as_deref().map(release_heartbeats);
            let expected: BTreeMap<u64, u64> = data
                .heartbeats
                .iter()
                .map(|(r, log)| (u64::from(r.0), log.total_heartbeats()))
                .collect();
            vec![
                check(
                    "availability-coverage-error",
                    validation.mean_coverage_error < MAX_COVERAGE_ERROR,
                    || format!("mean coverage error {:.4}", validation.mean_coverage_error),
                ),
                check("table1-router-counts", mix == table1, || {
                    format!("deployment mix {mix:?}")
                }),
                check(
                    "all-routers-in-datasets",
                    deployed.len() == 126 && registered == deployed && beating == deployed,
                    || {
                        format!(
                            "{} deployed, {} registered, {} with heartbeats",
                            deployed.len(),
                            registered.len(),
                            beating.len()
                        )
                    },
                ),
                match release {
                    Some(Ok(totals)) => {
                        check("release-heartbeat-totals", totals == expected, || {
                            "per-router heartbeat totals in the release differ from the datasets'"
                                .to_string()
                        })
                    }
                    Some(Err(e)) => check("release-heartbeat-totals", false, || {
                        format!("release does not parse: {e}")
                    }),
                    None => check("release-heartbeat-totals", false, || {
                        "no release was serialised".to_string()
                    }),
                },
            ]
        }
        Workload::StreamCgn6h => {
            let batch = analysis::StudyReport::compute(data, out.study.windows.report_windows())
                .render(data);
            let fronted: BTreeSet<RouterId> = out
                .study
                .cgn_plan
                .homes
                .iter()
                .filter(|h| h.is_fronted())
                .map(|h| h.router)
                .collect();
            let score = natchar::score_detection(&natchar::characterize(data).homes, &fronted);
            vec![
                check("rolling-report-batch-exact", batch == out.report, || {
                    "final rolling report differs from the batch report".to_string()
                }),
                check(
                    "cgn-detection",
                    !fronted.is_empty()
                        && score.precision >= MIN_DETECTION
                        && score.recall >= MIN_DETECTION,
                    || {
                        format!(
                            "{} fronted, precision {:.3}, recall {:.3}",
                            fronted.len(),
                            score.precision,
                            score.recall
                        )
                    },
                ),
                check("window-count", out.windows == STREAM_WINDOWS, || {
                    format!("{} windows emitted", out.windows)
                }),
            ]
        }
    }
}

/// Parse the serialised public release and total its heartbeats per
/// router. The whole document is validated, but only the `heartbeats`
/// member is built into values, so checking a release of over 100 MiB
/// does not materialise a value tree of all of it.
pub fn release_heartbeats(json: &str) -> Result<BTreeMap<u64, u64>, String> {
    let mut p = Parser {
        bytes: json.as_bytes(),
        pos: 0,
    };
    p.ws();
    p.expect(b'{')?;
    let mut totals = None;
    p.ws();
    if !p.eat(b'}') {
        loop {
            p.ws();
            let key = p.string()?;
            p.ws();
            p.expect(b':')?;
            p.ws();
            let keep = key == "heartbeats";
            let value = p.value(keep)?;
            if keep {
                totals = Some(heartbeat_totals(value.expect("kept value is returned"))?);
            }
            p.ws();
            if p.eat(b'}') {
                break;
            }
            p.expect(b',')?;
        }
    }
    p.ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    totals.ok_or_else(|| "no heartbeats member".to_string())
}

/// `[[router, {"runs": [{"count": n, ..}, ..]}], ..]` → totals.
fn heartbeat_totals(v: Json) -> Result<BTreeMap<u64, u64>, String> {
    let bad = || "heartbeats member has an unexpected shape".to_string();
    let Json::Arr(entries) = v else {
        return Err(bad());
    };
    let mut totals = BTreeMap::new();
    for entry in entries {
        let Json::Arr(pair) = entry else {
            return Err(bad());
        };
        let [Json::Num(router), Json::Obj(log)] = pair.as_slice() else {
            return Err(bad());
        };
        let Some((_, Json::Arr(runs))) = log.iter().find(|(k, _)| k == "runs") else {
            return Err(bad());
        };
        let mut total = 0u64;
        for run in runs {
            let Json::Obj(fields) = run else {
                return Err(bad());
            };
            let Some((_, Json::Num(count))) = fields.iter().find(|(k, _)| k == "count") else {
                return Err(bad());
            };
            total += *count as u64;
        }
        totals.insert(*router as u64, total);
    }
    Ok(totals)
}

/// A parsed JSON value (only built for the kept member).
enum Json {
    Null,
    Bool,
    Num(f64),
    Str,
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.bytes.get(self.pos) == Some(&b);
        if hit {
            self.pos += 1;
        }
        hit
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", b as char, self.pos))
        }
    }

    /// Parse one value; build it only when `keep`.
    fn value(&mut self, keep: bool) -> Result<Option<Json>, String> {
        let v = match self.bytes.get(self.pos) {
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.ws();
                if !self.eat(b'}') {
                    loop {
                        self.ws();
                        let key = self.string()?;
                        self.ws();
                        self.expect(b':')?;
                        self.ws();
                        let v = self.value(keep)?;
                        if let Some(v) = v {
                            fields.push((key, v));
                        }
                        self.ws();
                        if self.eat(b'}') {
                            break;
                        }
                        self.expect(b',')?;
                    }
                }
                Json::Obj(fields)
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.ws();
                if !self.eat(b']') {
                    loop {
                        self.ws();
                        if let Some(v) = self.value(keep)? {
                            items.push(v);
                        }
                        self.ws();
                        if self.eat(b']') {
                            break;
                        }
                        self.expect(b',')?;
                    }
                }
                Json::Arr(items)
            }
            Some(b'"') => {
                self.string()?;
                Json::Str
            }
            Some(b't') => self.literal("true", Json::Bool)?,
            Some(b'f') => self.literal("false", Json::Bool)?,
            Some(b'n') => self.literal("null", Json::Null)?,
            _ => Json::Num(self.number()?),
        };
        Ok(keep.then_some(v))
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<f64, String> {
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
            .ok_or_else(|| format!("bad number at offset {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.pos;
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(format!("unterminated string at offset {start}")),
                Some(b'"') => break,
                Some(b'\\') => self.pos += 2,
                Some(_) => self.pos += 1,
            }
        }
        let s = String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned();
        self.pos += 1;
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn release_parser_totals_heartbeats() {
        let doc = r#"{"routers":[{"router":0,"country":"CA"}],"heartbeats":[[0,{"runs":[{"first":1,"last":2,"count":3},{"first":5,"last":9,"count":4}]}],[7,{"runs":[]}]],"wifi":[true,null,-1.5e3,"a\"b"]}"#;
        let totals = release_heartbeats(doc).expect("valid document");
        assert_eq!(totals, BTreeMap::from([(0, 7), (7, 0)]));
        assert!(release_heartbeats(&doc[..doc.len() - 1]).is_err());
        assert!(release_heartbeats(r#"{"heartbeats":[[0,{"runs":[{"count":1}]}]]} x"#).is_err());
    }
}
