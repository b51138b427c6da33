//! `prom-lint` — a promtool-style checker for Prometheus text exposition.
//!
//! Reads an exposition document on stdin and validates the subset of
//! format 0.0.4 this workspace emits, exiting 0 when clean and 1 with a
//! line-numbered report otherwise:
//!
//! * every non-empty line is a `# HELP`/`# TYPE` comment or a sample;
//! * metric names match `[a-zA-Z_:][a-zA-Z0-9_:]*`;
//! * samples follow their metric's `# TYPE` declaration;
//! * counter samples end in `_total` (or `_sum`/`_count`/`_bucket` under
//!   a histogram family);
//! * sample values parse as floats (`+Inf`/`-Inf`/`NaN` allowed);
//! * histogram `_bucket` series are cumulative (monotone non-decreasing
//!   in file order) and end with an `le="+Inf"` bucket that equals the
//!   family's `_count`.
//!
//! CI pipes `curl /metrics?fmt=prom` through this binary so a formatting
//! regression fails the build instead of a scrape.

use std::collections::HashMap;
use std::io::Read;
use std::process::ExitCode;

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    (first.is_ascii_alphabetic() || first == '_' || first == ':')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_value(v: &str) -> bool {
    matches!(v, "+Inf" | "-Inf" | "NaN") || v.parse::<f64>().is_ok()
}

/// Splits a sample line into `(metric name, labels, value)`.
fn split_sample(line: &str) -> Option<(&str, Option<&str>, &str)> {
    let (series, value) = line.rsplit_once(' ')?;
    match series.split_once('{') {
        Some((name, rest)) => {
            let labels = rest.strip_suffix('}')?;
            Some((name, Some(labels), value))
        }
        None => Some((series, None, value)),
    }
}

/// The family a sample belongs to: `x_bucket`/`x_sum`/`x_count` roll up
/// to `x` when `x` is a declared histogram.
fn family<'a>(name: &'a str, types: &HashMap<String, String>) -> &'a str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if types.get(base).map(String::as_str) == Some("histogram") {
                return base;
            }
        }
    }
    name
}

fn le_value(labels: &str) -> Option<String> {
    labels.split(',').find_map(|kv| {
        let (k, v) = kv.split_once('=')?;
        (k == "le").then(|| v.trim_matches('"').to_string())
    })
}

struct BucketState {
    last: f64,
    saw_inf: bool,
    inf_value: f64,
}

fn lint(input: &str) -> Vec<String> {
    let mut errors = Vec::new();
    // metric name -> declared type, in declaration order.
    let mut types: HashMap<String, String> = HashMap::new();
    let mut buckets: HashMap<String, BucketState> = HashMap::new();
    let mut counts: HashMap<String, f64> = HashMap::new();
    for (idx, line) in input.lines().enumerate() {
        let lineno = idx + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut parts = comment.split_whitespace();
            match parts.next() {
                Some("HELP") if parts.next().is_none_or(|n| !valid_name(n)) => {
                    errors.push(format!("line {lineno}: malformed # HELP"));
                }
                Some("HELP") => {}
                Some("TYPE") => {
                    let name = parts.next().unwrap_or("");
                    let kind = parts.next().unwrap_or("");
                    if !valid_name(name)
                        || !matches!(
                            kind,
                            "counter" | "gauge" | "histogram" | "summary" | "untyped"
                        )
                    {
                        errors.push(format!("line {lineno}: malformed # TYPE"));
                    } else if types.insert(name.to_string(), kind.to_string()).is_some() {
                        errors.push(format!("line {lineno}: duplicate # TYPE for {name}"));
                    }
                }
                // Plain comments are legal exposition.
                _ => {}
            }
            continue;
        }
        let Some((name, labels, value)) = split_sample(line) else {
            errors.push(format!("line {lineno}: not a comment or sample"));
            continue;
        };
        if !valid_name(name) {
            errors.push(format!("line {lineno}: bad metric name {name:?}"));
            continue;
        }
        if !valid_value(value) {
            errors.push(format!("line {lineno}: bad sample value {value:?}"));
            continue;
        }
        let fam = family(name, &types);
        let Some(kind) = types.get(fam) else {
            errors.push(format!(
                "line {lineno}: sample {name} has no preceding # TYPE"
            ));
            continue;
        };
        if kind == "counter" && !name.ends_with("_total") {
            errors.push(format!("line {lineno}: counter {name} must end in _total"));
        }
        if kind == "histogram" && name.ends_with("_bucket") {
            let Some(le) = labels.and_then(le_value) else {
                errors.push(format!("line {lineno}: {name} sample without an le label"));
                continue;
            };
            let v: f64 = if value == "+Inf" {
                f64::INFINITY
            } else {
                value.parse().unwrap()
            };
            let st = buckets.entry(fam.to_string()).or_insert(BucketState {
                last: -1.0,
                saw_inf: false,
                inf_value: 0.0,
            });
            if st.saw_inf {
                errors.push(format!("line {lineno}: {fam} bucket after le=\"+Inf\""));
            }
            if v < st.last {
                errors.push(format!(
                    "line {lineno}: {fam} buckets not cumulative ({v} after {})",
                    st.last
                ));
            }
            st.last = v;
            if le == "+Inf" {
                st.saw_inf = true;
                st.inf_value = v;
            }
        }
        if kind == "histogram" && name.ends_with("_count") {
            counts.insert(fam.to_string(), value.parse().unwrap_or(f64::NAN));
        }
    }
    for (fam, st) in &buckets {
        if !st.saw_inf {
            errors.push(format!("histogram {fam}: no le=\"+Inf\" bucket"));
        } else if let Some(count) = counts.get(fam) {
            if (st.inf_value - count).abs() > f64::EPSILON {
                errors.push(format!(
                    "histogram {fam}: le=\"+Inf\" bucket {} != _count {count}",
                    st.inf_value
                ));
            }
        } else {
            errors.push(format!("histogram {fam}: missing _count"));
        }
    }
    errors
}

fn main() -> ExitCode {
    let mut input = String::new();
    if let Err(e) = std::io::stdin().read_to_string(&mut input) {
        eprintln!("prom-lint: cannot read stdin: {e}");
        return ExitCode::from(2);
    }
    let errors = lint(&input);
    if errors.is_empty() {
        let samples = input
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .count();
        println!("prom-lint: OK ({samples} sample(s))");
        ExitCode::SUCCESS
    } else {
        for e in &errors {
            eprintln!("prom-lint: {e}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_the_registry_renderer_output() {
        let reg = offchip_obs::Registry::default();
        reg.add("serve.requests.predict", 3);
        reg.gauge_set("serve.cache.entries", 2);
        for v in [0, 1, 5, 5000] {
            reg.observe("serve.request_latency_us", v);
        }
        let text = offchip_obs::render_prometheus(&reg);
        assert_eq!(lint(&text), Vec::<String>::new());
    }

    #[test]
    fn rejects_each_defect_class() {
        // Sample without a TYPE.
        assert!(!lint("orphan_total 3\n").is_empty());
        // Counter not ending in _total.
        assert!(!lint("# TYPE x counter\nx 1\n").is_empty());
        // Bad value.
        assert!(!lint("# TYPE x gauge\nx banana\n").is_empty());
        // Non-cumulative buckets.
        let h = "# TYPE h histogram\n\
                 h_bucket{le=\"1\"} 5\nh_bucket{le=\"3\"} 3\nh_bucket{le=\"+Inf\"} 5\n\
                 h_sum 9\nh_count 5\n";
        assert!(!lint(h).is_empty());
        // +Inf bucket disagrees with _count.
        let h = "# TYPE h histogram\n\
                 h_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 4\n";
        assert!(!lint(h).is_empty());
        // Missing +Inf bucket.
        let h = "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_sum 9\nh_count 5\n";
        assert!(!lint(h).is_empty());
    }

    #[test]
    fn accepts_inf_and_nan_gauges() {
        assert_eq!(
            lint("# TYPE g gauge\ng +Inf\ng2_total 1\n# TYPE g2 counter\n"),
            vec!["line 3: sample g2_total has no preceding # TYPE".to_string()]
        );
        assert!(lint("# TYPE g gauge\ng NaN\n").is_empty());
    }
}
