//! Prometheus text exposition of the metrics registry.
//!
//! [`render_prometheus`] renders a [`Registry`] in the Prometheus
//! text-based exposition format (version 0.0.4): counters gain a `_total`
//! suffix, gauges render as-is, and the log2 [`Histogram`]s convert to
//! cumulative `le`-labelled buckets where each `le` is the inclusive
//! upper bound of the log2 bucket (`0`, `1`, `3`, `7`, …, `2^i − 1`),
//! followed by `+Inf`, `_sum` and `_count`.
//!
//! The conversion is lossless at the bucket level: every observation the
//! log2 histogram counted lands in exactly one cumulative step, so
//! `sum(per-bucket deltas) == _count == +Inf` — a property test pins
//! this for arbitrary sample sets.
//!
//! Metric names are sanitised to the Prometheus grammar
//! (`[a-zA-Z_:][a-zA-Z0-9_:]*`): every other byte becomes `_`, so
//! `serve.http.requests` scrapes as `serve_http_requests_total`.

use crate::metrics::{Histogram, Registry};

/// Sanitises a registry metric name to the Prometheus name grammar.
pub fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

fn render_histogram(out: &mut String, name: &str, h: &Histogram) {
    let n = prom_name(name);
    out.push_str(&format!("# TYPE {n} histogram\n"));
    let buckets = h.bucket_counts();
    let last_nonzero = buckets.iter().rposition(|&c| c > 0);
    let mut cum = 0u64;
    if let Some(last) = last_nonzero {
        for (i, &c) in buckets.iter().enumerate().take(last + 1) {
            cum += c;
            let le = Histogram::bucket_upper_bound(i);
            out.push_str(&format!("{n}_bucket{{le=\"{le}\"}} {cum}\n"));
        }
    }
    out.push_str(&format!("{n}_bucket{{le=\"+Inf\"}} {}\n", h.count()));
    out.push_str(&format!("{n}_sum {}\n", h.sum()));
    out.push_str(&format!("{n}_count {}\n", h.count()));
}

/// Renders the registry in Prometheus text exposition format.
pub fn render_prometheus(reg: &Registry) -> String {
    let snap = reg.snapshot();
    let mut out = String::new();
    for (name, v) in &snap.counters {
        let n = prom_name(name);
        out.push_str(&format!("# TYPE {n}_total counter\n{n}_total {v}\n"));
    }
    for (name, v) in &snap.gauges {
        let n = prom_name(name);
        out.push_str(&format!("# TYPE {n} gauge\n{n} {v}\n"));
    }
    for (name, h) in reg.histograms_raw() {
        render_histogram(&mut out, &name, &h);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_sanitise_to_prom_grammar() {
        assert_eq!(prom_name("serve.http.requests"), "serve_http_requests");
        assert_eq!(
            prom_name("dram.queue_wait_cycles"),
            "dram_queue_wait_cycles"
        );
        assert_eq!(prom_name("9lives"), "_lives");
        assert_eq!(prom_name(""), "_");
        assert_eq!(prom_name("a-b c"), "a_b_c");
    }

    #[test]
    fn golden_scrape_renders_all_kinds() {
        let r = Registry::default();
        r.add("serve.http.requests", 7);
        r.gauge_set("serve.conns.active", 3);
        r.observe("serve.latency_us", 0);
        r.observe("serve.latency_us", 1);
        r.observe("serve.latency_us", 5);
        r.observe("serve.latency_us", 5000);
        let text = render_prometheus(&r);
        let expected = "\
# TYPE serve_http_requests_total counter
serve_http_requests_total 7
# TYPE serve_conns_active gauge
serve_conns_active 3
# TYPE serve_latency_us histogram
serve_latency_us_bucket{le=\"0\"} 1
serve_latency_us_bucket{le=\"1\"} 2
serve_latency_us_bucket{le=\"3\"} 2
serve_latency_us_bucket{le=\"7\"} 3
serve_latency_us_bucket{le=\"15\"} 3
serve_latency_us_bucket{le=\"31\"} 3
serve_latency_us_bucket{le=\"63\"} 3
serve_latency_us_bucket{le=\"127\"} 3
serve_latency_us_bucket{le=\"255\"} 3
serve_latency_us_bucket{le=\"511\"} 3
serve_latency_us_bucket{le=\"1023\"} 3
serve_latency_us_bucket{le=\"2047\"} 3
serve_latency_us_bucket{le=\"4095\"} 3
serve_latency_us_bucket{le=\"8191\"} 4
serve_latency_us_bucket{le=\"+Inf\"} 4
serve_latency_us_sum 5006
serve_latency_us_count 4
";
        assert_eq!(text, expected);
    }

    #[test]
    fn buckets_are_cumulative_monotone_and_consistent_with_csv() {
        let r = Registry::default();
        for v in [3u64, 9, 17, 1200, 40_000, 40_000, 0] {
            r.observe("x.lat", v);
        }
        r.add("x.count", 2);
        let text = render_prometheus(&r);
        let mut prev = 0u64;
        let mut inf = None;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("x_lat_bucket{le=\"") {
                let v: u64 = rest.split("} ").nth(1).unwrap().parse().unwrap();
                assert!(v >= prev, "cumulative buckets must be monotone: {line}");
                prev = v;
                if rest.starts_with("+Inf") {
                    inf = Some(v);
                }
            }
        }
        assert_eq!(inf, Some(7));
        // _count/_sum agree with the CSV rendering of the same registry.
        let csv = r.snapshot().to_csv();
        let csv_line = csv.lines().find(|l| l.starts_with("hist,x.lat")).unwrap();
        let count: u64 = csv_line.split(',').nth(3).unwrap().parse().unwrap();
        assert!(text.contains(&format!("x_lat_count {count}")));
        let sum = 3 + 9 + 17 + 1200 + 40_000 + 40_000;
        assert!(text.contains(&format!("x_lat_sum {sum}")));
        assert!(text.contains("x_count_total 2"));
    }

    #[test]
    fn empty_histogram_renders_zero_buckets() {
        let r = Registry::default();
        r.merge_histogram("never", &Histogram::new()); // no-op: stays absent
        r.observe("one", 4);
        let text = render_prometheus(&r);
        assert!(!text.contains("never"));
        assert!(text.contains("one_bucket{le=\"+Inf\"} 1"));
    }
}
