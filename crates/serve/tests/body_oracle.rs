//! Memoised response bodies against the `Json`-tree renderer they
//! replaced, byte for byte.
//!
//! The oracle builds each body as one `Json` object — model block, point
//! or range members and any degraded-tier provenance merged into a single
//! `BTreeMap` — and renders it compactly, which is how the service wrote
//! every `/predict` and `/sweep` body before they were memoised. Every
//! body a [`FittedEntry`] serves, memoised, spliced or written fresh, must
//! equal it. Entries: the degraded analytic prior of each paper machine
//! (no simulation needed) and one CG.S entry from a real fill.

mod support;

use offchip_json::{json_obj, Json};
use offchip_model::FitProtocol;
use offchip_serve::service::MAX_N;
use offchip_serve::{
    degraded, FitSummary, FittedEntry, ModelKey, ModelOutcome, PredictService, ServiceConfig,
};
use offchip_topology::machines::{self, Preset, DEFAULT_EXPERIMENT_SCALE};
use offchip_topology::MachineSpec;
use std::sync::Barrier;
use support::{post_request, scratch};

fn oracle_model(e: &FitSummary) -> Json {
    json_obj! {
        "machine" => e.machine_name,
        "protocol" => e.protocol,
        "total_cores" => e.total_cores,
        "model" => e.model.params(),
        "fit_quality" => e.quality,
        "validation" => json_obj! {
            "mean_relative_error" => e.mean_relative_error,
            "mean_absolute_error" => e.mean_absolute_error,
        },
    }
}

fn oracle_point(e: &FitSummary, n: usize) -> Json {
    json_obj! {
        "n" => n,
        "c_n" => e.model.predict_c(n),
        "omega_n" => e.model.predict_omega(n),
        "speedup_n" => e.model.predict_speedup(n),
    }
}

fn merge(base: &mut Json, add: Json) {
    if let (Json::Obj(b), Json::Obj(a)) = (base, add) {
        b.extend(a);
    }
}

fn render(json: Json) -> Vec<u8> {
    format!("{}\n", json.to_compact_string()).into_bytes()
}

fn oracle_predict(e: &FitSummary, n: usize, extra: &Json) -> Vec<u8> {
    let mut out = oracle_model(e);
    merge(&mut out, oracle_point(e, n));
    merge(&mut out, extra.clone());
    render(out)
}

fn oracle_sweep(e: &FitSummary, from: usize, to: usize, extra: &Json) -> Vec<u8> {
    let points: Vec<Json> = (from..=to).map(|n| oracle_point(e, n)).collect();
    let (best_n, best_speedup) = e.model.optimal_cores(to);
    let mut out = oracle_model(e);
    merge(
        &mut out,
        json_obj! {
            "n_from" => from,
            "n_to" => to,
            "points" => points,
            "optimal" => json_obj! { "n" => best_n, "speedup" => best_speedup },
        },
    );
    merge(&mut out, extra.clone());
    render(out)
}

/// Degraded-tier provenance as the oracle merges it, and its `breaker`
/// value pre-rendered for [`FittedEntry`]'s `extra` members.
fn degraded_provenance() -> (Json, String) {
    let breaker = json_obj! {
        "state" => "open",
        "consecutive_failures" => 3u64,
        "last_error_kind" => "internal",
        "last_error" => "campaign journal: \"not a directory\"\n",
    };
    let rendered = breaker.to_compact_string();
    (
        json_obj! { "tier" => "degraded-analytic", "breaker" => breaker },
        rendered,
    )
}

fn paper_machines() -> [MachineSpec; 3] {
    [
        machines::intel_uma_8(),
        machines::intel_numa_24(),
        machines::amd_numa_48(),
    ]
    .map(|m| m.scaled(DEFAULT_EXPERIMENT_SCALE))
}

fn analytic(machine: &MachineSpec) -> FittedEntry {
    degraded::analytic_entry(machine, &FitProtocol::for_machine(&machine.name))
        .expect("analytic prior fits")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// Every `/predict` for `n` in `1..=total + 1` and at [`MAX_N`], and every
/// `/sweep` with `n_to <= total + 1`, against the oracle — first use
/// (memo fill) and again (memo hit).
fn assert_entry_matches_oracle(e: &FittedEntry) {
    let (fit, none) = (e.fit(), json_obj! {});
    let total = fit.total_cores;
    for n in (1..=total + 1).chain([MAX_N]) {
        let want = oracle_predict(fit, n, &none);
        for pass in ["first", "memoised"] {
            let got = e.predict_body(n, &[]);
            assert_eq!(
                text(&got),
                text(&want),
                "{}: /predict n={n} ({pass})",
                fit.machine_name
            );
        }
    }
    for to in 1..=total + 1 {
        for from in 1..=to {
            let got = e.sweep_body(from, to, &[]);
            assert_eq!(
                text(&got),
                text(&oracle_sweep(fit, from, to, &none)),
                "{}: /sweep {from}..={to}",
                fit.machine_name
            );
        }
    }
}

#[test]
fn analytic_entries_match_the_json_tree_oracle() {
    for machine in paper_machines() {
        assert_entry_matches_oracle(&analytic(&machine));
    }
}

#[test]
fn degraded_provenance_merges_in_key_order() {
    let (provenance, breaker) = degraded_provenance();
    let extra = [
        ("tier", "\"degraded-analytic\""),
        ("breaker", breaker.as_str()),
    ];
    for machine in paper_machines() {
        let e = analytic(&machine);
        let fit = e.fit();
        let total = fit.total_cores;
        for n in (1..=total + 1).chain([MAX_N]) {
            assert_eq!(
                text(&e.predict_body(n, &extra)),
                text(&oracle_predict(fit, n, &provenance)),
                "{}: degraded /predict n={n}",
                fit.machine_name
            );
        }
        for (from, to) in [(1, 1), (1, total), (2, total + 1), (total + 1, total + 1)] {
            assert_eq!(
                text(&e.sweep_body(from, to, &extra)),
                text(&oracle_sweep(fit, from, to, &provenance)),
                "{}: degraded /sweep {from}..={to}",
                fit.machine_name
            );
        }
        // Provenance never leaks into the memo the fitted path serves.
        assert_eq!(
            text(&e.predict_body(1, &[])),
            text(&oracle_predict(fit, 1, &json_obj! {}))
        );
    }
}

#[test]
fn fitted_cg_s_entry_matches_the_oracle_through_the_service() {
    let dir = scratch("oracle");
    let service = PredictService::new(ServiceConfig {
        journal_dir: Some(dir.clone()),
        seeds: vec![1],
        jobs: 2,
        ..ServiceConfig::default()
    });
    let key = ModelKey {
        machine: Preset::Uma,
        program: "CG.S".into(),
    };
    let entry = match service.model_for(&key, None).expect("CG.S fill") {
        ModelOutcome::Fitted(entry, _) => entry,
        _ => panic!("an undeadlined fill on a closed breaker answers fitted"),
    };
    let fit = entry.fit();
    assert!(
        fit.quality.fallback.is_none(),
        "a simulation-backed fit, not the analytic prior"
    );

    // Through the endpoint: parse, cache hit, memo.
    let none = json_obj! {};
    let total = fit.total_cores;
    for n in (1..=total + 1).chain([MAX_N]) {
        let body = format!(r#"{{"machine":"uma","program":"CG.S","n":{n}}}"#);
        let resp = service.handle(&post_request("/predict", &body));
        assert_eq!(resp.status, 200);
        assert_eq!(
            text(&resp.body),
            text(&oracle_predict(fit, n, &none)),
            "/predict n={n}"
        );
    }
    for to in 1..=total + 1 {
        for from in 1..=to {
            let body =
                format!(r#"{{"machine":"uma","program":"CG.S","n_from":{from},"n_to":{to}}}"#);
            let resp = service.handle(&post_request("/sweep", &body));
            assert_eq!(resp.status, 200);
            assert_eq!(
                text(&resp.body),
                text(&oracle_sweep(fit, from, to, &none)),
                "/sweep {from}..={to}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn racing_first_requests_for_one_n_get_identical_bytes() {
    const THREADS: usize = 8;
    let machine = machines::amd_numa_48().scaled(DEFAULT_EXPERIMENT_SCALE);
    for n in [1, 7, 48] {
        // A fresh entry per round, so every thread races the first fill.
        let entry = analytic(&machine);
        let start = Barrier::new(THREADS);
        let bodies: Vec<Vec<u8>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        entry.predict_body(n, &[])
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let want = oracle_predict(entry.fit(), n, &json_obj! {});
        for body in &bodies {
            assert_eq!(text(body), text(&want), "n={n}");
        }
    }
}
