//! A fitted model and its memoised answers.
//!
//! A [`FittedEntry`] never changes after its fill, so neither does any
//! answer it gives: the model block and each core count's prediction are
//! pure functions of the entry. The entry renders each of them once and
//! then splices bytes:
//!
//! * the model block (`machine`, `protocol`, `total_cores`, `model`,
//!   `fit_quality`, `validation`) is serialised to compact fragments when
//!   the entry is built;
//! * each `n` in `1..=total_cores` has a slot, filled on first use, with
//!   its point (`n`, `c_n`, `omega_n`, `speedup_n`) as `/predict` members
//!   and as a `/sweep` element — a cold request still renders only its own
//!   `n`, and the memo holds at most `total_cores` points;
//! * a body joins those fragments with what is written per request — an
//!   `n` above `total_cores`, a sweep's bounds and optimum, the degraded
//!   tier's breaker members — through one fragment writer.
//!
//! `write_object` emits members in byte-wise key order, the order a
//! `BTreeMap<String, Json>` renders in, so every body is byte-identical
//! to rendering the equivalent [`offchip_json::Json`] tree
//! (`tests/body_oracle.rs` holds it to that).

use offchip_json::ToJson;
use offchip_model::{ContentionModel, FitQuality};
use std::borrow::Cow;
use std::sync::OnceLock;

/// One object member, pre-rendered: its key and its compact JSON value.
/// Keys are plain ASCII identifiers and are written without escaping.
pub type Field<'a> = (&'a str, &'a str);

/// A fitted model plus everything a response quotes about it.
#[derive(Debug, Clone)]
pub struct FitSummary {
    /// Full machine name ("Intel UMA: Xeon E5320").
    pub machine_name: String,
    /// Fitting protocol used.
    pub protocol: &'static str,
    /// Cores on the machine.
    pub total_cores: usize,
    /// The fitted composition model.
    pub model: ContentionModel,
    /// Robust-fit degradation ledger.
    pub quality: FitQuality,
    /// Mean relative ω error against the fill sweep.
    pub mean_relative_error: Option<f64>,
    /// Mean absolute ω error against the fill sweep.
    pub mean_absolute_error: f64,
}

/// A [`FitSummary`] and its memoised answers — computed once per key,
/// immutable thereafter, so the memo can never disagree with the fit.
pub struct FittedEntry {
    fit: FitSummary,
    /// The model block's members, rendered at construction.
    block: [(&'static str, String); 6],
    /// Memoised points for `n` in `1..=total_cores`, at index `n - 1`,
    /// boxed so that a slot nobody has asked for costs a few words.
    slots: Box<[OnceLock<Box<Point>>]>,
}

/// One core count's prediction, rendered.
#[derive(Clone)]
struct Point {
    /// Values of [`POINT_KEYS`], in that order.
    values: [String; 4],
    /// The `/sweep` element `{"c_n":…,"n":…,"omega_n":…,"speedup_n":…}`.
    object: String,
}

const POINT_KEYS: [&str; 4] = ["c_n", "n", "omega_n", "speedup_n"];

impl Point {
    fn new(model: &ContentionModel, n: usize) -> Point {
        let values = [
            compact(&model.predict_c(n)),
            compact(&n),
            compact(&model.predict_omega(n)),
            compact(&model.predict_speedup(n)),
        ];
        let mut fields: Vec<Field<'_>> = POINT_KEYS
            .into_iter()
            .zip(values.iter().map(String::as_str))
            .collect();
        let mut object = String::new();
        write_object(&mut object, &mut fields);
        Point { values, object }
    }

    fn fields(&self) -> impl Iterator<Item = Field<'_>> {
        POINT_KEYS
            .into_iter()
            .zip(self.values.iter().map(String::as_str))
    }
}

impl FittedEntry {
    /// An entry for `fit`, with its model block rendered.
    pub fn new(fit: FitSummary) -> FittedEntry {
        let validation = offchip_json::json_obj! {
            "mean_relative_error" => fit.mean_relative_error,
            "mean_absolute_error" => fit.mean_absolute_error,
        };
        let block = [
            ("fit_quality", compact(&fit.quality)),
            ("machine", compact(&fit.machine_name)),
            ("model", compact(&fit.model.params())),
            ("protocol", compact(&fit.protocol)),
            ("total_cores", compact(&fit.total_cores)),
            ("validation", compact(&validation)),
        ];
        let slots = (0..fit.total_cores).map(|_| OnceLock::new()).collect();
        FittedEntry { fit, block, slots }
    }

    /// The fit this entry answers from.
    pub fn fit(&self) -> &FitSummary {
        &self.fit
    }

    /// The `/predict` body at core count `n` (≥ 1), trailing newline
    /// included, with `extra` members merged in: the model block and the
    /// memoised point, spliced.
    pub fn predict_body(&self, n: usize, extra: &[Field<'_>]) -> Vec<u8> {
        let point = self.point(n);
        let mut fields = self.block_fields();
        fields.extend(point.fields());
        fields.extend_from_slice(extra);
        body(&mut fields).into_bytes()
    }

    /// The `/sweep` body over `from..=to` (`1 <= from <= to`), trailing
    /// newline included, with `extra` members merged in: memoised points
    /// spliced between the model block and the range's optimum.
    pub fn sweep_body(&self, from: usize, to: usize, extra: &[Field<'_>]) -> Vec<u8> {
        let mut points = String::from("[");
        for n in from..=to {
            if n > from {
                points.push(',');
            }
            points.push_str(&self.point(n).object);
        }
        points.push(']');
        let (best_n, best_speedup) = self.fit.model.optimal_cores(to);
        let (best_n, best_speedup) = (compact(&best_n), compact(&best_speedup));
        let mut optimal = String::new();
        write_object(
            &mut optimal,
            &mut [("n", best_n.as_str()), ("speedup", best_speedup.as_str())],
        );
        let (n_from, n_to) = (from.to_string(), to.to_string());
        let mut fields = self.block_fields();
        fields.extend([
            ("n_from", n_from.as_str()),
            ("n_to", n_to.as_str()),
            ("optimal", optimal.as_str()),
            ("points", points.as_str()),
        ]);
        fields.extend_from_slice(extra);
        body(&mut fields).into_bytes()
    }

    fn slot(&self, n: usize) -> Option<&OnceLock<Box<Point>>> {
        n.checked_sub(1).and_then(|i| self.slots.get(i))
    }

    fn point(&self, n: usize) -> Cow<'_, Point> {
        match self.slot(n) {
            Some(slot) => {
                Cow::Borrowed(slot.get_or_init(|| Box::new(Point::new(&self.fit.model, n))))
            }
            None => Cow::Owned(Point::new(&self.fit.model, n)),
        }
    }

    /// The model block as fields, with room for a body's other members.
    fn block_fields(&self) -> Vec<Field<'_>> {
        let mut fields = Vec::with_capacity(self.block.len() + 8);
        fields.extend(self.block.iter().map(|(key, value)| (*key, value.as_str())));
        fields
    }
}

/// A response body: the object of `fields`, then a newline.
fn body(fields: &mut [Field<'_>]) -> String {
    let len: usize = fields.iter().map(|(k, v)| k.len() + v.len() + 4).sum();
    let mut out = String::with_capacity(len + 2);
    write_object(&mut out, fields);
    out.push('\n');
    out
}

/// Writes `{"key":value,…}` with `fields` sorted into byte-wise key
/// order, which is how a `BTreeMap<String, Json>` renders.
fn write_object(out: &mut String, fields: &mut [Field<'_>]) {
    fields.sort_unstable_by_key(|&(key, _)| key);
    out.push('{');
    for (i, (key, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(key);
        out.push_str("\":");
        out.push_str(value);
    }
    out.push('}');
}

/// `v` as compact JSON.
fn compact<T: ToJson>(v: &T) -> String {
    v.to_json().to_compact_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use offchip_model::FitProtocol;
    use offchip_topology::machines::{self, DEFAULT_EXPERIMENT_SCALE};

    fn uma_entry() -> FittedEntry {
        let machine = machines::intel_uma_8().scaled(DEFAULT_EXPERIMENT_SCALE);
        crate::degraded::analytic_entry(&machine, &FitProtocol::for_machine(&machine.name))
            .expect("analytic prior fits")
    }

    fn filled(entry: &FittedEntry) -> Vec<usize> {
        (1..=entry.fit.total_cores)
            .filter(|&n| entry.slot(n).unwrap().get().is_some())
            .collect()
    }

    #[test]
    fn a_request_renders_only_what_it_answers() {
        let entry = uma_entry();
        entry.predict_body(3, &[]);
        assert_eq!(filled(&entry), [3]);
        entry.sweep_body(2, 4, &[]);
        assert_eq!(filled(&entry), [2, 3, 4]);
        // Extra members reuse the point; beyond the machine nothing is kept.
        entry.predict_body(5, &[("tier", "\"x\"")]);
        entry.predict_body(entry.fit.total_cores + 1, &[]);
        assert_eq!(filled(&entry), [2, 3, 4, 5]);
    }

    #[test]
    fn members_are_written_in_byte_wise_key_order() {
        let mut out = String::new();
        write_object(
            &mut out,
            &mut [("n_to", "2"), ("b", "[]"), ("n", "1"), ("N", "0")],
        );
        assert_eq!(out, r#"{"N":0,"b":[],"n":1,"n_to":2}"#);
    }
}
