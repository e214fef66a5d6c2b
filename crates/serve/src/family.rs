//! The metric-family model behind `GET /metrics`: one definition per metric,
//! rendered to both the JSON document and the Prometheus text exposition.
//!
//! [`ServeMetrics::families`](crate::metrics::ServeMetrics::families) lists
//! every [`Family`], read from the live atomics and histograms at scrape
//! time. [`render_json`] and [`render_prometheus`] are the only code that
//! turns that list into text, so the two formats carry the same samples by
//! construction. The crate docs state the rules the two renderers follow.

use crate::obs::{append_histogram, HistogramSnapshot};
use holistix_corpus::json::JsonValue;

/// One sample's value.
#[derive(Debug)]
pub enum Value {
    /// A count or an integral reading.
    Int(u64),
    /// A fractional reading.
    Float(f64),
    /// A 0/1 gauge; JSON renders it as a boolean.
    Flag(bool),
    /// Not available on this platform or not configured: JSON `null`,
    /// omitted from Prometheus.
    Unknown,
    /// A latency histogram; JSON renders its count, p50/p99/p999, max and
    /// mean (percentiles and mean `null` when empty).
    Histogram(HistogramSnapshot),
    /// A batch-size histogram; JSON renders its count, max and non-empty
    /// buckets keyed by upper bound (exact below 32).
    Sizes(HistogramSnapshot),
}

/// A metric family: its identity in both formats and its samples.
#[derive(Debug)]
pub struct Family {
    /// Prometheus family name.
    name: &'static str,
    /// Prometheus `# HELP` text.
    help: &'static str,
    /// Prometheus `# TYPE`: `counter`, `gauge` or `histogram`.
    metric_type: &'static str,
    /// Label names, in Prometheus order.
    labels: &'static [&'static str],
    /// JSON location template, e.g. `queues.{kind}.depth`; empty for a
    /// Prometheus-only family.
    json: &'static str,
    /// JSON location of the sum of the samples, if any.
    json_total: Option<&'static str>,
    /// The samples as (label values aligned with `labels`, value), in
    /// Prometheus order.
    samples: Vec<(Vec<String>, Value)>,
}

impl Family {
    fn new(
        metric_type: &'static str,
        name: &'static str,
        help: &'static str,
        json: &'static str,
    ) -> Self {
        Self {
            name,
            help,
            metric_type,
            labels: &[],
            json,
            json_total: None,
            samples: Vec::new(),
        }
    }

    /// A counter family, with no labels or samples yet.
    pub fn counter(name: &'static str, help: &'static str, json: &'static str) -> Self {
        Self::new("counter", name, help, json)
    }

    /// A gauge family, with no labels or samples yet.
    pub fn gauge(name: &'static str, help: &'static str, json: &'static str) -> Self {
        Self::new("gauge", name, help, json)
    }

    /// A histogram family, with no labels or samples yet.
    pub fn histogram(name: &'static str, help: &'static str, json: &'static str) -> Self {
        Self::new("histogram", name, help, json)
    }

    /// Name the labels the samples carry.
    pub fn labels(mut self, labels: &'static [&'static str]) -> Self {
        self.labels = labels;
        self
    }

    /// Add one sample per `(label values, value)` pair: one value per label
    /// name set by [`labels`](Self::labels), which must come first.
    pub fn samples<'a, const N: usize>(
        mut self,
        samples: impl IntoIterator<Item = ([&'a str; N], Value)>,
    ) -> Self {
        debug_assert_eq!(N, self.labels.len(), "{}: one value per label", self.name);
        for (labels, value) in samples {
            let labels = labels.iter().map(|l| l.to_string()).collect();
            self.samples.push((labels, value));
        }
        self
    }

    /// Add the single sample of an unlabeled family.
    pub fn value(self, value: Value) -> Self {
        self.samples([([], value)])
    }

    /// Also write the sum of the samples at `location` in JSON.
    pub fn with_json_total(mut self, location: &'static str) -> Self {
        self.json_total = Some(location);
        self
    }
}

/// The JSON value at `path` under `root`, with empty objects created (after
/// their siblings) where the path is missing.
fn node<'a>(root: &'a mut JsonValue, path: &[&str]) -> &'a mut JsonValue {
    match (path.split_first(), root) {
        (Some((key, rest)), JsonValue::Object(fields)) => {
            let index = fields
                .iter()
                .position(|(k, _)| k == key)
                .unwrap_or_else(|| {
                    fields.push((key.to_string(), JsonValue::Object(Vec::new())));
                    fields.len() - 1
                });
            node(&mut fields[index].1, rest)
        }
        (_, leaf) => leaf,
    }
}

fn json_value(value: &Value) -> JsonValue {
    let number = |n: Option<f64>| n.map_or(JsonValue::Null, JsonValue::Number);
    match value {
        Value::Int(n) => JsonValue::Number(*n as f64),
        Value::Float(x) => JsonValue::Number(*x),
        Value::Flag(b) => JsonValue::Bool(*b),
        Value::Unknown => JsonValue::Null,
        Value::Histogram(h) => {
            let pct = |q: f64| number(h.percentile(q).map(|v| v as f64));
            JsonValue::object(vec![
                ("count", JsonValue::Number(h.count() as f64)),
                ("p50", pct(0.50)),
                ("p99", pct(0.99)),
                ("p999", pct(0.999)),
                ("max", JsonValue::Number(h.max() as f64)),
                ("mean", number(h.mean())),
            ])
        }
        Value::Sizes(h) => JsonValue::object(vec![
            ("count", JsonValue::Number(h.count() as f64)),
            ("max_size", JsonValue::Number(h.max() as f64)),
            (
                "histogram",
                JsonValue::Object(
                    h.nonzero_buckets()
                        .map(|(upper, n)| (upper.to_string(), JsonValue::Number(n as f64)))
                        .collect(),
                ),
            ),
        ]),
    }
}

/// The `/metrics` JSON document (the crate docs state the rules).
pub fn render_json(families: &[Family]) -> JsonValue {
    let mut root = JsonValue::Object(Vec::new());
    for family in families.iter().filter(|f| !f.json.is_empty()) {
        if let Some(location) = family.json_total {
            let total: u64 = family
                .samples
                .iter()
                .map(|(_, value)| if let Value::Int(n) = value { *n } else { 0 })
                .sum();
            let path: Vec<&str> = location.split('.').collect();
            *node(&mut root, &path) = JsonValue::Number(total as f64);
        }
        let template: Vec<&str> = family.json.split('.').collect();
        if let Some(first_label) = template.iter().position(|s| s.starts_with('{')) {
            node(&mut root, &template[..first_label]);
        }
        for (labels, value) in &family.samples {
            let path: Vec<&str> = template
                .iter()
                .map(|segment| match segment.strip_prefix('{') {
                    Some(label) => {
                        let label = label.trim_end_matches('}');
                        let index = family.labels.iter().position(|&l| l == label);
                        index.map_or(*segment, |i| labels[i].as_str())
                    }
                    None => segment,
                })
                .collect();
            *node(&mut root, &path) = json_value(value);
        }
    }
    root
}

/// The `/metrics` Prometheus text exposition, version 0.0.4 (the crate docs
/// state the rules).
pub fn render_prometheus(families: &[Family]) -> String {
    let shown = |value: &Value| match value {
        Value::Histogram(h) | Value::Sizes(h) => h.count() > 0,
        Value::Unknown => false,
        Value::Int(_) | Value::Float(_) | Value::Flag(_) => true,
    };
    let mut out = String::with_capacity(8192);
    for family in families {
        let samples = || family.samples.iter().filter(|(_, value)| shown(value));
        if samples().next().is_none() {
            continue;
        }
        out.push_str(&format!(
            "# HELP {0} {1}\n# TYPE {0} {2}\n",
            family.name, family.help, family.metric_type
        ));
        for (values, value) in samples() {
            let labels: Vec<String> = family
                .labels
                .iter()
                .zip(values)
                .map(|(name, value)| format!("{name}=\"{value}\""))
                .collect();
            let labels = labels.join(",");
            let reading = match value {
                Value::Histogram(h) | Value::Sizes(h) => {
                    append_histogram(&mut out, family.name, &labels, h);
                    continue;
                }
                Value::Int(n) => n.to_string(),
                Value::Float(x) => x.to_string(),
                Value::Flag(b) => u8::from(*b).to_string(),
                Value::Unknown => continue,
            };
            if labels.is_empty() {
                out.push_str(&format!("{} {reading}\n", family.name));
            } else {
                out.push_str(&format!("{}{{{labels}}} {reading}\n", family.name));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::{validate_exposition, LogHistogram};

    fn histogram(values: &[u64]) -> HistogramSnapshot {
        let histogram = LogHistogram::new();
        for &v in values {
            histogram.record(v);
        }
        histogram.snapshot()
    }

    #[test]
    fn json_places_samples_by_location_and_totals_first() {
        let families = vec![
            Family::counter("req_total", "Requests.", "requests.{endpoint}")
                .labels(&["endpoint"])
                .with_json_total("requests.total")
                .samples([(["a"], Value::Int(2)), (["b"], Value::Int(3))]),
            Family::gauge("depth", "Depth.", "queues.{kind}.depth")
                .labels(&["kind", "family"])
                .samples([(["LR", "classical"], Value::Int(1))]),
            Family::gauge("closed", "Valve.", "valve.closed").value(Value::Flag(true)),
            Family::gauge("threads", "Threads.", "os_threads").value(Value::Unknown),
            Family::histogram("stage_us", "Stages.", "stages.{stage}").labels(&["stage"]),
            Family::gauge("build_info", "Build.", "")
                .labels(&["git"])
                .samples([(["x"], Value::Int(1))]),
        ];
        let json = render_json(&families);
        assert_eq!(
            json.to_string(),
            "{\"requests\":{\"total\":5,\"a\":2,\"b\":3},\"queues\":{\"LR\":{\"depth\":1}},\
             \"valve\":{\"closed\":true},\"os_threads\":null,\"stages\":{}}"
        );
    }

    #[test]
    fn json_histogram_shapes() {
        let sizes = render_json(&[
            Family::histogram("b", "B.", "b").value(Value::Sizes(histogram(&[1, 4, 4])))
        ]);
        assert_eq!(
            sizes.to_string(),
            "{\"b\":{\"count\":3,\"max_size\":4,\"histogram\":{\"1\":1,\"4\":2}}}"
        );
        let empty =
            render_json(&[Family::histogram("l", "L.", "l")
                .value(Value::Histogram(HistogramSnapshot::empty()))]);
        assert_eq!(
            empty.to_string(),
            "{\"l\":{\"count\":0,\"p50\":null,\"p99\":null,\"p999\":null,\"max\":0,\"mean\":null}}"
        );
    }

    #[test]
    fn prometheus_omits_unknown_values_empty_histograms_and_empty_families() {
        let families = vec![
            Family::gauge("up", "Up.", "up").value(Value::Flag(true)),
            Family::gauge("rate", "Rate.", "rate").value(Value::Unknown),
            Family::histogram("lat_us", "Latency.", "lat.{kind}")
                .labels(&["kind"])
                .samples([
                    (["LR"], Value::Histogram(histogram(&[3, 40]))),
                    (["BERT"], Value::Histogram(HistogramSnapshot::empty())),
                ]),
            Family::histogram("none_us", "Empty.", "none")
                .value(Value::Sizes(HistogramSnapshot::empty())),
            Family::counter("req_total", "Requests.", "r.{endpoint}")
                .labels(&["endpoint"])
                .samples([(["a"], Value::Int(7))]),
            Family::gauge("ratio", "Ratio.", "ratio").value(Value::Float(12.5)),
        ];
        let text = render_prometheus(&families);
        validate_exposition(&text).expect("valid exposition");
        assert!(text.starts_with("# HELP up Up.\n# TYPE up gauge\nup 1\n"));
        assert!(!text.contains("rate"));
        assert!(text.contains("lat_us_bucket{kind=\"LR\",le=\"+Inf\"} 2\n"));
        assert!(!text.contains("BERT"));
        assert!(!text.contains("none_us"));
        assert!(text.contains("# TYPE req_total counter\nreq_total{endpoint=\"a\"} 7\n"));
        assert!(text.ends_with("ratio 12.5\n"));
    }
}
