//! The Prometheus text exposition (format 0.0.4): the one model and the
//! one renderer behind every `/metrics` endpoint, plus the parsing,
//! relabeling, and merging that `merced stat` and the `ppet-cluster`
//! router's aggregated `/metrics` build on.
//!
//! [`Metrics::exposition`](crate::Metrics::exposition) snapshots a live
//! registry into an [`Exposition`]; [`parse`] reconstructs one —
//! counters, gauges, and [`HistogramSnapshot`]s — from scraped text;
//! [`Exposition::relabel`] stamps a label (e.g. `backend="host:port"`)
//! onto every series; [`Exposition::merge`] folds several into one
//! rollup; and [`Exposition::render_prometheus`] emits the text (one
//! `# HELP`/`# TYPE` header per family, cumulative monotone `_bucket`
//! series, `+Inf` equal to `_count`).
//!
//! Aggregating through the public exposition format — rather than a
//! private side channel — keeps every aggregator honest: a rendering bug
//! in any server surfaces in its aggregators immediately.

use std::collections::BTreeMap;

use crate::metrics::HistogramSnapshot;

/// A parsed exposition: every series keyed by its exposition name plus
/// verbatim label block (`serve_requests`,
/// `serve_latency_us{outcome="hit"}`, …).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Exposition {
    /// Counter samples.
    pub counters: BTreeMap<String, u64>,
    /// Gauge samples.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram series reconstructed from `_bucket`/`_sum`/`_count`.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

/// Splits a sample line into `(series key, value)` where the key keeps
/// its label block verbatim: `a_bucket{le="3"} 7` → (`a_bucket{le="3"}`,
/// `7`). The value is whatever follows the last space.
fn split_sample(line: &str) -> Option<(&str, &str)> {
    let (name, value) = line.rsplit_once(' ')?;
    Some((name.trim(), value.trim()))
}

/// Splits a `k="v",k="v",…` label block into its pairs, respecting
/// quoting: a comma inside a quoted value does not separate pairs, and a
/// `\"` or `\\` escape inside the quotes does not end the value. A naive
/// `block.split(',')` shears any label whose value contains a comma —
/// exactly the kind of value a relabeled backend address or an
/// upstream-supplied outcome string can carry.
fn split_pairs(block: &str) -> Vec<&str> {
    let mut pairs = Vec::new();
    if block.is_empty() {
        return pairs;
    }
    let mut start = 0;
    let mut in_quotes = false;
    let mut escaped = false;
    for (i, c) in block.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_quotes => escaped = true,
            '"' => in_quotes = !in_quotes,
            ',' if !in_quotes => {
                pairs.push(&block[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    pairs.push(&block[start..]);
    pairs
}

/// Undoes [`escape_label_value`]: `\\` → `\`, `\"` → `"`, `\n` →
/// newline (the three escapes the exposition format defines for label
/// values).
fn unescape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    let mut chars = value.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some(other) => out.push(other),
            None => out.push('\\'),
        }
    }
    out
}

/// Escapes a raw string for use inside a quoted label value, per the
/// Prometheus text format: backslash, double quote, and newline become
/// `\\`, `\"`, and `\n`.
fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Pulls one label's value out of a `{k="v",…}` block, unescaped.
fn label_value(series: &str, label: &str) -> Option<String> {
    let block = series.split_once('{')?.1.strip_suffix('}')?;
    for pair in split_pairs(block) {
        let (key, value) = pair.split_once('=')?;
        if key == label {
            let value = value
                .strip_prefix('"')
                .and_then(|v| v.strip_suffix('"'))
                .unwrap_or(value);
            return Some(unescape_label_value(value));
        }
    }
    None
}

/// Drops one label (and its separator) from a series key, so bucket
/// samples regroup under their parent histogram series.
fn strip_label(series: &str, label: &str) -> String {
    let Some((base, block)) = series.split_once('{') else {
        return series.to_owned();
    };
    let block = block.strip_suffix('}').unwrap_or(block);
    let kept: Vec<&str> = split_pairs(block)
        .into_iter()
        .filter(|pair| pair.split_once('=').map_or(true, |(k, _)| k != label))
        .collect();
    if kept.is_empty() {
        base.to_owned()
    } else {
        format!("{base}{{{}}}", kept.join(","))
    }
}

/// The inclusive lower bound of the log bucket whose `le` label is
/// `le` — the inverse of the renderer's `le` labeling.
fn bucket_lower(le: u64) -> u64 {
    if le == 0 {
        0
    } else if le == u64::MAX {
        1 << 63
    } else {
        le.div_ceil(2)
    }
}

/// The inclusive integer `le` label of the log bucket whose lower bound
/// is `lower`: the bucket holding bit-length `i` values
/// (`[2^(i-1), 2^i)`) becomes `2^i - 1`, the zero bucket `0`, and the
/// top bucket `u64::MAX` — exact integers, so [`bucket_lower`] inverts
/// it.
fn bucket_le(lower: u64) -> String {
    if lower == 0 {
        "0".to_owned()
    } else if lower >= 1 << 63 {
        u64::MAX.to_string()
    } else {
        (2 * lower - 1).to_string()
    }
}

/// Parses a Prometheus text exposition (format 0.0.4) back into
/// counters, gauges, and reconstructed histogram snapshots.
///
/// Histogram families are recognized by their `# TYPE <name> histogram`
/// header; their `_bucket` series are de-cumulated into
/// [`HistogramSnapshot`] buckets, and the `+Inf` bucket (implied by
/// `_count`) is dropped. Samples without a `# TYPE` header default to
/// counters.
///
/// # Errors
///
/// Malformed sample lines or non-monotone bucket series, as prose.
pub fn parse(text: &str) -> Result<Exposition, String> {
    let mut expo = Exposition::default();
    let mut kinds: BTreeMap<String, String> = BTreeMap::new();
    // Per histogram series: ascending (le, cumulative) pairs.
    let mut buckets: BTreeMap<String, Vec<(u64, u64)>> = BTreeMap::new();
    let mut sums: BTreeMap<String, u64> = BTreeMap::new();
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();

    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            if let Some((name, kind)) = rest.split_once(' ') {
                kinds.insert(name.to_owned(), kind.trim().to_owned());
            }
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let (series, value) = split_sample(line).ok_or_else(|| format!("bad sample: {line}"))?;
        let base = series.split('{').next().unwrap_or(series);
        let kind = kinds.get(base).map_or("counter", String::as_str);
        // Histogram families expose their samples under suffixed names.
        let histogram_of = |suffix: &str| {
            base.strip_suffix(suffix)
                .filter(|b| kinds.get(*b).map(String::as_str) == Some("histogram"))
                .map(str::to_owned)
        };
        if let Some(hist) = histogram_of("_bucket") {
            let Some(le) = label_value(series, "le") else {
                return Err(format!("bucket sample without le: {line}"));
            };
            if le == "+Inf" {
                continue; // implied by _count
            }
            let le: u64 = le.parse().map_err(|e| format!("bad le {le:?}: {e}"))?;
            let cumulative: u64 = value
                .parse()
                .map_err(|e| format!("bad sample {line}: {e}"))?;
            let without_le = strip_label(series, "le");
            let key = format!(
                "{hist}{}",
                without_le.strip_prefix(base).unwrap_or_default()
            );
            buckets.entry(key).or_default().push((le, cumulative));
        } else if let Some(hist) = histogram_of("_sum") {
            let key = format!("{hist}{}", series.strip_prefix(base).unwrap_or_default());
            sums.insert(key, value.parse().map_err(|e| format!("{line}: {e}"))?);
        } else if let Some(hist) = histogram_of("_count") {
            let key = format!("{hist}{}", series.strip_prefix(base).unwrap_or_default());
            counts.insert(key, value.parse().map_err(|e| format!("{line}: {e}"))?);
        } else if kind == "gauge" {
            let v: f64 = value.parse().map_err(|e| format!("{line}: {e}"))?;
            expo.gauges.insert(series.to_owned(), v);
        } else {
            let v: u64 = value.parse().map_err(|e| format!("{line}: {e}"))?;
            expo.counters.insert(series.to_owned(), v);
        }
    }

    for (key, mut series) in buckets {
        series.sort_by_key(|&(le, _)| le);
        let mut snapshot = HistogramSnapshot {
            count: counts.get(&key).copied().unwrap_or_default(),
            sum: sums.get(&key).copied().unwrap_or_default(),
            buckets: Vec::with_capacity(series.len()),
        };
        let mut previous = 0u64;
        for (le, cumulative) in series {
            let delta = cumulative
                .checked_sub(previous)
                .ok_or_else(|| format!("non-monotone buckets in {key}"))?;
            previous = cumulative;
            if delta > 0 {
                snapshot.buckets.push((bucket_lower(le), delta));
            }
        }
        expo.histograms.insert(key, snapshot);
    }
    // _count without any finite bucket still yields a snapshot (so a
    // quantile degrades to 0 rather than the series vanishing).
    for (key, count) in counts {
        expo.histograms.entry(key.clone()).or_insert_with(|| {
            let sum = sums.get(&key).copied().unwrap_or_default();
            HistogramSnapshot {
                count,
                sum,
                buckets: Vec::new(),
            }
        });
    }
    Ok(expo)
}

/// Appends `label="value"` to a series key, preserving any existing
/// label block: `a` → `a{l="v"}`, `a{x="y"}` → `a{x="y",l="v"}`. The
/// raw `value` is escaped into exposition form on the way in.
fn with_label(series: &str, label: &str, value: &str) -> String {
    let value = escape_label_value(value);
    match series.split_once('{') {
        Some((base, rest)) => {
            let rest = rest.strip_suffix('}').unwrap_or(rest);
            format!("{base}{{{rest},{label}=\"{value}\"}}")
        }
        None => format!("{series}{{{label}=\"{value}\"}}"),
    }
}

impl Exposition {
    /// A copy with `label="value"` stamped onto every series — how an
    /// aggregator attributes one scrape to its source (e.g.
    /// `backend="127.0.0.1:8427"`). The value may be any string: quotes,
    /// backslashes, and newlines are escaped into exposition form, and
    /// [`parse`] recovers the original through its label-aware splitting.
    #[must_use]
    pub fn relabel(&self, label: &str, value: &str) -> Exposition {
        Exposition {
            counters: self
                .counters
                .iter()
                .map(|(k, v)| (with_label(k, label, value), *v))
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|(k, v)| (with_label(k, label, value), *v))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, v)| (with_label(k, label, value), v.clone()))
                .collect(),
        }
    }

    /// Folds `other` into `self`: counters and gauges sum per series,
    /// histograms merge bucket-wise ([`HistogramSnapshot::merge`]).
    /// Summing gauges is the cluster-rollup reading (total queue depth,
    /// total cache entries); per-source values stay available through
    /// [`Exposition::relabel`]ed series.
    pub fn merge(&mut self, other: &Exposition) {
        for (key, value) in &other.counters {
            let slot = self.counters.entry(key.clone()).or_insert(0);
            *slot = slot.saturating_add(*value);
        }
        for (key, value) in &other.gauges {
            *self.gauges.entry(key.clone()).or_insert(0.0) += value;
        }
        for (key, value) in &other.histograms {
            self.histograms.entry(key.clone()).or_default().merge(value);
        }
    }

    /// Renders the exposition as Prometheus text format 0.0.4: one
    /// `# HELP`/`# TYPE` header per family (all series sharing a base
    /// name, however labelled), histogram series expanded into
    /// cumulative `_bucket{le=…}` plus `_sum`/`_count`, and the
    /// mandatory `+Inf` bucket equal to `_count`. Empty buckets are
    /// elided; cumulative counts saturate at `u64::MAX`, so a merged
    /// series near the top of the range stays monotone.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();

        for (base, series) in group(&self.counters) {
            header(&mut out, base, "counter");
            for (labels, value) in series {
                let _ = writeln!(out, "{base}{} {value}", block(labels, None));
            }
        }
        for (base, series) in group(&self.gauges) {
            header(&mut out, base, "gauge");
            for (labels, value) in series {
                let _ = write!(out, "{base}{} ", block(labels, None));
                if value.fract() == 0.0 && value.abs() < 1e15 {
                    let _ = writeln!(out, "{}", *value as i64);
                } else {
                    let _ = writeln!(out, "{value}");
                }
            }
        }
        for (base, series) in group(&self.histograms) {
            header(&mut out, base, "histogram");
            for (labels, snap) in series {
                let mut cumulative = 0u64;
                for &(lower, count) in &snap.buckets {
                    cumulative = cumulative.saturating_add(count);
                    let le = bucket_le(lower);
                    let _ = writeln!(
                        out,
                        "{base}_bucket{} {cumulative}",
                        block(labels, Some(&le))
                    );
                }
                let _ = writeln!(
                    out,
                    "{base}_bucket{} {}",
                    block(labels, Some("+Inf")),
                    snap.count
                );
                let _ = writeln!(out, "{base}_sum{} {}", block(labels, None), snap.sum);
                let _ = writeln!(out, "{base}_count{} {}", block(labels, None), snap.count);
            }
        }
        out
    }
}

/// Groups series keys by base name, preserving per-family series order.
fn group<V>(series: &BTreeMap<String, V>) -> BTreeMap<&str, Vec<(&str, &V)>> {
    let mut families: BTreeMap<&str, Vec<(&str, &V)>> = BTreeMap::new();
    for (key, value) in series {
        let (base, labels) = match key.split_once('{') {
            Some((base, rest)) => (base, rest.strip_suffix('}').unwrap_or(rest)),
            None => (key.as_str(), ""),
        };
        families.entry(base).or_default().push((labels, value));
    }
    families
}

/// Writes the `# HELP`/`# TYPE` header for one family.
fn header(out: &mut String, base: &str, kind: &str) {
    use std::fmt::Write as _;
    let _ = writeln!(out, "# HELP {base} ppet {kind}");
    let _ = writeln!(out, "# TYPE {base} {kind}");
}

/// Renders a label block from stored pairs plus an optional `le` label.
fn block(labels: &str, le: Option<&str>) -> String {
    match (labels.is_empty(), le) {
        (true, None) => String::new(),
        (true, Some(le)) => format!("{{le=\"{le}\"}}"),
        (false, None) => format!("{{{labels}}}"),
        (false, Some(le)) => format!("{{{labels},le=\"{le}\"}}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Metrics;

    fn sample_metrics() -> Metrics {
        let m = Metrics::new();
        m.counter("serve.requests").add(5);
        m.gauge("serve.queue_depth").set(2.0);
        let h = m.histogram("serve.latency_us{outcome=\"hit\"}");
        for v in [0, 3, 100, 100, 9000] {
            h.record(v);
        }
        m
    }

    #[test]
    fn parse_round_trips_the_registry_renderer() {
        let metrics = sample_metrics();
        let expo = parse(&metrics.exposition().render_prometheus()).unwrap();
        assert_eq!(expo.counters["serve_requests"], 5);
        assert_eq!(expo.gauges["serve_queue_depth"], 2.0);
        let hist = &expo.histograms["serve_latency_us{outcome=\"hit\"}"];
        assert_eq!(
            *hist,
            metrics
                .histogram("serve.latency_us{outcome=\"hit\"}")
                .snapshot()
        );
        assert_eq!(expo, metrics.exposition(), "parse inverts the render");
    }

    #[test]
    fn render_round_trips_a_parsed_exposition() {
        let text = sample_metrics().exposition().render_prometheus();
        let expo = parse(&text).unwrap();
        let again = parse(&expo.render_prometheus()).unwrap();
        assert_eq!(expo, again, "render ∘ parse is the identity");
    }

    #[test]
    fn relabel_stamps_every_series() {
        let expo = parse(&sample_metrics().exposition().render_prometheus()).unwrap();
        let tagged = expo.relabel("backend", "127.0.0.1:9");
        assert_eq!(
            tagged.counters["serve_requests{backend=\"127.0.0.1:9\"}"],
            5
        );
        assert!(tagged
            .histograms
            .contains_key("serve_latency_us{outcome=\"hit\",backend=\"127.0.0.1:9\"}"));
        // Relabeled output still parses as a well-formed exposition.
        let back = parse(&tagged.render_prometheus()).unwrap();
        assert_eq!(back, tagged);
    }

    #[test]
    fn merge_sums_counters_and_merges_histograms() {
        let a = parse(&sample_metrics().exposition().render_prometheus()).unwrap();
        let mut rollup = a.clone();
        rollup.merge(&a);
        assert_eq!(rollup.counters["serve_requests"], 10);
        assert_eq!(rollup.gauges["serve_queue_depth"], 4.0);
        let hist = &rollup.histograms["serve_latency_us{outcome=\"hit\"}"];
        assert_eq!(hist.count, 10);
        assert_eq!(
            hist.sum,
            2 * a.histograms["serve_latency_us{outcome=\"hit\"}"].sum
        );
    }

    #[test]
    fn merged_rollup_renders_a_lintable_exposition() {
        let a = parse(&sample_metrics().exposition().render_prometheus()).unwrap();
        let mut all = a.relabel("backend", "a");
        all.merge(&a.relabel("backend", "b"));
        let mut rollup = a.clone();
        rollup.merge(&a);
        all.merge(&rollup); // unlabelled cluster totals join the family
        let text = all.render_prometheus();
        // One family header covers labelled and unlabelled series alike.
        assert_eq!(
            text.matches("# TYPE serve_latency_us histogram\n").count(),
            1,
            "{text}"
        );
        assert!(text.contains("serve_requests{backend=\"a\"} 5\n"), "{text}");
        assert!(text.contains("serve_requests 10\n"), "{text}");
        // The whole thing still parses (monotone buckets, +Inf == count).
        let back = parse(&text).unwrap();
        assert_eq!(back.histograms.len(), 3);
    }

    #[test]
    fn exotic_label_values_survive_relabel_and_reparse() {
        // Commas, an embedded quote, a backslash, a newline, and an `=`
        // — each of which a quote-blind splitter mangles.
        let value = "a,b=\"c\"\\\nd";
        let expo = parse(&sample_metrics().exposition().render_prometheus()).unwrap();
        let tagged = expo.relabel("src", value);
        // The escaped form is what lands in the series keys…
        assert!(
            tagged
                .counters
                .contains_key("serve_requests{src=\"a,b=\\\"c\\\"\\\\\\nd\"}"),
            "keys: {:?}",
            tagged.counters.keys().collect::<Vec<_>>()
        );
        // …and the exposition round-trips bit-exactly, histogram
        // included: the bucket parser must find `le` *after* the exotic
        // label without shearing the block at its commas.
        let back = parse(&tagged.render_prometheus()).unwrap();
        assert_eq!(back, tagged);
        assert_eq!(back.histograms.len(), 1);
    }

    #[test]
    fn label_value_unescapes_and_respects_quoted_commas() {
        let series = "m{a=\"x,y\",b=\"q\\\"u\\\\o\\nte\",le=\"127\"}";
        assert_eq!(label_value(series, "a").as_deref(), Some("x,y"));
        assert_eq!(label_value(series, "b").as_deref(), Some("q\"u\\o\nte"));
        assert_eq!(label_value(series, "le").as_deref(), Some("127"));
        assert_eq!(label_value(series, "missing"), None);
        assert_eq!(
            strip_label(series, "le"),
            "m{a=\"x,y\",b=\"q\\\"u\\\\o\\nte\"}"
        );
    }

    #[test]
    fn merged_buckets_near_u64_max_render_monotone() {
        // One backend reports a bucket at u64::MAX, another reports a
        // lower bucket: the merged cumulative series must saturate, not
        // overflow or wrap.
        let a = parse(
            "# TYPE h histogram\n\
             h_bucket{le=\"3\"} 18446744073709551615\n\
             h_bucket{le=\"+Inf\"} 18446744073709551615\n\
             h_sum 0\n\
             h_count 18446744073709551615\n",
        )
        .unwrap();
        let b = parse(
            "# TYPE h histogram\n\
             h_bucket{le=\"1\"} 1\n\
             h_bucket{le=\"+Inf\"} 1\n\
             h_sum 1\n\
             h_count 1\n",
        )
        .unwrap();
        let mut merged = a;
        merged.merge(&b);
        let text = merged.render_prometheus();
        let cumulative: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("h_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert_eq!(cumulative, [1, u64::MAX, u64::MAX], "{text}");
        assert!(parse(&text).is_ok(), "{text}");
        let top = merged.histograms["h"].quantile(1.0);
        assert!((2.0..=4.0).contains(&top), "{top}");
    }

    #[test]
    fn rejects_non_monotone_buckets() {
        let bad = "\
# TYPE h histogram
h_bucket{le=\"127\"} 5
h_bucket{le=\"255\"} 3
h_count 5
h_sum 9
";
        let err = parse(bad).unwrap_err();
        assert!(err.contains("non-monotone"), "{err}");
    }
}
