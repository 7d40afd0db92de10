//! `merced stat <addr>` — a one-screen health summary of a running
//! `merced serve` instance.
//!
//! The subcommand is a plain observability *client*: it scrapes the
//! server's `GET /metrics` (Prometheus text exposition 0.0.4) and
//! `GET /debug/requests` endpoints over a short-lived TCP connection,
//! reconstructs the per-outcome latency histograms from the exposed
//! `_bucket` series, and renders counters, queue gauges, latency
//! quantiles (p50/p95/p99 via [`HistogramSnapshot::quantile`]), and the
//! most recent request traces as one screen of text. `--watch SECS`
//! redraws in place; `--json` emits the same summary as a machine-
//! readable object.
//!
//! Parsing the exposition text back into [`HistogramSnapshot`]s (rather
//! than adding a private side channel) keeps the subcommand honest: it
//! sees exactly what any Prometheus scraper would see, so a rendering
//! bug in the server surfaces here first. The exposition model, its
//! parser, and its merge are [`ppet_trace::expo`]'s, shared with the
//! cluster router's metric aggregation; the HTTP client is
//! [`ppet_cluster::proxy::request`], the router's own one-shot client
//! (it sends `Connection: close`). This module keeps
//! only the stat-specific request rows and rendering on top.
//!
//! A `merced cluster` router answers `/metrics` with its aggregated
//! exposition but has no `/debug/requests`; its 404 there reads as "no
//! request rows", so `merced stat <router>` works too.
//!
//! With several addresses, one sample is scraped per server and
//! [`StatSample::merge`] folds them into a cluster-wide rollup:
//! counters and gauges sum, latency histograms merge bucket-wise, and
//! recent requests concatenate.

use std::time::Duration;

use ppet_trace::expo::{self, Exposition};
use ppet_trace::json::{self, Value};
use ppet_trace::HistogramSnapshot;

/// Per-read bound on a scrape; a stalled server fails the scrape.
const SCRAPE_TIMEOUT: Duration = Duration::from_secs(10);

/// Everything one `merced stat` sample needs, scraped from a server.
#[derive(Debug, Default)]
pub struct StatSample {
    /// The scraped exposition, keyed by exposition name + label block
    /// (`serve_requests`, `serve_latency_us{outcome="hit"}` …).
    pub metrics: Exposition,
    /// Recent request summaries from `GET /debug/requests`, newest
    /// first (empty when the trace ring is disabled or the server has
    /// no such route).
    pub requests: Vec<RequestSummary>,
}

/// One row of `GET /debug/requests`.
#[derive(Debug, Clone)]
pub struct RequestSummary {
    /// The request ID.
    pub id: String,
    /// Outcome class (`hit`, `store_hit`, `miss`, `timeout`, `error`,
    /// `shed`).
    pub outcome: String,
    /// HTTP status the request was answered with.
    pub status: u64,
    /// Circuit name (empty when the request never normalized).
    pub circuit: String,
    /// Effective seed.
    pub seed: u64,
    /// End-to-end wall time in microseconds.
    pub wall_us: u64,
    /// Whether the request coalesced onto another compile.
    pub coalesced: bool,
    /// Whether the ring pinned it as a slow request.
    pub pinned: bool,
}

/// `GET path` from `addr`: the body on 200, `None` on 404, an error
/// otherwise.
fn get(addr: &str, path: &str) -> Result<Option<String>, String> {
    let response = ppet_cluster::proxy::request(addr, "GET", path, &[], "", SCRAPE_TIMEOUT, None)
        .map_err(|e| format!("GET {path} from {addr}: {e}"))?;
    match response.status {
        200 => Ok(Some(response.body)),
        404 => Ok(None),
        status => Err(format!("GET {path}: HTTP {status}")),
    }
}

/// Scrapes one sample from a running server or router. A 404 from
/// `/debug/requests` (a router has no trace ring) leaves the request
/// rows empty.
///
/// # Errors
///
/// The first scrape or parse failure, as prose.
pub fn scrape(addr: &str) -> Result<StatSample, String> {
    let text = get(addr, "/metrics")?.ok_or("GET /metrics: HTTP 404")?;
    let metrics = expo::parse(&text)?;
    let requests = match get(addr, "/debug/requests")? {
        Some(body) => parse_requests(&body)?,
        None => Vec::new(),
    };
    Ok(StatSample { metrics, requests })
}

/// Parses the `GET /debug/requests` body.
///
/// # Errors
///
/// Malformed JSON or a body that is not a `requests` array.
pub fn parse_requests(body: &str) -> Result<Vec<RequestSummary>, String> {
    let value = json::parse(body).map_err(|e| format!("/debug/requests: {e}"))?;
    let rows = value
        .get("requests")
        .and_then(Value::as_arr)
        .ok_or("/debug/requests: missing requests array")?;
    let mut out = Vec::with_capacity(rows.len());
    for row in rows {
        let text = |key: &str| {
            row.get(key)
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_owned()
        };
        let num = |key: &str| row.get(key).and_then(Value::as_u64).unwrap_or_default();
        let flag = |key: &str| matches!(row.get(key), Some(Value::Bool(true)));
        out.push(RequestSummary {
            id: text("id"),
            outcome: text("outcome"),
            status: num("status"),
            circuit: text("circuit"),
            seed: num("seed"),
            wall_us: num("wall_us"),
            coalesced: flag("coalesced"),
            pinned: flag("pinned"),
        });
    }
    Ok(out)
}

/// The outcome classes `merced stat` tabulates, in display order.
pub const OUTCOMES: [&str; 6] = ["hit", "store_hit", "miss", "timeout", "error", "shed"];

impl StatSample {
    /// Folds another server's sample into this one: counters and gauges
    /// sum, histograms merge bucket-wise, and request rows concatenate
    /// (each scrape's rows stay newest-first within their run).
    pub fn merge(&mut self, other: &StatSample) {
        self.metrics.merge(&other.metrics);
        self.requests.extend(other.requests.iter().cloned());
    }

    /// A counter by exposition name (0 when the server has not minted
    /// it yet).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.metrics.counters.get(name).copied().unwrap_or_default()
    }

    /// A gauge by exposition name (0 when the server has not set it).
    fn gauge(&self, name: &str) -> f64 {
        self.metrics.gauges.get(name).copied().unwrap_or_default()
    }

    /// The latency histogram for one outcome class, if any requests of
    /// that class completed.
    #[must_use]
    pub fn latency(&self, outcome: &str) -> Option<&HistogramSnapshot> {
        self.metrics
            .histograms
            .get(&format!("serve_latency_us{{outcome=\"{outcome}\"}}"))
    }

    /// Renders the one-screen text summary.
    #[must_use]
    pub fn render_text(&self, addr: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "merced stat {addr}");
        let _ = writeln!(
            out,
            "requests {}   cache hits {}   misses {}   coalesced {}   store hits {}",
            self.counter("serve_requests"),
            self.counter("serve_cache_hits"),
            self.counter("serve_cache_misses"),
            self.counter("serve_coalesced"),
            self.counter("store_hits"),
        );
        let _ = writeln!(
            out,
            "timeouts {}   shed {}   queue depth {}   trace ring {}",
            self.counter("serve_timeouts"),
            self.counter("serve_shed"),
            self.gauge("serve_queue_depth"),
            self.gauge("serve_trace_ring_entries"),
        );
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{:<10} {:>8} {:>10} {:>10} {:>10} {:>10}",
            "latency_us", "count", "p50", "p95", "p99", "mean"
        );
        for outcome in OUTCOMES {
            let Some(snapshot) = self.latency(outcome) else {
                continue;
            };
            let _ = writeln!(
                out,
                "{:<10} {:>8} {:>10.0} {:>10.0} {:>10.0} {:>10.0}",
                outcome,
                snapshot.count,
                snapshot.quantile(0.50),
                snapshot.quantile(0.95),
                snapshot.quantile(0.99),
                snapshot.mean(),
            );
        }
        if !self.requests.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(
                out,
                "{:<32} {:<9} {:>6} {:>10}  circuit",
                "recent id", "outcome", "status", "wall_us"
            );
            for req in self.requests.iter().take(10) {
                let mut notes = String::new();
                if req.coalesced {
                    notes.push_str(" coalesced");
                }
                if req.pinned {
                    notes.push_str(" pinned");
                }
                let _ = writeln!(
                    out,
                    "{:<32} {:<9} {:>6} {:>10}  {}#{}{notes}",
                    req.id, req.outcome, req.status, req.wall_us, req.circuit, req.seed
                );
            }
        }
        out
    }

    /// Renders the summary as one JSON object (`--json`).
    #[must_use]
    pub fn render_json(&self, addr: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{");
        let _ = write!(out, "\"addr\":{}", json::escaped(addr));
        out.push_str(",\"counters\":{");
        for (i, (name, value)) in self.metrics.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{value}", json::escaped(name));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, value)) in self.metrics.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{value}", json::escaped(name));
        }
        out.push_str("},\"latency_us\":{");
        let mut first = true;
        for outcome in OUTCOMES {
            let Some(snapshot) = self.latency(outcome) else {
                continue;
            };
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{}:{{\"count\":{},\"sum\":{},\"p50\":{:.1},\"p95\":{:.1},\"p99\":{:.1}}}",
                json::escaped(outcome),
                snapshot.count,
                snapshot.sum,
                snapshot.quantile(0.50),
                snapshot.quantile(0.95),
                snapshot.quantile(0.99),
            );
        }
        out.push_str("},\"requests\":[");
        for (i, req) in self.requests.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"id\":{},\"outcome\":{},\"status\":{},\"circuit\":{},\"seed\":{},\
                 \"wall_us\":{},\"coalesced\":{},\"pinned\":{}}}",
                json::escaped(&req.id),
                json::escaped(&req.outcome),
                req.status,
                json::escaped(&req.circuit),
                req.seed,
                req.wall_us,
                req.coalesced,
                req.pinned,
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::TcpListener;

    fn sample(text: &str) -> StatSample {
        StatSample {
            metrics: expo::parse(text).unwrap(),
            requests: Vec::new(),
        }
    }

    const EXPOSITION: &str = "\
# HELP serve_requests ppet counter
# TYPE serve_requests counter
serve_requests 5
# HELP serve_queue_depth ppet gauge
# TYPE serve_queue_depth gauge
serve_queue_depth 2
# HELP serve_latency_us ppet histogram
# TYPE serve_latency_us histogram
serve_latency_us_bucket{outcome=\"hit\",le=\"127\"} 3
serve_latency_us_bucket{outcome=\"hit\",le=\"255\"} 4
serve_latency_us_bucket{outcome=\"hit\",le=\"+Inf\"} 4
serve_latency_us_sum{outcome=\"hit\"} 500
serve_latency_us_count{outcome=\"hit\"} 4
";

    #[test]
    fn parses_counters_gauges_and_histograms() {
        let sample = sample(EXPOSITION);
        assert_eq!(sample.counter("serve_requests"), 5);
        assert_eq!(sample.metrics.gauges["serve_queue_depth"], 2.0);
        let hist = sample.latency("hit").expect("hit histogram");
        assert_eq!(hist.count, 4);
        assert_eq!(hist.sum, 500);
        assert_eq!(hist.buckets, vec![(64, 3), (128, 1)]);
        // The reconstructed snapshot supports quantiles directly.
        assert!(hist.quantile(0.5) <= 128.0);
        assert!(hist.quantile(0.99) <= 256.0);
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
        let err = expo::parse(bad).unwrap_err();
        assert!(err.contains("non-monotone"), "{err}");
    }

    #[test]
    fn round_trips_the_server_renderer() {
        // Render a histogram through the real exposition code and read
        // it back: the snapshot must survive exactly.
        let metrics = ppet_trace::Metrics::new();
        metrics.counter("serve.requests").add(7);
        let hist = metrics.histogram("serve.latency_us{outcome=\"miss\"}");
        for value in [0, 1, 3, 200, 999, 70_000] {
            hist.record(value);
        }
        let sample = sample(&metrics.exposition().render_prometheus());
        assert_eq!(sample.counter("serve_requests"), 7);
        let back = sample.latency("miss").expect("miss histogram");
        assert_eq!(*back, hist.snapshot());
    }

    #[test]
    fn merge_sums_counters_and_histograms() {
        let mut merged = sample(EXPOSITION);
        let other = sample(EXPOSITION);
        merged.merge(&other);
        assert_eq!(merged.counter("serve_requests"), 10);
        assert_eq!(merged.metrics.gauges["serve_queue_depth"], 4.0);
        let hist = merged.latency("hit").expect("hit histogram");
        assert_eq!(hist.count, 8);
        assert_eq!(hist.sum, 1000);
        // A series only one side has passes through unchanged.
        let mut lone = StatSample::default();
        lone.merge(&other);
        assert_eq!(lone.counter("serve_requests"), 5);
        assert_eq!(lone.latency("hit").unwrap().count, 4);
    }

    #[test]
    fn parses_request_summaries() {
        let body = "{\"requests\":[{\"id\":\"abc\",\"outcome\":\"miss\",\"status\":200,\
                     \"circuit\":\"s27\",\"seed\":7,\"wall_us\":1234,\"coalesced\":false,\
                     \"pinned\":true,\"phases\":{\"normalize\":10}}]}\n";
        let rows = parse_requests(body).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].id, "abc");
        assert_eq!(rows[0].outcome, "miss");
        assert_eq!(rows[0].status, 200);
        assert_eq!(rows[0].wall_us, 1234);
        assert!(rows[0].pinned);
        assert!(!rows[0].coalesced);
    }

    #[test]
    fn renders_text_and_json() {
        let mut sample = sample(EXPOSITION);
        sample.requests = parse_requests(
            "{\"requests\":[{\"id\":\"r1\",\"outcome\":\"hit\",\"status\":200,\
             \"circuit\":\"s27\",\"seed\":1,\"wall_us\":88,\"coalesced\":true,\
             \"pinned\":false,\"phases\":{}}]}",
        )
        .unwrap();
        let text = sample.render_text("127.0.0.1:9");
        assert!(text.contains("requests 5"), "{text}");
        assert!(text.contains("hit"), "{text}");
        assert!(text.contains("r1"), "{text}");
        assert!(text.contains("coalesced"), "{text}");
        let json_out = sample.render_json("127.0.0.1:9");
        let value = json::parse(&json_out).unwrap();
        assert_eq!(
            value.get("counters").and_then(|c| c.get("serve_requests")),
            Some(&Value::Int(5))
        );
        assert!(value.get("latency_us").and_then(|l| l.get("hit")).is_some());
        assert_eq!(
            value
                .get("requests")
                .and_then(Value::as_arr)
                .map(<[_]>::len),
            Some(1)
        );
    }

    #[test]
    fn scrapes_a_router_without_debug_requests() {
        // A router serves /metrics but answers 404 on /debug/requests.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            for _ in 0..2 {
                let (mut stream, _) = listener.accept().unwrap();
                let mut got = Vec::new();
                let mut buf = [0u8; 1024];
                while !got.ends_with(b"\r\n\r\n") {
                    let n = stream.read(&mut buf).unwrap();
                    assert!(n > 0, "client closed early");
                    got.extend_from_slice(&buf[..n]);
                }
                let (status, body) = if got.starts_with(b"GET /metrics ") {
                    ("200 OK", EXPOSITION)
                } else {
                    ("404 Not Found", "{}")
                };
                let reply = format!("HTTP/1.1 {status}\r\nConnection: close\r\n\r\n{body}");
                stream.write_all(reply.as_bytes()).unwrap();
            }
        });
        let scraped = scrape(&addr).unwrap();
        server.join().unwrap();
        assert_eq!(scraped.counter("serve_requests"), 5);
        assert_eq!(scraped.latency("hit").map(|h| h.count), Some(4));
        assert!(scraped.requests.is_empty());
    }
}
