//! Std-only live telemetry endpoint: a tiny HTTP server over
//! `std::net::TcpListener`.
//!
//! Three routes, one purpose each:
//!
//! * `/metrics` — Prometheus text exposition (format 0.0.4): every sharded
//!   counter as `tempest_<name>_total`, every [`Gauge`] level, the
//!   heartbeat counter, per-kind span time as a labelled counter, and
//!   per-job `progress` / `eta_seconds` / `stalled` samples. Rates are the
//!   scraper's to derive from the `_total` counters.
//! * `/jobs` — the registered [`crate::metrics::jobs_snapshot`] as JSON,
//!   serialised through the [`crate::json`] writer (so the document
//!   round-trips through `json::Value::parse` by construction).
//! * `/healthz` — liveness probe, plain `ok`.
//!
//! The server is deliberately minimal: blocking accept loop on one thread,
//! one request per connection, `Connection: close`. It is an in-process
//! diagnostic port for a single trusted operator, not a web framework. The
//! thread shuts down when the [`TelemetryServer`] handle drops. Whether one
//! starts is the caller's decision (the survey service starts one when
//! recording is on and an address is known — its own or [`env_addr`]).

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::json::Value;
use crate::metrics::{self, Gauge, JobSnapshot};
use crate::{Counter, SpanKind};

pub use crate::imp::env_addr;

/// Bind address when `TEMPEST_TELEMETRY` is set but carries no `host:port`
/// (9464 is the conventional "Prometheus exporter" range).
pub const DEFAULT_ADDR: &str = "127.0.0.1:9464";

/// Handle to a running telemetry endpoint; dropping it stops the HTTP
/// thread.
pub struct TelemetryServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    http: Option<JoinHandle<()>>,
}

impl TelemetryServer {
    /// Bind `addr` (`host:port`; port 0 picks an ephemeral port) and spawn
    /// the accept thread.
    pub fn start(addr: &str) -> std::io::Result<TelemetryServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let stop = Arc::clone(&shutdown);
        let http = std::thread::Builder::new()
            .name("tempest-telemetry-http".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::Acquire) {
                        return;
                    }
                    if let Ok(stream) = stream {
                        handle_connection(stream);
                    }
                }
            })?;
        Ok(TelemetryServer {
            addr,
            shutdown,
            http: Some(http),
        })
    }

    /// The bound address (resolves port 0 to the ephemeral port chosen).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for TelemetryServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.http.take() {
            let _ = t.join();
        }
    }
}

// ---------------------------------------------------------------------------
// HTTP plumbing
// ---------------------------------------------------------------------------

fn handle_connection(mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    // Read the request head (we never need a body).
    let mut head = Vec::new();
    let mut buf = [0u8; 1024];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                head.extend_from_slice(&buf[..n]);
                if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 8192 {
                    break;
                }
            }
            Err(_) => return,
        }
    }
    let request_line = match std::str::from_utf8(&head) {
        Ok(s) => s.lines().next().unwrap_or("").to_string(),
        Err(_) => return,
    };
    let mut parts = request_line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));

    let (status, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain",
            "method not allowed\n".to_string(),
        )
    } else {
        match path {
            "/metrics" => ("200 OK", "text/plain; version=0.0.4", render_metrics()),
            "/jobs" => ("200 OK", "application/json", render_jobs()),
            "/healthz" => ("200 OK", "text/plain", "ok\n".to_string()),
            _ => ("404 Not Found", "text/plain", "not found\n".to_string()),
        }
    };
    let _ = write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.flush();
}

/// Minimal one-shot HTTP GET against the telemetry endpoint — the client
/// half used by tests, CI, and the example's self-scrape. Returns
/// `(status code, body)`.
pub fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let status = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line"))?;
    let body = match response.find("\r\n\r\n") {
        Some(i) => response[i + 4..].to_string(),
        None => String::new(),
    };
    Ok((status, body))
}

// ---------------------------------------------------------------------------
// /metrics — Prometheus text exposition (0.0.4)
// ---------------------------------------------------------------------------

/// The `/metrics` document.
fn render_metrics() -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let p = crate::snapshot();

    for c in Counter::ALL {
        let name = format!("tempest_{}_total", c.name());
        let _ = writeln!(out, "# HELP {name} Monotonic {} events.", c.name());
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {}", p.counter(c));
    }

    let _ = writeln!(
        out,
        "# HELP tempest_heartbeats_total Forward-progress units (batch items and shot boundaries)."
    );
    let _ = writeln!(out, "# TYPE tempest_heartbeats_total counter");
    let _ = writeln!(out, "tempest_heartbeats_total {}", metrics::heartbeats());

    let _ = writeln!(
        out,
        "# HELP tempest_phase_seconds_total Thread-summed span time per kind."
    );
    let _ = writeln!(out, "# TYPE tempest_phase_seconds_total counter");
    for k in SpanKind::ALL {
        let _ = writeln!(
            out,
            "tempest_phase_seconds_total{{phase=\"{}\"}} {}",
            k.name(),
            crate::fin(p.timer_ns(k) as f64 / 1e9)
        );
    }

    for g in Gauge::ALL {
        let name = format!("tempest_{}", g.name());
        let _ = writeln!(out, "# HELP {name} Instantaneous {} level.", g.name());
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {}", metrics::gauge(g));
    }

    let jobs = metrics::jobs_snapshot();
    let _ = writeln!(
        out,
        "# HELP tempest_job_progress Per-job completed virtual-step fraction."
    );
    let _ = writeln!(out, "# TYPE tempest_job_progress gauge");
    for j in &jobs {
        let _ = writeln!(
            out,
            "tempest_job_progress{{job=\"{}\"}} {}",
            j.id,
            crate::fin(j.progress)
        );
    }
    let _ = writeln!(
        out,
        "# HELP tempest_job_eta_seconds Per-job estimated seconds to completion."
    );
    let _ = writeln!(out, "# TYPE tempest_job_eta_seconds gauge");
    for j in &jobs {
        if let Some(eta) = j.eta_s {
            let _ = writeln!(
                out,
                "tempest_job_eta_seconds{{job=\"{}\"}} {}",
                j.id,
                crate::fin(eta)
            );
        }
    }
    let _ = writeln!(
        out,
        "# HELP tempest_job_stalled Per-job watchdog flag (1 = heartbeat silent)."
    );
    let _ = writeln!(out, "# TYPE tempest_job_stalled gauge");
    for j in &jobs {
        let _ = writeln!(
            out,
            "tempest_job_stalled{{job=\"{}\"}} {}",
            j.id,
            u8::from(j.stalled)
        );
    }
    out
}

/// Check a `/metrics` document against the subset of the Prometheus text
/// exposition format (0.0.4) this crate emits: every sample line is
/// `name[{labels}] value` with a finite value, every sample name was
/// declared by a preceding `# TYPE`, `_total` names are counters, and
/// counter samples are non-negative. Used by tests, CI, and the example's
/// self-scrape.
pub fn validate_exposition(text: &str) -> Result<(), String> {
    let mut types: Vec<(String, String)> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut w = comment.split_whitespace();
            match w.next() {
                Some("HELP") => {
                    if w.next().is_none() {
                        return Err(format!("line {n}: HELP without a metric name"));
                    }
                }
                Some("TYPE") => {
                    let name = w.next().ok_or(format!("line {n}: TYPE without a name"))?;
                    let ty = w.next().ok_or(format!("line {n}: TYPE without a type"))?;
                    if !matches!(
                        ty,
                        "counter" | "gauge" | "histogram" | "summary" | "untyped"
                    ) {
                        return Err(format!("line {n}: unknown type {ty:?}"));
                    }
                    if name.ends_with("_total") && ty != "counter" {
                        return Err(format!("line {n}: {name} must be a counter, is {ty}"));
                    }
                    types.push((name.to_string(), ty.to_string()));
                }
                _ => return Err(format!("line {n}: comment is neither HELP nor TYPE")),
            }
            continue;
        }
        // Sample line: name[{labels}] value
        let (name_part, value_part) = match line.find([' ', '\t']) {
            Some(i) => {
                // If the name has a label set, the split must come after it
                // (label values may themselves contain spaces).
                match line.find('{') {
                    Some(open) if open < i || line[..i].contains('{') => {
                        let close = line
                            .find('}')
                            .ok_or(format!("line {n}: unterminated label set"))?;
                        if close < open {
                            return Err(format!("line {n}: mismatched braces"));
                        }
                        (&line[..close + 1], line[close + 1..].trim())
                    }
                    _ => (&line[..i], line[i..].trim()),
                }
            }
            None => return Err(format!("line {n}: sample without a value")),
        };
        let bare = name_part.split('{').next().unwrap_or("");
        if bare.is_empty()
            || !bare.chars().enumerate().all(|(i, c)| {
                c == '_' || c == ':' || c.is_ascii_alphabetic() || (i > 0 && c.is_ascii_digit())
            })
        {
            return Err(format!("line {n}: invalid metric name {bare:?}"));
        }
        if let Some(rest) = name_part.strip_prefix(bare) {
            if !(rest.is_empty() || (rest.starts_with('{') && rest.ends_with('}'))) {
                return Err(format!("line {n}: malformed label set {rest:?}"));
            }
        }
        let value: f64 = value_part
            .split_whitespace()
            .next()
            .unwrap_or("")
            .parse()
            .map_err(|_| format!("line {n}: unparseable value {value_part:?}"))?;
        if !value.is_finite() {
            return Err(format!("line {n}: non-finite value for {bare}"));
        }
        let ty = types
            .iter()
            .find(|(tn, _)| tn == bare)
            .map(|(_, t)| t.as_str())
            .ok_or(format!("line {n}: sample {bare} has no preceding # TYPE"))?;
        if ty == "counter" && value < 0.0 {
            return Err(format!("line {n}: negative counter {bare}"));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// /jobs — JSON through the obs::json writer
// ---------------------------------------------------------------------------

fn job_value(j: &JobSnapshot) -> Value {
    Value::Obj(vec![
        ("id".into(), Value::Num(j.id as f64)),
        ("state".into(), Value::Str(j.state.clone())),
        ("priority".into(), Value::Num(j.priority as f64)),
        ("shots_done".into(), Value::Num(j.shots_done as f64)),
        ("shots_total".into(), Value::Num(j.shots_total as f64)),
        ("vsteps_done".into(), Value::Num(j.vsteps_done as f64)),
        ("vsteps_total".into(), Value::Num(j.vsteps_total as f64)),
        ("progress".into(), Value::Num(j.progress)),
        (
            "eta_s".into(),
            j.eta_s.map(Value::Num).unwrap_or(Value::Null),
        ),
        ("stalled".into(), Value::Bool(j.stalled)),
        ("stall_events".into(), Value::Num(j.stall_events as f64)),
    ])
}

/// The `/jobs` document: job snapshots plus the gauge levels, built as a
/// [`Value`] tree and serialised by [`Value::render`].
pub fn render_jobs() -> String {
    let jobs = metrics::jobs_snapshot();
    let gauges = Gauge::ALL
        .iter()
        .map(|&g| (g.name().to_string(), Value::Num(metrics::gauge(g) as f64)))
        .collect();
    let doc = Value::Obj(vec![
        (
            "heartbeats".into(),
            Value::Num(metrics::heartbeats() as f64),
        ),
        ("gauges".into(), Value::Obj(gauges)),
        (
            "jobs".into(),
            Value::Arr(jobs.iter().map(job_value).collect()),
        ),
    ]);
    let mut s = doc.render();
    s.push('\n');
    s
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serves_all_three_routes_and_shuts_down() {
        let srv = TelemetryServer::start("127.0.0.1:0").expect("bind ephemeral");
        let addr = srv.local_addr();

        let (status, body) = http_get(addr, "/healthz").unwrap();
        assert_eq!((status, body.as_str()), (200, "ok\n"));

        let (status, body) = http_get(addr, "/metrics").unwrap();
        assert_eq!(status, 200);
        validate_exposition(&body).expect("exposition valid");
        assert!(body.contains("tempest_stencil_updates_total"));
        assert!(body.contains("tempest_stalled_jobs"));
        assert!(
            !body.contains("tempest_gpts_per_s"),
            "derived rates are the scraper's"
        );

        let (status, body) = http_get(addr, "/jobs").unwrap();
        assert_eq!(status, 200);
        let v = Value::parse(&body).expect("jobs is JSON");
        assert!(v.get("jobs").unwrap().as_arr().is_some());
        assert!(v.get("gauges").unwrap().get("queue_depth").is_some());

        let (status, _) = http_get(addr, "/nope").unwrap();
        assert_eq!(status, 404);

        drop(srv);
        // The port is released once the accept thread exits.
        assert!(TcpStream::connect(addr).is_err() || TcpListener::bind(addr).is_ok());
    }

    #[test]
    fn render_metrics_is_valid_without_a_socket() {
        let text = render_metrics();
        validate_exposition(&text).unwrap();
        for g in Gauge::ALL {
            assert!(
                text.contains(&format!("tempest_{}", g.name())),
                "missing {}",
                g.name()
            );
        }
    }

    #[test]
    fn jobs_json_roundtrips_through_parser() {
        let text = render_jobs();
        let v = Value::parse(&text).expect("parses");
        // render ∘ parse is the identity on the parsed tree.
        assert_eq!(Value::parse(&v.render()).unwrap(), v);
        assert!(v.get("heartbeats").unwrap().as_u64().is_some());
    }

    #[test]
    fn validator_accepts_labelled_samples() {
        let doc = "# HELP m_total help text\n# TYPE m_total counter\nm_total 3\n\
                   # TYPE g gauge\ng{job=\"1\",k=\"v v\"} -2.5\n";
        validate_exposition(doc).unwrap();
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        // sample without a preceding TYPE
        assert!(validate_exposition("m 1\n").is_err());
        // _total typed as gauge
        assert!(validate_exposition("# TYPE m_total gauge\nm_total 1\n").is_err());
        // negative counter
        assert!(validate_exposition("# TYPE c counter\nc -1\n").is_err());
        // bad value token
        assert!(validate_exposition("# TYPE g gauge\ng abc\n").is_err());
        // bad metric name
        assert!(validate_exposition("# TYPE 9bad gauge\n9bad 1\n").is_err());
        // stray comment
        assert!(validate_exposition("# NOTE whatever\n").is_err());
        // missing value
        assert!(validate_exposition("# TYPE g gauge\ng\n").is_err());
    }
}
