//! A hand-rolled, zero-dependency blocking HTTP/1.1 serving surface —
//! the first slice of `sdb serve`.
//!
//! Routes:
//!
//! * `GET /metrics` — live Prometheus text scrape of the attached
//!   [`MetricsRegistry`].
//! * `GET /query?name=..&kind=..` — JSON query against the attached
//!   [`TsdbStore`] (see [`parse_query`] for parameters).
//! * `GET /profile` — live hierarchical phase-profiler snapshot (JSON,
//!   see `sdb_prof::Snapshot::to_json`).
//! * `GET /healthz` — liveness probe: JSON status plus build info.
//! * `GET /shutdown` — graceful stop: the accept loop drains in-flight
//!   connections and exits.
//!
//! Design: one accept thread polling a non-blocking listener (so the
//! shutdown flag is observed without signals), one short-lived thread per
//! connection, per-connection read timeouts, a request-size cap, and a
//! `400` — never a panic — for anything malformed. That is deliberately
//! boring: the serving surface must not be able to take down a running
//! fleet simulation.

use crate::query::{self, Query, QueryKind};
use crate::store::{Tier, TsdbStore};
use sdb_observe::MetricsRegistry;
use sdb_trace::writer::esc;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Largest request head (request line + headers) we accept.
const MAX_REQUEST_BYTES: usize = 8 * 1024;
/// Per-connection socket read timeout.
const READ_TIMEOUT: Duration = Duration::from_secs(2);
/// Accept-loop poll interval while idle.
const ACCEPT_POLL: Duration = Duration::from_millis(10);
/// How long shutdown waits for in-flight connections to drain.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// Build identity reported by `/healthz` (and `sdb --version`). The CLI
/// fills these from compile-time env vars; library users default to
/// `unknown`.
#[derive(Debug, Clone)]
pub struct BuildInfo {
    /// Crate version (`CARGO_PKG_VERSION`).
    pub version: String,
    /// Short git commit hash the binary was built from.
    pub git_hash: String,
    /// `rustc --version` string of the compiler used.
    pub rustc: String,
}

impl Default for BuildInfo {
    fn default() -> Self {
        Self {
            version: "unknown".to_owned(),
            git_hash: "unknown".to_owned(),
            rustc: "unknown".to_owned(),
        }
    }
}

impl BuildInfo {
    /// The `/healthz` JSON body for this build.
    #[must_use]
    pub fn healthz_json(&self) -> String {
        format!(
            "{{\"status\":\"ok\",\"version\":\"{}\",\"git_hash\":\"{}\",\"rustc\":\"{}\"}}\n",
            esc(&self.version),
            esc(&self.git_hash),
            esc(&self.rustc)
        )
    }
}

/// Options for [`serve`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address; use port 0 to let the OS pick.
    pub addr: String,
    /// When set, a background thread scrapes the registry into the store
    /// at this interval, stamped with wall-clock-since-start. Wall-clock
    /// stamps are quarantined: they exist only inside this serve
    /// session's store, never in a deterministic artifact.
    pub scrape_every: Option<Duration>,
    /// Build identity served on `/healthz`.
    pub build: BuildInfo,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            scrape_every: None,
            build: BuildInfo::default(),
        }
    }
}

/// A running listener. Dropping the handle leaves the listener running
/// detached; call [`ServeHandle::shutdown`] (or hit `/shutdown`) to stop
/// it.
#[derive(Debug)]
pub struct ServeHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<thread::JoinHandle<()>>,
    scrape_thread: Option<thread::JoinHandle<()>>,
}

impl ServeHandle {
    /// The bound address (with the OS-assigned port when 0 was asked).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals the accept loop to stop and waits for it (and the scrape
    /// thread) to finish draining.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.scrape_thread.take() {
            let _ = t.join();
        }
    }

    /// Blocks until the listener stops on its own (e.g. via `/shutdown`).
    pub fn wait(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.scrape_thread.take() {
            let _ = t.join();
        }
    }
}

/// Starts the listener, serving `registry` on `/metrics` and `store` on
/// `/query`.
///
/// # Errors
///
/// Returns the bind error if the address cannot be bound.
pub fn serve(
    opts: &ServeOptions,
    registry: MetricsRegistry,
    store: TsdbStore,
) -> io::Result<ServeHandle> {
    let listener = TcpListener::bind(&opts.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let in_flight = Arc::new(AtomicUsize::new(0));

    let scrape_thread = opts.scrape_every.map(|every| {
        let stop = Arc::clone(&stop);
        let registry = registry.clone();
        let scraper = crate::sink::RegistryScraper::new(store.clone());
        thread::spawn(move || {
            let start = Instant::now();
            while !stop.load(Ordering::SeqCst) {
                // Refresh sdb_prof_* gauges from the live profiler
                // aggregate so each scrape below carries them.
                if sdb_prof::enabled() {
                    sdb_prof::export_gauges(&registry);
                }
                // Wall-clock-since-start stamp: quarantined to this store.
                let t_us = i64::try_from(start.elapsed().as_micros()).unwrap_or(i64::MAX);
                scraper.scrape(&registry, t_us);
                // Sleep in short slices so shutdown stays prompt.
                let mut left = every;
                while !stop.load(Ordering::SeqCst) && left > Duration::ZERO {
                    let nap = left.min(ACCEPT_POLL);
                    thread::sleep(nap);
                    left = left.saturating_sub(nap);
                }
            }
        })
    });

    let accept_thread = {
        let stop = Arc::clone(&stop);
        let build = opts.build.clone();
        thread::spawn(move || {
            accept_loop(&listener, &stop, &in_flight, &registry, &store, &build);
        })
    };

    Ok(ServeHandle {
        addr,
        stop,
        accept_thread: Some(accept_thread),
        scrape_thread,
    })
}

fn accept_loop(
    listener: &TcpListener,
    stop: &Arc<AtomicBool>,
    in_flight: &Arc<AtomicUsize>,
    registry: &MetricsRegistry,
    store: &TsdbStore,
    build: &BuildInfo,
) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                in_flight.fetch_add(1, Ordering::SeqCst);
                let in_flight = Arc::clone(in_flight);
                let stop = Arc::clone(stop);
                let registry = registry.clone();
                let store = store.clone();
                let build = build.clone();
                thread::spawn(move || {
                    handle_connection(stream, &stop, &registry, &store, &build);
                    in_flight.fetch_sub(1, Ordering::SeqCst);
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(ACCEPT_POLL);
            }
            Err(_) => thread::sleep(ACCEPT_POLL),
        }
    }
    // Graceful drain: give in-flight responses a bounded window to finish.
    let deadline = Instant::now() + DRAIN_TIMEOUT;
    while in_flight.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
        thread::sleep(ACCEPT_POLL);
    }
}

fn handle_connection(
    mut stream: TcpStream,
    stop: &AtomicBool,
    registry: &MetricsRegistry,
    store: &TsdbStore,
    build: &BuildInfo,
) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let head = match read_head(&mut stream) {
        Ok(head) => head,
        Err(_) => {
            respond(&mut stream, 400, "text/plain", "bad request\n");
            return;
        }
    };
    let (status, content_type, body) = route(&head, stop, registry, store, build);
    respond(&mut stream, status, content_type, &body);
}

/// Reads the request head (through the blank line), enforcing the size
/// cap, and returns the request line.
fn read_head(stream: &mut TcpStream) -> Result<String, &'static str> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        let n = stream.read(&mut chunk).map_err(|_| "read error")?;
        if n == 0 {
            return Err("connection closed before head");
        }
        buf.extend_from_slice(&chunk[..n]);
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.windows(2).any(|w| w == b"\n\n") {
            break;
        }
        if buf.len() > MAX_REQUEST_BYTES {
            return Err("request too large");
        }
    }
    let text = std::str::from_utf8(&buf).map_err(|_| "not utf-8")?;
    let line = text.lines().next().ok_or("empty request")?;
    Ok(line.to_owned())
}

/// Dispatches one parsed request line to a route.
fn route(
    request_line: &str,
    stop: &AtomicBool,
    registry: &MetricsRegistry,
    store: &TsdbStore,
    build: &BuildInfo,
) -> (u16, &'static str, String) {
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return (400, "text/plain", "bad request line\n".to_owned());
    };
    if !version.starts_with("HTTP/1.") {
        return (400, "text/plain", "bad http version\n".to_owned());
    }
    if method != "GET" {
        return (405, "text/plain", "method not allowed\n".to_owned());
    }
    let (path, query_string) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    match path {
        "/healthz" => (200, "application/json", build.healthz_json()),
        "/metrics" => (
            200,
            "text/plain; version=0.0.4",
            registry.to_prometheus_text(),
        ),
        "/profile" => (200, "application/json", sdb_prof::snapshot().to_json()),
        "/query" => match parse_query(query_string) {
            Ok(q) => (200, "application/json", query::run(store, &q).to_json()),
            Err(e) => (400, "text/plain", format!("bad query: {e}\n")),
        },
        "/shutdown" => {
            stop.store(true, Ordering::SeqCst);
            (200, "text/plain", "shutting down\n".to_owned())
        }
        _ => (404, "text/plain", "not found\n".to_owned()),
    }
}

/// Parses a `/query` query string into a [`Query`].
///
/// Parameters: `name` (required), `label.<key>=<value>` matchers
/// (repeatable), `t0_us` / `t1_us` (default whole history), `kind`
/// (`range` | `rate` | `quantile` | `rollup_quantile`, default `range`),
/// `q` (quantile, required by the quantile kinds), `tier` (`10s` | `5m`,
/// default `10s`, rollup kinds only).
///
/// # Errors
///
/// Returns a static description of the first invalid parameter.
pub fn parse_query(query_string: &str) -> Result<Query, &'static str> {
    let mut name = None;
    let mut matchers = Vec::new();
    let mut t0_us = i64::MIN;
    let mut t1_us = i64::MAX;
    let mut kind_str = "range".to_owned();
    let mut q_param = None;
    let mut tier = Tier::Coarse10s;
    for pair in query_string.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').ok_or("parameter without value")?;
        let k = percent_decode(k)?;
        let v = percent_decode(v)?;
        match k.as_str() {
            "name" => name = Some(v),
            "t0_us" => t0_us = v.parse().map_err(|_| "t0_us not an integer")?,
            "t1_us" => t1_us = v.parse().map_err(|_| "t1_us not an integer")?,
            "kind" => kind_str = v,
            "q" => {
                let q: f64 = v.parse().map_err(|_| "q not a number")?;
                if !(0.0..=1.0).contains(&q) {
                    return Err("q out of [0,1]");
                }
                q_param = Some(q);
            }
            "tier" => {
                tier = match v.as_str() {
                    "10s" => Tier::Coarse10s,
                    "5m" => Tier::Coarse5m,
                    _ => return Err("tier must be 10s or 5m"),
                }
            }
            _ => {
                if let Some(label_key) = k.strip_prefix("label.") {
                    matchers.push((label_key.to_owned(), v));
                } else {
                    return Err("unknown parameter");
                }
            }
        }
    }
    let name = name.ok_or("missing name")?;
    let kind = match kind_str.as_str() {
        "range" => QueryKind::Range,
        "rate" => QueryKind::Rate,
        "quantile" => QueryKind::Quantile(q_param.ok_or("quantile needs q")?),
        "rollup_quantile" => {
            QueryKind::RollupQuantile(tier, q_param.ok_or("rollup_quantile needs q")?)
        }
        _ => return Err("unknown kind"),
    };
    Ok(Query {
        name,
        matchers,
        t0_us,
        t1_us,
        kind,
    })
}

/// Minimal percent-decoding (`%XX` and `+` → space).
fn percent_decode(s: &str) -> Result<String, &'static str> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes.get(i + 1..i + 3).ok_or("truncated %-escape")?;
                let hex = std::str::from_utf8(hex).map_err(|_| "bad %-escape")?;
                out.push(u8::from_str_radix(hex, 16).map_err(|_| "bad %-escape")?);
                i += 3;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).map_err(|_| "decoded bytes not utf-8")
}

fn respond(stream: &mut TcpStream, status: u16, content_type: &str, body: &str) {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::SeriesId;

    /// One blocking GET against a local listener, returning (status, body).
    fn get(addr: SocketAddr, target: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let req = format!("GET {target} HTTP/1.1\r\nHost: sdb\r\n\r\n");
        stream.write_all(req.as_bytes()).expect("write");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        let status: u16 = response
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status");
        let body = response
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_owned())
            .unwrap_or_default();
        (status, body)
    }

    fn raw(addr: SocketAddr, bytes: &[u8]) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(bytes).expect("write");
        let mut response = String::new();
        let _ = stream.read_to_string(&mut response);
        response
    }

    fn start() -> (ServeHandle, MetricsRegistry, TsdbStore) {
        let registry = MetricsRegistry::new();
        let store = TsdbStore::default();
        let handle = serve(&ServeOptions::default(), registry.clone(), store.clone())
            .expect("bind loopback");
        (handle, registry, store)
    }

    #[test]
    fn healthz_json_escapes_control_characters() {
        let rustc = "rustc 1.80\n\t(\u{1}\"\\)";
        let build = BuildInfo {
            rustc: rustc.to_owned(),
            ..BuildInfo::default()
        };
        let body = build.healthz_json();
        let line = body.strip_suffix('\n').expect("newline-terminated");
        assert!(line.bytes().all(|b| b >= 0x20), "{line:?}");
        let parsed = sdb_trace::json::parse(&body).expect("valid JSON");
        assert_eq!(parsed.get("rustc").and_then(|v| v.as_str()), Some(rustc));
        assert_eq!(parsed.get("status").and_then(|v| v.as_str()), Some("ok"));
    }

    #[test]
    fn healthz_metrics_and_query_roundtrip() {
        let (handle, registry, store) = start();
        registry.counter("sdb_pushes_total", &[]).add(7);
        store.append(
            &SeriesId::new("sdb_soc", &[("device", "d0")]),
            1_000_000,
            0.5,
        );

        let (status, body) = get(handle.addr(), "/healthz");
        assert_eq!(status, 200);
        let health = sdb_trace::json::parse(body.trim()).expect("healthz is json");
        assert_eq!(
            health.get("status").and_then(|v| v.as_str()),
            Some("ok"),
            "healthz body: {body}"
        );
        assert_eq!(
            health.get("git_hash").and_then(|v| v.as_str()),
            Some("unknown"),
            "library default build info"
        );

        let (status, body) = get(handle.addr(), "/profile");
        assert_eq!(status, 200);
        let prof = sdb_trace::json::parse(&body).expect("profile is json");
        assert!(
            prof.get("deterministic").is_some() && prof.get("wall").is_some(),
            "profile body: {body}"
        );

        let (status, body) = get(handle.addr(), "/metrics");
        assert_eq!(status, 200);
        assert!(
            body.contains("sdb_pushes_total 7\n"),
            "metrics body: {body}"
        );

        let (status, body) = get(handle.addr(), "/query?name=sdb_soc&label.device=d0");
        assert_eq!(status, 200);
        let v = sdb_trace::json::parse(&body).expect("json body");
        let series = v.get("series").and_then(|s| s.as_arr()).expect("series");
        assert_eq!(series.len(), 1);

        handle.shutdown();
    }

    #[test]
    fn malformed_requests_get_400_not_panic() {
        let (handle, _registry, _store) = start();
        let addr = handle.addr();
        assert!(raw(addr, b"gibberish\r\n\r\n").starts_with("HTTP/1.1 400"));
        assert!(raw(addr, b"GET /metrics\r\n\r\n").starts_with("HTTP/1.1 400"));
        assert!(raw(addr, b"GET /x HTTP/9.9\r\n\r\n").starts_with("HTTP/1.1 400"));
        let big = vec![b'a'; MAX_REQUEST_BYTES + 100];
        assert!(raw(addr, &big).starts_with("HTTP/1.1 400"));
        let (status, _) = get(addr, "/query?name=");
        assert_eq!(status, 200, "empty name is a valid (matchless) query");
        let (status, _) = get(addr, "/query?kind=quantile&name=x");
        assert_eq!(status, 400, "quantile without q");
        let (status, _) = get(addr, "/nope");
        assert_eq!(status, 404);
        assert!(raw(addr, b"POST /metrics HTTP/1.1\r\n\r\n").starts_with("HTTP/1.1 405"));
        // The listener survived all of it.
        let (status, _) = get(addr, "/healthz");
        assert_eq!(status, 200);
        handle.shutdown();
    }

    #[test]
    fn shutdown_endpoint_stops_the_listener() {
        let (handle, _registry, _store) = start();
        let addr = handle.addr();
        let (status, _) = get(addr, "/shutdown");
        assert_eq!(status, 200);
        handle.wait();
        // The port no longer accepts (give the OS a beat to close it).
        std::thread::sleep(Duration::from_millis(50));
        assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err());
    }

    #[test]
    fn scraper_option_records_longitudinal_series() {
        let registry = MetricsRegistry::new();
        let store = TsdbStore::default();
        let counter = registry.counter("sdb_ticks_total", &[]);
        let opts = ServeOptions {
            scrape_every: Some(Duration::from_millis(20)),
            ..ServeOptions::default()
        };
        let handle = serve(&opts, registry.clone(), store.clone()).expect("bind");
        for _ in 0..10 {
            counter.inc();
            std::thread::sleep(Duration::from_millis(10));
        }
        handle.shutdown();
        let selected = store.select("sdb_ticks_total", &[], i64::MIN, i64::MAX);
        let points = &selected.first().expect("series scraped").1;
        assert!(
            points.len() >= 2,
            "expected >= 2 scrapes, got {}",
            points.len()
        );
        // Counter is monotone across scrapes.
        assert!(points.windows(2).all(|w| w[1].value >= w[0].value));
    }

    #[test]
    fn parse_query_accepts_all_parameters() {
        let q = parse_query(
            "name=sdb_soc&label.device=d0&label.battery=1&t0_us=5&t1_us=9&kind=rollup_quantile&q=0.95&tier=5m",
        )
        .expect("parses");
        assert_eq!(q.name, "sdb_soc");
        assert_eq!(q.matchers.len(), 2);
        assert_eq!((q.t0_us, q.t1_us), (5, 9));
        assert_eq!(q.kind, QueryKind::RollupQuantile(Tier::Coarse5m, 0.95));
        assert_eq!(
            parse_query("name=a%20b&label.x=1+2").expect("decodes").name,
            "a b"
        );
        for bad in [
            "t0_us=1", // missing name
            "name=x&kind=bogus",
            "name=x&q=1.5&kind=quantile",
            "name=x&tier=1h",
            "name=x&mystery=1",
            "name=x&label.a", // parameter without value
            "name=%zz",
        ] {
            assert!(parse_query(bad).is_err(), "should reject {bad:?}");
        }
    }
}
