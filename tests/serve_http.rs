//! End-to-end tests of the `sdb serve` surface: the HTTP listener under
//! concurrent scrape load while a fleet simulation runs live, the
//! dropped-events guarantee, and the telemetry store's compression floor
//! on a real fleet workload.

use sdb::fleet::{run_fleet, FleetSpec, RunOptions};
use sdb::observe::{FlightRecorder, MetricsRegistry, Observer};
use sdb::tsdb::{ingest_events, serve, SeriesId, ServeOptions, TsdbStore};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One blocking GET, returning (status, body).
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
        .unwrap_or_else(|| panic!("no status line in {response:?}"));
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    (status, body)
}

/// Asserts a Prometheus text body is well-formed: every non-empty,
/// non-comment line is `name value` or `name{labels} value` with a
/// parseable float, and no line is torn mid-write.
fn assert_well_formed_prometheus(body: &str) {
    for line in body.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name_part, value_part) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("no value separator in line {line:?}"));
        assert!(
            !name_part.is_empty()
                && name_part
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_alphabetic() || c == '_'),
            "bad metric name in line {line:?}"
        );
        assert!(
            value_part.parse::<f64>().is_ok() || value_part == "+Inf",
            "unparseable value in line {line:?}"
        );
    }
}

/// The ISSUE acceptance scenario, end to end:
///
/// * a fleet runs live with its metrics registry shared with the HTTP
///   listener;
/// * four client threads scrape `/metrics` concurrently the whole time
///   and every body must be well-formed;
/// * a flight recorder wired to `sdb_dropped_events_total` must report
///   zero drops;
/// * the captured event stream, ingested into the telemetry store, must
///   compress at least 5x vs raw 16-byte samples;
/// * `/query` serves the ingested series as JSON.
#[test]
fn concurrent_scrapes_during_live_fleet_run() {
    let registry = MetricsRegistry::new();
    let store = TsdbStore::default();
    // The drop counter rides the same registry the scrapers poll. The
    // capacity comfortably exceeds the events a smoke fleet emits, so
    // any increment means the overflow accounting is broken.
    let recorder = FlightRecorder::shared_with_registry(1 << 20, &registry);
    let dropped = registry.counter("sdb_dropped_events_total", &[]);

    let handle = serve(
        &ServeOptions {
            scrape_every: Some(Duration::from_millis(25)),
            ..ServeOptions::default()
        },
        registry.clone(),
        store.clone(),
    )
    .expect("bind loopback");
    let addr = handle.addr();

    let fleet_done = Arc::new(AtomicBool::new(false));
    let events = std::thread::scope(|s| {
        let scrapers: Vec<_> = (0..4)
            .map(|_| {
                let fleet_done = Arc::clone(&fleet_done);
                s.spawn(move || {
                    let mut scrapes = 0u32;
                    while !fleet_done.load(Ordering::SeqCst) || scrapes == 0 {
                        let (status, body) = get(addr, "/metrics");
                        assert_eq!(status, 200);
                        assert_well_formed_prometheus(&body);
                        scrapes += 1;
                        // A malformed request mid-run must not disturb it.
                        let (status, _) = get(addr, "/query?name=x&kind=bogus");
                        assert_eq!(status, 400);
                    }
                    scrapes
                })
            })
            .collect();

        // Feed the flight recorder from a shard of its own while the
        // fleet proper runs live against the same registry.
        let spec = FleetSpec::default_population(16, 42).with_hours(3.0);
        let (report, _stats, events) = run_fleet(
            &spec,
            &RunOptions {
                capture_events: true,
                live: Some(registry.clone()),
                ..RunOptions::new(3)
            },
        )
        .expect("fleet runs");
        assert_eq!(report.devices, 16);
        let events = events.expect("capture requested");
        // Replay a slice through the recorder so drop accounting is live.
        {
            let obs = Observer::with_registry(registry.clone());
            obs.add_sink(Box::new(recorder.clone()));
            for e in events.iter().take(10_000) {
                obs.emit_at(e.t_s, e.event.clone());
            }
        }
        fleet_done.store(true, Ordering::SeqCst);
        for scraper in scrapers {
            let scrapes = scraper.join().expect("scraper thread");
            assert!(scrapes >= 1);
        }
        events
    });

    // Zero dropped events on the smoke workload, and the counter is
    // visible on the scrape surface.
    assert_eq!(dropped.get(), 0, "flight recorder overflowed");
    let (status, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(
        body.contains("sdb_dropped_events_total 0\n"),
        "drop counter missing from scrape: {body}"
    );
    assert!(
        !recorder.lock().expect("recorder lock").is_empty(),
        "recorder saw no events"
    );

    // The compression floor on the real fleet workload.
    let ingested = ingest_events(&store, &events);
    assert!(ingested > 1000, "smoke fleet produced {ingested} events");
    let stats = store.stats();
    assert!(
        stats.compression_ratio() >= 5.0,
        "fleet telemetry must compress >= 5x, got {:.2} ({} samples, {} bytes)",
        stats.compression_ratio(),
        stats.raw_samples,
        stats.compressed_bytes
    );

    // The ingested series are queryable as JSON.
    let (status, body) = get(addr, "/query?name=sdb_soc&label.device=d0&label.battery=0");
    assert_eq!(status, 200);
    let v = sdb::trace::json::parse(&body).expect("json body");
    let series = v.get("series").and_then(|s| s.as_arr()).expect("series");
    assert_eq!(series.len(), 1, "one series for one device+battery");

    handle.shutdown();
}

/// The live-registry path must not change the deterministic report: the
/// same spec run with and without a live registry renders
/// byte-identical, at different thread counts.
#[test]
fn live_fleet_report_matches_captured_fleet_report() {
    let spec = FleetSpec::default_population(6, 7).with_hours(0.25);
    let (captured, _, _) = run_fleet(&spec, &RunOptions::new(1)).expect("captured");
    let live_registry = MetricsRegistry::new();
    let (live, _, _) = run_fleet(
        &spec,
        &RunOptions {
            live: Some(live_registry.clone()),
            ..RunOptions::new(4)
        },
    )
    .expect("live");
    assert_eq!(captured.render_text(), live.render_text());
}

/// Scraped longitudinal series land in the store while the fleet runs:
/// the `sdb serve --telemetry` wiring, minus the CLI.
#[test]
fn scraper_tracks_live_fleet_counters() {
    let registry = MetricsRegistry::new();
    let store = TsdbStore::default();
    let handle = serve(
        &ServeOptions {
            scrape_every: Some(Duration::from_millis(10)),
            ..ServeOptions::default()
        },
        registry.clone(),
        store.clone(),
    )
    .expect("bind");

    let spec = FleetSpec::default_population(8, 9).with_hours(0.25);
    run_fleet(
        &spec,
        &RunOptions {
            live: Some(registry.clone()),
            ..RunOptions::new(2)
        },
    )
    .expect("fleet runs");
    // One more scrape interval so the final counter values land.
    std::thread::sleep(Duration::from_millis(40));
    handle.shutdown();

    let selected = store.select("sdb_fleet_devices_total", &[], i64::MIN, i64::MAX);
    let points = &selected.first().expect("devices counter scraped").1;
    assert!(
        points.windows(2).all(|w| w[1].value >= w[0].value),
        "counter series must be monotone"
    );
    assert_eq!(
        points.last().expect("at least one scrape").value,
        8.0,
        "final scrape sees every device completed"
    );
}

/// Raw byte-level abuse against a listener serving a non-empty store.
#[test]
fn malformed_requests_never_take_the_listener_down() {
    let registry = MetricsRegistry::new();
    let store = TsdbStore::default();
    store.append(&SeriesId::new("sdb_soc", &[("device", "d0")]), 0, 0.5);
    let handle = serve(&ServeOptions::default(), registry, store).expect("bind");
    let addr = handle.addr();

    for abuse in [
        &b"\r\n\r\n"[..],
        b"GET\r\n\r\n",
        b"GET /query?name=%zz HTTP/1.1\r\n\r\n",
        b"GET /query?q=abc&name=x&kind=quantile HTTP/1.1\r\n\r\n",
        b"\xff\xfe\xfd\xfc\r\n\r\n",
    ] {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(abuse).expect("write");
        let mut response = String::new();
        let _ = stream.read_to_string(&mut response);
        assert!(
            response.starts_with("HTTP/1.1 400"),
            "abuse {abuse:?} got {response:?}"
        );
    }
    let (status, _) = get(addr, "/healthz");
    assert_eq!(status, 200, "listener died under malformed input");
    handle.shutdown();
}
