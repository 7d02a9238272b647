//! Concurrency contracts of the metrics layer, the event capture and the
//! quantile sketch: recording from many threads loses nothing,
//! shard-registry merges are exact, and sketch merging is
//! order-invariant — the properties the fleet engine's determinism
//! guarantees rest on.

use sdb_observe::metrics::{Histogram, MetricsRegistry};
use sdb_observe::{Flow, ObsEvent, Observer, QuantileSketch};

const THREADS: u64 = 8;
const PER_THREAD: u64 = 5_000;

#[test]
fn shared_histogram_survives_concurrent_recording() {
    let hist = Histogram::new();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let hist = hist.clone();
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    // Values spread across many buckets, deterministic sum.
                    hist.record(t * PER_THREAD + i);
                }
            });
        }
    });
    let n = THREADS * PER_THREAD;
    assert_eq!(hist.count(), n);
    // Sum of 0..n recorded exactly once each.
    assert_eq!(hist.sum(), n * (n - 1) / 2);
    assert_eq!(hist.bucket_counts().iter().sum::<u64>(), n);
}

#[test]
fn merged_shard_registries_account_for_every_observation() {
    // The fleet pattern: one private registry per worker, merged after
    // join. Totals must be exact, as if a single thread had recorded
    // everything.
    let shards: Vec<MetricsRegistry> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                s.spawn(move || {
                    let reg = MetricsRegistry::new();
                    let done = reg.counter("devices_total", &[]);
                    let lat = reg.histogram("step_ns", &[("shard", "x")]);
                    for i in 0..PER_THREAD {
                        done.inc();
                        lat.record(1000 + (t * PER_THREAD + i) % 4096);
                    }
                    reg
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let merged = MetricsRegistry::new();
    for shard in &shards {
        merged.merge_from(shard);
    }
    let totals = merged.counter_totals();
    let devices = totals.iter().find(|(n, _)| n == "devices_total").unwrap();
    assert_eq!(devices.1, THREADS * PER_THREAD);
    let lat = merged.histogram("step_ns", &[("shard", "x")]);
    assert_eq!(lat.count(), THREADS * PER_THREAD);
    let expected_sum: u64 = (0..THREADS * PER_THREAD).map(|k| 1000 + k % 4096).sum();
    assert_eq!(lat.sum(), expected_sum);

    // Merging in the reverse shard order produces the same totals.
    let reversed = MetricsRegistry::new();
    for shard in shards.iter().rev() {
        reversed.merge_from(shard);
    }
    assert_eq!(reversed.counter_totals(), merged.counter_totals());
    assert_eq!(
        reversed
            .histogram("step_ns", &[("shard", "x")])
            .bucket_counts(),
        lat.bucket_counts()
    );
    assert_eq!(reversed.to_prometheus_text(), merged.to_prometheus_text());
}

#[test]
fn capturing_observer_keeps_every_event_under_concurrent_emitters() {
    // Many threads emitting through clones of one capturing observer:
    // every event lands exactly once, with dense sequence numbers, and
    // each thread's events keep their emission order.
    let obs = Observer::capturing();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let obs = obs.clone();
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    let event = ObsEvent::RatioPush {
                        flow: Flow::Discharge,
                        ratios: vec![t as f64, i as f64],
                    };
                    obs.emit_at(i as f64, event);
                }
            });
        }
    });
    let events = obs.drain_events();
    assert_eq!(events.len() as u64, THREADS * PER_THREAD);
    assert!(events.iter().enumerate().all(|(k, e)| e.seq == k as u64));
    let mut next = vec![0u64; THREADS as usize];
    for e in &events {
        let ObsEvent::RatioPush { ratios, .. } = &e.event else {
            panic!("unexpected event {:?}", e.event);
        };
        let (t, i) = (ratios[0] as usize, ratios[1] as u64);
        assert_eq!(i, next[t], "thread {t} out of order");
        assert_eq!(e.t_s, i as f64);
        next[t] += 1;
    }
    assert!(next.iter().all(|&n| n == PER_THREAD));
    assert!(obs.drain_events().is_empty());
}

#[test]
fn sketch_merge_is_invariant_across_shard_orderings() {
    // Build per-shard sketches over disjoint slices of one population,
    // then merge in several different orders: every quantile must come
    // out bit-identical, and identical to a single-stream sketch.
    let population: Vec<f64> = (0..4_000)
        .map(|i| 0.5 + (i as f64 * 0.37).sin().abs() * 1000.0 + i as f64 * 0.01)
        .collect();

    let mut single = QuantileSketch::new();
    for &v in &population {
        single.insert(v);
    }

    let shards: Vec<QuantileSketch> = population
        .chunks(500)
        .map(|chunk| {
            let mut s = QuantileSketch::new();
            for &v in chunk {
                s.insert(v);
            }
            s
        })
        .collect();

    let orders: Vec<Vec<usize>> = vec![
        (0..shards.len()).collect(),
        (0..shards.len()).rev().collect(),
        // Interleaved: evens then odds.
        (0..shards.len())
            .step_by(2)
            .chain((1..shards.len()).step_by(2))
            .collect(),
    ];
    let merged: Vec<QuantileSketch> = orders
        .iter()
        .map(|order| {
            let mut m = QuantileSketch::new();
            for &i in order {
                m.merge_from(&shards[i]);
            }
            m
        })
        .collect();

    for q in [0.0, 0.01, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0] {
        let reference = merged[0].quantile(q);
        for m in &merged[1..] {
            assert_eq!(
                m.quantile(q).to_bits(),
                reference.to_bits(),
                "merge order changed q{q}"
            );
        }
        assert_eq!(
            single.quantile(q).to_bits(),
            reference.to_bits(),
            "merged differs from single-stream at q{q}"
        );
    }
    assert_eq!(merged[0].count(), population.len() as u64);
}
