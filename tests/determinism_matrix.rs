//! Thread-count determinism matrix (DESIGN.md §17).
//!
//! The sharded event core's contract is *byte-identity*: `threads = 1`
//! and `threads = N` must produce the same trace and the same metrics
//! exports, bit for bit, for every scenario — not statistically similar,
//! identical. This suite re-runs the committed golden scenarios and a
//! genuinely sharded multi-cell city at 1/2/4/8 worker threads and
//! compares every export byte.
//!
//! Single-cell worlds build one shard, so each epoch steps that shard
//! alone on the caller thread (their golden snapshots in `tests/golden/`
//! are already the 1-thread reference, re-checked here at every thread
//! count); the multi-cell configs are the ones whose shards cross the
//! epoch barriers on several workers.

use std::fmt::Write as _;
use std::path::PathBuf;

use powerburst::prelude::*;
use powerburst::trace::{check_golden, to_jsonl};

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden").join(name)
}

/// The golden suite's fixed scenario (5 video clients, seed 42).
fn video_cfg(seed: u64) -> ScenarioConfig {
    let clients =
        (0..5).map(|_| ClientSpec::new(ClientKind::Video { fidelity: Fidelity::K56 })).collect();
    ScenarioConfig::new(
        seed,
        PolicyKind::DynamicFixed { interval: SimDuration::from_ms(100) },
        clients,
    )
    .with_duration(SimDuration::from_secs(20))
}

/// A city slice that genuinely shards: 12 clients over 4 cells builds a
/// 5-shard world (wired backbone + 4 cells) behind metro backhaul links.
fn city_cfg(seed: u64) -> ScenarioConfig {
    let clients = (0..12)
        .map(|i| {
            if i % 4 == 3 {
                ClientSpec::new(ClientKind::Web { script: WebScriptConfig::default() })
            } else {
                ClientSpec::new(ClientKind::Video { fidelity: Fidelity::K56 })
            }
        })
        .collect();
    ScenarioConfig::new(
        seed,
        PolicyKind::DynamicFixed { interval: SimDuration::from_ms(100) },
        clients,
    )
    .with_cells(4)
    .with_duration(SimDuration::from_secs(10))
}

/// Everything a run exports, concatenated: the raw frame trace plus (when
/// instrumented) the metrics JSON/CSV and the event stream. Any
/// thread-count dependence anywhere in the engine lands in these bytes.
fn full_export(cfg: &ScenarioConfig) -> String {
    let r = run_scenario(cfg);
    let mut s = String::new();
    let _ = writeln!(s, "sim_events = {}", r.sim_events);
    let _ = writeln!(s, "trace_frames = {}", r.trace_frames);
    let _ = writeln!(s, "medium_drops = {}", r.medium_drops);
    let _ = writeln!(s, "schedules_sent = {}", r.proxy.schedules_sent);
    let _ = writeln!(s, "udp_bytes_sent = {}", r.proxy.udp_bytes_sent);
    let _ = writeln!(s, "tcp_bytes_fed = {}", r.proxy.tcp_bytes_fed);
    let _ = writeln!(s, "frames_lost = {}", r.faults.frames_lost);
    let _ = writeln!(s, "invariant_violations = {}", r.invariants.total());
    for c in &r.clients {
        let _ = writeln!(
            s,
            "client {} delivered = {} sleep_us = {} awake_us = {}",
            c.host.0,
            c.post.delivered,
            c.post.sleep.as_us(),
            c.post.awake.as_us()
        );
    }
    if let Some(rep) = r.obs {
        s.push_str(&rep.metrics_json());
        s.push_str(&rep.metrics_csv());
        s.push_str(&rep.events_jsonl());
    }
    s
}

/// The raw sniffer-trace JSONL of a run at a given thread count.
fn trace_jsonl(cfg: &ScenarioConfig) -> String {
    let mut a = powerburst::scenario::assemble(cfg);
    a.world.run_until(SimTime::ZERO + cfg.duration);
    to_jsonl(&a.world.take_trace())
}

#[test]
fn golden_scenarios_are_byte_identical_at_every_thread_count() {
    for (label, cfg) in [
        ("baseline", video_cfg(42)),
        (
            "faulted",
            video_cfg(42).with_faults(FaultPlan {
                loss_prob: 0.05,
                dup_prob: 0.01,
                reorder_prob: 0.02,
                reorder_max: SimDuration::from_ms(5),
                sched_drop_prob: 0.02,
                ap_jitter_prob: 0.2,
                ap_jitter_max: SimDuration::from_ms(10),
                clock_skew_ppm: 40.0,
            }),
        ),
        ("instrumented", video_cfg(42).with_obs(ObsConfig::full())),
    ] {
        let reference = full_export(&cfg.clone().with_threads(1));
        for t in THREADS {
            let got = full_export(&cfg.clone().with_threads(t));
            assert_eq!(got, reference, "{label}: threads={t} diverged from threads=1");
        }
    }
}

#[test]
fn golden_trace_file_is_reproduced_at_every_thread_count() {
    // Not just self-consistency: every thread count must reproduce the
    // *committed* frame-by-frame snapshot from `tests/golden/`.
    let cfg = video_cfg(42).with_duration(SimDuration::from_secs(5));
    for t in THREADS {
        let rendered = trace_jsonl(&cfg.clone().with_threads(t));
        if let Err(e) = check_golden(&golden_path("trace_5c_seed42.jsonl"), &rendered) {
            panic!("threads={t}: {e}");
        }
    }
}

#[test]
fn sharded_city_is_byte_identical_at_every_thread_count() {
    // The genuinely parallel case: 5 shards exchanging cross-shard mail
    // at epoch barriers. Compare the full export (trace counters, client
    // postmortems, metrics, event stream) across the whole matrix.
    let cfg = city_cfg(42).with_obs(ObsConfig::full());
    let reference = full_export(&cfg.clone().with_threads(1));
    assert!(!reference.is_empty());
    for t in THREADS {
        let got = full_export(&cfg.clone().with_threads(t));
        assert_eq!(got, reference, "city: threads={t} diverged from threads=1");
    }
}

#[test]
fn sharded_city_trace_is_byte_identical_at_every_thread_count() {
    let cfg = city_cfg(7);
    let reference = trace_jsonl(&cfg.clone().with_threads(1));
    assert!(reference.lines().count() > 100, "city run produced a real trace");
    for t in THREADS {
        let got = trace_jsonl(&cfg.clone().with_threads(t));
        assert_eq!(got, reference, "city trace: threads={t} diverged from threads=1");
    }
}

#[test]
fn faulted_sharded_city_is_byte_identical_at_every_thread_count() {
    // Per-cell fault injectors + per-cell medium RNG under parallel
    // execution: the stochastic paths must partition by cell exactly.
    let cfg = city_cfg(42).with_faults(FaultPlan {
        loss_prob: 0.03,
        dup_prob: 0.01,
        reorder_prob: 0.02,
        reorder_max: SimDuration::from_ms(4),
        sched_drop_prob: 0.01,
        ap_jitter_prob: 0.1,
        ap_jitter_max: SimDuration::from_ms(8),
        clock_skew_ppm: 25.0,
    });
    let reference = full_export(&cfg.clone().with_threads(1));
    for t in THREADS {
        let got = full_export(&cfg.clone().with_threads(t));
        assert_eq!(got, reference, "faulted city: threads={t} diverged from threads=1");
    }
}
