//! The per-layer table, computed from a span export alone.
//!
//! Layer seconds (`*_s` rows) are wall-clock self times (see
//! `Trace::self_times`), so on the 2-thread sweeps they are each layer's
//! share of the traced pass's wall time, and they add up to it together
//! with `bench.self_s`. Per-unit costs (`ns_per_event`, `ns_per_record`)
//! divide thread time — the spans' own durations — by the work done.

use std::collections::{BTreeMap, BTreeSet};

use crate::spans::{Span, Trace};
use crate::stats::{growth, median, slope, tail};

/// Every per-layer metric, with its unit, in report order.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("scenario.assemble_s", "s"),
    ("sim.sweep.busy_ratio", "ratio"),
    ("sim.shard.count", "count"),
    ("sim.shard.speedup_t2", "ratio"),
    ("net.run_s", "s"),
    ("net.events", "count"),
    ("net.ns_per_event", "ns"),
    ("net.ns_per_event.growth", "ratio"),
    ("net.rss_bytes_per_client_s", "B/client-s"),
    ("net.take_trace_s", "s"),
    ("net.trace_records", "count"),
    ("net.medium_drops", "count"),
    ("net.faults.frames_lost", "count"),
    ("net.faults.schedules_dropped", "count"),
    ("core.schedules_sent", "count"),
    ("core.unchanged_ratio", "ratio"),
    ("core.udp_packets_sent", "count"),
    ("core.queue_drops", "count"),
    ("core.splices_created", "count"),
    ("core.tcp_bytes_fed", "B"),
    ("coord.demand_reports", "count"),
    ("coord.grants_applied", "count"),
    ("coord.grant_ratio", "ratio"),
    ("client.schedules_received", "count"),
    ("client.schedules_missed", "count"),
    ("client.miss_ratio", "ratio"),
    ("traffic.web.objects_done", "count"),
    ("traffic.ftp.bytes_received", "B"),
    ("traffic.web.latency_p50_s", "s"),
    ("traffic.web.latency_tail_s", "s"),
    ("traffic.web.latency_tail_pct", "%"),
    ("traffic.web.latency_samples", "count"),
    ("trace.postmortem_s", "s"),
    ("trace.records_replayed", "count"),
    ("trace.ns_per_record", "ns"),
    ("trace.relevant_ratio", "ratio"),
    ("obs.overhead_ratio", "ratio"),
    ("obs.export_s", "s"),
    ("obs.events_dropped", "count"),
    ("paper_gap_pts", "pts"),
    ("bench.self_s", "s"),
    ("other_s", "s"),
    ("bench.trace_overhead_ratio", "ratio"),
];

/// Wall self time of the traced pass, by layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerSeconds {
    /// `scenario::assemble`.
    pub assemble: f64,
    /// `World::run_until`: every event handler.
    pub run: f64,
    /// `World::take_trace`.
    pub take_trace: f64,
    /// `trace::analyze_client`, over every client.
    pub postmortem: f64,
    /// The benchmark's own code inside the traced pass.
    pub bench: f64,
}

impl LayerSeconds {
    /// Attribute the self times of the spans under `bench.traced`.
    pub fn of(t: &Trace) -> LayerSeconds {
        let st = t.self_times();
        let traced = traced_ids(t);
        let mut l = LayerSeconds::default();
        for s in t.spans.iter().filter(|s| traced.contains(&s.id)) {
            let v = st.get(&s.id).copied().unwrap_or(0.0);
            match s.name.as_str() {
                "scenario.assemble" => l.assemble += v,
                "net.run_until" => l.run += v,
                "net.take_trace" => l.take_trace += v,
                "trace.postmortem" | "trace.analyze_client" => l.postmortem += v,
                _ => l.bench += v,
            }
        }
        l
    }

    /// The layers' total, without the benchmark's own time.
    pub fn layers(&self) -> f64 {
        self.assemble + self.run + self.take_trace + self.postmortem
    }
}

/// Ids of `bench.traced` and every span below it.
fn traced_ids(t: &Trace) -> BTreeSet<u64> {
    let parent: BTreeMap<u64, u64> = t.spans.iter().map(|s| (s.id, s.parent)).collect();
    let roots: Vec<u64> = t.named("bench.traced").map(|s| s.id).collect();
    t.spans
        .iter()
        .filter(|s| {
            let mut id = s.id;
            for _ in 0..=t.spans.len() {
                if roots.contains(&id) {
                    return true;
                }
                match parent.get(&id) {
                    Some(&p) => id = p,
                    None => return false,
                }
            }
            false
        })
        .map(|s| s.id)
        .collect()
}

fn dur_sum<'a>(spans: impl Iterator<Item = &'a Span>) -> f64 {
    spans.map(Span::dur_s).sum()
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The per-layer table of a traced run, in [`PER_LAYER`] order.
pub fn table(t: &Trace) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let one = |name: &str| {
        t.spans
            .iter()
            .find(|s| s.name == name)
            .ok_or_else(|| format!("the export has no `{name}` span"))
    };
    let untraced = one("bench.untraced")?;
    let traced = one("bench.traced")?;
    let sweep = one("sim.sweep")?;
    let uc = |name: &str| t.count(untraced.id, name).unwrap_or(0.0);
    let l = LayerSeconds::of(t);
    let mut m: BTreeMap<&str, f64> = BTreeMap::new();

    m.insert("scenario.assemble_s", l.assemble);
    let worlds: Vec<&Span> = t.named("bench.world").collect();
    let threads = t.count(sweep.id, "threads").unwrap_or(1.0);
    m.insert(
        "sim.sweep.busy_ratio",
        ratio(dur_sum(worlds.iter().copied()), threads * sweep.dur_s()),
    );
    m.insert(
        "sim.shard.count",
        worlds.iter().filter_map(|w| t.count(w.id, "shards")).fold(0.0, f64::max),
    );
    // A single-shard world runs the sequential loop at any thread count,
    // so its speed-up is 1 by construction.
    let off_sharded = dur_sum(
        t.named("obs.off.run_until").filter(|s| t.count(s.id, "shards").unwrap_or(1.0) > 1.0),
    );
    let t1 = dur_sum(t.named("sim.t1.run_until"));
    m.insert("sim.shard.speedup_t2", if t1 > 0.0 { ratio(t1, off_sharded) } else { 1.0 });

    // net: run slices, grouped by world.
    let slices: Vec<&Span> = t.named("net.run_until").collect();
    let events: f64 = slices.iter().filter_map(|s| t.count(s.id, "events")).sum();
    m.insert("net.run_s", l.run);
    m.insert("net.events", events);
    m.insert("net.ns_per_event", ratio(dur_sum(slices.iter().copied()) * 1e9, events));
    let (mut first, mut last) = ((0.0, 0.0), (0.0, 0.0));
    let mut rss_slopes = Vec::new();
    for w in &worlds {
        let steady = t.count(w.id, "steady_from").unwrap_or(1.0);
        let mut mine: Vec<(f64, f64, f64, f64)> = slices
            .iter()
            .filter(|s| s.parent == w.id)
            .map(|s| {
                let c = |k| t.count(s.id, k).unwrap_or(0.0);
                (c("slice"), s.dur_s(), c("events"), c("rss_bytes"))
            })
            .filter(|x| x.0 >= steady)
            .collect();
        mine.sort_by(|a, b| a.0.total_cmp(&b.0));
        if let (Some(f), Some(z)) = (mine.first(), mine.last()) {
            first = (first.0 + f.1, first.1 + f.2);
            last = (last.0 + z.1, last.1 + z.2);
        }
        let xs: Vec<f64> = mine.iter().map(|x| x.0 + 1.0).collect();
        let ys: Vec<f64> = mine.iter().map(|x| x.3).collect();
        let clients = t.count(w.id, "clients").unwrap_or(1.0).max(1.0);
        rss_slopes.push(slope(&xs, &ys) / clients);
    }
    m.insert("net.ns_per_event.growth", growth(first, last));
    m.insert("net.rss_bytes_per_client_s", median(&rss_slopes));
    m.insert("net.take_trace_s", l.take_trace);
    m.insert(
        "net.trace_records",
        t.named("net.take_trace").filter_map(|s| t.count(s.id, "records")).sum(),
    );
    for k in ["net.medium_drops", "net.faults.frames_lost", "net.faults.schedules_dropped"] {
        m.insert(k, uc(k));
    }

    for k in [
        "core.schedules_sent",
        "core.udp_packets_sent",
        "core.queue_drops",
        "core.splices_created",
        "core.tcp_bytes_fed",
    ] {
        m.insert(k, uc(k));
    }
    m.insert(
        "core.unchanged_ratio",
        ratio(uc("core.unchanged_schedules"), uc("core.schedules_sent")),
    );
    m.insert("coord.demand_reports", uc("coord.demand_reports"));
    m.insert("coord.grants_applied", uc("coord.grants_applied"));
    m.insert("coord.grant_ratio", ratio(uc("coord.grants_applied"), uc("coord.demand_reports")));
    let (rx, missed) = (uc("client.schedules_received"), uc("client.schedules_missed"));
    m.insert("client.schedules_received", rx);
    m.insert("client.schedules_missed", missed);
    m.insert("client.miss_ratio", ratio(missed, rx + missed));

    m.insert("traffic.web.objects_done", uc("traffic.web.objects_done"));
    m.insert("traffic.ftp.bytes_received", uc("traffic.ftp.bytes_received"));
    let lat = tail(&t.samples_of("traffic.web.latency_s"));
    m.insert("traffic.web.latency_p50_s", lat.p50);
    m.insert("traffic.web.latency_tail_s", lat.value);
    m.insert("traffic.web.latency_tail_pct", lat.pct);
    m.insert("traffic.web.latency_samples", lat.n as f64);

    let pm: Vec<&Span> = t.named("trace.postmortem").collect();
    let pc = |k| pm.iter().filter_map(|s| t.count(s.id, k)).sum::<f64>();
    let replayed: f64 = pm
        .iter()
        .map(|s| t.count(s.id, "clients").unwrap_or(0.0) * t.count(s.id, "records").unwrap_or(0.0))
        .sum();
    m.insert("trace.postmortem_s", l.postmortem);
    m.insert("trace.records_replayed", replayed);
    m.insert("trace.ns_per_record", ratio(dur_sum(pm.iter().copied()) * 1e9, replayed));
    m.insert("trace.relevant_ratio", ratio(pc("relevant"), replayed));

    m.insert(
        "obs.overhead_ratio",
        ratio(dur_sum(t.named("obs.full.run_until")), dur_sum(t.named("obs.off.run_until"))),
    );
    m.insert("obs.export_s", dur_sum(t.named("obs.export")));
    m.insert(
        "obs.events_dropped",
        t.named("obs.export").filter_map(|s| t.count(s.id, "events_dropped")).sum(),
    );

    m.insert("paper_gap_pts", uc("paper_gap_pts"));
    m.insert("bench.self_s", l.bench);
    m.insert("other_s", untraced.dur_s() - l.layers());
    m.insert("bench.trace_overhead_ratio", ratio(traced.dur_s(), untraced.dur_s()));

    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            m.get(name).map(|&v| (name, v, unit)).ok_or_else(|| format!("no value for `{name}`"))
        })
        .collect()
}
