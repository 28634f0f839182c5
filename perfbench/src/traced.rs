//! The traced run: the same worlds as the untraced run, driven step by
//! step through each layer's public API with a span around every call.
//!
//! `run_scenario` is one call, so the traced pass performs its steps
//! itself — `scenario::assemble`, `net::World::run_until` in 1-simulated-
//! second slices, `World::take_trace`, and `trace::analyze_client` per
//! client with the `PolicyParams` `run_scenario` derives — and checks that
//! every replay equals the untraced run's. Result collection is left to
//! `run_scenario`, so the untraced time the layer rows do not cover is
//! `other_s`.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use powerburst_client::PowerClient;
use powerburst_net::HostAddr;
use powerburst_scenario::{
    assemble, hosts, Assembled, ClientKind, ObsConfig, ScenarioConfig, ScenarioResult,
};
use powerburst_sim::{parallel_sweep_timed, SimDuration, SimTime};
use powerburst_trace::{analyze_client, PolicyParams, PostmortemReport};
use powerburst_traffic::WebClientApp;

use crate::measure::{run_all, Checked};
use crate::outcome::outcomes;
use crate::proc::rss_bytes;
use crate::spans::{Tracer, NO_PARENT};
use crate::workload::{WorldDef, THREADS};

/// Builds a world for the traced pass: `scenario::assemble` in the
/// benchmark; tests substitute hand-built worlds.
pub type Build<'a> = &'a (dyn Fn(&WorldDef) -> Assembled + Sync);

/// Builds a world with `scenario::assemble`, as the benchmark does.
pub fn assemble_def(w: &WorldDef) -> Assembled {
    assemble(&w.cfg)
}

/// The 1-simulated-second slices `run_until` is called with: their ends.
fn slice_ends(duration: SimDuration) -> Vec<SimTime> {
    let whole = duration.as_us().div_ceil(1_000_000);
    (1..=whole).map(|k| SimTime::ZERO + SimDuration::from_secs(k).min(duration)).collect()
}

/// The first slice in which every video stream has started: streams open
/// `stagger` apart with up to 0.25 s of jitter. Never slice 0, which also
/// holds every node's start-up.
fn steady_from(cfg: &ScenarioConfig, slices: usize) -> usize {
    let videos = cfg.clients.iter().filter(|c| c.kind.is_video()).count() as u64;
    let ramp_us = if videos == 0 { 0 } else { cfg.stagger.as_us() * videos + 250_000 };
    (ramp_us.div_ceil(1_000_000) as usize).max(1).min(slices.saturating_sub(1))
}

/// The replay parameters `run_scenario` derives for client `i`.
fn policy_params(cfg: &ScenarioConfig, i: usize) -> PolicyParams {
    let spec = &cfg.clients[i];
    PolicyParams {
        early_transition: spec.early_transition,
        skip_unchanged: spec.skip_unchanged,
        ..PolicyParams::default()
    }
}

/// What one traced world produced, for comparison with `run_scenario`.
pub struct TracedWorld {
    /// Events processed.
    pub events: u64,
    /// Per-client replay reports, in client order.
    pub post: Vec<PostmortemReport>,
}

/// Drive one world through the layers under span `parent`.
pub fn traced_world(tr: &Tracer, parent: u64, w: &WorldDef, build: Build<'_>) -> TracedWorld {
    tr.span("bench.world", parent, |wid| {
        let cfg = &w.cfg;
        let end = SimTime::ZERO + cfg.duration;
        let mut a = tr.span("scenario.assemble", wid, |_| build(w));

        let ends = slice_ends(cfg.duration);
        let mut before = 0u64;
        for (k, &t) in ends.iter().enumerate() {
            let sid = tr.span("net.run_until", wid, |sid| {
                a.world.run_until(t);
                sid
            });
            let now = a.world.events_processed();
            tr.count(sid, "slice", k as f64);
            tr.count(sid, "events", (now - before) as f64);
            tr.count(sid, "rss_bytes", rss_bytes() as f64);
            before = now;
        }

        let (tid, records) = tr.span("net.take_trace", wid, |tid| (tid, a.world.take_trace()));
        tr.count(tid, "records", records.len() as f64);

        // Records that name each host as source or destination, counted
        // in one pass outside the postmortem spans.
        let mut touching: HashMap<HostAddr, u64> = HashMap::new();
        for r in &records {
            *touching.entry(r.src.host).or_default() += 1;
            if r.dst.host != r.src.host {
                *touching.entry(r.dst.host).or_default() += 1;
            }
        }

        let (pid, post) = tr.span("trace.postmortem", wid, |pid| {
            let post: Vec<PostmortemReport> = (0..cfg.clients.len())
                .map(|i| {
                    let p = policy_params(cfg, i);
                    tr.span("trace.analyze_client", pid, |_| {
                        analyze_client(&records, hosts::client(i), end, &p)
                    })
                })
                .collect();
            (pid, post)
        });
        let n = cfg.clients.len();
        let relevant: u64 =
            (0..n).map(|i| touching.get(&hosts::client(i)).copied().unwrap_or(0)).sum();
        tr.count(pid, "clients", n as f64);
        tr.count(pid, "records", records.len() as f64);
        tr.count(pid, "relevant", relevant as f64);

        let mut latencies = Vec::new();
        for (i, spec) in cfg.clients.iter().enumerate() {
            if let ClientKind::Web { .. } = spec.kind {
                let pc = a.world.node_mut::<PowerClient>(a.clients[i]);
                latencies
                    .extend_from_slice(&pc.app_mut::<WebClientApp>().stats().object_latencies_s);
            }
        }
        tr.samples(wid, "traffic.web.latency_s", &latencies);
        tr.count(wid, "clients", n as f64);
        tr.count(wid, "steady_from", steady_from(cfg, ends.len()) as f64);
        tr.count(wid, "shards", a.world.shard_count() as f64);
        TracedWorld { events: a.world.events_processed(), post }
    })
}

/// The traced pass: every world through [`traced_world`] over the same
/// sweep the untraced run uses; a world that panics yields `None`.
pub fn traced_pass(tr: &Tracer, worlds: &[WorldDef], build: Build<'_>) -> Vec<Option<TracedWorld>> {
    tr.span("bench.traced", NO_PARENT, |root| {
        tr.span("sim.sweep", root, |sw| {
            let jobs: Vec<&WorldDef> = worlds.iter().collect();
            let (out, timing) = parallel_sweep_timed(jobs, THREADS, |w| {
                catch_unwind(AssertUnwindSafe(|| traced_world(tr, sw, w, build))).ok()
            });
            tr.count(sw, "threads", timing.threads as f64);
            out
        })
    })
}

/// Sum of `f` over the results.
fn total(results: &[ScenarioResult], f: impl Fn(&ScenarioResult) -> u64) -> f64 {
    results.iter().map(f).sum::<u64>() as f64
}

/// The untraced reference: the workload through `run_scenario`, timed as
/// one span, with the result counters the layer rows read attached.
fn untraced_reference(tr: &Tracer, worlds: &[WorldDef]) -> Vec<Option<ScenarioResult>> {
    let (uid, results) = tr.span("bench.untraced", NO_PARENT, |uid| (uid, run_all(worlds).0));
    let ok: Vec<ScenarioResult> = results.iter().flatten().cloned().collect();
    let counts: [(&str, f64); 17] = [
        ("paper_gap_pts", outcomes(&ok).paper_gap_pts),
        ("core.schedules_sent", total(&ok, |r| r.proxy.schedules_sent)),
        ("core.unchanged_schedules", total(&ok, |r| r.proxy.unchanged_schedules)),
        ("core.udp_packets_sent", total(&ok, |r| r.proxy.udp_packets_sent)),
        ("core.queue_drops", total(&ok, |r| r.proxy.queue_drops)),
        ("core.splices_created", total(&ok, |r| r.proxy.splices_created)),
        ("core.tcp_bytes_fed", total(&ok, |r| r.proxy.tcp_bytes_fed)),
        ("coord.demand_reports", total(&ok, |r| r.proxy.demand_reports_sent)),
        ("coord.grants_applied", total(&ok, |r| r.proxy.budget_grants_applied)),
        (
            "client.schedules_received",
            total(&ok, |r| r.clients.iter().map(|c| c.daemon.schedules_received).sum()),
        ),
        (
            "client.schedules_missed",
            total(&ok, |r| r.clients.iter().map(|c| c.daemon.schedules_missed).sum()),
        ),
        (
            "traffic.web.objects_done",
            total(&ok, |r| {
                r.clients.iter().filter_map(|c| c.app.web).map(|w| w.objects_done as u64).sum()
            }),
        ),
        (
            "traffic.ftp.bytes_received",
            total(&ok, |r| r.clients.iter().filter_map(|c| c.app.ftp).map(|f| f.received).sum()),
        ),
        ("net.medium_drops", total(&ok, |r| r.medium_drops)),
        ("net.faults.frames_lost", total(&ok, |r| r.faults.frames_lost)),
        ("net.faults.schedules_dropped", total(&ok, |r| r.faults.schedules_dropped)),
        ("sim.events", total(&ok, |r| r.sim_events)),
    ];
    for (name, v) in counts {
        tr.count(uid, name, v);
    }
    results
}

/// Extra timed runs on every world: `run_until` with obs off and with
/// `ObsConfig::full` (plus the export), and on sharded worlds one more at
/// a single thread.
fn extras(tr: &Tracer, worlds: &[WorldDef]) {
    tr.span("bench.extra", NO_PARENT, |e| {
        for w in worlds {
            let end = SimTime::ZERO + w.cfg.duration;
            let mut a = tr.span("extra.assemble", e, |_| assemble(&w.cfg));
            let oid = tr.span("obs.off.run_until", e, |oid| {
                a.world.run_until(end);
                oid
            });
            let shards = a.world.shard_count();
            tr.count(oid, "shards", shards as f64);
            drop(a);

            let mut a = tr.span("extra.assemble", e, |_| {
                assemble(&w.cfg.clone().with_obs(ObsConfig::full()))
            });
            tr.span("obs.full.run_until", e, |_| a.world.run_until(end));
            let (xid, report) = tr.span("obs.export", e, |xid| (xid, a.obs.export()));
            tr.count(xid, "events_dropped", report.map_or(0, |r| r.events_dropped) as f64);
            drop(a);

            if shards > 1 {
                let mut a =
                    tr.span("extra.assemble", e, |_| assemble(&w.cfg.clone().with_threads(1)));
                tr.span("sim.t1.run_until", e, |_| a.world.run_until(end));
            }
        }
    });
}

/// The whole traced run: untraced reference, traced pass, extras. Every
/// traced world must match its `run_scenario` twin event for event and
/// replay for replay.
pub fn traced_run(tr: &Tracer, worlds: &[WorldDef]) -> Checked {
    let reference = untraced_reference(tr, worlds);
    let traced = traced_pass(tr, worlds, &assemble_def);
    extras(tr, worlds);

    let mut checked = Checked::new(worlds.len());
    for ((w, r), t) in worlds.iter().zip(&reference).zip(&traced) {
        checked.world(&w.label, r, None);
        let Some(r) = r else { continue };
        let Some(t) = t else {
            checked.fail(&w.label, "the traced pass panicked".into(), true);
            continue;
        };
        let same = r.sim_events == t.events
            && r.clients.len() == t.post.len()
            && r.clients.iter().zip(&t.post).all(|(c, p)| {
                c.post.energy_mj.to_bits() == p.energy_mj.to_bits()
                    && (c.post.delivered, c.post.missed) == (p.delivered, p.missed)
            });
        if !same {
            let why = format!(
                "traced pass ({} events) differs from run_scenario ({} events)",
                t.events, r.sim_events
            );
            checked.fail(&w.label, why, true);
        }
    }
    checked
}

#[cfg(test)]
mod tests {
    use std::any::Any;
    use std::time::{Duration, Instant};

    use powerburst_net::{
        AccessPoint, Ctx, Endpoint, IfaceId, Node, NodeConfig, Packet, SockAddr, TimerToken, World,
        AP_RADIO, AP_WIRED,
    };
    use powerburst_obs::Recorder;
    use powerburst_scenario::NetworkConfig;
    use powerburst_traffic::{CbrSource, CbrSpec, CountingSink, NaiveClient};

    use super::*;
    use crate::layers::{table, LayerSeconds};
    use crate::spans::Trace;
    use crate::workload::Workload;

    /// A node that burns `spin` of host time on every timer, every
    /// `period` of simulated time, and does nothing else.
    struct SlowNode {
        spin: Duration,
        period: SimDuration,
    }

    impl Node for SlowNode {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(self.period, 1);
        }

        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _iface: IfaceId, _pkt: Packet) {}

        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: TimerToken) {
            let t0 = Instant::now();
            while t0.elapsed() < self.spin {
                std::hint::spin_loop();
            }
            ctx.set_timer(self.period, 1);
        }

        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn small_world(secs: u64) -> Vec<WorldDef> {
        let mut w = Workload::Fig4.worlds(7).swap_remove(0);
        w.cfg = w.cfg.with_duration(SimDuration::from_secs(secs));
        vec![w]
    }

    /// `World::add_node` only works before a world first runs, and
    /// `scenario::assemble` hands back a frozen world, so the test builds
    /// its own: a CBR stream through an access point to the first of the
    /// world's clients, every client on the radio, and optionally a slow
    /// node.
    fn cbr_world(w: &WorldDef, slow: Option<(Duration, SimDuration)>) -> Assembled {
        let net = NetworkConfig::default();
        let end = SimTime::ZERO + w.cfg.duration;
        let mut world = World::new(w.cfg.seed);
        let server = HostAddr(1);
        let spec = CbrSpec {
            dst: SockAddr::new(hosts::client(0), 5000),
            packet_bytes: 1_000,
            interval: SimDuration::from_ms(2),
            start: SimTime::ZERO,
            stop: end,
            flow: 0,
        };
        let src = world.add_node(
            Box::new(CbrSource::new(SockAddr::new(server, 5000), spec)),
            NodeConfig::wired(server),
        );
        let ap =
            world.add_node(Box::new(AccessPoint::new(net.ap_delay)), NodeConfig::infrastructure());
        world.add_link(
            Endpoint { node: src, iface: IfaceId(0) },
            Endpoint { node: ap, iface: AP_WIRED },
            net.wired,
        );
        world.set_medium(net.airtime, SimDuration::from_secs(1), ap);
        world.attach_wireless(ap, AP_RADIO);
        let clients: Vec<_> = (0..w.cfg.clients.len())
            .map(|i| {
                let c = world.add_node(
                    Box::new(NaiveClient::new(Box::new(CountingSink::new()))),
                    NodeConfig {
                        host: Some(hosts::client(i)),
                        clock: Default::default(),
                        wnic: None,
                    },
                );
                world.attach_wireless(c, IfaceId(0));
                c
            })
            .collect();
        if let Some((spin, period)) = slow {
            world.add_node(Box::new(SlowNode { spin, period }), NodeConfig::infrastructure());
        }
        Assembled {
            world,
            proxy: ap,
            ap,
            clients,
            video_server: src,
            byte_server: src,
            shards: Vec::new(),
            coordinator: None,
            obs: Recorder::disabled(),
        }
    }

    /// Layer seconds of a traced pass, the minimum over `reps` passes.
    fn min_layers(worlds: &[WorldDef], build: Build<'_>, reps: usize) -> LayerSeconds {
        let runs: Vec<LayerSeconds> = (0..reps)
            .map(|_| {
                let tr = Tracer::new("test".into());
                traced_pass(&tr, worlds, build);
                LayerSeconds::of(&tr.finish())
            })
            .collect();
        let min = |f: fn(&LayerSeconds) -> f64| runs.iter().map(f).fold(f64::INFINITY, f64::min);
        LayerSeconds {
            assemble: min(|l| l.assemble),
            run: min(|l| l.run),
            take_trace: min(|l| l.take_trace),
            postmortem: min(|l| l.postmortem),
            bench: min(|l| l.bench),
        }
    }

    #[test]
    fn slices_cover_the_run() {
        let e = slice_ends(SimDuration::from_ms(2_500));
        assert_eq!(e.len(), 3);
        assert_eq!(e[2], SimTime::ZERO + SimDuration::from_ms(2_500));
    }

    /// A deliberately slowed handler shows up in the `net` row, and not in
    /// the postmortem or in the benchmark's unattributed time. (A
    /// hand-built world has no `run_scenario` twin, so the traced pass's
    /// own unattributed time, `bench.self_s`, stands in for `other_s`.)
    #[test]
    fn slow_node_lands_in_net_run() {
        let secs = 10;
        let (spin, period) = (Duration::from_micros(200), SimDuration::from_ms(5));
        let injected = spin.as_secs_f64() * (secs * 1_000 / 5) as f64;
        let worlds = small_world(secs);
        let base = min_layers(&worlds, &|w: &WorldDef| cbr_world(w, None), 3);
        let slowed = min_layers(&worlds, &|w: &WorldDef| cbr_world(w, Some((spin, period))), 3);
        assert!(base.postmortem > 0.0 && base.run > 0.0, "{base:?}");
        let d_run = slowed.run - base.run;
        assert!(
            (0.8 * injected..1.5 * injected).contains(&d_run),
            "net.run_s grew {d_run:.4} s for {injected:.4} s injected ({base:?} -> {slowed:?})"
        );
        for (row, d) in [
            ("trace.postmortem_s", slowed.postmortem - base.postmortem),
            ("bench.self_s", slowed.bench - base.bench),
            ("scenario.assemble_s", slowed.assemble - base.assemble),
        ] {
            assert!(d.abs() < 0.1 * injected, "{row} moved {d:.4} s ({base:?} -> {slowed:?})");
        }
    }

    /// The traced run checks itself against `run_scenario`, and its table
    /// accounts for the untraced wall time exactly, and for the traced
    /// pass's wall time through `bench.self_s`.
    #[test]
    fn traced_run_matches_and_accounts() {
        let worlds = small_world(5);
        let tr = Tracer::new("test".into());
        let checked = traced_run(&tr, &worlds);
        assert!(checked.failures.is_empty(), "{:?}", checked.failures);
        assert_eq!(checked.attempted, 1);
        let t = Trace::parse_jsonl(&tr.finish().to_jsonl()).expect("round trip");
        let rows = table(&t).expect("table");
        let v = |n: &str| rows.iter().find(|r| r.0 == n).expect("row").1;
        let layers = v("scenario.assemble_s")
            + v("net.run_s")
            + v("net.take_trace_s")
            + v("trace.postmortem_s");
        let untraced = t.named("bench.untraced").next().expect("span").dur_s();
        let traced = t.named("bench.traced").next().expect("span").dur_s();
        assert!((layers + v("other_s") - untraced).abs() < 1e-9);
        assert!((layers + v("bench.self_s") - traced).abs() < 1e-6 * traced.max(1.0));
        assert!(v("net.events") > 0.0 && v("trace.records_replayed") > 0.0);
    }
}
