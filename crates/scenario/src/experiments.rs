//! The paper's experiments, one function per table/figure.
//!
//! Each function builds the configurations, fans them across cores with
//! [`powerburst_sim::parallel_sweep`], and returns structured rows plus a
//! `render_*` companion that prints the same rows/series the paper reports.
//! `powerburst experiment <name>` runs and renders them; the integration
//! tests call them with shortened durations.

use std::sync::Mutex;

use powerburst_core::{PolicyKind, ProxyMode, DEFAULT_TARGET_BUFFER};
use powerburst_energy::{optimal_savings_for_rate, CardSpec};
use powerburst_net::PipeSpec;
use powerburst_sim::{default_threads, parallel_sweep, SimDuration, Summary};
use powerburst_traffic::{Fidelity, WebScriptConfig};

use crate::build::run_scenario;
use crate::calibrate::{calibrate, Calibration, DEFAULT_SIZES};
use crate::config::{
    ClientKind, ClientSpec, NetworkConfig, RadioMode, ScenarioConfig, VideoPattern,
};
use crate::report::{banner, fmt_summary, Table};

/// Common experiment options.
#[derive(Debug, Clone, Copy)]
pub struct ExpOptions {
    /// Master seed.
    pub seed: u64,
    /// Run duration (the paper's trailer is 119 s).
    pub duration: SimDuration,
    /// Worker threads for the sweep.
    pub threads: usize,
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions { seed: 7, duration: SimDuration::from_secs(119), threads: default_threads() }
    }
}

/// The three burst-interval configurations of the evaluation.
pub const INTERVALS: [(&str, IntervalKind); 3] = [
    ("100ms", IntervalKind::Fixed100),
    ("500ms", IntervalKind::Fixed500),
    ("variable", IntervalKind::Variable),
];

/// Burst-interval selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntervalKind {
    /// Fixed 100 ms.
    Fixed100,
    /// Fixed 500 ms.
    Fixed500,
    /// Variable (100–500 ms).
    Variable,
}

impl IntervalKind {
    /// The proxy policy for this interval kind.
    pub fn policy(self) -> PolicyKind {
        match self {
            IntervalKind::Fixed100 => {
                PolicyKind::DynamicFixed { interval: SimDuration::from_ms(100) }
            }
            IntervalKind::Fixed500 => {
                PolicyKind::DynamicFixed { interval: SimDuration::from_ms(500) }
            }
            IntervalKind::Variable => PolicyKind::DynamicVariable {
                min: SimDuration::from_ms(100),
                max: SimDuration::from_ms(500),
            },
        }
    }
}

fn video_clients(pattern: VideoPattern, n: usize) -> Vec<ClientSpec> {
    pattern
        .fidelities(n)
        .into_iter()
        .map(|f| ClientSpec::new(ClientKind::Video { fidelity: f }))
        .collect()
}

/// A city-scale multi-cell configuration: `n` 56k video clients spread
/// round-robin over `n / 64` cells (one AP + proxy shard each), with the
/// paper's 1 s request stagger compressed so every client starts early in
/// a short bench window.
pub fn city_cfg(seed: u64, n: usize, duration: SimDuration) -> ScenarioConfig {
    let specs =
        (0..n).map(|_| ClientSpec::new(ClientKind::Video { fidelity: Fidelity::K56 })).collect();
    let mut cfg = ScenarioConfig::new(
        seed,
        PolicyKind::DynamicFixed { interval: SimDuration::from_ms(100) },
        specs,
    )
    .with_duration(duration)
    .with_cells(n.div_ceil(64));
    cfg.stagger = SimDuration::from_us(50);
    cfg
}

fn web_spec() -> ClientSpec {
    ClientSpec::new(ClientKind::Web { script: WebScriptConfig::default() })
}

// ---------------------------------------------------------------------------
// E1 — Figure 4: ten UDP (video) clients, five patterns × three intervals.
// ---------------------------------------------------------------------------

/// One bar of Figure 4.
#[derive(Debug, Clone)]
pub struct Fig4Row {
    /// Burst-interval label.
    pub interval: &'static str,
    /// Access-pattern label.
    pub pattern: &'static str,
    /// Percent energy saved over the ten clients.
    pub saved: Summary,
    /// Percent packets lost over the ten clients.
    pub loss: Summary,
    /// Total RealServer downshifts (the 512 kbps anomaly indicator).
    pub downshifts: u32,
}

/// Run Figure 4 (E1).
pub fn fig4_udp_video(opt: &ExpOptions) -> Vec<Fig4Row> {
    let patterns = [
        VideoPattern::All56,
        VideoPattern::All256,
        VideoPattern::All512,
        VideoPattern::Half56Half512,
        VideoPattern::Mixed,
    ];
    let mut configs = Vec::new();
    for (iname, ikind) in INTERVALS {
        for p in patterns {
            let cfg = ScenarioConfig::new(opt.seed, ikind.policy(), video_clients(p, 10))
                .with_duration(opt.duration);
            configs.push((iname, p, cfg));
        }
    }
    parallel_sweep(configs, opt.threads, |(iname, p, cfg)| {
        let r = run_scenario(cfg);
        Fig4Row {
            interval: iname,
            pattern: p.label(),
            saved: r.saved_all(),
            loss: r.loss_summary(|_| true),
            downshifts: r.downshifts,
        }
    })
}

/// Render Figure 4 rows as the paper's three panels.
pub fn render_fig4(rows: &[Fig4Row]) -> String {
    let mut out = banner("Figure 4 — ten clients viewing UDP (video) streams");
    for (iname, _) in INTERVALS {
        out.push_str(&format!("\nUDP with {iname} burst interval\n"));
        let mut t = Table::new(vec!["pattern", "energy saved % (min–max)", "loss %", "downshifts"]);
        for r in rows.iter().filter(|r| r.interval == iname) {
            t.row(vec![
                r.pattern.to_string(),
                fmt_summary(&r.saved),
                format!("{:.2}", r.loss.mean),
                r.downshifts.to_string(),
            ]);
        }
        out.push_str(&t.render());
    }
    out
}

// ---------------------------------------------------------------------------
// E2 — §4.2 text: ten TCP (web) clients.
// ---------------------------------------------------------------------------

/// One row of the TCP-only table.
#[derive(Debug, Clone)]
pub struct TcpOnlyRow {
    /// Burst-interval label.
    pub interval: &'static str,
    /// Percent energy saved over the ten clients.
    pub saved: Summary,
    /// Mean object fetch latency, seconds.
    pub mean_latency_s: f64,
    /// Objects fetched across all clients.
    pub objects_done: usize,
}

/// Run the TCP-only experiment (E2). The paper reports 70–80 % savings.
pub fn tab_tcp_only(opt: &ExpOptions) -> Vec<TcpOnlyRow> {
    let configs: Vec<_> = INTERVALS
        .iter()
        .map(|(iname, ikind)| {
            let clients = (0..10).map(|_| web_spec()).collect();
            let cfg =
                ScenarioConfig::new(opt.seed, ikind.policy(), clients).with_duration(opt.duration);
            (*iname, cfg)
        })
        .collect();
    parallel_sweep(configs, opt.threads, |(iname, cfg)| {
        let r = run_scenario(cfg);
        let lat: Vec<f64> =
            r.clients.iter().filter_map(|c| c.app.web.map(|w| w.mean_latency_s)).collect();
        let objects: usize =
            r.clients.iter().filter_map(|c| c.app.web.map(|w| w.objects_done)).sum();
        TcpOnlyRow {
            interval: iname,
            saved: r.saved_all(),
            mean_latency_s: lat.iter().sum::<f64>() / lat.len().max(1) as f64,
            objects_done: objects,
        }
    })
}

/// Render the TCP-only table.
pub fn render_tcp_only(rows: &[TcpOnlyRow]) -> String {
    let mut out = banner("TCP-only — ten clients browsing the web (§4.2)");
    let mut t =
        Table::new(vec!["interval", "energy saved % (min–max)", "mean obj latency", "objects"]);
    for r in rows {
        t.row(vec![
            r.interval.to_string(),
            fmt_summary(&r.saved),
            format!("{:.3}s", r.mean_latency_s),
            r.objects_done.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out
}

// ---------------------------------------------------------------------------
// E3 — Figure 5: seven video + three web clients.
// ---------------------------------------------------------------------------

/// One bar pair of Figure 5.
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// Burst-interval label.
    pub interval: &'static str,
    /// Video-pattern label ("56K/TCP"…).
    pub pattern: &'static str,
    /// UDP (video) clients' savings.
    pub udp_saved: Summary,
    /// TCP (web) clients' savings.
    pub tcp_saved: Summary,
    /// Loss over all clients.
    pub loss: Summary,
}

/// Run Figure 5 (E3).
pub fn fig5_mixed(opt: &ExpOptions) -> Vec<Fig5Row> {
    let patterns: [(&str, VideoPattern); 4] = [
        ("56K/TCP", VideoPattern::All56),
        ("256K/TCP", VideoPattern::All256),
        ("512K/TCP", VideoPattern::All512),
        ("All/TCP", VideoPattern::Mixed),
    ];
    let mut configs = Vec::new();
    for (iname, ikind) in INTERVALS {
        for (plabel, p) in patterns {
            let mut clients = video_clients(p, 7);
            for _ in 0..3 {
                clients.push(web_spec());
            }
            let cfg =
                ScenarioConfig::new(opt.seed, ikind.policy(), clients).with_duration(opt.duration);
            configs.push((iname, plabel, cfg));
        }
    }
    parallel_sweep(configs, opt.threads, |(iname, plabel, cfg)| {
        let r = run_scenario(cfg);
        Fig5Row {
            interval: iname,
            pattern: plabel,
            udp_saved: r.saved_video(),
            tcp_saved: r.saved_tcp(),
            loss: r.loss_summary(|_| true),
        }
    })
}

/// Render Figure 5.
pub fn render_fig5(rows: &[Fig5Row]) -> String {
    let mut out = banner("Figure 5 — seven UDP (video) + three TCP (web) clients");
    for (iname, _) in INTERVALS {
        out.push_str(&format!("\nUDP/TCP power savings for {iname}\n"));
        let mut t = Table::new(vec!["pattern", "UDP saved %", "TCP saved %", "loss %"]);
        for r in rows.iter().filter(|r| r.interval == iname) {
            t.row(vec![
                r.pattern.to_string(),
                fmt_summary(&r.udp_saved),
                fmt_summary(&r.tcp_saved),
                format!("{:.2}", r.loss.mean),
            ]);
        }
        out.push_str(&t.render());
    }
    out
}

// ---------------------------------------------------------------------------
// E4 — §4.3 comparison to the theoretical optimal.
// ---------------------------------------------------------------------------

/// One row of the optimal-comparison table.
#[derive(Debug, Clone)]
pub struct OptimalRow {
    /// Fidelity label.
    pub fidelity: &'static str,
    /// Theoretical optimal savings, percent.
    pub optimal_pct: f64,
    /// Measured mean savings (across the three interval types), percent.
    pub measured_pct: f64,
    /// Paper's reported optimal, percent.
    pub paper_optimal_pct: f64,
    /// Paper's reported measured, percent.
    pub paper_measured_pct: f64,
}

/// Run the optimal comparison (E4).
pub fn tab_optimal(opt: &ExpOptions) -> Vec<OptimalRow> {
    let fids = [
        (Fidelity::K56, VideoPattern::All56, 90.0, 77.0),
        (Fidelity::K256, VideoPattern::All256, 83.0, 66.0),
        (Fidelity::K512, VideoPattern::All512, 77.0, 53.0),
    ];
    let net = NetworkConfig::default();
    // Effective single-receiver bandwidth at media packet size.
    let eff_bps = net.airtime.effective_bps(728);
    let mut configs = Vec::new();
    for (fid, pattern, p_opt, p_meas) in fids {
        for (_, ikind) in INTERVALS {
            let cfg = ScenarioConfig::new(opt.seed, ikind.policy(), video_clients(pattern, 10))
                .with_duration(opt.duration);
            configs.push((fid, p_opt, p_meas, cfg));
        }
    }
    let results = parallel_sweep(configs, opt.threads, |(fid, p_opt, p_meas, cfg)| {
        let r = run_scenario(cfg);
        (*fid, *p_opt, *p_meas, r.saved_all().mean)
    });
    let mut agg: Vec<(Fidelity, f64, f64, Vec<f64>)> = Vec::new();
    for (fid, p_opt, p_meas, measured) in results {
        match agg.iter_mut().find(|(f, ..)| *f == fid) {
            Some((_, _, _, v)) => v.push(measured),
            None => agg.push((fid, p_opt, p_meas, vec![measured])),
        }
    }
    agg.into_iter()
        .map(|(fid, p_opt, p_meas, measured)| {
            let optimal = optimal_savings_for_rate(
                &CardSpec::WAVELAN_DSSS,
                fid.effective_bps(),
                opt.duration,
                eff_bps,
            )
            .saved
                * 100.0;
            OptimalRow {
                fidelity: fid.label(),
                optimal_pct: optimal,
                measured_pct: measured.iter().sum::<f64>() / measured.len() as f64,
                paper_optimal_pct: p_opt,
                paper_measured_pct: p_meas,
            }
        })
        .collect()
}

/// Render the optimal comparison.
pub fn render_optimal(rows: &[OptimalRow]) -> String {
    let mut out = banner("Comparison to theoretical optimal (§4.3)");
    let mut t = Table::new(vec![
        "stream",
        "optimal %",
        "measured %",
        "gap",
        "paper optimal %",
        "paper measured %",
    ]);
    for r in rows {
        t.row(vec![
            r.fidelity.to_string(),
            format!("{:.1}", r.optimal_pct),
            format!("{:.1}", r.measured_pct),
            format!("{:.1}", r.optimal_pct - r.measured_pct),
            format!("{:.0}", r.paper_optimal_pct),
            format!("{:.0}", r.paper_measured_pct),
        ]);
    }
    out.push_str(&t.render());
    out
}

// ---------------------------------------------------------------------------
// E5 — Figure 6: early-transition sweep on a single client.
// ---------------------------------------------------------------------------

/// One point of Figure 6.
#[derive(Debug, Clone, Copy)]
pub struct Fig6Row {
    /// Early-transition amount, ms.
    pub early_ms: u64,
    /// Energy wasted waking early, joules.
    pub early_waste_j: f64,
    /// Energy wasted on missed schedules, joules.
    pub missed_waste_j: f64,
    /// Missed packets, percent.
    pub missed_pct: f64,
    /// Missed schedules.
    pub missed_schedules: u64,
    /// Overall savings, percent.
    pub saved_pct: f64,
}

/// Run Figure 6 (E5): one client, 100 ms interval, early ∈ {0,2,4,6,8,10} ms.
pub fn fig6_early_transition(opt: &ExpOptions) -> Vec<Fig6Row> {
    let configs: Vec<u64> = vec![0, 2, 4, 6, 8, 10];
    parallel_sweep(configs, opt.threads, |&early_ms| {
        let mut spec = ClientSpec::new(ClientKind::Video { fidelity: Fidelity::K56 });
        spec.early_transition = SimDuration::from_ms(early_ms);
        let cfg = ScenarioConfig::new(
            opt.seed,
            PolicyKind::DynamicFixed { interval: SimDuration::from_ms(100) },
            vec![spec],
        )
        .with_duration(opt.duration);
        let r = run_scenario(&cfg);
        let c = &r.clients[0];
        let card = CardSpec::WAVELAN_DSSS;
        Fig6Row {
            early_ms,
            early_waste_j: c.post.early_waste_mj(&card) / 1_000.0,
            missed_waste_j: c.post.missed_waste_mj(&card) / 1_000.0,
            missed_pct: c.loss_pct(),
            missed_schedules: c.post.schedules_missed,
            saved_pct: c.saved_pct(),
        }
    })
}

/// Render Figure 6.
pub fn render_fig6(rows: &[Fig6Row]) -> String {
    let mut out = banner("Figure 6 — effect of the early-transition amount (100 ms interval)");
    let mut t = Table::new(vec![
        "early (ms)",
        "Early waste (J)",
        "MissedSched waste (J)",
        "total (J)",
        "missed pkts %",
        "missed scheds",
        "saved %",
    ]);
    for r in rows {
        t.row(vec![
            r.early_ms.to_string(),
            format!("{:.2}", r.early_waste_j),
            format!("{:.2}", r.missed_waste_j),
            format!("{:.2}", r.early_waste_j + r.missed_waste_j),
            format!("{:.2}", r.missed_pct),
            r.missed_schedules.to_string(),
            format!("{:.1}", r.saved_pct),
        ]);
    }
    out.push_str(&t.render());
    out
}

// ---------------------------------------------------------------------------
// E6 — §4.3 packet loss table across workloads.
// ---------------------------------------------------------------------------

/// One row of the loss table.
#[derive(Debug, Clone)]
pub struct LossRow {
    /// Scenario label.
    pub scenario: String,
    /// Loss percent over clients.
    pub loss: Summary,
    /// AP-queue drops.
    pub ap_drops: u64,
}

/// Run the packet-loss survey (E6): losses should typically be < 2 %.
pub fn tab_packet_loss(opt: &ExpOptions) -> Vec<LossRow> {
    let mut configs: Vec<(String, ScenarioConfig)> = Vec::new();
    for (iname, ikind) in INTERVALS {
        configs.push((
            format!("10xvideo-56K @{iname}"),
            ScenarioConfig::new(opt.seed, ikind.policy(), video_clients(VideoPattern::All56, 10))
                .with_duration(opt.duration),
        ));
        configs.push((
            format!("10xvideo-256K @{iname}"),
            ScenarioConfig::new(opt.seed, ikind.policy(), video_clients(VideoPattern::All256, 10))
                .with_duration(opt.duration),
        ));
        let mut mixed = video_clients(VideoPattern::Mixed, 7);
        for _ in 0..3 {
            mixed.push(web_spec());
        }
        configs.push((
            format!("7xvideo+3xweb @{iname}"),
            ScenarioConfig::new(opt.seed, ikind.policy(), mixed).with_duration(opt.duration),
        ));
    }
    parallel_sweep(configs, opt.threads, |(label, cfg)| {
        let r = run_scenario(cfg);
        LossRow {
            scenario: label.clone(),
            loss: r.loss_summary(|_| true),
            ap_drops: r.medium_drops,
        }
    })
}

/// Render the loss table.
pub fn render_packet_loss(rows: &[LossRow]) -> String {
    let mut out = banner("Packets lost or dropped (§4.3) — typically < 2 %");
    let mut t = Table::new(vec!["scenario", "loss % (min–max)", "AP drops"]);
    for r in rows {
        t.row(vec![r.scenario.clone(), fmt_summary(&r.loss), r.ap_drops.to_string()]);
    }
    out.push_str(&t.render());
    out
}

// ---------------------------------------------------------------------------
// E7 — §4.3 static vs dynamic schedules.
// ---------------------------------------------------------------------------

/// One row of the static-vs-dynamic table.
#[derive(Debug, Clone)]
pub struct StaticRow {
    /// Fidelity label.
    pub fidelity: &'static str,
    /// Dynamic-schedule savings.
    pub dynamic: Summary,
    /// Static-schedule savings.
    pub static_: Summary,
}

/// Run static vs dynamic (E7): with identical fidelities, a static equal
/// schedule should show lower variance (and no schedule-reception early
/// cost once clients know the permanent slots).
pub fn tab_static_vs_dynamic(opt: &ExpOptions) -> Vec<StaticRow> {
    let fids = [
        (VideoPattern::All56, "56K"),
        (VideoPattern::All256, "256K"),
        (VideoPattern::All512, "512K"),
    ];
    let mut configs = Vec::new();
    for (p, label) in fids {
        for static_mode in [false, true] {
            let policy = if static_mode {
                PolicyKind::StaticEqual { interval: SimDuration::from_ms(100) }
            } else {
                PolicyKind::DynamicFixed { interval: SimDuration::from_ms(100) }
            };
            let mut clients = video_clients(p, 10);
            if static_mode {
                // §4.3: a static schedule removes the per-interval schedule
                // reception (clients know their permanent slots).
                for c in &mut clients {
                    c.skip_unchanged = true;
                }
            }
            let mut cfg =
                ScenarioConfig::new(opt.seed, policy, clients).with_duration(opt.duration);
            cfg.flag_unchanged = static_mode;
            configs.push((label, static_mode, cfg));
        }
    }
    let results = parallel_sweep(configs, opt.threads, |(label, static_mode, cfg)| {
        let r = run_scenario(cfg);
        (*label, *static_mode, r.saved_all())
    });
    let mut rows: Vec<StaticRow> = Vec::new();
    for (label, static_mode, summary) in results {
        let row = match rows.iter_mut().position(|r| r.fidelity == label) {
            Some(i) => &mut rows[i],
            None => {
                rows.push(StaticRow {
                    fidelity: label,
                    dynamic: Summary::from_iter([]),
                    static_: Summary::from_iter([]),
                });
                rows.last_mut().expect("just pushed")
            }
        };
        if static_mode {
            row.static_ = summary;
        } else {
            row.dynamic = summary;
        }
    }
    rows
}

/// Render static vs dynamic.
pub fn render_static_vs_dynamic(rows: &[StaticRow]) -> String {
    let mut out = banner("Static vs dynamic schedule, identical fidelities @100 ms (§4.3)");
    let mut t =
        Table::new(vec!["fidelity", "dynamic saved %", "dyn std", "static saved %", "static std"]);
    for r in rows {
        t.row(vec![
            r.fidelity.to_string(),
            fmt_summary(&r.dynamic),
            format!("{:.2}", r.dynamic.std),
            fmt_summary(&r.static_),
            format!("{:.2}", r.static_.std),
        ]);
    }
    out.push_str(&t.render());
    out
}

// ---------------------------------------------------------------------------
// E8 — Figure 7: slotted static TCP/UDP schedules.
// ---------------------------------------------------------------------------

/// One configuration of Figure 7.
#[derive(Debug, Clone)]
pub struct Fig7Row {
    /// TCP slot weight, percent of the interval.
    pub tcp_weight_pct: u32,
    /// Energy used (100 − saved) per fidelity, percent: (label, mean used).
    pub energy_used_pct: Vec<(&'static str, f64)>,
    /// The TCP client's mean object latency, milliseconds.
    pub tcp_latency_ms: f64,
    /// The TCP client's objects completed.
    pub tcp_objects: usize,
    /// The TCP client's energy used, percent.
    pub tcp_energy_used_pct: f64,
}

/// Run Figure 7 (E8): static TCP/UDP slots at 500 ms with TCP weights
/// 10 % / 33 % / 56 %, nine video clients (mixed fidelities) + one web
/// client generating "medium" background traffic.
pub fn fig7_slotted_static(opt: &ExpOptions) -> Vec<Fig7Row> {
    let weights = [0.10f64, 0.33, 0.56];
    let configs: Vec<f64> = weights.to_vec();
    parallel_sweep(configs, opt.threads, |&w| {
        use Fidelity::*;
        let fids = [K56, K56, K128, K128, K256, K256, K512, K512, K56];
        let mut clients: Vec<ClientSpec> =
            fids.iter().map(|&f| ClientSpec::new(ClientKind::Video { fidelity: f })).collect();
        // "Medium" background TCP traffic.
        let script = WebScriptConfig {
            pages: 40,
            think_s: (1.0, 3.0),
            objects_per_page: (2, 6),
            object_bytes: (5_000, 80_000),
            max_parallel: 2,
        };
        clients.push(ClientSpec::new(ClientKind::Web { script }));
        let cfg = ScenarioConfig::new(
            opt.seed,
            PolicyKind::SlottedStatic { interval: SimDuration::from_ms(500), tcp_weight: w },
            clients,
        )
        .with_duration(opt.duration);
        let r = run_scenario(&cfg);
        let mut energy_used = Vec::new();
        for fid in [K56, K128, K256, K512] {
            let label = fid.label();
            let s = r.saved_summary(|c| c.label == format!("video-{label}"));
            if s.n > 0 {
                energy_used.push((label, 100.0 - s.mean));
            }
        }
        let tcp = r.clients.iter().find(|c| !c.is_video).expect("one web client");
        let web = tcp.app.web.expect("web metrics");
        Fig7Row {
            tcp_weight_pct: (w * 100.0).round() as u32,
            energy_used_pct: energy_used,
            tcp_latency_ms: web.mean_latency_s * 1_000.0,
            tcp_objects: web.objects_done,
            tcp_energy_used_pct: 100.0 - tcp.saved_pct(),
        }
    })
}

/// Render Figure 7.
pub fn render_fig7(rows: &[Fig7Row]) -> String {
    let mut out = banner("Figure 7 — static TCP/UDP slots @500 ms, medium background traffic");
    let mut t = Table::new(vec![
        "TCP wt.",
        "56k used %",
        "128k used %",
        "256k used %",
        "512k used %",
        "TCP used %",
        "TCP latency (ms)",
        "objects",
    ]);
    for r in rows {
        let used = |label: &str| {
            r.energy_used_pct
                .iter()
                .find(|(l, _)| *l == label)
                .map(|(_, v)| format!("{v:.1}"))
                .unwrap_or_else(|| "-".into())
        };
        t.row(vec![
            format!("{}%", r.tcp_weight_pct),
            used("56K"),
            used("128K"),
            used("256K"),
            used("512K"),
            format!("{:.1}", r.tcp_energy_used_pct),
            format!("{:.0}", r.tcp_latency_ms),
            r.tcp_objects.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out
}

// ---------------------------------------------------------------------------
// E9 — §4.3 drop-impact validation (Netfilter / DummyNet).
// ---------------------------------------------------------------------------

/// One row of the drop-impact table.
#[derive(Debug, Clone)]
pub struct DropRow {
    /// Configuration label.
    pub config: &'static str,
    /// FTP transfer time, seconds (if completed).
    pub transfer_s: Option<f64>,
    /// Energy used by the client, millijoules.
    pub energy_mj: f64,
    /// Frames genuinely dropped at the sleeping radio.
    pub dropped_frames: u64,
}

/// Run the drop-impact validation (E9): a sleeping client that *really*
/// drops packets should see ≤ ~10 % transfer-time increase and a small
/// energy increase versus the capture-everything methodology. The DummyNet
/// row reproduces the paper's lossy-channel validation (a 4 Mb/s effective
/// medium — ours already is — with 2 ms RTT and 5 % drops on the radio
/// hop); a wired-path pipe variant is also included for reference.
pub fn tab_drop_impact(opt: &ExpOptions) -> Vec<DropRow> {
    let size = 2_000_000u64;
    let mk = |radio: RadioMode, pipe: Option<PipeSpec>, radio_loss: f64| {
        let mut cfg = ScenarioConfig::new(
            opt.seed,
            PolicyKind::DynamicFixed { interval: SimDuration::from_ms(100) },
            vec![ClientSpec::new(ClientKind::Ftp { size })],
        )
        .with_duration(opt.duration);
        cfg.radio = radio;
        cfg.pipe = pipe;
        cfg.net.airtime.loss_prob = radio_loss;
        cfg
    };
    let configs = vec![
        ("monitor (capture all)", mk(RadioMode::Monitor, None, 0.0)),
        ("live (real drops)", mk(RadioMode::Live, None, 0.0)),
        ("live + 5% radio loss (DummyNet)", mk(RadioMode::Live, None, 0.05)),
        (
            "live + wired pipe 4Mb/s 2ms 5%",
            mk(RadioMode::Live, Some(PipeSpec::PAPER_DUMMYNET), 0.0),
        ),
    ];
    parallel_sweep(configs, opt.threads, |(label, cfg)| {
        let r = run_scenario(cfg);
        let c = &r.clients[0];
        let ftp = c.app.ftp.expect("ftp metrics");
        let (energy, dropped) = match &c.live {
            Some(l) => (l.energy_mj, l.missed_frames),
            None => (c.post.energy_mj, 0),
        };
        DropRow {
            config: label,
            transfer_s: ftp.transfer_s,
            energy_mj: energy,
            dropped_frames: dropped,
        }
    })
}

/// Render the drop-impact table.
pub fn render_drop_impact(rows: &[DropRow]) -> String {
    let mut out = banner("Drop impact (§4.3) — 2 MB ftp download, 100 ms interval");
    let mut t = Table::new(vec!["config", "transfer (s)", "energy (J)", "dropped frames"]);
    let base = rows.first().and_then(|r| r.transfer_s);
    for r in rows {
        let transfer = match (r.transfer_s, base) {
            (Some(t0), Some(b)) if b > 0.0 => {
                format!("{:.2} ({:+.1}%)", t0, (t0 / b - 1.0) * 100.0)
            }
            (Some(t0), _) => format!("{t0:.2}"),
            (None, _) => "incomplete".into(),
        };
        t.row(vec![
            r.config.to_string(),
            transfer,
            format!("{:.1}", r.energy_mj / 1_000.0),
            r.dropped_frames.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out
}

// ---------------------------------------------------------------------------
// E10 — §4.3 transition penalty: 100 ms vs 500 ms.
// ---------------------------------------------------------------------------

/// One row of the transition-penalty table.
#[derive(Debug, Clone)]
pub struct PenaltyRow {
    /// Interval label.
    pub interval: &'static str,
    /// Mean per-client high-power time attributable to early transitions, s.
    pub penalty_s: f64,
    /// Mean wake transitions per client.
    pub transitions: f64,
    /// Mean savings, percent.
    pub saved_pct: f64,
}

/// Run the transition-penalty comparison (E10). The paper reports roughly a
/// 4× penalty increase (≈3 s → ≈11 s of high-power time) from 500 ms to
/// 100 ms intervals.
pub fn tab_transition_penalty(opt: &ExpOptions) -> Vec<PenaltyRow> {
    let configs = vec![("500ms", IntervalKind::Fixed500), ("100ms", IntervalKind::Fixed100)];
    parallel_sweep(configs, opt.threads, |(iname, ikind)| {
        let cfg =
            ScenarioConfig::new(opt.seed, ikind.policy(), video_clients(VideoPattern::All56, 10))
                .with_duration(opt.duration);
        let r = run_scenario(&cfg);
        let n = r.clients.len() as f64;
        let penalty: f64 = r
            .clients
            .iter()
            .map(|c| c.post.early_wait.as_secs_f64() + c.post.transitions as f64 * 0.002)
            .sum::<f64>()
            / n;
        let transitions: f64 = r.clients.iter().map(|c| c.post.transitions as f64).sum::<f64>() / n;
        PenaltyRow {
            interval: iname,
            penalty_s: penalty,
            transitions,
            saved_pct: r.saved_all().mean,
        }
    })
}

/// Render the transition-penalty table.
pub fn render_transition_penalty(rows: &[PenaltyRow]) -> String {
    let mut out = banner("Early-transition penalty: 100 ms vs 500 ms (§4.3)");
    let mut t = Table::new(vec!["interval", "penalty time (s)", "transitions", "saved %"]);
    for r in rows {
        t.row(vec![
            r.interval.to_string(),
            format!("{:.2}", r.penalty_s),
            format!("{:.0}", r.transitions),
            format!("{:.1}", r.saved_pct),
        ]);
    }
    out.push_str(&t.render());
    if rows.len() == 2 && rows[0].penalty_s > 0.0 {
        out.push_str(&format!(
            "\npenalty factor (100ms / 500ms): {:.1}x (paper: ~4x)\n",
            rows[1].penalty_s / rows[0].penalty_s
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// A1 — split connections vs pass-through (ablation D3).
// ---------------------------------------------------------------------------

/// One row of the split-connection ablation.
#[derive(Debug, Clone)]
pub struct SplitRow {
    /// Mode label.
    pub mode: &'static str,
    /// Transfer time, seconds.
    pub transfer_s: Option<f64>,
    /// Goodput, Mb/s.
    pub goodput_mbps: f64,
    /// Client energy saved, percent.
    pub saved_pct: f64,
}

/// Run the split-connection ablation (A1): pass-through buffering inflates
/// the end-to-end RTT by the burst interval, strangling the window.
pub fn abl_split_connection(opt: &ExpOptions) -> Vec<SplitRow> {
    let size = 3_000_000u64;
    let configs =
        vec![("split (paper design)", ProxyMode::Split), ("pass-through", ProxyMode::PassThrough)];
    parallel_sweep(configs, opt.threads, |(label, mode)| {
        let mut cfg = ScenarioConfig::new(
            opt.seed,
            PolicyKind::DynamicFixed { interval: SimDuration::from_ms(500) },
            vec![ClientSpec::new(ClientKind::Ftp { size })],
        )
        .with_duration(opt.duration);
        cfg.proxy_mode = *mode;
        let r = run_scenario(&cfg);
        let c = &r.clients[0];
        let ftp = c.app.ftp.expect("ftp");
        let elapsed = ftp.transfer_s.unwrap_or(opt.duration.as_secs_f64());
        SplitRow {
            mode: label,
            transfer_s: ftp.transfer_s,
            goodput_mbps: ftp.received as f64 * 8.0 / elapsed / 1e6,
            saved_pct: c.saved_pct(),
        }
    })
}

/// Render the split ablation.
pub fn render_split(rows: &[SplitRow]) -> String {
    let mut out = banner("Ablation A1 — split connections vs pass-through (3 MB ftp @500 ms)");
    let mut t = Table::new(vec!["mode", "transfer (s)", "goodput (Mb/s)", "saved %"]);
    for r in rows {
        t.row(vec![
            r.mode.to_string(),
            r.transfer_s.map(|t0| format!("{t0:.2}")).unwrap_or_else(|| "incomplete".into()),
            format!("{:.2}", r.goodput_mbps),
            format!("{:.1}", r.saved_pct),
        ]);
    }
    out.push_str(&t.render());
    out
}

// ---------------------------------------------------------------------------
// A2 — schedule-unchanged optimization (§5 future work, ablation D5).
// ---------------------------------------------------------------------------

/// One row of the unchanged-flag ablation.
#[derive(Debug, Clone)]
pub struct UnchangedRow {
    /// Mode label.
    pub mode: &'static str,
    /// Savings over clients.
    pub saved: Summary,
    /// SRP wake-ups skipped in total.
    pub skipped_wakes: u64,
    /// Loss percent.
    pub loss_pct: f64,
}

/// Run the §5 optimization ablation (A2) under a static schedule, where
/// consecutive schedules are identical and the flag fires every interval.
pub fn abl_schedule_unchanged(opt: &ExpOptions) -> Vec<UnchangedRow> {
    let configs = vec![("baseline", false), ("skip-unchanged (§5)", true)];
    parallel_sweep(configs, opt.threads, |(label, skip)| {
        let mut clients = video_clients(VideoPattern::All56, 10);
        for c in &mut clients {
            c.skip_unchanged = *skip;
        }
        let mut cfg = ScenarioConfig::new(
            opt.seed,
            PolicyKind::StaticEqual { interval: SimDuration::from_ms(100) },
            clients,
        )
        .with_duration(opt.duration);
        cfg.flag_unchanged = true;
        let r = run_scenario(&cfg);
        UnchangedRow {
            mode: label,
            saved: r.saved_all(),
            skipped_wakes: r
                .clients
                .iter()
                .map(|c| c.post.skipped_srp_wakes + c.daemon.skipped_srp_wakes)
                .sum(),
            loss_pct: r.loss_summary(|_| true).mean,
        }
    })
}

/// Render the unchanged ablation.
pub fn render_unchanged(rows: &[UnchangedRow]) -> String {
    let mut out = banner("Ablation A2 — §5 schedule-unchanged optimization (static @100 ms)");
    let mut t = Table::new(vec!["mode", "saved %", "skipped SRP wakes", "loss %"]);
    for r in rows {
        t.row(vec![
            r.mode.to_string(),
            fmt_summary(&r.saved),
            r.skipped_wakes.to_string(),
            format!("{:.2}", r.loss_pct),
        ]);
    }
    out.push_str(&t.render());
    out
}

// ---------------------------------------------------------------------------
// A3 — burst-interval sweep (ablation D1).
// ---------------------------------------------------------------------------

/// One point of the interval sweep.
#[derive(Debug, Clone)]
pub struct IntervalRow {
    /// Interval, ms.
    pub interval_ms: u64,
    /// Savings over clients.
    pub saved: Summary,
    /// Loss percent.
    pub loss_pct: f64,
}

/// Run the burst-interval sweep (A3).
pub fn abl_burst_interval(opt: &ExpOptions) -> Vec<IntervalRow> {
    let configs: Vec<u64> = vec![50, 100, 200, 300, 500, 700, 1_000];
    parallel_sweep(configs, opt.threads, |&ms| {
        let cfg = ScenarioConfig::new(
            opt.seed,
            PolicyKind::DynamicFixed { interval: SimDuration::from_ms(ms) },
            video_clients(VideoPattern::All256, 10),
        )
        .with_duration(opt.duration);
        let r = run_scenario(&cfg);
        IntervalRow {
            interval_ms: ms,
            saved: r.saved_all(),
            loss_pct: r.loss_summary(|_| true).mean,
        }
    })
}

/// Render the interval sweep.
pub fn render_interval_sweep(rows: &[IntervalRow]) -> String {
    let mut out = banner("Ablation A3 — burst-interval sweep (10 × 256K video)");
    let mut t = Table::new(vec!["interval (ms)", "saved %", "loss %"]);
    for r in rows {
        t.row(vec![r.interval_ms.to_string(), fmt_summary(&r.saved), format!("{:.2}", r.loss_pct)]);
    }
    out.push_str(&t.render());
    out
}

// ---------------------------------------------------------------------------
// A4 — adaptive vs fixed-anchor delay compensation (§3.3 ablation).
// ---------------------------------------------------------------------------

/// One row of the delay-compensation ablation.
#[derive(Debug, Clone)]
pub struct CompRow {
    /// Algorithm label.
    pub mode: &'static str,
    /// Savings over clients (live radios).
    pub saved: Summary,
    /// Frames genuinely lost to sleep, total.
    pub lost_frames: u64,
    /// Schedules missed, total.
    pub schedules_missed: u64,
}

/// Run the §3.3 ablation (A4): the adaptive algorithm re-anchors every
/// wake-up to the latest schedule arrival; the fixed-anchor baseline
/// anchors to the first schedule only, so clock drift and AP delay level
/// shifts accumulate. Live radios (real losses).
pub fn abl_delay_compensation(opt: &ExpOptions) -> Vec<CompRow> {
    use powerburst_client::CompMode;
    let configs =
        vec![("adaptive (§3.3)", CompMode::Adaptive), ("fixed anchor", CompMode::FixedAnchor)];
    parallel_sweep(configs, opt.threads, |(label, comp)| {
        let mut clients = video_clients(VideoPattern::All56, 10);
        for c in &mut clients {
            c.comp = *comp;
        }
        let mut cfg = ScenarioConfig::new(
            opt.seed,
            PolicyKind::DynamicFixed { interval: SimDuration::from_ms(100) },
            clients,
        )
        .with_duration(opt.duration);
        cfg.radio = RadioMode::Live;
        // Stress the clocks (cheap 2004-era crystals): drift accumulates
        // ~24 ms over the two-minute run, past any early-transition margin.
        cfg.net.clock_drift_ppm = 200.0;
        let r = run_scenario(&cfg);
        CompRow {
            mode: label,
            saved: r.saved_all(),
            lost_frames: r
                .clients
                .iter()
                .map(|c| c.live.map(|l| l.missed_frames).unwrap_or(0))
                .sum(),
            schedules_missed: r.clients.iter().map(|c| c.daemon.schedules_missed).sum(),
        }
    })
}

/// Render the delay-compensation ablation.
pub fn render_delay_compensation(rows: &[CompRow]) -> String {
    let mut out = banner("Ablation A4 — adaptive vs fixed-anchor delay compensation (live radios)");
    let mut t = Table::new(vec!["algorithm", "saved %", "lost frames", "missed schedules"]);
    for r in rows {
        t.row(vec![
            r.mode.to_string(),
            fmt_summary(&r.saved),
            r.lost_frames.to_string(),
            r.schedules_missed.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out
}

// ---------------------------------------------------------------------------
// A5 — proxy scheduling vs an 802.11 PSM-style baseline (§2 related work).
// ---------------------------------------------------------------------------

/// One row of the PSM comparison.
#[derive(Debug, Clone)]
pub struct PsmRow {
    /// Scheme label.
    pub scheme: &'static str,
    /// Number of clients.
    pub clients: usize,
    /// Savings over clients.
    pub saved: Summary,
    /// Loss percent.
    pub loss_pct: f64,
}

/// Run the PSM baseline comparison (A5): under PSM every client listens
/// through the shared post-beacon delivery window, so per-client savings
/// collapse as the cell fills — the §2 argument for proxy scheduling.
pub fn abl_psm_baseline(opt: &ExpOptions) -> Vec<PsmRow> {
    let mut configs = Vec::new();
    for n in [2usize, 10] {
        configs.push(("proxy schedule", n, IntervalKind::Fixed100.policy()));
        configs.push((
            "PSM beacons",
            n,
            PolicyKind::PsmBeacon { interval: SimDuration::from_ms(100) },
        ));
    }
    parallel_sweep(configs, opt.threads, |(label, n, policy)| {
        let cfg = ScenarioConfig::new(opt.seed, *policy, video_clients(VideoPattern::All256, *n))
            .with_duration(opt.duration);
        let r = run_scenario(&cfg);
        PsmRow {
            scheme: label,
            clients: *n,
            saved: r.saved_all(),
            loss_pct: r.loss_summary(|_| true).mean,
        }
    })
}

/// Render the PSM comparison.
pub fn render_psm(rows: &[PsmRow]) -> String {
    let mut out = banner("Ablation A5 — proxy schedule vs 802.11-PSM-style baseline (256K video)");
    let mut t = Table::new(vec!["scheme", "clients", "saved %", "loss %"]);
    for r in rows {
        t.row(vec![
            r.scheme.to_string(),
            r.clients.to_string(),
            fmt_summary(&r.saved),
            format!("{:.2}", r.loss_pct),
        ]);
    }
    out.push_str(&t.render());
    out
}

// ---------------------------------------------------------------------------
// A6 — §3.2.1 admission control under overload.
// ---------------------------------------------------------------------------

/// One row of the admission-control experiment.
#[derive(Debug, Clone)]
pub struct AdmissionRow {
    /// Configuration label.
    pub config: &'static str,
    /// Streams admitted (all ten, when admission is off).
    pub admitted: u64,
    /// Streams rejected.
    pub rejected: u64,
    /// Loss among clients that received any data, percent.
    pub served_loss_pct: f64,
    /// Savings among served clients.
    pub served_saved: Summary,
    /// RealServer downshifts (quality degradation indicator).
    pub downshifts: u32,
}

/// Run the §3.2.1 admission-control experiment (A6): ten 512 kbps streams
/// oversubscribe the cell. Without admission everyone degrades (loss-driven
/// downshifts); with reservation-based admission, the flows that fit keep
/// full fidelity and clean slots while the rest are refused outright.
pub fn abl_admission_control(opt: &ExpOptions) -> Vec<AdmissionRow> {
    use powerburst_core::AdmissionConfig;
    let configs = vec![
        ("no admission (paper)", None),
        ("reservation admission", Some(AdmissionConfig::default())),
    ];
    parallel_sweep(configs, opt.threads, |(label, admission)| {
        let mut cfg = ScenarioConfig::new(
            opt.seed,
            PolicyKind::DynamicFixed { interval: SimDuration::from_ms(100) },
            video_clients(VideoPattern::All512, 10),
        )
        .with_duration(opt.duration);
        cfg.admission = *admission;
        let r = run_scenario(&cfg);
        let served = |c: &crate::results::ClientResult| c.post.delivered > 100;
        let (admitted, rejected) = match r.admission {
            Some(a) => (a.admitted, a.rejected),
            None => (r.clients.len() as u64, 0),
        };
        AdmissionRow {
            config: label,
            admitted,
            rejected,
            served_loss_pct: r.loss_summary(served).mean,
            served_saved: r.saved_summary(served),
            downshifts: r.downshifts,
        }
    })
}

/// Render the admission experiment.
pub fn render_admission(rows: &[AdmissionRow]) -> String {
    let mut out = banner("Ablation A6 — §3.2.1 admission control, ten 512K streams (overload)");
    let mut t = Table::new(vec![
        "config",
        "admitted",
        "rejected",
        "served loss %",
        "served saved %",
        "downshifts",
    ]);
    for r in rows {
        t.row(vec![
            r.config.to_string(),
            r.admitted.to_string(),
            r.rejected.to_string(),
            format!("{:.2}", r.served_loss_pct),
            fmt_summary(&r.served_saved),
            r.downshifts.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out
}

// ---------------------------------------------------------------------------
// A7 — scheduling-policy A/B: fixed / variable / channel / buffer.
// ---------------------------------------------------------------------------

/// The four pluggable slot allocators compared by the A/B experiment, at
/// the paper's 100 ms cadence.
pub const POLICY_AB: [(&str, PolicyKind); 4] = [
    ("fixed", PolicyKind::DynamicFixed { interval: SimDuration::from_ms(100) }),
    (
        "variable",
        PolicyKind::DynamicVariable {
            min: SimDuration::from_ms(100),
            max: SimDuration::from_ms(500),
        },
    ),
    ("channel", PolicyKind::ChannelAware { interval: SimDuration::from_ms(100) }),
    (
        "buffer",
        PolicyKind::BufferAware {
            interval: SimDuration::from_ms(100),
            target_buffer: DEFAULT_TARGET_BUFFER,
        },
    ),
];

/// One row of the policy A/B table.
#[derive(Debug, Clone)]
pub struct PolicyAbRow {
    /// Policy name (the `--policy` flag value).
    pub policy: &'static str,
    /// Workload label.
    pub workload: &'static str,
    /// Savings over clients.
    pub saved: Summary,
    /// Loss percent over clients.
    pub loss: Summary,
    /// RealServer downshifts (quality-degradation indicator).
    pub downshifts: u32,
    /// Schedules broadcast by the proxy.
    pub schedules: u64,
}

/// Run the policy A/B (A7): every registered slot allocator over the two
/// reference workloads — Figure 4's mixed-fidelity video row and Figure
/// 5's video+web blend. `ScenarioConfig::new` attaches the Markov channel
/// model for `channel` and buffer-extended reports for `buffer`, so each
/// policy runs with exactly the information set it would have in a real
/// deployment; `fixed` is byte-identical to the paper's builder.
pub fn ab_policy_comparison(opt: &ExpOptions) -> Vec<PolicyAbRow> {
    let mut configs = Vec::new();
    for (pname, policy) in POLICY_AB {
        configs.push((
            pname,
            "10xvideo-mixed",
            ScenarioConfig::new(opt.seed, policy, video_clients(VideoPattern::Mixed, 10))
                .with_duration(opt.duration),
        ));
        let mut blend = video_clients(VideoPattern::Mixed, 7);
        for _ in 0..3 {
            blend.push(web_spec());
        }
        configs.push((
            pname,
            "7xvideo+3xweb",
            ScenarioConfig::new(opt.seed, policy, blend).with_duration(opt.duration),
        ));
    }
    parallel_sweep(configs, opt.threads, |(pname, wlabel, cfg)| {
        let r = run_scenario(cfg);
        PolicyAbRow {
            policy: pname,
            workload: wlabel,
            saved: r.saved_all(),
            loss: r.loss_summary(|_| true),
            downshifts: r.downshifts,
            schedules: r.proxy.schedules_sent,
        }
    })
}

/// Render the policy A/B table.
pub fn render_policy_ab(rows: &[PolicyAbRow]) -> String {
    let mut out = banner("A7 — scheduling-policy A/B (fixed / variable / channel / buffer)");
    for wlabel in ["10xvideo-mixed", "7xvideo+3xweb"] {
        out.push_str(&format!("\n{wlabel}\n"));
        let mut t = Table::new(vec![
            "policy",
            "energy saved % (min–max)",
            "loss %",
            "downshifts",
            "schedules",
        ]);
        for r in rows.iter().filter(|r| r.workload == wlabel) {
            t.row(vec![
                r.policy.to_string(),
                fmt_summary(&r.saved),
                format!("{:.2}", r.loss.mean),
                r.downshifts.to_string(),
                r.schedules.to_string(),
            ]);
        }
        out.push_str(&t.render());
    }
    out
}

// ---------------------------------------------------------------------------
// M1 — bandwidth-model microbenchmark.
// ---------------------------------------------------------------------------

/// Run M1: calibrate and report the fit.
pub fn tab_bandwidth_model(opt: &ExpOptions) -> Calibration {
    calibrate(&NetworkConfig::default(), opt.seed, &DEFAULT_SIZES, 20)
}

/// Render M1.
pub fn render_bandwidth_model(cal: &Calibration) -> String {
    let net = NetworkConfig::default();
    let mut out = banner("M1 — bandwidth microbenchmark and linear fit (§3.2.2)");
    out.push_str(&format!(
        "fitted:  time_us = {:.1} + {:.4} * bytes   (R² = {:.4}, {} samples)\n",
        cal.model.alpha_us, cal.model.beta_us, cal.r2, cal.samples
    ));
    out.push_str(&format!(
        "truth:   time_us = {:.1} + {:.4} * bytes   (medium model)\n\n",
        net.airtime.fixed_us, net.airtime.per_byte_us
    ));
    let mut t = Table::new(vec!["bytes", "predicted (us)", "true (us)"]);
    for b in [100usize, 500, 1_000, 1_472] {
        t.row(vec![
            b.to_string(),
            cal.model.send_time(b).as_us().to_string(),
            net.airtime.airtime(b).as_us().to_string(),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// Run *every* experiment and concatenate the renders (the EXPERIMENTS.md
/// regeneration path).
pub fn run_all(opt: &ExpOptions) -> String {
    let out = Mutex::new(String::new());
    let push = |s: String| {
        let mut g = out.lock().expect("experiment output poisoned");
        g.push_str(&s);
        g.push('\n');
    };
    push(render_fig4(&fig4_udp_video(opt)));
    push(render_tcp_only(&tab_tcp_only(opt)));
    push(render_fig5(&fig5_mixed(opt)));
    push(render_optimal(&tab_optimal(opt)));
    push(render_fig6(&fig6_early_transition(opt)));
    push(render_packet_loss(&tab_packet_loss(opt)));
    push(render_static_vs_dynamic(&tab_static_vs_dynamic(opt)));
    push(render_fig7(&fig7_slotted_static(opt)));
    push(render_drop_impact(&tab_drop_impact(opt)));
    push(render_transition_penalty(&tab_transition_penalty(opt)));
    push(render_split(&abl_split_connection(opt)));
    push(render_unchanged(&abl_schedule_unchanged(opt)));
    push(render_interval_sweep(&abl_burst_interval(opt)));
    push(render_delay_compensation(&abl_delay_compensation(opt)));
    push(render_psm(&abl_psm_baseline(opt)));
    push(render_admission(&abl_admission_control(opt)));
    push(render_policy_ab(&ab_policy_comparison(opt)));
    push(render_bandwidth_model(&tab_bandwidth_model(opt)));
    out.into_inner().expect("experiment output poisoned")
}
