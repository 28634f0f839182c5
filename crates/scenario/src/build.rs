//! Topology assembly and scenario execution.
//!
//! Builds the paper's Figure-1 architecture: servers on Fast Ethernet, the
//! transparent proxy bridging toward the access point, clients (and the
//! implicit monitoring station — the engine sniffer) on the shared radio
//! medium; runs the workload; and collects per-client results through the
//! postmortem analyzer.

use powerburst_client::{ClientConfig, PowerClient};
use powerburst_coord::{Coordinator, CoordinatorConfig, COORD_IFACE};
use powerburst_core::invariants::{check_energy_conservation, InvariantKind, Violation};
use powerburst_core::{AdmissionStats, Proxy, ProxyConfig, ProxyStats, PROXY_AP, PROXY_LAN};
use powerburst_energy::{naive_energy_mj, CardSpec};
use powerburst_net::faults::{clock_skew_ramp, fault_stream, fault_streams, ApJitterFault};
use powerburst_net::{
    ports, AccessPoint, ChannelModel, Endpoint, HostAddr, IfaceId, NodeConfig, NodeId, Pipe,
    SockAddr, StaticRouter, Switch, World, AP_WIRED,
};
use powerburst_obs::{Counter, Recorder, RecorderConfig};
use powerburst_sim::rng::streams;
use powerburst_sim::{derive_rng, ClockModel, SimDuration, SimTime};
use powerburst_trace::{analyze_client, utilization, PolicyParams};
use powerburst_traffic::{
    generate_script, App, ByteServer, FtpClientApp, StreamSpec, VideoClientApp, VideoServer,
    WebClientApp,
};
use powerburst_transport::TcpConfig;

use crate::config::{ClientKind, RadioMode, ScenarioConfig, MAX_OCCUPIED_CELLS};
use crate::results::{
    AppMetrics, ClientResult, FtpSummary, LiveSummary, ScenarioResult, WebSummary,
};

/// Well-known host numbering in assembled scenarios.
pub mod hosts {
    use powerburst_net::HostAddr;
    /// The streaming (Real) server.
    pub const VIDEO_SERVER: HostAddr = HostAddr(1);
    /// The web/ftp byte server.
    pub const BYTE_SERVER: HostAddr = HostAddr(2);
    /// The proxy itself (source of schedule broadcasts); in multi-cell
    /// worlds, the shard serving the first occupied cell.
    pub const PROXY: HostAddr = HostAddr(3);
    /// The coordinator tier (instantiated in multi-cell worlds only).
    pub const COORDINATOR: HostAddr = HostAddr(4);
    /// Client `i` lives at `CLIENT_BASE + i`.
    pub const CLIENT_BASE: u32 = 100;

    /// Host address of client `i`.
    pub fn client(i: usize) -> HostAddr {
        HostAddr(CLIENT_BASE + i as u32)
    }

    /// Host address of proxy shard `r` in a world of `n_clients` clients.
    /// Shard 0 keeps the legacy [`PROXY`] address; later shards sit just
    /// above the client range so the dense host table stays compact.
    pub fn proxy_shard(r: usize, n_clients: usize) -> HostAddr {
        if r == 0 {
            PROXY
        } else {
            HostAddr(CLIENT_BASE + n_clients as u32 + r as u32)
        }
    }
}

/// One proxy shard + access point serving one radio cell.
pub struct Shard {
    /// The shard proxy's node id.
    pub proxy: NodeId,
    /// The cell's access point node id.
    pub ap: NodeId,
    /// The shard proxy's host address.
    pub host: HostAddr,
    /// The *configured* cell index this shard serves (empty cells are
    /// elided, so this can exceed the shard's position in `shards`).
    pub cell: u32,
    /// Indices (into `ScenarioConfig::clients`) of this cell's clients.
    pub clients: Vec<usize>,
}

/// Handles to the assembled world, for harnesses that need mid-run access.
pub struct Assembled {
    /// The world, ready to run.
    pub world: World,
    /// The proxy's node id (shard 0 in multi-cell worlds).
    pub proxy: NodeId,
    /// The access point's node id (cell 0's AP in multi-cell worlds).
    pub ap: NodeId,
    /// Client node ids, in spec order.
    pub clients: Vec<NodeId>,
    /// The video server's node id.
    pub video_server: NodeId,
    /// The byte server's node id.
    pub byte_server: NodeId,
    /// All proxy shards, one per occupied cell (length 1 in the paper's
    /// single-AP world; `shards[0]` is always `proxy`/`ap`).
    pub shards: Vec<Shard>,
    /// The coordinator's node id, in multi-cell worlds.
    pub coordinator: Option<NodeId>,
    /// The run's observability recorder (disabled unless the scenario
    /// enables collection). Every instrumented layer holds a clone.
    pub obs: Recorder,
}

/// Build the world for a scenario without running it.
pub fn assemble(cfg: &ScenarioConfig) -> Assembled {
    let mut world = World::new(cfg.seed);
    let n = cfg.clients.len();

    // --- cell partition ------------------------------------------------------
    // Clients map onto cells (round-robin unless an explicit map is given);
    // only occupied cells get an AP + proxy shard, so `cells: 16` with all
    // clients in cell 0 assembles the identical 1-cell world.
    if let Some(map) = &cfg.cell_map {
        assert_eq!(map.len(), n, "cell_map must name a cell for every client");
        assert!(
            map.iter().all(|&c| (c as usize) < cfg.cells),
            "cell_map entry out of range (cells = {})",
            cfg.cells
        );
    }
    let mut cell_clients: Vec<Vec<usize>> = vec![Vec::new(); cfg.cells.max(1)];
    for i in 0..n {
        cell_clients[cfg.cell_of(i)].push(i);
    }
    let mut realized: Vec<usize> =
        (0..cell_clients.len()).filter(|&c| !cell_clients[c].is_empty()).collect();
    if realized.is_empty() {
        realized.push(0); // zero clients still gets the paper's single-AP world
    }
    let multi = realized.len() > 1;
    let mut rank_of_cell = vec![usize::MAX; cell_clients.len()];
    for (r, &c) in realized.iter().enumerate() {
        rank_of_cell[c] = r;
    }
    // Switch ifaces: 0 video, 1 byte, 2+r per shard, one more for the
    // coordinator.
    let occupied = cfg.occupied_cells();
    debug_assert_eq!(occupied, realized.len());
    assert!(
        occupied <= MAX_OCCUPIED_CELLS,
        "{occupied} occupied cells exceed the switch's limit of {MAX_OCCUPIED_CELLS}"
    );

    // One recorder per run: sweep jobs never share observability state, so
    // exports are deterministic regardless of how runs are parallelized.
    // Multi-cell worlds get one recording lane per world shard (backbone
    // lane 0 + one per cell) so shards never contend on the event channel
    // and exports stay deterministic at any thread count; the 1-cell world
    // keeps the single-lane recorder, byte-identical to before.
    let obs = if cfg.obs.metrics {
        Recorder::new(RecorderConfig {
            events: cfg.obs.events,
            event_cap: cfg.obs.event_cap,
            lanes: if multi { realized.len() + 1 } else { 1 },
        })
    } else {
        Recorder::disabled()
    };
    // Lane for components living on cell-rank `r`'s shard (see
    // `World::finalize`: cell r is world shard r + 1).
    let lane_of = |r: usize| if multi { obs.lane(r + 1) } else { obs.clone() };

    // --- traffic provisioning ------------------------------------------------
    // §4.1: requests are spaced "roughly one second apart in order to
    // spread traffic". The jitter matters: exact multiples of the frame
    // interval would re-synchronize every stream's frame emissions.
    let mut stagger_rng = derive_rng(cfg.seed, streams::TRAFFIC_BASE + 999);
    let mut streams_v = Vec::new();
    for (i, spec) in cfg.clients.iter().enumerate() {
        if let ClientKind::Video { fidelity } = spec.kind {
            use rand::Rng;
            let jitter = powerburst_sim::SimDuration::from_us(stagger_rng.random_range(0..250_000));
            streams_v.push(StreamSpec {
                client: SockAddr::new(hosts::client(i), ports::MEDIA),
                fidelity,
                start: SimTime::ZERO + cfg.stagger * (i as u64 + 1) + jitter,
                duration: cfg.duration,
                flow: i as u64,
            });
        }
    }
    let streams = streams_v;
    let mut traffic_rng = derive_rng(cfg.seed, streams::TRAFFIC_BASE);
    let video_server = world.add_node(
        Box::new(VideoServer::new(
            SockAddr::new(hosts::VIDEO_SERVER, ports::MEDIA),
            streams,
            cfg.adapt,
            &mut traffic_rng,
        )),
        NodeConfig::wired(hosts::VIDEO_SERVER),
    );
    let byte_server = world.add_node(
        Box::new(ByteServer::new(
            SockAddr::new(hosts::BYTE_SERVER, ports::HTTP),
            TcpConfig::default(),
        )),
        NodeConfig::wired(hosts::BYTE_SERVER),
    );

    // --- switch ---------------------------------------------------------------
    let mut router = StaticRouter::new();
    router.add_route(hosts::VIDEO_SERVER, IfaceId(0));
    router.add_route(hosts::BYTE_SERVER, IfaceId(1));
    router.set_default(IfaceId(2)); // shard 0 / unknown → proxy side
    if multi {
        // Each client's downstream traffic goes down its own cell's link;
        // later shard hosts and the coordinator get dedicated ifaces.
        // Shard 0 keeps riding the default route, exactly as before.
        for (r, &c) in realized.iter().enumerate() {
            let iface = IfaceId((2 + r) as u8);
            for &i in &cell_clients[c] {
                router.add_route(hosts::client(i), iface);
            }
            if r > 0 {
                router.add_route(hosts::proxy_shard(r, n), iface);
            }
        }
        router.add_route(hosts::COORDINATOR, IfaceId((2 + realized.len()) as u8));
    }
    let switch = world.add_node(Box::new(Switch::new(router)), NodeConfig::infrastructure());

    // --- server uplinks ---------------------------------------------------------
    world.add_link(
        Endpoint { node: video_server, iface: IfaceId(0) },
        Endpoint { node: switch, iface: IfaceId(0) },
        cfg.net.wired,
    );
    world.add_link(
        Endpoint { node: byte_server, iface: IfaceId(0) },
        Endpoint { node: switch, iface: IfaceId(1) },
        cfg.net.wired,
    );

    // --- proxy shards + access points, one pair per occupied cell --------------
    // Creation order preserves the legacy 1-cell node-id layout exactly:
    // proxy(3), ap(4), pipe(5, when configured), then clients.
    let coord_addr = SockAddr::new(hosts::COORDINATOR, ports::COORD);
    let mut shards = Vec::with_capacity(realized.len());
    for (r, &c) in realized.iter().enumerate() {
        let shard_clients = cell_clients[c].clone();
        let shard_host = hosts::proxy_shard(r, n);
        let shard_client_hosts: Vec<HostAddr> =
            shard_clients.iter().map(|&i| hosts::client(i)).collect();
        let mut pcfg = ProxyConfig::new(
            SockAddr::new(shard_host, ports::SCHEDULE),
            shard_client_hosts,
            cfg.policy,
        );
        pcfg.bw = cfg.bw;
        pcfg.mode = cfg.proxy_mode;
        pcfg.flag_unchanged = cfg.flag_unchanged;
        pcfg.admission = cfg.admission;
        pcfg.cell = r as u32;
        if multi {
            pcfg.coord = Some(coord_addr);
        }
        let mut proxy_node = Proxy::new(pcfg);
        if let Some(chan_cfg) = cfg.channel {
            // The model draws from its own derived stream (one per shard),
            // so attaching it never perturbs any other stochastic
            // component of the run.
            proxy_node.set_channel_model(ChannelModel::new(
                chan_cfg,
                shard_clients.len(),
                derive_rng(cfg.seed, streams::CHANNEL + r as u64),
            ));
        }
        proxy_node.set_recorder(lane_of(r));
        let proxy = world.add_node(
            Box::new(proxy_node),
            NodeConfig { host: Some(shard_host), clock: ClockModel::perfect(), wnic: None },
        );

        let mut ap_node = AccessPoint::new(cfg.net.ap_delay);
        if cfg.faults.affects_ap() {
            ap_node = ap_node.with_fault_jitter(ApJitterFault::new(
                cfg.faults.ap_jitter_prob,
                cfg.faults.ap_jitter_max,
                // Cell 0 keeps the legacy AP fault stream; further cells
                // fan out far above every other fault-stream index.
                derive_rng(cfg.seed, fault_stream(fault_streams::AP) + 256 * r as u64),
            ));
        }
        ap_node.set_recorder(lane_of(r));
        let ap = world.add_node(Box::new(ap_node), NodeConfig::infrastructure());

        // In multi-cell worlds the switch → shard hop is the metro
        // backhaul, and the whole cell-side chain (pipe, proxy, AP, the
        // radio cell) is pinned onto the cell's shard — the backhaul's
        // delay is then the only cross-shard latency and becomes the
        // engine's conservative lookahead. 1-cell worlds keep the paper's
        // all-Fast-Ethernet LAN on the single sequential shard.
        let uplink_spec = if multi { cfg.net.backhaul } else { cfg.net.wired };
        let uplink = Endpoint { node: switch, iface: IfaceId((2 + r) as u8) };
        let pipe = cfg
            .pipe
            .map(|pspec| world.add_node(Box::new(Pipe::new(pspec)), NodeConfig::infrastructure()));
        match pipe {
            Some(pipe) => {
                world.add_link(uplink, Endpoint { node: pipe, iface: IfaceId(0) }, uplink_spec);
                world.add_link(
                    Endpoint { node: pipe, iface: IfaceId(1) },
                    Endpoint { node: proxy, iface: PROXY_LAN },
                    cfg.net.wired,
                );
            }
            None => {
                world.add_link(uplink, Endpoint { node: proxy, iface: PROXY_LAN }, uplink_spec);
            }
        }
        world.add_link(
            Endpoint { node: proxy, iface: PROXY_AP },
            Endpoint { node: ap, iface: AP_WIRED },
            cfg.net.wired,
        );
        let cell_idx = world.add_cell(cfg.net.airtime, cfg.net.medium_backlog, ap);
        debug_assert_eq!(cell_idx, r);
        world.attach_wireless_cell(ap, powerburst_net::AP_RADIO, r);
        if multi {
            world.pin_to_cell(proxy, r);
            if let Some(pipe) = pipe {
                world.pin_to_cell(pipe, r);
            }
        }

        shards.push(Shard { proxy, ap, host: shard_host, cell: c as u32, clients: shard_clients });
    }
    world.set_faults(cfg.faults);

    // --- clients --------------------------------------------------------------------------
    let mut clock_rng = derive_rng(cfg.seed, streams::CLOCK);
    let mut skew_rng = derive_rng(cfg.seed, fault_stream(fault_streams::CLOCK));
    let mut client_ids = Vec::with_capacity(n);
    for (i, spec) in cfg.clients.iter().enumerate() {
        let host = hosts::client(i);
        let app: Box<dyn App> = match &spec.kind {
            ClientKind::Video { fidelity } => {
                let mut app = VideoClientApp::new(
                    SockAddr::new(host, ports::MEDIA),
                    SockAddr::new(hosts::VIDEO_SERVER, ports::MEDIA),
                    i as u64,
                );
                if cfg.buffer_reports {
                    // Playout drains at the nominal stream rate; the report
                    // format widens to 32 bytes only on this opt-in path.
                    app = app.with_buffer_reports(fidelity.effective_bps() as u64);
                }
                Box::new(app)
            }
            ClientKind::Web { script } => {
                let mut rng = derive_rng(cfg.seed, streams::TRAFFIC_BASE + 100 + i as u64);
                let pages = generate_script(script, &mut rng);
                Box::new(WebClientApp::new(
                    host,
                    SockAddr::new(hosts::BYTE_SERVER, ports::HTTP),
                    TcpConfig::default(),
                    pages,
                ))
            }
            ClientKind::Ftp { size } => Box::new(FtpClientApp::new(
                SockAddr::new(host, 9_000),
                SockAddr::new(hosts::BYTE_SERVER, ports::HTTP),
                TcpConfig::default(),
                *size,
            )),
        };
        let mut ccfg = ClientConfig::new(host);
        ccfg.early_transition = spec.early_transition;
        ccfg.skip_unchanged = spec.skip_unchanged;
        ccfg.comp = spec.comp;
        let mut clock =
            ClockModel::sample(&mut clock_rng, cfg.net.clock_offset_us, cfg.net.clock_drift_ppm);
        // Fault plan: pile an extra frequency error on top, so the
        // client↔proxy skew ramps linearly over the run.
        clock.drift_ppm += clock_skew_ramp(&cfg.faults, &mut skew_rng);
        let mut daemon = PowerClient::new(ccfg, app);
        daemon.set_recorder(lane_of(rank_of_cell[cfg.cell_of(i)]));
        let node = world.add_node(
            Box::new(daemon),
            NodeConfig {
                host: Some(host),
                clock,
                wnic: match cfg.radio {
                    RadioMode::Monitor => None,
                    RadioMode::Live => Some(CardSpec::WAVELAN_DSSS),
                },
            },
        );
        world.attach_wireless_cell(node, IfaceId(0), rank_of_cell[cfg.cell_of(i)]);
        client_ids.push(node);
    }

    // --- coordinator (multi-cell only) ----------------------------------------
    let coordinator = if multi {
        let coord = world.add_node(
            Box::new(Coordinator::new(CoordinatorConfig {
                addr: coord_addr,
                pool_permille: cfg.coord_pool_permille,
            })),
            NodeConfig::wired(hosts::COORDINATOR),
        );
        world.add_link(
            Endpoint { node: switch, iface: IfaceId((2 + shards.len()) as u8) },
            Endpoint { node: coord, iface: COORD_IFACE },
            cfg.net.wired,
        );
        Some(coord)
    } else {
        None
    };

    // Last: the world forwards the recorder to every live radio added
    // above (lane-aware — each radio records on its cell's lane).
    world.set_recorder(obs.clone());
    world.set_threads(cfg.threads);
    world.presize_from_topology();

    Assembled {
        world,
        proxy: shards[0].proxy,
        ap: shards[0].ap,
        clients: client_ids,
        video_server,
        byte_server,
        shards,
        coordinator,
        obs,
    }
}

/// Run a scenario to completion and collect results.
pub fn run_scenario(cfg: &ScenarioConfig) -> ScenarioResult {
    let mut a = assemble(cfg);
    a.world.run_until(SimTime::ZERO + cfg.duration);

    let trace = a.world.take_trace();
    let card = CardSpec::WAVELAN_DSSS;
    let end = SimTime::ZERO + cfg.duration;

    let mut clients = Vec::with_capacity(cfg.clients.len());
    let mut downshifts = 0u32;
    let mut dwell_violations: Vec<Violation> = Vec::new();
    for (i, spec) in cfg.clients.iter().enumerate() {
        let host = hosts::client(i);
        let node = a.clients[i];
        let policy = PolicyParams {
            early_transition: spec.early_transition,
            skip_unchanged: spec.skip_unchanged,
            ..PolicyParams::default()
        };
        let post = analyze_client(&trace, host, end, &policy);

        let live = match cfg.radio {
            RadioMode::Monitor => None,
            RadioMode::Live => {
                let stats = *a.world.stats(node);
                let rep = a.world.wnic_report(node).expect("live radio");
                let naive = naive_energy_mj(
                    &card,
                    cfg.duration,
                    stats.rx_airtime + stats.missed_airtime,
                    stats.tx_airtime,
                );
                Some(LiveSummary {
                    energy_mj: rep.total_mj,
                    naive_mj: naive,
                    saved: rep.saved_vs(naive),
                    missed_frames: stats.missed_frames,
                    rx_frames: stats.rx_frames,
                })
            }
        };

        // Energy conservation: the WNIC dwell times (live card in Live
        // runs, postmortem replay otherwise) must tile the run exactly.
        let dwell = match cfg.radio {
            RadioMode::Live => a.world.wnic_report(node).expect("live radio").duration(),
            RadioMode::Monitor => post.sleep + post.awake,
        };
        if let Some(v) =
            check_energy_conservation(host, dwell, cfg.duration, SimDuration::from_ms(2))
        {
            dwell_violations.push(v);
        }

        let (daemon, app) = {
            let pc = a.world.node_mut::<PowerClient>(node);
            let daemon = pc.stats;
            let app = match &spec.kind {
                ClientKind::Video { .. } => AppMetrics {
                    video: Some(pc.app_mut::<VideoClientApp>().stats()),
                    ..AppMetrics::default()
                },
                ClientKind::Web { .. } => {
                    let b = pc.app_mut::<WebClientApp>().stats();
                    let max = b.object_latencies_s.iter().copied().fold(0.0f64, f64::max);
                    AppMetrics {
                        web: Some(WebSummary {
                            objects_done: b.objects_done,
                            pages_done: b.pages_done,
                            bytes: b.bytes_received,
                            mean_latency_s: b.mean_latency_s(),
                            max_latency_s: max,
                        }),
                        ..AppMetrics::default()
                    }
                }
                ClientKind::Ftp { .. } => {
                    let f = pc.app_mut::<FtpClientApp>();
                    AppMetrics {
                        ftp: Some(FtpSummary {
                            done: f.done(),
                            transfer_s: f.transfer_time().map(|d| d.as_secs_f64()),
                            received: f.received,
                        }),
                        ..AppMetrics::default()
                    }
                }
            };
            (daemon, app)
        };

        clients.push(ClientResult {
            host,
            label: spec.kind.label(),
            is_video: spec.kind.is_video(),
            post,
            live,
            daemon,
            app,
        });
    }

    {
        let n_streams = cfg.clients.iter().filter(|c| c.kind.is_video()).count();
        let vs = a.world.node_mut::<VideoServer>(a.video_server);
        for s in 0..n_streams {
            downshifts += vs.downshifts(s);
        }
    }

    // Fold per-shard counters into one run-level picture. A 1-cell run has
    // exactly one shard, so this reduces to the legacy single-proxy reads.
    let mut proxy_stats = ProxyStats::default();
    let mut admission: Option<AdmissionStats> = None;
    let mut invariants = powerburst_core::invariants::InvariantLog::default();
    for s in &a.shards {
        let p = a.world.node_mut::<Proxy>(s.proxy);
        proxy_stats.merge(&p.stats);
        if let Some(shard_adm) = p.admission_stats() {
            let total = admission.get_or_insert(AdmissionStats::default());
            total.admitted += shard_adm.admitted;
            total.rejected += shard_adm.rejected;
            total.packets_refused += shard_adm.packets_refused;
        }
        let log = p.take_invariants();
        invariants.merge(log);
    }
    for v in dwell_violations {
        invariants.record(v);
    }
    let faults = {
        let mut f = a.world.fault_stats();
        let mut spikes = 0u64;
        let mut fifo = 0u64;
        for s in &a.shards {
            let ap = a.world.node_mut::<AccessPoint>(s.ap);
            spikes += ap.fault_spikes();
            fifo += ap.fifo_violations;
        }
        f.ap_spikes = spikes;
        // record_counted is a no-op at zero, so summing across APs and
        // recording once keeps the 1-cell invariant log byte-identical.
        invariants.record_counted(
            fifo,
            Violation {
                kind: InvariantKind::ApOrdering,
                t: SimTime::ZERO + cfg.duration,
                client: None,
                detail: format!("{fifo} out-of-order AP departures"),
            },
        );
        f
    };
    // Mirror the invariant total into the metric catalog so a metrics
    // export alone is enough for CI to fail on violations.
    a.obs.add(Counter::InvariantViolations, invariants.total());
    ScenarioResult {
        clients,
        proxy: proxy_stats,
        medium_drops: a.world.medium_drops(),
        utilization: utilization(&trace, cfg.duration),
        trace_frames: trace.len(),
        duration: cfg.duration,
        downshifts,
        admission,
        faults,
        invariants,
        sim_events: a.world.events_processed(),
        obs: a.obs.export(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ClientKind, ClientSpec, ScenarioConfig};
    use powerburst_core::PolicyKind;
    use powerburst_sim::SimDuration;
    use powerburst_traffic::Fidelity;

    fn video_cfg(n: usize, secs: u64) -> ScenarioConfig {
        let clients = (0..n)
            .map(|_| ClientSpec::new(ClientKind::Video { fidelity: Fidelity::K56 }))
            .collect();
        ScenarioConfig::new(
            42,
            PolicyKind::DynamicFixed { interval: SimDuration::from_ms(100) },
            clients,
        )
        .with_duration(SimDuration::from_secs(secs))
    }

    #[test]
    fn single_video_client_end_to_end() {
        let r = run_scenario(&video_cfg(1, 20));
        let c = &r.clients[0];
        assert!(r.trace_frames > 100, "traffic flowed: {} frames", r.trace_frames);
        assert!(c.post.delivered > 50, "delivered {}", c.post.delivered);
        assert!(c.post.schedules_seen > 50, "schedules {}", c.post.schedules_seen);
        assert!(
            c.saved_pct() > 40.0,
            "low-rate stream must save energy, got {:.1}% (post: {:?})",
            c.saved_pct(),
            c.post
        );
        assert!(c.loss_pct() < 5.0, "loss {}", c.loss_pct());
        assert!(r.proxy.schedules_sent > 50);
        assert!(r.proxy.udp_packets_sent > 50);
    }

    proptest::proptest! {
        /// Any explicit cell map partitions the clients: every client's
        /// radio lands in exactly the cell its map entry names, shards
        /// cover the client index space exactly once, and each realized
        /// cell holds its AP plus precisely its own clients.
        #[test]
        fn arbitrary_cell_maps_partition_clients(
            map in proptest::collection::vec(0u32..6, 1..32),
        ) {
            let n = map.len();
            let clients = (0..n)
                .map(|_| ClientSpec::new(ClientKind::Video { fidelity: Fidelity::K56 }))
                .collect();
            let cfg = ScenarioConfig::new(
                11,
                PolicyKind::DynamicFixed { interval: SimDuration::from_ms(100) },
                clients,
            )
            .with_cells(6)
            .with_cell_map(map.clone());
            let a = assemble(&cfg);

            let mut seen = vec![0u32; n];
            for s in &a.shards {
                for &i in &s.clients {
                    proptest::prop_assert_eq!(map[i], s.cell, "client {} in wrong shard", i);
                    seen[i] += 1;
                }
            }
            proptest::prop_assert!(seen.iter().all(|&c| c == 1), "partition: {:?}", seen);
            for (r, s) in a.shards.iter().enumerate() {
                proptest::prop_assert_eq!(
                    a.world.cell_members(r).len(),
                    s.clients.len() + 1,
                    "cell {} must hold its AP + its clients only", r
                );
                for &i in &s.clients {
                    proptest::prop_assert_eq!(a.world.cell_of(a.clients[i]), Some(r as u32));
                }
            }
            let occupied: std::collections::BTreeSet<u32> = map.iter().copied().collect();
            proptest::prop_assert_eq!(a.shards.len(), occupied.len(), "one shard per occupied cell");
            proptest::prop_assert_eq!(a.coordinator.is_some(), occupied.len() > 1);
        }
    }

    #[test]
    fn three_mixed_clients_end_to_end() {
        let mut cfg = video_cfg(2, 20);
        cfg.clients.push(ClientSpec::new(ClientKind::Ftp { size: 300_000 }));
        let r = run_scenario(&cfg);
        assert_eq!(r.clients.len(), 3);
        let ftp = r.clients[2].app.ftp.expect("ftp metrics");
        assert!(ftp.done, "ftp finished: {ftp:?}");
        for c in &r.clients {
            assert!(c.saved_pct() > 20.0, "{}: {:.1}%", c.label, c.saved_pct());
        }
        assert!(r.proxy.splices_created >= 1);
        assert!(r.proxy.tcp_bytes_fed >= 300_000);
    }
}
