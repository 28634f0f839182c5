//! Experiment configuration: network parameters, client specifications,
//! and scenario assembly inputs.

use powerburst_core::{AdmissionConfig, BandwidthModel, PolicyKind, ProxyMode};
use powerburst_net::{
    AirtimeModel, ApDelayParams, FaultPlan, LinkSpec, MarkovChannelConfig, PipeSpec,
};
use powerburst_sim::SimDuration;
use powerburst_traffic::{AdaptConfig, Fidelity, WebScriptConfig};

/// Physical-network parameters (the testbed of §4.1).
#[derive(Debug, Clone, Copy)]
pub struct NetworkConfig {
    /// Wired segment (100 Mbps Fast Ethernet in the paper).
    pub wired: LinkSpec,
    /// The switch → per-cell shard links in multi-cell worlds (the metro
    /// aggregation hops). Ignored in 1-cell worlds, which use `wired`
    /// everywhere exactly as the paper's testbed did. The backhaul's
    /// one-way delay doubles as the sharded engine's conservative
    /// lookahead (DESIGN.md §17), so don't set it below ~1 ms unless you
    /// enjoy barrier overhead.
    pub backhaul: LinkSpec,
    /// Radio airtime model (11 Mbps DSSS).
    pub airtime: AirtimeModel,
    /// AP transmit-queue bound, expressed as backlog time.
    pub medium_backlog: SimDuration,
    /// AP forwarding-delay process (drives delay compensation).
    pub ap_delay: ApDelayParams,
    /// Max client clock offset, microseconds (uniform ±).
    pub clock_offset_us: i64,
    /// Max client clock drift, ppm (uniform ±).
    pub clock_drift_ppm: f64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            wired: LinkSpec::FAST_ETHERNET,
            backhaul: LinkSpec::METRO_BACKHAUL,
            airtime: AirtimeModel::DSSS_11MBPS,
            medium_backlog: SimDuration::from_ms(150),
            ap_delay: ApDelayParams::default(),
            clock_offset_us: 5_000,
            clock_drift_ppm: 50.0,
        }
    }
}

/// What a client does during the run.
#[derive(Debug, Clone)]
pub enum ClientKind {
    /// Streams a video of the given fidelity (RealOne ↔ RealServer).
    Video {
        /// Requested stream fidelity.
        fidelity: Fidelity,
    },
    /// Browses the web with a pre-generated script.
    Web {
        /// Script-generation parameters.
        script: WebScriptConfig,
    },
    /// Downloads one large file over TCP.
    Ftp {
        /// Transfer size, bytes.
        size: u64,
    },
}

impl ClientKind {
    /// Short label for tables.
    pub fn label(&self) -> String {
        match self {
            ClientKind::Video { fidelity } => format!("video-{}", fidelity.label()),
            ClientKind::Web { .. } => "web".to_string(),
            ClientKind::Ftp { size } => format!("ftp-{}MB", size / 1_000_000),
        }
    }

    /// Is this a UDP (video) client?
    pub fn is_video(&self) -> bool {
        matches!(self, ClientKind::Video { .. })
    }
}

/// Per-client configuration.
#[derive(Debug, Clone)]
pub struct ClientSpec {
    /// Workload.
    pub kind: ClientKind,
    /// Early-transition amount (§3.3).
    pub early_transition: SimDuration,
    /// Honor the §5 `unchanged` optimization.
    pub skip_unchanged: bool,
    /// Delay-compensation algorithm (the §3.3 adaptive default, or the
    /// fixed-anchor ablation baseline).
    pub comp: powerburst_client::CompMode,
}

impl ClientSpec {
    /// A client with the paper's default 6 ms early transition.
    pub fn new(kind: ClientKind) -> ClientSpec {
        ClientSpec {
            kind,
            early_transition: SimDuration::from_ms(6),
            skip_unchanged: false,
            comp: powerburst_client::CompMode::Adaptive,
        }
    }
}

/// Observability settings for a scenario run.
///
/// Disabled by default: the recorder handed to every layer is the no-op
/// handle, so instrumented hot paths cost one branch and allocate nothing.
/// One recorder is created *per run* (inside `assemble`), never shared
/// across sweep jobs, so exports are deterministic at any thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Collect metrics (counters, gauges, histograms).
    pub metrics: bool,
    /// Also collect the structured event stream (heavier).
    pub events: bool,
    /// Event-channel capacity; later events are counted as dropped.
    pub event_cap: usize,
}

impl ObsConfig {
    /// Everything off (the default).
    pub const OFF: ObsConfig = ObsConfig { metrics: false, events: false, event_cap: 0 };

    /// Metrics only.
    pub fn metrics() -> ObsConfig {
        ObsConfig { metrics: true, events: false, event_cap: 0 }
    }

    /// Metrics plus the event stream at the default capacity.
    pub fn full() -> ObsConfig {
        ObsConfig { metrics: true, events: true, event_cap: 65_536 }
    }
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig::OFF
    }
}

/// How client radios are modeled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RadioMode {
    /// The paper's methodology: radios stay listening for the whole run
    /// (every frame is captured); energy and losses come from the
    /// postmortem replay of the trace.
    Monitor,
    /// Radios genuinely sleep: frames arriving during sleep are lost on
    /// the air (TCP must retransmit). Used by the drop-impact experiments.
    Live,
}

/// A complete experiment scenario.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Master seed (drives every random stream).
    pub seed: u64,
    /// Network parameters.
    pub net: NetworkConfig,
    /// Proxy scheduling policy.
    pub policy: PolicyKind,
    /// Proxy connection mode (split vs pass-through ablation).
    pub proxy_mode: ProxyMode,
    /// Proxy send-cost model.
    pub bw: BandwidthModel,
    /// Emit the §5 unchanged flag.
    pub flag_unchanged: bool,
    /// The clients.
    pub clients: Vec<ClientSpec>,
    /// Radio modeling.
    pub radio: RadioMode,
    /// Run duration (the paper's trailer is 1:59).
    pub duration: SimDuration,
    /// Video stream start stagger (§4.1: "requests were spaced roughly one
    /// second apart").
    pub stagger: SimDuration,
    /// RealServer adaptation behaviour.
    pub adapt: AdaptConfig,
    /// Optional DummyNet pipe between the servers and the proxy (§4.3).
    pub pipe: Option<PipeSpec>,
    /// Optional §3.2.1 admission control at the proxy.
    pub admission: Option<AdmissionConfig>,
    /// Deterministic fault injection (loss/dup/reorder/SRP drops, AP
    /// jitter spikes, clock-skew ramps). Defaults to no faults.
    pub faults: FaultPlan,
    /// Observability (metrics/events) collection. Defaults to off.
    pub obs: ObsConfig,
    /// Seeded Markov channel-state model attached to the proxy. `None`
    /// (the default) keeps the paper's fixed-rate assumption; only the
    /// channel-aware policy reads the resulting states, so the model is
    /// passive under every other policy.
    pub channel: Option<MarkovChannelConfig>,
    /// Video clients send buffer-extended (32-byte) receiver reports so
    /// the proxy can snoop playout occupancy. Off by default — legacy
    /// 24-byte reports keep golden traces byte-identical. Enabled
    /// automatically by [`ScenarioConfig::new`] when the policy is
    /// buffer-aware.
    pub buffer_reports: bool,
    /// Number of radio cells. 1 (the default) is the paper's single-AP
    /// world. With more, the builder instantiates one AP + one proxy
    /// shard per *occupied* cell on the wired topology, plus a
    /// coordinator tier exchanging per-cell aggregate demand — schedule
    /// broadcasts then stay bounded by cell size instead of O(total
    /// clients). Cells that end up with no clients are elided, so a
    /// multi-cell config whose clients all land in cell 0 builds a world
    /// structurally identical to the 1-cell one.
    pub cells: usize,
    /// Explicit client → cell assignment (`cell_map[i]` < `cells`).
    /// `None` (the default) assigns round-robin: client `i` joins cell
    /// `i % cells`.
    pub cell_map: Option<Vec<u32>>,
    /// Shared airtime pool for the coordinator, in permille of one burst
    /// interval per cell (see `powerburst_coord::CoordinatorConfig`).
    /// `None` grants every cell its full interval (non-overlapping
    /// channels). Ignored in 1-cell worlds, which have no coordinator.
    pub coord_pool_permille: Option<u32>,
    /// Worker threads for the sharded event core (`0`, the default, takes
    /// the available parallelism). Thread count never changes
    /// any simulated result — the conservative-lookahead engine is
    /// byte-identical at every thread count (see the determinism matrix
    /// test) — and 1-cell worlds, being one shard, always run on one.
    pub threads: usize,
}

impl ScenarioConfig {
    /// A scenario with paper-standard network settings.
    pub fn new(seed: u64, policy: PolicyKind, clients: Vec<ClientSpec>) -> ScenarioConfig {
        // The two policy-aware inputs default on when their policy is
        // selected, so `--policy channel|buffer` works without extra
        // flags; both stay off otherwise to keep the default information
        // set (and the golden traces) identical to the paper's.
        let channel = match policy {
            PolicyKind::ChannelAware { .. } => Some(MarkovChannelConfig::default()),
            _ => None,
        };
        let buffer_reports = matches!(policy, PolicyKind::BufferAware { .. });
        ScenarioConfig {
            seed,
            net: NetworkConfig::default(),
            policy,
            proxy_mode: ProxyMode::Split,
            bw: BandwidthModel::DEFAULT_11MBPS,
            flag_unchanged: false,
            clients,
            radio: RadioMode::Monitor,
            duration: SimDuration::from_secs(119),
            stagger: SimDuration::from_secs(1),
            adapt: AdaptConfig::default(),
            pipe: None,
            admission: None,
            faults: FaultPlan::NONE,
            obs: ObsConfig::OFF,
            channel,
            buffer_reports,
            cells: 1,
            cell_map: None,
            coord_pool_permille: None,
            threads: 0,
        }
    }

    /// Shorten the run (tests, smoke runs and benchmark workloads).
    pub fn with_duration(mut self, d: SimDuration) -> ScenarioConfig {
        self.duration = d;
        self
    }

    /// Inject faults (builder style).
    pub fn with_faults(mut self, plan: FaultPlan) -> ScenarioConfig {
        self.faults = plan;
        self
    }

    /// Enable observability collection (builder style).
    pub fn with_obs(mut self, obs: ObsConfig) -> ScenarioConfig {
        self.obs = obs;
        self
    }

    /// Attach (or detach) the Markov channel model (builder style).
    pub fn with_channel(mut self, cfg: Option<MarkovChannelConfig>) -> ScenarioConfig {
        self.channel = cfg;
        self
    }

    /// Spread the clients over `cells` radio cells, round-robin (builder
    /// style).
    pub fn with_cells(mut self, cells: usize) -> ScenarioConfig {
        assert!(cells >= 1, "a world has at least one cell");
        self.cells = cells;
        self
    }

    /// Pin every client to an explicit cell (builder style). The map must
    /// cover every client with a cell index below `cells`.
    pub fn with_cell_map(mut self, map: Vec<u32>) -> ScenarioConfig {
        self.cell_map = Some(map);
        self
    }

    /// Constrain the coordinator to a shared airtime pool (builder style).
    pub fn with_coord_pool(mut self, permille: u32) -> ScenarioConfig {
        self.coord_pool_permille = Some(permille);
        self
    }

    /// Run the sharded event core on `threads` workers (builder style);
    /// `0` auto-detects. Purely a wall-clock knob.
    pub fn with_threads(mut self, threads: usize) -> ScenarioConfig {
        self.threads = threads;
        self
    }

    /// The cell client `i` belongs to under this config.
    pub fn cell_of(&self, i: usize) -> usize {
        match &self.cell_map {
            Some(map) => map[i] as usize,
            None => i % self.cells.max(1),
        }
    }

    /// Cells that get an AP + proxy shard: those holding at least one
    /// client, or the single paper cell when there are no clients. The
    /// builder accepts at most [`MAX_OCCUPIED_CELLS`] of them.
    pub fn occupied_cells(&self) -> usize {
        let mut occupied = vec![false; self.cells.max(1)];
        for i in 0..self.clients.len() {
            occupied[self.cell_of(i)] = true;
        }
        occupied.iter().filter(|&&o| o).count().max(1)
    }
}

/// Most occupied cells one world can hold. The wired switch numbers its
/// ports with a `u8` iface id: 0 video, 1 byte, one per cell, and one for
/// the coordinator.
pub const MAX_OCCUPIED_CELLS: usize = u8::MAX as usize + 1 - 3;

/// The paper's five Figure-4 access patterns for ten video clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VideoPattern {
    /// All ten clients at 56 kbps.
    All56,
    /// All ten at 256 kbps.
    All256,
    /// All ten at 512 kbps.
    All512,
    /// Five at 56 kbps, five at 512 kbps.
    Half56Half512,
    /// Five at 56 kbps plus one-ish of each fidelity ("All").
    Mixed,
}

impl VideoPattern {
    /// The fidelities assigned to `n` clients under this pattern.
    pub fn fidelities(self, n: usize) -> Vec<Fidelity> {
        use Fidelity::*;
        let base: Vec<Fidelity> = match self {
            VideoPattern::All56 => vec![K56],
            VideoPattern::All256 => vec![K256],
            VideoPattern::All512 => vec![K512],
            VideoPattern::Half56Half512 => vec![K56, K512],
            VideoPattern::Mixed => vec![K56, K56, K56, K56, K56, K56, K128, K256, K512, K128],
        };
        (0..n)
            .map(|i| match self {
                VideoPattern::Half56Half512 => {
                    if i < n / 2 {
                        K56
                    } else {
                        K512
                    }
                }
                _ => base[i % base.len()],
            })
            .collect()
    }

    /// Paper bar label.
    pub fn label(self) -> &'static str {
        match self {
            VideoPattern::All56 => "56K",
            VideoPattern::All256 => "256K",
            VideoPattern::All512 => "512K",
            VideoPattern::Half56Half512 => "56K_512K",
            VideoPattern::Mixed => "All",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn patterns_cover_ten_clients() {
        for p in [
            VideoPattern::All56,
            VideoPattern::All256,
            VideoPattern::All512,
            VideoPattern::Half56Half512,
            VideoPattern::Mixed,
        ] {
            let f = p.fidelities(10);
            assert_eq!(f.len(), 10, "{p:?}");
        }
    }

    #[test]
    fn half_split_is_half() {
        let f = VideoPattern::Half56Half512.fidelities(10);
        assert_eq!(f.iter().filter(|x| **x == Fidelity::K56).count(), 5);
        assert_eq!(f.iter().filter(|x| **x == Fidelity::K512).count(), 5);
    }

    #[test]
    fn uniform_patterns_are_uniform() {
        assert!(VideoPattern::All512.fidelities(10).iter().all(|f| *f == Fidelity::K512));
    }

    #[test]
    fn labels_match_paper_bars() {
        assert_eq!(VideoPattern::All56.label(), "56K");
        assert_eq!(VideoPattern::Half56Half512.label(), "56K_512K");
        assert_eq!(VideoPattern::Mixed.label(), "All");
    }

    #[test]
    fn client_kind_labels() {
        assert_eq!(ClientKind::Video { fidelity: Fidelity::K256 }.label(), "video-256K");
        assert_eq!(ClientKind::Ftp { size: 2_000_000 }.label(), "ftp-2MB");
        assert!(ClientKind::Video { fidelity: Fidelity::K56 }.is_video());
        assert!(!ClientKind::Ftp { size: 1 }.is_video());
    }
}
