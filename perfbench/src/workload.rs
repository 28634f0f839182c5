//! The benchmark's named workloads and their identity digests.
//!
//! A workload is a fixed list of worlds built from the seed. Its
//! *definition digest* covers everything except the seed — world count,
//! clients, simulated length, policies, fault plan and threads — and is
//! pinned below: a named workload whose definition changes is an error, so
//! a smaller workload can never pass as a speed-up under an old name.

use powerburst_net::FaultPlan;
use powerburst_scenario::experiments::{city_cfg, INTERVALS};
use powerburst_scenario::{ClientKind, ClientSpec, ScenarioConfig, VideoPattern};
use powerburst_sim::SimDuration;
use powerburst_traffic::WebScriptConfig;

/// Worker threads for every workload: the sweep width for the
/// single-cell workloads and the sharded core's width for `city-10k`.
pub const THREADS: usize = 2;

/// The paper's trailer length, simulated seconds.
const PAPER_SECS: u64 = 119;

/// `city-10k` length, simulated seconds: long enough that every client
/// has started (0.5 s stagger) and four steady slices follow.
const CITY_SECS: u64 = 5;

/// The golden fault plan of the `faulted` bench scenario: loss 5 %,
/// dup 1 %, reorder 2 %/5 ms, SRP drop 2 %, AP jitter 20 %/10 ms,
/// skew 40 ppm.
pub const GOLDEN_FAULTS: FaultPlan = FaultPlan {
    loss_prob: 0.05,
    dup_prob: 0.01,
    reorder_prob: 0.02,
    reorder_max: SimDuration::from_ms(5),
    sched_drop_prob: 0.02,
    ap_jitter_prob: 0.2,
    ap_jitter_max: SimDuration::from_ms(10),
    clock_skew_ppm: 40.0,
};

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figure 4: 5 video patterns × 3 burst intervals, 10 UDP clients.
    Fig4,
    /// The proxy's TCP side under the golden fault plan.
    TcpFaulted,
    /// 10 000 clients over 157 cells on the sharded core.
    City10k,
}

/// One world of a workload.
#[derive(Debug, Clone)]
pub struct WorldDef {
    /// Stable label, e.g. `100ms/56K`.
    pub label: String,
    /// The scenario `run_scenario` is called with.
    pub cfg: ScenarioConfig,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Fig4, Workload::TcpFaulted, Workload::City10k];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig4 => "fig4",
            Workload::TcpFaulted => "tcp-faulted",
            Workload::City10k => "city-10k",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The pinned definition digest (see [`definition_digest`]). Change it
    /// only together with the workload's definition, and say so: results
    /// from before and after are not comparable.
    pub fn pinned_digest(self) -> &'static str {
        match self {
            Workload::Fig4 => "7b7125dbd9b0a99e",
            Workload::TcpFaulted => "f033ceca792995cf",
            Workload::City10k => "6f4f653f02641c29",
        }
    }

    /// Build the workload's worlds from `seed`.
    pub fn worlds(self, seed: u64) -> Vec<WorldDef> {
        let paper = SimDuration::from_secs(PAPER_SECS);
        let mut out = Vec::new();
        match self {
            Workload::Fig4 => {
                let patterns = [
                    VideoPattern::All56,
                    VideoPattern::All256,
                    VideoPattern::All512,
                    VideoPattern::Half56Half512,
                    VideoPattern::Mixed,
                ];
                for (iname, ikind) in INTERVALS {
                    for p in patterns {
                        let cfg = ScenarioConfig::new(seed, ikind.policy(), video(p, 10))
                            .with_duration(paper);
                        out.push(WorldDef { label: format!("{iname}/{}", p.label()), cfg });
                    }
                }
            }
            Workload::TcpFaulted => {
                for (iname, ikind) in INTERVALS {
                    let mixes: [(&str, Vec<ClientSpec>); 3] = [
                        ("web10", (0..10).map(|_| web()).collect()),
                        (
                            "video7+web3",
                            video(VideoPattern::Mixed, 7)
                                .into_iter()
                                .chain((0..3).map(|_| web()))
                                .collect(),
                        ),
                        (
                            "web30+ftp50MB",
                            (0..30)
                                .map(|_| web())
                                .chain([ClientSpec::new(ClientKind::Ftp { size: 50_000_000 })])
                                .collect(),
                        ),
                    ];
                    for (mname, clients) in mixes {
                        let cfg = ScenarioConfig::new(seed, ikind.policy(), clients)
                            .with_duration(paper)
                            .with_faults(GOLDEN_FAULTS);
                        out.push(WorldDef { label: format!("{iname}/{mname}"), cfg });
                    }
                }
            }
            Workload::City10k => {
                let cfg =
                    city_cfg(seed, 10_000, SimDuration::from_secs(CITY_SECS)).with_threads(THREADS);
                out.push(WorldDef { label: format!("10000c/{}cells", cfg.cells), cfg });
            }
        }
        out
    }
}

fn video(p: VideoPattern, n: usize) -> Vec<ClientSpec> {
    p.fidelities(n)
        .into_iter()
        .map(|f| ClientSpec::new(ClientKind::Video { fidelity: f }))
        .collect()
}

fn web() -> ClientSpec {
    ClientSpec::new(ClientKind::Web { script: WebScriptConfig::default() })
}

/// The seed-free canonical text of a workload definition: one line per
/// world with its clients, length, policy, fault plan, cells and threads,
/// plus the sweep width.
pub fn definition(worlds: &[WorldDef]) -> String {
    let mut s = format!("worlds={} sweep_threads={THREADS}\n", worlds.len());
    for w in worlds {
        let c = &w.cfg;
        let clients: Vec<String> = c
            .clients
            .iter()
            .map(|k| {
                format!("{:?}/et{}us/skip{}", k.kind, k.early_transition.as_us(), k.skip_unchanged)
            })
            .collect();
        s.push_str(&format!(
            "{} clients={} [{}] duration_us={} stagger_us={} policy={:?} faults={:?} cells={} threads={} radio={:?} flag_unchanged={}\n",
            w.label,
            c.clients.len(),
            clients.join(","),
            c.duration.as_us(),
            c.stagger.as_us(),
            c.policy,
            c.faults,
            c.cells,
            c.threads,
            c.radio,
            c.flag_unchanged,
        ));
    }
    s
}

/// FNV-1a digest of [`definition`], as 16 hex digits.
pub fn definition_digest(worlds: &[WorldDef]) -> String {
    hex(fnv1a(definition(worlds).as_bytes()))
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A digest as 16 lowercase hex digits.
pub fn hex(h: u64) -> String {
    format!("{h:016x}")
}

/// Total clients over a workload's worlds.
pub fn total_clients(worlds: &[WorldDef]) -> usize {
    worlds.iter().map(|w| w.cfg.clients.len()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn definitions_are_seed_free_and_pinned() {
        for w in Workload::ALL {
            let a = definition_digest(&w.worlds(7));
            let b = definition_digest(&w.worlds(1234));
            assert_eq!(a, b, "{}: the seed must not enter the definition", w.name());
            assert_eq!(a, w.pinned_digest(), "{}: definition changed", w.name());
        }
    }

    #[test]
    fn workload_shapes() {
        let f = Workload::Fig4.worlds(7);
        assert_eq!(f.len(), 15);
        assert!(f.iter().all(|w| w.cfg.clients.len() == 10 && w.cfg.cells == 1));
        let t = Workload::TcpFaulted.worlds(7);
        assert_eq!(t.len(), 9);
        assert!(t.iter().all(|w| w.cfg.faults == GOLDEN_FAULTS));
        let c = Workload::City10k.worlds(7);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].cfg.clients.len(), 10_000);
        assert_eq!(c[0].cfg.cells, 157);
        assert_eq!(c[0].cfg.threads, THREADS);
    }
}
