//! Simulated outcomes of a workload and the digests that prove two runs
//! produced the same results.

use powerburst_scenario::ScenarioResult;

use crate::workload::{fnv1a, hex};

/// The paper's Figure-4 mean savings per fidelity (§4.3): 77 / 66 / 53 %.
pub const PAPER_SAVED_PCT: [(&str, f64); 3] =
    [("video-56K", 77.0), ("video-256K", 66.0), ("video-512K", 53.0)];

/// Deterministic outcomes over every client of every world.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcomes {
    /// Mean WNIC energy saved against a naive client, %.
    pub energy_saved_pct: f64,
    /// Mean share of addressed frames the replayed client missed, %.
    pub loss_pct: f64,
    /// Mean absolute gap between each paper fidelity's mean saved % and
    /// the paper's figure, over the fidelities the workload has.
    pub paper_gap_pts: f64,
}

/// Aggregate the workload's results.
pub fn outcomes(results: &[ScenarioResult]) -> Outcomes {
    let clients: Vec<_> = results.iter().flat_map(|r| r.clients.iter()).collect();
    let n = clients.len().max(1) as f64;
    let mut gaps = Vec::new();
    for (label, paper) in PAPER_SAVED_PCT {
        let saved: Vec<f64> =
            clients.iter().filter(|c| c.label == label).map(|c| c.saved_pct()).collect();
        if !saved.is_empty() {
            let mean = saved.iter().sum::<f64>() / saved.len() as f64;
            gaps.push((mean - paper).abs());
        }
    }
    Outcomes {
        energy_saved_pct: clients.iter().map(|c| c.saved_pct()).sum::<f64>() / n,
        loss_pct: clients.iter().map(|c| c.loss_pct()).sum::<f64>() / n,
        paper_gap_pts: if gaps.is_empty() {
            0.0
        } else {
            gaps.iter().sum::<f64>() / gaps.len() as f64
        },
    }
}

/// Digest of one world's deterministic results: event count, every
/// client's replayed energy and frame counts, daemon and application
/// counters, and the proxy, medium, fault and invariant totals.
pub fn result_digest(r: &ScenarioResult) -> String {
    let mut s = format!(
        "events={} frames={} medium_drops={} downshifts={} invariants={} proxy={:?} faults={:?}\n",
        r.sim_events,
        r.trace_frames,
        r.medium_drops,
        r.downshifts,
        r.invariants.total(),
        r.proxy,
        r.faults,
    );
    for c in &r.clients {
        let p = &c.post;
        let web = c.app.web.map(|w| (w.objects_done, w.bytes, w.mean_latency_s.to_bits()));
        let ftp = c.app.ftp.map(|f| f.received);
        let video = c.app.video.map(|v| (v.received, v.bytes));
        s.push_str(&format!(
            "{} {} e={:x} n={:x} d={} m={} sched={}/{} rx={} miss={} web={web:?} ftp={ftp:?} video={video:?}\n",
            c.host.0,
            c.label,
            p.energy_mj.to_bits(),
            p.naive_mj.to_bits(),
            p.delivered,
            p.missed,
            p.schedules_seen,
            p.schedules_missed,
            c.daemon.schedules_received,
            c.daemon.schedules_missed,
        ));
    }
    hex(fnv1a(s.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use powerburst_scenario::run_scenario;
    use powerburst_sim::SimDuration;

    #[test]
    fn digest_repeats_and_tracks_the_seed() {
        let mut w = Workload::Fig4.worlds(7).swap_remove(0);
        w.cfg = w.cfg.with_duration(SimDuration::from_secs(5));
        let a = run_scenario(&w.cfg);
        let b = run_scenario(&w.cfg);
        assert_eq!(result_digest(&a), result_digest(&b));
        let mut other = w.cfg.clone();
        other.seed = 8;
        assert_ne!(result_digest(&a), result_digest(&run_scenario(&other)));
        let o = outcomes(&[a]);
        assert!(o.energy_saved_pct > 0.0 && o.paper_gap_pts > 0.0, "{o:?}");
    }
}
