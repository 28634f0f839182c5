//! Tuning the early-transition amount — the paper's Figure 6 trade-off.
//!
//! A client that wakes too late misses schedules (and stays awake a whole
//! interval recovering); one that wakes too early burns idle energy before
//! every packet. This example sweeps the early-transition amount for one
//! streaming client against a single captured trace, the same way the
//! paper's postmortem simulator does, and prints the waste decomposition.
//! The trace is indexed once and each early amount replays that index.
//!
//! ```sh
//! cargo run --release --example early_transition_tuning [seconds]
//! ```

use powerburst::prelude::*;
use powerburst::scenario::hosts;
use powerburst::scenario::report::Table;

fn main() {
    let secs: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(119);

    // One streaming client, 100 ms bursts — capture the trace once.
    let cfg = ScenarioConfig::new(
        9,
        PolicyKind::DynamicFixed { interval: SimDuration::from_ms(100) },
        vec![ClientSpec::new(ClientKind::Video { fidelity: Fidelity::K56 })],
    )
    .with_duration(SimDuration::from_secs(secs));
    let mut a = assemble(&cfg);
    a.world.run_until(SimTime::ZERO + cfg.duration);
    let trace = a.world.take_trace();
    let index = TraceIndex::new(&trace);
    let end = SimTime::ZERO + cfg.duration;
    let card = CardSpec::WAVELAN_DSSS;

    println!("one 56 kbps client, 100 ms bursts, {secs}s trace, replayed per early amount\n");
    let mut table = Table::new(vec![
        "early (ms)",
        "early waste (J)",
        "missed-sched waste (J)",
        "total (J)",
        "missed pkts %",
        "saved %",
    ]);
    let mut best = (u64::MAX, f64::INFINITY);
    for early in [0u64, 2, 4, 6, 8, 10] {
        let p = PolicyParams {
            early_transition: SimDuration::from_ms(early),
            ..PolicyParams::default()
        };
        let rep = index.analyze(hosts::client(0), end, &p);
        let ew = rep.early_waste_mj(&card) / 1_000.0;
        let mw = rep.missed_waste_mj(&card) / 1_000.0;
        if ew + mw < best.1 {
            best = (early, ew + mw);
        }
        table.row(vec![
            early.to_string(),
            format!("{ew:.2}"),
            format!("{mw:.2}"),
            format!("{:.2}", ew + mw),
            format!("{:.2}", rep.loss_fraction() * 100.0),
            format!("{:.1}", rep.saved * 100.0),
        ]);
    }
    println!("{}", table.render());
    println!("minimum waste at {} ms early (the paper picked 6 ms on its testbed)", best.0);
}
