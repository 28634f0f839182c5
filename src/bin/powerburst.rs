//! `powerburst` — command-line front end for the reproduction.
//!
//! ```text
//! powerburst run [--clients N] [--pattern P] [--interval I] [--secs S]
//!                [--seed K] [--threads N] [--web N] [--ftp BYTES]
//!                [--live] [--psm] [--static] [--admission]
//!                [--trace-out FILE] [--metrics-out FILE]
//!                [--trace-events FILE] [--fail-on-invariants]
//! powerburst bench [--secs S] [--seed K] [--threads N] [--repeat R]
//!                  [--out FILE] [--metrics-out FILE] [--baseline FILE]
//!                  [--fail-on-regression PCT]
//! powerburst calibrate [--seed K]
//! powerburst experiment <name>|all [--secs S] [--seed K]
//! powerburst list
//! ```
//!
//! Argument parsing is hand-rolled (the workspace's dependency budget is
//! deliberately small) and strict: every flag has a sane paper-default,
//! but a flag the subcommand does not accept, a missing value, or a value
//! that does not parse exits with status 2 and names the flag. `--help`
//! or `-h` anywhere prints the usage and runs nothing.

use std::process::ExitCode;

use powerburst::prelude::*;
use powerburst::scenario::experiments as exp;
use powerburst::scenario::report::{fmt_summary, Table};
use powerburst::scenario::NetworkConfig;
use powerburst::trace::to_jsonl;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    if ["--help", "-h", "help"].contains(&cmd.as_str())
        || rest.iter().any(|a| a == "--help" || a == "-h")
    {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let outcome = match cmd.as_str() {
        "run" => cmd_run(rest),
        "bench" => cmd_bench(rest),
        "calibrate" => cmd_calibrate(rest),
        "experiment" => cmd_experiment(rest),
        "list" => Flags::new(rest, &[], &[]).map(|_| {
            println!("experiments:");
            for (name, desc) in EXPERIMENTS {
                println!("  {name:<24} {desc}");
            }
            ExitCode::SUCCESS
        }),
        other => Err(format!("unknown command `{other}`")),
    };
    outcome.unwrap_or_else(|msg| {
        eprintln!("powerburst {cmd}: {msg}\n\n{USAGE}");
        ExitCode::from(2)
    })
}

const USAGE: &str = "powerburst — ICPP 2004 transparent power-aware proxy reproduction

USAGE:
  powerburst run [--clients N] [--pattern 56k|256k|512k|split|mix]
                 [--interval 100|500|var] [--secs S] [--seed K]
                 [--policy fixed|variable|channel|buffer]
                 [--cells N] [--threads N] [--coord-pool PERMILLE]
                 [--stagger-ms M]
                 [--web N] [--ftp BYTES] [--live] [--psm] [--static]
                 [--admission] [--trace-out FILE]
                 [--metrics-out FILE] [--trace-events FILE]
                 [--fail-on-invariants]
                 [--fault-loss P] [--fault-dup P] [--fault-reorder P]
                 [--fault-reorder-ms M] [--fault-sched-drop P]
                 [--fault-jitter-ms M] [--fault-jitter-prob P]
                 [--fault-skew-ppm X]
  powerburst bench [--secs S] [--seed K] [--threads N] [--repeat R]
                   [--out FILE] [--metrics-out FILE] [--trace-events FILE]
                   [--baseline FILE] [--fail-on-invariants]
                   [--fail-on-regression PCT]
  powerburst calibrate [--seed K]
  powerburst experiment <name>|all [--secs S] [--seed K]
  powerburst list
  powerburst <command> --help";

/// Strict flag parser over `--key value` pairs and boolean `--key`
/// switches. Errors name the offending flag.
struct Flags<'a> {
    flags: Vec<(&'a str, Option<&'a str>)>,
}

impl<'a> Flags<'a> {
    /// Accept exactly the subcommand's `values` (flags that take an
    /// argument) and `switches`; anything else is an error.
    fn new(args: &'a [String], values: &[&str], switches: &[&str]) -> Result<Flags<'a>, String> {
        let mut flags = Vec::new();
        let mut it = args.iter().map(String::as_str);
        while let Some(a) = it.next() {
            if values.contains(&a) {
                let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
                flags.push((a, Some(v)));
            } else if switches.contains(&a) {
                flags.push((a, None));
            } else {
                return Err(format!("unknown flag `{a}`"));
            }
        }
        Ok(Flags { flags })
    }

    fn get(&self, key: &str) -> Option<&'a str> {
        self.flags.iter().find(|(k, _)| *k == key).and_then(|&(_, v)| v)
    }

    fn has(&self, key: &str) -> bool {
        self.flags.iter().any(|(k, _)| *k == key)
    }

    /// The parsed value of `key`, if given.
    fn opt<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.get(key)
            .map(|v| v.parse().map_err(|_| format!("invalid value `{v}` for {key}")))
            .transpose()
    }

    fn parse<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        Ok(self.opt(key)?.unwrap_or(default))
    }
}

fn pattern(name: &str) -> Option<VideoPattern> {
    Some(match name {
        "56k" | "56K" => VideoPattern::All56,
        "256k" | "256K" => VideoPattern::All256,
        "512k" | "512K" => VideoPattern::All512,
        "split" => VideoPattern::Half56Half512,
        "mix" | "all" => VideoPattern::Mixed,
        _ => return None,
    })
}

const RUN_VALUES: &[&str] = &[
    "--clients",
    "--pattern",
    "--interval",
    "--secs",
    "--seed",
    "--policy",
    "--cells",
    "--threads",
    "--coord-pool",
    "--stagger-ms",
    "--web",
    "--ftp",
    "--trace-out",
    "--metrics-out",
    "--trace-events",
    "--fault-loss",
    "--fault-dup",
    "--fault-reorder",
    "--fault-reorder-ms",
    "--fault-sched-drop",
    "--fault-jitter-ms",
    "--fault-jitter-prob",
    "--fault-skew-ppm",
];
const RUN_SWITCHES: &[&str] =
    &["--live", "--psm", "--static", "--admission", "--fail-on-invariants"];

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let f = Flags::new(args, RUN_VALUES, RUN_SWITCHES)?;
    let n_video: usize = f.parse("--clients", 10)?;
    let n_web: usize = f.parse("--web", 0)?;
    let ftp: u64 = f.parse("--ftp", 0)?;
    let secs: u64 = f.parse("--secs", 119)?;
    let seed: u64 = f.parse("--seed", 7)?;
    let pat = pattern(f.get("--pattern").unwrap_or("56k"))
        .ok_or("unknown --pattern (use 56k|256k|512k|split|mix)")?;
    let policy = if f.has("--psm") {
        PolicyKind::PsmBeacon { interval: SimDuration::from_ms(100) }
    } else if f.has("--static") {
        PolicyKind::StaticEqual { interval: SimDuration::from_ms(100) }
    } else {
        // `--interval` sets the SRP cadence; `--policy` picks the slot
        // allocator running at that cadence (default: the paper's fixed
        // demand-proportional builder).
        let interval = match f.get("--interval").unwrap_or("100") {
            "100" => Some(SimDuration::from_ms(100)),
            "500" => Some(SimDuration::from_ms(500)),
            "var" | "variable" => None,
            ms => match ms.parse::<u64>() {
                Ok(ms) => Some(SimDuration::from_ms(ms)),
                Err(_) => return Err("unknown --interval (use 100|500|var or milliseconds)".into()),
            },
        };
        let fixed = interval.unwrap_or(SimDuration::from_ms(100));
        match f.get("--policy").unwrap_or(if interval.is_none() { "variable" } else { "fixed" }) {
            "fixed" => PolicyKind::DynamicFixed { interval: fixed },
            "var" | "variable" => PolicyKind::DynamicVariable {
                min: SimDuration::from_ms(100),
                max: SimDuration::from_ms(500),
            },
            "channel" => PolicyKind::ChannelAware { interval: fixed },
            "buffer" => PolicyKind::BufferAware {
                interval: fixed,
                target_buffer: powerburst::core::DEFAULT_TARGET_BUFFER,
            },
            _ => return Err("unknown --policy (use fixed|variable|channel|buffer)".into()),
        }
    };

    let mut clients: Vec<ClientSpec> = pat
        .fidelities(n_video)
        .into_iter()
        .map(|fi| ClientSpec::new(ClientKind::Video { fidelity: fi }))
        .collect();
    for _ in 0..n_web {
        clients.push(ClientSpec::new(ClientKind::Web { script: WebScriptConfig::default() }));
    }
    if ftp > 0 {
        clients.push(ClientSpec::new(ClientKind::Ftp { size: ftp }));
    }

    let mut cfg =
        ScenarioConfig::new(seed, policy, clients).with_duration(SimDuration::from_secs(secs));
    // Multi-cell: N cells round-robin over the client list, one AP +
    // proxy shard per occupied cell, coordinator tier when N > 1.
    let cells: usize = f.parse("--cells", 1)?;
    if cells > 1 {
        cfg = cfg.with_cells(cells);
    }
    // Worker threads for the sharded event core (0 = PB_THREADS/auto).
    // Outputs are byte-identical at every value; single-cell worlds
    // always run sequentially regardless.
    cfg = cfg.with_threads(f.parse("--threads", 0)?);
    if let Some(pool) = f.opt("--coord-pool")? {
        cfg = cfg.with_coord_pool(pool);
    }
    if let Some(ms) = f.opt("--stagger-ms")? {
        cfg.stagger = SimDuration::from_ms(ms);
    }
    if f.has("--live") {
        cfg.radio = RadioMode::Live;
    }
    if f.has("--admission") {
        cfg.admission = Some(powerburst::core::AdmissionConfig::default());
    }
    cfg.faults = FaultPlan {
        loss_prob: f.parse("--fault-loss", 0.0)?,
        dup_prob: f.parse("--fault-dup", 0.0)?,
        reorder_prob: f.parse("--fault-reorder", 0.0)?,
        reorder_max: SimDuration::from_ms(f.parse("--fault-reorder-ms", 5)?),
        sched_drop_prob: f.parse("--fault-sched-drop", 0.0)?,
        ap_jitter_prob: f.parse(
            "--fault-jitter-prob",
            if f.get("--fault-jitter-ms").is_some() { 0.2 } else { 0.0 },
        )?,
        ap_jitter_max: SimDuration::from_ms(f.parse("--fault-jitter-ms", 0)?),
        clock_skew_ppm: f.parse("--fault-skew-ppm", 0.0)?,
    };
    let metrics_out = f.get("--metrics-out");
    let events_out = f.get("--trace-events");
    if metrics_out.is_some() || events_out.is_some() {
        cfg.obs = ObsConfig { metrics: true, events: events_out.is_some(), event_cap: 65_536 };
    }

    eprintln!(
        "running {} clients for {secs}s (seed {seed}, {} radio)...",
        cfg.clients.len(),
        if cfg.radio == RadioMode::Live { "live" } else { "monitor" }
    );

    if let Some(path) = f.get("--trace-out") {
        // Capture the raw trace alongside the report.
        let mut a = powerburst::scenario::assemble(&cfg);
        a.world.run_until(SimTime::ZERO + cfg.duration);
        let trace = a.world.take_trace();
        if let Err(e) = std::fs::write(path, to_jsonl(&trace)) {
            eprintln!("cannot write {path}: {e}");
            return Ok(ExitCode::FAILURE);
        }
        eprintln!("trace: {} frames -> {path}", trace.len());
        // Re-run for the structured report (runs are deterministic).
    }

    let r = run_scenario(&cfg);
    let mut t = Table::new(vec!["client", "saved %", "loss %", "sleep (s)", "delivered"]);
    for c in &r.clients {
        t.row(vec![
            format!("{} ({})", c.host, c.label),
            format!("{:.1}", c.saved_pct()),
            format!("{:.2}", c.loss_pct()),
            format!("{:.1}", c.post.sleep.as_secs_f64()),
            c.post.delivered.to_string(),
        ]);
    }
    println!("{}", t.render());
    let s = r.saved_all();
    println!(
        "overall: saved {} | loss {:.2}% | utilization {:.2} | schedules {} | downshifts {}",
        fmt_summary(&s),
        r.loss_summary(|_| true).mean,
        r.utilization,
        r.proxy.schedules_sent,
        r.downshifts,
    );
    if let Some(a) = r.admission {
        println!(
            "admission: {} admitted, {} rejected, {} packets refused",
            a.admitted, a.rejected, a.packets_refused
        );
    }
    if !cfg.faults.is_none() {
        let fs = r.faults;
        println!(
            "faults: {} lost, {} SRP dropped, {} duplicated, {} reordered, {} AP spikes",
            fs.frames_lost,
            fs.schedules_dropped,
            fs.frames_duplicated,
            fs.frames_reordered,
            fs.ap_spikes,
        );
    }
    if r.invariants.is_clean() {
        println!("invariants: clean");
    } else {
        println!("invariants: {} violation(s)", r.invariants.total());
        for v in r.invariants.violations().iter().take(5) {
            println!("  {v}");
        }
    }
    if let Err(code) = write_obs_exports(&r, metrics_out, events_out) {
        return Ok(code);
    }
    if f.has("--fail-on-invariants") && !r.invariants.is_clean() {
        eprintln!("failing: {} invariant violation(s)", r.invariants.total());
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// Write the metrics (JSON, or CSV when the path ends in `.csv`) and the
/// event stream (JSON-lines) exports of an instrumented run.
fn write_obs_exports(
    r: &ScenarioResult,
    metrics_out: Option<&str>,
    events_out: Option<&str>,
) -> Result<(), ExitCode> {
    let Some(rep) = r.obs.as_ref() else {
        if metrics_out.is_some() || events_out.is_some() {
            eprintln!("no observability export (collection was not enabled)");
            return Err(ExitCode::FAILURE);
        }
        return Ok(());
    };
    if let Some(path) = metrics_out {
        let body = if path.ends_with(".csv") { rep.metrics_csv() } else { rep.metrics_json() };
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("cannot write {path}: {e}");
            return Err(ExitCode::FAILURE);
        }
        eprintln!("metrics -> {path}");
    }
    if let Some(path) = events_out {
        if let Err(e) = std::fs::write(path, rep.events_jsonl()) {
            eprintln!("cannot write {path}: {e}");
            return Err(ExitCode::FAILURE);
        }
        eprintln!("events: {} ({} dropped) -> {path}", rep.events.len(), rep.events_dropped);
    }
    Ok(())
}

fn cmd_bench(args: &[String]) -> Result<ExitCode, String> {
    let f = Flags::new(
        args,
        &[
            "--secs",
            "--seed",
            "--threads",
            "--repeat",
            "--out",
            "--metrics-out",
            "--trace-events",
            "--baseline",
            "--fail-on-regression",
        ],
        &["--fail-on-invariants"],
    )?;
    let opt = exp::ExpOptions {
        duration: SimDuration::from_secs(f.parse("--secs", 25)?),
        seed: f.parse("--seed", 7)?,
        threads: f.parse("--threads", powerburst::sim::default_threads())?,
    };
    let repeat: usize = f.parse("--repeat", 1)?.max(1);
    let fail_on_regression: Option<f64> = f.opt("--fail-on-regression")?;
    eprintln!(
        "profiling fig4 sweep + {} scenarios + instrumented run ({} s, seed {}, {} threads, {} repeat(s))...",
        exp::BENCH_SCENARIOS.len(),
        opt.duration.as_secs_f64(),
        opt.seed,
        opt.threads,
        repeat,
    );
    // Repeats fold stage-wise: each stage keeps its fastest run, the
    // minimum being the least-noise wall-clock estimator on a shared
    // machine. Simulation outputs are deterministic, so only wall time
    // differs between repeats.
    let (mut report, r) = exp::bench_suite(&opt);
    for _ in 1..repeat {
        let (again, _) = exp::bench_suite(&opt);
        report.keep_best(again);
    }
    let out = f.get("--out").unwrap_or("BENCH_pr10.json");
    if let Err(e) = std::fs::write(out, report.to_json()) {
        eprintln!("cannot write {out}: {e}");
        return Ok(ExitCode::FAILURE);
    }
    for st in &report.stages {
        println!(
            "{:<18} {:>8.2}s  {:>12} events  {:>12.0} events/s  ({} jobs, {} threads)",
            st.name,
            st.wall_s,
            st.sim_events,
            st.events_per_sec(),
            st.jobs.len(),
            st.threads,
        );
    }
    println!("bench report -> {out}");
    if let Some(base_path) = f.get("--baseline") {
        // Comparison against a committed baseline report. Report-only by
        // default (runners are noisy); `--fail-on-regression <pct>` turns
        // any stage slower than the threshold into a hard failure — pair
        // it with `--repeat` and a forgiving percentage to keep the gate
        // meaningful on shared machines.
        match std::fs::read_to_string(base_path) {
            Ok(base_json) => {
                let current = powerburst::obs::parse_stage_rates(&report.to_json());
                let baseline = powerburst::obs::parse_stage_rates(&base_json);
                println!("events/sec vs baseline {base_path}:");
                for line in powerburst::obs::delta_lines(&current, &baseline) {
                    println!("  {line}");
                }
                if let Some(threshold) = fail_on_regression {
                    let offenders = powerburst::obs::regressions(&current, &baseline, threshold);
                    if !offenders.is_empty() {
                        println!("regressions past -{threshold:.1}%:");
                        for line in &offenders {
                            println!("  {line}");
                        }
                        return Ok(ExitCode::FAILURE);
                    }
                    println!("no stage regressed past -{threshold:.1}%");
                }
            }
            Err(e) => eprintln!("baseline {base_path} unreadable ({e}); skipping comparison"),
        }
    }
    if let Err(code) = write_obs_exports(&r, f.get("--metrics-out"), f.get("--trace-events")) {
        return Ok(code);
    }
    if !r.invariants.is_clean() {
        println!("invariants: {} violation(s) in instrumented run", r.invariants.total());
        if f.has("--fail-on-invariants") {
            return Ok(ExitCode::FAILURE);
        }
    } else {
        println!("invariants: clean");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_calibrate(args: &[String]) -> Result<ExitCode, String> {
    let f = Flags::new(args, &["--seed"], &[])?;
    let seed: u64 = f.parse("--seed", 7)?;
    let cal = calibrate(&NetworkConfig::default(), seed, &powerburst::scenario::DEFAULT_SIZES, 20);
    println!(
        "fitted send-cost model: time_us = {:.1} + {:.4} * bytes (R² {:.4}, {} samples)",
        cal.model.alpha_us, cal.model.beta_us, cal.r2, cal.samples
    );
    println!("effective bandwidth at 728 B frames: {:.2} Mb/s", cal.model.effective_bps(728) / 1e6);
    Ok(ExitCode::SUCCESS)
}

const EXPERIMENTS: &[(&str, &str)] = &[
    ("fig4", "Figure 4: ten video clients, five patterns x three intervals"),
    ("tcp-only", "§4.2: ten web clients"),
    ("fig5", "Figure 5: seven video + three web clients"),
    ("optimal", "§4.3: comparison to the theoretical optimal"),
    ("fig6", "Figure 6: early-transition sweep"),
    ("loss", "§4.3: packet loss survey"),
    ("static", "§4.3: static vs dynamic schedules"),
    ("fig7", "Figure 7: slotted TCP/UDP static schedules"),
    ("drops", "§4.3: Netfilter/DummyNet drop impact"),
    ("penalty", "§4.3: 100 ms vs 500 ms transition penalty"),
    ("split", "A1: split connections vs pass-through"),
    ("unchanged", "A2: §5 schedule-unchanged optimization"),
    ("intervals", "A3: burst-interval sweep"),
    ("comp", "A4: adaptive vs fixed-anchor delay compensation"),
    ("psm", "A5: proxy schedule vs 802.11-PSM baseline"),
    ("admission", "A6: §3.2.1 admission control under overload"),
    ("policies", "A7: scheduling-policy A/B (fixed/variable/channel/buffer)"),
    ("bandwidth", "M1: bandwidth microbenchmark + linear fit"),
];

fn cmd_experiment(args: &[String]) -> Result<ExitCode, String> {
    let name = args.first().ok_or("experiment name required; see `powerburst list`")?;
    let f = Flags::new(&args[1..], &["--secs", "--seed"], &[])?;
    let opt = exp::ExpOptions {
        duration: SimDuration::from_secs(f.parse("--secs", 119)?),
        seed: f.parse("--seed", 7)?,
        ..exp::ExpOptions::default()
    };

    let out = match name.as_str() {
        "fig4" => exp::render_fig4(&exp::fig4_udp_video(&opt)),
        "tcp-only" => exp::render_tcp_only(&exp::tab_tcp_only(&opt)),
        "fig5" => exp::render_fig5(&exp::fig5_mixed(&opt)),
        "optimal" => exp::render_optimal(&exp::tab_optimal(&opt)),
        "fig6" => exp::render_fig6(&exp::fig6_early_transition(&opt)),
        "loss" => exp::render_packet_loss(&exp::tab_packet_loss(&opt)),
        "static" => exp::render_static_vs_dynamic(&exp::tab_static_vs_dynamic(&opt)),
        "fig7" => exp::render_fig7(&exp::fig7_slotted_static(&opt)),
        "drops" => exp::render_drop_impact(&exp::tab_drop_impact(&opt)),
        "penalty" => exp::render_transition_penalty(&exp::tab_transition_penalty(&opt)),
        "split" => exp::render_split(&exp::abl_split_connection(&opt)),
        "unchanged" => exp::render_unchanged(&exp::abl_schedule_unchanged(&opt)),
        "intervals" => exp::render_interval_sweep(&exp::abl_burst_interval(&opt)),
        "comp" => exp::render_delay_compensation(&exp::abl_delay_compensation(&opt)),
        "psm" => exp::render_psm(&exp::abl_psm_baseline(&opt)),
        "admission" => exp::render_admission(&exp::abl_admission_control(&opt)),
        "policies" => exp::render_policy_ab(&exp::ab_policy_comparison(&opt)),
        "bandwidth" => exp::render_bandwidth_model(&exp::tab_bandwidth_model(&opt)),
        "all" => exp::run_all(&opt),
        other => return Err(format!("unknown experiment `{other}`; see `powerburst list`")),
    };
    println!("{out}");
    Ok(ExitCode::SUCCESS)
}
