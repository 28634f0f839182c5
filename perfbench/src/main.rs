//! `perfbench`: the powerburst benchmark.
//!
//! ```text
//! perfbench --workload <fig4|tcp-faulted|city-10k> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! perfbench layers <spans.jsonl>
//! ```
//!
//! With `--trace 0` the workload runs untraced (obs off) and the
//! end-to-end metrics are printed; with `--trace 1` a traced run writes its
//! spans to `<dir>/spans-<workload>-seed<n>.jsonl` and prints the
//! per-layer table computed from that file. `layers` recomputes the table
//! from a span file alone. Either way the last stdout line is one JSON
//! object; `run.py` adds provenance and prints the summary line.

mod layers;
mod measure;
mod outcome;
mod proc;
mod spans;
mod stats;
mod traced;
mod workload;

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{SystemTime, UNIX_EPOCH};

use layers::table;
use measure::untraced;
use spans::{Trace, Tracer};
use stats::median;
use traced::traced_run;
use workload::{definition_digest, total_clients, Workload, THREADS};

/// Every end-to-end metric, with its unit, in report order.
const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("delivered_pct", "%"),
    ("energy_saved_pct", "%"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 7u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut out = PathBuf::from("perfbench/out");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err("--seconds must be non-negative".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace, out })
}

fn json_str(s: &str) -> String {
    let mut o = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => o.push_str(&format!("\\u{:04x}", c as u32)),
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn json_list(xs: &[f64]) -> String {
    format!("[{}]", xs.iter().map(|&x| json_num(x)).collect::<Vec<_>>().join(","))
}

fn metrics_json(rows: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = rows
        .iter()
        .map(|(n, v, u)| {
            format!("{}:{{\"value\":{},\"unit\":{}}}", json_str(n), json_num(*v), json_str(u))
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("layers") {
        return match argv.get(1) {
            Some(path) => match print_layers(path) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench layers: {e}");
                    ExitCode::FAILURE
                }
            },
            None => {
                eprintln!("usage: perfbench layers <spans.jsonl>");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_layers(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let t = Trace::parse_jsonl(&text)?;
    let mut out = format!("run {}\n", t.run);
    for (name, value, unit) in table(&t)? {
        out.push_str(&format!("{name:32} {value:>16.6} {unit}\n"));
    }
    // A closed pipe (`| head`) is not an error worth a panic.
    let _ = std::io::stdout().write_all(out.as_bytes());
    Ok(())
}

/// Run the workload and return the result document (one JSON line).
fn run(args: &Args) -> Result<String, String> {
    let w = args.workload;
    let worlds = w.worlds(args.seed);
    let digest = definition_digest(&worlds);
    if digest != w.pinned_digest() {
        return Err(format!(
            "workload `{}` changed: definition digest {digest}, pinned {}. A changed workload \
             needs a new name or a deliberate re-pin; its results are not comparable.",
            w.name(),
            w.pinned_digest()
        ));
    }
    let head = format!(
        "\"workload\":{},\"seed\":{},\"trace\":{},\"threads\":{THREADS},\"definition_digest\":{},\"worlds_defined\":{},\"clients\":{},\"sim_seconds\":{}",
        json_str(w.name()),
        args.seed,
        u8::from(args.trace),
        json_str(&digest),
        worlds.len(),
        total_clients(&worlds),
        json_num(worlds[0].cfg.duration.as_secs_f64()),
    );

    if !args.trace {
        let u = untraced(&worlds, args.seconds);
        let o = u.outcomes;
        let c = &u.checked;
        let failed_pct = 100.0 * c.failures.len() as f64 / c.attempted.max(1) as f64;
        let rows: Vec<(&str, f64, &str)> = END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let v = match name {
                    "wall_s" => u.wall_median(),
                    "setup_s" => median(&u.setup_s),
                    "peak_rss_mb" => u.peak_rss_bytes.iter().fold(0.0, |a: f64, &b| a.max(b)) / 1e6,
                    "delivered_pct" => 100.0 - o.loss_pct,
                    "energy_saved_pct" => o.energy_saved_pct,
                    _ => unreachable!("every end-to-end metric has a value"),
                };
                (name, v, unit)
            })
            .collect();
        let sane = o.energy_saved_pct.is_finite() && o.energy_saved_pct > 0.0;
        let mut checks: Vec<String> = c.failures.iter().map(|f| f.what()).collect();
        if !sane {
            checks.push(format!("implausible outcomes {o:?}"));
        }
        let worlds_json: Vec<String> = u
            .worlds
            .iter()
            .map(|x| {
                format!(
                    "{{\"label\":{},\"sim_events\":{},\"result_digest\":{}}}",
                    json_str(&x.label),
                    x.sim_events,
                    json_str(&x.digest)
                )
            })
            .collect();
        return Ok(format!(
            "{{{head},\"correct\":{},\"attempted\":{},\"failed\":{},\"checks\":[{}],\"metrics\":{},\"outcomes\":{{\"runs_failed_pct\":{},\"loss_pct\":{},\"energy_saved_pct\":{},\"paper_gap_pts\":{}}},\"samples\":{{\"wall_s\":{},\"peak_rss_mb\":{},\"setup_reps\":{}}},\"worlds\":[{}]}}",
            c.outputs_correct() && sane,
            c.attempted,
            c.failures.len(),
            checks.iter().map(|c| json_str(c)).collect::<Vec<_>>().join(","),
            metrics_json(&rows),
            json_num(failed_pct),
            json_num(o.loss_pct),
            json_num(o.energy_saved_pct),
            json_num(o.paper_gap_pts),
            json_list(&u.wall_s),
            json_list(&u.peak_rss_bytes.iter().map(|b| b / 1e6).collect::<Vec<_>>()),
            u.setup_s.len(),
            worlds_json.join(","),
        ));
    }

    let unix_ms = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_millis());
    let run_id = format!("{}-s{}-{}-{unix_ms}", w.name(), args.seed, std::process::id());
    let tr = Tracer::new(run_id.clone());
    let checked = traced_run(&tr, &worlds);
    let trace = tr.finish();
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let path = args.out.join(format!("spans-{}-seed{}.jsonl", w.name(), args.seed));
    std::fs::write(&path, trace.to_jsonl()).map_err(|e| format!("{}: {e}", path.display()))?;
    // The table comes from the file just written, so it is regenerable
    // from the file alone.
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let rows = table(&Trace::parse_jsonl(&text)?)?;
    Ok(format!(
        "{{{head},\"correct\":{},\"attempted\":{},\"failed\":{},\"checks\":[{}],\"metrics\":{},\"run_id\":{},\"spans_file\":{}}}",
        checked.outputs_correct(),
        checked.attempted,
        checked.failures.len(),
        checked.failures.iter().map(|f| json_str(&f.what())).collect::<Vec<_>>().join(","),
        metrics_json(&rows),
        json_str(&run_id),
        json_str(&path.display().to_string()),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` must list exactly the metrics this binary prints.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let names = |key: &str| -> Vec<String> {
            let start = text.find(&format!("\"{key}\"")).expect("section present");
            let section = &text[start..];
            let end = section.find(']').expect("section closes");
            section[..end]
                .split("\"name\"")
                .skip(1)
                .map(|s| s.split('"').nth(1).expect("a quoted name").to_string())
                .collect()
        };
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        let per: Vec<String> = layers::PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names("end_to_end"), e2e);
        assert_eq!(names("per_layer"), per);
        let wl: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(names("workloads"), wl);
    }

    #[test]
    fn args_are_strict() {
        let a = |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        assert!(a("--workload fig4 --seed 3 --seconds 2 --trace 1").is_ok());
        assert!(a("--workload fig5").is_err());
        assert!(a("--workload fig4 --trace 2").is_err());
        assert!(a("--workload fig4 --sead 3").is_err());
        assert!(a("--seed 3").is_err());
    }
}
