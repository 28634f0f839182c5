//! The CLI rejects bad input instead of guessing: unknown flags,
//! unparseable values and worlds past the cell cap exit non-zero naming
//! the flag, and `--help` on any subcommand prints the usage without
//! running anything.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Run the binary in a fresh scratch directory and report the files it
/// left there, so a subcommand that writes (e.g. `run --metrics-out`'s
/// export) shows.
fn powerburst(args: &[&str]) -> (Output, Vec<PathBuf>) {
    let dir = std::env::temp_dir().join(format!(
        "powerburst-cli-{}-{}",
        std::process::id(),
        args.join("_")
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_powerburst"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("binary runs");
    let left = std::fs::read_dir(&dir)
        .expect("scratch dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    (out, left)
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

#[test]
fn unparseable_values_are_rejected_naming_the_flag() {
    for (args, flag) in [
        (&["run", "--clients", "abc"][..], "--clients"),
        (&["run", "--secs", "1", "--fault-loss", "lots"][..], "--fault-loss"),
        (&["run", "--stagger-ms", "-3"][..], "--stagger-ms"),
        (&["calibrate", "--seed", "7.5"][..], "--seed"),
        (&["experiment", "fig4", "--secs", "ten"][..], "--secs"),
        (&["experiment", "fig4", "--threads", "x"][..], "invalid value `x` for --threads"),
    ] {
        let (o, _) = powerburst(args);
        assert_eq!(o.status.code(), Some(2), "{args:?}");
        assert!(stderr(&o).contains(flag), "{args:?}: {}", stderr(&o));
    }
}

#[test]
fn unknown_flags_and_missing_values_are_rejected() {
    for (args, needle) in [
        (&["run", "--clinets", "5"][..], "unknown flag `--clinets`"),
        (&["experiment", "fig4", "--clients", "3"][..], "unknown flag `--clients`"),
        (&["list", "--all"][..], "unknown flag `--all`"),
        (&["run", "--secs"][..], "--secs needs a value"),
        (&["frobnicate"][..], "unknown command `frobnicate`"),
        (&["bench"][..], "unknown command `bench`"),
        (
            &["run", "--cells", "300", "--clients", "600", "--secs", "1"][..],
            "--cells 300 puts clients in 300 cells; a world holds at most 253 occupied cells",
        ),
    ] {
        let (o, _) = powerburst(args);
        assert_eq!(o.status.code(), Some(2), "{args:?}");
        assert!(stderr(&o).contains(needle), "{args:?}: {}", stderr(&o));
    }
}

#[test]
fn help_prints_usage_and_runs_nothing() {
    for args in [
        &["--help"][..],
        &["run", "--help"][..],
        &["run", "--clients", "10", "-h"][..],
        &["run", "--metrics-out", "m.json", "--help"][..],
        &["calibrate", "-h"][..],
        &["experiment", "all", "--help"][..],
        &["list", "--help"][..],
    ] {
        let (o, left) = powerburst(args);
        assert_eq!(o.status.code(), Some(0), "{args:?}");
        assert!(String::from_utf8_lossy(&o.stdout).contains("USAGE:"), "{args:?}");
        assert!(left.is_empty(), "{args:?} wrote files: {left:?}");
    }
}

#[test]
fn well_formed_run_still_succeeds() {
    let (o, _) = powerburst(&[
        "run",
        "--clients",
        "2",
        "--secs",
        "1",
        "--seed",
        "3",
        "--fail-on-invariants",
    ]);
    assert_eq!(o.status.code(), Some(0), "{}", stderr(&o));
    assert!(String::from_utf8_lossy(&o.stdout).contains("overall:"));
}
