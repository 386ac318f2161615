//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload in this process and prints two JSON lines: a detailed
//! report (provenance, sample counts, outcome digest, counters) and, last,
//! the result line `{"correct", "attempted", "failed", "metrics"}`. Exits
//! non-zero on any failed operation or check.
//!
//! `--setup-probe` only sets the workload up, prints the set-up seconds
//! and the median reference time around them, and exits (the untraced run
//! starts two such probes to take a median).

use hinn_perfbench::layers::per_layer;
use hinn_perfbench::report::{end_to_end, Provenance, Summary};
use hinn_perfbench::run::{self, Plan, Workload, THREADS};
use hinn_perfbench::speed::Reference;
use std::process::{Command, ExitCode};

/// Set-ups per untraced run: this process's plus probes in child processes
/// (a fresh process each, so no set-up finds another's graph cached).
const SETUP_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut setup_probe) = (0, 10.0_f64, false, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds.is_nan() || seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--setup-probe" => setup_probe = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        setup_probe,
    })
}

/// Set the workload up in a child process; returns its set-up seconds and
/// the median reference time around it.
fn probe_setup(args: &Args) -> Result<(f64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    let seed = args.seed.to_string();
    cmd.args([
        "--workload",
        args.workload.name(),
        "--seed",
        &seed,
        "--setup-probe",
    ]);
    let out = cmd.output().map_err(|e| format!("set-up probe: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "set-up probe failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let mut fields = text.split_whitespace().map(str::parse::<f64>);
    match (fields.next(), fields.next()) {
        (Some(Ok(total_s)), Some(Ok(reference_ms))) => Ok((total_s, reference_ms)),
        _ => Err(format!("set-up probe printed {text:?}")),
    }
}

fn main() -> ExitCode {
    // Pin the thread budget for everything in this process and its probes.
    std::env::set_var("HINN_THREADS", THREADS.to_string());
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <scan_case2|wire_hnsw_hot|ingest_stream> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let plan = Plan::full(args.workload, args.seed, args.seconds);
    if args.setup_probe {
        let inputs = plan.inputs();
        return match run::setup(&plan, &inputs, &Reference::default()) {
            Ok(s) => {
                println!("{} {}", s.total_s, s.reference_ms);
                s.served.shutdown();
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: set-up failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let result = (|| -> Result<(String, String, bool), String> {
        let mut setups = Vec::new();
        if !args.trace {
            for _ in 1..SETUP_REPS {
                setups.push(probe_setup(&args)?);
            }
        }
        let data = run::run(&plan, args.trace)?;
        let summary = if args.trace {
            Summary::new(&data, per_layer(&data), Vec::new(), true)
        } else {
            setups.push((data.setup_s, data.setup_reference_ms));
            let scaled = end_to_end(&data, &setups, true);
            Summary::new(&data, scaled, end_to_end(&data, &setups, false), false)
        };
        Ok((
            summary.report_line(&Provenance::collect()),
            summary.result_line(),
            summary.correct(),
        ))
    })();
    match result {
        Ok((report, line, correct)) => {
            println!("{report}");
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
