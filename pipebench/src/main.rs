//! `pipebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--store-root <dir>]`
//!
//! Runs one benchmark run and prints a human-readable report followed, as
//! the last line of standard output, by one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Exits 1 when any
//! operation failed or produced a wrong output.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use pipebench::bench::{self, Outcome};
use pipebench::host;
use pipebench::pipeline::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    root: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = 10.0;
    let mut trace = false;
    // Inside the benchmark's own directory of the checkout that built it.
    let mut root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".stores");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} expected, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; known: {}", names.join(", "))
                })?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                };
            }
            "--store-root" => root = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        root,
    })
}

fn json(out: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.correct(),
        out.attempted,
        out.failed
    );
    for (i, m) in out.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pipebench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.root) {
        eprintln!("pipebench: cannot create {}: {e}", args.root.display());
        return ExitCode::from(2);
    }
    // Still single-threaded here, as the private mount requires.
    let mount = match host::private_tmpfs(&args.root) {
        Ok(()) => "private tmpfs mount".to_string(),
        Err(e) => format!("plain directory; no private tmpfs: {e}"),
    };
    let host_cpus = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = match host::pin_to_one_cpu() {
        Ok(cpu) => format!("pinned to CPU {cpu}"),
        Err(e) => format!("not pinned: {e}"),
    };
    let root = args.root.join(format!("run{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&root) {
        eprintln!("pipebench: cannot create {}: {e}", root.display());
        return ExitCode::from(2);
    }
    let fs = host::fs_type(&root);
    let mut out = bench::run(args.workload, args.seed, args.seconds, args.trace, &root);
    let _ = std::fs::remove_dir_all(&root);

    // A metric without samples cannot be reported as a number.
    let empty: Vec<String> = out
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name.clone())
        .collect();
    if !empty.is_empty() {
        out.attempted += 1;
        out.failed += 1;
        out.errors
            .push(format!("no samples for {}", empty.join(", ")));
        out.metrics.retain(|m| m.value.is_finite());
    }

    println!(
        "pipebench {} seed {} ({} s, trace {})",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "stores under {} on {fs} ({mount}); {cpu} of {}",
        root.display(),
        host_cpus
    );
    for note in &out.notes {
        println!("{note}");
    }
    for m in &out.metrics {
        println!("{:<36} {:>14.4} {}", m.name, m.value, m.unit);
    }
    for e in &out.errors {
        println!("FAILED: {e}");
    }
    println!("{}", json(&out));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
