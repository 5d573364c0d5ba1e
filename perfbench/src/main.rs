//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one line per metric (name, value, unit), then, as the last
//! line of standard output, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. Exits 0 only when every
//! correctness check passed.

use perfbench::{run, Options, Workload};
use std::process::ExitCode;

fn usage(problem: &str) -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Workload::parse(&value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload `{value}`")),
            },
            "--seed" => match value.parse() {
                Ok(v) => seed = v,
                Err(_) => return usage("--seed needs a non-negative integer"),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(v) if v.is_finite() && v >= 0.0 => seconds = v,
                _ => return usage("--seconds needs a non-negative number"),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage("--trace takes 0 or 1"),
            },
            _ => return usage(&format!("unknown flag `{flag}`")),
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    let mut opts = Options::new(workload, seed, seconds, trace);
    if trace {
        // The trace file lands next to the executable, inside the build
        // directory.
        opts.trace_file = std::env::current_exe().ok().and_then(|exe| {
            let name = format!("perfbench-trace-{}-{seed}.json", workload.name());
            exe.parent().map(|dir| dir.join(name))
        });
    }
    let outcome = run(&opts);
    for f in &outcome.failures {
        eprintln!("FAILED: {f}");
    }
    for m in &outcome.metrics {
        let samples = if m.samples > 1 {
            format!(" ({} samples)", m.samples)
        } else {
            String::new()
        };
        println!("{:<40} {:>16.6} {}{samples}", m.name, m.value, m.unit);
    }
    println!("{}", outcome.to_json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
