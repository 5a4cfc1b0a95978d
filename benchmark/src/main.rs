//! The standing end-to-end benchmark of the FAIR-BFL reproduction.
//!
//! ```text
//! bflbench --workload <sync-signed|async-population|fleet-mixed> \
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload is closed-loop: one thread starts a round (or a
//! fleet) only after the previous one returned, and repeats whole runs of
//! a fixed length while another still fits in `--seconds`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` reports the per-layer ledger, timed
//! from this crate around calls into each layer's public functions. The
//! last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! `README.md` beside this crate lists the workloads and every metric.

mod fleet;
mod population;
mod replica;
mod report;
mod simrun;
mod sync_signed;

use bfl_bench::CountingAllocator;
use report::Outcome;
use std::process::ExitCode;
use std::time::Duration;

/// Every allocation of the benchmark and of the program under test goes
/// through this counter: `peak_heap_mib` and the `alloc.*` ledger read it.
#[global_allocator]
pub static ALLOC: CountingAllocator = CountingAllocator::new();

const USAGE: &str = "usage: bflbench --workload <sync-signed|async-population|fleet-mixed> \
                     --seed <u64> --seconds <u64 >= 1> --trace <0|1>";

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag `{flag}` needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("`{flag}` needs an unsigned integer, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("`--trace` is 0 or 1, got `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bflbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs(args.seconds);
    let outcome: Outcome = match args.workload.as_str() {
        "sync-signed" => sync_signed::run(args.seed, budget, args.trace),
        "async-population" => population::run(args.seed, budget, args.trace),
        "fleet-mixed" => fleet::run(args.seed, budget, args.trace),
        other => {
            eprintln!("bflbench: unknown workload `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{}",
        report::host_line(&args.workload, args.seed, args.trace)
    );
    outcome.print();
    ExitCode::SUCCESS
}
