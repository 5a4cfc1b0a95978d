//! `fleet-mixed`: the shipped research fleets, one after another.
//!
//! `scenarios/table2_attack.json`, `quota_churn.json` and
//! `fault_resilience.json`, each through `bfl_harness::run_fleet` at two
//! workers and then `summarize`, in one process. The seed lists are
//! widened (and drawn from `--seed`) so a pass over the three lasts
//! seconds. The same engines run as many short jobs instead of one long
//! run, so per-job set-up and job-granularity fan-out dominate, plus
//! partition fork/salvage and synchronous attack cells.

use crate::report::{another_run, best_high, best_low, median, mib, mix, quantile, Outcome};
use crate::ALLOC;
use bfl_harness::runner::{generate_dataset, to_pretty_json};
use bfl_harness::{run_fleet, summarize, FinalMetrics, FleetFile, Manifest, Shard};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Each fleet's per-layer metric name, manifest, and how many seeds it
/// runs (the shipped files run 5, 3 and 3).
const FLEETS: [(&str, &str, usize); 3] = [
    (
        "harness.run_fleet_ms.table2_attack",
        include_str!("../../scenarios/table2_attack.json"),
        10,
    ),
    (
        "harness.run_fleet_ms.quota_churn",
        include_str!("../../scenarios/quota_churn.json"),
        6,
    ),
    (
        "harness.run_fleet_ms.fault_resilience",
        include_str!("../../scenarios/fault_resilience.json"),
        6,
    ),
];

/// Harness workers: the host's two cores.
const WORKERS: usize = 2;
/// Set-up (parse plus dataset generation) samples per pass.
const SETUP_SAMPLES: usize = 5;

/// Parses the fleets and points their seeds and data at `seed`.
fn manifests(seed: u64) -> Result<Vec<Manifest>, String> {
    FLEETS
        .iter()
        .zip(0u64..)
        .map(|(&(metric, text, seeds), i)| {
            let mut m = Manifest::from_json(text).map_err(|e| format!("{metric}: {e}"))?;
            let base = mix(seed, 10 + i) >> 40;
            m.seeds = (base..base + seeds as u64).collect();
            m.dataset.data_seed = mix(seed, 20 + i);
            Ok(m)
        })
        .collect()
}

/// One pass over the three fleets.
struct Pass {
    /// Median over [`SETUP_SAMPLES`] of parse plus dataset generation.
    setup_s: f64,
    /// Median dataset-generation part of the set-up, in milliseconds.
    generate_ms: f64,
    /// One set-up plus every `run_fleet` and `summarize`, in seconds.
    wall_s: f64,
    /// `run_fleet` wall time per fleet, in milliseconds.
    run_ms: [f64; 3],
    /// `summarize` plus its JSON rendering, over the three fleets, in ms.
    summarize_ms: f64,
    /// Harness workers of this pass.
    workers: usize,
    /// Jobs and rounds per fleet.
    jobs: [usize; 3],
    rounds: [usize; 3],
    /// The rendered summaries.
    summaries: Vec<String>,
    peak_bytes: usize,
    allocations: usize,
    error: Option<String>,
}

impl Pass {
    fn run_s(&self) -> f64 {
        self.run_ms.iter().sum::<f64>() / 1e3
    }

    fn total_jobs(&self) -> usize {
        self.jobs.iter().sum()
    }

    fn total_rounds(&self) -> usize {
        self.rounds.iter().sum()
    }

    /// Quantile `q` over the three fleets of worker-milliseconds per round
    /// (`run_fleet` ms × workers ÷ rounds).
    fn round_ms(&self, q: f64) -> f64 {
        let per_fleet: Vec<f64> = (0..3)
            .map(|i| {
                self.run_ms[i] * self.workers.min(self.jobs[i]) as f64
                    / self.rounds[i].max(1) as f64
            })
            .collect();
        quantile(&per_fleet, q)
    }
}

fn pass(seed: u64, workers: usize) -> Pass {
    ALLOC.reset_peak();
    let mut setup = Vec::with_capacity(SETUP_SAMPLES);
    let mut generate = Vec::with_capacity(SETUP_SAMPLES);
    let mut parsed = Err(String::new());
    for _ in 0..SETUP_SAMPLES {
        let t = Instant::now();
        parsed = manifests(seed);
        let g = Instant::now();
        if let Ok(ms) = &parsed {
            for m in ms {
                std::hint::black_box(generate_dataset(&m.dataset));
            }
        }
        generate.push(g.elapsed().as_secs_f64() * 1e3);
        setup.push(t.elapsed().as_secs_f64());
    }
    let mut p = Pass {
        setup_s: median(&setup),
        generate_ms: median(&generate),
        wall_s: 0.0,
        run_ms: [0.0; 3],
        summarize_ms: 0.0,
        workers,
        jobs: [0; 3],
        rounds: [0; 3],
        summaries: Vec::new(),
        peak_bytes: 0,
        allocations: 0,
        error: None,
    };
    let manifests = match parsed {
        Ok(ms) => ms,
        Err(e) => {
            p.error = Some(e);
            return p;
        }
    };
    let before = ALLOC.snapshot();
    for (i, m) in manifests.iter().enumerate() {
        p.jobs[i] = m.total_runs();
        let t = Instant::now();
        let records = run_fleet(m, Shard::default(), workers);
        p.run_ms[i] = t.elapsed().as_secs_f64() * 1e3;
        let records = match records {
            Ok(records) => records,
            Err(e) => {
                p.error = Some(format!("{}: {e}", m.name));
                return p;
            }
        };
        if records.len() != p.jobs[i] {
            p.error = Some(format!(
                "{}: {} of {} jobs",
                m.name,
                records.len(),
                p.jobs[i]
            ));
            return p;
        }
        p.rounds[i] = records.iter().map(|r| r.rows.len()).sum();
        if let Some(r) = records
            .iter()
            .find(|r| r.rows.len() != m.cells[r.cell_index].config.fl.rounds)
        {
            p.error = Some(format!(
                "{} cell {} seed {}: {} of {} rounds",
                m.name,
                r.cell_label,
                r.seed,
                r.rows.len(),
                m.cells[r.cell_index].config.fl.rounds
            ));
        }
        let t = Instant::now();
        let finals: BTreeMap<(usize, u64), FinalMetrics> = records
            .iter()
            .map(|r| ((r.cell_index, r.seed), r.finals))
            .collect();
        let summary = summarize(&FleetFile::of(m), &|cell, seed| finals[&(cell, seed)]);
        p.summaries.push(to_pretty_json(&summary));
        p.summarize_ms += t.elapsed().as_secs_f64() * 1e3;
    }
    p.allocations = ALLOC.delta_since(&before).allocations;
    p.peak_bytes = ALLOC.peak_bytes();
    p.wall_s = p.setup_s + p.run_s() + p.summarize_ms / 1e3;
    p
}

/// Runs the workload for `budget` (at least two passes at two workers),
/// then one pass at one worker whose summaries must be byte-identical.
/// The traced run alternates one- and two-worker passes instead.
pub fn run(seed: u64, budget: Duration, trace: bool) -> Outcome {
    let start = Instant::now();
    let mut two = Vec::new();
    let mut one = Vec::new();
    while another_run(start, budget, two.len(), 2) {
        two.push(pass(seed, WORKERS));
        if trace {
            one.push(pass(seed, 1));
        }
    }
    if one.is_empty() {
        one.push(pass(seed, 1));
    }

    let mut outcome = Outcome::default();
    let reference = &two[0].summaries;
    for (i, p) in two.iter().chain(&one).enumerate() {
        let failure = p.error.clone().or_else(|| {
            (p.summaries != *reference).then(|| {
                "fleet summaries differ from the first two-worker pass (repeat or 1-vs-2 workers)"
                    .to_string()
            })
        });
        outcome.tally(
            p.total_jobs() as u64,
            failure.map(|f| format!("pass {i}: {f}")),
        );
    }

    let col = |ps: &[Pass], f: &dyn Fn(&Pass) -> f64| median(&ps.iter().map(f).collect::<Vec<_>>());
    if !trace {
        // Set-up and heap are medians across passes; timings and rates are
        // the best pass, as for the single-run workloads.
        let best = |f: &dyn Fn(&Pass) -> f64| best_low(two.iter().map(f));
        let rate = |f: &dyn Fn(&Pass) -> f64| best_high(two.iter().map(f));
        let pass_frac = 1.0 - outcome.failed as f64 / outcome.attempted.max(1) as f64;
        outcome.metric("setup_s", col(&two, &|p| p.setup_s), "s");
        outcome.metric("wall_s", best(&|p| p.wall_s), "s");
        outcome.metric(
            "rounds_per_s",
            rate(&|p| p.total_rounds() as f64 / p.run_s()),
            "1/s",
        );
        outcome.metric("round_ms_p50", best(&|p| p.round_ms(0.5)), "ms");
        outcome.metric("round_ms_p90", best(&|p| p.round_ms(0.9)), "ms");
        outcome.metric(
            "runs_per_s",
            rate(&|p| p.total_jobs() as f64 / p.run_s()),
            "1/s",
        );
        outcome.metric("peak_heap_mib", col(&two, &|p| mib(p.peak_bytes)), "MiB");
        outcome.metric("pass_frac", pass_frac, "ratio");
        eprintln!("{} two-worker passes, {} one-worker", two.len(), one.len());
        return outcome;
    }

    outcome.layer("data.generate_ms", col(&two, &|p| p.generate_ms));
    outcome.layer(
        "alloc.allocs_per_round",
        col(&two, &|p| {
            p.allocations as f64 / p.total_rounds().max(1) as f64
        }),
    );
    for (i, &(metric, _, _)) in FLEETS.iter().enumerate() {
        outcome.layer(metric, col(&two, &|p| p.run_ms[i]));
    }
    outcome.layer("harness.summarize_ms", col(&two, &|p| p.summarize_ms));
    outcome.layer("harness.jobs", two[0].total_jobs() as f64);
    outcome.layer("harness.rounds", two[0].total_rounds() as f64);
    outcome.layer(
        "harness.worker_util",
        col(&one, &Pass::run_s) / (WORKERS as f64 * col(&two, &Pass::run_s)),
    );
    outcome.finish_layers(&|name| match name {
        "trace.overhead_ratio" => {
            "fleet spans wrap the same run_fleet and summarize calls the untraced run times"
        }
        "alloc.live_growth_kib_per_round" => {
            "fleet jobs free their runs; growth is measured on the single-run workloads"
        }
        n if n.starts_with("crypto.") => "the shipped fleets are unsigned",
        _ => "inside run_fleet jobs: measured on sync-signed and async-population",
    });
    outcome
}
