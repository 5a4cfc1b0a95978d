//! One whole `SimulationRun` — set-up plus a fixed number of closed-loop
//! rounds — with its wall-clock, heap and correctness record. Shared by
//! the two single-run workloads.

use crate::report::{digest_hex, mix};
use crate::ALLOC;
use bfl_core::events::EventKind;
use bfl_core::{BflConfig, SimulationRun};
use bfl_data::{Dataset, SynthMnist, SynthMnistConfig};
use bfl_ml::gradient;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::time::Instant;

/// A workload's inputs, all derived from the `--seed` argument.
pub struct Workload {
    /// The scenario, with its round count and scenario seed set.
    pub config: BflConfig,
    /// SynthMnist training samples.
    pub train_samples: usize,
    /// SynthMnist test samples.
    pub test_samples: usize,
    /// SynthMnist generator seed.
    pub data_seed: u64,
}

impl Workload {
    /// Fills in the seeds of `config` from the benchmark seed.
    pub fn new(mut config: BflConfig, seed: u64, train: usize, test: usize) -> Workload {
        config.fl.seed = mix(seed, 1);
        Workload {
            config,
            train_samples: train,
            test_samples: test,
            data_seed: mix(seed, 2),
        }
    }

    /// Generates the train/test split.
    pub fn dataset(&self) -> (Dataset, Dataset) {
        SynthMnist::new(SynthMnistConfig {
            train_samples: self.train_samples,
            test_samples: self.test_samples,
            ..SynthMnistConfig::default()
        })
        .generate(&mut StdRng::seed_from_u64(self.data_seed))
    }

    /// Configured rounds per run.
    pub fn rounds(&self) -> usize {
        self.config.fl.rounds
    }
}

/// What identifies a run's result: equal digests mean the same program
/// produced the same chain, model and payouts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunDigest {
    /// Hash of the canonical tip block.
    pub tip: String,
    /// SHA-256 of the final global parameters' wire bytes.
    pub params: String,
    /// Cumulative rewards per client, in milli-units.
    pub rewards: BTreeMap<u64, u64>,
}

impl RunDigest {
    /// One hex string over all three parts.
    pub fn combined(&self) -> String {
        let mut bytes = self.tip.as_bytes().to_vec();
        bytes.extend_from_slice(self.params.as_bytes());
        for (id, amount) in &self.rewards {
            bytes.extend_from_slice(&id.to_le_bytes());
            bytes.extend_from_slice(&amount.to_le_bytes());
        }
        digest_hex(&bytes)
    }
}

/// Per-run sums of the per-round KPI rows and event counts.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    /// Ground-truth attackers the discard strategy dropped.
    pub attackers_dropped: usize,
    /// Uploads entering a block (fresh and stale).
    pub participants: usize,
    /// Stale uploads carried into a block.
    pub stale_included: usize,
    /// Stale uploads discarded.
    pub stale_discarded: usize,
    /// Uploads lost to link faults.
    pub dropped_uploads: usize,
    /// Upload retransmissions.
    pub retried_uploads: usize,
    /// Arrival-buffer depth when each block sealed.
    pub mempool_depth_at_seal: usize,
    /// Event-trace records (counted only when asked).
    pub events: usize,
    /// Local passes scheduled, i.e. uploads commissioned (counted only
    /// when asked).
    pub commissioned: usize,
}

/// The record of one run.
pub struct Repeat {
    /// Dataset generation plus run construction, in seconds.
    pub setup_s: f64,
    /// The dataset-generation part of set-up, in milliseconds.
    pub generate_ms: f64,
    /// Set-up plus every round, in seconds.
    pub wall_s: f64,
    /// Wall time of each `step()`, in milliseconds.
    pub round_ms: Vec<f64>,
    /// Heap high-water mark over set-up and rounds, in bytes.
    pub peak_bytes: usize,
    /// Allocation events per round.
    pub allocs_per_round: f64,
    /// Net live-heap growth per round after the first, in KiB.
    pub live_growth_kib_per_round: f64,
    /// KPI and event sums.
    pub counters: Counters,
    /// The result's identity.
    pub digest: RunDigest,
    /// The first step error or failed invariant, if any.
    pub error: Option<String>,
}

/// Runs `workload` once: generates its data, builds the run and steps
/// every round, then checks the run's invariants (reward ledger equals
/// the chain's payouts, the chain re-validates from genesis, one block
/// per round). With `count_events` it also scans each round's new
/// event-trace records.
pub fn simulate(workload: &Workload, count_events: bool) -> Repeat {
    ALLOC.reset_peak();
    let start = Instant::now();
    let (train, test) = workload.dataset();
    let generate_ms = start.elapsed().as_secs_f64() * 1e3;
    let built = SimulationRun::new(workload.config, &train, &test);
    let setup_s = start.elapsed().as_secs_f64();
    let mut run = match built {
        Ok(run) => run,
        Err(e) => return Repeat::failed(setup_s, generate_ms, format!("run construction: {e}")),
    };

    let rounds = workload.rounds();
    let mut round_ms = Vec::with_capacity(rounds);
    let mut counters = Counters::default();
    let mut error = None;
    let before = ALLOC.snapshot();
    let mut after_first = before;
    let mut seen_events = 0;
    while round_ms.len() < rounds {
        let t = Instant::now();
        let stepped = run.step();
        round_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let outcome = match stepped {
            Ok(Some(outcome)) => outcome,
            Ok(None) => {
                error = Some(format!(
                    "run ended after {} of {rounds} rounds",
                    round_ms.len()
                ));
                break;
            }
            Err(e) => {
                error = Some(format!("round {}: {e}", round_ms.len()));
                break;
            }
        };
        if round_ms.len() == 1 {
            after_first = ALLOC.snapshot();
        }
        let kpi = outcome.kpi;
        counters.attackers_dropped += outcome
            .dropped
            .iter()
            .filter(|id| outcome.attackers.contains(id))
            .count();
        counters.participants += outcome.participants;
        counters.stale_included += kpi.stale_included;
        counters.stale_discarded += kpi.stale_discarded;
        counters.dropped_uploads += kpi.dropped_uploads;
        counters.retried_uploads += kpi.retried_uploads;
        counters.mempool_depth_at_seal += kpi.mempool_depth_at_seal;
        if count_events {
            let trace = run.event_trace();
            let fresh = &trace[seen_events..];
            counters.events += fresh.len();
            counters.commissioned += fresh
                .iter()
                .filter(|r| r.kind == EventKind::TrainingScheduled)
                .count();
            seen_events = trace.len();
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let churn = ALLOC.delta_since(&before);
    let growth = ALLOC.delta_since(&after_first);
    let peak_bytes = ALLOC.peak_bytes();
    let done = round_ms.len().max(1) as f64;

    if error.is_none() {
        error = check_invariants(&run, rounds);
    }
    let ledger = run.reward_totals().clone();
    let result = run.into_result();
    let digest = RunDigest {
        tip: result
            .chain
            .as_ref()
            .map(|c| c.tip().hash_hex())
            .unwrap_or_default(),
        params: digest_hex(&gradient::to_bytes(&result.final_params)),
        rewards: ledger,
    };
    Repeat {
        setup_s,
        generate_ms,
        wall_s,
        allocs_per_round: churn.allocations as f64 / done,
        live_growth_kib_per_round: growth.net_bytes as f64 / 1024.0 / (done - 1.0).max(1.0),
        round_ms,
        peak_bytes,
        counters,
        digest,
        error,
    }
}

/// Run-level invariants that must hold after every run.
fn check_invariants(run: &SimulationRun<'_>, rounds: usize) -> Option<String> {
    let Some(chain) = run.chain() else {
        return Some("the run mined no chain".into());
    };
    if let Err(e) = chain.validate_all() {
        return Some(format!("canonical chain fails validation: {e}"));
    }
    if chain.height() != rounds as u64 {
        return Some(format!(
            "chain height {} != {rounds} rounds",
            chain.height()
        ));
    }
    if &chain.reward_totals() != run.reward_totals() {
        return Some("reward ledger differs from the chain's reward transactions".into());
    }
    None
}

impl Repeat {
    fn failed(setup_s: f64, generate_ms: f64, error: String) -> Repeat {
        Repeat {
            setup_s,
            generate_ms,
            wall_s: setup_s,
            round_ms: Vec::new(),
            peak_bytes: ALLOC.peak_bytes(),
            allocs_per_round: 0.0,
            live_growth_kib_per_round: 0.0,
            counters: Counters::default(),
            digest: RunDigest {
                tip: String::new(),
                params: String::new(),
                rewards: BTreeMap::new(),
            },
            error: Some(error),
        }
    }

    /// Rounds after set-up per second of this run.
    pub fn rounds_per_s(&self) -> f64 {
        self.round_ms.len() as f64 / (self.wall_s - self.setup_s)
    }
}

/// Records `repeats` against `outcome`: every run's rounds are attempted,
/// and all of a run's rounds fail when the run errored, broke an
/// invariant, missed its mechanism check, or its digest differs from the
/// first run of the same seed.
pub fn tally(
    outcome: &mut crate::report::Outcome,
    repeats: &[Repeat],
    rounds: usize,
    mechanism: &dyn Fn(&Repeat) -> Option<String>,
) {
    for (i, r) in repeats.iter().enumerate() {
        let failure = r
            .error
            .clone()
            .or_else(|| mechanism(r))
            .or_else(|| {
                (r.digest != repeats[0].digest).then(|| {
                    format!(
                        "run {i} digest {} differs from run 0 digest {}",
                        r.digest.combined(),
                        repeats[0].digest.combined()
                    )
                })
            })
            .map(|f| format!("run {i}: {f}"));
        outcome.tally(rounds as u64, failure);
    }
}

/// Adds the end-to-end metrics shared by the single-run workloads. Set-up
/// and heap are medians across runs; timings and rates are the best run
/// (see [`best_low`]). Each run's 100 (or 40) rounds leave ten (or four)
/// samples above its 90th percentile.
///
/// [`best_low`]: crate::report::best_low
pub fn end_to_end(outcome: &mut crate::report::Outcome, repeats: &[Repeat]) {
    use crate::report::{best_high, best_low, median, mib, quantile};
    let col = |f: &dyn Fn(&Repeat) -> f64| repeats.iter().map(f).collect::<Vec<f64>>();
    let pass = 1.0 - outcome.failed as f64 / outcome.attempted.max(1) as f64;
    let wall = best_low(col(&|r| r.wall_s));
    outcome.metric("setup_s", median(&col(&|r| r.setup_s)), "s");
    outcome.metric("wall_s", wall, "s");
    outcome.metric("rounds_per_s", best_high(col(&Repeat::rounds_per_s)), "1/s");
    outcome.metric(
        "round_ms_p50",
        best_low(col(&|r| quantile(&r.round_ms, 0.5))),
        "ms",
    );
    outcome.metric(
        "round_ms_p90",
        best_low(col(&|r| quantile(&r.round_ms, 0.9))),
        "ms",
    );
    outcome.metric("runs_per_s", 1.0 / wall, "1/s");
    outcome.metric("peak_heap_mib", median(&col(&|r| mib(r.peak_bytes))), "MiB");
    outcome.metric("pass_frac", pass, "ratio");
    eprintln!(
        "{} runs of {} rounds",
        repeats.len(),
        repeats[0].round_ms.len()
    );
}
