//! `async-population`: one event-engine run over a million clients.
//!
//! Flexible quota (4/5 of the 250 participants per round) over a 1M-client
//! implicit IID population (20 samples per client), lazy provisioning,
//! streaming Procedure IV in chunks of 128, 3 miners; 30% stragglers at
//! 8×, 20% churn (2 s on, 3 s off), normal(0.08, 0.03) uplink delay, 15%
//! uplink drop with 3-attempt backoff retries, decayed-include staleness
//! at 0.5. Unsigned and attacker-free, so it exercises the event queue,
//! the implicit population and streaming aggregation without crypto or
//! O(n²) clustering.

use crate::report::{another_run, median, Outcome};
use crate::simrun::{self, Repeat, Workload};
use bfl_core::{
    AggregationMode, BflConfig, ProfileConfig, ProvisioningMode, RetryPolicy, StalenessPolicy,
    SyncMode,
};
use bfl_fl::config::PartitionKind;
use bfl_net::{DelayDistribution, FaultPlan, LinkFaults};
use std::time::{Duration, Instant};

/// Rounds per run: about two seconds of rounds on a 2-core host, and
/// enough that each run has four rounds above its 90th percentile.
const ROUNDS: usize = 40;
const POPULATION: usize = 1_000_000;
const PARTICIPANTS: usize = 250;

fn workload(seed: u64) -> Workload {
    let mut config = BflConfig::default();
    config.fl.clients = POPULATION;
    config.fl.participation_ratio = PARTICIPANTS as f64 / POPULATION as f64;
    config.fl.rounds = ROUNDS;
    config.fl.local.epochs = 1;
    config.fl.local.batch_size = 10;
    config.fl.partition = PartitionKind::ImplicitIid {
        samples_per_client: 20,
    };
    config.miners = 3;
    config.verify_signatures = false;
    config.sync = SyncMode::FlexibleQuota {
        quota: PARTICIPANTS * 4 / 5,
    };
    config.staleness = StalenessPolicy::DecayedInclude { decay: 0.5 };
    config.profiles = ProfileConfig {
        straggler_slowdown: 8.0,
        straggler_fraction: 0.3,
        uplink: DelayDistribution::Normal {
            mean: 0.08,
            std: 0.03,
        },
        churn_fraction: 0.2,
        churn_online_s: 2.0,
        churn_offline_s: 3.0,
    };
    config.fault = FaultPlan {
        uplink: LinkFaults {
            drop_rate: 0.15,
            ..LinkFaults::default()
        },
        ..FaultPlan::default()
    };
    config.retry = RetryPolicy::Backoff {
        max_attempts: 3,
        timeout_s: 0.5,
        base_s: 0.5,
        factor: 2.0,
        jitter_s: 0.1,
    };
    config.provisioning = ProvisioningMode::Lazy {
        cache_budget: 2 * PARTICIPANTS,
    };
    config.aggregation = AggregationMode::Streaming { chunk: 128 };
    // A block carries O(participants) reward entries.
    config.delay.max_block_bytes = (512 * 1024).max(192 * PARTICIPANTS);
    Workload::new(config, seed, 6000, 1000)
}

/// Stale carry-over and retries must both engage.
fn mechanism(r: &Repeat) -> Option<String> {
    let c = r.counters;
    (c.stale_included == 0 || c.retried_uploads == 0).then(|| {
        format!(
            "mechanism idle: {} stale uploads included, {} retried",
            c.stale_included, c.retried_uploads
        )
    })
}

/// Runs the workload for `budget` (at least three runs). The traced run
/// alternates plain runs with runs that also scan the event trace, and
/// reports counts only: per-layer times inside the event engine need
/// spans inside the program.
pub fn run(seed: u64, budget: Duration, trace: bool) -> Outcome {
    let w = workload(seed);
    let start = Instant::now();
    let mut plain = Vec::new();
    let mut counted = Vec::new();
    while another_run(start, budget, plain.len(), 3) {
        plain.push(simrun::simulate(&w, false));
        if trace {
            counted.push(simrun::simulate(&w, true));
        }
    }
    let mut outcome = Outcome::default();
    let all: Vec<Repeat> = plain.into_iter().chain(counted).collect();
    simrun::tally(&mut outcome, &all, w.rounds(), &mechanism);
    if !trace {
        simrun::end_to_end(&mut outcome, &all);
        return outcome;
    }
    let (plain, counted) = all.split_at(all.len() / 2);
    let c = |f: &dyn Fn(&simrun::Counters) -> usize| {
        counted.iter().map(|r| f(&r.counters)).sum::<usize>() as f64
    };
    outcome.layer(
        "data.generate_ms",
        median(&counted.iter().map(|r| r.generate_ms).collect::<Vec<_>>()),
    );
    event_layers(&mut outcome, counted);
    outcome.layer(
        "core.useful_upload_ratio",
        c(&|c| c.participants) / c(&|c| c.commissioned),
    );
    let wall = |rs: &[Repeat]| median(&rs.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    outcome.layer("trace.overhead_ratio", wall(counted) / wall(plain));
    outcome.finish_layers(&|name| {
        if name.starts_with("harness.") {
            "fleet-harness metric: measured on fleet-mixed only"
        } else if name.starts_with("crypto.") {
            "the workload is unsigned"
        } else {
            "per-layer times inside the event engine need in-program spans (ROADMAP item 2)"
        }
    });
    outcome
}

/// Per-round event, KPI and allocation counts of `runs` (which scanned
/// their event traces).
pub fn event_layers(outcome: &mut Outcome, runs: &[Repeat]) {
    let rounds: f64 = runs.iter().map(|r| r.round_ms.len()).sum::<usize>().max(1) as f64;
    let per_round = |f: &dyn Fn(&simrun::Counters) -> usize| {
        runs.iter().map(|r| f(&r.counters)).sum::<usize>() as f64 / rounds
    };
    outcome.layer("net.events_per_round", per_round(&|c| c.events));
    outcome.layer("net.dropped_uploads", per_round(&|c| c.dropped_uploads));
    outcome.layer("net.retried_uploads", per_round(&|c| c.retried_uploads));
    outcome.layer("core.stale_included", per_round(&|c| c.stale_included));
    outcome.layer("core.stale_discarded", per_round(&|c| c.stale_discarded));
    outcome.layer(
        "core.mempool_depth_at_seal",
        per_round(&|c| c.mempool_depth_at_seal),
    );
    let col = |f: &dyn Fn(&Repeat) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    outcome.layer("alloc.allocs_per_round", col(&|r| r.allocs_per_round));
    outcome.layer(
        "alloc.live_growth_kib_per_round",
        col(&|r| r.live_growth_kib_per_round),
    );
}
