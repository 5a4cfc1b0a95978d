//! `sync-signed`: one lockstep, signed FullBfl run at paper scale.
//!
//! 100 clients, λ = 0.2 (20 per round), E = 1, batch 10, shard non-IID,
//! 2 miners, SynthMnist 6000/1000, 1–3 sign-flip attackers per round
//! under the discard strategy, RSA signatures with 256-bit keys (the size
//! every shipped config uses). Every blocking layer of the lockstep round
//! does real work here, and it is the only workload that runs crypto.

use crate::replica::{Replica, RoundSpans, SetupSpans};
use crate::report::{another_run, median, Outcome};
use crate::simrun::{self, Repeat, RunDigest, Workload};
use bfl_core::{AttackConfig, BflConfig, LowContributionStrategy};
use bfl_crypto::signature::sign_message;
use bfl_crypto::{sha256, BatchVerifier};
use bfl_fl::client::LocalUpdate;
use bfl_ml::gradient;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Rounds per run: the paper's 100, so rounds outweigh the ~0.5 s set-up
/// and a 40 s budget still repeats the set-up about 30 times.
const ROUNDS: usize = 100;
/// Rounds of the first traced run whose uploads feed the crypto probe.
const PROBE_ROUNDS: usize = 5;
/// Serial passes of the crypto probe over the kept uploads.
const PROBE_PASSES: usize = 5;

fn workload(seed: u64) -> Workload {
    let mut config = BflConfig::default();
    config.fl.clients = 100;
    config.fl.participation_ratio = 0.2;
    config.fl.rounds = ROUNDS;
    config.fl.local.epochs = 1;
    config.fl.local.batch_size = 10;
    config.miners = 2;
    config.attack = AttackConfig::table2();
    config.strategy = LowContributionStrategy::Discard;
    config.verify_signatures = true;
    config.rsa_modulus_bits = 256;
    Workload::new(config, seed, 6000, 1000)
}

/// The discard strategy must actually catch attackers.
fn mechanism(r: &Repeat) -> Option<String> {
    (r.counters.attackers_dropped == 0).then(|| "no attacker was dropped".to_string())
}

/// Runs the workload for `budget` (at least three runs).
pub fn run(seed: u64, budget: Duration, trace: bool) -> Outcome {
    let w = workload(seed);
    if trace {
        return traced(&w, budget);
    }
    let start = Instant::now();
    let mut repeats = Vec::new();
    while another_run(start, budget, repeats.len(), 3) {
        repeats.push(simrun::simulate(&w, false));
    }
    let mut outcome = Outcome::default();
    simrun::tally(&mut outcome, &repeats, w.rounds(), &mechanism);
    simrun::end_to_end(&mut outcome, &repeats);
    outcome
}

/// One traced run of the replica.
struct TracedRepeat {
    wall_s: f64,
    generate_ms: f64,
    setup: SetupSpans,
    rounds: Vec<RoundSpans>,
    error: Option<String>,
}

/// Alternates untraced engine runs with traced replica runs until the
/// budget is spent; every replica must reproduce the engine's digest.
fn traced(w: &Workload, budget: Duration) -> Outcome {
    let start = Instant::now();
    let mut plain: Vec<Repeat> = Vec::new();
    let mut traced: Vec<TracedRepeat> = Vec::new();
    let mut probe = None;
    while another_run(start, budget, plain.len(), 2) {
        plain.push(simrun::simulate(w, true));
        let (repeat, probed) = replica_run(w, &plain[0].digest, probe.is_none());
        traced.push(repeat);
        probe = probe.or(probed);
    }

    let mut outcome = Outcome::default();
    simrun::tally(&mut outcome, &plain, w.rounds(), &mechanism);
    for (i, t) in traced.iter().enumerate() {
        outcome.tally(
            w.rounds() as u64,
            t.error.clone().map(|e| format!("traced run {i}: {e}")),
        );
    }
    let probe = probe.unwrap_or_else(|| Err("no traced run reached the probe".into()));

    let per_run =
        |f: &dyn Fn(&TracedRepeat) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let all: Vec<&RoundSpans> = traced.iter().flat_map(|t| &t.rounds).collect();
    let per_round =
        |f: &dyn Fn(&RoundSpans) -> f64| median(&all.iter().map(|s| f(s)).collect::<Vec<_>>());
    let mean = |f: &dyn Fn(&RoundSpans) -> f64| {
        all.iter().map(|s| f(s)).sum::<f64>() / all.len().max(1) as f64
    };
    outcome.layer("data.generate_ms", per_run(&|t| t.generate_ms));
    outcome.layer("fl.partition_ms", per_run(&|t| t.setup.partition_ms));
    outcome.layer("crypto.keygen_ms", per_run(&|t| t.setup.keygen_ms));
    outcome.layer("fl.select_ms", per_round(&|s| s.select_ms));
    outcome.layer("ml.train_ms", per_round(&|s| s.train_ms));
    outcome.layer("ml.train_samples", mean(&|s| s.train_samples));
    outcome.layer("crypto.upload_ms", per_round(&|s| s.upload_ms));
    outcome.layer("crypto.bytes_hashed", mean(&|s| s.bytes_hashed));
    outcome.layer("crypto.rejected", mean(&|s| s.rejected));
    outcome.layer("core.exchange_ms", per_round(&|s| s.exchange_ms));
    outcome.layer("core.global_update_ms", per_round(&|s| s.global_update_ms));
    outcome.layer("cluster.points", mean(&|s| s.cluster_points));
    outcome.layer("core.dropped", mean(&|s| s.dropped));
    outcome.layer("chain.mine_ms", per_round(&|s| s.mine_ms));
    outcome.layer("chain.pow_hashes", mean(&|s| s.pow_hashes));
    outcome.layer("chain.block_bytes", mean(&|s| s.block_bytes));
    outcome.layer("ml.eval_ms", per_round(&|s| s.eval_ms));
    match probe {
        Ok([serialize, sha, sign, verify]) => {
            outcome.layer("crypto.serialize_us", serialize);
            outcome.layer("crypto.sha256_us", sha);
            outcome.layer("crypto.sign_us", sign);
            outcome.layer("crypto.verify_us", verify);
        }
        Err(e) => outcome.tally(1, Some(format!("crypto probe: {e}"))),
    }
    outcome.layer(
        "core.useful_upload_ratio",
        mean(&|s| s.cluster_points) / mean(&|s| s.selected),
    );
    crate::population::event_layers(&mut outcome, &plain);
    let plain_wall = median(&plain.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    outcome.layer("trace.overhead_ratio", per_run(&|t| t.wall_s) / plain_wall);
    outcome.finish_layers(&|_| "fleet-harness metric: measured on fleet-mixed only");
    outcome
}

/// Runs the replica once over fresh data and checks it ends on the
/// engine's `reference` digest. With `probe`, keeps the first rounds'
/// uploads and runs the crypto probe on them after the timed part.
fn replica_run(
    w: &Workload,
    reference: &RunDigest,
    probe: bool,
) -> (TracedRepeat, Option<Result<[f64; 4], String>>) {
    let start = Instant::now();
    let (train, test) = w.dataset();
    let generate_ms = start.elapsed().as_secs_f64() * 1e3;
    let mut repeat = TracedRepeat {
        wall_s: 0.0,
        generate_ms,
        setup: SetupSpans::default(),
        rounds: Vec::with_capacity(w.rounds()),
        error: None,
    };
    let (mut replica, setup) = match Replica::new(w.config, &train, &test) {
        Ok(built) => built,
        Err(e) => {
            repeat.error = Some(e);
            return (repeat, None);
        }
    };
    repeat.setup = setup;
    let mut kept: Vec<LocalUpdate> = Vec::new();
    for round in 1..=w.rounds() {
        let keep = (probe && round <= PROBE_ROUNDS).then_some(&mut kept);
        match replica.step(round, keep) {
            Ok(spans) => repeat.rounds.push(spans),
            Err(e) => {
                repeat.error = Some(e);
                break;
            }
        }
    }
    repeat.wall_s = start.elapsed().as_secs_f64();
    if repeat.error.is_none() && replica.digest() != *reference {
        repeat.error = Some(format!(
            "replica digest {} differs from the engine's {}",
            replica.digest().combined(),
            reference.combined()
        ));
    }
    let probed = probe.then(|| crypto_probe(&replica, &kept));
    (repeat, probed)
}

/// Times serialize, SHA-256, sign and cached verify serially on each kept
/// upload's real payload; returns the per-call medians in microseconds.
fn crypto_probe(replica: &Replica<'_>, uploads: &[LocalUpdate]) -> Result<[f64; 4], String> {
    let (pairs, store) = replica.keys();
    let mut verifier = BatchVerifier::new();
    let mut samples: [Vec<f64>; 4] = Default::default();
    let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
    for _ in 0..PROBE_PASSES {
        for update in uploads {
            let pair = pairs
                .get(&update.client_id)
                .ok_or_else(|| format!("client {} has no key", update.client_id))?;
            let t = Instant::now();
            let payload = black_box(gradient::to_bytes(&update.params));
            samples[0].push(us(t));
            let t = Instant::now();
            black_box(sha256(&payload));
            samples[1].push(us(t));
            let t = Instant::now();
            let envelope = black_box(sign_message(update.client_id, &payload, &pair.private));
            samples[2].push(us(t));
            let t = Instant::now();
            let verdict = store.verify_cached(&envelope, &mut verifier);
            samples[3].push(us(t));
            verdict.map_err(|e| format!("client {}: {e}", update.client_id))?;
        }
    }
    if uploads.is_empty() {
        return Err("no uploads kept".into());
    }
    Ok(samples.map(|s| median(&s)))
}
