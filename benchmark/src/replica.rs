//! The lockstep round replayed from public calls, with a span around each
//! layer.
//!
//! `SimulationRun` gives no view inside a round, so the traced
//! `sync-signed` run rebuilds the synchronous FullBfl path from the same
//! public procedure functions the engine calls, in the engine's order and
//! with its RNG draws mirrored one for one. The replica is trusted only
//! because it is checked: for the same seed it must end on the untraced
//! run's tip hash, parameter digest and reward totals, or the run fails.
//!
//! Scope: FullBfl, `SyncMode::Synchronous`, a materialized partition and
//! eager keys — exactly the `sync-signed` workload.

use crate::simrun::RunDigest;
use bfl_chain::consensus::RoundConsensus;
use bfl_chain::miner::Miner;
use bfl_chain::PowConfig;
use bfl_core::procedures::global_update::{compute_global_update, GlobalUpdatePolicy};
use bfl_core::procedures::{exchange, local_update, mining, upload};
use bfl_core::{BflConfig, ProportionalReward};
use bfl_crypto::{KeyStore, RsaKeyPair};
use bfl_data::Dataset;
use bfl_fl::attack::AttackKind;
use bfl_fl::client::{Client, LocalUpdate};
use bfl_fl::selection::{drop_stragglers, select_clients};
use bfl_fl::trainer::{FlAlgorithm, FlTrainer};
use bfl_ml::gradient;
use bfl_ml::metrics::accuracy;
use bfl_ml::model::{AnyModel, Model};
use bfl_net::{SimClock, Topology};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::time::Instant;

/// The engine's key-stream salt (`fl.seed ^ KEY_SALT`, documented with
/// `LazyKeyVault`): keys come from their own stream so crypto never
/// perturbs the learning trajectory.
const KEY_SALT: u64 = 0x5EED_0F4B;

/// Milliseconds since `t`.
fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Set-up spans of one replica, in milliseconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupSpans {
    /// Shard partition and client construction.
    pub partition_ms: f64,
    /// Eager RSA provisioning of every client (`KeyStore::provision`).
    pub keygen_ms: f64,
}

/// One round's spans (milliseconds) and counts.
#[derive(Debug, Default, Clone, Copy)]
pub struct RoundSpans {
    /// Cooldowns, Procedure-I selection and the attacker draw.
    pub select_ms: f64,
    /// Clients selected, i.e. uploads commissioned.
    pub selected: f64,
    /// Local SGD of every participant.
    pub train_ms: f64,
    /// Training samples processed (shard sizes × epochs).
    pub train_samples: f64,
    /// Procedure II: serialize, sign and verify every upload.
    pub upload_ms: f64,
    /// Bytes SHA-256 consumed by signing plus verifying.
    pub bytes_hashed: f64,
    /// Uploads that failed verification.
    pub rejected: f64,
    /// Procedure III.
    pub exchange_ms: f64,
    /// Procedure IV: Algorithm 2 plus Equation 1.
    pub global_update_ms: f64,
    /// Gradients clustered by Algorithm 2.
    pub cluster_points: f64,
    /// Clients the discard strategy dropped.
    pub dropped: f64,
    /// Procedure V: block assembly, PoW and replication.
    pub mine_ms: f64,
    /// Nonces the winning miner hashed.
    pub pow_hashes: f64,
    /// Serialized size of the sealed block.
    pub block_bytes: f64,
    /// Test-set evaluation of the new global model.
    pub eval_ms: f64,
}

/// A lockstep FullBfl run rebuilt from public calls.
pub struct Replica<'a> {
    config: BflConfig,
    train: &'a Dataset,
    test: &'a Dataset,
    rng: StdRng,
    clients: Vec<Client>,
    pairs: BTreeMap<u64, RsaKeyPair>,
    store: KeyStore,
    consensus: RoundConsensus,
    topology: Topology,
    model: AnyModel,
    params: Vec<f64>,
    clock: SimClock,
    cooldown: BTreeMap<u64, usize>,
    reward_totals: BTreeMap<u64, u64>,
}

impl<'a> Replica<'a> {
    /// Provisions the run exactly as `SimulationRun::new` does.
    pub fn new(
        config: BflConfig,
        train: &'a Dataset,
        test: &'a Dataset,
    ) -> Result<(Self, SetupSpans), String> {
        let mut rng = StdRng::seed_from_u64(config.fl.seed);
        let t = Instant::now();
        let clients = FlTrainer::new(config.fl, FlAlgorithm::FedAvg).build_clients(train, &mut rng);
        let partition_ms = ms(t);

        let t = Instant::now();
        let mut key_rng = StdRng::seed_from_u64(config.fl.seed ^ KEY_SALT);
        let mut store = KeyStore::new();
        let ids: Vec<u64> = (0..config.fl.clients as u64).collect();
        let pairs = store
            .provision(&mut key_rng, &ids, config.rsa_modulus_bits)
            .map_err(|e| format!("key provisioning: {e}"))?;
        let keygen_ms = ms(t);

        let miners = (0..config.miners as u64)
            .map(|id| Miner::new(id, config.delay.miner_hash_rate))
            .collect();
        let mut consensus = RoundConsensus::new(
            miners,
            PowConfig::new(64).with_mining_threads(config.mining_threads),
        );
        for replica in &mut consensus.replicas {
            replica.max_block_bytes = config.delay.max_block_bytes;
        }
        let model = config.fl.model.build(&mut rng);
        let params = model.params();
        let replica = Replica {
            config,
            train,
            test,
            rng,
            clients,
            pairs,
            store,
            consensus,
            topology: Topology::new(config.fl.clients, config.miners),
            model,
            params,
            clock: SimClock::new(),
            cooldown: BTreeMap::new(),
            reward_totals: BTreeMap::new(),
        };
        Ok((
            replica,
            SetupSpans {
                partition_ms,
                keygen_ms,
            },
        ))
    }

    /// Runs round `round` (1-based). `keep_uploads` receives the round's
    /// local updates when given, for the crypto probe.
    pub fn step(
        &mut self,
        round: usize,
        keep_uploads: Option<&mut Vec<LocalUpdate>>,
    ) -> Result<RoundSpans, String> {
        let config = self.config;
        let mut spans = RoundSpans::default();

        let t = Instant::now();
        self.cooldown.retain(|_, remaining| {
            *remaining = remaining.saturating_sub(1);
            *remaining > 0
        });
        let k = config.fl.selected_per_round();
        let active: Vec<usize> = (0..self.clients.len())
            .filter(|&i| !self.cooldown.contains_key(&self.clients[i].id))
            .collect();
        let selected = if active.is_empty() {
            select_clients(self.clients.len(), k, &mut self.rng)
        } else {
            select_clients(active.len(), k, &mut self.rng)
                .into_iter()
                .map(|i| active[i])
                .collect()
        };
        let selected = drop_stragglers(&selected, config.fl.drop_percent, &mut self.rng);
        let attacks = self.designate_attackers(selected.len());
        spans.select_ms = ms(t);
        spans.selected = selected.len() as f64;

        let t = Instant::now();
        let round_seed = config.fl.seed ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let updates = local_update::run_local_updates_with_attacks(
            &self.clients,
            &selected,
            &attacks,
            config.fl.model,
            &self.params,
            self.train,
            &config.fl.local,
            round_seed,
        );
        let max_steps = local_update::max_local_steps(&self.clients, &selected, &config.fl.local);
        spans.train_ms = ms(t);
        spans.train_samples = selected
            .iter()
            .map(|&p| self.clients[p].shard.len() * config.fl.local.epochs)
            .sum::<usize>() as f64;

        let t = Instant::now();
        let uploads = upload::upload_gradients(
            &updates,
            &self.topology,
            Some(&self.pairs),
            Some(&self.store),
            &mut self.rng,
        );
        spans.upload_ms = ms(t);
        // `sign_message` and the verifier each hash `signer || payload`.
        spans.bytes_hashed = updates
            .iter()
            .filter(|u| self.pairs.contains_key(&u.client_id))
            .map(|u| 2 * (8 + 8 * u.params.len()))
            .sum::<usize>() as f64;
        spans.rejected = uploads.rejected.len() as f64;
        if let Some(keep) = keep_uploads {
            keep.extend(updates.iter().cloned());
        }

        let t = Instant::now();
        let merged = exchange::exchange_gradients(uploads, config.miners).merged;
        spans.exchange_ms = ms(t);
        if merged.is_empty() {
            return Err(format!("round {round}: no upload survived verification"));
        }

        let t = Instant::now();
        let reward = ProportionalReward {
            base: config.reward_base,
        };
        let mut global = compute_global_update(
            &merged,
            &GlobalUpdatePolicy {
                clustering: &config.clustering,
                metric: config.metric,
                strategy: config.strategy,
                fair_aggregation: config.fair_aggregation,
                anchor: config.anchor,
                round,
                reward: &reward,
            },
        );
        self.params = std::mem::take(&mut global.global_params);
        self.model.set_params(&self.params);
        spans.global_update_ms = ms(t);
        spans.cluster_points = merged.len() as f64;
        spans.dropped = global.dropped.len() as f64;

        let t = Instant::now();
        let sealed = mining::mine_round(
            &mut self.consensus,
            round as u64,
            &self.params,
            &global.report.rewards,
            self.clock.now_millis(),
            &mut self.rng,
        )
        .map_err(|e| format!("round {round}: mining: {e}"))?;
        spans.mine_ms = ms(t);
        // The serial nonce search starts at 0 and stops at the winner.
        spans.pow_hashes = (sealed.block.header.nonce + 1) as f64;
        spans.block_bytes = sealed.block.size_bytes() as f64;

        if config.strategy.discards() {
            for &id in &global.dropped {
                self.cooldown
                    .insert(id, config.discard_cooldown_rounds.max(1));
            }
        }
        let breakdown =
            config
                .delay
                .fair_round(merged.len(), max_steps, config.miners, &mut self.rng);
        self.clock.advance(breakdown.total());

        let t = Instant::now();
        std::hint::black_box(accuracy(
            &self.model,
            &self.test.features,
            &self.test.labels,
            None,
        ));
        spans.eval_ms = ms(t);

        for reward in &global.report.rewards {
            *self.reward_totals.entry(reward.client_id).or_insert(0) += reward.amount_milli;
        }
        Ok(spans)
    }

    /// The engine's attacker draw: a count from `gen_range` (skipped when
    /// the range is a single value), then a shuffle of the positions.
    fn designate_attackers(&mut self, selected: usize) -> Vec<Option<AttackKind>> {
        let attack = self.config.attack;
        let mut attacks = vec![None; selected];
        if attack.enabled && selected > 0 {
            let max = attack.max_attackers.min(selected);
            let min = attack.min_attackers.min(max);
            let count = if min == max {
                min
            } else {
                self.rng.gen_range(min..=max)
            };
            let mut order: Vec<usize> = (0..selected).collect();
            order.shuffle(&mut self.rng);
            for &i in order.iter().take(count) {
                attacks[i] = Some(attack.kind);
            }
        }
        attacks
    }

    /// The replica's result identity, comparable with the engine's.
    pub fn digest(&self) -> RunDigest {
        RunDigest {
            tip: self.consensus.canonical_chain().tip().hash_hex(),
            params: crate::report::digest_hex(&gradient::to_bytes(&self.params)),
            rewards: self.reward_totals.clone(),
        }
    }

    /// The key material, for the crypto probe.
    pub fn keys(&self) -> (&BTreeMap<u64, RsaKeyPair>, &KeyStore) {
        (&self.pairs, &self.store)
    }
}
