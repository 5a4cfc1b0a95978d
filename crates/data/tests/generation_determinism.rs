//! Determinism contract of the SynthMnist generator.
//!
//! Generation fans rows out across worker threads, each replaying its
//! slice of one RNG stream. These tests pin that the output — every
//! feature bit, every label, and where the caller's RNG is left — is
//! independent of the thread count, and that the default split still
//! hashes to the digest of the original serial generator.

use bfl_crypto::sha256::{to_hex, Sha256};
use bfl_data::synth_mnist::IMAGE_PIXELS;
use bfl_data::{Dataset, SynthMnist, SynthMnistConfig};
use bfl_ml::par::with_thread_limit;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Seed of the golden-digest splits below.
const GOLDEN_SEED: u64 = 2022;

fn feature_bits(data: &Dataset) -> Vec<u64> {
    data.features.data.iter().map(|v| v.to_bits()).collect()
}

fn hash_into(hasher: &mut Sha256, data: &Dataset) {
    for value in &data.features.data {
        hasher.update(&value.to_bits().to_le_bytes());
    }
    for &label in &data.labels {
        hasher.update(&(label as u64).to_le_bytes());
    }
}

/// Generates both splits under `limit` threads and returns them with
/// the next draw of the caller's RNG.
fn generate_at(gen: &SynthMnist, seed: u64, limit: usize) -> (Dataset, Dataset, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (train, test) = with_thread_limit(limit, || gen.generate(&mut rng));
    (train, test, rng.next_u64())
}

/// The draw the caller's RNG must produce next after generating
/// `samples` rows at `draws_per_sample` draws each.
fn draw_after(seed: u64, samples: usize, draws_per_sample: usize) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..samples * draws_per_sample {
        rng.next_u64();
    }
    rng.next_u64()
}

fn assert_thread_count_invariant(config: SynthMnistConfig, draws_per_sample: usize) {
    let gen = SynthMnist::new(config);
    let seed = 77;
    let (train, test, next) = generate_at(&gen, seed, 1);
    assert_eq!(train.len(), config.train_samples);
    assert_eq!(test.len(), config.test_samples);
    let samples = config.train_samples + config.test_samples;
    assert_eq!(next, draw_after(seed, samples, draws_per_sample));
    for limit in [2, 4, 8] {
        let (p_train, p_test, p_next) = generate_at(&gen, seed, limit);
        assert_eq!(
            feature_bits(&p_train),
            feature_bits(&train),
            "limit={limit}"
        );
        assert_eq!(feature_bits(&p_test), feature_bits(&test), "limit={limit}");
        assert_eq!(p_train.labels, train.labels, "limit={limit}");
        assert_eq!(p_test.labels, test.labels, "limit={limit}");
        assert_eq!(p_next, next, "caller RNG position differs at limit={limit}");
    }
}

#[test]
fn noisy_generation_is_bit_identical_for_any_thread_count() {
    // 203 and 37 rows split unevenly over 2, 4 and 8 workers.
    assert_thread_count_invariant(
        SynthMnistConfig {
            train_samples: 203,
            test_samples: 37,
            ..SynthMnistConfig::default()
        },
        4 + 2 * IMAGE_PIXELS,
    );
}

#[test]
fn noise_free_generation_is_bit_identical_for_any_thread_count() {
    assert_thread_count_invariant(
        SynthMnistConfig {
            train_samples: 301,
            test_samples: 45,
            noise_std: 0.0,
            ..SynthMnistConfig::default()
        },
        4,
    );
}

#[test]
fn render_sample_matches_the_first_generated_row() {
    let gen = SynthMnist::new(SynthMnistConfig::default());
    for seed in [1, 2, 3] {
        let sample = gen.render_sample(0, &mut StdRng::seed_from_u64(seed));
        let split = gen.generate_split(96, &mut StdRng::seed_from_u64(seed));
        let row: Vec<u64> = split.features.row(0).iter().map(|v| v.to_bits()).collect();
        let rendered: Vec<u64> = sample.iter().map(|v| v.to_bits()).collect();
        assert_eq!(rendered, row, "seed={seed}");
    }
}

/// SHA-256 over the feature bits and labels of both splits generated
/// from `StdRng::seed_from_u64(GOLDEN_SEED)`.
fn split_digest(config: SynthMnistConfig) -> String {
    let gen = SynthMnist::new(config);
    let (train, test) = gen.generate(&mut StdRng::seed_from_u64(GOLDEN_SEED));
    let mut hasher = Sha256::new();
    hash_into(&mut hasher, &train);
    hash_into(&mut hasher, &test);
    to_hex(&hasher.finalize())
}

// Both digests were recorded from the original one-row-at-a-time
// generator.

#[test]
fn default_split_matches_the_golden_digest() {
    assert_eq!(
        split_digest(SynthMnistConfig::default()),
        "5bd228139335e3c560684746217597f81c7443b3bf353af38aec711d9396ba72"
    );
}

#[test]
fn strokes_clipped_at_the_canvas_edges_match_the_golden_digest() {
    // A ±9 pixel translation pushes strokes past all four edges; without
    // noise the digest covers the disc painter alone.
    let config = SynthMnistConfig {
        train_samples: 500,
        test_samples: 100,
        noise_std: 0.0,
        max_translation: 9.0,
    };
    assert_eq!(
        split_digest(config),
        "c9efbee394ad80361f4ad021e1bbd98d96b4488bb4223fad8a8071a54b7a49f2"
    );
}
