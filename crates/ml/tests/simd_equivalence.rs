//! SIMD == scalar, bit-for-bit, under proptest: every dispatched kernel
//! of the AVX2+FMA tier must reproduce the frozen scalar accumulation
//! order exactly — `to_bits()` equality, not an epsilon — across
//! arbitrary shapes (empty operands, sub-`LANES` remainders, stripe
//! tails, both `gemm_nt` cache regimes, `gram` tiles and edges) and
//! adversarial values (signed zeros, subnormals, magnitudes that stress
//! rounding).
//!
//! The tier is pinned per comparison with [`simd::set_enabled`], which
//! flips a process-global atomic; [`tier_lock`] serializes every
//! comparison in this binary so concurrently running tests never observe
//! each other's tier. On hosts without AVX2+FMA, forcing the vector tier
//! is a no-op and each comparison degenerates to scalar == scalar —
//! vacuous but harmless (CI's `BFL_SIMD=off` leg covers the scalar tier
//! explicitly either way).

use std::sync::{Mutex, MutexGuard};

use bfl_ml::model::{AnyModel, Model, ModelKind};
use bfl_ml::tensor::{self, Matrix, Scratch};
use bfl_ml::{metrics, simd};
use proptest::prelude::*;

/// Serializes tier flips across this binary's concurrently running
/// tests. An assertion failure inside the critical section poisons the
/// mutex; later tests still need the lock, so poisoning is ignored.
fn tier_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Runs `compute` once per tier under the lock and asserts the outputs
/// are bit-identical. `compute` must be deterministic and must not
/// itself flip the tier.
fn assert_tiers_bit_identical(label: &str, mut compute: impl FnMut() -> Vec<f64>) {
    let _guard = tier_lock();
    simd::set_enabled(false);
    let scalar = compute();
    simd::set_enabled(true);
    let vector = compute();
    simd::reset();
    assert_eq!(scalar.len(), vector.len(), "{label}: output length differs");
    for (i, (s, v)) in scalar.iter().zip(vector.iter()).enumerate() {
        assert!(
            s.to_bits() == v.to_bits(),
            "{label}: element {i} differs — scalar {s:?} ({:#018x}) vs simd {v:?} ({:#018x})",
            s.to_bits(),
            v.to_bits(),
        );
    }
}

/// Element values that stress bit-identity: ordinary magnitudes mixed
/// with exact zeros of both signs, subnormals, and values far apart in
/// exponent (where a re-associated sum would round differently). A
/// hand-rolled mixture because the vendored proptest shim has no
/// `prop_oneof!`.
#[derive(Clone, Copy)]
struct AdversarialF64;

impl Strategy for AdversarialF64 {
    type Value = f64;
    fn sample(&self, rng: &mut proptest::test_runner::TestRng) -> f64 {
        match rng.below(14) {
            0 => 0.0,
            1 => -0.0,
            2 => 5e-324, // smallest positive subnormal
            3 => -5e-324,
            4 | 5 => Strategy::sample(&(-1e-12..1e-12f64), rng),
            6 => Strategy::sample(&(-1e12..1e12f64), rng),
            _ => Strategy::sample(&(-100.0..100.0f64), rng),
        }
    }
}

fn element() -> AdversarialF64 {
    AdversarialF64
}

fn buffer(len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(AdversarialF64, len..len + 1)
}

/// Inner lengths of the `gram` properties: empty, and either side of
/// every boundary of the accumulation geometry — `LANES` = 8, `STRIPE` =
/// 32, the tile kernel's `GRAM_K_BLOCK` = 512 and two blocks.
const GRAM_KS: [usize; 16] = [
    0, 1, 7, 8, 9, 31, 32, 33, 63, 65, 511, 512, 513, 544, 1023, 1025,
];

/// `n` rows of length `k` cut from `seed`, with row 0 repeated at the
/// end (from three rows on) so duplicated rows are always present.
fn gram_rows(seed: &[f64], n: usize, k: usize) -> Vec<Vec<f64>> {
    let mut rows: Vec<Vec<f64>> = (0..n).map(|i| seed[i * k..(i + 1) * k].to_vec()).collect();
    if n >= 3 {
        rows[n - 1] = rows[0].clone();
    }
    rows
}

fn gram_of(rows: &[Vec<f64>]) -> Matrix {
    let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
    tensor::gram(&refs)
}

/// `gemm_nt(v, v)` in its per-element regime: the rows are padded with
/// zero rows to 17, past the small-row regime (`rows <= 16` with
/// `k > 256`), which sums per-128-column partial dots instead.
fn gemm_nt_gram(rows: &[Vec<f64>], k: usize) -> Vec<f64> {
    let n = rows.len();
    let padded = n.max(17);
    let mut v: Vec<f64> = rows.concat();
    v.resize(padded * k, 0.0);
    let mut c = vec![0.0f64; padded * padded];
    tensor::gemm_nt(&v, &v, &mut c, padded, k, padded);
    (0..n * n).map(|o| c[(o / n) * padded + o % n]).collect()
}

proptest! {
    // Shapes dominate the search space more than values do; 64 cases per
    // property keeps the whole suite inside a few seconds while still
    // visiting empty, remainder, and multi-stripe sizes every run.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One dot product of arbitrary length (`gemm_nt` with a 1x1 output
    /// is exactly one `dot_lanes` call): covers the empty product, the
    /// sub-`LANES` scalar remainder, the `LANES` tail, and multiple
    /// 32-wide stripes.
    #[test]
    fn dot_lanes_matches_scalar_bits(
        k in 0usize..200,
        seed_a in buffer(200),
        seed_b in buffer(200),
    ) {
        let a = seed_a[..k].to_vec();
        let b = seed_b[..k].to_vec();
        assert_tiers_bit_identical("dot", || {
            let mut c = vec![0.0f64; 1];
            tensor::gemm_nt(&a, &b, &mut c, 1, k, 1);
            c
        });
    }

    /// `gemm_nt` in the large-row regime (per-element `dot_lanes`,
    /// `k <= 2 * NT_K_BLOCK` keeps the small-path guard false).
    #[test]
    fn gemm_nt_large_regime_matches_scalar_bits(
        m in 0usize..6,
        n in 0usize..40,
        k in 0usize..80,
        seed in buffer(6 * 40 + 6 * 80 + 40 * 80),
    ) {
        let a = seed[..m * k].to_vec();
        let b = seed[m * k..m * k + n * k].to_vec();
        assert_tiers_bit_identical("gemm_nt (large regime)", || {
            let mut c = vec![0.0f64; m * n];
            tensor::gemm_nt(&a, &b, &mut c, m, k, n);
            c
        });
    }

    /// `gemm_nt` in the small-row L1-blocked regime (`rows <= 16`,
    /// `n <= 32`, `k > 2 * NT_K_BLOCK = 256`), including the k-block
    /// boundary overwrite-then-accumulate sequence and the leftover-`j`
    /// columns after the groups of four.
    #[test]
    fn gemm_nt_small_regime_matches_scalar_bits(
        m in 1usize..5,
        n in 1usize..12,
        k in 257usize..420,
        seed in buffer(5 * 420 + 12 * 420),
    ) {
        let a = seed[..m * k].to_vec();
        let b = seed[m * k..m * k + n * k].to_vec();
        assert_tiers_bit_identical("gemm_nt (small regime)", || {
            let mut c = vec![0.0f64; m * n];
            tensor::gemm_nt(&a, &b, &mut c, m, k, n);
            c
        });
    }

    /// `gemm_nt_indexed` reads minibatch rows in place through an index
    /// list (duplicates allowed) and must match the gather-then-`gemm_nt`
    /// result bit-for-bit on both tiers.
    #[test]
    fn gemm_nt_indexed_matches_scalar_bits(
        pool_rows in 1usize..8,
        n in 0usize..10,
        k in 0usize..300,
        idx_seed in proptest::collection::vec(0usize..8, 0..12),
        seed in buffer(8 * 300 + 10 * 300),
    ) {
        let features = Matrix::from_vec(pool_rows, k, seed[..pool_rows * k].to_vec());
        let b = seed[pool_rows * k..pool_rows * k + n * k].to_vec();
        let rows: Vec<usize> = idx_seed.iter().map(|&i| i % pool_rows).collect();
        assert_tiers_bit_identical("gemm_nt_indexed", || {
            let mut c = vec![0.0f64; rows.len() * n];
            tensor::gemm_nt_indexed(&features, &rows, &b, &mut c, n);
            c
        });
    }

    /// The symmetric Gram over borrowed rows: 3x3 register tiles, the
    /// edge rows past the last whole tile, and every inner length
    /// boundary, on both tiers.
    #[test]
    fn gram_matches_scalar_bits(
        n in 0usize..11,
        k_index in 0usize..GRAM_KS.len(),
        seed in buffer(10 * 1025),
    ) {
        let k = GRAM_KS[k_index];
        let rows = gram_rows(&seed, n, k);
        assert_tiers_bit_identical("gram", || gram_of(&rows).data);
    }

    /// Under each tier the Gram is exactly symmetric and equals the
    /// per-element `gemm_nt(v, v)` entry for entry, bit-for-bit.
    #[test]
    fn gram_equals_gemm_nt_and_is_symmetric(
        n in 0usize..11,
        k_index in 0usize..GRAM_KS.len(),
        seed in buffer(10 * 1025),
    ) {
        let k = GRAM_KS[k_index];
        let rows = gram_rows(&seed, n, k);
        let _guard = tier_lock();
        for tier in [false, true] {
            simd::set_enabled(tier);
            let g = gram_of(&rows);
            let reference = gemm_nt_gram(&rows, k);
            simd::reset();
            prop_assert_eq!((g.rows, g.cols), (n, n));
            for i in 0..n {
                for j in 0..n {
                    let value = g.get(i, j);
                    prop_assert!(
                        value.to_bits() == reference[i * n + j].to_bits(),
                        "simd={} n={} k={} ({}, {}): gram {:?} vs gemm_nt {:?}",
                        tier, n, k, i, j, value, reference[i * n + j]
                    );
                    prop_assert!(value.to_bits() == g.get(j, i).to_bits());
                }
            }
        }
    }

    /// `gemm_tn` accumulate mode: `C += Aᵀ · B` on top of a random
    /// starting `C`, so the load-add-store path is what is compared.
    #[test]
    fn gemm_tn_accumulate_matches_scalar_bits(
        k in 0usize..40,
        m in 0usize..12,
        n in 0usize..70,
        seed in buffer(40 * 12 + 40 * 70 + 12 * 70),
    ) {
        let a = seed[..k * m].to_vec();
        let b = seed[k * m..k * m + k * n].to_vec();
        let c0 = seed[seed.len() - m * n..].to_vec();
        assert_tiers_bit_identical("gemm_tn (accumulate)", || {
            let mut c = c0.clone();
            tensor::gemm_tn(&a, &b, &mut c, k, m, n);
            c
        });
    }

    /// `gemm_tn_overwrite` store mode: `C = Aᵀ · B` over a garbage `C`
    /// that must be fully overwritten identically by both tiers.
    #[test]
    fn gemm_tn_overwrite_matches_scalar_bits(
        k in 0usize..40,
        m in 0usize..12,
        n in 0usize..70,
        seed in buffer(40 * 12 + 40 * 70 + 12 * 70),
    ) {
        let a = seed[..k * m].to_vec();
        let b = seed[k * m..k * m + k * n].to_vec();
        assert_tiers_bit_identical("gemm_tn_overwrite", || {
            let mut c = vec![f64::NAN; m * n];
            tensor::gemm_tn_overwrite(&a, &b, &mut c, k, m, n);
            c
        });
    }

    /// `gemm_tn_indexed_overwrite` fetches its `B` rows through dataset
    /// indices (the softmax-gradient hot path): same tile body, indexed
    /// row fetch, store mode.
    #[test]
    fn gemm_tn_indexed_matches_scalar_bits(
        pool_rows in 1usize..8,
        m in 0usize..12,
        n in 0usize..70,
        idx_seed in proptest::collection::vec(0usize..8, 0..10),
        seed in buffer(8 * 70 + 10 * 12),
    ) {
        let features = Matrix::from_vec(pool_rows, n, seed[..pool_rows * n].to_vec());
        let rows: Vec<usize> = idx_seed.iter().map(|&i| i % pool_rows).collect();
        let a = seed[seed.len() - rows.len() * m..].to_vec();
        assert_tiers_bit_identical("gemm_tn_indexed_overwrite", || {
            let mut c = vec![f64::NAN; m * n];
            tensor::gemm_tn_indexed_overwrite(&a, &features, &rows, &mut c, m);
            c
        });
    }

    /// `axpy` (the SGD parameter update): deliberately *unfused*
    /// multiply-then-add in both tiers — an FMA here would be a one-
    /// rounding difference this property would catch immediately.
    #[test]
    fn axpy_matches_scalar_bits(
        len in 0usize..200,
        alpha in element(),
        seed_x in buffer(200),
        seed_y in buffer(200),
    ) {
        let x = seed_x[..len].to_vec();
        let y0 = seed_y[..len].to_vec();
        assert_tiers_bit_identical("axpy", || {
            let mut y = y0.clone();
            tensor::axpy(alpha, &x, &mut y);
            y
        });
    }
}

/// End-to-end: a full batched loss/gradient pass and an evaluation sweep
/// over both model kinds produce bit-identical losses, gradients, and
/// accuracies under either tier — the composite the per-kernel
/// properties exist to guarantee.
#[test]
fn batched_training_and_eval_bits_match_across_tiers() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let kinds = [
        ModelKind::SoftmaxRegression {
            features: 300,
            classes: 7,
        },
        ModelKind::Mlp {
            features: 300,
            hidden: 11,
            classes: 7,
        },
    ];
    for kind in kinds {
        let mut rng = StdRng::seed_from_u64(0x51D0);
        let model: AnyModel = kind.build(&mut rng);
        let rows = 37;
        let data: Vec<f64> = (0..rows * 300).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let labels: Vec<usize> = (0..rows).map(|_| rng.gen_range(0..7)).collect();
        let features = Matrix::from_vec(rows, 300, data);
        let batch: Vec<usize> = (0..rows).step_by(2).collect();

        assert_tiers_bit_identical(&format!("{kind:?} loss/grad/accuracy"), || {
            let mut scratch = Scratch::new();
            let mut grad = Vec::new();
            let loss =
                model.loss_and_grad_batched(&features, &labels, &batch, &mut grad, &mut scratch);
            let acc = metrics::accuracy(&model, &features, &labels, None);
            grad.push(loss);
            grad.push(acc);
            grad
        });
    }
}
