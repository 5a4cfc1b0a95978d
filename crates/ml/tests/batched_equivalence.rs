//! Equivalence of the batched GEMM engine against the retained
//! per-sample reference implementations: same losses, same gradients,
//! same predictions, on randomized models and data.

use bfl_ml::model::{AnyModel, Model, ModelKind};
use bfl_ml::tensor::{self, Matrix, Scratch};
use bfl_ml::{engine, metrics, par};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TOLERANCE: f64 = 1e-9;

fn random_dataset(
    rng: &mut StdRng,
    rows: usize,
    features: usize,
    classes: usize,
) -> (Matrix, Vec<usize>) {
    let data: Vec<f64> = (0..rows * features)
        .map(|_| rng.gen_range(-2.0..2.0))
        .collect();
    let labels: Vec<usize> = (0..rows).map(|_| rng.gen_range(0..classes)).collect();
    (Matrix::from_vec(rows, features, data), labels)
}

fn model_kinds() -> Vec<ModelKind> {
    vec![
        ModelKind::SoftmaxRegression {
            features: 17,
            classes: 5,
        },
        ModelKind::Mlp {
            features: 17,
            hidden: 9,
            classes: 5,
        },
    ]
}

#[test]
fn batched_loss_and_grad_matches_reference_on_random_inputs() {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    for kind in model_kinds() {
        for trial in 0..10 {
            let model: AnyModel = kind.build(&mut rng);
            let rows_total = 3 + trial * 7;
            let (features, labels) = random_dataset(&mut rng, rows_total, 17, 5);

            // Batch sizes straddling 1, partial and full batches.
            for batch_len in [1usize, 2, rows_total / 2 + 1, rows_total] {
                let batch: Vec<usize> = (0..batch_len.min(rows_total)).collect();
                let (reference_loss, reference_grad) =
                    model.loss_and_grad_reference(&features, &labels, &batch);
                let mut scratch = Scratch::new();
                let mut batched_grad = Vec::new();
                let batched_loss = model.loss_and_grad_batched(
                    &features,
                    &labels,
                    &batch,
                    &mut batched_grad,
                    &mut scratch,
                );
                assert!(
                    (batched_loss - reference_loss).abs() < TOLERANCE,
                    "{kind:?} loss {batched_loss} vs {reference_loss}"
                );
                assert_eq!(batched_grad.len(), reference_grad.len());
                for (i, (b, r)) in batched_grad.iter().zip(reference_grad.iter()).enumerate() {
                    assert!(
                        (b - r).abs() < TOLERANCE,
                        "{kind:?} grad[{i}]: batched {b} vs reference {r}"
                    );
                }
            }
        }
    }
}

#[test]
fn scratch_reuse_across_batches_and_models_does_not_leak_state() {
    let mut rng = StdRng::seed_from_u64(0xCAFE);
    let mut scratch = Scratch::new();
    let mut grad = Vec::new();
    // One shared workspace across alternating models and batch shapes must
    // produce the same results as fresh workspaces every time.
    for kind in model_kinds() {
        let model: AnyModel = kind.build(&mut rng);
        let (features, labels) = random_dataset(&mut rng, 24, 17, 5);
        for batch_len in [24usize, 3, 11, 1, 24] {
            let batch: Vec<usize> = (0..batch_len).collect();
            let shared_loss =
                model.loss_and_grad_batched(&features, &labels, &batch, &mut grad, &mut scratch);
            let shared_grad = grad.clone();
            let mut fresh_scratch = Scratch::new();
            let mut fresh_grad = Vec::new();
            let fresh_loss = model.loss_and_grad_batched(
                &features,
                &labels,
                &batch,
                &mut fresh_grad,
                &mut fresh_scratch,
            );
            assert_eq!(shared_loss.to_bits(), fresh_loss.to_bits());
            assert_eq!(shared_grad, fresh_grad);
        }
    }
}

#[test]
fn batched_accuracy_matches_reference_predictions() {
    let _guard = engine::mode_lock();
    let mut rng = StdRng::seed_from_u64(0xACC);
    for kind in model_kinds() {
        let model: AnyModel = kind.build(&mut rng);
        let (features, labels) = random_dataset(&mut rng, 700, 17, 5);
        let rows: Vec<usize> = (0..features.rows).collect();
        let batched = metrics::accuracy(&model, &features, &labels, None);
        let reference = metrics::accuracy_reference(&model, &features, &labels, &rows);
        assert_eq!(batched, reference, "{kind:?}");

        // Subset selection takes the same path.
        let subset: Vec<usize> = (0..features.rows).step_by(3).collect();
        let batched = metrics::accuracy(&model, &features, &labels, Some(&subset));
        let reference = metrics::accuracy_reference(&model, &features, &labels, &subset);
        assert_eq!(batched, reference, "{kind:?} subset");
    }
}

#[test]
fn logits_batch_matches_per_row_logits() {
    // The batched kernels use fused multiply-add and lane-striped
    // reductions, so logits may differ from the per-row dot products in
    // the last bits — but no more than that.
    let mut rng = StdRng::seed_from_u64(0x1061);
    for kind in model_kinds() {
        let model: AnyModel = kind.build(&mut rng);
        let (features, _) = random_dataset(&mut rng, 33, 17, 5);
        let rows: Vec<usize> = (0..features.rows).collect();
        let mut scratch = Scratch::new();
        features.select_rows_into(&rows, &mut scratch.x);
        model.logits_batch(&mut scratch);
        for &r in &rows {
            let reference = model.logits(features.row(r));
            let batched = scratch.z.row(r);
            for (b, x) in batched.iter().zip(reference.iter()) {
                assert!(
                    (b - x).abs() <= 1e-12 * x.abs().max(1.0),
                    "{kind:?} row {r}: {b} vs {x}"
                );
            }
        }
    }
}

#[test]
fn reference_mode_switch_routes_loss_and_grad() {
    let _guard = engine::mode_lock();
    let mut rng = StdRng::seed_from_u64(0x5117);
    let kind = ModelKind::SoftmaxRegression {
        features: 8,
        classes: 3,
    };
    let model: AnyModel = kind.build(&mut rng);
    let (features, labels) = random_dataset(&mut rng, 12, 8, 3);
    let rows: Vec<usize> = (0..12).collect();

    let batched = model.loss_and_grad(&features, &labels, &rows);
    let reference = engine::with_reference_mode(|| model.loss_and_grad(&features, &labels, &rows));
    assert!((batched.0 - reference.0).abs() < TOLERANCE);
    for (b, r) in batched.1.iter().zip(reference.1.iter()) {
        assert!((b - r).abs() < TOLERANCE);
    }
}

/// The symmetric Gram fans its tiles out over the worker pool; each tile
/// writes only its own outputs, so any thread limit gives the same bits.
/// 40 rows make 91 tiles, enough for eight workers.
#[test]
fn gram_is_bit_identical_across_thread_limits() {
    let mut rng = StdRng::seed_from_u64(0x6A4);
    let (features, _) = random_dataset(&mut rng, 40, 300, 2);
    let rows: Vec<&[f64]> = (0..features.rows).map(|r| features.row(r)).collect();
    let serial = par::with_thread_limit(1, || tensor::gram(&rows));
    for limit in [2, 8] {
        let parallel = par::with_thread_limit(limit, || tensor::gram(&rows));
        assert!(
            serial
                .data
                .iter()
                .zip(&parallel.data)
                .all(|(s, p)| s.to_bits() == p.to_bits()),
            "thread limit {limit} changed the Gram"
        );
    }
}
