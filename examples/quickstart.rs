//! Quickstart: train FALCC on a synthetic biased dataset and classify the
//! held-out split.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use falcc::{FairClassifier, FalccConfig, FalccModel};
use falcc_dataset::{synthetic, SplitRatios, ThreeWaySplit};
use falcc_metrics::{accuracy, local_bias, FairnessMetric};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Data: the paper's social30 generator — 14k samples whose labels
    //    carry a 30-point demographic-parity gap against group s=1.
    let data = synthetic::social30(42)?;
    println!(
        "dataset: {} samples, {} attributes, {} sensitive groups",
        data.len(),
        data.n_attrs(),
        data.group_index().len()
    );

    // 2. The paper's 50/35/15 split.
    let split = ThreeWaySplit::split(&data, SplitRatios::PAPER, 42)?;

    // 3. Offline phase: diverse model training, clustering into local
    //    regions, per-region model assessment. Defaults follow the paper
    //    (demographic parity, λ = 0.5, LOG-Means, gap-fill k = 15).
    let config = FalccConfig::default();
    let model = FalccModel::fit(&split.train, &split.validation, &config)?;
    println!(
        "offline phase done: pool of {} models, {} local regions",
        model.pool().len(),
        model.n_regions()
    );

    // 4. Online phase: nearest-centroid lookup + one model call per sample,
    //    served through the compiled plane.
    let preds = model.compile().predict_dataset(&split.test);

    // 5. Quality report.
    let y = split.test.labels();
    let g = split.test.groups();
    let acc = accuracy(y, &preds);
    let global = FairnessMetric::DemographicParity.bias(y, &preds, g, 2);
    let regions: Vec<usize> =
        (0..split.test.len()).map(|i| model.assign_region(split.test.row(i))).collect();
    let local = local_bias(
        FairnessMetric::DemographicParity,
        y,
        &preds,
        g,
        2,
        &regions,
        model.n_regions(),
    );
    let label_gap = FairnessMetric::DemographicParity.bias(y, y, g, 2);

    println!("accuracy:            {:.1}%", acc * 100.0);
    println!("label parity gap:    {:.1}% (the bias baked into the data)", label_gap * 100.0);
    println!("prediction bias:     {:.1}% (global demographic parity)", global * 100.0);
    println!("local bias:          {:.1}% (over FALCC's own regions)", local * 100.0);
    Ok(())
}
