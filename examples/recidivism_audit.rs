//! Recidivism audit: fit FALCC on the COMPAS dataset (emulated) and audit
//! it the way a fairness review would — per-region bias breakdown, all four
//! Tab. 3 metrics, and online latency.
//!
//! ```sh
//! cargo run --release --example recidivism_audit
//! ```

use falcc::{FairClassifier, FalccConfig, FalccModel};
use falcc_dataset::real;
use falcc_dataset::{SplitRatios, ThreeWaySplit};
use falcc_metrics::{accuracy, FairnessMetric};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let data = real::compas().generate(5, 1.0)?; // COMPAS is small: full scale
    let split = ThreeWaySplit::split(&data, SplitRatios::PAPER, 5)?;
    println!(
        "COMPAS (emulated): {} defendants, protected attribute `race`",
        data.len()
    );

    let model = FalccModel::fit(&split.train, &split.validation, &FalccConfig::default())?;
    println!(
        "FALCC fitted: {} models in the pool, {} local regions\n",
        model.pool().len(),
        model.n_regions()
    );

    // Online latency — the paper's Fig. 6 claim, observable here directly
    // on the compiled serving plane.
    let compiled = model.compile();
    let start = Instant::now();
    let preds = compiled.predict_dataset(&split.test);
    let per_sample = start.elapsed().as_micros() as f64 / split.test.len() as f64;
    println!(
        "online phase: {} samples in {:.1} µs/sample",
        split.test.len(),
        per_sample
    );

    // Global audit across all four Tab. 3 metrics.
    let y = split.test.labels();
    let g = split.test.groups();
    println!("\n== global audit ==");
    println!("accuracy: {:.1}%", accuracy(y, &preds) * 100.0);
    for metric in FairnessMetric::ALL {
        println!(
            "{:<22} {:.2}%",
            format!("{metric}:"),
            metric.bias(y, &preds, g, 2) * 100.0
        );
    }

    // Per-region audit: the local-fairness view. Regions are FALCC's own
    // clusters, so this is exactly what the offline phase optimised.
    println!("\n== per-region audit (demographic parity) ==");
    let regions: Vec<usize> =
        (0..split.test.len()).map(|i| model.assign_region(split.test.row(i))).collect();
    println!("{:<8} {:>7} {:>10} {:>9}", "region", "size", "accuracy", "dp bias");
    for r in 0..model.n_regions() {
        let idx: Vec<usize> = (0..split.test.len()).filter(|&i| regions[i] == r).collect();
        if idx.is_empty() {
            continue;
        }
        let yr: Vec<u8> = idx.iter().map(|&i| y[i]).collect();
        let zr: Vec<u8> = idx.iter().map(|&i| preds[i]).collect();
        let gr: Vec<_> = idx.iter().map(|&i| g[i]).collect();
        println!(
            "C{:<7} {:>7} {:>9.1}% {:>8.2}%",
            r + 1,
            idx.len(),
            accuracy(&yr, &zr) * 100.0,
            FairnessMetric::DemographicParity.bias(&yr, &zr, &gr, 2) * 100.0
        );
    }

    println!(
        "\nReading: a region with high dp bias treats similar defendants of\n\
         different races differently — the pattern Fig. 1 of the paper warns\n\
         about even when the global numbers look fair."
    );
    Ok(())
}
