#![allow(clippy::field_reassign_with_default)] // config mutation reads clearer in experiment scripts

//! Criterion micro-benchmarks of the **online phase** (paper Fig. 6): the
//! per-sample classification latency of FALCC against the FALCES variants
//! and the fastest single-model baseline. The shape to expect: FALCC sits
//! within a small factor of a bare model invocation, while FALCES pays the
//! per-sample kNN + combination-assessment cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use falcc::{FairClassifier, FalccConfig, FalccModel};
use falcc_baselines::{Falces, FalcesConfig, FalcesVariant, Fax, FaxParams};
use falcc_bench::BenchDataset;
use falcc_dataset::{SplitRatios, ThreeWaySplit};
use falcc_metrics::{FairnessMetric, LossConfig};
use falcc_models::ModelPool;
use std::hint::black_box;

fn online_phase(c: &mut Criterion) {
    let mut group = c.benchmark_group("online_phase");
    for (dataset, scale) in [(BenchDataset::Compas, 0.2), (BenchDataset::AdultSexRace, 0.05)] {
        let seed = 11;
        let ds = dataset.generate(seed, scale);
        let split = ThreeWaySplit::split(&ds, SplitRatios::PAPER, seed).expect("split");

        let mut cfg = FalccConfig::default();
        cfg.loss = LossConfig::balanced(FairnessMetric::DemographicParity);
        cfg.seed = seed;
        // FALCC serves through its compiled plane.
        let falcc =
            FalccModel::fit(&split.train, &split.validation, &cfg).expect("falcc").compile();

        let pool = ModelPool::standard_five(&split.train, seed);
        let falces_plain = Falces::fit(
            pool.clone(),
            &split.validation,
            &FalcesConfig { variant: FalcesVariant::Plain, ..Default::default() },
        )
        .expect("falces");
        let falces_pfa = Falces::fit(
            pool,
            &split.validation,
            &FalcesConfig { variant: FalcesVariant::Pfa, ..Default::default() },
        )
        .expect("falces-pfa");
        let fax = Fax::fit(&split.train, &FaxParams::default(), seed);

        let rows: Vec<&[f64]> = (0..split.test.len().min(256)).map(|i| split.test.row(i)).collect();
        let contenders: [(&str, &dyn FairClassifier); 4] = [
            ("FALCC", &falcc),
            ("FALCES", &falces_plain),
            ("FALCES-PFA", &falces_pfa),
            ("FaX", &fax),
        ];
        for (name, model) in contenders {
            group.bench_with_input(
                BenchmarkId::new(name, dataset.name()),
                &rows,
                |b, rows| {
                    let mut i = 0usize;
                    b.iter(|| {
                        let row = rows[i % rows.len()];
                        i += 1;
                        black_box(model.predict_row(black_box(row)))
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = online_phase
}
criterion_main!(benches);
