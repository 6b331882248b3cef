//! The untraced run: set-up, the timed phases, output checks and the
//! end-to-end metrics.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use falcc::{CompiledModel, FairClassifier, FalccConfig, FalccModel, RowFault, SavedFalccModel};
use falcc_dataset::{Dataset, GroupId, SplitRatios, ThreeWaySplit};
use falcc_metrics::FairnessMetric;

use crate::check::Tally;
use crate::gauge::{self, Gauge};
use crate::schedule::{self, Request, SplitMix};
use crate::stats;
use crate::workload::{
    QualityRows, Workload, BATCH_ROWS, BULK, COLD, DRAW_ROWS, FIT, GAUGE, ONLINE, SCHEDULE_REQUESTS,
};
use crate::Metric;

/// Shortest block: each step of a timed phase runs for at least this
/// long and yields one block value (see [`crate::stats`]). The host's slow
/// and fast stretches last from a fraction of a second to a few seconds,
/// so a block mostly sees one of them.
pub const STEP: Duration = Duration::from_millis(100);

/// Fewest operations in a cold-start or batch block; its value is their
/// median.
const OPS_PER_BLOCK: usize = 5;

/// Fewest fits of a workload that times its fit; `fit_s` is their mean.
const MIN_FITS: usize = 3;

/// Threads of online requests on every workload. At 2 threads a 16-row
/// `classify_batch` spent ~120 of ~140 µs spawning scoped threads and its
/// p90 spread up to 86% between runs; inline it took ~20 µs and stayed
/// within ±6%. The spawn cost is reported as `models.parallel.call_us`.
pub const ONLINE_THREADS: usize = 1;

/// Online requests between two looks at the clock for the end of a block.
const ONLINE_CHUNK: usize = 64;

/// Rows every cold-started model must classify exactly like the reference
/// before it counts as a successful cold start.
const PROBE_ROWS: usize = 64;

/// A run's inputs: the data the model is fitted on (the same on every
/// run), and the scored draw in uniform batches and the online request
/// schedule (both chosen by the seed).
pub struct Inputs {
    /// Adult (sex) at the workload's fit scale, split per the paper.
    pub split: ThreeWaySplit,
    /// 46,000 fresh Adult (sex) rows: population rows outside the fitted
    /// ones, chosen by the seed.
    pub draw: Dataset,
    /// The draw cut into uniform [`BATCH_ROWS`]-row batches.
    pub batches: Vec<Dataset>,
    /// The online request schedule over the draw.
    pub schedule: Vec<Request>,
    /// The schedule's rows, materialised (malformed ones included).
    pub request_rows: Vec<Vec<Vec<f64>>>,
}

/// Seed of the Adult (sex) population every run samples from.
const POPULATION_SEED: u64 = 0xFA1CC;

/// Rows in the population: three times Adult's 46,000, so the largest fit
/// (scale 1.0) leaves 92,000 rows to draw the scored rows from.
const POPULATION_ROWS: usize = 3 * DRAW_ROWS;

/// Seed of the split and of the fit.
pub const FIT_SEED: u64 = 42;

/// Generates the workload's inputs from `seed`.
///
/// The Adult (sex) emulation is one fixed population, as the real Adult
/// data is one fixed table, and each workload fits the same rows with the
/// same fit seed, so every run of one commit fits the same model (the
/// printed digest repeats). `--seed` picks the 46,000 scored rows from the
/// rest of the population and seeds the request schedule. When `--seed`
/// also chose the fitted rows, the model's region choices moved
/// `local_bias` by up to 86% and single-row latency by up to 40% between
/// seeds, because which pool members serve which rows is data-dependent;
/// when it chose the emulator's concept too, `fit_s` moved by 21%.
///
/// # Panics
/// Panics if the generator rejects its fixed configuration.
pub fn make_inputs(w: &Workload, seed: u64) -> Inputs {
    let spec = falcc_dataset::real::adult_sex();
    let fit_rows = (spec.n as f64 * w.fit_scale).round() as usize;
    let population = falcc_dataset::real::RealisticSpec {
        n: POPULATION_ROWS,
        ..spec
    }
    .generate(POPULATION_SEED, 1.0)
    .expect("Adult (sex) emulation");
    // The generator's rows are i.i.d., so a prefix is a fair sample.
    let fitted: Vec<usize> = (0..fit_rows).collect();
    let mut rest: Vec<usize> = (fit_rows..population.len()).collect();
    let mut rng = SplitMix::new(seed);
    for i in (1..rest.len()).rev() {
        rest.swap(i, rng.below(i + 1));
    }
    let split = ThreeWaySplit::split(
        &population.subset(&fitted).expect("fit rows"),
        SplitRatios::PAPER,
        FIT_SEED,
    )
    .expect("paper split");
    let draw = population.subset(&rest[..DRAW_ROWS]).expect("draw rows");
    drop(population);
    let batches = schedule::uniform_batches(draw.len(), BATCH_ROWS)
        .expect("uniform batches")
        .into_iter()
        .map(|r| draw.subset(&r.collect::<Vec<_>>()).expect("batch subset"))
        .collect();
    let schedule = schedule::request_schedule(seed, SCHEDULE_REQUESTS, draw.len());
    let request_rows = schedule
        .iter()
        .map(|req| match req {
            Request::Single(p) => vec![schedule::materialise(&draw, *p)],
            Request::Batch(ps) => ps
                .iter()
                .map(|p| schedule::materialise(&draw, *p))
                .collect(),
        })
        .collect();
    Inputs {
        split,
        draw,
        batches,
        schedule,
        request_rows,
    }
}

/// A fitted model made ready to serve: persisted the way `falcc fit`
/// persists it, with the interpreted plane's reference outputs.
pub struct Prepared {
    /// The fitted (interpreted) model.
    pub model: FalccModel,
    /// `fnv1a64` of the model's JSON snapshot.
    pub digest: u64,
    /// The JSON snapshot on disk.
    pub json_path: PathBuf,
    /// Reference output of each bulk batch.
    pub batch_refs: Vec<Vec<u8>>,
    /// Reference output of each scheduled request.
    pub request_refs: Vec<Vec<Result<u8, RowFault>>>,
    /// Rows every cold-started model is checked on, and their reference.
    pub probe_rows: Vec<Vec<f64>>,
    /// Reference output of the probe rows.
    pub probe_ref: Vec<Result<u8, RowFault>>,
}

/// `fnv1a64` of the model's JSON snapshot.
///
/// # Errors
/// Snapshot capture or serialisation failures.
pub fn digest(model: &FalccModel) -> Result<u64, String> {
    let json = SavedFalccModel::capture(model)
        .and_then(|s| s.to_json())
        .map_err(|e| format!("snapshot: {e}"))?;
    Ok(falcc::io::fnv1a64(json.as_bytes()))
}

/// Persists `model` under `dir` as the JSON snapshot `falcc fit` writes
/// and computes the reference outputs with the interpreted plane.
///
/// # Errors
/// Persistence failures.
pub fn prepare(model: FalccModel, inputs: &Inputs, dir: &Path) -> Result<Prepared, String> {
    let digest = digest(&model)?;
    let json_path = dir.join("model.json");
    SavedFalccModel::capture(&model)
        .and_then(|s| s.save_file(&json_path))
        .map_err(|e| format!("saving snapshot: {e}"))?;
    let batch_refs = inputs
        .batches
        .iter()
        .map(|b| model.predict_dataset(b))
        .collect();
    let request_refs = inputs
        .schedule
        .iter()
        .zip(&inputs.request_rows)
        .map(|(req, rows)| match req {
            Request::Single(_) => vec![model.try_classify(&rows[0])],
            Request::Batch(_) => model.classify_batch(rows),
        })
        .collect();
    let probe_rows: Vec<Vec<f64>> = inputs
        .request_rows
        .iter()
        .flatten()
        .take(PROBE_ROWS)
        .cloned()
        .collect();
    let probe_ref = model.classify_batch(&probe_rows);
    Ok(Prepared {
        model,
        digest,
        json_path,
        batch_refs,
        request_refs,
        probe_rows,
        probe_ref,
    })
}

/// The `falcc predict` load of a model fitted without `--emit-artifact`:
/// the JSON snapshot parsed, restored and compiled.
///
/// # Errors
/// An unreadable snapshot.
pub fn cold_start(p: &Prepared, threads: usize) -> Result<CompiledModel, String> {
    let mut model = SavedFalccModel::load_file(&p.json_path)
        .map_err(|e| format!("loading snapshot: {e}"))?
        .restore()
        .compile();
    model.set_threads(threads);
    Ok(model)
}

/// Accuracy and demographic-parity local bias over `rows`, with regions
/// from the model's own clustering.
pub fn quality(
    model: &FalccModel,
    rows: &[(&[f64], u8, GroupId, u8)],
    n_groups: usize,
) -> (f64, f64) {
    let y: Vec<u8> = rows.iter().map(|r| r.1).collect();
    let g: Vec<GroupId> = rows.iter().map(|r| r.2).collect();
    let z: Vec<u8> = rows.iter().map(|r| r.3).collect();
    let regions: Vec<usize> = rows.iter().map(|r| model.assign_region(r.0)).collect();
    let accuracy = falcc_metrics::accuracy(&y, &z);
    let bias = falcc_metrics::local_bias(
        FairnessMetric::DemographicParity,
        &y,
        &z,
        &g,
        n_groups,
        &regions,
        model.n_regions(),
    );
    (accuracy, bias)
}

/// The rows quality is measured on: the test split for `fit_adult`, the
/// scored draw for `score_bulk`. Predictions are the references, which
/// every served output was checked against.
pub fn quality_rows<'a>(
    w: &Workload,
    inputs: &'a Inputs,
    p: &Prepared,
    test_preds: &'a [u8],
) -> Vec<(&'a [f64], u8, GroupId, u8)> {
    match w.quality {
        QualityRows::TestSplit => {
            let t = &inputs.split.test;
            (0..t.len())
                .map(|i| (t.row(i), t.label(i), t.group(i), test_preds[i]))
                .collect()
        }
        QualityRows::Draw => {
            let d = &inputs.draw;
            let preds = p.batch_refs.iter().flatten();
            (0..d.len())
                .zip(preds)
                .map(|(i, &z)| (d.row(i), d.label(i), d.group(i), z))
                .collect()
        }
    }
}

/// One timed `FalccModel::fit` on the workload's fixed rows.
fn timed_fit(inputs: &Inputs, config: &FalccConfig) -> (Result<FalccModel, String>, f64) {
    let t0 = Instant::now();
    let fitted = FalccModel::fit(&inputs.split.train, &inputs.split.validation, config)
        .map_err(|e| format!("fit failed: {e}"));
    (fitted, t0.elapsed().as_secs_f64())
}

/// Block values of one online request class, in microseconds.
#[derive(Debug, Default)]
struct ClassBlocks {
    p50: Vec<f64>,
    p90: Vec<f64>,
    p99: Vec<f64>,
    samples: usize,
}

impl ClassBlocks {
    /// Closes a block over the latencies in `block`, and empties it.
    fn close(&mut self, block: &mut Vec<f64>) -> Result<(), String> {
        stats::sort(block);
        self.p50.push(stats::percentile(block, 0.5)?.value);
        self.p90.push(stats::percentile(block, 0.9)?.value);
        if let Ok(p99) = stats::percentile(block, 0.99) {
            self.p99.push(p99.value);
        }
        self.samples += block.len();
        block.clear();
        Ok(())
    }
}

/// One untraced run of workload `w`.
///
/// # Errors
/// A fit or persistence error ends the run early; the tally records it.
pub fn run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    dir: &Path,
    info: &mut Vec<String>,
) -> Result<(Tally, Vec<Metric>), (Tally, String)> {
    let mut tally = Tally::default();
    let batch_threads = w.batch_threads.get();
    let config = w.config(FIT_SEED);
    let fit_timed = w.fit_timed();

    // Set-up rounds. Each round does the whole set-up; the last round's
    // products are kept and the median round time is `setup_s`.
    let mut setup_times = Vec::with_capacity(w.setup_rounds);
    let mut fit_times = Vec::new();
    let mut round: Option<(Inputs, Option<Prepared>)> = None;
    let mut digests = Vec::new();
    for _ in 0..w.setup_rounds {
        drop(round.take());
        let t0 = Instant::now();
        let inputs = make_inputs(w, seed);
        let prepared = if fit_timed {
            None
        } else {
            let (fitted, dt) = timed_fit(&inputs, &config);
            fit_times.push(dt);
            tally.record(fitted.is_ok());
            let model = fitted.map_err(|e| (tally, e))?;
            let p = prepare(model, &inputs, dir).map_err(|e| (tally, e))?;
            digests.push(p.digest);
            Some(p)
        };
        setup_times.push(t0.elapsed().as_secs_f64());
        round = Some((inputs, prepared));
    }
    let (inputs, prepared) = round.expect("at least one set-up round");
    // Each set-up round frees what the round before it built. Whether the
    // first fit's threads reuse that memory depends on how the allocator
    // hands its per-thread arenas out, and moved the peak RSS between 63
    // and 73 MB from run to run; returned to the system, it leaves the fit
    // a heap like a fresh process's.
    trim_heap();

    // The timed phases — fits (where the workload times them), cold starts
    // (the `falcc predict` load path), uniform bulk batches through
    // `predict_dataset`, and the closed-loop online schedule — interleave
    // in blocks of at least `STEP`, each block going to the phase furthest
    // behind its share of the elapsed time, so every phase samples the
    // whole run. Requests go to the first cold-started model.
    let start = Instant::now();
    let mut spent = [0.0f64; 5];
    let p = match prepared {
        Some(p) => p,
        None => {
            let (fitted, dt) = timed_fit(&inputs, &config);
            fit_times.push(dt);
            spent[FIT] += dt;
            tally.record(fitted.is_ok());
            let model = fitted.map_err(|e| (tally, e))?;
            prepare(model, &inputs, dir).map_err(|e| (tally, e))?
        }
    };
    // Every fit of the run fitted the same model, or the fit is not
    // deterministic: each differing fit counts as failed.
    for d in digests.iter().skip(1) {
        tally.record(*d == digests[0]);
    }
    info.push(format!("model digest {:016x}", p.digest));
    info.push(format!(
        "model: {} pool members, k = {}, {} flat nodes",
        p.model.pool().len(),
        p.model.n_regions(),
        p.model.compile().n_nodes()
    ));
    let served = cold_start(&p, batch_threads);
    let ok = served
        .as_ref()
        .is_ok_and(|m| m.classify_batch(&p.probe_rows) == p.probe_ref);
    tally.record(ok);
    let mut m = served.map_err(|e| (tally, e))?;
    // The process's peak once its model is fitted and loaded for serving.
    // Read at the end, it also held what the repeated fits left spread over
    // the allocator's per-thread arenas, which moved it by up to 28%
    // between runs.
    let peak_rss_mb = crate::env::peak_rss_mb();
    let mut cold_blocks = Vec::new();
    let mut batch_blocks = Vec::new();
    let mut singles = ClassBlocks::default();
    let mut micro = ClassBlocks::default();
    // Blocks attempted per phase: a cold-start block whose every load
    // fails its check yields no value but still counts, so a defect ends
    // the run (with its failures tallied) instead of holding it open.
    let mut blocks = [0usize; 5];
    let gauge = Gauge::new();
    let mut gauge_blocks = Vec::new();
    let mut passes = 0usize;
    let mut cold_starts = 0usize;
    let mut cold_error = None;
    let mut block: Vec<f64> = Vec::new();
    let (mut single_block, mut micro_block) = (Vec::new(), Vec::new());
    let need = stats::samples_needed(0.9);
    let (mut b, mut r) = (0usize, 0usize);
    let total = Duration::from_secs_f64(seconds);
    loop {
        let elapsed = start.elapsed();
        let short: [bool; 5] = std::array::from_fn(|ph| match ph {
            FIT => fit_timed && fit_times.len() < MIN_FITS,
            _ => blocks[ph] < stats::MIN_BLOCKS,
        });
        let over = elapsed >= total;
        if over && !short.contains(&true) {
            break;
        }
        // A fit takes seconds: another starts only if it should end in time.
        let fit_ends_in_time = elapsed.as_secs_f64() + mean(&fit_times) <= seconds;
        let eligible = |ph: usize| {
            if over || (ph == FIT && !fit_ends_in_time) {
                short[ph]
            } else {
                w.shares[ph] > 0.0
            }
        };
        let deficit = |ph: usize| w.shares[ph] * elapsed.as_secs_f64() - spent[ph];
        let phase = (0..5)
            .filter(|&ph| eligible(ph))
            .max_by(|&a, &c| deficit(a).total_cmp(&deficit(c)))
            .expect("some phase is eligible");
        let step = Instant::now();
        match phase {
            FIT => {
                let (fitted, dt) = timed_fit(&inputs, &config);
                fit_times.push(dt);
                let same = fitted.and_then(|model| digest(&model));
                tally.record(same.as_ref() == Ok(&p.digest));
                if let Err(e) = same {
                    info.push(e);
                }
            }
            COLD => {
                block.clear();
                let mut tries = 0;
                while tries < OPS_PER_BLOCK || step.elapsed() < STEP {
                    let t0 = Instant::now();
                    let loaded = cold_start(&p, batch_threads);
                    let dt = t0.elapsed();
                    let ok = match &loaded {
                        Ok(fresh) => fresh.classify_batch(&p.probe_rows) == p.probe_ref,
                        Err(e) => {
                            cold_error.get_or_insert_with(|| format!("cold start failed: {e}"));
                            false
                        }
                    };
                    tally.record(ok);
                    tries += 1;
                    if ok {
                        block.push(dt.as_secs_f64() * 1e3);
                    }
                }
                cold_starts += tries;
                if !block.is_empty() {
                    cold_blocks.push(stats::median(&block));
                }
            }
            BULK => {
                m.set_threads(batch_threads);
                block.clear();
                while block.len() < OPS_PER_BLOCK || step.elapsed() < STEP {
                    let i = b % inputs.batches.len();
                    let t0 = Instant::now();
                    let out = m.predict_dataset(&inputs.batches[i]);
                    block.push(t0.elapsed().as_secs_f64());
                    tally.record_rows(&out, &p.batch_refs[i]);
                    b += 1;
                }
                batch_blocks.push(stats::median(&block));
            }
            GAUGE => {
                block.clear();
                while block.is_empty() || step.elapsed() < STEP {
                    block.push(gauge.time(passes));
                    passes += 1;
                }
                gauge_blocks.push(stats::median(&block));
            }
            _ => {
                m.set_threads(ONLINE_THREADS);
                while single_block.len() < need || micro_block.len() < need || step.elapsed() < STEP
                {
                    for _ in 0..ONLINE_CHUNK {
                        let i = r % inputs.schedule.len();
                        let rows = &inputs.request_rows[i];
                        match &inputs.schedule[i] {
                            Request::Single(_) => {
                                let t0 = Instant::now();
                                let out = m.try_classify(&rows[0]);
                                single_block.push(t0.elapsed().as_secs_f64() * 1e6);
                                tally.record(out == p.request_refs[i][0]);
                            }
                            Request::Batch(_) => {
                                let t0 = Instant::now();
                                let out = m.classify_batch(rows);
                                micro_block.push(t0.elapsed().as_secs_f64() * 1e6);
                                tally.record(out == p.request_refs[i]);
                            }
                        }
                        r += 1;
                    }
                }
                singles
                    .close(&mut single_block)
                    .and_then(|()| micro.close(&mut micro_block))
                    .map_err(|e| (tally, format!("online block: {e}")))?;
            }
        }
        blocks[phase] += 1;
        spent[phase] += step.elapsed().as_secs_f64();
    }
    info.extend(cold_error);

    // Quality, on the references every served output was checked against.
    let test_preds = if w.quality == QualityRows::TestSplit {
        m.set_threads(batch_threads);
        let served_test = m.predict_dataset(&inputs.split.test);
        let reference = p.model.predict_dataset(&inputs.split.test);
        tally.record_rows(&served_test, &reference);
        reference
    } else {
        Vec::new()
    };
    let rows = quality_rows(w, &inputs, &p, &test_preds);
    let (accuracy, local_bias) = quality(&p.model, &rows, inputs.draw.group_index().len());

    let trimmed = |blocks: &[f64], what: &str| {
        stats::trimmed_mean(blocks).map_err(|e| format!("{what}: {e}"))
    };
    let timings = (|| -> Result<[f64; 7], String> {
        Ok([
            trimmed(&gauge_blocks, "gauge")?,
            trimmed(&batch_blocks, "batches")?,
            trimmed(&singles.p50, "single p50")?,
            trimmed(&singles.p90, "single p90")?,
            trimmed(&micro.p50, "microbatch p50")?,
            trimmed(&micro.p90, "microbatch p90")?,
            trimmed(&cold_blocks, "cold starts")?,
        ])
    })()
    .map_err(|e| (tally, e))?;
    for (what, class) in [("single", &singles), ("microbatch", &micro)] {
        info.push(match stats::trimmed_mean(&class.p99) {
            Ok(p99) => format!(
                "{what} p99 {p99:.3} us (trimmed mean over {} blocks of {} samples in all; not gated)",
                class.p99.len(),
                class.samples
            ),
            Err(e) => format!("{what} p99: {e}"),
        });
    }
    info.push(format!(
        "fits: {} of {} s",
        fit_times.len(),
        fit_times
            .iter()
            .map(|t| format!("{t:.3}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    info.push(format!(
        "blocks: {} of {cold_starts} cold starts, {} of {b} batches of {BATCH_ROWS} rows, {} of {} single and {} microbatch requests",
        blocks[COLD],
        blocks[BULK],
        blocks[ONLINE],
        singles.samples,
        micro.samples
    ));

    // Every timing at the gauge's reference speed (see `crate::gauge`).
    let [gauge_s, batch, s50, s90, m50, m90, c50] = timings;
    let (setup, fit) = (stats::median(&setup_times), mean(&fit_times));
    let scale = gauge::REFERENCE_S / gauge_s;
    info.push(format!(
        "gauge: {:.4} ms per pass over {} blocks, so timings are scaled by {scale:.4}; wall clock: setup_s {setup:.4}, fit_s {fit:.4}, batch_rows_per_s {:.0}, single p50 {s50:.4} p90 {s90:.4} us, microbatch p50 {m50:.4} p90 {m90:.4} us, cold_start_p50_ms {c50:.4}",
        gauge_s * 1e3,
        gauge_blocks.len(),
        BATCH_ROWS as f64 / batch,
    ));
    let metrics = vec![
        Metric::new("setup_s", setup * scale, "s"),
        Metric::new("fit_s", fit * scale, "s"),
        Metric::new("accuracy", accuracy, "ratio"),
        Metric::new("local_bias", local_bias, "ratio"),
        Metric::new(
            "batch_rows_per_s",
            BATCH_ROWS as f64 / (batch * scale),
            "rows/s",
        ),
        Metric::new("single_p50_us", s50 * scale, "us"),
        Metric::new("single_p90_us", s90 * scale, "us"),
        Metric::new("microbatch_p50_us", m50 * scale, "us"),
        Metric::new("microbatch_p90_us", m90 * scale, "us"),
        Metric::new("cold_start_p50_ms", c50 * scale, "ms"),
        Metric::new("peak_rss_mb", peak_rss_mb, "MB"),
    ];
    Ok((tally, metrics))
}

/// Returns the allocator's free memory to the system.
fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::ffi::c_int;
        }
        // SAFETY: glibc's `malloc_trim` only releases memory the allocator
        // holds free, and may be called at any time from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Mean of `samples` (0 for none).
fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}
