//! Seeded input generation: synthetic recipes for the sweeps, the hot job
//! pool and the fresh request sequence for the serve workloads.
//!
//! Everything here is a pure function of the seed, so the same seed gives
//! the same programs and the same request sequence on every run.

use mim::core::SplitMix64;
use mim::isa::WORD_BYTES;
use mim::runner::WorkloadSpec;
use mim::serve::JobSpec;
use mim::workloads::synth::SyntheticRecipe;
use mim::workloads::{mibench, WorkloadSize};
use serde::Value;

/// Synthetic recipes added to every sweep.
const RECIPES: usize = 6;

/// Jobs in the hot pool.
const HOT_POOL: usize = 16;

/// The three footprint classes the recipes rotate through, in words: below
/// the 32 KB L1, inside the 128 KB–1 MB L2 axis of Table 2, and beyond it.
const FOOTPRINTS: [(usize, usize); 3] = [
    (512, 32 * 1024 / WORD - 512),
    (160 * 1024 / WORD, 900 * 1024 / WORD),
    (1536 * 1024 / WORD, 3 * 1024 * 1024 / WORD),
];

const WORD: usize = WORD_BYTES as usize;

fn range(rng: &mut SplitMix64, lo: usize, hi: usize) -> usize {
    lo + rng.below(hi - lo + 1)
}

/// The seeded synthetic recipes of a sweep. Every recipe runs close to
/// `dynamic_len` instructions, so seeds change behaviour (mix,
/// dependencies, branches, footprint, access pattern) but not the amount of
/// work.
pub fn recipes(seed: u64, dynamic_len: u64) -> Vec<SyntheticRecipe> {
    let mut rng = SplitMix64::new(seed ^ 0x0005_eed0_f7ec_19e5);
    (0..RECIPES)
        .map(|i| {
            let block_size = range(&mut rng, 24, 64);
            let (lo, hi) = FOOTPRINTS[i % FOOTPRINTS.len()];
            // The access pattern and the memory share of the mix are fixed
            // per recipe slot: they set most of a recipe's profiling cost,
            // which seeds should not move.
            let random_addresses = i % 2 == 1;
            let deps = range(&mut rng, 1, 8);
            SyntheticRecipe {
                block_size,
                iterations: dynamic_len / (block_size as u64 + 2),
                mix: (
                    range(&mut rng, 45, 60) as u32,
                    range(&mut rng, 0, 6) as u32,
                    range(&mut rng, 0, 2) as u32,
                    20,
                    10,
                ),
                dep_distances: (0..deps).map(|_| range(&mut rng, 1, 9) as u32).collect(),
                footprint_words: range(&mut rng, lo, hi),
                branch_percent: range(&mut rng, 5, 15) as u32,
                branch_random_percent: range(&mut rng, 0, 100) as u32,
                stride_words: if random_addresses {
                    0
                } else {
                    range(&mut rng, 1, 16)
                },
                random_addresses,
                seed: rng.next_u64(),
            }
        })
        .collect()
}

/// The workloads of one sweep: the 19 MiBench kernels at `size`, then the
/// seeded recipes, each program generated once and handed to the experiment
/// as a fixed program.
pub fn sweep_specs(seed: u64, size: WorkloadSize, recipe_len: u64) -> Vec<WorkloadSpec> {
    let mut specs: Vec<WorkloadSpec> = mibench::all()
        .into_iter()
        .map(|w| WorkloadSpec::program(w.name(), w.program(size)))
        .collect();
    for (i, recipe) in recipes(seed, recipe_len).iter().enumerate() {
        specs.push(WorkloadSpec::program(
            format!("synth-{i}"),
            recipe.generate(),
        ));
    }
    specs
}

fn kernel_names() -> Vec<&'static str> {
    mibench::all().iter().map(|w| w.name()).collect()
}

fn pick_distinct(rng: &mut SplitMix64, names: &[&'static str], n: usize) -> Vec<String> {
    let mut pool = names.to_vec();
    (0..n)
        .map(|_| pool.remove(rng.below(pool.len())).to_string())
        .collect()
}

fn widths(rng: &mut SplitMix64, n: usize) -> Vec<u32> {
    let mut all = vec![1u32, 2, 3, 4];
    let mut chosen: Vec<u32> = (0..n).map(|_| all.remove(rng.below(all.len()))).collect();
    chosen.sort_unstable();
    chosen
}

/// The instruction limit every experiment job of the repository's own
/// serve callers uses (`examples/serve.rs`, the `serve_throughput` bench).
pub const JOB_LIMIT: u64 = 20_000;

/// Fresh requests per round. Every round runs on a new server, so the cell
/// memo a request meets holds only the cells of the requests before it in
/// its round, whatever the run's throughput. A multiple of 4, so every round
/// has the same number of report rows.
pub const FRESH_ROUND: u64 = 16;

fn experiment_job(title: String, workloads: Vec<String>, widths: Vec<u32>, limit: u64) -> JobSpec {
    let strs = |items: Vec<String>| Value::Array(items.into_iter().map(Value::Str).collect());
    let job = Value::Object(vec![
        ("kind".into(), Value::Str("experiment".into())),
        ("title".into(), Value::Str(title)),
        ("workloads".into(), strs(workloads)),
        ("size".into(), Value::Str("tiny".into())),
        ("limit".into(), Value::UInt(limit)),
        ("evaluators".into(), strs(vec!["model".into()])),
        (
            "space".into(),
            Value::Object(vec![
                ("preset".into(), Value::Str("table2".into())),
                (
                    "widths".into(),
                    Value::Array(widths.into_iter().map(|w| Value::UInt(w.into())).collect()),
                ),
            ]),
        ),
    ]);
    JobSpec::from_value(&job).expect("generated jobs name registry workloads and valid axes")
}

/// The shape of the `serve_throughput` bench's jobs: two workloads over a
/// width slice of the full Table 2 space (no stride), three slices of two
/// widths for every slice of three. Slot `i` fixes the slice size, so a
/// pool or round of a multiple of 4 jobs has the same number of rows
/// whatever the seed; the seed picks the workloads and widths.
fn caller_shaped(rng: &mut SplitMix64, i: u64) -> (Vec<String>, Vec<u32>) {
    let workloads = pick_distinct(rng, &kernel_names(), 2);
    let widths = widths(rng, if i % 4 == 3 { 3 } else { 2 });
    (workloads, widths)
}

/// The hot pool: finished experiment jobs the clients re-submit, each at
/// the callers' limit. Every report has 192 or 288 rows.
pub fn hot_pool(seed: u64) -> Vec<JobSpec> {
    let mut rng = SplitMix64::new(seed ^ 0x407_9001);
    (0..HOT_POOL as u64)
        .map(|i| {
            let (workloads, widths) = caller_shaped(&mut rng, i);
            experiment_job(format!("hot-{i}"), workloads, widths, JOB_LIMIT)
        })
        .collect()
}

/// The `index`-th job of the fresh request sequence. Its limit is the
/// callers' limit plus the job's place in its round, so no two requests of
/// a round share a job, a cell, a recording or a profile: every request is
/// a miss at every layer. The limit grows by at most `FRESH_ROUND - 1`
/// instructions, so the work per request stays the same to within 0.1%.
pub fn fresh_job(seed: u64, index: u64) -> JobSpec {
    let mut rng = SplitMix64::new(seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let (workloads, widths) = caller_shaped(&mut rng, index);
    let limit = JOB_LIMIT + index % FRESH_ROUND;
    experiment_job(format!("fresh-{index}"), workloads, widths, limit)
}

/// The hot pool index a client sends next: per client, a seeded shuffle of
/// the whole pool, then another. Each cycle sends every job once, so the
/// share of 288-row reports is the same whatever the seed.
pub struct HotOrder {
    rng: SplitMix64,
    cycle: Vec<usize>,
}

impl HotOrder {
    pub fn new(seed: u64, client: usize) -> HotOrder {
        HotOrder {
            rng: SplitMix64::new(seed ^ 0xc11e_0000 ^ client as u64),
            cycle: Vec::new(),
        }
    }

    pub fn next_index(&mut self) -> usize {
        if self.cycle.is_empty() {
            self.cycle = (0..HOT_POOL).collect();
            for i in (1..HOT_POOL).rev() {
                let j = self.rng.below(i + 1);
                self.cycle.swap(i, j);
            }
        }
        self.cycle.pop().expect("a refilled cycle is not empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mim::trace::Trace;

    #[test]
    fn same_seed_gives_same_program_bytes() {
        let fingerprints = |seed| -> Vec<u64> {
            sweep_specs(seed, WorkloadSize::Tiny, 20_000)
                .iter()
                .map(|s| Trace::fingerprint_of(&s.program_at(WorkloadSize::Tiny)))
                .collect()
        };
        assert_eq!(fingerprints(7), fingerprints(7));
        assert_ne!(fingerprints(7), fingerprints(8));
    }

    #[test]
    fn same_seed_gives_same_request_sequence() {
        let sequence = |seed| -> Vec<u64> {
            let mut order = HotOrder::new(seed, 0);
            let pool: Vec<u64> = hot_pool(seed).iter().map(JobSpec::fingerprint).collect();
            let mut seq: Vec<u64> = (0..64).map(|_| pool[order.next_index()]).collect();
            seq.extend((0..64).map(|i| fresh_job(seed, i).fingerprint()));
            seq
        };
        assert_eq!(sequence(3), sequence(3));
        assert_ne!(sequence(3), sequence(4));
    }

    #[test]
    fn hot_order_sends_every_pool_job_once_per_cycle() {
        let mut order = HotOrder::new(9, 1);
        for _ in 0..3 {
            let mut cycle: Vec<usize> = (0..HOT_POOL).map(|_| order.next_index()).collect();
            cycle.sort_unstable();
            assert_eq!(cycle, (0..HOT_POOL).collect::<Vec<_>>());
        }
    }

    #[test]
    fn fresh_jobs_never_repeat_and_hot_jobs_are_distinct() {
        // Unique within a round, which is all one server ever sees.
        for round in 0..4 {
            let mut fresh: Vec<u64> = (round * FRESH_ROUND..(round + 1) * FRESH_ROUND)
                .map(|i| fresh_job(5, i).fingerprint())
                .collect();
            fresh.sort_unstable();
            fresh.dedup();
            assert_eq!(fresh.len(), FRESH_ROUND as usize);
        }
        let mut hot: Vec<u64> = hot_pool(5).iter().map(JobSpec::fingerprint).collect();
        hot.sort_unstable();
        hot.dedup();
        assert_eq!(hot.len(), HOT_POOL);
    }

    #[test]
    fn recipes_span_the_footprint_classes_with_fixed_length() {
        let recipes = recipes(11, 100_000);
        for (i, r) in recipes.iter().enumerate() {
            let (lo, hi) = FOOTPRINTS[i % FOOTPRINTS.len()];
            assert!((lo..=hi).contains(&r.footprint_words));
            let len = r.max_dynamic_length();
            assert!((95_000..=105_000).contains(&len), "recipe {i} runs {len}");
        }
    }
}
