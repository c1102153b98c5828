//! Machine-readable perf baseline for the §4.2 candidate hot path
//! (ISSUE 3 satellite): times the distance-cache build, candidate
//! materialization, and end-to-end `full_greedy_cover` on fixed-seed
//! workloads, against **frozen legacy implementations** of the pre-arena
//! pipeline, and writes `BENCH_candidates.json` with before/after speedups.
//!
//! The legacy side reproduces, line for line in spirit, what the tree did
//! before the flat-arena/incremental-diameter/packed-kernel change:
//!
//! * scalar `Value`-at-a-time Hamming fills for the triangular cache (with
//!   the same banded thread split, so the comparison isolates the packed
//!   kernel rather than parallelism, which predates this change);
//! * one heap-allocated `Vec<u32>` per candidate plus an O(s²)
//!   from-scratch `diameter_ids` recompute, merged from per-worker `Vec`s;
//! * the same lazy-greedy heap with exact rational keys and index
//!   tie-breaks, cloning each chosen set.
//!
//! Both sides must produce identical covers — the harness asserts it — so
//! the numbers compare equal work, not different answers.
//!
//! ```text
//! cargo run --release -p kanon-bench --bin bench_candidates -- [--quick] \
//!     [--threads N] [--out PATH]
//! ```

use std::time::Instant;

use kanon_core::distcache::PairwiseDistances;
use kanon_core::govern::Budget;
use kanon_core::greedy::{full_greedy_cover, CandidateArena, FullCoverConfig};
use kanon_core::Cover;
use kanon_workloads::uniform;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Frozen pre-optimization implementations. Kept private to this binary:
/// they exist only so the benchmark can measure "before" without checking
/// out an old commit.
mod legacy {
    use kanon_core::metric::hamming;
    use kanon_core::{Cover, Dataset};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The pre-packed-kernel triangular cache: scalar Hamming per pair.
    pub struct ScalarCache {
        n: usize,
        d: Vec<u32>,
    }

    impl ScalarCache {
        fn index(&self, i: usize, j: usize) -> usize {
            debug_assert!(i < j);
            i * (2 * self.n - i - 1) / 2 + (j - i - 1)
        }

        pub fn get(&self, i: usize, j: usize) -> u32 {
            if i == j {
                return 0;
            }
            let (a, b) = if i < j { (i, j) } else { (j, i) };
            self.d[self.index(a, b)]
        }

        /// Banded parallel build, one scalar `hamming` call per pair — the
        /// same work split the governed build uses, minus the packed rows.
        pub fn build(ds: &Dataset, threads: usize) -> Self {
            let n = ds.n_rows();
            let len = n * (n - 1) / 2;
            let mut d = vec![0u32; len];
            let offset = |i: usize| i * (2 * n - i - 1) / 2;
            if threads <= 1 || n < 128 {
                for i in 0..n {
                    let base = offset(i);
                    for j in (i + 1)..n {
                        d[base + (j - i - 1)] = hamming(ds.row(i), ds.row(j)) as u32;
                    }
                }
                return ScalarCache { n, d };
            }
            // Split first indices into contiguous bands of roughly equal
            // pair counts; each band owns a disjoint slice of the triangle.
            let per = len.div_ceil(threads).max(1);
            let mut bands: Vec<(usize, usize)> = Vec::new();
            let mut i = 0usize;
            while i < n {
                let start = i;
                let mut acc = 0usize;
                while i < n && acc < per {
                    acc += n - i - 1;
                    i += 1;
                }
                bands.push((start, i));
            }
            std::thread::scope(|scope| {
                let mut rest: &mut [u32] = &mut d;
                for &(start, end) in &bands {
                    let band_len = offset(end) - offset(start);
                    let (chunk, tail) = rest.split_at_mut(band_len);
                    rest = tail;
                    scope.spawn(move || {
                        let mut w = 0usize;
                        for i in start..end {
                            for j in (i + 1)..n {
                                chunk[w] = hamming(ds.row(i), ds.row(j)) as u32;
                                w += 1;
                            }
                        }
                    });
                }
            });
            ScalarCache { n, d }
        }
    }

    /// O(s²) from-scratch diameter over the cache — the per-candidate cost
    /// the incremental prefix-diameter walk removed.
    fn diameter_ids(cache: &ScalarCache, ids: &[u32]) -> u64 {
        let mut best = 0u32;
        for (a, &i) in ids.iter().enumerate() {
            for &j in &ids[a + 1..] {
                best = best.max(cache.get(i as usize, j as usize));
            }
        }
        u64::from(best)
    }

    fn binomial(n: usize, r: usize) -> usize {
        if r > n {
            return 0;
        }
        let mut c = 1u128;
        for t in 0..r {
            c = c * (n - t) as u128 / (t + 1) as u128;
        }
        c as usize
    }

    fn for_each_combination(n: usize, s: usize, f: &mut impl FnMut(&[u32])) {
        if s == 0 || s > n {
            return;
        }
        let mut combo: Vec<u32> = (0..s as u32).collect();
        loop {
            f(&combo);
            let mut i = s;
            loop {
                if i == 0 {
                    return;
                }
                i -= 1;
                if combo[i] < (n - s + i) as u32 {
                    combo[i] += 1;
                    for j in i + 1..s {
                        combo[j] = combo[j - 1] + 1;
                    }
                    break;
                }
            }
        }
    }

    fn for_each_combination_with_first(
        n: usize,
        s: usize,
        first: usize,
        f: &mut impl FnMut(&[u32]),
    ) {
        if s == 1 {
            f(&[first as u32]);
            return;
        }
        if first + s > n {
            return;
        }
        let mut combo: Vec<u32> = (first as u32..(first + s) as u32).collect();
        loop {
            f(&combo);
            let mut i = s;
            loop {
                if i == 1 {
                    return;
                }
                i -= 1;
                if combo[i] < (n - s + i) as u32 {
                    combo[i] += 1;
                    for j in i + 1..s {
                        combo[j] = combo[j - 1] + 1;
                    }
                    break;
                }
            }
        }
    }

    /// The retired representation: one `Vec<u32>` per candidate.
    pub type WeightedCombos = Vec<(Vec<u32>, u64)>;

    /// Pre-arena materialization: per-worker `Vec`s merged serially, one
    /// allocation and one O(s²) diameter recompute per candidate.
    pub fn materialize(cache: &ScalarCache, n: usize, k: usize, threads: usize) -> WeightedCombos {
        let mut candidates: WeightedCombos = Vec::new();
        for s in k..=(2 * k - 1).min(n) {
            if threads <= 1 || binomial(n, s) < 4_096 {
                for_each_combination(n, s, &mut |combo| {
                    candidates.push((combo.to_vec(), diameter_ids(cache, combo)));
                });
                continue;
            }
            let per_chunk = binomial(n, s).div_ceil(threads).max(1);
            let mut chunks: Vec<(usize, usize)> = Vec::new();
            let mut f = 0usize;
            while f + s <= n {
                let start = f;
                let mut acc = 0usize;
                while f + s <= n && acc < per_chunk {
                    acc += binomial(n - 1 - f, s - 1);
                    f += 1;
                }
                chunks.push((start, f));
            }
            let locals: Vec<WeightedCombos> = std::thread::scope(|scope| {
                let handles: Vec<_> = chunks
                    .iter()
                    .map(|&(start, end)| {
                        scope.spawn(move || {
                            let mut local: WeightedCombos = Vec::new();
                            for first in start..end {
                                for_each_combination_with_first(n, s, first, &mut |combo| {
                                    local.push((combo.to_vec(), diameter_ids(cache, combo)));
                                });
                            }
                            local
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for local in locals {
                candidates.extend(local);
            }
        }
        candidates
    }

    /// Exact rational ratio with the same `(ratio, index)` tie-break the
    /// current heap uses.
    #[derive(Clone, Copy, PartialEq, Eq)]
    struct Ratio {
        num: u64,
        den: u64,
    }

    impl PartialOrd for Ratio {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for Ratio {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            (u128::from(self.num) * u128::from(other.den))
                .cmp(&(u128::from(other.num) * u128::from(self.den)))
        }
    }

    /// Pre-arena lazy-greedy loop: clones every chosen set.
    pub fn greedy_cover(candidates: &WeightedCombos, n: usize, k: usize) -> Cover {
        let uncovered_in = |set: &[u32], covered: &[bool]| -> u64 {
            set.iter().filter(|&&r| !covered[r as usize]).count() as u64
        };
        let mut covered = vec![false; n];
        let mut remaining = n;
        let mut heap: BinaryHeap<Reverse<(Ratio, usize)>> = candidates
            .iter()
            .enumerate()
            .map(|(idx, (set, d))| {
                Reverse((
                    Ratio {
                        num: *d,
                        den: set.len() as u64,
                    },
                    idx,
                ))
            })
            .collect();
        let mut chosen: Vec<Vec<u32>> = Vec::new();
        while remaining > 0 {
            let Reverse((key, idx)) = heap.pop().expect("candidates cover V");
            let (set, d) = &candidates[idx];
            let fresh = uncovered_in(set, &covered);
            if fresh == 0 {
                continue;
            }
            let current = Ratio {
                num: *d,
                den: fresh,
            };
            if current != key {
                heap.push(Reverse((current, idx)));
                continue;
            }
            for &r in set {
                if !covered[r as usize] {
                    covered[r as usize] = true;
                    remaining -= 1;
                }
            }
            chosen.push(set.clone());
        }
        Cover::new(chosen, n, k).expect("legacy greedy produces a valid cover")
    }
}

/// One timed phase: before/after milliseconds plus the ratio.
struct Phase {
    name: &'static str,
    before_ms: f64,
    after_ms: f64,
}

impl Phase {
    fn speedup(&self) -> f64 {
        self.before_ms / self.after_ms.max(1e-9)
    }
}

struct WorkloadReport {
    name: String,
    n: usize,
    m: usize,
    k: usize,
    candidates: usize,
    phases: Vec<Phase>,
    covers_agree: bool,
    diameter_sum: usize,
}

/// Best-of-`reps` wall time, in milliseconds, for `f` (result discarded).
fn time_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        std::hint::black_box(f());
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// A fixed-seed workload description.
struct Spec {
    name: &'static str,
    seed: u64,
    n: usize,
    m: usize,
    alphabet: u32,
    k: usize,
}

fn run_workload(spec: &Spec, threads: usize, reps: usize) -> WorkloadReport {
    let &Spec {
        name,
        seed,
        n,
        m,
        alphabet,
        k,
    } = spec;
    let mut rng = StdRng::seed_from_u64(seed);
    let ds = uniform(&mut rng, n, m, alphabet);
    let budget = Budget::unlimited();
    let config = FullCoverConfig {
        max_candidates: 7_000_000,
        parallel: threads > 1,
        num_threads: Some(threads),
    };

    // Cache build, sequential on both sides: isolates the packed kernel.
    let cache_before = time_ms(reps, || legacy::ScalarCache::build(&ds, 1));
    let cache_after = time_ms(reps, || {
        PairwiseDistances::build(&ds, Some(1), &Budget::unlimited()).unwrap()
    });

    let legacy_cache = legacy::ScalarCache::build(&ds, threads);
    let cache = PairwiseDistances::build(&ds, Some(threads), &Budget::unlimited()).unwrap();

    // Materialization: per-candidate Vec + O(s²) diameters vs flat arena +
    // incremental prefix diameters, same thread count.
    let mat_before = time_ms(reps, || legacy::materialize(&legacy_cache, n, k, threads));
    let mat_after = time_ms(reps, || {
        CandidateArena::try_materialize(&cache, k, threads, &budget).unwrap()
    });

    // End to end, including each side's own cache build.
    let e2e_before = time_ms(reps, || {
        let lc = legacy::ScalarCache::build(&ds, threads);
        let cands = legacy::materialize(&lc, n, k, threads);
        legacy::greedy_cover(&cands, n, k)
    });
    let e2e_after = time_ms(reps, || {
        let c = PairwiseDistances::build(&ds, Some(threads), &Budget::unlimited()).unwrap();
        full_greedy_cover(&ds, k, &config, Some(&c), &Budget::unlimited()).unwrap()
    });

    // Self-check: the frozen legacy pipeline and the current one must pick
    // the exact same cover, or the timings compare different work.
    let legacy_cands = legacy::materialize(&legacy_cache, n, k, threads);
    let legacy_cover = legacy::greedy_cover(&legacy_cands, n, k);
    let current_cover: Cover =
        full_greedy_cover(&ds, k, &config, Some(&cache), &Budget::unlimited()).unwrap();
    let covers_agree = legacy_cover == current_cover;

    WorkloadReport {
        name: name.to_string(),
        n,
        m,
        k,
        candidates: legacy_cands.len(),
        phases: vec![
            Phase {
                name: "cache_build",
                before_ms: cache_before,
                after_ms: cache_after,
            },
            Phase {
                name: "materialize",
                before_ms: mat_before,
                after_ms: mat_after,
            },
            Phase {
                name: "end_to_end",
                before_ms: e2e_before,
                after_ms: e2e_after,
            },
        ],
        covers_agree,
        diameter_sum: current_cover.diameter_sum(&ds),
    }
}

/// Cache-build-only workload at a size where the O(m·n²) build dominates.
fn run_cache_only(
    seed: u64,
    n: usize,
    m: usize,
    alphabet: u32,
    reps: usize,
) -> (usize, usize, Phase, bool) {
    let mut rng = StdRng::seed_from_u64(seed);
    let ds = uniform(&mut rng, n, m, alphabet);
    let before = time_ms(reps, || legacy::ScalarCache::build(&ds, 1));
    let after = time_ms(reps, || {
        PairwiseDistances::build(&ds, Some(1), &Budget::unlimited()).unwrap()
    });
    // Agreement spot check on a diagonal stripe.
    let legacy_cache = legacy::ScalarCache::build(&ds, 1);
    let cache = PairwiseDistances::build(&ds, Some(1), &Budget::unlimited()).unwrap();
    let mut agree = true;
    for i in (0..n).step_by(97) {
        for j in (i + 1..n).step_by(31) {
            agree &= legacy_cache.get(i, j) == cache.get(i, j);
        }
    }
    (
        n,
        m,
        Phase {
            name: "cache_build",
            before_ms: before,
            after_ms: after,
        },
        agree,
    )
}

fn fmt_ms(v: f64) -> String {
    format!("{v:.3}")
}

fn main() {
    let mut quick = false;
    // Default to the actual core count: oversubscribing a small machine
    // adds symmetric noise to both sides without changing the comparison.
    let mut threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut out = String::from("BENCH_candidates.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--threads" => {
                threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--threads needs a positive integer");
            }
            "--out" => out = args.next().expect("--out needs a path"),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: bench_candidates [--quick] [--threads N] [--out PATH]");
                std::process::exit(2);
            }
        }
    }
    let reps = if quick { 1 } else { 3 };

    // Fixed-seed workloads; the last is the acceptance-criterion headline.
    #[rustfmt::skip]
    let specs: &[Spec] = if quick {
        &[
            Spec { name: "n32_k2_m8", seed: 0xA11CE, n: 32, m: 8, alphabet: 4, k: 2 },
            Spec { name: "n40_k3_m8", seed: 0xB0B, n: 40, m: 8, alphabet: 4, k: 3 },
        ]
    } else {
        &[
            Spec { name: "n32_k2_m8", seed: 0xA11CE, n: 32, m: 8, alphabet: 4, k: 2 },
            Spec { name: "n48_k3_m8", seed: 0xB0B, n: 48, m: 8, alphabet: 4, k: 3 },
            Spec { name: "n60_k3_m8", seed: 0xD157, n: 60, m: 8, alphabet: 4, k: 3 },
        ]
    };

    let mut reports = Vec::new();
    for spec in specs {
        eprintln!(
            "workload {} (n={} m={} k={}, {threads} threads)...",
            spec.name, spec.n, spec.m, spec.k
        );
        let report = run_workload(spec, threads, reps);
        for p in &report.phases {
            eprintln!(
                "  {:<12} before {:>10} ms  after {:>10} ms  speedup {:>6.2}x",
                p.name,
                fmt_ms(p.before_ms),
                fmt_ms(p.after_ms),
                p.speedup()
            );
        }
        assert!(
            report.covers_agree,
            "workload {}: legacy and current covers diverge",
            report.name
        );
        reports.push(report);
    }

    let (cn, cm) = if quick { (400, 16) } else { (1_200, 16) };
    eprintln!("workload cache_n{cn}_m{cm} (build only, sequential)...");
    let (cache_n, cache_m, cache_phase, cache_agree) = run_cache_only(0xB111D, cn, cm, 4, reps);
    eprintln!(
        "  {:<12} before {:>10} ms  after {:>10} ms  speedup {:>6.2}x",
        cache_phase.name,
        fmt_ms(cache_phase.before_ms),
        fmt_ms(cache_phase.after_ms),
        cache_phase.speedup()
    );
    assert!(cache_agree, "packed cache diverges from the scalar build");

    // Hand-rolled JSON: the workspace deliberately vendors no serde.
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"harness\": \"bench_candidates\",\n");
    json.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if quick { "quick" } else { "full" }
    ));
    json.push_str(&format!("  \"threads\": {threads},\n"));
    json.push_str(&format!("  \"reps\": {reps},\n"));
    json.push_str("  \"workloads\": [\n");
    for (w, report) in reports.iter().enumerate() {
        json.push_str("    {\n");
        json.push_str(&format!("      \"name\": \"{}\",\n", report.name));
        json.push_str(&format!(
            "      \"n\": {}, \"m\": {}, \"k\": {}, \"candidates\": {},\n",
            report.n, report.m, report.k, report.candidates
        ));
        for p in &report.phases {
            json.push_str(&format!(
                "      \"{}\": {{\"before_ms\": {}, \"after_ms\": {}, \"speedup\": {:.2}}},\n",
                p.name,
                fmt_ms(p.before_ms),
                fmt_ms(p.after_ms),
                p.speedup()
            ));
        }
        json.push_str(&format!(
            "      \"covers_agree\": {}, \"diameter_sum\": {}\n",
            report.covers_agree, report.diameter_sum
        ));
        json.push_str(if w + 1 == reports.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"cache_only\": {{\"n\": {cache_n}, \"m\": {cache_m}, \"before_ms\": {}, \"after_ms\": {}, \"speedup\": {:.2}, \"agree\": {cache_agree}}}\n",
        fmt_ms(cache_phase.before_ms),
        fmt_ms(cache_phase.after_ms),
        cache_phase.speedup()
    ));
    json.push_str("}\n");

    std::fs::write(&out, &json).expect("write benchmark JSON");
    eprintln!("wrote {out}");
}
