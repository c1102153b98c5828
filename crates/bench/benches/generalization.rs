//! Criterion bench for the relational layer: full-domain lattice search,
//! cell-level generalization, and the linkage attacker.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kanon_core::Budget;
use kanon_relation::cellgen::anonymize_cells;
use kanon_relation::{linkage_attack, GeneralizationLattice, Hierarchy, Schema, Table};
use kanon_workloads::{census_table, CensusParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn qi_table(n: usize) -> Table {
    let mut rng = StdRng::seed_from_u64(67);
    let census = census_table(&mut rng, &CensusParams { n, regions: 5 });
    let mut t = Table::new(Schema::new(vec!["age", "zip", "hours"]).unwrap());
    for row in census.rows() {
        t.push_row(vec![row[0].clone(), row[7].clone(), row[6].clone()])
            .unwrap();
    }
    t
}

fn hierarchies() -> Vec<Hierarchy> {
    vec![
        Hierarchy::Intervals {
            widths: vec![5, 10, 20, 40, 80],
        },
        Hierarchy::PrefixMask { height: 5 },
        Hierarchy::Intervals {
            widths: vec![5, 10, 20, 40],
        },
    ]
}

fn bench_lattice_search(c: &mut Criterion) {
    let table = qi_table(100);
    let mut group = c.benchmark_group("generalization/lattice_search_n100");
    group.sample_size(10);
    for k in [2usize, 5] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            let lattice = GeneralizationLattice::new(&table, hierarchies()).unwrap();
            b.iter(|| lattice.search_minimal(k, &Budget::unlimited()).unwrap());
        });
    }
    group.finish();
}

fn bench_cellgen(c: &mut Criterion) {
    let mut group = c.benchmark_group("generalization/cellgen_k3");
    group.sample_size(10);
    for n in [50usize, 100, 200] {
        let table = qi_table(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &table, |b, table| {
            b.iter(|| {
                anonymize_cells(table, &hierarchies(), 3, &Default::default())
                    .unwrap()
                    .precision_loss
            });
        });
    }
    group.finish();
}

fn bench_linkage(c: &mut Criterion) {
    let table = qi_table(200);
    let cell = anonymize_cells(&table, &hierarchies(), 3, &Default::default()).unwrap();
    let pairs = [("age", "age"), ("zip", "zip"), ("hours", "hours")];
    let mut group = c.benchmark_group("generalization/linkage_attack_n200");
    group.sample_size(10);
    group.bench_function("generalized_release", |b| {
        b.iter(|| {
            linkage_attack(&cell.released, &table, &pairs)
                .unwrap()
                .unique_matches
        });
    });
    group.bench_function("raw_release", |b| {
        b.iter(|| {
            linkage_attack(&table, &table, &pairs)
                .unwrap()
                .unique_matches
        });
    });
    group.finish();
}

criterion_group!(benches, bench_lattice_search, bench_cellgen, bench_linkage);
criterion_main!(benches);
