//! # kanon-relation
//!
//! The relational layer above `kanon-core`: typed tables with named
//! attributes, dictionary encoding into the `Σ^m` vector model the paper
//! analyses, CSV import/export, and — as an extension beyond the paper's
//! suppression-only model — full-domain **generalization hierarchies** with
//! a lattice search (the paper's §1 example generalizes `34 → 20-40` and
//! `Reyser → R*`; this crate makes that executable).
//!
//! Typical flow:
//!
//! ```
//! use kanon_relation::{Table, Schema};
//! use kanon_core::{algo, Algorithm, Budget};
//!
//! let schema = Schema::new(vec!["first", "last", "age", "race"]).unwrap();
//! let mut table = Table::new(schema);
//! table.push_str_row(&["Harry", "Stone", "34", "Afr-Am"]).unwrap();
//! table.push_str_row(&["John", "Reyser", "36", "Cauc"]).unwrap();
//! table.push_str_row(&["Beatrice", "Stone", "47", "Afr-Am"]).unwrap();
//! table.push_str_row(&["John", "Ramos", "22", "Hisp"]).unwrap();
//!
//! let (dataset, codec) = table.encode();
//! let partition =
//!     algo::center_greedy(&dataset, 2, &Default::default(), &Budget::unlimited()).unwrap();
//! let result =
//!     algo::anonymization_from_partition(&dataset, partition, 2, Algorithm::CenterGreedy)
//!         .unwrap();
//! let released = codec.decode(&result.table).unwrap();
//! assert!(released.contains('*'));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cellgen;
pub mod csv;
pub mod encode;
pub mod error;
pub mod hierarchy;
pub mod lattice;
pub mod linkage;
pub mod schema;
pub mod table;

pub use cellgen::{anonymize_cells, CellGenConfig, CellGeneralization};
pub use encode::Codec;
pub use error::{Error, Result};
pub use hierarchy::Hierarchy;
pub use lattice::{GeneralizationLattice, LatticeNode};
pub use linkage::{linkage_attack, LinkageIndex, LinkageReport};
pub use schema::Schema;
pub use table::Table;
