//! Incremental anonymization over durable state.
//!
//! A [`DeltaStore`] keeps one table's encoded rows, its per-bucket solver
//! results, and a WAL + snapshot pair on disk, so inserts, deletes, and
//! updates re-solve **only the buckets they touch** instead of the whole
//! table. Soundness rests on the same `(k, 2k-1)` disjoint-composition
//! argument as the batch engine (DESIGN §5): every bucket's partition is a
//! valid local anonymization, the concatenation is a valid global one, and
//! cost is additive — so replacing one bucket's partition never invalidates
//! the others.
//!
//! ## Equivalence with the batch pipeline
//!
//! The store is built so that, at any point, its released table is
//! **byte-identical** to a fresh [`crate::run_csv`] over the current table
//! contents with the same `k`, `shard_size`, and pinned
//! [`PipelineConfig::n_buckets`] (given budgets generous enough that no
//! shard degrades). Three invariants carry that guarantee:
//!
//! 1. **Canonical encoding** — row codes always equal what the streaming
//!    encoder would assign scanning the live rows in id order. Inserts
//!    preserve this for free (a new value's first appearance is the new
//!    row); deletes and updates can shift first-appearance order, so any
//!    batch containing one triggers an `O(n·m)` re-canonicalization pass.
//! 2. **Pinned buckets** — the hash-bucket count is fixed at init, not
//!    derived from the (changing) row count, so a row's bucket depends only
//!    on its codes.
//! 3. **One plan, one executor** — the pinned buckets go through the same
//!    unit plan as [`crate::plan_shards`] (chunking, residue pooling and
//!    sub-`k` residue folding), stale units are solved by the batch
//!    engine's executor, and the merge goes through the same
//!    `engine::finalize_merge`.
//!
//! The `incremental_equiv` differential suite in `crates/tests` holds the
//! engine to that contract over random op streams.
//!
//! ## Durability
//!
//! `apply` validates the whole batch, appends it as **one** WAL record
//! (the durability point — a multi-row update is atomic by construction),
//! then updates memory and re-solves dirty buckets. A crash at any byte
//! leaves either a torn tail (the batch never happened) or a complete
//! record (replay redoes it); there is no state in between. Snapshots
//! compact the log: rename commits the snapshot, then the WAL resets, and
//! replay skips records at or below the snapshot's sequence number so a
//! crash between those two steps double-applies nothing.
//!
//! Staleness is detected by *content*, not bookkeeping: every cached
//! bucket solve stores a fingerprint of the exact rows-and-codes it saw,
//! and `refresh` re-solves whatever no longer matches. Recovery therefore
//! cannot trust a stale snapshot into serving a wrong release — at worst
//! it re-solves more than strictly needed.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use kanon_core::govern::Budget;
use kanon_core::{Anonymization, Dataset, Partition};
use kanon_relation::csv::Reader;
use kanon_relation::Codec;
use kanon_store::bytes::{ByteReader, ByteWriter};
use kanon_store::{read_snapshot, write_snapshot, DirLock, Wal};

use crate::config::{PipelineConfig, ShardStrategy};
use crate::engine;
use crate::error::{Error, Result};
use crate::ingest::ingest_csv;
use crate::json::JsonObject;
use crate::release::write_release;
use crate::shard::{fnv1a_row, plan_units, residue_chunk_target};

/// Snapshot format version; bumped on any payload layout change.
const SNAPSHOT_VERSION: u32 = 1;
/// Unit key reserved for the standalone residue pool.
const RESIDUE_KEY: u32 = u32::MAX;
/// WAL size that triggers an automatic snapshot compaction after `apply`.
const COMPACT_WAL_BYTES: u64 = 4 << 20;
/// Default average bucket size when `DeltaConfig::n_buckets` is `None`:
/// small buckets keep the dirty fraction of an update proportional to the
/// ops touched (≈ `1 - e^(-ops/buckets)` of the table), while staying
/// comfortably above `k` so few rows pool into the residue.
fn default_bucket_rows(k: usize) -> usize {
    8.max(2 * k)
}

/// How a [`DeltaStore`] is created. The `k`, `shard_size`, and bucket
/// count are fixed for the store's lifetime (they define the sharding a
/// batch run must reproduce); the budget governs init-time solving and is
/// replaced per-session by [`DeltaStore::open`].
#[derive(Clone, Debug)]
pub struct DeltaConfig {
    /// The anonymity parameter.
    pub k: usize,
    /// Target rows per shard, as in [`PipelineConfig::shard_size`].
    pub shard_size: usize,
    /// Hash-bucket count. `None` derives `ceil(n / max(8, 2k))` from the
    /// initial table — one bucket per handful of rows, so a 1% delta
    /// dirties only a few percent of buckets.
    pub n_buckets: Option<usize>,
    /// Quasi-identifier column names; `None` treats every column as
    /// quasi-identifying.
    pub quasi: Option<Vec<String>>,
    /// Budget for init-time solving.
    pub budget: Budget,
}

impl DeltaConfig {
    /// A config with the given `k` and defaults for everything else.
    #[must_use]
    pub fn new(k: usize) -> Self {
        DeltaConfig {
            k,
            shard_size: PipelineConfig::default().shard_size,
            n_buckets: None,
            quasi: None,
            budget: Budget::unlimited(),
        }
    }
}

/// One mutation in a delta batch. Row ids are assigned by the store:
/// initial rows get `0..n` in file order, inserts get the next id in op
/// order. Delete/update ids must name rows that were live *before* the
/// batch (referencing an id inserted by the same batch is rejected).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaOp {
    /// Append a row with the given field values (full arity).
    Insert {
        /// Values for every column, in header order.
        fields: Vec<String>,
    },
    /// Remove the row with this id.
    Delete {
        /// Id of the row to remove.
        id: u64,
    },
    /// Replace the row with this id — even when the new values hash to a
    /// different bucket, the move is atomic because the whole batch is one
    /// WAL record.
    Update {
        /// Id of the row to replace.
        id: u64,
        /// Replacement values for every column, in header order.
        fields: Vec<String>,
    },
}

/// A cached per-unit solver result plus the fingerprint of exactly what it
/// solved. The fingerprint covers row ids *and* quasi-identifier codes, so
/// both membership churn and re-canonicalization invalidate it.
#[derive(Clone, Debug)]
struct CachedUnit {
    fingerprint: u64,
    /// Effective row ids in solve order (chunks concatenated; a folded
    /// residue sits at the end of its absorbing chunk).
    rows: Vec<u64>,
    /// Local partition blocks (indices into `rows`), inside the band.
    blocks: Vec<Vec<u32>>,
    cost: usize,
    solved_by: String,
    degraded: bool,
}

/// One cache unit of the current plan: a bucket of at least `k` rows, as
/// the shared unit plan chunked it (a folded sub-`k` residue sits at the
/// end of one chunk), or the standalone residue under [`RESIDUE_KEY`].
struct Unit {
    key: u32,
    chunks: Vec<Vec<u64>>,
    /// Content fingerprint of the rows in solve order.
    fingerprint: u64,
    /// Whether the cache holds a solve of exactly this content.
    fresh: bool,
}

/// What [`DeltaStore::apply`] did.
#[derive(Clone, Debug)]
pub struct ApplyReport {
    /// Sequence number of the batch (1-based, monotonic).
    pub seq: u64,
    /// Ops applied, by kind.
    pub inserted: usize,
    /// Rows deleted.
    pub deleted: usize,
    /// Rows updated in place (possibly moving buckets).
    pub updated: usize,
    /// Live rows after the batch.
    pub n_rows: usize,
    /// Buckets (plus residue, when dirty) re-solved.
    pub resolved_units: usize,
    /// Rows inside those re-solved units — the actual solver work, vs. the
    /// `n_rows` a batch run would solve.
    pub resolved_rows: usize,
    /// Whether a delete/update forced the `O(n·m)` re-canonicalization.
    pub recanonicalized: bool,
    /// Total suppression cost after the batch.
    pub total_cost: usize,
    /// Whether this apply compacted the WAL into a snapshot.
    pub compacted: bool,
    /// WAL size after the batch (0 right after a compaction).
    pub wal_bytes: u64,
    /// Wall-clock time for the whole apply.
    pub elapsed: Duration,
}

impl ApplyReport {
    /// Renders the report as a JSON object (stable key order).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        obj.number("seq", u128::from(self.seq))
            .number("inserted", self.inserted as u128)
            .number("deleted", self.deleted as u128)
            .number("updated", self.updated as u128)
            .number("n_rows", self.n_rows as u128)
            .number("resolved_units", self.resolved_units as u128)
            .number("resolved_rows", self.resolved_rows as u128)
            .boolean("recanonicalized", self.recanonicalized)
            .number("total_cost", self.total_cost as u128)
            .boolean("compacted", self.compacted)
            .number("wal_bytes", u128::from(self.wal_bytes))
            .number("elapsed_ms", self.elapsed.as_millis());
        obj.finish()
    }
}

/// A point-in-time view of a store, from [`DeltaStore::status`].
#[derive(Clone, Debug)]
pub struct DeltaStatus {
    /// Live rows.
    pub n_rows: usize,
    /// The anonymity parameter.
    pub k: usize,
    /// Target rows per shard.
    pub shard_size: usize,
    /// Pinned hash-bucket count.
    pub n_buckets: usize,
    /// Applied batch count (0 right after init).
    pub seq: u64,
    /// Next row id an insert would get.
    pub next_id: u64,
    /// Current WAL size in bytes.
    pub wal_bytes: u64,
    /// Units whose cached solve no longer matches their content (0 unless
    /// the store was just reopened after a crash mid-solve).
    pub dirty_units: usize,
    /// Units with a cached solve, including the residue.
    pub cached_units: usize,
    /// Cached units that degraded below their first attempted rung.
    pub degraded_units: usize,
    /// Total suppression cost — `None` while any unit is dirty (the stale
    /// sum would be a lie; apply or release to refresh).
    pub total_cost: Option<usize>,
    /// Whether opening this store truncated a torn WAL tail (a crash
    /// mid-append was recovered).
    pub recovered_torn_tail: bool,
}

impl DeltaStatus {
    /// Renders the status as a JSON object (stable key order).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        obj.number("n_rows", self.n_rows as u128)
            .number("k", self.k as u128)
            .number("shard_size", self.shard_size as u128)
            .number("n_buckets", self.n_buckets as u128)
            .number("seq", u128::from(self.seq))
            .number("next_id", u128::from(self.next_id))
            .number("wal_bytes", u128::from(self.wal_bytes))
            .number("dirty_units", self.dirty_units as u128)
            .number("cached_units", self.cached_units as u128)
            .number("degraded_units", self.degraded_units as u128);
        match self.total_cost {
            Some(cost) => obj.number("total_cost", cost as u128),
            None => obj.raw("total_cost", "null"),
        };
        obj.boolean("recovered_torn_tail", self.recovered_torn_tail);
        obj.finish()
    }
}

/// A rendered release: the full table, its codec, and the anonymization of
/// the quasi-identifier projection — the same shape [`crate::CsvRun`]
/// gives a batch caller.
pub struct DeltaRelease {
    /// The full encoded table, rows in id order.
    pub dataset: Dataset,
    /// Dictionary codec for decoding values back to strings.
    pub codec: Codec,
    /// Column indices treated as the quasi-identifier.
    pub quasi: Vec<usize>,
    /// Anonymization of the quasi-identifier projection.
    pub anonymization: Anonymization,
}

impl DeltaRelease {
    /// Streams the released CSV to `w` (identical bytes to the batch
    /// pipeline's `--output` for the same table and sharding).
    ///
    /// # Errors
    /// I/O errors from `w`.
    pub fn write_csv(&self, w: impl std::io::Write) -> std::io::Result<()> {
        write_release(
            &self.dataset,
            &self.codec,
            &self.quasi,
            &self.anonymization.suppressor,
            w,
        )
    }

    /// The released CSV as a string.
    ///
    /// # Panics
    /// Never — the writer is a `Vec` and the codec renders valid UTF-8.
    #[must_use]
    pub fn to_csv_string(&self) -> String {
        let mut buf = Vec::new();
        self.write_csv(&mut buf).expect("writing to a Vec");
        String::from_utf8(buf).expect("codec values are UTF-8")
    }
}

/// Durable incremental anonymization state for one table. See the module
/// docs for the invariants; see `kanon delta` for the CLI surface.
pub struct DeltaStore {
    dir: PathBuf,
    wal: Wal,
    /// Single-writer guard on `dir`, held for the store's lifetime so two
    /// live stores (or processes) never append to the same WAL. Crash
    /// debris from a dead holder is taken over on open.
    _lock: DirLock,
    /// Solver configuration. `strategy` is always `HashQuasi` and
    /// `n_buckets` is always pinned; `budget` is the session budget.
    pipeline: PipelineConfig,
    k: usize,
    header: Vec<String>,
    quasi_cols: Vec<usize>,
    /// Per-column dictionaries (strings by code) and their inverses.
    columns: Vec<Vec<String>>,
    index: Vec<HashMap<String, u32>>,
    next_id: u64,
    /// Live rows: id → full-row codes. Id order is table order.
    rows: BTreeMap<u64, Vec<u32>>,
    /// Bucket membership (ids sorted, which is solve order).
    buckets: Vec<BTreeSet<u64>>,
    cache: HashMap<u32, CachedUnit>,
    seq: u64,
    recovered_torn_tail: bool,
}

fn bucket_of(codes: &[u32], quasi_cols: &[usize], n_buckets: usize) -> usize {
    (fnv1a_row(quasi_cols.iter().map(|&j| &codes[j])) % n_buckets as u64) as usize
}

fn snapshot_path(dir: &Path) -> PathBuf {
    dir.join("state.snap")
}

fn wal_path(dir: &Path) -> PathBuf {
    dir.join("delta.wal")
}

impl DeltaStore {
    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Initializes a store at `dir` from a CSV table: ingest, solve every
    /// bucket, write the first snapshot. Fails if `dir` already holds a
    /// store (open it instead — init is not idempotent by design).
    ///
    /// # Errors
    /// Ingestion errors, `k` validation, configuration errors, solver
    /// errors, and store I/O.
    pub fn init<R: Read>(dir: impl Into<PathBuf>, reader: R, config: &DeltaConfig) -> Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(kanon_store::Error::Io)?;
        if snapshot_path(&dir).exists() {
            return Err(Error::Delta(format!(
                "`{}` already holds a delta store (use open/apply, not init)",
                dir.display()
            )));
        }
        let lock = DirLock::acquire(&dir)?;
        let (dataset, codec) = ingest_csv(reader)?;
        dataset.check_k(config.k).map_err(Error::Core)?;
        let header = codec.header().to_vec();
        let quasi_cols: Vec<usize> = match &config.quasi {
            None => (0..header.len()).collect(),
            Some(names) => names
                .iter()
                .map(|name| {
                    header.iter().position(|h| h == name).ok_or_else(|| {
                        Error::Relation(kanon_relation::Error::UnknownAttribute(name.clone()))
                    })
                })
                .collect::<Result<_>>()?,
        };
        let n = dataset.n_rows();
        let n_buckets = config
            .n_buckets
            .unwrap_or_else(|| n.div_ceil(default_bucket_rows(config.k)))
            .max(1);
        let pipeline = PipelineConfig {
            shard_size: config.shard_size,
            strategy: ShardStrategy::HashQuasi,
            n_buckets: Some(n_buckets),
            workers: Some(1),
            budget: config.budget.clone(),
            ..PipelineConfig::default()
        };
        pipeline.validate(config.k)?;

        let columns: Vec<Vec<String>> = (0..codec.arity())
            .map(|j| codec.column_values(j).to_vec())
            .collect();
        let index = build_index(&columns);
        let mut rows = BTreeMap::new();
        let mut buckets = vec![BTreeSet::new(); n_buckets];
        for i in 0..n {
            let codes = dataset.row(i).to_vec();
            let b = bucket_of(&codes, &quasi_cols, n_buckets);
            buckets[b].insert(i as u64);
            rows.insert(i as u64, codes);
        }

        let wal = Wal::open(wal_path(&dir))?;
        let mut store = DeltaStore {
            dir,
            wal,
            _lock: lock,
            pipeline,
            k: config.k,
            header,
            quasi_cols,
            columns,
            index,
            next_id: n as u64,
            rows,
            buckets,
            cache: HashMap::new(),
            seq: 0,
            recovered_torn_tail: false,
        };
        store.refresh()?;
        store.write_snapshot()?;
        Ok(store)
    }

    /// Opens the store at `dir`: read the snapshot, replay the WAL
    /// (recovering a torn tail, refusing corruption), and rebuild the
    /// in-memory state. Units whose cached solve went stale (a crash after
    /// the WAL append but before the re-solve) stay dirty until the next
    /// `apply` or `release`.
    ///
    /// # Errors
    /// [`Error::Store`] for missing/corrupt durable state (including a
    /// directory lock held by a live writer); replayed-batch validation
    /// failures surface as [`Error::Delta`].
    pub fn open(dir: impl Into<PathBuf>, budget: Budget) -> Result<Self> {
        let dir = dir.into();
        let payload =
            read_snapshot(snapshot_path(&dir), SNAPSHOT_VERSION, &budget)?.ok_or_else(|| {
                Error::Delta(format!(
                    "`{}` holds no delta store (run `delta init` first)",
                    dir.display()
                ))
            })?;
        let lock = DirLock::acquire(&dir)?;
        let mut store = Self::decode_snapshot(&dir, &payload, budget, lock)?;
        drop(payload);

        let replay = Wal::replay(wal_path(&dir), &store.pipeline.budget)?;
        for record in &replay.records {
            let (seq, ops) = decode_wal_record(record, store.header.len())?;
            if seq <= store.seq {
                continue; // already folded into the snapshot
            }
            if seq != store.seq + 1 {
                return Err(Error::Store(kanon_store::Error::Corrupt {
                    file: "wal",
                    offset: 0,
                    detail: format!("batch sequence jumped from {} to {seq}", store.seq),
                }));
            }
            store.validate_ops(&ops)?;
            store.apply_in_memory(&ops);
            store.seq = seq;
        }
        if replay.torn_tail {
            store.wal.truncate_to(replay.valid_bytes)?;
            store.recovered_torn_tail = true;
        }
        Ok(store)
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Live row count.
    #[must_use]
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// The anonymity parameter the store was initialized with.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The pinned hash-bucket count. A batch [`crate::run_pipeline`] with
    /// this value in [`PipelineConfig::n_buckets`] (and the same `k` and
    /// `shard_size`) reproduces the store's sharding.
    #[must_use]
    pub fn n_buckets(&self) -> usize {
        self.pipeline.n_buckets.expect("delta stores pin n_buckets")
    }

    /// The configured target shard size.
    #[must_use]
    pub fn shard_size(&self) -> usize {
        self.pipeline.shard_size
    }

    /// The table header.
    #[must_use]
    pub fn header(&self) -> &[String] {
        &self.header
    }

    /// Quasi-identifier column names, in projection order.
    #[must_use]
    pub fn quasi_names(&self) -> Vec<String> {
        self.quasi_cols
            .iter()
            .map(|&j| self.header[j].clone())
            .collect()
    }

    /// Applied batch count.
    #[must_use]
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Current WAL size in bytes.
    #[must_use]
    pub fn wal_bytes(&self) -> u64 {
        self.wal.bytes()
    }

    /// The directory holding the store's durable state.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Replaces the session budget governing subsequent solves, replay
    /// buffers, and snapshot compaction. A multi-tenant host swaps in the
    /// budget of whichever lease is driving the current operation, so WAL
    /// rotation triggered by an `apply` is charged to that tenant.
    pub fn set_budget(&mut self, budget: Budget) {
        self.pipeline.budget = budget;
    }

    // ------------------------------------------------------------------
    // The op path
    // ------------------------------------------------------------------

    /// Parses a delta-ops CSV: header `op,id,<table columns...>`, then one
    /// op per record — `insert` (id blank, all fields), `delete` (id only,
    /// fields blank or absent), `update` (id and all fields).
    ///
    /// # Errors
    /// [`Error::Delta`] for a header that does not match the store's table
    /// or a malformed op; CSV syntax errors with line numbers.
    pub fn parse_ops<R: Read>(&self, reader: R) -> Result<Vec<DeltaOp>> {
        let mut records = Reader::new(reader);
        let header = records
            .read_record()?
            .ok_or_else(|| Error::Delta("ops file is empty (no header)".into()))?;
        let mut expected = vec!["op".to_string(), "id".to_string()];
        expected.extend(self.header.iter().cloned());
        if header.fields != expected {
            return Err(Error::Delta(format!(
                "ops header must be `{}`, found `{}`",
                expected.join(","),
                header.fields.join(",")
            )));
        }
        let m = self.header.len();
        let mut ops = Vec::new();
        while let Some(record) = records.read_record()? {
            let line = record.line;
            let fields = record.fields;
            let bad = |msg: String| Error::Delta(format!("ops line {line}: {msg}"));
            if fields.len() < 2 {
                return Err(bad("expected at least `op,id`".into()));
            }
            let parse_id = |s: &str| {
                s.parse::<u64>()
                    .map_err(|_| bad(format!("bad row id `{s}`")))
            };
            let values = |fields: &[String]| -> Result<Vec<String>> {
                if fields.len() != m + 2 {
                    return Err(bad(format!(
                        "expected {} value fields, found {}",
                        m,
                        fields.len().saturating_sub(2)
                    )));
                }
                Ok(fields[2..].to_vec())
            };
            match fields[0].as_str() {
                "insert" => {
                    if !fields[1].is_empty() {
                        return Err(bad("insert must leave the id column blank".into()));
                    }
                    ops.push(DeltaOp::Insert {
                        fields: values(&fields)?,
                    });
                }
                "delete" => {
                    if fields[2..].iter().any(|f| !f.is_empty()) {
                        return Err(bad("delete takes no value fields".into()));
                    }
                    ops.push(DeltaOp::Delete {
                        id: parse_id(&fields[1])?,
                    });
                }
                "update" => {
                    ops.push(DeltaOp::Update {
                        id: parse_id(&fields[1])?,
                        fields: values(&fields)?,
                    });
                }
                other => return Err(bad(format!("unknown op `{other}`"))),
            }
        }
        if ops.is_empty() {
            return Err(Error::Delta("ops file holds no ops".into()));
        }
        Ok(ops)
    }

    /// Rejects a batch that cannot be applied — before anything touches
    /// the WAL, so durable state never records a bad op. Ids must name
    /// rows live before the batch; the table must not shrink below `k`.
    fn validate_ops(&self, ops: &[DeltaOp]) -> Result<()> {
        if ops.is_empty() {
            return Err(Error::Delta("empty delta batch".into()));
        }
        let m = self.header.len();
        let mut gone: BTreeSet<u64> = BTreeSet::new();
        let mut inserted = 0usize;
        for (i, op) in ops.iter().enumerate() {
            let bad = |msg: String| Error::Delta(format!("op {}: {msg}", i + 1));
            let check_live = |id: u64, gone: &BTreeSet<u64>| {
                if !self.rows.contains_key(&id) {
                    return Err(bad(format!("unknown row id {id}")));
                }
                if gone.contains(&id) {
                    return Err(bad(format!("row {id} already deleted in this batch")));
                }
                Ok(())
            };
            match op {
                DeltaOp::Insert { fields } => {
                    if fields.len() != m {
                        return Err(bad(format!(
                            "insert has {} fields, table has {m} columns",
                            fields.len()
                        )));
                    }
                    inserted += 1;
                }
                DeltaOp::Delete { id } => {
                    check_live(*id, &gone)?;
                    gone.insert(*id);
                }
                DeltaOp::Update { id, fields } => {
                    check_live(*id, &gone)?;
                    if fields.len() != m {
                        return Err(bad(format!(
                            "update has {} fields, table has {m} columns",
                            fields.len()
                        )));
                    }
                }
            }
        }
        let after = self.rows.len() + inserted - gone.len();
        if after < self.k {
            return Err(Error::Delta(format!(
                "batch would leave {after} rows, below k = {}",
                self.k
            )));
        }
        Ok(())
    }

    /// Applies one batch: validate, append one WAL record (the durability
    /// point), update memory, re-canonicalize codes if anything was
    /// deleted or rewritten, then re-solve exactly the stale units.
    ///
    /// # Errors
    /// [`Error::Delta`] for an invalid batch (nothing is persisted),
    /// [`Error::Store`] for WAL I/O, solver errors from the re-solve.
    pub fn apply(&mut self, ops: &[DeltaOp]) -> Result<ApplyReport> {
        let started = Instant::now();
        self.validate_ops(ops)?;
        let record = encode_wal_record(self.seq + 1, ops);
        self.wal.append(&record)?;
        self.seq += 1;

        let (inserted, deleted, updated) = self.apply_in_memory(ops);
        let recanonicalized = deleted + updated > 0;
        let refreshed = self.refresh()?;

        let compacted = self.wal.bytes() >= COMPACT_WAL_BYTES;
        if compacted {
            self.compact()?;
        }
        Ok(ApplyReport {
            seq: self.seq,
            inserted,
            deleted,
            updated,
            n_rows: self.rows.len(),
            resolved_units: refreshed.0,
            resolved_rows: refreshed.1,
            recanonicalized,
            total_cost: self.cache.values().map(|c| c.cost).sum(),
            compacted,
            wal_bytes: self.wal.bytes(),
            elapsed: started.elapsed(),
        })
    }

    /// Applies a validated batch to the in-memory table. Returns
    /// (inserted, deleted, updated) counts.
    fn apply_in_memory(&mut self, ops: &[DeltaOp]) -> (usize, usize, usize) {
        let n_buckets = self.n_buckets();
        let (mut ins, mut del, mut upd) = (0, 0, 0);
        let mut mutated = false;
        for op in ops {
            match op {
                DeltaOp::Insert { fields } => {
                    let codes = self.encode_fields(fields);
                    let b = bucket_of(&codes, &self.quasi_cols, n_buckets);
                    let id = self.next_id;
                    self.next_id += 1;
                    self.buckets[b].insert(id);
                    self.rows.insert(id, codes);
                    ins += 1;
                }
                DeltaOp::Delete { id } => {
                    let codes = self.rows.remove(id).expect("validated batch");
                    let b = bucket_of(&codes, &self.quasi_cols, n_buckets);
                    self.buckets[b].remove(id);
                    del += 1;
                    mutated = true;
                }
                DeltaOp::Update { id, fields } => {
                    let old = self.rows.get(id).expect("validated batch").clone();
                    let old_b = bucket_of(&old, &self.quasi_cols, n_buckets);
                    let codes = self.encode_fields(fields);
                    let new_b = bucket_of(&codes, &self.quasi_cols, n_buckets);
                    if old_b != new_b {
                        self.buckets[old_b].remove(id);
                        self.buckets[new_b].insert(*id);
                    }
                    self.rows.insert(*id, codes);
                    upd += 1;
                    mutated = true;
                }
            }
        }
        // Pure inserts keep codes canonical for free (a fresh value's
        // first appearance is the appended row). Deletes and updates can
        // shift first-appearance order, so re-derive the canonical coding.
        if mutated {
            self.recanonicalize();
        }
        (ins, del, upd)
    }

    /// Encodes field values against the current dictionaries, appending
    /// fresh codes for unseen values.
    fn encode_fields(&mut self, fields: &[String]) -> Vec<u32> {
        fields
            .iter()
            .enumerate()
            .map(|(j, value)| match self.index[j].get(value) {
                Some(&code) => code,
                None => {
                    let code = self.columns[j].len() as u32;
                    self.columns[j].push(value.clone());
                    self.index[j].insert(value.clone(), code);
                    code
                }
            })
            .collect()
    }

    /// Re-derives the canonical (first-appearance, id-order) coding after
    /// deletes/updates, rewriting rows and bucket membership where codes
    /// moved. No-op when the current coding is already canonical.
    fn recanonicalize(&mut self) {
        let m = self.header.len();
        let mut remap: Vec<HashMap<u32, u32>> = vec![HashMap::new(); m];
        let mut new_columns: Vec<Vec<String>> = vec![Vec::new(); m];
        for codes in self.rows.values() {
            for (j, &code) in codes.iter().enumerate() {
                let next = remap[j].len() as u32;
                remap[j].entry(code).or_insert_with(|| {
                    new_columns[j].push(self.columns[j][code as usize].clone());
                    next
                });
            }
        }
        let identity = (0..m).all(|j| {
            remap[j].len() == self.columns[j].len() && remap[j].iter().all(|(old, new)| old == new)
        });
        if identity {
            return;
        }
        let n_buckets = self.n_buckets();
        let quasi_cols = std::mem::take(&mut self.quasi_cols);
        let mut moves: Vec<(u64, usize, usize)> = Vec::new();
        for (&id, codes) in &mut self.rows {
            let old_b = bucket_of(codes, &quasi_cols, n_buckets);
            for (j, code) in codes.iter_mut().enumerate() {
                *code = remap[j][code];
            }
            let new_b = bucket_of(codes, &quasi_cols, n_buckets);
            if old_b != new_b {
                moves.push((id, old_b, new_b));
            }
        }
        self.quasi_cols = quasi_cols;
        for (id, old_b, new_b) in moves {
            self.buckets[old_b].remove(&id);
            self.buckets[new_b].insert(id);
        }
        self.index = build_index(&new_columns);
        self.columns = new_columns;
    }

    // ------------------------------------------------------------------
    // Layout, fingerprints, solving
    // ------------------------------------------------------------------

    /// The current plan: the pinned buckets through the shared unit plan,
    /// one [`Unit`] per bucket of at least `k` rows in bucket order, then
    /// the standalone residue, each checked against the cache.
    fn layout(&self) -> Vec<Unit> {
        let plan = plan_units(
            self.buckets.iter().map(|ids| ids.iter().copied().collect()),
            self.k,
            self.pipeline.shard_size,
        );
        let residue_extra = u64::try_from(self.residue_target()).unwrap_or(u64::MAX);
        let residue = (!plan.residue.is_empty()).then(|| (RESIDUE_KEY, vec![plan.residue]));
        plan.buckets
            .into_iter()
            .map(|(b, chunks)| (b as u32, chunks))
            .chain(residue)
            .map(|(key, chunks)| {
                let extra = if key == RESIDUE_KEY { residue_extra } else { 0 };
                let fingerprint = self.unit_fingerprint(chunks.iter().flatten(), extra);
                let fresh = self.cache.get(&key).is_some_and(|c| {
                    c.fingerprint == fingerprint && c.rows.iter().eq(chunks.iter().flatten())
                });
                Unit {
                    key,
                    chunks,
                    fingerprint,
                    fresh,
                }
            })
            .collect()
    }

    /// Content fingerprint of a unit: FNV-1a over (id, quasi codes) in
    /// solve order, plus `extra` (the residue's chunk target, which shifts
    /// with the table size). Any membership, order, code, or chunking
    /// change lands here.
    fn unit_fingerprint<'a>(&self, rows: impl Iterator<Item = &'a u64>, extra: u64) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mix = |h: &mut u64, bytes: [u8; 8]| {
            for b in bytes {
                *h ^= u64::from(b);
                *h = h.wrapping_mul(PRIME);
            }
        };
        mix(&mut h, extra.to_le_bytes());
        for id in rows {
            mix(&mut h, id.to_le_bytes());
            let codes = &self.rows[id];
            for &j in &self.quasi_cols {
                mix(&mut h, u64::from(codes[j]).to_le_bytes());
            }
        }
        h
    }

    fn residue_target(&self) -> usize {
        residue_chunk_target(
            self.rows.len(),
            self.n_buckets(),
            self.k,
            self.pipeline.shard_size,
        )
    }

    /// Drops cache entries for vanished units and re-solves every stale
    /// unit through the batch executor: the stale buckets' chunks are its
    /// shards, in plan order, and a stale residue is its residue — exactly
    /// the work a batch run does for the same rows. Returns (units, rows)
    /// solved.
    fn refresh(&mut self) -> Result<(usize, usize)> {
        let units = self.layout();
        let live: BTreeSet<u32> = units.iter().map(|u| u.key).collect();
        self.cache.retain(|key, _| live.contains(key));
        let stale: Vec<Unit> = units.into_iter().filter(|u| !u.fresh).collect();

        // The plan puts the residue last, after every bucket.
        let chunks: Vec<&[u64]> = stale
            .iter()
            .filter(|u| u.key != RESIDUE_KEY)
            .flat_map(|u| u.chunks.iter().map(Vec::as_slice))
            .collect();
        let residue: &[u64] = stale
            .last()
            .filter(|u| u.key == RESIDUE_KEY)
            .map_or(&[], |u| &u.chunks[0]);
        let chunk_rows: Vec<usize> = chunks.iter().map(|c| c.len()).collect();
        let total_rows = chunk_rows.iter().sum::<usize>() + residue.len();
        let (k, target) = (self.k, self.residue_target());
        let (rows, quasi_cols, pipeline) = (&self.rows, &self.quasi_cols, &self.pipeline);
        let (solved, _) = engine::solve_units(
            pipeline,
            &chunk_rows,
            residue.len(),
            &|_| {},
            |i, buf, budget| {
                let ids = chunks.get(i).copied().unwrap_or(residue);
                let sub = engine::gather(ids.iter().map(|id| &rows[id][..]), quasi_cols, buf);
                let out = if i < chunks.len() {
                    engine::solve_shard(i, &sub, k, pipeline, budget)
                } else {
                    engine::solve_residue(i, &sub, k, target, pipeline, &budget)
                };
                *buf = sub.into_flat_buffer();
                out
            },
        )?;

        // Regroup per unit: the solves come back in the same plan order.
        let n_stale = stale.len();
        let mut solved = solved.into_iter();
        for unit in stale {
            let pieces = solved.by_ref().take(unit.chunks.len()).collect();
            let s = engine::combine_solved(unit.key as usize, pieces)?;
            self.cache.insert(
                unit.key,
                CachedUnit {
                    fingerprint: unit.fingerprint,
                    rows: unit.chunks.concat(),
                    blocks: s.partition.blocks().to_vec(),
                    cost: s.report.cost,
                    solved_by: s.report.solved_by.name().to_string(),
                    degraded: s.report.degraded,
                },
            );
        }
        Ok((n_stale, total_rows))
    }

    // ------------------------------------------------------------------
    // Release, status, compaction
    // ------------------------------------------------------------------

    /// Re-solves anything stale, then merges the cached unit partitions
    /// into a whole-table anonymization — the same merge (and the same
    /// band re-validation) the batch engine runs.
    ///
    /// # Errors
    /// Solver errors from the refresh, merge validation errors.
    pub fn release(&mut self) -> Result<DeltaRelease> {
        self.refresh()?;
        // The cache now holds exactly the live units. Keys sort in plan
        // order: buckets ascending, then the residue (`u32::MAX`).
        let mut keys: Vec<u32> = self.cache.keys().copied().collect();
        keys.sort_unstable();
        let n = self.rows.len();
        let m = self.header.len();
        let mut pos: HashMap<u64, u32> = HashMap::with_capacity(n);
        let mut flat: Vec<u32> = Vec::with_capacity(n * m);
        for (i, (&id, codes)) in self.rows.iter().enumerate() {
            pos.insert(id, i as u32);
            flat.extend_from_slice(codes);
        }
        let dataset = Dataset::from_flat(n, m, flat).map_err(Error::Core)?;
        let mut perm: Vec<u32> = Vec::with_capacity(n);
        let mut parts: Vec<Partition> = Vec::with_capacity(keys.len());
        for key in &keys {
            let cached = &self.cache[key];
            perm.extend(cached.rows.iter().map(|id| pos[id]));
            parts.push(Partition::new_unchecked(
                cached.blocks.clone(),
                cached.rows.len(),
            ));
        }
        let anonymization =
            engine::finalize_merge(&dataset, &self.quasi_cols, self.k, &perm, parts)?;
        debug_assert_eq!(
            anonymization.cost,
            self.cache.values().map(|c| c.cost).sum::<usize>(),
        );
        let codec = Codec::from_parts(self.header.clone(), self.columns.clone())
            .map_err(Error::Relation)?;
        Ok(DeltaRelease {
            dataset,
            codec,
            quasi: self.quasi_cols.clone(),
            anonymization,
        })
    }

    /// A read-only snapshot of the store's health. Does not solve: a dirty
    /// store (possible only after crash recovery) reports `dirty_units >
    /// 0` and no total cost.
    #[must_use]
    pub fn status(&self) -> DeltaStatus {
        let dirty = self.layout().iter().filter(|u| !u.fresh).count();
        DeltaStatus {
            n_rows: self.rows.len(),
            k: self.k,
            shard_size: self.pipeline.shard_size,
            n_buckets: self.n_buckets(),
            seq: self.seq,
            next_id: self.next_id,
            wal_bytes: self.wal.bytes(),
            dirty_units: dirty,
            cached_units: self.cache.len(),
            degraded_units: self.cache.values().filter(|c| c.degraded).count(),
            total_cost: (dirty == 0).then(|| self.cache.values().map(|c| c.cost).sum()),
            recovered_torn_tail: self.recovered_torn_tail,
        }
    }

    /// Folds the WAL into a fresh snapshot: snapshot rename commits, then
    /// the WAL resets. A crash in between double-applies nothing, because
    /// replay skips batches at or below the snapshot's sequence number.
    /// Returns the WAL bytes the rotation retired. The snapshot encode
    /// buffer is charged against the session budget, so rotation work is
    /// billed to whoever is driving the store (see [`Self::set_budget`]).
    ///
    /// # Errors
    /// Store I/O; [`Error::Core`] when the session budget cannot absorb
    /// the snapshot buffer.
    pub fn compact(&mut self) -> Result<u64> {
        self.write_snapshot()?;
        Ok(self.wal.reset()?)
    }

    // ------------------------------------------------------------------
    // Persistence encoding
    // ------------------------------------------------------------------

    fn write_snapshot(&self) -> Result<()> {
        let mut w = ByteWriter::new();
        w.put_u64(self.seq);
        w.put_u64(self.next_id);
        w.put_usize(self.k);
        w.put_usize(self.pipeline.shard_size);
        w.put_usize(self.n_buckets());
        let m = self.header.len();
        w.put_usize(m);
        for name in &self.header {
            w.put_str(name);
        }
        w.put_usize(self.quasi_cols.len());
        for &j in &self.quasi_cols {
            w.put_usize(j);
        }
        for column in &self.columns {
            w.put_usize(column.len());
            for value in column {
                w.put_str(value);
            }
        }
        w.put_usize(self.rows.len());
        for (&id, codes) in &self.rows {
            w.put_u64(id);
            for &code in codes {
                w.put_u32(code);
            }
        }
        w.put_usize(self.cache.len());
        let mut keys: Vec<u32> = self.cache.keys().copied().collect();
        keys.sort_unstable();
        for key in keys {
            let c = &self.cache[&key];
            w.put_u32(key);
            w.put_u64(c.fingerprint);
            w.put_u64_slice(&c.rows);
            w.put_usize(c.blocks.len());
            for block in &c.blocks {
                w.put_u32_slice(block);
            }
            w.put_usize(c.cost);
            w.put_str(&c.solved_by);
            w.put_u8(u8::from(c.degraded));
        }
        let bytes = w.into_bytes();
        // The encode buffer is the memory cost of a rotation; charge it to
        // the session budget before it hits the disk.
        let _charge = self
            .pipeline
            .budget
            .try_charge_memory_scoped(bytes.len() as u64)
            .map_err(Error::Core)?;
        write_snapshot(snapshot_path(&self.dir), SNAPSHOT_VERSION, &bytes)?;
        Ok(())
    }

    fn decode_snapshot(dir: &Path, payload: &[u8], budget: Budget, lock: DirLock) -> Result<Self> {
        let mut r = ByteReader::new(payload, "snapshot");
        let seq = r.get_u64()?;
        let next_id = r.get_u64()?;
        let k = r.get_usize()?;
        let shard_size = r.get_usize()?;
        let n_buckets = r.get_usize()?;
        if n_buckets == 0 || k == 0 {
            return Err(Error::Store(r.corrupt("zero k or bucket count")));
        }
        let m = r.get_usize()?;
        let mut header = Vec::with_capacity(m.min(1 << 16));
        for _ in 0..m {
            header.push(r.get_str()?);
        }
        let n_quasi = r.get_usize()?;
        let mut quasi_cols = Vec::with_capacity(n_quasi.min(1 << 16));
        for _ in 0..n_quasi {
            let j = r.get_usize()?;
            if j >= m {
                return Err(Error::Store(
                    r.corrupt(format!("quasi column {j} out of range for {m} columns")),
                ));
            }
            quasi_cols.push(j);
        }
        let mut columns = Vec::with_capacity(m);
        for _ in 0..m {
            let len = r.get_usize()?;
            let mut column = Vec::with_capacity(len.min(1 << 20));
            for _ in 0..len {
                column.push(r.get_str()?);
            }
            columns.push(column);
        }
        let n = r.get_usize()?;
        let mut rows = BTreeMap::new();
        let mut buckets = vec![BTreeSet::new(); n_buckets];
        for _ in 0..n {
            let id = r.get_u64()?;
            let mut codes = Vec::with_capacity(m);
            for (j, column) in columns.iter().enumerate() {
                let code = r.get_u32()?;
                if code as usize >= column.len() {
                    return Err(Error::Store(
                        r.corrupt(format!("code {code} beyond column {j}'s dictionary")),
                    ));
                }
                codes.push(code);
            }
            let b = bucket_of(&codes, &quasi_cols, n_buckets);
            buckets[b].insert(id);
            if rows.insert(id, codes).is_some() {
                return Err(Error::Store(r.corrupt(format!("duplicate row id {id}"))));
            }
        }
        let n_cached = r.get_usize()?;
        let mut cache = HashMap::with_capacity(n_cached.min(1 << 24));
        for _ in 0..n_cached {
            let key = r.get_u32()?;
            let fingerprint = r.get_u64()?;
            let unit_rows = r.get_u64_vec()?;
            let n_blocks = r.get_usize()?;
            let mut blocks = Vec::with_capacity(n_blocks.min(1 << 24));
            for _ in 0..n_blocks {
                blocks.push(r.get_u32_vec()?);
            }
            let cost = r.get_usize()?;
            let solved_by = r.get_str()?;
            let degraded = r.get_u8()? != 0;
            cache.insert(
                key,
                CachedUnit {
                    fingerprint,
                    rows: unit_rows,
                    blocks,
                    cost,
                    solved_by,
                    degraded,
                },
            );
        }
        r.expect_end().map_err(Error::Store)?;

        let pipeline = PipelineConfig {
            shard_size,
            strategy: ShardStrategy::HashQuasi,
            n_buckets: Some(n_buckets),
            workers: Some(1),
            budget,
            ..PipelineConfig::default()
        };
        pipeline.validate(k)?;
        let index = build_index(&columns);
        let wal = Wal::open(wal_path(dir))?;
        Ok(DeltaStore {
            dir: dir.to_path_buf(),
            wal,
            _lock: lock,
            pipeline,
            k,
            header,
            quasi_cols,
            columns,
            index,
            next_id,
            rows,
            buckets,
            cache,
            seq,
            recovered_torn_tail: false,
        })
    }
}

fn build_index(columns: &[Vec<String>]) -> Vec<HashMap<String, u32>> {
    columns
        .iter()
        .map(|column| {
            column
                .iter()
                .enumerate()
                .map(|(code, value)| (value.clone(), code as u32))
                .collect()
        })
        .collect()
}

fn encode_wal_record(seq: u64, ops: &[DeltaOp]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(seq);
    w.put_usize(ops.len());
    for op in ops {
        match op {
            DeltaOp::Insert { fields } => {
                w.put_u8(0);
                for field in fields {
                    w.put_str(field);
                }
            }
            DeltaOp::Delete { id } => {
                w.put_u8(1);
                w.put_u64(*id);
            }
            DeltaOp::Update { id, fields } => {
                w.put_u8(2);
                w.put_u64(*id);
                for field in fields {
                    w.put_str(field);
                }
            }
        }
    }
    w.into_bytes()
}

fn decode_wal_record(payload: &[u8], arity: usize) -> Result<(u64, Vec<DeltaOp>)> {
    let mut r = ByteReader::new(payload, "wal");
    let seq = r.get_u64()?;
    let n_ops = r.get_usize()?;
    let mut ops = Vec::with_capacity(n_ops.min(1 << 24));
    for _ in 0..n_ops {
        let tag = r.get_u8()?;
        let fields = |r: &mut ByteReader<'_>| -> Result<Vec<String>> {
            (0..arity)
                .map(|_| r.get_str().map_err(Error::Store))
                .collect()
        };
        match tag {
            0 => ops.push(DeltaOp::Insert {
                fields: fields(&mut r)?,
            }),
            1 => ops.push(DeltaOp::Delete { id: r.get_u64()? }),
            2 => {
                let id = r.get_u64()?;
                ops.push(DeltaOp::Update {
                    id,
                    fields: fields(&mut r)?,
                });
            }
            other => {
                return Err(Error::Store(r.corrupt(format!("unknown op tag {other}"))));
            }
        }
    }
    r.expect_end().map_err(Error::Store)?;
    Ok((seq, ops))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_csv;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("kanon-delta-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn row_fields(i: u64) -> Vec<String> {
        vec![
            format!("a{}", i % 7),
            format!("z{}", (i / 3) % 5),
            format!("j{}", i % 4),
        ]
    }

    fn csv_of(rows: &[Vec<String>]) -> String {
        let mut s = String::from("age,zip,job\n");
        for row in rows {
            s.push_str(&row.join(","));
            s.push('\n');
        }
        s
    }

    fn seed_rows(n: u64) -> Vec<Vec<String>> {
        (0..n).map(row_fields).collect()
    }

    /// The batch pipeline's released CSV for the same table and sharding.
    fn batch_release(table: &str, k: usize, store: &DeltaStore) -> (String, usize) {
        let config = PipelineConfig {
            shard_size: store.shard_size(),
            strategy: ShardStrategy::HashQuasi,
            n_buckets: Some(store.n_buckets()),
            ..PipelineConfig::default()
        };
        let run = run_csv(table.as_bytes(), k, None, &config).unwrap();
        let mut buf = Vec::new();
        write_release(
            &run.dataset,
            &run.codec,
            &run.quasi,
            &run.anonymization.suppressor,
            &mut buf,
        )
        .unwrap();
        (String::from_utf8(buf).unwrap(), run.anonymization.cost)
    }

    #[test]
    fn init_release_matches_a_batch_run() {
        // The second table leaves a sub-k residue pooled from several
        // buckets, so batch and delta must fold it in the same order.
        for (n, k, n_buckets) in [(40, 3, None), (37, 5, Some(7))] {
            let dir = tmp(&format!("init-batch-{n}"));
            let table = csv_of(&seed_rows(n));
            let config = DeltaConfig {
                n_buckets,
                ..DeltaConfig::new(k)
            };
            let mut store = DeltaStore::init(&dir, table.as_bytes(), &config).unwrap();
            let release = store.release().unwrap();
            let (expected, cost) = batch_release(&table, k, &store);
            assert_eq!(release.to_csv_string(), expected, "{n} rows");
            assert_eq!(release.anonymization.cost, cost);
            let status = store.status();
            assert_eq!(status.n_rows, n as usize);
            assert_eq!(status.seq, 0);
            assert_eq!(status.dirty_units, 0);
            assert_eq!(status.total_cost, Some(cost));
        }
    }

    #[test]
    fn inserts_stay_equivalent_and_touch_few_units() {
        let dir = tmp("inserts");
        let mut rows = seed_rows(60);
        let mut store =
            DeltaStore::init(&dir, csv_of(&rows).as_bytes(), &DeltaConfig::new(3)).unwrap();
        let ops: Vec<DeltaOp> = (60..64)
            .map(|i| DeltaOp::Insert {
                fields: row_fields(i),
            })
            .collect();
        let report = store.apply(&ops).unwrap();
        assert_eq!(report.inserted, 4);
        assert!(!report.recanonicalized);
        assert_eq!(report.n_rows, 64);
        // A 4-row batch must not re-solve the whole 64-row table.
        assert!(
            report.resolved_rows < 64,
            "resolved {} rows for a 4-row insert",
            report.resolved_rows
        );
        rows.extend((60..64).map(row_fields));
        let (expected, cost) = batch_release(&csv_of(&rows), 3, &store);
        let release = store.release().unwrap();
        assert_eq!(release.to_csv_string(), expected);
        assert_eq!(release.anonymization.cost, cost);
    }

    #[test]
    fn deletes_and_updates_recanonicalize_and_stay_equivalent() {
        let dir = tmp("del-upd");
        let rows = seed_rows(50);
        let mut store =
            DeltaStore::init(&dir, csv_of(&rows).as_bytes(), &DeltaConfig::new(3)).unwrap();
        let fresh = vec!["b9".to_string(), "y9".to_string(), "q9".to_string()];
        let ops = vec![
            DeltaOp::Delete { id: 0 },
            DeltaOp::Delete { id: 7 },
            DeltaOp::Update {
                id: 3,
                fields: fresh.clone(),
            },
            DeltaOp::Insert {
                fields: row_fields(50),
            },
        ];
        let report = store.apply(&ops).unwrap();
        assert!(report.recanonicalized);
        assert_eq!((report.inserted, report.deleted, report.updated), (1, 2, 1));

        // Mirror the ops on a plain row list, in id order.
        let mut mirror: Vec<(u64, Vec<String>)> = rows
            .into_iter()
            .enumerate()
            .map(|(i, r)| (i as u64, r))
            .collect();
        mirror.retain(|(id, _)| *id != 0 && *id != 7);
        mirror.iter_mut().find(|(id, _)| *id == 3).unwrap().1 = fresh;
        mirror.push((50, row_fields(50)));
        let table: Vec<Vec<String>> = mirror.into_iter().map(|(_, r)| r).collect();
        let (expected, cost) = batch_release(&csv_of(&table), 3, &store);
        let release = store.release().unwrap();
        assert_eq!(release.to_csv_string(), expected);
        assert_eq!(release.anonymization.cost, cost);
    }

    #[test]
    fn reopen_replays_the_wal_and_compaction_preserves_state() {
        let dir = tmp("reopen");
        let table = csv_of(&seed_rows(30));
        let mut store = DeltaStore::init(&dir, table.as_bytes(), &DeltaConfig::new(2)).unwrap();
        store
            .apply(&[DeltaOp::Insert {
                fields: row_fields(30),
            }])
            .unwrap();
        store.apply(&[DeltaOp::Delete { id: 4 }]).unwrap();
        let before = store.release().unwrap().to_csv_string();
        let seq = store.seq();
        drop(store);

        let mut reopened = DeltaStore::open(&dir, Budget::unlimited()).unwrap();
        assert_eq!(reopened.seq(), seq);
        assert_eq!(reopened.n_rows(), 30);
        assert_eq!(reopened.release().unwrap().to_csv_string(), before);

        reopened.compact().unwrap();
        assert_eq!(reopened.wal_bytes(), 0);
        drop(reopened);
        let mut again = DeltaStore::open(&dir, Budget::unlimited()).unwrap();
        assert_eq!(again.seq(), seq);
        assert_eq!(again.release().unwrap().to_csv_string(), before);
        // Replayed state is clean: nothing left to solve.
        assert_eq!(again.status().dirty_units, 0);
    }

    #[test]
    fn invalid_batches_are_rejected_before_the_wal() {
        let dir = tmp("reject");
        let table = csv_of(&seed_rows(10));
        let mut store = DeltaStore::init(&dir, table.as_bytes(), &DeltaConfig::new(3)).unwrap();
        let wal_before = store.wal_bytes();
        let release_before = store.release().unwrap().to_csv_string();

        let cases: Vec<(Vec<DeltaOp>, &str)> = vec![
            (vec![], "empty"),
            (vec![DeltaOp::Delete { id: 99 }], "unknown row id"),
            (
                vec![DeltaOp::Delete { id: 1 }, DeltaOp::Delete { id: 1 }],
                "already deleted",
            ),
            (
                vec![DeltaOp::Update {
                    id: 99,
                    fields: row_fields(0),
                }],
                "unknown row id",
            ),
            (
                vec![DeltaOp::Insert {
                    fields: vec!["one".into()],
                }],
                "columns",
            ),
            ((0..8).map(|id| DeltaOp::Delete { id }).collect(), "below k"),
        ];
        for (ops, needle) in cases {
            let err = store.apply(&ops).unwrap_err();
            match &err {
                Error::Delta(msg) => {
                    assert!(msg.contains(needle), "`{msg}` missing `{needle}`");
                }
                other => panic!("expected Error::Delta, got {other}"),
            }
        }
        // Nothing reached durable state; the release is untouched.
        assert_eq!(store.wal_bytes(), wal_before);
        assert_eq!(store.seq(), 0);
        assert_eq!(store.release().unwrap().to_csv_string(), release_before);
    }

    #[test]
    fn init_refuses_an_existing_store_and_open_a_missing_one() {
        let dir = tmp("exists");
        let table = csv_of(&seed_rows(8));
        DeltaStore::init(&dir, table.as_bytes(), &DeltaConfig::new(2)).unwrap();
        let err = DeltaStore::init(&dir, table.as_bytes(), &DeltaConfig::new(2))
            .map(|_| ())
            .unwrap_err();
        assert!(err.to_string().contains("already holds"));

        let missing = tmp("missing");
        let err = DeltaStore::open(&missing, Budget::unlimited())
            .map(|_| ())
            .unwrap_err();
        assert!(err.to_string().contains("no delta store"));
    }

    #[test]
    fn parse_ops_round_trip_and_rejections() {
        let dir = tmp("parse");
        let store =
            DeltaStore::init(&dir, csv_of(&seed_rows(6)).as_bytes(), &DeltaConfig::new(2)).unwrap();
        let good = "op,id,age,zip,job\n\
                    insert,,a1,z1,j1\n\
                    delete,3,,,\n\
                    update,2,a2,z2,j2\n";
        let ops = store.parse_ops(good.as_bytes()).unwrap();
        assert_eq!(
            ops,
            vec![
                DeltaOp::Insert {
                    fields: vec!["a1".into(), "z1".into(), "j1".into()],
                },
                DeltaOp::Delete { id: 3 },
                DeltaOp::Update {
                    id: 2,
                    fields: vec!["a2".into(), "z2".into(), "j2".into()],
                },
            ]
        );

        for (input, needle) in [
            ("", "empty"),
            ("op,id,age,zip\ninsert,,a,z\n", "ops header"),
            ("op,id,age,zip,job\n", "no ops"),
            ("op,id,age,zip,job\nupsert,1,a,z,j\n", "unknown op"),
            ("op,id,age,zip,job\ninsert,5,a,z,j\n", "blank"),
            ("op,id,age,zip,job\ndelete,x,,,\n", "bad row id"),
            ("op,id,age,zip,job\ndelete,1,a,,\n", "no value fields"),
            ("op,id,age,zip,job\nupdate,1,a\n", "value fields"),
        ] {
            let err = store.parse_ops(input.as_bytes()).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "`{err}` missing `{needle}` for {input:?}"
            );
        }
    }

    #[test]
    fn wal_and_snapshot_round_trip_every_op_kind() {
        let ops = vec![
            DeltaOp::Insert {
                fields: vec!["x".into(), String::new(), "comma, value".into()],
            },
            DeltaOp::Delete { id: u64::MAX },
            DeltaOp::Update {
                id: 7,
                fields: vec!["a".into(), "b".into(), "c".into()],
            },
        ];
        let record = encode_wal_record(42, &ops);
        let (seq, decoded) = decode_wal_record(&record, 3).unwrap();
        assert_eq!(seq, 42);
        assert_eq!(decoded, ops);

        let err = decode_wal_record(&record[..record.len() - 1], 3).unwrap_err();
        assert!(matches!(err, Error::Store(_)));
    }
}
