//! Pipeline run accounting: per-shard solver outcomes and whole-run
//! throughput, with a hand-rolled JSON renderer (the workspace carries no
//! serde).

use std::time::Duration;

use crate::json::JsonObject;

/// What produced a shard's partition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolvedBy {
    /// A ladder rung finished inside the shard's budget slice.
    Rung(kanon_baselines::ladder::Rung),
    /// Every rung tripped its budget; the pipeline fell back to the O(s·m)
    /// suppress-and-split partition (one block, split into the (k, 2k-1)
    /// band). Valid but with no approximation guarantee.
    Fallback,
}

impl SolvedBy {
    /// Short stable name for reports.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            SolvedBy::Rung(rung) => rung.name(),
            SolvedBy::Fallback => "suppress-split-fallback",
        }
    }
}

/// One shard's account of a pipeline run.
#[derive(Clone, Debug)]
pub struct ShardReport {
    /// Shard index in plan order; the residue group (when present) takes
    /// the next index after the last shard.
    pub id: usize,
    /// Rows in the shard.
    pub rows: usize,
    /// Which solver produced the shard's partition.
    pub solved_by: SolvedBy,
    /// True when the shard's ladder fell below its first attempted rung
    /// (or all the way to the fallback).
    pub degraded: bool,
    /// Ladder attempts made (0 when the ladder was skipped entirely).
    pub attempts: usize,
    /// Suppressed-cell cost of the shard's local partition.
    pub cost: usize,
    /// Wall-clock time spent solving the shard.
    pub elapsed: Duration,
    /// Why the ladder gave up, when the fallback answered.
    pub note: Option<String>,
}

/// Account of a whole-table generalization-rung answer: which lattice node
/// won, what it cost in precision, and (when the caller asked for the
/// side-by-side) what suppression would have cost on the same input.
#[derive(Clone, Debug)]
pub struct GeneralizationReport {
    /// The quasi-identifier column names, in lattice order.
    pub columns: Vec<String>,
    /// The winning node's level per column.
    pub levels: Vec<usize>,
    /// Each column's hierarchy height (the lattice's top node).
    pub heights: Vec<usize>,
    /// Samarati's `Prec` loss of the winning node, in `[0, 1]` — directly
    /// comparable to the suppression path's suppressed-cell fraction.
    pub precision_loss: f64,
    /// Suppression-only cost on the same projection, when the caller ran
    /// the comparison (`None` = not measured).
    pub suppression_cost: Option<usize>,
    /// The comparison run's suppressed-cell fraction, same scale as
    /// `precision_loss`.
    pub suppression_loss: Option<f64>,
}

/// Account of the post-merge privacy-constraint step: which model the
/// release was held to, what the merged k-anonymous partition violated,
/// how much repair cost, and whether the independent re-check passed.
#[derive(Clone, Debug)]
pub struct PrivacyReport {
    /// The model in spec-grammar form (`l=2`, `entropy-l=2.5`, `t=0.2`,
    /// `emd-t=0.15`) — parseable back with `PrivacyModel::parse`.
    pub spec: String,
    /// Stable model-family name (`l-distinct`, `l-entropy`,
    /// `t-variational`, `t-emd`).
    pub family: &'static str,
    /// The sensitive column's header name.
    pub sensitive: String,
    /// Blocks of the merged k-anonymous partition that violated the
    /// constraint before repair.
    pub violations_before: usize,
    /// Merges the greedy repair performed (0 when already satisfying).
    pub merges: usize,
    /// Suppression cost before repair (the k-only release's cost).
    pub cost_before: usize,
    /// Suppression cost after repair — the privacy premium is
    /// `cost_after - cost_before`.
    pub cost_after: usize,
    /// Whether the repaired release passed an independent re-verification
    /// of both the constraint and k-anonymity. Always `true` on success;
    /// recorded so downstream consumers never have to take it on faith.
    pub verified: bool,
}

/// Summary of a completed [`crate::run_pipeline`] call.
#[derive(Clone, Debug)]
pub struct PipelineReport {
    /// Rows in the whole table.
    pub n_rows: usize,
    /// Quasi-identifier columns the solver saw.
    pub n_cols: usize,
    /// The anonymity parameter.
    pub k: usize,
    /// Configured target shard size.
    pub shard_size: usize,
    /// Sharding strategy name (`hash` or `sorted`).
    pub strategy: &'static str,
    /// Worker threads that solved shards concurrently.
    pub workers: usize,
    /// Per-shard accounts, in shard-id order; the residue group (when
    /// present) is the last entry.
    pub shards: Vec<ShardReport>,
    /// Rows solved in the residue group.
    pub residue_rows: usize,
    /// Total suppressed cells across all shards (equals the merged
    /// anonymization's cost).
    pub total_cost: usize,
    /// End-to-end wall-clock time (plan + solve + merge).
    pub elapsed: Duration,
    /// Present when the generalization rung answered (the auto path): the
    /// winning lattice node and its precision loss. `None` for suppression
    /// runs, whose loss is `total_cost` over the cell count.
    pub generalization: Option<Box<GeneralizationReport>>,
    /// Present when the run was held to a privacy model beyond
    /// k-anonymity: the post-merge constraint repair and re-verification
    /// account. `None` for plain k-only runs.
    pub privacy: Option<Box<PrivacyReport>>,
}

impl PipelineReport {
    /// Number of shards (excluding the residue group).
    #[must_use]
    pub fn n_shards(&self) -> usize {
        self.shards.len() - usize::from(self.residue_rows > 0)
    }

    /// Shards that degraded below their first attempted rung.
    #[must_use]
    pub fn degraded_shards(&self) -> usize {
        self.shards.iter().filter(|s| s.degraded).count()
    }

    /// Normalized information loss in `[0, 1]`, comparable across the two
    /// release mechanisms: for a generalization answer, Samarati's `Prec`
    /// (mean `level/height`); for a suppression answer, the suppressed
    /// fraction of quasi-identifier cells. This single scale is what lets
    /// the auto path report "generalization beat suppression" honestly.
    #[must_use]
    pub fn information_loss(&self) -> f64 {
        match &self.generalization {
            Some(g) => g.precision_loss,
            None => {
                let cells = self.n_rows * self.n_cols;
                if cells == 0 {
                    0.0
                } else {
                    self.total_cost as f64 / cells as f64
                }
            }
        }
    }

    /// Rows anonymized per wall-clock second.
    #[must_use]
    pub fn rows_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.n_rows as f64 / secs
        } else {
            f64::INFINITY
        }
    }

    /// Renders the report as a JSON object (stable key order).
    #[must_use]
    pub fn to_json(&self) -> String {
        let list = |items: Vec<String>| format!("[{}]", items.join(","));
        let mut obj = JsonObject::new();
        obj.number("n_rows", self.n_rows as u128)
            .number("n_cols", self.n_cols as u128)
            .number("k", self.k as u128)
            .number("shard_size", self.shard_size as u128)
            .string("strategy", self.strategy)
            .number("workers", self.workers as u128)
            .number("n_shards", self.n_shards() as u128)
            .number("residue_rows", self.residue_rows as u128)
            .number("degraded_shards", self.degraded_shards() as u128)
            .number("total_cost", self.total_cost as u128)
            .number("elapsed_ms", self.elapsed.as_millis())
            .raw("rows_per_sec", &format!("{:.1}", self.rows_per_sec()))
            .raw(
                "information_loss",
                &format!("{:.6}", self.information_loss()),
            );
        if let Some(g) = &self.generalization {
            let names = g.columns.iter().map(|c| format!("\"{}\"", json_escape(c)));
            let mut gen = JsonObject::new();
            gen.raw("columns", &list(names.collect()))
                .raw(
                    "levels",
                    &list(g.levels.iter().map(ToString::to_string).collect()),
                )
                .raw(
                    "heights",
                    &list(g.heights.iter().map(ToString::to_string).collect()),
                )
                .raw("precision_loss", &format!("{:.6}", g.precision_loss));
            if let Some(cost) = g.suppression_cost {
                gen.number("suppression_cost", cost as u128);
            }
            if let Some(loss) = g.suppression_loss {
                gen.raw("suppression_loss", &format!("{loss:.6}"));
            }
            obj.raw("generalization", &gen.finish());
        }
        if let Some(p) = &self.privacy {
            let mut pv = JsonObject::new();
            pv.string("spec", &p.spec)
                .string("family", p.family)
                .string("sensitive", &p.sensitive)
                .number("violations_before", p.violations_before as u128)
                .number("merges", p.merges as u128)
                .number("cost_before", p.cost_before as u128)
                .number("cost_after", p.cost_after as u128)
                .boolean("verified", p.verified);
            obj.raw("privacy", &pv.finish());
        }
        let shards = self.shards.iter().map(|shard| {
            let mut s = JsonObject::new();
            s.number("id", shard.id as u128)
                .number("rows", shard.rows as u128)
                .string("solved_by", shard.solved_by.name())
                .boolean("degraded", shard.degraded)
                .number("attempts", shard.attempts as u128)
                .number("cost", shard.cost as u128)
                .number("elapsed_ms", shard.elapsed.as_millis());
            if let Some(note) = &shard.note {
                s.string("note", note);
            }
            s.finish()
        });
        obj.raw("shards", &list(shards.collect()));
        obj.finish()
    }
}

/// Escapes a string for inclusion inside a JSON string literal.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use kanon_baselines::ladder::Rung;

    fn report() -> PipelineReport {
        PipelineReport {
            n_rows: 20,
            n_cols: 3,
            k: 3,
            shard_size: 8,
            strategy: "hash",
            workers: 2,
            shards: vec![
                ShardReport {
                    id: 0,
                    rows: 12,
                    solved_by: SolvedBy::Rung(Rung::CenterGreedy),
                    degraded: false,
                    attempts: 1,
                    cost: 9,
                    elapsed: Duration::from_millis(4),
                    note: None,
                },
                ShardReport {
                    id: 1,
                    rows: 8,
                    solved_by: SolvedBy::Fallback,
                    degraded: true,
                    attempts: 2,
                    cost: 16,
                    elapsed: Duration::from_millis(7),
                    note: Some("budget \"wall-clock\" exceeded".into()),
                },
            ],
            residue_rows: 0,
            total_cost: 25,
            elapsed: Duration::from_millis(12),
            generalization: None,
            privacy: None,
        }
    }

    #[test]
    fn json_shape_is_stable() {
        let json = report().to_json();
        assert!(json.starts_with("{\"n_rows\":20,"));
        assert!(json.contains("\"strategy\":\"hash\""));
        assert!(json.contains("\"solved_by\":\"center-greedy\""));
        assert!(json.contains("\"solved_by\":\"suppress-split-fallback\""));
        assert!(json.contains("\"degraded_shards\":1"));
        // The note's inner quotes are escaped.
        assert!(json.contains("\\\"wall-clock\\\""));
        // Crude balance check: equal counts of braces.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn derived_counters() {
        let r = report();
        assert_eq!(r.n_shards(), 2);
        assert_eq!(r.degraded_shards(), 1);
        assert!(r.rows_per_sec() > 0.0);
        // Suppression loss: 25 starred cells of 20·3.
        assert!((r.information_loss() - 25.0 / 60.0).abs() < 1e-12);
    }

    #[test]
    fn generalization_section_renders_and_drives_information_loss() {
        let mut r = report();
        r.shards.clear();
        r.total_cost = 0;
        r.generalization = Some(Box::new(GeneralizationReport {
            columns: vec!["age".into(), "zip".into()],
            levels: vec![1, 2],
            heights: vec![2, 4],
            precision_loss: 0.5,
            suppression_cost: Some(25),
            suppression_loss: Some(25.0 / 60.0),
        }));
        assert!((r.information_loss() - 0.5).abs() < 1e-12);
        let json = r.to_json();
        assert!(json.starts_with("{\"n_rows\":20,"), "{json}");
        assert!(json.contains("\"information_loss\":0.500000"));
        assert!(json.contains("\"generalization\":{\"columns\":[\"age\",\"zip\"]"));
        assert!(json.contains("\"levels\":[1,2]"));
        assert!(json.contains("\"heights\":[2,4]"));
        assert!(json.contains("\"suppression_cost\":25"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn privacy_section_renders() {
        let mut r = report();
        r.privacy = Some(Box::new(PrivacyReport {
            spec: "l=2".into(),
            family: "l-distinct",
            sensitive: "diagnosis".into(),
            violations_before: 3,
            merges: 2,
            cost_before: 25,
            cost_after: 31,
            verified: true,
        }));
        let json = r.to_json();
        assert!(json.contains("\"privacy\":{\"spec\":\"l=2\""));
        assert!(json.contains("\"family\":\"l-distinct\""));
        assert!(json.contains("\"sensitive\":\"diagnosis\""));
        assert!(json.contains("\"violations_before\":3"));
        assert!(json.contains("\"merges\":2"));
        assert!(json.contains("\"cost_before\":25"));
        assert!(json.contains("\"cost_after\":31"));
        assert!(json.contains("\"verified\":true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn escape_covers_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
