//! Correctness checks on the program's outputs, and the statistics the
//! metrics are built from.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// What re-reading a released CSV found.
pub struct ReleaseFacts {
    pub rows: usize,
    /// Size of the smallest group of rows sharing every quasi-identifier
    /// cell: the release is k-anonymous exactly when this is at least k.
    pub smallest_group: usize,
    /// `*` cells among the quasi-identifier columns.
    pub stars: usize,
    /// Hash of the release bytes, to prove repeated runs agree exactly.
    pub digest: u64,
}

/// Re-checks a released CSV from its bytes alone: groups the rows on the
/// cells of the `quasi` columns and measures the smallest group.
pub fn inspect_release(bytes: &[u8], quasi: &[String]) -> Result<ReleaseFacts, String> {
    let mut reader = kanon_relation::csv::Reader::new(bytes);
    let header = reader
        .read_record()
        .map_err(|e| format!("release does not parse: {e}"))?
        .ok_or("release is empty")?
        .fields;
    let cols: Vec<usize> = quasi
        .iter()
        .map(|name| {
            header
                .iter()
                .position(|h| h == name)
                .ok_or_else(|| format!("release has no column {name:?}"))
        })
        .collect::<Result<_, _>>()?;
    let mut groups: HashMap<String, usize> = HashMap::new();
    let mut key = String::new();
    let mut rows = 0;
    let mut stars = 0;
    while let Some(record) = reader
        .read_record()
        .map_err(|e| format!("release does not parse: {e}"))?
    {
        key.clear();
        for &j in &cols {
            let cell = record
                .fields
                .get(j)
                .ok_or_else(|| format!("release line {} is short", record.line))?;
            stars += usize::from(cell == "*");
            key.push_str(cell);
            key.push('\u{1f}');
        }
        match groups.get_mut(&key) {
            Some(count) => *count += 1,
            None => {
                groups.insert(key.clone(), 1);
            }
        }
        rows += 1;
    }
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    bytes.hash(&mut hasher);
    Ok(ReleaseFacts {
        rows,
        smallest_group: groups.values().copied().min().unwrap_or(0),
        stars,
        digest: hasher.finish(),
    })
}

/// The raw JSON text of the first value keyed `key` in `text` (numbers and
/// literals only): enough to read counters out of the program's reports
/// without a JSON parser.
pub fn json_raw<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let rest = &text[text.find(&needle)? + needle.len()..];
    let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// As [`json_raw`], parsed as a number.
pub fn json_number(text: &str, key: &str) -> Option<f64> {
    json_raw(text, key)?.parse().ok()
}

/// Prometheus text exposition to `name -> value`.
pub fn parse_exposition(page: &str) -> HashMap<String, f64> {
    page.lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| {
            let (name, value) = line.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// Linear-interpolation quantile (`p` in `[0, 1]`) of unsorted samples; 0
/// for none.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn release_groups_and_stars() {
        let csv = b"a,b,c\n1,*,x\n1,*,y\n2,3,z\n";
        let facts = inspect_release(csv, &["a".into(), "b".into()]).unwrap();
        assert_eq!(facts.rows, 3);
        assert_eq!(facts.smallest_group, 1);
        assert_eq!(facts.stars, 2);
        assert!(inspect_release(csv, &["nope".into()]).is_err());
    }

    #[test]
    fn json_and_quantiles() {
        let text = r#"{"a":{"total_cost":12,"precision_loss":0.250000},"elapsed_ms":7}"#;
        assert_eq!(json_raw(text, "precision_loss"), Some("0.250000"));
        assert_eq!(json_number(text, "total_cost"), Some(12.0));
        assert_eq!(json_number(text, "missing"), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(quantile(&[], 0.9), 0.0);
        let page = "# HELP x\nkanon_jobs_accepted_total 4\nkanon_t{table=\"t\"} 2\n";
        let parsed = parse_exposition(page);
        assert_eq!(parsed["kanon_jobs_accepted_total"], 4.0);
        assert_eq!(parsed["kanon_t{table=\"t\"}"], 2.0);
    }
}
