//! Helpers shared by the CLI golden tests.

/// Replaces every numeric value following `"key":` with `0` so wall-clock
/// noise cannot fail a comparison.
pub fn scrub_number(s: &str, key: &str) -> String {
    let marker = format!("\"{key}\":");
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(i) = rest.find(&marker) {
        let after = i + marker.len();
        out.push_str(&rest[..after]);
        out.push('0');
        let tail = &rest[after..];
        let end = tail
            .find(|c: char| !(c.is_ascii_digit() || c == '.'))
            .unwrap_or(tail.len());
        rest = &tail[end..];
    }
    out.push_str(rest);
    out
}

/// Scrubs the JSON timing fields, `elapsed_ms` and `rows_per_sec`.
pub fn scrub_timing(s: &str) -> String {
    scrub_number(&scrub_number(s, "elapsed_ms"), "rows_per_sec")
}
