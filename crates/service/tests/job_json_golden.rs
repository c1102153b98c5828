//! Golden-file test pinning the JSON shape of `GET /v1/jobs/{id}` — same
//! style as the CLI's `json_golden`: timing fields are scrubbed to `0`,
//! everything else (key order included) must match `tests/golden/` byte
//! for byte. Regenerate with `UPDATE_GOLDEN=1`.

mod common;

use kanon_service::{Server, ServiceConfig};

/// Replaces every numeric value following `"key":` with `0` so wall-clock
/// noise cannot fail the comparison.
fn scrub_number(s: &str, key: &str) -> String {
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

fn normalize(s: &str) -> String {
    scrub_number(&scrub_number(s, "elapsed_ms"), "rows_per_sec")
}

fn assert_matches_golden(actual: &str, name: &str) {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    let actual = normalize(actual);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, format!("{actual}\n")).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read golden `{path}`: {e}; run with UPDATE_GOLDEN=1"));
    assert_eq!(
        actual,
        expected.trim_end_matches('\n'),
        "job JSON shape drifted from {name}; rerun with UPDATE_GOLDEN=1 if intentional"
    );
}

/// Twelve rows over two tiny columns — the same deterministic table the
/// CLI pipeline golden uses, so the embedded report is reproducible.
const MEDIUM: &str = "a,b\n\
    x,1\ny,1\nx,1\ny,2\nx,2\ny,2\n\
    x,1\ny,1\nx,2\ny,2\nx,1\ny,1\n";

#[test]
fn completed_job_json_shape_is_stable() {
    let server = Server::start(ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        // The report embeds the job's pipeline worker count; pin it so the
        // golden does not depend on the host's core count.
        job_pipeline_workers: Some(1),
        ..ServiceConfig::default()
    })
    .expect("server starts");
    let addr = server.addr();

    let (status, _, body) = common::http(
        addr,
        "POST",
        "/v1/anonymize?k=2&shard_size=5",
        MEDIUM.as_bytes(),
    );
    assert_eq!(status, 202, "{body}");
    let id = common::extract_number(&body, "\"id\":").expect("job id");
    assert_eq!(id, 1, "first job on a fresh server");

    let done = common::await_job(addr, id);
    assert!(done.contains("\"state\":\"completed\""), "{done}");
    assert_matches_golden(&done, "job_completed.json");
    server.shutdown();
}

#[test]
fn error_and_not_found_bodies_are_stable() {
    let server = Server::start(ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        ..ServiceConfig::default()
    })
    .expect("server starts");
    let addr = server.addr();

    let (status, _, body) = common::http(addr, "GET", "/v1/jobs/7", &[]);
    assert_eq!(status, 404);
    assert_eq!(body, "{\"error\":\"unknown job 7\"}");

    // A failed job renders its state-specific keys: submit unparsable CSV.
    let (status, _, body) = common::http(
        addr,
        "POST",
        "/v1/anonymize?k=2",
        b"a,b\n1,2\nonly-one-field\n",
    );
    assert_eq!(status, 202, "{body}");
    let id = common::extract_number(&body, "\"id\":").expect("job id");
    let done = common::await_job(addr, id);
    assert_matches_golden(&done, "job_failed.json");
    server.shutdown();
}
