//! End-to-end durable-table tests over real sockets: the lifecycle of a
//! table, the differential guarantee observed through HTTP (ops-driven
//! releases are byte-identical to a batch pipeline run on the equivalent
//! final CSV), restart durability for acknowledged batches, and
//! concurrent writers racing the single-writer lock.

mod common;

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use kanon_pipeline::release::write_release;
use kanon_pipeline::{run_csv, PipelineConfig, ShardStrategy};
use kanon_service::{Server, ServiceConfig};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kanon-table-svc-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn start(data_dir: &std::path::Path) -> Server {
    Server::start(ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        data_dir: Some(data_dir.to_path_buf()),
        ..ServiceConfig::default()
    })
    .expect("server starts")
}

/// Polls `/readyz` until the server reports ready (recovery finished,
/// nothing quarantined).
fn await_ready(addr: SocketAddr) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (status, _, body) = common::http(addr, "GET", "/readyz", &[]);
        if status == 200 {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "server never became ready; last: {body}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The batch pipeline's release for `table`, pinned to the serving
/// store's sharding (read back from its status JSON).
fn batch_release(table: &str, k: usize, status_json: &str) -> String {
    let shard_size = common::extract_number(status_json, "\"shard_size\":").unwrap() as usize;
    let n_buckets = common::extract_number(status_json, "\"n_buckets\":").unwrap() as usize;
    let config = PipelineConfig {
        shard_size,
        strategy: ShardStrategy::HashQuasi,
        n_buckets: Some(n_buckets),
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
    String::from_utf8(buf).unwrap()
}

fn row(i: u64) -> Vec<String> {
    vec![
        format!("a{}", i % 5),
        format!("z{}", i % 3),
        format!("j{}", i % 4),
    ]
}

fn csv_of(rows: &[(u64, Vec<String>)]) -> String {
    let mut s = String::from("age,zip,job\n");
    for (_, fields) in rows {
        s.push_str(&fields.join(","));
        s.push('\n');
    }
    s
}

#[test]
fn table_lifecycle_matches_the_batch_pipeline_through_http() {
    let dir = scratch("lifecycle");
    let server = start(&dir);
    let addr = server.addr();
    await_ready(addr);

    // Healthy empty registry: /healthz ok, nothing quarantined.
    let (status, _, health) = common::http(addr, "GET", "/healthz", &[]);
    assert_eq!(status, 200);
    assert!(health.contains("\"status\":\"ok\""), "{health}");
    assert!(health.contains("\"quarantined\":[]"), "{health}");

    // Shadow model: ids are assigned 0..n to the seed rows in order.
    let mut rows: Vec<(u64, Vec<String>)> = (0..20).map(|i| (i, row(i))).collect();
    let seed = csv_of(&rows);
    let (status, head, body) = common::http(
        addr,
        "PUT",
        "/v1/tables/people?k=2&shard_size=8",
        seed.as_bytes(),
    );
    assert_eq!(status, 201, "{body}");
    assert!(head.contains("Location: /v1/tables/people"), "{head}");
    assert!(body.contains("\"state\":\"ready\""), "{body}");
    assert!(body.contains("\"seq\":0"), "{body}");

    // Creating the same table again conflicts without a retry hint.
    let (status, head, body) = common::http(addr, "PUT", "/v1/tables/people?k=2", seed.as_bytes());
    assert_eq!(status, 409, "{body}");
    assert!(!head.contains("Retry-After"), "{head}");

    // Batch 1: inserts (ids continue from 20).
    let mut ops = String::from("op,id,age,zip,job\n");
    for i in 20..26 {
        rows.push((i, row(i)));
        ops.push_str(&format!("insert,,{}\n", row(i).join(",")));
    }
    let (status, _, body) = common::http(addr, "POST", "/v1/tables/people/ops", ops.as_bytes());
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"seq\":1"), "{body}");
    assert!(body.contains("\"inserted\":6"), "{body}");

    // Batch 2: a delete and an update of known ids.
    rows.retain(|(id, _)| *id != 3);
    let updated = vec!["a9".to_string(), "z9".to_string(), "j9".to_string()];
    rows.iter_mut().find(|(id, _)| *id == 7).unwrap().1 = updated.clone();
    let ops = format!(
        "op,id,age,zip,job\ndelete,3,,,\nupdate,7,{}\n",
        updated.join(",")
    );
    let (status, _, body) = common::http(addr, "POST", "/v1/tables/people/ops", ops.as_bytes());
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"seq\":2"), "{body}");
    assert!(body.contains("\"deleted\":1"), "{body}");
    assert!(body.contains("\"updated\":1"), "{body}");

    // The differential guarantee, observed from outside: the served
    // release is byte-identical to a batch pipeline run on the
    // equivalent final CSV with the store's pinned sharding.
    let (status, _, status_json) = common::http(addr, "GET", "/v1/tables/people", &[]);
    assert_eq!(status, 200, "{status_json}");
    assert!(status_json.contains("\"state\":\"ready\""), "{status_json}");
    assert_eq!(
        common::extract_number(&status_json, "\"n_rows\":"),
        Some(rows.len() as u64)
    );
    let (status, head, release) = common::http(addr, "GET", "/v1/tables/people/release", &[]);
    assert_eq!(status, 200);
    assert!(head.contains("text/csv"), "{head}");
    assert_eq!(release, batch_release(&csv_of(&rows), 2, &status_json));

    // Per-table metrics track the applied batches.
    let (_, _, page) = common::http(addr, "GET", "/metrics", &[]);
    assert!(
        page.contains("kanon_table_batches_applied_total{table=\"people\"} 2"),
        "{page}"
    );
    assert!(
        page.contains("kanon_table_ops_applied_total{table=\"people\"} 8"),
        "{page}"
    );
    assert!(
        page.contains("kanon_table_quarantined{table=\"people\"} 0"),
        "{page}"
    );

    // Delete drops the table, its metrics, and its directory.
    let (status, _, body) = common::http(addr, "DELETE", "/v1/tables/people", &[]);
    assert_eq!(status, 200, "{body}");
    let (status, _, _) = common::http(addr, "GET", "/v1/tables/people", &[]);
    assert_eq!(status, 404);
    let (_, _, page) = common::http(addr, "GET", "/metrics", &[]);
    assert!(!page.contains("table=\"people\""), "{page}");
    assert!(!dir.join("people").exists());

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restart_preserves_every_acknowledged_batch() {
    let dir = scratch("restart");
    let server = start(&dir);
    let addr = server.addr();
    await_ready(addr);

    let rows: Vec<(u64, Vec<String>)> = (1..=12).map(|i| (i, row(i))).collect();
    let (status, _, body) = common::http(
        addr,
        "PUT",
        "/v1/tables/t?k=2&shard_size=8",
        csv_of(&rows).as_bytes(),
    );
    assert_eq!(status, 201, "{body}");

    let mut acked = 0u64;
    for batch in 0..3 {
        let mut ops = String::from("op,id,age,zip,job\n");
        for i in 0..4u64 {
            ops.push_str(&format!("insert,,{}\n", row(100 + batch * 4 + i).join(",")));
        }
        let (status, _, body) = common::http(addr, "POST", "/v1/tables/t/ops", ops.as_bytes());
        assert_eq!(status, 200, "{body}");
        acked += 1;
    }
    let (_, _, release_before) = common::http(addr, "GET", "/v1/tables/t/release", &[]);
    server.shutdown();

    // A new process generation mounts the same directory: recovery must
    // surface exactly the acknowledged batches, then serve identical
    // bytes.
    let server = start(&dir);
    let addr = server.addr();
    await_ready(addr);
    let (status, _, status_json) = common::http(addr, "GET", "/v1/tables/t", &[]);
    assert_eq!(status, 200, "{status_json}");
    assert_eq!(
        common::extract_number(&status_json, "\"seq\":"),
        Some(acked),
        "{status_json}"
    );
    let (status, _, release_after) = common::http(addr, "GET", "/v1/tables/t/release", &[]);
    assert_eq!(status, 200);
    assert_eq!(release_after, release_before);

    // Recovery duration is exported for the operator.
    let (_, _, page) = common::http(addr, "GET", "/metrics", &[]);
    assert!(
        page.contains("kanon_table_recovery_seconds{table=\"t\"}"),
        "{page}"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_writers_race_the_lock_and_nothing_is_lost() {
    let dir = scratch("writers");
    let server = start(&dir);
    let addr = server.addr();
    await_ready(addr);

    let rows: Vec<(u64, Vec<String>)> = (1..=10).map(|i| (i, row(i))).collect();
    let (status, _, body) = common::http(
        addr,
        "PUT",
        "/v1/tables/race?k=2&shard_size=8",
        csv_of(&rows).as_bytes(),
    );
    assert_eq!(status, 201, "{body}");

    // 8 writers, one batch each, retrying honestly on 409. Readers of
    // status must never block while the writers contend.
    let conflicts = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for w in 0..8u64 {
            let conflicts = &conflicts;
            scope.spawn(move || {
                let ops = format!("op,id,age,zip,job\ninsert,,{}\n", row(200 + w).join(","));
                loop {
                    let (status, head, body) =
                        common::http(addr, "POST", "/v1/tables/race/ops", ops.as_bytes());
                    match status {
                        200 => break,
                        409 | 429 => {
                            assert!(head.contains("Retry-After:"), "{head}");
                            conflicts.fetch_add(1, Ordering::Relaxed);
                            std::thread::sleep(Duration::from_millis(20));
                        }
                        other => panic!("writer got {other}: {body}"),
                    }
                }
            });
        }
        scope.spawn(|| {
            for _ in 0..20 {
                let (status, _, body) = common::http(addr, "GET", "/v1/tables/race", &[]);
                assert_eq!(status, 200, "status must never block: {body}");
                std::thread::sleep(Duration::from_millis(2));
            }
        });
    });

    // Every writer was eventually acknowledged exactly once.
    let (status, _, status_json) = common::http(addr, "GET", "/v1/tables/race", &[]);
    assert_eq!(status, 200);
    assert_eq!(
        common::extract_number(&status_json, "\"seq\":"),
        Some(8),
        "{status_json}"
    );
    assert_eq!(
        common::extract_number(&status_json, "\"n_rows\":"),
        Some(18),
        "{status_json}"
    );

    // The release streams exactly the acknowledged rows.
    let (status, _, release) = common::http(addr, "GET", "/v1/tables/race/release", &[]);
    assert_eq!(status, 200, "{release}");
    assert_eq!(release.lines().count() - 1, 18, "{release}");

    // The server counted each 409 it handed out, each applied batch,
    // and no 5xx.
    let observed = conflicts.load(Ordering::Relaxed) as u64;
    let (_, _, page) = common::http(addr, "GET", "/metrics", &[]);
    let scraped =
        common::extract_number(&page, "kanon_table_write_conflicts_total{table=\"race\"} ");
    assert_eq!(scraped, Some(observed), "{page}");
    let applied =
        common::extract_number(&page, "kanon_table_batches_applied_total{table=\"race\"} ");
    assert_eq!(applied, Some(8), "{page}");
    assert_eq!(common::server_errors(&page), 0, "{page}");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
