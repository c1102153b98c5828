//! End-to-end service tests: a job's full lifecycle, and admission
//! control under burst overload (queue and memory pool) with exact counter
//! reconciliation and no 5xx.

mod common;

use std::sync::atomic::{AtomicUsize, Ordering};

use kanon_service::{Server, ServiceConfig};

const CSV: &str = "age,zip,job\n34,90210,cook\n34,90210,cook\n35,90210,cook\n\
                   35,90211,nurse\n34,90211,nurse\n35,90211,nurse\n";

#[test]
fn a_job_runs_queued_to_completed_and_counters_agree() {
    let server = Server::start(ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        ..ServiceConfig::default()
    })
    .expect("server starts");
    let addr = server.addr();

    let (status, head, body) = common::http(
        addr,
        "POST",
        "/v1/anonymize?k=2&shard_size=8&quasi=age,zip",
        CSV.as_bytes(),
    );
    assert_eq!(status, 202, "{body}");
    assert!(head.contains("Location: /v1/jobs/1"), "{head}");
    let id = common::extract_number(&body, "\"id\":").expect("job id");

    let done = common::await_job(addr, id);
    assert!(done.contains("\"state\":\"completed\""), "{done}");
    assert!(done.contains("\"k_anonymous\":true"), "{done}");
    assert!(done.contains("\"report\":{"), "{done}");
    assert!(done.contains("\"n_rows\":6"), "{done}");
    assert!(done.contains("\"n_cols\":2"), "{done}"); // quasi projection

    // Unknown jobs 404.
    let (status, _, _) = common::http(addr, "GET", "/v1/jobs/999", &[]);
    assert_eq!(status, 404);

    // The pool has fully reclaimed the job's lease.
    let (_, _, health) = common::http(addr, "GET", "/healthz", &[]);
    let available = common::extract_number(&health, "\"pool_available_bytes\":").unwrap();
    assert_eq!(available, ServiceConfig::default().pool_memory_bytes);

    // Counters: one accepted, one completed, nothing else.
    let (_, _, page) = common::http(addr, "GET", "/metrics", &[]);
    assert!(page.contains("kanon_jobs_accepted_total 1"), "{page}");
    assert!(page.contains("kanon_jobs_completed_total 1"), "{page}");
    assert!(page.contains("kanon_jobs_rejected_total 0"), "{page}");
    assert!(page.contains("kanon_jobs_failed_total 0"), "{page}");
    assert!(page.contains("kanon_shards_solved_total{solver="), "{page}");
    server.shutdown();
}

#[test]
fn a_private_job_re_verifies_the_constraint_and_measures_the_attack() {
    let server = Server::start(ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        ..ServiceConfig::default()
    })
    .expect("server starts");
    let addr = server.addr();

    // `job` is the sensitive column: it stays out of the quasi-identifier
    // and every released block must carry at least two distinct values.
    let (status, _, body) = common::http(
        addr,
        "POST",
        "/v1/anonymize?k=2&shard_size=8&privacy=l=2&sensitive=job",
        CSV.as_bytes(),
    );
    assert_eq!(status, 202, "{body}");
    let id = common::extract_number(&body, "\"id\":").expect("job id");

    let done = common::await_job(addr, id);
    assert!(done.contains("\"state\":\"completed\""), "{done}");
    assert!(done.contains("\"k_anonymous\":true"), "{done}");
    assert!(done.contains("\"privacy_verified\":true"), "{done}");
    assert!(done.contains("\"privacy\":{\"spec\":\"l=2\""), "{done}");
    assert!(done.contains("\"sensitive\":\"job\""), "{done}");
    // The sensitive column is excluded, so the solver saw two columns.
    assert!(done.contains("\"n_cols\":2"), "{done}");
    // The measured attack ran and nobody was re-identified outright.
    assert!(done.contains("\"attack\":{"), "{done}");
    assert!(done.contains("\"unique_matches\":0"), "{done}");

    // A malformed spec or a model with no sensitive column never admits.
    for bad in [
        "/v1/anonymize?k=2&privacy=l=0&sensitive=job",
        "/v1/anonymize?k=2&privacy=l=2",
    ] {
        let (status, _, body) = common::http(addr, "POST", bad, CSV.as_bytes());
        assert_eq!(status, 400, "{body}");
    }
    server.shutdown();
}

#[test]
fn burst_overload_yields_clean_429s_that_reconcile_exactly() {
    // One worker, one queue slot: a 16-submission burst must mostly bounce.
    let server = Server::start(ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_depth: 1,
        http_threads: 8,
        ..ServiceConfig::default()
    })
    .expect("server starts");
    let addr = server.addr();

    // A body big enough that one job occupies the worker for a while.
    let mut body = String::from("a,b\n");
    for i in 0..1000u32 {
        body.push_str(&format!("v{},w{}\n", i % 37, i % 53));
    }

    let accepted = AtomicUsize::new(0);
    let rejected = AtomicUsize::new(0);
    let ids = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..16 {
            let (body, accepted, rejected, ids) = (&body, &accepted, &rejected, &ids);
            scope.spawn(move || {
                let (status, head, resp) = common::http(
                    addr,
                    "POST",
                    "/v1/anonymize?k=3&shard_size=16",
                    body.as_bytes(),
                );
                match status {
                    202 => {
                        accepted.fetch_add(1, Ordering::Relaxed);
                        ids.lock()
                            .unwrap()
                            .push(common::extract_number(&resp, "\"id\":").unwrap());
                    }
                    429 => {
                        rejected.fetch_add(1, Ordering::Relaxed);
                        assert!(head.contains("Retry-After:"), "{head}");
                    }
                    other => panic!("burst got unexpected status {other}: {resp}"),
                }
            });
        }
    });
    let accepted = accepted.load(Ordering::Relaxed);
    let rejected = rejected.load(Ordering::Relaxed);
    assert_eq!(accepted + rejected, 16);
    assert!(rejected >= 1, "burst should overflow a depth-1 queue");

    // Every accepted job still completes (none are dropped post-accept).
    for id in ids.into_inner().unwrap() {
        let done = common::await_job(addr, id);
        assert!(done.contains("\"state\":\"completed\""), "{done}");
        assert!(done.contains("\"k_anonymous\":true"), "{done}");
    }

    // Exact reconciliation after the drain.
    let (_, _, page) = common::http(addr, "GET", "/metrics", &[]);
    assert!(
        page.contains(&format!("kanon_jobs_accepted_total {accepted}")),
        "{page}"
    );
    assert!(
        page.contains(&format!("kanon_jobs_rejected_total {rejected}")),
        "{page}"
    );
    assert!(
        page.contains(&format!("kanon_jobs_completed_total {accepted}")),
        "{page}"
    );
    assert!(page.contains("kanon_jobs_failed_total 0"), "{page}");
    assert_eq!(common::server_errors(&page), 0, "{page}");
    server.shutdown();
}

#[test]
fn memory_pool_exhaustion_rejects_even_with_queue_room() {
    // Pool fits exactly one default-size job; the queue has plenty of
    // room, so any second concurrent submission must bounce off the pool.
    let server = Server::start(ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_depth: 8,
        pool_memory_bytes: 32 * 1024 * 1024,
        default_job_memory_bytes: 32 * 1024 * 1024,
        http_threads: 4,
        ..ServiceConfig::default()
    })
    .expect("server starts");
    let addr = server.addr();

    let mut body = String::from("a,b\n");
    for i in 0..800u32 {
        body.push_str(&format!("v{},w{}\n", i % 31, i % 43));
    }

    let accepted = AtomicUsize::new(0);
    let rejected = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let (body, accepted, rejected) = (&body, &accepted, &rejected);
            scope.spawn(move || {
                let (status, head, resp) = common::http(
                    addr,
                    "POST",
                    "/v1/anonymize?k=3&shard_size=16",
                    body.as_bytes(),
                );
                match status {
                    202 => {
                        accepted.fetch_add(1, Ordering::Relaxed);
                    }
                    429 => {
                        rejected.fetch_add(1, Ordering::Relaxed);
                        assert!(head.contains("Retry-After:"), "{head}");
                        assert!(resp.contains("memory pool exhausted"), "{resp}");
                    }
                    other => panic!("unexpected status {other}: {resp}"),
                }
            });
        }
    });
    assert_eq!(
        accepted.load(Ordering::Relaxed) + rejected.load(Ordering::Relaxed),
        4
    );
    assert!(rejected.load(Ordering::Relaxed) >= 1);
    server.shutdown();
}

/// A job's memory goes back to the pool before the job reads `completed`,
/// so with a pool that fits exactly one job, a client that resubmits the
/// moment it sees `completed` is admitted every time. The unique `id`
/// column makes the finished run slow enough to free that a lease released
/// only after publishing would be caught within a few rounds.
#[test]
fn resubmitting_after_completion_is_always_admitted() {
    let mut body = String::from("id,age,zip\n");
    for i in 0..2_000 {
        body.push_str(&format!("u{i},{},{}\n", 30 + i % 7, 90210 + i % 5));
    }
    let server = Server::start(ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        pool_memory_bytes: 32 * 1024 * 1024,
        default_job_memory_bytes: 32 * 1024 * 1024,
        ..ServiceConfig::default()
    })
    .expect("server starts");
    let addr = server.addr();
    for round in 0..50 {
        let (status, _, resp) = common::http(
            addr,
            "POST",
            "/v1/anonymize?k=2&quasi=age,zip",
            body.as_bytes(),
        );
        assert_eq!(status, 202, "round {round}: {resp}");
        let id = common::extract_number(&resp, "\"id\":").expect("job id");
        // Poll without sleeping, so the resubmit lands right after the
        // job is published.
        loop {
            let (status, _, job) = common::http(addr, "GET", &format!("/v1/jobs/{id}"), &[]);
            assert_eq!(status, 200, "{job}");
            assert!(!job.contains("\"state\":\"failed\""), "{job}");
            if job.contains("\"state\":\"completed\"") {
                break;
            }
        }
    }
    server.shutdown();
}
