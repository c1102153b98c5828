//! Raw-socket HTTP helpers shared by the service integration tests. The
//! tests deliberately speak TCP directly instead of going through any
//! client abstraction: the service's contract is bytes on a socket.

// Compiled once per integration-test binary; not every binary uses every
// helper.
#![allow(dead_code)]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One HTTP exchange. Returns `(status, head, body)`.
pub fn http(addr: SocketAddr, method: &str, target: &str, body: &[u8]) -> (u16, String, String) {
    let request = format!(
        "{method} {target} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    let mut bytes = request.into_bytes();
    bytes.extend_from_slice(body);
    raw(addr, &bytes).expect("server closed the connection without answering")
}

/// Sends `bytes` verbatim and reads whatever comes back until the server
/// closes. `None` when the server answered nothing (e.g. the client side
/// looked like a vanished peer).
pub fn raw(addr: SocketAddr, bytes: &[u8]) -> Option<(u16, String, String)> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(bytes).expect("send request");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read response");
    if response.is_empty() {
        return None;
    }
    let text = String::from_utf8_lossy(&response).into_owned();
    let (head, body) = text
        .split_once("\r\n\r\n")
        .expect("response has a head/body separator");
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    Some((status, head.to_string(), body.to_string()))
}

/// Polls `GET /v1/jobs/{id}` until the job reaches a terminal state;
/// returns the final body.
pub fn await_job(addr: SocketAddr, id: u64) -> String {
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        let (status, _, body) = http(addr, "GET", &format!("/v1/jobs/{id}"), &[]);
        assert_eq!(status, 200, "job poll failed: {body}");
        if body.contains("\"state\":\"completed\"") || body.contains("\"state\":\"failed\"") {
            return body;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "job {id} never finished; last: {body}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Extracts the unsigned integer following `prefix` in a JSON body.
pub fn extract_number(text: &str, prefix: &str) -> Option<u64> {
    let rest = &text[text.find(prefix)? + prefix.len()..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Sums every `kanon_http_responses_total{code="5.."}` counter on a
/// `/metrics` page: the number of 5xx responses the server has sent.
pub fn server_errors(page: &str) -> u64 {
    page.lines()
        .filter_map(|line| line.strip_prefix("kanon_http_responses_total{code=\"5"))
        .filter_map(|rest| rest.rsplit_once(' '))
        .map(|(_, value)| value.parse::<u64>().expect("counter value"))
        .sum()
}
