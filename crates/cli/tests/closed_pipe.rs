//! `kanon` keeps its 0/1/2 exit contract when the reader of its output
//! goes away early, as `kanon generate … | head -1` does: a closed pipe is
//! not a crash (exit 101), and the notes still reach stderr.

use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};

#[test]
fn closed_stdout_keeps_the_success_code() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_kanon"))
        .args(["generate", "--workload", "zipf", "--rows", "300000"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn kanon generate");
    let mut line = String::new();
    BufReader::new(child.stdout.take().expect("captured stdout"))
        .read_line(&mut line)
        .expect("read the header line");
    // The reader is dropped here with megabytes still unwritten.
    assert!(line.contains(','), "{line}");
    let mut notes = String::new();
    child
        .stderr
        .take()
        .expect("captured stderr")
        .read_to_string(&mut notes)
        .expect("read the notes");
    let status = child.wait().expect("kanon exits");
    assert_ne!(status.code(), Some(101), "kanon panicked on a closed pipe");
    assert_eq!(status.code(), Some(0));
    // The failed stdout write does not swallow the command's notes.
    assert!(notes.contains("generated 300000 zipf rows"), "{notes:?}");
}

#[test]
fn closed_stderr_keeps_the_usage_code() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_kanon"))
        .args(["verify", "--no-such-flag"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn kanon verify");
    drop(child.stderr.take());
    let status = child.wait().expect("kanon exits");
    assert_eq!(status.code(), Some(2));
}
