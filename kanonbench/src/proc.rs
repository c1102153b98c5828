//! Processes under test — `kanon` invocations and `kanon serve` — plus the
//! minimal HTTP client that drives the server and the run's work directory.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// Prefix of the stderr line on which a `kanon` child reports its peak RSS.
const RSS_MARKER: &str = "kanonbench.vmhwm_kb=";

/// The benchmark's executable doubles as the `kanon` binary: invoked as
/// `kanonbench kanon <argv>` it does exactly what the real binary's `main`
/// does with `kanon_cli::run`, then reports its peak resident set on stderr.
pub fn kanon_child(argv: &[String]) -> ExitCode {
    let code = match kanon_cli::run(argv) {
        Ok(outcome) => {
            print!("{}", outcome.stdout);
            for note in &outcome.notes {
                eprintln!("{note}");
            }
            ExitCode::SUCCESS
        }
        Err(kanon_cli::CliError::Usage(msg)) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
        Err(err) => {
            eprintln!("{err}");
            ExitCode::FAILURE
        }
    };
    let _ = std::io::stdout().flush();
    if let Some(kb) = vmhwm_kb("self") {
        eprintln!("{RSS_MARKER}{kb}");
    }
    code
}

/// Peak resident set (`VmHWM`) of a process, in KiB; `pid` may be `self`.
pub fn vmhwm_kb(pid: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()
}

fn own_exe() -> Result<PathBuf, String> {
    std::env::current_exe().map_err(|e| format!("cannot locate the benchmark executable: {e}"))
}

/// One finished `kanon` invocation.
pub struct Invocation {
    /// Spawn to exit.
    pub wall: Duration,
    pub success: bool,
    pub stdout: String,
    pub stderr: String,
    /// The child's peak RSS in KiB.
    pub peak_kb: Option<u64>,
}

/// Runs `kanon <argv>` in its own process and waits for it.
pub fn invoke_kanon(argv: &[String]) -> Result<Invocation, String> {
    let exe = own_exe()?;
    let started = Instant::now();
    let out = Command::new(exe)
        .arg("kanon")
        .args(argv)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run kanon: {e}"))?;
    let wall = started.elapsed();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    let peak_kb = stderr
        .lines()
        .find_map(|line| line.strip_prefix(RSS_MARKER))
        .and_then(|kb| kb.trim().parse().ok());
    Ok(Invocation {
        wall,
        success: out.status.success(),
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        stderr,
        peak_kb,
    })
}

/// A `kanon serve` in its own process. Dropping it kills and reaps the
/// process.
pub struct Server {
    child: Child,
    /// Where the server announces its address; held open afterwards so it
    /// never writes into a closed pipe.
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    /// Spawn until `/readyz` first answered `200`.
    pub setup: Duration,
}

impl Server {
    /// Spawns `kanon serve` on a free loopback port with `workers` job
    /// workers (and `data_dir` for durable tables), then waits for `/readyz`.
    pub fn spawn(workers: usize, data_dir: Option<&Path>) -> Result<Server, String> {
        let started = Instant::now();
        let mut cmd = Command::new(own_exe()?);
        cmd.args(["kanon", "serve", "--addr", "127.0.0.1:0", "--workers"])
            .arg(workers.to_string());
        if let Some(dir) = data_dir {
            cmd.arg("--data-dir").arg(dir);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn kanon serve: {e}"))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut server = Server {
            child,
            stdout: BufReader::new(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            setup: Duration::ZERO,
        };
        // The server announces `kanon-service listening on <addr>` once bound.
        let mut line = String::new();
        server
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("kanon serve did not announce its address: {e}"))?;
        server.addr = line
            .trim()
            .rsplit(' ')
            .next()
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("kanon serve announced {line:?}"))?;
        loop {
            if matches!(request(server.addr, "GET", "/readyz", b""), Ok(r) if r.status == 200) {
                break;
            }
            if started.elapsed() > Duration::from_secs(60) {
                return Err("kanon serve never became ready".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        server.setup = started.elapsed();
        Ok(server)
    }

    /// The server process's peak RSS so far, in KiB.
    pub fn peak_kb(&self) -> Option<u64> {
        vmhwm_kb(&self.child.id().to_string())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawns the server `trials` times, keeping the last one, and returns it
/// with the median set-up time; `data_dir(i)` names trial `i`'s directory.
pub fn spawn_measured(
    workers: usize,
    trials: usize,
    data_dir: impl Fn(usize) -> Option<PathBuf>,
) -> Result<(Server, f64), String> {
    let mut setups = Vec::with_capacity(trials);
    let mut kept = None;
    for i in 0..trials.max(1) {
        let server = Server::spawn(workers, data_dir(i).as_deref())?;
        setups.push(server.setup.as_secs_f64());
        kept = Some(server); // drops (kills) the previous trial's server
    }
    let server = kept.expect("at least one trial ran");
    Ok((server, crate::check::median(&setups)))
}

/// One HTTP response.
pub struct Response {
    pub status: u16,
    pub retry_after: Option<u64>,
    pub body: Vec<u8>,
}

impl Response {
    pub fn text(&self) -> std::borrow::Cow<'_, str> {
        String::from_utf8_lossy(&self.body)
    }
}

/// One request over a fresh connection (the server closes after each).
pub fn request(
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: &[u8],
) -> Result<Response, String> {
    let io = |e: std::io::Error| format!("{method} {target}: {e}");
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5)).map_err(io)?;
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .map_err(io)?;
    stream
        .set_write_timeout(Some(Duration::from_secs(120)))
        .map_err(io)?;
    let mut writer = &stream;
    let head = format!(
        "{method} {target} HTTP/1.1\r\nHost: kanon\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    writer.write_all(head.as_bytes()).map_err(io)?;
    writer.write_all(body).map_err(io)?;
    writer.flush().map_err(io)?;

    let mut reader = BufReader::new(&stream);
    let mut head = Vec::new();
    while !head.ends_with(b"\r\n\r\n") {
        if reader.read_until(b'\n', &mut head).map_err(io)? == 0 || head.len() > 64 * 1024 {
            return Err(format!("{method} {target}: malformed response head"));
        }
    }
    let head = String::from_utf8_lossy(&head);
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{method} {target}: bad status line"))?;
    let mut length = 0usize;
    let mut retry_after = None;
    for (name, value) in lines.filter_map(|l| l.split_once(':')) {
        if name.trim().eq_ignore_ascii_case("content-length") {
            length = value.trim().parse().unwrap_or(0);
        } else if name.trim().eq_ignore_ascii_case("retry-after") {
            retry_after = value.trim().parse().ok();
        }
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).map_err(io)?;
    Ok(Response {
        status,
        retry_after,
        body,
    })
}

/// The run's scratch directory inside the current directory, removed when
/// dropped.
pub struct WorkDir {
    path: PathBuf,
}

/// Parent of every run's work directory.
const WORK_ROOT: &str = ".bench_work";

impl WorkDir {
    pub fn create(workload: &str) -> std::io::Result<WorkDir> {
        let path = Path::new(WORK_ROOT).join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir { path })
    }

    pub fn file(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Removes the root only when no other run is using it.
        let _ = std::fs::remove_dir(WORK_ROOT);
    }
}
