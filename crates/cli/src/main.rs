//! The `kanon` binary: see `kanon help`.

use std::io::{self, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (code, stdout, notes) = match kanon_cli::run(&argv) {
        Ok(outcome) => (ExitCode::SUCCESS, outcome.stdout, outcome.notes),
        Err(kanon_cli::CliError::Usage(msg)) => (ExitCode::from(2), String::new(), vec![msg]),
        // Failed / EmptyInput / BadK: runtime failures, exit 1.
        Err(err) => (ExitCode::FAILURE, String::new(), vec![err.to_string()]),
    };
    match emit(&stdout, &notes) {
        // A reader that went away (`kanon … | head -1`) took what it
        // wanted; the command itself still ended with its own code.
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => code,
        Err(e) => {
            let _ = writeln!(io::stderr().lock(), "error writing output: {e}");
            ExitCode::FAILURE
        }
        Ok(()) => code,
    }
}

/// Writes the command's stdout, then its notes one per line on stderr.
/// The notes go out even when stdout failed (its reader may be gone while
/// stderr is still a terminal); the first error is returned.
fn emit(stdout: &str, notes: &[String]) -> io::Result<()> {
    let mut out = io::stdout().lock();
    let printed = out.write_all(stdout.as_bytes()).and_then(|()| out.flush());
    let mut err = io::stderr().lock();
    let noted = notes.iter().try_for_each(|note| writeln!(err, "{note}"));
    printed.and(noted)
}
