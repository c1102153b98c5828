//! Argument parsing, driven by one flag table per (sub)command.
//!
//! Each (sub)command is declared once with `command!`: every field of its
//! payload struct is one row of its flag table, giving the flag, its value
//! placeholder and type, whether it is required, its default and one line
//! of help. One walker reads argv against a table and raises every usage
//! error: an unknown flag, a value flag with no value, a repeated flag, a
//! missing required flag and a value of the wrong type. [`usage`] renders
//! the synopsis and the flag list from the same tables.

use std::fmt::Write as _;
use std::num::ParseIntError;
use std::str::FromStr;

use kanon_pipeline::ShardStrategy;

use crate::CliError;

/// Which solver `anonymize` uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Algorithm {
    /// Theorem 4.2 center greedy (default; strongly polynomial).
    #[default]
    Center,
    /// Theorem 4.1 exhaustive greedy (small instances only).
    Exhaustive,
    /// The k-forest construction from the follow-up literature.
    Forest,
    /// Exact optimum (tiny instances only).
    Exact,
    /// Degradation ladder: exhaustive → center → agglomerative, best
    /// guarantee the budget affords (auto-selected when a budget flag is
    /// given without an explicit `--algorithm`).
    Ladder,
}

/// The `--algorithm` spellings, in [`Algorithm`] order.
const ALGORITHMS: &[&str] = &["center", "exhaustive", "forest", "exact", "ladder"];

impl Algorithm {
    /// The `--algorithm` spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        ALGORITHMS[self as usize]
    }
}

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `kanon anonymize`.
    Anonymize(Anonymize),
    /// `kanon pipeline`.
    Pipeline(Pipeline),
    /// `kanon schema probe`.
    SchemaProbe(SchemaProbe),
    /// `kanon schema infer`.
    SchemaInfer(SchemaInfer),
    /// `kanon schema verify`.
    SchemaVerify(SchemaVerify),
    /// `kanon delta init`.
    DeltaInit(DeltaInit),
    /// `kanon delta apply`.
    DeltaApply(DeltaApply),
    /// `kanon delta status`.
    DeltaStatus(DeltaStatus),
    /// `kanon delta release`.
    DeltaRelease(DeltaRelease),
    /// `kanon verify`.
    Verify(Verify),
    /// `kanon attack`.
    Attack(Attack),
    /// `kanon generate`.
    Generate(Generate),
    /// `kanon serve`.
    Serve(Serve),
    /// `kanon help`.
    Help,
}

type Build = fn(&Args) -> Command;

/// Every (sub)command: its name, its flag table and the builder of its
/// [`Command`], in usage order.
const COMMANDS: &[(&str, &[Flag], Build)] = &[
    ("anonymize", Anonymize::FLAGS, Anonymize::command),
    ("pipeline", Pipeline::FLAGS, Pipeline::command),
    ("schema probe", SchemaProbe::FLAGS, SchemaProbe::command),
    ("schema infer", SchemaInfer::FLAGS, SchemaInfer::command),
    ("schema verify", SchemaVerify::FLAGS, SchemaVerify::command),
    ("delta init", DeltaInit::FLAGS, DeltaInit::command),
    ("delta apply", DeltaApply::FLAGS, DeltaApply::command),
    ("delta status", DeltaStatus::FLAGS, DeltaStatus::command),
    ("delta release", DeltaRelease::FLAGS, DeltaRelease::command),
    ("verify", Verify::FLAGS, Verify::command),
    ("attack", Attack::FLAGS, Attack::command),
    ("generate", Generate::FLAGS, Generate::command),
    ("serve", Serve::FLAGS, Serve::command),
];

/// Declares a (sub)command's payload struct, named as its [`Command`]
/// variant, and its flag table at once. Each field is one table row: its
/// one-line doc comment is the row's help, `row` gives the flag, its value
/// and its default, and `command` fills the field by calling `reader` on
/// [`Args`] with the row's flag.
macro_rules! command {
    (
        $(#[$doc:meta])*
        $name:ident {
            $(#[doc = $help:literal] $field:ident: $ty:ty = $row:expr => $reader:ident,)*
        }
    ) => {
        $(#[$doc])*
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub struct $name {
            $(#[doc = $help] pub $field: $ty,)*
        }

        impl $name {
            /// The flag table, one row per field, in usage order.
            const FLAGS: &'static [Flag] = &[$(($row).help($help)),*];

            fn command(a: &Args) -> Command {
                Command::$name($name {
                    $($field: a.$reader(($row).name),)*
                })
            }
        }
    };
}

command! {
    /// `kanon anonymize`: one whole-table solve.
    Anonymize {
        /// Privacy parameter: every released row matches k-1 others.
        k: usize = K => int,
        /// Input CSV; `-` reads stdin.
        input: String = INPUT => text,
        /// Write here instead of stdout.
        output: Option<String> = OUTPUT => opt_text,
        /// Solver [default: center, or ladder when a budget is given].
        algorithm: Algorithm = opt("--algorithm", "", Kind::Choice(ALGORITHMS)) => algorithm,
        /// Quasi-identifier columns [default: all columns].
        quasi: Option<Vec<String>> = QUASI => list,
        /// Center-greedy worker threads.
        threads: usize = opt("--threads", "N", Kind::Positive).or("1") => int,
        /// Also write the 0/1 suppression mask here.
        emit_mask: Option<String> = opt("--emit-mask", "<FILE>", Kind::Text) => opt_text,
        /// Print a machine-readable JSON report on stdout.
        json: bool = JSON => switch,
        /// Wall-clock budget (see BUDGETS).
        deadline_ms: Option<u64> = DEADLINE => opt_int,
        /// Planned-allocation budget (see BUDGETS).
        max_memory_mb: Option<u64> = MEMORY => opt_int,
    }
}

command! {
    /// `kanon pipeline`: the sharded out-of-core engine.
    Pipeline {
        /// Privacy parameter: every released row matches k-1 others.
        k: usize = K => int,
        /// Input CSV; `-` reads stdin.
        input: String = INPUT => text,
        /// Write here instead of stdout.
        output: Option<String> = OUTPUT => opt_text,
        /// Target rows per shard.
        shard_size: usize = SHARD_SIZE => int,
        /// Row-to-shard assignment.
        strategy: ShardStrategy = opt(
            "--strategy",
            "hash|sorted",
            Kind::Checked(|s| ShardStrategy::from_name(s).map(drop).map_err(Into::into)),
        )
        .or("hash") => strategy,
        /// Pinned hash-bucket count [default: derived from the table].
        buckets: Option<usize> = BUCKETS => opt_int,
        /// Worker threads [default: RAYON_NUM_THREADS, then all cores].
        workers: Option<usize> = opt("--workers", "N", Kind::Positive) => opt_int,
        /// Quasi-identifier columns [default: the schema-driven auto path].
        quasi: Option<Vec<String>> = QUASI => list,
        /// Auto path: hierarchy-override JSON.
        hierarchies: Option<String> = opt("--hierarchies", "<FILE>", Kind::Text) => opt_text,
        // A checked spec string: `PrivacyModel` holds an `f64`, so it cannot
        // ride in this `Eq` struct and is parsed again at run time.
        /// Privacy model beyond k, held on the --sensitive column.
        privacy: Option<String> = opt(
            "--privacy",
            "k|l=N|entropy-l=X|t=X|emd-t=X",
            Kind::Checked(|s| kanon_privacy::PrivacyModel::parse(s).map(drop).map_err(Into::into)),
        ) => opt_text,
        /// Sensitive column, kept out of the quasi-identifier.
        sensitive: Option<String> = opt("--sensitive", "COL", Kind::Text) => opt_text,
        /// Auto path: also run suppression and report both losses.
        compare: bool = opt("--compare", "", Kind::Switch) => switch,
        /// Print a machine-readable JSON report on stdout.
        json: bool = JSON => switch,
        /// Wall-clock budget (see BUDGETS).
        deadline_ms: Option<u64> = DEADLINE => opt_int,
        /// Planned-allocation budget (see BUDGETS).
        max_memory_mb: Option<u64> = MEMORY => opt_int,
    }
}

command! {
    /// `kanon schema probe`: structural detection only.
    SchemaProbe {
        /// Input CSV; `-` reads stdin.
        input: String = INPUT => text,
    }
}

command! {
    /// `kanon schema infer`: full inference, rendering the `.schema` file.
    SchemaInfer {
        /// Input CSV; `-` reads stdin.
        input: String = INPUT => text,
        /// Write here instead of stdout.
        output: Option<String> = opt("--output", "<FILE.schema>", Kind::Text) => opt_text,
    }
}

command! {
    /// `kanon schema verify`: re-infer and diff against a stored `.schema`
    /// file; exits nonzero on drift.
    SchemaVerify {
        /// Stored .schema file to diff against.
        schema: String = req("--schema", "<FILE.schema>", Kind::Text) => text,
        /// Input CSV; `-` reads stdin.
        input: String = INPUT => text,
    }
}

command! {
    /// `kanon delta init`: create a store from a CSV table.
    DeltaInit {
        /// Delta store directory.
        dir: String = DIR => text,
        /// Privacy parameter: every released row matches k-1 others.
        k: usize = K => int,
        /// Input CSV; `-` reads stdin.
        input: String = INPUT => text,
        /// Target rows per shard.
        shard_size: usize = SHARD_SIZE => int,
        /// Pinned hash-bucket count [default: derived from the table].
        buckets: Option<usize> = BUCKETS => opt_int,
        /// Quasi-identifier columns [default: all columns].
        quasi: Option<Vec<String>> = QUASI => list,
        /// Wall-clock budget (see BUDGETS).
        deadline_ms: Option<u64> = DEADLINE => opt_int,
        /// Planned-allocation budget (see BUDGETS).
        max_memory_mb: Option<u64> = MEMORY => opt_int,
        /// Print a machine-readable JSON report on stdout.
        json: bool = JSON => switch,
    }
}

command! {
    /// `kanon delta apply`: apply an ops CSV as one atomic batch.
    DeltaApply {
        /// Delta store directory.
        dir: String = DIR => text,
        /// Ops CSV with header `op,id,<columns...>`; `-` reads stdin.
        ops: String = req("--ops", "<FILE|->", Kind::Text) => text,
        /// Also write the new release here.
        output: Option<String> = OUTPUT => opt_text,
        /// Wall-clock budget (see BUDGETS).
        deadline_ms: Option<u64> = DEADLINE => opt_int,
        /// Planned-allocation budget (see BUDGETS).
        max_memory_mb: Option<u64> = MEMORY => opt_int,
        /// Print a machine-readable JSON report on stdout.
        json: bool = JSON => switch,
    }
}

command! {
    /// `kanon delta status`: report store health without solving.
    DeltaStatus {
        /// Delta store directory.
        dir: String = DIR => text,
        /// Print a machine-readable JSON report on stdout.
        json: bool = JSON => switch,
    }
}

command! {
    /// `kanon delta release`: write the current released CSV.
    DeltaRelease {
        /// Delta store directory.
        dir: String = DIR => text,
        /// Write here instead of stdout.
        output: Option<String> = OUTPUT => opt_text,
        /// Wall-clock budget (see BUDGETS).
        deadline_ms: Option<u64> = DEADLINE => opt_int,
        /// Planned-allocation budget (see BUDGETS).
        max_memory_mb: Option<u64> = MEMORY => opt_int,
    }
}

command! {
    /// `kanon verify`: check a released CSV for k-anonymity.
    Verify {
        /// Privacy parameter: every released row matches k-1 others.
        k: usize = K => int,
        /// Input CSV; `-` reads stdin.
        input: String = INPUT => text,
        /// Quasi-identifier columns [default: all columns].
        quasi: Option<Vec<String>> = QUASI => list,
    }
}

command! {
    /// `kanon attack`: linkage-attack a released CSV with external data.
    Attack {
        /// Released CSV (stars and bands allowed).
        released: String = req("--released", "<FILE>", Kind::Text) => text,
        /// The attacker's CSV with raw values.
        external: String = req("--external", "<FILE>", Kind::Text) => text,
        /// Join columns, same names on both sides.
        join: Vec<String> = req("--join", "col1,col2,...", Kind::List) => items,
    }
}

command! {
    /// `kanon generate`: synthetic sample data.
    Generate {
        /// Records.
        rows: usize = opt("--rows", "N", Kind::Count).or("100") => int,
        /// RNG seed.
        seed: u64 = opt("--seed", "S", Kind::Count).or("0") => int,
        /// Write here instead of stdout.
        output: Option<String> = OUTPUT => opt_text,
        /// Census-like microdata or zipf-skewed categorical.
        workload: String = opt("--workload", "", Kind::Choice(&["census", "zipf"])).or("census")
            => text,
        /// Zip-code regions (census, messy).
        regions: usize = opt("--regions", "R", Kind::Count).or("8") => int,
        /// Census rows made `;`-delimited, with mixed types and nulls.
        messy: bool = opt("--messy", "", Kind::Switch) => switch,
        /// Columns (zipf).
        cols: usize = opt("--cols", "M", Kind::Count).or("8") => int,
        /// Distinct values per column (zipf).
        alphabet: usize = opt("--alphabet", "A", Kind::Count).or("50") => int,
        /// Skew exponent (zipf).
        exponent: String = opt("--exponent", "E", Kind::Text).or("1.0") => text,
    }
}

command! {
    /// `kanon serve`: the long-running anonymization server.
    Serve {
        /// Listen address; port 0 picks a free one.
        addr: String = opt("--addr", "HOST:PORT", Kind::Text).or("127.0.0.1:8672") => text,
        /// Job-solver threads.
        workers: usize = opt("--workers", "N", Kind::Positive).or("4") => int,
        /// Queued jobs beyond the running ones.
        queue_depth: usize = opt("--queue-depth", "N", Kind::Positive).or("64") => int,
        /// Memory pool that per-job budgets lease from.
        pool_memory_mb: u64 = opt("--pool-memory-mb", "MB", Kind::Positive).or("256") => int,
        /// Serve durable tables from this directory.
        data_dir: Option<String> = opt("--data-dir", "DIR", Kind::Text) => opt_text,
    }
}

/// What a flag's value must be.
#[derive(Clone, Copy)]
enum Kind {
    /// No value: the flag is present or absent.
    Switch,
    /// Any string.
    Text,
    /// Comma-separated column names.
    List,
    /// An integer `>= 1`.
    Positive,
    /// An integer `>= 0`.
    Count,
    /// One of these names.
    Choice(&'static [&'static str]),
    /// A string this check accepts; its error is the usage message.
    Checked(fn(&str) -> Result<(), Box<dyn std::error::Error>>),
}

/// One row of a flag table.
struct Flag {
    name: &'static str,
    /// Value placeholder in the synopsis (unused by switches and choices).
    value: &'static str,
    kind: Kind,
    required: bool,
    default: Option<&'static str>,
    help: &'static str,
}

const fn opt(name: &'static str, value: &'static str, kind: Kind) -> Flag {
    Flag {
        name,
        value,
        kind,
        required: false,
        default: None,
        help: "",
    }
}

const fn req(name: &'static str, value: &'static str, kind: Kind) -> Flag {
    Flag {
        required: true,
        ..opt(name, value, kind)
    }
}

impl Flag {
    /// This row with a default value.
    const fn or(self, default: &'static str) -> Flag {
        Flag {
            default: Some(default),
            ..self
        }
    }

    /// This row with its line of help.
    const fn help(self, help: &'static str) -> Flag {
        Flag { help, ..self }
    }

    /// The flag as the synopsis spells it, value placeholder included.
    fn synopsis(&self) -> String {
        match self.kind {
            Kind::Switch => self.name.to_string(),
            Kind::Choice(names) => format!("{} {}", self.name, names.join("|")),
            _ => format!("{} {}", self.name, self.value),
        }
    }

    /// Checks one value against the row's type.
    fn check(&self, value: &str) -> Result<(), CliError> {
        let name = self.name;
        let need = |valid: bool, what: &str| match valid {
            true => Ok(()),
            false => Err(usage_error(format!("{name} needs {what}"))),
        };
        match self.kind {
            Kind::Switch | Kind::Text | Kind::List => Ok(()),
            Kind::Positive => need(
                value.parse::<u64>().is_ok_and(|x| x >= 1),
                "a positive integer",
            ),
            Kind::Count => need(value.parse::<u64>().is_ok(), "an integer"),
            Kind::Choice(names) if names.contains(&value) => Ok(()),
            Kind::Choice(names) => Err(usage_error(format!(
                "unknown {} `{value}` ({})",
                name.trim_start_matches('-'),
                names.join(" | ")
            ))),
            Kind::Checked(check) => check(value).map_err(usage_error),
        }
    }
}

const K: Flag = req("-k", "<K>", Kind::Positive);
const INPUT: Flag = req("--input", "<FILE|->", Kind::Text);
const OUTPUT: Flag = opt("--output", "<FILE>", Kind::Text);
const QUASI: Flag = opt("--quasi", "col1,col2,...", Kind::List);
const SHARD_SIZE: Flag = opt("--shard-size", "N", Kind::Positive).or("512");
const BUCKETS: Flag = opt("--buckets", "N", Kind::Positive);
const JSON: Flag = opt("--json", "", Kind::Switch);
const DEADLINE: Flag = opt("--deadline-ms", "MS", Kind::Positive);
const MEMORY: Flag = opt("--max-memory-mb", "MB", Kind::Positive);
const DIR: Flag = req("--dir", "<DIR>", Kind::Text);

/// A usage error: `msg`, a blank line, then the usage text (exit 2).
pub(crate) fn usage_error(msg: impl std::fmt::Display) -> CliError {
    CliError::Usage(format!("{msg}\n\n{}", usage()))
}

/// The usage text: the synopsis and the flag list rendered from the flag
/// tables, then the notes on commands, budgets and the environment.
#[must_use]
pub fn usage() -> String {
    let mut out = String::from(
        "kanon — optimal k-anonymity by entry suppression (Meyerson-Williams, PODS 2004)\n\n\
         USAGE:\n",
    );
    for (name, flags, _) in COMMANDS {
        let width = if name.contains(' ') { 13 } else { 9 };
        let mut line = format!("    kanon {name:<width$}");
        for flag in *flags {
            let word = match flag.required {
                true => flag.synopsis(),
                false => format!("[{}]", flag.synopsis()),
            };
            if line.len() + 1 + word.len() > 78 {
                out.push_str(&line);
                line = format!("\n{:19}", "");
            }
            let _ = write!(line, " {word}");
        }
        let _ = writeln!(out, "{line}");
    }
    out.push_str("    kanon help\n\nFLAGS:\n");
    let mut seen = std::collections::HashSet::new();
    for flag in COMMANDS.iter().flat_map(|(_, flags, _)| flags.iter()) {
        if !seen.insert((flag.name, flag.help)) {
            continue;
        }
        let (synopsis, help) = (flag.synopsis(), flag.help.trim());
        let _ = match synopsis.len() {
            0..=26 => write!(out, "    {synopsis:<28}{help}"),
            _ => write!(out, "    {synopsis}\n{:32}{help}", ""),
        };
        if let Some(default) = flag.default {
            let _ = write!(out, " [default: {default}]");
        }
        out.push('\n');
    }
    out.push('\n');
    out.push_str(NOTES);
    out
}

/// Flag values read from argv against one table, defaults filled in.
struct Args<'a> {
    flags: &'static [Flag],
    values: Vec<Option<&'a str>>,
}

/// Reads `argv` against `flags`. The shape of the line is checked in argv
/// order, then missing and mistyped values in table order.
fn walk<'a>(flags: &'static [Flag], argv: &'a [String]) -> Result<Args<'a>, CliError> {
    let row = |arg: &str| flags.iter().position(|f| f.name == arg);
    let mut values: Vec<Option<&'a str>> = vec![None; flags.len()];
    let mut i = 0;
    while i < argv.len() {
        let arg = argv[i].as_str();
        let Some(r) = row(arg) else {
            return Err(usage_error(format!("unexpected argument `{arg}`")));
        };
        if values[r].is_some() {
            return Err(usage_error(format!("{arg} given more than once")));
        }
        values[r] = Some(match flags[r].kind {
            Kind::Switch => "",
            _ => match argv.get(i + 1) {
                Some(value) if row(value).is_none() => {
                    i += 1;
                    value.as_str()
                }
                _ => return Err(usage_error(format!("{arg} needs a value"))),
            },
        });
        i += 1;
    }
    for (flag, value) in flags.iter().zip(&mut values) {
        *value = value.or(flag.default);
        match value {
            Some(v) => flag.check(v)?,
            // A missing required number reads as a malformed one.
            None if flag.required => {
                return Err(match flag.kind {
                    Kind::Positive => flag.check("").unwrap_err(),
                    _ => usage_error(format!("{} is required", flag.name)),
                })
            }
            None => {}
        }
    }
    Ok(Args { flags, values })
}

/// The readers a [`command!`] field names: each turns its flag's checked
/// value into the field's type. Required and defaulted flags always have
/// a value after [`walk`].
impl<'a> Args<'a> {
    fn get(&self, name: &str) -> Option<&'a str> {
        let row = self.flags.iter().position(|f| f.name == name);
        self.values[row.expect("the flag is in this table")]
    }

    fn opt_text(&self, name: &str) -> Option<String> {
        self.get(name).map(String::from)
    }

    fn text(&self, name: &str) -> String {
        self.opt_text(name).expect("required or defaulted")
    }

    fn opt_int<T: FromStr<Err = ParseIntError>>(&self, name: &str) -> Option<T> {
        self.get(name)
            .map(|v| v.parse().expect("checked by `walk`"))
    }

    fn int<T: FromStr<Err = ParseIntError>>(&self, name: &str) -> T {
        self.opt_int(name).expect("required or defaulted")
    }

    fn list(&self, name: &str) -> Option<Vec<String>> {
        let split = |s: &str| s.split(',').map(|c| c.trim().to_string()).collect();
        self.get(name).map(split)
    }

    fn items(&self, name: &str) -> Vec<String> {
        self.list(name).expect("required")
    }

    fn switch(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    fn strategy(&self, name: &str) -> ShardStrategy {
        ShardStrategy::from_name(&self.text(name)).expect("checked by `walk`")
    }

    /// `--algorithm`; when absent, a budget flag selects the degradation
    /// ladder (the best guarantee the budget affords) and center otherwise.
    fn algorithm(&self, name: &str) -> Algorithm {
        use Algorithm::{Center, Exact, Exhaustive, Forest, Ladder};
        let budgeted = self.switch("--deadline-ms") || self.switch("--max-memory-mb");
        match self.get(name) {
            None if budgeted => Ladder,
            None => Center,
            Some(choice) => {
                let i = ALGORITHMS.iter().position(|a| *a == choice);
                [Center, Exhaustive, Forest, Exact, Ladder][i.expect("checked by `walk`")]
            }
        }
    }
}

/// Parses argv (program name excluded).
///
/// # Errors
/// [`CliError::Usage`] with usage text on any problem.
pub fn parse(argv: &[String]) -> Result<Command, CliError> {
    let Some(cmd) = argv.first().map(String::as_str) else {
        return Err(CliError::Usage(usage()));
    };
    if matches!(cmd, "help" | "-h" | "--help") {
        return Ok(Command::Help);
    }
    let (name, rest) = if matches!(cmd, "schema" | "delta") {
        let actions: Vec<&str> = COMMANDS
            .iter()
            .filter_map(|(name, _, _)| name.strip_prefix(cmd)?.strip_prefix(' '))
            .collect();
        let list = actions.join(" | ");
        let Some(action) = argv.get(1) else {
            return Err(usage_error(format!("{cmd} needs an action ({list})")));
        };
        if !actions.contains(&action.as_str()) {
            return Err(usage_error(format!(
                "unknown {cmd} action `{action}` ({list})"
            )));
        }
        (format!("{cmd} {action}"), &argv[2..])
    } else {
        (cmd.to_string(), &argv[1..])
    };
    let Some((_, flags, build)) = COMMANDS.iter().find(|(n, _, _)| *n == name) else {
        return Err(usage_error(format!("unknown command `{cmd}`")));
    };
    let command = build(&walk(flags, rest)?);
    if let Command::Anonymize(a) = &command {
        let budgeted = a.deadline_ms.is_some() || a.max_memory_mb.is_some();
        if budgeted && matches!(a.algorithm, Algorithm::Forest | Algorithm::Exact) {
            return Err(usage_error(
                "--deadline-ms/--max-memory-mb are not supported with `forest` or `exact`; \
                 use center, exhaustive, or ladder",
            ));
        }
    }
    Ok(command)
}

/// The hand-written part of the usage text.
const NOTES: &str = "\
COMMANDS:
    anonymize   Suppress a minimum of entries so every record matches
                k-1 others on the quasi-identifier columns.
    pipeline    Shard the table, solve each shard under a slice of the
                budget, and merge — scales to millions of rows (solver
                memory is bounded by --shard-size, not the table).
                Workers take whole shards in shard order, so the output is
                the same at every worker count.
                Without --quasi the run takes the schema-driven auto path:
                the delimiter and column types are inferred, a ranked
                quasi-identifier is chosen, and full-domain generalization
                over auto-derived hierarchies is tried first, degrading to
                sharded suppression when the lattice cannot reach k in
                budget. --privacy holds the release to a model beyond k on
                the --sensitive column (l=N distinct l-diversity,
                entropy-l=X, t=X variational t-closeness, emd-t=X ordered
                EMD), re-verified after the post-merge repair.
    schema      The probe -> infer -> verify toolchain for messy CSVs.
                `probe` reports delimiter/quoting/field-count structure;
                `infer` renders the versioned .schema file (column types,
                null rates, quasi-identifier ranking, snapshot hash);
                `verify` re-infers and diffs against a stored .schema,
                exiting nonzero on drift.
    delta       Incremental anonymization over a durable store (WAL +
                snapshot). `init` ingests and solves a table once;
                `apply` replays an ops CSV (insert/delete/update) as one
                atomic batch, re-solving only the buckets it touched;
                `status` reports store health; `release` writes the
                current anonymized CSV — byte-identical to a fresh
                `pipeline` run on the same table with the store's pinned
                --buckets.
    verify      Check that a released CSV (with * for suppressed cells)
                is k-anonymous; reports the actual anonymity level.
    attack      Play the adversary: join a released CSV against external
                data and report how many records are uniquely linkable.
    generate    Emit a synthetic CSV for experimentation: census-like
                typed microdata (--messy roughs it up for the schema
                toolchain), or zipf-skewed categorical data that streams
                to --output for very large --rows.
    serve       Run the anonymization server: POST /v1/anonymize submits
                a job (202 + id, or 429 + Retry-After when the queue or
                memory pool is full), GET /v1/jobs/<id> polls it, and
                GET /metrics exposes Prometheus counters. With --data-dir
                it also serves durable tables at /v1/tables/<name>
                (PUT creates from CSV, POST <name>/ops appends an atomic
                batch, GET <name>/release streams the anonymized CSV);
                on restart every table's WAL is replayed — corrupt
                tables are quarantined (503 + degraded /healthz), not
                fatal.

BUDGETS:
    --deadline-ms and --max-memory-mb bound the solver's wall-clock time and
    planned allocations. Given without --algorithm they select the `ladder`
    runner, which tries exhaustive greedy, then center greedy, then the
    agglomerative heuristic — answering with the best approximation
    guarantee the budget affords. With `center` or `exhaustive` the chosen
    solver runs governed and fails cleanly when the budget trips; `forest`
    and `exact` do not support budgets.

ENVIRONMENT:
    RAYON_NUM_THREADS   Default worker count when --workers is not given.
    KANON_FORCE_KERNEL  Distance-kernel override: `scalar`, `swar`, or
                        `simd` (a ceiling — falls back to swar when the
                        CPU lacks AVX2/NEON). Unset picks the best
                        kernel the CPU supports at startup.
";

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(ToString::to_string).collect()
    }

    #[test]
    fn parse_anonymize_full() {
        let cmd = parse(&argv(
            "anonymize -k 3 --input a.csv --output b.csv --algorithm exact --quasi age,zip",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Anonymize(Anonymize {
                k: 3,
                input: "a.csv".into(),
                output: Some("b.csv".into()),
                algorithm: Algorithm::Exact,
                quasi: Some(vec!["age".into(), "zip".into()]),
                threads: 1,
                emit_mask: None,
                deadline_ms: None,
                max_memory_mb: None,
                json: false,
            })
        );
    }

    #[test]
    fn parse_defaults() {
        let cmd = parse(&argv("anonymize -k 2 --input -")).unwrap();
        assert_eq!(
            cmd,
            Command::Anonymize(Anonymize {
                k: 2,
                input: "-".into(),
                output: None,
                algorithm: Algorithm::Center,
                quasi: None,
                threads: 1,
                emit_mask: None,
                deadline_ms: None,
                max_memory_mb: None,
                json: false,
            })
        );
        assert_eq!(
            parse(&argv("generate")).unwrap(),
            Command::Generate(Generate {
                rows: 100,
                seed: 0,
                regions: 8,
                workload: "census".into(),
                cols: 8,
                alphabet: 50,
                exponent: "1.0".into(),
                messy: false,
                output: None,
            })
        );
    }

    #[test]
    fn parse_pipeline() {
        let cmd = parse(&argv(
            "pipeline -k 5 --input big.csv --output out.csv --shard-size 1024 \
             --strategy sorted --workers 4 --quasi age,zip \
             --deadline-ms 30000 --json",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Pipeline(Pipeline {
                k: 5,
                input: "big.csv".into(),
                output: Some("out.csv".into()),
                shard_size: 1024,
                strategy: kanon_pipeline::ShardStrategy::Sorted,
                buckets: None,
                workers: Some(4),
                quasi: Some(vec!["age".into(), "zip".into()]),
                hierarchies: None,
                compare: false,
                privacy: None,
                sensitive: None,
                deadline_ms: Some(30_000),
                max_memory_mb: None,
                json: true,
            })
        );
        // Defaults.
        let cmd = parse(&argv("pipeline -k 3 --input -")).unwrap();
        assert_eq!(
            cmd,
            Command::Pipeline(Pipeline {
                k: 3,
                input: "-".into(),
                output: None,
                shard_size: 512,
                strategy: kanon_pipeline::ShardStrategy::HashQuasi,
                buckets: None,
                workers: None,
                quasi: None,
                hierarchies: None,
                compare: false,
                privacy: None,
                sensitive: None,
                deadline_ms: None,
                max_memory_mb: None,
                json: false,
            })
        );
        // The auto path's knobs.
        let cmd = parse(&argv(
            "pipeline -k 3 --input messy.csv --hierarchies h.json --compare",
        ))
        .unwrap();
        assert!(matches!(
            cmd,
            Command::Pipeline(Pipeline {
                quasi: None,
                hierarchies: Some(ref h),
                compare: true,
                ..
            }) if h == "h.json"
        ));
        // The privacy knob.
        let cmd = parse(&argv(
            "pipeline -k 3 --input t.csv --quasi age,zip --privacy l=2 --sensitive diagnosis",
        ))
        .unwrap();
        assert!(matches!(
            cmd,
            Command::Pipeline(Pipeline {
                privacy: Some(ref p),
                sensitive: Some(ref s),
                ..
            }) if p == "l=2" && s == "diagnosis"
        ));
        let cmd = parse(&argv(
            "pipeline -k 3 --input t.csv --privacy emd-t=0.2 --sensitive d",
        ))
        .unwrap();
        assert!(matches!(
            cmd,
            Command::Pipeline(Pipeline {
                privacy: Some(ref p),
                ..
            }) if p == "emd-t=0.2"
        ));
        // Errors.
        for bad in [
            "pipeline --input -",
            "pipeline -k 3",
            "pipeline -k 3 --input - --strategy range",
            "pipeline -k 3 --input - --shard-size 0",
            "pipeline -k 3 --input - --buckets 0",
            "pipeline -k 3 --input - --workers 0",
            "pipeline -k 3 --input - --bogus x",
            "pipeline -k 3 --input - --privacy l=1",
            "pipeline -k 3 --input - --privacy bogus",
        ] {
            assert!(
                matches!(parse(&argv(bad)), Err(CliError::Usage(_))),
                "{bad}"
            );
        }
    }

    #[test]
    fn parse_generate_zipf() {
        let cmd = parse(&argv(
            "generate --workload zipf --rows 1000 --cols 6 --alphabet 30 \
             --exponent 1.2 --seed 9 --output data.csv",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Generate(Generate {
                rows: 1000,
                seed: 9,
                regions: 8,
                workload: "zipf".into(),
                cols: 6,
                alphabet: 30,
                exponent: "1.2".into(),
                messy: false,
                output: Some("data.csv".into()),
            })
        );
        assert!(matches!(
            parse(&argv("generate --workload weibull")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn parse_generate_messy() {
        let cmd = parse(&argv("generate --messy --rows 500 --seed 3")).unwrap();
        assert!(matches!(
            cmd,
            Command::Generate(Generate {
                messy: true,
                rows: 500,
                seed: 3,
                ..
            })
        ));
    }

    #[test]
    fn parse_schema_actions() {
        assert_eq!(
            parse(&argv("schema probe --input messy.csv")).unwrap(),
            Command::SchemaProbe(SchemaProbe {
                input: "messy.csv".into(),
            })
        );
        assert_eq!(
            parse(&argv("schema infer --input messy.csv --output t.schema")).unwrap(),
            Command::SchemaInfer(SchemaInfer {
                input: "messy.csv".into(),
                output: Some("t.schema".into()),
            })
        );
        assert_eq!(
            parse(&argv("schema verify --schema t.schema --input messy.csv")).unwrap(),
            Command::SchemaVerify(SchemaVerify {
                schema: "t.schema".into(),
                input: "messy.csv".into(),
            })
        );
        for bad in [
            "schema",
            "schema guess --input x",
            "schema probe",            // --input missing
            "schema verify --input x", // --schema missing
            "schema infer --input x --bogus y",
        ] {
            assert!(
                matches!(parse(&argv(bad)), Err(CliError::Usage(_))),
                "{bad}"
            );
        }
    }

    #[test]
    fn parse_errors() {
        assert!(matches!(parse(&[]), Err(CliError::Usage(_))));
        assert!(matches!(parse(&argv("bogus")), Err(CliError::Usage(_))));
        assert!(matches!(
            parse(&argv("anonymize --input x")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&argv("anonymize -k 0 --input x")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&argv("anonymize -k 2")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&argv("anonymize -k 2 --input x --algorithm turbo")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&argv("verify -k 2 --input x --bogus y")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&argv("generate --rows abc")),
            Err(CliError::Usage(_))
        ));
        // A value flag with no value (at the end of argv, or followed by
        // another flag of the table) and a repeated flag.
        for (bad, msg) in [
            (
                "anonymize -k 3 --input p.csv --output",
                "--output needs a value",
            ),
            (
                "anonymize -k 3 --input p.csv --deadline-ms",
                "--deadline-ms needs a value",
            ),
            (
                "anonymize -k 3 --input p.csv --output --json",
                "--output needs a value",
            ),
            ("verify -k 3 -k 99 --input p.csv", "-k given more than once"),
        ] {
            assert!(
                matches!(parse(&argv(bad)), Err(CliError::Usage(m)) if m.starts_with(msg)),
                "{bad}"
            );
        }
    }

    #[test]
    fn budget_flags_select_the_ladder() {
        // A budget flag with no --algorithm promotes the run to the ladder.
        let cmd = parse(&argv("anonymize -k 3 --input - --deadline-ms 500")).unwrap();
        assert!(matches!(
            cmd,
            Command::Anonymize(Anonymize {
                algorithm: Algorithm::Ladder,
                deadline_ms: Some(500),
                max_memory_mb: None,
                ..
            })
        ));
        // An explicit governed algorithm keeps its choice.
        let cmd = parse(&argv(
            "anonymize -k 3 --input - --algorithm center --max-memory-mb 64",
        ))
        .unwrap();
        assert!(matches!(
            cmd,
            Command::Anonymize(Anonymize {
                algorithm: Algorithm::Center,
                max_memory_mb: Some(64),
                ..
            })
        ));
        // `ladder` is spellable without budget flags (unlimited ladder).
        let cmd = parse(&argv("anonymize -k 3 --input - --algorithm ladder")).unwrap();
        assert!(matches!(
            cmd,
            Command::Anonymize(Anonymize {
                algorithm: Algorithm::Ladder,
                deadline_ms: None,
                ..
            })
        ));
    }

    #[test]
    fn budget_flag_errors() {
        // Ungoverned solvers reject budget flags.
        for algo in ["forest", "exact"] {
            let err = parse(&argv(&format!(
                "anonymize -k 2 --input - --algorithm {algo} --deadline-ms 100"
            )))
            .unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{algo}");
        }
        // Budget values must be positive integers.
        for bad in [
            "anonymize -k 2 --input - --deadline-ms 0",
            "anonymize -k 2 --input - --deadline-ms soon",
            "anonymize -k 2 --input - --max-memory-mb -5",
        ] {
            assert!(
                matches!(parse(&argv(bad)), Err(CliError::Usage(_))),
                "{bad}"
            );
        }
    }

    #[test]
    fn parse_attack() {
        let cmd = parse(&argv(
            "attack --released r.csv --external e.csv --join age,zip",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Attack(Attack {
                released: "r.csv".into(),
                external: "e.csv".into(),
                join: vec!["age".into(), "zip".into()],
            })
        );
        assert!(matches!(
            parse(&argv("attack --released r.csv")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn parse_serve() {
        assert_eq!(
            parse(&argv("serve")).unwrap(),
            Command::Serve(Serve {
                addr: "127.0.0.1:8672".into(),
                workers: 4,
                queue_depth: 64,
                pool_memory_mb: 256,
                data_dir: None,
            })
        );
        assert_eq!(
            parse(&argv(
                "serve --addr 0.0.0.0:9000 --workers 8 --queue-depth 16 --pool-memory-mb 512 \
                 --data-dir /tmp/tables"
            ))
            .unwrap(),
            Command::Serve(Serve {
                addr: "0.0.0.0:9000".into(),
                workers: 8,
                queue_depth: 16,
                pool_memory_mb: 512,
                data_dir: Some("/tmp/tables".into()),
            })
        );
        for bad in ["serve --workers 0", "serve --bogus x"] {
            assert!(
                matches!(parse(&argv(bad)), Err(CliError::Usage(_))),
                "{bad}"
            );
        }
        for gone in ["bench-serve", "bench-serve --requests 64 --table"] {
            assert!(
                matches!(
                    parse(&argv(gone)),
                    Err(CliError::Usage(msg)) if msg.starts_with("unknown command `bench-serve`")
                ),
                "{gone}"
            );
        }
    }

    #[test]
    fn pinned_buckets_parse_on_pipeline() {
        let cmd = parse(&argv("pipeline -k 3 --input - --buckets 250")).unwrap();
        assert!(matches!(
            cmd,
            Command::Pipeline(Pipeline {
                buckets: Some(250),
                ..
            })
        ));
    }

    #[test]
    fn parse_delta_actions() {
        assert_eq!(
            parse(&argv(
                "delta init --dir store -k 3 --input t.csv --shard-size 256 \
                 --buckets 100 --quasi age,zip --deadline-ms 5000 --json"
            ))
            .unwrap(),
            Command::DeltaInit(DeltaInit {
                dir: "store".into(),
                k: 3,
                input: "t.csv".into(),
                shard_size: 256,
                buckets: Some(100),
                quasi: Some(vec!["age".into(), "zip".into()]),
                deadline_ms: Some(5000),
                max_memory_mb: None,
                json: true,
            })
        );
        assert_eq!(
            parse(&argv(
                "delta apply --dir store --ops ops.csv --output out.csv"
            ))
            .unwrap(),
            Command::DeltaApply(DeltaApply {
                dir: "store".into(),
                ops: "ops.csv".into(),
                output: Some("out.csv".into()),
                deadline_ms: None,
                max_memory_mb: None,
                json: false,
            })
        );
        assert_eq!(
            parse(&argv("delta status --dir store --json")).unwrap(),
            Command::DeltaStatus(DeltaStatus {
                dir: "store".into(),
                json: true,
            })
        );
        assert_eq!(
            parse(&argv("delta release --dir store")).unwrap(),
            Command::DeltaRelease(DeltaRelease {
                dir: "store".into(),
                output: None,
                deadline_ms: None,
                max_memory_mb: None,
            })
        );
    }

    #[test]
    fn delta_parse_errors() {
        for bad in [
            "delta",
            "delta compact --dir store",
            "delta init -k 3 --input t.csv",        // --dir missing
            "delta init --dir store --input t.csv", // -k missing
            "delta init --dir store -k 3",          // --input missing
            "delta init --dir store -k 3 --input t.csv --buckets 0",
            "delta apply --dir store", // --ops missing
            "delta apply --ops o.csv", // --dir missing
            "delta status --dir store --bogus x",
            "delta release --output out.csv",
        ] {
            assert!(
                matches!(parse(&argv(bad)), Err(CliError::Usage(_))),
                "{bad}"
            );
        }
    }

    #[test]
    fn help_variants() {
        for h in ["help", "-h", "--help"] {
            assert_eq!(parse(&argv(h)).unwrap(), Command::Help);
        }
    }
}
