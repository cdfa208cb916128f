//! Host-time benchmark of the full-profile Reunion campaign grids.
//!
//! ```text
//! reunion-perfbench --workload fig6-full|table3-full|scaling-full
//!                   [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` (the default) measures end-to-end metrics: the grid runs
//! repeatedly on the public `reunion-sim` runner, one worker per hardware
//! thread, for about `--seconds`, and every cell's record is checked. Each
//! repetition and each batch of timed set-ups runs in a fresh process of this
//! program (`--child rep|setup`), as a user's run of a figure binary does, so
//! none inherits the allocator state of the one before. `--trace 1` makes one
//! untraced run and then a separate serial pass that times the calls into
//! each layer and reads the simulator's counters. The last line of standard
//! output is the JSON result; progress goes to standard error. See
//! `README.md` beside this package.

mod check;
mod grids;
mod host;
mod metrics;
mod stats;
mod trace;

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use reunion_core::Profile;
use reunion_sim::{ExperimentGrid, ExperimentReport, JsonValue, Runner};

use check::{differing_cells, expected_report, invalid_cells, records_of};
use grids::{GridKind, DEFAULT_SEED};
use metrics::Outcome;
use stats::{mean, median};

/// Set-up processes started before each repetition of an end-to-end run.
const SETUP_BATCH: usize = 8;
/// Set-ups in each set-up process, which reports their median. The first
/// set-up of a process also pays for faulting in the heap, and a single
/// set-up of a fraction of a millisecond carries the host's scheduling noise.
const SETUPS_PER_PROCESS: usize = 11;

/// The validated command line.
#[derive(Clone, Copy, Debug)]
pub struct Args {
    /// Which grid to run.
    pub kind: GridKind,
    /// Input seed; [`DEFAULT_SEED`] reproduces the figure binaries.
    pub seed: u64,
    /// Measurement budget of an end-to-end run, in seconds.
    pub seconds: f64,
    /// Traced per-layer run instead of the end-to-end run.
    pub trace: bool,
    /// Which part of a run this process is.
    pub role: Role,
}

/// The part of a benchmark run a process plays.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// A whole run: the command line of `BENCHMARK.json`.
    Run,
    /// `--child setup`: set up [`SETUPS_PER_PROCESS`] times and print the
    /// medians `<setup_s> <gen_s>`.
    Setup,
    /// `--child rep`: run the grid once and print
    /// `<wall_s> <cpu_s> <peak_rss_mb> <invalid cells>`, then the report.
    Rep,
}

const USAGE: &str = "usage: reunion-perfbench --workload fig6-full|table3-full|scaling-full \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut kind = None;
    let mut args = Args {
        kind: GridKind::Fig6,
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
        role: Role::Run,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(GridKind::from_name(&value).ok_or_else(|| bad(&"unknown workload"))?)
            }
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                let s: u32 = value.parse().map_err(|e| bad(&e))?;
                if s == 0 {
                    return Err(bad(&"must be at least 1"));
                }
                args.seconds = f64::from(s);
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--child" => {
                args.role = match value.as_str() {
                    "setup" => Role::Setup,
                    "rep" => Role::Rep,
                    _ => return Err(bad(&"expected setup or rep")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    args.kind = kind.ok_or("--workload is required")?;
    Ok(args)
}

fn main() -> ExitCode {
    // The simulator still honours a few `REUNION_*` variables deep inside
    // (e.g. a debug switch on every synchronizing request); any of them
    // would silently change what is measured.
    let knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("REUNION_"))
        .collect();
    if !knobs.is_empty() {
        eprintln!(
            "refusing to run with {} set: the benchmark is hermetic",
            knobs.join(", ")
        );
        return ExitCode::from(2);
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if args.role != Role::Run {
        child(&args)
    } else if args.trace {
        trace::run(&args).map(|o| o.to_json(&metrics::PER_LAYER))
    } else {
        end_to_end(&args).map(|o| o.to_json(&metrics::END_TO_END))
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Worker threads of every parallel run: one per hardware thread.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Runs this program again as `role` for the same grid and seed,
/// passing its standard error through, and returns its standard output if it
/// succeeded.
fn spawn(args: &Args, role: &str) -> Result<Option<String>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            args.kind.name(),
            "--seed",
            &args.seed.to_string(),
        ])
        .args(["--child", role])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting a {role} process: {e}"))?;
    let text = String::from_utf8(out.stdout).map_err(|e| format!("{role} process: {e}"))?;
    Ok(out.status.success().then_some(text))
}

/// The work of a `--child` process: the text `main` prints for the parent.
fn child(args: &Args) -> Result<String, String> {
    if args.role == Role::Setup {
        let (mut setup_s, mut gen_s) = (Vec::new(), Vec::new());
        for _ in 0..SETUPS_PER_PROCESS {
            let setup = grids::setup(args.kind, args.seed);
            setup_s.push(setup.setup_s);
            gen_s.push(setup.gen_s);
        }
        return Ok(format!("{} {}", median(&setup_s), median(&gen_s)));
    }
    let setup = grids::setup(args.kind, args.seed);
    let run = run_timed(&Runner::with_threads(threads()), &setup.grid);
    let report = run.report.ok_or("a cell panicked")?;
    if args.kind == GridKind::Fig6 {
        eprintln!(
            "fidelity_err_pp {:.3} (lat=40 penalties vs the paper's printed Figure 6)",
            check::fidelity_err_pp(&report)
        );
    }
    let invalid: Vec<String> = invalid_cells(&setup.grid, &report)
        .iter()
        .map(usize::to_string)
        .collect();
    Ok(format!(
        "{} {} {} [{}]\n{}",
        run.wall_s,
        run.cpu_s,
        host::peak_rss_mb(),
        invalid.join(","),
        report.to_json().trim_end()
    ))
}

/// Set-up and generation times, one of each per set-up process.
#[derive(Default)]
pub struct SetupTimes {
    setup_s: Vec<f64>,
    gen_s: Vec<f64>,
}

impl SetupTimes {
    /// Runs [`SETUP_BATCH`] set-up processes, one after another, and keeps
    /// their figures.
    ///
    /// # Errors
    ///
    /// A set-up process that cannot start, fails or prints something else.
    pub fn measure_batch(&mut self, args: &Args) -> Result<(), String> {
        for _ in 0..SETUP_BATCH {
            let text = spawn(args, "setup")?.ok_or("a set-up process failed")?;
            let times: Vec<f64> = text
                .split_whitespace()
                .filter_map(|t| t.parse().ok())
                .collect();
            let &[setup, gen] = times.as_slice() else {
                return Err(format!("set-up process printed {text:?}"));
            };
            self.setup_s.push(setup);
            self.gen_s.push(gen);
        }
        Ok(())
    }

    /// The mean over the processes of their set-up and generation times.
    /// A mean, not a median: a process's figure falls in one of two modes
    /// (about 0.11 or 0.17 ms on `scaling-full`) that alternate over
    /// seconds, and a median of such samples jumps between the modes.
    pub fn means(&self) -> (f64, f64) {
        (mean(&self.setup_s), mean(&self.gen_s))
    }
}

/// One timed run of the whole grid on the parallel runner.
pub struct Timed {
    /// Dispatch of the first cell to the assembled report.
    pub wall_s: f64,
    /// Process CPU seconds over the same interval.
    pub cpu_s: f64,
    /// The report, or `None` if a cell panicked.
    pub report: Option<ExperimentReport>,
}

/// Runs `grid` once on `runner`, timed from outside.
pub fn run_timed(runner: &Runner, grid: &ExperimentGrid) -> Timed {
    let cpu = host::cpu_seconds();
    let start = Instant::now();
    let report = catch_unwind(AssertUnwindSafe(|| runner.run(grid))).ok();
    Timed {
        wall_s: start.elapsed().as_secs_f64(),
        cpu_s: host::cpu_seconds() - cpu,
        report,
    }
}

/// What every run of one grid must reproduce.
pub struct Expected {
    /// The reference report's exact text, when a reference exists.
    text: Option<&'static str>,
    /// The records every run must match: the reference's, or else the first
    /// run's (every later run must then agree with it).
    records: Option<Vec<JsonValue>>,
}

impl Expected {
    /// The expectation for `args`' grid and seed.
    ///
    /// # Errors
    ///
    /// An unreadable or unparsable reference.
    pub fn for_args(args: &Args) -> Result<Expected, String> {
        let text = expected_report(args.kind, args.seed);
        let records = text.map(records_of).transpose()?;
        Ok(Expected { text, records })
    }

    /// Checks one run of `grid` into `outcome`, cell by cell: its report
    /// text and the cells that broke an invariant, or `None` if it failed.
    pub fn check(
        &mut self,
        grid: &ExperimentGrid,
        run: Option<(&str, &[usize])>,
        outcome: &mut Outcome,
    ) {
        let cells = grid.cells().len();
        outcome.attempted += cells;
        let Some((json, invalid)) = run else {
            outcome.failed += cells;
            outcome.problem("a repetition failed; all its cells count as failed");
            return;
        };
        let records = match records_of(json) {
            Ok(r) => r,
            Err(e) => {
                outcome.failed += cells;
                outcome.problem(format!("report does not read back: {e}"));
                return;
            }
        };
        let mut bad: BTreeSet<usize> = invalid.iter().copied().collect();
        match &self.records {
            Some(expected) => bad.extend(differing_cells(expected, &records)),
            None => self.records = Some(records),
        }
        if let Some(text) = &self.text {
            if bad.is_empty() && text.trim_end() != json.trim_end() {
                outcome.problem("records match but the report differs from the reference");
            }
        }
        for &i in bad.iter().take(5) {
            let c = &grid.cells()[i.min(cells - 1)];
            eprintln!(
                "  wrong record: cell {i} ({}:{}:{})",
                c.workload.name(),
                c.mode,
                c.patch.label()
            );
        }
        outcome.failed += bad.len().min(cells);
    }
}

/// One repetition's figures and output, as a `--child rep` printed them.
struct Rep {
    wall_s: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
    invalid: Vec<usize>,
    report: String,
}

impl Rep {
    fn parse(text: &str) -> Option<Rep> {
        let (first, report) = text.split_once('\n')?;
        let mut fields = first.split_whitespace();
        let mut number = || fields.next()?.parse::<f64>().ok();
        let (wall_s, cpu_s, peak_rss_mb) = (number()?, number()?, number()?);
        let list = fields.next()?.strip_prefix('[')?.strip_suffix(']')?;
        let invalid = list
            .split(',')
            .filter(|i| !i.is_empty())
            .map(str::parse)
            .collect::<Result<_, _>>()
            .ok()?;
        Some(Rep {
            wall_s,
            cpu_s,
            peak_rss_mb,
            invalid,
            report: report.to_string(),
        })
    }
}

/// The end-to-end run: time the set-up, then repeat the grid, each time in
/// a fresh process, until `--seconds` have passed (finishing the repetition
/// in flight), checking every cell of every repetition.
fn end_to_end(args: &Args) -> Result<Outcome, String> {
    let mut expected = Expected::for_args(args)?;
    let mut setups = SetupTimes::default();
    let grid = args
        .kind
        .grid(Profile::Full, args.seed, args.kind.workloads());
    let mut outcome = Outcome::default();
    let mut reps: Vec<Rep> = Vec::new();
    let start = Instant::now();
    loop {
        // Set-ups are sampled before every repetition, so that the run's
        // figure covers the whole run rather than one moment of the host.
        setups.measure_batch(args)?;
        let rep = spawn(args, "rep")?.and_then(|text| Rep::parse(&text));
        let run = rep
            .as_ref()
            .map(|r| (r.report.as_str(), r.invalid.as_slice()));
        expected.check(&grid, run, &mut outcome);
        if let Some(rep) = rep {
            eprintln!(
                "{} rep {}: wall {:.3} s, cpu {:.2} s, peak RSS {:.1} MiB",
                args.kind.name(),
                reps.len() + 1,
                rep.wall_s,
                rep.cpu_s,
                rep.peak_rss_mb
            );
            reps.push(rep);
        }
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    eprintln!(
        "{} seed {}: {} reps, {} threads, {}/{} cells failed",
        args.kind.name(),
        args.seed,
        reps.len(),
        threads(),
        outcome.failed,
        outcome.attempted
    );
    if reps.is_empty() {
        return Err("every repetition failed".to_string());
    }
    let of = |f: fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    outcome.metrics = vec![
        ("wall_s", median(&of(|r| r.wall_s))),
        ("cpu_s", median(&of(|r| r.cpu_s))),
        ("setup_s", setups.means().0),
        // A mean, like `setup_s`: each repetition's peak falls in one of
        // two modes, depending on which large cells the two workers happen
        // to overlap, and a median jumps between them. Unlike a maximum, a
        // mean does not rise with the number of repetitions a run fits in.
        ("peak_rss_mb", mean(&of(|r| r.peak_rss_mb))),
    ];
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn the_benchmark_command_line_parses() {
        let a = parse(&[
            "--workload",
            "table3-full",
            "--seed",
            "7",
            "--seconds",
            "30",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(a.kind, GridKind::Table3);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 30.0, true));
        assert_eq!(a.role, Role::Run);
        assert!(parse(&["--workload", "fig6-full", "--profile", "fast"]).is_err());
        assert!(parse(&["--seed", "1"]).is_err(), "workload is required");
        assert!(parse(&["--workload", "fig5"]).is_err());
        assert!(parse(&["--workload", "fig6-full", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "fig6-full", "--seconds", "0"]).is_err());
        assert!(parse(&["--workload", "fig6-full", "--seed"]).is_err());
        assert!(parse(&["--workload", "fig6-full", "--child", "x"]).is_err());
    }
}
