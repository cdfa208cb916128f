//! The traced per-layer run.
//!
//! Separate from, and never mixed into, the end-to-end runs. It first makes
//! one untraced parallel run of the grid (the records to check against and
//! the runner's idle share), then a serial pass that drives each
//! cell's systems through the public `CmpSystem` calls itself, recording a
//! span around every call:
//!
//! ```text
//! grid ─ cell (id = cell index) ─ system.model / system.baseline
//!                                   ├─ core.new      CmpSystem::new
//!                                   ├─ core.run      warm-up run; begin_window + run per window
//!                                   └─ bench.read    window_stats and the layer counters
//! ```
//!
//! A span's self time is its duration minus its children's, so the self
//! times inside a cell sum to the cell's duration by construction; what can
//! go wrong is a child that escapes its parent, which [`Tracer::self_times`]
//! rejects. The pass reproduces `reunion_core::measure` / `normalized_ipc` step for step, so
//! its totals must equal the untraced records exactly. Finally a probe on
//! the slowest (critical-path) cell compares dense `CmpSystem::tick`
//! stepping with the skip engine's `run` over the same cycles.

use std::fmt::Write as _;
use std::time::Instant;

use reunion_core::{CmpSystem, ExecutionMode, SampleConfig, SystemConfig, SystemStats};
use reunion_cpu::CoreStats;
use reunion_kernel::stats::RunningStats;
use reunion_sim::{Cell, ExperimentGrid, MeasureSummary, Metric, RunRecord, Runner};
use reunion_workloads::Workload;

use crate::check::invalid_cells;
use crate::metrics::Outcome;
use crate::stats::{percentile, tail_percentile};
use crate::{grids, run_timed, threads, Args, Expected, SetupTimes};

/// Cycles the probe steps each way after the cell's warm-up.
const PROBE_CYCLES: u64 = 1 << 20;
/// Dense ticks between two `next_ready` samples (divides `PROBE_CYCLES`).
const TICK_CHUNK: u64 = 1 << 10;
/// `next_ready` calls per sample.
const NEXT_READY_CALLS: u32 = 8;
/// Span open/close pairs timed to estimate what one span costs.
const SPAN_COST_SAMPLES: usize = 1 << 16;

/// One recorded interval.
#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    cell: Option<usize>,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Spans kept in memory, in opening order, written out at the end.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, cell: Option<usize>, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            cell,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) -> u64 {
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        end - span.start_ns
    }

    fn duration(&self, id: usize) -> u64 {
        self.spans[id].end_ns - self.spans[id].start_ns
    }

    /// Each span's self time, or an error naming a child that does not lie
    /// inside its parent (children of one parent never overlap, since
    /// spans open and close in call order).
    fn self_times(&self) -> Result<Vec<u64>, String> {
        let mut own: Vec<i128> = self
            .spans
            .iter()
            .map(|s| i128::from(s.end_ns - s.start_ns))
            .collect();
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                    return Err(format!("span {i} ({}) escapes its parent {p}", s.name));
                }
                own[p] -= i128::from(s.end_ns - s.start_ns);
            }
        }
        own.into_iter()
            .enumerate()
            .map(|(i, t)| u64::try_from(t).map_err(|_| format!("span {i}: children exceed it")))
            .collect()
    }

    /// Writes the spans as JSON lines to `path`.
    fn write(&self, path: &str, self_ns: &[u64]) -> std::io::Result<()> {
        let mut text = String::new();
        for (i, (s, own)) in self.spans.iter().zip(self_ns).enumerate() {
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = writeln!(
                text,
                "{{\"span\":{i},\"parent\":{},\"name\":\"{}\",\"cell\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
                opt(s.parent),
                s.name,
                opt(s.cell),
                s.start_ns,
                s.end_ns,
            );
        }
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

/// Deterministic simulator counters, summed over every system's measured
/// windows (and, for the check bus, the cycles between warm-up and the end).
#[derive(Clone, Copy, Debug, Default)]
struct Counters {
    intervals_compared: u64,
    mismatches: u64,
    recoveries: u64,
    phase2: u64,
    sync_requests: u64,
    check_bus_waits: u64,
    bus_messages: u64,
    retired_user: u64,
    rollbacks: u64,
    mispredicts: u64,
    intervals: u64,
    serializing_stall_cycles: u64,
    reexec_penalty_cycles: u64,
    l1_hits: u64,
    l1_misses: u64,
    l2_misses: u64,
    invalidations: u64,
    phantom_requests: u64,
    phantom_garbage_fills: u64,
    xbar_port_waits: u64,
    bank_conflict_waits: u64,
    bank_queue_stalls: u64,
}

impl Counters {
    /// Adds the current window's counters of `sys`.
    fn read(&mut self, sys: &mut CmpSystem) {
        for lp in 0..sys.logical_processors() {
            if let Some(pair) = sys.pair_mut(lp) {
                let p = pair.stats();
                self.intervals_compared += p.intervals_compared.value();
                self.mismatches += p.mismatches.value();
                self.recoveries += p.recoveries.value();
                self.phase2 += p.phase2_recoveries.value();
                self.sync_requests += p.sync_requests.value();
                self.check_bus_waits += p.check_bus_waits.value();
                self.add_core(pair.vocal().stats());
                self.add_core(pair.mute().stats());
            } else if let Some(core) = sys.core_mut(lp) {
                self.add_core(core.stats());
            }
        }
        let m = sys.memory().stats();
        self.l1_hits += m.l1_hits.value();
        self.l1_misses += m.l1_misses.value();
        self.l2_misses += m.l2_misses.value();
        self.invalidations += m.invalidations.value();
        self.phantom_requests += m.phantom_requests.value();
        self.phantom_garbage_fills += m.phantom_garbage_fills.value();
        self.xbar_port_waits += m.xbar_port_waits.value();
        self.bank_conflict_waits += m.bank_conflict_waits.value();
        self.bank_queue_stalls += m.bank_queue_stalls.value();
    }

    fn add_core(&mut self, c: &CoreStats) {
        self.retired_user += c.retired_user.value();
        self.rollbacks += c.rollbacks.value();
        self.mispredicts += c.mispredicts.value();
        self.intervals += c.intervals.value();
        self.serializing_stall_cycles += c.serializing_stall_cycles.value();
        self.reexec_penalty_cycles += c.reexec_penalty_cycles.value();
    }
}

/// One simulated system driven through a cell's sampling schedule.
struct Side {
    /// `window_stats` after each measured window.
    windows: Vec<SystemStats>,
    /// Nanoseconds inside `CmpSystem::run` (warm-up and windows).
    run_ns: u64,
    /// Simulated cycles, warm-up included.
    cycles: u64,
    /// Cycles the engine skipped instead of ticking.
    skipped: u64,
}

/// Per-pass layer totals.
#[derive(Debug, Default)]
struct Layers {
    new_ns: u64,
    model: (u64, u64),
    baseline: (u64, u64),
    skipped: u64,
    simulated: u64,
    counters: Counters,
}

impl Layers {
    fn note(&mut self, side: &Side, model: bool) {
        let slot = if model {
            &mut self.model
        } else {
            &mut self.baseline
        };
        slot.0 += side.run_ns;
        slot.1 += side.cycles;
        self.skipped += side.skipped;
        self.simulated += side.cycles;
    }
}

/// Builds and drives one system of `cell` exactly as
/// `reunion_core::measure` does, under a span named `name`.
fn drive(
    tr: &mut Tracer,
    layers: &mut Layers,
    parent: usize,
    cell: &Cell,
    name: &'static str,
    cfg: &SystemConfig,
    sample: &SampleConfig,
) -> Side {
    let at = Some(cell.index);
    let system = tr.open(name, at, Some(parent));
    let span = tr.open("core.new", at, Some(system));
    let mut sys = CmpSystem::new(cfg, &cell.workload);
    layers.new_ns += tr.close(span);

    let span = tr.open("core.run", at, Some(system));
    sys.run(sample.warmup);
    let mut run_ns = tr.close(span);
    let bus_before = sys.check_bus().messages();
    let mut windows = Vec::with_capacity(sample.windows);
    for _ in 0..sample.windows {
        let span = tr.open("core.run", at, Some(system));
        sys.begin_window();
        sys.run(sample.window);
        run_ns += tr.close(span);
        let span = tr.open("bench.read", at, Some(system));
        windows.push(sys.window_stats());
        layers.counters.read(&mut sys);
        tr.close(span);
    }
    layers.counters.bus_messages += sys.check_bus().messages() - bus_before;
    let side = Side {
        windows,
        run_ns,
        cycles: sys.now().as_u64(),
        skipped: sys.skipped_cycles(),
    };
    drop(sys);
    tr.close(system);
    side
}

/// The model side, and the baseline side for a normalized cell.
type CellSides = (Side, Option<Side>);

/// Drives one cell's systems under a `cell` span.
fn trace_cell(
    tr: &mut Tracer,
    layers: &mut Layers,
    root: usize,
    grid: &ExperimentGrid,
    cell: &Cell,
) -> (usize, CellSides) {
    let span = tr.open("cell", Some(cell.index), Some(root));
    let cfg = grid.cell_config(cell);
    let sample = grid.cell_sample(cell);
    let model = drive(tr, layers, span, cell, "system.model", &cfg, sample);
    let baseline = (grid.metric() == Metric::Normalized).then(|| {
        let mut base_cfg = cfg.clone();
        base_cfg.mode = ExecutionMode::NonRedundant;
        drive(tr, layers, span, cell, "system.baseline", &base_cfg, sample)
    });
    tr.close(span);
    layers.note(&model, true);
    if let Some(b) = &baseline {
        layers.note(b, false);
    }
    (span, (model, baseline))
}

/// Whether `summary` holds exactly the totals of `windows`.
fn same_totals(summary: &MeasureSummary, windows: &[SystemStats]) -> Result<(), String> {
    let mut ipc = RunningStats::new();
    for w in windows {
        ipc.push(w.ipc());
    }
    let sum = |f: fn(&SystemStats) -> u64| windows.iter().map(f).sum::<u64>();
    let fields = [
        (
            "user_instructions",
            summary.user_instructions,
            sum(|w| w.user_instructions),
        ),
        ("cycles", summary.cycles, sum(|w| w.cycles)),
        ("mismatches", summary.mismatches, sum(|w| w.mismatches)),
        (
            "input_incoherence",
            summary.input_incoherence,
            sum(|w| w.input_incoherence),
        ),
        ("recoveries", summary.recoveries, sum(|w| w.recoveries)),
        ("phase2", summary.phase2, sum(|w| w.phase2)),
        ("failures", summary.failures, sum(|w| w.failures)),
        (
            "sync_requests",
            summary.sync_requests,
            sum(|w| w.sync_requests),
        ),
        ("tlb_misses", summary.tlb_misses, sum(|w| w.tlb_misses)),
        (
            "phantom_garbage_fills",
            summary.phantom_garbage_fills,
            sum(|w| w.phantom_garbage_fills),
        ),
        (
            "serializing_stall_cycles",
            summary.serializing_stall_cycles,
            sum(|w| w.serializing_stall_cycles),
        ),
        (
            "reexec_penalty_cycles",
            summary.reexec_penalty_cycles,
            sum(|w| w.reexec_penalty_cycles),
        ),
        ("ipc bits", summary.ipc.to_bits(), ipc.mean().to_bits()),
    ];
    match fields.iter().find(|(_, record, traced)| record != traced) {
        Some((name, record, traced)) => Err(format!("{name}: record {record}, traced {traced}")),
        None => Ok(()),
    }
}

/// Whether the traced sides reproduce the untraced `record`.
fn matches_record(record: &RunRecord, (model, baseline): &CellSides) -> Result<(), String> {
    match (record.normalized(), record.raw(), baseline) {
        (Some(n), _, Some(base)) => {
            let mut ratio = RunningStats::new();
            for (m, b) in model.windows.iter().zip(&base.windows) {
                if b.ipc() > 0.0 {
                    ratio.push(m.ipc() / b.ipc());
                }
            }
            if ratio.mean().to_bits() != n.normalized_ipc.to_bits() {
                return Err(format!(
                    "normalized_ipc: record {}, traced {}",
                    n.normalized_ipc,
                    ratio.mean()
                ));
            }
            same_totals(&n.model, &model.windows).map_err(|e| format!("model {e}"))?;
            same_totals(&n.baseline, &base.windows).map_err(|e| format!("baseline {e}"))
        }
        (None, Some(m), None) => same_totals(m, &model.windows),
        _ => Err("record kind differs from the traced cell".to_string()),
    }
}

/// Dense-versus-skip stepping of one configuration after its warm-up.
struct Probe {
    skip_ns_per_cycle: f64,
    tick_ns_per_cycle: f64,
    next_ready_ns: f64,
    /// Skip-engine ns/cycle of the same configuration without redundancy,
    /// when asked for.
    baseline_ns_per_cycle: Option<f64>,
}

/// Steps `cfg` for [`PROBE_CYCLES`] after `warmup`, once with the skip
/// engine's `run` and once densely through `tick`, timing `next_ready` every
/// [`TICK_CHUNK`] ticks; both must reach the same state.
fn probe(
    cfg: &SystemConfig,
    workload: &Workload,
    warmup: u64,
    with_baseline: bool,
) -> Result<Probe, String> {
    let mut skip = CmpSystem::new(cfg, workload);
    skip.run(warmup);
    let start = Instant::now();
    skip.run(PROBE_CYCLES);
    let skip_ns = start.elapsed().as_nanos() as f64;

    let mut dense = CmpSystem::new(cfg, workload);
    dense.run(warmup);
    let (mut tick_ns, mut ready_ns, mut ready_calls) = (0u128, 0u128, 0u32);
    for _ in 0..PROBE_CYCLES / TICK_CHUNK {
        let start = Instant::now();
        for _ in 0..TICK_CHUNK {
            dense.tick();
        }
        tick_ns += start.elapsed().as_nanos();
        let start = Instant::now();
        for _ in 0..NEXT_READY_CALLS {
            std::hint::black_box(dense.next_ready());
        }
        ready_ns += start.elapsed().as_nanos();
        ready_calls += NEXT_READY_CALLS;
    }
    if (dense.now(), dense.user_instructions()) != (skip.now(), skip.user_instructions()) {
        return Err(format!(
            "dense probe reached cycle {} with {} instructions, skip engine cycle {} with {}",
            dense.now().as_u64(),
            dense.user_instructions(),
            skip.now().as_u64(),
            skip.user_instructions()
        ));
    }

    let baseline_ns_per_cycle = with_baseline.then(|| {
        let mut base_cfg = cfg.clone();
        base_cfg.mode = ExecutionMode::NonRedundant;
        let mut base = CmpSystem::new(&base_cfg, workload);
        base.run(warmup);
        let start = Instant::now();
        base.run(PROBE_CYCLES);
        start.elapsed().as_nanos() as f64 / PROBE_CYCLES as f64
    });
    Ok(Probe {
        skip_ns_per_cycle: skip_ns / PROBE_CYCLES as f64,
        tick_ns_per_cycle: tick_ns as f64 / PROBE_CYCLES as f64,
        next_ready_ns: ready_ns as f64 / f64::from(ready_calls),
        baseline_ns_per_cycle,
    })
}

/// Host seconds a pass spent opening and closing its `spans`: their number
/// times the cost of one open and close, timed on a scratch tracer.
fn span_overhead_s(spans: usize) -> f64 {
    let mut tr = Tracer::new();
    let start = Instant::now();
    for _ in 0..SPAN_COST_SAMPLES {
        let id = tr.open("cost", None, None);
        tr.close(id);
    }
    let per_span = start.elapsed().as_secs_f64() / SPAN_COST_SAMPLES as f64;
    std::hint::black_box(&tr.spans);
    per_span * spans as f64
}

/// Where the spans of a traced run are written, relative to the repository
/// root the benchmark runs from.
fn spans_path(args: &Args) -> String {
    format!(
        "perfbench/out/spans-{}-seed{}.jsonl",
        args.kind.name(),
        args.seed
    )
}

/// The traced run; see the module docs.
///
/// # Errors
///
/// An unreadable reference.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut expected = Expected::for_args(args)?;
    let mut setups = SetupTimes::default();
    setups.measure_batch(args)?;
    let (_, gen_s) = setups.means();
    let setup = grids::setup(args.kind, args.seed);
    let grid = &setup.grid;
    let mut outcome = Outcome::default();

    let untraced = run_timed(&Runner::with_threads(threads()), grid);
    let checked = untraced
        .report
        .as_ref()
        .map(|r| (r.to_json(), invalid_cells(grid, r)));
    expected.check(
        grid,
        checked
            .as_ref()
            .map(|(json, bad)| (json.as_str(), bad.as_slice())),
        &mut outcome,
    );

    let mut tr = Tracer::new();
    let mut layers = Layers::default();
    let root = tr.open("grid", None, None);
    let mut cell_spans = Vec::with_capacity(grid.cells().len());
    for cell in grid.cells() {
        let (span, sides) = trace_cell(&mut tr, &mut layers, root, grid, cell);
        cell_spans.push(span);
        outcome.attempted += 1;
        let record = untraced
            .report
            .as_ref()
            .and_then(|r| r.records.get(cell.index));
        let verdict = record.map_or(Err("no untraced record".to_string()), |r| {
            matches_record(r, &sides)
        });
        if let Err(e) = verdict {
            outcome.failed += 1;
            eprintln!("  traced cell {} differs from its record: {e}", cell.index);
        }
    }
    let pass_ns = tr.close(root);
    let overhead_s = span_overhead_s(tr.spans.len());

    let self_ns = tr.self_times().unwrap_or_else(|e| {
        outcome.problem(format!("span nesting: {e}"));
        vec![0; tr.spans.len()]
    });
    let layers_ns: u64 = tr
        .spans
        .iter()
        .zip(&self_ns)
        .filter(|(s, _)| matches!(s.name, "core.new" | "core.run" | "bench.read"))
        .map(|(_, own)| own)
        .sum();
    if let Err(e) = tr.write(&spans_path(args), &self_ns) {
        eprintln!("warning: could not write {}: {e}", spans_path(args));
    }

    let secs = |ns: u64| ns as f64 / 1e9;
    let cell_s: Vec<f64> = cell_spans.iter().map(|&s| secs(tr.duration(s))).collect();
    let critical = (0..cell_s.len())
        .max_by(|&a, &b| cell_s[a].total_cmp(&cell_s[b]))
        .ok_or("the grid has no cells")?;
    let mut sorted = cell_s.clone();
    sorted.sort_by(f64::total_cmp);
    let tail_pct = tail_percentile(sorted.len()).unwrap_or(100);
    let critical_cell = &grid.cells()[critical];
    let probe = probe(
        &grid.cell_config(critical_cell),
        &critical_cell.workload,
        grid.cell_sample(critical_cell).warmup,
        grid.metric() != Metric::Normalized,
    )
    .unwrap_or_else(|e| {
        outcome.problem(format!("probe: {e}"));
        Probe {
            skip_ns_per_cycle: 1.0,
            tick_ns_per_cycle: 1.0,
            next_ready_ns: 0.0,
            baseline_ns_per_cycle: Some(0.0),
        }
    });

    let ns_per_cycle = |(ns, cycles): (u64, u64)| ns as f64 / cycles.max(1) as f64;
    let baseline_ns_per_cycle = probe
        .baseline_ns_per_cycle
        .unwrap_or_else(|| ns_per_cycle(layers.baseline));
    let c = layers.counters;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            1.0
        } else {
            num as f64 / den as f64
        }
    };
    eprintln!(
        "{} traced pass: {:.2} s over {} cells; {} spans cost about {:.4} s\n  \
         critical-path cell {critical} ({}:{}:{}) {:.3} s; p50 {:.3} s, p{tail_pct} {:.3} s\n  \
         layers {:.3} s (core.new {:.3} s), unattributed {:.4} s\n  \
         probe over {PROBE_CYCLES} cycles: skip {:.1} ns/cycle, dense tick {:.1} ns/cycle, next_ready {:.1} ns",
        args.kind.name(),
        secs(pass_ns),
        cell_s.len(),
        tr.spans.len(),
        overhead_s,
        critical_cell.workload.name(),
        critical_cell.mode,
        critical_cell.patch.label(),
        cell_s[critical],
        percentile(&sorted, 50),
        percentile(&sorted, tail_pct),
        secs(layers_ns),
        secs(layers.new_ns),
        secs(pass_ns - layers_ns),
        probe.skip_ns_per_cycle,
        probe.tick_ns_per_cycle,
        probe.next_ready_ns,
    );
    outcome.metrics = vec![
        ("sim.cells", cell_s.len() as f64),
        ("sim.cell_p50_s", percentile(&sorted, 50)),
        ("sim.cell_tail_s", percentile(&sorted, tail_pct)),
        ("sim.cell_tail_pct", f64::from(tail_pct)),
        ("sim.cell_max_s", cell_s[critical]),
        (
            "sim.idle_share",
            1.0 - untraced.cpu_s / (threads() as f64 * untraced.wall_s),
        ),
        ("workloads.gen_s", gen_s),
        ("core.new_s", secs(layers.new_ns)),
        ("core.model_ns_per_cycle", ns_per_cycle(layers.model)),
        ("core.baseline_ns_per_cycle", baseline_ns_per_cycle),
        ("core.skip_ratio", ratio(layers.skipped, layers.simulated)),
        ("core.tick_ns_per_cycle", probe.tick_ns_per_cycle),
        ("core.next_ready_ns", probe.next_ready_ns),
        (
            "core.skip_speedup",
            probe.tick_ns_per_cycle / probe.skip_ns_per_cycle,
        ),
        ("core.pair.intervals_compared", c.intervals_compared as f64),
        ("core.pair.mismatches", c.mismatches as f64),
        ("core.pair.recoveries", c.recoveries as f64),
        ("core.pair.phase2", c.phase2 as f64),
        ("core.pair.sync_requests", c.sync_requests as f64),
        ("core.pair.check_bus_waits", c.check_bus_waits as f64),
        (
            "core.pair.match_ratio",
            ratio(c.intervals_compared, c.intervals_compared + c.mismatches),
        ),
        ("core.check_bus.messages", c.bus_messages as f64),
        ("cpu.retired_user", c.retired_user as f64),
        ("cpu.rollbacks", c.rollbacks as f64),
        ("cpu.mispredicts", c.mispredicts as f64),
        ("cpu.intervals", c.intervals as f64),
        (
            "cpu.serializing_stall_cycles",
            c.serializing_stall_cycles as f64,
        ),
        ("cpu.reexec_penalty_cycles", c.reexec_penalty_cycles as f64),
        ("mem.l1_accesses", (c.l1_hits + c.l1_misses) as f64),
        (
            "mem.l1_hit_ratio",
            ratio(c.l1_hits, c.l1_hits + c.l1_misses),
        ),
        ("mem.l2_misses", c.l2_misses as f64),
        ("mem.invalidations", c.invalidations as f64),
        ("mem.phantom_requests", c.phantom_requests as f64),
        ("mem.phantom_garbage_fills", c.phantom_garbage_fills as f64),
        ("mem.xbar_port_waits", c.xbar_port_waits as f64),
        ("mem.bank_conflict_waits", c.bank_conflict_waits as f64),
        ("mem.bank_queue_stalls", c.bank_queue_stalls as f64),
        ("trace.pass_s", secs(pass_ns)),
        ("trace.layers_s", secs(layers_ns)),
        ("trace.unattributed_s", secs(pass_ns - layers_ns)),
        ("trace.overhead_s", overhead_s),
    ];
    Ok(outcome)
}
