//! The three benchmarked grids and how a seed reaches them.
//!
//! Each grid is declared exactly as its figure binary declares it
//! (`crates/bench/src/bin/{fig6,table3,fig_scaling}.rs`). The definitions
//! live in those binaries' `main` functions and cannot be shared without
//! editing the binaries, so they are repeated here. A self-test runs these
//! grids under the fast profile at the default seed and requires
//! `baselines/BENCH_{fig6,table3,scaling}.json` byte for byte, which is how
//! the copy is proven faithful.
//!
//! Everything that decides *what* is measured is set here explicitly, never
//! read from the environment: the full profile, the skip engine,
//! observability off, and (in `main`) the runner's thread count.

use std::time::Instant;

use reunion_core::{Engine, ExecutionMode, ObsConfig, Profile, SystemConfig};
use reunion_mem::PhantomStrength;
use reunion_sim::{ConfigPatch, ExperimentGrid, Metric};
use reunion_workloads::{suite, Workload};

/// The seed that reproduces the figure binaries and the stored references.
pub const DEFAULT_SEED: u64 = 0;

/// One benchmark workload: a full-profile figure grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GridKind {
    /// Figure 6: 11 workloads × {Strict, Reunion} × latency {0..40}.
    Fig6,
    /// Table 3: 11 workloads × Reunion × phantom {global, shared, null}.
    Table3,
    /// Scaling study: apache, moldyn × pairs × check bandwidth × latency.
    Scaling,
}

/// Comparison latencies of Figure 6's sweep.
const SWEEP_LATENCIES: [u64; 5] = [0, 10, 20, 30, 40];
/// Phantom strengths of Table 3, in column order.
const STRENGTHS: [PhantomStrength; 3] = [
    PhantomStrength::Global,
    PhantomStrength::Shared,
    PhantomStrength::Null,
];
/// em3d's widened Table 3 window (see `table3.rs`).
const EM3D_MEASURED_CYCLES: u64 = 32_000_000;
/// Scaling-study axes (see `fig_scaling.rs`).
const PAIRS: [usize; 5] = [1, 2, 4, 8, 16];
const CHECK_BW: [u64; 2] = [0, 2];
const SCALING_LATENCIES: [u64; 2] = [10, 40];

impl GridKind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [GridKind; 3] = [GridKind::Fig6, GridKind::Table3, GridKind::Scaling];

    /// The benchmark workload name (`--workload`).
    pub fn name(self) -> &'static str {
        match self {
            GridKind::Fig6 => "fig6-full",
            GridKind::Table3 => "table3-full",
            GridKind::Scaling => "scaling-full",
        }
    }

    /// Parses a `--workload` value.
    pub fn from_name(name: &str) -> Option<GridKind> {
        GridKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The grid id, which names the figure binary's `BENCH_<id>.json`.
    pub fn id(self) -> &'static str {
        match self {
            GridKind::Fig6 => "fig6",
            GridKind::Table3 => "table3",
            GridKind::Scaling => "scaling",
        }
    }

    /// The most logical processors any cell of this grid simulates: how
    /// many per-thread programs set-up generates per workload.
    fn max_logical_processors(self) -> usize {
        match self {
            GridKind::Fig6 | GridKind::Table3 => {
                SystemConfig::table1(ExecutionMode::Reunion).logical_processors
            }
            GridKind::Scaling => PAIRS[PAIRS.len() - 1],
        }
    }

    fn base(self) -> fn(ExecutionMode) -> SystemConfig {
        match self {
            GridKind::Fig6 | GridKind::Table3 => SystemConfig::table1,
            GridKind::Scaling => scaling_base,
        }
    }

    /// Fresh workloads of this grid, with empty artifact caches.
    pub fn workloads(self) -> Vec<Workload> {
        suite()
            .into_iter()
            .filter(|w| match self {
                GridKind::Fig6 | GridKind::Table3 => true,
                GridKind::Scaling => matches!(w.name(), "apache" | "moldyn"),
            })
            .collect()
    }

    /// Declares the grid over `workloads` (from [`setup`]) at `profile`.
    ///
    /// A non-default `seed` re-seeds every simulated system through a
    /// [`ConfigPatch::seed`] on each patch (the labels stay the figure's).
    /// The system seed drives each pair's and core's own random decisions.
    /// The workload generators keep their seeds: re-seeding them changes
    /// each workload's memory footprint, which moved peak RSS by up to ±15%
    /// between seeds and would make `peak_rss_mb` depend on the seed rather
    /// than on the code.
    pub fn grid(self, profile: Profile, seed: u64, workloads: Vec<Workload>) -> ExperimentGrid {
        let sample = profile.sample();
        let system_seed =
            (seed != DEFAULT_SEED).then(|| (self.base())(ExecutionMode::Reunion).seed ^ mix(seed));
        let reseed = |patch: ConfigPatch| match system_seed {
            Some(s) => patch.seed(s),
            None => patch,
        };
        let builder = match self {
            GridKind::Fig6 => ExperimentGrid::builder(
                "fig6",
                "Strict and Reunion vs comparison latency (normalized IPC)",
            )
            .modes(&[ExecutionMode::Strict, ExecutionMode::Reunion])
            .patches(
                SWEEP_LATENCIES
                    .iter()
                    .map(|&l| reseed(ConfigPatch::new(format!("lat={l}")).latency(l)))
                    .collect(),
            ),
            GridKind::Table3 => ExperimentGrid::builder(
                "table3",
                "Input incoherence per 1M instructions by phantom strength; TLB misses",
            )
            .metric(Metric::Raw)
            .sample_override("em3d", sample.widened_to_cycles(EM3D_MEASURED_CYCLES))
            .modes(&[ExecutionMode::Reunion])
            .patches(
                STRENGTHS
                    .iter()
                    .map(|&s| reseed(ConfigPatch::new(s.to_string()).phantom(s)))
                    .collect(),
            ),
            GridKind::Scaling => {
                let mut patches = Vec::new();
                for &pairs in &PAIRS {
                    for &bw in &CHECK_BW {
                        for &latency in &SCALING_LATENCIES {
                            patches.push(reseed(
                                ConfigPatch::new(format!("p{pairs}:bw{bw}:lat={latency}"))
                                    .logical_processors(pairs)
                                    .check_bandwidth(bw)
                                    .latency(latency),
                            ));
                        }
                    }
                }
                ExperimentGrid::builder(
                    "scaling",
                    "Reunion normalized IPC vs pair count, check bandwidth and latency",
                )
                .base(scaling_base)
                .modes(&[ExecutionMode::Reunion])
                .patches(patches)
            }
        };
        builder
            .engine(Engine::Skip)
            .observability(ObsConfig::default())
            .sample(sample)
            .workloads(workloads)
            .build()
    }
}

/// The scaling study's base: Table 1 plus a 4-port crossbar and 4-deep
/// bank queues (`fig_scaling.rs`).
fn scaling_base(mode: ExecutionMode) -> SystemConfig {
    let cfg = SystemConfig::table1(mode).with_seed(0x5EED_0009);
    let mem = cfg.mem.clone().with_xbar_ports(4).with_bank_queue_depth(4);
    cfg.with_mem(mem)
}

/// SplitMix64 finalizer: spreads a small benchmark seed over 64 bits.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One set-up: fresh workloads with every artifact generated, and the grid.
pub struct Setup {
    /// The grid, ready to run; its workloads' artifacts are already built.
    pub grid: ExperimentGrid,
    /// Seconds spent generating programs and initial memory images.
    pub gen_s: f64,
    /// Seconds for the whole set-up (generation plus grid construction).
    pub setup_s: f64,
}

/// Builds fresh workloads for `kind`, generates every artifact a cell will
/// ask for (so no cell pays for generation), and declares the full-profile
/// grid for `seed`.
pub fn setup(kind: GridKind, seed: u64) -> Setup {
    let start = Instant::now();
    let workloads = kind.workloads();
    for w in &workloads {
        std::hint::black_box(w.initial_memory());
        for lp in 0..kind.max_logical_processors() {
            std::hint::black_box(w.program(lp));
        }
    }
    let gen_s = start.elapsed().as_secs_f64();
    let grid = kind.grid(Profile::Full, seed, workloads);
    Setup {
        grid,
        gen_s,
        setup_s: start.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reunion_sim::Runner;

    #[test]
    fn grids_have_the_figure_sizes() {
        for (kind, cells) in [
            (GridKind::Fig6, 110),
            (GridKind::Table3, 33),
            (GridKind::Scaling, 40),
        ] {
            let grid = kind.grid(Profile::Full, DEFAULT_SEED, kind.workloads());
            assert_eq!(grid.cells().len(), cells, "{}", kind.name());
            assert_eq!(grid.engine(), Engine::Skip);
            assert!(!grid.observability().enabled);
        }
    }

    /// The copied definitions are the figure binaries' grids: at the fast
    /// profile and the default seed each reproduces the repository's gated
    /// `baselines/BENCH_<id>.json` byte for byte.
    #[test]
    fn fast_profile_grids_reproduce_the_baselines() {
        for kind in GridKind::ALL {
            let path = format!(
                "{}/../baselines/BENCH_{}.json",
                env!("CARGO_MANIFEST_DIR"),
                kind.id()
            );
            let baseline = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
            let grid = kind.grid(Profile::Fast, DEFAULT_SEED, kind.workloads());
            let report = Runner::with_threads(crate::threads()).run(&grid);
            assert!(
                report.to_json() == baseline,
                "{}: the fast-profile report differs from {path}",
                kind.name()
            );
        }
    }

    #[test]
    fn only_a_non_default_seed_changes_the_inputs() {
        let seeds = |seed: u64| -> Vec<u64> {
            let grid = GridKind::Scaling.grid(Profile::Fast, seed, GridKind::Scaling.workloads());
            grid.cells()
                .iter()
                .map(|c| grid.cell_config(c).seed)
                .collect()
        };
        assert!(seeds(DEFAULT_SEED).iter().all(|&s| s == 0x5EED_0009));
        let a = seeds(7);
        assert_eq!(a, seeds(7), "same seed, same inputs");
        assert!(a.iter().all(|&s| s == a[0] && s != 0x5EED_0009));
        assert_ne!(a, seeds(8));
    }
}
