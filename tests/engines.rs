//! Dense ↔ skip engine equivalence.
//!
//! The time-skipping engine must be *observationally identical* to dense
//! cycle stepping: every measured counter, every IPC figure, every byte of
//! a `BENCH_<id>.json` report. These tests drive randomized grids of
//! (workload, mode, latency, phantom, consistency, TLB, seed) points
//! through both engines and demand exact equality — plus a nonzero skip
//! count, so the skip engine cannot trivially pass by degenerating into
//! dense stepping.
//!
//! The case stream is seeded by `REUNION_PROP_SEED` (a u64; default below),
//! never by wall-clock time, so failures replay exactly.

use reunion_core::{
    measure, normalized_ipc, Engine, ExecutionMode, Measurement, SampleConfig, SystemConfig,
};
use reunion_cpu::{Consistency, TlbMode};
use reunion_kernel::SimRng;
use reunion_mem::PhantomStrength;
use reunion_workloads::{kernel_suite, suite, Workload};

const DEFAULT_SEED: u64 = 0xE16_16E5;

fn prop_seed() -> u64 {
    std::env::var("REUNION_PROP_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_SEED)
}

/// The full deterministic face of a [`Measurement`], floats compared by
/// bit pattern. `skipped_cycles` is deliberately excluded: it is the one
/// field allowed (required, even) to differ between engines.
fn face(m: &Measurement) -> (u64, u64, reunion_core::SystemStats, usize, &'static str) {
    (
        m.ipc.to_bits(),
        m.ipc_ci95.to_bits(),
        m.totals,
        m.windows,
        m.workload,
    )
}

/// Draws the knobs that move the skip engine's activity bounds: the
/// comparison latency, the phantom strength (weak phantoms make deferred
/// mismatches common), the consistency model (SC serializes every store)
/// and the TLB model (software handlers are serializing traps).
fn random_config(rng: &mut SimRng, mode: ExecutionMode) -> SystemConfig {
    let mut cfg = SystemConfig::small_test(mode);
    cfg.comparison_latency = [0, 10, 20, 40][(rng.next_u64() % 4) as usize];
    cfg.phantom = PhantomStrength::ALL[(rng.next_u64() % 3) as usize];
    cfg.consistency = if rng.chance(0.5) {
        Consistency::Tso
    } else {
        Consistency::Sc
    };
    cfg.tlb = if rng.chance(0.5) {
        TlbMode::default()
    } else {
        TlbMode::Software
    };
    cfg.seed = rng.next_u64();
    cfg
}

fn random_workload(rng: &mut SimRng) -> Workload {
    let all = suite();
    let i = (rng.next_u64() % all.len() as u64) as usize;
    all.into_iter().nth(i).expect("index in range")
}

fn sample() -> SampleConfig {
    SampleConfig {
        warmup: 6_000,
        window: 6_000,
        windows: 2,
    }
}

/// Randomized grid: raw measurements agree exactly between engines for
/// redundant and non-redundant configurations alike, and the skip engine
/// actually skips.
#[test]
fn randomized_measurements_are_engine_invariant() {
    let mut rng = SimRng::seed_from(prop_seed());
    let mut total_skipped = 0u64;
    for case in 0..12 {
        let mode = ExecutionMode::ALL[(rng.next_u64() % 3) as usize];
        let workload = random_workload(&mut rng);
        let mut cfg = random_config(&mut rng, mode);

        cfg.engine = Engine::Dense;
        let dense = measure(&cfg, &workload, &sample());
        cfg.engine = Engine::Skip;
        let skip = measure(&cfg, &workload, &sample());

        assert_eq!(
            face(&dense),
            face(&skip),
            "case {case}: {mode} {} lat={} {:?} {:?} {:?} diverged between engines",
            workload.name(),
            cfg.comparison_latency,
            cfg.phantom,
            cfg.consistency,
            cfg.tlb,
        );
        assert_eq!(dense.skipped_cycles, 0, "dense never goes quiescent here");
        total_skipped += skip.skipped_cycles;
    }
    assert!(
        total_skipped > 0,
        "the skip engine never skipped a cycle across the whole grid"
    );
}

/// Randomized matched pairs: the normalized-IPC path (model and baseline
/// systems, window-by-window ratios) is engine-invariant too.
#[test]
fn randomized_normalized_pairs_are_engine_invariant() {
    let mut rng = SimRng::seed_from(prop_seed() ^ 0x5CA1_AB1E);
    for case in 0..6 {
        let mode = if rng.chance(0.5) {
            ExecutionMode::Reunion
        } else {
            ExecutionMode::Strict
        };
        let workload = random_workload(&mut rng);
        let mut cfg = random_config(&mut rng, mode);

        cfg.engine = Engine::Dense;
        let dense = normalized_ipc(&cfg, &workload, &sample());
        cfg.engine = Engine::Skip;
        let skip = normalized_ipc(&cfg, &workload, &sample());

        assert_eq!(
            dense.normalized_ipc.to_bits(),
            skip.normalized_ipc.to_bits(),
            "case {case}: normalized IPC diverged"
        );
        assert_eq!(dense.ci95.to_bits(), skip.ci95.to_bits());
        assert_eq!(face(&dense.model), face(&skip.model));
        assert_eq!(face(&dense.baseline), face(&skip.baseline));
    }
}

/// The real-code kernel workloads (`asm/`) obey the same invariance
/// contract as the synthetic suite: every measured counter agrees exactly
/// between engines, across modes and comparison latencies.
#[test]
fn kernel_measurements_are_engine_invariant() {
    let mut rng = SimRng::seed_from(prop_seed() ^ 0x6E26_E150);
    let kernels = kernel_suite();
    for case in 0..8 {
        let mode = ExecutionMode::ALL[(rng.next_u64() % 3) as usize];
        let workload = kernels[(rng.next_u64() % kernels.len() as u64) as usize].clone();
        let mut cfg = random_config(&mut rng, mode);

        cfg.engine = Engine::Dense;
        let dense = measure(&cfg, &workload, &sample());
        cfg.engine = Engine::Skip;
        let skip = measure(&cfg, &workload, &sample());

        assert_eq!(
            face(&dense),
            face(&skip),
            "case {case}: {mode} {} lat={} diverged between engines",
            workload.name(),
            cfg.comparison_latency,
        );
    }
}

/// Serializing-heavy configuration (software TLB handlers force frequent
/// full check round trips): the `serializing_stall_cycles` counter — which
/// dense execution accumulates one stalled cycle at a time — survives time
/// skipping exactly.
#[test]
fn serializing_stall_counters_survive_skipping() {
    let workload = Workload::by_name("db2_oltp").expect("suite workload");
    let mut cfg = SystemConfig::small_test(ExecutionMode::Reunion);
    cfg.tlb = reunion_cpu::TlbMode::Software;
    cfg.comparison_latency = 20;

    cfg.engine = Engine::Dense;
    let dense = measure(&cfg, &workload, &sample());
    cfg.engine = Engine::Skip;
    let skip = measure(&cfg, &workload, &sample());

    assert!(
        dense.totals.serializing_stall_cycles > 0,
        "config must exercise serializing stalls"
    );
    assert_eq!(face(&dense), face(&skip));
}

/// The scaling study's contention models — banked-L2 arbitration behind
/// bounded crossbar ports and a shared check bus — keep the engine
/// invariance contract at many-pair machine sizes. Bus grants only happen
/// inside ticked comparison cycles and the arbiter's round-robin cursor
/// only advances on arbitration, so time skipping must not reorder either.
#[test]
fn many_pair_contention_is_engine_invariant() {
    use reunion_mem::MemConfig;
    let workload = Workload::by_name("apache").expect("suite workload");
    for pairs in [8usize, 16] {
        let mut cfg = SystemConfig::small_test(ExecutionMode::Reunion)
            .with_logical_processors(pairs)
            .with_check_bandwidth(2)
            .with_comparison_latency(10)
            .with_mem(
                MemConfig::small()
                    .with_xbar_ports(2)
                    .with_bank_queue_depth(2),
            );

        cfg.engine = Engine::Dense;
        let dense = measure(&cfg, &workload, &sample());
        cfg.engine = Engine::Skip;
        let skip = measure(&cfg, &workload, &sample());

        assert_eq!(
            face(&dense),
            face(&skip),
            "{pairs} pairs under contention diverged between engines"
        );
        assert!(
            dense.totals.user_instructions > 0,
            "{pairs}-pair machine must make forward progress on a saturated bus"
        );
    }
}

/// Serial ↔ intra-cell-parallel byte-identity at 8, 16 and 32 pairs with
/// every contention knob on — banked L2 behind bounded crossbar ports, a
/// shared check bus, observability collecting — under both engines. The
/// compute/commit split moves only memory-free work onto worker threads
/// and commits serially in logical-processor order, so *everything* must
/// agree: every counter, the observability histograms, the retained trace,
/// and even `skipped_cycles` (same engine on both sides). Worker counts
/// are drawn from the seeded stream so reruns replay exactly.
#[test]
fn intracell_parallel_compute_is_byte_identical() {
    use reunion_core::ObsConfig;
    use reunion_mem::MemConfig;
    let mut rng = SimRng::seed_from(prop_seed() ^ 0x1AC3_11E1);
    let workload = Workload::by_name("apache").expect("suite workload");
    let small = SampleConfig {
        warmup: 3_000,
        window: 3_000,
        windows: 2,
    };
    for pairs in [8usize, 16, 32] {
        for engine in [Engine::Dense, Engine::Skip] {
            let mut cfg = SystemConfig::small_test(ExecutionMode::Reunion)
                .with_logical_processors(pairs)
                .with_check_bandwidth(2)
                .with_comparison_latency(10)
                .with_mem(
                    MemConfig::small()
                        .with_xbar_ports(2)
                        .with_bank_queue_depth(2),
                );
            cfg.engine = engine;
            cfg.obs = ObsConfig {
                enabled: true,
                trace_cap: 8,
            };
            cfg.seed = rng.next_u64();

            cfg.intracell_threads = 0;
            let serial = measure(&cfg, &workload, &small);
            cfg.intracell_threads = 2 + (rng.next_u64() % 4) as usize;
            let parallel = measure(&cfg, &workload, &small);

            assert_eq!(
                face(&serial),
                face(&parallel),
                "{pairs} pairs under {engine}: intra-cell compute diverged"
            );
            assert_eq!(serial.skipped_cycles, parallel.skipped_cycles);
            assert_eq!(serial.obs, parallel.obs, "{pairs} pairs {engine}: obs");
            assert_eq!(
                serial.trace, parallel.trace,
                "{pairs} pairs {engine}: trace"
            );
            assert!(
                serial.totals.user_instructions > 0,
                "{pairs}-pair machine must make forward progress"
            );
        }
    }
}

/// Interrupts delivered between runs reach the dispatch stage of both
/// halves of every pair; the skip engine's bounds must not step over the
/// cycle a scheduled interrupt is injected at. Each run segment's window
/// statistics agree exactly between engines.
#[test]
fn interrupt_delivery_is_engine_invariant() {
    use reunion_core::CmpSystem;
    let workload = Workload::by_name("apache").expect("suite workload");
    let mut cfg = SystemConfig::small_test(ExecutionMode::Reunion);
    cfg.comparison_latency = 40;
    cfg.phantom = PhantomStrength::Null;

    let segments = |cfg: &SystemConfig, interrupts: bool| {
        let mut sys = CmpSystem::new(cfg, &workload);
        sys.run(4_000);
        let mut stats = Vec::new();
        for lp in [0, 1, 0] {
            if interrupts {
                sys.deliver_interrupt(lp);
            }
            sys.begin_window();
            sys.run(3_000);
            stats.push(sys.window_stats());
        }
        (stats, sys.skipped_cycles())
    };
    cfg.engine = Engine::Dense;
    let (dense, _) = segments(&cfg, true);
    let (quiet, _) = segments(&cfg, false);
    cfg.engine = Engine::Skip;
    let (skip, skipped) = segments(&cfg, true);

    assert_ne!(dense, quiet, "the interrupts must change the run");
    assert_eq!(dense, skip);
    assert!(skipped > 0, "the skip engine never skipped a cycle");
}

/// The skip engine clips at `run` boundaries, so arbitrary window layouts
/// — including a window cut mid-skip — see identical per-window stats.
#[test]
fn window_clipping_preserves_per_window_stats() {
    use reunion_core::CmpSystem;
    let workload = Workload::by_name("ocean").expect("suite workload");
    let mut cfg = SystemConfig::small_test(ExecutionMode::Reunion);

    let windows = [3_000u64, 123, 7_777, 41, 2_500];
    let mut per_window = Vec::new();
    for engine in [Engine::Dense, Engine::Skip] {
        cfg.engine = engine;
        let mut sys = CmpSystem::new(&cfg, &workload);
        sys.run(5_000);
        let mut stats = Vec::new();
        for w in windows {
            sys.begin_window();
            sys.run(w);
            stats.push(sys.window_stats());
        }
        assert_eq!(sys.now().as_u64(), 5_000 + windows.iter().sum::<u64>());
        per_window.push(stats);
    }
    assert_eq!(per_window[0], per_window[1]);
}
