//! Kill-and-recover matrix for the durability subsystem (DESIGN.md §7).
//!
//! Each cell runs the `crash_harness` binary as a subprocess: TATP with
//! real command logging (and optionally a consistent snapshot). Once every
//! call is acknowledged the harness copies its live log directory — the
//! on-disk image a SIGKILL would leave — then shuts down, writes its own
//! final tables, and dies via `std::process::abort()`. The test recovers
//! the image in-process with [`LiveRuntime::recover`] and pins:
//!
//! * the harness's acknowledged commit / user-abort counts equal an
//!   *uninterrupted* same-seed run's (TATP outcomes are
//!   interleaving-independent — see `tests/live_runtime.rs`), and
//! * the recovered database's tables are byte-identical, row for row, to
//!   the harness's own final tables. Not to the uninterrupted run's: last
//!   writer values depend on how the 4 clients interleave, which differs
//!   between two runs of the same seed.
//!
//! Matrix: {snapshot-only, log-only, snapshot+log} × {single-partition
//! fast path, forced-distributed}.

use engine::baselines::{AssumeDistributed, AssumeSinglePartition};
use engine::{DurabilityConfig, LiveAdvisor, LiveConfig, LiveRuntime, RunMetrics};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::Command;
use std::sync::Barrier;
use storage::Database;
use workloads::Bench;

// Mirrors src/bin/crash_harness.rs; keep in sync.
const PARTS: u32 = 2;
const CLIENTS: u64 = 4;
const PHASE1: u64 = 150;
const PHASE2: u64 = 100;
const SEED: u64 = 417;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// The uninterrupted twin of the harness run: same seed, same client
/// streams, same request counts, no durability, clean shutdown. Only its
/// outcome counts are compared.
fn baseline<A: LiveAdvisor + 'static>(advisor: A, with_phase2: bool) -> RunMetrics {
    let db = Bench::Tatp.database(PARTS);
    let reg = Bench::Tatp.registry();
    let cfg = LiveConfig { seed: SEED, ..Default::default() };
    let rt = LiveRuntime::start(db, reg, advisor, cfg);
    let phase2 = if with_phase2 { PHASE2 } else { 0 };
    let barrier = Barrier::new(CLIENTS as usize);
    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let mut client = rt.client();
            let barrier = &barrier;
            s.spawn(move || {
                let mut gen = Bench::Tatp.client_generator(PARTS, SEED, c);
                for _ in 0..PHASE1 {
                    let (proc, args) = gen.next_request(client.id());
                    client.call(proc, args).expect("baseline phase-1 call");
                }
                barrier.wait();
                for _ in 0..phase2 {
                    let (proc, args) = gen.next_request(client.id());
                    client.call(proc, args).expect("baseline phase-2 call");
                }
            });
        }
    });
    rt.shutdown().0
}

/// Every table's rows, sorted and merged across partitions, one row per
/// line — the byte-identical-state rendering; mirrors `render_tables` in
/// src/bin/crash_harness.rs, keep in sync.
fn render_tables(db: &Database) -> String {
    let mut out = String::new();
    for t in 0..db.schemas().len() {
        let mut rows: Vec<_> = (0..PARTS).flat_map(|p| db.table(p, t).sorted_rows()).collect();
        rows.sort();
        for row in rows {
            writeln!(out, "{t} {row:?}").expect("write to String");
        }
    }
    out
}

fn parse_counts(stdout: &str) -> (u64, u64) {
    let line = stdout
        .lines()
        .find(|l| l.starts_with("CRASH "))
        .expect("harness printed its CRASH line before dying");
    let field = |key: &str| -> u64 {
        line.split_whitespace()
            .find_map(|tok| tok.strip_prefix(key))
            .expect("counter present")
            .parse()
            .expect("numeric counter")
    };
    (field("committed="), field("user_aborts="))
}

fn kill_and_recover<A, B>(make_advisor: impl Fn() -> A, tag: &str, mode: &str, baseline_run: B)
where
    A: LiveAdvisor + 'static,
    B: FnOnce() -> RunMetrics,
{
    let dir = tmpdir(tag);
    let out = Command::new(env!("CARGO_BIN_EXE_crash_harness"))
        .arg(&dir)
        .args([if tag.starts_with("sp") { "sp" } else { "dist" }, mode])
        .arg(SEED.to_string())
        .output()
        .expect("spawn crash_harness");
    assert!(!out.status.success(), "the harness must die by abort, not exit cleanly");
    let (committed, user_aborts) = parse_counts(&String::from_utf8_lossy(&out.stdout));

    let base_metrics = baseline_run();
    assert_eq!(
        (committed, user_aborts),
        (base_metrics.committed, base_metrics.user_aborts),
        "acknowledged outcomes must match the uninterrupted run ({tag}/{mode})"
    );

    let cfg = LiveConfig {
        seed: SEED,
        durability: Some(DurabilityConfig::new(dir.join("image"))),
        ..Default::default()
    };
    let (rt, report) = LiveRuntime::recover(
        Bench::Tatp.database(PARTS),
        Bench::Tatp.registry(),
        make_advisor(),
        cfg,
    );
    let (metrics, recovered_db) = rt.shutdown();
    assert!(metrics.recovery_ms > 0.0);
    if mode == "snap" {
        assert_eq!(report.replayed, 0, "snapshot-only recovery has nothing to replay");
        assert!(report.snapshot_gen.is_some());
    }
    if mode == "log" {
        assert!(report.snapshot_gen.is_none());
        assert!(report.replayed > 0, "log-only recovery must replay the committed writers");
    }
    if mode == "snaplog" {
        assert!(report.snapshot_gen.is_some());
        assert!(report.replayed > 0, "phase-2 writers replay on top of the snapshot");
    }
    let harness_tables =
        std::fs::read_to_string(dir.join("tables.txt")).expect("harness wrote its final tables");
    let recovered_tables = render_tables(&recovered_db);
    assert!(!harness_tables.is_empty());
    let first_diff = harness_tables.lines().zip(recovered_tables.lines()).find(|(a, b)| a != b);
    assert!(
        harness_tables == recovered_tables,
        "recovered tables must be byte-identical to the crashed run's own ({tag}/{mode}); \
         first differing row (harness, recovered): {first_diff:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn single_partition_log_only() {
    kill_and_recover(AssumeSinglePartition::new, "sp-log", "log", || {
        baseline(AssumeSinglePartition::new(), false)
    });
}

#[test]
fn single_partition_snapshot_only() {
    kill_and_recover(AssumeSinglePartition::new, "sp-snap", "snap", || {
        baseline(AssumeSinglePartition::new(), false)
    });
}

#[test]
fn single_partition_snapshot_plus_log() {
    kill_and_recover(AssumeSinglePartition::new, "sp-snaplog", "snaplog", || {
        baseline(AssumeSinglePartition::new(), true)
    });
}

#[test]
fn distributed_log_only() {
    kill_and_recover(AssumeDistributed::new, "dist-log", "log", || {
        baseline(AssumeDistributed::new(), false)
    });
}

#[test]
fn distributed_snapshot_only() {
    kill_and_recover(AssumeDistributed::new, "dist-snap", "snap", || {
        baseline(AssumeDistributed::new(), false)
    });
}

#[test]
fn distributed_snapshot_plus_log() {
    kill_and_recover(AssumeDistributed::new, "dist-snaplog", "snaplog", || {
        baseline(AssumeDistributed::new(), true)
    });
}
