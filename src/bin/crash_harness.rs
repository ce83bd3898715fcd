//! Crash-test harness for the durability subsystem (`tests/recovery.rs`
//! drives it as a subprocess).
//!
//! Runs TATP against a [`engine::LiveRuntime`] with real command logging
//! into `<dir>/live`, optionally takes a consistent snapshot, and — once
//! every client call has been acknowledged — copies the log directory to
//! `<dir>/image` while the runtime is still fully live. That copy is the
//! on-disk state a SIGKILL would leave at that instant: every acknowledged
//! writer is covered by a completed `write+fsync` (acks are released only
//! after the covering flush), and the log's user-space buffer is not in
//! the files. The harness then shuts down, writes its own final tables to
//! `<dir>/tables.txt` (see [`render_tables`]), prints one machine-readable
//! line with the acknowledged commit counts, and dies via
//! [`std::process::abort`]. The recovery test recovers from the image and
//! compares against those tables — the state *this* run's interleaving
//! produced — and compares the counts against an uninterrupted same-seed
//! run.
//!
//! Usage: `crash_harness <dir> <sp|dist> <log|snap|snaplog> <seed>`
//!
//! * `sp` / `dist` — advisor: single-partition fast path vs forced
//!   distributed (lock-all) execution.
//! * `log` — phase-1 traffic only, then crash (recovery replays the log).
//! * `snap` — phase-1 traffic, snapshot, crash (recovery restores the
//!   snapshot, the truncated log holds nothing newer).
//! * `snaplog` — phase-1 traffic, snapshot, phase-2 traffic, crash
//!   (recovery restores the snapshot *and* replays phase 2).
//!
//! The phase sizes below are mirrored by `tests/recovery.rs`; keep them
//! in sync.

use engine::baselines::{AssumeDistributed, AssumeSinglePartition};
use engine::{DurabilityConfig, LiveAdvisor, LiveConfig, LiveRuntime};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Barrier;
use storage::Database;
use workloads::Bench;

const PARTS: u32 = 2;
const CLIENTS: u64 = 4;
const PHASE1: u64 = 150;
const PHASE2: u64 = 100;

/// Every table's rows, sorted and merged across partitions, one row per
/// line — the byte-identical-state rendering `tests/recovery.rs` compares
/// (it keeps an identical copy; keep them in sync).
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

/// Copies every file of the flat log directory `from` into `to`.
fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create image directory");
    for entry in std::fs::read_dir(from).expect("read log directory") {
        let path = entry.expect("log directory entry").path();
        let name = path.file_name().expect("file name");
        std::fs::copy(&path, to.join(name)).expect("copy log file");
    }
}

fn drive<A: LiveAdvisor + 'static>(advisor: A, dir: &Path, mode: &str, seed: u64) -> ! {
    let db = Bench::Tatp.database(PARTS);
    let reg = Bench::Tatp.registry();
    let live = dir.join("live");
    let cfg =
        LiveConfig { seed, durability: Some(DurabilityConfig::new(&live)), ..Default::default() };
    let rt = LiveRuntime::start(db, reg, advisor, cfg);
    let phase2 = if mode == "snaplog" { PHASE2 } else { 0 };
    // Clients pause at the barrier between phases so the snapshot cuts at
    // a quiescent point the test can reproduce; the crash itself happens
    // with the runtime fully live (threads parked mid-protocol, flusher
    // running, file buffers warm).
    let barrier = Barrier::new(CLIENTS as usize + 1);
    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let mut client = rt.client();
            let barrier = &barrier;
            s.spawn(move || {
                let mut gen = Bench::Tatp.client_generator(PARTS, seed, c);
                for _ in 0..PHASE1 {
                    let (proc, args) = gen.next_request(client.id());
                    client.call(proc, args).expect("phase-1 call");
                }
                barrier.wait();
                barrier.wait();
                for _ in 0..phase2 {
                    let (proc, args) = gen.next_request(client.id());
                    client.call(proc, args).expect("phase-2 call");
                }
            });
        }
        barrier.wait();
        if mode != "log" {
            rt.snapshot_now().expect("snapshot between phases");
        }
        barrier.wait();
    });
    // Every call above was acknowledged, so every committed writer is
    // durably logged (acks are released only after the covering flush):
    // the files as they stand are the crash image. Whatever is still
    // buffered, or lands from a flush racing the copy, was never
    // acknowledged (an aborted 2PC's records) or is a torn tail — both of
    // which recovery discards.
    copy_dir(&live, &dir.join("image"));
    let (m, db) = rt.shutdown();
    std::fs::write(dir.join("tables.txt"), render_tables(&db)).expect("write final tables");
    println!("CRASH committed={} user_aborts={}", m.committed, m.user_aborts);
    std::process::abort();
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let [_, dir, advisor, mode, seed] = &args[..] else {
        eprintln!("usage: crash_harness <dir> <sp|dist> <log|snap|snaplog> <seed>");
        std::process::exit(2);
    };
    let seed: u64 = seed.parse().expect("numeric seed");
    match advisor.as_str() {
        "sp" => drive(AssumeSinglePartition::new(), Path::new(dir), mode, seed),
        "dist" => drive(AssumeDistributed::new(), Path::new(dir), mode, seed),
        other => {
            eprintln!("unknown advisor {other:?}");
            std::process::exit(2);
        }
    }
}
