//! Closed-loop benchmark of the live runtime.
//!
//! ```text
//! perfbench --workload <tatp-local|tpcc-dist|tatp-durable> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run is `ROUNDS` rounds. Each trains Houdini on a trace drawn from
//! the seed and the round, starts a `LiveRuntime`, drives it from two
//! client threads, each a closed loop over its own `Client` and request
//! stream, measures its share of `--seconds` after a warm-up, shuts the
//! runtime down and checks the results. The run then prints the metrics;
//! the last line of standard output is one JSON object. `--trace 0`
//! prints the end-to-end metrics. `--trace 1` wraps the advisor and the
//! procedures in timing shims (see `trace.rs`), alternates traced and
//! untraced slices of each window, and prints the per-layer metrics.

mod procfs;
mod stats;
mod trace;

use common::{derive_seed, ProcId};
use engine::{
    Bucket, Client, CoordSub, DurabilityConfig, LiveAdvisor, LiveConfig, LiveRuntime,
    ProcedureRegistry, RunMetrics, TxnOutcome,
};
use houdini::Houdini;
use stats::{percentile, sorted, Histogram, Interval};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};
use storage::Database;
use trace::{LayerTally, Span, TracedAdvisor, Tracer};
use workloads::{tatp, Bench};

/// Client threads, each a closed loop over one `Client`.
const CLIENTS: usize = 2;
/// Rounds per run. Each round sets up afresh (database load, training,
/// `LiveRuntime::start`), warms up, and measures an equal share of the
/// window. Throughput, median latency, CPU per transaction and set-up
/// time are medians of per-round values, so a host stall or an unlucky
/// thread placement during a few rounds moves them little; p99 latencies
/// pool every round's calls, which keeps the rarer call classes above the
/// ten-samples-beyond rule.
const ROUNDS: usize = 15;
/// Warm-up of each round, not measured.
const WARMUP: Duration = Duration::from_millis(500);
/// Length of each traced or untraced slice of a `--trace 1` window.
const TRACE_SLICE: Duration = Duration::from_millis(200);
/// Transactions in the Houdini training trace.
const TRAINING_TRACE: usize = 1_500;
/// Houdini's confidence threshold (the default of `HoudiniConfig`).
const THRESHOLD: f64 = 0.5;
/// Scratch space for command logs, under the working directory.
const SCRATCH: &str = ".perfbench_tmp";

struct Workload {
    name: &'static str,
    bench: Bench,
    partitions: u32,
    durable: bool,
}

const WORKLOADS: [Workload; 3] = [
    Workload { name: "tatp-local", bench: Bench::Tatp, partitions: 1, durable: false },
    Workload { name: "tpcc-dist", bench: Bench::Tpcc, partitions: 2, durable: false },
    Workload { name: "tatp-durable", bench: Bench::Tatp, partitions: 2, durable: true },
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    window: Duration,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <tatp-local|tpcc-dist|tatp-durable> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        window: Duration::from_secs_f64(seconds),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let scratch = args.workload.durable.then(|| ScratchDir::create(&args));
    print_header(&args, scratch.as_ref());
    let report = if args.trace {
        let tracer = Arc::new(Tracer::new(CLIENTS));
        run(&args, scratch.as_ref(), Some(&tracer), |houdini, registry| {
            let advisor = TracedAdvisor { inner: houdini, tracer: Arc::clone(&tracer) };
            (advisor, trace::traced_registry(registry, &tracer))
        })
    } else {
        run(&args, scratch.as_ref(), None, |houdini, registry| (houdini, registry))
    };
    drop(scratch);
    for line in &report.lines {
        println!("{line}");
    }
    for failure in &report.failures {
        println!("CHECK FAILED: {failure}");
    }
    println!("{}", report.json());
    if report.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A run's command-log directory, removed when dropped.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn create(args: &Args) -> Self {
        let nanos = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_nanos());
        let dir = Path::new(SCRATCH).join(format!(
            "{}-{}-{}-{nanos}",
            args.workload.name,
            args.seed,
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("create command-log scratch directory");
        ScratchDir(dir)
    }

    fn sub(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Only succeeds once no other run is using the parent.
        let _ = std::fs::remove_dir(SCRATCH);
    }
}

fn print_header(args: &Args, scratch: Option<&ScratchDir>) {
    let w = args.workload;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "perfbench workload={} seed={} seconds={} trace={} clients={CLIENTS} partitions={}",
        w.name,
        args.seed,
        args.window.as_secs_f64(),
        u8::from(args.trace),
        w.partitions
    );
    println!("host: nproc={nproc} commit={} date={}", commit_id(), utc_now());
    match scratch {
        Some(dir) => println!(
            "flush policy: command log in {} (directory under the working directory, not tmpfs); \
             group-commit window {} us; read fence off; no snapshotter",
            dir.0.display(),
            DurabilityConfig::new(&dir.0).group_commit_window.as_micros()
        ),
        None => println!("flush policy: no durability, no modeled flush or message delay"),
    }
}

/// The checked-out commit, read from `.git` when there is one.
fn commit_id() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let id = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r)).unwrap_or_default(),
        None => head.to_string(),
    };
    let id = id.trim();
    if id.is_empty() {
        "unknown (not a git checkout)".into()
    } else {
        id.to_string()
    }
}

fn utc_now() -> String {
    let secs = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_secs());
    let (days, rem) = (secs / 86_400, secs % 86_400);
    // Civil date from days since 1970-01-01 (Howard Hinnant's algorithm).
    let z = days as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        rem / 3_600,
        rem % 3_600 / 60,
        rem % 60
    )
}

/// What the client threads of one round saw.
#[derive(Default)]
struct ClientTally {
    /// Whole round, warm-up included.
    attempted: u64,
    committed: u64,
    user_aborts: u64,
    failed: u64,
    /// Calls completed inside the measured window.
    w_attempted: u64,
    w_committed: u64,
    w_failed: u64,
    /// Latencies (µs) of completed calls to read-only procedures.
    read_us: Histogram,
    write_us: Histogram,
    /// Committed calls completed in untraced and traced slices.
    slice_committed: [u64; 2],
    gen_ns: u64,
    gens: u64,
    layers: LayerTally,
}

impl ClientTally {
    fn merge(&mut self, o: ClientTally) {
        self.attempted += o.attempted;
        self.committed += o.committed;
        self.user_aborts += o.user_aborts;
        self.failed += o.failed;
        self.w_attempted += o.w_attempted;
        self.w_committed += o.w_committed;
        self.w_failed += o.w_failed;
        self.read_us.merge(&o.read_us);
        self.write_us.merge(&o.write_us);
        self.slice_committed[0] += o.slice_committed[0];
        self.slice_committed[1] += o.slice_committed[1];
        self.gen_ns += o.gen_ns;
        self.gens += o.gens;
        self.layers.merge(o.layers);
    }
}

/// A round's measured window and, in a traced run, its slices.
#[derive(Clone, Copy)]
struct Window {
    start: Instant,
    end: Instant,
    traced: bool,
}

impl Window {
    fn contains(&self, t: Instant) -> bool {
        t >= self.start && t < self.end
    }

    /// Seconds of the window in untraced and in traced slices.
    fn slice_seconds(&self) -> [f64; 2] {
        let len = self.end - self.start;
        if !self.traced {
            return [len.as_secs_f64(), 0.0];
        }
        let mut secs = [0.0; 2];
        let mut at = Duration::ZERO;
        for i in 0.. {
            if at >= len {
                break;
            }
            secs[i % 2] += TRACE_SLICE.min(len - at).as_secs_f64();
            at += TRACE_SLICE;
        }
        secs
    }

    /// 1 when `t` falls in a traced slice, else 0.
    fn slice(&self, t: Instant) -> usize {
        if !self.traced || !self.contains(t) {
            return 0;
        }
        let i = (t - self.start).as_nanos() / TRACE_SLICE.as_nanos();
        (i % 2) as usize
    }
}

/// What every client thread of a run shares.
#[derive(Clone, Copy)]
struct Load<'a> {
    workload: &'a Workload,
    gen_seed: u64,
    /// `ProcDef::read_only` by procedure id.
    read_only: &'a [bool],
    window: Window,
    tracer: Option<&'a Tracer>,
}

/// Drives one client in a closed loop until the window ends.
fn drive<A: LiveAdvisor + 'static>(
    slot: usize,
    mut client: Client<A>,
    load: Load<'_>,
) -> ClientTally {
    let Load { workload, gen_seed, read_only, window, tracer } = load;
    let mut gen = workload.bench.client_generator(workload.partitions, gen_seed, client.id());
    let mut t = ClientTally::default();
    let mut spans: Vec<Span> = Vec::new();
    loop {
        let g0 = Instant::now();
        if g0 >= window.end {
            return t;
        }
        let (proc, args) = gen.next_request(client.id());
        let c0 = Instant::now();
        let tracer = tracer.filter(|_| window.slice(c0) == 1);
        let call_start = tracer.map(|tr| {
            tr.begin_call(slot, &args);
            tr.now()
        });
        let result = client.call(proc, args);
        let c1 = Instant::now();
        let call = tracer.zip(call_start).map(|(tr, start)| {
            let call = Interval::new(start, tr.now());
            tr.end_call(slot, &mut spans);
            call
        });
        t.attempted += 1;
        match result {
            Ok(TxnOutcome::Committed) => t.committed += 1,
            Ok(_) => t.user_aborts += 1,
            Err(_) => t.failed += 1,
        }
        if !window.contains(c1) {
            continue;
        }
        t.w_attempted += 1;
        t.gen_ns += (c0 - g0).as_nanos() as u64;
        t.gens += 1;
        match result {
            Ok(outcome) => {
                let us = (c1 - c0).as_secs_f64() * 1e6;
                if read_only[proc as usize] {
                    t.read_us.record(us);
                } else {
                    t.write_us.record(us);
                }
                if outcome == TxnOutcome::Committed {
                    t.w_committed += 1;
                    t.slice_committed[window.slice(c1)] += 1;
                }
            }
            Err(_) => t.w_failed += 1,
        }
        if let Some(call) = call {
            t.layers.add_call(call, &spans);
        }
    }
}

/// What a run measured and checked.
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    lines: Vec<String>,
    failures: Vec<String>,
}

impl Report {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Adds the median of one value per round as `name`, with the rounds'
    /// quartiles.
    fn round_median(&mut self, name: &'static str, values: &[f64], unit: &'static str) {
        let (q1, q3) = stats::quartiles(values);
        let median = stats::median(values);
        self.lines.push(format!(
            "{name} = {median:.4} {unit} (median of {} rounds; q1 {q1:.4} q3 {q3:.4})",
            values.len()
        ));
        self.metric(name, median, unit);
    }

    /// Adds `value`, the `q` percentile of `n` samples, as `name`, with
    /// the sample count; a percentile without ten samples beyond it
    /// (`None`) fails the run.
    fn percentile(&mut self, name: &'static str, n: usize, value: Option<f64>, q: f64) {
        match value {
            Some(v) => {
                self.lines
                    .push(format!("{name} = {v:.3} us (n={n}, {} beyond)", stats::beyond(n, q)));
                self.metric(name, v, "us");
            }
            None => self.failures.push(format!(
                "{name}: {n} samples leave fewer than {} beyond the percentile",
                stats::MIN_BEYOND
            )),
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Builds the database, trains Houdini on a trace drawn from
/// `train_seed` and starts the runtime once.
fn set_up<A: LiveAdvisor + 'static>(
    w: &Workload,
    train_seed: u64,
    cfg: &LiveConfig,
    wrap: &impl Fn(Arc<Houdini>, ProcedureRegistry) -> (A, ProcedureRegistry),
) -> (LiveRuntime<A>, Arc<Houdini>) {
    let db = w.bench.database(w.partitions);
    let houdini = Arc::new(bench::trained_houdini(
        w.bench,
        w.partitions,
        TRAINING_TRACE,
        true,
        THRESHOLD,
        train_seed,
    ));
    let (advisor, registry) = wrap(Arc::clone(&houdini), w.bench.registry());
    (LiveRuntime::start(db, registry, advisor, cfg.clone()), houdini)
}

/// One round's results.
struct Round {
    tally: ClientTally,
    setup_s: f64,
    /// Process CPU time over the measured window.
    cpu: Duration,
    window: Window,
    recovery: Option<Recovery>,
}

fn run<A: LiveAdvisor + 'static>(
    args: &Args,
    scratch: Option<&ScratchDir>,
    tracer: Option<&Arc<Tracer>>,
    wrap: impl Fn(Arc<Houdini>, ProcedureRegistry) -> (A, ProcedureRegistry),
) -> Report {
    let w = args.workload;
    let catalog = w.bench.registry().catalog();
    let read_only: Vec<bool> =
        (0..catalog.len()).map(|p| catalog.proc(p as ProcId).read_only).collect();
    let mut r = Report {
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        lines: Vec::new(),
        failures: Vec::new(),
    };
    let mut totals = RunMetrics::default();
    let rounds: Vec<Round> = (0..ROUNDS)
        .map(|i| {
            // Each round draws its own training trace and request streams,
            // so a run averages over as many trained models as rounds.
            let round_seed = derive_seed(args.seed, i as u64);
            let mut cfg = LiveConfig { seed: derive_seed(round_seed, 3), ..LiveConfig::default() };
            if let Some(dir) = scratch {
                cfg.durability = Some(DurabilityConfig::new(dir.sub(&format!("round-{i}"))));
            }
            let t = Instant::now();
            let (rt, houdini) = set_up(w, derive_seed(round_seed, 1), &cfg, &wrap);
            let setup_s = t.elapsed().as_secs_f64();

            let start = Instant::now() + WARMUP;
            let window =
                Window { start, end: start + args.window / ROUNDS as u32, traced: tracer.is_some() };
            let load = Load {
                workload: w,
                gen_seed: derive_seed(round_seed, 2),
                read_only: &read_only,
                window,
                tracer: tracer.map(|t| &**t),
            };
            let clients: Vec<Client<A>> = (0..CLIENTS).map(|_| rt.client()).collect();
            let (tally, cpu) = std::thread::scope(|s| {
                let handles: Vec<_> = clients
                    .into_iter()
                    .enumerate()
                    .map(|(slot, client)| s.spawn(move || drive(slot, client, load)))
                    .collect();
                std::thread::sleep(window.start.saturating_duration_since(Instant::now()));
                let cpu0 = procfs::process_cpu();
                std::thread::sleep(window.end.saturating_duration_since(Instant::now()));
                let cpu = procfs::process_cpu() - cpu0;
                let mut tally = ClientTally::default();
                for h in handles {
                    tally.merge(h.join().expect("client thread panicked"));
                }
                (tally, cpu)
            });
            let (m, db) = rt.shutdown();

            check_conservation(&mut r, &tally, &m);
            if w.bench == Bench::Tatp {
                check_static_tables(&mut r, &w.bench.database(w.partitions), &db);
            }
            let recovery = scratch.map(|dir| {
                recover_and_check(&mut r, w, &cfg, houdini, &db, dir, tracer.is_some())
            });
            totals.absorb(&m);
            r.attempted += tally.w_attempted;
            r.failed += tally.w_failed;
            r.lines.push(format!(
                "round {i}: set-up {setup_s:.4} s; {} calls in window ({} committed, {} failed) of {} in the round",
                tally.w_attempted, tally.w_committed, tally.w_failed, tally.attempted
            ));
            Round { tally, setup_s, cpu, window, recovery }
        })
        .collect();

    if args.trace {
        layer_metrics(&mut r, rounds, &totals, &catalog);
        return r;
    }
    let per_round = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<f64>>();
    let tps = per_round(&|rd| {
        rd.tally.w_committed as f64 / (rd.window.end - rd.window.start).as_secs_f64()
    });
    let cpu_us = per_round(&|rd| ratio(rd.cpu.as_secs_f64() * 1e6, rd.tally.w_committed as f64));
    r.round_median("throughput_tps", &tps, "1/s");
    let (mut reads, mut writes) = (Histogram::default(), Histogram::default());
    for round in &rounds {
        reads.merge(&round.tally.read_us);
        writes.merge(&round.tally.write_us);
    }
    let mut all = reads.clone();
    all.merge(&writes);
    // The median's samples are plentiful in every round, so it gets the
    // per-round median like throughput; a round can hold too few
    // read-only calls for a p99, so tails pool the rounds.
    let calls: Vec<usize> =
        rounds.iter().map(|rd| rd.tally.read_us.count() + rd.tally.write_us.count()).collect();
    let p50: Option<Vec<f64>> = rounds
        .iter()
        .map(|rd| {
            let mut h = rd.tally.read_us.clone();
            h.merge(&rd.tally.write_us);
            h.percentile(0.5)
        })
        .collect();
    match p50 {
        Some(p50) => {
            r.lines.push(format!(
                "latency_p50_us samples: {} over all rounds, fewest in a round {}",
                calls.iter().sum::<usize>(),
                calls.iter().min().expect("at least one round")
            ));
            r.round_median("latency_p50_us", &p50, "us");
        }
        None => r.failures.push("latency_p50_us: a round completed fewer than 20 calls".into()),
    }
    for (name, h) in [
        ("latency_p99_us", &all),
        ("read_latency_p99_us", &reads),
        ("write_latency_p99_us", &writes),
    ] {
        r.percentile(name, h.count(), h.percentile(0.99), 0.99);
    }
    r.round_median("cpu_us_per_txn", &cpu_us, "us");
    r.round_median("setup_s", &per_round(&|rd| rd.setup_s), "s");
    r.metric("peak_rss_mb", procfs::peak_rss_mb(), "MiB");
    r
}

/// Every call issued returned `Committed`, `UserAborted` or an error, and
/// the runtime's own counters agree with the clients'.
fn check_conservation(r: &mut Report, t: &ClientTally, m: &RunMetrics) {
    if t.committed + t.user_aborts + t.failed != t.attempted {
        r.failures.push(format!(
            "conservation: {} attempted != {} committed + {} user aborts + {} failed",
            t.attempted, t.committed, t.user_aborts, t.failed
        ));
    }
    if m.committed != t.committed || m.user_aborts != t.user_aborts {
        r.failures.push(format!(
            "conservation: runtime counted {} committed / {} user aborts, clients {} / {}",
            m.committed, m.user_aborts, t.committed, t.user_aborts
        ));
    }
}

/// TATP never inserts into or deletes from its first three tables.
fn check_static_tables(r: &mut Report, loaded: &Database, after: &Database) {
    use tatp::tables::{ACCESS_INFO, SPECIAL_FACILITY, SUBSCRIBER};
    for table in [SUBSCRIBER, ACCESS_INFO, SPECIAL_FACILITY] {
        let (want, got) = (loaded.total_rows(table), after.total_rows(table));
        if want != got {
            r.failures.push(format!(
                "static table {}: {got} rows after the run, {want} loaded",
                loaded.schema(table).name
            ));
        }
    }
}

/// Recovery figures of a durable run.
struct Recovery {
    total_s: f64,
    scan_ms: Option<f64>,
}

/// Recovers a fresh database from the run's log and checks it equals the
/// database the run shut down with, partition by partition.
fn recover_and_check(
    r: &mut Report,
    w: &Workload,
    cfg: &LiveConfig,
    houdini: Arc<Houdini>,
    expected: &Database,
    scratch: &ScratchDir,
    time_scan: bool,
) -> Recovery {
    let log = cfg.durability.as_ref().expect("durable run").dir.clone();
    let scan_ms = time_scan.then(|| {
        let copy = scratch.sub("scan-copy");
        copy_dir(&log, &copy);
        let t = Instant::now();
        let state = wal::scan(&copy, w.partitions).expect("scan copied command log");
        let ms = t.elapsed().as_secs_f64() * 1e3;
        std::fs::remove_dir_all(&copy).expect("remove log copy");
        r.lines.push(format!("wal::scan: {} records in {ms:.3} ms", state.log_records_scanned));
        ms
    });
    let t = Instant::now();
    let (rt, report) = LiveRuntime::recover(
        w.bench.database(w.partitions),
        w.bench.registry(),
        houdini,
        cfg.clone(),
    );
    let total_s = t.elapsed().as_secs_f64();
    let (_, recovered) = rt.shutdown();
    r.lines.push(format!(
        "recovery: replayed {} skipped {} of {} records in {:.3} ms",
        report.replayed,
        report.skipped,
        report.log_records_scanned,
        total_s * 1e3
    ));
    for p in 0..w.partitions {
        for table in 0..expected.schemas().len() {
            if expected.table(p, table).sorted_rows() != recovered.table(p, table).sorted_rows() {
                r.failures.push(format!(
                    "recovery: partition {p} table {} differs from the shut-down database",
                    expected.schema(table).name
                ));
            }
        }
    }
    Recovery { total_s, scan_ms }
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create log copy directory");
    for entry in std::fs::read_dir(from).expect("read command-log directory") {
        let entry = entry.expect("read command-log entry");
        std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy command-log file");
    }
}

/// The traced run's per-layer metrics: trace spans pooled over the
/// rounds' windows, `RunMetrics` summed over whole rounds, recovery as the
/// median over rounds.
fn layer_metrics(r: &mut Report, rounds: Vec<Round>, m: &RunMetrics, catalog: &engine::Catalog) {
    let mut slice_seconds = [0.0; 2];
    let mut recovery_s = Vec::new();
    let mut scan_ms = Vec::new();
    let mut t = ClientTally::default();
    for round in rounds {
        let secs = round.window.slice_seconds();
        slice_seconds[0] += secs[0];
        slice_seconds[1] += secs[1];
        if let Some(rc) = round.recovery {
            recovery_s.push(rc.total_s);
            scan_ms.push(rc.scan_ms.unwrap_or(0.0));
        }
        t.merge(round.tally);
    }
    let l = &t.layers;
    let calls = l.calls as f64;
    let call_ns = l.call_ns as f64;
    let committed = m.committed as f64;
    r.lines.push(format!(
        "traced calls: {}; RunMetrics cover whole rounds ({} committed)",
        l.calls, m.committed
    ));

    // Advisor.
    let plan_us = sorted(l.plan_us.clone());
    r.percentile("advisor.plan_us_p50", plan_us.len(), percentile(&plan_us, 0.5), 0.5);
    r.percentile("advisor.plan_us_p99", plan_us.len(), percentile(&plan_us, 0.99), 0.99);
    r.metric("advisor.share", ratio(l.advisor_ns as f64, call_ns), "fraction");
    r.metric(
        "advisor.on_query_us_mean",
        ratio(l.on_query_ns as f64 / 1e3, l.on_queries as f64),
        "us",
    );
    r.metric("advisor.plans_per_call", ratio(l.plans as f64, calls), "count");
    let (matched, observed) =
        m.epoch_accuracy.iter().fold((0, 0), |(a, b), e| (a + e.matched, b + e.observed));
    r.lines.push(format!(
        "advisor.accuracy from {} epochs ({matched}/{observed})",
        m.epoch_accuracy.len()
    ));
    r.metric("advisor.accuracy", ratio(matched as f64, observed as f64), "fraction");

    // Procedure execution.
    let batch_us = sorted(l.batch_us.clone());
    let exec_ns = (l.instantiate_ns + l.control_ns + l.batch_self_ns) as f64;
    r.metric("exec.control_us_mean", ratio(l.control_ns as f64 / 1e3, l.controls as f64), "us");
    r.percentile("exec.batch_us_p50", batch_us.len(), percentile(&batch_us, 0.5), 0.5);
    r.percentile("exec.batch_us_p99", batch_us.len(), percentile(&batch_us, 0.99), 0.99);
    r.metric("exec.batches_per_call", ratio(batch_us.len() as f64, calls), "count");
    r.metric("exec.attempts_per_call", ratio(l.attempts as f64, calls), "count");
    r.metric("exec.share", ratio(exec_ns, call_ns), "fraction");

    // Runtime: dispatch from the trace, stages from its own profile.
    let p = &m.profile;
    let dispatch = sorted(l.dispatch_us.clone());
    r.percentile("runtime.dispatch_us_p50", dispatch.len(), percentile(&dispatch, 0.5), 0.5);
    let queue = p.overall_share(Bucket::Queueing);
    let coord = p.overall_share(Bucket::Coordination);
    r.metric("runtime.queue_share", queue, "fraction");
    r.metric("runtime.coord_share", coord, "fraction");
    r.metric("runtime.lock_wait_share", p.overall_coord_share(CoordSub::LockWait), "fraction");
    r.metric("runtime.twopc_share", p.overall_coord_share(CoordSub::TwoPc), "fraction");
    r.metric("runtime.flush_wait_share", p.overall_coord_share(CoordSub::Flush), "fraction");
    r.metric("runtime.other_share", p.overall_share(Bucket::Other), "fraction");
    r.metric("runtime.lock_hold_us_mean", m.lock_hold.mean_us().unwrap_or(0.0), "us");
    r.metric("runtime.distributed_frac", ratio(m.distributed as f64, committed), "fraction");
    r.metric("runtime.speculative_frac", ratio(m.speculative as f64, committed), "fraction");
    r.metric("runtime.no_undo_frac", ratio(m.no_undo as f64, committed), "fraction");
    r.metric("runtime.cascaded_aborts", m.cascaded_aborts as f64, "count");

    // Group commit.
    let write_commits: u64 = m
        .committed_by_proc
        .iter()
        .filter(|(&p, _)| !catalog.proc(p).read_only)
        .map(|(_, &n)| n)
        .sum();
    let device_flushes = m.flushes_total - m.flushes_coalesced;
    r.lines.push(format!(
        "flush: {} demands, {} coalesced, {write_commits} write commits",
        m.flushes_total, m.flushes_coalesced
    ));
    r.metric(
        "flush.commits_per_flush",
        ratio(write_commits as f64, device_flushes as f64),
        "count",
    );
    r.metric(
        "flush.coalesced_frac",
        ratio(m.flushes_coalesced as f64, m.flushes_total as f64),
        "fraction",
    );

    // Command log and recovery.
    let log_bytes = m.log_bytes_written as f64;
    r.metric("wal.bytes_per_record", ratio(log_bytes, m.log_records as f64), "B");
    r.metric("wal.records_per_txn", ratio(m.log_records as f64, committed), "count");
    r.metric("log_bytes_per_txn", ratio(log_bytes, committed), "B");
    let median_or_zero = |v: &[f64]| if v.is_empty() { 0.0 } else { stats::median(v) };
    let replay_ms: Vec<f64> =
        recovery_s.iter().zip(&scan_ms).map(|(s, scan)| s * 1e3 - scan).collect();
    r.metric("recovery_s", median_or_zero(&recovery_s), "s");
    r.metric("recovery.scan_ms", median_or_zero(&scan_ms), "ms");
    r.metric("recovery.replay_ms", median_or_zero(&replay_ms), "ms");

    // Load side and trace accounting.
    r.metric("gen.us_mean", ratio(t.gen_ns as f64 / 1e3, t.gens as f64), "us");
    r.metric("failed_frac", ratio(t.w_failed as f64, t.w_attempted as f64), "fraction");
    let layered = ratio(l.advisor_ns as f64 + exec_ns, call_ns) + queue + coord;
    r.metric("trace.unattributed_share", 1.0 - layered, "fraction");
    let untraced = ratio(t.slice_committed[0] as f64, slice_seconds[0]);
    let traced = ratio(t.slice_committed[1] as f64, slice_seconds[1]);
    r.lines.push(format!("throughput untraced {untraced:.1} tps, traced {traced:.1} tps"));
    r.metric("trace.overhead_frac", 1.0 - ratio(traced, untraced), "fraction");
}
