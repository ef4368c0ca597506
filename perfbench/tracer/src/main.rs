//! `perfbench-tracer`: the compiled half of the benchmark in
//! `perfbench/run.py`.
//!
//! ```text
//! perfbench-tracer gen --kind financial --lines 2000000 --seed 1 --out w.spc
//! perfbench-tracer setup -- simulate --trace w.spc --disks 180 ...
//! perfbench-tracer trace -- simulate --trace w.spc --disks 180 ...
//! perfbench-tracer calib
//! ```
//!
//! `gen` writes a seeded workload trace with the repository's own
//! generators and serializers, after asserting the generator emitted it
//! time-sorted. `setup` times the set-up `spindown-cli simulate` does for
//! the same arguments, as the first work of a fresh process. `trace`
//! replays the whole path `simulate` takes, one public layer function at
//! a time, timing each call from the outside, and checks the outputs and
//! the physics of the result. `calib` times a fixed host-speed reference
//! kernel. Each prints one JSON object on stdout.

use std::fs::File;
use std::io::{BufReader, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use spindown_cli::{Cli, SourceArg};
use spindown_core::cost::CostFunction;
use spindown_core::experiment::{
    build_scheduler, data_space, requests_from_trace, scan_stream, SchedulerKind, StreamScan,
};
use spindown_core::metrics::RunMetrics;
use spindown_core::model::{DiskId, Request};
use spindown_core::offline::evaluate_offline_with_jobs;
use spindown_core::placement::{IslandPartition, PlacementConfig, PlacementMap};
use spindown_core::sched::{MwisPlanner, PlanScratch, ScheduleMode, Scheduler, SystemView};
use spindown_core::system::{
    run_system, run_system_with_jobs, PolicyKind, RequestSource, SystemConfig,
};
use spindown_disk::mechanics::Mechanics;
use spindown_disk::state::DiskPowerState;
use spindown_sim::rng::SimRng;
use spindown_sim::stats::LatencyHistogram;
use spindown_trace::record::{OpKind, Trace, TraceRecord};
use spindown_trace::spc::SpcStream;
use spindown_trace::srt::SrtStream;
use spindown_trace::stream::collect_trace;
use spindown_trace::synth::{CelloLike, FinancialLike};
use spindown_trace::{ParsePolicy, StreamError};

/// Largest relative residual the per-disk energy identity may show.
const ENERGY_TOLERANCE: f64 = 1e-9;

/// Records per ingestion block, as the engines pull them.
const BLOCK: usize = 256;

/// The paper's read rate, reads per second.
const READ_RATE: f64 = 45.0;

/// Distinct data items the generated reads address.
const ITEMS: usize = 30_000;

/// Share of writes in Financial1-like traces; they are parsed, then dropped.
const FINANCIAL_WRITE_FRACTION: f64 = 0.75;

/// ON/OFF sources of Cello-like traces (all reads): ten times the CLI's
/// 24 at the same mean rate. With 24, one heavy-tailed OFF period moves a
/// seed's span and spin cycles by ±15%.
const CELLO_SOURCES: usize = 240;

/// Layers only the event-loop path runs; 0 on the MWIS workload.
const EVENT_LOOP_LAYERS: [&str; 6] = [
    "system.serial_s",
    "system.islands_s",
    "sched.decide_s",
    "sched.calls",
    "sched.placed",
    "sched.wake_share",
];

/// Layers only the offline MWIS path runs; 0 on event-loop workloads.
const MWIS_LAYERS: [&str; 8] = [
    "mwis.build_s",
    "mwis.solve_s",
    "mwis.derive_s",
    "mwis.nodes",
    "mwis.edges",
    "mwis.selected",
    "mwis.minor_faults",
    "offline.eval_s",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen") => gen(&args[1..]),
        Some("setup") => setup_only(&args[1..]),
        Some("trace") => trace(&args[1..]),
        Some("calib") => {
            let mut j = Json::default();
            j.num("calib_s", calibrate());
            Ok(j.finish())
        }
        _ => Err("usage: perfbench-tracer gen|setup|trace|calib ...".to_string()),
    };
    match result {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("perfbench-tracer: {e}");
            std::process::exit(2);
        }
    }
}

// -------------------------------------------------------------- calib

/// Seconds one fixed host-speed reference kernel takes: formats, parses,
/// hashes and sorts 600k SPC-like lines, the mix of work the set-up
/// phases do. It calls no workspace code, so its time tracks only the
/// host, whose speed on a shared machine drifts by ±20% over tens of
/// seconds; `run.py` scales host timings by it.
fn calibrate() -> f64 {
    use std::collections::HashMap;
    use std::fmt::Write as _;
    let t = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut text = String::with_capacity(24 << 20);
    for i in 0..600_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let _ = writeln!(
            text,
            "0,{},8192,r,{}.{:06}",
            x % 30_000,
            i / 45,
            x % 1_000_000
        );
    }
    let mut counts: HashMap<u64, u32> = HashMap::new();
    let mut keys = Vec::with_capacity(600_000);
    for line in text.lines() {
        let mut f = line.split(',');
        let mut field = || f.next().unwrap_or("0");
        let _asu: u16 = field().parse().unwrap_or(0);
        let lba: u64 = field().parse().unwrap_or(0);
        let _size: u64 = field().parse().unwrap_or(0);
        let _op = field();
        let ts: f64 = field().parse().unwrap_or(0.0);
        *counts.entry(lba).or_insert(0) += 1;
        keys.push(lba.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ts.to_bits());
    }
    keys.sort_unstable();
    std::hint::black_box((counts.len(), keys[keys.len() / 2]));
    t.elapsed().as_secs_f64()
}

// ---------------------------------------------------------------- gen

fn gen(args: &[String]) -> Result<String, String> {
    let flag = |name: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or(format!("gen needs {name}"))
    };
    let num = |name: &str| -> Result<f64, String> {
        flag(name)?
            .parse::<f64>()
            .map_err(|_| format!("bad {name}"))
    };
    let lines = num("--lines")? as usize;
    let seed = num("--seed")? as u64;
    let out = PathBuf::from(flag("--out")?);

    let records: Vec<TraceRecord> = match flag("--kind")? {
        "financial" => FinancialLike {
            requests: lines,
            data_items: ITEMS,
            // The read rate is the paper's knob; writes ride on top of it.
            rate: READ_RATE / (1.0 - FINANCIAL_WRITE_FRACTION),
            write_fraction: FINANCIAL_WRITE_FRACTION,
            ..FinancialLike::default()
        }
        .stream(seed)
        .collect(),
        "cello" => {
            let mut like = CelloLike {
                requests: lines,
                data_items: ITEMS,
                write_fraction: 0.0,
                ..CelloLike::default()
            };
            like.arrivals.sources = CELLO_SOURCES;
            // Same mean-rate mapping as `spindown-cli --synthetic cello`.
            like.arrivals.burst_rate =
                READ_RATE / (CELLO_SOURCES as f64 * like.arrivals.on_fraction());
            like.stream(seed).collect()
        }
        other => return Err(format!("unknown --kind {other}")),
    };
    // Streaming scans anchor time at the first record and clamp earlier
    // ones, so an unsorted trace would silently reshape the workload.
    if let Some(i) = records.windows(2).position(|w| w[1].at < w[0].at) {
        return Err(format!(
            "generator emitted record {} before record {i}",
            i + 1
        ));
    }
    let reads = records.iter().filter(|r| r.op == OpKind::Read).count();
    let n = records.len();
    let trace = Trace::from_records(records);
    let text = match extension(&out).as_str() {
        "spc" => spindown_trace::spc::to_string(&trace),
        "srt" => spindown_trace::srt::to_string(&trace),
        other => return Err(format!("unknown trace extension {other:?}")),
    };
    File::create(&out)
        .and_then(|mut f| f.write_all(text.as_bytes()))
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    let mut j = Json::default();
    j.num("lines", n as f64);
    j.num("reads", reads as f64);
    j.num("bytes", text.len() as f64);
    Ok(j.finish())
}

fn extension(path: &Path) -> String {
    path.extension()
        .and_then(|e| e.to_str())
        .unwrap_or("")
        .to_ascii_lowercase()
}

// -------------------------------------------------------------- trace

/// One streaming pass over the trace file, as the CLI opens it.
enum Pass {
    Spc(SpcStream<BufReader<File>>),
    Srt(SrtStream<BufReader<File>>),
}

impl Iterator for Pass {
    type Item = Result<TraceRecord, StreamError>;

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            Pass::Spc(s) => s.next().map(|r| r.map_err(StreamError::from)),
            Pass::Srt(s) => s.next().map(|r| r.map_err(StreamError::from)),
        }
    }
}

fn open(path: &Path) -> Result<Pass, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    let reader = BufReader::new(file);
    match extension(path).as_str() {
        "spc" | "csv" => Ok(Pass::Spc(SpcStream::new(reader, ParsePolicy::Strict))),
        "srt" | "txt" => Ok(Pass::Srt(SrtStream::new(reader, ParsePolicy::Strict))),
        other => Err(format!("unknown trace extension {other:?}")),
    }
}

/// The MWIS path's ingestion: the whole file as the scheduler's requests.
fn materialize(path: &Path) -> Result<Vec<Request>, String> {
    let trace = collect_trace(open(path)?).map_err(|e| e.to_string())?;
    Ok(requests_from_trace(&trace))
}

/// The experiment configuration `spindown-cli simulate` derives from the
/// same arguments (the CLI's private `spec` helper, restated).
struct Spec {
    placement: PlacementConfig,
    scheduler: SchedulerKind,
    system: SystemConfig,
    seed: u64,
}

fn spec_of(cli: &Cli) -> Result<Spec, String> {
    if cli.fleet != "uniform" {
        return Err("the benchmark runs uniform fleets only".into());
    }
    let cost = CostFunction {
        alpha: cli.alpha,
        beta: cli.beta,
    };
    Ok(Spec {
        placement: PlacementConfig {
            disks: cli.disks,
            replication: cli.replication,
            zipf_z: cli.zipf,
        },
        scheduler: cli.scheduler.to_kind(cost, cli.interval_ms),
        system: SystemConfig {
            disks: cli.disks,
            policy: match cli.policy.as_str() {
                "always-on" => PolicyKind::AlwaysOn,
                "adaptive" => PolicyKind::Adaptive,
                "quantile" => PolicyKind::Quantile,
                _ => PolicyKind::Breakeven,
            },
            discipline: cli.discipline,
            seed: cli.seed,
            ..SystemConfig::default()
        },
        seed: cli.seed,
    })
}

/// Times one call.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed().as_secs_f64())
}

/// Minor page faults of this process so far (`/proc/self/stat` field 10).
fn minor_faults() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name start at field 3.
            let rest = &s[s.rfind(')')? + 2..];
            rest.split_whitespace().nth(7)?.parse::<f64>().ok()
        })
        .unwrap_or(f64::NAN)
}

/// Counters of a [`TimedScheduler`], summed over every island's copy.
#[derive(Default)]
struct SchedTotals {
    decide_s: f64,
    calls: u64,
    placed: u64,
    woke: u64,
}

/// Delegates to the scheduler `build_scheduler` makes, timing each
/// decision and counting choices that land on a spun-down disk.
struct TimedScheduler {
    inner: Box<dyn Scheduler>,
    local: SchedTotals,
    totals: Arc<Mutex<SchedTotals>>,
}

impl TimedScheduler {
    fn observe(&mut self, t: Instant, out: &[DiskId], view: &SystemView<'_>) {
        self.local.decide_s += t.elapsed().as_secs_f64();
        self.local.calls += 1;
        self.local.placed += out.len() as u64;
        self.local.woke += out
            .iter()
            .filter(|&&d| {
                matches!(
                    view.status(d).state,
                    DiskPowerState::Standby | DiskPowerState::SpinningDown
                )
            })
            .count() as u64;
    }
}

impl Scheduler for TimedScheduler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn mode(&self) -> ScheduleMode {
        self.inner.mode()
    }

    fn assign(&mut self, reqs: &[Request], view: &SystemView<'_>) -> Vec<DiskId> {
        let mut out = Vec::with_capacity(reqs.len());
        self.assign_into(reqs, view, &mut out);
        out
    }

    fn assign_into(&mut self, reqs: &[Request], view: &SystemView<'_>, out: &mut Vec<DiskId>) {
        let t = Instant::now();
        self.inner.assign_into(reqs, view, out);
        self.observe(t, out, view);
    }
}

impl Drop for TimedScheduler {
    fn drop(&mut self) {
        let mut t = self.totals.lock().expect("scheduler totals lock");
        t.decide_s += self.local.decide_s;
        t.calls += self.local.calls;
        t.placed += self.local.placed;
        t.woke += self.local.woke;
    }
}

/// Named pass/fail outcomes of the traced run.
#[derive(Default)]
struct Checks(Vec<(String, bool, String)>);

impl Checks {
    fn add(&mut self, name: &str, ok: bool, detail: String) {
        self.0.push((name.to_string(), ok, detail));
    }

    /// Two runs of the same workload must agree on everything except the
    /// documented per-island peak fields.
    fn agree(&mut self, name: &str, a: &RunMetrics, b: &RunMetrics) {
        let fields = [
            ("requests", a.requests == b.requests),
            ("horizon_s", a.horizon_s.to_bits() == b.horizon_s.to_bits()),
            ("energy_j", a.energy_j.to_bits() == b.energy_j.to_bits()),
            (
                "always_on_j",
                a.always_on_j.to_bits() == b.always_on_j.to_bits(),
            ),
            ("spinups", a.spinups == b.spinups),
            ("spindowns", a.spindowns == b.spindowns),
            ("response", a.response == b.response),
            ("per_disk", a.per_disk == b.per_disk),
        ];
        let differ: Vec<&str> = fields.iter().filter(|f| !f.1).map(|f| f.0).collect();
        let detail = if differ.is_empty() {
            "bit-identical".to_string()
        } else {
            format!("differ on {}", differ.join(", "))
        };
        self.add(name, differ.is_empty(), detail);
    }
}

/// The physics of a finished run, checked from outside: per-disk energy
/// equals the horizon times the state-fraction-weighted power, and every
/// request completes exactly once.
fn physics(m: &RunMetrics, config: &SystemConfig, reads: usize, checks: &mut Checks) {
    let mut worst = 0.0f64;
    let mut worst_disk = 0usize;
    for (d, s) in m.per_disk.iter().enumerate() {
        let p = config.effective_power(d as u32);
        let watts = [
            (DiskPowerState::Active, p.active_w),
            (DiskPowerState::Idle, p.idle_w),
            (DiskPowerState::Standby, p.standby_w),
            (DiskPowerState::SpinningUp, p.spinup_j / p.spinup_s),
            (DiskPowerState::SpinningDown, p.spindown_j / p.spindown_s),
        ];
        let expected: f64 = m.horizon_s
            * watts
                .iter()
                .map(|&(state, w)| s.state_fractions[state.index()] * w)
                .sum::<f64>();
        let residual = (s.energy_j - expected).abs() / s.energy_j.abs().max(f64::MIN_POSITIVE);
        // A NaN residual must fail the check, not slip past `>`.
        if residual.is_nan() || residual > worst {
            worst = residual;
            worst_disk = d;
        }
    }
    checks.add(
        "energy_identity",
        worst <= ENERGY_TOLERANCE && m.per_disk.len() == config.disks as usize,
        format!(
            "{} disks, worst relative residual {worst:e} on disk {worst_disk}",
            m.per_disk.len()
        ),
    );
    let served: u64 = m.per_disk.iter().map(|s| s.requests).sum();
    let completed = m.response.count();
    checks.add(
        "complete_once",
        served == completed && completed == reads as u64 && m.requests == reads,
        format!(
            "per-disk requests {served}, histogram count {completed}, run requests {}, reads {reads}",
            m.requests
        ),
    );
}

/// 99th-percentile response, seconds, log-interpolated between the two
/// inverse-CDF points of the response histogram that bracket it.
/// [`LatencyHistogram::quantile`] returns the bracketing bucket's upper
/// edge, which moves in 25% steps, so a real shift of the tail inside
/// one bucket would not show.
fn p99_interpolated(h: &LatencyHistogram) -> f64 {
    const ABOVE: f64 = 0.01;
    let points = h.inverse_cdf();
    for w in points.windows(2) {
        let ((x0, a0), (x1, a1)) = (w[0], w[1]);
        if a0 > ABOVE && a1 <= ABOVE {
            return x0 * (x1 / x0).powf((a0 - ABOVE) / (a0 - a1));
        }
    }
    h.quantile(1.0 - ABOVE)
}

/// The report lines `spindown-cli simulate` prints for these metrics.
fn report_lines(reads: usize, span_s: f64, m: &RunMetrics) -> Vec<String> {
    vec![
        format!("workload : {reads} reads over {span_s:.0} s"),
        format!("energy          : {:.1} kJ", m.energy_j / 1000.0),
        format!("vs always-on    : {:.1}%", m.normalized_energy() * 100.0),
        format!("spin-up/downs   : {}", m.spin_cycles()),
        format!("response mean   : {:.1} ms", m.response_mean_s() * 1000.0),
        format!("response p90    : {:.1} ms", m.response_p90_s() * 1000.0),
        format!("response max    : {:.1} s", m.response.max()),
        format!(
            "standby share   : {:.1}% (mean across disks)",
            m.mean_standby_fraction() * 100.0
        ),
    ]
}

/// The CLI arguments after `--`, with the trace file they name.
fn cli_of(args: &[String]) -> Result<(PathBuf, Spec), String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("needs `-- simulate <cli args>`")?;
    let cli = Cli::parse(&args[split + 1..]).map_err(|e| format!("cli arguments: {e}"))?;
    let SourceArg::TraceFile(path) = &cli.source else {
        return Err("the benchmark needs --trace <file>".into());
    };
    Ok((path.clone(), spec_of(&cli)?))
}

fn stream_err(e: StreamError) -> String {
    e.to_string()
}

/// What the set-up hands to the engine (event loop) or planner (MWIS).
enum SetUp {
    EventLoop {
        scan: StreamScan,
        placement: PlacementMap,
        partition: IslandPartition,
    },
    Offline {
        requests: Vec<Request>,
        placement: PlacementMap,
    },
}

/// Everything `simulate` does before the first request reaches the
/// engine or planner, with its total and per-phase seconds.
fn set_up(path: &Path, spec: &Spec) -> Result<(SetUp, f64, Json), String> {
    let mut phases = Json::default();
    let t = Instant::now();
    let state = if build_scheduler(&spec.scheduler, spec.seed).is_some() {
        let (scan, s) = timed(|| scan_stream(open(path)?).map_err(stream_err));
        let scan = scan?;
        let (placement, b) =
            timed(|| PlacementMap::build(scan.data_space(), &spec.placement, spec.seed));
        let (partition, p) = timed(|| IslandPartition::from_provider(&placement));
        phases.num("experiment.scan_s", s);
        phases.num("placement.build_s", b);
        phases.num("placement.partition_s", p);
        SetUp::EventLoop {
            scan,
            placement,
            partition,
        }
    } else {
        let (requests, m) = timed(|| materialize(path));
        let requests = requests?;
        let (placement, b) =
            timed(|| PlacementMap::build(data_space(&requests), &spec.placement, spec.seed));
        phases.num("experiment.materialize_s", m);
        phases.num("placement.build_s", b);
        SetUp::Offline {
            requests,
            placement,
        }
    };
    Ok((state, t.elapsed().as_secs_f64(), phases))
}

/// One set-up, the first work of this process, so it pays the cold
/// allocator and page faults the CLI pays.
fn setup_only(args: &[String]) -> Result<String, String> {
    let (path, spec) = cli_of(args)?;
    let (_, setup_s, phases) = set_up(&path, &spec)?;
    let mut out = Json::default();
    out.num("setup_s", setup_s);
    out.raw("phases", &phases.finish());
    Ok(out.finish())
}

fn trace(args: &[String]) -> Result<String, String> {
    let (path, spec) = cli_of(args)?;
    let path = path.as_path();
    let mut layers = Json::default();
    let mut checks = Checks::default();

    // Parse layer: drain the record stream and nothing else.
    let (counted, parse_s) = timed(|| -> Result<(usize, usize), String> {
        let (mut lines, mut reads) = (0usize, 0usize);
        for r in open(path)? {
            lines += 1;
            reads += usize::from(r.map_err(stream_err)?.op == OpKind::Read);
        }
        Ok((lines, reads))
    });
    let (lines, reads) = counted?;
    layers.num("trace.parse_s", parse_s);
    layers.num("trace.lines", lines as f64);
    layers.num("trace.reads", reads as f64);

    // The set-up phases on this workload's path; `run.py` replaces them
    // with the medians of its cold `setup` processes. The phases off the
    // path run here once, so every workload reports every layer.
    let (state, _, phases) = set_up(path, &spec)?;
    layers.extend(phases);
    let event_loop = matches!(state, SetUp::EventLoop { .. });
    let (scan, placement, partition, materialized) = match state {
        SetUp::EventLoop {
            scan,
            placement,
            partition,
        } => {
            let (requests, m) = timed(|| materialize(path));
            layers.num("experiment.materialize_s", m);
            (scan, placement, partition, requests?)
        }
        SetUp::Offline {
            requests,
            placement,
        } => {
            let (scan, s) = timed(|| scan_stream(open(path)?).map_err(stream_err));
            let (partition, p) = timed(|| IslandPartition::from_provider(&placement));
            layers.num("experiment.scan_s", s);
            layers.num("placement.partition_s", p);
            (scan?, placement, partition, requests)
        }
    };

    // Decode layer: the second streaming pass, drained block by block.
    let second = scan.clone();
    let (decoded, decode_s) = timed(|| -> Result<Vec<Request>, String> {
        let mut source = second.requests(open(path)?);
        let mut out = Vec::with_capacity(scan.reads());
        let mut block = Vec::with_capacity(BLOCK);
        loop {
            block.clear();
            if let Some(e) = source.fill_block(&mut block, BLOCK) {
                return Err(e.0);
            }
            out.extend_from_slice(&block);
            if block.len() < BLOCK {
                return Ok(out);
            }
        }
    });
    let decoded = decoded?;
    checks.add(
        "decode_matches_materialize",
        decoded == materialized,
        format!(
            "{} streamed vs {} materialized requests",
            decoded.len(),
            materialized.len()
        ),
    );
    layers.num("experiment.decode_s", decode_s);
    layers.num("experiment.data_space", scan.data_space() as f64);
    layers.num("placement.islands", partition.n_islands() as f64);
    drop(materialized);

    let config = SystemConfig {
        disks: spec.placement.disks,
        ..spec.system.clone()
    };
    let (m, span_s) = if event_loop {
        let requests = &decoded;
        let make = || build_scheduler(&spec.scheduler, spec.seed).expect("event-loop scheduler");
        let mut serial_sched = make();
        let (serial, serial_s) =
            timed(|| run_system(requests, &placement, &mut *serial_sched, &config));
        let (islands, islands_s) =
            timed(|| run_system_with_jobs(requests, &placement, &make, &config, 1));
        // A third, instrumented replay, so the timers never touch the
        // two timed above.
        let totals = Arc::new(Mutex::new(SchedTotals::default()));
        let timed_factory = || -> Box<dyn Scheduler> {
            Box::new(TimedScheduler {
                inner: make(),
                local: SchedTotals::default(),
                totals: Arc::clone(&totals),
            })
        };
        let wrapped = run_system_with_jobs(requests, &placement, &timed_factory, &config, 1);
        let sched = std::mem::take(&mut *totals.lock().expect("scheduler totals lock"));
        checks.agree("serial_matches_islands", &serial, &islands);
        checks.agree("timed_scheduler_transparent", &islands, &wrapped);
        layers.num("system.serial_s", serial_s);
        layers.num("system.islands_s", islands_s);
        layers.num("sched.decide_s", sched.decide_s);
        layers.num("sched.calls", sched.calls as f64);
        layers.num("sched.placed", sched.placed as f64);
        layers.num(
            "sched.wake_share",
            sched.woke as f64 / sched.placed.max(1) as f64,
        );
        layers.zeros(&MWIS_LAYERS);
        (islands, scan.span_s())
    } else {
        let requests = &decoded;
        let SchedulerKind::Mwis {
            solver,
            max_successors,
        } = spec.scheduler
        else {
            unreachable!("only MWIS has no event-loop scheduler");
        };
        let planner = MwisPlanner {
            params: spec.system.power.clone(),
            solver,
            max_successors,
        };
        let faults = minor_faults();
        let (cg, build_s) = timed(|| planner.build_graph(requests, &placement));
        let mut scratch = PlanScratch::new();
        let ((), solve_s) = timed(|| planner.solve_into(&cg, &mut scratch));
        let faults = minor_faults() - faults;
        let ((assignment, _), derive_s) = timed(|| {
            planner.derive_plan(
                requests,
                &placement,
                &cg.graph,
                &cg.nodes,
                &scratch.selected,
            )
        });
        layers.num("mwis.build_s", build_s);
        layers.num("mwis.solve_s", solve_s);
        layers.num("mwis.derive_s", derive_s);
        layers.num("mwis.nodes", cg.graph.len() as f64);
        layers.num("mwis.edges", cg.graph.edge_count() as f64);
        layers.num("mwis.selected", scratch.selected.len() as f64);
        layers.num("mwis.minor_faults", faults);
        drop(cg);
        let mechanics = Mechanics::new(
            spec.system.geometry.clone(),
            SimRng::seed_from_u64(spec.seed),
        );
        let (m, eval_s) = timed(|| {
            evaluate_offline_with_jobs(
                requests,
                &assignment,
                spec.placement.disks,
                &spec.system.power,
                None,
                Some(&mechanics),
                1,
            )
        });
        layers.num("offline.eval_s", eval_s);
        layers.zeros(&EVENT_LOOP_LAYERS);
        (
            m,
            requests.last().map(|r| r.at.as_secs_f64()).unwrap_or(0.0),
        )
    };
    physics(&m, &config, reads, &mut checks);

    let mut sim = Json::default();
    sim.num("sim.energy_vs_always_on", m.normalized_energy());
    sim.num(
        "sim.response_p99_ms",
        p99_interpolated(&m.response) * 1000.0,
    );
    sim.num("sim.spin_cycles", m.spin_cycles() as f64);

    let mut out = Json::default();
    out.num("lines", lines as f64);
    out.num("reads", reads as f64);
    out.raw("layers", &layers.finish());
    out.raw("sim", &sim.finish());
    let lines_json: Vec<String> = report_lines(reads, span_s, &m)
        .iter()
        .map(|l| Json::string(l))
        .collect();
    out.raw("report_lines", &format!("[{}]", lines_json.join(", ")));
    let checks_json: Vec<String> = checks
        .0
        .iter()
        .map(|(name, ok, detail)| {
            let mut c = Json::default();
            c.raw("name", &Json::string(name));
            c.raw("ok", if *ok { "true" } else { "false" });
            c.raw("detail", &Json::string(detail));
            c.finish()
        })
        .collect();
    out.raw("checks", &format!("[{}]", checks_json.join(", ")));
    Ok(out.finish())
}

/// Minimal JSON object writer (the workspace has no serde).
#[derive(Default)]
struct Json(Vec<String>);

impl Json {
    fn num(&mut self, key: &str, v: f64) {
        let value = if v.is_finite() {
            format!("{v}")
        } else {
            "null".into()
        };
        self.raw(key, &value);
    }

    fn extend(&mut self, other: Json) {
        self.0.extend(other.0);
    }

    fn zeros(&mut self, keys: &[&str]) {
        for key in keys {
            self.num(key, 0.0);
        }
    }

    fn raw(&mut self, key: &str, value: &str) {
        self.0.push(format!("{}: {value}", Json::string(key)));
    }

    fn string(s: &str) -> String {
        let mut out = String::from("\"");
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    fn finish(&self) -> String {
        format!("{{{}}}", self.0.join(", "))
    }
}
