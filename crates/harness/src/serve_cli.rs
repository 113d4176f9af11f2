//! Engine behind `harness serve` and `harness serve-client`.
//!
//! Both subcommands' flag parsers live here next to what they configure:
//! daemon startup, the trace-streaming client, and the `--selftest`
//! harness, all unit- and integration-testable without spawning a process.
//!
//! The selftest is the round-trip oath of the serving layer: it records
//! the profile-mode benchmark streams into a temporary trace container,
//! starts an in-process daemon, streams every benchmark through its own
//! session concurrently, and fails unless each returned report is
//! bit-identical (counters *and* the divided accuracy/coverage floats)
//! to the same-seed one-shot profile run.

use std::path::{Path, PathBuf};

use obs::JsonValue;
use predictors::Capacity;
use serve::{client, ServeConfig, Server, SessionParams};
use tracefile::TraceReader;
use workloads::{Benchmark, SyntheticSource, TraceSource};

use crate::cli::{Args, Usage};
use crate::profile::run_profile_on;
use crate::RunParams;

/// Options for `harness serve`.
#[derive(Debug, Clone)]
pub struct ServeOpts {
    /// `--socket PATH`: Unix-domain socket to listen on.
    pub socket: Option<PathBuf>,
    /// `--stdio`: single-session mode over stdin/stdout.
    pub stdio: bool,
    /// `--selftest`: run the record→stream→diff round trip and exit.
    pub selftest: bool,
    /// `--max-sessions N` (daemon cap, and selftest concurrency wave size).
    pub max_sessions: usize,
    /// `--queue-depth N`: bounded per-session inbound chunk queue.
    pub queue_depth: usize,
    /// `--global-queue N`: bound on queued chunks across all sessions.
    pub global_queue: usize,
    /// `--scale F` (selftest only): run-size multiplier.
    pub scale: f64,
    /// `--seed N` (selftest only): workload seed.
    pub seed: u64,
    /// `--log PATH`: write the structured journal here (live-only; the
    /// served reports stay byte-identical with logging on or off).
    pub log: Option<PathBuf>,
    /// `--log-level LEVEL`: minimum journal level (default `info`).
    pub log_level: obs::log::Level,
}

impl Default for ServeOpts {
    fn default() -> Self {
        let cfg = ServeConfig::default();
        ServeOpts {
            socket: None,
            stdio: false,
            selftest: false,
            max_sessions: cfg.max_sessions,
            queue_depth: cfg.queue_depth,
            global_queue: cfg.global_queue,
            scale: 1.0,
            seed: 42,
            log: None,
            log_level: obs::log::Level::Info,
        }
    }
}

impl ServeOpts {
    /// The daemon configuration these options describe.
    pub fn config(&self) -> ServeConfig {
        ServeConfig {
            max_sessions: self.max_sessions,
            queue_depth: self.queue_depth,
            global_queue: self.global_queue,
        }
    }
}

/// Parses `harness serve` arguments.
pub fn parse_serve_args(args: &mut Args) -> Result<ServeOpts, Usage> {
    let mut opts = ServeOpts::default();
    while let Some(a) = args.token()? {
        match a.as_str() {
            "--socket" => opts.socket = Some(args.string(&a)?.into()),
            "--stdio" => opts.stdio = true,
            "--selftest" => opts.selftest = true,
            "--max-sessions" => opts.max_sessions = args.count(&a)?,
            "--queue-depth" => opts.queue_depth = args.count(&a)?,
            "--global-queue" => opts.global_queue = args.count(&a)?,
            "--scale" => opts.scale = args.parse(&a)?,
            "--seed" => opts.seed = args.parse(&a)?,
            "--log" => opts.log = Some(args.string(&a)?.into()),
            "--log-level" => opts.log_level = args.level(&a)?,
            other => return Err(args.unknown(other)),
        }
    }
    let modes = opts.socket.is_some() as u8 + opts.stdio as u8 + opts.selftest as u8;
    match modes {
        0 => Err("serve needs --socket PATH, --stdio, or --selftest".into()),
        1 => {
            if let Some(socket) = &opts.socket {
                check_socket_path(socket)?;
            }
            Ok(opts)
        }
        _ => Err("--socket, --stdio, and --selftest are mutually exclusive".into()),
    }
}

/// What `harness serve-client` should do, in execution order: stream
/// sessions first, then the control requests.
#[derive(Debug, Clone, Default)]
pub struct ServeClientOpts {
    /// `--socket PATH`: the daemon to talk to.
    pub socket: PathBuf,
    /// `--trace FILE`: stream every stream of a recorded container, one
    /// session per stream.
    pub trace: Option<PathBuf>,
    /// `--stream BENCH`: synthesize and stream one benchmark.
    pub stream: Option<Benchmark>,
    /// `--session NAME`: session-name override (single-session modes).
    pub session: Option<String>,
    /// `--window N`: max unacknowledged chunks in flight.
    pub window: u64,
    /// `--warmup N` / `--measure N`: profile-loop overrides (defaults
    /// come from trace metadata, or the scaled profile defaults).
    pub warmup: Option<u64>,
    /// See [`ServeClientOpts::warmup`].
    pub measure: Option<u64>,
    /// `--scale F` / `--seed N`: synthesis parameters for `--stream`.
    pub scale: f64,
    /// See [`ServeClientOpts::scale`].
    pub seed: u64,
    /// `--status`: print the daemon's status frame.
    pub status: bool,
    /// `--metrics`: print the daemon's Prometheus exposition.
    pub metrics: bool,
    /// `--health`: print the daemon's per-session health overview.
    pub health: bool,
    /// `--shutdown`: ask the daemon to drain and exit.
    pub shutdown: bool,
    /// `--corrupt-chunk N`: flip one payload byte in chunk N before
    /// sending it — a deterministic way to exercise the server's
    /// corrupt-chunk kill path (and its journal record) from the CLI.
    pub corrupt_chunk: Option<usize>,
    /// `--drift-probe`: synthesize a two-phase session (predictable
    /// strides, then an unpredictable tail) that trips the online drift
    /// detector; exits nonzero unless the daemon reports it drifting.
    pub drift_probe: bool,
}

/// Parses `harness serve-client` arguments.
pub fn parse_serve_client_args(args: &mut Args) -> Result<ServeClientOpts, Usage> {
    let mut opts = ServeClientOpts {
        window: 4,
        scale: 1.0,
        seed: 42,
        ..ServeClientOpts::default()
    };
    let mut socket = None;
    while let Some(a) = args.token()? {
        match a.as_str() {
            "--socket" => socket = Some(args.string(&a)?.into()),
            "--trace" => opts.trace = Some(args.string(&a)?.into()),
            "--stream" => opts.stream = Some(benchmark_named(&args.string(&a)?)?),
            "--session" => opts.session = Some(args.string(&a)?),
            "--window" => opts.window = args.count(&a)?,
            "--warmup" => opts.warmup = Some(args.parse(&a)?),
            "--measure" => opts.measure = Some(args.parse(&a)?),
            "--scale" => opts.scale = args.parse(&a)?,
            "--seed" => opts.seed = args.parse(&a)?,
            "--status" => opts.status = true,
            "--metrics" => opts.metrics = true,
            "--health" => opts.health = true,
            "--shutdown" => opts.shutdown = true,
            "--corrupt-chunk" => opts.corrupt_chunk = Some(args.parse(&a)?),
            "--drift-probe" => opts.drift_probe = true,
            other => return Err(args.unknown(other)),
        }
    }
    opts.socket = socket.ok_or("serve-client needs --socket PATH")?;
    let stream_modes =
        opts.trace.is_some() as u8 + opts.stream.is_some() as u8 + opts.drift_probe as u8;
    if stream_modes > 1 {
        return Err("--trace, --stream, and --drift-probe are mutually exclusive".into());
    }
    if opts.corrupt_chunk.is_some() && stream_modes == 0 {
        return Err("--corrupt-chunk needs a stream to corrupt (--trace or --stream)".into());
    }
    let acts_only = opts.status || opts.metrics || opts.health || opts.shutdown;
    if stream_modes == 0 && !acts_only {
        return Err(
            "serve-client needs something to do: --trace, --stream, --drift-probe, \
             --status, --metrics, --health, or --shutdown"
                .into(),
        );
    }
    Ok(opts)
}

/// A socket path the daemon can actually bind: its parent directory must
/// exist (the daemon creates the socket file, not the directory).
fn check_socket_path(path: &Path) -> Result<(), String> {
    let parent = match path.parent() {
        Some(p) if p.as_os_str().is_empty() => Path::new("."),
        Some(p) => p,
        None => Path::new("."),
    };
    if !parent.is_dir() {
        return Err(format!(
            "--socket: directory {} does not exist",
            parent.display()
        ));
    }
    Ok(())
}

fn benchmark_named(name: &str) -> Result<Benchmark, String> {
    Benchmark::ALL
        .into_iter()
        .find(|b| b.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            let names: Vec<&str> = Benchmark::ALL.iter().map(|b| b.name()).collect();
            format!(
                "--stream: unknown benchmark '{name}' (one of: {})",
                names.join(" ")
            )
        })
}

/// Runs `harness serve`. `Err` is a runtime failure (exit 1).
pub fn run_serve(opts: &ServeOpts) -> Result<(), String> {
    let journal = enable_journal(opts.log.as_deref(), opts.log_level)?;
    let result = run_serve_inner(opts);
    if let Some(path) = journal {
        let write_errors = obs::log::disable();
        if write_errors > 0 {
            eprintln!("journal {}: {write_errors} write errors", path.display());
        }
    }
    result
}

/// Turns the global journal on when `--log` was given; returns the path
/// so the caller knows to disable (and flush) it on the way out.
pub fn enable_journal(
    path: Option<&Path>,
    level: obs::log::Level,
) -> Result<Option<PathBuf>, String> {
    let Some(path) = path else { return Ok(None) };
    let cfg = obs::log::LogConfig {
        level,
        file: Some(path.to_path_buf()),
        ..obs::log::LogConfig::default()
    };
    obs::log::enable(&cfg).map_err(|e| format!("cannot open journal {}: {e}", path.display()))?;
    Ok(Some(path.to_path_buf()))
}

fn run_serve_inner(opts: &ServeOpts) -> Result<(), String> {
    if opts.selftest {
        return run_selftest(opts);
    }
    if opts.stdio {
        serve::serve_stdio(
            Box::new(std::io::stdin()),
            Box::new(std::io::stdout()),
            opts.config(),
        );
        return Ok(());
    }
    let socket = opts.socket.as_ref().expect("parse guarantees a mode");
    let server = Server::bind(socket, opts.config())
        .map_err(|e| format!("cannot bind {}: {e}", socket.display()))?;
    obs::log::info(
        "serve.daemon",
        "daemon listening",
        &[
            ("max_sessions", obs::log::Value::from(opts.max_sessions)),
            ("queue_depth", obs::log::Value::from(opts.queue_depth)),
            ("global_queue", obs::log::Value::from(opts.global_queue)),
        ],
    );
    eprintln!(
        "gdiffd listening on {} (max-sessions {}, queue-depth {}, global-queue {})",
        socket.display(),
        opts.max_sessions,
        opts.queue_depth,
        opts.global_queue
    );
    server
        .run()
        .map_err(|e| format!("serve failed on {}: {e}", socket.display()))
}

/// One streamable session: a name, its wire chunks, and the profile-loop
/// bounds to run them under.
struct SessionJob {
    name: String,
    chunks: Vec<Vec<u8>>,
    warmup: u64,
    measure: u64,
}

impl SessionJob {
    fn params(&self) -> SessionParams {
        SessionParams {
            name: self.name.clone(),
            warmup: self.warmup,
            measure: self.measure,
            ..SessionParams::default()
        }
    }
}

/// Gathers one job per recorded stream from a trace container. Warmup and
/// measure default to the container's recorded profile parameters.
fn jobs_from_trace(opts: &ServeClientOpts) -> Result<Vec<SessionJob>, String> {
    let path = opts.trace.as_ref().expect("caller checked --trace");
    let mut reader =
        TraceReader::open(path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    let meta = JsonValue::parse(reader.meta()).unwrap_or_else(|_| JsonValue::object());
    let meta_u64 = |key: &str| meta.path(key).and_then(|v| v.as_f64()).map(|v| v as u64);
    let warmup = opts
        .warmup
        .or_else(|| meta_u64("profile.warmup"))
        .unwrap_or(0);
    let measure = opts
        .measure
        .or_else(|| meta_u64("profile.measure"))
        .unwrap_or(u64::MAX);

    let streams: Vec<String> = reader.streams().iter().map(|s| s.name.clone()).collect();
    if let (Some(session), true) = (&opts.session, streams.len() > 1) {
        return Err(format!(
            "--session {session} is ambiguous: {} has {} streams",
            path.display(),
            streams.len()
        ));
    }
    let chunk_ids: Vec<(u32, usize)> = reader
        .chunks()
        .iter()
        .enumerate()
        .map(|(i, c)| (c.stream_id, i))
        .collect();
    let mut jobs = Vec::new();
    for (sid, name) in streams.into_iter().enumerate() {
        let mut chunks = Vec::new();
        for (stream_id, i) in &chunk_ids {
            if *stream_id as usize == sid {
                let raw = reader
                    .read_chunk_raw(*i)
                    .map_err(|e| format!("cannot read chunk {i} of {}: {e}", path.display()))?;
                chunks.push(raw);
            }
        }
        if chunks.is_empty() {
            continue;
        }
        jobs.push(SessionJob {
            name: opts.session.clone().unwrap_or(name),
            chunks,
            warmup,
            measure,
        });
    }
    Ok(jobs)
}

/// Raw instructions covering `warmup + measure` value producers.
fn raw_prefix(bench: Benchmark, seed: u64, producers: u64) -> Vec<workloads::DynInst> {
    let source = SyntheticSource::new(seed);
    let mut out = Vec::new();
    let mut seen = 0u64;
    for inst in source.stream(bench) {
        let produces = inst.produces_value();
        out.push(inst);
        if produces {
            seen += 1;
            if seen == producers {
                break;
            }
        }
    }
    out
}

/// Instructions per wire chunk for synthesized streams: small enough that
/// a session spans many chunks, large enough to amortize framing.
const SYNTH_CHUNK_LEN: usize = 4_096;

/// Builds the job for a synthesized `--stream BENCH` session.
fn job_from_stream(opts: &ServeClientOpts) -> SessionJob {
    let bench = opts.stream.expect("caller checked --stream");
    let defaults = scaled_profile(opts.scale, opts.seed);
    let warmup = opts.warmup.unwrap_or(defaults.warmup);
    let measure = opts.measure.unwrap_or(defaults.measure);
    let insts = raw_prefix(bench, opts.seed, warmup.saturating_add(measure));
    let chunks = insts
        .chunks(SYNTH_CHUNK_LEN)
        .map(|c| tracefile::encode_wire_chunk(c, 0))
        .collect();
    SessionJob {
        name: opts
            .session
            .clone()
            .unwrap_or_else(|| bench.name().to_string()),
        chunks,
        warmup,
        measure,
    }
}

fn scaled_profile(scale: f64, seed: u64) -> RunParams {
    let mut p = RunParams::profile_default().scaled(scale);
    p.seed = seed;
    p
}

/// Value producers per `--drift-probe` phase (after warmup): a stable
/// constant-stride run long enough to pin the baseline near 1.0, then an
/// unpredictable tail long enough to push Page–Hinkley past its alarm.
const PROBE_STABLE: u64 = 512;
/// See [`PROBE_STABLE`].
const PROBE_NOISE: u64 = 512;

/// Builds the `--drift-probe` job: one PC walking a constant stride
/// (gDiff predicts it perfectly once warm), then a xorshift64 value walk
/// no stride predictor can follow. The mid-stream family switch is the
/// textbook input the online drift detector exists to catch.
fn job_from_drift_probe(opts: &ServeClientOpts) -> SessionJob {
    let warmup = opts.warmup.unwrap_or(256);
    let stable = warmup + PROBE_STABLE;
    let measure = opts.measure.unwrap_or(stable + PROBE_NOISE - warmup);
    let mut insts = Vec::with_capacity((stable + PROBE_NOISE) as usize);
    let pc = 0x4000_0000u64;
    let mut value = 0u64;
    for _ in 0..stable {
        value = value.wrapping_add(8);
        insts.push(workloads::DynInst::alu(pc, 1, [Some(1), None], value));
    }
    let mut x = opts.seed | 1;
    for _ in 0..PROBE_NOISE {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        insts.push(workloads::DynInst::alu(pc, 1, [Some(1), None], x));
    }
    let chunks = insts
        .chunks(SYNTH_CHUNK_LEN)
        .map(|c| tracefile::encode_wire_chunk(c, 0))
        .collect();
    SessionJob {
        name: opts
            .session
            .clone()
            .unwrap_or_else(|| "drift-probe".to_string()),
        chunks,
        warmup,
        measure,
    }
}

/// Runs `harness serve-client`: streams the requested sessions, then the
/// control requests, printing one JSON document (or the raw exposition)
/// per action to stdout. `Err` is a runtime failure (exit 1).
pub fn run_serve_client(opts: &ServeClientOpts) -> Result<(), String> {
    let mut jobs = if opts.trace.is_some() {
        jobs_from_trace(opts)?
    } else if opts.stream.is_some() {
        vec![job_from_stream(opts)]
    } else if opts.drift_probe {
        vec![job_from_drift_probe(opts)]
    } else {
        Vec::new()
    };
    if let Some(n) = opts.corrupt_chunk {
        for job in &mut jobs {
            let total = job.chunks.len();
            let chunk = job
                .chunks
                .get_mut(n)
                .ok_or_else(|| format!("--corrupt-chunk {n}: session has {total} chunks"))?;
            let mid = chunk.len() / 2;
            chunk[mid] ^= 0x01;
        }
    }

    let connect = || {
        client::connect(&opts.socket)
            .map_err(|e| format!("cannot connect to {}: {e}", opts.socket.display()))
    };
    // The daemon closes a connection when its session ends, so each
    // session — and the trailing control conversation — dials fresh.
    for job in &jobs {
        let (mut r, mut w) = connect()?;
        let out = client::run_session(
            &mut r,
            &mut w,
            &job.params(),
            &job.chunks,
            opts.window,
            None,
        )
        .map_err(|e| format!("session {}: {e}", job.name))?;
        eprintln!(
            "session {}: {} chunks, {} acks, {} busy",
            job.name,
            job.chunks.len(),
            out.acks,
            out.busy
        );
        println!("{}", out.report.to_json());
    }
    if opts.drift_probe {
        let (mut r, mut w) = connect()?;
        let overview = client::fetch_health(&mut r, &mut w).map_err(|e| format!("health: {e}"))?;
        let name = jobs.first().map(|j| j.name.as_str()).unwrap_or("");
        check_drift_probe(&overview, name)?;
    }
    if opts.status || opts.metrics || opts.health || opts.shutdown {
        let (mut r, mut w) = connect()?;
        if opts.status {
            let status =
                client::fetch_status(&mut r, &mut w).map_err(|e| format!("status: {e}"))?;
            println!("{}", status.to_json());
        }
        if opts.metrics {
            let text =
                client::fetch_metrics(&mut r, &mut w).map_err(|e| format!("metrics: {e}"))?;
            print!("{text}");
        }
        if opts.health {
            let health =
                client::fetch_health(&mut r, &mut w).map_err(|e| format!("health: {e}"))?;
            println!("{}", health.to_json());
        }
        if opts.shutdown {
            let ack =
                client::request_shutdown(&mut r, &mut w).map_err(|e| format!("shutdown: {e}"))?;
            println!("{}", ack.to_json());
        }
    }
    Ok(())
}

/// The probe's verdict: the daemon must remember the probe session as
/// drifting (≥ 1 Page–Hinkley alarm). Prints the session's health JSON
/// either way so failures are diagnosable.
fn check_drift_probe(overview: &JsonValue, name: &str) -> Result<(), String> {
    let sessions = overview
        .path("sessions")
        .and_then(|s| s.as_arr())
        .ok_or("health overview missing `sessions`")?;
    let entry = sessions
        .iter()
        .find(|s| s.path("session").and_then(|n| n.as_str()) == Some(name))
        .ok_or_else(|| format!("drift probe: session {name} missing from health overview"))?;
    println!("{}", entry.to_json());
    let alarms = entry
        .path("drift_alarms")
        .and_then(|a| a.as_f64())
        .unwrap_or(0.0);
    if alarms < 1.0 {
        return Err(format!(
            "drift probe: session {name} never tripped the drift detector (state {})",
            entry.path("state").and_then(|s| s.as_str()).unwrap_or("?")
        ));
    }
    eprintln!("drift probe: {name} drifted as expected ({alarms} alarms)");
    Ok(())
}

/// One benchmark's selftest verdict against the one-shot reference: the
/// §3 profile run the harness does directly, with the same default
/// predictor shape a served session builds.
fn check_report(
    report: &JsonValue,
    bench: Benchmark,
    seed: u64,
    warmup: u64,
    measure: u64,
) -> Result<(), String> {
    let defaults = SessionParams::default();
    let mut p =
        gdiff::GDiffPredictor::with_delay(Capacity::Unbounded, defaults.order, defaults.delay);
    let params = RunParams {
        seed,
        warmup,
        measure,
    };
    let direct = run_profile_on(&SyntheticSource::new(seed), bench, &mut p, params);
    // Bit-identical numbers: same counters, same division, same bits.
    for (key, want) in [
        ("total", direct.total() as f64),
        ("predicted", direct.predicted() as f64),
        ("correct", direct.correct() as f64),
        ("accuracy", direct.accuracy()),
        ("coverage", direct.coverage()),
    ] {
        let got = report
            .path(key)
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("{}: report missing `{key}`", bench.name()))?;
        if got.to_bits() != want.to_bits() {
            return Err(format!(
                "{}: {key} diverged: served {got} != direct {want}",
                bench.name()
            ));
        }
    }
    Ok(())
}

/// Records the profile streams, starts an in-process daemon, streams every
/// benchmark concurrently (in waves of `--max-sessions`), and diffs every
/// report against the one-shot run. Also scrapes and validates the
/// Prometheus exposition before shutting the daemon down.
fn run_selftest(opts: &ServeOpts) -> Result<(), String> {
    let params = scaled_profile(opts.scale, opts.seed);
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let trace_path = dir.join(format!("gdiff-selftest-{pid}.trace"));
    let sock_path = dir.join(format!("gdiff-selftest-{pid}.sock"));

    // 1. Record the same capture `harness record fig8` would produce.
    let mut registry = obs::Registry::new();
    crate::record::record(
        &trace_path,
        &["fig8".to_string()],
        params,
        RunParams::pipeline_default().scaled(opts.scale),
        opts.scale,
        &mut registry,
    )
    .map_err(|e| format!("selftest record: {e}"))?;

    // 2. Read every benchmark's chunks back out of the container.
    let client_opts = ServeClientOpts {
        socket: sock_path.clone(),
        trace: Some(trace_path.clone()),
        window: 4,
        warmup: Some(params.warmup),
        measure: Some(params.measure),
        scale: opts.scale,
        seed: opts.seed,
        ..ServeClientOpts::default()
    };
    let jobs = jobs_from_trace(&client_opts)?;
    let _ = std::fs::remove_file(&trace_path);
    if jobs.is_empty() {
        return Err("selftest record produced no streams".into());
    }

    // 3. Serve, stream concurrently (waves sized to the session cap so
    //    the selftest never triggers its own eviction), diff.
    let server = Server::bind(&sock_path, opts.config())
        .map_err(|e| format!("selftest bind {}: {e}", sock_path.display()))?;
    let handle = server.spawn();
    let mut checked = 0usize;
    let mut failures: Vec<String> = Vec::new();
    for wave in jobs.chunks(opts.max_sessions) {
        let reports = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for job in wave {
                let path = handle.path().to_path_buf();
                let window = client_opts.window;
                handles.push((
                    job,
                    scope.spawn(move || {
                        let (mut r, mut w) = client::connect(&path)?;
                        client::run_session(
                            &mut r,
                            &mut w,
                            &job.params(),
                            &job.chunks,
                            window,
                            None,
                        )
                        .map_err(std::io::Error::other)
                    }),
                ));
            }
            handles
                .into_iter()
                .map(|(job, h)| (job, h.join().expect("selftest client thread panicked")))
                .collect::<Vec<_>>()
        });
        for (job, outcome) in reports {
            let bench = benchmark_named(&job.name)
                .map_err(|_| format!("selftest stream `{}` is not a benchmark", job.name))?;
            match outcome {
                Ok(out) => {
                    checked += 1;
                    if let Err(m) =
                        check_report(&out.report, bench, opts.seed, job.warmup, job.measure)
                    {
                        failures.push(m);
                    } else {
                        eprintln!(
                            "selftest {}: {} chunks, report bit-identical",
                            job.name,
                            job.chunks.len()
                        );
                    }
                }
                Err(e) => failures.push(format!("{}: session failed: {e}", job.name)),
            }
        }
    }

    // 4. The exposition must carry the per-session series and validate.
    let (mut r, mut w) =
        client::connect(handle.path()).map_err(|e| format!("selftest control connect: {e}"))?;
    let text = client::fetch_metrics(&mut r, &mut w).map_err(|e| format!("metrics: {e}"))?;
    if let Err(e) = obs::expose::validate(&text) {
        failures.push(format!("metrics exposition invalid: {e}"));
    }
    if !text.contains("serve_session_accuracy{") {
        failures.push("metrics exposition missing per-session accuracy series".into());
    }
    let _ = client::request_shutdown(&mut r, &mut w);
    handle.join();
    let _ = std::fs::remove_file(&sock_path);

    if !failures.is_empty() {
        return Err(format!(
            "selftest failed ({}/{checked} sessions diverged or errored):\n  {}",
            failures.len(),
            failures.join("\n  ")
        ));
    }
    println!(
        "serve selftest OK: {checked} sessions bit-identical to one-shot runs \
         (seed {}, scale {})",
        opts.seed, opts.scale
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_s(toks: &[&str]) -> Result<ServeOpts, Usage> {
        parse_serve_args(&mut Args::new(
            "serve",
            toks.iter().map(|s| s.to_string()).collect(),
        ))
    }

    fn parse_c(toks: &[&str]) -> Result<ServeClientOpts, Usage> {
        parse_serve_client_args(&mut Args::new(
            "serve-client",
            toks.iter().map(|s| s.to_string()).collect(),
        ))
    }

    /// The usage message of a rejected parse.
    fn msg<T: std::fmt::Debug>(parsed: Result<T, Usage>) -> String {
        match parsed {
            Err(Usage::Error(m)) => m,
            other => panic!("expected a usage error, got {other:?}"),
        }
    }

    #[test]
    fn serve_args_require_a_mode() {
        let want = "serve needs --socket PATH, --stdio, or --selftest";
        assert_eq!(msg(parse_s(&[])), want);
        assert_eq!(msg(parse_s(&["--max-sessions", "4"])), want);
        assert_eq!(parse_s(&["--stdio", "--help"]).unwrap_err(), Usage::Help);
    }

    #[test]
    fn serve_args_reject_zero_counts_and_unknown_flags() {
        for flag in ["--max-sessions", "--queue-depth", "--global-queue"] {
            assert_eq!(
                msg(parse_s(&["--stdio", flag, "0"])),
                format!("{flag}: must be at least 1")
            );
        }
        assert_eq!(
            msg(parse_s(&["--stdio", "--bogus"])),
            "unknown serve option: --bogus"
        );
    }

    #[test]
    fn serve_args_modes_are_exclusive_and_socket_dir_must_exist() {
        assert!(msg(parse_s(&["--stdio", "--selftest"])).contains("mutually exclusive"));
        assert_eq!(
            msg(parse_s(&["--socket", "/nonexistent-dir-xyz/d.sock"])),
            "--socket: directory /nonexistent-dir-xyz does not exist"
        );
        let ok = parse_s(&["--selftest", "--scale", "0.05", "--seed", "7"]).unwrap();
        assert!(ok.selftest);
        assert_eq!(ok.scale, 0.05);
        assert_eq!(ok.seed, 7);
    }

    #[test]
    fn client_args_require_socket_and_an_action() {
        assert_eq!(
            msg(parse_c(&["--status"])),
            "serve-client needs --socket PATH"
        );
        assert!(msg(parse_c(&["--socket", "/tmp/d.sock"])).contains("needs something to do"));
        assert!(
            msg(parse_c(&["--socket", "/tmp/d.sock", "--stream", "nope"]))
                .starts_with("--stream: unknown benchmark 'nope'")
        );
        assert_eq!(
            msg(parse_c(&["--socket", "/tmp/d.sock", "--window", "0"])),
            "--window: must be at least 1"
        );
        let ok = parse_c(&[
            "--socket",
            "/tmp/d.sock",
            "--stream",
            "gcc",
            "--window",
            "8",
        ])
        .unwrap();
        assert_eq!(ok.socket, Path::new("/tmp/d.sock"));
        assert_eq!(ok.stream, Some(Benchmark::Gcc));
        assert_eq!(ok.window, 8);
        assert!(parse_c(&["--socket", "/tmp/d.sock", "--shutdown"]).is_ok());
    }

    #[test]
    fn serve_args_accept_log_flags() {
        let ok = parse_s(&["--stdio", "--log", "/tmp/j.journal", "--log-level", "debug"]).unwrap();
        assert_eq!(ok.log.as_deref(), Some(Path::new("/tmp/j.journal")));
        assert_eq!(ok.log_level, obs::log::Level::Debug);
        assert_eq!(
            msg(parse_s(&["--stdio", "--log-level", "loud"])),
            "--log-level: unknown level 'loud'"
        );
        assert_eq!(msg(parse_s(&["--stdio", "--log"])), "--log needs a value");
    }

    #[test]
    fn client_args_probe_and_corruption_flags() {
        // Stream modes stay mutually exclusive; corruption needs a stream.
        assert!(msg(parse_c(&[
            "--socket",
            "/tmp/d.sock",
            "--drift-probe",
            "--stream",
            "gcc"
        ]))
        .contains("mutually exclusive"));
        assert!(msg(parse_c(&[
            "--socket",
            "/tmp/d.sock",
            "--corrupt-chunk",
            "0"
        ]))
        .contains("needs a stream to corrupt"));
        let ok = parse_c(&[
            "--socket",
            "/tmp/d.sock",
            "--stream",
            "gcc",
            "--corrupt-chunk",
            "2",
        ])
        .unwrap();
        assert_eq!(ok.corrupt_chunk, Some(2));
        assert!(
            parse_c(&["--socket", "/tmp/d.sock", "--drift-probe"])
                .unwrap()
                .drift_probe
        );
        assert!(
            parse_c(&["--socket", "/tmp/d.sock", "--health"])
                .unwrap()
                .health
        );
    }

    #[test]
    fn drift_probe_job_switches_family_after_the_stable_phase() {
        let opts =
            parse_c(&["--socket", "/tmp/d.sock", "--drift-probe", "--warmup", "64"]).unwrap();
        let job = job_from_drift_probe(&opts);
        assert_eq!(job.warmup, 64);
        assert_eq!(job.measure, PROBE_STABLE + PROBE_NOISE);
        let mut insts = Vec::new();
        let mut all = Vec::new();
        for chunk in &job.chunks {
            tracefile::decode_wire_chunk(chunk, tracefile::DEFAULT_CHUNK_CAP, &mut insts).unwrap();
            all.extend(insts.iter().cloned());
        }
        assert_eq!(all.len() as u64, 64 + PROBE_STABLE + PROBE_NOISE);
        // The stable phase is a pure stride-8 walk; the tail is not.
        let stable = &all[..(64 + PROBE_STABLE) as usize];
        assert!(stable
            .windows(2)
            .all(|w| w[1].value.wrapping_sub(w[0].value) == 8));
        let tail = &all[(64 + PROBE_STABLE) as usize..];
        assert!(tail
            .windows(2)
            .any(|w| w[1].value.wrapping_sub(w[0].value) != 8));
    }

    #[test]
    fn synthesized_job_covers_the_profile_take() {
        let opts = parse_c(&[
            "--socket",
            "/tmp/d.sock",
            "--stream",
            "gcc",
            "--warmup",
            "10",
            "--measure",
            "90",
        ])
        .unwrap();
        let job = job_from_stream(&opts);
        assert_eq!(job.name, "gcc");
        assert_eq!(job.warmup, 10);
        assert_eq!(job.measure, 90);
        assert!(!job.chunks.is_empty());
        let mut producers = 0usize;
        let mut out = Vec::new();
        for chunk in &job.chunks {
            tracefile::decode_wire_chunk(chunk, tracefile::DEFAULT_CHUNK_CAP, &mut out).unwrap();
            producers += out.iter().filter(|i| i.produces_value()).count();
        }
        assert_eq!(producers, 100);
    }
}
