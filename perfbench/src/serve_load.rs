//! The `serve` workload: a closed-loop load generator for a gdiffd daemon.
//!
//! Set-up generates every benchmark, pre-encodes it into small wire
//! chunks (`tracefile::encode_wire_chunk`, framed as CHUNK payloads with
//! `serve::frame::chunk_payload`) and starts `harness serve --socket` as a
//! child process. The measured phase then runs passes: in each pass
//! `sessions` client threads (one connection each) stream their share of
//! the benchmarks, one session per benchmark, with a fixed go-back-N
//! window. The loop is closed because protocol clients wait for ACKs.
//! Every chunk is timed from its first CHUNK write to its ACK.
//!
//! A traced run alternates untraced passes with traced ones, in which the
//! client records an `obs::timeline` span per pass, session and chunk as
//! it goes (a chunk's span closes when its ACK arrives), inside the timed
//! window. Comparing the two kinds of pass gives the cost of tracing.
//!
//! The client is built from the public `serve::frame` functions because
//! `serve::client::run_session` exposes no per-chunk timing. A BUSY frame
//! counts as a retry; an ERROR frame, a lost chunk or a REPORT that
//! differs from a one-shot `run_profile_on` over the same instructions
//! counts its session's chunks as failed.

use std::io::{BufReader, BufWriter, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use gdiff::GDiffPredictor;
use harness::profile::run_profile_on;
use harness::RunParams;
use obs::timeline::{self, TimelineSpan};
use obs::JsonValue;
use predictors::{Capacity, PredictorStats};
use serve::client;
use serve::frame;
use serve::session::SessionParams;
use workloads::{Benchmark, DynInst, SyntheticSource, TraceSource};

use crate::config::Serve;
use crate::source::VecSource;
use crate::stats::{median, quantile};

/// Instructions streamed per benchmark, one session each.
pub const INSTS: usize = 131_072;

/// gDiff order of every session.
pub const ORDER: usize = 8;

/// Table sizes (0 = unbounded), assigned to the benchmarks in turn: the
/// same working-set contrast as the sweep grid's.
pub const TABLES: [usize; 2] = [0, 8192];

/// Warm-up producers of every session.
pub const WARMUP: u64 = 10_000;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Room for every span of a traced run.
const TIMELINE_CAPACITY: usize = 1 << 20;

/// One run of the workload.
#[derive(Debug, Clone)]
pub struct ServeOpts {
    pub harness: PathBuf,
    /// Scratch directory: sockets, daemon logs, the span file.
    pub dir: PathBuf,
    pub seed: u64,
    /// Passes start until this much time has gone.
    pub seconds: f64,
    /// Whether every other pass is traced.
    pub traced: bool,
    pub cfg: Serve,
}

/// One benchmark, ready to stream.
struct BenchLoad {
    bench: Benchmark,
    table: usize,
    /// CHUNK frame payloads (sequence number ‖ wire chunk).
    payloads: Vec<Vec<u8>>,
    producers: u64,
}

struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    fn start(harness: &Path, dir: &Path, rep: usize) -> Result<Daemon, String> {
        let socket = dir.join(format!("gdiffd-{rep}.sock"));
        let _ = std::fs::remove_file(&socket);
        let log = std::fs::File::create(dir.join(format!("gdiffd-{rep}.log")))
            .map_err(|e| format!("daemon log: {e}"))?;
        // One malloc arena and a fixed trim threshold (glibc's initial
        // one): with the defaults, the daemon's peak RSS follows a race
        // between session threads over how many arenas exist, and one
        // large free raises the dynamic trim threshold for good.
        let child = Command::new(harness)
            .env("MALLOC_ARENA_MAX", "1")
            .env("MALLOC_TRIM_THRESHOLD_", "131072")
            .arg("serve")
            .arg("--socket")
            .arg(&socket)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", harness.display()))?;
        let mut daemon = Daemon { child, socket };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok((mut r, mut w)) = client::connect(&daemon.socket) {
                if client::fetch_status(&mut r, &mut w).is_ok() {
                    return Ok(daemon);
                }
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited during start-up: {status}"));
            }
            if Instant::now() > deadline {
                daemon.kill();
                return Err("daemon did not become ready within 30 s".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Restarts the daemon's `VmHWM` from its current RSS (writing 5 to
    /// `clear_refs`).
    fn reset_peak_rss(&self) -> Result<(), String> {
        let path = format!("/proc/{}/clear_refs", self.child.id());
        std::fs::write(&path, "5").map_err(|e| format!("{path}: {e}"))
    }

    /// Peak resident set of the daemon since start or the last reset, from
    /// `/proc` `VmHWM`.
    fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find(|l| l.starts_with("VmHWM:"))
            .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("{path}: no VmHWM"))
    }

    /// CPU time (user + system, every thread, exited ones included) the
    /// daemon has used so far, to 10 ms.
    fn cpu_s(&self) -> Result<f64, String> {
        process_cpu_s(self.child.id())
    }

    /// CPU time of the daemon's live threads, to the nanosecond: its
    /// start-up cost, before any session thread has come and gone.
    fn live_threads_cpu_s(&self) -> Result<f64, String> {
        let dir = format!("/proc/{}/task", self.child.id());
        let mut total = 0.0;
        for task in std::fs::read_dir(&dir).map_err(|e| format!("{dir}: {e}"))? {
            let task = task.map_err(|e| format!("{dir}: {e}"))?;
            // A thread that exits while we look has nothing left to count.
            total += schedstat_s(&format!("{}/schedstat", task.path().display())).unwrap_or(0.0);
        }
        Ok(total)
    }

    /// Asks the daemon to drain and exit, and waits for it.
    fn shutdown(mut self) -> Result<(), String> {
        let asked = client::connect(&self.socket)
            .map_err(|e| e.to_string())
            .and_then(|(mut r, mut w)| {
                client::request_shutdown(&mut r, &mut w)
                    .map(|_| ())
                    .map_err(|e| e.to_string())
            });
        if let Err(e) = asked {
            self.kill();
            return Err(format!("shutdown request failed: {e}"));
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    self.kill();
                    return Err("daemon did not exit within 30 s of SHUTDOWN".into());
                }
            }
        }
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            self.kill();
        }
    }
}

/// CPU time of a whole process from `/proc/<pid>/stat` (utime + stime, in
/// USER_HZ = 100 ticks). The kernel leaves time stolen by the hypervisor
/// out of it, unlike wall time.
fn process_cpu_s(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/stat");
    let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| format!("{path}: malformed"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .ok_or_else(|| format!("{path}: malformed"))
    };
    Ok((ticks(11)? + ticks(12)?) as f64 / 100.0)
}

/// CPU time from a `schedstat` file: nanoseconds on the CPU, with time
/// stolen by the hypervisor excluded.
fn schedstat_s(path: &str) -> Result<f64, String> {
    let stat = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let ns: u64 = stat
        .split_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .ok_or_else(|| format!("{path}: malformed"))?;
    Ok(ns as f64 / 1e9)
}

/// CPU time of the calling thread.
fn thread_cpu_s() -> Result<f64, String> {
    schedstat_s("/proc/thread-self/schedstat")
}

fn generate(seed: u64, bench: Benchmark, insts: usize) -> Vec<DynInst> {
    SyntheticSource::new(seed)
        .stream(bench)
        .take(insts)
        .collect()
}

fn prepare(opts: &ServeOpts) -> Vec<BenchLoad> {
    Benchmark::ALL
        .into_iter()
        .enumerate()
        .map(|(i, bench)| {
            let insts = generate(opts.seed, bench, INSTS);
            let producers = insts.iter().filter(|i| i.produces_value()).count() as u64;
            let payloads = insts
                .chunks(opts.cfg.chunk)
                .enumerate()
                .map(|(seq, c)| {
                    let wire = tracefile::encode_wire_chunk(c, i as u32);
                    frame::chunk_payload(seq as u64, &wire)
                })
                .collect();
            BenchLoad {
                bench,
                table: TABLES[i % TABLES.len()],
                payloads,
                producers,
            }
        })
        .collect()
}

impl BenchLoad {
    fn params(&self, name: String) -> SessionParams {
        SessionParams {
            name,
            order: ORDER,
            table: self.table,
            delay: 0,
            warmup: WARMUP,
            measure: self.producers - WARMUP,
            hold: false,
        }
    }
}

/// What one session conversation produced.
struct SessionRun {
    bench: usize,
    chunks: u64,
    acked: u64,
    busy: u64,
    frames: u64,
    report: Result<JsonValue, String>,
    /// (first CHUNK write, ACK) per chunk, in sequence order.
    times: Vec<(Instant, Instant)>,
}

fn read_uint(v: &JsonValue, key: &str) -> Option<u64> {
    v.path(key).and_then(|n| n.as_f64()).map(|n| n as u64)
}

fn run_session(
    socket: &Path,
    bench: usize,
    load: &BenchLoad,
    params: &SessionParams,
    window: u64,
    traced: bool,
) -> SessionRun {
    let _span =
        traced.then(|| timeline::start(&format!("serve.session.{}", load.bench.name()), "session"));
    let n = load.payloads.len() as u64;
    let mut run = SessionRun {
        bench,
        chunks: n,
        acked: 0,
        busy: 0,
        frames: 0,
        report: Err("session did not start".into()),
        times: Vec::with_capacity(n as usize),
    };
    run.report = converse(socket, load, params, window, traced, &mut run);
    run
}

fn converse(
    socket: &Path,
    load: &BenchLoad,
    params: &SessionParams,
    window: u64,
    traced: bool,
    run: &mut SessionRun,
) -> Result<JsonValue, String> {
    let stream = UnixStream::connect(socket).map_err(|e| format!("connect: {e}"))?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = BufWriter::new(stream);
    let err = |e: frame::FrameError| e.to_string();

    frame::write_json(&mut writer, frame::HELLO, &params.to_hello()).map_err(err)?;
    writer.flush().map_err(|e| e.to_string())?;
    let welcome = frame::read_frame(&mut reader).map_err(err)?;
    if welcome.ftype != frame::WELCOME {
        return Err(format!(
            "expected WELCOME, got {}",
            frame::type_name(welcome.ftype)
        ));
    }

    let n = load.payloads.len() as u64;
    let mut first_sent: Vec<Option<Instant>> = vec![None; n as usize];
    // Traced: one open span per chunk in flight, closed by its ACK.
    let mut spans: Vec<Option<TimelineSpan>> = Vec::new();
    if traced {
        spans.resize_with(n as usize, || None);
    }
    let mut next = 0u64; // next sequence number to send
                         // After a refusal every frame already sent past the refused one draws
                         // its own BUSY; those are expected and skipped.
    let mut stale_busy = 0u64;
    let mut stalled = false;
    let mut bye_sent = false;
    loop {
        if !stalled {
            while next < n && next - run.acked < window {
                if first_sent[next as usize].is_none() {
                    first_sent[next as usize] = Some(Instant::now());
                    if traced {
                        spans[next as usize] = Some(timeline::start("serve.chunk", "chunk"));
                    }
                }
                frame::write_frame(&mut writer, frame::CHUNK, &load.payloads[next as usize])
                    .map_err(err)?;
                run.frames += 1;
                next += 1;
            }
        }
        if run.acked == n && !bye_sent {
            frame::write_frame(&mut writer, frame::BYE, &[]).map_err(err)?;
            bye_sent = true;
        }
        writer.flush().map_err(|e| e.to_string())?;
        let f = frame::read_frame(&mut reader).map_err(err)?;
        match f.ftype {
            frame::ACK => {
                let now = Instant::now();
                let v = frame::json_payload(&f).map_err(err)?;
                let k = read_uint(&v, "chunks")
                    .ok_or("ACK without `chunks`")?
                    .min(n);
                for seq in run.acked..k {
                    let sent = first_sent[seq as usize].ok_or("ACK for a chunk never sent")?;
                    run.times.push((sent, now));
                    if traced {
                        drop(spans[seq as usize].take());
                    }
                }
                run.acked = run.acked.max(k);
                if stale_busy == 0 {
                    stalled = false;
                }
            }
            frame::BUSY => {
                run.busy += 1;
                if stale_busy > 0 {
                    stale_busy -= 1;
                } else {
                    let v = frame::json_payload(&f).map_err(err)?;
                    let accepted = read_uint(&v, "accepted").ok_or("BUSY without `accepted`")?;
                    stale_busy = next.saturating_sub(accepted + 1);
                    next = accepted.min(next);
                    stalled = true;
                }
                if stale_busy == 0 && stalled && next == run.acked {
                    // Nothing of ours is queued, so no ACK will wake us:
                    // the daemon-wide queue was full. Back off briefly.
                    std::thread::sleep(Duration::from_millis(1));
                    stalled = false;
                }
            }
            frame::REPORT => return frame::json_payload(&f).map_err(err),
            frame::ERROR => {
                let v = frame::json_payload(&f).map_err(err)?;
                return Err(format!("server ERROR: {}", v.to_json()));
            }
            other => return Err(format!("unexpected {} frame", frame::type_name(other))),
        }
    }
}

/// One pass: every benchmark streamed once, `sessions` at a time.
fn run_pass(
    opts: &ServeOpts,
    socket: &Path,
    loads: &[BenchLoad],
    pass: usize,
    traced: bool,
) -> (Vec<SessionRun>, f64) {
    let t = Instant::now();
    let _span = traced.then(|| timeline::start(&format!("serve.pass.{pass}"), "pass"));
    let runs = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..opts.cfg.sessions)
            .map(|k| {
                scope.spawn(move || {
                    if traced {
                        timeline::set_thread_name(&format!("client {k}, pass {pass}"));
                    }
                    (k..loads.len())
                        .step_by(opts.cfg.sessions)
                        .map(|i| {
                            // Two sets of names, alternating by pass: the
                            // daemon keeps metric series per name, so the
                            // set stays bounded, and no name is reused
                            // while its last session may still be closing.
                            let name = format!("{}-{}", loads[i].bench.name(), pass % 2);
                            let params = loads[i].params(name);
                            run_session(socket, i, &loads[i], &params, opts.cfg.window, traced)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    (runs, t.elapsed().as_secs_f64())
}

/// The one-shot statistics each session's REPORT must equal: the same
/// instructions, regenerated, through `run_profile_on`.
fn expected_stats(opts: &ServeOpts, loads: &[BenchLoad]) -> Vec<PredictorStats> {
    let streams = Benchmark::ALL
        .into_iter()
        .map(|b| generate(opts.seed, b, INSTS))
        .collect();
    let source = VecSource::from_streams(streams);
    loads
        .iter()
        .map(|l| {
            let cap = if l.table == 0 {
                Capacity::Unbounded
            } else {
                Capacity::Entries(l.table)
            };
            let mut p = GDiffPredictor::with_delay(cap, ORDER, 0);
            let params = RunParams {
                seed: opts.seed,
                warmup: WARMUP,
                measure: l.producers - WARMUP,
            };
            run_profile_on(&source, l.bench, &mut p, params)
        })
        .collect()
}

fn report_matches(report: &JsonValue, want: &PredictorStats, load: &BenchLoad) -> bool {
    read_uint(report, "total") == Some(want.total())
        && read_uint(report, "predicted") == Some(want.predicted())
        && read_uint(report, "correct") == Some(want.correct())
        && read_uint(report, "producers") == Some(load.producers)
        && read_uint(report, "chunks") == Some(load.payloads.len() as u64)
        && report.path("accuracy").and_then(|a| a.as_f64()) == Some(want.accuracy())
}

/// Runs the workload and returns its result object.
pub fn run(opts: &ServeOpts) -> Result<JsonValue, String> {
    std::fs::create_dir_all(&opts.dir).map_err(|e| format!("{}: {e}", opts.dir.display()))?;

    // Set-up, repeated; the last one's daemon and chunks are kept. Its
    // cost is the CPU time of generating and encoding plus the daemon's
    // start-up; its wall time is reported alongside.
    let (mut setup_cpu_s, mut setup_wall_s) = (Vec::new(), Vec::new());
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let cpu = thread_cpu_s()?;
        let loads = prepare(opts);
        let cpu = thread_cpu_s()? - cpu;
        let daemon = Daemon::start(&opts.harness, &opts.dir, rep)?;
        setup_wall_s.push(t.elapsed().as_secs_f64());
        setup_cpu_s.push(cpu + daemon.live_threads_cpu_s()?);
        if let Some((_, old)) = kept.replace((loads, daemon)) {
            Daemon::shutdown(old)?;
        }
    }
    let (loads, daemon) = kept.expect("at least one set-up");
    let socket = daemon.socket.clone();

    // Measured phase: whole passes until the time is up. A traced run
    // alternates untraced and traced passes and ends on a whole pair.
    // Load figures come from the untraced passes; every pass is checked.
    let (mut runs, mut traced_runs) = (Vec::new(), Vec::new());
    let (mut pass_wall, mut traced_wall) = (Vec::new(), Vec::new());
    // The daemon's peak RSS is taken per pass: how session lifetimes
    // happen to overlap moves a pass's heap peak, and one such pass would
    // set a whole run's peak, but not the median pass's.
    let mut pass_rss_mb = Vec::new();
    if opts.traced {
        timeline::enable(TIMELINE_CAPACITY);
    }
    let daemon_cpu = daemon.cpu_s()?;
    let t = Instant::now();
    let mut passes = 0;
    while passes == 0
        || t.elapsed().as_secs_f64() < opts.seconds
        || (opts.traced && passes % 2 == 1)
    {
        let traced = opts.traced && passes % 2 == 1;
        daemon.reset_peak_rss()?;
        let (r, wall) = run_pass(opts, &socket, &loads, passes, traced);
        pass_rss_mb.push(daemon.peak_rss_mb()?);
        if traced {
            traced_runs.extend(r);
            traced_wall.push(wall);
        } else {
            runs.extend(r);
            pass_wall.push(wall);
        }
        passes += 1;
    }
    let daemon_cpu_s = daemon.cpu_s()? - daemon_cpu;
    timeline::disable();

    let shutdown = Daemon::shutdown(daemon);

    // Verification (untimed).
    let expected = expected_stats(opts, &loads);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut errors = Vec::new();
    for r in runs.iter().chain(&traced_runs) {
        attempted += r.chunks;
        let load = &loads[r.bench];
        match &r.report {
            Ok(rep) if report_matches(rep, &expected[r.bench], load) => {}
            Ok(rep) => {
                failed += r.chunks;
                errors.push(format!(
                    "{}: REPORT differs from one-shot run: {}",
                    load.bench.name(),
                    rep.to_json()
                ));
            }
            Err(e) => {
                failed += r.chunks;
                errors.push(format!("{}: {e}", load.bench.name()));
            }
        }
    }
    if let Err(e) = shutdown {
        errors.push(e);
    }

    // Load figures, from the untraced passes.
    let (mut acked, mut busy, mut frames) = (0u64, 0u64, 0u64);
    let mut rtt_ms = Vec::new();
    for r in &runs {
        acked += r.acked;
        busy += r.busy;
        frames += r.frames;
        rtt_ms.extend(r.times.iter().map(|(s, a)| (*a - *s).as_secs_f64() * 1e3));
    }
    let producers: u64 = runs
        .iter()
        .filter(|r| r.report.is_ok())
        .map(|r| loads[r.bench].producers)
        .sum();
    rtt_ms.sort_by(f64::total_cmp);
    let chunks_per_pass: usize = loads.iter().map(|l| l.payloads.len()).sum();

    let mut out = JsonValue::object()
        .with("setup_cpu_s", setup_cpu_s)
        .with("setup_wall_s", setup_wall_s)
        .with("pass_wall_s", pass_wall)
        .with("daemon_cpu_s_per_pass", daemon_cpu_s / passes as f64)
        .with("sessions_per_pass", loads.len() as u64)
        .with("chunks_per_pass", chunks_per_pass as u64)
        .with("attempted", attempted)
        .with("failed", failed)
        .with("acked", acked)
        .with("busy", busy)
        .with("chunk_frames", frames)
        .with("producers", producers)
        .with("rtt_p50_ms", quantile(&rtt_ms, 0.5))
        .with("rtt_p99_ms", quantile(&rtt_ms, 0.99))
        .with("rtt_samples", rtt_ms.len() as u64)
        .with("peak_rss_mb", median(&pass_rss_mb))
        .with("pass_rss_mb", pass_rss_mb)
        .with("errors", errors.into_iter().take(5).collect::<Vec<_>>());
    if opts.traced {
        let spans = opts.dir.join("serve-spans.json");
        std::fs::write(&spans, timeline::export().to_json())
            .map_err(|e| format!("{}: {e}", spans.display()))?;
        out = out
            .with("traced_pass_wall_s", traced_wall)
            .with("spans", spans.display().to_string())
            .with("span_count", timeline::recorded())
            .with("spans_dropped", timeline::dropped());
    }
    Ok(out)
}
