//! The `harness` binary: `cargo run -p harness --release -- <experiment>`
//! regenerates the paper's exhibits, and its subcommands record, replay,
//! explain, export, diff, serve and sweep them. [`print_usage`] (`harness
//! --help`) documents every subcommand and flag.

use harness::cells::{plan_for, ALL_EXPERIMENTS};
use harness::cli::{self, Args, Usage};
use harness::record::{open_replay, record};
use harness::report::{RunReport, Table};
use harness::sched::{default_jobs, run_plans, run_plans_live};
use harness::serve_cli;
use harness::{RunMemo, RunParams};
use obs::trace::tracer;
use obs::{JsonValue, Registry, Sampler, SharedRegistry};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;
use workloads::{SyntheticSource, TraceSource};

/// Set when the JSON report goes to stdout (`--json -`): the human-readable
/// tables move to stderr so stdout stays parseable.
static TABLES_TO_STDERR: AtomicBool = AtomicBool::new(false);

macro_rules! out {
    ($($t:tt)*) => {
        if TABLES_TO_STDERR.load(Ordering::Relaxed) {
            eprint!($($t)*)
        } else {
            print!($($t)*)
        }
    };
}

macro_rules! outln {
    ($($t:tt)*) => {
        if TABLES_TO_STDERR.load(Ordering::Relaxed) {
            eprintln!($($t)*)
        } else {
            println!($($t)*)
        }
    };
}

/// A subcommand: reads its flags from the cursor, then runs. Runtime
/// failures exit 1 on the spot; a `Usage` goes back to `main`.
type Command = fn(&mut Args) -> Result<(), Usage>;

fn main() {
    let mut toks: Vec<String> = std::env::args().skip(1).collect();
    let sub: Option<Command> = match toks.first().map(String::as_str) {
        Some("record") => Some(main_record),
        Some("replay") => Some(main_replay),
        Some("convert") => Some(main_convert),
        Some("explain") => Some(main_explain),
        Some("export-metrics") => Some(main_export_metrics),
        Some("bench-diff") => Some(main_bench_diff),
        Some("serve") => Some(main_serve),
        Some("serve-client") => Some(main_serve_client),
        Some("logs") => Some(main_logs),
        Some("sweep") => Some(main_sweep),
        Some("sweep-worker") => Some(main_sweep_worker),
        _ => None,
    };
    let (cmd, run) = match sub {
        Some(run) => (toks.remove(0), run),
        None => (String::new(), main_run as Command),
    };
    match run(&mut Args::new(cmd, toks)) {
        Ok(()) => {}
        Err(Usage::Help) => print_usage(),
        Err(Usage::Error(msg)) => {
            eprintln!("error: {msg}");
            print_usage();
            std::process::exit(2);
        }
    }
}

/// Expands `all` and validates every experiment name up front so a typo
/// late in the list doesn't discard an hour of completed experiments.
fn select_experiments(named: &[String]) -> Result<Vec<String>, Usage> {
    if named.is_empty() {
        return Err("no experiment named".into());
    }
    let selected: Vec<String> = if named.iter().any(|e| e == "all") {
        ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect()
    } else {
        named.to_vec()
    };
    if let Some(exp) = selected
        .iter()
        .find(|e| !ALL_EXPERIMENTS.contains(&e.as_str()))
    {
        return Err(format!("unknown experiment: {exp}").into());
    }
    Ok(selected)
}

/// The default profile and pipeline run sizes, scaled and seeded.
fn run_params(scale: f64, seed: u64) -> (RunParams, RunParams) {
    let mut profile = RunParams::profile_default().scaled(scale);
    let mut pipeline = RunParams::pipeline_default().scaled(scale);
    profile.seed = seed;
    pipeline.seed = seed;
    (profile, pipeline)
}

fn main_run(args: &mut Args) -> Result<(), Usage> {
    let mut scale = 1.0f64;
    let mut seed = 42u64;
    let mut jobs = None;
    let mut flags = RunFlags::default();
    let mut experiments = Vec::new();
    while let Some(a) = args.token()? {
        match a.as_str() {
            "--scale" => scale = args.parse(&a)?,
            "--seed" => seed = args.parse(&a)?,
            "--jobs" | "-j" => jobs = Some(args.count(&a)?),
            "--json" => flags.json = Some(args.string(&a)?),
            "--trace-last" => flags.trace_last = Some(args.count(&a)?),
            "--timeline" => flags.timeline = Some(args.string(&a)?),
            "--live-metrics" => flags.live_metrics = Some(args.string(&a)?),
            "--live-interval-ms" => flags.live_interval_ms = args.count(&a)?,
            "--hotpath-bench" => flags.hotpath = true,
            "--log" => flags.log = Some(args.string(&a)?),
            "--log-level" => flags.log_level = args.level(&a)?,
            other if other.starts_with('-') => return Err(args.unknown(other)),
            _ => experiments.push(a),
        }
    }
    let selected = select_experiments(&experiments)?;
    let (profile, pipeline) = run_params(scale, seed);
    execute(Execution {
        source: &SyntheticSource::new(seed),
        selected: &selected,
        profile,
        pipeline,
        seed,
        scale,
        jobs: jobs.unwrap_or_else(default_jobs),
        flags,
        sections: Vec::new(),
    });
    Ok(())
}

/// One experiment sweep: the instruction origin, what to run, and how to
/// report it. Shared by the direct (`main_run`) and `replay` paths so both
/// produce byte-identical `experiments` report sections.
struct Execution<'a> {
    source: &'a dyn TraceSource,
    selected: &'a [String],
    profile: RunParams,
    pipeline: RunParams,
    seed: u64,
    scale: f64,
    /// Scheduler worker count (replay forces 1).
    jobs: usize,
    flags: RunFlags,
    /// Extra report sections (e.g. replay's tracefile metrics).
    sections: Vec<(String, JsonValue)>,
}

/// The output and telemetry flags of an experiment run. The direct run
/// parses all of them; replay parses its subset and keeps the defaults.
struct RunFlags {
    /// `--json`: run report destination (`-`: stdout).
    json: Option<String>,
    /// `--trace-last`: trace ring capacity and dump size.
    trace_last: Option<usize>,
    /// `--timeline`: Chrome trace-event JSON destination.
    timeline: Option<String>,
    /// `--live-metrics`: NDJSON snapshot stream destination (`-`: stdout).
    live_metrics: Option<String>,
    /// `--live-interval-ms`: snapshot period for `--live-metrics`.
    live_interval_ms: u64,
    /// `--hotpath-bench`: append the update-path timing section.
    hotpath: bool,
    /// `--log`: structured journal destination. Live-only: the tables,
    /// the `--json` report, and replay outputs are byte-identical with
    /// the journal on or off.
    log: Option<String>,
    /// `--log-level`: minimum journal level.
    log_level: obs::log::Level,
}

impl Default for RunFlags {
    fn default() -> Self {
        RunFlags {
            json: None,
            trace_last: None,
            timeline: None,
            live_metrics: None,
            live_interval_ms: 250,
            hotpath: false,
            log: None,
            log_level: obs::log::Level::Info,
        }
    }
}

/// Event capacity of the `--timeline` buffer: a full `all -j8` run emits
/// a few hundred coarse events, so 64Ki leaves generous headroom while
/// bounding a runaway run to ~10 MB of JSON.
const TIMELINE_CAPACITY: usize = 64 * 1024;

/// Snapshot ring size for `--live-metrics` (the stream itself is
/// unbounded; the ring only backs the end-of-run summary counts).
const LIVE_RING_CAP: usize = 1024;

fn execute(x: Execution<'_>) {
    if x.flags.json.as_deref() == Some("-") || x.flags.live_metrics.as_deref() == Some("-") {
        TABLES_TO_STDERR.store(true, Ordering::Relaxed);
    }
    let journal = match serve_cli::enable_journal(
        x.flags.log.as_deref().map(std::path::Path::new),
        x.flags.log_level,
    ) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    obs::log::info(
        "harness.run",
        "run started",
        &[
            ("experiments", obs::log::Value::from(x.selected.len())),
            ("jobs", obs::log::Value::from(x.jobs)),
            ("seed", obs::log::Value::from(x.seed)),
            ("scale", obs::log::Value::from(x.scale)),
        ],
    );
    if let Some(n) = x.flags.trace_last {
        tracer().enable(n);
    }
    if x.flags.timeline.is_some() {
        obs::timeline::enable(TIMELINE_CAPACITY);
        obs::timeline::set_thread_name("main");
    }
    // Live telemetry rides beside the deterministic outputs: workers merge
    // finished cells into this shared registry in completion order, and the
    // sampler streams delta snapshots; none of it feeds back into `master`.
    let live = x.flags.live_metrics.as_ref().map(|_| SharedRegistry::new());
    let sampler = x.flags.live_metrics.as_ref().map(|dest| {
        let writer: Box<dyn std::io::Write + Send> = if dest == "-" {
            Box::new(std::io::stdout())
        } else {
            match std::fs::File::create(dest) {
                Ok(f) => Box::new(f),
                Err(e) => {
                    eprintln!("error: cannot write {dest}: {e}");
                    std::process::exit(1);
                }
            }
        };
        Sampler::start(
            live.clone().expect("live registry exists"),
            Duration::from_millis(x.flags.live_interval_ms),
            LIVE_RING_CAP,
            Some(writer),
        )
    });

    // One memo for the whole invocation: a run several experiments need
    // is simulated once, whichever cell asks first.
    let memo = RunMemo::new(x.source);
    let plans = x
        .selected
        .iter()
        .map(|exp| plan_for(exp, &memo, x.profile, x.pipeline))
        .collect();
    let mut report = RunReport::new(x.seed, x.scale);
    let mut master = Registry::new();
    // Experiments fan out into per-benchmark cells across the workers, but
    // emission happens strictly in plan order, so the tables and the
    // `experiments` report section are byte-identical for any worker count.
    let cells = run_plans_live(plans, x.jobs, &mut master, live.as_ref(), |res| {
        out!("{}", res.text);
        eprintln!("[{} took {:.1}s]\n", res.name, res.busy.as_secs_f64());
        obs::log::info(
            "harness.run",
            "experiment finished",
            &[
                ("experiment", obs::log::Value::from(res.name.as_str())),
                ("busy_s", obs::log::Value::from(res.busy.as_secs_f64())),
            ],
        );
        report.add_experiment(&res.name, res.json);
    });

    // Timeline teardown happens before the sampler's final snapshot so a
    // ring overflow surfaces in the live stream (`timeline.dropped_events`)
    // as well as the journal — not just in a stderr afterthought.
    if let Some(dest) = &x.flags.timeline {
        obs::timeline::disable();
        let dropped = obs::timeline::dropped();
        if dropped > 0 {
            obs::log::warn(
                "harness.timeline",
                "timeline ring overflowed; events dropped",
                &[("dropped", obs::log::Value::from(dropped))],
            );
            if let Some(live) = &live {
                live.with(|r| {
                    let g = r.gauge("timeline.dropped_events");
                    r.set_gauge(g, dropped as f64);
                });
            }
        }
        let text = obs::timeline::export().to_json();
        if let Err(e) = std::fs::write(dest, text + "\n") {
            eprintln!("error: cannot write {dest}: {e}");
            std::process::exit(1);
        }
        eprintln!(
            "timeline: {} events ({dropped} dropped) -> {dest}",
            obs::timeline::recorded(),
        );
    }
    if let Some(sampler) = sampler {
        let log = sampler.stop();
        if !log.stream_ok {
            eprintln!("warning: live-metrics stream write failed");
        }
        eprintln!(
            "live-metrics: {} snapshots ({} beyond the ring)",
            log.taken, log.dropped
        );
    }

    if let Some(n) = x.flags.trace_last {
        tracer().disable();
        let events = tracer().last(n);
        eprintln!(
            "== trace: last {} of {} recorded events ==",
            events.len(),
            tracer().recorded()
        );
        for ev in &events {
            eprintln!("  {ev}");
        }
        let section = JsonValue::object()
            .with("recorded", tracer().recorded())
            .with(
                "events",
                JsonValue::Arr(events.iter().map(|e| e.to_json()).collect()),
            );
        report.add_section("trace", section);
    }
    report.add_section(
        "scheduler",
        JsonValue::object()
            .with("jobs", x.jobs as u64)
            .with("cells", cells as u64)
            .with("runs", memo.counts().to_json()),
    );
    report.add_section("metrics", master.to_json());
    if x.flags.hotpath {
        // Timed in-process, outside `experiments`, so bench-diff gates
        // never see machine-speed noise.
        let points = harness::measure_hotpath();
        out!("{}", harness::hotpath_text(&points));
        report.add_section("hotpath", harness::hotpath_json(&points));
    }
    for (name, section) in x.sections {
        report.add_section(&name, section);
    }

    if let Some(dest) = &x.flags.json {
        let text = report.finish().to_json_pretty();
        if dest == "-" {
            println!("{text}");
        } else if let Err(e) = std::fs::write(dest, text + "\n") {
            eprintln!("error: cannot write {dest}: {e}");
            std::process::exit(1);
        }
    }

    obs::log::info(
        "harness.run",
        "run finished",
        &[("cells", obs::log::Value::from(cells as u64))],
    );
    if let Some(path) = journal {
        let records = obs::log::recorded();
        let write_errors = obs::log::disable();
        eprintln!("journal: {records} records -> {}", path.display());
        if write_errors > 0 {
            eprintln!(
                "warning: journal {}: {write_errors} write errors",
                path.display()
            );
        }
    }
}

fn main_record(args: &mut Args) -> Result<(), Usage> {
    let mut scale = 1.0f64;
    let mut seed = 42u64;
    let mut out = None;
    let mut experiments = Vec::new();
    while let Some(a) = args.token()? {
        match a.as_str() {
            "--out" => out = Some(args.string(&a)?),
            "--scale" => scale = args.parse(&a)?,
            "--seed" => seed = args.parse(&a)?,
            other if other.starts_with('-') => return Err(args.unknown(other)),
            _ => experiments.push(a),
        }
    }
    let out = out.ok_or("record needs --out FILE")?;
    let selected = select_experiments(&experiments)?;
    let (profile, pipelinep) = run_params(scale, seed);

    let mut registry = Registry::new();
    let rep = match record(&out, &selected, profile, pipelinep, scale, &mut registry) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: cannot record {out}: {e}");
            std::process::exit(1);
        }
    };
    let mut t = Table::new(
        format!("Recorded {out} (seed {seed}, scale {scale})"),
        &["benchmark", "instructions"],
    );
    for (bench, n) in &rep.per_bench {
        t.row(vec![bench.to_string(), n.to_string()]);
    }
    t.row(vec!["total".into(), rep.records.to_string()]);
    out!("{}", t.render());
    outln!(
        "container: {} bytes ({:.2} bytes/inst, {:.1}x smaller than text)",
        rep.binary_bytes,
        rep.bytes_per_inst(),
        rep.compression_vs_text()
    );
    outln!(
        "encode: {:.0} inst/s, {:.1} MiB/s",
        rep.insts_per_sec,
        rep.mib_per_sec
    );
    Ok(())
}

fn main_replay(args: &mut Args) -> Result<(), Usage> {
    let mut file = None;
    let mut flags = RunFlags::default();
    while let Some(a) = args.token()? {
        match a.as_str() {
            "--json" => flags.json = Some(args.string(&a)?),
            "--trace-last" => flags.trace_last = Some(args.count(&a)?),
            "--log" => flags.log = Some(args.string(&a)?),
            "--log-level" => flags.log_level = args.level(&a)?,
            other if other.starts_with('-') => return Err(args.unknown(other)),
            _ => cli::once(&mut file, a)?,
        }
    }
    let file = file.ok_or("replay needs a trace file")?;

    let mut registry = Registry::new();
    let plan = match open_replay(&file, &mut registry) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: cannot replay {file}: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "replaying {} (seed {}, scale {}): {}",
        plan.source.describe(),
        plan.seed,
        plan.scale,
        plan.experiments.join(" ")
    );
    execute(Execution {
        source: &plan.source,
        selected: &plan.experiments,
        profile: plan.profile,
        pipeline: plan.pipeline,
        seed: plan.seed,
        scale: plan.scale,
        // Replay streams the capture sequentially; parallel cells would
        // contend for the reader, so replay always runs single-worker.
        jobs: 1,
        flags,
        sections: vec![("tracefile".to_string(), registry.to_json())],
    });
    Ok(())
}

fn main_explain(args: &mut Args) -> Result<(), Usage> {
    let mut scale = 1.0f64;
    let mut seed = 42u64;
    let mut jobs = None;
    let mut json = None;
    let mut top = harness::explain::DEFAULT_TOP;
    let mut dump = false;
    let mut exp = None;
    while let Some(a) = args.token()? {
        match a.as_str() {
            "--scale" => scale = args.parse(&a)?,
            "--seed" => seed = args.parse(&a)?,
            "--top" => top = args.parse(&a)?,
            "--jobs" | "-j" => jobs = Some(args.count(&a)?),
            "--json" => json = Some(args.string(&a)?),
            "--dump-provenance" => dump = true,
            other if other.starts_with('-') => return Err(args.unknown(other)),
            _ => cli::once(&mut exp, a)?,
        }
    }
    let exp = exp.ok_or("explain needs an experiment (fig13 or fig16)")?;
    if json.as_deref() == Some("-") {
        TABLES_TO_STDERR.store(true, Ordering::Relaxed);
    }

    let (_, params) = run_params(scale, seed);
    let source = SyntheticSource::new(seed);
    let plan = harness::explain_plan(&exp, &source, params, top, dump).ok_or_else(|| {
        format!(
            "explain supports {}, not {exp}",
            harness::EXPLAIN_EXPERIMENTS.join(" and ")
        )
    })?;

    let mut master = Registry::new();
    let mut section: Option<JsonValue> = None;
    run_plans(
        vec![plan],
        jobs.unwrap_or_else(default_jobs),
        &mut master,
        |res| {
            out!("{}", res.text);
            eprintln!("[{} took {:.1}s]\n", res.name, res.busy.as_secs_f64());
            section = Some(res.json);
        },
    );

    if let Some(dest) = &json {
        // The explain report carries no timing/scheduler sections by
        // design: every byte is worker-count invariant.
        let root = JsonValue::object()
            .with("schema", harness::explain::SCHEMA)
            .with("experiment", exp)
            .with("seed", seed)
            .with("scale", scale)
            .with("explain", section.take().expect("one plan emitted"));
        let text = root.to_json_pretty();
        if dest == "-" {
            println!("{text}");
        } else if let Err(e) = std::fs::write(dest, text + "\n") {
            eprintln!("error: cannot write {dest}: {e}");
            std::process::exit(1);
        }
    }
    Ok(())
}

fn main_convert(args: &mut Args) -> Result<(), Usage> {
    let mut files = Vec::new();
    while let Some(a) = args.token()? {
        if a.starts_with('-') {
            return Err(args.unknown(&a));
        }
        files.push(a);
    }
    let [input, output] =
        <[String; 2]>::try_from(files).map_err(|_| "convert takes exactly: convert IN OUT")?;
    match convert_any(&input, &output) {
        Ok(stats) => outln!(
            "converted {} instructions: {} text bytes <-> {} binary bytes",
            stats.records,
            stats.text_bytes,
            stats.binary_bytes
        ),
        Err(e) => {
            eprintln!("error: cannot convert {input}: {e}");
            std::process::exit(1);
        }
    }
    Ok(())
}

/// `export-metrics`: run experiments and print the merged registry (plus
/// the span table) in Prometheus text exposition format. Tables go to
/// stderr; stdout carries only the exposition so it pipes cleanly into
/// scrape tooling — the same rendering a future serve daemon's `/metrics`
/// endpoint will return.
fn main_export_metrics(args: &mut Args) -> Result<(), Usage> {
    let mut scale = 1.0f64;
    let mut seed = 42u64;
    let mut jobs = None;
    let mut out = None;
    let mut experiments = Vec::new();
    while let Some(a) = args.token()? {
        match a.as_str() {
            "--scale" => scale = args.parse(&a)?,
            "--seed" => seed = args.parse(&a)?,
            "--jobs" | "-j" => jobs = Some(args.count(&a)?),
            "--out" => out = Some(args.string(&a)?),
            other if other.starts_with('-') => return Err(args.unknown(other)),
            _ => experiments.push(a),
        }
    }
    let selected = select_experiments(&experiments)?;
    // Stdout is the exposition; everything human-readable moves aside.
    TABLES_TO_STDERR.store(true, Ordering::Relaxed);
    let (profile, pipelinep) = run_params(scale, seed);
    let source = SyntheticSource::new(seed);
    let memo = RunMemo::new(&source);
    let plans = selected
        .iter()
        .map(|exp| plan_for(exp, &memo, profile, pipelinep))
        .collect();
    let mut master = Registry::new();
    run_plans(
        plans,
        jobs.unwrap_or_else(default_jobs),
        &mut master,
        |res| {
            out!("{}", res.text);
            eprintln!("[{} took {:.1}s]\n", res.name, res.busy.as_secs_f64());
        },
    );
    memo.counts().publish(&mut master);
    let text = obs::expose::prometheus(&master, &obs::span::snapshot());
    match &out {
        Some(dest) => {
            if let Err(e) = std::fs::write(dest, &text) {
                eprintln!("error: cannot write {dest}: {e}");
                std::process::exit(1);
            }
        }
        None => print!("{text}"),
    }
    Ok(())
}

/// `bench-diff`: compare the `experiments` sections of two run reports,
/// print per-metric deltas, and exit 3 when any metric moved more than
/// the threshold — the regression gate behind committed `BENCH_*.json`
/// snapshots.
fn main_bench_diff(args: &mut Args) -> Result<(), Usage> {
    let mut threshold = harness::DEFAULT_THRESHOLD_PCT;
    let mut full = false;
    let mut files = Vec::new();
    while let Some(a) = args.token()? {
        match a.as_str() {
            "--threshold" => {
                threshold = args.parse(&a)?;
                if !(threshold.is_finite() && threshold >= 0.0) {
                    return Err("--threshold: must be a finite, non-negative percentage".into());
                }
            }
            "--full" => full = true,
            other if other.starts_with('-') => return Err(args.unknown(other)),
            _ => files.push(a),
        }
    }
    if files.len() != 2 {
        return Err("bench-diff takes exactly: bench-diff OLD.json NEW.json".into());
    }
    let load = |path: &str| -> JsonValue {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                std::process::exit(1);
            }
        };
        match JsonValue::parse(&text) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("error: {path} is not valid JSON: {e}");
                std::process::exit(1);
            }
        }
    };
    let old = load(&files[0]);
    let new = load(&files[1]);
    let diff = match harness::diff_reports(&old, &new, threshold) {
        Ok(d) => d,
        Err(m) => {
            eprintln!("error: {m}");
            std::process::exit(1);
        }
    };
    print!("{}", diff.render(full));
    let breaches = diff.breaches();
    if breaches.is_empty() {
        println!(
            "OK: {} metrics within {:.2}% of {}",
            diff.rows.len(),
            threshold,
            files[0]
        );
    } else {
        println!(
            "FAIL: {} of {} metrics moved more than {:.2}%",
            breaches.len(),
            diff.rows.len(),
            threshold
        );
        std::process::exit(3);
    }
    Ok(())
}

/// Converts in whichever direction the input's magic bytes call for.
fn convert_any(
    input: &str,
    output: &str,
) -> Result<tracefile::ConvertStats, Box<dyn std::error::Error>> {
    use std::io::{BufReader, BufWriter, Read};
    let mut head = [0u8; 8];
    let n = std::fs::File::open(input)?.read(&mut head)?;
    if n == 8 && head == tracefile::container::MAGIC {
        let mut r = tracefile::TraceReader::open(input)?;
        let mut w = BufWriter::new(std::fs::File::create(output)?);
        let stats = tracefile::binary_to_text(&mut r, &mut w)?;
        std::io::Write::flush(&mut w)?;
        Ok(stats)
    } else {
        let r = BufReader::new(std::fs::File::open(input)?);
        let mut w = tracefile::TraceWriter::create(output, tracefile::DEFAULT_CHUNK_CAP)?;
        let name = std::path::Path::new(input)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("trace")
            .to_string();
        let mut stats = tracefile::text_to_binary(r, &mut w, &name)?;
        w.finish()?;
        stats.binary_bytes = std::fs::metadata(output)?.len();
        Ok(stats)
    }
}

fn main_serve(args: &mut Args) -> Result<(), Usage> {
    let opts = serve_cli::parse_serve_args(args)?;
    if let Err(e) = serve_cli::run_serve(&opts) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    Ok(())
}

fn main_serve_client(args: &mut Args) -> Result<(), Usage> {
    let opts = serve_cli::parse_serve_client_args(args)?;
    if let Err(e) = serve_cli::run_serve_client(&opts) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    Ok(())
}

/// `logs FILE [--level L] [--target PREFIX] [--follow] [--json]`: read a
/// binary journal written by `--log` and pretty-print it (or emit one
/// JSON object per record). `--follow` keeps polling for appended
/// records, surviving rotation.
fn main_logs(args: &mut Args) -> Result<(), Usage> {
    let mut file = None;
    let mut level = obs::log::Level::Debug;
    let mut target = None;
    let mut follow = false;
    let mut json = false;
    while let Some(a) = args.token()? {
        match a.as_str() {
            "--level" => level = args.level(&a)?,
            "--target" => target = Some(args.string(&a)?),
            "--follow" | "-f" => follow = true,
            "--json" => json = true,
            other if other.starts_with('-') => return Err(args.unknown(other)),
            _ => cli::once(&mut file, a)?,
        }
    }
    let file = file.ok_or("logs needs a journal file")?;
    let path = std::path::Path::new(&file);
    let keep = |r: &obs::log::OwnedRecord| {
        r.level as u8 >= level as u8 && target.as_deref().is_none_or(|t| r.target.starts_with(t))
    };
    let print = |r: &obs::log::OwnedRecord| {
        if json {
            println!("{}", r.to_json().to_json());
        } else {
            println!("{r}");
        }
    };

    if follow {
        // The tail starts at the header, so the first poll replays the
        // whole existing journal before settling into live updates.
        let mut tail = match obs::log::JournalTail::open(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot open {file}: {e}");
                std::process::exit(1);
            }
        };
        loop {
            match tail.poll() {
                Ok((records, warning)) => {
                    for r in &records {
                        if keep(r) {
                            print(r);
                        }
                    }
                    if let Some(w) = warning {
                        eprintln!("warning: {file}: {w}");
                    }
                }
                // Rotation renames the file before recreating it; a poll
                // landing in that window just waits for the new one.
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => {
                    eprintln!("error: {file}: {e}");
                    std::process::exit(1);
                }
            }
            std::thread::sleep(Duration::from_millis(200));
        }
    }

    let outcome = match obs::log::read_journal(path) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: cannot read {file}: {e}");
            std::process::exit(1);
        }
    };
    let mut shown = 0usize;
    for r in &outcome.records {
        if keep(r) {
            print(r);
            shown += 1;
        }
    }
    if let Some(w) = outcome.warning {
        eprintln!("warning: {file}: {w}");
    }
    eprintln!("{file}: {shown} of {} records shown", outcome.records.len());
    Ok(())
}

/// `sweep --grid SPEC|@FILE --ckpt DIR [--workers N] [--jobs N|-jN] ...`:
/// expand a declarative parameter grid and run every cell across worker
/// processes, checkpointing each finished cell so an interrupted sweep
/// resumes where it left off. The merged report is byte-identical for
/// every worker/thread count and any interrupt/resume split.
fn main_sweep(args: &mut Args) -> Result<(), Usage> {
    let mut grid_arg = None;
    let mut ckpt = None;
    let mut out = None;
    let mut workers = 1usize;
    let mut jobs = None;
    let mut pareto = false;
    let mut dry_run = false;
    let mut fresh = false;
    let mut scale = 1.0f64;
    let mut seed = 42u64;
    let mut log = None;
    let mut log_level = obs::log::Level::Info;
    let mut live_metrics = None;
    let mut live_interval_ms = 250u64;
    let mut timeline = None;
    while let Some(a) = args.token()? {
        match a.as_str() {
            "--grid" => grid_arg = Some(args.string(&a)?),
            "--ckpt" => ckpt = Some(args.string(&a)?),
            "--workers" => workers = args.count(&a)?,
            "--jobs" | "-j" => jobs = Some(args.count(&a)?),
            "--pareto" => pareto = true,
            "--dry-run" => dry_run = true,
            "--fresh" => fresh = true,
            "--out" => out = Some(args.string(&a)?),
            "--scale" => scale = args.parse(&a)?,
            "--seed" => seed = args.parse(&a)?,
            "--log" => log = Some(args.string(&a)?),
            "--log-level" => log_level = args.level(&a)?,
            "--live-metrics" => live_metrics = Some(args.string(&a)?),
            "--live-interval-ms" => live_interval_ms = args.count(&a)?,
            "--timeline" => timeline = Some(args.string(&a)?),
            other => return Err(args.unknown(other)),
        }
    }
    let grid_arg = grid_arg.ok_or("sweep needs --grid")?;
    if dry_run && fresh {
        return Err("--dry-run and --fresh are mutually exclusive".into());
    }
    let spec_text = if let Some(path) = grid_arg.strip_prefix('@') {
        match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read grid file {path}: {e}");
                std::process::exit(1);
            }
        }
    } else {
        grid_arg
    };
    let mut base = RunParams::profile_default().scaled(scale);
    base.seed = seed;
    let grid = harness::GridSpec::parse(&spec_text, base)?;
    if dry_run {
        print!("{}", harness::render_dry_run(&grid));
        return Ok(());
    }
    let ckpt = ckpt.ok_or("sweep needs --ckpt (or --dry-run)")?;
    if out.as_deref() == Some("-") || live_metrics.as_deref() == Some("-") {
        TABLES_TO_STDERR.store(true, Ordering::Relaxed);
    }

    let journal =
        match serve_cli::enable_journal(log.as_deref().map(std::path::Path::new), log_level) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        };
    if timeline.is_some() {
        obs::timeline::enable(TIMELINE_CAPACITY);
        obs::timeline::set_thread_name("main");
    }
    let live = live_metrics.as_ref().map(|_| SharedRegistry::new());
    let sampler = live_metrics.as_ref().map(|dest| {
        let writer: Box<dyn std::io::Write + Send> = if dest == "-" {
            Box::new(std::io::stdout())
        } else {
            match std::fs::File::create(dest) {
                Ok(f) => Box::new(f),
                Err(e) => {
                    eprintln!("error: cannot write {dest}: {e}");
                    std::process::exit(1);
                }
            }
        };
        Sampler::start(
            live.clone().expect("live registry exists"),
            Duration::from_millis(live_interval_ms),
            LIVE_RING_CAP,
            Some(writer),
        )
    });
    obs::log::info(
        "harness.sweep",
        "sweep started",
        &[
            ("cells", obs::log::Value::from(grid.cell_count())),
            ("workers", obs::log::Value::from(workers)),
            ("seed", obs::log::Value::from(seed)),
        ],
    );

    let dir = std::path::Path::new(&ckpt);
    if let Err(e) = harness::prepare_dir(dir, &grid, fresh) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    // Each worker process gets an even share of the machine unless --jobs
    // pins its thread count explicitly.
    let jobs = jobs.unwrap_or_else(|| (default_jobs() / workers).max(1));
    let completed = match harness::sweep_parent(dir, &grid, workers, jobs, live.as_ref()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: sweep failed: {e}");
            std::process::exit(1);
        }
    };

    let (text, report) = harness::render_sweep(&grid, &completed, pareto, scale);
    out!("{}", text);
    if let Some(dest) = &out {
        let text = report.to_json_pretty();
        if dest == "-" {
            println!("{text}");
        } else if let Err(e) = std::fs::write(dest, text + "\n") {
            eprintln!("error: cannot write {dest}: {e}");
            std::process::exit(1);
        }
    }

    if let Some(dest) = &timeline {
        obs::timeline::disable();
        let text = obs::timeline::export().to_json();
        if let Err(e) = std::fs::write(dest, text + "\n") {
            eprintln!("error: cannot write {dest}: {e}");
            std::process::exit(1);
        }
        eprintln!(
            "timeline: {} events ({} dropped) -> {dest}",
            obs::timeline::recorded(),
            obs::timeline::dropped(),
        );
    }
    if let Some(sampler) = sampler {
        let log = sampler.stop();
        if !log.stream_ok {
            eprintln!("warning: live-metrics stream write failed");
        }
        eprintln!(
            "live-metrics: {} snapshots ({} beyond the ring)",
            log.taken, log.dropped
        );
    }
    obs::log::info(
        "harness.sweep",
        "sweep finished",
        &[("cells", obs::log::Value::from(completed.len()))],
    );
    if let Some(path) = journal {
        let records = obs::log::recorded();
        let write_errors = obs::log::disable();
        eprintln!("journal: {records} records -> {}", path.display());
        if write_errors > 0 {
            eprintln!(
                "warning: journal {}: {write_errors} write errors",
                path.display()
            );
        }
    }
    Ok(())
}

/// Hidden child-process entry point: `sweep-worker --ckpt DIR --worker K
/// --workers W --jobs J`. Spawned by `sweep`; everything it needs is in
/// the checkpoint directory. Exits when its parent dies (stdin EOF).
fn main_sweep_worker(args: &mut Args) -> Result<(), Usage> {
    let mut ckpt = None;
    let mut worker = None;
    let mut workers = None;
    let mut jobs = 1usize;
    while let Some(a) = args.token()? {
        match a.as_str() {
            "--ckpt" => ckpt = Some(args.string(&a)?),
            "--worker" => worker = Some(args.parse(&a)?),
            "--workers" => workers = Some(args.count(&a)?),
            "--jobs" | "-j" => jobs = args.count(&a)?,
            other => return Err(args.unknown(other)),
        }
    }
    let (Some(ckpt), Some(worker), Some(workers)) = (ckpt, worker, workers) else {
        return Err("sweep-worker needs --ckpt, --worker, and --workers".into());
    };
    harness::sweep::spawn_orphan_watchdog();
    if let Err(e) = harness::run_sweep_worker(std::path::Path::new(&ckpt), worker, workers, jobs) {
        eprintln!("error: sweep worker {worker}: {e}");
        std::process::exit(1);
    }
    Ok(())
}

fn print_usage() {
    eprintln!(
        "usage: harness [--scale F] [--seed N] [--jobs N|-jN] [--json PATH|-]\n\
         \x20              [--trace-last N] [--timeline PATH]\n\
         \x20              [--live-metrics PATH|-] [--live-interval-ms N]\n\
         \x20              [--hotpath-bench] [--log PATH] [--log-level L] <experiment>...\n\
         \x20      harness record --out FILE [--scale F] [--seed N] <experiment>...\n\
         \x20      harness replay FILE [--json PATH|-] [--trace-last N]\n\
         \x20              [--log PATH] [--log-level L]\n\
         \x20      harness convert IN OUT\n\
         \x20      harness explain <fig13|fig16> [--scale F] [--seed N] [--jobs N|-jN]\n\
         \x20              [--json PATH|-] [--top N] [--dump-provenance]\n\
         \x20      harness export-metrics [--scale F] [--seed N] [--jobs N|-jN]\n\
         \x20              [--out PATH] <experiment>...\n\
         \x20      harness bench-diff OLD.json NEW.json [--threshold PCT] [--full]\n\
         \x20      harness serve (--socket PATH | --stdio | --selftest)\n\
         \x20              [--max-sessions N] [--queue-depth N] [--global-queue N]\n\
         \x20              [--scale F] [--seed N] [--log PATH] [--log-level L]\n\
         \x20      harness serve-client --socket PATH\n\
         \x20              [--trace FILE | --stream BENCH | --drift-probe]\n\
         \x20              [--session NAME] [--window N] [--warmup N] [--measure N]\n\
         \x20              [--scale F] [--seed N] [--corrupt-chunk N]\n\
         \x20              [--status] [--metrics] [--health] [--shutdown]\n\
         \x20      harness logs FILE [--level L] [--target PREFIX] [--follow] [--json]\n\
         \x20      harness sweep --grid SPEC|@FILE (--ckpt DIR | --dry-run)\n\
         \x20              [--workers N] [--jobs N|-jN] [--pareto] [--out PATH|-]\n\
         \x20              [--fresh] [--scale F] [--seed N] [--log PATH] [--log-level L]\n\
         \x20              [--live-metrics PATH|-] [--live-interval-ms N] [--timeline PATH]\n\
         experiments: fig1 fig8 fig9 fig10 fig12 fig13 fig16 fig18a fig18b\n\
         table2 fig19 ablate-queue ablate-filler ablate-confidence\n\
         ablate-depth prefetch limit all\n\
         --jobs runs experiment cells on N workers (default: all cores);\n\
         output is byte-identical for every worker count\n\
         --json writes a machine-readable run report (- for stdout)\n\
         --trace-last records pipeline events and dumps the final N\n\
         --timeline exports a Chrome trace-event timeline (open in Perfetto\n\
         or chrome://tracing): one track per worker, spans per cell\n\
         --live-metrics streams periodic delta-compressed NDJSON metric\n\
         snapshots while the run is going (- for stdout; tables move to\n\
         stderr); --live-interval-ms sets the period (default 250)\n\
         --hotpath-bench times the gdiff update hot path (closure vs\n\
         batched window) after the experiments and adds a `hotpath`\n\
         section to the --json report\n\
         record captures the instruction streams the named experiments\n\
         consume into a chunked, CRC-checked binary container; replay\n\
         re-runs them from the capture with identical results (always\n\
         single-worker); convert translates text traces to the container\n\
         and back (direction sniffed from the input's magic bytes);\n\
         explain re-runs a gdiff-vs-stride comparison with the prediction\n\
         provenance tap on and prints per-PC / distance / value-delay\n\
         offender tables (byte-identical for every --jobs value);\n\
         --dump-provenance includes the raw flight-recorder events;\n\
         export-metrics runs experiments and prints the merged registry\n\
         in Prometheus text format (stdout, or --out FILE);\n\
         bench-diff compares two --json run reports' experiments sections\n\
         and exits 3 when any metric moved more than --threshold percent\n\
         (default 5; --full lists unchanged metrics too);\n\
         serve runs the gdiff-serve/v1 prediction daemon on a Unix socket\n\
         (--stdio: one session over stdin/stdout; --selftest: record,\n\
         stream, and diff every benchmark against a one-shot run);\n\
         serve-client streams a recorded trace (--trace, one session per\n\
         stream) or a synthesized benchmark (--stream) to a daemon and\n\
         prints the final report JSON; --status/--metrics/--health/\n\
         --shutdown are daemon control requests; --drift-probe streams a\n\
         synthetic session that switches stride family mid-stream and\n\
         fails unless the daemon's drift detector catches it;\n\
         --corrupt-chunk flips one byte in chunk N before sending it\n\
         --log writes a structured binary journal of live events (admits,\n\
         kills, drift alarms, run milestones; rotated at 16 MiB) without\n\
         changing any deterministic output; --log-level gates it\n\
         (debug|info|warn|error, default info);\n\
         logs pretty-prints a journal (--json: one JSON object per\n\
         record; --follow: keep polling, surviving rotation);\n\
         sweep expands a declarative parameter grid (clauses like\n\
         'order=4,8;depth=1024,8192;threshold=0,4;delay=0,2;bench=all')\n\
         into one cell per (config x benchmark) and runs them across\n\
         --workers processes, each on --jobs threads, coordinating\n\
         through atomic cell claims in the --ckpt directory with\n\
         work stealing from stragglers' shard tails; every finished\n\
         cell is checkpointed (CRC-framed), so a killed sweep re-run\n\
         with the same --ckpt resumes, skipping completed cells; the\n\
         merged tables/report are byte-identical for every worker and\n\
         thread count and any interrupt/resume split; --pareto adds the\n\
         (gated accuracy x coverage vs table bits) frontier; --dry-run\n\
         prints the expansion without running; --fresh discards\n\
         checkpoints from a previous grid"
    );
}
