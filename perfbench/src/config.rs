//! Workload settings from `config.json`, embedded at build time so that
//! this binary and `run.py` read the same file.

use obs::JsonValue;

/// The settings the helper needs (`run.py` reads the rest).
#[derive(Debug, Clone)]
pub struct Config {
    /// `--scale` of the `repro` command.
    pub repro_scale: f64,
    /// `--grid` of the `sweep` command.
    pub sweep_grid: String,
    /// `--workers` of the `sweep` command.
    pub sweep_workers: usize,
    pub serve: Serve,
}

/// The `serve` workload's load shape.
#[derive(Debug, Clone)]
pub struct Serve {
    /// Records per CHUNK frame.
    pub chunk: usize,
    /// Go-back-N window: CHUNK frames in flight per session.
    pub window: u64,
    /// Concurrent sessions (client threads, one connection each).
    pub sessions: usize,
}

impl Config {
    pub fn load() -> Config {
        let v = JsonValue::parse(include_str!("../config.json")).expect("config.json parses");
        let num = |path: &str| {
            v.path(path)
                .and_then(JsonValue::as_f64)
                .unwrap_or_else(|| panic!("config.json: no number at `{path}`"))
        };
        Config {
            repro_scale: num("repro.scale"),
            sweep_grid: v
                .path("sweep.grid")
                .and_then(JsonValue::as_str)
                .expect("config.json: no string at `sweep.grid`")
                .to_string(),
            sweep_workers: num("sweep.workers") as usize,
            serve: Serve {
                chunk: num("serve.chunk") as usize,
                window: num("serve.window") as u64,
                sessions: num("serve.sessions") as usize,
            },
        }
    }
}
