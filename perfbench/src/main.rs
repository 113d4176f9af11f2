//! `perfbench`: the in-process half of the repository benchmark.
//!
//! `perfbench/run.py` builds this next to the `harness` binary and calls
//! it for the parts that need the crates' public functions:
//!
//! ```text
//! perfbench serve  --harness BIN --dir D --seed N --seconds S --trace 0|1
//! perfbench layers --dir D --seed N
//! perfbench cells  --seed N
//! ```
//!
//! Workload settings come from `config.json`. Each command prints one
//! JSON object on stdout.

mod config;
mod layers;
mod serve_load;
mod source;
mod stats;

use std::collections::HashMap;
use std::process::ExitCode;
use std::str::FromStr;

use obs::JsonValue;

use config::Config;

struct Args(HashMap<String, String>);

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut map = HashMap::new();
        let mut it = raw.iter();
        while let Some(flag) = it.next() {
            let key = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            map.insert(key.to_string(), value.clone());
        }
        Ok(Args(map))
    }

    fn get<T: FromStr>(&self, key: &str) -> Result<T, String> {
        let v = self.0.get(key).ok_or_else(|| format!("missing --{key}"))?;
        v.parse().map_err(|_| format!("bad --{key} value `{v}`"))
    }
}

fn serve_cmd(a: &Args, cfg: Config) -> Result<JsonValue, String> {
    serve_load::run(&serve_load::ServeOpts {
        harness: a.get("harness")?,
        dir: a.get("dir")?,
        seed: a.get("seed")?,
        seconds: a.get("seconds")?,
        traced: a.get::<u8>("trace")? != 0,
        cfg: cfg.serve,
    })
}

/// Recomputes a fixed sample of sweep cells in-process, for checking the
/// CLI's: every 23rd cell and the last, which covers both values of every
/// grid axis.
fn cells_cmd(a: &Args, cfg: Config) -> Result<JsonValue, String> {
    let grid = layers::parse_grid(&cfg.sweep_grid, a.get("seed")?)?;
    let n = grid.cell_count();
    let cells: Vec<_> = (0..n)
        .step_by(23)
        .chain([n - 1])
        .map(|id| grid.cell(id))
        .collect();
    let done = layers::run_cells(&cells, grid.params, cfg.sweep_workers);
    Ok(JsonValue::object().with("cell_count", n).with(
        "cells",
        done.iter()
            .map(|(c, k, _)| layers::cell_json(c.id, k))
            .collect::<Vec<_>>(),
    ))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = raw.split_first() else {
        eprintln!("usage: perfbench <serve|layers|cells> --flag value ...");
        return ExitCode::from(2);
    };
    let cfg = Config::load();
    let result = Args::parse(rest).and_then(|a| match cmd.as_str() {
        "serve" => serve_cmd(&a, cfg),
        "layers" => layers::run(&cfg, a.get("seed")?, &a.get::<std::path::PathBuf>("dir")?),
        "cells" => cells_cmd(&a, cfg),
        other => Err(format!("unknown command `{other}`")),
    });
    match result {
        Ok(v) => {
            println!("{}", v.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench {cmd}: {e}");
            ExitCode::FAILURE
        }
    }
}
