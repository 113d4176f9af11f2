//! A pre-generated, `Vec`-backed [`TraceSource`].
//!
//! The per-layer timings of the profile loop, the pipeline and the 17
//! experiments run over this source, so generation is excluded from them
//! and timed on its own. It holds the same prefix [`SyntheticSource`]
//! yields at the same seed; `layers` checks that runs over both give
//! bit-identical statistics.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use workloads::{Benchmark, DynInst, SyntheticSource, TraceSource};

/// Per-benchmark instruction prefixes plus pull accounting.
#[derive(Debug)]
pub struct VecSource {
    streams: Vec<Vec<DynInst>>,
    /// Instructions handed out by every stream opened so far.
    pulled: AtomicU64,
    /// Set when some reader asked for more than the prefix holds.
    overrun: AtomicBool,
}

/// What draining the synthetic models cost.
#[derive(Debug, Clone, Copy)]
pub struct Generation {
    pub insts: u64,
    pub secs: f64,
}

/// Times draining `SyntheticSource::stream` for `per_bench` instructions
/// of every benchmark, after a short untimed warm-up.
pub fn time_generation(seed: u64, per_bench: usize) -> Generation {
    let synthetic = SyntheticSource::new(seed);
    let mut sink = 0u64;
    for bench in Benchmark::ALL {
        sink ^= synthetic
            .stream(bench)
            .take(10_000)
            .fold(0, |a, i| a ^ i.value);
    }
    let t = Instant::now();
    for bench in Benchmark::ALL {
        sink ^= synthetic
            .stream(bench)
            .take(per_bench)
            .fold(0, |a, i| a ^ i.value);
    }
    let secs = t.elapsed().as_secs_f64();
    std::hint::black_box(sink);
    Generation {
        insts: (per_bench * Benchmark::ALL.len()) as u64,
        secs,
    }
}

fn index(bench: Benchmark) -> usize {
    Benchmark::ALL
        .iter()
        .position(|b| *b == bench)
        .expect("every benchmark is in Benchmark::ALL")
}

impl VecSource {
    /// Drains `SyntheticSource::stream` for every benchmark until the
    /// prefix holds at least `min_insts` instructions and `min_producers`
    /// value producers.
    pub fn generate(seed: u64, min_insts: usize, min_producers: usize) -> VecSource {
        let synthetic = SyntheticSource::new(seed);
        let mut streams = Vec::with_capacity(Benchmark::ALL.len());
        for bench in Benchmark::ALL {
            let mut v = Vec::with_capacity(min_insts.max(min_producers * 2));
            let mut producers = 0usize;
            for inst in synthetic.stream(bench) {
                producers += usize::from(inst.produces_value());
                v.push(inst);
                if v.len() >= min_insts && producers >= min_producers {
                    break;
                }
            }
            streams.push(v);
        }
        VecSource::from_streams(streams)
    }

    /// Wraps already generated per-benchmark prefixes (indexed in
    /// `Benchmark::ALL` order).
    pub fn from_streams(streams: Vec<Vec<DynInst>>) -> VecSource {
        assert_eq!(
            streams.len(),
            Benchmark::ALL.len(),
            "one stream per benchmark"
        );
        VecSource {
            streams,
            pulled: AtomicU64::new(0),
            overrun: AtomicBool::new(false),
        }
    }

    pub fn insts(&self, bench: Benchmark) -> &[DynInst] {
        &self.streams[index(bench)]
    }

    /// Instructions pulled through `stream` so far.
    pub fn pulled(&self) -> u64 {
        self.pulled.load(Ordering::SeqCst)
    }

    /// Whether any reader ran off the end of a prefix (its results would
    /// differ from a synthetic run's).
    pub fn overrun(&self) -> bool {
        self.overrun.load(Ordering::SeqCst)
    }
}

impl TraceSource for VecSource {
    fn describe(&self) -> String {
        "pre-generated (Vec-backed)".to_string()
    }

    fn stream(&self, bench: Benchmark) -> Box<dyn Iterator<Item = DynInst> + '_> {
        Box::new(Pull {
            it: self.streams[index(bench)].iter(),
            n: 0,
            owner: self,
        })
    }
}

/// One open stream; reports its pull count when dropped.
struct Pull<'a> {
    it: std::slice::Iter<'a, DynInst>,
    n: u64,
    owner: &'a VecSource,
}

impl Iterator for Pull<'_> {
    type Item = DynInst;

    fn next(&mut self) -> Option<DynInst> {
        match self.it.next() {
            Some(inst) => {
                self.n += 1;
                Some(*inst)
            }
            None => {
                self.owner.overrun.store(true, Ordering::SeqCst);
                None
            }
        }
    }
}

impl Drop for Pull<'_> {
    fn drop(&mut self) {
        self.owner.pulled.fetch_add(self.n, Ordering::SeqCst);
    }
}
