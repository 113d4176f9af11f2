//! Pins every benchmark's instruction stream.
//!
//! Each fingerprint is a 64-bit FNV-1a hash over every field of the first
//! 100k `DynInst`s of one benchmark at seed 42. Any change to what the
//! generator emits — a reordered RNG draw, a moved skip, a different site
//! order — changes a fingerprint and fails here, before it can silently
//! shift every experiment's numbers.

use workloads::{Benchmark, DynInst, OpClass};

const SEED: u64 = 42;
const INSTS: usize = 100_000;

/// `(benchmark, FNV-1a fingerprint of its first 100k instructions)`.
const PINNED: [(Benchmark, u64); 10] = [
    (Benchmark::Bzip2, 0x40d2_efaa_ce91_e6b8),
    (Benchmark::Gap, 0x77ce_e1e8_29fb_464e),
    (Benchmark::Gcc, 0x06ea_3d70_0f8c_7074),
    (Benchmark::Gzip, 0x50f0_4241_69e5_a651),
    (Benchmark::Mcf, 0x5f24_2d53_6ede_77c3),
    (Benchmark::Parser, 0xc3a1_ba66_2e65_c773),
    (Benchmark::Perl, 0x3ec1_831f_9aa0_3c10),
    (Benchmark::Twolf, 0x1056_c507_4636_fdd6),
    (Benchmark::Vortex, 0x3c93_1bf2_3e5f_320c),
    (Benchmark::Vpr, 0x9216_9901_f353_e3db),
];

struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn opt_u8(&mut self, v: Option<u8>) {
        match v {
            Some(r) => self.bytes(&[1, r]),
            None => self.bytes(&[0]),
        }
    }

    fn inst(&mut self, i: &DynInst) {
        self.u64(i.pc);
        self.bytes(&[match i.op {
            OpClass::IntAlu => 0,
            OpClass::IntMul => 1,
            OpClass::IntDiv => 2,
            OpClass::Load => 3,
            OpClass::Store => 4,
            OpClass::Branch => 5,
            OpClass::Jump => 6,
        }]);
        self.opt_u8(i.dst);
        self.opt_u8(i.srcs[0]);
        self.opt_u8(i.srcs[1]);
        self.u64(i.value);
        match i.mem_addr {
            Some(a) => {
                self.bytes(&[1]);
                self.u64(a);
            }
            None => self.bytes(&[0]),
        }
        self.bytes(&[u8::from(i.taken)]);
        self.u64(i.target);
    }
}

fn fingerprint(bench: Benchmark) -> u64 {
    let mut h = Fnv1a::new();
    for inst in bench.build(SEED).take(INSTS) {
        h.inst(&inst);
    }
    h.0
}

#[test]
fn benchmark_streams_match_pinned_fingerprints() {
    let got: Vec<(Benchmark, u64)> = Benchmark::ALL
        .iter()
        .map(|&b| (b, fingerprint(b)))
        .collect();
    assert_eq!(got, PINNED, "a benchmark's instruction stream changed");
}
