//! First-order Markov (address transition) predictor.

use crate::{Capacity, PcTable, ValuePredictor};

/// Configuration of the [`MarkovPredictor`]'s transition table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MarkovConfig {
    /// Total transition-table entries (must be a multiple of `ways` and the
    /// set count must be a power of two).
    pub entries: usize,
    /// Set associativity.
    pub ways: usize,
}

impl MarkovConfig {
    /// The paper's §6 configuration: 4-way, 256K entries.
    pub fn paper_256k() -> Self {
        MarkovConfig {
            entries: 256 * 1024,
            ways: 4,
        }
    }

    /// The paper's enlarged configuration: 4-way, 2M entries.
    pub fn paper_2m() -> Self {
        MarkovConfig {
            entries: 2 * 1024 * 1024,
            ways: 4,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Way {
    tag: u64,
    next: u64,
    lru: u64,
}

/// The first-order Markov predictor of Joseph and Grunwald \[13\], as the
/// paper configures it for load-address prediction.
///
/// The transition table maps an address to the address that followed it
/// last time *in the same instruction's reference stream*: a PC-indexed
/// level-1 table remembers each load's previous address, and the tagged,
/// set-associative transition table supplies the successor. The paper notes
/// that the Markov predictor has no confidence counters — *"confidence
/// gating is achieved with tag matching"* — so [`predict`] returns `None`
/// on a tag miss and every returned prediction counts as confident.
///
/// [`predict`]: ValuePredictor::predict
///
/// # Examples
///
/// ```
/// use predictors::{MarkovConfig, MarkovPredictor, ValuePredictor};
///
/// let mut p = MarkovPredictor::new(MarkovConfig { entries: 1024, ways: 4 });
/// // A pointer chase revisits the same transition chain.
/// for _ in 0..2 {
///     for a in [0x1000u64, 0x2000, 0x3000] {
///         p.update(0x40, a);
///     }
/// }
/// // Last address was 0x3000; the chain wraps to 0x1000.
/// assert_eq!(p.predict(0x40), Some(0x1000));
/// ```
#[derive(Debug, Clone)]
pub struct MarkovPredictor {
    last_addr: PcTable<Option<u64>>,
    sets: Vec<Vec<Way>>,
    ways: usize,
    clock: u64,
}

impl MarkovPredictor {
    /// Creates a Markov predictor with the given transition-table geometry.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a multiple of `ways`, or the resulting
    /// set count is not a nonzero power of two.
    pub fn new(config: MarkovConfig) -> Self {
        assert!(
            config.ways > 0 && config.entries.is_multiple_of(config.ways),
            "entries must be a multiple of ways"
        );
        let num_sets = config.entries / config.ways;
        assert!(
            num_sets > 0 && num_sets.is_power_of_two(),
            "set count must be a nonzero power of two"
        );
        MarkovPredictor {
            last_addr: PcTable::new(Capacity::Unbounded),
            sets: vec![Vec::new(); num_sets],
            ways: config.ways,
            clock: 0,
        }
    }

    fn set_index(&self, addr: u64) -> usize {
        // Addresses are word/line aligned; fold upper bits in so strided
        // streams spread across sets.
        let h = (addr >> 3) ^ (addr >> 17);
        (h as usize) & (self.sets.len() - 1)
    }

    fn lookup(&self, addr: u64) -> Option<u64> {
        let set = &self.sets[self.set_index(addr)];
        set.iter().find(|w| w.tag == addr).map(|w| w.next)
    }

    /// Provenance tap: the successor address this predictor would emit
    /// for `pc` right now, without touching LRU state or accounting.
    pub fn predicted_successor(&self, pc: u64) -> Option<u64> {
        let last = (*self.last_addr.peek(pc)?)?;
        self.lookup(last)
    }

    fn insert(&mut self, addr: u64, next: u64) {
        self.clock += 1;
        let clock = self.clock;
        let ways = self.ways;
        let idx = self.set_index(addr);
        let set = &mut self.sets[idx];
        if let Some(w) = set.iter_mut().find(|w| w.tag == addr) {
            w.next = next;
            w.lru = clock;
            return;
        }
        if set.len() < ways {
            set.push(Way {
                tag: addr,
                next,
                lru: clock,
            });
        } else {
            let victim = set.iter_mut().min_by_key(|w| w.lru).expect("nonempty set");
            *victim = Way {
                tag: addr,
                next,
                lru: clock,
            };
        }
    }
}

impl ValuePredictor for MarkovPredictor {
    fn predict(&mut self, pc: u64) -> Option<u64> {
        let last = (*self.last_addr.entry_shared(pc))?;
        self.lookup(last)
    }

    fn update(&mut self, pc: u64, actual: u64) {
        let e = self.last_addr.entry_shared(pc);
        let prev = *e;
        *e = Some(actual);
        if let Some(prev) = prev {
            self.insert(prev, actual);
        }
    }

    fn name(&self) -> &'static str {
        "markov"
    }

    fn learned_diff(&self, pc: u64) -> Option<i64> {
        // The address-transition delta: how far the predicted successor
        // jumps from the load's last address.
        let last = (*self.last_addr.peek(pc)?)?;
        self.lookup(last).map(|next| next.wrapping_sub(last) as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_predicts_nothing() {
        let mut p = MarkovPredictor::new(MarkovConfig {
            entries: 64,
            ways: 4,
        });
        assert_eq!(p.predict(0), None);
        p.update(0, 0x10);
        assert_eq!(p.predict(0), None, "transition not yet seen");
    }

    #[test]
    fn learns_pointer_chase_cycle() {
        let mut p = MarkovPredictor::new(MarkovConfig {
            entries: 64,
            ways: 4,
        });
        let chain = [0x100u64, 0x240, 0x810, 0x100];
        for &a in &chain {
            p.update(0, a);
        }
        // After one lap the cycle is fully recorded.
        assert_eq!(p.predict(0), Some(0x240));
        p.update(0, 0x240);
        assert_eq!(p.predict(0), Some(0x810));
    }

    #[test]
    fn capacity_pressure_evicts_lru() {
        // 1 set x 2 ways: the third distinct source address evicts the
        // least recently used transition.
        let mut p = MarkovPredictor::new(MarkovConfig {
            entries: 2,
            ways: 2,
        });
        p.update(0, 1); // no transition yet
        p.update(0, 2); // 1 -> 2
        p.update(0, 3); // 2 -> 3
        p.update(0, 4); // 3 -> 4 evicts 1 -> 2
        assert_eq!(p.lookup(1), None);
        assert_eq!(p.lookup(2), Some(3));
        assert_eq!(p.lookup(3), Some(4));
    }

    #[test]
    fn per_pc_streams_are_separate() {
        let mut p = MarkovPredictor::new(MarkovConfig {
            entries: 1024,
            ways: 4,
        });
        // Two loads with different chains; transitions share the table but
        // each PC follows its own last address.
        for _ in 0..2 {
            for a in [0x1000u64, 0x2000] {
                p.update(4, a);
            }
            for a in [0x9000u64, 0xa000] {
                p.update(8, a);
            }
        }
        assert_eq!(p.predict(4), Some(0x1000));
        assert_eq!(p.predict(8), Some(0x9000));
    }

    #[test]
    fn updating_existing_transition_refreshes_it() {
        let mut p = MarkovPredictor::new(MarkovConfig {
            entries: 2,
            ways: 2,
        });
        p.update(0, 1);
        p.update(0, 2); // 1 -> 2
        p.update(0, 1);
        p.update(0, 5); // rewrites 1 -> 5 in place
        assert_eq!(p.lookup(1), Some(5));
    }

    #[test]
    fn successor_tap_matches_predict_without_mutation() {
        let mut p = MarkovPredictor::new(MarkovConfig {
            entries: 64,
            ways: 4,
        });
        assert_eq!(p.predicted_successor(0), None);
        let chain = [0x100u64, 0x240, 0x810, 0x100];
        for &a in &chain {
            p.update(0, a);
        }
        assert_eq!(p.predicted_successor(0), Some(0x240));
        assert_eq!(p.predicted_successor(0), p.predict(0));
        assert_eq!(p.learned_diff(0), Some(0x240 - 0x100));
    }

    #[test]
    #[should_panic(expected = "multiple of ways")]
    fn bad_geometry_rejected() {
        let _ = MarkovPredictor::new(MarkovConfig {
            entries: 10,
            ways: 4,
        });
    }
}
