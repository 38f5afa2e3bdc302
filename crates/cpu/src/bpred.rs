//! Branch prediction: bimodal direction predictor, branch target buffer,
//! return-address stack (Table 1: bimodal, 1024-entry 2-way BTB).

use cfr_types::VirtAddr;
use cfr_workload::BranchKind;

/// Predictor configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PredictorConfig {
    /// Bimodal table entries (2-bit counters); power of two.
    pub bimodal_entries: usize,
    /// BTB entries.
    pub btb_entries: usize,
    /// BTB ways.
    pub btb_ways: usize,
    /// Return-address stack depth.
    pub ras_depth: usize,
}

impl Default for PredictorConfig {
    fn default() -> Self {
        Self {
            bimodal_entries: 2048,
            btb_entries: 1024,
            btb_ways: 2,
            ras_depth: 8,
        }
    }
}

/// What the front end predicts for one branch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Prediction {
    /// Predicted direction.
    pub taken: bool,
    /// Predicted target if the structures supply one (BTB hit or RAS);
    /// `None` forces the fetch engine to fall through (a BTB miss behaves
    /// like a not-taken prediction).
    pub target: Option<VirtAddr>,
    /// Whether the BTB hit (IA's comparison point is the BTB output).
    pub btb_hit: bool,
}

/// 2-bit saturating bimodal table.
#[derive(Clone, Debug)]
struct Bimodal {
    counters: Vec<u8>,
}

impl Bimodal {
    fn new(entries: usize) -> Self {
        assert!(entries.is_power_of_two(), "bimodal size must be 2^k");
        Self {
            counters: vec![2; entries],
        }
    }

    #[inline]
    fn index(&self, pc: VirtAddr) -> usize {
        ((pc.raw() >> 2) as usize) & (self.counters.len() - 1)
    }

    fn predict(&self, pc: VirtAddr) -> bool {
        self.counters[self.index(pc)] >= 2
    }

    fn update(&mut self, pc: VirtAddr, taken: bool) {
        let i = self.index(pc);
        let c = &mut self.counters[i];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct BtbWay {
    tag: u64,
    target: VirtAddr,
    valid: bool,
    lru: u64,
}

/// Set-associative branch target buffer.
#[derive(Clone, Debug)]
pub struct Btb {
    ways: Vec<BtbWay>,
    assoc: usize,
    sets: usize,
    tick: u64,
}

impl Btb {
    /// Builds a BTB.
    ///
    /// # Panics
    ///
    /// Panics unless `entries` is a positive multiple of `assoc` and the set
    /// count is a power of two.
    #[must_use]
    pub fn new(entries: usize, assoc: usize) -> Self {
        assert!(
            entries > 0 && assoc > 0 && entries.is_multiple_of(assoc),
            "bad BTB shape"
        );
        let sets = entries / assoc;
        assert!(sets.is_power_of_two(), "BTB sets must be 2^k");
        Self {
            ways: vec![BtbWay::default(); entries],
            assoc,
            sets,
            tick: 0,
        }
    }

    #[inline]
    fn set_and_tag(&self, pc: VirtAddr) -> (usize, u64) {
        let key = pc.raw() >> 2;
        ((key as usize) % self.sets, key / self.sets as u64)
    }

    /// Looks up the predicted target for the branch at `pc`.
    pub fn lookup(&mut self, pc: VirtAddr) -> Option<VirtAddr> {
        self.tick += 1;
        let (set, tag) = self.set_and_tag(pc);
        let base = set * self.assoc;
        let ways = &mut self.ways[base..base + self.assoc];
        ways.iter_mut().find(|w| w.valid && w.tag == tag).map(|w| {
            w.lru = self.tick;
            w.target
        })
    }

    /// Installs/updates the target for the branch at `pc`.
    pub fn update(&mut self, pc: VirtAddr, target: VirtAddr) {
        self.tick += 1;
        let (set, tag) = self.set_and_tag(pc);
        let base = set * self.assoc;
        let ways = &mut self.ways[base..base + self.assoc];
        if let Some(w) = ways.iter_mut().find(|w| w.valid && w.tag == tag) {
            w.target = target;
            w.lru = self.tick;
            return;
        }
        let victim = ways
            .iter_mut()
            .min_by_key(|w| if w.valid { w.lru + 1 } else { 0 })
            .expect("BTB has ways");
        *victim = BtbWay {
            tag,
            target,
            valid: true,
            lru: self.tick,
        };
    }
}

/// Return-address stack.
#[derive(Clone, Debug)]
pub struct ReturnAddressStack {
    stack: Vec<VirtAddr>,
    depth: usize,
}

impl ReturnAddressStack {
    /// Creates a RAS of the given depth.
    #[must_use]
    pub fn new(depth: usize) -> Self {
        Self {
            stack: Vec::with_capacity(depth),
            depth,
        }
    }

    /// Pushes a return address (on a call fetch); overwrites the bottom on
    /// overflow, as real hardware does.
    pub fn push(&mut self, addr: VirtAddr) {
        if self.stack.len() == self.depth {
            self.stack.remove(0);
        }
        self.stack.push(addr);
    }

    /// Pops the predicted return target.
    pub fn pop(&mut self) -> Option<VirtAddr> {
        self.stack.pop()
    }

    /// Current depth.
    #[must_use]
    pub fn len(&self) -> usize {
        self.stack.len()
    }

    /// Whether the stack is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.stack.is_empty()
    }
}

/// The composite front-end predictor.
#[derive(Clone, Debug)]
pub struct BranchPredictor {
    bimodal: Bimodal,
    btb: Btb,
    ras: ReturnAddressStack,
}

impl BranchPredictor {
    /// Builds the predictor from its configuration.
    #[must_use]
    pub fn new(cfg: PredictorConfig) -> Self {
        Self {
            bimodal: Bimodal::new(cfg.bimodal_entries),
            btb: Btb::new(cfg.btb_entries, cfg.btb_ways),
            ras: ReturnAddressStack::new(cfg.ras_depth),
        }
    }

    /// Predicts the branch at `pc`. `fallthrough` is `pc + 4` (pushed on
    /// calls). Mutates the RAS speculatively; the fetch engine only calls
    /// this on the paths it actually follows.
    #[inline]
    pub fn predict(&mut self, pc: VirtAddr, kind: BranchKind, fallthrough: VirtAddr) -> Prediction {
        match kind {
            BranchKind::Conditional => {
                let taken = self.bimodal.predict(pc);
                let target = self.btb.lookup(pc);
                Prediction {
                    taken: taken && target.is_some(),
                    btb_hit: target.is_some(),
                    target,
                }
            }
            BranchKind::Jump => {
                let target = self.btb.lookup(pc);
                Prediction {
                    taken: target.is_some(),
                    btb_hit: target.is_some(),
                    target,
                }
            }
            BranchKind::Call => {
                let target = self.btb.lookup(pc);
                self.ras.push(fallthrough);
                Prediction {
                    taken: target.is_some(),
                    btb_hit: target.is_some(),
                    target,
                }
            }
            BranchKind::IndirectCall => {
                let target = self.btb.lookup(pc);
                self.ras.push(fallthrough);
                Prediction {
                    taken: target.is_some(),
                    btb_hit: target.is_some(),
                    target,
                }
            }
            BranchKind::Return => {
                let btb_hit = self.btb.lookup(pc).is_some();
                let target = self.ras.pop();
                Prediction {
                    taken: target.is_some(),
                    btb_hit,
                    target,
                }
            }
            BranchKind::IndirectJump => {
                let target = self.btb.lookup(pc);
                Prediction {
                    taken: target.is_some(),
                    btb_hit: target.is_some(),
                    target,
                }
            }
        }
    }

    /// Trains the predictor with a resolved (right-path) branch.
    #[inline]
    pub fn update(&mut self, pc: VirtAddr, kind: BranchKind, taken: bool, target: VirtAddr) {
        if kind.conditional() {
            self.bimodal.update(pc, taken);
        }
        if taken && kind != BranchKind::Return {
            self.btb.update(pc, target);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cond_kind() -> BranchKind {
        BranchKind::Conditional
    }

    #[test]
    fn btb_learns_targets() {
        let mut btb = Btb::new(1024, 2);
        let pc = VirtAddr::new(0x1000);
        assert_eq!(btb.lookup(pc), None);
        btb.update(pc, VirtAddr::new(0x2000));
        assert_eq!(btb.lookup(pc), Some(VirtAddr::new(0x2000)));
        btb.update(pc, VirtAddr::new(0x3000));
        assert_eq!(btb.lookup(pc), Some(VirtAddr::new(0x3000)));
    }

    #[test]
    fn btb_two_way_conflicts() {
        let mut btb = Btb::new(2, 2); // one set, two ways
        btb.update(VirtAddr::new(0x10), VirtAddr::new(1));
        btb.update(VirtAddr::new(0x20), VirtAddr::new(2));
        assert!(btb.lookup(VirtAddr::new(0x10)).is_some());
        assert!(btb.lookup(VirtAddr::new(0x20)).is_some());
        btb.update(VirtAddr::new(0x30), VirtAddr::new(3)); // evicts LRU (0x10)
        assert_eq!(btb.lookup(VirtAddr::new(0x10)), None);
    }

    #[test]
    fn ras_predicts_matched_returns() {
        let mut ras = ReturnAddressStack::new(8);
        ras.push(VirtAddr::new(0x100));
        ras.push(VirtAddr::new(0x200));
        assert_eq!(ras.pop(), Some(VirtAddr::new(0x200)));
        assert_eq!(ras.pop(), Some(VirtAddr::new(0x100)));
        assert_eq!(ras.pop(), None);
    }

    #[test]
    fn ras_overflow_drops_oldest() {
        let mut ras = ReturnAddressStack::new(2);
        ras.push(VirtAddr::new(1));
        ras.push(VirtAddr::new(2));
        ras.push(VirtAddr::new(3));
        assert_eq!(ras.len(), 2);
        assert_eq!(ras.pop(), Some(VirtAddr::new(3)));
        assert_eq!(ras.pop(), Some(VirtAddr::new(2)));
        assert!(ras.is_empty());
    }

    #[test]
    fn composite_learns_a_jump() {
        let mut p = BranchPredictor::new(PredictorConfig::default());
        let pc = VirtAddr::new(0x400);
        let fall = VirtAddr::new(0x404);
        // Cold: BTB miss -> treated as not taken.
        let pred = p.predict(pc, BranchKind::Jump, fall);
        assert!(!pred.taken);
        p.update(pc, BranchKind::Jump, true, VirtAddr::new(0x900));
        let pred = p.predict(pc, BranchKind::Jump, fall);
        assert!(pred.taken);
        assert_eq!(pred.target, Some(VirtAddr::new(0x900)));
    }

    #[test]
    fn conditional_direction_trains() {
        let mut p = BranchPredictor::new(PredictorConfig::default());
        let pc = VirtAddr::new(0x800);
        let fall = VirtAddr::new(0x804);
        p.update(pc, cond_kind(), true, VirtAddr::new(0x1000));
        for _ in 0..3 {
            p.update(pc, cond_kind(), false, VirtAddr::new(0x1000));
        }
        assert!(!p.predict(pc, cond_kind(), fall).taken);
        for _ in 0..3 {
            p.update(pc, cond_kind(), true, VirtAddr::new(0x1000));
        }
        assert!(p.predict(pc, cond_kind(), fall).taken);
    }

    #[test]
    fn call_pushes_return_predicts() {
        let mut p = BranchPredictor::new(PredictorConfig::default());
        let call_pc = VirtAddr::new(0x100);
        let fall = VirtAddr::new(0x104);
        let callee = VirtAddr::new(0x4000);
        p.update(call_pc, BranchKind::Call, true, callee);
        let _ = p.predict(call_pc, BranchKind::Call, fall);
        // The return should now predict the call fall-through via the RAS.
        let ret_pred = p.predict(
            VirtAddr::new(0x4010),
            BranchKind::Return,
            VirtAddr::new(0x4014),
        );
        assert_eq!(ret_pred.target, Some(fall));
    }
}
