//! Deterministic, seeded storage-fault injection.
//!
//! A [`Failpoints`] registry is owned by each replica's effect interpreter
//! (so both hosts share one fault surface) and consulted once per journal
//! commit, the one place storage can fail. Faults fire as one-shot armed
//! events, and every auxiliary draw (a torn write's cut point, a flipped
//! bit's position) comes from a private [`Rng64`] stream, so a given
//! `(seed, schedule)` pair injects exactly the same faults on every run.
//! The registry keeps a log of fired faults so harnesses can report *which*
//! injections a failing seed performed.
//!
//! The engine itself never sees this type: fault injection happens at the
//! effect boundary, preserving the sans-I/O contract that `step` is a pure
//! function of its inputs.

use std::collections::VecDeque;

use super::rng::Rng64;

/// The storage faults a host can inject at a journal commit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The append fails wholesale: no bytes reach the journal and the
    /// node crashes (a persist error is fail-stop for the replica).
    AppendFail,
    /// The append is torn: only a prefix of the record reaches the
    /// journal before the node crashes.
    TornWrite,
    /// A single bit of the existing journal flips in place (latent media
    /// corruption; discovered at the next replay).
    BitFlip,
}

/// One injected fault, for post-hoc reporting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FiredFault {
    /// The fault injected.
    pub kind: FaultKind,
    /// 0-based global sequence number of the firing.
    pub seq: u64,
}

/// A deterministic failpoint registry (see module docs).
#[derive(Clone, Debug)]
pub struct Failpoints {
    rng: Rng64,
    /// One-shot faults, consumed front-first.
    armed: VecDeque<FaultKind>,
    fired: Vec<FiredFault>,
}

impl Failpoints {
    /// A registry with its own seeded RNG stream.
    pub fn new(seed: u64) -> Self {
        Failpoints {
            // Decorrelate from engine RNGs, which seed with `seed ^ node`.
            rng: Rng64::new(seed ^ 0xFA11_0000_0000_0001),
            armed: VecDeque::new(),
            fired: Vec::new(),
        }
    }

    /// Arms a one-shot fault at the next commit; multiple arms queue in
    /// order.
    pub fn arm(&mut self, kind: FaultKind) {
        self.armed.push_back(kind);
    }

    /// Consults the registry at a commit: the oldest armed fault fires,
    /// once. With nothing armed nothing fires and no RNG draw is consumed,
    /// so the injection schedule depends only on what was armed.
    pub fn check(&mut self) -> Option<FaultKind> {
        let kind = self.armed.pop_front()?;
        let seq = self.fired.len() as u64;
        self.fired.push(FiredFault { kind, seq });
        Some(kind)
    }

    /// A deterministic auxiliary draw in `0..n` — hosts use this to pick
    /// torn-write cut points and bit-flip positions from the same stream.
    pub fn draw(&mut self, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        self.rng.below(n)
    }

    /// Every fault fired so far, in firing order.
    pub fn fired(&self) -> &[FiredFault] {
        &self.fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn armed_faults_fire_once_in_order() {
        let mut fp = Failpoints::new(1);
        fp.arm(FaultKind::TornWrite);
        fp.arm(FaultKind::AppendFail);
        assert_eq!(fp.check(), Some(FaultKind::TornWrite));
        assert_eq!(fp.check(), Some(FaultKind::AppendFail));
        assert_eq!(fp.check(), None);
        assert_eq!(fp.fired().len(), 2);
        assert_eq!(fp.fired()[0].kind, FaultKind::TornWrite);
    }

    #[test]
    fn quiet_checks_never_fire_and_consume_no_draws() {
        let mut a = Failpoints::new(9);
        let mut b = Failpoints::new(9);
        // `a` first checks 50 times with nothing armed.
        for _ in 0..50 {
            assert_eq!(a.check(), None);
        }
        let draws = |fp: &mut Failpoints| {
            fp.arm(FaultKind::TornWrite);
            (fp.check(), [(); 20].map(|()| fp.draw(1000)))
        };
        assert_eq!(draws(&mut a), draws(&mut b), "quiet checks drew nothing");
    }

    #[test]
    fn draw_is_bounded() {
        let mut fp = Failpoints::new(5);
        for n in [1u64, 2, 17, 1000] {
            for _ in 0..10 {
                assert!(fp.draw(n) < n);
            }
        }
        assert_eq!(fp.draw(0), 0);
    }
}
