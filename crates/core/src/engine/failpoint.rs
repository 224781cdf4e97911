//! Deterministic, seeded storage-fault injection.
//!
//! A [`Failpoints`] registry is owned by each replica's effect interpreter
//! (so both hosts share one fault surface) and consulted at named sites —
//! e.g. just before a journal commit. Faults fire either as one-shot armed
//! events or with a per-mille probability, and every draw comes from a
//! private [`Rng64`] stream, so a given `(seed, schedule)` pair injects
//! exactly the same faults on every run. The registry keeps a log of fired
//! faults so harnesses can report *which* injections a failing seed
//! performed.
//!
//! The engine itself never sees this type: fault injection happens at the
//! effect boundary, preserving the sans-I/O contract that `step` is a pure
//! function of its inputs.

use std::collections::{BTreeMap, VecDeque};

use super::rng::Rng64;

/// The storage faults a host can inject at a persist site.
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
    /// The site that fired.
    pub site: String,
    /// The fault injected.
    pub kind: FaultKind,
    /// 0-based global sequence number of the firing.
    pub seq: u64,
}

/// Well-known failpoint site names shared by hosts and harnesses.
pub mod sites {
    /// Consulted once per journal append (the `Persist` effect).
    pub const JOURNAL_APPEND: &str = "journal.append";
}

/// A deterministic failpoint registry (see module docs).
#[derive(Clone, Debug)]
pub struct Failpoints {
    rng: Rng64,
    /// One-shot faults, consumed front-first per site.
    armed: BTreeMap<String, VecDeque<FaultKind>>,
    /// Probabilistic faults: per-mille chance per check, drawn in
    /// insertion order (deterministic: `BTreeMap` + per-kind slots).
    rates: BTreeMap<String, Vec<(FaultKind, u16)>>,
    fired: Vec<FiredFault>,
}

impl Failpoints {
    /// A registry with its own seeded RNG stream.
    pub fn new(seed: u64) -> Self {
        Failpoints {
            // Decorrelate from engine RNGs, which seed with `seed ^ node`.
            rng: Rng64::new(seed ^ 0xFA11_0000_0000_0001),
            armed: BTreeMap::new(),
            rates: BTreeMap::new(),
            fired: Vec::new(),
        }
    }

    /// Arms a one-shot fault at `site`; multiple arms queue in order.
    pub fn arm(&mut self, site: &str, kind: FaultKind) {
        self.armed
            .entry(site.to_string())
            .or_default()
            .push_back(kind);
    }

    /// Sets a probabilistic fault: each [`check`](Failpoints::check) of
    /// `site` fires `kind` with probability `per_mille`/1000. Setting the
    /// same kind again replaces its rate; 0 removes it.
    pub fn set_rate(&mut self, site: &str, kind: FaultKind, per_mille: u16) {
        let slots = self.rates.entry(site.to_string()).or_default();
        slots.retain(|(k, _)| *k != kind);
        if per_mille > 0 {
            slots.push((kind, per_mille.min(1000)));
        }
        if slots.is_empty() {
            self.rates.remove(site);
        }
    }

    /// Consults the registry at `site`. Armed one-shots fire first (in
    /// arm order), then probabilistic rates are drawn. Every probabilistic
    /// slot consumes exactly one RNG draw whether or not it fires, so the
    /// injection schedule depends only on the sequence of `check` calls.
    pub fn check(&mut self, site: &str) -> Option<FaultKind> {
        if let Some(queue) = self.armed.get_mut(site) {
            if let Some(kind) = queue.pop_front() {
                if queue.is_empty() {
                    self.armed.remove(site);
                }
                return Some(self.record(site, kind));
            }
        }
        let slots = self.rates.get(site).cloned().unwrap_or_default();
        let mut hit = None;
        for (kind, per_mille) in slots {
            let draw = self.rng.below(1000);
            if hit.is_none() && draw < u64::from(per_mille) {
                hit = Some(kind);
            }
        }
        hit.map(|kind| self.record(site, kind))
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

    /// True if no faults are armed and no rates are set.
    pub fn is_quiet(&self) -> bool {
        self.armed.is_empty() && self.rates.is_empty()
    }

    fn record(&mut self, site: &str, kind: FaultKind) -> FaultKind {
        let seq = self.fired.len() as u64;
        self.fired.push(FiredFault {
            site: site.to_string(),
            kind,
            seq,
        });
        kind
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn armed_faults_fire_once_in_order() {
        let mut fp = Failpoints::new(1);
        fp.arm(sites::JOURNAL_APPEND, FaultKind::TornWrite);
        fp.arm(sites::JOURNAL_APPEND, FaultKind::AppendFail);
        assert_eq!(fp.check(sites::JOURNAL_APPEND), Some(FaultKind::TornWrite));
        assert_eq!(fp.check(sites::JOURNAL_APPEND), Some(FaultKind::AppendFail));
        assert_eq!(fp.check(sites::JOURNAL_APPEND), None);
        assert_eq!(fp.fired().len(), 2);
        assert_eq!(fp.fired()[0].kind, FaultKind::TornWrite);
    }

    #[test]
    fn rates_are_deterministic_per_seed() {
        let run = |seed| {
            let mut fp = Failpoints::new(seed);
            fp.set_rate("s", FaultKind::BitFlip, 200);
            (0..100)
                .map(|_| fp.check("s").is_some())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7), "same seed, same schedule");
        assert_ne!(run(7), run(8), "different seed, different schedule");
        let hits = run(7).iter().filter(|h| **h).count();
        assert!(hits > 5 && hits < 50, "~20% rate, got {hits}/100");
    }

    #[test]
    fn zero_rate_clears_and_full_rate_always_fires() {
        let mut fp = Failpoints::new(3);
        fp.set_rate("s", FaultKind::AppendFail, 1000);
        assert_eq!(fp.check("s"), Some(FaultKind::AppendFail));
        fp.set_rate("s", FaultKind::AppendFail, 0);
        assert_eq!(fp.check("s"), None);
        assert!(fp.is_quiet() || !fp.rates.contains_key("s"));
    }

    #[test]
    fn unknown_sites_never_fire_and_consume_no_draws() {
        let mut a = Failpoints::new(9);
        let mut b = Failpoints::new(9);
        // `a` checks a site with no registration 50 times first.
        for _ in 0..50 {
            assert_eq!(a.check("nothing.here"), None);
        }
        a.set_rate("s", FaultKind::TornWrite, 500);
        b.set_rate("s", FaultKind::TornWrite, 500);
        let sa: Vec<bool> = (0..20).map(|_| a.check("s").is_some()).collect();
        let sb: Vec<bool> = (0..20).map(|_| b.check("s").is_some()).collect();
        assert_eq!(sa, sb, "quiet checks must not advance the stream");
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
