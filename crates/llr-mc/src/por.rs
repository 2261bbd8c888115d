//! Partial-order reduction: footprints, independence, ample-set selection.
//!
//! The checker explores interleavings of atomic steps. Two steps that touch
//! disjoint shared registers **commute**: executing them in either order
//! reaches the same global state. Exploring both orders is pure waste, and
//! for the FILTER family that waste is exponential in the number of
//! contenders. This module implements the classic remedy — persistent
//! (ample) sets computed from declared per-step register *footprints* — as
//! an opt-in layer underneath all three exploration backends.
//!
//! # The contract
//!
//! Each [`StepMachine`](crate::StepMachine) may describe, *without stepping*,
//! what its next step can touch ([`Footprint::read`] / [`Footprint::write`])
//! and what the machine may ever touch again in its remaining lifetime
//! ([`Footprint::future_read`] / [`Footprint::future_write`]). Declared sets
//! must be **supersets** of actual accesses (over-approximation is sound,
//! omission is not — `tests/footprint_audit.rs` enforces this per protocol).
//! A machine that cannot tell calls [`Footprint::set_unknown`], which
//! disables reduction around it; this is the default, so existing specs are
//! unaffected until they opt in.
//!
//! A step that may change *invariant-observable* facts — whether the machine
//! holds a name, which name, or whether it is done — must call
//! [`Footprint::set_visible`]. Reduction only ever picks invisible steps, so
//! every invariant over held names and done-ness (uniqueness, exclusion) is
//! checked on a sufficient set of states. Invariants that read raw register
//! contents (e.g. a deadlock predicate over memory) are **outside** this
//! contract and must be checked without reduction.
//!
//! # The independence relation
//!
//! Steps `a` and `b` are independent iff neither writes what the other
//! touches ([`independent`]): `W(a) ∩ (R(b) ∪ W(b)) = ∅` and
//! `W(b) ∩ R(a) = ∅`. Independent steps commute exactly (the diamond
//! property; pinned by a property test in `tests/random_schedules.rs`).
//!
//! # The ample-set condition
//!
//! At a state with several running machines, [`AmpleCtx::choose`] looks for
//! the lowest-indexed machine `i` whose next step is (a) declared, (b)
//! invisible, and (c) independent of **every step the other running machines
//! may ever take** (their future footprints — this is what makes the
//! singleton persistent: no path through other machines can enable a
//! conflict with `i`'s pending step, because machines are deterministic and
//! always enabled, and future footprints only shrink). If such an `i`
//! exists the engine explores only `i`'s step from this state; otherwise it
//! expands fully. The cycle proviso (C3) lives in the engines: if the ample
//! successor was already visited, the state is expanded fully, so no
//! transition is deferred forever around a cycle. Because every reduced
//! state keeps at least one successor and all-done states are never reduced
//! (they have no running machines), the reduced graph reaches **exactly**
//! the same terminal states as full exploration.
//!
//! # Representation and cost
//!
//! Each of a footprint's four register sets is a bitset over register
//! indices, trimmed so that an empty set is an empty word vector.
//! Declaring a location is O(1), a coverage query is one bit test, and
//! every disjointness test above is a word-wise AND over the shorter of
//! the two sets. Per state, [`AmpleCtx::choose`] clears and refills one
//! reused buffer per running machine — no allocation once the buffers
//! have reached the layout's width — and then compares each candidate's
//! next-step sets with the others' future sets: O(machines² · words).
//! A protocol whose lifetime footprint is fixed when its shape is built
//! keeps it precomputed and merges it with [`Footprint::extend_future`],
//! one OR per word, instead of re-declaring its locations on every state.

use llr_mem::Loc;

/// A set of register indices stored as a bitset: bit `i % 64` of word
/// `i / 64` is register `i`. The word vector is trimmed — it is empty iff
/// the set is, and otherwise its last word is nonzero — so emptiness is a
/// length check and [`clear`](Self::clear) keeps the capacity for the
/// next build.
#[derive(Clone, Debug, Default)]
struct LocSet {
    words: Vec<u64>,
}

impl LocSet {
    fn insert(&mut self, loc: u32) {
        let w = (loc / 64) as usize;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1 << (loc % 64);
    }

    fn contains(&self, loc: u32) -> bool {
        self.words
            .get((loc / 64) as usize)
            .is_some_and(|w| (w >> (loc % 64)) & 1 == 1)
    }

    fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    fn is_disjoint(&self, other: &LocSet) -> bool {
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    fn union_with(&mut self, other: &LocSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    fn clear(&mut self) {
        self.words.clear();
    }
}

/// Declared register footprint of a machine: what its next step may touch,
/// what the rest of its lifetime may touch, and whether the next step can
/// change invariant-observable state.
///
/// Built by [`StepMachine::footprint`](crate::StepMachine::footprint) into a
/// caller-provided buffer (the engines reuse these across states). Each of
/// the four `Loc` sets is a bitset over register indices: declaring a
/// location is O(1), and the disjointness tests behind [`independent`] and
/// the ample-set choice are a word-wise AND.
#[derive(Clone, Debug, Default)]
pub struct Footprint {
    reads: LocSet,
    writes: LocSet,
    fut_reads: LocSet,
    fut_writes: LocSet,
    visible: bool,
    unknown: bool,
    worst_next: bool,
}

impl Footprint {
    /// Creates an empty footprint (no accesses, invisible, known).
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets to the empty footprint so the buffer can be rebuilt.
    pub fn clear(&mut self) {
        self.reads.clear();
        self.writes.clear();
        self.fut_reads.clear();
        self.fut_writes.clear();
        self.visible = false;
        self.unknown = false;
        self.worst_next = false;
    }

    /// Declares that the next step may read `loc` (also added to the future
    /// read set — the next step is part of the remaining lifetime).
    pub fn read(&mut self, loc: Loc) {
        self.reads.insert(loc.0);
        self.fut_reads.insert(loc.0);
    }

    /// Declares that the next step may write `loc` (also added to the future
    /// write set).
    pub fn write(&mut self, loc: Loc) {
        self.writes.insert(loc.0);
        self.fut_writes.insert(loc.0);
    }

    /// Declares that some later step may read `loc`.
    pub fn future_read(&mut self, loc: Loc) {
        self.fut_reads.insert(loc.0);
    }

    /// Declares that some later step may write `loc`.
    pub fn future_write(&mut self, loc: Loc) {
        self.fut_writes.insert(loc.0);
    }

    /// Adds every location of `lifetime`'s future read and write sets to
    /// this footprint's future sets, one word-wise OR per set. Protocols
    /// whose lifetime footprint is fixed at build time precompute it once
    /// and merge it here on every state. `lifetime`'s next-step sets and
    /// flags are ignored.
    pub fn extend_future(&mut self, lifetime: &Footprint) {
        self.fut_reads.union_with(&lifetime.fut_reads);
        self.fut_writes.union_with(&lifetime.fut_writes);
    }

    /// Declares that the next step may perform *any* access in the future
    /// sets. Used where enumerating the precise next access is not worth the
    /// code (the step stays a reduction candidate for *other* machines'
    /// persistence checks via its future sets).
    pub fn assume_worst_next(&mut self) {
        self.worst_next = true;
    }

    /// Declares that the next step may change invariant-observable state
    /// (acquire or release a name, or finish the workload). Visible steps
    /// are never chosen as the ample singleton.
    pub fn set_visible(&mut self) {
        self.visible = true;
    }

    /// Declares the footprint unknown: no reduction is attempted at states
    /// where this machine runs, and no claim is made about its accesses.
    /// This is the [`StepMachine`](crate::StepMachine) default.
    pub fn set_unknown(&mut self) {
        self.unknown = true;
    }

    /// Whether [`set_unknown`](Self::set_unknown) was called.
    pub fn is_unknown(&self) -> bool {
        self.unknown
    }

    /// Whether [`set_visible`](Self::set_visible) was called.
    pub fn is_visible(&self) -> bool {
        self.visible
    }

    /// The declared next-step read set (the future read set under
    /// [`assume_worst_next`](Self::assume_worst_next)).
    fn next_reads(&self) -> &LocSet {
        if self.worst_next {
            &self.fut_reads
        } else {
            &self.reads
        }
    }

    /// The declared next-step write set (the future write set under
    /// [`assume_worst_next`](Self::assume_worst_next)).
    fn next_writes(&self) -> &LocSet {
        if self.worst_next {
            &self.fut_writes
        } else {
            &self.writes
        }
    }

    /// Whether a read of `loc` by the next step is covered by this
    /// declaration (unknown footprints cover everything — they claim
    /// nothing). Used by the footprint audit.
    pub fn covers_read(&self, loc: Loc) -> bool {
        self.unknown || self.next_reads().contains(loc.0)
    }

    /// Whether a write of `loc` by the next step is covered by this
    /// declaration. Used by the footprint audit.
    pub fn covers_write(&self, loc: Loc) -> bool {
        self.unknown || self.next_writes().contains(loc.0)
    }

    /// Whether a read of `loc` by *any* later step is covered by the
    /// declared future read set. The audit checks every access a machine
    /// ever performs against every future claim it made earlier — future
    /// footprints may only shrink, never regrow.
    pub fn covers_future_read(&self, loc: Loc) -> bool {
        self.unknown || self.fut_reads.contains(loc.0)
    }

    /// Whether a write of `loc` by any later step is covered by the
    /// declared future write set.
    pub fn covers_future_write(&self, loc: Loc) -> bool {
        self.unknown || self.fut_writes.contains(loc.0)
    }

    /// Whether the next step declares no shared accesses at all (a pure
    /// machine-local transition).
    fn next_is_local(&self) -> bool {
        self.next_reads().is_empty() && self.next_writes().is_empty()
    }

    /// Whether this machine's *next* step is independent of every step `other`
    /// may ever take (checks against `other`'s future sets).
    fn next_independent_of_future(&self, other: &Footprint) -> bool {
        if other.unknown {
            return self.next_is_local();
        }
        self.next_writes().is_disjoint(&other.fut_reads)
            && self.next_writes().is_disjoint(&other.fut_writes)
            && self.next_reads().is_disjoint(&other.fut_writes)
    }
}

/// Whether the next steps described by `a` and `b` are independent: neither
/// writes a register the other reads or writes. Independent steps commute —
/// from any state, executing them in either order reaches the same state.
/// Unknown footprints are never independent of anything.
pub fn independent(a: &Footprint, b: &Footprint) -> bool {
    if a.unknown || b.unknown {
        return false;
    }
    a.next_writes().is_disjoint(b.next_reads())
        && a.next_writes().is_disjoint(b.next_writes())
        && b.next_writes().is_disjoint(a.next_reads())
}

/// Reusable ample-set selector: owns the footprint buffers so per-state
/// selection allocates nothing in steady state.
#[derive(Default)]
pub(crate) struct AmpleCtx {
    fps: Vec<Footprint>,
}

impl AmpleCtx {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Picks the ample singleton for a state, or `None` to expand fully.
    ///
    /// Returns the lowest machine index whose next step is declared,
    /// invisible, and independent of every other running machine's entire
    /// remaining footprint. States with fewer than two running machines are
    /// never reduced (there is nothing to save).
    pub(crate) fn choose<M: crate::StepMachine>(
        &mut self,
        machines: &[M],
        done: &[bool],
    ) -> Option<usize> {
        let n = machines.len();
        if self.fps.len() < n {
            self.fps.resize_with(n, Footprint::new);
        }
        let mut running = 0usize;
        for i in 0..n {
            if !done[i] {
                running += 1;
                self.fps[i].clear();
                machines[i].footprint(&mut self.fps[i]);
            }
        }
        if running < 2 {
            return None;
        }
        'cand: for i in 0..n {
            if done[i] {
                continue;
            }
            let fp = &self.fps[i];
            if fp.is_unknown() || fp.is_visible() {
                continue;
            }
            for (j, dj) in done.iter().enumerate() {
                if j == i || *dj {
                    continue;
                }
                if !fp.next_independent_of_future(&self.fps[j]) {
                    continue 'cand;
                }
            }
            return Some(i);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disjointness_and_independence() {
        let mut a = Footprint::new();
        a.read(Loc(1));
        a.write(Loc(2));
        let mut b = Footprint::new();
        b.read(Loc(3));
        b.write(Loc(4));
        assert!(independent(&a, &b));
        assert!(independent(&b, &a));

        // Read–read sharing is fine.
        let mut c = Footprint::new();
        c.read(Loc(1));
        assert!(independent(&a, &c));

        // Write–read conflict in either direction is not.
        let mut d = Footprint::new();
        d.read(Loc(2));
        assert!(!independent(&a, &d));
        assert!(!independent(&d, &a));

        // Write–write conflict is not.
        let mut e = Footprint::new();
        e.write(Loc(2));
        assert!(!independent(&a, &e));
    }

    #[test]
    fn unknown_is_never_independent() {
        let mut u = Footprint::new();
        u.set_unknown();
        let empty = Footprint::new();
        assert!(!independent(&u, &empty));
        assert!(!independent(&empty, &u));
    }

    #[test]
    fn worst_next_promotes_future_sets() {
        let mut a = Footprint::new();
        a.future_write(Loc(7));
        a.assume_worst_next();
        let mut b = Footprint::new();
        b.read(Loc(7));
        assert!(!independent(&a, &b));
        assert!(a.covers_write(Loc(7)));
        assert!(!a.covers_read(Loc(8)));
    }

    #[test]
    fn coverage_checks() {
        let mut fp = Footprint::new();
        fp.read(Loc(5));
        fp.write(Loc(6));
        assert!(fp.covers_read(Loc(5)));
        assert!(!fp.covers_read(Loc(6)));
        assert!(fp.covers_write(Loc(6)));
        assert!(!fp.covers_write(Loc(5)));
        let mut u = Footprint::new();
        u.set_unknown();
        assert!(u.covers_read(Loc(0)) && u.covers_write(Loc(0)));
    }

    #[test]
    fn extend_future_merges_only_future_sets() {
        let mut lifetime = Footprint::new();
        lifetime.read(Loc(3));
        lifetime.future_write(Loc(200));
        lifetime.set_visible();
        let mut fp = Footprint::new();
        fp.write(Loc(1));
        fp.extend_future(&lifetime);
        assert!(fp.covers_future_read(Loc(3)) && fp.covers_future_write(Loc(200)));
        assert!(fp.covers_future_write(Loc(1)));
        assert!(!fp.covers_read(Loc(3)), "next-step sets are not merged");
        assert!(!fp.is_visible(), "flags are not merged");
    }

    #[test]
    fn clear_resets_everything() {
        let mut fp = Footprint::new();
        fp.read(Loc(1));
        fp.set_visible();
        fp.set_unknown();
        fp.assume_worst_next();
        fp.clear();
        assert!(!fp.is_unknown());
        assert!(!fp.is_visible());
        assert!(!fp.covers_read(Loc(1)));
    }

    /// Differential check of the bitset representation against the sorted,
    /// deduplicated `Vec<u32>` sets it replaced.
    mod reference {
        use super::*;
        use crate::{MachineStatus, SplitMix64, StepMachine};
        use llr_mem::Memory;

        /// One declaration made while building a footprint.
        #[derive(Clone, Copy, Debug)]
        enum Op {
            Read(u32),
            Write(u32),
            FutureRead(u32),
            FutureWrite(u32),
            WorstNext,
            Unknown,
            Visible,
        }

        /// Register indices span four 64-bit words; these sit on word
        /// edges, including both ends of the top word.
        const WORDS: u32 = 4;
        const EDGES: [u32; 7] = [0, 63, 64, 127, 128, 192, 64 * WORDS - 1];

        fn insert_sorted(set: &mut Vec<u32>, v: u32) {
            if let Err(pos) = set.binary_search(&v) {
                set.insert(pos, v);
            }
        }

        fn disjoint(a: &[u32], b: &[u32]) -> bool {
            let (mut i, mut j) = (0, 0);
            while i < a.len() && j < b.len() {
                match a[i].cmp(&b[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => return false,
                }
            }
            true
        }

        /// The sorted-`Vec` footprint, with the same semantics.
        #[derive(Clone, Debug, Default)]
        struct RefFootprint {
            reads: Vec<u32>,
            writes: Vec<u32>,
            fut_reads: Vec<u32>,
            fut_writes: Vec<u32>,
            visible: bool,
            unknown: bool,
            worst_next: bool,
        }

        impl RefFootprint {
            fn apply(&mut self, op: Op) {
                match op {
                    Op::Read(l) => {
                        insert_sorted(&mut self.reads, l);
                        insert_sorted(&mut self.fut_reads, l);
                    }
                    Op::Write(l) => {
                        insert_sorted(&mut self.writes, l);
                        insert_sorted(&mut self.fut_writes, l);
                    }
                    Op::FutureRead(l) => insert_sorted(&mut self.fut_reads, l),
                    Op::FutureWrite(l) => insert_sorted(&mut self.fut_writes, l),
                    Op::WorstNext => self.worst_next = true,
                    Op::Unknown => self.unknown = true,
                    Op::Visible => self.visible = true,
                }
            }

            fn extend_future(&mut self, other: &RefFootprint) {
                for &l in &other.fut_reads {
                    insert_sorted(&mut self.fut_reads, l);
                }
                for &l in &other.fut_writes {
                    insert_sorted(&mut self.fut_writes, l);
                }
            }

            fn next_reads(&self) -> &[u32] {
                if self.worst_next {
                    &self.fut_reads
                } else {
                    &self.reads
                }
            }

            fn next_writes(&self) -> &[u32] {
                if self.worst_next {
                    &self.fut_writes
                } else {
                    &self.writes
                }
            }

            fn next_independent_of_future(&self, other: &RefFootprint) -> bool {
                if other.unknown {
                    return self.next_reads().is_empty() && self.next_writes().is_empty();
                }
                disjoint(self.next_writes(), &other.fut_reads)
                    && disjoint(self.next_writes(), &other.fut_writes)
                    && disjoint(self.next_reads(), &other.fut_writes)
            }
        }

        fn ref_independent(a: &RefFootprint, b: &RefFootprint) -> bool {
            !a.unknown
                && !b.unknown
                && disjoint(a.next_writes(), b.next_reads())
                && disjoint(a.next_writes(), b.next_writes())
                && disjoint(b.next_writes(), a.next_reads())
        }

        fn ref_choose(fps: &[RefFootprint], done: &[bool]) -> Option<usize> {
            if done.iter().filter(|d| !**d).count() < 2 {
                return None;
            }
            (0..fps.len()).find(|&i| {
                !done[i]
                    && !fps[i].unknown
                    && !fps[i].visible
                    && (0..fps.len())
                        .all(|j| j == i || done[j] || fps[i].next_independent_of_future(&fps[j]))
            })
        }

        fn apply(fp: &mut Footprint, op: Op) {
            match op {
                Op::Read(l) => fp.read(Loc(l)),
                Op::Write(l) => fp.write(Loc(l)),
                Op::FutureRead(l) => fp.future_read(Loc(l)),
                Op::FutureWrite(l) => fp.future_write(Loc(l)),
                Op::WorstNext => fp.assume_worst_next(),
                Op::Unknown => fp.set_unknown(),
                Op::Visible => fp.set_visible(),
            }
        }

        fn random_loc(rng: &mut SplitMix64, words: u32) -> u32 {
            if rng.next_below(3) == 0 {
                EDGES[rng.next_index(EDGES.len())].min(64 * words - 1)
            } else {
                rng.next_below(64 * words as u64) as u32
            }
        }

        /// A random declaration script over the first `words` words. The
        /// flags are rare, so most footprints stay reduction candidates.
        fn random_ops(rng: &mut SplitMix64, words: u32, max_len: u64) -> Vec<Op> {
            (0..rng.next_below(max_len + 1))
                .map(|_| match rng.next_below(40) {
                    0 => Op::WorstNext,
                    1 => Op::Unknown,
                    2 => Op::Visible,
                    3..=8 => Op::Read(random_loc(rng, words)),
                    9..=14 => Op::Write(random_loc(rng, words)),
                    15..=27 => Op::FutureRead(random_loc(rng, words)),
                    _ => Op::FutureWrite(random_loc(rng, words)),
                })
                .collect()
        }

        fn build(ops: &[Op]) -> (Footprint, RefFootprint) {
            let mut fp = Footprint::new();
            let mut reference = RefFootprint::default();
            for &op in ops {
                apply(&mut fp, op);
                reference.apply(op);
            }
            (fp, reference)
        }

        /// Every coverage query agrees, on every location up to a word past
        /// the top one.
        fn assert_covers_agree(fp: &Footprint, r: &RefFootprint, ctx: &str) {
            for l in 0..64 * (WORDS + 1) {
                let loc = Loc(l);
                assert_eq!(
                    fp.covers_read(loc),
                    r.unknown || r.next_reads().binary_search(&l).is_ok(),
                    "covers_read({l}) {ctx}"
                );
                assert_eq!(
                    fp.covers_write(loc),
                    r.unknown || r.next_writes().binary_search(&l).is_ok(),
                    "covers_write({l}) {ctx}"
                );
                assert_eq!(
                    fp.covers_future_read(loc),
                    r.unknown || r.fut_reads.binary_search(&l).is_ok(),
                    "covers_future_read({l}) {ctx}"
                );
                assert_eq!(
                    fp.covers_future_write(loc),
                    r.unknown || r.fut_writes.binary_search(&l).is_ok(),
                    "covers_future_write({l}) {ctx}"
                );
            }
            assert_eq!(fp.is_unknown(), r.unknown, "{ctx}");
            assert_eq!(fp.is_visible(), r.visible, "{ctx}");
        }

        #[test]
        fn bitsets_agree_with_sorted_vectors() {
            let mut rng = SplitMix64::new(0x00B1_75E7);
            for round in 0..2_000 {
                let (a, ra) = build(&random_ops(&mut rng, WORDS, 24));
                let (b, rb) = build(&random_ops(&mut rng, WORDS, 24));
                let ctx = format!("(round {round})");
                assert_covers_agree(&a, &ra, &ctx);
                assert_eq!(independent(&a, &b), ref_independent(&ra, &rb), "{ctx}");
                assert_eq!(independent(&b, &a), ref_independent(&rb, &ra), "{ctx}");
                assert_eq!(
                    a.next_independent_of_future(&b),
                    ra.next_independent_of_future(&rb),
                    "{ctx}"
                );
                let (mut merged, mut rmerged) = (a.clone(), ra.clone());
                merged.extend_future(&b);
                rmerged.extend_future(&rb);
                assert_covers_agree(&merged, &rmerged, &format!("after extend_future {ctx}"));
            }
        }

        #[test]
        fn cleared_buffers_rebuild_small_footprints() {
            let mut rng = SplitMix64::new(0x00C1_EA12);
            let mut fp = Footprint::new();
            for round in 0..500 {
                // A large footprint touching the top word, then a small one
                // (first word only, sometimes empty) in the same buffer.
                fp.clear();
                let mut large = random_ops(&mut rng, WORDS, 40);
                large.push(Op::FutureWrite(64 * WORDS - 1));
                large.push(Op::Read(64 * WORDS - 2));
                for &op in &large {
                    apply(&mut fp, op);
                }
                fp.clear();
                let small = random_ops(&mut rng, 1, 4);
                for &op in &small {
                    apply(&mut fp, op);
                }
                let (fresh, reference) = build(&small);
                let ctx = format!("(round {round}, small {small:?})");
                assert_covers_agree(&fp, &reference, &ctx);
                let (other, rother) = build(&random_ops(&mut rng, WORDS, 24));
                assert_eq!(
                    independent(&fp, &other),
                    ref_independent(&reference, &rother),
                    "{ctx}"
                );
                assert_eq!(
                    independent(&fp, &other),
                    independent(&fresh, &other),
                    "{ctx}"
                );
                // An unknown other machine leaves only a local step
                // independent: emptiness must survive the reuse.
                let mut unknown = Footprint::new();
                unknown.set_unknown();
                let runknown = RefFootprint {
                    unknown: true,
                    ..RefFootprint::default()
                };
                assert_eq!(
                    fp.next_independent_of_future(&unknown),
                    reference.next_independent_of_future(&runknown),
                    "{ctx}"
                );
            }
        }

        /// A machine whose footprint replays a fixed declaration script.
        #[derive(Clone, Debug)]
        struct Scripted(Vec<Op>);

        impl StepMachine for Scripted {
            fn step(&mut self, _mem: &dyn Memory) -> MachineStatus {
                MachineStatus::Done
            }

            fn key(&self, _out: &mut Vec<u64>) {}

            fn describe(&self) -> String {
                format!("{:?}", self.0)
            }

            fn footprint(&self, fp: &mut Footprint) {
                for &op in &self.0 {
                    apply(fp, op);
                }
            }
        }

        #[test]
        fn ample_choice_agrees_with_sorted_vectors() {
            let mut rng = SplitMix64::new(0x000A_3B1E);
            // One selector for every round, so its footprint buffers are
            // reused across states of different sizes.
            let mut ample = AmpleCtx::new();
            let mut chosen = 0;
            for round in 0..3_000 {
                let n = 3 + rng.next_index(3);
                // Short scripts over few words make independence common
                // enough that both answers get exercised.
                let words = 1 + rng.next_below(WORDS as u64) as u32;
                let machines: Vec<Scripted> = (0..n)
                    .map(|_| Scripted(random_ops(&mut rng, words, 6)))
                    .collect();
                let done: Vec<bool> = (0..n).map(|_| rng.next_below(5) == 0).collect();
                let refs: Vec<RefFootprint> = machines.iter().map(|m| build(&m.0).1).collect();
                let want = ref_choose(&refs, &done);
                assert_eq!(
                    ample.choose(&machines, &done),
                    want,
                    "round {round}: {machines:?} done {done:?}"
                );
                chosen += usize::from(want.is_some());
            }
            assert!(
                (300..2_700).contains(&chosen),
                "both outcomes must be common: {chosen} of 3000 rounds reduced"
            );
        }
    }
}
