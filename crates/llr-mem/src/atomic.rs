//! Multi-thread register file backed by real atomics.
//!
//! # Ordering policy
//!
//! The paper's model assumes atomic (linearizable) registers and its proofs
//! reason about a single global order of register operations. The blanket
//! way to realize that on hardware is `SeqCst` everywhere, and that is what
//! this backend did originally. The current policy keeps `SeqCst` exactly
//! where the proofs need a global order and relaxes the rest, one register
//! *class* at a time:
//!
//! **Acquire-path registers — `SeqCst`.** Every register touched by a
//! *GetName*/*Enter* machine stays sequentially consistent: the splitter's
//! `LAST`/`ADVICE` during entry (statements 1–7), the Moir–Anderson grid's
//! `X`/`Y` during `WriteX`/scan/publish/re-read, and the mutual-exclusion
//! blocks' `R[0]`/`R[1]` during enter/check. All three protocols rely on
//! Dekker-style *write-mine-then-read-theirs* patterns, and those are
//! exactly the patterns weak orderings break: with `Release` stores and
//! `Acquire` loads, two processes' stores can both sit unordered while both
//! loads read stale values — an execution with no sequentially consistent
//! equivalent. Concretely, two sequential splitter entrants whose `ADVICE`
//! writes were delayed could both join the same output set (violating the
//! `≤ ℓ−1` bound of Lemma 1), and two grid processes could both stop on the
//! same cell. These are real counterexamples, not caution: the acquire path
//! keeps `SeqCst`, which on x86 costs one locked instruction per *store*
//! and nothing per load.
//!
//! **Release-path stores — `Release`** (via [`Memory::write_rel`]). A
//! *Release*/*ReleaseName* machine's stores are the operation's *final*
//! accesses to the object being released: the splitter release's
//! restore/⊥ writes to `ADVICE` (statements 10–11), the grid release's
//! single `Y[i] := false`, and the ME block's `R[side] := nil`. Relaxing
//! these to `Release` is sound because:
//!
//! 1. each such store is the releasing operation's last access to that
//!    object, so no later access *of the same operation on the same
//!    object* can be reordered before it (there is none);
//! 2. same-thread release stores become visible in program order
//!    (x86-TSO's FIFO store buffer; ARMv8 orders `STLR` after `STLR`), so
//!    SPLIT's deepest-first release discipline — restore the child before
//!    the parent — is preserved exactly;
//! 3. per-object coherence still totally orders all writes to any single
//!    register, so a process's delayed release store can never overtake
//!    its own later write to the same register (the grid's
//!    re-publish-after-withdraw case); and
//! 4. every acquire operation's *first* access is a `SeqCst` store (the
//!    splitter's `WriteLast`, the grid's `WriteX`, the ME block's
//!    prelim write), which on x86 drains the store buffer and on ARM
//!    globally orders the earlier `STLR`s before the operation's
//!    subsequent `SeqCst` sequence — so by the time any Dekker pattern
//!    runs, all of that thread's prior releases are visible.
//!
//! In per-object projection terms: every register history the relaxed
//! execution can produce is one the `SeqCst` execution (and hence the
//! model checker, which explores all interleavings of `SimMemory`) could
//! also produce.
//!
//! **Release-path loads — `SeqCst`.** The splitter release also *reads*
//! `LAST` (statement 9) to decide restore-vs-⊥. `SeqCst` loads are free on
//! x86 and cheap on ARM (`LDAR`), and keeping them strict means the read
//! cannot float above the deeper stage's release stores.
//!
//! The [`crate::MemPolicy::relaxed_release`] knob turns `write_rel` back
//! into a plain `SeqCst` store; the benchmarks use it for the
//! relaxed-vs-SeqCst ablation (E11).

use crate::{CachePadded, Layout, Loc, MemPolicy, Memory, Word};
use std::sync::atomic::{AtomicU64, Ordering};

/// The cell storage: one word per register, flat or cache-line padded.
#[derive(Debug)]
enum Cells {
    /// Registers packed contiguously — the layout the model checker's
    /// snapshots assume, and the historical behaviour of this type.
    Flat(Box<[AtomicU64]>),
    /// One cache line per register, to kill false sharing under real
    /// contention (see [`CachePadded`]).
    Padded(Box<[CachePadded<AtomicU64>]>),
}

/// A register file usable from many threads at once.
///
/// Built from a [`Layout`], the file honours the layout's [`MemPolicy`]:
/// by default registers are cache-line padded and release-path stores use
/// `Release` ordering (see the module docs for the full ordering policy
/// and its justification). Built from raw values via
/// [`AtomicMemory::with_values`], the file is flat and fully `SeqCst` —
/// the conservative baseline.
///
/// # Example
///
/// ```
/// use llr_mem::{AtomicMemory, Layout, Memory};
/// use std::sync::Arc;
///
/// let mut l = Layout::new();
/// let x = l.scalar("X", 0);
/// let mem = Arc::new(AtomicMemory::new(&l));
/// let m2 = Arc::clone(&mem);
/// std::thread::spawn(move || m2.write(x, 1)).join().unwrap();
/// assert!(mem.read(x) <= 1);
/// ```
#[derive(Debug)]
pub struct AtomicMemory {
    cells: Cells,
    relaxed_release: bool,
}

impl AtomicMemory {
    /// Creates a register file with the layout's initial values, honouring
    /// the layout's [`MemPolicy`] (padded + relaxed releases by default).
    pub fn new(layout: &Layout) -> Self {
        Self::with_policy(layout.initial_values(), layout.policy())
    }

    /// Creates a register file from explicit initial values.
    ///
    /// Uses the conservative [`MemPolicy::baseline`]: flat cells, every
    /// store `SeqCst`. Callers that want the optimized representation
    /// should build through a [`Layout`] (or [`AtomicMemory::with_policy`]).
    pub fn with_values(values: &[Word]) -> Self {
        Self::with_policy(values, MemPolicy::baseline())
    }

    /// Creates a register file from explicit initial values and an explicit
    /// [`MemPolicy`].
    pub fn with_policy(values: &[Word], policy: MemPolicy) -> Self {
        let cells = if policy.padded {
            Cells::Padded(
                values
                    .iter()
                    .map(|&v| CachePadded::new(AtomicU64::new(v)))
                    .collect(),
            )
        } else {
            Cells::Flat(values.iter().map(|&v| AtomicU64::new(v)).collect())
        };
        Self {
            cells,
            relaxed_release: policy.relaxed_release,
        }
    }

    #[inline]
    fn cell(&self, loc: Loc) -> &AtomicU64 {
        match &self.cells {
            Cells::Flat(cells) => &cells[loc.index()],
            Cells::Padded(cells) => &cells[loc.index()],
        }
    }

    /// Whether each register occupies its own cache line.
    pub fn is_padded(&self) -> bool {
        matches!(self.cells, Cells::Padded(_))
    }

    /// Whether [`Memory::write_rel`] uses `Release` ordering (`true`) or
    /// degrades to `SeqCst` (`false`, the ablation baseline).
    pub fn relaxed_release(&self) -> bool {
        self.relaxed_release
    }

    /// Copies the current register contents out.
    ///
    /// # Quiescence
    ///
    /// The copy is **not atomic as a whole** — it is a sequence of
    /// independent `SeqCst` loads. While other threads are writing, the
    /// result can mix values from different points in time and satisfy no
    /// invariant of the protocol. Call it only **post-quiescence**: after
    /// every thread that writes this memory has been joined (or is
    /// otherwise known to have stopped and synchronized with the caller,
    /// e.g. via a channel). Joining a thread synchronizes-with its
    /// completion, so a post-join snapshot observes all of its writes.
    ///
    /// # Example
    ///
    /// ```
    /// use llr_mem::{AtomicMemory, Layout, Memory};
    /// use std::sync::Arc;
    ///
    /// let mut l = Layout::new();
    /// let a = l.array("A", 4, 0);
    /// let mem = Arc::new(AtomicMemory::new(&l));
    /// let handles: Vec<_> = (0..4u64)
    ///     .map(|i| {
    ///         let m = Arc::clone(&mem);
    ///         std::thread::spawn(move || m.write(a.at(i as usize), i + 1))
    ///     })
    ///     .collect();
    /// // Quiescence: join every writer *before* snapshotting.
    /// for h in handles {
    ///     h.join().unwrap();
    /// }
    /// assert_eq!(mem.snapshot(), vec![1, 2, 3, 4]);
    /// ```
    pub fn snapshot(&self) -> Vec<Word> {
        (0..self.len())
            .map(|i| self.cell(Loc(i as u32)).load(Ordering::SeqCst))
            .collect()
    }
}

impl Memory for AtomicMemory {
    #[inline]
    fn read(&self, loc: Loc) -> Word {
        self.cell(loc).load(Ordering::SeqCst)
    }

    #[inline]
    fn write(&self, loc: Loc, val: Word) {
        self.cell(loc).store(val, Ordering::SeqCst)
    }

    #[inline]
    fn write_rel(&self, loc: Loc, val: Word) {
        let ord = if self.relaxed_release {
            Ordering::Release
        } else {
            Ordering::SeqCst
        };
        self.cell(loc).store(val, ord)
    }

    #[inline]
    fn swap(&self, loc: Loc, val: Word) -> Word {
        // A real hardware exchange, SeqCst like the acquire path: swap is
        // only ever used on acquire-side claim bits (LevelArray slots),
        // where the claim must be globally ordered against every rival
        // claim and against release-path clears.
        self.cell(loc).swap(val, Ordering::SeqCst)
    }

    fn len(&self) -> usize {
        match &self.cells {
            Cells::Flat(cells) => cells.len(),
            Cells::Padded(cells) => cells.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn initial_values_respected() {
        let mut l = Layout::new();
        l.scalar("A", 11);
        l.array("B", 2, 22);
        let mem = AtomicMemory::new(&l);
        assert_eq!(mem.snapshot(), vec![11, 22, 22]);
        assert!(mem.is_padded());
        assert!(mem.relaxed_release());
    }

    #[test]
    fn with_values_is_conservative_baseline() {
        let mem = AtomicMemory::with_values(&[1, 2, 3]);
        assert!(!mem.is_padded());
        assert!(!mem.relaxed_release());
        assert_eq!(mem.snapshot(), vec![1, 2, 3]);
    }

    #[test]
    fn policy_variants_behave_identically() {
        let policies = [
            MemPolicy::default(),
            MemPolicy::baseline(),
            MemPolicy {
                padded: true,
                relaxed_release: false,
            },
            MemPolicy {
                padded: false,
                relaxed_release: true,
            },
        ];
        for p in policies {
            let mem = AtomicMemory::with_policy(&[5, 6], p);
            assert_eq!(mem.is_padded(), p.padded);
            assert_eq!(mem.relaxed_release(), p.relaxed_release);
            assert_eq!(mem.read(Loc(0)), 5);
            mem.write(Loc(0), 7);
            mem.write_rel(Loc(1), 8);
            assert_eq!(mem.snapshot(), vec![7, 8]);
            assert_eq!(mem.len(), 2);
        }
    }

    #[test]
    fn concurrent_writers_land_one_value() {
        // Many threads write distinct values to one register; the final
        // value must be one of them (atomicity: no tearing, no invention).
        let mut l = Layout::new();
        let x = l.scalar("X", 0);
        let mem = Arc::new(AtomicMemory::new(&l));
        let handles: Vec<_> = (1..=8u64)
            .map(|v| {
                let m = Arc::clone(&mem);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        m.write(x, v);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let v = mem.read(x);
        assert!((1..=8).contains(&v), "unexpected final value {v}");
    }

    #[test]
    fn release_store_publishes_data() {
        // The message-passing litmus test for write_rel: data written
        // plainly, flag written with write_rel; a reader that observes the
        // flag must observe the data.
        let mut l = Layout::new();
        let data = l.scalar("DATA", 0);
        let flag = l.scalar("FLAG", 0);
        let mem = Arc::new(AtomicMemory::new(&l));
        let writer = {
            let m = Arc::clone(&mem);
            std::thread::spawn(move || {
                m.write(data, 42);
                m.write_rel(flag, 1);
            })
        };
        let reader = {
            let m = Arc::clone(&mem);
            std::thread::spawn(move || {
                while m.read(flag) == 0 {
                    std::hint::spin_loop();
                }
                assert_eq!(m.read(data), 42);
            })
        };
        writer.join().unwrap();
        reader.join().unwrap();
    }

    #[test]
    fn swap_grants_exactly_one_claimant() {
        // The test-and-set litmus: 8 threads race swap(x, 1) on an initial
        // 0; exactly one of them may observe the 0.
        let mut l = Layout::new();
        let x = l.scalar("X", 0);
        let mem = Arc::new(AtomicMemory::new(&l));
        let winners: Vec<_> = (0..8)
            .map(|_| {
                let m = Arc::clone(&mem);
                std::thread::spawn(move || m.swap(x, 1) == 0)
            })
            .collect();
        let won = winners
            .into_iter()
            .map(|h| h.join().unwrap())
            .filter(|&w| w)
            .count();
        assert_eq!(won, 1, "test-and-set must have exactly one winner");
    }

    #[test]
    fn is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AtomicMemory>();
    }
}
