//! Deterministic banded parallel execution.
//!
//! The engine parallelizes its pixel loops by splitting the image into a
//! **fixed** set of horizontal row bands whose layout depends only on the
//! image height — never on the worker count. Every band produces its own
//! partial result (a label stripe, a partial sigma accumulator), and
//! partials are combined in ascending band order on the calling thread.
//! Because the work decomposition and the reduction order are both
//! independent of how many workers happened to execute the bands, the
//! segmentation output is bit-identical for every thread count; threads
//! trade wall-clock time only. See DESIGN.md §5d for the full argument.
//!
//! Execution runs on a persistent [`BandPool`]: workers are spawned once
//! per session and parked on a condvar between dispatches, and every
//! band's output buffer lives in a pre-allocated per-band slot. This is
//! what makes multi-threaded steady-state frames allocation-free — the
//! previous `std::thread::scope` executor allocated stacks, queues, and
//! result vectors on every pass. Band `b` is executed by worker
//! `b % workers` (the caller doubles as worker 0), a static round-robin
//! schedule that keeps the band→output mapping trivially deterministic.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Upper bound on the number of row bands. Small enough that per-band
/// sigma accumulators stay cheap (`bands × K × 48` bytes held; a PPA step
/// zeroes and folds only each band's clusters within one grid row of its
/// rows, SLIC-CPA all `K`), large enough that up to ~8 workers
/// load-balance on uniform-cost rows.
const MAX_BANDS: usize = 32;

/// The fixed horizontal band decomposition for an image of `height` rows:
/// `min(height, 32)` contiguous, non-overlapping row ranges of near-equal
/// size covering every row. Depends only on `height`.
pub(crate) fn band_rows(height: usize) -> Vec<Range<usize>> {
    let bands = height.min(MAX_BANDS).max(1);
    let base = height / bands;
    let extra = height % bands;
    let mut ranges = Vec::with_capacity(bands);
    let mut y = 0;
    for b in 0..bands {
        let rows = base + usize::from(b < extra);
        ranges.push(y..y + rows);
        y += rows;
    }
    ranges
}

/// Per-dispatch coordination state, guarded by one mutex.
struct DispatchState<C> {
    /// Incremented once per dispatch; workers track the last generation
    /// they executed so a spurious condvar wakeup never re-runs a command.
    generation: u64,
    /// The command of the current dispatch (`None` between dispatches).
    /// Workers clone it (an `Arc`-field bump, no heap traffic) so the
    /// caller can reclaim unique ownership of the shared state after the
    /// barrier.
    cmd: Option<C>,
    /// Spawned workers still running the current dispatch.
    remaining: usize,
    /// Total workers including the caller; fixed after construction.
    workers: usize,
    shutdown: bool,
    /// Set by a worker's completion guard when a panic *escaped* the
    /// kernel containment and unwound the worker thread itself; the
    /// caller converts it into a poisoned-band report at the barrier and
    /// schedules the dead worker slot for respawn.
    panicked: bool,
    /// Bands whose kernel panicked during the current dispatch, contained
    /// by the per-band `catch_unwind` isolation. Reset by the caller when
    /// a new generation is posted.
    poisoned_bands: u64,
}

/// Runs the kernel over one band with panic containment: a panicking
/// kernel poisons that band (its slot keeps whatever partial state the
/// kernel left — the session's invariant guards detect it) instead of
/// unwinding the worker or wedging the pool. Returns 1 if the band was
/// poisoned.
fn run_band_contained<C, S>(
    kernel: fn(&C, usize, Range<usize>, &mut S),
    cmd: &C,
    band: usize,
    rows: Range<usize>,
    slot: &mut S,
) -> u64 {
    // AssertUnwindSafe: the slot is per-band scratch that the session
    // re-derives (stripes are rewritten at every attempt's init, sigma
    // files zero their band's clusters on entry to every dispatch), so
    // observing a half-written slot after a caught panic is exactly the
    // "poisoned band" state the guards are built to flag — never silently
    // trusted.
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        kernel(cmd, band, rows, slot);
    }));
    u64::from(outcome.is_err())
}

struct Shared<C, S> {
    state: Mutex<DispatchState<C>>,
    /// Signaled by the caller when a new generation (or shutdown) is
    /// posted.
    work: Condvar,
    /// Signaled by workers when `remaining` reaches zero.
    done: Condvar,
    bands: Vec<Range<usize>>,
    /// One pre-allocated output slot per band. A slot is only ever locked
    /// by the one worker that owns the band during a dispatch and by the
    /// caller during the fold, so the locks never contend.
    slots: Vec<Mutex<S>>,
    kernel: fn(&C, usize, Range<usize>, &mut S),
}

/// Recovers the guard from a poisoned lock: pool state is plain data that
/// stays consistent under panic (the completion guard below repairs the
/// counters), so continuing with the inner value is safe.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    match cv.wait(guard) {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Decrements `remaining` when a worker finishes a dispatch — including by
/// panic, in which case the flag is raised so the caller's barrier fails
/// instead of deadlocking.
struct DoneGuard<'a, C, S> {
    shared: &'a Shared<C, S>,
}

impl<C, S> Drop for DoneGuard<'_, C, S> {
    fn drop(&mut self) {
        let mut st = lock(&self.shared.state);
        if std::thread::panicking() {
            st.panicked = true;
        }
        st.remaining = st.remaining.saturating_sub(1);
        if st.remaining == 0 || st.panicked {
            self.shared.done.notify_all();
        }
    }
}

fn worker_loop<C: Clone, S>(shared: Arc<Shared<C, S>>, index: usize) {
    let mut seen = 0u64;
    loop {
        let (cmd, generation, workers) = {
            let mut st = lock(&shared.state);
            loop {
                if st.shutdown {
                    return;
                }
                if st.generation > seen {
                    if let Some(cmd) = st.cmd.clone() {
                        break (cmd, st.generation, st.workers);
                    }
                }
                st = wait(&shared.work, st);
            }
        };
        seen = generation;
        let guard = DoneGuard { shared: &shared };
        let mut poisoned = 0u64;
        for (b, rows) in shared.bands.iter().enumerate() {
            if b % workers == index {
                let mut slot = lock(&shared.slots[b]);
                poisoned += run_band_contained(shared.kernel, &cmd, b, rows.clone(), &mut slot);
            }
        }
        if poisoned > 0 {
            lock(&shared.state).poisoned_bands += poisoned;
        }
        // Release the command's shared handles (Arc refs) *before*
        // signaling completion, so the caller observes unique ownership at
        // the barrier and its copy-on-write accesses never actually copy.
        drop(cmd);
        drop(guard);
    }
}

/// A persistent pool of banded workers plus their per-band output slots.
///
/// Created once per session with a fixed kernel and slot layout; each
/// [`BandPool::run`] dispatches one command to every band and returns
/// after all bands completed (the caller executes worker 0's bands
/// itself). Steady-state dispatch allocates nothing: commands travel by
/// `Clone` (callers pass `Arc`-built commands), outputs land in the
/// pre-allocated slots, and workers park on a condvar between frames.
///
/// With one worker no threads are spawned and `run` degenerates to a
/// serial in-order loop; the band decomposition and ascending-band fold
/// order are fixed either way, so outputs are bit-identical for every
/// worker count.
pub(crate) struct BandPool<C: Clone + Send + 'static, S: Send + 'static> {
    shared: Arc<Shared<C, S>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    /// Spawned workers (total workers = spawned + 1; the caller is
    /// worker 0).
    spawned: usize,
    workers: usize,
    /// Set when the barrier observed a panic that unwound a worker
    /// thread; the next dispatch respawns dead slots before posting work.
    needs_respawn: bool,
}

impl<C: Clone + Send + 'static, S: Send + 'static> BandPool<C, S> {
    /// Builds a pool for images of `height` rows, with `make_slot(b, rows)`
    /// pre-allocating band `b`'s output slot. At most
    /// `min(threads, bands) - 1` workers are spawned; if a spawn fails the
    /// pool degrades to fewer workers (output unchanged — only wall-clock
    /// time depends on the worker count).
    pub(crate) fn new(
        threads: usize,
        height: usize,
        kernel: fn(&C, usize, Range<usize>, &mut S),
        mut make_slot: impl FnMut(usize, &Range<usize>) -> S,
    ) -> Self {
        let bands = band_rows(height);
        let slots: Vec<Mutex<S>> = bands
            .iter()
            .enumerate()
            .map(|(b, rows)| Mutex::new(make_slot(b, rows)))
            .collect();
        let target = threads.max(1).min(bands.len());
        let shared = Arc::new(Shared {
            state: Mutex::new(DispatchState {
                generation: 0,
                cmd: None,
                remaining: 0,
                workers: target,
                shutdown: false,
                panicked: false,
                poisoned_bands: 0,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            bands,
            slots,
            kernel,
        });
        let mut handles = Vec::new();
        for index in 1..target {
            let shared = Arc::clone(&shared);
            let spawned = std::thread::Builder::new()
                .name(format!("sslic-band-{index}"))
                .spawn(move || worker_loop(shared, index));
            match spawned {
                Ok(handle) => handles.push(handle),
                // Degrade gracefully: the remaining bands fall to the
                // workers that did spawn (plus the caller).
                Err(_) => break,
            }
        }
        let workers = handles.len() + 1;
        if workers != target {
            lock(&shared.state).workers = workers;
        }
        BandPool {
            shared,
            spawned: handles.len(),
            workers,
            handles,
            needs_respawn: false,
        }
    }

    /// Number of bands (and slots).
    pub(crate) fn band_count(&self) -> usize {
        self.shared.bands.len()
    }

    /// The fixed band decomposition, in ascending band order.
    pub(crate) fn bands(&self) -> &[Range<usize>] {
        &self.shared.bands
    }

    /// Locks band `b`'s output slot. Outside a dispatch the lock is always
    /// free; during one it is held only by the band's owning worker.
    pub(crate) fn slot(&self, b: usize) -> MutexGuard<'_, S> {
        lock(&self.shared.slots[b])
    }

    /// Runs `kernel(&cmd, b, rows, &mut slot_b)` for every band and
    /// returns once all bands completed (a full barrier). The caller
    /// executes the bands of worker 0 itself. Steady state allocates
    /// nothing.
    ///
    /// Returns the number of **poisoned bands**: bands whose kernel
    /// panicked and was contained by the per-band `catch_unwind`
    /// isolation. A poisoned band's slot holds whatever partial state the
    /// kernel left; the caller must treat it as corrupt (the session's
    /// invariant guards do). The pool itself stays serviceable — one bad
    /// band degrades one dispatch, never the pool — and any worker thread
    /// a panic managed to unwind entirely (possible only outside the
    /// kernel containment) is respawned before the next dispatch.
    pub(crate) fn run(&mut self, cmd: C) -> u64 {
        if self.spawned == 0 {
            let mut poisoned = 0u64;
            for (b, rows) in self.shared.bands.iter().enumerate() {
                let mut slot = lock(&self.shared.slots[b]);
                poisoned +=
                    run_band_contained(self.shared.kernel, &cmd, b, rows.clone(), &mut slot);
            }
            return poisoned;
        }
        if self.needs_respawn {
            self.respawn_dead_workers();
        }
        {
            let mut st = lock(&self.shared.state);
            st.generation += 1;
            st.cmd = Some(cmd.clone());
            st.remaining = self.spawned;
            st.poisoned_bands = 0;
            self.shared.work.notify_all();
        }
        let mut poisoned = 0u64;
        for (b, rows) in self.shared.bands.iter().enumerate() {
            if b % self.workers == 0 {
                let mut slot = lock(&self.shared.slots[b]);
                poisoned +=
                    run_band_contained(self.shared.kernel, &cmd, b, rows.clone(), &mut slot);
            }
        }
        let mut st = lock(&self.shared.state);
        while st.remaining > 0 {
            st = wait(&self.shared.done, st);
        }
        st.cmd = None;
        poisoned += st.poisoned_bands;
        if st.panicked {
            // A panic unwound a worker thread itself (escaped the kernel
            // containment). Report it as at least one poisoned band and
            // schedule a respawn of the dead slot off the steady path.
            st.panicked = false;
            poisoned = poisoned.max(1);
            self.needs_respawn = true;
        }
        drop(st);
        poisoned
    }

    /// Replaces worker threads that have terminated (a panic escaped the
    /// kernel containment and unwound the thread). Only called between
    /// dispatches when the barrier observed an escaped panic, so its
    /// allocations never touch the steady-state frame path.
    ///
    /// If a replacement cannot be spawned, the fixed `b % workers`
    /// indexing can no longer be honored, so the pool degrades to the
    /// serial path permanently — deterministic by construction, and
    /// strictly better than leaving a band unexecuted.
    fn respawn_dead_workers(&mut self) {
        let mut all_respawned = true;
        for (slot, handle) in self.handles.iter_mut().enumerate() {
            if !handle.is_finished() {
                continue;
            }
            let index = slot + 1;
            let shared = Arc::clone(&self.shared);
            let fresh = std::thread::Builder::new()
                .name(format!("sslic-band-{index}"))
                .spawn(move || worker_loop(shared, index));
            match fresh {
                Ok(fresh) => {
                    let dead = std::mem::replace(handle, fresh);
                    let _ = dead.join();
                }
                Err(_) => all_respawned = false,
            }
        }
        if !all_respawned {
            {
                let mut st = lock(&self.shared.state);
                st.shutdown = true;
                self.shared.work.notify_all();
            }
            for handle in self.handles.drain(..) {
                let _ = handle.join();
            }
            self.spawned = 0;
            self.workers = 1;
        }
        self.needs_respawn = false;
    }
}

impl<C: Clone + Send + 'static, S: Send + 'static> Drop for BandPool<C, S> {
    fn drop(&mut self) {
        {
            let mut st = lock(&self.shared.state);
            st.shutdown = true;
            self.shared.work.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bands_cover_the_height_exactly_and_in_order() {
        for height in [1usize, 2, 7, 31, 32, 33, 100, 719, 1080] {
            let bands = band_rows(height);
            assert_eq!(bands.len(), height.min(MAX_BANDS));
            assert_eq!(bands[0].start, 0);
            assert_eq!(bands[bands.len() - 1].end, height);
            for w in bands.windows(2) {
                assert_eq!(w[0].end, w[1].start, "contiguous at height {height}");
            }
            let sizes: Vec<usize> = bands.iter().map(|r| r.len()).collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "near-equal bands at height {height}");
        }
    }

    #[test]
    fn band_layout_is_independent_of_thread_count() {
        // The layout function has no thread parameter at all — pin that
        // contract by checking it is a pure function of height.
        assert_eq!(band_rows(720), band_rows(720));
    }

    /// Kernel under test: records which band ran over which rows, scaled
    /// by the command value.
    fn record_kernel(cmd: &u64, band: usize, rows: Range<usize>, slot: &mut (u64, usize, usize)) {
        *slot = (cmd * (band as u64 + 1), rows.start, rows.end);
    }

    fn collect(pool: &BandPool<u64, (u64, usize, usize)>) -> Vec<(u64, usize, usize)> {
        (0..pool.band_count()).map(|b| *pool.slot(b)).collect()
    }

    #[test]
    fn pool_outputs_are_ordered_and_worker_count_invariant() {
        let serial = {
            let mut pool = BandPool::new(1, 23, record_kernel, |_, _| (0, 0, 0));
            assert_eq!(pool.run(3), 0);
            collect(&pool)
        };
        assert_eq!(serial.len(), 23);
        for (b, &(v, start, end)) in serial.iter().enumerate() {
            assert_eq!(v, 3 * (b as u64 + 1));
            assert_eq!(end - start, 1);
        }
        for threads in [2usize, 3, 8, 16] {
            let mut pool = BandPool::new(threads, 23, record_kernel, |_, _| (0, 0, 0));
            assert_eq!(pool.run(3), 0);
            assert_eq!(collect(&pool), serial, "threads = {threads}");
        }
    }

    #[test]
    fn pool_redispatches_across_generations() {
        let mut pool = BandPool::new(4, 8, record_kernel, |_, _| (0, 0, 0));
        for cmd in [1u64, 5, 9] {
            pool.run(cmd);
            for b in 0..pool.band_count() {
                assert_eq!(pool.slot(b).0, cmd * (b as u64 + 1), "cmd {cmd}");
            }
        }
    }

    #[test]
    fn pool_handles_more_threads_than_bands() {
        let mut pool = BandPool::new(64, 2, record_kernel, |_, _| (0, 0, 0));
        pool.run(7);
        assert_eq!(collect(&pool), vec![(7, 0, 1), (14, 1, 2)]);
    }

    /// Kernel that panics on one band of one command value but records
    /// normally otherwise — the poisoned-band containment scenario.
    fn boom_kernel(cmd: &u64, band: usize, rows: Range<usize>, slot: &mut (u64, usize, usize)) {
        assert!(!(*cmd == 13 && band == 2), "boom");
        *slot = (cmd * (band as u64 + 1), rows.start, rows.end);
    }

    #[test]
    fn worker_panic_poisons_one_band_and_pool_stays_serviceable() {
        let mut pool = BandPool::new(2, 4, boom_kernel, |_, _| (0, 0, 0));
        assert_eq!(pool.run(1), 0, "clean dispatch reports zero poison");
        assert_eq!(pool.run(13), 1, "exactly band 2 poisons");
        // Band 2's slot kept its previous (now stale) contents — the
        // caller must treat it as corrupt.
        assert_eq!(pool.slot(2).0, 1 * 3);
        // The pool is not wedged: a subsequent clean dispatch runs every
        // band, including the previously poisoned one.
        assert_eq!(pool.run(5), 0);
        assert_eq!(
            collect(&pool),
            vec![(5, 0, 1), (10, 1, 2), (15, 2, 3), (20, 3, 4)]
        );
    }

    #[test]
    fn caller_band_panics_are_contained_serially_too() {
        let mut pool = BandPool::new(1, 4, boom_kernel, |_, _| (0, 0, 0));
        assert_eq!(pool.run(13), 1);
        assert_eq!(pool.run(2), 0);
        assert_eq!(
            collect(&pool),
            vec![(2, 0, 1), (4, 1, 2), (6, 2, 3), (8, 3, 4)]
        );
    }

    #[test]
    fn poison_reports_are_thread_count_invariant() {
        for threads in [1usize, 2, 4, 8] {
            let mut pool = BandPool::new(threads, 8, boom_kernel, |_, _| (0, 0, 0));
            assert_eq!(pool.run(13), 1, "threads = {threads}");
            assert_eq!(pool.run(13), 1, "threads = {threads} (repeat)");
            assert_eq!(pool.run(4), 0, "threads = {threads} (clean)");
        }
    }
}
