//! The streaming contract, pinned at the real allocator: a steady-state
//! [`SegmenterSession`](sslic::prelude::SegmenterSession) frame performs
//! **zero** heap allocations, for every algorithm, at one and at several
//! threads.
//!
//! The binary installs a counting wrapper around the system allocator;
//! frame 0 of each session is allowed to allocate (cold seeding computes
//! the initial centers), frames 1 and 2 must leave the counter untouched.
//! Worker threads park on a condvar between dispatches and the futex-based
//! `Mutex`/`Condvar` never allocate on use, so the assertion holds at any
//! thread count.
//!
//! The allocator also records the largest single request, which bounds
//! what untrusted input can make the serve loop reserve: a frame record
//! whose length prefix claims far more than follows must not reserve the
//! claimed size.
//!
//! The counter is process-global, so the scenarios must never overlap: a
//! neighbour's allocations, or a test harness spawning threads and
//! printing results, would land inside another scenario's counting
//! window. The binary therefore runs without the libtest harness
//! (`harness = false` in Cargo.toml): [`main`] runs the scenarios one
//! after another on the main thread and prints libtest-style result
//! lines between them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use sslic::core::DistanceMode;
use sslic::image::synthetic::SyntheticImage;
use sslic::prelude::*;

/// Counts every allocation and reallocation routed through the global
/// allocator, and records the largest size any of them asked for.
/// Deallocations are deliberately not counted: a steady-state frame must
/// not acquire memory; releasing none follows from that.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The largest single `alloc`/`alloc_zeroed`/`realloc` size, in bytes,
/// since a scenario last reset it.
static LARGEST: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    ALLOCS.fetch_add(1, Ordering::SeqCst);
    LARGEST.fetch_max(size as u64, Ordering::SeqCst);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn scenarios() -> Vec<(&'static str, Segmenter)> {
    let p = |threads: usize| {
        SlicParams::builder(60)
            .iterations(5)
            .threads(threads)
            .build()
    };
    let mut out = Vec::new();
    for threads in [1usize, 4] {
        out.push(("slic_cpa/float", Segmenter::slic(p(threads))));
        out.push(("slic_ppa/float", Segmenter::slic_ppa(p(threads))));
        out.push((
            "sslic_ppa/quantized8",
            Segmenter::sslic_ppa(p(threads), 2).with_distance_mode(DistanceMode::quantized(8)),
        ));
        // Both forced kernels: the SWAR threshold tables are built once,
        // when the session is, so neither backend may allocate per frame.
        for (name, kernel) in [
            ("sslic_ppa/quantized8+swar", Kernel::Swar),
            ("sslic_ppa/quantized8+scalar", Kernel::Scalar),
        ] {
            let params = SlicParams::builder(60)
                .iterations(5)
                .threads(threads)
                .kernel(kernel)
                .build();
            out.push((
                name,
                Segmenter::sslic_ppa(params, 2).with_distance_mode(DistanceMode::quantized(8)),
            ));
        }
        out.push((
            "slic_ppa/preemption",
            Segmenter::slic_ppa(p(threads)).with_preemption(0.25),
        ));
        // The SWAR kernel's preempted-run branch: frozen runs still add
        // their members to the band's sigma partial.
        out.push((
            "sslic_ppa/quantized8+preemption",
            Segmenter::sslic_ppa(p(threads), 2)
                .with_distance_mode(DistanceMode::quantized(8))
                .with_preemption(0.5),
        ));
        // SLIC-CPA's band-side window scan over 8-bit codes: its distance
        // stripes and the skipped windows of frozen clusters.
        out.push((
            "slic_cpa/quantized8+preemption",
            Segmenter::slic(p(threads))
                .with_distance_mode(DistanceMode::quantized(8))
                .with_preemption(0.5),
        ));
    }
    out
}

fn self_healing_frames_stay_allocation_free() {
    // The recovery runtime's buffers (checkpoint table, guard state) are
    // built with the rest of the session, so arming a policy must not
    // change the zero-alloc contract — neither on clean frames nor on
    // frames that guard-fail, roll back, and retry. A budget of 1 keeps
    // the ladder on the Rollback/FailFrame rungs: ColdRestart legitimately
    // re-seeds (and so allocates) off the steady path and is exercised
    // elsewhere.
    use sslic::core::RecoveryPolicy;
    use sslic::fault::{EngineFaults, FaultKind, FaultPlan, FaultSite};

    let frames: Vec<SyntheticImage> = (0..4)
        .map(|i| {
            SyntheticImage::builder(64, 48)
                .seed(900 + i)
                .regions(5)
                .build()
        })
        .collect();
    let policy = RecoveryPolicy::new(1);

    for threads in [1usize, 4] {
        let params = SlicParams::builder(60)
            .iterations(5)
            .threads(threads)
            .build();
        let seg = Segmenter::sslic_ppa(params, 2);

        // Clean stream, policy armed: nothing fires, nothing allocates.
        let mut session = seg.session(64, 48);
        session.run(
            SegmentRequest::Rgb(&frames[0].rgb),
            &RunOptions::new().with_recovery(&policy),
        );
        for img in &frames[1..] {
            let before = ALLOCS.load(Ordering::SeqCst);
            let report = session.run(
                SegmentRequest::Rgb(&img.rgb),
                &RunOptions::new().with_recovery(&policy),
            );
            let delta = ALLOCS.load(Ordering::SeqCst) - before;
            assert_eq!(delta, 0, "x{threads}: armed-but-idle recovery allocated");
            assert_eq!(report.recovery().retries, 0);
        }

        // Hot stream: sigma-register corruption dense enough that every
        // frame trips a guard and spends its retry — still zero allocs.
        let plan =
            FaultPlan::new(11).with(FaultSite::SigmaRegister, FaultKind::SingleBitFlip, 20_000);
        let mut session = seg.session(64, 48);
        let faults = EngineFaults::new(&plan);
        session.run(
            SegmentRequest::Rgb(&frames[0].rgb),
            &RunOptions::new().with_faults(&faults).with_recovery(&policy),
        );
        let mut retried = 0u64;
        for (i, img) in frames[1..].iter().enumerate() {
            let before = ALLOCS.load(Ordering::SeqCst);
            let report = session.run(
                SegmentRequest::Rgb(&img.rgb),
                &RunOptions::new().with_faults(&faults).with_recovery(&policy),
            );
            let delta = ALLOCS.load(Ordering::SeqCst) - before;
            assert_eq!(
                delta,
                0,
                "x{threads}: rollback retry on frame {} performed {delta} heap allocations",
                i + 1
            );
            retried += u64::from(report.recovery().retries);
        }
        assert!(
            retried > 0,
            "x{threads}: the hot plan must actually force retries"
        );
    }
}

fn steady_state_frames_never_touch_the_heap() {
    // All frames are synthesized before any measurement begins.
    let frames: Vec<SyntheticImage> = (0..3)
        .map(|i| {
            SyntheticImage::builder(64, 48)
                .seed(900 + i)
                .regions(5)
                .build()
        })
        .collect();
    for (name, seg) in scenarios() {
        let threads = seg.params().threads().get();
        let mut session = seg.session(64, 48);
        // Frame 0: cold seeding — allocations are expected and irrelevant.
        session.run(SegmentRequest::Rgb(&frames[0].rgb), &RunOptions::new());
        for (i, img) in frames[1..].iter().enumerate() {
            let before = ALLOCS.load(Ordering::SeqCst);
            let report = session.run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
            let delta = ALLOCS.load(Ordering::SeqCst) - before;
            assert_eq!(
                delta,
                0,
                "{name} x{threads}: steady-state frame {} performed {delta} heap allocations",
                i + 1
            );
            assert_eq!(report.status(), SegmentationStatus::Ok);
        }
    }
}

fn steady_state_fleet_frames_never_touch_the_heap() {
    // Two live streams through a two-slot fleet: after each stream's cold
    // frame, the whole path — admission lookup, per-frame tallies, the
    // session run itself — must leave the allocation counter untouched.
    let frames: Vec<SyntheticImage> = (0..4)
        .map(|i| {
            SyntheticImage::builder(64, 48)
                .seed(950 + i)
                .regions(5)
                .build()
        })
        .collect();
    for threads in [1usize, 4] {
        let params = SlicParams::builder(60)
            .iterations(5)
            .threads(threads)
            .build();
        let seg = Segmenter::sslic_ppa(params, 2);
        let cfg = FleetConfig::builder().with_slots(2).build();
        let mut fleet = SessionFleet::new(&seg, 64, 48, cfg);
        let (a, b) = (StreamId(0), StreamId(1));
        // Frame 0 per stream: admission binds a slot and cold seeding
        // computes the initial centers — allocations expected.
        fleet.run(a, SegmentRequest::Rgb(&frames[0].rgb), &RunOptions::new());
        fleet.run(b, SegmentRequest::Rgb(&frames[0].rgb), &RunOptions::new());
        for (i, img) in frames[1..].iter().enumerate() {
            let before = ALLOCS.load(Ordering::SeqCst);
            fleet.run(a, SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
            fleet.run(b, SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
            let delta = ALLOCS.load(Ordering::SeqCst) - before;
            assert_eq!(
                delta,
                0,
                "x{threads}: steady fleet frame {} performed {delta} heap allocations",
                i + 1
            );
        }
    }
}

fn lying_length_prefix_allocates_only_what_arrives() {
    // One frame record whose length prefix claims 60 MiB (under the
    // 64 MiB wire cap) but carries 1 KiB before EOF. The pump must report
    // the truncation without ever asking for more than the 1 MiB it may
    // reserve up front: the buffer grows only with bytes that arrive.
    use sslic::core::{serve, ServeOptions, WIRE_FRAME};

    let claimed: u32 = 60 << 20;
    let mut wire = vec![WIRE_FRAME];
    wire.extend_from_slice(&7u64.to_le_bytes());
    wire.extend_from_slice(&claimed.to_le_bytes());
    wire.extend_from_slice(&[0x50; 1024]);
    let seg = Segmenter::sslic_ppa(SlicParams::builder(60).build(), 2);
    let cfg = FleetConfig::builder().with_slots(2).build();
    let mut out = Vec::new();
    LARGEST.store(0, Ordering::SeqCst);
    let result = serve(&seg, cfg, &mut &wire[..], &mut out, &ServeOptions::new());
    let largest = LARGEST.load(Ordering::SeqCst);
    assert!(
        matches!(&result, Err(e) if e.contains("truncated frame payload")),
        "a record 1 KiB into a claimed {claimed}-byte payload must fail as truncated, got {result:?}"
    );
    assert!(
        largest <= 1 << 20,
        "a lying length prefix made serve ask for {largest} bytes in one allocation"
    );
}

/// Every scenario, in the order [`main`] runs them.
const SCENARIOS: [(&str, fn()); 4] = [
    (
        "steady_state_frames_never_touch_the_heap",
        steady_state_frames_never_touch_the_heap,
    ),
    (
        "steady_state_fleet_frames_never_touch_the_heap",
        steady_state_fleet_frames_never_touch_the_heap,
    ),
    (
        "self_healing_frames_stay_allocation_free",
        self_healing_frames_stay_allocation_free,
    ),
    (
        "lying_length_prefix_allocates_only_what_arrives",
        lying_length_prefix_allocates_only_what_arrives,
    ),
];

/// Runs every scenario serially. Name filters and other libtest flags
/// are ignored, so a filtered `cargo test` can never skip the gate;
/// `--list` prints the names the way libtest does. A failing assertion
/// panics, which exits nonzero and fails the test.
fn main() {
    if std::env::args().any(|a| a == "--list") {
        for (name, _) in SCENARIOS {
            println!("{name}: test");
        }
        return;
    }
    println!("\nrunning {} tests", SCENARIOS.len());
    for (name, scenario) in SCENARIOS {
        scenario();
        println!("test {name} ... ok");
    }
    println!(
        "\ntest result: ok. {} passed; 0 failed; 0 ignored; 0 measured; 0 filtered out\n",
        SCENARIOS.len()
    );
}
