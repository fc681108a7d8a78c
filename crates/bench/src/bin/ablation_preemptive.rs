//! Ablation: Preemptive SLIC × S-SLIC — "While the two techniques could be
//! combined, the analysis of this combined algorithm is beyond the scope
//! of this work" (paper §8). This experiment runs that analysis: all four
//! quadrants at equal center-update budgets, reporting quality, wall
//! time, and distance-computation counts (the quantity both techniques
//! try to cut).

use sslic_bench::{corpus, header, rule, Scale};
use sslic_core::{RunOptions, SegmentRequest, Segmenter, SlicParams};
use sslic_metrics::{boundary_recall, undersegmentation_error};
use std::time::Instant;

fn main() {
    let scale = Scale::from_env();
    let data = corpus(scale);
    println!(
        "Preemptive × Subsampled ablation over {} images (preemption threshold 0.5 px)",
        data.len()
    );

    let base = |iterations: u32| {
        SlicParams::builder(scale.superpixels(900))
            .compactness(sslic_bench::COMPACTNESS)
            .iterations(iterations)
            .build()
    };
    // Equal full-pass budgets: 10 full passes for SLIC, 20 half passes for
    // S-SLIC (0.5).
    let candidates: Vec<(&str, Segmenter)> = vec![
        ("SLIC", Segmenter::slic_ppa(base(10))),
        ("Preemptive SLIC", Segmenter::slic_ppa(base(10)).with_preemption(0.5)),
        ("S-SLIC (0.5)", Segmenter::sslic_ppa(base(20), 2)),
        (
            "Preemptive S-SLIC",
            Segmenter::sslic_ppa(base(20), 2).with_preemption(0.5),
        ),
    ];

    header("Combined-technique analysis (equal full-pass budgets)");
    println!(
        "{:<18} {:>10} {:>12} {:>9} {:>9} {:>8}",
        "algorithm", "time(ms)", "dist calcs", "USE", "BR", "frozen"
    );
    rule(72);
    let mut dist_counts = Vec::new();
    for (name, seg) in &candidates {
        let (mut t, mut u, mut br, mut dc, mut frozen) = (0.0f64, 0.0, 0.0, 0u64, 0usize);
        for img in data.iter() {
            let start = Instant::now();
            let out = seg.run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
            t += start.elapsed().as_secs_f64() * 1e3;
            u += undersegmentation_error(out.labels(), &img.ground_truth);
            br += boundary_recall(out.labels(), &img.ground_truth, sslic_bench::BR_TOLERANCE);
            dc += out.report().counters().distance_calcs;
            frozen += out.report().frozen_clusters();
        }
        let n = data.len() as f64;
        println!(
            "{:<18} {:>10.2} {:>11.1}M {:>9.4} {:>9.4} {:>8.0}",
            name,
            t / n,
            dc as f64 / n / 1e6,
            u / n,
            br / n,
            frozen as f64 / n
        );
        dist_counts.push(dc);
    }
    rule(72);
    println!(
        "Distance-work savings: preemption alone {:.0}%, subsampling alone {:.0}%\n\
         (vs same-budget SLIC it is work-neutral but converges per half-pass),\n\
         combined {:.0}% — the techniques compose because they cut different\n\
         axes: preemption skips converged *clusters*, subsampling skips\n\
         *pixels* per step.",
        100.0 * (1.0 - dist_counts[1] as f64 / dist_counts[0] as f64),
        100.0 * (1.0 - dist_counts[2] as f64 / dist_counts[0] as f64),
        100.0 * (1.0 - dist_counts[3] as f64 / dist_counts[0] as f64),
    );
}
