//! Table 2 reproduction: memory bandwidth and operation count per
//! iteration of the center-perspective (CPA) and pixel-perspective (PPA)
//! architectures at 1080p, K = 5000.
//!
//! Counters come from instrumented runs of one real iteration on a
//! synthetic 1920×1080 image; bytes use the double-precision software
//! layout the paper's CPU measurements reflect (`TrafficModel::sw_double`).

use sslic_bench::{header, rule};
use sslic_core::instrument::TrafficModel;
use sslic_core::{Algorithm, RunOptions, SegmentRequest, Segmenter, SlicParams};
use sslic_image::synthetic::SyntheticImage;

fn main() {
    println!("Table 2 — CPA vs PPA, one iteration at 1920x1080, K = 5000");
    let img = SyntheticImage::builder(1920, 1080)
        .seed(42)
        .regions(24)
        .build();

    let params = SlicParams::builder(5000)
        .iterations(1)
        .perturb_seeds(false)
        .enforce_connectivity(false)
        .build();

    let model = TrafficModel::sw_double();
    let mut rows = Vec::new();
    for (name, algorithm) in [("CPA", Algorithm::SlicCpa), ("PPA", Algorithm::SlicPpa)] {
        let seg = Segmenter::new(params, algorithm).run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
        let c = *seg.report().counters();
        let bytes = model.bytes(&c);
        rows.push((name, c, bytes));
    }

    header("Table 2: analysis of CPA and PPA implementations");
    println!(
        "{:<6} {:>22} {:>22} {:>18}",
        "", "memory traffic (MB/it)", "distance OPs (M/it)", "dist calcs (M/it)"
    );
    rule(72);
    for (name, c, bytes) in &rows {
        println!(
            "{:<6} {:>22.1} {:>22.1} {:>18.1}",
            name,
            bytes.total_mb(),
            c.distance_ops() as f64 / 1e6,
            c.distance_calcs as f64 / 1e6
        );
    }
    rule(72);
    println!("{:<6} {:>22} {:>22}", "paper CPA", "318 MB", "58M OPs");
    println!("{:<6} {:>22} {:>22}", "paper PPA", "100 MB", "130M OPs");

    let (_, cpa_c, cpa_b) = &rows[0];
    let (_, ppa_c, ppa_b) = &rows[1];
    println!();
    println!(
        "Measured ratios: CPA/PPA memory = {:.2}x (paper 3.18x), PPA/CPA ops = {:.2}x (paper 2.25x)",
        cpa_b.total_mb() / ppa_b.total_mb(),
        ppa_c.distance_ops() as f64 / cpa_c.distance_ops() as f64
    );
    println!(
        "Energy argument (paper §4.2): at 2500x DRAM-to-add energy, traffic dominates;\n\
         the PPA's {:.1} MB beats the CPA's {:.1} MB despite 2.25x more arithmetic —\n\
         hence the accelerator adopts the PPA.",
        ppa_b.total_mb(),
        cpa_b.total_mb()
    );
}
