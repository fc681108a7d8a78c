//! Quickstart: segment a synthetic image with S-SLIC and write the results
//! as PPM files you can open in any image viewer.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::fs::File;
use std::io::BufWriter;

use sslic::core::{RunOptions, SegmentRequest, Segmenter, SlicParams};
use sslic::image::synthetic::SyntheticImage;
use sslic::image::{draw, ppm, Rgb};
use sslic::metrics::{boundary_recall, undersegmentation_error};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. An input image. Real applications would load a camera frame; the
    //    synthetic generator gives us one with exact ground truth.
    let img = SyntheticImage::builder(480, 320)
        .seed(7)
        .regions(12)
        .build();

    // 2. Configure S-SLIC: 900 superpixels, the paper's primary algorithm
    //    (pixel-perspective, subsampling ratio 0.5).
    let params = SlicParams::builder(900)
        .compactness(10.0)
        .iterations(10)
        .build();
    let segmenter = Segmenter::sslic_ppa(params, 2);

    // 3. Segment.
    let seg = segmenter.run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
    println!(
        "segmented {}x{} into {} superpixels in {} steps",
        img.rgb.width(),
        img.rgb.height(),
        seg.cluster_count(),
        seg.report().iterations_run()
    );
    println!(
        "quality vs ground truth: USE = {:.4}, boundary recall = {:.4}",
        undersegmentation_error(seg.labels(), &img.ground_truth),
        boundary_recall(seg.labels(), &img.ground_truth, 2)
    );
    let b = seg.report().breakdown();
    println!(
        "time breakdown: color conv {:.0}%, distance+min {:.0}%, center update {:.0}%",
        b.percent(sslic::core::profile::Phase::ColorConversion),
        b.percent(sslic::core::profile::Phase::DistanceMin),
        b.percent(sslic::core::profile::Phase::CenterUpdate),
    );

    // 4. Write visualisations.
    std::fs::create_dir_all("target/quickstart")?;
    let overlay = draw::overlay_boundaries(&img.rgb, seg.labels(), Rgb::new(255, 32, 32));
    ppm::write_ppm(
        BufWriter::new(File::create("target/quickstart/boundaries.ppm")?),
        &overlay,
    )?;
    let colored = draw::colorize_labels(seg.labels());
    ppm::write_ppm(
        BufWriter::new(File::create("target/quickstart/labels.ppm")?),
        &colored,
    )?;
    ppm::write_ppm(
        BufWriter::new(File::create("target/quickstart/input.ppm")?),
        &img.rgb,
    )?;
    println!("wrote target/quickstart/{{input,boundaries,labels}}.ppm");
    Ok(())
}
