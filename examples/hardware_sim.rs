//! Drive both hardware models: the analytic frame simulator at the
//! paper's full-HD design point, and the functional simulator on an actual
//! image, next to the analytic model's traffic for the same configuration
//! (both charge one streaming schedule, so the two lines must match).
//!
//! ```text
//! cargo run --release --example hardware_sim
//! ```

use sslic::hw::accel::{Accelerator, AcceleratorConfig};
use sslic::hw::gpu::{efficiency_ratio, GpuBaseline};
use sslic::hw::sim::{FrameSimulator, Resolution};
use sslic::image::synthetic::SyntheticImage;

fn main() {
    // --- analytic model: the paper's design point -----------------------
    let report = FrameSimulator::paper_default(Resolution::FULL_HD).simulate();
    println!("S-SLIC accelerator @ 1080p, K = 5000, 9-9-6 unit, 4 kB buffers:");
    println!(
        "  latency {:.1} ms ({:.1} fps) = color {:.1} + assign {:.1} + centers {:.1} + memory {:.1}",
        report.total_ms(),
        report.fps(),
        report.color_ms,
        report.assign_ms,
        report.center_ms,
        report.memory_ms
    );
    println!(
        "  area {:.3} mm², average power {:.0} mW, energy {:.2} mJ/frame",
        report.area_mm2,
        report.avg_power_mw,
        report.energy_mj_per_frame()
    );
    println!(
        "  DRAM traffic {:.0} MB/frame ({} bursts), device energy {:.1} mJ (off-budget)",
        report.traffic.total_bytes() as f64 / 1e6,
        report.traffic.bursts,
        report.dram_energy_uj / 1000.0
    );
    for gpu in GpuBaseline::table5() {
        println!(
            "  vs {}: {:.0}x more energy-efficient (tech-normalized)",
            gpu.name,
            efficiency_ratio(&gpu, &report)
        );
    }
    let stream = sslic::hw::batch::StreamModel::from_report(&report);
    println!(
        "  sustained (frame-pipelined): {:.1} fps, bottleneck = {}, {} frames in flight",
        stream.sustained_fps(),
        stream.bottleneck(),
        stream.frames_in_flight()
    );

    // --- functional model: real pixels through the datapath -------------
    println!();
    let img = SyntheticImage::builder(320, 240).seed(3).regions(10).build();
    let config = AcceleratorConfig {
        superpixels: 300,
        iterations: 8,
        buffer_bytes_per_channel: 2048,
        ..AcceleratorConfig::new(300)
    };
    let run = Accelerator::new(config).process(&img.rgb);
    println!(
        "functional sim @ 320x240, K = 300: {} superpixels, {:.2} ms modeled",
        run.centers.len(),
        run.total_ms()
    );
    println!(
        "  cycles: color {:.0} + assign {:.0} + centers {:.0} + memory {:.0}",
        run.color_cycles, run.assign_cycles, run.center_cycles, run.memory_cycles
    );
    let analytic = FrameSimulator::paper_default(Resolution {
        width: 320,
        height: 240,
        name: "320x240",
    })
    .with_superpixels(config.superpixels)
    .with_iterations(config.iterations)
    .with_subsets(config.subsets)
    .with_buffer_bytes(config.buffer_bytes_per_channel)
    .dram_traffic();
    for (model, traffic) in [("functional", run.traffic), ("analytic", analytic)] {
        println!(
            "  {model:>10} DRAM traffic: {} B read, {} B written, {} bursts",
            traffic.bytes_read, traffic.bytes_written, traffic.bursts
        );
    }
    println!(
        "  scratchpad energy {:.1} uJ, DRAM energy {:.1} uJ",
        run.sram_energy_uj(),
        run.dram_energy_uj
    );
    let quality = sslic::metrics::undersegmentation_error(&run.labels, &img.ground_truth);
    println!("  segmentation quality on the 8-bit datapath: USE = {quality:.4}");
}
