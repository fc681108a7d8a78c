//! Ablation: double-buffered DMA. The paper's Figure 6 charges memory time
//! in series with compute; this experiment asks what a second scratchpad
//! bank per channel would buy — overlapping tile `i+1`'s prefetch with
//! tile `i`'s compute — and what it would cost in SRAM area.

use sslic_bench::{header, rule};
use sslic_hw::dma::TileSchedule;
use sslic_hw::model;
use sslic_hw::scratchpad::ScratchpadSet;

fn main() {
    println!(
        "Double-buffering study — full-HD cluster-update streaming, 9 iterations,\n\
         1 cycle/pixel compute, 7 B/pixel payload at 8.64 B/cycle effective DRAM"
    );

    header("Per-iteration streaming time: serial (paper) vs double-buffered");
    println!(
        "{:<10} {:>14} {:>16} {:>10} {:>14}",
        "buffer", "serial (ms)", "overlap (ms)", "speedup", "extra SRAM mm2"
    );
    rule(70);
    for kb in [1usize, 2, 4, 8, 16, 32] {
        let s = TileSchedule::new(1920 * 1080, (kb * 1024) as u64, 1.0);
        let serial = model::cycles_to_ms(s.serial_cycles());
        let overlap = model::cycles_to_ms(s.double_buffered_cycles());
        // Doubling the four channel buffers costs one extra ScratchpadSet.
        let extra_area = ScratchpadSet::new(kb * 1024).area_mm2();
        println!(
            "{:<10} {:>14.2} {:>16.2} {:>9.2}x {:>14.4}",
            format!("{kb} kB"),
            serial,
            overlap,
            s.overlap_speedup(),
            extra_area
        );
    }
    rule(70);
    println!(
        "Double buffering hides most of the streaming time behind compute —\n\
         the per-iteration cluster-update stream drops toward its compute bound\n\
         — at the price of doubling the channel SRAMs (e.g. +0.017 mm2 at 4 kB,\n\
         ~26% of the 0.066 mm2 die). The paper's serial design is the right call\n\
         at its 30 fps target, which it already meets; double buffering is the\n\
         lever to pull for 60 fps or 4K."
    );
}
