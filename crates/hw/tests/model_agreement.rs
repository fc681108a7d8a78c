//! The analytic `FrameSimulator` and the functional `Accelerator` charge one
//! streaming schedule, so on the same configuration they must report the
//! same DRAM bytes and bursts and the same cycles in every phase. The grid
//! is S-SLIC's subset counts P ∈ {1, 2, 4} × Figure 6's buffer sizes, on an
//! even frame and on one whose odd pixel count splits unevenly into
//! subsets.

use sslic_hw::accel::{Accelerator, AcceleratorConfig};
use sslic_hw::cluster::ClusterUnitConfig;
use sslic_hw::model::cycles_to_ms;
use sslic_hw::sim::{FrameSimulator, Resolution};
use sslic_image::synthetic::SyntheticImage;

const SUPERPIXELS: usize = 60;
const STEPS: u32 = 4;

fn assert_models_agree(resolution: Resolution) {
    let img = SyntheticImage::builder(resolution.width, resolution.height)
        .seed(3)
        .regions(6)
        .build();
    for subsets in [1, 2, 4] {
        for kb in [1, 2, 4, 8, 16, 32, 64, 128] {
            let buffer = kb * 1024;
            let analytic = FrameSimulator::paper_default(resolution)
                .with_superpixels(SUPERPIXELS)
                .with_iterations(STEPS)
                .with_subsets(subsets)
                .with_buffer_bytes(buffer)
                .simulate();
            let functional = Accelerator::new(AcceleratorConfig {
                iterations: STEPS,
                subsets,
                buffer_bytes_per_channel: buffer,
                cluster_config: ClusterUnitConfig::c9_9_6(),
                ..AcceleratorConfig::new(SUPERPIXELS)
            })
            .process(&img.rgb);
            let at = format!("{}, P = {subsets}, {kb} KiB", resolution.name);
            assert_eq!(analytic.traffic, functional.traffic, "traffic at {at}");
            assert_eq!(analytic.superpixels, functional.centers.len(), "K at {at}");
            assert_eq!(analytic.color_ms, cycles_to_ms(functional.color_cycles), "color at {at}");
            assert_eq!(analytic.assign_ms, cycles_to_ms(functional.assign_cycles), "assign at {at}");
            assert_eq!(analytic.center_ms, cycles_to_ms(functional.center_cycles), "centers at {at}");
            assert_eq!(analytic.memory_ms, cycles_to_ms(functional.memory_cycles), "memory at {at}");
        }
    }
}

#[test]
fn models_agree_on_an_even_frame() {
    assert_models_agree(Resolution {
        width: 160,
        height: 120,
        name: "160x120",
    });
}

#[test]
fn models_agree_on_an_odd_pixel_count() {
    assert_models_agree(Resolution {
        width: 321,
        height: 241,
        name: "321x241",
    });
}
