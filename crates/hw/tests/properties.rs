//! Property-based contracts of the hardware models.

use proptest::prelude::*;

use sslic_hw::cluster::ClusterUnitConfig;
use sslic_hw::dma::TileSchedule;
use sslic_hw::dram::DramModel;
use sslic_hw::pipeline::ClusterPipeline;
use sslic_hw::sim::{FrameSimulator, Resolution};

fn arb_config() -> impl Strategy<Value = ClusterUnitConfig> {
    prop_oneof![
        Just(ClusterUnitConfig::c1_1_1()),
        Just(ClusterUnitConfig::c9_1_1()),
        Just(ClusterUnitConfig::c1_9_1()),
        Just(ClusterUnitConfig::c1_1_6()),
        Just(ClusterUnitConfig::c9_9_6()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pipeline_timing_contract_holds_for_any_burst(
        config in arb_config(),
        n in 1u64..300,
        seed in 0u64..1000,
    ) {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut pipe = ClusterPipeline::new(config);
        let mut want = Vec::new();
        for _ in 0..n {
            // Near-tie vectors, the hard case for a priority-encoded
            // minimum: every slot sits within 3 of a common base, and half
            // the time one random slot dips just below the crowd.
            let base = (next() % 256) as u32;
            let mut d = [0u32; 9];
            for v in &mut d {
                *v = base + (next() % 4) as u32;
            }
            if next() % 2 == 0 {
                d[(next() % 9) as usize] = base.saturating_sub(1);
            }
            let min = d.iter().copied().min().unwrap_or(u32::MAX);
            want.push(d.iter().position(|&v| v == min).unwrap_or(0) as u8);
            pipe.issue(d);
        }
        let total = pipe.flush();
        let expected = (n - 1) * config.initiation_interval() as u64
            + config.latency_cycles() as u64;
        prop_assert_eq!(total, expected);
        let retired = pipe.retired();
        prop_assert_eq!(retired.len() as u64, n);
        prop_assert!(
            retired.windows(2).all(|w| w[0].id < w[1].id),
            "retired out of issue order"
        );
        for (tx, &winner) in retired.iter().zip(&want) {
            prop_assert!(
                tx.winner == winner,
                "transaction {}: winner {} != {}",
                tx.id,
                tx.winner,
                winner
            );
        }
    }

    #[test]
    fn dram_transfer_time_is_monotone_in_bytes_and_bursts(
        bytes_a in 0u64..100_000_000,
        bytes_b in 0u64..100_000_000,
        bursts in 0u64..10_000,
    ) {
        let d = DramModel::default();
        if bytes_a <= bytes_b {
            prop_assert!(d.transfer_cycles(bytes_a, bursts) <= d.transfer_cycles(bytes_b, bursts));
        }
        prop_assert!(d.transfer_cycles(bytes_a, bursts) <= d.transfer_cycles(bytes_a, bursts + 1));
    }

    #[test]
    fn frame_time_is_monotone_in_iterations(iters in 1u32..20) {
        let a = FrameSimulator::paper_default(Resolution::VGA)
            .with_iterations(iters)
            .simulate();
        let b = FrameSimulator::paper_default(Resolution::VGA)
            .with_iterations(iters + 1)
            .simulate();
        prop_assert!(b.total_ms() > a.total_ms());
    }

    #[test]
    fn subsampling_never_increases_traffic(p in 1u32..9) {
        let base = FrameSimulator::paper_default(Resolution::FULL_HD)
            .dram_traffic()
            .total_bytes();
        let sub = FrameSimulator::paper_default(Resolution::FULL_HD)
            .with_subsets(p)
            .dram_traffic()
            .total_bytes();
        prop_assert!(sub <= base);
    }

    #[test]
    fn double_buffering_bounded_between_1x_and_2x(
        tile_kb in 1u64..64,
        compute in 1u64..4,
    ) {
        let s = TileSchedule::new(1920 * 1080, tile_kb * 1024, compute as f64);
        let sp = s.overlap_speedup();
        prop_assert!((1.0..=2.0 + 1e-9).contains(&sp), "speedup {sp}");
    }

    #[test]
    fn dvfs_power_factor_is_monotone(f1 in 0.1f64..1.6, f2 in 0.1f64..1.6) {
        let a = FrameSimulator::paper_default(Resolution::VGA).with_clock_ghz(f1);
        let b = FrameSimulator::paper_default(Resolution::VGA).with_clock_ghz(f2);
        if f1 <= f2 {
            prop_assert!(a.dvfs_power_factor() <= b.dvfs_power_factor());
        }
    }

    #[test]
    fn energy_per_frame_is_positive_and_finite(
        kb in 1usize..128,
        iters in 1u32..15,
    ) {
        let r = FrameSimulator::paper_default(Resolution::FULL_HD)
            .with_buffer_bytes(kb * 1024)
            .with_iterations(iters)
            .simulate();
        let e = r.energy_mj_per_frame();
        prop_assert!(e.is_finite() && e > 0.0);
        prop_assert!(r.power.total_mw() > 0.0);
    }
}
