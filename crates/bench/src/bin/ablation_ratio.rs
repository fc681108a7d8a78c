//! Ablation: the subsampling ratio itself. The paper evaluates S-SLIC at
//! ratios 0.5 and 0.25; this experiment sweeps `P = 1..8` at a matched
//! full-pass budget to chart where the returns diminish — the data a
//! designer would want before hard-wiring the ratio into silicon.

use sslic_bench::{corpus, evaluate, fig2_params, header, rule, Scale};
use sslic_core::Segmenter;
use sslic_hw::sim::{FrameSimulator, Resolution};

/// The swept subset counts; P = 1 is full SLIC.
const RATIOS: [u32; 6] = [1, 2, 3, 4, 6, 8];

fn main() {
    let scale = Scale::from_env();
    let data = corpus(scale);
    println!(
        "Subsampling-ratio sweep over {} images (8 full passes of work each)",
        data.len()
    );

    header("Quality and software runtime vs ratio 1/P");
    println!(
        "{:<8} {:>7} {:>10} {:>10} {:>10} {:>16}",
        "P", "ratio", "time(ms)", "USE", "BR", "ctr updates/pass"
    );
    rule(66);
    let mut quality = Vec::new();
    for p in RATIOS {
        // Matched work: P sub-iterations per full pass.
        let params = fig2_params(scale, 8 * p);
        let seg = if p == 1 {
            Segmenter::slic_ppa(params)
        } else {
            Segmenter::sslic_ppa(params, p)
        };
        let r = evaluate(&seg, &data);
        println!(
            "{:<8} {:>7.3} {:>10.2} {:>10.4} {:>10.4} {:>16}",
            p,
            1.0 / p as f64,
            r.time_ms,
            r.use_err,
            r.boundary_recall,
            p
        );
        quality.push((p, r.use_err, r.boundary_recall));
    }

    header("Accelerator DRAM traffic vs ratio (full HD, 9 steps)");
    println!("{:<8} {:>16} {:>18}", "P", "traffic (MB)", "reduction vs P=1");
    rule(46);
    let base = FrameSimulator::paper_default(Resolution::FULL_HD)
        .dram_traffic()
        .total_bytes() as f64;
    let mut reduction = Vec::new();
    for p in RATIOS {
        let t = FrameSimulator::paper_default(Resolution::FULL_HD)
            .with_subsets(p)
            .dram_traffic()
            .total_bytes() as f64;
        println!("{:<8} {:>16.1} {:>17.2}x", p, t / 1e6, base / t);
        reduction.push(base / t);
    }

    // The conclusion is read off the two tables above, not asserted.
    let at = |p| RATIOS.iter().position(|&q| q == p).unwrap();
    let (_, use1, br1) = quality[at(1)];
    let (_, use2, br2) = quality[at(2)];
    let (_, use4, br4) = quality[at(4)];
    let (_, use8, br8) = quality[at(8)];
    let best_use = quality.iter().min_by(|a, b| a.1.total_cmp(&b.1)).unwrap();
    let best_br = quality.iter().max_by(|a, b| a.2.total_cmp(&b.2)).unwrap();
    let p4_vs_slic = if use4 <= use1 && br4 >= br1 {
        "matches or beats"
    } else {
        "falls short of"
    };
    println!();
    println!(
        "P = 2 delivers a {:.2}x bandwidth saving (the abstract's 1.8x) at USE {:.4} / BR {:.4}.",
        reduction[at(2)],
        use2,
        br2
    );
    println!(
        "The best measured USE is at P = {} ({:.4}), the best BR at P = {} ({:.4}).",
        best_use.0, best_use.1, best_br.0, best_br.2
    );
    println!(
        "P = 4 {} full SLIC on both metrics (USE {:.4} vs {:.4}, BR {:.4} vs {:.4}).",
        p4_vs_slic, use4, use1, br4, br1
    );
    println!(
        "At P = 8 the sparse per-step subsets cost quality (USE {:.4}, BR {:.4}):\n\
         more bandwidth saving exists ({:.1}x) but not for free.",
        use8,
        br8,
        reduction[at(8)]
    );
}
