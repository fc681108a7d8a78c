//! Figure 2 reproduction: quality-versus-runtime curves for SLIC,
//! S-SLIC (0.5), and S-SLIC (0.25) at K = 900 superpixels.
//!
//! Prints the (time, undersegmentation error) series of Fig. 2a and the
//! (time, boundary recall) series of Fig. 2b, then the paper's headline
//! crossing analysis: how much sooner S-SLIC reaches the quality SLIC
//! converges to. Each point carries its cost twice: wall-clock
//! milliseconds, and the deterministic count of pixel colour reads, so
//! every byte but the millisecond figures regenerates exactly.

use sslic_bench::{corpus, evaluate, fig2_params, header, rule, CorpusResult, Scale};
use sslic_core::Segmenter;

struct Series {
    name: &'static str,
    points: Vec<(u32, CorpusResult)>, // (center-update steps, result)
}

fn main() {
    let scale = Scale::from_env();
    let data = corpus(scale);
    let (w, h) = scale.geometry();
    println!(
        "Figure 2 — SLIC vs pixel-perspective S-SLIC, {} images at {w}x{h}, K = {} (paper: 100 Berkeley images, K = 900)",
        data.len(),
        scale.superpixels(900),
    );
    println!("reads = mean pixel colour reads per image (assigned + center-update pixel visits)");

    // SLIC full iterations t cost ~1 pass each; S-SLIC(1/P) sub-iterations
    // cost ~1/P pass each, so sweep P× as many steps to cover the same
    // time range.
    let sweeps: [(&'static str, u32, Vec<u32>); 3] = [
        ("SLIC", 1, vec![1, 2, 3, 4, 6, 8, 10]),
        ("S-SLIC (0.5)", 2, vec![2, 3, 4, 6, 8, 12, 16, 20]),
        ("S-SLIC (0.25)", 4, vec![4, 6, 8, 12, 16, 24, 32, 40]),
    ];

    let mut series = Vec::new();
    for (name, subsets, steps) in sweeps {
        let points = steps
            .iter()
            .map(|&t| {
                let params = fig2_params(scale, t);
                let seg = if subsets == 1 {
                    Segmenter::slic_ppa(params)
                } else {
                    Segmenter::sslic_ppa(params, subsets)
                };
                (t, evaluate(&seg, &data))
            })
            .collect();
        series.push(Series { name, points });
    }

    header("Fig 2a: undersegmentation error vs runtime");
    println!(
        "{:<16} {:>6} {:>10} {:>10} {:>10}",
        "algorithm", "steps", "time(ms)", "reads", "USE"
    );
    rule(60);
    for s in &series {
        for (t, r) in &s.points {
            println!(
                "{:<16} {:>6} {:>10.2} {:>10.0} {:>10.4}",
                s.name, t, r.time_ms, r.pixel_color_reads, r.use_err
            );
        }
    }

    header("Fig 2b: boundary recall vs runtime");
    println!(
        "{:<16} {:>6} {:>10} {:>10} {:>10}",
        "algorithm", "steps", "time(ms)", "reads", "BR"
    );
    rule(60);
    for s in &series {
        for (t, r) in &s.points {
            println!(
                "{:<16} {:>6} {:>10.2} {:>10.0} {:>10.4}",
                s.name, t, r.time_ms, r.pixel_color_reads, r.boundary_recall
            );
        }
    }

    // Headline analysis: the cost for each algorithm to reach the USE/BR
    // that SLIC attains at convergence (its last sweep point).
    let slic_final = series[0].points.last().expect("nonempty sweep").1;
    header("Crossing analysis (paper: S-SLIC reaches SLIC quality ~25% sooner in USE, ~15% in BR)");
    // SLIC's own last point always qualifies.
    let slic_use = reach_use(&series[0], slic_final.use_err).expect("SLIC reaches its own USE");
    let slic_br =
        reach_br(&series[0], slic_final.boundary_recall).expect("SLIC reaches its own BR");
    for s in &series {
        println!(
            "{:<16} to SLIC USE: {} | to SLIC BR: {}",
            s.name,
            fmt_saving(reach_use(s, slic_final.use_err), slic_use),
            fmt_saving(reach_br(s, slic_final.boundary_recall), slic_br),
        );
    }
}

fn reach_use(s: &Series, target: f64) -> Option<CorpusResult> {
    s.points
        .iter()
        .find(|(_, r)| r.use_err <= target * 1.002)
        .map(|&(_, r)| r)
}

fn reach_br(s: &Series, target: f64) -> Option<CorpusResult> {
    s.points
        .iter()
        .find(|(_, r)| r.boundary_recall >= target * 0.998)
        .map(|&(_, r)| r)
}

/// A crossing point's cost in reads and in ms, each with its change
/// against SLIC's crossing point.
fn fmt_saving(hit: Option<CorpusResult>, slic: CorpusResult) -> String {
    let change = |v: f64, base: f64| (v / base - 1.0) * 100.0;
    match hit {
        Some(r) => format!(
            "{:.0} reads ({:+.0}%), {:.1} ms ({:+.0}%)",
            r.pixel_color_reads,
            change(r.pixel_color_reads, slic.pixel_color_reads),
            r.time_ms,
            change(r.time_ms, slic.time_ms),
        ),
        None => "not reached in sweep".to_string(),
    }
}
