//! Table 1 reproduction: execution-time breakdown of SLIC and S-SLIC by
//! pipeline phase (color conversion / distance+min / center update /
//! other).

use sslic_bench::{corpus, header, rule, Scale};
use sslic_core::{RunOptions, SegmentRequest, Segmenter, SlicParams};

fn main() {
    let scale = Scale::from_env();
    let data = corpus(scale);
    let (w, h) = scale.geometry();
    println!(
        "Table 1 — phase time breakdown over {} images at {w}x{h} (paper: Intel i7-4600M on Berkeley)",
        data.len()
    );

    let params = SlicParams::builder(scale.superpixels(900))
        .iterations(10)
        .build();

    let mut rows = Vec::new();
    for (name, seg) in [
        ("SLIC", Segmenter::slic_ppa(params)),
        ("S-SLIC", Segmenter::sslic_ppa(params, 2)),
    ] {
        let mut total = sslic_core::profile::PhaseBreakdown::new();
        for img in data.iter() {
            total.merge(
                seg.run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new())
                    .report()
                    .breakdown(),
            );
        }
        rows.push((name, total.table1_percents()));
    }

    header("Table 1: time breakdown (%)");
    println!(
        "{:<14} {:>12} {:>16} {:>15} {:>8}",
        "", "color conv", "distance + min", "center update", "other"
    );
    rule(64);
    for (name, (cc, dm, cu, other)) in &rows {
        println!(
            "{:<14} {:>11.1}% {:>15.1}% {:>14.1}% {:>7.1}%",
            name, cc, dm, cu, other
        );
    }
    rule(64);
    println!(
        "{:<14} {:>11}% {:>15}% {:>14}% {:>7}%",
        "paper SLIC", 23.4, 65.9, 10.2, 0.5
    );
    println!(
        "{:<14} {:>11}% {:>15}% {:>14}% {:>7}%",
        "paper S-SLIC", 18.7, 59.7, 17.9, 3.7
    );

    // The shape checks are read off the table above, not asserted.
    let (_, slic) = rows[0];
    let (_, sslic) = rows[1];
    let dominates = |(cc, dm, cu, other): (f64, f64, f64, f64)| dm > cc && dm > cu && dm > other;
    let pick = |holds: bool, yes: &'static str, no: &'static str| if holds { yes } else { no };
    println!();
    println!(
        "Shape checks: distance+min {} in both rows. Against SLIC, S-SLIC's\n\
         distance+min share is {} ({:.1}% vs {:.1}%) and its center-update share\n\
         is {} ({:.1}% vs {:.1}%); the paper's S-SLIC shifts share from\n\
         distance+min toward center update.",
        pick(
            dominates(slic) && dominates(sslic),
            "dominates",
            "does not dominate"
        ),
        pick(sslic.1 < slic.1, "lower", "not lower"),
        sslic.1,
        slic.1,
        pick(sslic.2 > slic.2, "higher", "not higher"),
        sslic.2,
        slic.2,
    );
}
