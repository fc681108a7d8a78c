//! Hardware artifact export: the ROM/LUT contents a synthesizable-C (HLS)
//! implementation of the accelerator needs.
//!
//! The paper's flow "designed the S-SLIC accelerator in synthesizable C
//! using hardware libraries" (§5); the two tables its color-conversion
//! unit bakes into ROMs are reproduced here in the formats such a flow
//! consumes:
//!
//! * [`gamma_lut_c_header`] / [`gamma_lut_hex`] — the 256-entry sRGB
//!   gamma LUT as a C array or a Verilog `$readmemh` image;
//! * [`pwl_coefficients_c_header`] — the 8-segment piecewise-linear
//!   cube-root knots and slopes in fixed point.
//!
//! All exports are deterministic and round-trippable: tests re-parse the
//! generated text and compare against the source tables.

use sslic_fixed::{Lut256, PwlLut};

use crate::model;

/// The gamma LUT the accelerator's RGB→XYZ stage uses, at `frac_bits`
/// output precision (paper default 12).
pub(crate) fn gamma_lut(frac_bits: u8) -> Lut256 {
    let scale = (1i64 << frac_bits) as f64;
    Lut256::from_fn(|code| {
        let x = code as f64 / 255.0;
        (sslic_color::float::srgb_to_linear(x) * scale).round() as i32
    })
}

/// The PWL cube-root table of the XYZ→LAB stage (geometric knots over the
/// CIELAB nonlinear domain).
pub(crate) fn cbrt_pwl(segments: usize) -> PwlLut {
    PwlLut::from_fn_geometric(
        segments,
        sslic_color::float::LAB_EPSILON,
        1.0,
        |t| t.cbrt(),
    )
}

/// Renders the gamma LUT as a C header: a `static const uint16_t` array
/// suitable for an HLS ROM inference.
pub fn gamma_lut_c_header(frac_bits: u8) -> String {
    let lut = gamma_lut(frac_bits);
    let mut out = String::new();
    out.push_str(&format!(
        "/* sRGB inverse-gamma LUT, Q0.{frac_bits} output codes.\n \
         * Generated by the sslic reproduction; input is the 8-bit channel code. */\n\
         #ifndef SSLIC_GAMMA_LUT_H\n#define SSLIC_GAMMA_LUT_H\n\n\
         #include <stdint.h>\n\n\
         static const uint16_t sslic_gamma_lut[256] = {{\n"
    ));
    for row in lut.as_table().chunks(8) {
        out.push_str("    ");
        for v in row {
            out.push_str(&format!("{v:>5},"));
        }
        out.push('\n');
    }
    out.push_str("};\n\n#endif /* SSLIC_GAMMA_LUT_H */\n");
    out
}

/// Renders the gamma LUT as a Verilog `$readmemh` image (one hex word per
/// line, 256 lines).
pub fn gamma_lut_hex(frac_bits: u8) -> String {
    let lut = gamma_lut(frac_bits);
    let mut out = String::with_capacity(256 * 5);
    for &v in lut.as_table() {
        out.push_str(&format!("{:04x}\n", v as u32 & 0xffff));
    }
    out
}

/// Renders the PWL knots/values as a C header in fixed point: knot
/// positions and endpoint values at `frac_bits` precision. The evaluator
/// interpolates linearly between knots (priority encode + one MAC).
pub fn pwl_coefficients_c_header(segments: usize, frac_bits: u8) -> String {
    let pwl = cbrt_pwl(segments);
    let scale = (1i64 << frac_bits) as f64;
    let mut knots = Vec::with_capacity(segments + 1);
    let mut values = Vec::with_capacity(segments + 1);
    // Re-sample the knot positions geometrically, exactly as cbrt_pwl
    // constructed them.
    let (lo, hi) = (pwl.lo(), pwl.hi());
    let ratio = hi / lo;
    for i in 0..=segments {
        let x = lo * ratio.powf(i as f64 / segments as f64);
        knots.push((x * scale).round() as i64);
        values.push((pwl.eval(x) * scale).round() as i64);
    }
    let mut out = String::new();
    out.push_str(&format!(
        "/* {segments}-segment PWL cube root for CIELAB, Q0.{frac_bits} fixed point.\n \
         * knots[] are input breakpoints, values[] the function at each knot;\n \
         * evaluate by segment search + linear interpolation. */\n\
         #ifndef SSLIC_CBRT_PWL_H\n#define SSLIC_CBRT_PWL_H\n\n\
         #include <stdint.h>\n\n\
         #define SSLIC_CBRT_SEGMENTS {segments}\n\n"
    ));
    out.push_str(&format!(
        "static const uint16_t sslic_cbrt_knots[{}] = {{ ",
        segments + 1
    ));
    for k in &knots {
        out.push_str(&format!("{k}, "));
    }
    out.push_str("};\n");
    out.push_str(&format!(
        "static const uint16_t sslic_cbrt_values[{}] = {{ ",
        segments + 1
    ));
    for v in &values {
        out.push_str(&format!("{v}, "));
    }
    out.push_str("};\n\n#endif /* SSLIC_CBRT_PWL_H */\n");
    out
}

/// A one-page design summary of the chosen configuration, in the style of
/// an HLS report — clock, area, and power budgets from the calibrated
/// model.
pub fn design_summary() -> String {
    use crate::sim::{FrameSimulator, Resolution};
    let report = FrameSimulator::paper_default(Resolution::FULL_HD).simulate();
    format!(
        "S-SLIC accelerator design summary (reproduction)\n\
         ------------------------------------------------\n\
         technology        16nm FinFET @ {:.2} V\n\
         clock             {:.1} GHz\n\
         cluster unit      9-9-6 (fully parallel), 7-cycle latency, 1 px/cycle\n\
         scratchpads       4 x 4 kB synchronous SRAM, separate R/W ports\n\
         area              {:.3} mm2\n\
         average power     {:.1} mW\n\
         1080p latency     {:.1} ms ({:.1} fps)\n\
         energy/frame      {:.2} mJ\n",
        model::VDD,
        model::CLOCK_HZ / 1e9,
        report.area_mm2,
        report.avg_power_mw,
        report.total_ms(),
        report.fps(),
        report.energy_mj_per_frame(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn c_header_contains_all_256_entries() {
        let header = gamma_lut_c_header(12);
        let lut = gamma_lut(12);
        // Parse the numbers back out and compare.
        let parsed: Vec<i32> = header
            .lines()
            .filter(|l| l.trim_start().starts_with(|c: char| c.is_ascii_digit()))
            .flat_map(|l| {
                l.split(',')
                    .filter_map(|t| t.trim().parse::<i32>().ok())
                    .collect::<Vec<_>>()
            })
            .collect();
        assert_eq!(parsed.len(), 256);
        assert_eq!(parsed, lut.as_table());
    }

    #[test]
    fn hex_image_round_trips() {
        let hex = gamma_lut_hex(12);
        let lut = gamma_lut(12);
        let parsed: Vec<i32> = hex
            .lines()
            .map(|l| i32::from_str_radix(l, 16).expect("valid hex"))
            .collect();
        assert_eq!(parsed.len(), 256);
        assert_eq!(parsed, lut.as_table());
    }

    #[test]
    fn gamma_lut_is_monotone_and_spans_full_scale() {
        let lut = gamma_lut(12);
        let t = lut.as_table();
        assert_eq!(t[0], 0);
        assert_eq!(t[255], 1 << 12);
        assert!(t.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn pwl_header_has_segments_plus_one_knots() {
        let header = pwl_coefficients_c_header(8, 12);
        assert!(header.contains("SSLIC_CBRT_SEGMENTS 8"));
        let knots_line = header
            .lines()
            .find(|l| l.contains("sslic_cbrt_knots"))
            .expect("knots array present");
        let count = knots_line.matches(',').count();
        assert_eq!(count, 9, "8 segments need 9 knots");
    }

    #[test]
    fn pwl_fixed_point_values_track_cbrt() {
        let header = pwl_coefficients_c_header(8, 12);
        let values_line = header
            .lines()
            .find(|l| l.contains("sslic_cbrt_values"))
            .expect("values array present");
        let values: Vec<f64> = values_line
            .split(['{', '}'])
            .nth(1)
            .expect("array body")
            .split(',')
            .filter_map(|t| t.trim().parse::<f64>().ok())
            .collect();
        // Last knot is t = 1.0 → cbrt = 1.0 → code 4096 at Q0.12.
        assert_eq!(*values.last().expect("nonempty") as i64, 4096);
        // All values in (0, 4096], monotone.
        assert!(values.windows(2).all(|w| w[0] <= w[1]));
        assert!(values[0] > 0.0);
    }

    #[test]
    fn design_summary_mentions_the_headline_numbers() {
        let s = design_summary();
        assert!(s.contains("1.6 GHz"));
        assert!(s.contains("mm2"));
        assert!(s.contains("fps"));
    }
}
