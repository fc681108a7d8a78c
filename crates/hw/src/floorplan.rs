//! A toy floorplan of the accelerator: block rectangles sized by the area
//! model, packed into a near-square die outline, rendered as SVG.
//!
//! Not a real placement — a visualization of where the 0.066 mm² goes
//! (the kind of figure a DAC camera-ready would include). Areas come from
//! the same calibrated model the rest of `sslic-hw` uses, so the picture
//! stays in sync with the numbers.

use crate::cluster::ClusterUnitConfig;
use crate::model;
use crate::scratchpad::ScratchpadSet;

/// One placed block of the floorplan.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Block name.
    pub name: String,
    /// Area in mm².
    pub area_mm2: f64,
    /// Placement: x, y, width, height in millimetres.
    pub rect: (f64, f64, f64, f64),
}

/// A packed floorplan.
#[derive(Debug, Clone, PartialEq)]
pub struct Floorplan {
    /// Placed blocks.
    pub blocks: Vec<Block>,
    /// Die width in millimetres.
    pub die_w: f64,
    /// Die height in millimetres.
    pub die_h: f64,
}

impl Floorplan {
    /// Builds the floorplan for a cluster configuration and buffer size,
    /// using a simple shelf-packing heuristic (blocks sorted by area,
    /// placed left-to-right in rows of the die width).
    pub fn new(cluster: ClusterUnitConfig, buffer_bytes_per_channel: usize) -> Self {
        let sram = ScratchpadSet::new(buffer_bytes_per_channel);
        let sram_each = sram.area_mm2() / 4.0;
        let mut areas: Vec<(String, f64)> = vec![
            (format!("cluster update ({})", cluster.name()), cluster.area_mm2()),
            ("color conversion".into(), model::area::COLOR_CONV_MM2),
            ("center update".into(), model::area::CENTER_UPDATE_MM2),
            ("FSM".into(), model::area::FSM_MM2),
            ("ch1 SRAM".into(), sram_each),
            ("ch2 SRAM".into(), sram_each),
            ("ch3 SRAM".into(), sram_each),
            ("index SRAM".into(), sram_each),
        ];
        areas.sort_by(|a, b| b.1.total_cmp(&a.1));
        let total: f64 = areas.iter().map(|(_, a)| a).sum();
        // Near-square die with 10% whitespace.
        let die_w = (total * 1.1).sqrt();
        let mut blocks = Vec::new();
        let (mut x, mut y, mut row_h) = (0.0f64, 0.0f64, 0.0f64);
        for (name, area) in areas {
            // Aspect-constrained block: height = sqrt(area / 2) keeps
            // rectangles wider than tall.
            let h = (area / 2.0).sqrt();
            let w = area / h;
            if x + w > die_w + 1e-12 {
                x = 0.0;
                y += row_h;
                row_h = 0.0;
            }
            blocks.push(Block {
                name,
                area_mm2: area,
                rect: (x, y, w, h),
            });
            x += w;
            row_h = row_h.max(h);
        }
        let die_h = (y + row_h).max(die_w / 2.0);
        Floorplan {
            blocks,
            die_w,
            die_h,
        }
    }

    /// Total placed area in mm².
    pub(crate) fn total_area_mm2(&self) -> f64 {
        self.blocks.iter().map(|b| b.area_mm2).sum()
    }

    /// Renders the floorplan as a standalone SVG document (1 mm = `scale`
    /// SVG units).
    pub fn to_svg(&self, scale: f64) -> String {
        let w = self.die_w * scale;
        let h = self.die_h * scale;
        let mut svg = format!(
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{:.0}\" height=\"{:.0}\" \
             viewBox=\"0 0 {w:.2} {h:.2}\">\n\
             <rect x=\"0\" y=\"0\" width=\"{w:.2}\" height=\"{h:.2}\" \
             fill=\"#f4f4f4\" stroke=\"#222\"/>\n",
            w.ceil(),
            h.ceil() + 14.0,
        );
        let palette = [
            "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f", "#edc948", "#b07aa1",
            "#9c755f",
        ];
        for (i, b) in self.blocks.iter().enumerate() {
            let (x, y, bw, bh) = b.rect;
            svg.push_str(&format!(
                "<rect x=\"{:.2}\" y=\"{:.2}\" width=\"{:.2}\" height=\"{:.2}\" \
                 fill=\"{}\" fill-opacity=\"0.8\" stroke=\"#333\" stroke-width=\"0.3\"/>\n\
                 <title>{} — {:.4} mm2</title>\n",
                x * scale,
                y * scale,
                bw * scale,
                bh * scale,
                palette[i % palette.len()],
                b.name,
                b.area_mm2,
            ));
        }
        svg.push_str(&format!(
            "<text x=\"2\" y=\"{:.2}\" font-size=\"10\" font-family=\"monospace\">\
             S-SLIC accelerator — {:.3} mm2 total</text>\n</svg>\n",
            h + 11.0,
            self.total_area_mm2(),
        ));
        svg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_plan() -> Floorplan {
        Floorplan::new(ClusterUnitConfig::c9_9_6(), 4 * 1024)
    }

    #[test]
    fn total_area_matches_the_model() {
        let plan = paper_plan();
        assert!(
            (plan.total_area_mm2() - 0.066).abs() < 0.003,
            "total {} mm²",
            plan.total_area_mm2()
        );
        assert_eq!(plan.blocks.len(), 8);
    }

    #[test]
    fn blocks_fit_inside_the_die() {
        let plan = paper_plan();
        for b in &plan.blocks {
            let (x, y, w, h) = b.rect;
            assert!(x >= 0.0 && y >= 0.0, "{}", b.name);
            assert!(x + w <= plan.die_w + 1e-9, "{} overflows width", b.name);
            assert!(y + h <= plan.die_h + 1e-9, "{} overflows height", b.name);
        }
    }

    #[test]
    fn blocks_do_not_overlap() {
        let plan = paper_plan();
        for (i, a) in plan.blocks.iter().enumerate() {
            for b in plan.blocks.iter().skip(i + 1) {
                let (ax, ay, aw, ah) = a.rect;
                let (bx, by, bw, bh) = b.rect;
                let disjoint = ax + aw <= bx + 1e-9
                    || bx + bw <= ax + 1e-9
                    || ay + ah <= by + 1e-9
                    || by + bh <= ay + 1e-9;
                assert!(disjoint, "{} overlaps {}", a.name, b.name);
            }
        }
    }

    #[test]
    fn block_rects_preserve_their_areas() {
        let plan = paper_plan();
        for b in &plan.blocks {
            let (_, _, w, h) = b.rect;
            assert!(
                (w * h - b.area_mm2).abs() < 1e-9,
                "{}: rect {} vs area {}",
                b.name,
                w * h,
                b.area_mm2
            );
        }
    }

    #[test]
    fn svg_is_well_formed_enough() {
        let svg = paper_plan().to_svg(1000.0);
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert_eq!(svg.matches("<rect").count(), 9); // die + 8 blocks
        assert!(svg.contains("cluster update (9-9-6)"));
        assert!(svg.contains("index SRAM"));
    }

    #[test]
    fn smaller_buffers_shrink_the_die() {
        let big = Floorplan::new(ClusterUnitConfig::c9_9_6(), 4 * 1024);
        let small = Floorplan::new(ClusterUnitConfig::c9_9_6(), 1024);
        assert!(small.total_area_mm2() < big.total_area_mm2());
        assert!((small.total_area_mm2() - 0.053).abs() < 0.003);
    }
}
