//! Property-based contracts of the image substrate.

use proptest::prelude::*;

use sslic_image::filter::box_blur;
use sslic_image::{ppm, Plane, Rgb, RgbImage};

fn arb_image(max_dim: usize) -> impl Strategy<Value = RgbImage> {
    (1..max_dim, 1..max_dim, any::<u64>()).prop_map(|(w, h, seed)| {
        let mut state = seed | 1;
        RgbImage::from_fn(w, h, move |_, _| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            Rgb::new(state as u8, (state >> 8) as u8, (state >> 16) as u8)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn ppm_round_trip_any_image(img in arb_image(24)) {
        let mut buf = Vec::new();
        ppm::write_ppm(&mut buf, &img).expect("in-memory write");
        let back = ppm::read_ppm(buf.as_slice()).expect("in-memory read");
        prop_assert_eq!(back, img);
    }

    #[test]
    fn pgm16_round_trip_any_label_map(
        w in 1usize..24,
        h in 1usize..24,
        seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let labels = Plane::from_fn(w, h, |_, _| {
            state ^= state << 13;
            state ^= state >> 7;
            (state % 60_000) as u32
        });
        let mut buf = Vec::new();
        ppm::write_pgm16(&mut buf, &labels).expect("write");
        let back = ppm::read_pgm16(buf.as_slice()).expect("read");
        prop_assert_eq!(back, labels);
    }

    #[test]
    fn planes_round_trip_any_image(img in arb_image(24)) {
        let (r, g, b) = img.to_planes();
        let back = RgbImage::from_planes(&r, &g, &b).expect("same geometry");
        prop_assert_eq!(back, img);
    }

    #[test]
    fn blurs_preserve_geometry_and_range(img in arb_image(20)) {
        let boxed = box_blur(&img);
        prop_assert_eq!(boxed.width(), img.width());
        prop_assert_eq!(boxed.height(), img.height());
        // Blur output stays within the min/max of the input per channel
        // (convex combination of samples, up to rounding).
        let bounds = |im: &RgbImage| {
            let mut lo = [255u8; 3];
            let mut hi = [0u8; 3];
            for px in im.as_raw().chunks_exact(3) {
                for c in 0..3 {
                    lo[c] = lo[c].min(px[c]);
                    hi[c] = hi[c].max(px[c]);
                }
            }
            (lo, hi)
        };
        let (ilo, ihi) = bounds(&img);
        let (blo, bhi) = bounds(&boxed);
        for c in 0..3 {
            prop_assert!(blo[c] >= ilo[c]);
            prop_assert!(bhi[c] <= ihi[c]);
        }
    }

    #[test]
    fn boundary_overlay_only_recolors_boundary_pixels(img in arb_image(16)) {
        let labels = Plane::from_fn(img.width(), img.height(), |x, y| {
            ((x / 3) + 7 * (y / 3)) as u32
        });
        let marker = Rgb::new(255, 0, 255);
        let out = sslic_image::draw::overlay_boundaries(&img, &labels, marker);
        for y in 0..img.height() {
            for x in 0..img.width() {
                let l = labels[(x, y)];
                let boundary = (x + 1 < img.width() && labels[(x + 1, y)] != l)
                    || (y + 1 < img.height() && labels[(x, y + 1)] != l);
                if !boundary {
                    prop_assert_eq!(out.pixel(x, y), img.pixel(x, y));
                }
            }
        }
    }
}
