//! Minimal Netpbm I/O: binary PPM (`P6`) and PGM (`P5`).
//!
//! Enough format support to segment real photographs without pulling in an
//! image-decoding dependency. Only 8-bit (`maxval <= 255`) images are
//! supported, which matches the accelerator's input format.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use sslic_image::{ppm, Rgb, RgbImage};
//!
//! let img = RgbImage::filled(4, 2, Rgb::new(10, 20, 30));
//! let mut buf = Vec::new();
//! ppm::write_ppm(&mut buf, &img)?;
//! let back = ppm::read_ppm(&mut buf.as_slice())?;
//! assert_eq!(back, img);
//! # Ok(())
//! # }
//! ```

use std::io::{Read, Write};

use crate::{ImageError, Plane, RgbImage};

/// Upper bound on `width × height` accepted by the readers (64 Mpixel —
/// beyond any sensor this accelerator targets). Headers past the cap, and
/// headers whose dimensions overflow `usize`, are rejected *before* any
/// pixel buffer is sized, so an adversarial 4-line file cannot request a
/// multi-gigabyte allocation.
pub const MAX_PIXELS: usize = 1 << 26;

/// Validates header dimensions and returns `w * h * samples`, the byte
/// (or sample) count the reader may then allocate.
fn checked_pixels(w: usize, h: usize, samples: usize) -> Result<usize, ImageError> {
    if w == 0 || h == 0 {
        return Err(ImageError::Format(format!("degenerate dimensions {w}x{h}")));
    }
    let pixels = w
        .checked_mul(h)
        .filter(|&p| p <= MAX_PIXELS)
        .ok_or_else(|| {
            ImageError::Format(format!("image {w}x{h} exceeds the {MAX_PIXELS}-pixel cap"))
        })?;
    pixels
        .checked_mul(samples)
        .ok_or_else(|| ImageError::Format(format!("image {w}x{h} overflows the sample count")))
}

/// Writes `img` as a binary PPM (`P6`) stream.
///
/// A `&mut W` may be passed wherever a writer is expected.
///
/// # Errors
///
/// Returns [`ImageError::Io`] on write failure.
pub fn write_ppm<W: Write>(mut w: W, img: &RgbImage) -> Result<(), ImageError> {
    write!(w, "P6\n{} {}\n255\n", img.width(), img.height())?;
    w.write_all(img.as_raw())?;
    Ok(())
}

/// Reads a PPM stream — binary (`P6`) or ASCII (`P3`).
///
/// A `&mut R` may be passed wherever a reader is expected.
///
/// # Errors
///
/// Returns [`ImageError::Format`] for non-PPM input or `maxval > 255`, and
/// [`ImageError::Io`] on read failure.
pub fn read_ppm<R: Read>(mut r: R) -> Result<RgbImage, ImageError> {
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)?;
    let (magic, w, h, maxval, offset) = parse_header(&bytes)?;
    if maxval > 255 {
        return Err(ImageError::Format(format!(
            "only 8-bit images supported, maxval={maxval}"
        )));
    }
    let need = checked_pixels(w, h, 3)?;
    match magic {
        "P6" => {
            if bytes.len() < offset + need {
                return Err(ImageError::Format(format!(
                    "truncated pixel data: need {need} bytes"
                )));
            }
            RgbImage::from_raw(w, h, bytes[offset..offset + need].to_vec())
        }
        "P3" => {
            let text = std::str::from_utf8(&bytes[offset..])
                .map_err(|_| ImageError::Format("non-ascii P3 pixel data".into()))?;
            let data: Vec<u8> = text
                .split_whitespace()
                .take(need)
                .map(|t| {
                    t.parse::<u16>()
                        .ok()
                        .filter(|&v| v <= 255)
                        .map(|v| v as u8)
                        .ok_or_else(|| {
                            ImageError::Format(format!("malformed P3 sample '{t}'"))
                        })
                })
                .collect::<Result<_, _>>()?;
            if data.len() < need {
                return Err(ImageError::Format(format!(
                    "truncated P3 data: {} of {need} samples",
                    data.len(),
                )));
            }
            RgbImage::from_raw(w, h, data)
        }
        other => Err(ImageError::Format(format!(
            "expected P6 or P3 magic, found {other}"
        ))),
    }
}

/// Reads a binary PGM (`P5`) stream into a `Plane<u8>`.
///
/// # Errors
///
/// Returns [`ImageError::Format`] for non-`P5` input or `maxval > 255`, and
/// [`ImageError::Io`] on read failure.
pub fn read_pgm<R: Read>(mut r: R) -> Result<Plane<u8>, ImageError> {
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)?;
    let (magic, w, h, maxval, offset) = parse_header(&bytes)?;
    if magic != "P5" {
        return Err(ImageError::Format(format!(
            "expected P5 magic, found {magic}"
        )));
    }
    if maxval > 255 {
        return Err(ImageError::Format(format!(
            "only 8-bit images supported, maxval={maxval}"
        )));
    }
    let need = checked_pixels(w, h, 1)?;
    if bytes.len() < offset + need {
        return Err(ImageError::Format(format!(
            "truncated pixel data: need {need} bytes"
        )));
    }
    Plane::from_vec(w, h, bytes[offset..offset + need].to_vec())
}

/// Writes a label map as a 16-bit binary PGM (`P5`, maxval 65535,
/// big-endian samples per the Netpbm spec) — the interchange format for
/// superpixel index maps with up to 65 535 labels.
///
/// # Errors
///
/// Returns [`ImageError::Format`] if any label exceeds 65 535 and
/// [`ImageError::Io`] on write failure.
pub fn write_pgm16<W: Write>(mut w: W, labels: &Plane<u32>) -> Result<(), ImageError> {
    if let Some(&big) = labels.iter().find(|&&l| l > u16::MAX as u32) {
        return Err(ImageError::Format(format!(
            "label {big} does not fit in 16-bit PGM"
        )));
    }
    write!(w, "P5\n{} {}\n65535\n", labels.width(), labels.height())?;
    for &l in labels.iter() {
        w.write_all(&(l as u16).to_be_bytes())?;
    }
    Ok(())
}

/// Reads a 16-bit binary PGM (`P5`, maxval > 255) into a label map.
///
/// # Errors
///
/// Returns [`ImageError::Format`] for non-`P5` input, 8-bit maxval
/// (use [`read_pgm`]), or truncated data.
pub fn read_pgm16<R: Read>(mut r: R) -> Result<Plane<u32>, ImageError> {
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)?;
    let (magic, w, h, maxval, offset) = parse_header(&bytes)?;
    if magic != "P5" {
        return Err(ImageError::Format(format!(
            "expected P5 magic, found {magic}"
        )));
    }
    if maxval <= 255 {
        return Err(ImageError::Format(
            "8-bit PGM: use read_pgm instead".into(),
        ));
    }
    let need = checked_pixels(w, h, 2)?;
    if bytes.len() < offset + need {
        return Err(ImageError::Format(format!(
            "truncated pixel data: need {need} bytes"
        )));
    }
    let data: Vec<u32> = bytes[offset..offset + need]
        .chunks_exact(2)
        .map(|c| u16::from_be_bytes([c[0], c[1]]) as u32)
        .collect();
    Plane::from_vec(w, h, data)
}

/// Parses a Netpbm header, returning `(magic, width, height, maxval,
/// pixel-data offset)`. Handles `#` comments and arbitrary whitespace, per
/// the Netpbm specification.
fn parse_header(bytes: &[u8]) -> Result<(&str, usize, usize, usize, usize), ImageError> {
    let mut pos = 0usize;

    fn skip_ws_and_comments(bytes: &[u8], mut pos: usize) -> usize {
        loop {
            while pos < bytes.len() && bytes[pos].is_ascii_whitespace() {
                pos += 1;
            }
            if pos < bytes.len() && bytes[pos] == b'#' {
                while pos < bytes.len() && bytes[pos] != b'\n' {
                    pos += 1;
                }
            } else {
                return pos;
            }
        }
    }

    fn token(bytes: &[u8], pos: usize) -> Result<(&[u8], usize), ImageError> {
        let start = skip_ws_and_comments(bytes, pos);
        let mut end = start;
        while end < bytes.len() && !bytes[end].is_ascii_whitespace() {
            end += 1;
        }
        if start == end {
            return Err(ImageError::Format("unexpected end of header".into()));
        }
        Ok((&bytes[start..end], end))
    }

    let (magic_tok, next) = token(bytes, pos)?;
    pos = next;
    let magic = std::str::from_utf8(magic_tok)
        .map_err(|_| ImageError::Format("non-ascii magic".into()))?;

    let mut nums = [0usize; 3];
    for num in &mut nums {
        let (tok, next) = token(bytes, pos)?;
        pos = next;
        *num = std::str::from_utf8(tok)
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| ImageError::Format("malformed numeric header field".into()))?;
    }
    // The Netpbm spec bounds maxval to 1..=65535. A maxval of 0 would
    // otherwise slip through every reader's `<= 255` check and silently
    // mis-scale the samples; anything above 16 bits has no defined sample
    // width at all.
    let maxval = nums[2];
    if maxval == 0 || maxval > 65_535 {
        return Err(ImageError::Format(format!(
            "maxval {maxval} outside the Netpbm range 1..=65535"
        )));
    }
    // Exactly one whitespace byte separates the header from pixel data.
    if pos < bytes.len() && bytes[pos].is_ascii_whitespace() {
        pos += 1;
    }
    Ok((magic, nums[0], nums[1], maxval, pos))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rgb;

    /// Writes a single-channel plane as a binary PGM (`P5`) stream: the
    /// input the PGM reader tests parse.
    fn write_pgm<W: Write>(mut w: W, plane: &Plane<u8>) -> Result<(), ImageError> {
        write!(w, "P5\n{} {}\n255\n", plane.width(), plane.height())?;
        w.write_all(plane.as_slice())?;
        Ok(())
    }

    #[test]
    fn ppm_round_trip() {
        let img = RgbImage::from_fn(7, 5, |x, y| Rgb::new(x as u8, y as u8, 42));
        let mut buf = Vec::new();
        write_ppm(&mut buf, &img).unwrap();
        let back = read_ppm(buf.as_slice()).unwrap();
        assert_eq!(back, img);
    }

    #[test]
    fn pgm_round_trip() {
        let p = Plane::from_fn(6, 3, |x, y| (x * y) as u8);
        let mut buf = Vec::new();
        write_pgm(&mut buf, &p).unwrap();
        let back = read_pgm(buf.as_slice()).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn header_comments_are_skipped() {
        let mut buf = b"P6\n# generated by a tool\n# second comment\n2 1\n255\n".to_vec();
        buf.extend_from_slice(&[1, 2, 3, 4, 5, 6]);
        let img = read_ppm(buf.as_slice()).unwrap();
        assert_eq!(img.pixel(0, 0), Rgb::new(1, 2, 3));
        assert_eq!(img.pixel(1, 0), Rgb::new(4, 5, 6));
    }

    #[test]
    fn ascii_p3_is_parsed() {
        let buf = b"P3\n2 1\n255\n1 2 3 4 5 6\n".to_vec();
        let img = read_ppm(buf.as_slice()).unwrap();
        assert_eq!(img.pixel(0, 0), Rgb::new(1, 2, 3));
        assert_eq!(img.pixel(1, 0), Rgb::new(4, 5, 6));
    }

    #[test]
    fn truncated_p3_is_rejected() {
        let buf = b"P3\n2 2\n255\n1 2 3 4 5\n".to_vec();
        assert!(matches!(
            read_ppm(buf.as_slice()),
            Err(ImageError::Format(_))
        ));
    }

    #[test]
    fn p3_sample_above_maxval_is_rejected() {
        let buf = b"P3\n1 1\n255\n1 2 999\n".to_vec();
        assert!(matches!(
            read_ppm(buf.as_slice()),
            Err(ImageError::Format(_))
        ));
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let buf = b"P4\n2 1\n255\n1 2 3 4 5 6\n".to_vec();
        assert!(matches!(
            read_ppm(buf.as_slice()),
            Err(ImageError::Format(_))
        ));
    }

    #[test]
    fn sixteen_bit_maxval_is_rejected() {
        let mut buf = b"P6\n1 1\n65535\n".to_vec();
        buf.extend_from_slice(&[0; 6]);
        assert!(matches!(
            read_ppm(buf.as_slice()),
            Err(ImageError::Format(_))
        ));
    }

    #[test]
    fn truncated_data_is_rejected() {
        let mut buf = b"P6\n4 4\n255\n".to_vec();
        buf.extend_from_slice(&[0; 10]);
        assert!(matches!(
            read_ppm(buf.as_slice()),
            Err(ImageError::Format(_))
        ));
    }

    #[test]
    fn empty_input_is_rejected() {
        assert!(read_ppm(&[][..]).is_err());
    }

    #[test]
    fn overflowing_dimensions_are_rejected_before_allocation() {
        // w * h alone overflows usize; a naive `w * h * 3` would wrap (or
        // panic under overflow checks) before any truncation test.
        let huge = format!("P6\n{} {}\n255\n", usize::MAX / 2, 4);
        assert!(matches!(
            read_ppm(huge.as_bytes()),
            Err(ImageError::Format(_))
        ));
        let huge16 = format!("P5\n{} {}\n65535\n", usize::MAX / 2, 4);
        assert!(matches!(
            read_pgm16(huge16.as_bytes()),
            Err(ImageError::Format(_))
        ));
    }

    #[test]
    fn images_past_the_pixel_cap_are_rejected() {
        // 16384 × 8192 = 2^27 pixels: fits usize comfortably but exceeds
        // MAX_PIXELS, so the reader refuses to size a buffer for it.
        let big = b"P5\n16384 8192\n255\n".to_vec();
        assert!(matches!(
            read_pgm(big.as_slice()),
            Err(ImageError::Format(_))
        ));
        let big_p3 = b"P3\n16384 8192\n255\n0 0 0\n".to_vec();
        assert!(matches!(
            read_ppm(big_p3.as_slice()),
            Err(ImageError::Format(_))
        ));
    }

    #[test]
    fn zero_dimensions_are_rejected() {
        let buf = b"P6\n0 5\n255\n".to_vec();
        assert!(matches!(
            read_ppm(buf.as_slice()),
            Err(ImageError::Format(_))
        ));
    }

    #[test]
    fn pgm16_round_trips_label_maps() {
        let labels = Plane::from_fn(9, 5, |x, y| (x * 1000 + y * 7) as u32);
        let mut buf = Vec::new();
        write_pgm16(&mut buf, &labels).unwrap();
        let back = read_pgm16(buf.as_slice()).unwrap();
        assert_eq!(back, labels);
    }

    #[test]
    fn pgm16_rejects_oversized_labels() {
        let labels = Plane::filled(2, 2, 70_000u32);
        let mut buf = Vec::new();
        assert!(matches!(
            write_pgm16(&mut buf, &labels),
            Err(ImageError::Format(_))
        ));
    }

    #[test]
    fn pgm16_reader_rejects_8bit_input() {
        let p = Plane::filled(2, 2, 9u8);
        let mut buf = Vec::new();
        write_pgm(&mut buf, &p).unwrap();
        assert!(matches!(
            read_pgm16(buf.as_slice()),
            Err(ImageError::Format(_))
        ));
    }

    #[test]
    fn pgm16_samples_are_big_endian() {
        let labels = Plane::filled(1, 1, 0x0102u32);
        let mut buf = Vec::new();
        write_pgm16(&mut buf, &labels).unwrap();
        let n = buf.len();
        assert_eq!(&buf[n - 2..], &[0x01, 0x02]);
    }
}
