//! Minimal PGM (portable graymap) decoding — bring-your-own-images for
//! the VSoC experiments.
//!
//! The synthetic scenes of [`ImageSensor`](crate::gen::ImageSensor)
//! reproduce the *statistics* of photographs; teams that want to run
//! the Fig. 4 pipeline on their own material can load any grayscale
//! image saved as PGM (both the ASCII `P2` and binary `P5` variants are
//! supported — every image tool can produce them) and feed it in via
//! [`ImageSensor::with_custom_frames`](crate::gen::ImageSensor::with_custom_frames).

use crate::StatsError;

/// A decoded grayscale frame with luminance in `[0, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct GrayFrame {
    width: usize,
    height: usize,
    luma: Vec<f64>,
}

impl GrayFrame {
    /// Builds a frame from row-major luminance samples in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// [`StatsError::InvalidWidth`] when the dimensions are zero or do
    /// not match the sample count (the width field carries the
    /// offending dimension).
    pub fn from_luma(width: usize, height: usize, luma: Vec<f64>) -> Result<Self, StatsError> {
        if width == 0 || height == 0 || luma.len() != width * height {
            return Err(StatsError::InvalidWidth { width });
        }
        Ok(Self {
            width,
            height,
            luma: luma.into_iter().map(|v| v.clamp(0.0, 1.0)).collect(),
        })
    }

    /// Decodes a PGM image (`P2` ASCII or `P5` binary, 8- or 16-bit).
    ///
    /// # Errors
    ///
    /// [`StatsError::PgmParse`] for malformed input, including a header
    /// whose width × height the rest of the input cannot hold — checked
    /// before anything is allocated for the pixels.
    pub fn from_pgm(bytes: &[u8]) -> Result<Self, StatsError> {
        let mut cursor = 0usize;
        let magic = next_token(bytes, &mut cursor).ok_or_else(|| parse_err("missing magic"))?;
        let binary = match magic.as_str() {
            "P2" => false,
            "P5" => true,
            other => return Err(parse_err(&format!("unsupported magic `{other}`"))),
        };
        let width: usize = parse_token(bytes, &mut cursor, "width")?;
        let height: usize = parse_token(bytes, &mut cursor, "height")?;
        let maxval: u32 = parse_token(bytes, &mut cursor, "maxval")?;
        if width == 0 || height == 0 || maxval == 0 || maxval > 65_535 {
            return Err(parse_err("invalid dimensions or maxval"));
        }
        if binary {
            // One whitespace byte separates the header from the raster.
            cursor += 1;
        }
        // A P5 pixel takes `bytes_per` bytes and a P2 pixel at least one,
        // so the header must fit what is left of the input.
        let wide = binary && maxval > 255;
        let bytes_per = if wide { 2 } else { 1 };
        let left = bytes.len().saturating_sub(cursor);
        let pixels = width
            .checked_mul(height)
            .filter(|p| p.checked_mul(bytes_per).is_some_and(|need| need <= left))
            .ok_or_else(|| parse_err("truncated raster"))?;
        let mut luma = Vec::with_capacity(pixels);
        if binary {
            for k in 0..pixels {
                let v = if wide {
                    u32::from(bytes[cursor + 2 * k]) << 8 | u32::from(bytes[cursor + 2 * k + 1])
                } else {
                    u32::from(bytes[cursor + k])
                };
                luma.push(f64::from(v.min(maxval)) / f64::from(maxval));
            }
        } else {
            for _ in 0..pixels {
                let v: u32 = parse_token(bytes, &mut cursor, "pixel")?;
                luma.push(f64::from(v.min(maxval)) / f64::from(maxval));
            }
        }
        Self::from_luma(width, height, luma)
    }

    /// Frame width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Frame height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Row-major luminance samples in `[0, 1]`.
    pub fn luma(&self) -> &[f64] {
        &self.luma
    }

    /// Resamples the frame to `width × height` (nearest neighbour) —
    /// handy to match a sensor resolution.
    ///
    /// # Errors
    ///
    /// [`StatsError::InvalidWidth`] for zero target dimensions.
    pub fn resampled(&self, width: usize, height: usize) -> Result<Self, StatsError> {
        if width == 0 || height == 0 {
            return Err(StatsError::InvalidWidth { width });
        }
        let mut luma = Vec::with_capacity(width * height);
        for y in 0..height {
            let sy = y * self.height / height;
            for x in 0..width {
                let sx = x * self.width / width;
                luma.push(self.luma[sy * self.width + sx]);
            }
        }
        Self::from_luma(width, height, luma)
    }
}

fn parse_err(detail: &str) -> StatsError {
    StatsError::PgmParse {
        detail: detail.to_string(),
    }
}

/// Reads the next whitespace-delimited token, skipping `#` comments.
fn next_token(bytes: &[u8], cursor: &mut usize) -> Option<String> {
    // Skip whitespace and comments.
    loop {
        while *cursor < bytes.len() && bytes[*cursor].is_ascii_whitespace() {
            *cursor += 1;
        }
        if *cursor < bytes.len() && bytes[*cursor] == b'#' {
            while *cursor < bytes.len() && bytes[*cursor] != b'\n' {
                *cursor += 1;
            }
        } else {
            break;
        }
    }
    let start = *cursor;
    while *cursor < bytes.len() && !bytes[*cursor].is_ascii_whitespace() {
        *cursor += 1;
    }
    if start == *cursor {
        None
    } else {
        Some(String::from_utf8_lossy(&bytes[start..*cursor]).into_owned())
    }
}

fn parse_token<T: std::str::FromStr>(
    bytes: &[u8],
    cursor: &mut usize,
    what: &str,
) -> Result<T, StatsError> {
    next_token(bytes, cursor)
        .ok_or_else(|| parse_err(&format!("missing {what}")))?
        .parse()
        .map_err(|_| parse_err(&format!("malformed {what}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decodes_ascii_p2() {
        let pgm = b"P2\n# a comment\n3 2\n255\n0 128 255\n64 32 16\n";
        let f = GrayFrame::from_pgm(pgm).unwrap();
        assert_eq!((f.width(), f.height()), (3, 2));
        assert!((f.luma()[1] - 128.0 / 255.0).abs() < 1e-12);
        assert_eq!(f.luma()[2], 1.0);
    }

    #[test]
    fn decodes_binary_p5() {
        let mut pgm = b"P5 4 1 255\n".to_vec();
        pgm.extend_from_slice(&[0, 85, 170, 255]);
        let f = GrayFrame::from_pgm(&pgm).unwrap();
        assert_eq!((f.width(), f.height()), (4, 1));
        assert!((f.luma()[1] - 85.0 / 255.0).abs() < 1e-12);
    }

    #[test]
    fn decodes_16bit_p5() {
        let mut pgm = b"P5 2 1 65535\n".to_vec();
        pgm.extend_from_slice(&[0x80, 0x00, 0xFF, 0xFF]);
        let f = GrayFrame::from_pgm(&pgm).unwrap();
        assert!((f.luma()[0] - 32768.0 / 65535.0).abs() < 1e-9);
        assert_eq!(f.luma()[1], 1.0);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(GrayFrame::from_pgm(b"P6 1 1 255\n\0\0\0").is_err());
        assert!(GrayFrame::from_pgm(b"P2\n2 2\n255\n1 2 3").is_err()); // short raster
        assert!(GrayFrame::from_pgm(b"P5 2 2 255\nab").is_err()); // truncated
        assert!(GrayFrame::from_pgm(b"P2 x 2 255 1 2").is_err());
        assert!(GrayFrame::from_pgm(b"").is_err());
    }

    #[test]
    fn a_p2_header_larger_than_its_input_is_an_error() {
        // 10^10 pixels promised by a 23-byte file.
        assert!(matches!(
            GrayFrame::from_pgm(b"P2 100000 100000 255\n0"),
            Err(StatsError::PgmParse { .. })
        ));
    }

    #[test]
    fn a_p5_header_whose_byte_count_overflows_is_an_error() {
        // 2^63 pixels of 2 bytes each: the byte count overflows usize.
        assert!(matches!(
            GrayFrame::from_pgm(b"P5 4611686018427387904 2 65535\n"),
            Err(StatsError::PgmParse { .. })
        ));
    }

    #[test]
    fn comments_anywhere_in_header() {
        let pgm = b"P2 # magic\n# width next\n2\n#height\n1\n255\n7 9\n";
        let f = GrayFrame::from_pgm(pgm).unwrap();
        assert_eq!((f.width(), f.height()), (2, 1));
    }

    #[test]
    fn resampling_preserves_range_and_dims() {
        let f = GrayFrame::from_luma(4, 4, (0..16).map(|v| v as f64 / 15.0).collect()).unwrap();
        let r = f.resampled(8, 2).unwrap();
        assert_eq!((r.width(), r.height()), (8, 2));
        assert!(r.luma().iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert!(f.resampled(0, 2).is_err());
    }

    #[test]
    fn from_luma_validates() {
        assert!(GrayFrame::from_luma(2, 2, vec![0.0; 3]).is_err());
        assert!(GrayFrame::from_luma(0, 2, vec![]).is_err());
        // Out-of-range samples are clamped.
        let f = GrayFrame::from_luma(1, 1, vec![7.0]).unwrap();
        assert_eq!(f.luma()[0], 1.0);
    }
}
