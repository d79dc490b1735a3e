//! Media data model for the motivating transcoding application.
//!
//! §3.1 of the paper: application objects "would be media objects and their
//! characteristics are also stored as meta-data (hash value, bitrate,
//! resolution, codec)". Formats double as the *application states* of the
//! resource graph: transcoding a stream moves it from one format vertex to
//! another (Fig. 1).

use arm_util::ObjectId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Video codec of a media stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[allow(
    missing_docs,
    reason = "codec names (Mpeg2, Mpeg4, ...) are self-describing; per-variant docs would be noise"
)]
pub enum Codec {
    Mpeg2,
    Mpeg4,
    H263,
    H264,
    Mjpeg,
}

impl Codec {
    /// All codecs, for enumeration in workload generators.
    pub const ALL: [Codec; 5] = [
        Codec::Mpeg2,
        Codec::Mpeg4,
        Codec::H263,
        Codec::H264,
        Codec::Mjpeg,
    ];

    /// Relative decode+encode complexity of the codec, used in transcoder
    /// work-cost models (H.264 is the most expensive to encode, MJPEG the
    /// cheapest).
    pub fn complexity(self) -> f64 {
        match self {
            Codec::Mjpeg => 0.5,
            Codec::H263 => 0.8,
            Codec::Mpeg2 => 1.0,
            Codec::Mpeg4 => 1.3,
            Codec::H264 => 2.0,
        }
    }
}

impl fmt::Display for Codec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Codec::Mpeg2 => "MPEG-2",
            Codec::Mpeg4 => "MPEG-4",
            Codec::H263 => "H.263",
            Codec::H264 => "H.264",
            Codec::Mjpeg => "MJPEG",
        };
        f.write_str(s)
    }
}

/// Spatial resolution of a media stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Resolution {
    /// Width in pixels.
    pub width: u16,
    /// Height in pixels.
    pub height: u16,
}

impl Resolution {
    /// 800×600 — the paper's example source resolution.
    pub const SVGA: Resolution = Resolution::new(800, 600);
    /// 640×480 — the paper's example target resolution.
    pub const VGA: Resolution = Resolution::new(640, 480);
    /// 320×240, for constrained mobile receivers.
    pub const QVGA: Resolution = Resolution::new(320, 240);
    /// 176×144, the classic H.263 videophone resolution.
    pub const QCIF: Resolution = Resolution::new(176, 144);

    /// Creates a resolution.
    pub const fn new(width: u16, height: u16) -> Self {
        Self { width, height }
    }

    /// Pixel count, the dominant factor in transcoding work.
    pub const fn pixels(self) -> u32 {
        (self.width as u32).saturating_mul(self.height as u32)
    }
}

impl fmt::Display for Resolution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.width, self.height)
    }
}

/// A concrete media format: the triple the paper's transcoding example
/// manipulates (codec, resolution, bitrate).
///
/// Formats are the application states of the resource graph: the Fig. 1
/// example asks for a path from `800x600 MPEG-2 @ 512 kbps` to
/// `640x480 MPEG-4 @ 64 kbps`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MediaFormat {
    /// Video codec.
    pub codec: Codec,
    /// Spatial resolution.
    pub resolution: Resolution,
    /// Stream bitrate in kilobits per second.
    pub bitrate_kbps: u32,
}

impl MediaFormat {
    /// Creates a format.
    pub const fn new(codec: Codec, resolution: Resolution, bitrate_kbps: u32) -> Self {
        Self {
            codec,
            resolution,
            bitrate_kbps,
        }
    }

    /// The paper's example source format: 800×600 MPEG-2 at 512 kbps.
    pub const fn paper_source() -> Self {
        Self::new(Codec::Mpeg2, Resolution::SVGA, 512)
    }

    /// The paper's example target format: 640×480 MPEG-4 at 64 kbps.
    pub const fn paper_target() -> Self {
        Self::new(Codec::Mpeg4, Resolution::VGA, 64)
    }

    /// Bandwidth this stream consumes on a link, in kbps.
    pub const fn bandwidth_kbps(self) -> u32 {
        self.bitrate_kbps
    }

    /// Relative work (abstract units per streamed second) to transcode
    /// *into* this format from `from`. Scales with the pixel throughput of
    /// both sides and the codec complexities; zero iff `from == self`.
    pub fn transcode_work_from(self, from: MediaFormat) -> f64 {
        if from == self {
            return 0.0;
        }
        // Decode cost of the input + encode cost of the output, in units of
        // "megapixels × codec complexity". Encoding dominates decoding in
        // real transcoders; weight it double.
        let decode = from.resolution.pixels() as f64 / 1e6 * from.codec.complexity();
        let encode = self.resolution.pixels() as f64 / 1e6 * self.codec.complexity();
        decode + 2.0 * encode
    }
}

impl fmt::Display for MediaFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} @ {}kbps",
            self.resolution, self.codec, self.bitrate_kbps
        )
    }
}

/// A stored media object: the unit peers share and tasks request (§3.1,
/// item 5: meta-data is "hash value, bitrate, resolution, codec").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MediaObject {
    /// Unique object identifier.
    pub id: ObjectId,
    /// Human-readable name the user queries by (`id_t` in §4.3).
    pub name: String,
    /// Content hash (stands in for the real digest).
    pub hash: u64,
    /// The format the object is stored in.
    pub format: MediaFormat,
    /// Play-out duration of the media, in seconds.
    pub duration_secs: f64,
}

impl MediaObject {
    /// Creates an object; the hash is derived deterministically from the
    /// name so that replicas of the same content agree.
    pub fn new(
        id: ObjectId,
        name: impl Into<String>,
        format: MediaFormat,
        duration_secs: f64,
    ) -> Self {
        let name = name.into();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in name.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        Self {
            id,
            name,
            hash: h,
            format,
            duration_secs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_formats() {
        let src = MediaFormat::paper_source();
        assert_eq!(src.codec, Codec::Mpeg2);
        assert_eq!(src.resolution, Resolution::new(800, 600));
        assert_eq!(src.bitrate_kbps, 512);
        assert_eq!(src.to_string(), "800x600 MPEG-2 @ 512kbps");

        let dst = MediaFormat::paper_target();
        assert_eq!(dst.codec, Codec::Mpeg4);
        assert_eq!(dst.resolution, Resolution::VGA);
        assert_eq!(dst.bitrate_kbps, 64);
        assert_eq!(dst.to_string(), "640x480 MPEG-4 @ 64kbps");
    }

    #[test]
    fn resolution_pixels() {
        assert_eq!(Resolution::SVGA.pixels(), 480_000);
        assert_eq!(Resolution::VGA.pixels(), 307_200);
        assert_eq!(Resolution::QCIF.to_string(), "176x144");
    }

    #[test]
    fn identity_transcode_is_free() {
        let f = MediaFormat::paper_source();
        assert_eq!(f.transcode_work_from(f), 0.0);
    }

    #[test]
    fn transcode_work_scales_with_pixels_and_codec() {
        let big = MediaFormat::new(Codec::H264, Resolution::SVGA, 512);
        let small = MediaFormat::new(Codec::Mjpeg, Resolution::QCIF, 64);
        let down = small.transcode_work_from(big);
        let up = big.transcode_work_from(small);
        assert!(down > 0.0 && up > 0.0);
        // Encoding into the bigger/costlier format dominates.
        assert!(up > down);
    }

    #[test]
    fn codec_complexities_ordered() {
        assert!(Codec::H264.complexity() > Codec::Mpeg4.complexity());
        assert!(Codec::Mpeg4.complexity() > Codec::Mpeg2.complexity());
        assert!(Codec::Mjpeg.complexity() < Codec::H263.complexity());
        assert_eq!(Codec::ALL.len(), 5);
    }

    #[test]
    fn media_object_hash_is_content_addressed() {
        let f = MediaFormat::paper_source();
        let a = MediaObject::new(ObjectId::new(1), "trailer", f, 120.0);
        let b = MediaObject::new(ObjectId::new(2), "trailer", f, 120.0);
        let c = MediaObject::new(ObjectId::new(3), "other", f, 120.0);
        assert_eq!(a.hash, b.hash);
        assert_ne!(a.hash, c.hash);
    }
}
