//! Adversarial `serve` wire hardening: a deterministic SplitMix64-driven
//! mutation corpus over a valid two-stream wire. Each round damages one
//! record of the clean wire and pumps the result through [`serve`],
//! which must hold three properties:
//!
//! 1. never panic (runs under the workspace's overflow-checked test
//!    profile, so unchecked length arithmetic would abort here);
//! 2. the damaged record ends in an `Err` (stream-level damage: a
//!    truncated record, an unknown opcode, a length over the cap or past
//!    the end of input) or in exactly one reject line (frame-level
//!    damage: a bogus PPM header, or a frame whose geometry differs from
//!    the fleet's);
//! 3. the stream the damage does not belong to is untouched: its
//!    `label_checksum` sequence equals the clean run's — in full when the
//!    pump survives, and up to the damaged record when it aborts.
//!
//! The fleet has one slot per stream, so no frame ever queues and every
//! report line is emitted while its own record is being processed. The
//! corpus is a pure function of the seed below — failures reproduce
//! bit-for-bit.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use sslic_core::{
    serve, write_wire_close, write_wire_frame, write_wire_stats, FleetConfig, Segmenter,
    ServeOptions, SlicParams, StreamId, WIRE_CLOSE, WIRE_FRAME, WIRE_MAX_PAYLOAD, WIRE_STATS,
};
use sslic_image::prng::SplitMix64;
use sslic_image::synthetic::SyntheticImage;
use sslic_obs::RunReport;

const W: usize = 32;
const H: usize = 24;
const STREAMS: usize = 2;
const ROUNDS: u32 = 600;
const REJECT_PREFIX: &str = "{\"schema\":\"sslic-serve-reject-v1\",\"stream\":";

/// One record of the clean wire: its encoded bytes, and for frame
/// records the stream and the frame's RGB bytes.
struct Record {
    bytes: Vec<u8>,
    frame: Option<(u64, Vec<u8>)>,
}

/// A frame record whose PPM payload has the given header fields (magic,
/// width, height, maxval).
fn frame_record(stream: u64, header: [&str; 4], pixels: &[u8]) -> Vec<u8> {
    let [magic, w, h, maxval] = header;
    let mut ppm = format!("{magic}\n{w} {h}\n{maxval}\n").into_bytes();
    ppm.extend_from_slice(pixels);
    let mut bytes = Vec::new();
    write_wire_frame(&mut bytes, StreamId(stream), &ppm).expect("frame record");
    bytes
}

fn frame(stream: u64, seed: u64) -> Record {
    let img = SyntheticImage::builder(W, H).seed(seed).regions(4).build();
    let pixels = img.rgb.as_raw().to_vec();
    let (w, h) = (W.to_string(), H.to_string());
    Record {
        bytes: frame_record(stream, ["P6", &w, &h, "255"], &pixels),
        frame: Some((stream, pixels)),
    }
}

/// The clean wire: interleaved frames of streams 0 and 1, a stats request,
/// a close of stream 0, and one more stream-1 frame.
fn clean_records() -> Vec<Record> {
    let mut close = Vec::new();
    write_wire_close(&mut close, StreamId(0)).expect("close record");
    let mut stats = Vec::new();
    write_wire_stats(&mut stats).expect("stats record");
    let control = |bytes| Record { bytes, frame: None };
    vec![
        frame(0, 10),
        frame(1, 20),
        control(stats),
        frame(0, 11),
        frame(1, 21),
        control(close),
        frame(1, 22),
    ]
}

/// The ways a round damages its chosen record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Damage {
    /// The wire ends strictly inside the record.
    Truncate,
    /// The opcode byte is none of the protocol's opcodes.
    BadOpcode,
    /// A frame's length prefix exceeds [`WIRE_MAX_PAYLOAD`].
    OverCapLength,
    /// A frame's length prefix runs past the end of the input.
    LengthPastEnd,
    /// The PPM magic is not `P6`.
    PpmMagic,
    /// A PPM dimension is degenerate, unparsable, or larger than the
    /// pixel data.
    PpmDims,
    /// The PPM maxval is zero, unparsable, or wider than 8 bits.
    PpmMaxval,
    /// A well-formed PPM of another geometry.
    Geometry,
}

const DAMAGES: [Damage; 8] = [
    Damage::Truncate,
    Damage::BadOpcode,
    Damage::OverCapLength,
    Damage::LengthPastEnd,
    Damage::PpmMagic,
    Damage::PpmDims,
    Damage::PpmMaxval,
    Damage::Geometry,
];

impl Damage {
    /// Whether the damage can land on record `k`.
    fn applies_to(self, records: &[Record], k: usize) -> bool {
        let is_frame = records[k].frame.is_some();
        match self {
            Damage::Truncate => records[k].bytes.len() > 1,
            Damage::BadOpcode => true,
            // The fleet takes its geometry from the first frame on the
            // wire, so only a later frame can mismatch it.
            Damage::Geometry => is_frame && records[..k].iter().any(|r| r.frame.is_some()),
            _ => is_frame,
        }
    }

    /// The reject line's `error` value for frame-level damage; `None` when
    /// the damage must abort the pump with an `Err`.
    fn reject_kind(self) -> Option<&'static str> {
        match self {
            Damage::PpmMagic | Damage::PpmDims | Damage::PpmMaxval => Some("bad-frame"),
            Damage::Geometry => Some("geometry"),
            _ => None,
        }
    }
}

fn pick<'a, T>(rng: &mut SplitMix64, items: &'a [T]) -> &'a T {
    &items[rng.below(items.len() as u64) as usize]
}

/// The wire of one round: the records before `k`, record `k` damaged,
/// and (unless the damage truncates) the records after it.
fn damaged_wire(records: &[Record], k: usize, damage: Damage, rng: &mut SplitMix64) -> Vec<u8> {
    let mut wire: Vec<u8> = records[..k].iter().flat_map(|r| r.bytes.clone()).collect();
    let rest: Vec<u8> = records[k + 1..]
        .iter()
        .flat_map(|r| r.bytes.clone())
        .collect();
    let mut bytes = records[k].bytes.clone();
    let (w, h) = (W.to_string(), H.to_string());
    let mut header = ["P6", &w, &h, "255"];
    match (damage, &records[k].frame) {
        (Damage::Truncate, _) => {
            let keep = 1 + rng.below(bytes.len() as u64 - 1) as usize;
            wire.extend_from_slice(&bytes[..keep]);
            return wire;
        }
        (Damage::BadOpcode, _) => loop {
            let op = rng.next_u64() as u8;
            if ![WIRE_FRAME, WIRE_CLOSE, WIRE_STATS].contains(&op) {
                bytes[0] = op;
                break;
            }
        },
        (Damage::OverCapLength, _) => {
            let cap = WIRE_MAX_PAYLOAD as u64;
            let over = cap + 1 + rng.below(u64::from(u32::MAX) - cap);
            let len = u32::try_from(over).expect("within u32");
            bytes[9..13].copy_from_slice(&len.to_le_bytes());
        }
        (Damage::LengthPastEnd, _) => {
            // Bytes available after the length field, to the end of input.
            let available = bytes.len() - 13 + rest.len();
            let len = available + 1 + rng.below(1000) as usize;
            let len = u32::try_from(len).expect("small length");
            bytes[9..13].copy_from_slice(&len.to_le_bytes());
        }
        (Damage::PpmMagic, Some((stream, pixels))) => {
            header[0] = *pick(rng, &["P7", "Q6", "p6", "P5", "\0\0", "6P"]);
            bytes = frame_record(*stream, header, pixels);
        }
        (Damage::PpmDims, Some((stream, pixels))) => {
            let field = 1 + rng.below(2) as usize;
            header[field] = *pick(rng, &["0", "-1", "x", "99999999999999999999", "4096"]);
            bytes = frame_record(*stream, header, pixels);
        }
        (Damage::PpmMaxval, Some((stream, pixels))) => {
            header[3] = *pick(rng, &["0", "256", "65536", "-1", "max"]);
            bytes = frame_record(*stream, header, pixels);
        }
        (Damage::Geometry, Some((stream, _))) => {
            let (gw, gh) = *pick(rng, &[(W + 8, H), (W, H - 8), (16, 16), (2 * W, 2 * H)]);
            let pixels = vec![rng.next_u64() as u8; gw * gh * 3];
            let (gw, gh) = (gw.to_string(), gh.to_string());
            bytes = frame_record(*stream, ["P6", &gw, &gh, "255"], &pixels);
        }
        (_, None) => unreachable!("{damage:?} only applies to frame records"),
    }
    wire.extend_from_slice(&bytes);
    wire.extend_from_slice(&rest);
    wire
}

/// What one pump emitted: per-stream label checksums in report order,
/// and every reject line as `(stream, error)`.
#[derive(Debug, Default)]
struct Emitted {
    checksums: BTreeMap<u64, Vec<u64>>,
    rejects: Vec<(u64, String)>,
}

fn pump(seg: &Segmenter, wire: &[u8]) -> (Result<(), String>, Emitted) {
    let cfg = FleetConfig::builder().with_slots(STREAMS).build();
    let mut out = Vec::new();
    let result = serve(seg, cfg, &mut &wire[..], &mut out, &ServeOptions::new()).map(|_| ());
    let mut emitted = Emitted::default();
    for line in String::from_utf8(out).expect("serve emits utf8").lines() {
        if line.starts_with("{\"schema\":\"sslic-run-report-v2\"") {
            let fleet = RunReport::from_json(line)
                .expect("report line parses")
                .fleet
                .expect("fleet section");
            let sums = emitted.checksums.entry(fleet.stream).or_default();
            sums.push(fleet.label_checksum);
        } else if let Some(rest) = line.strip_prefix(REJECT_PREFIX) {
            let (stream, rest) = rest.split_once(",\"error\":\"").expect("reject fields");
            let error = rest.strip_suffix("\"}").expect("reject error field");
            let stream = stream.parse().expect("stream id");
            emitted.rejects.push((stream, error.to_string()));
        }
    }
    (result, emitted)
}

#[test]
fn damaged_wire_records_fail_cleanly_and_spare_the_other_stream() {
    let seg = Segmenter::sslic_ppa(SlicParams::builder(12).iterations(2).build(), 2);
    let records = clean_records();
    let clean_wire: Vec<u8> = records.iter().flat_map(|r| r.bytes.clone()).collect();
    let (result, clean) = pump(&seg, &clean_wire);
    result.expect("the clean wire serves to EOF");
    assert!(clean.rejects.is_empty());
    assert_eq!(clean.checksums.len(), STREAMS);

    let mut rng = SplitMix64::seed_from_u64(0x5E27_F0220);
    let mut seen = [0u32; DAMAGES.len()];
    for round in 0..ROUNDS {
        let d = rng.below(DAMAGES.len() as u64) as usize;
        let damage = DAMAGES[d];
        let eligible: Vec<usize> = (0..records.len())
            .filter(|&k| damage.applies_to(&records, k))
            .collect();
        let k = *pick(&mut rng, &eligible);
        let wire = damaged_wire(&records, k, damage, &mut rng);
        let ctx = format!("round {round}: {damage:?} on record {k}");
        let (result, got) = catch_unwind(AssertUnwindSafe(|| pump(&seg, &wire)))
            .unwrap_or_else(|_| panic!("{ctx}: serve panicked"));
        seen[d] += 1;

        let damaged_stream = records[k].frame.as_ref().map(|(s, _)| *s);
        match damage.reject_kind() {
            Some(kind) => {
                assert!(
                    result.is_ok(),
                    "{ctx}: frame damage must not abort: {result:?}"
                );
                let stream = damaged_stream.expect("frame damage");
                assert_eq!(got.rejects, vec![(stream, kind.to_string())], "{ctx}");
            }
            None => {
                assert!(result.is_err(), "{ctx}: stream damage must end in Err");
                assert!(got.rejects.is_empty(), "{ctx}: {:?}", got.rejects);
            }
        }

        for (stream, clean_seq) in &clean.checksums {
            if Some(*stream) == damaged_stream {
                continue;
            }
            let got_seq = got.checksums.get(stream).map_or(&[][..], Vec::as_slice);
            let expected = if result.is_ok() {
                clean_seq.as_slice()
            } else {
                // The pump aborted at record k: exactly the frames of
                // earlier records were answered.
                let answered = records[..k]
                    .iter()
                    .filter(|r| r.frame.as_ref().map(|(s, _)| s) == Some(stream))
                    .count();
                &clean_seq[..answered]
            };
            assert_eq!(got_seq, expected, "{ctx}: stream {stream} checksums");
        }
    }
    assert!(
        seen.iter().all(|&n| n >= 20),
        "every damage kind is exercised: {seen:?}"
    );
}
