//! The `gdiff-serve/v1` wire framing.
//!
//! Every message in either direction is one frame:
//!
//! ```text
//! ┌────────────────────────────────────────────────────────────┐
//! │ frame header (16 B): magic "gSv1" · type u8 · flags u8 ·   │
//! │                      reserved u16 · payload_len u32 ·      │
//! │                      payload crc32 u32                     │
//! ├────────────────────────────────────────────────────────────┤
//! │ payload (payload_len bytes)                                │
//! └────────────────────────────────────────────────────────────┘
//! ```
//!
//! Integers are little-endian; `flags` and `reserved` must be zero in v1.
//! Control payloads ([`HELLO`], [`WELCOME`], [`ACK`], …) are compact JSON
//! objects; the [`CHUNK`] payload is a `u64` little-endian sequence number
//! followed by one verbatim tracefile wire chunk (which carries its own
//! CRC on top of the frame CRC); the [`METRICS`] payload is Prometheus
//! exposition text.
//!
//! A reader hitting clean EOF *between* frames sees [`FrameError::Closed`]
//! — the one non-error way a conversation ends. EOF inside a frame, a bad
//! magic, an oversized length, or a CRC mismatch are malformed-frame
//! errors: the server answers with an [`ERROR`] frame and kills that
//! session, never the daemon.

use std::io::{self, Read, Write};

use obs::crc32::crc32;

/// Frame magic: "gSv1".
pub const FRAME_MAGIC: [u8; 4] = *b"gSv1";
/// Frame header length in bytes.
pub const FRAME_HEADER_LEN: usize = 16;
/// Upper bound on one frame's payload (a default-cap wire chunk is a few
/// hundred KiB; 16 MiB leaves generous headroom without letting a bad
/// length field allocate the moon).
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Client → server: open a session (JSON session parameters).
pub const HELLO: u8 = 0x01;
/// Client → server: one sequenced tracefile wire chunk.
pub const CHUNK: u8 = 0x02;
/// Client → server: ask for a live status frame.
pub const STATUS_REQ: u8 = 0x03;
/// Client → server: end of stream; a final [`REPORT`] follows.
pub const BYE: u8 = 0x04;
/// Client → server: drain every session and stop the daemon.
pub const SHUTDOWN: u8 = 0x05;
/// Client → server: open a held session's processing gate.
pub const RESUME: u8 = 0x06;
/// Client → server: ask for the Prometheus exposition.
pub const METRICS_REQ: u8 = 0x07;
/// Client → server: ask for per-session health (JSON). Negotiated: only
/// clients that saw `"health"` in the WELCOME `features` array send it.
pub const HEALTH_REQ: u8 = 0x08;

/// Server → client: session accepted (JSON: negotiated limits).
pub const WELCOME: u8 = 0x81;
/// Server → client: cumulative progress after a processed chunk.
pub const ACK: u8 = 0x82;
/// Server → client: live status (JSON, `gdiff-serve-status/v1`).
pub const STATUS: u8 = 0x83;
/// Server → client: final session report (JSON, `gdiff-serve-report/v1`).
pub const REPORT: u8 = 0x84;
/// Server → client: backpressure — chunk refused, resend from `accepted`.
pub const BUSY: u8 = 0x85;
/// Server → client: fatal session error (JSON: code, detail).
pub const ERROR: u8 = 0x86;
/// Server → client: Prometheus exposition text.
pub const METRICS: u8 = 0x87;
/// Server → client: health report (JSON, `gdiff-serve-health/v1`).
pub const HEALTH: u8 = 0x88;

/// A human-readable name for a frame type (diagnostics).
pub fn type_name(t: u8) -> &'static str {
    match t {
        HELLO => "hello",
        CHUNK => "chunk",
        STATUS_REQ => "status-req",
        BYE => "bye",
        SHUTDOWN => "shutdown",
        RESUME => "resume",
        METRICS_REQ => "metrics-req",
        HEALTH_REQ => "health-req",
        WELCOME => "welcome",
        ACK => "ack",
        STATUS => "status",
        REPORT => "report",
        BUSY => "busy",
        ERROR => "error",
        METRICS => "metrics",
        HEALTH => "health",
        _ => "unknown",
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The frame type byte (one of the constants above).
    pub ftype: u8,
    /// The raw payload.
    pub payload: Vec<u8>,
}

/// Why reading or validating a frame failed.
#[derive(Debug)]
pub enum FrameError {
    /// Clean EOF at a frame boundary — the peer hung up politely.
    Closed,
    /// EOF inside a frame header or payload.
    Truncated {
        /// What was being read when the stream ended.
        what: &'static str,
    },
    /// The four magic bytes are wrong (desynchronized or not our protocol).
    BadMagic([u8; 4]),
    /// Non-zero flags/reserved bits this version does not define.
    BadReserved,
    /// The declared payload length exceeds [`MAX_FRAME_LEN`].
    TooLarge(u32),
    /// The payload CRC does not match.
    Crc {
        /// CRC stored in the frame header.
        stored: u32,
        /// CRC computed over the payload.
        computed: u32,
    },
    /// The payload should have been JSON / UTF-8 and was not.
    BadPayload(String),
    /// Underlying I/O failure.
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Truncated { what } => write!(f, "stream ended inside a frame {what}"),
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            FrameError::BadReserved => write!(f, "non-zero flags/reserved bits"),
            FrameError::TooLarge(n) => {
                write!(f, "frame payload {n} bytes exceeds the {MAX_FRAME_LEN} cap")
            }
            FrameError::Crc { stored, computed } => write!(
                f,
                "frame crc mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            FrameError::BadPayload(m) => write!(f, "bad frame payload: {m}"),
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Encodes one frame into a byte vector.
pub fn encode_frame(ftype: u8, payload: &[u8]) -> Vec<u8> {
    assert!(
        payload.len() as u64 <= MAX_FRAME_LEN as u64,
        "frame too big"
    );
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&FRAME_MAGIC);
    out.push(ftype);
    out.push(0); // flags
    out.extend_from_slice(&0u16.to_le_bytes()); // reserved
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Writes one frame (header + payload + flush).
pub fn write_frame(w: &mut impl Write, ftype: u8, payload: &[u8]) -> Result<(), FrameError> {
    w.write_all(&encode_frame(ftype, payload))?;
    w.flush()?;
    Ok(())
}

/// Reads one frame, validating magic, reserved bits, length, and CRC.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, FrameError> {
    let mut hdr = [0u8; FRAME_HEADER_LEN];
    match read_fully(r, &mut hdr) {
        Ok(()) => {}
        Err(ShortRead::Eof { got: 0 }) => return Err(FrameError::Closed),
        Err(ShortRead::Eof { .. }) => return Err(FrameError::Truncated { what: "header" }),
        Err(ShortRead::Io(e)) => return Err(FrameError::Io(e)),
    }
    if hdr[0..4] != FRAME_MAGIC {
        return Err(FrameError::BadMagic(hdr[0..4].try_into().expect("4 bytes")));
    }
    let ftype = hdr[4];
    if hdr[5] != 0 || hdr[6] != 0 || hdr[7] != 0 {
        return Err(FrameError::BadReserved);
    }
    let len = u32::from_le_bytes(hdr[8..12].try_into().expect("4 bytes"));
    let stored = u32::from_le_bytes(hdr[12..16].try_into().expect("4 bytes"));
    if len > MAX_FRAME_LEN {
        return Err(FrameError::TooLarge(len));
    }
    let mut payload = vec![0u8; len as usize];
    match read_fully(r, &mut payload) {
        Ok(()) => {}
        Err(ShortRead::Eof { .. }) => return Err(FrameError::Truncated { what: "payload" }),
        Err(ShortRead::Io(e)) => return Err(FrameError::Io(e)),
    }
    let computed = crc32(&payload);
    if computed != stored {
        return Err(FrameError::Crc { stored, computed });
    }
    Ok(Frame { ftype, payload })
}

/// Parses a frame payload as a JSON object.
pub fn json_payload(frame: &Frame) -> Result<obs::JsonValue, FrameError> {
    let text = std::str::from_utf8(&frame.payload)
        .map_err(|e| FrameError::BadPayload(format!("not utf-8: {e}")))?;
    obs::JsonValue::parse(text).map_err(|e| FrameError::BadPayload(e.to_string()))
}

/// Writes a JSON control frame.
pub fn write_json(w: &mut impl Write, ftype: u8, value: &obs::JsonValue) -> Result<(), FrameError> {
    write_frame(w, ftype, value.to_json().as_bytes())
}

/// Builds a [`CHUNK`] payload: sequence number + verbatim wire chunk.
pub fn chunk_payload(seq: u64, wire_chunk: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + wire_chunk.len());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(wire_chunk);
    out
}

/// Splits a [`CHUNK`] payload into its sequence number and wire chunk.
pub fn split_chunk_payload(payload: &[u8]) -> Result<(u64, &[u8]), FrameError> {
    if payload.len() < 8 {
        return Err(FrameError::BadPayload(format!(
            "chunk payload {} bytes is shorter than its sequence number",
            payload.len()
        )));
    }
    let seq = u64::from_le_bytes(payload[0..8].try_into().expect("8 bytes"));
    Ok((seq, &payload[8..]))
}

enum ShortRead {
    Eof { got: usize },
    Io(io::Error),
}

fn read_fully(r: &mut impl Read, buf: &mut [u8]) -> Result<(), ShortRead> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => return Err(ShortRead::Eof { got }),
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ShortRead::Io(e)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let payload = b"{\"schema\":\"gdiff-serve/v1\"}";
        let bytes = encode_frame(HELLO, payload);
        let mut cur = &bytes[..];
        let f = read_frame(&mut cur).unwrap();
        assert_eq!(f.ftype, HELLO);
        assert_eq!(f.payload, payload);
        // Clean EOF after the frame is Closed, not an error with a face.
        assert!(matches!(read_frame(&mut cur), Err(FrameError::Closed)));
    }

    #[test]
    fn corrupt_frames_are_rejected() {
        let bytes = encode_frame(ACK, b"hello");
        // Payload flip → CRC.
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 1;
        assert!(matches!(
            read_frame(&mut &bad[..]),
            Err(FrameError::Crc { .. })
        ));
        // Magic flip.
        let mut bad = bytes.clone();
        bad[0] ^= 1;
        assert!(matches!(
            read_frame(&mut &bad[..]),
            Err(FrameError::BadMagic(_))
        ));
        // Truncation inside the payload.
        assert!(matches!(
            read_frame(&mut &bytes[..bytes.len() - 2]),
            Err(FrameError::Truncated { what: "payload" })
        ));
        // Oversized declared length.
        let mut bad = bytes.clone();
        bad[8..12].copy_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        assert!(matches!(
            read_frame(&mut &bad[..]),
            Err(FrameError::TooLarge(_))
        ));
    }

    #[test]
    fn chunk_payload_round_trips() {
        let p = chunk_payload(42, b"chunkbytes");
        let (seq, rest) = split_chunk_payload(&p).unwrap();
        assert_eq!(seq, 42);
        assert_eq!(rest, b"chunkbytes");
        assert!(split_chunk_payload(&p[..4]).is_err());
    }
}
