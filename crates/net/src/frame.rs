//! Length-prefixed, CRC-framed, session-multiplexed transport framing.
//!
//! Every wire message travels in one frame:
//!
//! ```text
//! ┌──────────────┬──────────────────┬──────────────┬─────────────────────┐
//! │ len: u32 LE  │ session: u32 LE  │ crc: u32 LE  │ payload (len bytes) │
//! └──────────────┴──────────────────┴──────────────┴─────────────────────┘
//! ```
//!
//! `session` routes the frame to one of many logical owner sessions
//! multiplexed over a single socket (a gateway fanning in thousands of
//! owners needs far fewer file descriptors than owners).  The client,
//! [`crate::MuxConnection`], numbers its sessions from 1.  Session
//! [`SESSION_DEFAULT`] (0) carries only the server's courtesy error before
//! it drops a connection over a framing error, and the frames of tests that
//! drive a raw socket through the session-less helpers ([`encode_frame`],
//! [`read_frame`], [`write_frame`]).
//!
//! `crc` is the IEEE CRC-32 of the session-id bytes followed by the payload
//! — the same checksum (and the same implementation,
//! [`dpsync_edb::backend::crc32`]) the durable segment log uses for its
//! on-disk frames.  Covering the session bytes means a bit flip in the
//! routing field is caught instead of silently delivering a response to the
//! wrong owner.  `len` is capped at [`MAX_FRAME_LEN`]; a larger length is
//! rejected *before* any allocation, so a hostile header cannot drive the
//! peer out of memory.
//!
//! Framing errors are not recoverable: after a bad length or a CRC mismatch
//! the stream offset can no longer be trusted, so both peers treat a framing
//! error as fatal for the connection (the server sends one final
//! protocol-error frame as a courtesy, then disconnects).

use dpsync_edb::backend::Crc32;
use std::io::{self, Read, Write};

/// Maximum frame payload length (64 MiB).
///
/// Generously above the largest legitimate message — a full-month `Π_Setup`
/// batch is under 2 MiB of ciphertext — while small enough that a hostile
/// length can never look like a plausible allocation.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Length of the fixed frame header (length + session id + CRC).
pub const FRAME_HEADER_LEN: usize = 12;

/// Session 0: the session of the server's courtesy error frame and of the
/// session-less helpers.  [`crate::MuxConnection`] never opens it.
pub const SESSION_DEFAULT: u32 = 0;

/// A framing failure.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying transport failed (includes clean EOF mid-frame).
    Io(io::Error),
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// The header announced a payload longer than [`MAX_FRAME_LEN`].
    TooLarge(u64),
    /// The payload (with its session id) did not match the header's CRC.
    CrcMismatch {
        /// CRC the header carried.
        expected: u32,
        /// CRC of the session id + payload actually received.
        actual: u32,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "transport error: {e}"),
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::TooLarge(len) => {
                write!(
                    f,
                    "frame of {len} bytes exceeds the {MAX_FRAME_LEN}-byte cap"
                )
            }
            FrameError::CrcMismatch { expected, actual } => {
                write!(
                    f,
                    "frame CRC mismatch: header {expected:#010x}, payload {actual:#010x}"
                )
            }
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Encodes one frame addressed to `session` onto the end of `out`.
///
/// This is the allocation-free core of the outbound path: callers that send
/// many frames keep one buffer and reuse its capacity.
///
/// # Panics
/// Panics if `payload` exceeds [`MAX_FRAME_LEN`] — outbound messages are
/// produced by this crate's own encoders and never legitimately get there.
pub fn encode_frame_mux_into(session: u32, payload: &[u8], out: &mut Vec<u8>) {
    assert!(
        payload.len() <= MAX_FRAME_LEN,
        "outbound frame of {} bytes exceeds MAX_FRAME_LEN",
        payload.len()
    );
    let session_bytes = session.to_le_bytes();
    let crc = Crc32::new().update(&session_bytes).update(payload).finish();
    out.reserve(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&session_bytes);
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(payload);
}

/// Encodes one [`SESSION_DEFAULT`] frame into a fresh buffer.
///
/// # Panics
/// Panics if `payload` exceeds [`MAX_FRAME_LEN`] (see
/// [`encode_frame_mux_into`]).
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    encode_frame_mux(SESSION_DEFAULT, payload)
}

/// Encodes one frame addressed to `session` into a fresh buffer.
///
/// # Panics
/// Panics if `payload` exceeds [`MAX_FRAME_LEN`] (see
/// [`encode_frame_mux_into`]).
pub fn encode_frame_mux(session: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    encode_frame_mux_into(session, payload, &mut out);
    out
}

/// Writes one [`SESSION_DEFAULT`] frame (a single `write_all`, so frames
/// from concurrent writers to different sockets never interleave partially).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    w.write_all(&encode_frame(payload))
}

/// Validates a header + payload pair that was read elsewhere.
pub fn check_frame(header: [u8; FRAME_HEADER_LEN], payload: &[u8]) -> Result<(), FrameError> {
    let expected = u32::from_le_bytes(header[8..12].try_into().unwrap());
    let actual = Crc32::new().update(&header[4..8]).update(payload).finish();
    if expected != actual {
        return Err(FrameError::CrcMismatch { expected, actual });
    }
    Ok(())
}

/// Parses a frame header, returning the payload length.
pub fn payload_len(header: [u8; FRAME_HEADER_LEN]) -> Result<usize, FrameError> {
    let len = u32::from_le_bytes(header[0..4].try_into().unwrap()) as u64;
    if len as usize > MAX_FRAME_LEN {
        return Err(FrameError::TooLarge(len));
    }
    Ok(len as usize)
}

/// Parses a frame header, returning the session id the frame is addressed
/// to.  Only trustworthy after [`check_frame`] has accepted the payload (the
/// CRC covers these bytes).
pub fn frame_session(header: [u8; FRAME_HEADER_LEN]) -> u32 {
    u32::from_le_bytes(header[4..8].try_into().unwrap())
}

/// Reads exactly one frame from a blocking reader, returning its session id
/// and payload.
///
/// Returns [`FrameError::Closed`] on a clean EOF *between* frames (the peer
/// hung up) and [`FrameError::Io`] on an EOF mid-frame (the peer died).
pub fn read_frame_mux(r: &mut impl Read) -> Result<(u32, Vec<u8>), FrameError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    let mut filled = 0;
    while filled < 1 {
        match r.read(&mut header[..1]) {
            Ok(0) => return Err(FrameError::Closed),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    r.read_exact(&mut header[filled..])?;
    let len = payload_len(header)?;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    check_frame(header, &payload)?;
    Ok((frame_session(header), payload))
}

/// Reads exactly one frame from a blocking reader, discarding the session id.
///
/// Returns [`FrameError::Closed`] on a clean EOF *between* frames (the peer
/// hung up) and [`FrameError::Io`] on an EOF mid-frame (the peer died).
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, FrameError> {
    read_frame_mux(r).map(|(_, payload)| payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        for payload in [&b""[..], b"x", &[0xABu8; 1000]] {
            let framed = encode_frame(payload);
            let mut cursor = io::Cursor::new(framed);
            assert_eq!(read_frame(&mut cursor).unwrap(), payload);
        }
    }

    #[test]
    fn mux_frames_round_trip_with_their_session_ids() {
        for session in [0u32, 1, 7, 0xDEAD_BEEF, u32::MAX] {
            let payload = session.to_be_bytes();
            let framed = encode_frame_mux(session, &payload);
            let mut cursor = io::Cursor::new(framed);
            let (got_session, got_payload) = read_frame_mux(&mut cursor).unwrap();
            assert_eq!(got_session, session);
            assert_eq!(got_payload, payload);
        }
    }

    #[test]
    fn default_session_wrappers_agree_with_the_mux_encoders() {
        let payload = b"one logical session";
        assert_eq!(
            encode_frame(payload),
            encode_frame_mux(SESSION_DEFAULT, payload)
        );
        let mut written = Vec::new();
        write_frame(&mut written, payload).unwrap();
        assert_eq!(written, encode_frame(payload));
    }

    #[test]
    fn bit_flips_are_caught_by_the_crc() {
        let framed = encode_frame_mux(0x0102_0304, b"hello, server");
        for bit in 0..(framed.len() * 8) {
            // Flips inside the length prefix change the length instead; only
            // exercise session, CRC and payload bytes here (length flips are
            // covered by `oversized_lengths_are_rejected` and truncation
            // handling).  Session-id flips MUST be caught: a silently
            // rerouted response would deliver one owner's data to another.
            if bit / 8 < 4 {
                continue;
            }
            let mut corrupted = framed.clone();
            corrupted[bit / 8] ^= 1 << (bit % 8);
            let mut cursor = io::Cursor::new(corrupted);
            match read_frame_mux(&mut cursor) {
                Err(FrameError::CrcMismatch { .. }) => {}
                other => panic!("bit {bit}: expected CRC mismatch, got {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_lengths_are_rejected_before_allocation() {
        let mut framed = vec![0u8; FRAME_HEADER_LEN];
        framed[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut cursor = io::Cursor::new(framed);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(FrameError::TooLarge(_))
        ));
    }

    #[test]
    fn clean_eof_between_frames_is_closed() {
        let mut cursor = io::Cursor::new(Vec::new());
        assert!(matches!(read_frame(&mut cursor), Err(FrameError::Closed)));
    }

    #[test]
    fn eof_mid_frame_is_an_io_error() {
        let framed = encode_frame(b"cut short");
        for cut in [3, 6, 10, FRAME_HEADER_LEN + 2] {
            let mut cursor = io::Cursor::new(framed[..cut].to_vec());
            assert!(matches!(read_frame(&mut cursor), Err(FrameError::Io(_))));
        }
    }

    #[test]
    fn display_renders_every_variant() {
        assert!(FrameError::Closed.to_string().contains("closed"));
        assert!(FrameError::TooLarge(1 << 40).to_string().contains("cap"));
        assert!(FrameError::CrcMismatch {
            expected: 1,
            actual: 2
        }
        .to_string()
        .contains("mismatch"));
        assert!(FrameError::Io(io::Error::other("boom"))
            .to_string()
            .contains("boom"));
    }
}
