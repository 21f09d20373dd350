//! Length-prefixed binary wire format.
//!
//! Frames are `u32` little-endian payload length + payload. Payloads are
//! encoded with the explicit writer/reader below — the workspace
//! deliberately carries no serialization framework (the vendored `serde`
//! is a derive-only stub), so protocol types hand-roll their encoding
//! the same way the AOT artifact codec does. All decode paths treat
//! input as untrusted: lengths are bounds-checked against what the
//! remaining bytes could possibly hold, and a malformed frame is an
//! error, never a panic.

use std::io::{self, Read, Write};

use engines::EngineKind;
use wacc::OptLevel;

/// Hard cap on a single frame, far above any legitimate message.
pub const MAX_FRAME: u32 = 16 << 20;

/// A malformed wire payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire: {}", self.0)
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for io::Error {
    fn from(e: WireError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

fn bad(msg: &str) -> WireError {
    WireError(msg.to_string())
}

/// Writes one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|l| *l <= MAX_FRAME)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one length-prefixed frame; `Ok(None)` on clean EOF before the
/// length prefix (the peer hung up between messages).
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "frame too large"));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Payload writer: plain little-endian primitives.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// Creates an empty writer.
    pub fn new() -> WireWriter {
        WireWriter::default()
    }

    /// Finishes and returns the payload bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `i32`.
    pub fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64` by bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes length-prefixed raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.buf.extend_from_slice(b);
    }
}

/// Payload reader over untrusted bytes.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Wraps a payload.
    pub fn new(buf: &'a [u8]) -> WireReader<'a> {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless the payload was consumed exactly.
    pub fn expect_end(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(bad("trailing bytes"))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(bad("truncated payload"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `i32`.
    pub fn i32(&mut self) -> Result<i32, WireError> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a bool byte (strictly 0 or 1).
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(bad("bad bool")),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, WireError> {
        let n = self.u32()? as usize;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|_| bad("invalid utf-8"))
    }

    /// Reads length-prefixed raw bytes.
    pub fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let n = self.u32()? as usize;
        Ok(self.take(n)?.to_vec())
    }
}

/// Stable byte for an [`OptLevel`] (wire + store headers).
pub fn level_byte(level: OptLevel) -> u8 {
    match level {
        OptLevel::O0 => 0,
        OptLevel::O1 => 1,
        OptLevel::O2 => 2,
        OptLevel::O3 => 3,
    }
}

/// Decodes a [`level_byte`].
pub fn level_from_byte(b: u8) -> Option<OptLevel> {
    Some(match b {
        0 => OptLevel::O0,
        1 => OptLevel::O1,
        2 => OptLevel::O2,
        3 => OptLevel::O3,
        _ => return None,
    })
}

/// Stable byte for an engine selector; `0xff` means "no engine" (a
/// plain compiled-wasm store entry).
pub fn engine_byte(e: Option<EngineKind>) -> u8 {
    match e {
        None => 0xff,
        Some(kind) => kind.code(),
    }
}

/// Decodes an [`engine_byte`].
pub fn engine_from_byte(b: u8) -> Result<Option<EngineKind>, WireError> {
    if b == 0xff {
        return Ok(None);
    }
    EngineKind::from_code(b)
        .map(Some)
        .ok_or_else(|| bad("unknown engine code"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = WireWriter::new();
        w.u8(7);
        w.u16(0xbeef);
        w.u32(0xdead_beef);
        w.u64(u64::MAX);
        w.i32(-42);
        w.f64(1.5);
        w.bool(true);
        w.str("crc32");
        w.bytes(&[1, 2, 3]);
        let buf = w.finish();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0xbeef);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.i32().unwrap(), -42);
        assert_eq!(r.f64().unwrap(), 1.5);
        assert!(r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "crc32");
        assert_eq!(r.bytes().unwrap(), vec![1, 2, 3]);
        r.expect_end().unwrap();
    }

    #[test]
    fn truncated_and_oversized_inputs_error() {
        let mut r = WireReader::new(&[1, 2]);
        assert!(r.u32().is_err());
        // A declared length far past the buffer must not allocate/panic.
        let mut w = WireWriter::new();
        w.u32(u32::MAX);
        let buf = w.finish();
        assert!(WireReader::new(&buf).bytes().is_err());
        assert!(WireReader::new(&[2]).bool().is_err());
    }

    #[test]
    fn frames_round_trip() {
        let mut pipe: Vec<u8> = Vec::new();
        write_frame(&mut pipe, b"hello").unwrap();
        write_frame(&mut pipe, b"").unwrap();
        let mut r = io::Cursor::new(pipe);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut pipe = Vec::new();
        pipe.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        assert!(read_frame(&mut io::Cursor::new(pipe)).is_err());
    }

    #[test]
    fn level_and_engine_bytes_round_trip() {
        for level in OptLevel::all() {
            assert_eq!(level_from_byte(level_byte(level)), Some(level));
        }
        assert_eq!(level_from_byte(9), None);
        assert_eq!(engine_from_byte(engine_byte(None)).unwrap(), None);
        for kind in EngineKind::all() {
            assert_eq!(engine_from_byte(engine_byte(Some(kind))).unwrap(), Some(kind));
        }
        assert!(engine_from_byte(99).is_err());
    }
}
