//! Length-prefixed binary wire format.
//!
//! Frames are `u32` little-endian payload length + payload. A payload is
//! a plain sequence of little-endian primitives, and a type's layout is
//! stated exactly once, as its [`Wire`] impl: primitives, `String`,
//! `Option`, `Vec`, `BTreeMap`, `Box` and tuples are implemented here,
//! `wire_struct!` turns one ordered field list into both directions and
//! `wire_enum!` does the same for a `tag => Variant(fields)` table, so
//! an encoder and its decoder cannot disagree. All decode paths treat
//! input as untrusted: a malformed payload is an error, never a panic,
//! and [`WireReader::count`] is the one place a declared length is
//! validated — before anything is allocated for it.

use std::collections::BTreeMap;
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

pub(crate) fn bad(msg: &str) -> WireError {
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

    /// Reads a `u32` count of elements (or bytes) that follow. Every
    /// element occupies at least one byte, so a count above the bytes
    /// remaining is refused here, before anything is allocated for it.
    pub fn count(&mut self) -> Result<usize, WireError> {
        #[cfg(test)]
        COUNT_OFFSETS.with(|offsets| offsets.borrow_mut().push(self.pos));
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err(bad("count exceeds payload"));
        }
        Ok(n)
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
        let n = self.count()?;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|_| bad("invalid utf-8"))
    }

    /// Reads length-prefixed raw bytes.
    pub fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let n = self.count()?;
        Ok(self.take(n)?.to_vec())
    }
}

// Offsets at which this thread's readers read a count, for the
// inflated-count sweep in `proto::tests`.
#[cfg(test)]
thread_local! {
    pub(crate) static COUNT_OFFSETS: std::cell::RefCell<Vec<usize>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// A type with one wire layout, written and read by the same impl.
pub trait Wire: Sized {
    /// Appends the value's encoding.
    fn put(&self, w: &mut WireWriter);

    /// Reads one value.
    ///
    /// # Errors
    ///
    /// [`WireError`] on truncated or malformed input.
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError>;
}

/// Primitives go through the writer/reader method of the same name.
macro_rules! wire_primitive {
    ($($ty:ident)*) => {$(
        impl Wire for $ty {
            fn put(&self, w: &mut WireWriter) {
                w.$ty(*self);
            }
            fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                r.$ty()
            }
        }
    )*};
}
wire_primitive!(u8 u16 u32 u64 i32 f64 bool);

impl Wire for String {
    fn put(&self, w: &mut WireWriter) {
        w.str(self);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.str()
    }
}

/// A presence bool, then the value if present.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, w: &mut WireWriter) {
        w.bool(self.is_some());
        if let Some(v) = self {
            v.put(w);
        }
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(if r.bool()? { Some(T::get(r)?) } else { None })
    }
}

/// A `u32` count, then the items.
impl<T: Wire> Wire for Vec<T> {
    fn put(&self, w: &mut WireWriter) {
        w.u32(self.len() as u32);
        for item in self {
            item.put(w);
        }
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        (0..r.count()?).map(|_| T::get(r)).collect()
    }
}

/// A `u32` count, then `(key, value)` pairs in key order.
impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    fn put(&self, w: &mut WireWriter) {
        w.u32(self.len() as u32);
        for (k, v) in self {
            k.put(w);
            v.put(w);
        }
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        (0..r.count()?).map(|_| <(K, V)>::get(r)).collect()
    }
}

impl<T: Wire> Wire for Box<T> {
    fn put(&self, w: &mut WireWriter) {
        (**self).put(w);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        T::get(r).map(Box::new)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, w: &mut WireWriter) {
        self.0.put(w);
        self.1.put(w);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn put(&self, w: &mut WireWriter) {
        self.0.put(w);
        self.1.put(w);
        self.2.put(w);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok((A::get(r)?, B::get(r)?, C::get(r)?))
    }
}

/// Implements [`Wire`] for structs from one field list each: the fields
/// are written, and read back, in the order listed. A field the list
/// omits is a compile error, not a silent default.
macro_rules! wire_struct {
    ($($ty:ty { $($field:ident),* $(,)? })*) => {$(
        impl $crate::wire::Wire for $ty {
            fn put(&self, w: &mut $crate::wire::WireWriter) {
                $($crate::wire::Wire::put(&self.$field, w);)*
            }
            fn get(r: &mut $crate::wire::WireReader<'_>) -> Result<Self, $crate::wire::WireError> {
                Ok(Self { $($field: $crate::wire::Wire::get(r)?),* })
            }
        }
    )*};
}
pub(crate) use wire_struct;

/// Defines a message enum from its `tag => Variant(field: Type, ...)`
/// table: the enum itself, `TABLE` and `name()`, and the `encode` /
/// `decode` pair for whole payloads (`u16` `proto::PROTO_VERSION`, `u8`
/// tag, the fields in listed order, then the end of the payload).
macro_rules! wire_enum {
    ($(#[$meta:meta])* $name:ident {
        $($(#[$vmeta:meta])* $tag:literal => $variant:ident $(($($field:ident: $ty:ty),+))?,)*
    }) => {
        $(#[$meta])*
        pub enum $name {
            $($(#[$vmeta])* $variant $(($($ty),+))?,)*
        }

        impl $name {
            /// Every `(tag, variant name)` in tag order — the opcode
            /// table `docs/PROTOCOL.md` is checked against.
            pub const TABLE: &'static [(u8, &'static str)] = &[$(($tag, stringify!($variant))),*];

            /// The variant's name, as listed in [`Self::TABLE`].
            pub fn name(&self) -> &'static str {
                match self {
                    $($name::$variant { .. } => stringify!($variant),)*
                }
            }

            /// Encodes into a frame payload.
            pub fn encode(&self) -> Vec<u8> {
                let mut w = $crate::wire::WireWriter::new();
                w.u16($crate::proto::PROTO_VERSION);
                match self {
                    $($name::$variant $(($($field),+))? => {
                        w.u8($tag);
                        $($($crate::wire::Wire::put($field, &mut w);)+)?
                    })*
                }
                w.finish()
            }

            /// Decodes a frame payload.
            ///
            /// # Errors
            ///
            /// `WireError` on a version other than `PROTO_VERSION`
            /// or on malformed input (unknown tag, truncation, trailing
            /// bytes).
            pub fn decode(payload: &[u8]) -> Result<$name, $crate::wire::WireError> {
                let mut r = $crate::wire::WireReader::new(payload);
                let (peer, this) = (r.u16()?, $crate::proto::PROTO_VERSION);
                if peer != this {
                    return Err($crate::wire::WireError(format!(
                        "protocol version mismatch: peer speaks v{peer}, this build speaks v{this}"
                    )));
                }
                let msg = match r.u8()? {
                    $($tag => $name::$variant $(($(<$ty as $crate::wire::Wire>::get(&mut r)?),+))?,)*
                    _ => return Err($crate::wire::bad(concat!("bad ", stringify!($name), " tag"))),
                };
                r.expect_end()?;
                Ok(msg)
            }
        }
    };
}
pub(crate) use wire_enum;

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
    fn containers_round_trip_and_refuse_counts_the_payload_cannot_hold() {
        type Nested = (Vec<(u8, String)>, BTreeMap<String, Option<u64>>, Box<f64>);
        let value: Nested = (
            vec![(1, "a".into()), (2, String::new())],
            BTreeMap::from([("x".into(), Some(7)), ("y".into(), None)]),
            Box::new(-0.5),
        );
        let mut w = WireWriter::new();
        value.put(&mut w);
        let buf = w.finish();
        let mut r = WireReader::new(&buf);
        assert_eq!(Nested::get(&mut r).unwrap(), value);
        r.expect_end().unwrap();
        // One more element than bytes left: refused at the count.
        let mut w = WireWriter::new();
        w.u32(3);
        w.u16(0);
        let err = Vec::<u8>::get(&mut WireReader::new(&w.finish())).unwrap_err();
        assert_eq!(err, bad("count exceeds payload"));
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
