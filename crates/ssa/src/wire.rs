//! Binary wire primitives shared by the GLCB compact codec.
//!
//! The service fabric's payloads (chunk orders, chunk-reply partials,
//! spill snapshots) travel in "GLCB", a compact binary layout. The
//! aggregate types that
//! dominate those payloads — [`crate::ExactSum`] and
//! [`crate::EnsemblePartial`] — live in this crate, so the primitive
//! encoders live here too and the service crate builds its message
//! framing on top of them.
//!
//! Primitives:
//!
//! * **varint** — LEB128 unsigned integers (lengths, counts, ids,
//!   seeds): 1 byte for values < 128, ≤ 10 bytes for the full `u64`
//!   range;
//! * **f64** — 8-byte little-endian IEEE bit patterns via
//!   [`f64::to_bits`], preserving NaN payloads and signed zeros
//!   bitwise (the JSON layer's shortest-round-trip spelling is
//!   value-preserving too, but costs a parse);
//! * **i64** — 8-byte little-endian two's complement (`ExactSum`
//!   digits);
//! * **str** — varint byte length + UTF-8 bytes.
//!
//! Decoding is fail-closed: every read comes off a [`Reader`] that
//! errors on truncation, and container decoders reject trailing bytes,
//! so a corrupt or truncated payload never half-decodes.

/// A decode error: a short human-readable reason, later wrapped into
/// the service layer's protocol error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for WireError {}

impl WireError {
    /// A truncation error naming what was being read.
    pub fn truncated(what: &str) -> Self {
        WireError(format!("truncated payload reading {what}"))
    }
}

/// A fail-closed cursor over a byte slice: every read checks bounds
/// and truncation is an error, never a default.
pub struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `bytes`, positioned at the start.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, at: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    /// Whether every byte has been consumed (containers require this
    /// before accepting a decoded value).
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Errors unless the payload was fully consumed — the fail-closed
    /// tail check every top-level decoder ends with.
    pub fn expect_end(&self, what: &str) -> Result<(), WireError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(WireError(format!(
                "{} trailing bytes after {what}",
                self.remaining()
            )))
        }
    }

    /// Reads one byte.
    pub fn byte(&mut self, what: &str) -> Result<u8, WireError> {
        let Some(&b) = self.bytes.get(self.at) else {
            return Err(WireError::truncated(what));
        };
        self.at += 1;
        Ok(b)
    }

    /// Reads `n` raw bytes.
    pub fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::truncated(what));
        }
        let slice = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(slice)
    }

    /// Reads a LEB128 varint `u64`, rejecting encodings past the 10
    /// bytes a `u64` can need and any overflow of the top byte.
    pub fn varint(&mut self, what: &str) -> Result<u64, WireError> {
        let mut value = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.byte(what)?;
            let low = u64::from(byte & 0x7F);
            if shift == 63 && low > 1 {
                return Err(WireError(format!("varint overflow reading {what}")));
            }
            value |= low << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(WireError(format!("varint too long reading {what}")))
    }

    /// Reads a varint and bounds-checks it as a container length, so a
    /// corrupt count cannot drive a huge allocation.
    pub fn length(&mut self, what: &str, max: usize) -> Result<usize, WireError> {
        let n = self.varint(what)?;
        if n > max as u64 {
            return Err(WireError(format!(
                "{what} length {n} exceeds the {max} cap"
            )));
        }
        Ok(n as usize)
    }

    /// Reads an 8-byte little-endian `f64` bit pattern.
    pub fn f64_bits(&mut self, what: &str) -> Result<f64, WireError> {
        let raw = self.take(8, what)?;
        let mut bits = [0u8; 8];
        bits.copy_from_slice(raw);
        Ok(f64::from_bits(u64::from_le_bytes(bits)))
    }

    /// Reads an 8-byte little-endian `i64`.
    pub fn i64_le(&mut self, what: &str) -> Result<i64, WireError> {
        let raw = self.take(8, what)?;
        let mut bits = [0u8; 8];
        bits.copy_from_slice(raw);
        Ok(i64::from_le_bytes(bits))
    }

    /// Reads a length-prefixed UTF-8 string (capped at 64 MiB, the
    /// frame-payload bound).
    pub fn string(&mut self, what: &str) -> Result<String, WireError> {
        let len = self.length(what, 64 << 20)?;
        let raw = self.take(len, what)?;
        String::from_utf8(raw.to_vec())
            .map_err(|_| WireError(format!("invalid UTF-8 reading {what}")))
    }
}

/// Appends a LEB128 varint.
pub fn put_varint(buf: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Appends an `f64` as its 8-byte little-endian bit pattern.
pub fn put_f64_bits(buf: &mut Vec<u8>, value: f64) {
    buf.extend_from_slice(&value.to_bits().to_le_bytes());
}

/// Appends an `i64` little-endian.
pub fn put_i64_le(buf: &mut Vec<u8>, value: i64) {
    buf.extend_from_slice(&value.to_le_bytes());
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_string(buf: &mut Vec<u8>, value: &str) {
    put_varint(buf, value.len() as u64);
    buf.extend_from_slice(value.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_round_trip_across_the_u64_range() {
        let values = [
            0u64,
            1,
            127,
            128,
            300,
            16383,
            16384,
            u64::from(u32::MAX),
            1 << 53,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut buf = Vec::new();
        for &v in &values {
            put_varint(&mut buf, v);
        }
        let mut reader = Reader::new(&buf);
        for &v in &values {
            assert_eq!(reader.varint("test").unwrap(), v);
        }
        assert!(reader.is_empty());
    }

    #[test]
    fn floats_round_trip_bitwise_including_nan_payloads() {
        let values = [
            0.0,
            -0.0,
            1.5,
            f64::MIN_POSITIVE,
            5e-324,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::from_bits(0x7FF8_0000_DEAD_BEEF), // NaN with a payload
        ];
        let mut buf = Vec::new();
        for &v in &values {
            put_f64_bits(&mut buf, v);
        }
        let mut reader = Reader::new(&buf);
        for &v in &values {
            let back = reader.f64_bits("test").unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn strings_round_trip_and_reject_bad_utf8() {
        let mut buf = Vec::new();
        put_string(&mut buf, "cello_0x1C");
        put_string(&mut buf, "");
        let mut reader = Reader::new(&buf);
        assert_eq!(reader.string("a").unwrap(), "cello_0x1C");
        assert_eq!(reader.string("b").unwrap(), "");
        reader.expect_end("strings").unwrap();

        let mut bad = Vec::new();
        put_varint(&mut bad, 2);
        bad.extend_from_slice(&[0xFF, 0xFE]);
        assert!(Reader::new(&bad).string("bad").is_err());
    }

    #[test]
    fn truncation_and_trailing_bytes_fail_closed() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 300);
        assert!(Reader::new(&buf[..1]).varint("cut").is_err());
        assert!(Reader::new(&[0u8; 4]).f64_bits("short").is_err());
        let mut reader = Reader::new(&buf);
        reader.varint("ok").unwrap();
        assert!(Reader::new(&buf).expect_end("payload").is_err());
        reader.expect_end("payload").unwrap();
        // Over-long varint encodings are rejected, not wrapped.
        let overlong = [0xFFu8; 11];
        assert!(Reader::new(&overlong).varint("overlong").is_err());
        let overflow = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F];
        assert!(Reader::new(&overflow).varint("overflow").is_err());
    }

    #[test]
    fn length_caps_reject_corrupt_counts() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 1_000_000);
        assert!(Reader::new(&buf).length("cells", 4096).is_err());
        assert_eq!(
            Reader::new(&buf).length("cells", 1 << 24).unwrap(),
            1_000_000
        );
    }
}
