//! Little-endian byte codec shared by the page format, the table-file
//! header, and spill partitions.
//!
//! The checksums (`checksum64` for `MDETAB02`, FNV-1a for `MDETAB01` and
//! the string dictionary's hashes) and the `u64` writer live in
//! `mde_numeric::checkpoint` and are re-exported here; what this module
//! adds is what the table format spells differently from the checkpoint
//! codec — `u32`/`i64` fields, `u32`-length-prefixed strings — plus a
//! bounds-checked cursor whose every read can fail with a typed corruption
//! error that names the file and page, instead of panicking on a truncated
//! or damaged file.

use crate::McdbError;
pub(crate) use mde_numeric::checkpoint::{checksum64, fnv1a, put_u64, FNV_OFFSET};

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append `s` with a `u32` length prefix (the checkpoint codec's strings
/// carry a `u64` one; the two layouts are on disk and stay as they are).
pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Bounds-checked reader over a byte slice. Every accessor returns a
/// typed [`McdbError::PageCorrupt`] on overrun or malformed content; the
/// caller stamps in the file path and page index via [`Cursor::new`].
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
    path: &'a str,
    page: u64,
}

impl<'a> Cursor<'a> {
    /// A cursor over `buf`, attributing failures to `path` / `page`
    /// (`u64::MAX` for the file header).
    pub(crate) fn new(buf: &'a [u8], path: &'a str, page: u64) -> Self {
        Cursor {
            buf,
            pos: 0,
            path,
            page,
        }
    }

    /// The file path failures are attributed to.
    #[cfg(test)]
    pub(crate) fn path(&self) -> &'a str {
        self.path
    }

    /// The page number failures are attributed to.
    #[cfg(test)]
    pub(crate) fn page(&self) -> u64 {
        self.page
    }

    /// Typed corruption error at the cursor's location.
    pub(crate) fn corrupt(&self, reason: impl Into<String>) -> McdbError {
        McdbError::PageCorrupt {
            path: self.path.to_string(),
            page: self.page,
            reason: reason.into(),
        }
    }

    pub(crate) fn bytes(&mut self, n: usize) -> crate::Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| {
                self.corrupt(format!(
                    "truncated: need {n} bytes at offset {}, have {}",
                    self.pos,
                    self.buf.len().saturating_sub(self.pos)
                ))
            })?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> crate::Result<u8> {
        Ok(self.bytes(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> crate::Result<u32> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> crate::Result<u64> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    pub(crate) fn i64(&mut self) -> crate::Result<i64> {
        Ok(i64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    pub(crate) fn str(&mut self) -> crate::Result<&'a str> {
        let n = self.u32()? as usize;
        let raw = self.bytes(n)?;
        std::str::from_utf8(raw).map_err(|_| self.corrupt("string is not valid UTF-8"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_and_bounds() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 7);
        put_u64(&mut buf, u64::MAX);
        put_i64(&mut buf, -3);
        put_str(&mut buf, "héllo");
        let mut c = Cursor::new(&buf, "test", 0);
        assert_eq!(c.u32().unwrap(), 7);
        assert_eq!(c.u64().unwrap(), u64::MAX);
        assert_eq!(c.i64().unwrap(), -3);
        assert_eq!(c.str().unwrap(), "héllo");
        assert!(matches!(
            c.u8(),
            Err(McdbError::PageCorrupt { page: 0, .. })
        ));
    }
}
