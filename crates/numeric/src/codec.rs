//! The byte codec under every file the workspace writes: how a value
//! becomes little-endian bytes and back, and the two checksums that seal
//! them.
//!
//! * The writers — [`put_u32`], [`put_u64`], [`put_i64`], [`put_u64s`],
//!   [`put_f64s`], [`put_str`] and [`put_sealed`] — append to a `Vec<u8>`.
//! * [`Cursor`] reads them back over a byte slice. Every read is
//!   bounds-checked, and a bad read returns the **caller's** error: the
//!   cursor is built with the function that turns a reason string into
//!   it, so a paged table's errors name the file and page and a
//!   checkpoint's or a cache's keep their own types.
//! * [`fnv1a`] and [`checksum64`] are the checksums.
//!
//! The files spell a string's length prefix in two widths, chosen per
//! call by [`LenPrefix`]: a `u32` in the paged tables (`MDETAB01` /
//! `MDETAB02`), a `u64` in checkpoints (`MDECKPT2`) and cache files
//! (`MDECACHE2`, and the read-only `MDECACHE1`). Every other field is
//! laid out the same way in all of them.

/// Width of a string's length prefix. Both layouts are on disk and stay
/// as they are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LenPrefix {
    /// A `u32` prefix: the paged table files.
    U32,
    /// A `u64` prefix: checkpoints and cache images.
    U64,
}

/// Append `v` little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append `v` little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append `v` little-endian.
pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64` count, then each value.
pub fn put_u64s(out: &mut Vec<u8>, vs: &[u64]) {
    put_u64(out, vs.len() as u64);
    for &v in vs {
        put_u64(out, v);
    }
}

/// Append a `u64` count, then each value by bit pattern.
pub fn put_f64s(out: &mut Vec<u8>, vs: &[f64]) {
    put_u64(out, vs.len() as u64);
    for v in vs {
        put_u64(out, v.to_bits());
    }
}

/// Append `s` behind a length prefix of width `prefix`.
pub fn put_str(out: &mut Vec<u8>, prefix: LenPrefix, s: &str) {
    match prefix {
        LenPrefix::U32 => put_u32(out, s.len() as u32),
        LenPrefix::U64 => put_u64(out, s.len() as u64),
    }
    out.extend_from_slice(s.as_bytes());
}

/// Append `body` as a sealed frame: its `u64` length, the bytes, then
/// their [`checksum64`]. [`Cursor::sealed`] reads it back. A frame is
/// whole or it is refused, so a file of frames survives a cut as the
/// frames before it (the `MDECACHE2` segments).
pub fn put_sealed(out: &mut Vec<u8>, body: &[u8]) {
    put_u64(out, body.len() as u64);
    out.extend_from_slice(body);
    put_u64(out, checksum64(body));
}

/// Bounds-checked reader over a byte slice. Every read that would run
/// past the end, and every field the caller rejects through
/// [`Cursor::corrupt`], is an `E` built by the function the cursor was
/// made with — never a panic.
pub struct Cursor<'a, E> {
    buf: &'a [u8],
    pos: usize,
    error: &'a dyn Fn(String) -> E,
}

impl<'a, E> Cursor<'a, E> {
    /// A cursor at the start of `buf`, whose failures are `error(reason)`.
    pub fn new(buf: &'a [u8], error: &'a dyn Fn(String) -> E) -> Self {
        Cursor { buf, pos: 0, error }
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The caller's error for `reason`, for a field that reads but makes
    /// no sense.
    pub fn corrupt(&self, reason: impl Into<String>) -> E {
        (self.error)(reason.into())
    }

    /// The next `n` bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], E> {
        if n > self.remaining() {
            return Err(self.corrupt(format!(
                "truncated: need {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// The next `N` bytes as an array.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], E> {
        Ok(self.bytes(N)?.try_into().expect("N bytes"))
    }

    /// The next byte.
    pub fn u8(&mut self) -> Result<u8, E> {
        Ok(self.bytes(1)?[0])
    }

    /// The next little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, E> {
        self.array().map(u32::from_le_bytes)
    }

    /// The next little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, E> {
        self.array().map(u64::from_le_bytes)
    }

    /// The next little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, E> {
        self.array().map(i64::from_le_bytes)
    }

    /// The next `f64`, by bit pattern.
    pub fn f64(&mut self) -> Result<f64, E> {
        self.u64().map(f64::from_bits)
    }

    /// A `u64` element count, refused when it exceeds the bytes left
    /// (every element is at least one byte), so a damaged count cannot
    /// size an absurd allocation.
    pub fn count(&mut self) -> Result<usize, E> {
        let v = self.u64()?;
        let remaining = self.remaining();
        if v > remaining as u64 {
            return Err(self.corrupt(format!("length {v} exceeds {remaining} remaining bytes")));
        }
        Ok(v as usize)
    }

    /// What [`put_u64s`] wrote.
    pub fn u64s(&mut self) -> Result<Vec<u64>, E> {
        let n = self.count()?;
        let raw = self.bytes(n.saturating_mul(8))?;
        Ok(raw.chunks_exact(8).map(le_word).collect())
    }

    /// What [`put_f64s`] wrote.
    pub fn f64s(&mut self) -> Result<Vec<f64>, E> {
        Ok(self.u64s()?.into_iter().map(f64::from_bits).collect())
    }

    /// What [`put_str`] wrote with the same `prefix`.
    pub fn str(&mut self, prefix: LenPrefix) -> Result<&'a str, E> {
        let n = match prefix {
            LenPrefix::U32 => self.u32()? as usize,
            LenPrefix::U64 => self.count()?,
        };
        let raw = self.bytes(n)?;
        std::str::from_utf8(raw).map_err(|_| self.corrupt("string is not valid UTF-8"))
    }

    /// The body of what [`put_sealed`] wrote. A frame cut short is the
    /// cursor's error; a body that does not sum to its stored checksum is
    /// `mismatch(stored, found)`.
    pub fn sealed(&mut self, mismatch: impl FnOnce(u64, u64) -> E) -> Result<&'a [u8], E> {
        let n = self.count()?;
        let body = self.bytes(n)?;
        let stored = self.u64()?;
        let found = checksum64(body);
        if stored != found {
            return Err(mismatch(stored, found));
        }
        Ok(body)
    }
}

/// FNV-1a offset basis: the starting `hash` for [`fnv1a`]. FNV-1a seals
/// `MDECKPT2` checkpoints, gives a cache entry its content hash, and
/// seals [`Fingerprint`](crate::checkpoint::Fingerprint)s and the
/// `MDETAB01` and `MDECACHE1` files a current build still reads;
/// `MDETAB02` paged tables and `MDECACHE2` segments use [`checksum64`].
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Fold `bytes` into a running FNV-1a hash.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Starting states of [`checksum64`]'s four lanes.
const CHECKSUM_SEEDS: [u64; 4] = [
    0x243F_6A88_85A3_08D3,
    0x1319_8A2E_0370_7344,
    0xA409_3822_299F_31D0,
    0x082E_FA98_EC4E_6C89,
];
/// Odd multiplier of a [`checksum64`] step (odd, so multiplying is a
/// bijection of `u64`).
const CHECKSUM_K: u64 = 0x9E37_79B9_7F4A_7C15;

/// One [`checksum64`] step: absorb word `w` into state `s`. For a fixed
/// `w` it is a bijection of `s`, and for a fixed `s` a bijection of `w`.
#[inline(always)]
fn checksum_step(s: u64, w: u64) -> u64 {
    (s ^ w).wrapping_mul(CHECKSUM_K).rotate_left(31)
}

fn le_word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("an 8-byte chunk"))
}

/// The `MDETAB02` page and header checksum: a 64-bit sum of `bytes` that
/// reads eight bytes per step instead of FNV-1a's one.
///
/// Consecutive little-endian `u64` words go round-robin to four lanes with
/// distinct seeds, each updated as `s = rotl((s ^ w) · K, 31)` with `K`
/// odd, so the four multiply chains run side by side. The words left over
/// after the last 32-byte block go to lanes 0, 1, 2 in turn. The lanes are
/// then folded in order into one state, followed by the zero-padded tail
/// (the last `len % 8` bytes) and the length, and the state is finished
/// with the MurmurHash3 `fmix64` avalanche.
///
/// **Guarantee.** Every step is a bijection of the state, and of the word
/// for a fixed state. So two inputs of equal length that differ only
/// inside one aligned 8-byte word, or only inside the tail, **always**
/// have different sums — in particular every single-bit flip and every
/// burst of up to 8 bytes within one aligned word is caught, a stronger
/// promise than FNV-1a's one-byte one. A change spread over several words
/// (two words swapped, say) carries no such guarantee; the multiply and
/// rotate mix it like any 64-bit hash, and the tests check swaps.
///
/// Plain Rust with words decoded little-endian: every host computes the
/// same bits, and the sum is part of the `MDETAB02` and `MDECACHE2`
/// formats.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut lanes = CHECKSUM_SEEDS;
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        lanes[0] = checksum_step(lanes[0], le_word(&block[0..8]));
        lanes[1] = checksum_step(lanes[1], le_word(&block[8..16]));
        lanes[2] = checksum_step(lanes[2], le_word(&block[16..24]));
        lanes[3] = checksum_step(lanes[3], le_word(&block[24..32]));
    }
    let mut words = blocks.remainder().chunks_exact(8);
    for (lane, word) in lanes.iter_mut().zip(&mut words) {
        *lane = checksum_step(*lane, le_word(word));
    }
    let tail = words.remainder();
    let mut last = [0u8; 8];
    last[..tail.len()].copy_from_slice(tail);

    let mut h = lanes
        .iter()
        .fold(CHECKSUM_SEEDS[0], |h, &lane| checksum_step(h, lane));
    h = checksum_step(h, u64::from_le_bytes(last));
    h = checksum_step(h, bytes.len() as u64);
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^ (h >> 33)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Corrupt(String);

    #[test]
    fn round_trip_and_bounds() {
        for prefix in [LenPrefix::U32, LenPrefix::U64] {
            let mut buf = Vec::new();
            put_u32(&mut buf, 7);
            put_u64(&mut buf, u64::MAX);
            put_i64(&mut buf, -3);
            put_u64s(&mut buf, &[1, u64::MAX]);
            put_f64s(&mut buf, &[-0.0, f64::INFINITY]);
            put_str(&mut buf, prefix, "héllo");
            let mut c = Cursor::new(&buf, &Corrupt);
            assert_eq!(c.u32().unwrap(), 7);
            assert_eq!(c.u64().unwrap(), u64::MAX);
            assert_eq!(c.i64().unwrap(), -3);
            assert_eq!(c.u64s().unwrap(), [1, u64::MAX]);
            let floats = c.f64s().unwrap();
            assert_eq!(floats[0].to_bits(), (-0.0f64).to_bits());
            assert_eq!(floats[1], f64::INFINITY);
            assert_eq!(c.str(prefix).unwrap(), "héllo");
            assert_eq!(c.remaining(), 0);
            assert!(matches!(c.u8(), Err(Corrupt(r)) if r.starts_with("truncated")));
        }
        // The prefix width is part of the layout.
        let mut buf = Vec::new();
        put_str(&mut buf, LenPrefix::U32, "abc");
        assert_eq!(buf.len(), 4 + 3);
        put_str(&mut buf, LenPrefix::U64, "abc");
        assert_eq!(buf.len(), 4 + 3 + 8 + 3);
        // An absurd count or string length, and a string that is not
        // UTF-8, are the caller's errors too.
        let mut buf = Vec::new();
        put_u64(&mut buf, u64::MAX);
        let mut c = Cursor::new(&buf, &Corrupt);
        assert!(matches!(c.count(), Err(Corrupt(r)) if r.contains("exceeds")));
        let mut c = Cursor::new(&buf, &Corrupt);
        assert!(matches!(c.f64s(), Err(Corrupt(r)) if r.contains("exceeds")));
        let mut c = Cursor::new(&buf, &Corrupt);
        assert!(matches!(c.str(LenPrefix::U64), Err(Corrupt(r)) if r.contains("exceeds")));
        let mut c = Cursor::new(&buf, &Corrupt);
        assert!(matches!(c.str(LenPrefix::U32), Err(Corrupt(r)) if r.starts_with("truncated")));
        let mut buf = Vec::new();
        put_u32(&mut buf, 2);
        buf.extend_from_slice(&[0xC3, 0x28]);
        let mut c = Cursor::new(&buf, &Corrupt);
        assert_eq!(
            c.str(LenPrefix::U32),
            Err(Corrupt("string is not valid UTF-8".into()))
        );
    }

    #[test]
    fn a_sealed_frame_is_whole_or_refused() {
        let mut buf = Vec::new();
        put_sealed(&mut buf, b"first");
        put_sealed(&mut buf, b"");
        let whole = buf.len();
        put_sealed(&mut buf, &pattern(40));
        let mismatch = |stored, found| Corrupt(format!("sum {stored:x} {found:x}"));
        let mut c = Cursor::new(&buf, &Corrupt);
        assert_eq!(c.sealed(mismatch).unwrap(), b"first");
        assert_eq!(c.sealed(mismatch).unwrap(), b"");
        assert_eq!(c.sealed(mismatch).unwrap(), pattern(40));
        assert_eq!(c.remaining(), 0);
        // Every cut inside the last frame is refused; the frames before it
        // still read.
        for cut in whole + 1..buf.len() {
            let mut c = Cursor::new(&buf[..cut], &Corrupt);
            c.sealed(mismatch).unwrap();
            c.sealed(mismatch).unwrap();
            assert!(c.sealed(mismatch).is_err(), "cut at {cut}");
        }
        // A flipped body bit is the caller's mismatch, with both sums.
        let mut flipped = buf.clone();
        flipped[whole + 8 + 3] ^= 0x10;
        let mut c = Cursor::new(&flipped[whole..], &Corrupt);
        let stored = checksum64(&pattern(40));
        let mut bad = pattern(40);
        bad[3] ^= 0x10;
        assert_eq!(
            c.sealed(mismatch),
            Err(Corrupt(format!("sum {stored:x} {:x}", checksum64(&bad))))
        );
    }

    #[test]
    fn fnv_matches_known_vector() {
        // FNV-1a("a") from the reference implementation.
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xAF63_DC4C_8601_EC8C);
    }

    /// Bytes `0, 1, …` scrambled by a fixed affine map: the golden input.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 + 7) as u8).collect()
    }

    #[test]
    fn checksum64_matches_its_golden_values() {
        // Every MDETAB02 file on disk carries these sums: a change here
        // orphans them all.
        assert_eq!(checksum64(b""), 0x6740_F088_57D4_1AD5);
        assert_eq!(checksum64(b"a"), 0xDDAA_1D94_9D2D_E730);
        assert_eq!(checksum64(&pattern(1000)), 0x9006_9C1C_535C_5F60);
    }

    #[test]
    fn checksum64_catches_every_single_bit_flip() {
        for len in 0..=96 {
            let bytes = pattern(len);
            let sum = checksum64(&bytes);
            for bit in 0..len * 8 {
                let mut flipped = bytes.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(checksum64(&flipped), sum, "length {len}, bit {bit}");
            }
        }
    }

    /// A 16 KiB frame's worth of seeded bytes.
    fn frame_bytes() -> Vec<u8> {
        let mut rng = crate::rng::rng_from_seed(0x4D44_4554_4142_3032);
        (0..16 * 1024).map(|_| rng.gen::<u64>() as u8).collect()
    }

    #[test]
    fn checksum64_catches_every_single_word_change() {
        let bytes = frame_bytes();
        let sum = checksum64(&bytes);
        crate::rng::for_cases(200, |rng| {
            let at = 8 * rng.gen_range(0..bytes.len() / 8);
            let old = le_word(&bytes[at..at + 8]);
            let new = loop {
                let w = rng.gen::<u64>();
                if w != old {
                    break w;
                }
            };
            let mut changed = bytes.clone();
            changed[at..at + 8].copy_from_slice(&new.to_le_bytes());
            assert_ne!(checksum64(&changed), sum, "word at byte {at}");
        });
    }

    #[test]
    fn checksum64_catches_swapped_words() {
        let bytes = frame_bytes();
        let sum = checksum64(&bytes);
        let words = bytes.len() / 8;
        crate::rng::for_cases(200, |rng| {
            let i = 8 * rng.gen_range(0..words);
            let j = 8 * rng.gen_range(0..words);
            if bytes[i..i + 8] == bytes[j..j + 8] {
                return;
            }
            let mut swapped = bytes.clone();
            swapped[i..i + 8].copy_from_slice(&bytes[j..j + 8]);
            swapped[j..j + 8].copy_from_slice(&bytes[i..i + 8]);
            assert_ne!(checksum64(&swapped), sum, "words at bytes {i} and {j}");
        });
    }
}
