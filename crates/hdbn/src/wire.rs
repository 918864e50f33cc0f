//! Compact binary codec for parked decoder state.
//!
//! The JSON parked-stream payload is self-describing and diffable, but a
//! serving tier that parks and rehydrates thousands of homes per second
//! pays for every quote and decimal digit. This module provides the
//! length-prefixed little-endian binary alternative: floats as raw IEEE
//! bits (bit-exact by construction, including `±inf` trellis scores),
//! integers as LEB128 varints (state ids and lengths are small — one
//! byte almost always), vectors as a varint length prefix followed by
//! elements. No field names, no self-description —
//! the envelope's version token *is* the schema version, and the
//! checksummed snapshot header detects corruption before decode.
//!
//! Decoding is **panic-free and allocation-bounded on malformed input**:
//! every length prefix is checked against the bytes actually remaining
//! before any buffer is reserved, and every read past the end surfaces as
//! [`ModelError::Persistence`]. (Structural validation against a model —
//! index bounds, cursor invariants — still happens at resume, exactly as
//! for JSON payloads; this layer only guarantees the bytes parse.)
//!
//! The codec is on the serving tier's eviction path, so both directions
//! are written for throughput: the writer can be pre-sized, integer
//! sequences are written and read in one loop each (one- and two-byte
//! varints — almost every id, length and backpointer — decode inline),
//! float sequences move as one bounds check plus a tight conversion loop,
//! and the one decoder per parked type, `decode_into`, writes into the
//! capacity of an existing value (`decode_from` is a default value plus
//! `decode_into`).
//!
//! The [`ByteWriter`]/[`ByteReader`] primitives and the codecs for the
//! crate-public config types ([`Lag`], [`Beam`], [`DecoderConfig`],
//! [`MicroCandidate`]) are public so `cace-core` can embed the parked
//! decoder payloads written here inside its own stream envelope.

use cace_model::ModelError;

use crate::arena::Slice;
use crate::beam::{Beam, DecoderConfig};
use crate::input::MicroCandidate;
use crate::online::Lag;
use crate::park::{ParkedChain, ParkedCoupled};
use crate::scalar::Precision;
use crate::trellis::RECYCLE_FLOOR;

fn decode_err(what: impl Into<String>) -> ModelError {
    ModelError::Persistence { what: what.into() }
}

/// Little-endian binary payload writer. Append-only; finish with
/// [`into_bytes`](Self::into_bytes).
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A writer that appends to `buf` (whose bytes and spare capacity it
    /// keeps), so a caller can pre-size it or reserve a prefix.
    pub fn from_vec(buf: Vec<u8>) -> Self {
        Self { buf }
    }

    /// The accumulated payload bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    #[inline]
    pub fn write_u8(&mut self, x: u8) {
        self.buf.push(x);
    }

    /// Appends a bool as one byte (`0`/`1`).
    #[inline]
    pub fn write_bool(&mut self, x: bool) {
        self.write_u8(u8::from(x));
    }

    /// Appends a `u32` as a LEB128 varint.
    #[inline]
    pub fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    /// Appends a `u64` as a LEB128 varint (1 byte per 7 value bits, low
    /// bits first — small ids and lengths cost one byte).
    #[inline]
    pub fn write_u64(&mut self, mut x: u64) {
        if x < 0x80 {
            self.buf.push(x as u8);
            return;
        }
        while x >= 0x80 {
            self.buf.push((x as u8) | 0x80);
            x >>= 7;
        }
        self.buf.push(x as u8);
    }

    /// Appends a `usize` as a `u64` varint (the format is 64-bit
    /// regardless of host width).
    #[inline]
    pub fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    /// Appends an `f64` as its raw IEEE bits, fixed-width little-endian —
    /// bit-exact round-trip, non-finite values included.
    #[inline]
    pub fn write_f64(&mut self, x: f64) {
        self.buf.extend_from_slice(&x.to_bits().to_le_bytes());
    }

    /// Appends an `f32` as its raw IEEE bits, fixed-width little-endian.
    #[inline]
    pub fn write_f32(&mut self, x: f32) {
        self.buf.extend_from_slice(&x.to_bits().to_le_bytes());
    }

    /// Appends an `Option<usize>` as a presence byte plus the value.
    #[inline]
    pub fn write_opt_usize(&mut self, x: Option<usize>) {
        match x {
            None => self.write_u8(0),
            Some(v) => {
                self.write_u8(1);
                self.write_usize(v);
            }
        }
    }

    /// Appends an `f64` slice (length prefix, then raw IEEE bits).
    pub fn write_f64s(&mut self, xs: &[f64]) {
        self.write_usize(xs.len());
        self.buf.reserve(8 * xs.len());
        for x in xs {
            self.buf.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    }

    /// Appends an `f32` slice (length prefix, then raw IEEE bits).
    pub fn write_f32s(&mut self, xs: &[f32]) {
        self.write_usize(xs.len());
        self.buf.reserve(4 * xs.len());
        for x in xs {
            self.buf.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    }

    /// Appends a slice of unsigned integers as a length prefix followed by
    /// one varint each — the encoding `write_seq` with
    /// [`write_u64`](Self::write_u64) produces, written in one tight loop
    /// over a pre-reserved buffer.
    pub fn write_varints<T: Varint>(&mut self, xs: &[T]) {
        self.write_usize(xs.len());
        self.buf.reserve(xs.len());
        for &x in xs {
            self.write_u64(x.to_u64());
        }
    }

    /// Appends a slice as a `u64` length prefix followed by elements.
    pub fn write_seq<T>(&mut self, items: &[T], mut write: impl FnMut(&mut Self, &T)) {
        self.write_u64(items.len() as u64);
        for item in items {
            write(self, item);
        }
    }
}

/// Bounds-checked reader over a binary payload produced by
/// [`ByteWriter`]. Every read returns [`ModelError::Persistence`] on
/// truncated input instead of panicking.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over the whole payload.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], ModelError> {
        match self
            .pos
            .checked_add(n)
            .and_then(|end| self.buf.get(self.pos..end))
        {
            Some(bytes) => {
                self.pos += n;
                Ok(bytes)
            }
            None => Err(decode_err(format!(
                "binary payload truncated: need {n} bytes at offset {}, {} remain",
                self.pos,
                self.remaining()
            ))),
        }
    }

    /// Reads `N` raw bytes as an array.
    #[inline]
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], ModelError> {
        let bytes = self.take(N)?;
        <[u8; N]>::try_from(bytes).map_err(|_| decode_err("fixed-width read".to_string()))
    }

    /// Fails unless every payload byte was consumed — trailing garbage is
    /// corruption, not padding.
    ///
    /// # Errors
    /// [`ModelError::Persistence`] when bytes remain.
    pub fn expect_end(&self) -> Result<(), ModelError> {
        if self.remaining() != 0 {
            return Err(decode_err(format!(
                "binary payload has {} trailing bytes",
                self.remaining()
            )));
        }
        Ok(())
    }

    /// Reads one byte.
    ///
    /// # Errors
    /// [`ModelError::Persistence`] on truncated input.
    #[inline]
    pub fn read_u8(&mut self) -> Result<u8, ModelError> {
        let [b] = self.take_array()?;
        Ok(b)
    }

    /// Reads a bool byte, rejecting anything but `0`/`1`.
    ///
    /// # Errors
    /// [`ModelError::Persistence`] on truncation or a non-bool byte.
    #[inline]
    pub fn read_bool(&mut self) -> Result<bool, ModelError> {
        match self.read_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(decode_err(format!("invalid bool byte {b}"))),
        }
    }

    /// Reads a `u32` varint.
    ///
    /// # Errors
    /// [`ModelError::Persistence`] on truncation or a value that does not
    /// fit 32 bits.
    #[inline]
    pub fn read_u32(&mut self) -> Result<u32, ModelError> {
        u32::try_from(self.read_u64()?)
            .map_err(|_| decode_err("u32 field exceeds 32 bits".to_string()))
    }

    /// Reads a LEB128 `u64` varint.
    ///
    /// # Errors
    /// [`ModelError::Persistence`] on truncated or overlong input.
    #[inline]
    pub fn read_u64(&mut self) -> Result<u64, ModelError> {
        // One-byte fast path: almost every id and length is below 128.
        if let Some(&b) = self.buf.get(self.pos) {
            if b < 0x80 {
                self.pos += 1;
                return Ok(u64::from(b));
            }
        }
        let mut x = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.read_u8()?;
            if shift == 63 && b > 1 {
                return Err(decode_err("varint exceeds 64 bits".to_string()));
            }
            x |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(x);
            }
            shift += 7;
        }
    }

    /// Reads a `u64` and narrows it to the host's `usize`.
    ///
    /// # Errors
    /// [`ModelError::Persistence`] on truncation or a value exceeding the
    /// host's address width.
    #[inline]
    pub fn read_usize(&mut self) -> Result<usize, ModelError> {
        usize::try_from(self.read_u64()?)
            .map_err(|_| decode_err("usize field exceeds host width".to_string()))
    }

    /// Reads an `f64` from fixed-width raw IEEE bits.
    ///
    /// # Errors
    /// [`ModelError::Persistence`] on truncated input.
    #[inline]
    pub fn read_f64(&mut self) -> Result<f64, ModelError> {
        Ok(f64::from_bits(u64::from_le_bytes(self.take_array()?)))
    }

    /// Reads an `f32` from fixed-width raw IEEE bits.
    ///
    /// # Errors
    /// [`ModelError::Persistence`] on truncated input.
    #[inline]
    pub fn read_f32(&mut self) -> Result<f32, ModelError> {
        Ok(f32::from_bits(u32::from_le_bytes(self.take_array()?)))
    }

    /// Reads an `Option<usize>` (presence byte + value).
    ///
    /// # Errors
    /// [`ModelError::Persistence`] on truncation or a malformed presence
    /// byte.
    #[inline]
    pub fn read_opt_usize(&mut self) -> Result<Option<usize>, ModelError> {
        Ok(match self.read_bool()? {
            false => None,
            true => Some(self.read_usize()?),
        })
    }

    /// Reads a sequence length prefix and checks it against the bytes
    /// actually remaining, given that one element encodes to at least
    /// `elem_min_bytes` — so a tampered length cannot request an absurd
    /// reservation.
    ///
    /// # Errors
    /// [`ModelError::Persistence`] on truncation or an impossible length.
    pub fn read_len(&mut self, elem_min_bytes: usize) -> Result<usize, ModelError> {
        let len = self.read_usize()?;
        let floor = len.checked_mul(elem_min_bytes.max(1));
        if floor.is_none_or(|f| f > self.remaining()) {
            return Err(decode_err(format!(
                "binary payload declares {len} elements but only {} bytes remain",
                self.remaining()
            )));
        }
        Ok(len)
    }

    /// Reads a length-prefixed sequence into `out`, replacing its contents
    /// and reusing its capacity. The length is checked (see
    /// [`read_len`](Self::read_len)) **before** any allocation.
    ///
    /// # Errors
    /// [`ModelError::Persistence`] on truncation, an impossible length,
    /// or an element decode failure.
    pub fn read_seq_into<T>(
        &mut self,
        out: &mut Vec<T>,
        elem_min_bytes: usize,
        mut read: impl FnMut(&mut Self) -> Result<T, ModelError>,
    ) -> Result<(), ModelError> {
        let len = self.read_len(elem_min_bytes)?;
        refill(out, len);
        for _ in 0..len {
            out.push(read(self)?);
        }
        Ok(())
    }

    /// [`read_seq_into`](Self::read_seq_into) a fresh `Vec`.
    ///
    /// # Errors
    /// Those of [`read_seq_into`](Self::read_seq_into).
    pub fn read_seq<T>(
        &mut self,
        elem_min_bytes: usize,
        read: impl FnMut(&mut Self) -> Result<T, ModelError>,
    ) -> Result<Vec<T>, ModelError> {
        let mut out = Vec::new();
        self.read_seq_into(&mut out, elem_min_bytes, read)?;
        Ok(out)
    }

    /// Reads a sequence written by [`ByteWriter::write_varints`] into
    /// `out`, reusing its capacity, in one loop that decodes the common
    /// one- and two-byte elements inline.
    ///
    /// # Errors
    /// [`ModelError::Persistence`] on truncation, an impossible length,
    /// or an element too wide for `T`.
    pub fn read_varints_into<T: Varint>(&mut self, out: &mut Vec<T>) -> Result<(), ModelError> {
        let len = self.read_len(1)?;
        refill(out, len);
        let buf = self.buf;
        for _ in 0..len {
            // One- and two-byte values (ids, lengths, backpointers below
            // 2^14) decode inline; anything longer takes `read_u64`.
            let x = match (buf.get(self.pos), buf.get(self.pos + 1)) {
                (Some(&b), _) if b < 0x80 => {
                    self.pos += 1;
                    T::from_u16(u16::from(b))
                }
                (Some(&b), Some(&c)) if c < 0x80 => {
                    self.pos += 2;
                    T::from_u16(u16::from(b & 0x7f) | (u16::from(c) << 7))
                }
                _ => {
                    let x = self.read_u64()?;
                    T::from_u64(x)
                        .ok_or_else(|| decode_err(format!("varint {x} exceeds its element type")))?
                }
            };
            out.push(x);
        }
        Ok(())
    }

    /// Reads an `f64` sequence written by [`ByteWriter::write_f64s`] into
    /// `out`, reusing its capacity: one bounds check for the whole run.
    ///
    /// # Errors
    /// [`ModelError::Persistence`] on truncation or an impossible length.
    pub fn read_f64s_into(&mut self, out: &mut Vec<f64>) -> Result<(), ModelError> {
        let len = self.read_len(8)?;
        let bytes = self.take(8 * len)?;
        refill(out, len);
        out.extend(bytes.chunks_exact(8).map(|c| {
            let mut b = [0u8; 8];
            b.copy_from_slice(c);
            f64::from_bits(u64::from_le_bytes(b))
        }));
        Ok(())
    }

    /// `f32` counterpart of [`read_f64s_into`](Self::read_f64s_into).
    ///
    /// # Errors
    /// [`ModelError::Persistence`] on truncation or an impossible length.
    pub fn read_f32s_into(&mut self, out: &mut Vec<f32>) -> Result<(), ModelError> {
        let len = self.read_len(4)?;
        let bytes = self.take(4 * len)?;
        refill(out, len);
        out.extend(bytes.chunks_exact(4).map(|c| {
            let mut b = [0u8; 4];
            b.copy_from_slice(c);
            f32::from_bits(u32::from_le_bytes(b))
        }));
        Ok(())
    }
}

/// An unsigned integer the codec writes as a LEB128 varint (ids, lengths,
/// backpointers); `usize` travels as `u64` regardless of host width.
pub trait Varint: Copy {
    /// Widens to the wire value.
    fn to_u64(self) -> u64;
    /// Narrows a wire value, `None` when it does not fit.
    fn from_u64(x: u64) -> Option<Self>;
    /// A one- or two-byte wire value (always fits).
    fn from_u16(x: u16) -> Self;
}

impl Varint for u32 {
    #[inline]
    fn to_u64(self) -> u64 {
        u64::from(self)
    }
    #[inline]
    fn from_u64(x: u64) -> Option<Self> {
        u32::try_from(x).ok()
    }
    #[inline]
    fn from_u16(x: u16) -> Self {
        u32::from(x)
    }
}

impl Varint for usize {
    #[inline]
    fn to_u64(self) -> u64 {
        self as u64
    }
    #[inline]
    fn from_u64(x: u64) -> Option<Self> {
        usize::try_from(x).ok()
    }
    #[inline]
    fn from_u16(x: u16) -> Self {
        usize::from(x)
    }
}

/// Empties a recycled buffer for a refill of `len` elements, keeping its
/// capacity unless that is more than twice what the refill needs (with a
/// floor of [`RECYCLE_FLOOR`]): a buffer sized for some much larger earlier
/// value is released rather than kept.
fn refill<T>(out: &mut Vec<T>, len: usize) {
    if out.capacity() > 2 * len.max(RECYCLE_FLOOR) {
        *out = Vec::with_capacity(len);
    } else {
        out.clear();
        out.reserve(len);
    }
}

/// Encodes a [`Lag`].
pub fn write_lag(w: &mut ByteWriter, lag: Lag) {
    match lag {
        Lag::Unbounded => w.write_u8(0),
        Lag::Fixed(l) => {
            w.write_u8(1);
            w.write_usize(l);
        }
    }
}

/// Decodes a [`Lag`].
///
/// # Errors
/// [`ModelError::Persistence`] on truncation or an unknown tag.
pub fn read_lag(r: &mut ByteReader<'_>) -> Result<Lag, ModelError> {
    match r.read_u8()? {
        0 => Ok(Lag::Unbounded),
        1 => Ok(Lag::Fixed(r.read_usize()?)),
        t => Err(decode_err(format!("unknown lag tag {t}"))),
    }
}

/// Encodes a [`Precision`].
pub fn write_precision(w: &mut ByteWriter, p: Precision) {
    w.write_u8(match p {
        Precision::Exact64 => 0,
        Precision::Fast32 => 1,
    });
}

/// Decodes a [`Precision`].
///
/// # Errors
/// [`ModelError::Persistence`] on truncation or an unknown tag.
pub fn read_precision(r: &mut ByteReader<'_>) -> Result<Precision, ModelError> {
    match r.read_u8()? {
        0 => Ok(Precision::Exact64),
        1 => Ok(Precision::Fast32),
        t => Err(decode_err(format!("unknown precision tag {t}"))),
    }
}

/// Encodes a [`Beam`].
pub fn write_beam(w: &mut ByteWriter, beam: Beam) {
    match beam {
        Beam::Exact => w.write_u8(0),
        Beam::TopK(k) => {
            w.write_u8(1);
            w.write_usize(k);
        }
        Beam::LogThreshold(d) => {
            w.write_u8(2);
            w.write_f64(d);
        }
    }
}

/// Decodes a [`Beam`].
///
/// # Errors
/// [`ModelError::Persistence`] on truncation or an unknown tag.
pub fn read_beam(r: &mut ByteReader<'_>) -> Result<Beam, ModelError> {
    match r.read_u8()? {
        0 => Ok(Beam::Exact),
        1 => Ok(Beam::TopK(r.read_usize()?)),
        2 => Ok(Beam::LogThreshold(r.read_f64()?)),
        t => Err(decode_err(format!("unknown beam tag {t}"))),
    }
}

/// Encodes a [`DecoderConfig`].
pub fn write_decoder(w: &mut ByteWriter, d: DecoderConfig) {
    write_beam(w, d.beam);
    write_precision(w, d.precision);
}

/// Decodes a [`DecoderConfig`].
///
/// # Errors
/// [`ModelError::Persistence`] on truncation or an unknown tag.
pub fn read_decoder(r: &mut ByteReader<'_>) -> Result<DecoderConfig, ModelError> {
    Ok(DecoderConfig {
        beam: read_beam(r)?,
        precision: read_precision(r)?,
    })
}

/// Encodes a [`MicroCandidate`].
pub fn write_cand(w: &mut ByteWriter, c: &MicroCandidate) {
    w.write_usize(c.postural);
    w.write_opt_usize(c.gestural);
    w.write_usize(c.location);
    w.write_f64(c.obs_loglik);
}

/// Decodes a [`MicroCandidate`].
///
/// # Errors
/// [`ModelError::Persistence`] on truncated input.
pub fn read_cand(r: &mut ByteReader<'_>) -> Result<MicroCandidate, ModelError> {
    Ok(MicroCandidate {
        postural: r.read_usize()?,
        gestural: r.read_opt_usize()?,
        location: r.read_usize()?,
        obs_loglik: r.read_f64()?,
    })
}

fn write_slice(w: &mut ByteWriter, s: &Slice) {
    w.write_varints(&s.activities);
    w.write_varints(&s.cands);
    w.write_varints(&s.pairs);
    w.write_f64s(&s.emissions);
    w.write_varints(&s.uniq_pairs);
    w.write_varints(&s.slots);
    w.write_seq(&s.runs, |w, &(a, s, e)| {
        w.write_u32(a);
        w.write_u32(s);
        w.write_u32(e);
    });
}

fn read_slice_into(r: &mut ByteReader<'_>, s: &mut Slice) -> Result<(), ModelError> {
    r.read_varints_into(&mut s.activities)?;
    r.read_varints_into(&mut s.cands)?;
    r.read_varints_into(&mut s.pairs)?;
    r.read_f64s_into(&mut s.emissions)?;
    r.read_varints_into(&mut s.uniq_pairs)?;
    r.read_varints_into(&mut s.slots)?;
    r.read_seq_into(&mut s.runs, 3, |r| {
        Ok((r.read_u32()?, r.read_u32()?, r.read_u32()?))
    })
}

/// Encoded size floor of one [`MicroCandidate`] (three one-byte fields
/// plus the raw `f64`).
const CAND_MIN_BYTES: usize = 11;

impl ParkedCoupled {
    /// Appends this checkpoint's binary encoding to `w`.
    pub fn encode_into(&self, w: &mut ByteWriter) {
        w.write_f64s(&self.v);
        w.write_f32s(&self.v32);
        w.write_seq(&self.window, |w, e| {
            write_slice(w, &e.s1);
            write_slice(w, &e.s2);
            w.write_varints(&e.back);
            for cands in &e.cands {
                w.write_seq(cands, write_cand);
            }
        });
        w.write_usize(self.base);
        w.write_usize(self.pushed);
        for emitted in &self.emitted_macros {
            w.write_varints(emitted);
        }
        for emitted in &self.emitted_micros {
            w.write_seq(emitted, write_cand);
        }
        w.write_u64(self.states_explored);
        w.write_u64(self.transition_ops);
        w.write_bool(self.pruned);
        w.write_varints(&self.keep);
    }

    /// Decodes a checkpoint written by [`encode_into`](Self::encode_into)
    /// into `self`, overwriting every serialized field and reusing the
    /// capacity of its buffers (window entries come from and go to its
    /// spare's pool). On error `self` is left partly overwritten — fit
    /// only as the target of another decode.
    ///
    /// # Errors
    /// [`ModelError::Persistence`] on malformed bytes. (Structural
    /// validation against a model still happens at resume.)
    pub fn decode_into(&mut self, r: &mut ByteReader<'_>) -> Result<(), ModelError> {
        r.read_f64s_into(&mut self.v)?;
        r.read_f32s_into(&mut self.v32)?;
        let len = r.read_len(1)?;
        self.spare.fit_window(&mut self.window, len);
        for e in &mut self.window {
            read_slice_into(r, &mut e.s1)?;
            read_slice_into(r, &mut e.s2)?;
            r.read_varints_into(&mut e.back)?;
            for cands in &mut e.cands {
                r.read_seq_into(cands, CAND_MIN_BYTES, read_cand)?;
            }
        }
        self.base = r.read_usize()?;
        self.pushed = r.read_usize()?;
        for emitted in &mut self.emitted_macros {
            r.read_varints_into(emitted)?;
        }
        for emitted in &mut self.emitted_micros {
            r.read_seq_into(emitted, CAND_MIN_BYTES, read_cand)?;
        }
        self.states_explored = r.read_u64()?;
        self.transition_ops = r.read_u64()?;
        self.pruned = r.read_bool()?;
        r.read_varints_into(&mut self.keep)
    }

    /// Decodes a fresh checkpoint: a default value plus
    /// [`decode_into`](Self::decode_into).
    ///
    /// # Errors
    /// Those of [`decode_into`](Self::decode_into).
    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, ModelError> {
        let mut parked = Self::default();
        parked.decode_into(r)?;
        Ok(parked)
    }
}

impl ParkedChain {
    /// Appends this checkpoint's binary encoding to `w`.
    pub fn encode_into(&self, w: &mut ByteWriter) {
        w.write_f64s(&self.v);
        w.write_f32s(&self.v32);
        w.write_seq(&self.window, |w, e| {
            write_slice(w, &e.slice);
            w.write_varints(&e.back);
            w.write_seq(&e.cands, write_cand);
        });
        w.write_usize(self.base);
        w.write_usize(self.pushed);
        w.write_varints(&self.emitted_macros);
        w.write_seq(&self.emitted_micros, write_cand);
        w.write_u64(self.states_explored);
        w.write_u64(self.transition_ops);
        w.write_bool(self.pruned);
        w.write_varints(&self.keep);
    }

    /// Single-chain counterpart of [`ParkedCoupled::decode_into`].
    ///
    /// # Errors
    /// [`ModelError::Persistence`] on malformed bytes.
    pub fn decode_into(&mut self, r: &mut ByteReader<'_>) -> Result<(), ModelError> {
        r.read_f64s_into(&mut self.v)?;
        r.read_f32s_into(&mut self.v32)?;
        let len = r.read_len(1)?;
        self.spare.fit_window(&mut self.window, len);
        for e in &mut self.window {
            read_slice_into(r, &mut e.slice)?;
            r.read_varints_into(&mut e.back)?;
            r.read_seq_into(&mut e.cands, CAND_MIN_BYTES, read_cand)?;
        }
        self.base = r.read_usize()?;
        self.pushed = r.read_usize()?;
        r.read_varints_into(&mut self.emitted_macros)?;
        r.read_seq_into(&mut self.emitted_micros, CAND_MIN_BYTES, read_cand)?;
        self.states_explored = r.read_u64()?;
        self.transition_ops = r.read_u64()?;
        self.pruned = r.read_bool()?;
        r.read_varints_into(&mut self.keep)
    }

    /// A default value plus [`decode_into`](Self::decode_into).
    ///
    /// # Errors
    /// Those of [`decode_into`](Self::decode_into).
    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, ModelError> {
        let mut parked = Self::default();
        parked.decode_into(r)?;
        Ok(parked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip_bit_exactly() {
        let mut w = ByteWriter::new();
        w.write_u8(7);
        w.write_bool(true);
        w.write_u32(0xdead_beef);
        w.write_u64(u64::MAX);
        w.write_usize(42);
        w.write_f64(f64::NEG_INFINITY);
        w.write_f64(-0.0);
        w.write_f32(f32::INFINITY);
        w.write_opt_usize(None);
        w.write_opt_usize(Some(9));
        w.write_seq(&[1u32, 2, 3], |w, &x| w.write_u32(x));
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.read_u8().unwrap(), 7);
        assert!(r.read_bool().unwrap());
        assert_eq!(r.read_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.read_u64().unwrap(), u64::MAX);
        assert_eq!(r.read_usize().unwrap(), 42);
        assert_eq!(r.read_f64().unwrap(), f64::NEG_INFINITY);
        assert_eq!(r.read_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.read_f32().unwrap(), f32::INFINITY);
        assert_eq!(r.read_opt_usize().unwrap(), None);
        assert_eq!(r.read_opt_usize().unwrap(), Some(9));
        assert_eq!(r.read_seq(1, ByteReader::read_u32).unwrap(), vec![1, 2, 3]);
        r.expect_end().unwrap();
    }

    #[test]
    fn truncation_and_bad_tags_error_instead_of_panicking() {
        let mut r = ByteReader::new(&[1, 2]);
        assert!(r.read_f64().is_err());
        let mut r = ByteReader::new(&[0x80]);
        assert!(r.read_u64().is_err());
        let mut r = ByteReader::new(&[9]);
        assert!(r.read_bool().is_err());
        // A length prefix claiming more elements than bytes remain is
        // rejected before any allocation.
        let mut w = ByteWriter::new();
        w.write_u64(u64::MAX / 2);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(r.read_seq(8, ByteReader::read_f64).is_err());
        // An overlong varint is malformed, not silently wrapped.
        let mut r = ByteReader::new(&[0xff; 10]);
        assert!(r.read_u64().is_err());
        // Trailing bytes are corruption.
        let r = ByteReader::new(&[0]);
        assert!(r.expect_end().is_err());
        // Unknown enum tags.
        assert!(read_lag(&mut ByteReader::new(&[7])).is_err());
        assert!(read_beam(&mut ByteReader::new(&[7])).is_err());
        assert!(read_precision(&mut ByteReader::new(&[7])).is_err());
    }

    #[test]
    fn config_enums_round_trip() {
        let lags = [Lag::Unbounded, Lag::Fixed(5)];
        let beams = [Beam::Exact, Beam::TopK(56), Beam::LogThreshold(-3.5)];
        for &lag in &lags {
            for &beam in &beams {
                for precision in [Precision::Exact64, Precision::Fast32] {
                    let mut w = ByteWriter::new();
                    write_lag(&mut w, lag);
                    write_decoder(&mut w, DecoderConfig { beam, precision });
                    write_cand(
                        &mut w,
                        &MicroCandidate {
                            postural: 3,
                            gestural: Some(1),
                            location: 2,
                            obs_loglik: -1.25,
                        },
                    );
                    let bytes = w.into_bytes();
                    let mut r = ByteReader::new(&bytes);
                    assert_eq!(read_lag(&mut r).unwrap(), lag);
                    let d = read_decoder(&mut r).unwrap();
                    assert_eq!(d.beam, beam);
                    assert_eq!(d.precision, precision);
                    let c = read_cand(&mut r).unwrap();
                    assert_eq!((c.postural, c.gestural, c.location), (3, Some(1), 2));
                    assert_eq!(c.obs_loglik.to_bits(), (-1.25f64).to_bits());
                    r.expect_end().unwrap();
                }
            }
        }
    }
}
