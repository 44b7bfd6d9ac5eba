//! Word-packed bitsets for per-node / per-edge presence masks.
//!
//! The engine, the repair/maintenance layers and the checkpoint codec
//! all carry "one flag per node" (or per edge) masks. At million-node
//! scale a `Vec<bool>` spends a byte per flag and defeats cache locality
//! in the hot presence checks; [`BitSet`] packs 64 flags per word while
//! keeping the `mask[v]` read syntax via [`std::ops::Index`].
//!
//! Invariant: bits at positions `>= len` in the last word are always
//! zero, so equality, hashing and [`BitSet::count_ones`] are
//! well-defined on the logical length alone.

use std::fmt;

/// A fixed-length sequence of bits, packed 64 per word.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitSet {
    len: usize,
    words: Vec<u64>,
}

static TRUE: bool = true;
static FALSE: bool = false;

impl BitSet {
    /// An all-zero bitset of `len` bits.
    #[must_use]
    pub fn new(len: usize) -> BitSet {
        BitSet { len, words: vec![0; len.div_ceil(64)] }
    }

    /// A bitset of `len` bits, all equal to `value`.
    #[must_use]
    pub fn filled(len: usize, value: bool) -> BitSet {
        let mut b = BitSet::new(len);
        if value {
            for w in &mut b.words {
                *w = u64::MAX;
            }
            b.mask_tail();
        }
        b
    }

    /// Packs a `bool` slice.
    #[must_use]
    pub fn from_bools(bools: &[bool]) -> BitSet {
        let mut b = BitSet::new(bools.len());
        for (i, &v) in bools.iter().enumerate() {
            if v {
                b.words[i / 64] |= 1 << (i % 64);
            }
        }
        b
    }

    /// Builds a bitset of `len` bits from a predicate.
    #[must_use]
    pub fn from_fn(len: usize, mut f: impl FnMut(usize) -> bool) -> BitSet {
        let mut b = BitSet::new(len);
        for i in 0..len {
            if f(i) {
                b.words[i / 64] |= 1 << (i % 64);
            }
        }
        b
    }

    /// Unpacks into a `bool` vector (compatibility with `Vec<bool>` APIs).
    #[must_use]
    pub fn to_bools(&self) -> Vec<bool> {
        (0..self.len).map(|i| self.get(i)).collect()
    }

    /// Number of bits.
    #[must_use]
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitset has zero bits.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bit at `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[must_use]
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range ({} bits)", self.len);
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Sets the bit at `i` to `value`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit {i} out of range ({} bits)", self.len);
        if value {
            self.words[i / 64] |= 1 << (i % 64);
        } else {
            self.words[i / 64] &= !(1 << (i % 64));
        }
    }

    /// Number of set bits.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether any bit is set.
    #[must_use]
    pub fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// Whether every bit is set.
    #[must_use]
    pub fn all(&self) -> bool {
        self.count_ones() == self.len
    }

    /// Iterator over the bits in position order.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Iterator over the positions of set bits.
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len).filter(move |&i| self.get(i))
    }

    /// The backing words (64 bits each, little-endian bit order; tail
    /// bits beyond `len` are zero).
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Zeroes the bits at positions `>= len` in the last word.
    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Serializes as `len (u64 LE) ++ words (u64 LE each) ++ checksum
    /// (u64 LE)`: a self-delimiting, checksummed section for the
    /// checkpoint codec. Truncation and bit flips are both caught by
    /// [`BitSet::decode`].
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.len as u64).to_le_bytes());
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out.extend_from_slice(&self.checksum().to_le_bytes());
    }

    /// Serialized byte length of a `len`-bit set (see
    /// [`BitSet::encode_into`]).
    #[must_use]
    pub fn encoded_len(len: usize) -> usize {
        8 + 8 * len.div_ceil(64) + 8
    }

    /// Inverse of [`BitSet::encode_into`]: reads one section from the
    /// front of `bytes` and returns it with the number of bytes
    /// consumed.
    ///
    /// # Errors
    /// A static description of the first structural violation found:
    /// truncated header, truncated words, nonzero tail bits, or a
    /// checksum mismatch (any single bit flip is caught).
    pub fn decode(bytes: &[u8]) -> Result<(BitSet, usize), &'static str> {
        if bytes.len() < 8 {
            return Err("bitset header truncated");
        }
        let len = u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"));
        let len = usize::try_from(len).map_err(|_| "bitset length overflows usize")?;
        let n_words = len.div_ceil(64);
        let need = 8 + 8 * n_words + 8;
        if bytes.len() < need {
            return Err("bitset body truncated");
        }
        let mut words = Vec::with_capacity(n_words);
        for i in 0..n_words {
            let at = 8 + 8 * i;
            words.push(u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes")));
        }
        let sum_at = 8 + 8 * n_words;
        let sum = u64::from_le_bytes(bytes[sum_at..sum_at + 8].try_into().expect("8 bytes"));
        let out = BitSet { len, words };
        let tail = len % 64;
        if tail != 0 {
            if let Some(&last) = out.words.last() {
                if last & !((1u64 << tail) - 1) != 0 {
                    return Err("bitset tail bits nonzero");
                }
            }
        }
        if out.checksum() != sum {
            return Err("bitset checksum mismatch");
        }
        Ok((out, need))
    }

    /// FNV-1a over the length and words, whitened; one flipped bit
    /// anywhere in the section changes the sum.
    fn checksum(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |x: u64| {
            for b in x.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(self.len as u64);
        for &w in &self.words {
            eat(w);
        }
        h ^ 0x5bd1_e995_9d1b_54a5
    }
}

impl std::ops::Index<usize> for BitSet {
    type Output = bool;

    #[inline]
    fn index(&self, i: usize) -> &bool {
        if self.get(i) {
            &TRUE
        } else {
            &FALSE
        }
    }
}

impl fmt::Debug for BitSet {
    /// Bounded output even for million-bit masks.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitSet({} bits, {} set)", self.len, self.count_ones())
    }
}

impl From<&[bool]> for BitSet {
    fn from(bools: &[bool]) -> BitSet {
        BitSet::from_bools(bools)
    }
}

impl From<Vec<bool>> for BitSet {
    fn from(bools: Vec<bool>) -> BitSet {
        BitSet::from_bools(&bools)
    }
}

impl FromIterator<bool> for BitSet {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> BitSet {
        let bools: Vec<bool> = iter.into_iter().collect();
        BitSet::from_bools(&bools)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_set_roundtrip_across_word_boundaries() {
        let mut b = BitSet::new(130);
        for i in [0, 1, 63, 64, 65, 127, 128, 129] {
            assert!(!b.get(i));
            b.set(i, true);
            assert!(b.get(i));
            assert!(b[i]);
        }
        assert_eq!(b.count_ones(), 8);
        b.set(64, false);
        assert!(!b.get(64));
        assert_eq!(b.count_ones(), 7);
    }

    #[test]
    fn filled_masks_tail_bits() {
        let b = BitSet::filled(70, true);
        assert_eq!(b.count_ones(), 70);
        assert!(b.all());
        assert_eq!(*b.words().last().unwrap() >> 6, 0, "tail bits must be zero");
        assert!(!BitSet::filled(70, false).any());
    }

    #[test]
    fn bools_roundtrip_and_equality() {
        let bools: Vec<bool> = (0..100).map(|i| i % 3 == 0).collect();
        let b = BitSet::from_bools(&bools);
        assert_eq!(b.to_bools(), bools);
        assert_eq!(b, BitSet::from_fn(100, |i| i % 3 == 0));
        assert_eq!(b.ones().collect::<Vec<_>>(), (0..100).step_by(3).collect::<Vec<_>>());
        assert!(b.iter().zip(&bools).all(|(a, &e)| a == e));
    }

    #[test]
    fn codec_roundtrips() {
        for len in [0usize, 1, 63, 64, 65, 1000] {
            let b = BitSet::from_fn(len, |i| i % 7 == 2);
            let mut bytes = Vec::new();
            b.encode_into(&mut bytes);
            assert_eq!(bytes.len(), BitSet::encoded_len(len));
            let (back, used) = BitSet::decode(&bytes).unwrap();
            assert_eq!(used, bytes.len());
            assert_eq!(back, b);
        }
    }

    #[test]
    fn codec_detects_truncation_and_bit_flips() {
        let b = BitSet::from_fn(129, |i| i % 2 == 0);
        let mut bytes = Vec::new();
        b.encode_into(&mut bytes);
        // Truncation at every boundary short of complete.
        for cut in 0..bytes.len() {
            assert!(BitSet::decode(&bytes[..cut]).is_err(), "cut at {cut} must fail");
        }
        // Any single bit flip is caught (checksum or tail-bit check).
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[byte] ^= 1 << bit;
                assert!(BitSet::decode(&bad).is_err(), "flip {byte}:{bit} must fail");
            }
        }
    }
}
