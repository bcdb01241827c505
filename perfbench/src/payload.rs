//! Self-verifying payloads.
//!
//! Every 4 KiB block starts with a tag — `(client, seq, block)` plus a
//! check word — and the rest of the block is derived from the tag and
//! the run's seed. A block read back from the engine therefore proves
//! on its own that it is intact, and its tag says which update wrote it
//! and where in the blob it belongs.

use blobseer::Bytes;

/// Bytes per verified block.
pub const BLOCK: usize = 4096;
const WORDS: usize = BLOCK / 8;
const TAG_WORDS: usize = 3;

/// Who wrote a block and where it belongs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tag {
    /// Writing client (0 is the set-up ingest).
    pub client: u32,
    /// The client's update sequence number.
    pub seq: u32,
    /// Block index: within the update for appends, in the blob otherwise.
    pub block: u64,
}

/// SplitMix64 finaliser: the mixing step of every derived word.
#[inline]
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Small seeded generator for offsets; identical seeds give identical
/// streams.
pub struct Rng(u64);

impl Rng {
    /// Generator for stream `stream` of run seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(mix(seed ^ mix(stream.wrapping_add(0x5151))))
    }

    /// Next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (n > 0; the modulo bias is negligible here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn key(seed: u64, tag: Tag) -> u64 {
    mix(seed ^ mix((u64::from(tag.client) << 32) | u64::from(tag.seq)) ^ mix(tag.block))
}

fn write_block(out: &mut [u8], seed: u64, tag: Tag) {
    let k = key(seed, tag);
    let head = [(u64::from(tag.client) << 32) | u64::from(tag.seq), tag.block, k];
    for (i, chunk) in out.chunks_exact_mut(8).enumerate() {
        let w = if i < TAG_WORDS { head[i] } else { mix(k ^ i as u64) };
        chunk.copy_from_slice(&w.to_le_bytes());
    }
}

/// Generate `blocks` consecutive blocks for `(client, seq)`, with block
/// indices starting at `first_block`.
pub fn generate(seed: u64, client: u32, seq: u32, first_block: u64, blocks: usize) -> Bytes {
    let mut buf = vec![0u8; blocks * BLOCK];
    for (i, out) in buf.chunks_exact_mut(BLOCK).enumerate() {
        write_block(out, seed, Tag { client, seq, block: first_block + i as u64 });
    }
    Bytes::from(buf)
}

/// The tag of `block` if the block is self-consistent, `None` otherwise.
pub fn check_block(seed: u64, block: &[u8]) -> Option<Tag> {
    if block.len() != BLOCK {
        return None;
    }
    let word = |i: usize| u64::from_le_bytes(block[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
    let (cs, b) = (word(0), word(1));
    let tag = Tag { client: (cs >> 32) as u32, seq: cs as u32, block: b };
    let k = key(seed, tag);
    if word(2) != k {
        return None;
    }
    (TAG_WORDS..WORDS).all(|i| word(i) == mix(k ^ i as u64)).then_some(tag)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_blocks_verify_and_carry_their_tags() {
        let p = generate(7, 2, 9, 100, 3);
        for (i, b) in p.chunks(BLOCK).enumerate() {
            assert_eq!(check_block(7, b), Some(Tag { client: 2, seq: 9, block: 100 + i as u64 }));
        }
    }

    #[test]
    fn any_flipped_byte_or_other_seed_fails() {
        let p = generate(7, 1, 1, 0, 1).to_vec();
        assert_eq!(check_block(8, &p), None);
        for at in [0, 9, 17, 4095] {
            let mut bad = p.clone();
            bad[at] ^= 1;
            assert_eq!(check_block(7, &bad), None, "flip at {at}");
        }
    }
}
