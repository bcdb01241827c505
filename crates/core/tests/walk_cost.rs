//! The metadata walk's cost, pinned in DHT gets and provider reads.
//!
//! A read of one page from a pinned `Snapshot` walks one root-to-leaf
//! path of the segment tree: a tree over 4096 pages has depth 12, so
//! the walk fetches 13 nodes, and the page itself costs one provider
//! read. A vectored read whose ranges share a leaf walks that path
//! once, not once per range.

use blobseer::{BlobSeer, ByteRange, Snapshot};

const PSIZE: u64 = 4096;
const PAGES: u64 = 4096;
/// Nodes on a root-to-leaf path of a 4096-page tree (depth + 1).
const PATH_NODES: u64 = 13;

fn gets(s: &BlobSeer) -> u64 {
    s.stats().metadata.total_gets
}

fn provider_reads(s: &BlobSeer) -> u64 {
    s.stats().providers.iter().map(|p| p.reads).sum()
}

/// A `PAGES`-page blob, filled by [`byte_at`], pinned at its version.
fn pinned_blob() -> (BlobSeer, Snapshot) {
    let s = BlobSeer::builder()
        .page_size(PSIZE)
        .data_providers(4)
        .metadata_providers(4)
        .io_threads(2)
        .build()
        .unwrap();
    let blob = s.create();
    let data: Vec<u8> = (0..PAGES * PSIZE).map(byte_at).collect();
    let v = blob.append(&data).unwrap();
    blob.sync(v).unwrap();
    let snap = blob.snapshot(v).unwrap();
    assert_eq!(snap.len(), PAGES * PSIZE);
    (s, snap)
}

fn byte_at(offset: u64) -> u8 {
    ((offset / PSIZE) ^ offset) as u8
}

fn expected(range: ByteRange) -> Vec<u8> {
    (range.offset..range.end()).map(byte_at).collect()
}

#[test]
fn a_one_page_read_walks_one_path_and_fetches_one_page() {
    let (s, snap) = pinned_blob();
    for page in [0, 1, PAGES / 2 - 1, PAGES / 2, PAGES - 1] {
        let range = ByteRange::new(page * PSIZE, PSIZE);
        let (gets_before, reads_before) = (gets(&s), provider_reads(&s));
        let got = snap.read(range).unwrap();
        assert_eq!(got.as_ref(), &expected(range)[..], "page {page}");
        assert_eq!(gets(&s) - gets_before, PATH_NODES, "page {page}: DHT gets");
        assert_eq!(provider_reads(&s) - reads_before, 1, "page {page}: provider reads");
    }
}

#[test]
fn a_readv_inside_one_leaf_walks_the_path_once() {
    let (s, snap) = pinned_blob();
    let leaf = PAGES / 3;
    let ranges = [ByteRange::new(leaf * PSIZE, 100), ByteRange::new(leaf * PSIZE + 1000, 2000)];
    let before = gets(&s);
    let got = snap.readv(&ranges).unwrap();
    let spent = gets(&s) - before;
    for (read, range) in got.into_iter().zip(ranges) {
        assert_eq!(read.into_bytes().as_ref(), &expected(range)[..]);
    }
    assert!(spent < 2 * PATH_NODES, "two ranges in one leaf cost {spent} gets");
}
