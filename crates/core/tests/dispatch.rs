//! Chunked fork-join dispatch, seen from the engine: every parallel
//! fan-out boxes at most one pool job per I/O thread, however many
//! pages or tree nodes it covers (`blobseer_rt::parallel_map`).
//!
//! Fan-outs per operation, as the write and read paths run them:
//! * an aligned append runs two — the interior page store
//!   (`write::store_pages`) and the metadata node store
//!   (`write::finish_until`); aligned updates have no boundary pages;
//! * a read runs one — the page fetch (`read::fetch_slices`).

use blobseer::{BlobSeer, ByteRange};

const PSIZE: u64 = 4096;
/// Pages per append: far more items than `2 * k` jobs for every `k`
/// below, so per-item dispatch could not pass.
const PAGES: u64 = 64;

fn store(io_threads: usize) -> BlobSeer {
    BlobSeer::builder()
        .page_size(PSIZE)
        .data_providers(4)
        .metadata_providers(2)
        .io_threads(io_threads)
        .build()
        .unwrap()
}

fn jobs(s: &BlobSeer) -> u64 {
    s.stats().io_jobs_dispatched
}

#[test]
fn fan_outs_box_at_most_one_job_per_io_thread() {
    for k in [1usize, 2, 3, 4] {
        let s = store(k);
        let blob = s.create();
        let data: Vec<u8> = (0..PAGES * PSIZE).map(|i| (i % 251) as u8).collect();
        let append_fan_outs = 2;
        let read_fan_outs = 1;

        let mut v = blobseer::Version(0);
        for round in 0..2 {
            let before = jobs(&s);
            v = blob.append(&data).unwrap();
            let spent = jobs(&s) - before;
            assert!(spent >= 1, "k={k} round={round}: an append dispatches pool work");
            assert!(
                spent <= append_fan_outs * k as u64,
                "k={k} round={round}: aligned append boxed {spent} jobs, \
                 bound is {append_fan_outs} fan-outs x {k}"
            );
        }
        blob.sync(v).unwrap();
        let size = 2 * PAGES * PSIZE;

        let snap = blob.snapshot(v).unwrap();
        let before = jobs(&s);
        let got = snap.read(ByteRange::new(0, size)).unwrap();
        let spent = jobs(&s) - before;
        assert_eq!(&got[..data.len()], &data[..]);
        assert_eq!(&got[data.len()..], &data[..]);
        assert!(
            (1..=read_fan_outs * k as u64).contains(&spent),
            "k={k}: whole-blob snapshot read boxed {spent} jobs, bound is {k}"
        );

        let before = jobs(&s);
        let flat = s.read(&blob, v, 0, size).unwrap();
        let spent = jobs(&s) - before;
        assert_eq!(flat, got.as_ref());
        assert!(
            (1..=read_fan_outs * k as u64).contains(&spent),
            "k={k}: whole-blob flat read boxed {spent} jobs, bound is {k}"
        );
    }
}
