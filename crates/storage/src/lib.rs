//! # qbc-storage — per-site stable storage
//!
//! The durability substrate beneath the commit protocols: a force-written
//! [`Wal`] (what a participant knows after recovering is exactly what it
//! logged before crashing) and a [`VersionedStore`] implementing
//! Gifford's version-number currency rule. The site node owns one of
//! each; the rule that ties the log to what the node may say
//! (`qbc_db`'s `DurableLog`) lives with the node.
//!
//! The WAL is a pluggable [`WalBackend`]: the paper assumes disk-based
//! stable storage, which [`FileWal`] provides directly (append-only
//! segment files, checksummed frames, `fsync` on force, torn-tail
//! repair, checkpoint-driven prefix truncation — see
//! `docs/wal-format.md`), while the in-memory [`Wal`] models the same
//! durable/volatile split deterministically for the simulator
//! (`docs/architecture.md`, § `qbc-storage`). The protocols depend
//! only on the durability contract — a logged record survives any
//! crash, an unlogged state does not — which every backend preserves
//! exactly.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod codec;
mod file;
mod store;
pub mod temp;
mod wal;

pub use codec::WalCodec;
pub use file::{crc32, EitherWal, FileWal, FileWalConfig, WalError};
pub use store::{StoreError, VersionedStore};
pub use temp::TempDir;
pub use wal::{Lsn, Wal, WalBackend, WalReplay};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use qbc_votes::{ItemId, Version};

    proptest! {
        /// Replay returns exactly the appended sequence, in order, for
        /// any append pattern interleaved with crashes.
        #[test]
        fn replay_is_exact_history(
            ops in proptest::collection::vec((0u8..3, 0u32..100), 0..60)
        ) {
            let mut wal: Wal<u32> = Wal::new();
            let mut expected = Vec::new();
            for (kind, val) in ops {
                match kind {
                    0 | 1 => {
                        wal.append(val);
                        expected.push(val);
                    }
                    _ => wal.lose_volatile(),
                }
            }
            let replayed: Vec<u32> = wal.replay().map(|(_, r)| r).collect();
            prop_assert_eq!(replayed, expected);
        }

        /// Group commit changes *when* records become durable, never
        /// *what* the durable log contains: for any interleaving of
        /// buffered appends, forces, forced appends and crashes, the
        /// batched WAL replays byte-identically to an unbatched WAL that
        /// receives each record at its force point.
        #[test]
        fn batched_replay_equals_unbatched_replay(
            ops in proptest::collection::vec((0u8..4, 0u32..100), 0..80)
        ) {
            let mut batched: Wal<u32> = Wal::new();
            let mut unbatched: Wal<u32> = Wal::new();
            // Records staged in `batched` but not yet forced; the
            // unbatched reference receives them only at the force.
            let mut staged: Vec<u32> = Vec::new();
            for (kind, val) in ops {
                match kind {
                    0 => {
                        batched.buffer(val);
                        staged.push(val);
                    }
                    1 => {
                        let n = batched.force();
                        prop_assert_eq!(n, staged.len());
                        for r in staged.drain(..) {
                            unbatched.append(r);
                        }
                    }
                    2 => {
                        // Forced append: flushes the batch, then itself.
                        batched.append(val);
                        for r in staged.drain(..) {
                            unbatched.append(r);
                        }
                        unbatched.append(val);
                    }
                    _ => {
                        // Crash: buffered records die with the site.
                        batched.lose_volatile();
                        unbatched.lose_volatile();
                        staged.clear();
                    }
                }
                let b: Vec<u32> = batched.replay().map(|(_, r)| r).collect();
                let u: Vec<u32> = unbatched.replay().map(|(_, r)| r).collect();
                prop_assert_eq!(b, u);
            }
        }

        /// A force is paid only when records are pending, so the force
        /// count never exceeds the record count — batching can only
        /// reduce flushes relative to one-force-per-record.
        #[test]
        fn forces_never_exceed_durable_records(
            ops in proptest::collection::vec((0u8..3, 0u32..100), 0..80)
        ) {
            let mut wal: Wal<u32> = Wal::new();
            for (kind, val) in ops {
                match kind {
                    0 => {
                        wal.buffer(val);
                    }
                    1 => {
                        wal.force();
                    }
                    _ => {
                        wal.append(val);
                    }
                }
            }
            wal.force();
            prop_assert!(wal.forces() <= wal.len() as u64);
        }

        /// A disk log is the same log: for any interleaving of buffered
        /// appends, forces, forced appends, logical crashes and
        /// truncations, [`FileWal`] replays exactly what the in-memory
        /// model replays (file truncation is whole-segment, so the file
        /// may retain a longer prefix — the in-memory log's records must
        /// be a suffix of the file's), and a reopen recovers the same
        /// durable records.
        #[test]
        fn file_backend_replays_like_memory(
            ops in proptest::collection::vec((0u8..5, 0u32..100), 0..60)
        ) {
            let dir = TempDir::new("storage-prop");
            let cfg = FileWalConfig::new(dir.path())
                .without_fsync()
                .with_segment_bytes(48);
            let mut mem: Wal<u32> = Wal::new();
            let mut file: FileWal<u32> = FileWal::open(cfg.clone()).unwrap();
            for (kind, val) in ops {
                match kind {
                    0 => {
                        mem.buffer(val);
                        WalBackend::buffer(&mut file, val);
                    }
                    1 => {
                        mem.force();
                        WalBackend::force(&mut file);
                    }
                    2 => {
                        mem.append(val);
                        WalBackend::append(&mut file, val);
                    }
                    3 => {
                        mem.lose_volatile();
                        WalBackend::lose_volatile(&mut file);
                    }
                    _ => {
                        let cutoff = Lsn(val as u64 % (mem.len() as u64 + 1)
                            + mem.start_lsn().0);
                        mem.truncate_before(cutoff);
                        WalBackend::truncate_before(&mut file, cutoff);
                    }
                }
                prop_assert!(file.start_lsn() <= mem.start_lsn());
                let fr = WalBackend::records(&file);
                let tail = &fr[fr.len() - mem.len()..];
                prop_assert_eq!(tail, WalBackend::records(&mem));
            }
            // A reopen (process restart) recovers the same durable log.
            let end = file.start_lsn().0 + WalBackend::len(&file) as u64;
            let survivors: Vec<u32> = WalBackend::records(&file).to_vec();
            let start = file.start_lsn();
            drop(file);
            let reopened: FileWal<u32> = FileWal::open(cfg).unwrap();
            prop_assert_eq!(reopened.start_lsn(), start);
            prop_assert_eq!(
                reopened.start_lsn().0 + WalBackend::len(&reopened) as u64,
                end
            );
            prop_assert_eq!(WalBackend::records(&reopened), &survivors[..]);
        }

        /// Force-boundary markers make torn-tail recovery *exact*: for
        /// any batch pattern, truncating the file anywhere inside the
        /// final (possibly multi-frame) batch region recovers exactly
        /// the acknowledged records — never a partial batch, never an
        /// acknowledged record lost.
        #[test]
        fn torn_tails_recover_exactly_the_acknowledged_batches(
            batches in proptest::collection::vec(1usize..4, 1..6),
            tear_pct in 0u64..100,
        ) {
            let dir = TempDir::new("storage-torn-prop");
            let cfg = FileWalConfig::new(dir.path()).without_fsync();
            let mut file: FileWal<u32> = FileWal::open(cfg.clone()).unwrap();
            let mut next = 0u32;
            let mut acked: Vec<u32> = Vec::new();
            let (tail, head) = batches.split_last().unwrap();
            for &n in head {
                for _ in 0..n {
                    WalBackend::buffer(&mut file, next);
                    acked.push(next);
                    next += 1;
                }
                WalBackend::force(&mut file);
            }
            let acked_bytes = file.storage_bytes();
            for _ in 0..*tail {
                WalBackend::buffer(&mut file, next);
                next += 1;
            }
            WalBackend::force(&mut file);
            let total = file.storage_bytes();
            drop(file);
            // Tear at an arbitrary point inside the final batch: at
            // least its closing marker's last byte is lost, so it was
            // never acknowledged.
            let keep = acked_bytes + (total - acked_bytes) * tear_pct / 100;
            let keep = keep.min(total - 1);
            let seg = dir.path().join(format!("wal-{:016x}.seg", 0));
            let mut data = std::fs::read(&seg).unwrap();
            data.truncate(keep as usize);
            std::fs::write(&seg, &data).unwrap();
            let reopened: FileWal<u32> = FileWal::open(cfg).unwrap();
            prop_assert_eq!(WalBackend::records(&reopened), &acked[..]);
        }

        /// Any single-bit flip strictly before the final force-boundary
        /// marker damages *acknowledged* bytes, and open reports
        /// `WalError::Corrupt` instead of silently truncating the log.
        #[test]
        fn acknowledged_damage_is_always_reported(
            batches in proptest::collection::vec(1usize..4, 1..6),
            pos_pct in 0u64..100,
            bit in 0u32..8,
        ) {
            let dir = TempDir::new("storage-rot-prop");
            let cfg = FileWalConfig::new(dir.path()).without_fsync();
            let mut file: FileWal<u32> = FileWal::open(cfg.clone()).unwrap();
            let mut next = 0u32;
            for &n in &batches {
                for _ in 0..n {
                    WalBackend::buffer(&mut file, next);
                    next += 1;
                }
                WalBackend::force(&mut file);
            }
            let total = file.storage_bytes();
            drop(file);
            // Flip one bit anywhere before the final marker (which
            // stays intact and proves everything before it was acked).
            let span = total - crate::file::MARKER_SIZE as u64;
            let pos = ((span - 1) * pos_pct / 100) as usize;
            let seg = dir.path().join(format!("wal-{:016x}.seg", 0));
            let mut data = std::fs::read(&seg).unwrap();
            data[pos] ^= 1 << bit;
            std::fs::write(&seg, &data).unwrap();
            let err = FileWal::<u32>::open(cfg).unwrap_err();
            prop_assert!(matches!(err, WalError::Corrupt { .. }), "got {err}");
        }

        /// The store never goes backwards: after any sequence of applies,
        /// the stored version equals the maximum successfully applied.
        #[test]
        fn versions_are_monotone(
            versions in proptest::collection::vec(1u64..50, 1..40)
        ) {
            let mut st: VersionedStore<u64> = VersionedStore::new();
            st.initialize(ItemId(0), 0);
            let mut high = 0u64;
            for v in versions {
                let res = st.apply(ItemId(0), Version(v), v);
                if v > high {
                    prop_assert!(res.is_ok());
                    high = v;
                } else {
                    prop_assert!(res.is_err());
                }
                prop_assert_eq!(st.version(ItemId(0)), Some(Version(high)));
            }
        }
    }
}
