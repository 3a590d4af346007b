//! The in-memory `Wal` against a reference model of its contract.
//!
//! The model is the plainest possible log: a `Vec` of durable records,
//! a `Vec` of staged ones, the LSN of the first retained record and a
//! force counter, with the rules written out longhand. Random sequences
//! of `buffer`, `force`, `append`, `lose_volatile` and `truncate_before`
//! calls, and clones, run against both; after every step the log must
//! agree with the model on `replay`, `records`, `start_lsn`, `next_lsn`,
//! `len`, `pending_len` and `forces`, and a clone taken earlier must
//! still agree with the model as it was when the clone was taken.
//!
//! Records are strings whose sizes straddle the log's storage chunk:
//! small ones, ones that fill a chunk exactly or overflow it by a byte,
//! and ones larger than a chunk. Cutoffs land on random positions, on
//! the log's ends, and on each oversized record's LSN ± 1, which is a
//! chunk boundary ± 1: an oversized record always starts a chunk of its
//! own.

use proptest::prelude::*;
use qbc_storage::{Lsn, Wal, WalBackend};

/// The payload bytes one storage chunk holds.
const CHUNK: usize = Wal::<String>::CHUNK_BYTES;
/// Bytes the `String` codec adds to a string: its `u32` length prefix.
const PREFIX: usize = 4;

/// The reference: durable records, staged records, and counters.
#[derive(Clone, Debug, Default)]
struct Model {
    durable: Vec<String>,
    staged: Vec<String>,
    start: u64,
    forces: u64,
    /// LSNs of forced records larger than a chunk.
    oversized: Vec<u64>,
}

impl Model {
    fn end(&self) -> u64 {
        self.start + self.durable.len() as u64
    }

    fn force(&mut self) -> usize {
        let n = self.staged.len();
        if n > 0 {
            for rec in self.staged.drain(..) {
                if rec.len() + PREFIX > CHUNK {
                    self.oversized.push(self.start + self.durable.len() as u64);
                }
                self.durable.push(rec);
            }
            self.forces += 1;
        }
        n
    }

    fn truncate_before(&mut self, cutoff: u64) {
        let cut = cutoff.clamp(self.start, self.end());
        self.durable.drain(..(cut - self.start) as usize);
        self.start = cut;
    }
}

fn agree(wal: &Wal<String>, model: &Model) -> Result<(), TestCaseError> {
    prop_assert_eq!(wal.start_lsn(), Lsn(model.start));
    prop_assert_eq!(wal.len(), model.durable.len());
    prop_assert_eq!(wal.is_empty(), model.durable.is_empty());
    prop_assert_eq!(wal.pending_len(), model.staged.len());
    prop_assert_eq!(wal.next_lsn(), Lsn(model.end() + model.staged.len() as u64));
    prop_assert_eq!(wal.forces(), model.forces);
    prop_assert!(wal.records() == model.durable, "records differ");
    let replayed: Vec<(Lsn, String)> = WalBackend::replay(wal).collect();
    let expected: Vec<(Lsn, String)> = (model.start..)
        .map(Lsn)
        .zip(model.durable.iter().cloned())
        .collect();
    prop_assert!(replayed == expected, "replay differs");
    Ok(())
}

/// A record of the size class `kind` picks, tagged with `tag` so
/// records of one class still differ.
fn record(kind: u8, tag: u32) -> String {
    let len = match kind {
        0..=3 => 1 + tag as usize % 40,
        4 => 1_020,
        5 => CHUNK - PREFIX,
        6 => CHUNK - PREFIX + 1,
        _ => CHUNK + 1_000 + tag as usize % 3,
    };
    let mut s = format!("{tag}:");
    s.push_str(&"x".repeat(len.saturating_sub(s.len())));
    s
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn wal_matches_the_vec_model(
        ops in proptest::collection::vec((0u8..16, 0u8..8, 0u32..1_000), 0..120),
    ) {
        let mut wal: Wal<String> = Wal::new();
        let mut model = Model::default();
        let mut snapshot: Option<(Wal<String>, Model)> = None;
        for (op, kind, x) in ops {
            match op {
                0..=5 => {
                    let lsn = wal.buffer(record(kind, x));
                    prop_assert_eq!(lsn, Lsn(model.end() + model.staged.len() as u64));
                    model.staged.push(record(kind, x));
                }
                6 | 7 => {
                    prop_assert_eq!(wal.force(), model.force());
                }
                8 => {
                    let lsn = wal.append(record(kind, x));
                    model.staged.push(record(kind, x));
                    model.force();
                    prop_assert_eq!(lsn, Lsn(model.end() - 1));
                }
                9 => {
                    wal.lose_volatile();
                    model.staged.clear();
                }
                10 | 11 => {
                    // Anywhere from below the start to past the end.
                    let span = model.durable.len() as u64 + 3;
                    let cutoff = (model.start + x as u64 % span).saturating_sub(1);
                    wal.truncate_before(Lsn(cutoff));
                    model.truncate_before(cutoff);
                }
                12 => {
                    // A chunk boundary ± 1: an oversized record's LSN.
                    if let Some(&big) = model.oversized.get(x as usize % model.oversized.len().max(1)) {
                        let cutoff = (big + (x as u64 % 4)).saturating_sub(1);
                        wal.truncate_before(Lsn(cutoff));
                        model.truncate_before(cutoff);
                    }
                }
                13 => {
                    // The log's own ends: the start (a no-op) or the end.
                    let cutoff = if x % 2 == 0 { model.start } else { model.end() };
                    wal.truncate_before(Lsn(cutoff));
                    model.truncate_before(cutoff);
                }
                14 => {
                    snapshot = Some((wal.clone(), model.clone()));
                }
                _ => {
                    // Carry on from the clone; the original is dropped.
                    if let Some((copy, copied)) = snapshot.take() {
                        wal = copy;
                        model = copied;
                    }
                }
            }
            agree(&wal, &model)?;
            if let Some((copy, copied)) = &snapshot {
                agree(copy, copied)?;
            }
        }
        // What was staged is exactly what a crash loses.
        wal.lose_volatile();
        model.staged.clear();
        agree(&wal, &model)?;
    }
}
