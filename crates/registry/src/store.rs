//! The append-only registry log.
//!
//! [`Registry::append`] assigns each record its gap-free sequence number,
//! digests its canonical line, links it into the running chain digest, and
//! folds it into the [`ServiceStats`] aggregate. Every `seal_every`
//! records the current chain is frozen into a [`Seal`] — a per-segment
//! checkpoint, so two registries can be compared segment-by-segment
//! without replaying the whole log.
//!
//! Appends deduplicate on `request_id`: replaying a request batch is
//! idempotent — duplicates change neither the chain, nor the stats, nor
//! the serialized log (only the in-memory `duplicates_rejected` counter,
//! which is deliberately *not* serialized).

use std::collections::BTreeSet;
use std::path::Path;

use crate::digest::Digest64;
use crate::record::{Record, SealedRecord};
use crate::stats::ServiceStats;

/// Registry schema version written into the log header.
pub const REGISTRY_FORMAT_VERSION: u32 = 1;

/// Registry construction knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegistryOptions {
    /// Records per sealed log segment.
    pub seal_every: u64,
    /// Keep every canonical record line in memory so [`Registry::write_to`]
    /// can serialize the full log. Million-request campaigns turn this off
    /// and keep only the chain digest, one seal per `seal_every` records
    /// and the stats; the duplicate check then holds constant memory while
    /// request ids arrive in order from 0 (see [`Registry::append`]). The
    /// serialized log then contains the header, seals, and root only.
    pub retain_records: bool,
}

impl Default for RegistryOptions {
    fn default() -> Self {
        Self {
            seal_every: 1024,
            retain_records: true,
        }
    }
}

/// A frozen per-segment checkpoint of the digest chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seal {
    /// Segment index (0-based).
    pub segment: u64,
    /// First record sequence number in the segment.
    pub first_seq: u64,
    /// Last record sequence number in the segment.
    pub last_seq: u64,
    /// Chain digest after the segment's last record.
    pub chain: Digest64,
}

impl Seal {
    /// The canonical single-line JSON form written into the log.
    #[must_use]
    pub fn line(&self) -> String {
        format!(
            "{{\"seal\":{},\"first_seq\":{},\"last_seq\":{},\"chain\":\"{}\"}}",
            self.segment, self.first_seq, self.last_seq, self.chain
        )
    }
}

/// Outcome of one append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppendOutcome {
    /// The record was new and is now part of the log.
    Recorded {
        /// Assigned sequence number.
        seq: u64,
        /// The record's content digest.
        digest: Digest64,
        /// The chain digest after this record.
        chain: Digest64,
    },
    /// A record with this `request_id` already exists; nothing changed.
    Duplicate {
        /// The rejected request identifier.
        request_id: u64,
    },
}

impl AppendOutcome {
    /// True when the append recorded a new entry.
    #[must_use]
    pub fn recorded(&self) -> bool {
        matches!(self, Self::Recorded { .. })
    }
}

/// The request ids recorded so far: every id below `below`, and the ids in
/// `above`, all past it. While ids arrive in order from 0, `above` stays
/// empty.
#[derive(Debug, Clone, Default)]
struct SeenIds {
    below: u64,
    above: BTreeSet<u64>,
}

impl SeenIds {
    /// Records `id`; `false` when it was recorded already.
    fn insert(&mut self, id: u64) -> bool {
        if id < self.below || !self.above.insert(id) {
            return false;
        }
        while self.above.remove(&self.below) {
            self.below += 1;
        }
        true
    }
}

/// The append-only provenance store.
#[derive(Debug, Clone)]
pub struct Registry {
    opts: RegistryOptions,
    next_seq: u64,
    chain: Digest64,
    seen: SeenIds,
    lines: Vec<String>,
    seals: Vec<Seal>,
    stats: ServiceStats,
    duplicates_rejected: u64,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new(opts: RegistryOptions) -> Self {
        Self {
            opts,
            next_seq: 0,
            chain: Digest64::EMPTY,
            seen: SeenIds::default(),
            lines: Vec::new(),
            seals: Vec::new(),
            stats: ServiceStats::new(),
            duplicates_rejected: 0,
        }
    }

    /// Appends one record (idempotent on `record.request_id`).
    ///
    /// The duplicate check keeps the lowest id not yet recorded and the
    /// recorded ids above it, so its memory grows with the ids that arrive
    /// ahead of a gap, not with the records.
    pub fn append(&mut self, record: Record) -> AppendOutcome {
        if !self.seen.insert(record.request_id) {
            self.duplicates_rejected += 1;
            return AppendOutcome::Duplicate {
                request_id: record.request_id,
            };
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let sealed = SealedRecord::seal(seq, self.chain, record);
        self.chain = sealed.chain;
        self.stats.record(&sealed.record);
        if self.opts.retain_records {
            self.lines.push(sealed.line());
        }
        let (digest, chain) = (sealed.digest, sealed.chain);
        if (seq + 1).is_multiple_of(self.opts.seal_every) {
            let seal = Seal {
                segment: seq / self.opts.seal_every,
                first_seq: seq + 1 - self.opts.seal_every,
                last_seq: seq,
                chain: self.chain,
            };
            self.seals.push(seal);
            if self.opts.retain_records {
                self.lines.push(seal.line());
            }
        }
        AppendOutcome::Recorded { seq, digest, chain }
    }

    /// Records appended (duplicates excluded).
    #[must_use]
    pub fn len(&self) -> u64 {
        self.next_seq
    }

    /// True when no record has been appended.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.next_seq == 0
    }

    /// The chain digest over every appended record — the log's identity.
    #[must_use]
    pub fn root(&self) -> Digest64 {
        self.chain
    }

    /// Per-segment seals frozen so far.
    #[must_use]
    pub fn seals(&self) -> &[Seal] {
        &self.seals
    }

    /// The merged verdict/ladder aggregates.
    #[must_use]
    pub fn stats(&self) -> &ServiceStats {
        &self.stats
    }

    /// Duplicate appends rejected (not serialized — replay must not change
    /// the log bytes).
    #[must_use]
    pub fn duplicates_rejected(&self) -> u64 {
        self.duplicates_rejected
    }

    /// Canonical record lines retained in memory (empty when
    /// `retain_records` is off). Seal lines are interleaved at their log
    /// positions.
    #[must_use]
    pub fn lines(&self) -> &[String] {
        &self.lines
    }

    /// Serializes the log: header, record/seal lines (full form) or seals
    /// only (summary form when `retain_records` is off), and the root
    /// trailer. Byte-identical for byte-identical append histories.
    #[must_use]
    pub fn contents(&self) -> String {
        use core::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"flashmark_registry\":{},\"seal_every\":{},\"full_log\":{}}}",
            REGISTRY_FORMAT_VERSION, self.opts.seal_every, self.opts.retain_records
        );
        if self.opts.retain_records {
            for line in &self.lines {
                out.push_str(line);
                out.push('\n');
            }
        } else {
            for seal in &self.seals {
                out.push_str(&seal.line());
                out.push('\n');
            }
        }
        let _ = writeln!(
            out,
            "{{\"root\":\"{}\",\"records\":{},\"seals\":{}}}",
            self.chain,
            self.next_seq,
            self.seals.len()
        );
        out
    }

    /// Writes [`Registry::contents`] to `path`.
    ///
    /// # Errors
    ///
    /// I/O errors.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.contents())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RecordVerdict;

    fn rec(request_id: u64) -> Record {
        Record {
            request_id,
            chip_id: request_id % 5,
            class: "genuine".into(),
            scheme: "nor_tpew".into(),
            commit: "test/1".into(),
            params: "{\"n_pe\":60000}".into(),
            verdict: RecordVerdict::Accept,
            reason: String::new(),
            metrics: "{\"flash.read_segment\":3}".into(),
            ladder_depth: 1,
            retries: 0,
        }
    }

    #[test]
    fn appends_assign_gapfree_sequence_numbers() {
        let mut reg = Registry::new(RegistryOptions::default());
        for id in [10u64, 20, 30] {
            assert!(reg.append(rec(id)).recorded());
        }
        assert_eq!(reg.len(), 3);
        let seqs: Vec<&str> = reg
            .lines()
            .iter()
            .map(|l| {
                l.split("\"seq\":")
                    .nth(1)
                    .unwrap()
                    .split(',')
                    .next()
                    .unwrap()
            })
            .collect();
        assert_eq!(seqs, ["0", "1", "2"]);
    }

    #[test]
    fn duplicates_change_nothing_serialized() {
        let mut a = Registry::new(RegistryOptions::default());
        let mut b = Registry::new(RegistryOptions::default());
        for id in 0..10u64 {
            a.append(rec(id));
            b.append(rec(id));
        }
        // Replay the whole batch into `b`.
        for id in 0..10u64 {
            assert!(!b.append(rec(id)).recorded());
        }
        assert_eq!(a.root(), b.root());
        assert_eq!(a.len(), b.len());
        assert_eq!(a.contents(), b.contents());
        assert_eq!(a.stats(), b.stats());
        assert_eq!(b.duplicates_rejected(), 10);
    }

    #[test]
    fn seals_freeze_every_segment() {
        let mut reg = Registry::new(RegistryOptions {
            seal_every: 4,
            retain_records: true,
        });
        for id in 0..10u64 {
            reg.append(rec(id));
        }
        assert_eq!(reg.seals().len(), 2);
        assert_eq!(reg.seals()[0].first_seq, 0);
        assert_eq!(reg.seals()[0].last_seq, 3);
        assert_eq!(reg.seals()[1].first_seq, 4);
        assert_eq!(reg.seals()[1].last_seq, 7);
        // Seal lines are interleaved at their positions: 10 records + 2 seals.
        assert_eq!(reg.lines().len(), 12);
        assert!(reg.lines()[4].starts_with("{\"seal\":0,"));
    }

    #[test]
    fn summary_form_tracks_the_same_chain() {
        let full = {
            let mut r = Registry::new(RegistryOptions {
                seal_every: 4,
                retain_records: true,
            });
            for id in 0..9u64 {
                r.append(rec(id));
            }
            r
        };
        let summary = {
            let mut r = Registry::new(RegistryOptions {
                seal_every: 4,
                retain_records: false,
            });
            for id in 0..9u64 {
                r.append(rec(id));
            }
            r
        };
        assert_eq!(full.root(), summary.root());
        assert_eq!(full.seals(), summary.seals());
        assert_eq!(full.stats(), summary.stats());
        assert!(summary.lines().is_empty());
        assert!(summary.contents().contains("\"full_log\":false"));
    }

    #[test]
    fn contents_end_with_the_root_trailer() {
        let mut reg = Registry::new(RegistryOptions::default());
        reg.append(rec(1));
        let contents = reg.contents();
        let last = contents.lines().last().unwrap();
        assert!(last.starts_with("{\"root\":\""));
        assert!(last.contains(&reg.root().to_hex()));
        assert!(contents.starts_with("{\"flashmark_registry\":1,"));
    }

    #[test]
    fn in_order_ids_keep_no_id_set() {
        let mut reg = Registry::new(RegistryOptions::default());
        for id in 0..5_000u64 {
            assert!(reg.append(rec(id)).recorded());
            assert!(reg.seen.above.is_empty(), "id {id}");
        }
        assert_eq!(reg.seen.below, 5_000);
        assert!(!reg.append(rec(4_999)).recorded());
        assert!(reg.append(rec(5_001)).recorded());
        assert_eq!(reg.seen.above.len(), 1, "an id ahead of a gap is kept");
        assert!(reg.append(rec(5_000)).recorded());
        assert!(reg.seen.above.is_empty(), "filling the gap drops it");
        assert_eq!(reg.seen.below, 5_002);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        /// Ids mostly in order, mixed with ids ahead of the next one, ids
        /// behind it (gap fills and duplicates) and arbitrary ones: each
        /// append records exactly when a plain set has not seen the id.
        #[test]
        fn dedup_matches_a_plain_set(
            script in proptest::collection::vec(proptest::any::<u64>(), 1..400)
        ) {
            let mut reg = Registry::new(RegistryOptions {
                seal_every: 16,
                retain_records: false,
            });
            let mut plain = BTreeSet::new();
            let mut next = 0u64;
            for x in script {
                let step = (x >> 8) % 12;
                let id = match x % 8 {
                    // Far ahead of the stream.
                    0 => x >> 3,
                    // Ahead of the next id, leaving a gap.
                    1 => next + step,
                    // Behind it: a gap fill or a duplicate.
                    2 | 3 => next.saturating_sub(step + 1),
                    _ => next,
                };
                if x % 8 != 0 {
                    next = next.max(id + 1);
                }
                let recorded = reg.append(rec(id)).recorded();
                proptest::prop_assert_eq!(recorded, plain.insert(id), "id {}", id);
            }
            proptest::prop_assert_eq!(reg.len(), plain.len() as u64);
            let below = plain.iter().zip(0..).take_while(|(&id, i)| id == *i).count() as u64;
            proptest::prop_assert_eq!(reg.seen.below, below);
        }
    }

    #[test]
    fn chain_differs_when_any_record_differs() {
        let mut a = Registry::new(RegistryOptions::default());
        let mut b = Registry::new(RegistryOptions::default());
        for id in 0..5u64 {
            a.append(rec(id));
            let mut r = rec(id);
            if id == 3 {
                r.verdict = RecordVerdict::Reject;
                r.reason = "recycled_wear".into();
            }
            b.append(r);
        }
        assert_ne!(a.root(), b.root());
    }
}
