#![forbid(unsafe_code)]
//! Cross-run trend registry: an append-only, digest-chained log of
//! campaign outcomes and the drift gates computed over it.
//!
//! CI gates elsewhere in this repository compare each run against the
//! *last* committed baseline; this crate records **every** run so
//! detection-rate and performance regressions can be trended across pull
//! requests. Each suite / service / perf campaign appends one
//! [`TrendRecord`] — build tag, seed, params digest, verdict mix per
//! provenance class, fault-campaign flip count, obs op count, kernel
//! throughputs — to `results/trend_log.jsonl` as a canonical single-line
//! JSON, chained record-to-record with the same FNV-1a
//! [`Digest64`](flashmark_registry::Digest64) the provenance registry
//! uses, so a tampered or truncated log is detected on load.
//!
//! [`compute_drift`] turns a verified log into a [`DriftReport`]:
//!
//! * **detection drift fails**: within a `(kind, params, seed)` group, the
//!   latest record must not move any provenance class toward acceptance
//!   (accept count up while reject+inconclusive down) relative to its
//!   predecessor, and a recorded fault-campaign flip count must be zero —
//!   a silent reject→accept movement is exactly the regression a
//!   counterfeit-detection pipeline must never absorb;
//! * **performance drift warns**: the latest run's `trials/s` entries are
//!   compared against the median of the previous window; wall-clock noise
//!   across machines makes this advisory, never a gate.
//!
//! Determinism: records written by deterministic campaigns carry no
//! wall-clock fields (their `perf` map is empty), so appending the same
//! campaign at `--threads 1` and `--threads 8` produces byte-identical
//! lines, and the drift report over the log is byte-identical too.

use std::collections::BTreeMap;
use std::fmt;
use std::io::Write as _;
use std::path::Path;

use flashmark_registry::Digest64;

/// Trend-log schema version (bumped on any canonical-line change).
pub const TREND_FORMAT_VERSION: u32 = 1;

/// One campaign outcome, as appended to the trend log.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrendRecord {
    /// Campaign kind (`"suite"`, `"service"`, `"perf"`, …). Drift is only
    /// ever computed within one kind.
    pub kind: String,
    /// Build tag of the producer (crate name/version).
    pub build: String,
    /// Campaign seed.
    pub seed: u64,
    /// Digest (hex) of the campaign's canonical parameter string — two
    /// records are only comparable when their params digests match.
    pub params: String,
    /// `(provenance class, verdict name)` → record count.
    pub verdict_mix: BTreeMap<(String, String), u64>,
    /// Fault-campaign reject→accept flip count, when the campaign ran one.
    pub flips: Option<u64>,
    /// Total obs events emitted, when the campaign collected them.
    pub ops: Option<u64>,
    /// Throughput entries (`name` → trials/s). Non-empty only for
    /// wall-clock-bearing kinds (`perf`); deterministic kinds leave it
    /// empty so their lines stay byte-identical across machines.
    pub perf: BTreeMap<String, f64>,
}

impl TrendRecord {
    /// A record with the given identity and no measurements.
    #[must_use]
    pub fn new(kind: &str, build: &str, seed: u64, params_digest: Digest64) -> Self {
        Self {
            kind: kind.to_string(),
            build: build.to_string(),
            seed,
            params: params_digest.to_hex(),
            ..Self::default()
        }
    }

    /// The canonical single-line JSON payload (fixed field order, no
    /// seq/chain framing) — the bytes the content digest covers.
    #[must_use]
    pub fn canonical_line(&self) -> String {
        use fmt::Write as _;
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"kind\":\"{}\",\"build\":\"{}\",\"seed\":{},\"params\":\"{}\"",
            self.kind, self.build, self.seed, self.params
        );
        out.push_str(",\"verdict_mix\":{");
        for (i, ((class, verdict), n)) in self.verdict_mix.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{class}/{verdict}\":{n}");
        }
        out.push('}');
        match self.flips {
            Some(n) => {
                let _ = write!(out, ",\"flips\":{n}");
            }
            None => out.push_str(",\"flips\":null"),
        }
        match self.ops {
            Some(n) => {
                let _ = write!(out, ",\"ops\":{n}");
            }
            None => out.push_str(",\"ops\":null"),
        }
        out.push_str(",\"perf\":{");
        for (i, (name, v)) in self.perf.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{v}");
        }
        out.push_str("}}");
        out
    }

    /// This record's content digest: FNV-1a over the canonical line.
    #[must_use]
    pub fn digest(&self) -> Digest64 {
        Digest64::of(self.canonical_line().as_bytes())
    }

    /// Accept count and non-accept (reject + inconclusive) count for one
    /// provenance class.
    #[must_use]
    pub fn class_split(&self, class: &str) -> (u64, u64) {
        let mut accepts = 0;
        let mut others = 0;
        for ((c, verdict), &n) in &self.verdict_mix {
            if c == class {
                if verdict == "accept" {
                    accepts += n;
                } else {
                    others += n;
                }
            }
        }
        (accepts, others)
    }

    /// Every provenance class named in the verdict mix, deduplicated in
    /// sorted order.
    #[must_use]
    pub fn classes(&self) -> Vec<&str> {
        let mut out: Vec<&str> = self
            .verdict_mix
            .keys()
            .map(|(class, _)| class.as_str())
            .collect();
        out.dedup();
        out
    }
}

/// Errors from loading or verifying a trend log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrendError {
    /// A line failed to parse (1-based line number and message).
    Parse(usize, String),
    /// A record's sequence number broke the gap-free 0..n order.
    Sequence {
        /// 1-based line number.
        line: usize,
        /// Sequence number found.
        found: u64,
        /// Sequence number expected.
        expected: u64,
    },
    /// A record's chain digest does not match the replayed chain — the
    /// log was edited, truncated in the middle, or reordered.
    Chain {
        /// Sequence number of the offending record.
        seq: u64,
    },
}

impl fmt::Display for TrendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Parse(line, msg) => write!(f, "trend log line {line}: {msg}"),
            Self::Sequence {
                line,
                found,
                expected,
            } => write!(
                f,
                "trend log line {line}: seq {found} where {expected} was expected"
            ),
            Self::Chain { seq } => write!(f, "trend log chain mismatch at seq {seq}"),
        }
    }
}

impl std::error::Error for TrendError {}

/// The verified, in-memory form of a trend log.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendLog {
    records: Vec<TrendRecord>,
    chain: Digest64,
}

impl Default for TrendLog {
    fn default() -> Self {
        Self::new()
    }
}

impl TrendLog {
    /// An empty log.
    #[must_use]
    pub fn new() -> Self {
        Self {
            records: Vec::new(),
            chain: Digest64::EMPTY,
        }
    }

    /// Records appended so far.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.records.len() as u64
    }

    /// True when nothing has been appended.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The chain digest over every record — the log's identity.
    #[must_use]
    pub fn root(&self) -> Digest64 {
        self.chain
    }

    /// All records, in append (seq) order.
    #[must_use]
    pub fn records(&self) -> &[TrendRecord] {
        &self.records
    }

    /// Appends one record, returning its assigned sequence number.
    pub fn append(&mut self, record: TrendRecord) -> u64 {
        let seq = self.records.len() as u64;
        self.chain = self.chain.link(record.digest());
        self.records.push(record);
        seq
    }

    /// The canonical serialized log: one framed line per record, in seq
    /// order. Byte-identical for byte-identical append histories.
    #[must_use]
    pub fn contents(&self) -> String {
        let mut out = String::new();
        let mut chain = Digest64::EMPTY;
        for (seq, record) in self.records.iter().enumerate() {
            chain = chain.link(record.digest());
            out.push_str(&framed_line(seq as u64, chain, record));
            out.push('\n');
        }
        out
    }

    /// Parses and verifies a serialized log: every line must parse and be
    /// byte-equal to its canonical framing (so the chain covers the bytes,
    /// not just the parsed values), seqs must be gap-free from 0, every
    /// line's chain digest must match the replayed chain, and the last line
    /// must end in `\n` (an append would otherwise land on that line).
    ///
    /// # Errors
    ///
    /// [`TrendError`] naming the first offending line.
    pub fn parse(text: &str) -> Result<Self, TrendError> {
        let mut log = Self::new();
        for (i, line) in text.split_terminator('\n').enumerate() {
            let (seq, chain, record) =
                parse_line(line).map_err(|msg| TrendError::Parse(i + 1, msg))?;
            if line != framed_line(seq, chain, &record) {
                return Err(TrendError::Parse(
                    i + 1,
                    "not in canonical form".to_string(),
                ));
            }
            if seq != log.len() {
                return Err(TrendError::Sequence {
                    line: i + 1,
                    found: seq,
                    expected: log.len(),
                });
            }
            let expected = log.chain.link(record.digest());
            if chain != expected {
                return Err(TrendError::Chain { seq });
            }
            log.append(record);
        }
        if !text.is_empty() && !text.ends_with('\n') {
            return Err(TrendError::Parse(
                log.records.len(),
                "no final newline".to_string(),
            ));
        }
        Ok(log)
    }

    /// Loads and verifies the log at `path`; a missing file is an empty
    /// log (the first append creates it).
    ///
    /// # Errors
    ///
    /// I/O errors (other than not-found), or [`TrendError`] wrapped as
    /// `InvalidData` for a corrupt log.
    pub fn load(path: &Path) -> std::io::Result<Self> {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Self::new()),
            Err(e) => return Err(e),
        };
        Self::parse(&text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Writes [`TrendLog::contents`] to `path`.
    ///
    /// # Errors
    ///
    /// I/O errors.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.contents())
    }
}

/// Loads, verifies, and extends the log at `path` by one record (creating
/// the file if absent), appending only the new framed line. Returns the
/// assigned sequence number.
///
/// # Errors
///
/// I/O errors, or `InvalidData` when the existing log fails verification
/// — a corrupt log is never extended.
pub fn append_to_log(path: &Path, record: TrendRecord) -> std::io::Result<u64> {
    let mut log = TrendLog::load(path)?;
    let seq = log.append(record);
    let line = framed_line(seq, log.root(), &log.records()[seq as usize]);
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(file, "{line}")?;
    Ok(seq)
}

/// Frames one record as its log line: `{"seq":N,"chain":"hex",` spliced
/// onto the record's canonical payload.
fn framed_line(seq: u64, chain: Digest64, record: &TrendRecord) -> String {
    let payload = record.canonical_line();
    format!(
        "{{\"seq\":{seq},\"chain\":\"{chain}\",{}",
        &payload[1..] // drop the payload's opening brace
    )
}

// ------------------------------------------------------------ parsing ----

/// A cursor over one canonical log line. The grammar is exactly what
/// [`framed_line`] emits — fixed field order, no escapes, flat maps — so a
/// few hundred bytes of hand-rolled scanning replace a JSON dependency the
/// offline workspace cannot have. The chain digest, not the parser,
/// guards integrity.
struct Cursor<'a> {
    rest: &'a str,
}

impl<'a> Cursor<'a> {
    fn new(line: &'a str) -> Self {
        Self { rest: line }
    }

    /// Consumes an exact literal.
    fn lit(&mut self, lit: &str) -> Result<(), String> {
        self.rest = self
            .rest
            .strip_prefix(lit)
            .ok_or_else(|| format!("expected {lit:?} at {:?}", truncated(self.rest)))?;
        Ok(())
    }

    /// Consumes up to (not including) `stop`.
    fn until(&mut self, stop: char) -> Result<&'a str, String> {
        let idx = self
            .rest
            .find(stop)
            .ok_or_else(|| format!("missing {stop:?} after {:?}", truncated(self.rest)))?;
        let (head, tail) = self.rest.split_at(idx);
        self.rest = tail;
        Ok(head)
    }

    /// Consumes a decimal u64 (stops at the first non-digit).
    fn u64_val(&mut self) -> Result<u64, String> {
        let digits = self.rest.len()
            - self
                .rest
                .trim_start_matches(|c: char| c.is_ascii_digit())
                .len();
        let (head, tail) = self.rest.split_at(digits);
        self.rest = tail;
        head.parse()
            .map_err(|_| format!("bad number at {:?}", truncated(head)))
    }

    /// Consumes `null` or a decimal u64.
    fn opt_u64(&mut self) -> Result<Option<u64>, String> {
        if let Some(tail) = self.rest.strip_prefix("null") {
            self.rest = tail;
            return Ok(None);
        }
        self.u64_val().map(Some)
    }

    /// Consumes a `"quoted"` string (no escapes in this grammar).
    fn string_val(&mut self) -> Result<&'a str, String> {
        self.lit("\"")?;
        let s = self.until('"')?;
        self.lit("\"")?;
        Ok(s)
    }

    /// Consumes a flat `{"key":scalar,...}` object, handing each raw
    /// `(key, value_text)` pair to `put`.
    fn flat_object(
        &mut self,
        mut put: impl FnMut(&'a str, &'a str) -> Result<(), String>,
    ) -> Result<(), String> {
        self.lit("{")?;
        if self.rest.starts_with('}') {
            return self.lit("}");
        }
        loop {
            let key = self.string_val()?;
            self.lit(":")?;
            let end = self
                .rest
                .find([',', '}'])
                .ok_or_else(|| format!("unterminated object at {:?}", truncated(self.rest)))?;
            let (value, tail) = self.rest.split_at(end);
            self.rest = tail;
            put(key, value)?;
            if self.rest.starts_with('}') {
                return self.lit("}");
            }
            self.lit(",")?;
        }
    }
}

fn truncated(s: &str) -> &str {
    &s[..s.len().min(24)]
}

/// Parses one framed log line into `(seq, chain, record)`.
fn parse_line(line: &str) -> Result<(u64, Digest64, TrendRecord), String> {
    let mut c = Cursor::new(line);
    c.lit("{\"seq\":")?;
    let seq = c.u64_val()?;
    c.lit(",\"chain\":")?;
    let chain = Digest64::from_hex(c.string_val()?).ok_or("bad chain digest")?;
    c.lit(",\"kind\":")?;
    let kind = c.string_val()?.to_string();
    c.lit(",\"build\":")?;
    let build = c.string_val()?.to_string();
    c.lit(",\"seed\":")?;
    let seed = c.u64_val()?;
    c.lit(",\"params\":")?;
    let params = c.string_val()?.to_string();
    c.lit(",\"verdict_mix\":")?;
    let mut verdict_mix = BTreeMap::new();
    c.flat_object(|key, value| {
        let (class, verdict) = key
            .split_once('/')
            .ok_or_else(|| format!("verdict_mix key without '/': {key:?}"))?;
        let n: u64 = value
            .parse()
            .map_err(|_| format!("bad verdict_mix count {value:?}"))?;
        verdict_mix.insert((class.to_string(), verdict.to_string()), n);
        Ok(())
    })?;
    c.lit(",\"flips\":")?;
    let flips = c.opt_u64()?;
    c.lit(",\"ops\":")?;
    let ops = c.opt_u64()?;
    c.lit(",\"perf\":")?;
    let mut perf = BTreeMap::new();
    c.flat_object(|key, value| {
        let v: f64 = value
            .parse()
            .map_err(|_| format!("bad perf value {value:?}"))?;
        perf.insert(key.to_string(), v);
        Ok(())
    })?;
    c.lit("}")?;
    if !c.rest.is_empty() {
        return Err(format!("trailing bytes: {:?}", truncated(c.rest)));
    }
    Ok((
        seq,
        chain,
        TrendRecord {
            kind,
            build,
            seed,
            params,
            verdict_mix,
            flips,
            ops,
            perf,
        },
    ))
}

// -------------------------------------------------------- drift gates ----

/// Drift-gate knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftOptions {
    /// How many predecessor runs the perf median is taken over.
    pub window: usize,
    /// Warn when the latest `trials/s` falls below `median / perf_ratio`.
    pub perf_ratio: f64,
}

impl Default for DriftOptions {
    fn default() -> Self {
        Self {
            window: 8,
            perf_ratio: 2.0,
        }
    }
}

/// One comparable-run group's latest drift evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftCheck {
    /// Campaign kind.
    pub kind: String,
    /// Params digest (hex) of the group.
    pub params: String,
    /// Campaign seed of the group.
    pub seed: u64,
    /// Comparable runs in the group.
    pub runs: u64,
}

/// The result of [`compute_drift`]: hard detection failures, advisory
/// perf warnings, and the groups that were compared.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DriftReport {
    /// Records in the log.
    pub records: u64,
    /// Comparable `(kind, params, seed)` groups evaluated.
    pub checks: Vec<DriftCheck>,
    /// Detection-drift failures (reject→accept movement, nonzero flips).
    pub failures: Vec<String>,
    /// Perf-drift warnings (advisory only).
    pub warnings: Vec<String>,
}

impl DriftReport {
    /// True when no detection gate failed (warnings do not gate).
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Evaluates the drift gates over a verified log: within each
/// `(kind, params, seed)` group, the latest record is compared against
/// its immediate predecessor for detection drift and against the median
/// of the previous [`DriftOptions::window`] runs for perf drift.
#[must_use]
pub fn compute_drift(log: &TrendLog, opts: &DriftOptions) -> DriftReport {
    let mut groups: BTreeMap<(&str, &str, u64), Vec<&TrendRecord>> = BTreeMap::new();
    for record in log.records() {
        groups
            .entry((record.kind.as_str(), record.params.as_str(), record.seed))
            .or_default()
            .push(record);
    }
    let mut report = DriftReport {
        records: log.len(),
        ..DriftReport::default()
    };
    for ((kind, params, seed), runs) in &groups {
        report.checks.push(DriftCheck {
            kind: (*kind).to_string(),
            params: (*params).to_string(),
            seed: *seed,
            runs: runs.len() as u64,
        });
        let latest = runs[runs.len() - 1];
        if let Some(flips) = latest.flips {
            if flips > 0 {
                report.failures.push(format!(
                    "{kind}@{params}: latest run recorded {flips} reject->accept fault flips"
                ));
            }
        }
        if runs.len() < 2 {
            continue;
        }
        let prev = runs[runs.len() - 2];
        for class in latest.classes() {
            let (acc_prev, other_prev) = prev.class_split(class);
            let (acc_cur, other_cur) = latest.class_split(class);
            if acc_cur > acc_prev && other_cur < other_prev {
                report.failures.push(format!(
                    "{kind}@{params}: class {class:?} drifted toward acceptance \
                     (accept {acc_prev}->{acc_cur}, non-accept {other_prev}->{other_cur})"
                ));
            }
        }
        for (name, &current) in &latest.perf {
            let mut history: Vec<f64> = runs[..runs.len() - 1]
                .iter()
                .rev()
                .take(opts.window)
                .filter_map(|r| r.perf.get(name).copied())
                .collect();
            if history.is_empty() {
                continue;
            }
            history.sort_by(f64::total_cmp);
            let median = history[history.len() / 2];
            if median > 0.0 && current < median / opts.perf_ratio {
                report.warnings.push(format!(
                    "{kind}@{params}: {name} at {current:.1} trials/s, \
                     below median {median:.1} / {}",
                    opts.perf_ratio
                ));
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(kind: &str, seed: u64, mix: &[(&str, &str, u64)]) -> TrendRecord {
        let mut r = TrendRecord::new(kind, "flashmark-test/0.1.0", seed, Digest64::of(b"params"));
        for &(class, verdict, n) in mix {
            r.verdict_mix
                .insert((class.to_string(), verdict.to_string()), n);
        }
        r
    }

    #[test]
    fn canonical_line_roundtrips_through_the_parser() {
        let mut r = record(
            "service",
            0x5E47,
            &[("genuine", "accept", 10), ("clone", "reject", 4)],
        );
        r.flips = Some(0);
        r.ops = None;
        r.perf.insert("kernel/read_segment".into(), 15598.25);
        let mut log = TrendLog::new();
        log.append(r.clone());
        let parsed = TrendLog::parse(&log.contents()).expect("parse");
        assert_eq!(parsed.records(), &[r]);
        assert_eq!(parsed.root(), log.root());
    }

    #[test]
    fn contents_are_stable_and_chain_replays() {
        let mut log = TrendLog::new();
        log.append(record("suite", 1, &[("genuine", "accept", 5)]));
        log.append(record("suite", 1, &[("genuine", "accept", 5)]));
        let text = log.contents();
        assert_eq!(text, TrendLog::parse(&text).unwrap().contents());
        assert_eq!(text.lines().count(), 2);
        assert!(text.starts_with("{\"seq\":0,\"chain\":\""));
    }

    #[test]
    fn tampered_logs_are_rejected() {
        let mut log = TrendLog::new();
        log.append(record("suite", 1, &[("genuine", "accept", 5)]));
        log.append(record("suite", 1, &[("clone", "reject", 5)]));
        let text = log.contents();

        // Flip one verdict count without re-chaining.
        let edited = text.replace("\"clone/reject\":5", "\"clone/reject\":4");
        assert_ne!(edited, text);
        assert!(matches!(
            TrendLog::parse(&edited),
            Err(TrendError::Chain { seq: 1 })
        ));

        // Drop the first line: the survivor's seq and chain both misfit.
        let truncated = text.lines().nth(1).unwrap();
        assert!(TrendLog::parse(truncated).is_err());

        // Garbage is a parse error with a line number.
        assert!(matches!(
            TrendLog::parse("not json\n"),
            Err(TrendError::Parse(1, _))
        ));
    }

    #[test]
    fn non_canonical_bytes_are_rejected_even_when_values_chain() {
        let mut log = TrendLog::new();
        log.append(record("suite", 1, &[("genuine", "accept", 5)]));
        log.append(record("suite", 1, &[("clone", "reject", 5)]));
        let text = log.contents();
        let chain = Digest64::EMPTY.link(log.records()[0].digest()).to_string();
        // Each edit parses to the same values, so the chain still replays.
        let edits = [
            (text.replacen(&chain, &chain.to_uppercase(), 1), 1),
            (text.replacen("\"seq\":0", "\"seq\":00", 1), 1),
            (text.replacen('\n', "\r\n", 1), 1),
            (text.replacen('\n', "\n\n", 1), 2),
        ];
        for (edited, line) in edits {
            assert_ne!(edited, text);
            match TrendLog::parse(&edited) {
                Err(TrendError::Parse(at, _)) => assert_eq!(at, line, "{edited:?}"),
                other => panic!("{edited:?} gave {other:?}"),
            }
        }
    }

    #[test]
    fn append_to_log_extends_the_file_incrementally() {
        let dir = std::env::temp_dir().join(format!("flashmark_trend_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trend_log.jsonl");
        std::fs::remove_file(&path).ok();

        let seq0 = append_to_log(&path, record("service", 2, &[("genuine", "accept", 3)])).unwrap();
        let seq1 = append_to_log(&path, record("service", 2, &[("genuine", "accept", 3)])).unwrap();
        assert_eq!((seq0, seq1), (0, 1));
        let log = TrendLog::load(&path).unwrap();
        assert_eq!(log.len(), 2);

        // The file bytes equal the canonical serialization.
        let mut expected = TrendLog::new();
        expected.append(record("service", 2, &[("genuine", "accept", 3)]));
        expected.append(record("service", 2, &[("genuine", "accept", 3)]));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), expected.contents());

        // A corrupt file refuses further appends.
        std::fs::write(&path, "broken\n").unwrap();
        assert!(append_to_log(&path, record("service", 2, &[])).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_log_without_its_final_newline_is_refused_not_extended() {
        let dir = std::env::temp_dir().join(format!("flashmark_trend_torn_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trend_log.jsonl");
        let mut log = TrendLog::new();
        log.append(record("suite", 1, &[("genuine", "accept", 5)]));
        log.append(record("suite", 1, &[("clone", "reject", 5)]));
        let text = log.contents();
        let torn = text.strip_suffix('\n').unwrap();

        match TrendLog::parse(torn) {
            Err(TrendError::Parse(2, msg)) => assert!(msg.contains("newline"), "{msg}"),
            other => panic!("torn log gave {other:?}"),
        }
        std::fs::write(&path, torn).unwrap();
        assert!(append_to_log(&path, record("suite", 1, &[])).is_err());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), torn);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_loads_as_empty() {
        let path = std::env::temp_dir().join("flashmark_trend_never_written.jsonl");
        std::fs::remove_file(&path).ok();
        assert!(TrendLog::load(&path).unwrap().is_empty());
    }

    #[test]
    fn identical_consecutive_runs_pass_the_gate() {
        let mut log = TrendLog::new();
        let r = record(
            "service",
            7,
            &[("genuine", "accept", 10), ("clone", "reject", 5)],
        );
        log.append(r.clone());
        log.append(r);
        let report = compute_drift(&log, &DriftOptions::default());
        assert!(report.passed(), "{:?}", report.failures);
        assert_eq!(report.checks.len(), 1);
        assert_eq!(report.checks[0].runs, 2);
    }

    #[test]
    fn reject_to_accept_movement_fails_the_gate() {
        let mut log = TrendLog::new();
        log.append(record(
            "service",
            7,
            &[("clone", "reject", 5), ("genuine", "accept", 10)],
        ));
        log.append(record(
            "service",
            7,
            &[
                ("clone", "reject", 3),
                ("clone", "accept", 2),
                ("genuine", "accept", 10),
            ],
        ));
        let report = compute_drift(&log, &DriftOptions::default());
        assert!(!report.passed());
        assert!(
            report.failures[0].contains("clone"),
            "{:?}",
            report.failures
        );
    }

    #[test]
    fn movement_toward_rejection_does_not_fail() {
        let mut log = TrendLog::new();
        log.append(record(
            "service",
            7,
            &[("recycled", "accept", 5), ("recycled", "reject", 1)],
        ));
        // Detection got stricter: accepts down, rejects up. Not a failure.
        log.append(record(
            "service",
            7,
            &[("recycled", "accept", 2), ("recycled", "reject", 4)],
        ));
        assert!(compute_drift(&log, &DriftOptions::default()).passed());
    }

    #[test]
    fn nonzero_flips_fail_even_without_a_predecessor() {
        let mut log = TrendLog::new();
        let mut r = record("fault", 3, &[]);
        r.flips = Some(2);
        log.append(r);
        let report = compute_drift(&log, &DriftOptions::default());
        assert!(!report.passed());
        assert!(report.failures[0].contains("fault flips"));
    }

    #[test]
    fn perf_drift_warns_but_never_fails() {
        let mut log = TrendLog::new();
        for _ in 0..3 {
            let mut r = record("perf", 1, &[]);
            r.perf.insert("kernel/bulk_stress_5k".into(), 16_000.0);
            log.append(r);
        }
        let mut slow = record("perf", 1, &[]);
        slow.perf.insert("kernel/bulk_stress_5k".into(), 1_000.0);
        log.append(slow);
        let report = compute_drift(&log, &DriftOptions::default());
        assert!(report.passed(), "perf drift must not gate");
        assert_eq!(report.warnings.len(), 1);
        assert!(report.warnings[0].contains("bulk_stress_5k"));
    }

    #[test]
    fn groups_with_different_params_or_seed_never_compare() {
        let mut log = TrendLog::new();
        log.append(record("service", 1, &[("clone", "reject", 5)]));
        // Same kind, different seed: a fresh group, so the "drift" toward
        // acceptance is not comparable and must not fail.
        log.append(record("service", 2, &[("clone", "accept", 5)]));
        let report = compute_drift(&log, &DriftOptions::default());
        assert!(report.passed());
        assert_eq!(report.checks.len(), 2);
    }
}
