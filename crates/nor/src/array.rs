//! The cell array: per-segment cell state over the physics models.
//!
//! The array is purely about cell *state*; timing and command sequencing
//! live in [`FlashController`](crate::controller::FlashController). Segments
//! are materialized lazily — simulating a 256 KB device costs memory only
//! for the segments an experiment actually touches.
//!
//! Cell storage is a structure-of-arrays
//! [`CellArena`] per segment, and the batched
//! operations (reads, programs, erase pulses, bulk stress, the early-exit
//! erase estimator) run as the arena's chunked lane kernels. Per-operation
//! randomness comes from counter-based streams: each operation derives a
//! [`CounterStream`] from `(op seed, entity index, op counter)`, so a batched
//! sweep draws exactly the deviates a word-by-word loop would, bit for bit.
//!
//! # Segment journals
//!
//! Clones of one chip mostly repeat one another: every inspection of a chip
//! runs the same extraction (erase, program, partial erase, read) from the
//! same enrolled state, and since every draw is keyed on the op counter,
//! each run computes what the last one computed, bit for bit. So a clone
//! replays instead. Its cells are copy-on-write ([`CellArena`]), and each
//! segment entry keeps a *journal*: the steps, key and output, of the ops
//! that clones ran from the segment's current state. A step's key
//! is the op and its arguments (the pulse duration of
//! [`FlashArray::erase_pulse`], the words of
//! [`FlashArray::program_segment_words`], nothing more for
//! [`FlashArray::read_segment_words`]), the op counter at the op's start,
//! and the die temperature. Everything else an op reads — chip seed, op
//! seed, physics parameters, geometry — is fixed per array and copied into
//! every clone, and the erase-distribution cache is a pure cache.
//!
//! A clone follows the journal of every segment it copied through a
//! *trail*: a position, and the steps passed but not yet applied to its
//! cells. The trail starts at step 0 of a segment the source owns, and is
//! the source's own trail for a segment the source follows. Each of the
//! three journaled ops then does one of three things:
//!
//! * **follow** — the next step's key matches: return its output, queue
//!   the step, and advance the counter exactly as the op would;
//! * **record** — the trail is at the journal's end: apply the queued
//!   steps, each at its own counter and temperature, compute the op, and
//!   append its step while the journal holds fewer than 64 steps and no
//!   other clone appended first;
//! * **leave** — otherwise: apply the queued steps, compute the op, and
//!   own the segment, with a fresh journal of its own.
//!
//! Ground-truth reads ([`FlashArray::segment`], [`FlashArray::ideal_bits`],
//! [`FlashArray::wear_stats`], [`FlashArray::worst_t_cross_multi`]) apply
//! the queued steps and keep the trail. Every other write — word reads and
//! programs, partial programs, bulk stress and bakes — applies them and
//! leaves.
//!
//! An op computed on an owned segment resets that segment's journal (one
//! that clones still follow stays theirs, and the owner starts a fresh
//! one), and an op that advances the counter resets the journals of every
//! owned segment: no step of theirs can match again, and a stale journal
//! would keep every later clone from recording. Results never depend on
//! which clone recorded first; only speed does.
//!
//! A segment has a journal before it has cells. An op derives a segment's
//! cells from the chip seed the first time it needs them, and
//! [`FlashArray::reserve`] makes an entry with a journal and no cells, so
//! that the clones of a chip that never wrote the segment share one
//! journal of it: the first to run the extraction derives the cells,
//! computes and records, and every later one follows without deriving.
//! The source keeps no cells it did not hold before. A segment the source
//! has neither touched nor reserved has no entry to share, so each clone
//! derives and computes it.
//!
//! [`FlashArray::shed_statics`] drops the statics lanes of every segment
//! and keeps the state: a clone that follows a journal never reads them,
//! and one that computes derives them again for its own copy.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use flashmark_physics::arena::CellArena;
use flashmark_physics::erase::erase_temp_factor;
use flashmark_physics::noise::PulseNoise;
use flashmark_physics::program::apply_partial_program;
use flashmark_physics::retention::apply_bake;
use flashmark_physics::rng::{mix2, CounterStream, SplitMix64};
use flashmark_physics::EraseDistCache;
use flashmark_physics::{Micros, PhysicsParams};

use crate::addr::{SegmentAddr, WordAddr};
use crate::error::NorError;
use crate::geometry::{FlashGeometry, WORD_BITS};

/// The most steps one segment journal holds; a clone at the end of a full
/// journal computes and leaves it.
const JOURNAL_CAP: usize = 64;

/// Wear statistics of one segment.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WearStats {
    /// Minimum wear over the segment's cells (cycles).
    pub min_cycles: f64,
    /// Maximum wear over the segment's cells (cycles).
    pub max_cycles: f64,
    /// Mean wear over the segment's cells (cycles).
    pub mean_cycles: f64,
}

/// The flash cell array of one chip.
///
/// A clone is copy-on-write and follows this array's journals (see the
/// module docs).
#[derive(Debug, Clone)]
pub struct FlashArray {
    params: PhysicsParams,
    geometry: FlashGeometry,
    chip_seed: u64,
    segments: BTreeMap<u32, Segment>,
    /// Seed coordinate of every per-operation [`CounterStream`].
    op_seed: u64,
    /// Monotone operation counter — the third stream coordinate. Advances
    /// exactly as a word-by-word loop would, so batched sweeps stay
    /// bit-identical to looped ones.
    op_counter: u64,
    temp_c: f64,
    dist_cache: EraseDistCache,
}

/// A segment entry: its cells once an op needs them, the journal that
/// clones of the array follow, and the array's trail while it follows
/// another array's journal. An entry without cells holds the state its
/// cells derive to from the chip seed, with the trail's steps applied.
#[derive(Debug, Default)]
struct Segment {
    /// `None` until an op of this array needs the cells.
    cells: Option<CellArena>,
    journal: Journal,
    /// `None` while the array owns the segment.
    trail: Option<Trail>,
}

impl Clone for Segment {
    /// The clone follows the journal: from its start where the source owns
    /// the segment, from the source's trail where the source follows.
    fn clone(&self) -> Self {
        Self {
            cells: self.cells.clone(),
            journal: Arc::clone(&self.journal),
            trail: Some(self.trail.clone().unwrap_or_default()),
        }
    }
}

/// The steps clones ran from one segment state, shared by every array that
/// follows them.
type Journal = Arc<Mutex<Vec<Step>>>;

/// Where a following array stands in a journal.
#[derive(Debug, Clone, Default)]
struct Trail {
    /// How many steps the array has passed.
    position: usize,
    /// The passed steps not yet applied to the cells, oldest first.
    queued: Vec<Step>,
}

/// One journal step: a journaled op's key and output. Cloning one shares
/// its words.
#[derive(Debug, Clone)]
struct Step {
    at: At,
    op: Recorded,
}

/// When an op runs: the op counter at its start and the die temperature
/// (as bits, so that keys compare exactly).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct At {
    counter: u64,
    temp_bits: u64,
}

/// A journaled op's arguments and output, typed per op, so a step of
/// another op never matches.
#[derive(Debug, Clone)]
enum Recorded {
    /// [`FlashArray::erase_pulse`]: the pulse duration's bits, and whether
    /// every cell completed.
    ErasePulse { t_pe: u64, done: bool },
    /// [`FlashArray::program_segment_words`]: the words programmed.
    ProgramWords { values: Arc<[u16]> },
    /// [`FlashArray::read_segment_words`]: the words read.
    ReadWords { words: Arc<[u16]> },
}

/// What an op on one segment reads besides the cells: the array's fixed
/// inputs and its erase-distribution cache, borrowed apart from the
/// segments so that hot paths never clone `PhysicsParams` (whose
/// calibration tables are `Vec`-backed).
struct Kernel<'a> {
    params: &'a PhysicsParams,
    dist_cache: &'a mut EraseDistCache,
    geometry: FlashGeometry,
    chip_seed: u64,
    op_seed: u64,
    seg: SegmentAddr,
}

impl Kernel<'_> {
    /// The segment's cells, derived from the chip seed the first time an
    /// op needs them.
    fn derive<'c>(&self, cells: &'c mut Option<CellArena>) -> &'c mut CellArena {
        cells.get_or_insert_with(|| {
            let n = self.geometry.cells_per_segment();
            let base_cell = u64::from(self.seg.index()) * n as u64;
            CellArena::derive(self.params, self.chip_seed, base_cell, n)
        })
    }

    /// One erase pulse of nominal `t_pe` µs over the segment.
    fn erase_pulse(&mut self, cells: &mut CellArena, at: At, t_pe: f64) -> bool {
        let temp = erase_temp_factor(self.params, f64::from_bits(at.temp_bits));
        let index = self.seg.index();
        let base_cell = u64::from(index) * self.geometry.cells_per_segment() as u64;
        let stream = CounterStream::new(self.op_seed, 0xE7A5 ^ u64::from(index), at.counter);
        let pulse = PulseNoise::from_stream(self.params, &stream);
        cells.erase_pulse(self.params, self.dist_cache, base_cell, &pulse, t_pe, temp)
    }

    /// Programs every word of the segment, one counter value per word.
    fn program_words(&self, cells: &mut CellArena, at: At, values: &[u16]) {
        let base = self.geometry.first_word(self.seg);
        for ((w, &value), counter) in values.iter().enumerate().zip(at.counter..) {
            let word_index = base.offset(w as u32).index();
            let stream =
                CounterStream::new(self.op_seed, 0x9806_0000 ^ u64::from(word_index), counter);
            cells.program_word(self.params, w * WORD_BITS, value, &stream);
        }
    }

    /// Senses every word of the segment, one counter value per word.
    fn read_words(&self, cells: &CellArena, at: At) -> Vec<u16> {
        let base = self.geometry.first_word(self.seg);
        (0..self.geometry.words_per_segment())
            .zip(at.counter..)
            .map(|(w, counter)| {
                let word_index = u64::from(base.offset(w as u32).index());
                let stream = CounterStream::new(self.op_seed, word_index, counter);
                cells.sense_word(self.params, w * WORD_BITS, &stream)
            })
            .collect()
    }
}

impl Trail {
    /// Applies the queued steps' ops to `cells`, each at its own counter
    /// and temperature (a read leaves the cells as they are).
    fn apply(&mut self, kernel: &mut Kernel<'_>, cells: &mut CellArena) {
        for step in self.queued.drain(..) {
            match &step.op {
                Recorded::ErasePulse { t_pe, .. } => {
                    kernel.erase_pulse(cells, step.at, f64::from_bits(*t_pe));
                }
                Recorded::ProgramWords { values } => kernel.program_words(cells, step.at, values),
                Recorded::ReadWords { .. } => {}
            }
        }
    }
}

impl Segment {
    /// The cells with the queued steps applied, keeping the trail.
    fn settle(&mut self, kernel: &mut Kernel<'_>) -> &mut CellArena {
        let cells = kernel.derive(&mut self.cells);
        if let Some(trail) = &mut self.trail {
            trail.apply(kernel, cells);
        }
        cells
    }

    /// The cells with the queued steps applied, and the array the
    /// segment's owner with an empty journal: for a write outside the
    /// journal.
    fn own(&mut self, kernel: &mut Kernel<'_>) -> &mut CellArena {
        let cells = kernel.derive(&mut self.cells);
        if let Some(mut trail) = self.trail.take() {
            trail.apply(kernel, cells);
        }
        reset(&mut self.journal);
        cells
    }

    /// Runs one journaled op (see the module docs): `recorded` gives a
    /// step's output when the step is this op with these arguments, `run`
    /// computes the op, and `record` makes its step.
    fn journaled<T>(
        &mut self,
        kernel: &mut Kernel<'_>,
        at: At,
        recorded: impl FnOnce(&Recorded) -> Option<T>,
        run: impl FnOnce(&mut Kernel<'_>, &mut CellArena, At) -> T,
        record: impl FnOnce(&T) -> Recorded,
    ) -> T {
        let Self {
            cells,
            journal,
            trail,
        } = self;
        if let Some(trail) = trail {
            let next = lock(journal).get(trail.position).cloned();
            let Some(step) = next else {
                let cells = kernel.derive(cells);
                trail.apply(kernel, cells);
                let out = run(kernel, cells, at);
                let mut steps = lock(journal);
                if steps.len() == trail.position && steps.len() < JOURNAL_CAP {
                    steps.push(Step {
                        at,
                        op: record(&out),
                    });
                    trail.position += 1;
                } else {
                    drop(steps);
                    self.own(kernel);
                }
                return out;
            };
            let hit = if step.at == at {
                recorded(&step.op)
            } else {
                None
            };
            if let Some(out) = hit {
                trail.position += 1;
                trail.queued.push(step);
                return out;
            }
        }
        let cells = self.own(kernel);
        run(kernel, cells, at)
    }
}

/// The steps of `journal`. A poisoned lock is taken over as it is: a push,
/// the only write under the lock, leaves the list valid.
fn lock(journal: &Journal) -> MutexGuard<'_, Vec<Step>> {
    journal.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Empties `journal` for a segment whose state is about to change: in
/// place when no other array holds it, and otherwise by starting a fresh
/// one, leaving the old one to the clones that follow it.
fn reset(journal: &mut Journal) {
    match Arc::get_mut(journal) {
        Some(steps) => steps
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .clear(),
        None => *journal = Journal::default(),
    }
}

/// Refuses a pulse that would undo wear: a negative or non-finite duration
/// (a zero-length pulse is legal and changes nothing).
fn check_pulse(t: Micros) -> Result<(), NorError> {
    if t.is_finite() && t.get() >= 0.0 {
        Ok(())
    } else {
        Err(NorError::InvalidPulse)
    }
}

impl FlashArray {
    /// Creates the array of chip `chip_seed`.
    #[must_use]
    pub fn new(params: PhysicsParams, geometry: FlashGeometry, chip_seed: u64) -> Self {
        let dist_cache = EraseDistCache::new(params.erase_dist_grid_kcycles);
        Self {
            params,
            geometry,
            chip_seed,
            segments: BTreeMap::new(),
            op_seed: mix2(chip_seed, 0x0505_0505),
            op_counter: 0,
            temp_c: 25.0,
            dist_cache,
        }
    }

    /// Sets the die temperature for subsequent operations.
    pub fn set_temperature_c(&mut self, temp_c: f64) {
        self.temp_c = temp_c;
    }

    /// The physics parameter set.
    #[must_use]
    pub fn params(&self) -> &PhysicsParams {
        &self.params
    }

    /// The device geometry.
    #[must_use]
    pub fn geometry(&self) -> FlashGeometry {
        self.geometry
    }

    /// The chip seed (identity) of this array.
    #[must_use]
    pub fn chip_seed(&self) -> u64 {
        self.chip_seed
    }

    /// Gives segment `seg` a journal before it has cells, so that clones of
    /// the array share one journal of it while the array never derives
    /// it. The entry stays out of [`FlashArray::touched_segments`] until an
    /// op runs on it; an entry that exists already is left as it is.
    pub fn reserve(&mut self, seg: SegmentAddr) {
        self.segments.entry(seg.index()).or_default();
    }

    /// Read-only view of a segment's cells (materializing it if needed),
    /// with every op the array has run on it applied.
    pub fn segment(&mut self, seg: SegmentAddr) -> &CellArena {
        let (mut kernel, segment) = self.split(seg);
        segment.settle(&mut kernel)
    }

    /// The kernel inputs and the segment's entry (made without cells where
    /// there is none), borrowed apart.
    fn split(&mut self, seg: SegmentAddr) -> (Kernel<'_>, &mut Segment) {
        let Self {
            params,
            geometry,
            chip_seed,
            segments,
            op_seed,
            dist_cache,
            ..
        } = self;
        let kernel = Kernel {
            params,
            dist_cache,
            geometry: *geometry,
            chip_seed: *chip_seed,
            op_seed: *op_seed,
            seg,
        };
        (kernel, segments.entry(seg.index()).or_default())
    }

    /// The segment's cells, settled and owned by the array with an empty
    /// journal (the writes outside the journal).
    fn owned(&mut self, seg: SegmentAddr) -> (Kernel<'_>, &mut CellArena) {
        let (mut kernel, segment) = self.split(seg);
        let cells = segment.own(&mut kernel);
        (kernel, cells)
    }

    /// Advances the op counter by `ops`, and resets the journals of the
    /// owned segments, none of whose steps can match again.
    fn advance(&mut self, ops: u64) {
        self.op_counter += ops;
        for segment in self.segments.values_mut() {
            if segment.trail.is_none() {
                reset(&mut segment.journal);
            }
        }
    }

    /// Runs a journaled op of `ops` counter steps on `seg`; see
    /// [`Segment::journaled`].
    fn journaled<T>(
        &mut self,
        seg: SegmentAddr,
        ops: u64,
        recorded: impl FnOnce(&Recorded) -> Option<T>,
        run: impl FnOnce(&mut Kernel<'_>, &mut CellArena, At) -> T,
        record: impl FnOnce(&T) -> Recorded,
    ) -> T {
        let at = At {
            counter: self.op_counter,
            temp_bits: self.temp_c.to_bits(),
        };
        let (mut kernel, segment) = self.split(seg);
        let out = segment.journaled(&mut kernel, at, recorded, run, record);
        self.advance(ops);
        out
    }

    /// Expands a per-word pattern into the per-cell stress mask the arena
    /// kernels take: bit 0 of the pattern word means "stressed".
    fn stressed_mask(pattern: &[u16]) -> Vec<bool> {
        let mut mask = Vec::with_capacity(pattern.len() * WORD_BITS);
        for &value in pattern {
            for bit in 0..WORD_BITS {
                mask.push(value & (1 << bit) == 0);
            }
        }
        mask
    }

    /// Senses one word with read noise (one fresh noise draw per bit).
    ///
    /// # Errors
    ///
    /// Returns [`NorError::WordOutOfRange`] for an address past the device.
    pub fn read_word(&mut self, word: WordAddr) -> Result<u16, NorError> {
        self.geometry.check_word(word)?;
        let seg = self.geometry.segment_of(word);
        let offset = self.geometry.word_offset_in_segment(word) * WORD_BITS;
        let stream = CounterStream::new(self.op_seed, u64::from(word.index()), self.op_counter);
        let (kernel, cells) = self.owned(seg);
        let value = cells.sense_word(kernel.params, offset, &stream);
        self.advance(1);
        Ok(value)
    }

    /// Senses every word of a segment in one sweep (the bulk-read kernel),
    /// through the segment's journal.
    ///
    /// Stream derivation and results are bit-identical to calling
    /// [`FlashArray::read_word`] on each word of the segment in order; the
    /// batched form pays the parameter/segment lookup once instead of per
    /// word.
    ///
    /// # Errors
    ///
    /// Returns [`NorError::SegmentOutOfRange`] for a bad address.
    pub fn read_segment_words(&mut self, seg: SegmentAddr) -> Result<Vec<u16>, NorError> {
        self.geometry.check_segment(seg)?;
        let words = self.geometry.words_per_segment() as u64;
        Ok(self.journaled(
            seg,
            words,
            |op| match op {
                Recorded::ReadWords { words } => Some(words.to_vec()),
                _ => None,
            },
            |kernel, cells, at| kernel.read_words(cells, at),
            |words| Recorded::ReadWords {
                words: words.as_slice().into(),
            },
        ))
    }

    /// Noise-free logical value of every cell of a segment (ground truth for
    /// experiments; not reachable through the digital interface).
    pub fn ideal_bits(&mut self, seg: SegmentAddr) -> Vec<bool> {
        let (mut kernel, segment) = self.split(seg);
        let cells = segment.settle(&mut kernel);
        let vref = kernel.params.vref.get();
        cells.vth().iter().map(|&vth| vth < vref).collect()
    }

    /// Programs the 0-bits of `value` into a word (flash semantics: a
    /// program can only flip bits from 1 to 0, so the result is the AND of
    /// old and new contents, as on real parts).
    ///
    /// # Errors
    ///
    /// Returns [`NorError::WordOutOfRange`].
    pub fn program_word(&mut self, word: WordAddr, value: u16) -> Result<(), NorError> {
        self.geometry.check_word(word)?;
        let seg = self.geometry.segment_of(word);
        let offset = self.geometry.word_offset_in_segment(word) * WORD_BITS;
        let entity = 0x9806_0000 ^ u64::from(word.index());
        let stream = CounterStream::new(self.op_seed, entity, self.op_counter);
        let (kernel, cells) = self.owned(seg);
        cells.program_word(kernel.params, offset, value, &stream);
        self.advance(1);
        Ok(())
    }

    /// Programs every word of a segment in one sweep (the bulk-program
    /// kernel behind block programming), through the segment's journal.
    ///
    /// Stream derivation and cell updates are bit-identical to calling
    /// [`FlashArray::program_word`] on each word in order.
    ///
    /// # Errors
    ///
    /// Returns [`NorError::SegmentOutOfRange`] or
    /// [`NorError::BlockLengthMismatch`].
    pub fn program_segment_words(
        &mut self,
        seg: SegmentAddr,
        values: &[u16],
    ) -> Result<(), NorError> {
        self.check_pattern(seg, values)?;
        self.journaled(
            seg,
            values.len() as u64,
            |op| matches!(op, Recorded::ProgramWords { values: v } if **v == *values).then_some(()),
            |kernel, cells, at| kernel.program_words(cells, at, values),
            |()| Recorded::ProgramWords {
                values: values.into(),
            },
        );
        Ok(())
    }

    /// Applies a *partial program* pulse of duration `t_pp` to every cell of
    /// a segment (the sweeping-partial-program primitive of the FFD-style
    /// recycled-flash detectors, paper refs \[6\]/\[7\]). Worn cells program
    /// faster, so more of them cross the read reference in the same time.
    ///
    /// # Errors
    ///
    /// Returns [`NorError::SegmentOutOfRange`] for a bad address, or
    /// [`NorError::InvalidPulse`] for a negative or non-finite `t_pp`.
    pub fn program_pulse(&mut self, seg: SegmentAddr, t_pp: Micros) -> Result<(), NorError> {
        self.geometry.check_segment(seg)?;
        check_pulse(t_pp)?;
        let entity = 0x9A27 ^ u64::from(seg.index());
        let stream = CounterStream::new(self.op_seed, entity, self.op_counter);
        let (kernel, cells) = self.owned(seg);
        // Partial program is inherently serial (each cell draws its own op
        // noise from the shared sweep stream), so it stays a scalar loop
        // seeded from the counter stream's key.
        let mut rng = SplitMix64::new(stream.key());
        for i in 0..cells.len() {
            let statics = cells.statics_at(kernel.params, i);
            let mut state = cells.state_at(i);
            apply_partial_program(kernel.params, &statics, &mut state, t_pp.get(), &mut rng);
            cells.set_state(i, state);
        }
        self.advance(1);
        Ok(())
    }

    /// Applies an erase pulse of nominal duration `t_pe` to a whole segment,
    /// with per-pulse common-mode and per-cell jitter (the arena's erase
    /// lane kernel), through the segment's journal.
    ///
    /// Returns `true` if every cell completed its erase within the pulse.
    ///
    /// # Errors
    ///
    /// Returns [`NorError::SegmentOutOfRange`] for a bad address, or
    /// [`NorError::InvalidPulse`] for a negative or non-finite `t_pe`.
    pub fn erase_pulse(&mut self, seg: SegmentAddr, t_pe: Micros) -> Result<bool, NorError> {
        self.geometry.check_segment(seg)?;
        check_pulse(t_pe)?;
        let t_pe = t_pe.get();
        Ok(self.journaled(
            seg,
            1,
            |op| match *op {
                Recorded::ErasePulse { t_pe: bits, done } if bits == t_pe.to_bits() => Some(done),
                _ => None,
            },
            |kernel, cells, at| kernel.erase_pulse(cells, at, t_pe),
            |&done| Recorded::ErasePulse {
                t_pe: t_pe.to_bits(),
                done,
            },
        ))
    }

    /// Fully erases a segment (a nominal-duration erase always completes:
    /// even 100 K-cycle cells finish in under a millisecond, far below
    /// `TERASE`).
    ///
    /// # Errors
    ///
    /// Returns [`NorError::SegmentOutOfRange`] for a bad address.
    pub fn erase_complete(&mut self, seg: SegmentAddr, nominal: Micros) -> Result<(), NorError> {
        let done = self.erase_pulse(seg, nominal)?;
        debug_assert!(
            done,
            "nominal erase did not complete; calibration out of range?"
        );
        Ok(())
    }

    /// Worst-case read-reference crossing time (µs) over a segment's cells
    /// at *hypothetical* per-cell wear, for a whole schedule of
    /// `(stressed_wear, spared_wear)` pairs in one call: cells whose pattern
    /// bit is 0 are evaluated at `stressed_wear`, the rest at
    /// `spared_wear`. This is the early-exit-erase estimator used by the
    /// accelerated imprint schedule. The arena prunes the segment to the
    /// Pareto frontier of cells that can attain the maximum, then
    /// evaluates only those per pair, bit-identically to the one-pair
    /// kernel.
    ///
    /// # Errors
    ///
    /// Returns [`NorError::SegmentOutOfRange`] or
    /// [`NorError::BlockLengthMismatch`].
    pub fn worst_t_cross_multi(
        &mut self,
        seg: SegmentAddr,
        pattern: &[u16],
        wear_pairs: &[(f64, f64)],
    ) -> Result<Vec<f64>, NorError> {
        self.check_pattern(seg, pattern)?;
        let mask = Self::stressed_mask(pattern);
        let (mut kernel, segment) = self.split(seg);
        Ok(segment
            .settle(&mut kernel)
            .max_ln_t_cross_multi(kernel.params, kernel.dist_cache, &mask, wear_pairs)
            .into_iter()
            .map(f64::exp)
            .collect())
    }

    fn check_pattern(&self, seg: SegmentAddr, pattern: &[u16]) -> Result<(), NorError> {
        self.geometry.check_segment(seg)?;
        if pattern.len() != self.geometry.words_per_segment() {
            return Err(NorError::BlockLengthMismatch {
                got: pattern.len(),
                expected: self.geometry.words_per_segment(),
            });
        }
        Ok(())
    }

    /// Applies `cycles` P/E cycles of `pattern` to a segment in closed form
    /// (the fast path behind [`BulkStress`](crate::interface::BulkStress)).
    ///
    /// `pattern` holds one word per segment word; 0-bits are programmed every
    /// cycle, 1-bits only see erase pulses. The segment ends holding
    /// `pattern` (last operation of an imprint cycle is the program).
    ///
    /// # Errors
    ///
    /// Returns [`NorError::SegmentOutOfRange`] or
    /// [`NorError::BlockLengthMismatch`].
    pub fn bulk_stress(
        &mut self,
        seg: SegmentAddr,
        pattern: &[u16],
        cycles: u64,
    ) -> Result<(), NorError> {
        self.check_pattern(seg, pattern)?;
        let mask = Self::stressed_mask(pattern);
        let (kernel, cells) = self.owned(seg);
        cells.bulk_stress(kernel.params, &mask, cycles as f64);
        Ok(())
    }

    /// Stores the chip at `temp_c` for `hours` (retention bake).
    ///
    /// Only the [touched](FlashArray::touched_segments) segments are
    /// affected — untouched ones, reserved ones included, hold no charge
    /// anyway.
    pub fn bake(&mut self, hours: f64, temp_c: f64) {
        for seg in self.touched_segments() {
            let (kernel, cells) = self.owned(seg);
            for i in 0..cells.len() {
                let statics = cells.statics_at(kernel.params, i);
                let mut state = cells.state_at(i);
                apply_bake(kernel.params, &statics, &mut state, hours, temp_c);
                cells.set_state(i, state);
            }
        }
    }

    /// Wear statistics of a segment.
    pub fn wear_stats(&mut self, seg: SegmentAddr) -> WearStats {
        let wear = self.segment(seg).wear_cycles();
        let n = wear.len() as f64;
        let mut stats = WearStats {
            min_cycles: f64::INFINITY,
            ..WearStats::default()
        };
        for &w in wear {
            stats.min_cycles = stats.min_cycles.min(w);
            stats.max_cycles = stats.max_cycles.max(w);
            stats.mean_cycles += w / n;
        }
        if stats.min_cycles.is_infinite() {
            stats.min_cycles = 0.0;
        }
        stats
    }

    /// Drops the statics lanes of every segment with cells and keeps their
    /// state, journals and trails (see
    /// [`CellArena::shed_statics`]): a segment an op computes on next
    /// derives them again, bit for bit, and a clone that only follows a
    /// journal never needs them.
    pub fn shed_statics(&mut self) {
        for cells in self.segments.values_mut().filter_map(|s| s.cells.as_mut()) {
            cells.shed_statics();
        }
    }

    /// Segment indices that an op has touched so far, through this array or
    /// the array it was cloned from, in ascending order: those with cells,
    /// and those whose journal the array has followed past a step. A
    /// [reserved](FlashArray::reserve) segment no op has run on is not
    /// listed.
    #[must_use]
    pub fn touched_segments(&self) -> Vec<SegmentAddr> {
        self.segments
            .iter()
            .filter(|(_, s)| s.cells.is_some() || s.trail.as_ref().is_some_and(|t| t.position > 0))
            .map(|(&i, _)| SegmentAddr::new(i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn array() -> FlashArray {
        FlashArray::new(
            PhysicsParams::msp430_like(),
            FlashGeometry::single_bank(8),
            0xFACE,
        )
    }

    #[test]
    fn fresh_array_reads_all_ones() {
        let mut a = array();
        assert_eq!(a.read_word(WordAddr::new(0)).unwrap(), 0xFFFF);
        assert_eq!(a.read_word(WordAddr::new(300)).unwrap(), 0xFFFF);
    }

    #[test]
    fn program_then_read_back() {
        let mut a = array();
        let w = WordAddr::new(10);
        a.program_word(w, 0x5443).unwrap();
        assert_eq!(a.read_word(w).unwrap(), 0x5443);
    }

    #[test]
    fn program_is_logical_and() {
        let mut a = array();
        let w = WordAddr::new(11);
        a.program_word(w, 0xFF0F).unwrap();
        a.program_word(w, 0x0FFF).unwrap();
        assert_eq!(a.read_word(w).unwrap(), 0x0F0F);
    }

    #[test]
    fn erase_restores_ones() {
        let mut a = array();
        let seg = SegmentAddr::new(1);
        let w = WordAddr::new(256);
        a.program_word(w, 0x0000).unwrap();
        a.erase_complete(seg, Micros::from_millis(25.0)).unwrap();
        assert_eq!(a.read_word(w).unwrap(), 0xFFFF);
    }

    #[test]
    fn short_pulse_does_not_erase_fresh_segment() {
        let mut a = array();
        let seg = SegmentAddr::new(2);
        for w in a.geometry().segment_words(seg) {
            a.program_word(w, 0x0000).unwrap();
        }
        let done = a.erase_pulse(seg, Micros::new(5.0)).unwrap();
        assert!(!done);
        let zeros = a.ideal_bits(seg).iter().filter(|&&b| !b).count();
        assert_eq!(zeros, 4096, "5 µs must not flip any fresh cell");
    }

    #[test]
    fn medium_pulse_partially_erases() {
        let mut a = array();
        let seg = SegmentAddr::new(3);
        for w in a.geometry().segment_words(seg) {
            a.program_word(w, 0x0000).unwrap();
        }
        // ~median crossing time for fresh cells: a mid-range fraction flips.
        a.erase_pulse(seg, Micros::new(20.5)).unwrap();
        let ones = a.ideal_bits(seg).iter().filter(|&&b| b).count();
        assert!((600..3500).contains(&ones), "ones = {ones}");
    }

    #[test]
    fn bulk_stress_accumulates_wear_pattern() {
        let mut a = array();
        let seg = SegmentAddr::new(4);
        let mut pattern = vec![0xFFFFu16; 256];
        pattern[0] = 0x0000; // first word stressed
        a.bulk_stress(seg, &pattern, 20_000).unwrap();
        let wear = a.segment(seg).wear_cycles();
        let stressed = wear[5];
        let spared = wear[16 + 5];
        assert!(stressed > 19_000.0, "stressed wear {stressed}");
        assert!(spared < 1_000.0, "spared wear {spared}");
    }

    #[test]
    fn bulk_stress_validates_pattern_length() {
        let mut a = array();
        let err = a
            .bulk_stress(SegmentAddr::new(0), &[0u16; 3], 10)
            .unwrap_err();
        assert!(matches!(
            err,
            NorError::BlockLengthMismatch {
                got: 3,
                expected: 256
            }
        ));
    }

    #[test]
    fn out_of_range_addresses_error() {
        let mut a = array();
        assert!(a.read_word(WordAddr::new(8 * 256)).is_err());
        assert!(a
            .erase_pulse(SegmentAddr::new(8), Micros::new(1.0))
            .is_err());
    }

    #[test]
    fn same_seed_same_chip() {
        let mut a = FlashArray::new(
            PhysicsParams::msp430_like(),
            FlashGeometry::single_bank(2),
            7,
        );
        let mut b = FlashArray::new(
            PhysicsParams::msp430_like(),
            FlashGeometry::single_bank(2),
            7,
        );
        let seg = SegmentAddr::new(0);
        for arr in [&mut a, &mut b] {
            for w in arr.geometry().segment_words(seg) {
                arr.program_word(w, 0x0000).unwrap();
            }
            arr.erase_pulse(seg, Micros::new(20.0)).unwrap();
        }
        assert_eq!(a.ideal_bits(seg), b.ideal_bits(seg));
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = FlashArray::new(
            PhysicsParams::msp430_like(),
            FlashGeometry::single_bank(2),
            7,
        );
        let mut b = FlashArray::new(
            PhysicsParams::msp430_like(),
            FlashGeometry::single_bank(2),
            8,
        );
        let seg = SegmentAddr::new(0);
        for arr in [&mut a, &mut b] {
            for w in arr.geometry().segment_words(seg) {
                arr.program_word(w, 0x0000).unwrap();
            }
            arr.erase_pulse(seg, Micros::new(20.0)).unwrap();
        }
        assert_ne!(a.ideal_bits(seg), b.ideal_bits(seg));
    }

    #[test]
    fn touched_segments_tracks_materialization() {
        let mut a = array();
        assert!(a.touched_segments().is_empty());
        let _ = a.read_word(WordAddr::new(256));
        let _ = a.read_word(WordAddr::new(0));
        assert_eq!(
            a.touched_segments(),
            vec![SegmentAddr::new(0), SegmentAddr::new(1)]
        );
    }

    #[test]
    fn hot_die_erases_more_cells_per_pulse() {
        let mut cold = array();
        let mut hot = array();
        hot.set_temperature_c(85.0);
        cold.set_temperature_c(-20.0);
        let seg = SegmentAddr::new(0);
        for a in [&mut cold, &mut hot] {
            for w in a.geometry().segment_words(seg) {
                a.program_word(w, 0x0000).unwrap();
            }
            a.erase_pulse(seg, Micros::new(19.0)).unwrap();
        }
        let ones_cold = cold.ideal_bits(seg).iter().filter(|&&b| b).count();
        let ones_hot = hot.ideal_bits(seg).iter().filter(|&&b| b).count();
        assert!(
            ones_hot > ones_cold + 400,
            "hot {ones_hot} vs cold {ones_cold}: temperature must accelerate erase"
        );
    }

    #[test]
    fn batched_read_matches_word_loop_bitwise() {
        let mut a = array();
        let mut b = array();
        let seg = SegmentAddr::new(3);
        for arr in [&mut a, &mut b] {
            for w in arr.geometry().segment_words(seg) {
                arr.program_word(w, (w.index() as u16).rotate_left(3))
                    .unwrap();
            }
            // A partial erase puts many cells near the reference so read
            // noise actually matters to the compared values.
            arr.erase_pulse(seg, Micros::new(20.5)).unwrap();
        }
        let batched = a.read_segment_words(seg).unwrap();
        let looped: Vec<u16> = b
            .geometry()
            .segment_words(seg)
            .map(|w| b.read_word(w).unwrap())
            .collect();
        assert_eq!(batched, looped);
        // And the op-counter streams are in the same state afterwards.
        assert_eq!(a.read_word(WordAddr::new(0)), b.read_word(WordAddr::new(0)));
    }

    #[test]
    fn batched_program_matches_word_loop_bitwise() {
        let mut a = array();
        let mut b = array();
        let seg = SegmentAddr::new(2);
        let values: Vec<u16> = (0..256).map(|i| !(i as u16).wrapping_mul(0x1357)).collect();
        a.program_segment_words(seg, &values).unwrap();
        for (w, &v) in b.geometry().segment_words(seg).zip(&values) {
            b.program_word(w, v).unwrap();
        }
        assert_eq!(a.ideal_bits(seg), b.ideal_bits(seg));
        let (sa_vth, sa_wear) = {
            let cells = a.segment(seg);
            (cells.vth().to_vec(), cells.wear_cycles().to_vec())
        };
        let cells_b = b.segment(seg);
        for i in 0..sa_vth.len() {
            assert_eq!(sa_vth[i].to_bits(), cells_b.vth()[i].to_bits());
            assert_eq!(sa_wear[i].to_bits(), cells_b.wear_cycles()[i].to_bits());
        }
    }

    #[test]
    fn batched_program_validates_length() {
        let mut a = array();
        let seg = SegmentAddr::new(1);
        assert!(matches!(
            a.program_segment_words(seg, &[0u16; 3]),
            Err(NorError::BlockLengthMismatch {
                got: 3,
                expected: 256
            })
        ));
    }

    #[test]
    fn worst_t_cross_tracks_stress_pattern() {
        let mut a = array();
        let seg = SegmentAddr::new(0);
        let all_stressed = vec![0x0000u16; 256];
        let worst = a
            .worst_t_cross_multi(seg, &all_stressed, &[(0.0, 0.0), (60_000.0, 0.0)])
            .unwrap();
        let (fresh, worn) = (worst[0], worst[1]);
        assert!(fresh > 0.0);
        assert!(worn > fresh * 2.0, "worn {worn} vs fresh {fresh}");
        assert!(matches!(
            a.worst_t_cross_multi(seg, &[0u16; 2], &[(0.0, 0.0)]),
            Err(NorError::BlockLengthMismatch { .. })
        ));
    }

    /// The journaled extraction of one segment: a full erase, a program of
    /// every word to 0, a partial erase and a read; returns the outputs.
    fn extraction(a: &mut FlashArray, seg: SegmentAddr) -> (bool, bool, Vec<u16>) {
        let zeros = vec![0u16; a.geometry().words_per_segment()];
        let full = a.erase_pulse(seg, Micros::from_millis(25.0)).unwrap();
        a.program_segment_words(seg, &zeros).unwrap();
        let partial = a.erase_pulse(seg, Micros::new(20.5)).unwrap();
        (full, partial, a.read_segment_words(seg).unwrap())
    }

    /// The trail position of a followed segment; `None` where the array
    /// owns it.
    fn trail_position(a: &FlashArray, seg: SegmentAddr) -> Option<usize> {
        a.segments[&seg.index()].trail.as_ref().map(|t| t.position)
    }

    /// A clone taken after an owner op that advanced the counter records
    /// the extraction, and a second such clone replays that record: the
    /// counter move reset the journal an earlier clone recorded at the old
    /// counter, whose steps could never match again.
    #[test]
    fn counter_move_resets_owned_journals() {
        let seg = SegmentAddr::new(1);
        let enrolled = || {
            let mut a = array();
            a.bulk_stress(seg, &[0x0F0Fu16; 256], 20_000).unwrap();
            a
        };
        let mut owner = enrolled();
        let mut screening = owner.clone();
        extraction(&mut screening, seg);
        assert_eq!(
            trail_position(&screening, seg),
            Some(4),
            "screening records"
        );
        drop(screening);
        owner.read_word(WordAddr::new(0)).unwrap();
        let mut first = owner.clone();
        let recorded = extraction(&mut first, seg);
        assert_eq!(
            trail_position(&first, seg),
            Some(4),
            "the first clone records"
        );
        let mut second = owner.clone();
        let replayed = extraction(&mut second, seg);
        assert_eq!(trail_position(&second, seg), Some(4), "the second follows");
        assert_eq!(replayed, recorded);
        let mut never_cloned = enrolled();
        never_cloned.read_word(WordAddr::new(0)).unwrap();
        assert_eq!(extraction(&mut never_cloned, seg), recorded);
        assert_segments_bitwise(&mut second, &mut never_cloned, seg);
    }

    /// Whether the array holds cells of `seg`.
    fn has_cells(a: &FlashArray, seg: SegmentAddr) -> bool {
        a.segments
            .get(&seg.index())
            .is_some_and(|s| s.cells.is_some())
    }

    /// Clones of a chip that reserved a segment share its journal: the
    /// first derives, computes and records the extraction, the second
    /// replays it without cells, and the chip itself never derives. Only
    /// an op puts the segment in `touched_segments`.
    #[test]
    fn clones_of_a_reserved_segment_replay_without_cells() {
        let seg = SegmentAddr::new(2);
        let mut owner = array();
        owner.reserve(seg);
        assert!(owner.touched_segments().is_empty());
        let mut first = owner.clone();
        assert!(first.touched_segments().is_empty(), "a copy is no op");
        let recorded = extraction(&mut first, seg);
        assert_eq!(trail_position(&first, seg), Some(4), "the first records");
        assert!(has_cells(&first, seg));
        let mut second = owner.clone();
        assert_eq!(extraction(&mut second, seg), recorded);
        assert_eq!(trail_position(&second, seg), Some(4), "the second follows");
        assert!(!has_cells(&second, seg), "a follower derives nothing");
        assert_eq!(second.touched_segments(), [seg]);
        assert!(!has_cells(&owner, seg));
        assert!(owner.touched_segments().is_empty());
        let mut never_cloned = array();
        assert_eq!(extraction(&mut never_cloned, seg), recorded);
        assert_segments_bitwise(&mut second, &mut never_cloned, seg);
        assert!(has_cells(&second, seg), "a ground-truth read derives");
    }

    fn assert_segments_bitwise(a: &mut FlashArray, b: &mut FlashArray, seg: SegmentAddr) {
        let bits = |a: &mut FlashArray| {
            let cells = a.segment(seg);
            let lane = |l: &[f64]| l.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            (lane(cells.vth()), lane(cells.wear_cycles()))
        };
        assert!(bits(a) == bits(b), "segment {} differs", seg.index());
    }

    /// One step of a journal property script, decoded from a `u64`.
    #[derive(Debug, Clone, Copy)]
    enum Action {
        /// Clone an array and run the extraction on the clone, as an
        /// inspection does.
        Inspect {
            from: usize,
            seg: u32,
        },
        Extract {
            on: usize,
            seg: u32,
        },
        Erase {
            on: usize,
            seg: u32,
            t_pe: f64,
        },
        Program {
            on: usize,
            seg: u32,
            pattern: u16,
        },
        Read {
            on: usize,
            seg: u32,
        },
        Temperature {
            on: usize,
            temp_c: f64,
        },
        Truth {
            on: usize,
            seg: u32,
        },
        Leave {
            on: usize,
            seg: u32,
            kind: u8,
        },
        /// Shed the array's statics; the never-cloned twin keeps its own,
        /// so a wrong re-derive cannot hide on both sides.
        Shed {
            on: usize,
        },
    }

    /// Three 16-word segments: small enough for many cases in a debug
    /// build.
    const SCRIPT_SEGMENTS: u32 = 3;

    /// The most arrays a script keeps; later inspections drop their clone.
    const SCRIPT_ARRAYS: usize = 8;

    impl Action {
        /// Inspections and bulk stress pick their array with a bias toward
        /// the oldest, so that sources keep changing under the clones that
        /// follow them; the other actions pick uniformly.
        fn decode(x: u64, arrays: usize) -> Self {
            let any = (x >> 8) as usize % arrays;
            let old = any.min((x >> 12) as usize % arrays);
            let seg = ((x >> 16) % u64::from(SCRIPT_SEGMENTS)) as u32;
            let pick = (x >> 24) as usize;
            match x % 21 {
                0..=3 => Self::Inspect { from: old, seg },
                4..=6 => Self::Extract { on: any, seg },
                7 => Self::Erase {
                    on: any,
                    seg,
                    t_pe: [25_000.0, 20.5, 40.0][pick % 3],
                },
                8 => Self::Program {
                    on: any,
                    seg,
                    pattern: [0x0000, 0x5A5A][pick % 2],
                },
                9 => Self::Read { on: any, seg },
                10 | 11 => Self::Temperature {
                    on: any,
                    temp_c: [25.0, 85.0][pick % 2],
                },
                12 | 13 => Self::Truth { on: any, seg },
                14..=16 => Self::Leave {
                    on: old,
                    seg,
                    kind: 3,
                },
                17 => Self::Shed { on: old },
                _ => Self::Leave {
                    on: any,
                    seg,
                    kind: (pick % 5) as u8,
                },
            }
        }

        /// Runs the action on `a` (an inspection: its extraction); every
        /// output as bits. A shed is no op here: the script sheds only
        /// the array, never its twin.
        fn apply(self, a: &mut FlashArray) -> Vec<u64> {
            let seg = |s: u32| SegmentAddr::new(s);
            let words = a.geometry().words_per_segment();
            match self {
                Self::Inspect { seg: s, .. } | Self::Extract { seg: s, .. } => {
                    let (full, partial, read) = extraction(a, seg(s));
                    let flags = [u64::from(full), u64::from(partial)];
                    flags
                        .into_iter()
                        .chain(read.into_iter().map(u64::from))
                        .collect()
                }
                Self::Erase { seg: s, t_pe, .. } => {
                    vec![u64::from(a.erase_pulse(seg(s), Micros::new(t_pe)).unwrap())]
                }
                Self::Program {
                    seg: s, pattern, ..
                } => {
                    let values: Vec<u16> =
                        (0..words as u32).map(|w| pattern.rotate_left(w)).collect();
                    a.program_segment_words(seg(s), &values).unwrap();
                    Vec::new()
                }
                Self::Read { seg: s, .. } => a
                    .read_segment_words(seg(s))
                    .unwrap()
                    .into_iter()
                    .map(u64::from)
                    .collect(),
                Self::Temperature { temp_c, .. } => {
                    a.set_temperature_c(temp_c);
                    Vec::new()
                }
                Self::Truth { seg: s, .. } => {
                    let cells = a.segment(seg(s));
                    let mut out: Vec<u64> = cells.vth().iter().map(|v| v.to_bits()).collect();
                    out.extend(cells.wear_cycles().iter().map(|v| v.to_bits()));
                    let pattern = vec![0x00FFu16; words];
                    let worst =
                        a.worst_t_cross_multi(seg(s), &pattern, &[(0.0, 0.0), (30_000.0, 500.0)]);
                    out.extend(worst.unwrap().into_iter().map(f64::to_bits));
                    out.extend(a.ideal_bits(seg(s)).into_iter().map(u64::from));
                    let stats = a.wear_stats(seg(s));
                    out.extend(
                        [stats.min_cycles, stats.max_cycles, stats.mean_cycles].map(f64::to_bits),
                    );
                    out
                }
                Self::Leave { seg: s, kind, .. } => {
                    let word = a.geometry().first_word(seg(s)).offset(3);
                    match kind {
                        0 => a.program_word(word, 0x1234).unwrap(),
                        1 => return vec![u64::from(a.read_word(word).unwrap())],
                        2 => a.program_pulse(seg(s), Micros::new(3.0)).unwrap(),
                        3 => a.bulk_stress(seg(s), &vec![0x3C3Cu16; words], 500).unwrap(),
                        _ => a.bake(100.0, 85.0),
                    }
                    Vec::new()
                }
                Self::Shed { .. } => Vec::new(),
            }
        }

        fn on(self) -> usize {
            match self {
                Self::Inspect { from: on, .. }
                | Self::Extract { on, .. }
                | Self::Erase { on, .. }
                | Self::Program { on, .. }
                | Self::Read { on, .. }
                | Self::Temperature { on, .. }
                | Self::Truth { on, .. }
                | Self::Leave { on, .. }
                | Self::Shed { on } => on,
            }
        }
    }

    /// The chip every script starts from: two owned segments worn apart,
    /// and one the root reserves but never materializes, so that clones
    /// follow, record and leave an entry without cells.
    fn script_root() -> FlashArray {
        let geometry = FlashGeometry::new(1, SCRIPT_SEGMENTS, 32).unwrap();
        let mut a = FlashArray::new(PhysicsParams::msp430_like(), geometry, 0xFACE);
        a.bulk_stress(SegmentAddr::new(0), &[0x0F0Fu16; 16], 20_000)
            .unwrap();
        a.bulk_stress(SegmentAddr::new(1), &[0x00FFu16; 16], 40_000)
            .unwrap();
        a.reserve(SegmentAddr::new(2));
        a
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Scripts of the journaled ops on clones of clones, mixed with
        /// temperature changes, ground-truth reads, the writes that leave
        /// the journal and sheds of the statics, give every output and
        /// every `vth`/wear bit of the same script on a chip that was never
        /// cloned or shed (rebuilt from the root through its whole
        /// history).
        #[test]
        fn clones_replay_what_a_never_cloned_chip_computes(
            script in proptest::collection::vec(proptest::any::<u64>(), 10..48)
        ) {
            let mut arrays = vec![script_root()];
            let mut histories: Vec<Vec<Action>> = vec![Vec::new()];
            let mut twins = vec![script_root()];
            for (i, &x) in script.iter().enumerate() {
                let action = Action::decode(x, arrays.len());
                let on = action.on();
                let mut history = histories[on].clone();
                let (array, twin) = if let Action::Inspect { from, .. } = action {
                    let mut twin = script_root();
                    for &past in &history {
                        past.apply(&mut twin);
                    }
                    arrays.push(arrays[from].clone());
                    twins.push(twin);
                    let last = arrays.len() - 1;
                    (last, last)
                } else {
                    (on, on)
                };
                if let Action::Shed { .. } = action {
                    arrays[array].shed_statics();
                }
                let got = action.apply(&mut arrays[array]);
                let want = action.apply(&mut twins[twin]);
                proptest::prop_assert!(got == want, "step {i}: {action:?}");
                history.push(action);
                if array == on {
                    histories[on] = history;
                } else if arrays.len() > SCRIPT_ARRAYS {
                    arrays.pop();
                    twins.pop();
                } else {
                    histories.push(history);
                }
            }
            for (array, twin) in arrays.iter_mut().zip(&mut twins) {
                proptest::prop_assert_eq!(array.touched_segments(), twin.touched_segments());
                for seg in twin.touched_segments() {
                    assert_segments_bitwise(array, twin, seg);
                }
            }
        }
    }

    #[test]
    fn bake_flips_no_wear() {
        let mut a = array();
        let seg = SegmentAddr::new(0);
        a.bulk_stress(seg, &vec![0x0000u16; 256], 10_000).unwrap();
        let before = a.wear_stats(seg);
        a.bake(87_600.0, 85.0);
        let after = a.wear_stats(seg);
        assert_eq!(before, after);
    }
}
