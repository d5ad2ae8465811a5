//! Clones of one chip on two worker threads record into one segment
//! journal at once, and a third clone then replays what they recorded:
//! whichever clone appends first, every output equals that of a chip that
//! was never cloned. One round races on a worn segment the chip owns, one
//! on a segment the chip reserved and never materialized.
//!
//! A step's key holds the op counter, which only grows along one array's
//! history, so two clones running the same ops could never leave a step
//! where a third one would match it. The second worker therefore moves its
//! counter by one first, as the first worker's full erase does: a step it
//! appended behind that erase, instead of leaving the journal, would carry
//! the key of the replaying clone's second op.

use std::sync::Barrier;

use flashmark::nor::{FlashArray, FlashGeometry, SegmentAddr, WordAddr};
use flashmark::physics::{Micros, PhysicsParams};
use flashmark_par::TrialRunner;

/// The segment the workers share.
const MARK: SegmentAddr = SegmentAddr::new(1);
/// A word of a second owned segment, whose read moves one worker's
/// counter.
const OTHER_WORD: WordAddr = WordAddr::new(600);
/// Pairs of racing clones, each of a chip of its own.
const PAIRS: usize = 24;

/// The segment every chip reserves and none materializes: its journal
/// exists before its cells.
const BLANK: SegmentAddr = SegmentAddr::new(3);

/// Chip `k` as enrolled: its mark segment worn and programmed, its other
/// segment materialized, and its blank segment reserved.
fn chip(k: usize) -> FlashArray {
    let mut a = FlashArray::new(
        PhysicsParams::msp430_like(),
        FlashGeometry::single_bank(4),
        0x5EED_0000 + k as u64,
    );
    a.bulk_stress(MARK, &[0x0F0F; 256], 30_000).unwrap();
    a.program_segment_words(MARK, &[0x0000; 256]).unwrap();
    a.read_word(OTHER_WORD).unwrap();
    a.reserve(BLANK);
    a
}

/// A partial erase of the mark: it completes only on cells already erased.
const PARTIAL: Micros = Micros::new(30.0);

/// Worker 0: a full erase of the mark (the fast closed form). Its step
/// lands first in the journal, and it moves the counter by one.
fn erase(a: &mut FlashArray) -> Vec<bool> {
    vec![a.erase_pulse(MARK, Micros::from_millis(25.0)).unwrap()]
}

/// Worker 1: a word read elsewhere, which also moves the counter by one,
/// then a partial erase of the mark (the slow exact pulse). Its key is
/// that of a partial erase after the full one, but it starts from the
/// state before the full erase, so it does not complete.
fn partial_after_read(a: &mut FlashArray) -> Vec<bool> {
    a.read_word(OTHER_WORD).unwrap();
    vec![a.erase_pulse(MARK, PARTIAL).unwrap()]
}

/// The replaying clone: the full erase, then the partial one, which
/// completes on the erased mark.
fn erase_then_partial(a: &mut FlashArray) -> Vec<bool> {
    let mut out = erase(a);
    out.push(a.erase_pulse(MARK, PARTIAL).unwrap());
    out
}

/// Blank worker 0: a program of every blank word to 0, which moves the
/// counter by one per word.
fn program_blank(a: &mut FlashArray) -> Vec<u16> {
    a.program_segment_words(BLANK, &[0x0000; 256]).unwrap();
    Vec::new()
}

/// Blank worker 1: a read of the other segment, which moves the counter
/// as far, then a read of the blank segment, still erased. Its key is
/// that of a read after the program.
fn read_blank_after_read(a: &mut FlashArray) -> Vec<u16> {
    a.read_segment_words(SegmentAddr::new(2)).unwrap();
    a.read_segment_words(BLANK).unwrap()
}

/// The blank segment's replaying clone: the program, then a read of the
/// programmed words.
fn program_then_read_blank(a: &mut FlashArray) -> Vec<u16> {
    program_blank(a);
    a.read_segment_words(BLANK).unwrap()
}

/// Races `workers` on clones of every chip, one pair per chip, and returns
/// the chips with each worker's outputs.
fn race<T: Send>(workers: [fn(&mut FlashArray) -> T; 2]) -> (Vec<FlashArray>, Vec<T>) {
    let chips: Vec<FlashArray> = (0..PAIRS).map(chip).collect();
    let start = Barrier::new(2);
    let runner = TrialRunner::with_threads(7, 2);
    // Trials 2k and 2k + 1 take chip k; the two workers pull trials in
    // order, so each pair waits at the barrier together and starts at once.
    let raced = runner.run(2 * PAIRS, |trial| {
        let mut clone = chips[trial.index / 2].clone();
        start.wait();
        workers[trial.index % 2](&mut clone)
    });
    (chips, raced)
}

#[test]
fn racing_recorders_leave_a_journal_that_replays_exactly() {
    let (chips, raced) = race([erase, partial_after_read]);
    for (k, source) in chips.iter().enumerate() {
        assert_eq!(raced[2 * k], erase(&mut chip(k)), "chip {k}: worker 0");
        let worker_1 = partial_after_read(&mut chip(k));
        assert_eq!(raced[2 * k + 1], worker_1, "chip {k}: worker 1");
        let replayed = erase_then_partial(&mut source.clone());
        assert_eq!(
            replayed,
            erase_then_partial(&mut chip(k)),
            "chip {k}: replay"
        );
        assert_eq!(replayed, [true, true]);
        assert_eq!(worker_1, [false]);
    }
}

#[test]
fn racing_recorders_on_a_reserved_segment_replay_exactly() {
    let (chips, raced) = race([program_blank, read_blank_after_read]);
    for (k, source) in chips.iter().enumerate() {
        let worker_1 = read_blank_after_read(&mut chip(k));
        assert_eq!(raced[2 * k + 1], worker_1, "chip {k}: worker 1");
        assert!(!source.touched_segments().contains(&BLANK), "chip {k}");
        let mut replaying = source.clone();
        let replayed = program_then_read_blank(&mut replaying);
        assert_eq!(
            replayed,
            program_then_read_blank(&mut chip(k)),
            "chip {k}: replay"
        );
        assert!(replaying.touched_segments().contains(&BLANK), "chip {k}");
        assert_eq!(replayed, [0x0000; 256]);
        assert_eq!(worker_1, [0xFFFF; 256]);
    }
}
