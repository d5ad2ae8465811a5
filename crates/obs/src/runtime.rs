//! The thread-local emission runtime.
//!
//! Instrumented crates call [`emit`] unconditionally; it costs one
//! thread-local flag read and a predictable branch when no collector is
//! installed. Installing a [`Collector`] arms the current thread only —
//! [`collect`] scopes one around a trial on whichever worker runs it, so
//! parallel trials never share a collector and no locking is involved.

use std::cell::{Cell, RefCell};

use crate::collector::Collector;
use crate::event::ObsEvent;

thread_local! {
    /// Fast-path flag mirroring `CURRENT.is_some()`.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    /// The collector of the trial currently running on this thread.
    static CURRENT: RefCell<Option<Collector>> = const { RefCell::new(None) };
}

/// Emits one event into the current thread's collector, if any.
///
/// With no collector installed this is a single branch on a thread-local
/// flag — cheap enough to leave in every flash-operation hot path.
#[inline]
pub fn emit(event: ObsEvent) {
    if ARMED.with(Cell::get) {
        emit_armed(event);
    }
}

#[cold]
fn emit_armed(event: ObsEvent) {
    CURRENT.with(|c| {
        if let Some(collector) = c.borrow_mut().as_mut() {
            collector.record(event);
        }
    });
}

/// Installs `collector` on this thread, returning the previously
/// installed one (so nested instrumented scopes can restore it).
pub fn install(collector: Collector) -> Option<Collector> {
    let prev = CURRENT.with(|c| c.borrow_mut().replace(collector));
    ARMED.with(|a| a.set(true));
    prev
}

/// Removes and returns this thread's collector, disarming emission.
pub fn take() -> Option<Collector> {
    let taken = CURRENT.with(|c| c.borrow_mut().take());
    ARMED.with(|a| a.set(false));
    taken
}

/// Runs `f` with `collector` installed on this thread and returns `f`'s
/// result together with the collector, then reinstalls whatever collector
/// was installed before — so scopes nest.
///
/// A body that took the collector itself hands back an empty,
/// metrics-only collector with the same trial index.
pub fn collect<T>(collector: Collector, f: impl FnOnce() -> T) -> (T, Collector) {
    let index = collector.trial_index();
    let prev = install(collector);
    let out = f();
    let collector = take().unwrap_or_else(|| Collector::with_capacity(index, 0));
    if let Some(p) = prev {
        install(p);
    }
    (out, collector)
}

/// An RAII phase marker: emits [`ObsEvent::SpanEnter`] on creation and
/// [`ObsEvent::SpanExit`] when dropped.
#[derive(Debug)]
pub struct Span {
    name: &'static str,
}

impl Drop for Span {
    fn drop(&mut self) {
        emit(ObsEvent::SpanExit { name: self.name });
    }
}

/// Opens a named phase span: `let _span = obs::span("extract");`.
///
/// Both edges are ordinary events, so they are no-ops when no collector
/// is installed and land in the per-trial timeline when one is.
#[must_use = "a span closes when dropped; bind it to a variable for the phase's duration"]
pub fn span(name: &'static str) -> Span {
    emit(ObsEvent::SpanEnter { name });
    Span { name }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::FlashOpKind;

    fn erase() -> ObsEvent {
        ObsEvent::FlashOp {
            kind: FlashOpKind::EraseSegment,
            seg: 0,
        }
    }

    #[test]
    fn emit_without_collector_is_a_no_op() {
        emit(erase());
        assert!(take().is_none());
    }

    #[test]
    fn install_emit_take_roundtrip() {
        assert!(install(Collector::new(3)).is_none());
        emit(erase());
        {
            let _span = span("phase");
            emit(erase());
        }
        let c = take().expect("collector was installed");
        assert!(take().is_none());
        assert_eq!(c.trial_index(), 3);
        assert_eq!(c.metrics().counter("flash", "erase_segment"), 2);
        assert_eq!(c.metrics().counter("span", "phase"), 1);
        let events: Vec<&ObsEvent> = c.events().map(|(_, e)| e).collect();
        assert!(matches!(
            events.as_slice(),
            [
                ObsEvent::FlashOp { .. },
                ObsEvent::SpanEnter { .. },
                ObsEvent::FlashOp { .. },
                ObsEvent::SpanExit { .. }
            ]
        ));
    }

    #[test]
    fn install_returns_the_previous_collector() {
        assert!(install(Collector::new(1)).is_none());
        emit(erase());
        let prev = install(Collector::new(2)).expect("first collector returned");
        assert_eq!(prev.trial_index(), 1);
        assert_eq!(prev.metrics().counter("flash", "erase_segment"), 1);
        let c = take().expect("second collector present");
        assert_eq!(c.trial_index(), 2);
    }

    #[test]
    fn collect_restores_the_enclosing_collector() {
        let ((), outer) = collect(Collector::new(1), || {
            emit(erase());
            let ((), inner) = collect(Collector::new(2), || {
                emit(erase());
                emit(erase());
            });
            assert_eq!(inner.trial_index(), 2);
            assert_eq!(inner.metrics().counter("flash", "erase_segment"), 2);
            emit(erase());
        });
        assert!(
            take().is_none(),
            "nothing was installed before the outer scope"
        );
        assert_eq!(outer.trial_index(), 1);
        assert_eq!(outer.ops(), 2);
        assert_eq!(outer.metrics().counter("flash", "erase_segment"), 2);
    }

    #[test]
    fn collect_hands_back_an_empty_collector_when_the_body_took_it() {
        let (stolen, c) = collect(Collector::new(4), || {
            emit(erase());
            take()
        });
        assert_eq!(stolen.map(|s| s.ops()), Some(1));
        assert_eq!(c.trial_index(), 4);
        assert_eq!(c.ops(), 0);
        assert!(c.metrics().is_empty());
    }
}
