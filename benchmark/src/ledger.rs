//! Per-layer metrics of a traced run, computed from its spans.
//!
//! Service-path figures (`serve.*`, `core.verify*`, `core.probe*`,
//! `nor.*`, `physics.cells_per_req`, `obs.*`, `registry.*`) are per
//! inspection request of the shadow replay. Enrollment figures
//! (`supply.*`, `core.screen_verify_us`, `physics.cells_per_chip`,
//! `sim.enroll_s`) come from the shadow enrollment: the service build
//! during set-up for the inspect workloads, the measured lots for
//! `enroll_lot`.

use std::collections::BTreeMap;

use crate::metrics::Measured;
use crate::shadow::{Enrollment, RequestFacts};
use crate::timed::NorOp;
use crate::trace::Trace;
use crate::workload::THREADS;

/// Everything a traced run hands to the ledger.
#[derive(Debug)]
pub struct LedgerInput<'a> {
    /// Spans of the measured, traced phase.
    pub phase: &'a Trace,
    /// Spans of the shadow enrollment.
    pub enrollment_trace: &'a Trace,
    /// Totals of the shadow enrollment (chips need not be kept).
    pub enrollment: &'a Enrollment,
    /// Facts of every shadow-served request.
    pub requests: &'a [RequestFacts],
    /// Canonical line bytes of every record the shadow appended.
    pub record_bytes: &'a [usize],
    /// Traced over untraced throughput, and the untraced batches behind it.
    pub overhead: (f64, usize),
}

/// `num / den`, or 0 when nothing was counted.
pub(crate) fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Mean duration, in µs, of spans named `name`.
fn mean_us(trace: &Trace, name: &str) -> (f64, usize) {
    let (n, ns) = trace.total(name);
    (ratio(ns as f64, n as f64) / 1e3, n as usize)
}

/// The per-layer metrics, by name.
#[must_use]
pub fn per_layer(input: &LedgerInput<'_>) -> Measured {
    let phase = input.phase;
    let reqs = input.requests;
    let n = reqs.len();
    let per_req = |x: f64| ratio(x, n as f64);
    let mut m = Measured::new();

    let (batch_us, batches) = mean_us(phase, "serve.batch");
    m.insert("serve.batch_ms", (batch_us / 1e3, batches));
    m.insert("serve.submit_us", mean_us(phase, "serve.submit"));
    m.insert("serve.request_us", mean_us(phase, "serve.request"));
    m.insert(
        "serve.record_build_us",
        mean_us(phase, "serve.record_build"),
    );
    let vlat: u64 = reqs.iter().map(|r| r.vlat_ops).sum();
    m.insert("serve.vlat_ops_per_req", (per_req(vlat as f64), n));

    let (efficiency, imbalance, runs) = parallelism(phase);
    m.insert("par.efficiency", (efficiency, runs));
    m.insert("par.imbalance", (imbalance, runs));

    m.insert("msp430.clone_us", mean_us(phase, "msp430.clone"));
    let (verify_us, verifies) = mean_us(phase, "core.verify");
    m.insert("core.verify_us", (verify_us, verifies));
    let verify_self = phase.self_ns("core.verify") as f64 / 1e3;
    m.insert(
        "core.verify_self_us",
        (ratio(verify_self, verifies as f64), verifies),
    );
    let rungs: u64 = reqs.iter().map(|r| u64::from(r.ladder_rungs)).sum();
    m.insert("core.ladder_rungs", (per_req(rungs as f64), n));
    m.insert("core.probe_us", mean_us(phase, "core.probe"));
    let probes = reqs.iter().filter(|r| r.probed).count();
    m.insert("core.probes", (per_req(probes as f64), n));

    let e = input.enrollment;
    let et = input.enrollment_trace;
    m.insert("core.screen_verify_us", mean_us(et, "core.screen_verify"));
    m.insert("supply.produce_us", mean_us(et, "supply.produce"));
    m.insert(
        "supply.dies_per_chip",
        (
            ratio(e.produced as f64, e.screened as f64),
            e.screened as usize,
        ),
    );

    let mut nor_ns = 0u64;
    for op in NorOp::ALL {
        let name = op.span_name();
        let (calls, ns) = ["core.verify", "core.probe"]
            .iter()
            .map(|parent| phase.total_under(name, parent))
            .fold((0, 0), |(c, t), (c2, t2)| (c + c2, t + t2));
        nor_ns += ns;
        if let Some((us, count)) = op.ledger_names() {
            m.insert(us, (per_req(ns as f64) / 1e3, n));
            m.insert(count, (per_req(calls as f64), n));
        }
    }
    let cells: u64 = reqs.iter().map(|r| r.cells).sum();
    m.insert("physics.cells_per_req", (per_req(cells as f64), n));
    m.insert(
        "physics.ns_per_cell",
        (ratio(nor_ns as f64, cells as f64), n),
    );
    m.insert(
        "physics.cells_per_chip",
        (
            ratio(e.cells as f64, e.produced as f64),
            e.produced as usize,
        ),
    );

    m.insert("registry.append_us", mean_us(phase, "registry.append"));
    let bytes: usize = input.record_bytes.iter().sum();
    m.insert(
        "registry.bytes_per_record",
        (
            ratio(bytes as f64, input.record_bytes.len() as f64),
            input.record_bytes.len(),
        ),
    );
    let (_, collector_ns) = phase.total("obs.collector");
    m.insert("obs.collector_us", (per_req(collector_ns as f64) / 1e3, n));

    let sim: f64 = reqs.iter().map(|r| r.sim_s).sum();
    m.insert("sim.inspect_ms", (per_req(sim) * 1e3, n));
    m.insert(
        "sim.enroll_s",
        (ratio(e.sim_s, e.screened as f64), e.screened as usize),
    );
    m.insert("trace.overhead", input.overhead);
    m
}

/// `(efficiency, imbalance, runs)` of the shadow's `TrialRunner` fan-outs:
/// busy task time over [`THREADS`] × fan-out wall time, and the mean over
/// fan-outs of the longest task over the mean task.
fn parallelism(trace: &Trace) -> (f64, f64, usize) {
    let spans = trace.spans();
    let mut tasks: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
    for s in trace.named("par.task") {
        if let Some(p) = s.parent.filter(|&p| spans[p].name == "par.run") {
            tasks.entry(p).or_default().push(s.ns());
        }
    }
    let busy: u64 = tasks.values().flatten().sum();
    let wall: u64 = tasks.keys().map(|&p| spans[p].ns()).sum();
    let imbalance: f64 = tasks
        .values()
        .map(|t| {
            let mean = t.iter().sum::<u64>() as f64 / t.len() as f64;
            ratio(*t.iter().max().unwrap_or(&0) as f64, mean)
        })
        .sum();
    (
        ratio(busy as f64, (THREADS as u64 * wall) as f64),
        ratio(imbalance, tasks.len() as f64),
        tasks.len(),
    )
}
