//! `ingest-fleet`: the paper's forecaster panel at fleet scale, no
//! sockets.
//!
//! A [`FleetMonitor`] replays a trace mixture of the six UCSD
//! availability traces with a full 1999 [`PredictorBank`] per host
//! (`FleetPanel::Bank(PanelSpec::Nws1999)`), driven one slot at a time
//! through `run_steps`. The engine, fleet memory, panel and tournament
//! do the work. After each slot a burst of lookups reads the fleet on
//! the same thread through its public read API (forecast, best host,
//! rack best, series tail); nothing in the repository issues such
//! lookups, they exist so the closed-loop metrics have a value on this
//! workload too.

use crate::report::Outcome;
use crate::stats::{fnv_word, min, pct_of, us};
use crate::sys;
use crate::trace::{SpanBuf, Tracer};
use nws_faults::FaultPlan;
use nws_forecast::{PanelSpec, PredictorBank};
use nws_grid::{
    FleetConfig, FleetMonitor, FleetPanel, FleetRoster, Memory, MemoryConfig, ResourceId,
};
use std::time::Instant;

/// Hosts in the fleet: `FleetConfig`'s default size. A full 1999 panel
/// costs ~18 KB per host, so the fleet's state (~18 MB) lives in the
/// shared L3 of the 2-core Xeon VM this was sized on. Its slot time
/// there swings by up to 2x within seconds with the traffic of other
/// tenants of the host, but the quietest short window of a run is
/// steady (within 4% over six 30 s runs). At 10k hosts (~180 MB,
/// DRAM-bound) even the quietest window moved by 20% between runs, and
/// 100k would need ~1.8 GB.
const HOSTS: usize = 1024;
/// Samples per availability trace (one simulated day).
const TRACE_SAMPLES: usize = 8640;
/// Slots both runtime thread counts run before their fingerprints are
/// compared.
const CHECK_SLOTS: u64 = 16;
/// Set-ups per run: the fleet that runs, then one more build at each
/// 1/SETUP_REPS of the run, timed and dropped at once. A build takes
/// 6-20 ms; back to back, all of a run's builds can fall in one slow
/// phase of the host, while spread over the run the fastest is steady.
const SETUP_REPS: usize = 30;
/// Slots the panel twin warms and then times, on as many banks as the
/// fleet has hosts.
const TWIN_WARM: usize = 200;
const TWIN_SLOTS: usize = 300;
/// Lookup batches after each slot: ~0.25 ms, about a sixth of a slot.
const LOOKUP_BURST: usize = 16;
/// Consecutive slots per window (~60 ms here). Host interference comes
/// in episodes of milliseconds to minutes and only adds time, so the
/// end-to-end slot metrics are those of the quietest window; short
/// windows give every run hundreds of them to choose from.
const SLOT_WINDOW: usize = 32;
/// Lookups per timed batch: one lookup takes tens of ns, about as long
/// as reading the clock, so they are timed in batches.
const LOOKUP_BATCH: usize = 256;

/// One lookup on the fleet.
#[derive(Debug, Clone, Copy)]
enum Lookup {
    Forecast(usize),
    BestHost,
    RackBest(usize),
    Tail(usize),
    Batch([usize; 4]),
}

/// Seeded lookups in the serving mix's shares (60/10/10/15/5), the
/// fleet's rack best standing in for the grid's snapshot.
fn lookups(seed: u64, n: usize, racks: usize) -> Vec<Lookup> {
    let mut x = seed | 1;
    let mut next = move |below: usize| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as usize % below
    };
    (0..n)
        .map(|_| match next(100) {
            0..60 => Lookup::Forecast(next(HOSTS)),
            60..70 => Lookup::BestHost,
            70..80 => Lookup::RackBest(next(racks)),
            80..95 => Lookup::Tail(next(HOSTS)),
            _ => Lookup::Batch(std::array::from_fn(|_| next(HOSTS))),
        })
        .collect()
}

/// Answers one lookup with a hash of its reply, or `None` when the
/// fleet has no answer.
fn answer(fleet: &FleetMonitor, q: Lookup) -> Option<u64> {
    let h = 0xcbf2_9ce4_8422_2325u64;
    match q {
        Lookup::Forecast(host) => Some(fnv_word(h, fleet.forecast(host).to_bits())),
        Lookup::BestHost => fleet
            .best_host()
            .map(|(host, f)| fnv_word(fnv_word(h, host as u64), f.to_bits())),
        Lookup::RackBest(rack) => fleet
            .rack_best(rack)
            .map(|(host, f)| fnv_word(fnv_word(h, host as u64), f.to_bits())),
        Lookup::Tail(host) => {
            let (_, values) = fleet.memory().tail(ResourceId(host as u64), 16);
            (!values.is_empty()).then(|| values.iter().fold(h, |h, v| fnv_word(h, v.to_bits())))
        }
        Lookup::Batch(hosts) => Some(
            hosts
                .iter()
                .fold(h, |h, &host| fnv_word(h, fleet.forecast(host).to_bits())),
        ),
    }
}

/// `v` in consecutive windows of `n`, or whole when shorter than one.
fn windows(v: &[u64], n: usize) -> Vec<&[u64]> {
    if v.len() >= n {
        v.chunks_exact(n).collect()
    } else {
        vec![v]
    }
}

fn build(config: FleetConfig, traces: &[Vec<f64>]) -> FleetMonitor {
    FleetMonitor::with_roster(
        config,
        FleetRoster::TraceMixture(traces.to_vec()),
        &FaultPlan::none(),
    )
}

/// Runs `ingest-fleet`.
pub fn run(seed: u64, seconds: f64, tracer: Option<&Tracer>) -> Outcome {
    let mut out = Outcome::default();
    let traces = nws_sim::ucsd_availability_traces(seed, TRACE_SAMPLES);
    let config = FleetConfig {
        hosts: HOSTS,
        seed,
        panel: FleetPanel::Bank(PanelSpec::Nws1999),
        ..FleetConfig::default()
    };
    let workers = nws_runtime::threads();

    // Set-up: the first build faults its pages in; the builds timed
    // through the run reuse the heap the previous one freed.
    let t0 = Instant::now();
    let (mut fleet, _, build_bytes) = sys::count_allocs(|| build(config, &traces));
    let mut setup_s = vec![t0.elapsed().as_secs_f64()];
    fleet.run_steps(CHECK_SLOTS);
    let checked = (fleet.fingerprint(), fleet.best_host());

    // Ingest, one slot per `run_steps` call, each followed by a burst
    // of lookups, so the lookups sample the whole run rather than one
    // stretch of it that a host episode of a few seconds could cover.
    let pool = lookups(seed ^ 0x0009_00e7, 1 << 16, fleet.rack_count());
    let mut batches = pool.chunks_exact(LOOKUP_BATCH).cycle();
    let run_ns = (seconds * 1e9) as u64;
    let mut slots: Vec<u64> = Vec::new();
    let mut batch_ns: Vec<u64> = Vec::new();
    let mut spans = tracer.map(|_| SpanBuf::with_capacity(1 << 16));
    let (mut answered, mut unanswered, mut chain) = (0u64, 0u64, 0u64);
    let (mut allocs, mut lookup_cpu_us) = (0u64, 0.0);
    let ev0 = fleet.events();
    let (steal0, total0) = sys::steal_jiffies();
    let t0 = Instant::now();
    while (t0.elapsed().as_nanos() as u64) < run_ns {
        if setup_s.len() < SETUP_REPS
            && t0.elapsed().as_nanos() as u64 >= setup_s.len() as u64 * run_ns / SETUP_REPS as u64
        {
            let s = Instant::now();
            drop(build(config, &traces));
            setup_s.push(s.elapsed().as_secs_f64());
        }
        let s = Instant::now();
        let ((), n, _) = sys::count_allocs(|| fleet.run_steps(1));
        let e = Instant::now();
        allocs += n;
        slots.push((e - s).as_nanos() as u64);
        if let (Some(buf), Some(t)) = (spans.as_mut(), tracer) {
            buf.push("fleet.slot", fleet.slots(), None, t.at(s), t.at(e));
        }
        let cpu0 = sys::cpu_time_us();
        for batch in batches.by_ref().take(LOOKUP_BURST) {
            let s = Instant::now();
            for &q in batch {
                match answer(&fleet, q) {
                    Some(h) => {
                        chain = fnv_word(chain, h);
                        answered += 1;
                    }
                    None => unanswered += 1,
                }
            }
            let e = Instant::now();
            batch_ns.push((e - s).as_nanos() as u64);
            if let (Some(buf), Some(t)) = (spans.as_mut(), tracer) {
                let id = batch_ns.len() as u64;
                buf.push("fleet.lookup_batch", id, None, t.at(s), t.at(e));
            }
        }
        lookup_cpu_us += sys::cpu_time_us() - cpu0;
    }
    let events = fleet.events() - ev0;
    let (steal1, total1) = sys::steal_jiffies();
    std::hint::black_box(chain);
    if let (Some(buf), Some(t)) = (spans, tracer) {
        t.absorb(buf);
    }
    out.attempted += slots.len() as u64;
    out.attempted += answered + unanswered;
    out.failed += unanswered;
    out.check(unanswered == 0, || {
        format!("{unanswered} fleet lookups had no answer")
    });

    // The fingerprint and best host after the check slots must not
    // depend on the runtime thread count: rebuild at one thread (after
    // the measured fleet is gone, so the two never share memory).
    drop(fleet);
    sys::release_free_memory();
    nws_runtime::set_threads(Some(1));
    let mut single = build(config, &traces);
    single.run_steps(CHECK_SLOTS);
    let reference = (single.fingerprint(), single.best_host());
    drop(single);
    nws_runtime::set_threads(Some(workers));
    out.check(checked == reference, || {
        format!("fingerprint/best host at {workers} threads {checked:?} != 1 thread {reference:?}")
    });
    out.attempted += 1;
    out.failed += u64::from(checked != reference);

    // Host interference only adds time, so each end-to-end metric is
    // that of the run's quietest window: SLOT_WINDOW slots, or the
    // lookups that followed them.
    let slot_windows = windows(&slots, SLOT_WINDOW);
    let batch_windows = windows(&batch_ns, SLOT_WINDOW * LOOKUP_BURST);
    let quietest_p50 = |w: &[&[u64]]| w.iter().map(|w| pct_of(w, 0.5)).min().unwrap_or(0);
    let fastest_per_s = |w: &[&[u64]]| {
        w.iter()
            .map(|w| w.len() as f64 * 1e9 / w.iter().sum::<u64>().max(1) as f64)
            .fold(0.0, f64::max)
    };
    let events_per_slot = events as f64 / slots.len().max(1) as f64;
    out.e2e.set(
        "closed_p50_us",
        quietest_p50(&batch_windows) as f64 / LOOKUP_BATCH as f64 / 1e3,
        "us",
    );
    out.e2e.set(
        "closed_rps",
        fastest_per_s(&batch_windows) * LOOKUP_BATCH as f64,
        "1/s",
    );
    out.e2e
        .set("tick_lag_p50_us", us(quietest_p50(&slot_windows)), "us");
    out.e2e
        .set("tick_lag_p99_us", us(pct_of(&slots, 0.99)), "us");
    out.e2e.set(
        "fleet_events_per_s",
        fastest_per_s(&slot_windows) * events_per_slot,
        "1/s",
    );
    out.e2e.set("setup_s", min(&setup_s), "s");
    out.e2e.set("rss_peak_mb", sys::peak_rss_mb(), "MB");

    let Some(tracer) = tracer else {
        return out;
    };
    let l = &mut out.layers;
    l.set(
        "proc.cpu_us_per_req",
        lookup_cpu_us / answered.max(1) as f64,
        "us",
    );

    let self_times = tracer.self_times();
    let slot_ns = self_times.get("fleet.slot").map_or(0, |v| pct_of(v, 0.5)) as f64;
    let (bank_ns, append_ns) = panel_twin(&traces, tracer);
    l.set("fleet.slot_ms", slot_ns / 1e6, "ms");
    l.set("forecast.bank_update_ns", bank_ns, "ns");
    l.set("memory.append_ns.fleet", append_ns, "ns");
    l.set(
        "fleet.residual_ns",
        slot_ns / HOSTS as f64 - bank_ns - append_ns,
        "ns",
    );
    l.set(
        "fleet.allocs_per_event",
        allocs as f64 / events.max(1) as f64,
        "count",
    );
    l.set(
        "fleet.build_bytes_per_host",
        build_bytes as f64 / HOSTS as f64,
        "B",
    );
    l.set("runtime.workers", workers as f64, "count");
    l.set(
        "host.steal_ratio",
        (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64,
        "ratio",
    );
    l.set(
        "recon.tick_split_ratio",
        (bank_ns + append_ns) * HOSTS as f64 / slot_ns.max(1.0),
        "ratio",
    );
    out
}

/// Times the two fleet commit layers in isolation: `PredictorBank::update`
/// on [`HOSTS`] 1999 panels fed the same traces, and
/// `Memory::append` into a retain-64 memory of [`HOSTS`] series.
/// Returns ns per update and ns per append (median over slots).
fn panel_twin(traces: &[Vec<f64>], tracer: &Tracer) -> (f64, f64) {
    let value = |host: usize, slot: usize| {
        let t = &traces[host % traces.len()];
        t[(host * 37 + slot) % t.len()]
    };
    let mut banks: Vec<PredictorBank> = (0..HOSTS).map(|_| PanelSpec::Nws1999.build()).collect();
    let mut memory = Memory::new(MemoryConfig { retain: 64 });
    let mut spans = SpanBuf::with_capacity(2 * TWIN_SLOTS);
    let (mut bank_ns, mut append_ns) = (Vec::new(), Vec::new());
    for slot in 0..TWIN_WARM + TWIN_SLOTS {
        let t0 = Instant::now();
        for (host, bank) in banks.iter_mut().enumerate() {
            bank.update(value(host, slot));
        }
        let t1 = Instant::now();
        for host in 0..HOSTS {
            memory.append(
                ResourceId(host as u64),
                slot as f64 * 10.0,
                value(host, slot),
            );
        }
        let t2 = Instant::now();
        if slot >= TWIN_WARM {
            bank_ns.push((t1 - t0).as_nanos() as u64);
            append_ns.push((t2 - t1).as_nanos() as u64);
            spans.push(
                "forecast.bank_update",
                slot as u64,
                None,
                tracer.at(t0),
                tracer.at(t1),
            );
            spans.push(
                "memory.append.fleet",
                slot as u64,
                None,
                tracer.at(t1),
                tracer.at(t2),
            );
        }
    }
    tracer.absorb(spans);
    (
        pct_of(&bank_ns, 0.5) as f64 / HOSTS as f64,
        pct_of(&append_ns, 0.5) as f64 / HOSTS as f64,
    )
}
