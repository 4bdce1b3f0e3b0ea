//! `serve-read` and `serve-ingest`: the request path end to end.
//!
//! A one-loop [`ReactorServer`] fronts a 6-host UCSD [`GridMonitor`]
//! warmed for one simulated day. Two [`NwsClient`] connections, one
//! generator thread each, send the default `RequestStream` mix: open
//! loop at a fixed Poisson rate, then closed loop; the traced pass adds
//! a max-rate search. On `serve-ingest` a writer thread beside them
//! takes the shared state lock and ticks the grid (with a file-backed
//! [`Wal`] attached) on a fixed 2 ms wall-clock schedule, timing lock
//! wait and hold separately; on `serve-read` the grid stays static
//! while reads run, and the same writer runs alone afterwards for an
//! uncontended tick baseline.
//!
//! The traced pass adds the per-layer view from in-process twins: every
//! request kind's `dispatch_frame` cost on an identically warmed
//! `GridState`, and one tick split into its layer calls on a grid
//! rebuilt from the public sim/sensors/memory/WAL/service functions.

use crate::load::{self, Caller, RateLimits};
use crate::report::Outcome;
use crate::stats::{fnv_word, median, min, pct_of, us, window_stats};
use crate::sys;
use crate::trace::{SpanBuf, Tracer};
use nws_grid::wal::{self, Wal, WalRecord};
use nws_grid::{ForecastService, GridMonitor, Memory, MemoryConfig, Metric, Registry, ResourceId};
use nws_loadgen::{fnv1a, MixRatios, RequestStream};
use nws_runtime::Cadence;
use nws_sensors::{HybridSensor, LoadAvgSensor, VmstatSensor};
use nws_server::{
    ClientConfig, Dispatch, GridState, InMemoryTransport, NwsClient, ReactorConfig, ReactorServer,
    Transport,
};
use nws_sim::{Host, HostProfile};
use nws_wire::{Request, Response, StatsReply};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One simulated day of 10 s slots: every `Memory` ring is full.
const WARM_SLOTS: u64 = 8640;
/// The workload's fixed open-loop rate.
const FIXED_RPS: f64 = 10_000.0;
/// The range the max-rate search bisects.
const SEARCH_LO_RPS: f64 = 2_000.0;
const SEARCH_HI_RPS: f64 = 200_000.0;
/// Fixed-rate and closed-loop rounds per run, each on a fresh reactor.
const ROUNDS: usize = 16;
/// Rounds the end-to-end metrics come from: those with the least host
/// steal (CPU time the hypervisor gives other guests while this VM's
/// vCPUs wait). Steal only adds time and comes in episodes of seconds
/// to minutes; in one, a run's tick lag rose from ~116 to ~215 µs
/// while steal averaged 17% and peaked at 32% of a second.
const CALM_ROUNDS: usize = 8;
/// Window length for the read latencies: 1000 requests at the fixed
/// rate, so a window's p99 has 10 samples beyond it.
pub const READ_WINDOW_NS: u64 = 100_000_000;
/// The writer's round tag outside the windows its ticks count in.
const NOT_COUNTED: u32 = u32::MAX;
/// The writer's wall-clock schedule: one slot every 2 ms.
const TICK_PERIOD_NS: u64 = 2_000_000;
/// How long before each due time the writer stops sleeping and spins:
/// a sleeping thread on an idle vCPU wakes 10–40 µs late, which would
/// be charged to the tick lag.
const WRITER_SPIN_NS: u64 = 200_000;
/// Points per `SeriesTail` and forecasts per `Batch` in the mix.
const TAIL_N: u32 = 16;
const BATCH: usize = 4;
/// Distinct requests drawn from the mix; request `i` is `pool[i % POOL]`.
/// The open-loop segments of a 30 s run send ~120k requests.
const POOL: usize = 1 << 15;
/// Set-ups per run; `setup_s` is the fastest (host interference only
/// adds time).
pub const SETUP_REPS: usize = 5;
/// Latency cap of the max-rate search (window-median p99).
const P99_CAP_NS: u64 = 1_000_000;
/// Slots the tick-split twin times, and requests the dispatch twin times.
const SPLIT_SLOTS: u64 = 300;
const DISPATCH_SAMPLES: usize = 20_000;
/// Generator validity: the median send lag must stay below this share
/// of the median round trip, or the run is refused.
const LAG_BOUND: f64 = 0.5;
/// Reconciliation tolerances (the accepted band of each ratio).
const TICK_SPLIT_BAND: (f64, f64) = (0.8, 1.2);
const RTT_SPLIT_BAND: (f64, f64) = (0.75, 1.25);

const KINDS: [&str; 5] = ["forecast", "snapshot", "best_host", "series_tail", "batch"];

fn kind_of(req: &Request) -> usize {
    match req {
        Request::Forecast { .. } => 0,
        Request::Snapshot => 1,
        Request::BestHost => 2,
        Request::SeriesTail { .. } => 3,
        _ => 4,
    }
}

/// The reply answers the request with the matching variant and no
/// error (batch items included).
fn answers(req: &Request, resp: &Response) -> bool {
    match (req, resp) {
        (Request::Forecast { .. }, Response::Forecast(_))
        | (Request::Snapshot, Response::Snapshot(_))
        | (Request::BestHost, Response::BestHost(Some(_)))
        | (Request::SeriesTail { .. }, Response::SeriesTail(_))
        | (Request::Stats, Response::Stats(_)) => true,
        (Request::Batch(items), Response::Batch(replies)) => {
            items.len() == replies.len() && items.iter().zip(replies).all(|(q, r)| answers(q, r))
        }
        _ => false,
    }
}

/// The phase lengths for a run of `seconds`. The rounds fill it: an
/// open-loop segment, a closed-loop segment and, on `serve-read`, a
/// writer-only tick segment, since there no tick may run beside the
/// reads. The traced pass's ping and max-rate search come on top.
struct Plan {
    round_fixed_s: f64,
    round_closed_ns: u64,
    round_tick_s: f64,
    probes: u32,
    probe_s: f64,
    round_ping_s: f64,
}

impl Plan {
    fn new(seconds: f64, ingest: bool) -> Self {
        let (closed, tick) = if ingest { (0.60, 0.0) } else { (0.45, 0.15) };
        let round = seconds / ROUNDS as f64;
        Self {
            round_fixed_s: 0.40 * round,
            round_closed_ns: (closed * round * 1e9) as u64,
            round_tick_s: tick * round,
            probes: 6,
            probe_s: 0.35 * seconds / 6.0,
            round_ping_s: 0.05 * round,
        }
    }
}

/// One connection sending requests from the shared pool (or only
/// `Stats`, for the socket-share ping).
struct SocketCaller {
    client: NwsClient,
    pool: Arc<Vec<Request>>,
    stats_only: bool,
}

impl Caller for SocketCaller {
    fn call(&mut self, i: usize) -> Option<u64> {
        let req = if self.stats_only {
            &Request::Stats
        } else {
            &self.pool[i % self.pool.len()]
        };
        match self.client.call_raw(req) {
            Ok((resp, bytes)) if answers(req, &resp) => Some(fnv1a(&bytes)),
            _ => None,
        }
    }
}

/// A served grid: the shared state, the reactor, two connections.
struct Served {
    state: Arc<Mutex<GridState>>,
    server: ReactorServer<GridState>,
    callers: Vec<SocketCaller>,
}

/// Takes the state back once every reactor and transport sharing it is
/// gone.
fn sole_owner(state: Arc<Mutex<GridState>>) -> GridState {
    Arc::try_unwrap(state)
        .ok()
        .expect("every reactor and transport released the state")
        .into_inner()
        .expect("grid state poisoned")
}

/// The 6-host UCSD grid warmed for one day, with a file-backed WAL
/// attached when `wal` names one.
fn warm(seed: u64, wal: Option<&Path>) -> GridState {
    let mut grid = GridMonitor::ucsd(seed);
    grid.run_steps(WARM_SLOTS);
    if let Some(path) = wal {
        grid.attach_journal(Wal::with_file(path).expect("create the WAL file"));
    }
    GridState::new(grid)
}

/// Warms a grid, spawns the reactor and connects. Returns the served
/// grid and the set-up time.
fn set_up(seed: u64, wal: Option<&Path>, pool: &Arc<Vec<Request>>) -> (Served, f64) {
    let t0 = Instant::now();
    let state = Arc::new(Mutex::new(warm(seed, wal)));
    let (server, callers) = serve(&state, pool);
    let setup_s = t0.elapsed().as_secs_f64();
    let served = Served {
        state,
        server,
        callers,
    };
    (served, setup_s)
}

/// One tick of the writer, ns since the run start.
#[derive(Debug, Clone, Copy)]
struct TickRec {
    due: u64,
    acquired: u64,
    done: u64,
    /// The round whose tick metrics this tick counts towards, if any.
    round: Option<u32>,
}

/// Ticks the shared grid one slot every [`TICK_PERIOD_NS`] until
/// `stop`, timing the lock wait and the hold of each tick.
fn writer(
    state: &Mutex<GridState>,
    start: Instant,
    stop: &AtomicBool,
    round: &AtomicU32,
    tracer: Option<&Tracer>,
) -> Vec<TickRec> {
    sys::tight_timer_slack();
    let ns = || start.elapsed().as_nanos() as u64;
    let first = ns() + TICK_PERIOD_NS;
    let mut recs = Vec::new();
    let mut spans = tracer.map(|_| SpanBuf::with_capacity(1 << 15));
    for k in 0u64.. {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let due = first + k * TICK_PERIOD_NS;
        let lock = load::wait_until(start, due, WRITER_SPIN_NS);
        let counted = Some(round.load(Ordering::Relaxed)).filter(|&r| r != NOT_COUNTED);
        let mut guard = state.lock().expect("grid state poisoned");
        let acquired = ns();
        guard.tick(1);
        let done = ns();
        drop(guard);
        recs.push(TickRec {
            due,
            acquired,
            done,
            round: counted,
        });
        if let (Some(buf), Some(t), Some(_)) = (spans.as_mut(), tracer, counted) {
            let base = t.at(start);
            let root = buf.push("writer.slot", k, None, base + due, base + done);
            buf.push(
                "state.lock_wait",
                k,
                Some(root),
                base + lock,
                base + acquired,
            );
            buf.push("grid.tick", k, Some(root), base + acquired, base + done);
        }
    }
    if let (Some(buf), Some(t)) = (spans, tracer) {
        t.absorb(buf);
    }
    recs
}

/// One fixed-rate segment and one closed-loop segment on one reactor.
struct Round {
    /// Request number of the segment's first request.
    first: usize,
    run: load::OpenRun,
    /// The closed-loop segment, its latency samples reduced to each
    /// window's completed calls and p50.
    closed: load::ClosedRun,
    closed_windows: Vec<(u64, u64)>,
    closed_cpu_us: f64,
    before: StatsReply,
    after: StatsReply,
    /// `Stats`-only requests at the fixed rate (traced pass only).
    ping: Option<load::OpenRun>,
    /// Share of the round's CPU time the host stole.
    steal: f64,
}

/// Spawns a one-loop reactor over the shared state and opens two
/// connections to it.
fn serve(
    state: &Arc<Mutex<GridState>>,
    pool: &Arc<Vec<Request>>,
) -> (ReactorServer<GridState>, Vec<SocketCaller>) {
    let config = ReactorConfig {
        event_loops: 1,
        ..ReactorConfig::default()
    };
    let server = ReactorServer::spawn_shared(Arc::clone(state), config).expect("spawn reactor");
    let callers = (0..2)
        .map(|_| SocketCaller {
            client: NwsClient::connect(server.addr(), ClientConfig::default())
                .expect("connect to reactor"),
            pool: Arc::clone(pool),
            stats_only: false,
        })
        .collect();
    (server, callers)
}

fn stats(callers: &mut [SocketCaller]) -> StatsReply {
    callers[0].client.stats().expect("stats request")
}

/// Runs `serve-read` (`ingest == false`) or `serve-ingest`.
pub fn run(
    seed: u64,
    seconds: f64,
    ingest: bool,
    tracer: Option<&Tracer>,
    out_dir: &Path,
) -> Outcome {
    let mut out = Outcome::default();
    let plan = Plan::new(seconds, ingest);
    let hosts: Vec<String> = HostProfile::all()
        .iter()
        .map(|p| p.name().to_string())
        .collect();
    let pool: Arc<Vec<Request>> = Arc::new(
        RequestStream::new(
            seed ^ 0x006d_6978,
            &hosts,
            MixRatios::default(),
            TAIL_N,
            BATCH,
        )
        .take(POOL),
    );

    // Set-up, repeated; each copy is dropped before the next is built,
    // and the grid of the last one is served. The rounds bring their own
    // reactors.
    let wal_path = out_dir.join("serve-wal.log");
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut served = None;
    for _ in 0..SETUP_REPS {
        drop(served.take());
        sys::release_free_memory();
        let (s, secs) = set_up(seed, ingest.then_some(wal_path.as_path()), &pool);
        setup_s.push(secs);
        served = Some(s);
    }
    let Served {
        state,
        server,
        callers,
    } = served.expect("at least one set-up");
    drop(callers);
    drop(server);

    let limits = RateLimits {
        p99_cap_ns: P99_CAP_NS,
        window_ns: READ_WINDOW_NS,
        min_goodput: 0.95,
        backlog_ns: 20_000_000,
    };
    let start = Instant::now();
    let stop = AtomicBool::new(false);
    let round_tag = AtomicU32::new(NOT_COUNTED);
    let (rounds, max_rps, probes, ticks, rss_mb) = std::thread::scope(|s| {
        let writer_handle =
            ingest.then(|| s.spawn(|| writer(&state, start, &stop, &round_tag, tracer)));
        let mut ticks = Vec::new();
        // Rounds: each on a fresh reactor and fresh connections, so
        // thread placement is sampled afresh and the medians over
        // rounds do not hinge on one placement.
        let mut rounds = Vec::with_capacity(ROUNDS);
        let mut next = 0usize;
        for r in 0..ROUNDS as u32 {
            let (steal0, total0) = sys::steal_jiffies();
            let (server, mut callers) = serve(&state, &pool);
            let offsets = load::poisson_offsets(
                FIXED_RPS,
                plan.round_fixed_s,
                seed ^ (0xf1_fed + (u64::from(r) << 40)),
            );
            let before = stats(&mut callers);
            if ingest {
                round_tag.store(r, Ordering::Relaxed);
            }
            let run = load::open_loop(&mut callers, &offsets, next, u64::MAX, tracer);
            round_tag.store(NOT_COUNTED, Ordering::Relaxed);
            let after = stats(&mut callers);
            let first = next;
            next += offsets.len();
            // Traced pass: the socket-share ping, right after the reads
            // it is compared with, under the same conditions.
            let ping = tracer.map(|_| {
                for c in callers.iter_mut() {
                    c.stats_only = true;
                }
                let offsets = load::poisson_offsets(
                    FIXED_RPS,
                    plan.round_ping_s,
                    seed ^ (0x9196 + (u64::from(r) << 40)),
                );
                let ping = load::open_loop(&mut callers, &offsets, 0, u64::MAX, None);
                for c in callers.iter_mut() {
                    c.stats_only = false;
                }
                ping
            });
            let cpu0 = sys::cpu_time_us();
            let mut closed = load::closed_loop(&mut callers, next, plan.round_closed_ns, tracer);
            let closed_cpu_us = sys::cpu_time_us() - cpu0;
            let closed_windows = window_stats(&closed.samples, READ_WINDOW_NS, 0.5);
            closed.samples = Vec::new();
            next += (closed.completed + closed.failed) as usize;
            drop(callers);
            drop(server);
            // Threads come and go with each round; return what they
            // freed so peak RSS does not depend on arena reuse.
            sys::release_free_memory();
            if !ingest {
                // serve-read's ticks run alone, after the round's reads.
                let stop = AtomicBool::new(false);
                round_tag.store(r, Ordering::Relaxed);
                ticks.extend(std::thread::scope(|t| {
                    let w = t.spawn(|| writer(&state, start, &stop, &round_tag, tracer));
                    std::thread::sleep(Duration::from_secs_f64(plan.round_tick_s));
                    stop.store(true, Ordering::Relaxed);
                    w.join().expect("writer panicked")
                }));
                round_tag.store(NOT_COUNTED, Ordering::Relaxed);
            }
            let (steal1, total1) = sys::steal_jiffies();
            rounds.push(Round {
                first,
                run,
                closed,
                closed_windows,
                closed_cpu_us,
                before,
                after,
                ping,
                steal: (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64,
            });
        }
        // Peak memory up to here: the traced pass's search records are
        // the generator's, not the server's, and their size follows the
        // rates the search happens to probe.
        let rss_mb = sys::peak_rss_mb();
        let (max_rps, probes) = tracer.map_or((0.0, Vec::new()), |_| {
            let (_server, mut callers) = serve(&state, &pool);
            load::max_rate(
                &mut callers,
                SEARCH_LO_RPS,
                SEARCH_HI_RPS,
                plan.probes,
                plan.probe_s,
                &limits,
                seed ^ 0x5ea7c4,
                next,
            )
        });
        stop.store(true, Ordering::Relaxed);
        if let Some(w) = writer_handle {
            ticks.extend(w.join().expect("writer panicked"));
        }
        (rounds, max_rps, probes, ticks, rss_mb)
    });
    let served = sole_owner(state);
    // The correctness twin, built after the peak-memory reading so the
    // reading holds only the served grid.
    let mut twin = warm(seed, None);

    // End-to-end metrics: medians over 100 ms windows and over the
    // calmest rounds, so a VM stall or an unlucky thread placement
    // moves a window or a round, not the metric.
    let mut by_steal: Vec<usize> = (0..rounds.len()).collect();
    by_steal.sort_by(|&a, &b| rounds[a].steal.total_cmp(&rounds[b].steal));
    by_steal.truncate(CALM_ROUNDS);
    let calm = |r: u32| by_steal.contains(&(r as usize));
    let calm_rounds = || by_steal.iter().map(|&r| &rounds[r]);
    let windows = |q: f64| -> Vec<f64> {
        calm_rounds()
            .flat_map(|r| r.run.window_latency(READ_WINDOW_NS, q))
            .map(|v| v as f64)
            .collect()
    };
    let closed_windows: Vec<(u64, u64)> = calm_rounds()
        .flat_map(|r| r.closed_windows.iter().copied())
        .collect();
    let closed_rps: Vec<f64> = closed_windows
        .iter()
        .map(|&(n, _)| n as f64 * 1e9 / READ_WINDOW_NS as f64)
        .collect();
    let closed_p50: Vec<f64> = closed_windows
        .iter()
        .filter(|&&(n, _)| n > 0)
        .map(|&(_, p)| p as f64)
        .collect();
    let counted: Vec<&TickRec> = ticks.iter().filter(|t| t.round.is_some_and(calm)).collect();
    let lags: Vec<u64> = counted.iter().map(|t| t.done - t.due).collect();
    let holds: Vec<u64> = counted.iter().map(|t| t.done - t.acquired).collect();
    let tick_p99: Vec<f64> = (0..ROUNDS as u32)
        .filter(|&r| calm(r))
        .map(|r| {
            let round: Vec<u64> = counted
                .iter()
                .filter(|t| t.round == Some(r))
                .map(|t| t.done - t.due)
                .collect();
            pct_of(&round, 0.99) as f64
        })
        .collect();
    out.e2e
        .set("read_p50_us", median(&windows(0.5)) / 1e3, "us");
    out.e2e
        .set("read_p99_us", median(&windows(0.99)) / 1e3, "us");
    out.e2e.set("read_max_rps", max_rps, "1/s");
    out.e2e
        .set("closed_p50_us", median(&closed_p50) / 1e3, "us");
    out.e2e.set("closed_rps", median(&closed_rps), "1/s");
    out.e2e.set("tick_lag_p50_us", us(pct_of(&lags, 0.5)), "us");
    out.e2e
        .set("tick_lag_p99_us", median(&tick_p99) / 1e3, "us");
    out.e2e.set(
        "fleet_events_per_s",
        hosts.len() as f64 * 1e9 / pct_of(&holds, 0.5).max(1) as f64,
        "1/s",
    );
    out.e2e.set("setup_s", min(&setup_s), "s");

    // Operation counts.
    let fixed_attempted: u64 = rounds.iter().map(|r| r.run.attempted()).sum();
    let fixed_failed: u64 = rounds.iter().map(|r| r.run.failed()).sum();
    let closed_done: u64 = rounds.iter().map(|r| r.closed.completed).sum();
    let closed_failed: u64 = rounds.iter().map(|r| r.closed.failed).sum();
    let probe_attempted: u64 = probes.iter().map(|p| p.attempted).sum();
    let pings = || rounds.iter().filter_map(|r| r.ping.as_ref());
    out.attempted = fixed_attempted
        + closed_done
        + closed_failed
        + probe_attempted
        + ticks.len() as u64
        + pings().map(|p| p.attempted()).sum::<u64>();
    out.failed = fixed_failed + closed_failed + pings().map(|p| p.failed()).sum::<u64>();
    out.check(fixed_failed == 0, || {
        format!("{fixed_failed} failed replies at the fixed rate")
    });
    out.check(closed_failed == 0, || {
        format!("{closed_failed} failed closed-loop replies")
    });
    out.check(!counted.is_empty(), || "no ticks in the tick window".into());

    // Generator validity: the run is refused, not reported, if the
    // generator ran late by a large share of the round trip.
    let lags: Vec<u64> = rounds.iter().flat_map(|r| r.run.send_lags()).collect();
    let wakes: Vec<u64> = rounds.iter().flat_map(|r| r.run.wake_lags()).collect();
    let rtts: Vec<u64> = rounds.iter().flat_map(|r| r.run.rtts()).collect();
    let lat: Vec<u64> = rounds.iter().flat_map(|r| r.run.latencies()).collect();
    let wake_p50 = pct_of(&wakes, 0.5);
    let rtt_p50 = pct_of(&rtts, 0.5);
    if wake_p50 as f64 >= LAG_BOUND * rtt_p50 as f64 {
        out.invalid = Some(format!(
            "generator wake lag p50 {wake_p50} ns is not below {LAG_BOUND} x rtt p50 {rtt_p50} ns"
        ));
    }

    // Correctness.
    let served_slots = served.grid().slots();
    if ingest {
        // The grid that served reads while ingesting must equal an
        // isolated twin advanced by the same number of slots, and the
        // WAL file must hold exactly the journal, replaying cleanly.
        twin.tick(served_slots - twin.grid().slots());
        let (a, b) = (
            served.grid().memory().fingerprint(),
            twin.grid().memory().fingerprint(),
        );
        out.check(a == b, || {
            format!("served memory {a:016x} != isolated twin {b:016x}")
        });
        let journal = served
            .grid()
            .journal()
            .map(|w| w.bytes().to_vec())
            .unwrap_or_default();
        let slots_journaled = served_slots - WARM_SLOTS;
        out.layers.set(
            "wal.bytes_per_slot",
            journal.len() as f64 / slots_journaled.max(1) as f64,
            "B",
        );
        drop(served);
        let file = std::fs::read(&wal_path).unwrap_or_default();
        let replay = wal::replay(&file, 0, |_| {});
        out.check(
            file == journal && replay.error.is_none() && replay.end == file.len(),
            || {
                format!(
                    "WAL file ({} B) does not replay to the journal ({} B)",
                    file.len(),
                    journal.len()
                )
            },
        );
        out.attempted += 1;
    } else {
        // The replies at the fixed rate must match, byte for byte, the
        // same requests replayed in memory on an identically warmed twin
        // advanced to the slot each round was served at.
        let twin_state = Arc::new(Mutex::new(twin));
        let mut t = InMemoryTransport::new(Arc::clone(&twin_state));
        let (mut chain_served, mut chain_twin, mut mismatched) = (fnv1a(&[]), fnv1a(&[]), 0u64);
        for r in &rounds {
            {
                let mut twin = twin_state.lock().expect("twin poisoned");
                let behind = r.before.slots - twin.grid().slots();
                twin.tick(behind);
            }
            for (k, rec) in r.run.recs.iter().enumerate() {
                let Some(rec) = rec else { continue };
                let (_, bytes) = t
                    .call_raw(&pool[(r.first + k) % POOL])
                    .expect("in-memory replay");
                let h = fnv1a(&bytes);
                chain_twin = fnv_word(chain_twin, h);
                chain_served = fnv_word(chain_served, rec.hash.unwrap_or(0));
                mismatched += u64::from(rec.hash != Some(h));
            }
        }
        out.check(chain_served == chain_twin, || {
            format!("{mismatched} replies differ from the in-memory twin (chain {chain_served:016x} != {chain_twin:016x})")
        });
        out.failed += mismatched;
        drop(t);
        twin = sole_owner(twin_state);
        out.layers.set("wal.bytes_per_slot", 0.0, "B");
    }
    let _ = std::fs::remove_file(&wal_path);
    out.e2e.set("rss_peak_mb", rss_mb, "MB");

    let Some(tracer) = tracer else {
        return out;
    };

    // Per-layer view (traced pass only).
    let l = &mut out.layers;
    l.set("loadgen.send_lag_p50_us", us(pct_of(&lags, 0.5)), "us");
    l.set("loadgen.send_lag_p99_us", us(pct_of(&lags, 0.99)), "us");
    l.set("loadgen.wake_lag_p50_us", us(wake_p50), "us");
    l.set("loadgen.wake_lag_p99_us", us(pct_of(&wakes, 0.99)), "us");
    l.set("loadgen.run_p999_us", us(pct_of(&lat, 0.999)), "us");
    l.set("loadgen.run_max_us", us(pct_of(&lat, 1.0)), "us");
    l.set("server.rtt_p50_us", us(pct_of(&rtts, 0.5)), "us");
    l.set("server.rtt_p99_us", us(pct_of(&rtts, 0.99)), "us");

    // Cache behaviour over the fixed-rate segments, from `Stats` deltas.
    let delta = |f: fn(&StatsReply) -> u64| -> u64 {
        rounds.iter().map(|r| f(&r.after) - f(&r.before)).sum()
    };
    let hits = delta(|s| s.cache_hits);
    let misses = delta(|s| s.cache_misses);
    let requests = delta(|s| s.requests).max(1);
    let slots = delta(|s| s.slots);
    let invalidations = delta(|s| s.invalidations);
    l.set(
        "cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    l.set(
        "cache.misses_per_kreq",
        misses as f64 * 1e3 / requests as f64,
        "count",
    );
    l.set(
        "cache.invalidations_per_slot",
        if slots == 0 {
            0.0
        } else {
            invalidations as f64 / slots as f64
        },
        "count",
    );

    // Writer: lock wait and hold, from the writer's spans.
    let self_times = tracer.self_times();
    let span = |name: &str| self_times.get(name).cloned().unwrap_or_default();
    let (wait, hold) = (span("state.lock_wait"), span("grid.tick"));
    l.set("state.tick_lock_wait_p50_us", us(pct_of(&wait, 0.5)), "us");
    l.set("state.tick_lock_wait_p99_us", us(pct_of(&wait, 0.99)), "us");
    l.set("grid.tick_hold_p50_us", us(pct_of(&hold, 0.5)), "us");
    l.set("grid.tick_hold_p99_us", us(pct_of(&hold, 0.99)), "us");
    let closed_cpu_us: f64 = rounds.iter().map(|r| r.closed_cpu_us).sum();
    l.set(
        "proc.cpu_us_per_req",
        closed_cpu_us / closed_done.max(1) as f64,
        "us",
    );
    l.set("runtime.workers", nws_runtime::threads() as f64, "count");
    l.set(
        "host.steal_ratio",
        calm_rounds().map(|r| r.steal).sum::<f64>() / CALM_ROUNDS as f64,
        "ratio",
    );

    // Dispatch twin: each kind's `dispatch_frame` cost and reply size.
    let d = dispatch_twin(&mut twin, &pool, ingest, tracer);
    for (k, kind) in KINDS.iter().enumerate() {
        out.layers
            .set(format!("state.dispatch_ns.{kind}"), d.ns[k], "ns");
        out.layers
            .set(format!("state.reply_bytes.{kind}"), d.bytes[k], "B");
    }
    out.layers
        .set("state.allocs_per_req", d.allocs_per_req, "count");

    // Socket share: the round trip of a `Stats` request (next to no
    // dispatch work) at the same rate, minus its dispatch cost.
    let ping_rtts: Vec<u64> = pings().flat_map(|p| p.rtts()).collect();
    let socket_share_ns = pct_of(&ping_rtts, 0.5) as f64 - d.stats_ns;
    let mut weights = [0f64; 5];
    for r in &rounds {
        for (k, _) in r
            .run
            .recs
            .iter()
            .enumerate()
            .filter(|(_, rec)| rec.is_some())
        {
            weights[kind_of(&pool[(r.first + k) % POOL])] += 1.0;
        }
    }
    let total: f64 = weights.iter().sum();
    let dispatch_mix_ns: f64 =
        weights.iter().zip(d.ns).map(|(w, ns)| w * ns).sum::<f64>() / total.max(1.0);
    let rtt_ratio = (dispatch_mix_ns + socket_share_ns) / rtt_p50.max(1) as f64;
    out.layers
        .set("net.socket_share_us", socket_share_ns / 1e3, "us");
    out.layers.set("recon.rtt_split_ratio", rtt_ratio, "ratio");
    out.check(
        (RTT_SPLIT_BAND.0..=RTT_SPLIT_BAND.1).contains(&rtt_ratio),
        || {
            format!(
                "dispatch + socket share is {rtt_ratio:.3} of rtt p50, outside {RTT_SPLIT_BAND:?}"
            )
        },
    );

    // Tick split on a twin rebuilt from the layer functions, checked
    // against a reference grid that journals as the served one does.
    let split_wals = ingest.then(|| {
        (
            out_dir.join("reference-wal.log"),
            out_dir.join("split-wal.log"),
        )
    });
    let reference = warm(seed, split_wals.as_ref().map(|w| w.0.as_path()));
    let split = tick_split(
        seed,
        reference,
        split_wals.as_ref().map(|w| w.1.as_path()),
        tracer,
    );
    for path in split_wals.iter().flat_map(|w| [&w.0, &w.1]) {
        let _ = std::fs::remove_file(path);
    }
    out.check(split.fingerprints_match, || {
        "the layer-by-layer twin diverged from the GridMonitor reference".into()
    });
    out.attempted += 1;
    // The parts reconcile slot by slot against the reference grid's
    // serial tick (an independent measurement of the same slots); the
    // engine's residual is the workload's mean hold minus the mean parts
    // (means, since probe slots make ticks bimodal).
    let per_host = |ns: f64| ns / hosts.len() as f64;
    let hold_mean_ns = hold.iter().sum::<u64>() as f64 / hold.len().max(1) as f64;
    let parts = split.per_host_slot_ns;
    let parts_sum: f64 = parts.iter().sum();
    let l = &mut out.layers;
    l.set(
        "grid.tick_serial_mean_us",
        split.serial_tick_mean_ns / 1e3,
        "us",
    );
    l.set("sim.advance_ns", parts[0], "ns");
    l.set("sensors.measure_ns", parts[1], "ns");
    l.set("memory.append_ns", parts[2], "ns");
    l.set("wal.log_ns", parts[3], "ns");
    l.set("service.observe_ns", parts[4], "ns");
    l.set(
        "engine.residual_ns",
        per_host(hold_mean_ns) - parts_sum,
        "ns",
    );
    let tick_ratio = split.ratio;
    l.set("recon.tick_split_ratio", tick_ratio, "ratio");
    out.check(
        (TICK_SPLIT_BAND.0..=TICK_SPLIT_BAND.1).contains(&tick_ratio),
        || format!("tick split sums to {tick_ratio:.3} of the serial tick, outside {TICK_SPLIT_BAND:?}"),
    );
    out
}

/// What the dispatch twin measured, per request kind.
struct DispatchTwin {
    ns: [f64; 5],
    bytes: [f64; 5],
    allocs_per_req: f64,
    stats_ns: f64,
}

/// Times `dispatch_frame` for the first requests of the pool on the
/// twin. On `serve-ingest` the twin ticks one slot every 20 requests —
/// the fixed rate's requests per writer slot — so misses cost what
/// they cost in the run.
fn dispatch_twin(
    twin: &mut GridState,
    pool: &[Request],
    ingest: bool,
    tracer: &Tracer,
) -> DispatchTwin {
    let reqs_per_slot = (FIXED_RPS * TICK_PERIOD_NS as f64 / 1e9) as usize;
    let mut ns: [Vec<u64>; 5] = Default::default();
    let mut bytes: [Vec<u64>; 5] = Default::default();
    let mut allocs = 0u64;
    let mut buf = Vec::with_capacity(1 << 16);
    let mut spans = SpanBuf::with_capacity(DISPATCH_SAMPLES);
    for (i, req) in pool.iter().take(DISPATCH_SAMPLES).enumerate() {
        if ingest && i % reqs_per_slot == 0 {
            twin.tick(1);
        }
        buf.clear();
        let t0 = Instant::now();
        let ((), n, _) = sys::count_allocs(|| twin.dispatch_frame(req, &mut buf));
        let t1 = Instant::now();
        allocs += n;
        let k = kind_of(req);
        ns[k].push((t1 - t0).as_nanos() as u64);
        bytes[k].push(buf.len() as u64);
        spans.push(KIND_SPANS[k], i as u64, None, tracer.at(t0), tracer.at(t1));
    }
    tracer.absorb(spans);
    let mut stats_ns = Vec::with_capacity(1000);
    for _ in 0..1000 {
        buf.clear();
        let t0 = Instant::now();
        twin.dispatch_frame(&Request::Stats, &mut buf);
        stats_ns.push(t0.elapsed().as_nanos() as u64);
    }
    DispatchTwin {
        ns: std::array::from_fn(|k| pct_of(&ns[k], 0.5) as f64),
        bytes: std::array::from_fn(|k| pct_of(&bytes[k], 0.5) as f64),
        allocs_per_req: allocs as f64 / DISPATCH_SAMPLES as f64,
        stats_ns: pct_of(&stats_ns, 0.5) as f64,
    }
}

const KIND_SPANS: [&str; 5] = [
    "state.dispatch.forecast",
    "state.dispatch.snapshot",
    "state.dispatch.best_host",
    "state.dispatch.series_tail",
    "state.dispatch.batch",
];

/// One host of the layer-by-layer twin: the simulator and its sensors.
struct TwinHost {
    host: Host,
    load: LoadAvgSensor,
    vmstat: VmstatSensor,
    hybrid: HybridSensor,
    ids: [ResourceId; 4],
}

/// The 6-host grid rebuilt from public layer calls, stepping exactly
/// what `GridMonitor` steps on a fault-free slot.
struct TwinGrid {
    hosts: Vec<TwinHost>,
    memory: Memory,
    service: ForecastService,
    wal: Option<Wal>,
    cadence: Cadence,
    slot: u64,
}

/// The layers one tick is split into, in span-name order.
const SPLIT_SPANS: [&str; 5] = [
    "sim.advance",
    "sensors.measure",
    "memory.append",
    "wal.log",
    "service.observe",
];

impl TwinGrid {
    fn new(seed: u64, wal: Option<Wal>) -> Self {
        let mut registry = Registry::new();
        let hosts = HostProfile::all()
            .iter()
            .map(|p| {
                // The per-host seed `GridMonitor` derives: FNV-1a of the
                // host name, xor the base seed.
                let h = p.name().bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                    (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
                });
                TwinHost {
                    host: p.build(h ^ seed),
                    load: LoadAvgSensor::new(),
                    vmstat: VmstatSensor::new(),
                    hybrid: HybridSensor::default(),
                    ids: [
                        registry.register(p.name(), Metric::CpuAvailabilityLoad),
                        registry.register(p.name(), Metric::CpuAvailabilityVmstat),
                        registry.register(p.name(), Metric::CpuAvailabilityHybrid),
                        registry.register(p.name(), Metric::LoadAverage),
                    ],
                }
            })
            .collect();
        Self {
            hosts,
            memory: Memory::new(MemoryConfig::default()),
            service: ForecastService::new(0.9),
            wal,
            cadence: Cadence::PAPER,
            slot: 0,
        }
    }

    /// One slot: every host advances and measures, then the readings
    /// commit in host order. With `spans`, each layer call is recorded
    /// under a per-slot root span. Returns the time spent in the layer
    /// calls, ns.
    fn step(&mut self, mut spans: Option<(&mut SpanBuf, &Tracer)>) -> u64 {
        let slot = self.slot;
        let probe = slot.is_multiple_of(self.cadence.probe_every());
        let period = self.cadence.measurement_period;
        let target = (slot + 1) as f64 * period;
        let slot_start = Instant::now();
        let mut marks: Vec<[Instant; 3]> = Vec::with_capacity(self.hosts.len());
        let mut readings = Vec::with_capacity(self.hosts.len());
        for th in &mut self.hosts {
            let t0 = Instant::now();
            th.host.advance_to(target);
            let t1 = Instant::now();
            let t = th.host.now();
            let load = th.load.measure(&th.host);
            let vm = th.vmstat.measure(&th.host);
            let hybrid = if probe {
                th.hybrid
                    .measure_with_probe_retries(&mut th.host, 0, target + period)
                    .0
            } else {
                th.hybrid
                    .measure_degraded(&th.host, false, false)
                    .expect("no sensor is dropped")
                    .0
            };
            let load1 = th.host.load_average().one_minute();
            marks.push([t0, t1, Instant::now()]);
            readings.push((t, [load, vm, hybrid, load1]));
        }
        let mut commits: Vec<[Instant; 4]> = Vec::with_capacity(self.hosts.len());
        for (th, (t, values)) in self.hosts.iter().zip(&readings) {
            let c0 = Instant::now();
            let stored: [bool; 4] =
                std::array::from_fn(|j| self.memory.append(th.ids[j], *t, values[j]).is_stored());
            let c1 = Instant::now();
            if let Some(wal) = &mut self.wal {
                for j in (0..4).filter(|&j| stored[j]) {
                    wal.log(&WalRecord::Append {
                        id: th.ids[j],
                        time: *t,
                        value: values[j],
                    });
                }
            }
            let c2 = Instant::now();
            for j in (0..4).filter(|&j| stored[j]) {
                self.service.observe(th.ids[j], *t, values[j]);
            }
            commits.push([c0, c1, c2, Instant::now()]);
        }
        self.slot += 1;
        let parts: Duration = marks.iter().map(|m| m[2] - m[0]).sum::<Duration>()
            + commits.iter().map(|c| c[3] - c[0]).sum::<Duration>();
        if let Some((buf, tracer)) = spans.as_mut() {
            let at = |i: Instant| tracer.at(i);
            let root = buf.push("twin.slot", slot, None, at(slot_start), at(Instant::now()));
            for (m, c) in marks.iter().zip(&commits) {
                buf.push(SPLIT_SPANS[0], slot, Some(root), at(m[0]), at(m[1]));
                buf.push(SPLIT_SPANS[1], slot, Some(root), at(m[1]), at(m[2]));
                buf.push(SPLIT_SPANS[2], slot, Some(root), at(c[0]), at(c[1]));
                if self.wal.is_some() {
                    buf.push(SPLIT_SPANS[3], slot, Some(root), at(c[1]), at(c[2]));
                }
                buf.push(SPLIT_SPANS[4], slot, Some(root), at(c[2]), at(c[3]));
            }
        }
        parts.as_nanos() as u64
    }
}

struct TickSplit {
    /// Mean self time per host-slot of each layer in [`SPLIT_SPANS`].
    per_host_slot_ns: [f64; 5],
    /// Mean `GridState::tick(1)` of the reference at one runtime thread.
    serial_tick_mean_ns: f64,
    /// Median over slots of (the twin's layer time / the reference's
    /// tick) for the same slot.
    ratio: f64,
    fingerprints_match: bool,
}

/// Warms the layer-by-layer twin to the reference's slot (untimed),
/// then steps the twin and ticks the reference `GridMonitor` (on one
/// runtime thread) through [`SPLIT_SLOTS`] slots in lockstep, timing
/// both, and checks both memories agree. Pairing each slot's two
/// timings keeps a host stall from skewing one side only.
fn tick_split(
    seed: u64,
    mut reference: GridState,
    wal: Option<&Path>,
    tracer: &Tracer,
) -> TickSplit {
    let wal = wal.map(|p| Wal::with_file(p).expect("create the split WAL file"));
    let mut twin = TwinGrid::new(seed, wal);
    for _ in 0..reference.grid().slots() {
        twin.step(None);
    }
    let mut buf = SpanBuf::with_capacity(SPLIT_SLOTS as usize * 40);
    let workers = nws_runtime::threads();
    nws_runtime::set_threads(Some(1));
    let mut ratios = Vec::with_capacity(SPLIT_SLOTS as usize);
    let mut serial_ns = 0u64;
    for _ in 0..SPLIT_SLOTS {
        let parts = twin.step(Some((&mut buf, tracer)));
        let t0 = Instant::now();
        reference.tick(1);
        let tick = t0.elapsed().as_nanos() as u64;
        serial_ns += tick;
        ratios.push(parts as f64 / tick.max(1) as f64);
    }
    nws_runtime::set_threads(Some(workers));
    tracer.absorb(buf);
    let self_times = tracer.self_times();
    let layer_ns: [u64; 5] =
        std::array::from_fn(|k| self_times.get(SPLIT_SPANS[k]).map_or(0, |v| v.iter().sum()));
    let host_slots = (SPLIT_SLOTS as usize * twin.hosts.len()) as f64;
    TickSplit {
        per_host_slot_ns: layer_ns.map(|ns| ns as f64 / host_slots),
        serial_tick_mean_ns: serial_ns as f64 / SPLIT_SLOTS as f64,
        ratio: median(&ratios),
        fingerprints_match: twin.memory.fingerprint() == reference.grid().memory().fingerprint(),
    }
}
