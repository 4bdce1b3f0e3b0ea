//! The benchmark's own load generator: open loop, closed loop, and a
//! max-rate search, over anything that answers numbered requests.
//!
//! The open loop charges each request from its **due time** on a
//! seeded Poisson schedule, so a stall shows up as latency on every
//! request queued behind it. Unlike `nws_loadgen::open_loop`, the
//! worker does not `sleep` all the way to the due time: with the
//! default 50 µs timer slack that overshoots by ~56 µs and charges the
//! generator's own lateness to the server. Workers instead cut their
//! timer slack to 1 ns, sleep until `SPIN_NS` before the due time and
//! spin the rest, and record the residual lateness (`send − due`) of
//! every request so a run can prove its generator kept up.

use crate::stats::window_quantiles;
use crate::sys::tight_timer_slack;
use crate::trace::{SpanBuf, Tracer};
use nws_loadgen::{ArrivalSchedule, InterArrival};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How long before a due time a worker stops sleeping and spins.
const SPIN_NS: u64 = 25_000;

/// Head start between spawning the workers and the first due time.
const LEAD_NS: u64 = 2_000_000;

/// Something that answers numbered requests, such as a socket client
/// over a request pool.
pub trait Caller: Send {
    /// Issues request `i` and returns a hash of its reply, or `None`
    /// when the call failed or was answered with an error.
    fn call(&mut self, i: usize) -> Option<u64>;
}

/// One request of an open-loop run, in nanoseconds since the run start.
#[derive(Debug, Clone, Copy)]
pub struct Rec {
    pub due: u64,
    /// When the worker was free to send: the due time, or the previous
    /// reply on this connection if that came later.
    pub ready: u64,
    pub sent: u64,
    pub done: u64,
    /// Reply hash; `None` for a failed call.
    pub hash: Option<u64>,
}

/// What an open-loop run measured, one slot per scheduled request
/// (`None` where the run was aborted before the request was sent).
pub struct OpenRun {
    pub recs: Vec<Option<Rec>>,
    /// A worker fell further behind the schedule than the abort bound.
    pub aborted: bool,
    /// Schedule length: the last due time, ns.
    pub span_ns: u64,
}

impl OpenRun {
    fn sent(&self) -> impl Iterator<Item = &Rec> {
        self.recs.iter().flatten()
    }

    /// Requests sent.
    pub fn attempted(&self) -> u64 {
        self.sent().count() as u64
    }

    /// Requests that failed or were answered with an error.
    pub fn failed(&self) -> u64 {
        self.sent().filter(|r| r.hash.is_none()).count() as u64
    }

    /// Latency from due time to reply, per request.
    pub fn latencies(&self) -> Vec<u64> {
        self.sent().map(|r| r.done - r.due).collect()
    }

    /// Send lag (`send − due`), per request: the generator's own
    /// lateness plus any wait for the previous reply on the connection.
    pub fn send_lags(&self) -> Vec<u64> {
        self.sent().map(|r| r.sent - r.due).collect()
    }

    /// The generator's own lateness (`send − ready`), per request: how
    /// late it woke, not counting the wait for the previous reply.
    pub fn wake_lags(&self) -> Vec<u64> {
        self.sent().map(|r| r.sent - r.ready).collect()
    }

    /// Round trip from send to decoded reply, per request.
    pub fn rtts(&self) -> Vec<u64> {
        self.sent().map(|r| r.done - r.sent).collect()
    }

    /// Each `window_ns` window's (by due time) `q`-quantile of latency.
    pub fn window_latency(&self, window_ns: u64, q: f64) -> Vec<u64> {
        let samples: Vec<(u64, u64)> = self.sent().map(|r| (r.due, r.done - r.due)).collect();
        window_quantiles(&samples, window_ns, q, 100)
    }

    /// Completed requests per second of wall clock, from the first due
    /// time to the last reply.
    pub fn achieved_rps(&self) -> f64 {
        let first = self.sent().map(|r| r.due).min().unwrap_or(0);
        let last = self.sent().map(|r| r.done).max().unwrap_or(0);
        let ok = self.sent().filter(|r| r.hash.is_some()).count();
        if last > first {
            ok as f64 / ((last - first) as f64 / 1e9)
        } else {
            0.0
        }
    }

    /// The schedule's own rate.
    pub fn offered_rps(&self) -> f64 {
        if self.span_ns == 0 {
            return 0.0;
        }
        self.recs.len() as f64 / (self.span_ns as f64 / 1e9)
    }
}

/// Seeded Poisson due times (ns) at `rate` for `seconds`.
pub fn poisson_offsets(rate: f64, seconds: f64, seed: u64) -> Vec<u64> {
    let n = ((rate * seconds).round() as usize).max(1);
    ArrivalSchedule::generate(InterArrival::poisson(rate), seed, n)
        .offsets()
        .iter()
        .map(|&s| (s * 1e9) as u64)
        .collect()
}

fn now_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// Sleeps (with tight timer slack) until `spin_ns` before `due`, then
/// spins to it. Returns the time it actually got to, ns.
pub fn wait_until(start: Instant, due: u64, spin_ns: u64) -> u64 {
    loop {
        let now = now_ns(start);
        if now >= due {
            return now;
        }
        let left = due - now;
        if left > spin_ns {
            std::thread::sleep(Duration::from_nanos(left - spin_ns));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Runs the schedule `offsets` open loop, request `k` going to worker
/// `k % workers` as request number `first + k`. A worker that falls
/// more than `abort_lag_ns` behind stops the run (a growing backlog).
pub fn open_loop<C: Caller>(
    callers: &mut [C],
    offsets: &[u64],
    first: usize,
    abort_lag_ns: u64,
    tracer: Option<&Tracer>,
) -> OpenRun {
    let workers = callers.len();
    let abort = AtomicBool::new(false);
    let start = Instant::now();
    let per_worker: Vec<Vec<(usize, Rec)>> = std::thread::scope(|s| {
        let handles: Vec<_> = callers
            .iter_mut()
            .enumerate()
            .map(|(w, caller)| {
                let abort = &abort;
                s.spawn(move || {
                    tight_timer_slack();
                    let mut out = Vec::with_capacity(offsets.len() / workers + 1);
                    let mut spans = tracer.map(|_| SpanBuf::with_capacity(4 * out.capacity()));
                    let mut free = 0;
                    for k in (w..offsets.len()).step_by(workers) {
                        if abort.load(Ordering::Relaxed) {
                            break;
                        }
                        let due = LEAD_NS + offsets[k];
                        let ready = due.max(free);
                        let sent = wait_until(start, due, SPIN_NS);
                        if sent - due > abort_lag_ns {
                            abort.store(true, Ordering::Relaxed);
                            break;
                        }
                        let hash = caller.call(first + k);
                        let done = now_ns(start);
                        free = done;
                        out.push((
                            k,
                            Rec {
                                due,
                                ready,
                                sent,
                                done,
                                hash,
                            },
                        ));
                        if let (Some(buf), Some(t)) = (spans.as_mut(), tracer) {
                            let base = t.at(start);
                            let id = (first + k) as u64;
                            let root =
                                buf.push("loadgen.request", id, None, base + due, base + done);
                            buf.push("loadgen.queued", id, Some(root), base + due, base + ready);
                            buf.push("loadgen.wake", id, Some(root), base + ready, base + sent);
                            buf.push("server.call", id, Some(root), base + sent, base + done);
                        }
                    }
                    if let (Some(buf), Some(t)) = (spans, tracer) {
                        t.absorb(buf);
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load worker panicked"))
            .collect()
    });
    let mut recs = vec![None; offsets.len()];
    for (k, rec) in per_worker.into_iter().flatten() {
        recs[k] = Some(rec);
    }
    OpenRun {
        recs,
        aborted: abort.into_inner(),
        span_ns: offsets.last().copied().unwrap_or(0),
    }
}

/// What a closed-loop run measured.
pub struct ClosedRun {
    pub completed: u64,
    pub failed: u64,
    /// `(reply time, latency)` of every call, ns.
    pub samples: Vec<(u64, u64)>,
}

/// Every worker sends its next request as soon as the previous reply
/// arrives, for `duration_ns`. Worker `w` issues `first + w`,
/// `first + w + workers`, … Every call is timed and, when tracing,
/// recorded as a span.
pub fn closed_loop<C: Caller>(
    callers: &mut [C],
    first: usize,
    duration_ns: u64,
    tracer: Option<&Tracer>,
) -> ClosedRun {
    let workers = callers.len();
    let start = Instant::now();
    let per_worker: Vec<ClosedRun> = std::thread::scope(|s| {
        let handles: Vec<_> = callers
            .iter_mut()
            .enumerate()
            .map(|(w, caller)| {
                s.spawn(move || {
                    let (mut ok, mut failed) = (0u64, 0u64);
                    let mut samples = Vec::new();
                    let mut spans = tracer.map(|_| SpanBuf::with_capacity(1 << 16));
                    let mut i = first + w;
                    let mut last = 0;
                    while last < duration_ns {
                        let sent = now_ns(start);
                        let hash = caller.call(i);
                        last = now_ns(start);
                        match hash {
                            Some(_) => ok += 1,
                            None => failed += 1,
                        }
                        samples.push((last, last - sent));
                        if let (Some(buf), Some(t)) = (spans.as_mut(), tracer) {
                            let base = t.at(start);
                            buf.push("closed.call", i as u64, None, base + sent, base + last);
                        }
                        i += workers;
                    }
                    if let (Some(buf), Some(t)) = (spans, tracer) {
                        t.absorb(buf);
                    }
                    ClosedRun {
                        completed: ok,
                        failed,
                        samples,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load worker panicked"))
            .collect()
    });
    ClosedRun {
        completed: per_worker.iter().map(|c| c.completed).sum(),
        failed: per_worker.iter().map(|c| c.failed).sum(),
        samples: per_worker.into_iter().flat_map(|c| c.samples).collect(),
    }
}

/// The limits a rate must meet to count as sustainable.
#[derive(Debug, Clone, Copy)]
pub struct RateLimits {
    /// Cap on the median over windows of each window's p99 latency.
    pub p99_cap_ns: u64,
    /// Window length for the p99s.
    pub window_ns: u64,
    /// Lowest acceptable achieved / offered rate.
    pub min_goodput: f64,
    /// A worker this far behind its schedule is a growing backlog.
    pub backlog_ns: u64,
}

/// One probed rate.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    pub offered: f64,
    pub p99_ns: u64,
    pub attempted: u64,
    pub sustainable: bool,
}

/// Checks one open-loop run against the limits.
fn judge(run: &OpenRun, limits: &RateLimits) -> Probe {
    let windows = run.window_latency(limits.window_ns, 0.99);
    let p99 = crate::stats::median(&windows.iter().map(|&v| v as f64).collect::<Vec<_>>()) as u64;
    let offered = run.offered_rps();
    let achieved = run.achieved_rps();
    let failed = run.failed();
    let sustainable = !run.aborted
        && failed == 0
        && !windows.is_empty()
        && p99 <= limits.p99_cap_ns
        && achieved >= limits.min_goodput * offered;
    Probe {
        offered,
        p99_ns: p99,
        attempted: run.attempted(),
        sustainable,
    }
}

/// Geometric bisection for the highest sustainable offered rate in
/// `[lo, hi]`, one open-loop probe of `probe_s` seconds per step.
///
/// The result is continuous rather than one of the bisection's grid
/// points: between the best passing probe and the lowest failing one it
/// interpolates, in log-log space, the rate at which the window-median
/// p99 reaches the cap. Returns `lo` when no probe passes, and every
/// probe for the record.
#[allow(clippy::too_many_arguments)]
pub fn max_rate<C: Caller>(
    callers: &mut [C],
    lo: f64,
    hi: f64,
    steps: u32,
    probe_s: f64,
    limits: &RateLimits,
    seed: u64,
    first: usize,
) -> (f64, Vec<Probe>) {
    let (mut lo, mut hi) = (lo, hi);
    let mut pass: Option<Probe> = None;
    let mut fail: Option<Probe> = None;
    let mut probes = Vec::new();
    for step in 0..steps {
        let mid = (lo * hi).sqrt();
        let offsets = poisson_offsets(mid, probe_s, seed ^ (0x9E37 + u64::from(step)));
        let run = open_loop(callers, &offsets, first, limits.backlog_ns, None);
        let probe = judge(&run, limits);
        if probe.sustainable {
            lo = mid;
            pass = Some(probe);
        } else {
            hi = mid;
            fail = Some(probe);
        }
        probes.push(probe);
    }
    let best = match (pass, fail) {
        (None, _) => lo,
        (Some(p), None) => p.offered,
        (Some(p), Some(f)) => {
            let (cap, p_lo, p_hi) = (
                limits.p99_cap_ns as f64,
                (p.p99_ns.max(1)) as f64,
                if f.p99_ns > limits.p99_cap_ns {
                    f.p99_ns as f64
                } else {
                    f64::INFINITY
                },
            );
            let share = if p_hi.is_finite() && p_hi > p_lo {
                ((cap / p_lo).ln() / (p_hi / p_lo).ln()).clamp(0.0, 1.0)
            } else {
                0.5
            };
            p.offered * (f.offered / p.offered).powf(share)
        }
    };
    (best, probes)
}
