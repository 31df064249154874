//! The load shape: a closed loop. Callers of an in-process service block
//! on `QueryService::query`, so each client thread sends its next request
//! only when the previous one has returned. (`PendingQuery` has only a
//! blocking `wait`; an open-loop rate ladder needs a non-blocking
//! completion API first.)

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use poir_core::{QueryRequest, QueryResponse, QueryService, ShardedEngine};

use crate::check::{digest, Checker, Tally};
use crate::stats::{mean, median, percentile, sort};

/// One completed request as its client saw it.
struct Sample {
    /// The measurement window the request was sent in.
    window: usize,
    /// Whether it also completed inside that window.
    in_window: bool,
    latency_ms: f64,
    queue_us: f64,
    eval_us: f64,
    merge_us: f64,
}

/// What one phase measured. Latencies pool every window; throughput is
/// per window, so a stall in one window cannot move the reported median.
#[derive(Debug, Default)]
pub struct Phase {
    /// Client-observed latency of every request, ascending.
    pub latencies_ms: Vec<f64>,
    /// Completions per second in each measurement window.
    pub window_qps: Vec<f64>,
    /// Server-reported admission-queue wait per request, ascending.
    pub queue_us: Vec<f64>,
    /// Server-reported shard evaluation time per request (mean).
    pub eval_us_mean: f64,
    /// Server-reported merge time per request (mean).
    pub merge_us_mean: f64,
}

impl Phase {
    pub fn qps(&self) -> f64 {
        median(self.window_qps.clone())
    }

    pub fn latency_ms(&self, p: f64) -> f64 {
        percentile(&self.latencies_ms, p)
    }

    pub fn samples(&self) -> usize {
        self.latencies_ms.len()
    }

    fn from_samples(samples: Vec<Sample>, windows: usize, window_secs: f64) -> Phase {
        let mut per_window = vec![0u64; windows];
        for s in samples.iter().filter(|s| s.in_window) {
            per_window[s.window] += 1;
        }
        let column =
            |value: fn(&Sample) -> f64| -> Vec<f64> { samples.iter().map(value).collect() };
        let sorted = |mut v: Vec<f64>| {
            sort(&mut v);
            v
        };
        Phase {
            latencies_ms: sorted(column(|s| s.latency_ms)),
            window_qps: per_window.iter().map(|&n| n as f64 / window_secs).collect(),
            queue_us: sorted(column(|s| s.queue_us)),
            eval_us_mean: mean(&column(|s| s.eval_us)),
            merge_us_mean: mean(&column(|s| s.merge_us)),
        }
    }
}

/// Checks the answer to sequence position `i` and records it.
#[allow(clippy::too_many_arguments)]
fn record(
    i: usize,
    window: usize,
    window_end: Instant,
    sent: Instant,
    done: Instant,
    result: poir_core::Result<QueryResponse>,
    checker: &Checker<'_>,
    tally: &mut Tally,
) -> Option<Sample> {
    tally.record(checker.check(i, &result));
    let resp = result.ok()?;
    Some(Sample {
        window,
        in_window: done < window_end,
        latency_ms: done.duration_since(sent).as_secs_f64() * 1e3,
        queue_us: resp.queue_micros as f64,
        eval_us: resp.breakdown.eval_micros as f64,
        merge_us: resp.breakdown.merge_micros as f64,
    })
}

/// Sends sequence position `i` to the service and waits for the answer.
fn send(
    service: &QueryService,
    i: usize,
    window: usize,
    window_end: Instant,
    checker: &Checker<'_>,
    tally: &mut Tally,
    digests: Option<&mut Vec<u64>>,
) -> Option<Sample> {
    let request = QueryRequest::new(checker.requests().text(i), checker.k());
    let sent = Instant::now();
    let result = service.query(request);
    let done = Instant::now();
    if let Some(d) = digests {
        // 0 is no ranking's digest: a failed request never matches.
        d.push(result.as_ref().map_or(0, |resp| digest(&resp.hits)));
    }
    record(i, window, window_end, sent, done, result, checker, tally)
}

/// A time-bounded phase: `windows` windows of `window_secs`, in each of
/// which `clients` fresh threads draw sequence positions from the shared
/// `cursor`.
pub fn timed_phase(
    service: &QueryService,
    cursor: &AtomicUsize,
    clients: usize,
    windows: usize,
    window_secs: f64,
    checker: &Checker<'_>,
    tally: &mut Tally,
) -> Phase {
    let mut samples = Vec::new();
    for window in 0..windows {
        let end = Instant::now() + Duration::from_secs_f64(window_secs);
        let per_client: Vec<(Vec<Sample>, Tally)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|_| {
                    scope.spawn(move || {
                        let mut samples = Vec::new();
                        let mut tally = Tally::default();
                        while Instant::now() < end {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            samples
                                .extend(send(service, i, window, end, checker, &mut tally, None));
                        }
                        (samples, tally)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        });
        for (s, t) in per_client {
            samples.extend(s);
            tally.merge(t);
        }
    }
    Phase::from_samples(samples, windows, window_secs)
}

/// A count-bounded pass on the calling thread: positions `0..count`, one
/// client, one window. Returns the phase and each response's ranking
/// digest.
pub fn counted_pass(
    service: &QueryService,
    count: usize,
    checker: &Checker<'_>,
    tally: &mut Tally,
) -> (Phase, Vec<u64>) {
    let start = Instant::now();
    let never = start + Duration::from_secs(3600);
    let mut digests = Vec::with_capacity(count);
    let samples: Vec<Sample> = (0..count)
        .filter_map(|i| send(service, i, 0, never, checker, tally, Some(&mut digests)))
        .collect();
    let elapsed = start.elapsed().as_secs_f64();
    (Phase::from_samples(samples, 1, elapsed.max(1e-9)), digests)
}

/// A time-bounded phase on the synchronous API: the calling thread runs
/// `ShardedEngine::execute` on positions `from..`, window after window.
/// No queue, no second thread. Returns the phase and the next unused
/// position.
pub fn direct_phase(
    engine: &mut ShardedEngine,
    from: usize,
    windows: usize,
    window_secs: f64,
    checker: &Checker<'_>,
    tally: &mut Tally,
) -> (Phase, usize) {
    let mut samples = Vec::new();
    let mut i = from;
    for window in 0..windows {
        let end = Instant::now() + Duration::from_secs_f64(window_secs);
        while Instant::now() < end {
            let request = QueryRequest::new(checker.requests().text(i), checker.k());
            let sent = Instant::now();
            let result = engine.execute(&request);
            let done = Instant::now();
            samples.extend(record(i, window, end, sent, done, result, checker, tally));
            i += 1;
        }
    }
    (Phase::from_samples(samples, windows, window_secs), i)
}
