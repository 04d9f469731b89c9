//! The load process: a schedule-anchored open loop over at most two
//! pipelined connections, a closed loop that keeps the server saturated,
//! an update feed on its own connection, and the small calls (health,
//! metrics) around them.
//!
//! Every time is nanoseconds on one run clock, so query outcomes, update
//! acks and health polls can be ordered against each other. A request's
//! latency runs from when it was *due*, not from when the generator got
//! round to sending it, so a stalled generator or server shows as latency.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use fannr_serve::{Body, Client, Json, MetricsInfo, Op, Request, Response};
use roadnet::{NodeId, Weight, WeightUpdate};

use crate::stats::Samples;

/// How a request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Ok,
    Empty,
    Shed,
    Cancelled,
    Error,
    /// No response before the drain deadline.
    Missing,
}

/// One request's fate. Times are run-clock nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    /// Global request index (also its wire id).
    pub k: u32,
    pub due_ns: u64,
    pub sent_ns: u64,
    pub recv_ns: u64,
    pub status: Status,
    /// Server-reported admission-to-answer time.
    pub micros: u64,
    pub dist: u64,
    pub p_star: NodeId,
}

impl Outcome {
    pub fn answered(&self) -> bool {
        matches!(self.status, Status::Ok | Status::Empty)
    }

    /// Milliseconds from due to response.
    pub fn latency_ms(&self) -> f64 {
        self.recv_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }
}

/// The result of one fixed-rate phase.
pub struct PhaseResult {
    pub rate: f64,
    pub outcomes: Vec<Outcome>,
    /// `(run-clock ns, outstanding requests)`, sampled while sending.
    pub backlog: Vec<(u64, u64)>,
    pub start_ns: u64,
    /// Due time of the last request.
    pub end_ns: u64,
}

impl PhaseResult {
    pub fn count(&self, s: Status) -> usize {
        self.outcomes.iter().filter(|o| o.status == s).count()
    }

    pub fn failed(&self) -> usize {
        self.outcomes.iter().filter(|o| !o.answered()).count()
    }

    /// Due-to-response latency of every answered request, ms.
    pub fn latency(&self) -> Samples {
        let mut s = Samples::new();
        for o in self.outcomes.iter().filter(|o| o.answered()) {
            s.push(o.latency_ms());
        }
        s
    }

    /// How late the generator sent each request, ms.
    pub fn lateness(&self) -> Samples {
        let mut s = Samples::new();
        for o in &self.outcomes {
            s.push(o.sent_ns.saturating_sub(o.due_ns) as f64 / 1e6);
        }
        s
    }

    pub fn answered(&self) -> usize {
        self.outcomes.iter().filter(|o| o.answered()).count()
    }

    /// Seconds from the phase's start to its last answer, or to its last
    /// due time if that is later.
    pub fn window_s(&self) -> f64 {
        let last = self
            .outcomes
            .iter()
            .filter(|o| o.answered())
            .map(|o| o.recv_ns)
            .max()
            .unwrap_or(self.end_ns);
        last.max(self.end_ns).saturating_sub(self.start_ns) as f64 / 1e9
    }

    /// Answered requests per second over [`Self::window_s`].
    pub fn achieved(&self) -> f64 {
        rate(std::slice::from_ref(self))
    }

    /// Outstanding requests when the last one was due.
    pub fn backlog_at_end(&self) -> u64 {
        self.backlog
            .iter()
            .take_while(|&&(t, _)| t <= self.end_ns)
            .last()
            .map_or(0, |&(_, n)| n)
    }

    /// A backlog that keeps growing: when the last request was due, more
    /// requests were outstanding than `limit` worth of arrivals, so the
    /// newest would wait past the latency limit (a router never sheds; its
    /// overload shows only here).
    pub fn backlog_growing(&self, limit: Duration) -> bool {
        self.backlog_at_end() as f64 > self.rate * limit.as_secs_f64()
    }
}

/// Answered requests per second over several phases: all their answers
/// over all their windows.
pub fn rate(phases: &[PhaseResult]) -> f64 {
    let answered: usize = phases.iter().map(PhaseResult::answered).sum();
    let window: f64 = phases.iter().map(PhaseResult::window_s).sum();
    if window > 0.0 {
        answered as f64 / window
    } else {
        0.0
    }
}

/// Nanoseconds since `clock`.
pub fn now_ns(clock: Instant) -> u64 {
    clock.elapsed().as_nanos() as u64
}

fn sleep_until(clock: Instant, t_ns: u64) {
    let now = now_ns(clock);
    if t_ns > now {
        std::thread::sleep(Duration::from_nanos(t_ns - now));
    }
}

/// The reading half of a connection; keeps a partial line across read
/// timeouts.
pub struct LineReader {
    reader: BufReader<TcpStream>,
    partial: String,
}

impl LineReader {
    /// The next full line, `None` on a read timeout.
    fn next_line(&mut self) -> Result<Option<String>, String> {
        match self.reader.read_line(&mut self.partial) {
            Ok(0) => Err("server closed the connection".to_string()),
            Ok(_) if self.partial.ends_with('\n') => Ok(Some(std::mem::take(&mut self.partial))),
            Ok(_) => Ok(None),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                Ok(None)
            }
            Err(e) => Err(e.to_string()),
        }
    }
}

/// A load connection: its writing and reading halves.
pub type Conn = (TcpStream, LineReader);

/// Open `n` load connections. A run keeps its connections for all its
/// phases: the server runs a thread per connection, and with fresh
/// connections between label repairs its peak memory read about 350 MB
/// in some runs and about 600 MB in others (the memory one repair frees
/// is then not always reused by the next).
pub fn connect_all(addr: &str, n: usize) -> Result<Vec<Conn>, String> {
    (0..n).map(|_| connect(addr)).collect()
}

/// Connect, returning the writing and reading halves.
fn connect(addr: &str) -> Result<Conn, String> {
    let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    s.set_nodelay(true).map_err(|e| e.to_string())?;
    s.set_read_timeout(Some(Duration::from_millis(50)))
        .map_err(|e| e.to_string())?;
    let reader = BufReader::new(s.try_clone().map_err(|e| e.to_string())?);
    Ok((
        s,
        LineReader {
            reader,
            partial: String::new(),
        },
    ))
}

/// Send `lines` (global index `k`, request line with id `k`; the indices
/// are consecutive) at `rate` per second, spread round-robin over
/// `streams`, starting shortly after the call. Waits up to `drain` after
/// the last due time for responses; anything later is
/// [`Status::Missing`], and a later response to it, read by another
/// phase on the same connection, falls outside that phase's indices and
/// is dropped.
pub fn run_phase(
    clock: Instant,
    streams: &mut [Conn],
    lines: &[(u32, String)],
    rate: f64,
    drain: Duration,
) -> Result<PhaseResult, String> {
    let n = lines.len();
    let conns = streams.len().clamp(1, n.max(1));
    let start_ns = now_ns(clock) + 20_000_000;
    let interval = 1e9 / rate;
    let due = |j: usize| start_ns + (j as f64 * interval) as u64;
    let end_ns = due(n.saturating_sub(1));
    let sent: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let sent_count = AtomicU64::new(0);
    let recv_count = AtomicU64::new(0);
    let sending = AtomicBool::new(true);
    let give_up_ns = end_ns + drain.as_nanos() as u64;
    let k0 = lines.first().map_or(0, |l| l.0 as usize);

    let (received, backlog) = std::thread::scope(|scope| {
        let mut readers = Vec::new();
        let mut writers = Vec::new();
        for (c, (writer, reader)) in streams.iter_mut().take(conns).enumerate() {
            let sent = &sent;
            let sent_count = &sent_count;
            let recv_count = &recv_count;
            writers.push(scope.spawn(move || -> Result<(), String> {
                for j in (c..n).step_by(conns) {
                    sleep_until(clock, due(j));
                    sent[j].store(now_ns(clock), Ordering::Relaxed);
                    let line = &lines[j].1;
                    writer
                        .write_all(line.as_bytes())
                        .and_then(|_| writer.write_all(b"\n"))
                        .map_err(|e| format!("send: {e}"))?;
                    sent_count.fetch_add(1, Ordering::Relaxed);
                }
                Ok(())
            }));
            let expect = (c..n).step_by(conns).count();
            readers.push(scope.spawn(move || -> Vec<(usize, u64, Response)> {
                let mut got = Vec::with_capacity(expect);
                while got.len() < expect && now_ns(clock) < give_up_ns {
                    match reader.next_line() {
                        Ok(Some(line)) => {
                            let t = now_ns(clock);
                            recv_count.fetch_add(1, Ordering::Relaxed);
                            if let Ok(resp) = Response::parse(line.trim()) {
                                let j = resp
                                    .id
                                    .as_deref()
                                    .and_then(|id| id.parse::<usize>().ok())
                                    .and_then(|k| k.checked_sub(k0))
                                    .filter(|&j| j < n);
                                if let Some(j) = j {
                                    got.push((j, t, resp));
                                }
                            }
                        }
                        Ok(None) => {}
                        Err(_) => break,
                    }
                }
                got
            }));
        }
        // Backlog sampler: outstanding = sent - received, every 5 ms.
        let sampler = scope.spawn(|| {
            let mut v = Vec::new();
            while sending.load(Ordering::Relaxed) {
                let s = sent_count.load(Ordering::Relaxed);
                let r = recv_count.load(Ordering::Relaxed);
                v.push((now_ns(clock), s.saturating_sub(r)));
                std::thread::sleep(Duration::from_millis(5));
            }
            v
        });
        let mut send_err = None;
        for w in writers {
            if let Err(e) = w.join().expect("writer thread") {
                send_err = Some(e);
            }
        }
        let mut received = Vec::with_capacity(n);
        for r in readers {
            received.extend(r.join().expect("reader thread"));
        }
        sending.store(false, Ordering::Relaxed);
        let backlog = sampler.join().expect("sampler thread");
        match send_err {
            Some(e) => Err(e),
            None => Ok((received, backlog)),
        }
    })?;

    let mut outcomes: Vec<Outcome> = (0..n)
        .map(|j| Outcome {
            k: lines[j].0,
            due_ns: due(j),
            sent_ns: sent[j].load(Ordering::Relaxed),
            recv_ns: 0,
            status: Status::Missing,
            micros: 0,
            dist: 0,
            p_star: 0,
        })
        .collect();
    for (j, t, resp) in received {
        record(&mut outcomes[j], t, resp);
    }
    Ok(PhaseResult {
        rate,
        outcomes,
        backlog,
        start_ns,
        end_ns,
    })
}

/// Send `lines` as a closed loop: each of `conns` connections keeps
/// `window` requests outstanding and sends the next as soon as one is
/// answered, so the program never waits for work. Its answered rate over
/// the batch is the rate the program sustains at saturation; a window
/// below the server's queue depth means nothing is shed. A request is due
/// when it is sent.
pub fn run_closed(
    clock: Instant,
    streams: &mut [Conn],
    lines: &[(u32, String)],
    window: usize,
    drain: Duration,
) -> Result<PhaseResult, String> {
    let n = lines.len();
    let conns = streams.len().clamp(1, n.max(1));
    let start_ns = now_ns(clock);
    let per_conn = std::thread::scope(|scope| {
        let threads: Vec<_> = streams
            .iter_mut()
            .take(conns)
            .enumerate()
            .map(|(c, stream)| {
                let mine: Vec<usize> = (c..n).step_by(conns).collect();
                scope.spawn(move || closed_conn(clock, stream, lines, &mine, window, drain))
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("closed-loop thread"))
            .collect::<Result<Vec<_>, String>>()
    })?;
    let mut outcomes: Vec<Outcome> = (0..n)
        .map(|j| Outcome {
            k: lines[j].0,
            due_ns: start_ns,
            sent_ns: start_ns,
            recv_ns: 0,
            status: Status::Missing,
            micros: 0,
            dist: 0,
            p_star: 0,
        })
        .collect();
    for (j, sent, t, resp) in per_conn.into_iter().flatten() {
        let o = &mut outcomes[j];
        (o.due_ns, o.sent_ns) = (sent, sent);
        record(o, t, resp);
    }
    Ok(PhaseResult {
        rate: 0.0,
        outcomes,
        backlog: Vec::new(),
        start_ns,
        end_ns: start_ns,
    })
}

/// One connection of [`run_closed`]: sends `lines[j]` for each `j` of
/// `mine`, at most `window` unanswered at a time, until every one is
/// answered or nothing arrives for `drain`. Returns `(j, sent, received,
/// response)` per answer.
fn closed_conn(
    clock: Instant,
    (writer, reader): &mut Conn,
    lines: &[(u32, String)],
    mine: &[usize],
    window: usize,
    drain: Duration,
) -> Result<Vec<(usize, u64, u64, Response)>, String> {
    let k0 = lines.first().map_or(0, |l| l.0 as usize);
    let mut sent_at = vec![0u64; lines.len()];
    let mut next = 0usize;
    let mut send_next = |sent_at: &mut [u64]| -> Result<(), String> {
        if let Some(&j) = mine.get(next) {
            next += 1;
            sent_at[j] = now_ns(clock);
            writer
                .write_all(lines[j].1.as_bytes())
                .and_then(|_| writer.write_all(b"\n"))
                .map_err(|e| format!("send: {e}"))?;
        }
        Ok(())
    };
    for _ in 0..window {
        send_next(&mut sent_at)?;
    }
    let mut got = Vec::with_capacity(mine.len());
    let mut deadline = now_ns(clock) + drain.as_nanos() as u64;
    while got.len() < mine.len() && now_ns(clock) < deadline {
        let Some(line) = reader.next_line()? else {
            continue;
        };
        let t = now_ns(clock);
        deadline = t + drain.as_nanos() as u64;
        let Ok(resp) = Response::parse(line.trim()) else {
            continue;
        };
        let j = resp
            .id
            .as_deref()
            .and_then(|id| id.parse::<usize>().ok())
            .and_then(|k| k.checked_sub(k0))
            .filter(|&j| j < lines.len());
        if let Some(j) = j {
            got.push((j, sent_at[j], t, resp));
            send_next(&mut sent_at)?;
        }
    }
    Ok(got)
}

/// Fill in `o` from the response received at `t`.
fn record(o: &mut Outcome, t: u64, resp: Response) {
    o.recv_ns = t;
    o.status = match resp.body {
        Body::Ok {
            p_star,
            dist,
            micros,
            ..
        } => {
            o.p_star = p_star;
            o.dist = dist;
            o.micros = micros;
            Status::Ok
        }
        Body::Empty => Status::Empty,
        Body::Shed => Status::Shed,
        Body::Cancelled => Status::Cancelled,
        _ => Status::Error,
    };
}

/// One applied update and when its effect was fully indexed.
#[derive(Debug, Clone, Copy)]
pub struct UpdateRec {
    pub sent_ns: u64,
    pub ack_ns: u64,
    /// First health poll reporting fresh labels at an epoch >= `epoch`.
    pub fresh_ns: u64,
    /// Hub roots the last repair re-ran, as that poll reported them.
    pub roots: u64,
    /// Whether the feed waited for freshness (`fresh_ns` and `roots` are
    /// meaningful only then).
    pub followed: bool,
}

impl UpdateRec {
    pub fn ack_ms(&self) -> f64 {
        self.ack_ns.saturating_sub(self.sent_ns) as f64 / 1e6
    }

    pub fn staleness_s(&self) -> f64 {
        self.fresh_ns.saturating_sub(self.ack_ns) as f64 / 1e9
    }
}

/// What the benchmark reads from a `health` response.
#[derive(Debug, Clone, Copy)]
pub struct Health {
    pub epoch: u64,
    pub stale: bool,
    /// `None` when the server reported a wrapped (negative) counter.
    pub queued: Option<u64>,
    pub labels_repaired: u64,
}

/// A control connection for `update` and `health`, read as raw JSON
/// lines: `health` counters are read leniently, because the server's
/// `queued` gauge can transiently wrap below zero under load, which the
/// typed response parser rejects.
pub struct Ctl {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Ctl {
    pub fn connect(addr: &str) -> Result<Ctl, String> {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(s.try_clone().map_err(|e| e.to_string())?);
        Ok(Ctl { writer: s, reader })
    }

    /// One request and its response. With `spin`, the response is awaited
    /// by polling a nonblocking socket, so the measured round trip holds
    /// no wake-up of this thread.
    fn call(&mut self, req: &Request, spin: bool) -> Result<Json, String> {
        let mut line = req.to_json();
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        line.clear();
        let sock = self.reader.get_ref();
        sock.set_nonblocking(spin).map_err(|e| e.to_string())?;
        let started = Instant::now();
        while !line.ends_with('\n') {
            match self.reader.read_line(&mut line) {
                Ok(0) => return Err("server closed the connection".to_string()),
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock && spin => {
                    if started.elapsed() > Duration::from_secs(60) {
                        return Err("no response within 60s".to_string());
                    }
                    std::hint::spin_loop();
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("recv: {e}")),
            }
        }
        self.reader
            .get_ref()
            .set_nonblocking(false)
            .map_err(|e| e.to_string())?;
        Json::parse(line.trim()).map_err(|e| format!("bad response '{}': {e}", line.trim()))
    }

    /// `None` when a router could not read a shard's health (its typed
    /// parser rejects a wrapped `queued` gauge the same way).
    pub fn health(&mut self) -> Result<Option<Health>, String> {
        let j = self.call(
            &Request {
                id: None,
                op: Op::Health,
            },
            false,
        )?;
        let num = |k: &str| j.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        match j.get("status").and_then(Json::as_str) {
            Some("health") => {}
            Some("upstream") => return Ok(None),
            _ => return Err(format!("health answered {}", j.to_json())),
        }
        let queued = num("queued");
        Ok(Some(Health {
            epoch: num("epoch") as u64,
            stale: j.get("stale").and_then(Json::as_bool).unwrap_or(true),
            queued: (queued < 2f64.powi(53)).then_some(queued as u64),
            labels_repaired: num("labels_repaired") as u64,
        }))
    }

    /// One single-edge `update`; returns the acked epoch.
    fn update(&mut self, u: NodeId, v: NodeId, w: Weight, spin: bool) -> Result<u64, String> {
        let j = self.call(
            &Request {
                id: None,
                op: Op::Update(vec![WeightUpdate { u, v, w }]),
            },
            spin,
        )?;
        match (
            j.get("status").and_then(Json::as_str),
            j.get("epoch").and_then(Json::as_u64),
        ) {
            (Some("updated"), Some(epoch)) => Ok(epoch),
            _ => Err(format!("update answered {}", j.to_json())),
        }
    }
}

/// Poll `health` every `poll`, starting one interval after the ack, until
/// labels are fresh at an epoch at least `epoch`: staleness has the
/// resolution of one poll, and a server with nothing to repair reads one
/// interval. Returns the run-clock time of that poll and what it reported.
fn wait_fresh(
    clock: Instant,
    ctl: &mut Ctl,
    epoch: u64,
    poll: Duration,
    timeout: Duration,
) -> Result<(u64, Health), String> {
    let started = Instant::now();
    loop {
        std::thread::sleep(poll);
        if let Some(h) = ctl.health()? {
            if !h.stale && h.epoch >= epoch {
                return Ok((now_ns(clock), h));
            }
        }
        if started.elapsed() > timeout {
            return Err(format!(
                "labels still stale {timeout:?} after epoch {epoch}"
            ));
        }
    }
}

/// Send the single-edge updates of `feed` one after another on the
/// control connection `ctl`. Each is due when the previous one ended: at
/// its ack, or, with `follow`, once `health` reports the index fresh
/// again.
pub fn update_feed(
    clock: Instant,
    ctl: &mut Ctl,
    feed: &[(NodeId, NodeId, Weight)],
    follow: bool,
) -> Result<Vec<UpdateRec>, String> {
    let mut recs: Vec<UpdateRec> = Vec::with_capacity(feed.len());
    for &(u, v, w) in feed {
        let sent_ns = now_ns(clock);
        let epoch = ctl.update(u, v, w, !follow)?;
        let ack_ns = now_ns(clock);
        let (fresh_ns, roots) = if follow {
            let (t, h) = wait_fresh(
                clock,
                ctl,
                epoch,
                Duration::from_millis(5),
                Duration::from_secs(60),
            )?;
            (t, h.labels_repaired)
        } else {
            (ack_ns, 0)
        };
        recs.push(UpdateRec {
            sent_ns,
            ack_ns,
            fresh_ns,
            roots,
            followed: follow,
        });
    }
    Ok(recs)
}

/// One `metrics` call on a fresh connection.
pub fn metrics(addr: &str) -> Result<MetricsInfo, String> {
    let mut c = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    c.set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    let resp = c
        .call(&Request {
            id: None,
            op: Op::Metrics,
        })
        .map_err(|e| format!("metrics: {e}"))?;
    match resp.body {
        Body::Metrics(m) => Ok(*m),
        other => Err(format!("metrics answered {other:?}")),
    }
}

/// Sample `health` every `every` until `stop` is set. Returns the queued
/// counts read and how many reads came back wrapped below zero (or, via a
/// router, unreadable for that reason).
pub fn health_sampler(
    addr: &str,
    stop: &AtomicBool,
    every: Duration,
) -> Result<(Vec<u64>, usize), String> {
    let mut ctl = Ctl::connect(addr)?;
    let mut v = Vec::new();
    let mut wrapped = 0;
    while !stop.load(Ordering::Relaxed) {
        match ctl.health()?.and_then(|h| h.queued) {
            Some(q) => v.push(q),
            None => wrapped += 1,
        }
        std::thread::sleep(every);
    }
    Ok((v, wrapped))
}
