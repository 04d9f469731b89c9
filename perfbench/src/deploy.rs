//! Starting, probing and stopping the real serving stack: `fannr
//! build-index`, `fannr partition`, `fannr serve` and `fannr route` run as
//! child processes, exactly as an operator would start them.

use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fannr_serve::{Body, Client, Op, QuerySpec, Request, Response};

use crate::pools::Spec;

/// How long a child may take to print its listening address.
const START_TIMEOUT: Duration = Duration::from_secs(90);
/// Wait between a server's banner and the set-up probe's connect. The
/// server prints its banner, then polls `accept()` every 5 ms. A probe
/// sent at once raced that first poll: on the graph-only server, where
/// this is half the set-up, the set-ups split between about 7 and about
/// 12 ms, and the median of a run jumped between the two (8.6 ms in one
/// set of 10 runs, 11.0 ms in the next). Connecting after the first poll
/// makes every set-up wait for the second one, which this wait lies
/// inside, so it adds nothing to the time measured while the server
/// polls. A server that accepted at once would show it as 2 ms of
/// set-up.
const ACCEPT_SETTLE: Duration = Duration::from_millis(2);
/// How long a drained child may take to exit before it is killed.
const EXIT_TIMEOUT: Duration = Duration::from_secs(20);

/// One serving process: the child, its listening address, and the thread
/// copying its stdout into the run's log.
pub struct Proc {
    child: Option<Child>,
    pub addr: String,
    drain: Option<JoinHandle<()>>,
}

impl Proc {
    /// Spawn `fannr args...` and wait for the banner line naming the
    /// listening address (`... on 127.0.0.1:PORT ...`).
    fn spawn(fannr: &Path, args: &[String], log: &Path) -> Result<Proc, String> {
        let err = File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let mut out = err
            .try_clone()
            .map_err(|e| format!("{}: {e}", log.display()))?;
        let mut child = Command::new(fannr)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(err))
            .spawn()
            .map_err(|e| format!("spawn {} {}: {e}", fannr.display(), args.join(" ")))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel::<String>();
        let drain = std::thread::spawn(move || {
            let mut sent = false;
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                let _ = writeln!(out, "{line}");
                if !sent {
                    if let Some(addr) = banner_addr(&line) {
                        let _ = tx.send(addr);
                        sent = true;
                    }
                }
            }
        });
        let mut proc = Proc {
            child: Some(child),
            addr: String::new(),
            drain: Some(drain),
        };
        match rx.recv_timeout(START_TIMEOUT) {
            Ok(addr) => {
                proc.addr = addr;
                Ok(proc)
            }
            Err(_) => Err(format!(
                "fannr {} printed no listening address; see {}",
                args.join(" "),
                log.display()
            )),
        }
    }

    fn pid(&self) -> Option<u32> {
        self.child.as_ref().map(Child::id)
    }

    /// Peak resident set size (VmHWM) in kB, 0 when unreadable.
    pub fn peak_rss_kb(&self) -> u64 {
        let Some(pid) = self.pid() else { return 0 };
        let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    }

    /// User plus system CPU time of the process, all threads, in clock
    /// ticks (`utime` + `stime` of `/proc/PID/stat`); 0 when unreadable.
    pub fn cpu_ticks(&self) -> u64 {
        let Some(pid) = self.pid() else { return 0 };
        let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
        // Fields after the parenthesised command name start at field 3;
        // utime and stime are fields 14 and 15.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let field = |i: usize| -> u64 {
            rest.split_whitespace()
                .nth(i - 3)
                .and_then(|v| v.parse().ok())
                .unwrap_or(0)
        };
        field(14) + field(15)
    }

    /// Wait for the child to exit (killing it after the timeout) and join
    /// the stdout copier. Returns whether it exited cleanly by itself.
    fn finish(&mut self) -> bool {
        let Some(mut child) = self.child.take() else {
            return true;
        };
        let started = Instant::now();
        let clean = loop {
            match child.try_wait() {
                Ok(Some(status)) => break status.success(),
                Ok(None) if started.elapsed() < EXIT_TIMEOUT => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    break false;
                }
            }
        };
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
        clean
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if let Some(child) = self.child.as_mut() {
            let _ = child.kill();
        }
        self.finish();
    }
}

/// The address in a `serving ... on ADDR (...)` / `routing ... on ADDR ...`
/// banner.
fn banner_addr(line: &str) -> Option<String> {
    if !(line.starts_with("serving ") || line.starts_with("routing ")) {
        return None;
    }
    let rest = &line[line.find(" on ")? + 4..];
    rest.split_whitespace().next().map(str::to_string)
}

/// Run a `fannr` command to completion, logging its output.
fn run_to_end(fannr: &Path, args: &[String], log: &Path) -> Result<(), String> {
    let out = File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
    let err = out
        .try_clone()
        .map_err(|e| format!("{}: {e}", log.display()))?;
    let status = Command::new(fannr)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::from(out))
        .stderr(Stdio::from(err))
        .status()
        .map_err(|e| format!("spawn fannr {}: {e}", args.join(" ")))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!(
            "fannr {} failed ({status}); see {}",
            args.join(" "),
            log.display()
        ))
    }
}

/// Which serving stack a workload deploys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `build-index` + one `serve --index`.
    Labels,
    /// One graph-only `serve --nodes`.
    IndexFree,
    /// `build-index` + `partition` + one `serve --index --shard-id` per
    /// shard + `route`.
    Router,
}

/// Everything the deployment needs to start.
#[derive(Debug, Clone)]
pub struct DeployConfig {
    pub fannr: PathBuf,
    pub kind: Kind,
    pub nodes: usize,
    pub net_seed: u64,
    pub workers: usize,
    pub cache_capacity: usize,
}

/// Shards of a router deployment.
const SHARDS: usize = 2;

/// A running deployment. Dropping it kills every process.
pub struct Deployment {
    /// Serving processes; the query entry point is last.
    pub procs: Vec<Proc>,
    /// Where clients send queries (the router, or the only server).
    pub addr: String,
    /// Shard servers' addresses (router deployments only).
    pub shard_addrs: Vec<String>,
    /// Index directory (absent for the graph-only server).
    pub index_dir: Option<PathBuf>,
}

impl Deployment {
    /// Sum of the serving processes' peak resident sets, in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.procs.iter().map(Proc::peak_rss_kb).sum::<u64>() as f64 * 1024.0 / 1e6
    }

    /// CPU time of every serving process, in clock ticks.
    pub fn cpu_ticks(&self) -> u64 {
        self.procs.iter().map(Proc::cpu_ticks).sum()
    }

    /// Wire `shutdown` to the entry point (the router propagates it), then
    /// wait for every process. Errors if any process did not exit cleanly.
    pub fn shutdown(mut self) -> Result<(), String> {
        let bye = Client::connect(&self.addr).and_then(|mut c| {
            c.set_read_timeout(Some(Duration::from_secs(10)))?;
            c.call(&Request {
                id: None,
                op: Op::Shutdown,
            })
        });
        let mut clean = bye.is_ok();
        for p in self.procs.iter_mut().rev() {
            clean &= p.finish();
        }
        if clean {
            Ok(())
        } else {
            Err("a serving process did not drain and exit cleanly".to_string())
        }
    }
}

/// `(steal, total)` CPU ticks of the whole machine so far, from the
/// first line of `/proc/stat`.
pub fn host_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let v: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|x| x.parse().unwrap_or(0))
        .collect();
    (v.get(7).copied().unwrap_or(0), v.iter().sum())
}

/// Bytes of the index artifacts a label deployment loads.
pub fn index_bytes(dir: &Path) -> u64 {
    ["graph.v2", "labels.v2", "gtree.v2"]
        .iter()
        .map(|f| std::fs::metadata(dir.join(f)).map_or(0, |m| m.len()))
        .sum()
}

/// Build the index (when the kind needs one) into `dir`.
pub fn build_index(cfg: &DeployConfig, dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let args = strings(&[
        "build-index",
        "--nodes",
        &cfg.nodes.to_string(),
        "--seed",
        &cfg.net_seed.to_string(),
        "--out",
        &dir.display().to_string(),
        "--workers",
        "2",
    ]);
    run_to_end(&cfg.fannr, &args, &dir.join("build-index.log"))
}

/// Start the serving processes on an index directory that already holds
/// what the kind needs (nothing, for the graph-only server).
pub fn start(cfg: &DeployConfig, dir: &Path) -> Result<Deployment, String> {
    let n = cfg.nodes.to_string();
    let seed = cfg.net_seed.to_string();
    let workers = cfg.workers.to_string();
    let cache = cfg.cache_capacity.to_string();
    let d = dir.display().to_string();
    match cfg.kind {
        Kind::IndexFree => {
            std::fs::create_dir_all(dir).map_err(|e| format!("{d}: {e}"))?;
            let args = strings(&[
                "serve",
                "--nodes",
                &n,
                "--seed",
                &seed,
                "--addr",
                "127.0.0.1:0",
                "--workers",
                &workers,
                "--cache-capacity",
                &cache,
            ]);
            let p = Proc::spawn(&cfg.fannr, &args, &dir.join("serve.log"))?;
            Ok(Deployment {
                addr: p.addr.clone(),
                procs: vec![p],
                shard_addrs: Vec::new(),
                index_dir: None,
            })
        }
        Kind::Labels => {
            let args = strings(&[
                "serve",
                "--index",
                &d,
                "--addr",
                "127.0.0.1:0",
                "--workers",
                &workers,
                "--cache-capacity",
                &cache,
            ]);
            let p = Proc::spawn(&cfg.fannr, &args, &dir.join("serve.log"))?;
            Ok(Deployment {
                addr: p.addr.clone(),
                procs: vec![p],
                shard_addrs: Vec::new(),
                index_dir: Some(dir.to_path_buf()),
            })
        }
        Kind::Router => {
            let map = dir.join("shards.map").display().to_string();
            run_to_end(
                &cfg.fannr,
                &strings(&[
                    "partition",
                    "--nodes",
                    &n,
                    "--seed",
                    &seed,
                    "--shards",
                    &SHARDS.to_string(),
                    "--out",
                    &map,
                ]),
                &dir.join("partition.log"),
            )?;
            let mut procs = Vec::new();
            for s in 0..SHARDS {
                let args = strings(&[
                    "serve",
                    "--index",
                    &d,
                    "--shard-id",
                    &s.to_string(),
                    "--shard-map",
                    &map,
                    "--addr",
                    "127.0.0.1:0",
                    "--workers",
                    &workers,
                    "--cache-capacity",
                    &cache,
                ]);
                procs.push(Proc::spawn(
                    &cfg.fannr,
                    &args,
                    &dir.join(format!("shard{s}.log")),
                )?);
            }
            let shard_addrs: Vec<String> = procs.iter().map(|p| p.addr.clone()).collect();
            let args = strings(&[
                "route",
                "--nodes",
                &n,
                "--seed",
                &seed,
                "--shard-map",
                &map,
                "--shard-addrs",
                &shard_addrs.join(","),
                "--addr",
                "127.0.0.1:0",
            ]);
            procs.push(Proc::spawn(&cfg.fannr, &args, &dir.join("route.log"))?);
            Ok(Deployment {
                addr: procs.last().expect("router pushed").addr.clone(),
                procs,
                shard_addrs,
                index_dir: Some(dir.to_path_buf()),
            })
        }
    }
}

/// One query call on a fresh connection.
pub fn ask(addr: &str, spec: &Spec, id: &str) -> Result<Response, String> {
    let mut c = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    c.set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    c.call(&query_request(spec, &spec.p, &spec.q, id))
        .map_err(|e| format!("query {addr}: {e}"))
}

/// The wire request for `spec`, spelled with `p` and `q`.
pub fn query_request(spec: &Spec, p: &[u32], q: &[u32], id: &str) -> Request {
    Request {
        id: Some(id.to_string()),
        op: Op::Query(QuerySpec {
            p: p.to_vec(),
            q: q.to_vec(),
            phi: spec.phi,
            agg: spec.agg,
            deadline_ms: None,
        }),
    }
}

/// Bring a deployment up from nothing to its first answer and time it:
/// index build (when the kind has one), process start, and one query.
/// Returns the deployment, the seconds taken, and the first answer (the
/// caller checks it against the mirror engine).
pub fn setup(
    cfg: &DeployConfig,
    dir: &Path,
    probe: &Spec,
) -> Result<(Deployment, f64, Response), String> {
    let t0 = Instant::now();
    if cfg.kind != Kind::IndexFree {
        build_index(cfg, dir)?;
    }
    let dep = start(cfg, dir)?;
    std::thread::sleep(ACCEPT_SETTLE);
    let first = ask(&dep.addr, probe, "setup")?;
    let secs = t0.elapsed().as_secs_f64();
    match first.body {
        Body::Ok { .. } | Body::Empty => Ok((dep, secs, first)),
        ref other => Err(format!("setup query answered {other:?}")),
    }
}

fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}
