//! `serve-longlived`: an `xia-server` on loopback TCP with one
//! closed-loop client connection holding a long-lived session.
//!
//! The connection repeats: `observe` a batch of 32 statements (streamed
//! as four requests of 8), then `recommend`. Statements are the 11 TPoX
//! query templates plus the 6 `extended_queries` in a fixed round-robin,
//! with literals redrawn from the seed, like parameterized application
//! traffic. Every 2 batches the mix switches between security-side and
//! order/customer-side templates, so drift re-advise fires while the
//! session is young enough for a batch to move its (cumulative) template
//! histogram past the threshold. After 32 batches (1,024 statements) the
//! connection sends `reset` and starts a fresh session: the session ages
//! a recommend sees are fixed by the script, not by how fast the program
//! serves, and drift re-advise fires once per session. The phase ends
//! on a whole session, so every run samples each session age equally.
//!
//! A request's latency is taken per point of the session script (the
//! n-th observe or recommend of a session): the p5 (`stats::FAST`) over
//! the run's sessions at each point, then the mean over the points
//! (`recommend_p5_ms`, `observe_p5_ms`) or over the slowest quarter of
//! the recommend points (`recommend_tail_ms`: the oldest sessions).
//!
//! One connection, not several: on a two-core machine shared with other
//! tenants, two closed-loop connections kept both cores busy with client
//! and session threads and waited on each other at the database mutex:
//! in two sets of ten runs the interquartile spread of the median
//! recommend latency was 22–26% of its median and of throughput 24–37%.
//!
//! After the timed phase every connection's request stream is replayed
//! serially in process through `ServerSession` on a database loaded from
//! the same image; every wire reply must equal its replayed reply. The
//! traced run also polls the `stats` verb after every recommend, replays
//! a `TuningSession` alongside to time the core session layer, and grows
//! one more session to 1k, 4k and 16k observed statements for the
//! session-age series.

use crate::base::{derive_seed, repeat_setup, tpox_config, Base, IngestProbe, PROBE_BATCHES};
use crate::exec::{exec_work, ExecWork, IndexSpec};
use crate::layers::{decompose_load, AdvisorLedger, AdvisorSample};
use crate::metrics::{Collector, SERIES_AGES};
use crate::stats::{
    mean, median, ms, peak_rss_mb, percentile, point_fast, timed, top_quarter_mean,
};
use crate::{Config, Report, Scale, BUDGET, JOBS};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};
use xia_advisor::{AdvisorParams, SearchAlgorithm, TuningSession};
use xia_obs::json::Json;
use xia_obs::{EventJournal, Telemetry};
use xia_server::{parse_request, start, Request, ServerConfig, ServerSession, SessionOptions};
use xia_storage::{load_database, Database};
use xia_workloads::prng::Prng;
use xia_workloads::tpox::{self, TpoxConfig};
use xia_workloads::Workload;
use xia_xpath::ValueKind;

/// Statements per batch of the timed phase.
const BATCH: usize = 32;
/// `observe` requests a batch of the timed phase is streamed in.
const OBSERVES_PER_BATCH: usize = 4;
/// Statements per `observe` while the series grows its session.
const SERIES_BATCH: usize = 1_000;
/// Batches per mix phase.
const MIX_PERIOD: usize = 2;
/// Batches a session of the timed phase lives for before the connection
/// resets it.
const SESSION_BATCHES: usize = 32;
/// Concurrent client connections.
const CONNECTIONS: usize = 1;
/// Batch of the script whose recommendation, on each connection of the
/// untraced phase, gives `est_speedup` and `exec_speedup` (a fixed point
/// of the script, so the same seed gives the same value however far a
/// run gets).
const QUALITY_CYCLE: usize = 16;
const _: () = assert!(QUALITY_CYCLE <= SESSION_BATCHES);
/// The server's default search algorithm, which `recommend_line` leaves
/// the server to choose.
const SERVER_ALGO: SearchAlgorithm = SearchAlgorithm::TopDownFull;
/// Connection id of the series script.
const SERIES_CONN: u64 = 1_000;

/// Security-side templates: TPoX Q1–Q5 and the extended queries over
/// `SDOC` (indexes 11.. are `extended_queries`).
const MIX_A: [usize; 10] = [0, 1, 2, 3, 4, 11, 12, 13, 15, 16];
/// Order- and customer-side templates: TPoX Q6–Q11 and the extended
/// order query.
const MIX_B: [usize; 7] = [5, 6, 7, 8, 9, 10, 14];

/// One statement of template `t` with literals drawn from `literal_seed`.
fn statement(sized: &TpoxConfig, t: usize, literal_seed: u64) -> String {
    let cfg = TpoxConfig {
        seed: literal_seed,
        ..sized.clone()
    };
    if t < 11 {
        tpox::queries(&cfg).swap_remove(t)
    } else {
        tpox::extended_queries(&cfg).swap_remove(t - 11)
    }
}

/// Batch `b` of connection `conn`'s script.
fn batch(cfg: &Config, conn: u64, b: usize) -> Vec<String> {
    let sized = tpox_config(cfg);
    let mut rng = Prng::seed_from_u64(derive_seed(cfg.seed, (conn << 32) | b as u64));
    let all = [MIX_A.as_slice(), MIX_B.as_slice()].concat();
    let (len, pool): (usize, &[usize]) = if conn == SERIES_CONN {
        (SERIES_BATCH, &all)
    } else if (b / MIX_PERIOD).is_multiple_of(2) {
        (BATCH, &MIX_A)
    } else {
        (BATCH, &MIX_B)
    };
    (0..len)
        .map(|i| statement(&sized, pool[(b * len + i) % pool.len()], rng.next_u64()))
        .collect()
}

fn observe_line(statements: &[String]) -> String {
    Json::Obj(vec![
        ("verb".into(), Json::Str("observe".into())),
        (
            "statements".into(),
            Json::Arr(statements.iter().map(|s| Json::Str(s.clone())).collect()),
        ),
    ])
    .render()
}

/// A `recommend` with the server's default algorithm.
fn recommend_line() -> String {
    Json::Obj(vec![
        ("verb".into(), Json::Str("recommend".into())),
        ("budget".into(), Json::Num(BUDGET as f64)),
    ])
    .render()
}

const STATS_LINE: &str = r#"{"verb":"stats"}"#;
const RESET_LINE: &str = r#"{"verb":"reset"}"#;

/// The session options of every session, on the wire and in replay:
/// the server's defaults with the worker count pinned.
fn session_options() -> SessionOptions {
    SessionOptions {
        jobs: Some(JOBS),
        ..SessionOptions::default()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Observe,
    Recommend,
    Stats,
    Reset,
}

/// One request on the wire.
struct Op {
    kind: Kind,
    line: String,
    reply: String,
    /// Wire latency in milliseconds (`None` for untimed requests).
    wire_ms: Option<f64>,
    /// Statements the session had observed before this request.
    age: usize,
    /// Seconds from the connection's start to the request.
    at_s: f64,
}

/// Everything one connection sent and received.
struct ConnLog {
    conn: u64,
    start: Instant,
    ops: Vec<Op>,
}

impl ConnLog {
    fn new(conn: u64) -> ConnLog {
        ConnLog {
            conn,
            start: Instant::now(),
            ops: Vec::new(),
        }
    }

    /// Per batch of the timed script: its position in the session and
    /// its wall seconds, from the start of its first `observe` to the
    /// end of its `recommend`.
    fn batch_walls(&self) -> Vec<(usize, f64)> {
        let mut walls = Vec::new();
        let mut first = None;
        for o in self.ops.iter().filter(|o| o.wire_ms.is_some()) {
            match o.kind {
                Kind::Observe if o.age % BATCH == 0 => first = Some(o.at_s),
                Kind::Recommend => {
                    if let (Some(t0), Some(w)) = (first.take(), o.wire_ms) {
                        walls.push((o.age / BATCH - 1, o.at_s + w / 1e3 - t0));
                    }
                }
                _ => {}
            }
        }
        walls
    }
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let writer =
            TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        writer
            .set_nodelay(true)
            .map_err(|e| format!("set_nodelay: {e}"))?;
        let reader = BufReader::new(
            writer
                .try_clone()
                .map_err(|e| format!("socket clone: {e}"))?,
        );
        Ok(Client { reader, writer })
    }

    fn request(&mut self, line: &str) -> Result<String, String> {
        let mut framed = Vec::with_capacity(line.len() + 1);
        framed.extend_from_slice(line.as_bytes());
        framed.push(b'\n');
        self.writer
            .write_all(&framed)
            .map_err(|e| format!("send failed: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => {
                reply.truncate(reply.trim_end_matches(['\n', '\r']).len());
                Ok(reply)
            }
            Err(e) => Err(format!("receive failed: {e}")),
        }
    }

    fn send(
        &mut self,
        log: &mut ConnLog,
        kind: Kind,
        line: String,
        timed: bool,
        age: usize,
    ) -> Result<(), String> {
        let t0 = Instant::now();
        let reply = self.request(&line)?;
        let wire_ms = timed.then(|| ms(t0.elapsed()));
        log.ops.push(Op {
            kind,
            line,
            reply,
            wire_ms,
            age,
            at_s: (t0 - log.start).as_secs_f64(),
        });
        Ok(())
    }
}

/// One closed-loop connection for `len` and then to the end of the
/// session in progress, then one untimed `stats`. Between sessions,
/// outside every session's time, `probe` ingests `PROBE_BATCHES`
/// batches.
/// `poll_stats` adds an untimed `stats` after every recommend (the
/// traced run).
fn drive(
    cfg: &Config,
    addr: SocketAddr,
    conn: u64,
    len: Duration,
    poll_stats: bool,
    mut probe: Option<&mut IngestProbe>,
) -> Result<ConnLog, String> {
    let mut client = Client::connect(addr)?;
    let mut log = ConnLog::new(conn);
    let start = log.start;
    let mut age = 0;
    let mut b: usize = 0;
    while start.elapsed() < len || !b.is_multiple_of(SESSION_BATCHES) {
        if b > 0 && b.is_multiple_of(SESSION_BATCHES) {
            if let Some(p) = probe.as_deref_mut() {
                p.step(PROBE_BATCHES);
            }
            client.send(&mut log, Kind::Reset, RESET_LINE.into(), false, age)?;
            age = 0;
        }
        // The batch streams in as the application runs it: several
        // small observes, then one recommend.
        for part in batch(cfg, conn, b).chunks(BATCH / OBSERVES_PER_BATCH) {
            client.send(&mut log, Kind::Observe, observe_line(part), true, age)?;
            age += part.len();
        }
        b += 1;
        client.send(&mut log, Kind::Recommend, recommend_line(), true, age)?;
        if poll_stats {
            client.send(&mut log, Kind::Stats, STATS_LINE.into(), false, age)?;
        }
    }
    client.send(&mut log, Kind::Stats, STATS_LINE.into(), false, age)?;
    Ok(log)
}

/// Runs `CONNECTIONS` connections concurrently; the first drives `probe`.
fn live_phase(
    cfg: &Config,
    addr: SocketAddr,
    first_conn: u64,
    len: Duration,
    poll_stats: bool,
    probe: &mut IngestProbe,
) -> Result<Vec<ConnLog>, String> {
    let mut probe = Some(probe);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS as u64)
            .map(|i| {
                let p = probe.take();
                s.spawn(move || drive(cfg, addr, first_conn + i, len, poll_stats, p))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_string())?)
            .collect()
    })
}

/// A series age scaled to the run's data scale (the tiny scale of the
/// benchmark's tests keeps the series short).
fn series_age(cfg: &Config, age: usize) -> usize {
    match cfg.scale {
        Scale::Paper => age,
        Scale::Tiny => age / 100,
    }
}

/// The session-age series: one connection observes up to each age in
/// large batches, then recommends twice (the second is the repeat
/// recommend the series reports) and reads `stats`.
fn series(cfg: &Config, addr: SocketAddr) -> Result<ConnLog, String> {
    let mut client = Client::connect(addr)?;
    let mut log = ConnLog::new(SERIES_CONN);
    let (mut age, mut b) = (0, 0);
    for (target, _) in SERIES_AGES {
        let target = series_age(cfg, target);
        while age < target {
            let stmts = batch(cfg, SERIES_CONN, b);
            let n = stmts.len();
            client.send(&mut log, Kind::Observe, observe_line(&stmts), false, age)?;
            age += n;
            b += 1;
        }
        client.send(&mut log, Kind::Recommend, recommend_line(), false, age)?;
        client.send(&mut log, Kind::Recommend, recommend_line(), true, age)?;
        client.send(&mut log, Kind::Stats, STATS_LINE.into(), false, age)?;
    }
    Ok(log)
}

/// The core session replayed alongside a `ServerSession`.
struct Replica {
    tuning: TuningSession,
    last: Option<(u64, SearchAlgorithm)>,
}

impl Replica {
    fn new() -> Replica {
        // The parameters `ServerSession::new` gives its tuning session.
        let mut tuning = TuningSession::new();
        tuning.set_params(AdvisorParams {
            telemetry: Telemetry::new(),
            journal: EventJournal::new(),
            jobs: JOBS,
            ..AdvisorParams::default()
        });
        Replica { tuning, last: None }
    }
}

/// Per-layer samples from replaying traced logs.
#[derive(Default)]
struct Ledger {
    parse_us: Vec<f64>,
    render_us: Vec<f64>,
    session_observe: Vec<f64>,
    session_recommend: Vec<f64>,
    residual: Vec<f64>,
    accounted: Vec<f64>,
    xpath_parse: Vec<f64>,
    core_observe: Vec<f64>,
    core_recommend: Vec<f64>,
    compress: Vec<f64>,
    /// Observes that triggered a drift re-advise.
    readvises: u64,
    advisor: AdvisorLedger,
    /// `(age, repeat-recommend ms)` of the series.
    series: Vec<(usize, f64)>,
}

/// Replays one log serially through a fresh `ServerSession`; returns
/// the requests whose reply differed from the replay or was an error.
fn replay(
    db: &mut Database,
    log: &ConnLog,
    mut ledger: Option<&mut Ledger>,
) -> Result<Vec<String>, String> {
    let mut session = ServerSession::new(&session_options());
    let mut replica = ledger.is_some().then(Replica::new);
    let mut errors = Vec::new();
    for op in &log.ops {
        let (req, parse_ms) = timed(|| parse_request(&op.line));
        let req = req.map_err(|e| format!("benchmark sent a bad request: {}", e.message))?;
        let (reply, session_ms) = match &req {
            Request::Observe { statements } => {
                let (r, t) = timed(|| session.observe(db, statements));
                (r.unwrap_or_else(|e| e.render()), t)
            }
            Request::Recommend { budget, algorithm } => {
                let (r, t) = timed(|| session.recommend_reply(db, *budget, *algorithm));
                (r.unwrap_or_else(|e| e.render()), t)
            }
            Request::Reset => timed(|| session.reset_reply()),
            Request::Stats => {
                // The server half of `stats` counts connections and
                // requests; only the session half is a function of the
                // stream.
                let live = Json::parse(&op.reply)
                    .ok()
                    .and_then(|j| j.get("session").map(Json::render));
                if live != Some(session.stats_json().render()) {
                    errors.push(format!(
                        "connection {}: stats session half differs from replay",
                        log.conn
                    ));
                }
                continue;
            }
            _ => return Err("benchmark sent an unexpected verb".into()),
        };
        if reply != op.reply {
            errors.push(format!(
                "connection {}: {:?} reply differs from serial replay",
                log.conn, op.kind
            ));
        } else if reply.starts_with(r#"{"ok":false"#) {
            errors.push(format!("connection {}: error reply {reply}", log.conn));
        }
        if let (Some(l), Some(r)) = (ledger.as_deref_mut(), replica.as_mut()) {
            trace_op(db, log.conn, op, &req, &reply, parse_ms, session_ms, l, r)?;
        }
    }
    if let (Some(l), Some(r)) = (ledger, &replica) {
        if log.conn != SERIES_CONN {
            l.advisor.merge_what_if(r.tuning.telemetry());
        }
    }
    Ok(errors)
}

/// The reply to the recommend after batch `QUALITY_CYCLE` of a
/// connection's script, computed in process through one `ServerSession`
/// (the replay oracle checks that the wire gives the same replies).
fn quality_reply(cfg: &Config, db: &mut Database, conn: u64) -> Result<String, String> {
    let mut session = ServerSession::new(&session_options());
    let mut reply = String::new();
    for b in 0..QUALITY_CYCLE {
        for part in batch(cfg, conn, b).chunks(BATCH / OBSERVES_PER_BATCH) {
            let stmts: Vec<(String, f64)> = part.iter().map(|s| (s.clone(), 1.0)).collect();
            session.observe(db, &stmts).map_err(|e| e.render())?;
        }
        reply = session
            .recommend_reply(db, BUDGET, SERVER_ALGO)
            .map_err(|e| e.render())?;
    }
    Ok(reply)
}

/// Records the layer samples of one replayed request.
#[allow(clippy::too_many_arguments)]
fn trace_op(
    db: &mut Database,
    conn: u64,
    op: &Op,
    req: &Request,
    reply: &str,
    parse_ms: f64,
    session_ms: f64,
    l: &mut Ledger,
    r: &mut Replica,
) -> Result<(), String> {
    let parsed = Json::parse(reply).map_err(|e| format!("reply is not JSON: {e}"))?;
    let (rendered, render_ms) = timed(|| parsed.render());
    std::hint::black_box(rendered);
    let protocol_ms = parse_ms + render_ms;
    l.parse_us.push(parse_ms * 1e3);
    l.render_us.push(render_ms * 1e3);
    let mut core_recommend =
        |r: &mut Replica, budget: u64, algo: SearchAlgorithm| -> Result<f64, String> {
            let t = r.tuning.telemetry().clone();
            let before = AdvisorSample::read(&t, algo.name());
            let (rec, ms) = timed(|| r.tuning.recommend(db, budget, algo));
            rec.map_err(|e| format!("replica recommend failed: {e}"))?;
            l.advisor
                .push(AdvisorSample::read(&t, algo.name()).since(&before));
            let (w, compress_ms) = timed(|| r.tuning.workload());
            std::hint::black_box(w);
            l.compress.push(compress_ms);
            r.last = Some((budget, algo));
            Ok(ms)
        };
    match req {
        Request::Observe { statements } => {
            let (ok, t) = timed(|| {
                statements
                    .iter()
                    .all(|(s, _)| xia_xpath::parse_statement(s).is_ok())
            });
            if !ok {
                return Err("generated statement does not parse".into());
            }
            l.xpath_parse.push(t);
            let (res, t) = timed(|| {
                statements
                    .iter()
                    .try_for_each(|(s, f)| r.tuning.observe_with_freq(s, *f))
            });
            res.map_err(|e| format!("replica observe failed: {e}"))?;
            if op.wire_ms.is_some() {
                l.session_observe.push(session_ms);
                l.core_observe.push(t);
            }
            if parsed.get("readvised") == Some(&Json::Bool(true)) {
                if conn != SERIES_CONN {
                    l.readvises += 1;
                }
                let (budget, algo) = r.last.ok_or("re-advise before any recommend")?;
                let t = core_recommend(r, budget, algo)?;
                l.core_recommend.push(t);
            }
        }
        Request::Recommend { budget, algorithm } => {
            let t = core_recommend(r, *budget, *algorithm)?;
            match op.wire_ms {
                Some(_) if conn == SERIES_CONN => l.series.push((op.age, t)),
                Some(wire) => {
                    l.core_recommend.push(t);
                    l.session_recommend.push(session_ms);
                    l.accounted.push(session_ms + protocol_ms);
                    l.residual.push(wire - session_ms - protocol_ms);
                }
                None => {}
            }
        }
        Request::Reset => {
            if conn != SERIES_CONN {
                l.advisor.merge_what_if(r.tuning.telemetry());
            }
            *r = Replica::new();
        }
        _ => {}
    }
    Ok(())
}

/// Parses a quality reply: estimated speedup and the indexes.
fn quality_of(reply: &str) -> Result<(f64, Vec<IndexSpec>), String> {
    let json = Json::parse(reply).map_err(|e| format!("reply is not JSON: {e}"))?;
    let rec = json
        .get("recommendation")
        .ok_or("reply has no recommendation")?;
    let speedup = rec
        .get("speedup")
        .and_then(Json::as_num)
        .ok_or("recommendation has no speedup")?;
    let indexes = rec
        .get("indexes")
        .and_then(Json::as_arr)
        .ok_or("recommendation has no indexes")?
        .iter()
        .map(|ix| {
            let field = |k: &str| ix.get(k).and_then(Json::as_str).map(str::to_string);
            let kind = match field("kind").as_deref() {
                Some("string") => ValueKind::Str,
                Some("numerical") => ValueKind::Num,
                other => return Err(format!("bad index kind {other:?}")),
            };
            Ok((
                field("collection").ok_or("index has no collection")?,
                field("pattern").ok_or("index has no pattern")?,
                kind,
            ))
        })
        .collect::<Result<_, String>>()?;
    Ok((speedup, indexes))
}

/// A field of the session half of a `stats` reply.
fn session_stat(reply: &str, key: &str) -> Option<f64> {
    Json::parse(reply).ok()?.get("session")?.get(key)?.as_num()
}

/// Median of a field of the session half over every `stats` reply in
/// `logs`.
fn stats_median(logs: &[ConnLog], key: &str) -> f64 {
    let values: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.ops.iter())
        .filter(|o| o.kind == Kind::Stats)
        .filter_map(|o| session_stat(&o.reply, key))
        .collect();
    median(&values)
}

/// Loads the image the way the server does: strictly, then prewarmed.
fn load(image: &Path) -> Result<Database, String> {
    let mut db =
        load_database(image).map_err(|e| format!("cannot load {}: {e}", image.display()))?;
    db.prewarm();
    Ok(db)
}

/// Replays the untraced connections in parallel, one database each
/// (sessions share nothing, so this is the same serial replay per
/// connection).
fn replay_plain(image: &Path, logs: &[ConnLog]) -> Result<Vec<Vec<String>>, String> {
    std::thread::scope(|s| {
        let handles: Vec<_> = logs
            .iter()
            .map(|log| {
                s.spawn(move || -> Result<Vec<String>, String> {
                    let mut db = load(image)?;
                    replay(&mut db, log, None)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "replay thread panicked".to_string())?)
            .collect()
    })
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let image = cfg.work_dir.join("base.xiadb");
    let mut batch_ms = Vec::new();
    let (setup_secs, (base, db)) = repeat_setup(|measured| {
        let base = Base::build(cfg, &image)?;
        if measured {
            batch_ms.extend_from_slice(&base.batch_ms);
        }
        let db = load(&image)?;
        Ok((base, db))
    })?;
    let server = start(
        ServerConfig {
            tcp: Some("127.0.0.1:0".into()),
            jobs: Some(JOBS),
            ..ServerConfig::default()
        },
        db,
    )
    .map_err(|e| format!("cannot start the server: {e}"))?;
    let addr = server.tcp_addr().ok_or("server has no TCP address")?;

    let mut probe = IngestProbe::new(cfg);
    type Logs = (Vec<ConnLog>, Vec<ConnLog>, Option<ConnLog>);
    let live = (|| -> Result<Logs, String> {
        if cfg.trace {
            let half = cfg.duration / 2;
            let plain = live_phase(cfg, addr, 0, half, false, &mut probe)?;
            let traced = live_phase(cfg, addr, CONNECTIONS as u64, half, true, &mut probe)?;
            Ok((plain, traced, Some(series(cfg, addr)?)))
        } else {
            Ok((
                live_phase(cfg, addr, 0, cfg.duration, false, &mut probe)?,
                Vec::new(),
                None,
            ))
        }
    })();
    server.stop();
    // The workload's memory high-water mark, before the replay below.
    let peak_rss = peak_rss_mb()?;
    let (mut plain, mut traced, mut series_log) = live?;
    if cfg.sabotage_reference {
        let logs = plain
            .iter_mut()
            .chain(traced.iter_mut())
            .chain(series_log.iter_mut());
        for op in logs
            .flat_map(|l| l.ops.iter_mut())
            .filter(|o| o.kind != Kind::Stats)
        {
            op.reply.push(' ');
        }
    }

    // Oracle: serial in-process replay of every connection.
    let mut errors: Vec<String> = replay_plain(&image, &plain)?.concat();
    let mut replay_db = load(&image)?;
    let mut ledger = Ledger::default();
    for log in traced.iter().chain(series_log.iter()) {
        errors.extend(replay(&mut replay_db, log, Some(&mut ledger))?);
    }

    // Quality at the fixed script point of each untraced connection.
    let mut log_speedup = 0.0;
    let mut exec = ExecWork::default();
    for conn in 0..CONNECTIONS as u64 {
        let (speedup, indexes) = quality_of(&quality_reply(cfg, &mut replay_db, conn)?)?;
        log_speedup += speedup.ln();
        let stmts: Vec<String> = (0..QUALITY_CYCLE)
            .flat_map(|b| batch(cfg, conn, b))
            .collect();
        let workload = Workload::from_texts(stmts.iter().map(String::as_str))
            .map_err(|e| format!("generated statement does not parse: {e}"))?
            .compress();
        exec.add(exec_work(&mut replay_db, &workload, &indexes)?);
    }
    let est_speedup = (log_speedup / CONNECTIONS as f64).exp();

    let all_logs = || plain.iter().chain(traced.iter()).chain(series_log.iter());
    let attempted = all_logs().map(|l| l.ops.len() as u64).sum::<u64>() + probe.attempted;
    let failed = errors.len() as u64 + probe.failed;
    let last = if cfg.trace { &traced } else { &plain };
    // Wire latencies of both connections, in the order they were sent.
    let wire = |logs: &[ConnLog], kind: Kind| -> Vec<f64> {
        let mut timed: Vec<(f64, f64)> = logs
            .iter()
            .flat_map(|l| l.ops.iter())
            .filter(|o| o.kind == kind)
            .filter_map(|o| Some((o.at_s, o.wire_ms?)))
            .collect();
        timed.sort_by(|a, b| a.0.total_cmp(&b.0));
        timed.into_iter().map(|(_, ms)| ms).collect()
    };
    let recommend = wire(last, Kind::Recommend);
    let observe = wire(last, Kind::Observe);
    let mut notes = vec![format!(
        "serve-longlived: {} recommends, {} observes in the last phase, sessions reset every {} statements, \
         what-if jobs {JOBS}; sessions reached {} observed statements",
        recommend.len(),
        observe.len(),
        SESSION_BATCHES * BATCH,
        last.iter().flat_map(|l| l.ops.iter()).map(|o| o.age).max().unwrap_or(0),
    )];
    let spread = |xs: &[f64]| {
        [10.0, 25.0, 50.0, 75.0, 90.0]
            .map(|p| format!("{:.1}", percentile(xs, p)))
            .join(" / ")
    };
    notes.push(format!(
        "observe wire ms p10/p25/p50/p75/p90: {}",
        spread(&observe)
    ));
    notes.push(format!(
        "recommend wire ms p10/p25/p50/p75/p90: {}",
        spread(&recommend)
    ));
    let mut c = Collector::default();
    if cfg.trace {
        let p50 = median(&recommend);
        c.set(
            "trace.overhead_ms",
            p50 - median(&wire(&plain, Kind::Recommend)),
        );
        decompose_load(&image, 3)?.record(&mut c);
        c.set("storage.persist.save_ms", base.save_ms);
        c.set("storage.ingest.batch_ms", median(&batch_ms));
        c.set("storage.persist.image_bytes", base.image_bytes as f64);
        c.set("storage.index.build_ms", exec.build_ms);
        c.set("optimizer.exec.work", exec.with);
        c.set("xpath.parse_ms", median(&ledger.xpath_parse));
        ledger.advisor.record(&mut c);
        c.set("core.compress_ms", median(&ledger.compress));
        c.set("core.session.observe_ms", median(&ledger.core_observe));
        c.set("core.session.recommend_ms", median(&ledger.core_recommend));
        // Session state over every session age the script visits, from
        // the `stats` polled after each recommend.
        c.set(
            "core.session.distinct_statements",
            stats_median(&traced, "distinct_statements"),
        );
        c.set(
            "core.session.warm_costings",
            stats_median(&traced, "warm_costings"),
        );
        c.set(
            "core.compress.templates",
            stats_median(&traced, "templates"),
        );
        // Re-advises per session of `SESSION_BATCHES` batches.
        let batches = traced
            .iter()
            .flat_map(|l| l.ops.iter())
            .filter(|o| o.kind == Kind::Recommend)
            .count();
        c.set(
            "core.drift.readvises",
            ledger.readvises as f64 * SESSION_BATCHES as f64 / batches.max(1) as f64,
        );
        c.set("server.protocol.parse_us", median(&ledger.parse_us));
        c.set("server.protocol.render_us", median(&ledger.render_us));
        c.set("server.session.observe_ms", median(&ledger.session_observe));
        c.set(
            "server.session.recommend_ms",
            median(&ledger.session_recommend),
        );
        c.set("server.residual_ms", median(&ledger.residual));
        let accounted = median(&ledger.accounted);
        c.set("trace.accounted_ms", accounted);
        c.set("trace.unaccounted_ms", p50 - accounted);
        c.set("trace.accounted_share", accounted / p50);
        let distinct: Vec<f64> = series_log
            .iter()
            .flat_map(|l| l.ops.iter())
            .filter(|o| o.kind == Kind::Stats)
            .map(|o| session_stat(&o.reply, "distinct_statements").unwrap_or(0.0))
            .collect();
        let names = [
            (
                "core.session.recommend_ms.obs_1k",
                "core.session.distinct_statements.obs_1k",
            ),
            (
                "core.session.recommend_ms.obs_4k",
                "core.session.distinct_statements.obs_4k",
            ),
            (
                "core.session.recommend_ms.obs_16k",
                "core.session.distinct_statements.obs_16k",
            ),
        ];
        for ((rec_name, distinct_name), (&(age, t), &d)) in
            names.into_iter().zip(ledger.series.iter().zip(&distinct))
        {
            notes.push(format!(
                "series: {age} observed, {d} distinct statements: repeat recommend {t:.2} ms"
            ));
            c.set(rec_name, t);
            c.set(distinct_name, d);
        }
    } else {
        // Script points: the n-th recommend of a session closes batch n,
        // the n-th observe carries its statements from `age` on.
        let per_point = |kind: Kind, offset: usize, size: usize, points: usize| {
            let samples: Vec<(usize, f64)> = last
                .iter()
                .flat_map(|l| l.ops.iter())
                .filter(|o| o.kind == kind)
                .filter_map(|o| Some(((o.age / size - offset).min(points - 1), o.wire_ms?)))
                .collect();
            point_fast(&samples, points)
        };
        let rec_points = per_point(Kind::Recommend, 1, BATCH, SESSION_BATCHES);
        let observe_points = per_point(
            Kind::Observe,
            0,
            BATCH / OBSERVES_PER_BATCH,
            SESSION_BATCHES * OBSERVES_PER_BATCH,
        );
        let walls: Vec<(usize, f64)> = last.iter().flat_map(ConnLog::batch_walls).collect();
        let session_s: f64 = point_fast(&walls, SESSION_BATCHES).iter().sum();
        notes.push(format!(
            "latency per session-script point: p5 over {} sessions; recommend_p5_ms is the \
             mean over the {} recommend points, recommend_tail_ms the mean of the slowest {}; \
             ops_per_s from each batch's p5 wall time",
            walls.len() / SESSION_BATCHES,
            rec_points.len(),
            rec_points.len().div_ceil(4)
        ));
        let timed_ops = last
            .iter()
            .flat_map(|l| l.ops.iter())
            .filter(|o| o.wire_ms.is_some())
            .count();
        // Failed requests are found by the replay, not in time order:
        // they are taken out in proportion.
        let ok_share = timed_ops.saturating_sub(errors.len()) as f64 / timed_ops.max(1) as f64;
        c.set("recommend_p5_ms", mean(&rec_points));
        c.set("recommend_tail_ms", top_quarter_mean(&rec_points));
        let requests = SESSION_BATCHES * (OBSERVES_PER_BATCH + 1);
        c.set("ops_per_s", requests as f64 / session_s * ok_share);
        // No ingest op runs here: the metric is the probe's batched
        // `ingest_batch` of the base documents between sessions.
        c.set("ingest_p5_ms", probe.fast_ms());
        c.set("observe_p5_ms", mean(&observe_points));
        c.set("image_bytes_per_xml_byte", base.image_ratio());
        c.set("est_speedup", est_speedup);
        c.set("exec_speedup", exec.speedup());
        c.set("setup_s", median(&setup_secs));
        c.set("peak_rss_mb", peak_rss);
    }
    notes.extend(errors.iter().take(5).map(|e| format!("failed op: {e}")));
    if probe.failed > 0 {
        notes.push(format!("failed op: {} ingest probe batches", probe.failed));
    }
    Ok(Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics: c.finish(cfg.trace)?,
        notes,
    })
}
