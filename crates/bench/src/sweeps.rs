//! Sweep-level persistence: a durable [`RunOutcome`] cache on disk.
//!
//! Every run a sweep dispatches is named by the pair
//! `(ScenarioSpec::stable_hash, replication)` — the same key the runner
//! derives the world seed from — and a finished run is pure data. This
//! module stores that data as JSON lines (one record per run, tagged
//! with [`CACHE_SCHEMA`]) under `results/cache/`, so a warm rerun of
//! `--bin all` or `--bin sweep` executes **zero** simulations for cells
//! whose spec and replication are already on disk and still renders
//! byte-identical tables: floats are written in shortest-round-trip
//! form and parsed back bit-exactly.
//!
//! Editing a spec changes its `stable_hash`, which invalidates exactly
//! that cell's replications and nothing else. The key cannot see
//! *code* edits, though: after changing simulation behaviour (MAC,
//! PHY, TCP, …) the same spec hashes the same but would simulate
//! differently, so [`CACHE_SCHEMA`] must be bumped (it doubles as the
//! simulator-revision token) — likewise when [`RunOutcome`]'s shape or
//! any field's meaning changes. Records with a foreign schema tag are
//! ignored, not errors, so old caches degrade into cold ones.
//!
//! The workspace vendors no dependencies, so the codec below is a
//! deliberately small JSON reader/writer that covers exactly what the
//! records need (objects, arrays, strings, integers, shortest-form
//! floats, booleans).
//!
//! ## Crash safety
//!
//! Every line carries a CRC-32 trailer (`{json}#crc:xxxxxxxx`, the
//! same polynomial the wire format uses) over the JSON bytes. A torn
//! append — power loss, `kill -9`, a full disk — leaves a record whose
//! trailer is missing or wrong; [`ResultCache::open`] quarantines such
//! lines to `runs.corrupt.jsonl`, compacts the live file, and the
//! affected keys simply degrade to cold (they re-simulate and re-append
//! on the next sweep). A corrupt cache never aborts a run and never
//! serves a damaged outcome.
//!
//! ## Concurrency
//!
//! Sweeps share the cache across worker threads (and across processes,
//! via `O_APPEND`). [`ConcurrentCache`] is the shared form: lookups go
//! through an immutable snapshot ([`CacheIndex`], an `Arc` republished
//! under a read-mostly lock — workers never hold a mutex across a
//! lookup), and fresh outcomes land via
//! [`ConcurrentCache::append_batch`], a group commit that encodes every
//! record up front and writes the whole batch with **one** `O_APPEND`
//! write. Concurrent processes interleave at batch granularity instead
//! of per record, a torn tail is still caught by the per-line CRC on
//! the next open, and a sweep pays one file open per batch instead of
//! one per run.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

use hydra_netsim::{RunOutcome, RunPerf, RunReport, ScenarioSpec};
use hydra_sim::Instant;

/// Schema tag stamped on every cache record; records with a foreign
/// tag are skipped on load. This is the cache's *only* notion of
/// simulator revision: bump it on any change to the record layout
/// **or to simulation behaviour** (MAC, PHY, TCP, spec semantics —
/// anything that would make an old outcome wrong for the same spec).
/// The key `(stable_hash, replication)` only tracks the *scenario*;
/// it cannot see code edits, so a stale tag silently serves stale
/// numbers. When in doubt, bump — or `rm -rf results/cache`.
///
/// v2: `RunOutcome` reports labeled per-flow results
/// (`per_flow: [{src,dst,port,traffic,bytes,bps,completed_at_ns?}]`)
/// instead of the bare `per_flow_bps` float array.
pub const CACHE_SCHEMA: &str = "hydra-agg.run.v2";

/// A cache shared between experiment functions and runner threads.
pub type SharedCache = Arc<ConcurrentCache>;

/// Session counters: how the cache performed since it was opened.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from disk (runs *not* simulated).
    pub hits: u64,
    /// Lookups that missed and were simulated.
    pub misses: u64,
    /// Records on disk that were intact (valid CRC) but carried a
    /// foreign schema tag or an unknown shape; they are kept in the
    /// file for other tools but ignored this session.
    pub skipped: u64,
    /// Torn or corrupt lines (missing/wrong CRC trailer, unparseable
    /// bytes) moved to `runs.corrupt.jsonl` at load; their keys
    /// degraded to cold.
    pub quarantined: u64,
}

/// A persistent `(stable_hash, replication) → RunOutcome` store backed
/// by an append-only JSON-lines file.
#[derive(Debug)]
pub struct ResultCache {
    path: PathBuf,
    entries: HashMap<(u64, u64), RunOutcome>,
    /// Optional per-spec event counts (`stable_hash → events_processed`)
    /// recorded alongside outcomes. Pure *scheduling* telemetry: the
    /// runner uses them to order jobs longest-first; they never enter a
    /// decoded outcome and never affect results.
    events: HashMap<u64, u64>,
    stats: CacheStats,
}

impl ResultCache {
    /// The default on-disk location, relative to the workspace root.
    pub fn default_dir() -> PathBuf {
        PathBuf::from("results/cache")
    }

    /// Opens (creating if needed) the cache under [`Self::default_dir`].
    pub fn open_default() -> std::io::Result<ResultCache> {
        Self::open(Self::default_dir())
    }

    /// Opens (creating if needed) the cache file `runs.jsonl` under
    /// `dir`, loading every readable record with the current schema.
    ///
    /// Lines that fail their CRC trailer (torn appends, bit flips,
    /// pre-CRC caches) are moved to `runs.corrupt.jsonl` in the same
    /// directory and the live file is compacted, so their keys come
    /// back cold instead of serving damaged outcomes. Intact records
    /// with a foreign schema tag stay in the file but are skipped.
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<ResultCache> {
        std::fs::create_dir_all(&dir)?;
        let path = dir.as_ref().join("runs.jsonl");
        let mut cache = ResultCache {
            path,
            entries: HashMap::new(),
            events: HashMap::new(),
            stats: CacheStats::default(),
        };
        let text = match std::fs::read_to_string(&cache.path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(cache),
            Err(e) => return Err(e),
        };
        let mut kept = Vec::new();
        let mut quarantined = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            match unseal(line) {
                Some(json) => {
                    kept.push(line);
                    match decode_record(json) {
                        Some((key, outcome, events)) => {
                            if let Some(n) = events {
                                let hint = cache.events.entry(key.0).or_insert(0);
                                *hint = (*hint).max(n);
                            }
                            cache.entries.insert(key, outcome);
                        }
                        None => cache.stats.skipped += 1,
                    }
                }
                None => quarantined.push(line),
            }
        }
        if !quarantined.is_empty() {
            cache.stats.quarantined = quarantined.len() as u64;
            let dir = dir.as_ref();
            let mut corrupt =
                std::fs::OpenOptions::new().create(true).append(true).open(dir.join("runs.corrupt.jsonl"))?;
            for line in &quarantined {
                corrupt.write_all(line.as_bytes())?;
                corrupt.write_all(b"\n")?;
            }
            // Compact via tmp + rename so a crash mid-compaction
            // leaves either the old file or the new one, never a
            // half-written mixture.
            let tmp = dir.join("runs.jsonl.tmp");
            let mut clean = String::with_capacity(text.len());
            for line in &kept {
                clean.push_str(line);
                clean.push('\n');
            }
            std::fs::write(&tmp, clean)?;
            std::fs::rename(&tmp, &cache.path)?;
        }
        Ok(cache)
    }

    /// Wraps a freshly opened cache for sharing across runners.
    pub fn shared(self) -> SharedCache {
        Arc::new(ConcurrentCache::from_store(self))
    }

    /// Cached outcomes currently loaded.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Load-time counters (skipped and quarantined records); hits and
    /// misses are counted by the [`ConcurrentCache`] a sweep uses.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

// ---------------------------------------------------------------------
// Concurrent form
// ---------------------------------------------------------------------

/// An immutable point-in-time view of the cache: workers resolve every
/// lookup against one snapshot taken at sweep start, with no lock held
/// per lookup. Outcomes are `Arc`-shared, so republishing after a batch
/// append clones only the map's table, not the data.
#[derive(Debug, Default, Clone)]
pub struct CacheIndex {
    entries: HashMap<(u64, u64), Arc<RunOutcome>>,
    events: HashMap<u64, u64>,
}

impl CacheIndex {
    /// The cached outcome for `(hash, rep)`, if any.
    pub fn get(&self, hash: u64, rep: u64) -> Option<&Arc<RunOutcome>> {
        self.entries.get(&(hash, rep))
    }

    /// The recorded event count for the spec hashed to `hash` — the
    /// runner's cost-model calibration hint. Never part of an outcome.
    pub fn events_hint(&self, hash: u64) -> Option<u64> {
        self.events.get(&hash).copied()
    }

    /// Cached outcomes in this snapshot.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the snapshot holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The shared, thread-safe cache: lock-free read path (an `Arc`
/// snapshot per sweep), a single writer lock held only while a batch
/// commits, and atomic session counters. See the module docs'
/// *Concurrency* section for the full story.
#[derive(Debug)]
pub struct ConcurrentCache {
    path: PathBuf,
    /// Serialises appends from this handle. (Cross-*process* writers
    /// are serialised by `O_APPEND` at write granularity instead.)
    writer: Mutex<()>,
    index: RwLock<Arc<CacheIndex>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Load-time counters, fixed at open.
    skipped: u64,
    quarantined: u64,
}

impl ConcurrentCache {
    /// Opens (creating if needed) the cache under `dir` — the same
    /// on-disk format, quarantine, and compaction as
    /// [`ResultCache::open`].
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<ConcurrentCache> {
        Ok(Self::from_store(ResultCache::open(dir)?))
    }

    /// Opens (creating if needed) the cache under
    /// [`ResultCache::default_dir`].
    pub fn open_default() -> std::io::Result<ConcurrentCache> {
        Ok(Self::from_store(ResultCache::open_default()?))
    }

    /// Builds the concurrent form from a loaded store, adopting its
    /// entries, hints, and load-time stats.
    pub fn from_store(store: ResultCache) -> ConcurrentCache {
        let index = CacheIndex {
            entries: store.entries.into_iter().map(|(k, v)| (k, Arc::new(v))).collect(),
            events: store.events,
        };
        ConcurrentCache {
            path: store.path,
            writer: Mutex::new(()),
            index: RwLock::new(Arc::new(index)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            skipped: store.stats.skipped,
            quarantined: store.stats.quarantined,
        }
    }

    /// The current snapshot. Take one per sweep and resolve every
    /// lookup against it — stable, and free of per-lookup locking.
    pub fn index(&self) -> Arc<CacheIndex> {
        Arc::clone(&self.index.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Adds to the session hit/miss counters (the runner counts against
    /// its snapshot, then reports here once per sweep).
    pub fn note(&self, hits: u64, misses: u64) {
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses.fetch_add(misses, Ordering::Relaxed);
    }

    /// Cached outcomes currently indexed.
    pub fn len(&self) -> usize {
        self.index().len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.index().is_empty()
    }

    /// Session hit/miss/skip counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            skipped: self.skipped,
            quarantined: self.quarantined,
        }
    }

    /// Group commit: encodes every record, then appends the whole batch
    /// with one `O_APPEND` write and republishes the snapshot once.
    /// All-or-nothing in this process (the open / write error path
    /// indexes nothing); a torn tail on disk is caught by the per-line
    /// CRC at the next open.
    ///
    /// The batch goes out as **one** write: under `O_APPEND`, concurrent
    /// writers (e.g. `--bin all` and `--bin sweep` sharing the default
    /// cache) interleave at write granularity, so a record is never
    /// split across calls.
    pub fn append_batch(&self, records: &[(u64, u64, &ScenarioSpec, &RunOutcome)]) -> std::io::Result<()> {
        if records.is_empty() {
            return Ok(());
        }
        let _writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let mut batch = String::with_capacity(records.len() * 512);
        for (hash, rep, spec, outcome) in records {
            let events = (outcome.perf.events_processed > 0).then_some(outcome.perf.events_processed);
            batch.push_str(&seal(&encode_record(*hash, *rep, &spec.to_scn(), outcome, events)));
            batch.push('\n');
        }
        let mut file = std::fs::OpenOptions::new().create(true).append(true).open(&self.path)?;
        file.write_all(batch.as_bytes())?;
        // Publish: clone the table (Arc values, so outcomes are shared,
        // not copied), fold the batch in, swap the snapshot.
        let mut next = (*self.index()).clone();
        for (hash, rep, _, outcome) in records {
            if outcome.perf.events_processed > 0 {
                let hint = next.events.entry(*hash).or_insert(0);
                *hint = (*hint).max(outcome.perf.events_processed);
            }
            next.entries.insert((*hash, *rep), Arc::new((*outcome).clone()));
        }
        *self.index.write().unwrap_or_else(PoisonError::into_inner) = Arc::new(next);
        Ok(())
    }
}

// ---------------------------------------------------------------------
// CRC trailer
// ---------------------------------------------------------------------

/// Appends the integrity trailer: `{json}#crc:xxxxxxxx`, CRC-32 over
/// the JSON bytes. `#` cannot occur inside a record (the JSON string
/// escapes hold none, and `.scn` text has no `#`), so the trailer is
/// recoverable with a plain reverse split.
fn seal(json: &str) -> String {
    format!("{json}#crc:{:08x}", hydra_wire::crc::crc32(json.as_bytes()))
}

/// Splits and verifies the trailer; `None` for a missing or failed
/// check (a torn or corrupted line).
fn unseal(line: &str) -> Option<&str> {
    let (json, trailer) = line.rsplit_once('#')?;
    let crc = u32::from_str_radix(trailer.strip_prefix("crc:")?, 16).ok()?;
    (crc == hydra_wire::crc::crc32(json.as_bytes())).then_some(json)
}

// ---------------------------------------------------------------------
// Record encoding
// ---------------------------------------------------------------------

fn encode_record(hash: u64, rep: u64, scn: &str, outcome: &RunOutcome, events: Option<u64>) -> String {
    let mut s = String::with_capacity(512);
    s.push('{');
    s.push_str(&format!("\"schema\":{},", quote(CACHE_SCHEMA)));
    s.push_str(&format!("\"hash\":\"{hash:#018x}\","));
    s.push_str(&format!("\"rep\":{rep},"));
    s.push_str(&format!("\"scn\":{},", quote(scn)));
    if let Some(n) = events {
        // Scheduling hint only (see `CacheIndex::events_hint`). An
        // *optional* key: the decoder looks fields up by name, so old
        // records without it — and old readers seeing it — both work,
        // which is why this is not a CACHE_SCHEMA bump.
        s.push_str(&format!("\"events\":{n},"));
    }
    s.push_str("\"outcome\":");
    encode_outcome(&mut s, outcome);
    s.push('}');
    s
}

fn encode_outcome(s: &mut String, o: &RunOutcome) {
    s.push('{');
    s.push_str(&format!("\"completed\":{},", o.completed));
    s.push_str(&format!("\"throughput_bps\":{},", fnum(o.throughput_bps)));
    s.push_str("\"per_flow\":[");
    for (i, fo) in o.per_flow.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push('{');
        s.push_str(&format!("\"src\":{},", fo.flow.src));
        s.push_str(&format!("\"dst\":{},", fo.flow.dst));
        s.push_str(&format!("\"port\":{},", fo.flow.port));
        // The flow's traffic in its canonical `.scn` token form — the
        // token round-trips the exact value (durations are exact
        // nanosecond multiples), and keeps records human-readable.
        s.push_str(&format!("\"traffic\":{},", quote(&fo.flow.traffic.to_token())));
        s.push_str(&format!("\"bytes\":{},", fo.bytes));
        s.push_str(&format!("\"bps\":{}", fnum(fo.bps)));
        if let Some(at) = fo.completed_at {
            s.push_str(&format!(",\"completed_at_ns\":{}", at.as_nanos()));
        }
        s.push('}');
    }
    s.push_str("],");
    s.push_str(&format!("\"at_ns\":{},", o.report.at.as_nanos()));
    s.push_str(&format!("\"collisions\":{},", o.report.collisions));
    s.push_str("\"nodes\":[");
    for (i, n) in o.report.nodes.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push('{');
        s.push_str(&format!("\"node\":{},", n.node));
        s.push_str(&format!("\"tx_data_frames\":{},", n.tx_data_frames));
        s.push_str(&format!("\"tx_control\":{},", n.tx_control));
        s.push_str(&format!("\"avg_frame_size\":{},", fnum(n.avg_frame_size)));
        s.push_str(&format!("\"avg_subframes\":{},", fnum(n.avg_subframes)));
        s.push_str(&format!("\"subframes_sent\":[{},{}],", n.subframes_sent.0, n.subframes_sent.1));
        s.push_str(&format!("\"size_overhead\":{},", fnum(n.size_overhead)));
        s.push_str(&format!("\"time_overhead\":{},", fnum(n.time_overhead)));
        s.push_str("\"time_by_category\":[");
        for (j, (k, v)) in n.time_by_category.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            s.push_str(&format!("[{},{}]", quote(k), fnum(*v)));
        }
        s.push_str("],");
        s.push_str(&format!("\"retries\":{},", n.retries));
        s.push_str(&format!("\"retry_drops\":{},", n.retry_drops));
        s.push_str(&format!("\"queue_overflow\":{},", n.queue_overflow));
        s.push_str(&format!("\"acks_classified\":{},", n.acks_classified));
        s.push_str(&format!("\"bcast_filtered\":{},", n.bcast_filtered));
        s.push_str(&format!("\"bcast_ok\":{},", n.bcast_ok));
        s.push_str(&format!("\"bcast_crc_fail\":{},", n.bcast_crc_fail));
        s.push_str(&format!("\"unicast_ok\":{},", n.unicast_ok));
        s.push_str(&format!("\"unicast_crc_drops\":{},", n.unicast_crc_drops));
        s.push_str(&format!("\"collisions_seen\":{},", n.collisions_seen));
        s.push_str(&format!("\"forwarded\":{}", n.forwarded));
        s.push('}');
    }
    s.push_str("]}");
}

/// Decodes one cache line; `None` for anything unreadable or tagged
/// with a foreign schema. The third element is the optional `events`
/// scheduling hint — kept apart from the outcome on purpose.
fn decode_record(line: &str) -> Option<((u64, u64), RunOutcome, Option<u64>)> {
    let v = json::parse(line).ok()?;
    let obj = v.as_obj()?;
    if json::get_str(obj, "schema")? != CACHE_SCHEMA {
        return None;
    }
    let hash_text = json::get_str(obj, "hash")?;
    let hash = u64::from_str_radix(hash_text.strip_prefix("0x")?, 16).ok()?;
    let rep = json::get_u64(obj, "rep")?;
    let events = json::get_u64(obj, "events");
    let o = json::get(obj, "outcome")?.as_obj()?;
    let nodes_v = json::get(o, "nodes")?.as_arr()?;
    let mut nodes = Vec::with_capacity(nodes_v.len());
    for nv in nodes_v {
        let n = nv.as_obj()?;
        let sub = json::get(n, "subframes_sent")?.as_arr()?;
        if sub.len() != 2 {
            return None;
        }
        let tbc_v = json::get(n, "time_by_category")?.as_arr()?;
        let mut time_by_category = Vec::with_capacity(tbc_v.len());
        for pair in tbc_v {
            let pair = pair.as_arr()?;
            if pair.len() != 2 {
                return None;
            }
            time_by_category.push((pair[0].as_str()?.to_string(), pair[1].as_f64()?));
        }
        nodes.push(hydra_netsim::NodeReport {
            node: json::get_u64(n, "node")? as usize,
            tx_data_frames: json::get_u64(n, "tx_data_frames")?,
            tx_control: json::get_u64(n, "tx_control")?,
            avg_frame_size: json::get_f64(n, "avg_frame_size")?,
            avg_subframes: json::get_f64(n, "avg_subframes")?,
            subframes_sent: (sub[0].as_u64()?, sub[1].as_u64()?),
            size_overhead: json::get_f64(n, "size_overhead")?,
            time_overhead: json::get_f64(n, "time_overhead")?,
            time_by_category,
            retries: json::get_u64(n, "retries")?,
            retry_drops: json::get_u64(n, "retry_drops")?,
            queue_overflow: json::get_u64(n, "queue_overflow")?,
            acks_classified: json::get_u64(n, "acks_classified")?,
            bcast_filtered: json::get_u64(n, "bcast_filtered")?,
            bcast_ok: json::get_u64(n, "bcast_ok")?,
            bcast_crc_fail: json::get_u64(n, "bcast_crc_fail")?,
            unicast_ok: json::get_u64(n, "unicast_ok")?,
            unicast_crc_drops: json::get_u64(n, "unicast_crc_drops")?,
            collisions_seen: json::get_u64(n, "collisions_seen")?,
            forwarded: json::get_u64(n, "forwarded")?,
        });
    }
    let per_flow_v = json::get(o, "per_flow")?.as_arr()?;
    let mut per_flow = Vec::with_capacity(per_flow_v.len());
    for fv in per_flow_v {
        let fo = fv.as_obj()?;
        let traffic = hydra_netsim::FlowTraffic::from_token(json::get_str(fo, "traffic")?).ok()?;
        let flow = hydra_netsim::FlowSpec {
            src: json::get_u64(fo, "src")? as usize,
            dst: json::get_u64(fo, "dst")? as usize,
            port: u16::try_from(json::get_u64(fo, "port")?).ok()?,
            traffic,
        };
        per_flow.push(hydra_netsim::FlowOutcome::new(
            flow,
            json::get_u64(fo, "bytes")?,
            json::get_f64(fo, "bps")?,
            match json::get(fo, "completed_at_ns") {
                Some(v) => Some(Instant::from_nanos(v.as_u64()?)),
                None => None,
            },
        ));
    }
    let outcome = RunOutcome {
        completed: json::get(o, "completed")?.as_bool()?,
        throughput_bps: json::get_f64(o, "throughput_bps")?,
        per_flow,
        report: RunReport {
            nodes,
            at: Instant::from_nanos(json::get_u64(o, "at_ns")?),
            collisions: json::get_u64(o, "collisions")?,
        },
        // Telemetry is never persisted: a cache hit reports zeros (it
        // cost no simulation), keeping cached == fresh under PartialEq.
        perf: RunPerf::default(),
    };
    Some(((hash, rep), outcome, events))
}

/// Shortest-round-trip float text; non-finite values are quoted tokens
/// the reader maps back (plain JSON has no spelling for them).
fn fnum(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else if v.is_nan() {
        "\"NaN\"".into()
    } else if v > 0.0 {
        "\"inf\"".into()
    } else {
        "\"-inf\"".into()
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The minimal JSON the cache records need. Not a general-purpose
/// parser: just enough to read back what [`encode_record`] writes,
/// with strict syntax so corruption surfaces as a skipped record.
mod json {
    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// A number without `.`/`e` (fits the counters exactly).
        Int(u64),
        /// Any other number.
        Num(f64),
        /// A string.
        Str(String),
        /// An array.
        Arr(Vec<Value>),
        /// An object, insertion-ordered.
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        pub fn as_obj(&self) -> Option<&[(String, Value)]> {
            match self {
                Value::Obj(kv) => Some(kv),
                _ => None,
            }
        }
        pub fn as_arr(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(v) => Some(v),
                _ => None,
            }
        }
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }
        pub fn as_bool(&self) -> Option<bool> {
            match self {
                Value::Bool(b) => Some(*b),
                _ => None,
            }
        }
        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Value::Int(n) => Some(*n),
                _ => None,
            }
        }
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Num(v) => Some(*v),
                Value::Int(n) => Some(*n as f64),
                // Non-finite floats are stored as quoted tokens.
                Value::Str(s) => match s.as_str() {
                    "NaN" => Some(f64::NAN),
                    "inf" => Some(f64::INFINITY),
                    "-inf" => Some(f64::NEG_INFINITY),
                    _ => None,
                },
                _ => None,
            }
        }
    }

    pub fn get<'a>(obj: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
        obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
    pub fn get_str<'a>(obj: &'a [(String, Value)], key: &str) -> Option<&'a str> {
        get(obj, key)?.as_str()
    }
    pub fn get_u64(obj: &[(String, Value)], key: &str) -> Option<u64> {
        get(obj, key)?.as_u64()
    }
    pub fn get_f64(obj: &[(String, Value)], key: &str) -> Option<f64> {
        get(obj, key)?.as_f64()
    }

    /// Parses one complete JSON value (trailing garbage is an error).
    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        skip_ws(b, pos);
        if b.get(*pos) == Some(&c) {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {pos}", c as char))
        }
    }

    fn value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b'{') => obj(b, pos),
            Some(b'[') => arr(b, pos),
            Some(b'"') => Ok(Value::Str(string(b, pos)?)),
            Some(b't') => lit(b, pos, "true", Value::Bool(true)),
            Some(b'f') => lit(b, pos, "false", Value::Bool(false)),
            Some(b'n') => lit(b, pos, "null", Value::Null),
            Some(_) => number(b, pos),
            None => Err("unexpected end of input".into()),
        }
    }

    fn lit(b: &[u8], pos: &mut usize, text: &str, v: Value) -> Result<Value, String> {
        if b[*pos..].starts_with(text.as_bytes()) {
            *pos += text.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {pos}"))
        }
    }

    fn obj(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(b, pos, b'{')?;
        let mut kv = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Value::Obj(kv));
        }
        loop {
            skip_ws(b, pos);
            let key = string(b, pos)?;
            expect(b, pos, b':')?;
            let v = value(b, pos)?;
            kv.push((key, v));
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Value::Obj(kv));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
            }
        }
    }

    fn arr(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(b, pos, b'[')?;
        let mut items = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(value(b, pos)?);
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {pos}")),
            }
        }
    }

    fn string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected string at byte {pos}"));
        }
        *pos += 1;
        let mut out = String::new();
        loop {
            match b.get(*pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match b.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = b
                                .get(*pos + 1..*pos + 5)
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).ok_or("bad \\u codepoint")?);
                            *pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {pos}")),
                    }
                    *pos += 1;
                }
                Some(_) => {
                    // Consume the whole unescaped run in one go (the
                    // input is a &str, so copying bytes up to the next
                    // delimiter keeps UTF-8 boundaries intact). Runs
                    // are validated once each — per-character
                    // validation of the remaining slice made parsing a
                    // 500 KB record quadratic.
                    let start = *pos;
                    while *pos < b.len() && b[*pos] != b'"' && b[*pos] != b'\\' {
                        *pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&b[start..*pos]).map_err(|_| "invalid utf-8")?);
                }
            }
        }
    }

    fn number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
            *pos += 1;
        }
        let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| "bad number")?;
        if text.is_empty() {
            return Err(format!("expected value at byte {start}"));
        }
        if !text.contains(['.', 'e', 'E']) && !text.starts_with('-') {
            return text.parse::<u64>().map(Value::Int).map_err(|e| e.to_string());
        }
        text.parse::<f64>().map(Value::Num).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_netsim::{Policy, TopologyKind};
    use hydra_phy::Rate;
    use hydra_sim::Duration;

    fn tiny_spec() -> ScenarioSpec {
        let mut spec =
            ScenarioSpec::udp(TopologyKind::Linear(1), Policy::Ua, Rate::R1_30, Duration::from_millis(20));
        spec.warmup = Duration::from_millis(200);
        spec.duration = Duration::from_secs(1);
        spec
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hydra-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn outcome_round_trips_bit_exactly() {
        let spec = tiny_spec();
        let outcome = spec.run();
        let line = encode_record(spec.stable_hash(), 1, &spec.to_scn(), &outcome, None);
        let ((hash, rep), back, events) = decode_record(&line).expect("decode own record");
        assert_eq!(hash, spec.stable_hash());
        assert_eq!(rep, 1);
        assert_eq!(events, None);
        assert_eq!(back, outcome, "RunOutcome must survive the cache byte-exactly");
        // Exact float identity, not approximate.
        assert_eq!(back.throughput_bps.to_bits(), outcome.throughput_bps.to_bits());
    }

    #[test]
    fn mixed_outcome_round_trips_with_flow_labels() {
        use hydra_netsim::{FlowKind, FlowSpec, FlowTraffic, Policy, Traffic};
        let mut spec = ScenarioSpec::tcp(TopologyKind::Linear(1), Policy::Ua, Rate::R1_30);
        spec.traffic = Traffic::FileTransfer { bytes: 20 * 1024 };
        spec.warmup = Duration::from_millis(200);
        spec.duration = Duration::from_secs(2);
        let spec = spec.add_flow(FlowSpec {
            src: 0,
            dst: 1,
            port: 9000,
            traffic: FlowTraffic::Cbr { interval: Duration::from_millis(20), payload: 160 },
        });
        let outcome = spec.run();
        assert_eq!(outcome.per_flow.len(), 2);
        assert!(outcome.per_flow[0].completed_at.is_some(), "transfer should finish");
        let line = encode_record(spec.stable_hash(), 1, &spec.to_scn(), &outcome, Some(4321));
        let (_, back, events) = decode_record(&line).expect("decode mixed record");
        assert_eq!(events, Some(4321), "the scheduling hint rides along");
        assert_eq!(back, outcome, "labeled per-flow outcomes must survive the cache");
        assert_eq!(back.per_flow[0].kind, FlowKind::FileTransfer);
        assert_eq!(back.per_flow[1].kind, FlowKind::Cbr);
        assert_eq!(back.per_flow[1].flow.port, 9000);
        assert_eq!(back.per_flow[0].completed_at, outcome.per_flow[0].completed_at);
    }

    #[test]
    fn cache_persists_across_opens() {
        let dir = tmp_dir("persist");
        let spec = tiny_spec();
        let outcome = spec.run();
        {
            let c = ConcurrentCache::open(&dir).unwrap();
            assert!(c.is_empty());
            assert!(c.index().get(spec.stable_hash(), 1).is_none());
            c.append_batch(&[(spec.stable_hash(), 1, &spec, &outcome)]).unwrap();
        }
        let c = ConcurrentCache::open(&dir).unwrap();
        assert_eq!(c.len(), 1);
        let index = c.index();
        let cached = index.get(spec.stable_hash(), 1).expect("reload from disk");
        assert_eq!(**cached, outcome);
        assert!(index.get(spec.stable_hash(), 2).is_none(), "other reps stay cold");
        assert_eq!(c.stats(), CacheStats::default(), "nothing skipped or quarantined");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_schema_is_skipped_and_garbage_is_quarantined() {
        let dir = tmp_dir("schema");
        std::fs::create_dir_all(&dir).unwrap();
        let spec = tiny_spec();
        let outcome = spec.run();
        let good = seal(&encode_record(spec.stable_hash(), 1, &spec.to_scn(), &outcome, None));
        // An intact (valid-CRC) record from another schema revision.
        let foreign = seal(
            &encode_record(spec.stable_hash(), 1, &spec.to_scn(), &outcome, None)
                .replace(CACHE_SCHEMA, "hydra-agg.run.v0"),
        );
        std::fs::write(dir.join("runs.jsonl"), format!("{foreign}\nnot json at all\n{good}\n")).unwrap();
        let c = ResultCache::open(&dir).unwrap();
        assert_eq!(c.len(), 1, "only the current-schema record loads");
        assert_eq!(c.stats().skipped, 1, "intact foreign record is skipped, not quarantined");
        assert_eq!(c.stats().quarantined, 1, "trailer-less garbage is quarantined");
        // The garbage moved out; the intact lines (foreign included) stay.
        let live = std::fs::read_to_string(dir.join("runs.jsonl")).unwrap();
        assert_eq!(live.lines().count(), 2);
        assert!(!live.contains("not json at all"));
        let corrupt = std::fs::read_to_string(dir.join("runs.corrupt.jsonl")).unwrap();
        assert_eq!(corrupt.trim(), "not json at all");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_appends_quarantine_and_degrade_to_cold() {
        let dir = tmp_dir("torn");
        let spec = tiny_spec();
        let outcome = spec.run();
        let record = |rep| [(spec.stable_hash(), rep, &spec, &outcome)];
        {
            let c = ConcurrentCache::open(&dir).unwrap();
            c.append_batch(&record(1)).unwrap();
            c.append_batch(&record(2)).unwrap();
        }
        // Tear the file mid-record, as a crash during the second
        // append would: keep the first line and half of the second.
        let path = dir.join("runs.jsonl");
        let text = std::fs::read_to_string(&path).unwrap();
        let first_len = text.find('\n').unwrap() + 1;
        let torn = &text[..first_len + (text.len() - first_len) / 2];
        std::fs::write(&path, torn).unwrap();

        let c = ConcurrentCache::open(&dir).unwrap();
        assert_eq!(c.stats().quarantined, 1);
        assert!(c.index().get(spec.stable_hash(), 1).is_some(), "intact record survives");
        assert!(c.index().get(spec.stable_hash(), 2).is_none(), "torn record degrades to cold");
        // The torn fragment is preserved for forensics, out of band.
        assert!(dir.join("runs.corrupt.jsonl").exists());
        // Re-recording the cold key heals the cache for the next open.
        c.append_batch(&record(2)).unwrap();
        drop(c);
        let c = ConcurrentCache::open(&dir).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().quarantined, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_flipped_crc_byte_is_caught() {
        let dir = tmp_dir("bitflip");
        let spec = tiny_spec();
        let outcome = spec.run();
        ConcurrentCache::open(&dir)
            .unwrap()
            .append_batch(&[(spec.stable_hash(), 1, &spec, &outcome)])
            .unwrap();
        let path = dir.join("runs.jsonl");
        let mut text = std::fs::read_to_string(&path).unwrap();
        // Flip one digit inside a numeric field (valid JSON, wrong data).
        let at = text.find("\"rep\":1").expect("rep field") + "\"rep\":".len();
        text.replace_range(at..at + 1, "7");
        std::fs::write(&path, &text).unwrap();
        let c = ConcurrentCache::open(&dir).unwrap();
        assert_eq!(c.stats().quarantined, 1, "CRC catches silent data damage");
        assert!(c.index().get(spec.stable_hash(), 1).is_none());
        assert!(c.index().get(spec.stable_hash(), 7).is_none(), "damaged record must not load");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn seal_and_unseal_round_trip_and_reject_damage() {
        let sealed = seal("{\"a\":1}");
        assert!(sealed.starts_with("{\"a\":1}#crc:"));
        assert_eq!(unseal(&sealed), Some("{\"a\":1}"));
        assert_eq!(unseal("{\"a\":1}"), None, "no trailer");
        assert_eq!(unseal("{\"a\":1}#crc:00000000"), None, "wrong crc");
        let tampered = sealed.replace("{\"a\":1}", "{\"a\":2}");
        assert_eq!(unseal(&tampered), None, "payload edit breaks the seal");
    }

    #[test]
    fn json_parser_rejects_garbage() {
        for bad in ["{", "[1,", "\"abc", "{\"a\":}", "{\"a\":1} trailing", ""] {
            assert!(json::parse(bad).is_err(), "`{bad}` should fail");
        }
        assert_eq!(json::parse("-3.5").unwrap(), json::Value::Num(-3.5));
        assert_eq!(json::parse("42").unwrap(), json::Value::Int(42));
        assert_eq!(json::parse("\"a\\\"b\\u0041\"").unwrap(), json::Value::Str("a\"bA".into()));
    }

    #[test]
    fn non_finite_floats_survive() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.1, -0.0, 1e300] {
            let parsed = json::parse(&fnum(v)).unwrap().as_f64().unwrap();
            assert!(parsed.to_bits() == v.to_bits() || (parsed.is_nan() && v.is_nan()));
        }
    }

    #[test]
    fn batch_append_commits_once_and_snapshots_stay_immutable() {
        let dir = tmp_dir("batch");
        let spec = tiny_spec();
        let spec2 = tiny_spec().with_seed(2);
        let (outcome, outcome2) = (spec.run(), spec2.run());
        let cache = ResultCache::open(&dir).unwrap().shared();
        let before = cache.index();
        cache
            .append_batch(&[
                (spec.stable_hash(), 1, &spec, &outcome),
                (spec.stable_hash(), 2, &spec, &outcome),
                (spec2.stable_hash(), 1, &spec2, &outcome2),
            ])
            .unwrap();
        assert!(before.is_empty(), "a snapshot never sees later appends");
        let after = cache.index();
        assert_eq!(after.len(), 3);
        assert_eq!(**after.get(spec.stable_hash(), 2).unwrap(), outcome);
        assert_eq!(
            after.events_hint(spec.stable_hash()),
            Some(outcome.perf.events_processed),
            "fresh runs calibrate the cost model"
        );
        // Three records, three lines — and a cold reopen loads them all,
        // hints included.
        let text = std::fs::read_to_string(dir.join("runs.jsonl")).unwrap();
        assert_eq!(text.lines().count(), 3);
        let reopened = ConcurrentCache::open(&dir).unwrap();
        assert_eq!(reopened.len(), 3);
        assert_eq!(reopened.index().events_hint(spec2.stable_hash()), Some(outcome2.perf.events_processed));
        assert_eq!(reopened.stats().quarantined, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_batch_append_writes_and_indexes_nothing() {
        let dir = tmp_dir("batch-fail");
        let spec = tiny_spec();
        let outcome = spec.run();
        let cache = ConcurrentCache::open(&dir).unwrap();
        // A real IO error: a directory occupies the cache file's path,
        // so the append cannot open it.
        let path = dir.join("runs.jsonl");
        std::fs::create_dir(&path).unwrap();
        let err = cache.append_batch(&[(spec.stable_hash(), 1, &spec, &outcome)]);
        assert!(err.is_err(), "an unopenable cache file is an IO error");
        assert!(cache.is_empty(), "a failed batch indexes nothing");
        assert_eq!(std::fs::read_dir(&path).unwrap().count(), 0, "a failed batch writes nothing");
        // The retry lands the whole batch cleanly.
        std::fs::remove_dir(&path).unwrap();
        cache.append_batch(&[(spec.stable_hash(), 1, &spec, &outcome)]).unwrap();
        assert_eq!(cache.len(), 1);
        drop(cache);
        let reopened = ConcurrentCache::open(&dir).unwrap();
        assert_eq!(reopened.len(), 1);
        assert_eq!(reopened.stats().quarantined, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
