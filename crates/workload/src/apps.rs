//! Closed-loop application workload engines.
//!
//! The fio-style [`crate::AddressStream`] is *open-loop*: offsets pour
//! out at whatever rate the host's queue-depth window admits, with no
//! dependency between operations. Real services are *closed-loop*:
//! each logical client keeps at most one request chain outstanding,
//! thinks between transactions, and orders dependent I/O (a
//! read-modify-write's write, a commit record behind its reads, a
//! checkpoint behind a drained scan). That feedback loop is what
//! couples tenant behavior to device behavior — throttle a closed-loop
//! app and its *arrival rate* drops, which open-loop streams cannot
//! express.
//!
//! Four engines model the paper-adjacent service mix:
//!
//! * [`KvEngine`] — YCSB-like key-value store: zipfian keys, a
//!   configurable read / read-modify-write mix, per-client think time.
//! * [`OltpEngine`] — TPC-C-like OLTP: a few random reads per
//!   transaction followed by one sequential log write that acts as the
//!   commit barrier (issued only after the reads complete, fsync-style).
//! * [`FileServerEngine`] — filebench-style file server:
//!   create/read/append/delete over a simulated file population that
//!   the operations themselves mutate.
//! * [`MlIngestEngine`] — ML-ingest scan: large sequential reads kept
//!   `window` deep, with periodic checkpoints that drain the scan and
//!   then write serially (each checkpoint write barriers on the last).
//!
//! All engines implement [`AppEngine`]. The host polls
//! [`AppEngine::next_op`] whenever the app has a free in-flight slot
//! and reflects every completion back through
//! [`AppEngine::on_complete`]; think-time pauses surface as
//! [`AppPoll::WaitUntil`] wakes, dependency stalls as
//! [`AppPoll::Blocked`] (the next completion un-blocks). Engines draw
//! all randomness from one owned [`DetRng`], so a run is a pure
//! function of `(seed, config)` — the determinism bedrock the engine's
//! byte-identity tests extend over closed-loop apps.

use blkio::{AccessPattern, IoOp};
use simcore::{DetRng, SimDuration, SimTime};

/// One application-level I/O operation, ready to submit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppOp {
    /// Read or write.
    pub op: IoOp,
    /// Access pattern hint for the device model.
    pub pattern: AccessPattern,
    /// Byte offset on the target device.
    pub offset: u64,
    /// Transfer length in bytes.
    pub len: u32,
    /// Engine-private completion token; the host hands it back verbatim
    /// in [`AppEngine::on_complete`].
    pub token: u64,
}

/// What the engine wants to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppPoll {
    /// Submit this operation now.
    Op(AppOp),
    /// Nothing issuable yet, but something becomes ready at the given
    /// instant (think-time expiry): wake then.
    WaitUntil(SimTime),
    /// Every ready client is waiting on an in-flight completion; the
    /// next [`AppEngine::on_complete`] is the wake source.
    Blocked,
}

/// A closed-loop application workload engine.
///
/// Contract with the host:
///
/// * `next_op` is polled while the app has a free in-flight slot; the
///   host never holds more than [`AppEngine::window`] ops outstanding.
/// * Every op returned eventually gets exactly one `on_complete` with
///   its token (`ok == false` when the I/O exhausted its retries).
/// * A `WaitUntil(t)` answer is only returned with `t` in the future;
///   `Blocked` is only returned while at least one op is outstanding —
///   so the loop can never deadlock.
pub trait AppEngine {
    /// The next operation, or why there is none.
    fn next_op(&mut self, now: SimTime) -> AppPoll;
    /// Feedback: the op issued with `token` finished (`ok == false`
    /// means it failed back to the application after retries).
    fn on_complete(&mut self, token: u64, ok: bool, now: SimTime);
    /// Maximum ops the engine wants outstanding at once.
    fn window(&self) -> u32;
    /// Ops currently issued but not yet completed.
    fn outstanding(&self) -> u32;
    /// `(issued, completed, failed)` op counts since construction.
    fn op_counts(&self) -> (u64, u64, u64);
}

/// Configuration of the YCSB-like key-value engine.
#[derive(Debug, Clone, PartialEq)]
pub struct KvConfig {
    /// Concurrent closed-loop clients (= the outstanding-op window).
    pub window: u32,
    /// Fraction of transactions that are plain reads; the rest are
    /// read-modify-writes (read, then write-back on completion).
    pub read_fraction: f64,
    /// Zipf exponent for key popularity (0 = uniform).
    pub theta: f64,
    /// Value size in bytes (one key = one value = one I/O).
    pub value_size: u32,
    /// Per-client pause between transactions.
    pub think: SimDuration,
}

impl Default for KvConfig {
    fn default() -> Self {
        KvConfig {
            window: 16,
            read_fraction: 0.95,
            theta: 0.99,
            value_size: 4096,
            think: SimDuration::from_micros(20),
        }
    }
}

/// Configuration of the TPC-C-like OLTP engine.
#[derive(Debug, Clone, PartialEq)]
pub struct OltpConfig {
    /// Concurrent transactions (= the outstanding-op window).
    pub window: u32,
    /// Random data-page reads per transaction, before the commit.
    pub reads_per_txn: u32,
    /// Data-page read size in bytes.
    pub read_size: u32,
    /// Commit record size: one sequential log write per transaction,
    /// issued only after the reads complete (the fsync barrier).
    pub log_write_size: u32,
    /// Per-client pause between transactions.
    pub think: SimDuration,
}

impl Default for OltpConfig {
    fn default() -> Self {
        OltpConfig {
            window: 8,
            reads_per_txn: 4,
            read_size: 16 * 1024,
            log_write_size: 16 * 1024,
            think: SimDuration::from_micros(50),
        }
    }
}

/// Configuration of the filebench-style file-server engine.
#[derive(Debug, Clone, PartialEq)]
pub struct FileServerConfig {
    /// Concurrent worker threads (= the outstanding-op window).
    pub window: u32,
    /// Initial file population size.
    pub files: u32,
    /// Bytes appended per append operation.
    pub append_size: u32,
    /// Per-worker pause between operations.
    pub think: SimDuration,
}

impl Default for FileServerConfig {
    fn default() -> Self {
        FileServerConfig {
            window: 8,
            files: 256,
            append_size: 16 * 1024,
            think: SimDuration::from_micros(30),
        }
    }
}

/// Configuration of the ML-ingest scan engine.
#[derive(Debug, Clone, PartialEq)]
pub struct MlIngestConfig {
    /// Outstanding sequential reads the scan keeps in flight.
    pub window: u32,
    /// Scan chunk size in bytes.
    pub read_size: u32,
    /// Chunks between checkpoints.
    pub checkpoint_every: u32,
    /// Size of each checkpoint write in bytes.
    pub checkpoint_size: u32,
    /// Serial writes per checkpoint (each barriers on the previous).
    pub checkpoint_writes: u32,
}

impl Default for MlIngestConfig {
    fn default() -> Self {
        MlIngestConfig {
            window: 32,
            read_size: 1024 * 1024,
            checkpoint_every: 64,
            checkpoint_size: 256 * 1024,
            checkpoint_writes: 4,
        }
    }
}

/// Declarative description of a closed-loop engine: pure data, cheap to
/// clone, `Debug`-stable (it participates in scenario cache keys).
/// Instantiate a running engine with [`AppModelSpec::build`].
#[derive(Debug, Clone, PartialEq)]
pub enum AppModelSpec {
    /// YCSB-like key-value store.
    Kv(KvConfig),
    /// TPC-C-like OLTP.
    Oltp(OltpConfig),
    /// Filebench-style file server.
    FileServer(FileServerConfig),
    /// ML-ingest sequential scan with checkpoints.
    MlIngest(MlIngestConfig),
}

impl AppModelSpec {
    /// The configured outstanding-op window.
    #[must_use]
    pub fn window(&self) -> u32 {
        match self {
            AppModelSpec::Kv(c) => c.window,
            AppModelSpec::Oltp(c) => c.window,
            AppModelSpec::FileServer(c) => c.window,
            AppModelSpec::MlIngest(c) => c.window,
        }
    }

    /// Stable lower-case kind token (the DSL's `workload =` vocabulary).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            AppModelSpec::Kv(_) => "kv",
            AppModelSpec::Oltp(_) => "oltp",
            AppModelSpec::FileServer(_) => "fileserver",
            AppModelSpec::MlIngest(_) => "mlscan",
        }
    }

    /// Instantiates the running engine over a device of
    /// `capacity_bytes`, drawing all randomness from `rng`.
    #[must_use]
    pub fn build(&self, rng: DetRng, capacity_bytes: u64) -> AppModel {
        match self {
            AppModelSpec::Kv(c) => AppModel::Kv(KvEngine::new(c.clone(), rng, capacity_bytes)),
            AppModelSpec::Oltp(c) => {
                AppModel::Oltp(OltpEngine::new(c.clone(), rng, capacity_bytes))
            }
            AppModelSpec::FileServer(c) => {
                AppModel::FileServer(FileServerEngine::new(c.clone(), rng, capacity_bytes))
            }
            AppModelSpec::MlIngest(c) => {
                AppModel::MlIngest(MlIngestEngine::new(c.clone(), capacity_bytes))
            }
        }
    }
}

/// A running closed-loop engine (enum dispatch, mirroring the
/// scheduler's `SchedKind` → `Scheduler` idiom).
#[derive(Debug)]
pub enum AppModel {
    /// YCSB-like key-value store.
    Kv(KvEngine),
    /// TPC-C-like OLTP.
    Oltp(OltpEngine),
    /// Filebench-style file server.
    FileServer(FileServerEngine),
    /// ML-ingest sequential scan.
    MlIngest(MlIngestEngine),
}

macro_rules! dispatch {
    ($self:ident, $m:ident ( $($arg:expr),* )) => {
        match $self {
            AppModel::Kv(e) => e.$m($($arg),*),
            AppModel::Oltp(e) => e.$m($($arg),*),
            AppModel::FileServer(e) => e.$m($($arg),*),
            AppModel::MlIngest(e) => e.$m($($arg),*),
        }
    };
}

impl AppEngine for AppModel {
    fn next_op(&mut self, now: SimTime) -> AppPoll {
        dispatch!(self, next_op(now))
    }
    fn on_complete(&mut self, token: u64, ok: bool, now: SimTime) {
        dispatch!(self, on_complete(token, ok, now))
    }
    fn window(&self) -> u32 {
        dispatch!(self, window())
    }
    fn outstanding(&self) -> u32 {
        dispatch!(self, outstanding())
    }
    fn op_counts(&self) -> (u64, u64, u64) {
        dispatch!(self, op_counts())
    }
}

/// Shared issued/completed/failed accounting.
#[derive(Debug, Default)]
struct OpCounts {
    issued: u64,
    completed: u64,
    failed: u64,
}

impl OpCounts {
    fn issue(&mut self) {
        self.issued += 1;
    }
    fn finish(&mut self, ok: bool) {
        if ok {
            self.completed += 1;
        } else {
            self.failed += 1;
        }
    }
    fn outstanding(&self) -> u32 {
        (self.issued - self.completed - self.failed) as u32
    }
    fn as_tuple(&self) -> (u64, u64, u64) {
        (self.issued, self.completed, self.failed)
    }
}

/// Zipf-skewed ranks in `[0, n)` via continuous CDF inversion (the same
/// technique as [`crate::AddressStream`]'s zipf mode), degenerating to
/// uniform at `theta == 0`. The terms that depend only on `n` and
/// `theta` are computed once, with the operations the per-draw formula
/// would use, so every rank is the one that formula gives.
#[derive(Debug, Clone, Copy)]
struct ZipfRanks {
    n: u64,
    shape: ZipfShape,
}

#[derive(Debug, Clone, Copy)]
enum ZipfShape {
    Uniform,
    /// `theta == 1`: the CDF is logarithmic.
    Log,
    /// `span = n^(1−θ) − 1`, `inv_s = 1 / (1−θ)`.
    Power {
        span: f64,
        inv_s: f64,
    },
}

impl ZipfRanks {
    fn new(n: u64, theta: f64) -> Self {
        let s = 1.0 - theta;
        let shape = if theta <= f64::EPSILON {
            ZipfShape::Uniform
        } else if s.abs() < 1e-9 {
            ZipfShape::Log
        } else {
            ZipfShape::Power {
                span: (n as f64).powf(s) - 1.0,
                inv_s: 1.0 / s,
            }
        };
        ZipfRanks { n, shape }
    }

    fn sample(&self, rng: &mut DetRng) -> u64 {
        let (n, u) = (self.n, rng.f64());
        let rank = match self.shape {
            ZipfShape::Uniform => return ((u * n as f64) as u64).min(n - 1),
            ZipfShape::Log => ((n as f64).powf(u) - 1.0).max(0.0),
            ZipfShape::Power { span, inv_s } => (span * u + 1.0).powf(inv_s) - 1.0,
        };
        (rank as u64).min(n - 1)
    }
}

/// Scatters a logical id over the block space so hot ranks do not
/// cluster physically (matching the stream generator's scatter).
fn scatter(id: u64, blocks: u64) -> u64 {
    id.wrapping_mul(0x9E37_79B9_7F4A_7C15) % blocks.max(1)
}

/// One closed-loop client slot shared by the transactional engines:
/// at most one op in flight, a queue of dependent follow-up ops for the
/// current transaction, and a think-time gate for the next one.
#[derive(Debug)]
struct Client {
    /// Earliest instant the client may issue again.
    ready_at: SimTime,
    /// `true` while an op is in flight (token = client index).
    in_flight: bool,
    /// Remaining dependent ops of the current transaction, issued one
    /// at a time in order — each barriers on the previous completion.
    cont: Vec<AppOp>,
}

impl Client {
    fn new() -> Self {
        Client {
            ready_at: SimTime::ZERO,
            in_flight: false,
            cont: Vec::new(),
        }
    }
}

/// Polls a client array: returns the lowest-index issuable client, or
/// the earliest future ready time. The caller generates the op.
fn poll_clients(clients: &[Client], now: SimTime) -> Result<usize, AppPoll> {
    let mut next_ready: Option<SimTime> = None;
    for (ci, c) in clients.iter().enumerate() {
        if c.in_flight {
            continue;
        }
        if c.ready_at > now {
            next_ready = Some(next_ready.map_or(c.ready_at, |t| t.min(c.ready_at)));
            continue;
        }
        return Ok(ci);
    }
    Err(match next_ready {
        Some(t) => AppPoll::WaitUntil(t),
        None => AppPoll::Blocked,
    })
}

/// Shared completion path for the transactional engines: frees the
/// client slot, drops the rest of an aborted transaction, and arms the
/// think timer when the transaction is done.
fn client_complete(clients: &mut [Client], token: u64, ok: bool, now: SimTime, think: SimDuration) {
    let c = &mut clients[token as usize];
    debug_assert!(c.in_flight, "completion for an idle client");
    c.in_flight = false;
    if !ok {
        // The transaction aborts: its remaining dependent ops never
        // issue (a failed read cannot feed its write-back).
        c.cont.clear();
    }
    if c.cont.is_empty() {
        c.ready_at = now + think;
    } else {
        c.ready_at = now;
    }
}

/// YCSB-like key-value engine. See the module docs.
#[derive(Debug)]
pub struct KvEngine {
    cfg: KvConfig,
    rng: DetRng,
    clients: Vec<Client>,
    /// Number of distinct keys (device capacity / value size, capped).
    keys: u64,
    /// Key popularity over `keys`.
    zipf: ZipfRanks,
    counts: OpCounts,
}

impl KvEngine {
    /// Creates the engine over a device of `capacity_bytes`.
    #[must_use]
    pub fn new(cfg: KvConfig, rng: DetRng, capacity_bytes: u64) -> Self {
        let keys = (capacity_bytes / u64::from(cfg.value_size.max(1))).max(1);
        let clients = (0..cfg.window).map(|_| Client::new()).collect();
        KvEngine {
            zipf: ZipfRanks::new(keys, cfg.theta),
            cfg,
            rng,
            clients,
            keys,
            counts: OpCounts::default(),
        }
    }

    fn begin_txn(&mut self, ci: usize) -> AppOp {
        let key = self.zipf.sample(&mut self.rng);
        let offset = scatter(key, self.keys) * u64::from(self.cfg.value_size);
        let token = ci as u64;
        let len = self.cfg.value_size;
        let read = AppOp {
            op: IoOp::Read,
            pattern: AccessPattern::Random,
            offset,
            len,
            token,
        };
        if !self.rng.chance(self.cfg.read_fraction) {
            // Read-modify-write: the write-back issues only after the
            // read completes.
            self.clients[ci].cont.push(AppOp {
                op: IoOp::Write,
                ..read
            });
        }
        read
    }
}

impl AppEngine for KvEngine {
    fn next_op(&mut self, now: SimTime) -> AppPoll {
        match poll_clients(&self.clients, now) {
            Ok(ci) => {
                let op = match self.clients[ci].cont.pop() {
                    Some(op) => op,
                    None => self.begin_txn(ci),
                };
                self.clients[ci].in_flight = true;
                self.counts.issue();
                AppPoll::Op(op)
            }
            Err(poll) => poll,
        }
    }

    fn on_complete(&mut self, token: u64, ok: bool, now: SimTime) {
        self.counts.finish(ok);
        client_complete(&mut self.clients, token, ok, now, self.cfg.think);
    }

    fn window(&self) -> u32 {
        self.cfg.window
    }
    fn outstanding(&self) -> u32 {
        self.counts.outstanding()
    }
    fn op_counts(&self) -> (u64, u64, u64) {
        self.counts.as_tuple()
    }
}

/// TPC-C-like OLTP engine. See the module docs.
#[derive(Debug)]
pub struct OltpEngine {
    cfg: OltpConfig,
    rng: DetRng,
    clients: Vec<Client>,
    /// Shared log head: commit records append here sequentially,
    /// wrapping within the log region.
    log_head: u64,
    /// Bytes reserved for the log at the start of the address space.
    log_region: u64,
    /// Data region size (everything past the log).
    data_bytes: u64,
    counts: OpCounts,
}

impl OltpEngine {
    /// Creates the engine over a device of `capacity_bytes`.
    #[must_use]
    pub fn new(cfg: OltpConfig, rng: DetRng, capacity_bytes: u64) -> Self {
        let log_region = (capacity_bytes / 8).max(u64::from(cfg.log_write_size.max(1)));
        let clients = (0..cfg.window).map(|_| Client::new()).collect();
        OltpEngine {
            data_bytes: capacity_bytes.saturating_sub(log_region).max(1),
            log_region,
            log_head: 0,
            cfg,
            rng,
            clients,
            counts: OpCounts::default(),
        }
    }

    fn begin_txn(&mut self, ci: usize) -> AppOp {
        let token = ci as u64;
        // The commit record: pushed first so it pops *last* — it only
        // issues after every read of the transaction completed (the
        // fsync-style write barrier).
        let commit_off = self.log_head;
        self.log_head = (self.log_head + u64::from(self.cfg.log_write_size)) % self.log_region;
        self.clients[ci].cont.push(AppOp {
            op: IoOp::Write,
            pattern: AccessPattern::Sequential,
            offset: commit_off,
            len: self.cfg.log_write_size,
            token,
        });
        let pages = (self.data_bytes / u64::from(self.cfg.read_size.max(1))).max(1);
        let mut first = None;
        for _ in 0..self.cfg.reads_per_txn.max(1) {
            let page = self.rng.below(pages);
            let op = AppOp {
                op: IoOp::Read,
                pattern: AccessPattern::Random,
                offset: self.log_region + page * u64::from(self.cfg.read_size),
                len: self.cfg.read_size,
                token,
            };
            if first.is_none() {
                first = Some(op);
            } else {
                // Remaining reads follow the commit push, so they pop
                // before it (LIFO), in between the first read and the
                // commit.
                self.clients[ci].cont.push(op);
            }
        }
        first.expect("at least one read per txn")
    }
}

impl AppEngine for OltpEngine {
    fn next_op(&mut self, now: SimTime) -> AppPoll {
        match poll_clients(&self.clients, now) {
            Ok(ci) => {
                let op = match self.clients[ci].cont.pop() {
                    Some(op) => op,
                    None => self.begin_txn(ci),
                };
                self.clients[ci].in_flight = true;
                self.counts.issue();
                AppPoll::Op(op)
            }
            Err(poll) => poll,
        }
    }

    fn on_complete(&mut self, token: u64, ok: bool, now: SimTime) {
        self.counts.finish(ok);
        client_complete(&mut self.clients, token, ok, now, self.cfg.think);
    }

    fn window(&self) -> u32 {
        self.cfg.window
    }
    fn outstanding(&self) -> u32 {
        self.counts.outstanding()
    }
    fn op_counts(&self) -> (u64, u64, u64) {
        self.counts.as_tuple()
    }
}

/// One simulated file in the file-server population.
#[derive(Debug, Clone, Copy)]
struct SimFile {
    /// Stable id; the physical base offset is a scatter of it.
    id: u64,
    /// Current size in bytes.
    size: u32,
}

/// Filebench-style file-server engine. See the module docs.
#[derive(Debug)]
pub struct FileServerEngine {
    cfg: FileServerConfig,
    rng: DetRng,
    clients: Vec<Client>,
    /// Live population, mutated by create/append/delete.
    files: Vec<SimFile>,
    /// Next file id to mint.
    next_id: u64,
    /// Slots the scattered base offsets index into.
    slots: u64,
    counts: OpCounts,
}

/// Per-file address-space slot (files never grow past this, so
/// scattered base offsets cannot produce unbounded lengths).
const FILE_SLOT: u64 = 1 << 20;

impl FileServerEngine {
    /// Creates the engine with its initial file population.
    #[must_use]
    pub fn new(cfg: FileServerConfig, mut rng: DetRng, capacity_bytes: u64) -> Self {
        let slots = (capacity_bytes / FILE_SLOT).max(1);
        let mut files = Vec::with_capacity(cfg.files as usize);
        for id in 0..u64::from(cfg.files) {
            // 4 KiB – 128 KiB initial sizes.
            let size = 4096 * rng.range(1, 33) as u32;
            files.push(SimFile { id, size });
        }
        let clients = (0..cfg.window).map(|_| Client::new()).collect();
        FileServerEngine {
            next_id: u64::from(cfg.files),
            cfg,
            rng,
            clients,
            files,
            slots,
            counts: OpCounts::default(),
        }
    }

    fn base(&self, id: u64) -> u64 {
        scatter(id, self.slots) * FILE_SLOT
    }

    /// One whole-file or metadata operation; the population mutates at
    /// issue time (deterministic regardless of completion order).
    fn begin_op(&mut self, ci: usize) -> AppOp {
        let token = ci as u64;
        let kind = self.rng.below(100);
        // 10 % create, 50 % read, 30 % append, 10 % delete — but the
        // population never shrinks below half its initial size (delete
        // degrades to create), and reads/appends/deletes on an empty
        // population degrade to creates.
        let floor = u64::from(self.cfg.files / 2);
        if kind < 10 || self.files.is_empty() || (kind >= 90 && (self.files.len() as u64) < floor) {
            let id = self.next_id;
            self.next_id += 1;
            let size = 4096 * self.rng.range(1, 33) as u32;
            self.files.push(SimFile { id, size });
            return AppOp {
                op: IoOp::Write,
                pattern: AccessPattern::Sequential,
                offset: self.base(id),
                len: size,
                token,
            };
        }
        let idx = self.rng.below(self.files.len() as u64) as usize;
        if kind < 60 {
            let f = self.files[idx];
            AppOp {
                op: IoOp::Read,
                pattern: AccessPattern::Sequential,
                offset: self.base(f.id),
                len: f.size,
                token,
            }
        } else if kind < 90 {
            let append = self.cfg.append_size;
            let f = &mut self.files[idx];
            let at = u64::from(f.size);
            f.size = (f.size.saturating_add(append)).min((FILE_SLOT - 1) as u32);
            let base = self.base(self.files[idx].id);
            AppOp {
                op: IoOp::Write,
                pattern: AccessPattern::Sequential,
                offset: base + at.min(FILE_SLOT - u64::from(append.max(1))),
                len: append,
                token,
            }
        } else {
            let f = self.files.swap_remove(idx);
            // Deletion is a metadata update: one small random write.
            AppOp {
                op: IoOp::Write,
                pattern: AccessPattern::Random,
                offset: self.base(f.id),
                len: 4096,
                token,
            }
        }
    }
}

impl AppEngine for FileServerEngine {
    fn next_op(&mut self, now: SimTime) -> AppPoll {
        match poll_clients(&self.clients, now) {
            Ok(ci) => {
                let op = match self.clients[ci].cont.pop() {
                    Some(op) => op,
                    None => self.begin_op(ci),
                };
                self.clients[ci].in_flight = true;
                self.counts.issue();
                AppPoll::Op(op)
            }
            Err(poll) => poll,
        }
    }

    fn on_complete(&mut self, token: u64, ok: bool, now: SimTime) {
        self.counts.finish(ok);
        client_complete(&mut self.clients, token, ok, now, self.cfg.think);
    }

    fn window(&self) -> u32 {
        self.cfg.window
    }
    fn outstanding(&self) -> u32 {
        self.counts.outstanding()
    }
    fn op_counts(&self) -> (u64, u64, u64) {
        self.counts.as_tuple()
    }
}

/// Scan/checkpoint phase of the ML-ingest engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IngestMode {
    /// Streaming sequential reads, `window` deep.
    Scan,
    /// Checkpoint due: no new reads; waiting for in-flight reads to
    /// drain (the barrier).
    Drain,
    /// Writing the checkpoint, one serial write at a time.
    Checkpoint {
        /// Writes left in this checkpoint.
        remaining: u32,
    },
}

/// ML-ingest scan engine. See the module docs.
#[derive(Debug)]
pub struct MlIngestEngine {
    cfg: MlIngestConfig,
    mode: IngestMode,
    /// Next scan offset (wraps within the scan region).
    next_offset: u64,
    /// Scan region size (capacity minus the checkpoint region).
    scan_bytes: u64,
    /// Next checkpoint write offset (sequential in its own region).
    cp_offset: u64,
    /// Base of the checkpoint region (top of the address space).
    cp_base: u64,
    /// Checkpoint region size.
    cp_bytes: u64,
    /// Scan chunks issued since the last checkpoint.
    chunks_since_cp: u32,
    counts: OpCounts,
}

impl MlIngestEngine {
    /// Creates the engine over a device of `capacity_bytes`.
    #[must_use]
    pub fn new(cfg: MlIngestConfig, capacity_bytes: u64) -> Self {
        let cp_bytes = (capacity_bytes / 16).max(u64::from(cfg.checkpoint_size.max(1)));
        let scan_bytes = capacity_bytes
            .saturating_sub(cp_bytes)
            .max(u64::from(cfg.read_size.max(1)));
        MlIngestEngine {
            mode: IngestMode::Scan,
            next_offset: 0,
            scan_bytes,
            cp_offset: 0,
            cp_base: scan_bytes,
            cp_bytes,
            chunks_since_cp: 0,
            cfg,
            counts: OpCounts::default(),
        }
    }
}

impl AppEngine for MlIngestEngine {
    fn next_op(&mut self, _now: SimTime) -> AppPoll {
        loop {
            match self.mode {
                IngestMode::Scan => {
                    if self.chunks_since_cp >= self.cfg.checkpoint_every {
                        self.mode = IngestMode::Drain;
                        continue;
                    }
                    let offset = self.next_offset;
                    self.next_offset =
                        (self.next_offset + u64::from(self.cfg.read_size)) % self.scan_bytes;
                    self.chunks_since_cp += 1;
                    self.counts.issue();
                    return AppPoll::Op(AppOp {
                        op: IoOp::Read,
                        pattern: AccessPattern::Sequential,
                        offset,
                        len: self.cfg.read_size,
                        token: 0,
                    });
                }
                IngestMode::Drain => {
                    if self.counts.outstanding() > 0 {
                        return AppPoll::Blocked;
                    }
                    self.mode = IngestMode::Checkpoint {
                        remaining: self.cfg.checkpoint_writes.max(1),
                    };
                }
                IngestMode::Checkpoint { remaining } => {
                    if self.counts.outstanding() > 0 {
                        // Serial checkpoint writes: each barriers on
                        // the previous one.
                        return AppPoll::Blocked;
                    }
                    if remaining == 0 {
                        self.chunks_since_cp = 0;
                        self.mode = IngestMode::Scan;
                        continue;
                    }
                    let offset = self.cp_base + self.cp_offset;
                    self.cp_offset =
                        (self.cp_offset + u64::from(self.cfg.checkpoint_size)) % self.cp_bytes;
                    self.mode = IngestMode::Checkpoint {
                        remaining: remaining - 1,
                    };
                    self.counts.issue();
                    return AppPoll::Op(AppOp {
                        op: IoOp::Write,
                        pattern: AccessPattern::Sequential,
                        offset,
                        len: self.cfg.checkpoint_size,
                        token: 1,
                    });
                }
            }
        }
    }

    fn on_complete(&mut self, _token: u64, ok: bool, _now: SimTime) {
        self.counts.finish(ok);
    }

    fn window(&self) -> u32 {
        self.cfg.window
    }
    fn outstanding(&self) -> u32 {
        self.counts.outstanding()
    }
    fn op_counts(&self) -> (u64, u64, u64) {
        self.counts.as_tuple()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-draw formula [`ZipfRanks`] hoists, verbatim.
    fn zipf_rank(rng: &mut DetRng, n: u64, theta: f64) -> u64 {
        let u = rng.f64();
        if theta <= f64::EPSILON {
            return ((u * n as f64) as u64).min(n - 1);
        }
        let s = 1.0 - theta;
        let rank = if (s.abs()) < 1e-9 {
            // theta == 1: the CDF is logarithmic.
            ((n as f64).powf(u) - 1.0).max(0.0)
        } else {
            (((n as f64).powf(s) - 1.0) * u + 1.0).powf(1.0 / s) - 1.0
        };
        (rank as u64).min(n - 1)
    }

    #[test]
    fn hoisted_zipf_ranks_match_the_per_draw_formula() {
        for seed in 0..64u64 {
            for (n, theta) in [
                (1u64, 0.99),
                (7, 0.0),
                (1000, 0.5),
                (1 << 18, 0.99),
                (1 << 18, 1.0),
                (262_144, 1.2),
                (u64::from(u32::MAX), 0.8),
            ] {
                let zipf = ZipfRanks::new(n, theta);
                let (mut a, mut b) = (DetRng::new(seed), DetRng::new(seed));
                for _ in 0..200 {
                    assert_eq!(zipf.sample(&mut a), zipf_rank(&mut b, n, theta));
                }
            }
        }
    }

    fn drive(spec: &AppModelSpec, steps: u32, seed: u64) -> Vec<AppOp> {
        let mut e = spec.build(DetRng::new(seed), 1 << 30);
        let mut now = SimTime::ZERO;
        let mut pending: Vec<u64> = Vec::new();
        let mut ops = Vec::new();
        let window = e.window();
        for _ in 0..steps {
            while e.outstanding() < window {
                match e.next_op(now) {
                    AppPoll::Op(op) => {
                        ops.push(op);
                        pending.push(op.token);
                    }
                    AppPoll::WaitUntil(t) => {
                        assert!(t > now, "WaitUntil must be in the future");
                        now = t;
                    }
                    AppPoll::Blocked => {
                        assert!(
                            e.outstanding() > 0,
                            "Blocked with nothing outstanding deadlocks"
                        );
                        break;
                    }
                }
            }
            if let Some(tok) = pending.pop() {
                now += SimDuration::from_micros(70);
                e.on_complete(tok, true, now);
            }
        }
        ops
    }

    fn all_specs() -> Vec<AppModelSpec> {
        vec![
            AppModelSpec::Kv(KvConfig::default()),
            AppModelSpec::Oltp(OltpConfig::default()),
            AppModelSpec::FileServer(FileServerConfig::default()),
            AppModelSpec::MlIngest(MlIngestConfig::default()),
        ]
    }

    #[test]
    fn engines_are_deterministic_per_seed() {
        for spec in all_specs() {
            let a = drive(&spec, 300, 7);
            let b = drive(&spec, 300, 7);
            assert_eq!(a, b, "{} not deterministic", spec.kind());
            assert!(!a.is_empty());
        }
    }

    #[test]
    fn kv_mixes_reads_and_writeback_writes() {
        let spec = AppModelSpec::Kv(KvConfig {
            read_fraction: 0.5,
            ..KvConfig::default()
        });
        let ops = drive(&spec, 500, 3);
        let writes = ops.iter().filter(|o| o.op == IoOp::Write).count();
        assert!(writes > 50, "RMW writes missing: {writes}");
        assert!(writes < ops.len(), "reads missing");
    }

    #[test]
    fn oltp_commit_follows_its_reads() {
        let spec = AppModelSpec::Oltp(OltpConfig {
            window: 1,
            reads_per_txn: 3,
            ..OltpConfig::default()
        });
        let ops = drive(&spec, 400, 5);
        // With one client the op stream is strictly txn-ordered:
        // 3 reads then 1 sequential log write, repeating.
        for chunk in ops.chunks_exact(4) {
            assert!(chunk[..3].iter().all(|o| o.op == IoOp::Read));
            assert_eq!(chunk[3].op, IoOp::Write);
            assert_eq!(chunk[3].pattern, AccessPattern::Sequential);
        }
        // Log writes advance sequentially.
        let logs: Vec<u64> = ops
            .iter()
            .filter(|o| o.op == IoOp::Write)
            .map(|o| o.offset)
            .collect();
        for w in logs.windows(2) {
            assert!(w[1] > w[0] || w[1] == 0, "log not sequential: {w:?}");
        }
    }

    #[test]
    fn fileserver_population_stays_bounded() {
        let spec = AppModelSpec::FileServer(FileServerConfig {
            files: 32,
            ..FileServerConfig::default()
        });
        let mut e = match spec.build(DetRng::new(11), 1 << 30) {
            AppModel::FileServer(e) => e,
            _ => unreachable!(),
        };
        let mut now = SimTime::ZERO;
        for _ in 0..2_000 {
            match e.next_op(now) {
                AppPoll::Op(op) => {
                    now += SimDuration::from_micros(40);
                    e.on_complete(op.token, true, now);
                }
                AppPoll::WaitUntil(t) => now = t,
                AppPoll::Blocked => unreachable!("serial drive never blocks"),
            }
            assert!(e.files.len() >= 16, "population collapsed");
        }
    }

    #[test]
    fn mlscan_checkpoints_barrier_the_scan() {
        let spec = AppModelSpec::MlIngest(MlIngestConfig {
            window: 4,
            checkpoint_every: 8,
            checkpoint_writes: 2,
            ..MlIngestConfig::default()
        });
        let ops = drive(&spec, 200, 1);
        let first_write = ops.iter().position(|o| o.op == IoOp::Write).expect("cp");
        // Exactly checkpoint_every reads precede the first checkpoint.
        assert_eq!(first_write, 8);
        assert_eq!(ops[first_write + 1].op, IoOp::Write);
        assert_eq!(ops[first_write + 2].op, IoOp::Read, "scan resumes");
    }

    #[test]
    fn conservation_after_drain() {
        for spec in all_specs() {
            let mut e = spec.build(DetRng::new(9), 1 << 30);
            let mut now = SimTime::ZERO;
            let mut pending = Vec::new();
            for step in 0..1_000u64 {
                if e.outstanding() < e.window() {
                    match e.next_op(now) {
                        AppPoll::Op(op) => pending.push(op.token),
                        AppPoll::WaitUntil(t) => now = t,
                        AppPoll::Blocked => {}
                    }
                }
                // Fail every 7th completion; complete out of order.
                if pending.len() > 2 || (step % 3 == 0 && !pending.is_empty()) {
                    let tok = pending.remove(step as usize % pending.len());
                    now += SimDuration::from_micros(25);
                    e.on_complete(tok, step % 7 != 0, now);
                }
            }
            for (i, tok) in pending.drain(..).enumerate() {
                e.on_complete(tok, i % 2 == 0, now);
            }
            let (issued, completed, failed) = e.op_counts();
            assert_eq!(issued, completed + failed, "{} leaked ops", spec.kind());
            assert_eq!(e.outstanding(), 0);
        }
    }
}
