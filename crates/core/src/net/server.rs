//! [`ServerCore`]: the shared multiplexed RPC server engine behind the
//! master and worker servers.
//!
//! The first networked implementation spawned one OS thread per accepted
//! connection and served its frames sequentially. This core replaces that
//! with:
//!
//! - **Bounded accept** — at most [`ServerConfig::max_connections`]
//!   concurrent connections; surplus connects are refused (closed) instead
//!   of spawning unbounded threads.
//! - **A demux reader per connection** feeding a **shared dispatch pool**
//!   of [`ServerConfig::dispatch_threads`] threads, so many requests from
//!   one connection execute concurrently and a slow request does not
//!   head-of-line-block the rest of its connection.
//! - **Class-based pool admission** to keep nested RPCs deadlock-free:
//!   jobs are classed by how many further RPC levels serving them can
//!   require (pipeline forwards). With `T` threads and a reserve
//!   `R = max(1, T/4)`, class-1 jobs are admitted only while
//!   `active₁+active₂ < T−R` and class-2 jobs only while `active₂ < T−2R`,
//!   so leaf work (class 0) always finds a thread somewhere and every
//!   blocked forward eventually completes bottom-up.
//! - **One wake-up per job** — an enqueue wakes one idle thread, and only
//!   for an admissible job; a thread that finishes a job releases its
//!   slot and takes the next admissible job itself, under the same lock;
//!   whoever takes a job wakes one more thread only if another admissible
//!   job is still queued. Idle threads are never woken just to find
//!   nothing to do (only shutdown wakes them all).
//! - **Per-connection in-flight caps** — a reader stops pulling frames
//!   once [`ServerConfig::max_inflight_per_conn`] of its requests are
//!   outstanding, pushing backpressure into the client's TCP window
//!   instead of the dispatch queue.
//! - **Idle-connection reaping** — connections with no in-flight requests
//!   and no traffic for [`ServerConfig::idle_conn_ms`] are severed, so
//!   silent clients cannot pin server resources forever.
//!
//! Connection tracking (`track`/`sever`) lives here once, shared by both
//! servers, instead of being copy-pasted per server.

use std::collections::{HashMap, VecDeque};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use octopus_common::{log_warn, FsError, Result, ServerConfig};

use super::faults;
use super::frame::read_mux_frame;
use super::proto::FramePayload;

/// Maps one received request payload (possibly trace-enveloped) to its
/// response payload. Runs on a dispatch-pool thread.
pub type Handler = Arc<dyn Fn(bytes::Bytes) -> FramePayload + Send + Sync>;

/// Returns the dispatch class (0–2) of an encoded request body (the bytes
/// after any trace envelope): the number of further nested RPC levels
/// serving it can require, capped at 2.
pub type Classifier = Arc<dyn Fn(&[u8]) -> usize + Send + Sync>;

/// Dispatch classes tracked by the pool.
const CLASSES: usize = 3;

/// One tracked connection.
struct Conn {
    /// Spare handle for severing without waiting on the writer lock.
    stream: TcpStream,
    /// Serializes response frames from concurrent pool threads.
    writer: Mutex<TcpStream>,
    /// Requests read off this connection and not yet responded to.
    inflight: Mutex<u32>,
    inflight_cv: Condvar,
    /// Last frame read or response written (drives idle reaping).
    last_active: Mutex<Instant>,
}

impl Conn {
    fn touch(&self) {
        *self.last_active.lock().unwrap() = Instant::now();
    }

    fn sever(&self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

/// One dispatched request.
struct Job {
    conn_id: u64,
    conn: Arc<Conn>,
    request_id: u64,
    frame: bytes::Bytes,
    class: usize,
}

struct PoolState {
    queue: VecDeque<Job>,
    active: [usize; CLASSES],
    stopped: bool,
}

struct Shared {
    cfg: ServerConfig,
    server_addr: SocketAddr,
    conns: Mutex<HashMap<u64, Arc<Conn>>>,
    next_conn: AtomicU64,
    pool: Mutex<PoolState>,
    pool_cv: Condvar,
    shutdown: AtomicBool,
    handler: Handler,
    classify: Classifier,
}

impl Shared {
    /// Whether a job of `class` may start given the running mix: reserve
    /// `R` threads from class-1+ and `2R` from class-2, so lower classes
    /// always retain capacity and nested forwards cannot mutually starve.
    fn admissible(&self, class: usize, active: &[usize; CLASSES]) -> bool {
        let t = self.cfg.dispatch_threads.max(1) as usize;
        let r = (t / 4).max(1);
        match class {
            0 => true,
            1 => active[1] + active[2] < t.saturating_sub(r).max(1),
            _ => active[2] < t.saturating_sub(2 * r).max(1),
        }
    }

    /// Removes the first admissible job from the queue and counts it
    /// active. When another admissible job is still queued, wakes one
    /// idle thread for it: a completion can make two jobs admissible (a
    /// freed class-2 slot admits one class-1 and one class-2 job), and
    /// the taker is the only one who knows.
    fn take_job(&self, pool: &mut PoolState) -> Option<Job> {
        let i = pool.queue.iter().position(|j| self.admissible(j.class, &pool.active))?;
        let job = pool.queue.remove(i).expect("job index valid under lock");
        pool.active[job.class] += 1;
        if pool.queue.iter().skip(i).any(|j| self.admissible(j.class, &pool.active)) {
            self.pool_cv.notify_one();
        }
        Some(job)
    }

    fn untrack(&self, conn_id: u64) {
        self.conns.lock().unwrap().remove(&conn_id);
    }

    fn sever_all(&self) {
        for conn in self.conns.lock().unwrap().values() {
            conn.sever();
        }
    }
}

/// A running multiplexed RPC server engine.
pub struct ServerCore {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    reaper: Option<JoinHandle<()>>,
}

impl ServerCore {
    /// Binds, starts the accept loop, the dispatch pool, and the idle
    /// reaper. `name` prefixes thread names.
    pub fn spawn(
        bind: impl ToSocketAddrs,
        name: &str,
        cfg: ServerConfig,
        classify: Classifier,
        handler: Handler,
    ) -> Result<Self> {
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            cfg,
            server_addr: addr,
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(1),
            pool: Mutex::new(PoolState {
                queue: VecDeque::new(),
                active: [0; CLASSES],
                stopped: false,
            }),
            pool_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            handler,
            classify,
        });
        for i in 0..shared.cfg.dispatch_threads.max(1) {
            let s = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("{name}-pool-{i}"))
                .spawn(move || pool_loop(s))
                .map_err(|e| FsError::Io(e.to_string()))?;
        }
        let accept = {
            let s = Arc::clone(&shared);
            let name = name.to_string();
            std::thread::Builder::new()
                .name(format!("{name}-accept"))
                .spawn(move || accept_loop(listener, s, name))
                .map_err(|e| FsError::Io(e.to_string()))?
        };
        let reaper = {
            let s = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("{name}-reaper"))
                .spawn(move || reaper_loop(s))
                .map_err(|e| FsError::Io(e.to_string()))?
        };
        Ok(Self { addr, shared, accept: Some(accept), reaper: Some(reaper) })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Currently tracked connections (tests, diagnostics).
    pub fn conn_count(&self) -> usize {
        self.shared.conns.lock().unwrap().len()
    }

    /// Stops the server: the accept loop and reaper exit, every tracked
    /// connection is severed (in-flight callers fail fast instead of
    /// hanging), and the dispatch pool drains out.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.reaper.take() {
            let _ = h.join();
        }
        self.shared.sever_all();
        let mut pool = self.shared.pool.lock().unwrap();
        pool.stopped = true;
        pool.queue.clear();
        drop(pool);
        self.shared.pool_cv.notify_all();
        // Pool threads are not joined: one may be blocked inside a nested
        // RPC bounded by its own deadlines; it observes `stopped` and
        // exits on its own.
    }
}

impl Drop for ServerCore {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>, name: String) {
    while !shared.shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                // Bounded accept: refuse (close) connections over the cap
                // instead of growing without bound.
                if shared.conns.lock().unwrap().len() >= shared.cfg.max_connections.max(1) as usize
                {
                    log_warn!(
                        target: "net::server",
                        "msg=\"connection limit reached, refusing\" limit={}",
                        shared.cfg.max_connections
                    );
                    let _ = stream.shutdown(Shutdown::Both);
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let (Ok(writer), Ok(spare)) = (stream.try_clone(), stream.try_clone()) else {
                    continue;
                };
                let conn = Arc::new(Conn {
                    stream: spare,
                    writer: Mutex::new(writer),
                    inflight: Mutex::new(0),
                    inflight_cv: Condvar::new(),
                    last_active: Mutex::new(Instant::now()),
                });
                let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
                shared.conns.lock().unwrap().insert(conn_id, Arc::clone(&conn));
                let s = Arc::clone(&shared);
                let spawned = std::thread::Builder::new()
                    .name(format!("{name}-conn"))
                    .spawn(move || conn_reader(stream, conn_id, conn, s));
                if spawned.is_err() {
                    shared.untrack(conn_id);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
    }
}

/// Reads frames off one connection and enqueues them for dispatch,
/// honoring the per-connection in-flight cap.
fn conn_reader(mut stream: TcpStream, conn_id: u64, conn: Arc<Conn>, shared: Arc<Shared>) {
    let _ = stream.set_nonblocking(false);
    let cap = shared.cfg.max_inflight_per_conn.max(1);
    while let Ok(Some(frame)) = read_mux_frame(&mut stream) {
        conn.touch();
        // Backpressure: stop pulling frames while this connection has a
        // full window in flight. The client's sends then queue in TCP.
        {
            let mut n = conn.inflight.lock().unwrap();
            while *n >= cap && !shared.shutdown.load(Ordering::Acquire) {
                let (guard, _) =
                    conn.inflight_cv.wait_timeout(n, Duration::from_millis(100)).unwrap();
                n = guard;
            }
            if shared.shutdown.load(Ordering::Acquire) {
                break;
            }
            *n += 1;
        }
        let (request_id, payload) = frame;
        let frame = bytes::Bytes::from(payload);
        // The trace envelope (if any) is 19 bytes; classification looks at
        // the request body behind it.
        let body_at = if frame.first() == Some(&octopus_common::trace::ENVELOPE_MAGIC) {
            19.min(frame.len())
        } else {
            0
        };
        let class = (shared.classify)(&frame[body_at..]).min(CLASSES - 1);
        let job = Job { conn_id, conn: Arc::clone(&conn), request_id, frame, class };
        let mut pool = shared.pool.lock().unwrap();
        if pool.stopped {
            break;
        }
        // Wake one idle thread, and only for a job that may start now: an
        // inadmissible job is taken by the thread whose completion frees
        // its slot.
        let wake = shared.admissible(class, &pool.active);
        pool.queue.push_back(job);
        drop(pool);
        if wake {
            shared.pool_cv.notify_one();
        }
    }
    shared.untrack(conn_id);
    conn.sever();
}

/// One dispatch-pool thread: take the first admissible job, run the
/// handler, write the response, release the connection window, and take
/// the next job under the same lock that releases the class slot. A
/// thread parks only when no queued job may start.
fn pool_loop(shared: Arc<Shared>) {
    let cap = shared.cfg.max_inflight_per_conn.max(1);
    let mut pool = shared.pool.lock().unwrap();
    loop {
        let job = loop {
            if pool.stopped {
                return;
            }
            if let Some(job) = shared.take_job(&mut pool) {
                break job;
            }
            pool = shared.pool_cv.wait(pool).unwrap();
        };
        drop(pool);

        let response = (shared.handler)(job.frame);
        let alive = {
            let mut w = job.conn.writer.lock().unwrap();
            faults::write_response(shared.server_addr, &mut w, job.request_id, &response)
        };
        job.conn.touch();
        if !matches!(alive, Ok(true)) {
            // The connection was consumed (fault) or the peer is gone;
            // sever so the reader stops feeding it.
            job.conn.sever();
            shared.untrack(job.conn_id);
        }
        {
            // The reader is the only waiter, and it parks only at the cap.
            let mut n = job.conn.inflight.lock().unwrap();
            if *n >= cap {
                job.conn.inflight_cv.notify_one();
            }
            *n = n.saturating_sub(1);
        }
        pool = shared.pool.lock().unwrap();
        pool.active[job.class] -= 1;
    }
}

/// Severs connections that have been idle (no in-flight requests, no
/// traffic) past the configured horizon.
fn reaper_loop(shared: Arc<Shared>) {
    let idle = Duration::from_millis(shared.cfg.idle_conn_ms.max(1));
    let interval = Duration::from_millis(shared.cfg.reap_interval_ms.max(1));
    while !shared.shutdown.load(Ordering::Acquire) {
        // Sleep the interval in short slices so shutdown joins promptly.
        let wake = Instant::now() + interval;
        while Instant::now() < wake && !shared.shutdown.load(Ordering::Acquire) {
            std::thread::sleep((wake - Instant::now()).min(Duration::from_millis(25)));
        }
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        let victims: Vec<Arc<Conn>> = {
            let conns = shared.conns.lock().unwrap();
            conns
                .values()
                .filter(|c| {
                    *c.inflight.lock().unwrap() == 0
                        && c.last_active.lock().unwrap().elapsed() > idle
                })
                .map(Arc::clone)
                .collect()
        };
        for conn in victims {
            // Severing wakes the reader, which untracks the connection.
            conn.sever();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::frame::write_mux_frame;
    use std::sync::Barrier;

    /// A test server whose requests are `[class, gate]`: the handler of a
    /// request with gate `g < gates.len()` meets the test at `entered`,
    /// then blocks until the test meets it at `gates[g]`. Every response
    /// echoes the gate byte.
    fn gated_server(
        cfg: ServerConfig,
        entered: Arc<Barrier>,
        gates: Arc<Vec<Barrier>>,
    ) -> ServerCore {
        let handler: Handler = Arc::new(move |frame: bytes::Bytes| {
            let gate = frame[1] as usize;
            if let Some(g) = gates.get(gate) {
                entered.wait();
                g.wait();
            }
            FramePayload::small(vec![frame[1]])
        });
        ServerCore::spawn("127.0.0.1:0", "test", cfg, Arc::new(|body| body[0] as usize), handler)
            .unwrap()
    }

    fn connect(server: &ServerCore) -> TcpStream {
        let s = TcpStream::connect(server.addr()).unwrap();
        // A lost wake-up shows as a read timeout instead of a hung test.
        s.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
        s
    }

    fn send(s: &mut TcpStream, id: u64, class: u8, gate: u8) {
        write_mux_frame(s, id, &[&[class, gate]]).unwrap();
    }

    fn recv(s: &mut TcpStream) -> (u64, u8) {
        let (id, payload) = read_mux_frame(s).unwrap().expect("response");
        (id, payload[0])
    }

    /// Waits until `n` jobs sit in the dispatch queue.
    fn await_queued(server: &ServerCore, n: usize) {
        while server.shared.pool.lock().unwrap().queue.len() < n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn freed_class_slot_admits_the_queued_job() {
        // 4 threads: reserve 1, so two class-2 jobs fill the class-2 cap.
        let cfg = ServerConfig { dispatch_threads: 4, ..ServerConfig::fast_test() };
        let entered = Arc::new(Barrier::new(2));
        let gates = Arc::new(vec![Barrier::new(2), Barrier::new(2)]);
        let server = gated_server(cfg, Arc::clone(&entered), Arc::clone(&gates));
        let mut s = connect(&server);
        send(&mut s, 1, 2, 0);
        entered.wait();
        send(&mut s, 2, 2, 1);
        entered.wait();
        // A third class-2 request is inadmissible and waits in the queue.
        send(&mut s, 3, 2, 9);
        await_queued(&server, 1);
        // Releasing one blocked request frees a class-2 slot; the queued
        // request must run with no further enqueue to wake a thread.
        gates[0].wait();
        let mut done = vec![recv(&mut s), recv(&mut s)];
        done.sort();
        assert_eq!(done, vec![(1, 0), (3, 9)]);
        gates[1].wait();
        assert_eq!(recv(&mut s), (2, 1));
    }

    #[test]
    fn one_thread_serves_a_full_connection_window() {
        let cfg = ServerConfig {
            dispatch_threads: 1,
            max_inflight_per_conn: 32,
            ..ServerConfig::fast_test()
        };
        let entered = Arc::new(Barrier::new(2));
        let gates = Arc::new(vec![Barrier::new(2)]);
        let server = gated_server(cfg, Arc::clone(&entered), Arc::clone(&gates));
        let mut s = connect(&server);
        // The first request holds the only thread until the other 31 are
        // queued; the thread must then drain them all on its own.
        send(&mut s, 0, 0, 0);
        entered.wait();
        for id in 1..32 {
            send(&mut s, id, 0, 9);
        }
        await_queued(&server, 31);
        gates[0].wait();
        let mut ids: Vec<u64> = (0..32).map(|_| recv(&mut s).0).collect();
        ids.sort();
        assert_eq!(ids, (0..32).collect::<Vec<u64>>());
    }
}
