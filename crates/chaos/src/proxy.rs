//! A frame-aware fault-injecting TCP proxy.
//!
//! The wire protocol frames every message as `[payload_len u32 LE]
//! [crc u32 LE] [payload]` (the payload being `req_id` plus the encoded
//! message), so the proxy can reassemble the byte stream into frames and
//! inject faults at **frame granularity** — the unit at which the protocol
//! itself detects damage:
//!
//! * **corrupt** — flip one payload byte; the receiver's checksum rejects
//!   the frame and the connection dies a protocol death.
//! * **drop** — swallow a frame and sever the connection. (On a stream
//!   transport a silently missing frame desynchronizes request/response
//!   pairing forever; severing models what a real middlebox drop does to
//!   the session — the peer sees EOF and reconnects.)
//! * **duplicate** — forward a frame twice, exercising the receiver's
//!   request-id matching.
//! * **delay** — sleep before forwarding each frame while set.
//! * **partition** — refuse new connections and sever live ones until
//!   healed.
//! * **retarget** — point the proxy at a different backend (a floating
//!   virtual IP moving to a promoted successor).
//!
//! All controls are `&self` and atomic, so an [`std::sync::Arc`]'d proxy
//! can be driven from a fault-schedule thread while terminals connect
//! through it.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

ifdb_storage::counters! {
    /// Counters of what the proxy has done to the traffic.
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    pub struct ProxyStats;
    struct Counters: Acquire {
        /// Frames forwarded unharmed.
        frames_forwarded,
        /// Frames corrupted (one payload byte flipped).
        frames_corrupted,
        /// Frames dropped (and the carrying connection severed).
        frames_dropped,
        /// Frames duplicated.
        frames_duplicated,
        /// Connections accepted and spliced to the backend.
        connections,
        /// Connection attempts refused while partitioned.
        refused,
    }
}

struct ProxyState {
    target: Mutex<String>,
    partitioned: AtomicBool,
    delay_ms: AtomicU64,
    corrupt_next: AtomicU64,
    drop_next: AtomicU64,
    duplicate_next: AtomicU64,
    /// Clones of every live spliced stream, for severing.
    live: Mutex<Vec<TcpStream>>,
    stop: AtomicBool,
    counters: Counters,
}

impl ProxyState {
    /// Consumes one unit of a fault budget; `true` when the fault applies.
    fn take(budget: &AtomicU64) -> bool {
        budget
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
            .is_ok()
    }

    fn sever_all(&self) {
        let mut live = self.live.lock().expect("proxy live list");
        for stream in live.drain(..) {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

/// The running proxy; see the module docs.
pub struct FaultProxy {
    addr: String,
    state: Arc<ProxyState>,
    accept_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl FaultProxy {
    /// Starts a proxy on an ephemeral local port, forwarding to `target`.
    pub fn start(target: &str) -> std::io::Result<FaultProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?.to_string();
        let state = Arc::new(ProxyState {
            target: Mutex::new(target.to_string()),
            partitioned: AtomicBool::new(false),
            delay_ms: AtomicU64::new(0),
            corrupt_next: AtomicU64::new(0),
            drop_next: AtomicU64::new(0),
            duplicate_next: AtomicU64::new(0),
            live: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
            counters: Counters::default(),
        });
        let accept_state = state.clone();
        let accept_thread = std::thread::spawn(move || accept_loop(listener, accept_state));
        Ok(FaultProxy {
            addr,
            state,
            accept_thread: Mutex::new(Some(accept_thread)),
        })
    }

    /// The address clients should connect to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Repoints the proxy at a different backend. Live connections keep
    /// their old backend until severed; new connections go to `target`.
    pub fn retarget(&self, target: &str) {
        *self.state.target.lock().expect("proxy target") = target.to_string();
    }

    /// Starts or heals a partition. Starting severs every live connection.
    pub fn set_partitioned(&self, on: bool) {
        self.state.partitioned.store(on, Ordering::Release);
        if on {
            self.state.sever_all();
        }
    }

    /// Severs every live connection without partitioning (peers can
    /// reconnect immediately).
    pub fn sever(&self) {
        self.state.sever_all();
    }

    /// Delays every forwarded frame by `millis` until cleared with 0.
    pub fn set_delay_ms(&self, millis: u64) {
        self.state.delay_ms.store(millis, Ordering::Release);
    }

    /// Corrupts the next `n` frames (one flipped payload byte each).
    pub fn corrupt_frames(&self, n: u64) {
        self.state.corrupt_next.fetch_add(n, Ordering::AcqRel);
    }

    /// Drops the next `n` frames, severing their connections.
    pub fn drop_frames(&self, n: u64) {
        self.state.drop_next.fetch_add(n, Ordering::AcqRel);
    }

    /// Duplicates the next `n` frames.
    pub fn duplicate_frames(&self, n: u64) {
        self.state.duplicate_next.fetch_add(n, Ordering::AcqRel);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ProxyStats {
        self.state.counters.load()
    }

    /// Stops the proxy and severs everything.
    pub fn shutdown(&self) {
        self.state.stop.store(true, Ordering::Release);
        self.state.sever_all();
        if let Some(t) = self.accept_thread.lock().expect("proxy thread").take() {
            let _ = t.join();
        }
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, state: Arc<ProxyState>) {
    while !state.stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((client, _)) => {
                if state.partitioned.load(Ordering::Acquire) {
                    state.counters.refused.fetch_add(1, Ordering::AcqRel);
                    drop(client);
                    continue;
                }
                let target = state.target.lock().expect("proxy target").clone();
                let Ok(backend) = TcpStream::connect(&target) else {
                    drop(client);
                    continue;
                };
                state.counters.connections.fetch_add(1, Ordering::AcqRel);
                splice(client, backend, &state);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
    }
}

/// Wires `client` and `backend` together with one pump thread per
/// direction. Faults apply to both directions — at frame granularity the
/// interesting faults (corrupt, drop) are symmetric: losing a request and
/// losing its response are both "the write is now indeterminate".
fn splice(client: TcpStream, backend: TcpStream, state: &Arc<ProxyState>) {
    let _ = client.set_nodelay(true);
    let _ = backend.set_nodelay(true);
    let pairs = [
        (client.try_clone(), backend.try_clone()),
        (backend.try_clone(), client.try_clone()),
    ];
    {
        let mut live = state.live.lock().expect("proxy live list");
        live.push(client);
        live.push(backend);
    }
    for (src, dst) in pairs {
        let (Ok(src), Ok(dst)) = (src, dst) else {
            return;
        };
        let state = state.clone();
        std::thread::spawn(move || pump_frames(src, dst, state));
    }
}

/// Reassembles frames out of `src` and forwards them (modulo faults) to
/// `dst`. Returns when either side dies or the proxy stops.
fn pump_frames(mut src: TcpStream, mut dst: TcpStream, state: Arc<ProxyState>) {
    let _ = src.set_read_timeout(Some(Duration::from_millis(100)));
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    loop {
        if state.stop.load(Ordering::Acquire) || state.partitioned.load(Ordering::Acquire) {
            let _ = src.shutdown(Shutdown::Both);
            let _ = dst.shutdown(Shutdown::Both);
            return;
        }
        match src.read(&mut chunk) {
            Ok(0) => {
                // Clean EOF: flush any trailing partial frame as-is (the
                // receiver handles truncation) and mirror the close.
                let _ = dst.write_all(&buf);
                let _ = dst.shutdown(Shutdown::Both);
                return;
            }
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                while let Some(frame) = take_frame(&mut buf) {
                    if !forward_frame(frame, &mut src, &mut dst, &state) {
                        return;
                    }
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => {
                let _ = dst.shutdown(Shutdown::Both);
                return;
            }
        }
    }
}

/// Splits one complete frame (`8`-byte header plus payload) off the front
/// of `buf`, or `None` when the buffer holds only part of one.
fn take_frame(buf: &mut Vec<u8>) -> Option<Vec<u8>> {
    if buf.len() < 8 {
        return None;
    }
    let payload_len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    let total = 8 + payload_len;
    if buf.len() < total {
        return None;
    }
    let rest = buf.split_off(total);
    Some(std::mem::replace(buf, rest))
}

/// Applies the armed faults to one frame; `false` means the connection was
/// sacrificed and the pump must exit.
fn forward_frame(
    mut frame: Vec<u8>,
    src: &mut TcpStream,
    dst: &mut TcpStream,
    state: &ProxyState,
) -> bool {
    if ProxyState::take(&state.drop_next) {
        state.counters.frames_dropped.fetch_add(1, Ordering::AcqRel);
        let _ = src.shutdown(Shutdown::Both);
        let _ = dst.shutdown(Shutdown::Both);
        return false;
    }
    let delay = state.delay_ms.load(Ordering::Acquire);
    if delay > 0 {
        std::thread::sleep(Duration::from_millis(delay));
    }
    if ProxyState::take(&state.corrupt_next) {
        // Flip a payload byte (never the length field: mis-framing would
        // turn one bad frame into an unbounded read, which is a different
        // failure than the checksum rejection being exercised here).
        let idx = 8 + (frame.len() - 8) / 2;
        frame[idx] ^= 0x40;
        state
            .counters
            .frames_corrupted
            .fetch_add(1, Ordering::AcqRel);
    }
    let dup = ProxyState::take(&state.duplicate_next);
    if dup {
        state
            .counters
            .frames_duplicated
            .fetch_add(1, Ordering::AcqRel);
    }
    for _ in 0..if dup { 2 } else { 1 } {
        if dst.write_all(&frame).is_err() {
            let _ = src.shutdown(Shutdown::Both);
            return false;
        }
    }
    state
        .counters
        .frames_forwarded
        .fetch_add(1, Ordering::AcqRel);
    true
}
