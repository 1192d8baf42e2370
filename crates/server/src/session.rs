//! The session table: per-connection liveness and idle-timeout reaping.
//!
//! A session is one TCP connection after its `Hello`. It owns every
//! transaction it begins — the connection thread keeps those in the
//! session's own map, the only record of ownership — and when it ends
//! (clean disconnect, error, or reap) its open transactions are aborted so
//! no handle leaks engine resources or admission slots.
//!
//! # Reaping
//!
//! The reaper thread never aborts transactions itself: it only calls
//! `shutdown` on an idle session's socket. The connection thread's
//! blocking read then fails, and *that* thread runs the one cleanup path
//! (abort transactions, release admission slots, deregister). One owner
//! per session means no cleanup races between reaper and connection.

use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use ccdb_common::sync::Mutex;

/// One connection's server-side state.
struct SessionEntry {
    /// Last request time, for idle reaping.
    last_active: Instant,
    /// Socket handle the reaper can shut down (never read/written here).
    stream: TcpStream,
}

/// All live sessions.
pub struct SessionTable {
    sessions: Mutex<HashMap<u64, SessionEntry>>,
    next_id: AtomicU64,
    /// Sessions reaped for idleness (metrics).
    pub reaped: AtomicU64,
}

impl SessionTable {
    pub fn new() -> SessionTable {
        SessionTable {
            sessions: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            reaped: AtomicU64::new(0),
        }
    }

    /// Registers a session; returns its id.
    pub fn register(&self, stream: TcpStream) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.sessions.lock().insert(id, SessionEntry { last_active: Instant::now(), stream });
        id
    }

    /// Removes the session (no-op when already gone).
    pub fn deregister(&self, id: u64) {
        self.sessions.lock().remove(&id);
    }

    /// Marks activity (called on every request).
    pub fn touch(&self, id: u64) {
        if let Some(e) = self.sessions.lock().get_mut(&id) {
            e.last_active = Instant::now();
        }
    }

    /// Live session count.
    pub fn len(&self) -> usize {
        self.sessions.lock().len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Shuts down the socket of every session idle longer than
    /// `idle_timeout`; returns how many were shut down. The connection
    /// threads observe the dead socket and run their normal cleanup.
    pub fn reap_idle(&self, idle_timeout: std::time::Duration) -> usize {
        let now = Instant::now();
        let sessions = self.sessions.lock();
        let mut reaped = 0;
        for e in sessions.values() {
            if now.duration_since(e.last_active) >= idle_timeout {
                let _ = e.stream.shutdown(std::net::Shutdown::Both);
                reaped += 1;
            }
        }
        drop(sessions);
        if reaped > 0 {
            self.reaped.fetch_add(reaped as u64, Ordering::Relaxed);
        }
        reaped
    }

    /// Shuts down every session's socket (server shutdown).
    pub fn shutdown_all(&self) {
        for e in self.sessions.lock().values() {
            let _ = e.stream.shutdown(std::net::Shutdown::Both);
        }
    }
}

impl Default for SessionTable {
    fn default() -> Self {
        SessionTable::new()
    }
}
