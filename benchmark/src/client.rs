//! The load generator's side of the query protocol: one connection,
//! `TCP_NODELAY`, requests pipelined in windows.

use miro_serve::wire::{
    decode_payload, encode_payload, read_msg, write_msg, WireMsg, QUERY_PROTOCOL_VERSION,
};
use miro_shard::protocol::{encode_raw_frame, read_raw_frame};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};

/// A socket polled instead of slept on: `read` and `write` spin through
/// `WouldBlock`. The load generator has a CPU to itself, and a reader
/// that never sleeps never needs waking, which takes the wake-up cost
/// (paid by the daemon, and different every time the two processes'
/// phases shift) out of the daemon's per-reply work.
struct Polled(TcpStream);

impl std::io::Read for Polled {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            match self.0.read(buf) {
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::hint::spin_loop(),
                other => return other,
            }
        }
    }
}

impl Write for Polled {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        loop {
            match self.0.write(buf) {
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::hint::spin_loop(),
                other => return other,
            }
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

pub struct Client {
    writer: Polled,
    reader: BufReader<Polled>,
    /// Reused request buffer: a window goes out in one `write`.
    out: Vec<u8>,
}

/// Daemon counters from a wire `Stats` reply.
#[derive(Clone, Copy, Debug, Default)]
pub struct DaemonStats {
    pub queries: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
}

impl Client {
    /// Connect and complete the `Hello`/`Welcome` handshake.
    pub fn connect(addr: SocketAddr) -> Result<Client, String> {
        let writer =
            TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        writer
            .set_nodelay(true)
            .map_err(|e| format!("TCP_NODELAY: {e}"))?;
        writer
            .set_nonblocking(true)
            .map_err(|e| format!("O_NONBLOCK: {e}"))?;
        let reader = BufReader::with_capacity(
            64 << 10,
            Polled(
                writer
                    .try_clone()
                    .map_err(|e| format!("cannot clone the socket: {e}"))?,
            ),
        );
        let mut c = Client {
            writer: Polled(writer),
            reader,
            out: Vec::with_capacity(4096),
        };
        match c.call(&WireMsg::Hello {
            protocol: QUERY_PROTOCOL_VERSION,
        })? {
            WireMsg::Welcome { .. } => Ok(c),
            other => Err(format!("expected Welcome, got {other:?}")),
        }
    }

    /// One request, one reply.
    pub fn call(&mut self, msg: &WireMsg) -> Result<WireMsg, String> {
        write_msg(&mut self.writer, msg).map_err(|e| format!("send failed: {e}"))?;
        self.recv()
    }

    pub fn recv(&mut self) -> Result<WireMsg, String> {
        read_msg(&mut self.reader).map_err(|e| format!("receive failed: {e}"))
    }

    /// Queue a request for the next [`Client::flush`].
    pub fn queue(&mut self, msg: &WireMsg) {
        self.out
            .extend_from_slice(&encode_raw_frame(&encode_payload(msg)));
    }

    /// Send every queued request in one write.
    pub fn flush(&mut self) -> Result<(), String> {
        self.writer
            .write_all(&self.out)
            .map_err(|e| format!("send failed: {e}"))?;
        self.out.clear();
        Ok(())
    }

    /// Receive one reply as its raw payload, undecoded.
    pub fn recv_payload(&mut self) -> Result<Vec<u8>, String> {
        read_raw_frame(&mut self.reader).map_err(|e| format!("receive failed: {e}"))
    }

    pub fn stats(&mut self) -> Result<DaemonStats, String> {
        match self.call(&WireMsg::Stats { id: 0 })? {
            WireMsg::RStats {
                queries,
                cache_hits,
                cache_misses,
                cache_evictions,
                ..
            } => Ok(DaemonStats {
                queries,
                cache_hits,
                cache_misses,
                cache_evictions,
            }),
            other => Err(format!("expected RStats, got {other:?}")),
        }
    }
}

/// Decode a reply payload.
pub fn decode(payload: &[u8]) -> Result<WireMsg, String> {
    decode_payload(payload).map_err(|e| format!("undecodable reply: {e}"))
}
