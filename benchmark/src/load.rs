//! The load generator: one connection, one sender and one receiver.
//!
//! The sender writes frames on a schedule and never waits for replies
//! (open loop); the receiver reads a `try_clone` of the same stream. Every
//! operation is timed from when it was *due*, so a stall also charges the
//! wait it imposes on the operations scheduled behind it. An operation
//! with no `Ok` reply — shed, malformed, or never answered — has no
//! completion time and counts as an infinite latency.

use crate::wire::{self, RunBody, STATUS_OK};
use bridge_serve::RunRequest;
use bridge_workloads::rng::SplitMix64;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// What one scheduled operation asks the edge for.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    Run { req: RunRequest, tenant: u32 },
    Scrape(u8),
}

/// One operation of a schedule, due `due` after the phase starts.
#[derive(Debug, Clone, Copy)]
pub struct Planned {
    pub due: Duration,
    pub op: Op,
}

/// What happened to one operation. Times are offsets from the phase
/// start.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub due: Duration,
    pub sent: Duration,
    /// When the `Ok` reply arrived; `None` for a shed or missing reply.
    pub done: Option<Duration>,
    /// Digest of the run witnesses (cycles, report text, memory).
    pub digest: Option<u64>,
    pub is_scrape: bool,
}

impl Outcome {
    /// Latency from due time in milliseconds; infinite without an `Ok`.
    pub fn latency_ms(&self) -> f64 {
        self.done.map_or(f64::INFINITY, |d| {
            d.saturating_sub(self.due).as_secs_f64() * 1e3
        })
    }

    /// How late the sender wrote the request, in milliseconds.
    pub fn late_ms(&self) -> f64 {
        self.sent.saturating_sub(self.due).as_secs_f64() * 1e3
    }
}

/// Digest of a run response's witnesses; equal digests mean the socket
/// result is byte-identical to the reference it is compared with.
pub fn digest(body: &RunBody) -> u64 {
    let cycles = body.cycles.to_le_bytes();
    let mut parts: Vec<&[u8]> = vec![&cycles, body.report_text.as_bytes()];
    let addrs: Vec<[u8; 4]> = body.memory.iter().map(|(a, _)| a.to_le_bytes()).collect();
    for ((_, bytes), addr) in body.memory.iter().zip(&addrs) {
        parts.push(addr);
        parts.push(bytes);
    }
    bridge_dbt::image::content_hash(&parts)
}

/// Poisson arrivals at `rate_rps` over `length`, drawn from `rng`.
pub fn poisson_times(rng: &mut SplitMix64, rate_rps: f64, length: Duration) -> Vec<Duration> {
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        // Uniform in (0, 1]: never ln(0).
        let u = ((rng.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
        t += -u.ln() / rate_rps;
        if t >= length.as_secs_f64() {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

/// One client connection to the edge. Request ids increase across phases,
/// so a straggling reply from an earlier phase is never attributed to a
/// later one.
pub struct Conn {
    stream: TcpStream,
    next_id: u64,
}

fn encode(op: &Op, id: u64) -> Vec<u8> {
    match op {
        Op::Run { req, tenant } => wire::encode_run(id, *tenant, req),
        Op::Scrape(code) => wire::encode_scrape(*code, id),
    }
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        // The client must not add a Nagle delay of its own: the edge's
        // behaviour is what is measured.
        stream.set_nodelay(true)?;
        Ok(Conn { stream, next_id: 1 })
    }

    /// One caller waiting for each reply before sending the next.
    pub fn closed_loop(&mut self, ops: &[Op]) -> Vec<Outcome> {
        let start = Instant::now();
        let mut out = Vec::with_capacity(ops.len());
        for op in ops {
            let id = self.next_id;
            self.next_id += 1;
            let due = start.elapsed();
            let frame = encode(op, id);
            let written = self.stream.write_all(&frame);
            let sent = start.elapsed();
            let mut outcome = Outcome {
                due,
                sent,
                done: None,
                digest: None,
                is_scrape: matches!(op, Op::Scrape(_)),
            };
            // Replies to earlier requests cannot be pending here: each was
            // awaited before this one was sent.
            if written.is_ok() {
                if let Ok(Some(frame)) = wire::read_frame(&mut self.stream) {
                    let at = start.elapsed();
                    if let Some(r) = wire::decode_response(&frame) {
                        if r.id == id && r.status == STATUS_OK {
                            outcome.done = Some(at);
                            outcome.digest = r.run.as_ref().map(digest);
                        }
                    }
                }
            }
            out.push(outcome);
        }
        out
    }

    /// Sends `plan` on schedule and collects replies until all have
    /// arrived or none has for `grace`.
    pub fn open_loop(&mut self, plan: &[Planned], grace: Duration) -> Vec<Outcome> {
        let base = self.next_id;
        self.next_id += plan.len() as u64;
        let frames: Vec<Vec<u8>> = plan
            .iter()
            .enumerate()
            .map(|(i, p)| encode(&p.op, base + i as u64))
            .collect();
        let mut reader = self.stream.try_clone().expect("clone the client stream");
        let start = Instant::now();
        let mut done = vec![None; plan.len()];
        let sent = std::thread::scope(|s| {
            let writer = &mut self.stream;
            let sender = s.spawn(move || {
                let mut sent = Vec::with_capacity(plan.len());
                for (p, frame) in plan.iter().zip(&frames) {
                    let now = start.elapsed();
                    if p.due > now {
                        std::thread::sleep(p.due - now);
                    }
                    let _ = writer.write_all(frame);
                    sent.push(start.elapsed());
                }
                sent
            });
            receive(&mut reader, base, start, &mut done, grace);
            sender.join().expect("sender thread never panics")
        });
        outcomes(plan, sent, done)
    }
}

/// When a reply arrived, and the digest of an `Ok` run reply;
/// `Duration::MAX` marks a reply that was not `Ok`.
type Done = Option<(Duration, Option<u64>)>;

/// Reads replies into `done` (indexed by id − `base`) until every slot is
/// filled or no reply has come for `grace`.
fn receive(reader: &mut TcpStream, base: u64, start: Instant, done: &mut [Done], grace: Duration) {
    let mut pending = done.len();
    if reader.set_read_timeout(Some(grace)).is_err() {
        return;
    }
    while pending > 0 {
        // A timeout, a closed stream or a malformed frame ends the phase;
        // what has not arrived by then counts as failed.
        let Ok(Some(frame)) = wire::read_frame(reader) else {
            break;
        };
        let at = start.elapsed();
        let Some(r) = wire::decode_response(&frame) else {
            break;
        };
        let Some(slot) =
            r.id.checked_sub(base)
                .and_then(|i| done.get_mut(i as usize))
        else {
            continue;
        };
        if slot.is_none() {
            pending -= 1;
            *slot = Some(if r.status == STATUS_OK {
                (at, r.run.as_ref().map(digest))
            } else {
                (Duration::MAX, None)
            });
        }
    }
    let _ = reader.set_read_timeout(None);
}

fn outcomes(plan: &[Planned], sent: Vec<Duration>, done: Vec<Done>) -> Vec<Outcome> {
    plan.iter()
        .zip(sent)
        .zip(done)
        .map(|((p, sent), done)| {
            let (done, digest) = match done {
                Some((at, d)) if at != Duration::MAX => (Some(at), d),
                _ => (None, None),
            };
            Outcome {
                due: p.due,
                sent,
                done,
                digest,
                is_scrape: matches!(p.op, Op::Scrape(_)),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let a = poisson_times(&mut SplitMix64::new(9), 800.0, Duration::from_secs(2));
        let b = poisson_times(&mut SplitMix64::new(9), 800.0, Duration::from_secs(2));
        assert_eq!(a, b);
        let c = poisson_times(&mut SplitMix64::new(10), 800.0, Duration::from_secs(2));
        assert_ne!(a, c);
        // About rate × length arrivals, strictly increasing.
        assert!((1450..1750).contains(&a.len()), "{}", a.len());
        assert!(a.windows(2).all(|w| w[0] < w[1]));
    }
}
