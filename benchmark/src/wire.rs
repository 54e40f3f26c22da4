//! The benchmark's own `bridge-edge/1` client codec.
//!
//! The load generator encodes and decodes frames itself instead of going
//! through `EdgeClient`, so that the client's cost is measured as its own
//! layer and a change to the library client cannot move the load shape.
//! Layout (little-endian, u32 length prefix per frame):
//!
//! * run request: `op=1 id:u64 tenant:u32 deadline_ms:u32 tag:u8 a:u32
//!   b:u32 strategy:u8 threshold:u64 trace:u8`
//! * scrape request: `op id:u64`
//! * response: `id:u64 status:u8 kind:u8` then, for kind 1, `cycles:u64
//!   text_len:u32 text ranges:u32 (addr:u32 len:u32 bytes)*`, and for
//!   kind 2, `len:u32 text`.

use bridge_dbt::MdaStrategy;
use bridge_serve::RunRequest;
use std::io::{self, Read};

pub const OP_RUN: u8 = 1;
pub const OP_METRICS_PROM: u8 = 2;
pub const OP_HEALTH: u8 = 4;
pub const OP_ALERTS: u8 = 5;

/// `EdgeStatus::Ok` on the wire.
pub const STATUS_OK: u8 = 0;

const BODY_EMPTY: u8 = 0;
const BODY_RUN: u8 = 1;
const BODY_TEXT: u8 = 2;

/// Largest response frame the client accepts (the edge's own cap).
const MAX_FRAME: usize = 4 << 20;

/// One complete run-request frame, length prefix included, ready for a
/// single `write_all`.
pub fn encode_run(id: u64, tenant: u32, req: &RunRequest) -> Vec<u8> {
    let (tag, a, b) = req.kernel.to_wire();
    let strategy = MdaStrategy::ALL
        .iter()
        .position(|&s| s == req.strategy)
        .expect("every strategy is in ALL") as u8;
    let mut p = Vec::with_capacity(40);
    p.extend_from_slice(&36u32.to_le_bytes());
    p.push(OP_RUN);
    p.extend_from_slice(&id.to_le_bytes());
    p.extend_from_slice(&tenant.to_le_bytes());
    p.extend_from_slice(&0u32.to_le_bytes()); // deadline 0: unbounded
    p.push(tag);
    p.extend_from_slice(&a.to_le_bytes());
    p.extend_from_slice(&b.to_le_bytes());
    p.push(strategy);
    p.extend_from_slice(&req.hot_threshold.to_le_bytes());
    p.push(u8::from(req.trace));
    debug_assert_eq!(p.len(), 40);
    p
}

/// One complete scrape-request frame.
pub fn encode_scrape(op: u8, id: u64) -> Vec<u8> {
    let mut p = Vec::with_capacity(13);
    p.extend_from_slice(&9u32.to_le_bytes());
    p.push(op);
    p.extend_from_slice(&id.to_le_bytes());
    p
}

/// What a run response carries: the witnesses compared against the
/// in-process service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunBody {
    pub cycles: u64,
    pub report_text: String,
    pub memory: Vec<(u32, Vec<u8>)>,
}

/// A decoded response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    pub id: u64,
    pub status: u8,
    pub run: Option<RunBody>,
    pub text: Option<String>,
}

/// The payload of an `Ok` run response, laid out as the edge writes it.
pub fn encode_run_response(id: u64, body: &RunBody) -> Vec<u8> {
    let mut p = Vec::with_capacity(32 + body.report_text.len());
    p.extend_from_slice(&id.to_le_bytes());
    p.push(STATUS_OK);
    p.push(BODY_RUN);
    p.extend_from_slice(&body.cycles.to_le_bytes());
    p.extend_from_slice(&(body.report_text.len() as u32).to_le_bytes());
    p.extend_from_slice(body.report_text.as_bytes());
    p.extend_from_slice(&(body.memory.len() as u32).to_le_bytes());
    for (addr, bytes) in &body.memory {
        p.extend_from_slice(&addr.to_le_bytes());
        p.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        p.extend_from_slice(bytes);
    }
    p
}

/// Reads one frame; `Ok(None)` on a clean end of stream.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let n = u32::from_le_bytes(len) as usize;
    if n > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame too large",
        ));
    }
    let mut buf = vec![0u8; n];
    r.read_exact(&mut buf)?;
    Ok(Some(buf))
}

/// Decodes a response frame's payload; `None` if it is malformed.
pub fn decode_response(frame: &[u8]) -> Option<Response> {
    let mut rd = Rd { b: frame, pos: 0 };
    let id = rd.u64()?;
    let status = rd.u8()?;
    let mut resp = Response {
        id,
        status,
        run: None,
        text: None,
    };
    match rd.u8()? {
        BODY_EMPTY => {}
        BODY_RUN => {
            let cycles = rd.u64()?;
            let len = rd.u32()? as usize;
            let report_text = String::from_utf8(rd.bytes(len)?.to_vec()).ok()?;
            let ranges = rd.u32()? as usize;
            let mut memory = Vec::with_capacity(ranges.min(64));
            for _ in 0..ranges {
                let addr = rd.u32()?;
                let n = rd.u32()? as usize;
                memory.push((addr, rd.bytes(n)?.to_vec()));
            }
            resp.run = Some(RunBody {
                cycles,
                report_text,
                memory,
            });
        }
        BODY_TEXT => {
            let len = rd.u32()? as usize;
            resp.text = Some(String::from_utf8(rd.bytes(len)?.to_vec()).ok()?);
        }
        _ => return None,
    }
    (rd.pos == frame.len()).then_some(resp)
}

struct Rd<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Rd<'a> {
    fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.b.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.bytes(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.bytes(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.bytes(8)?.try_into().ok()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bridge_serve::{EdgeConfig, EdgeServer, ExecService, KernelSpec, ServeConfig};
    use std::io::Write;
    use std::net::TcpStream;

    /// The bench codec speaks the live edge's protocol: a run and a
    /// scrape round-trip, and the run's witnesses equal the in-process
    /// service's.
    #[test]
    fn codec_round_trips_against_a_live_edge() {
        let edge = EdgeServer::start(EdgeConfig::default().with_workers(1)).unwrap();
        let mut s = TcpStream::connect(edge.addr()).unwrap();
        let req = RunRequest::new(
            KernelSpec::MemcpyUnaligned { len: 64 },
            MdaStrategy::ExceptionHandling,
        )
        .with_threshold(10);
        s.write_all(&encode_run(77, 3, &req)).unwrap();
        let frame = read_frame(&mut s).unwrap().unwrap();
        let resp = decode_response(&frame).unwrap();
        assert_eq!((resp.id, resp.status), (77, STATUS_OK));
        let body = resp.run.expect("run body");
        assert_eq!(
            encode_run_response(77, &body),
            frame,
            "same layout as the edge"
        );
        let local = ExecService::new(ServeConfig::default()).run_one(req);
        assert_eq!(body.cycles, local.report.stats.cycles);
        assert_eq!(body.report_text, local.report.to_string());
        assert_eq!(body.memory, local.memory);

        s.write_all(&encode_scrape(OP_METRICS_PROM, 78)).unwrap();
        let resp = decode_response(&read_frame(&mut s).unwrap().unwrap()).unwrap();
        assert_eq!((resp.id, resp.status), (78, STATUS_OK));
        assert!(resp.text.unwrap().contains("serve_edge_ok 1"));
        drop(s);
        edge.shutdown();
    }

    #[test]
    fn truncated_frames_do_not_decode() {
        let mut frame = 5u64.to_le_bytes().to_vec();
        frame.extend_from_slice(&[STATUS_OK, BODY_TEXT, 9, 0, 0, 0, b'x']);
        assert_eq!(decode_response(&frame), None);
        assert_eq!(decode_response(&frame[..8]), None);
    }
}
