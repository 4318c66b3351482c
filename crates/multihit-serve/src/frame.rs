//! Length-prefixed binary wire frames: the serving hot path's codec.
//!
//! JSON-lines (see [`crate::protocol`]) stays available for debuggability,
//! but at 1M+ rps the JSON codec dominates the per-request cost. The
//! binary frame puts the *packed bit-signature* — already the cache key
//! and the batch-slot representation — on the wire verbatim, so a request
//! decodes with one bounds check and one `u64` copy per word, no name
//! parsing, no intermediate allocation beyond the signature buffer that
//! becomes the batch slot itself.
//!
//! ## Negotiation
//!
//! A connection's first byte picks the protocol: `0xB7` (the binary
//! magic, chosen to collide with no printable JSON byte) enters binary
//! mode, anything else is treated as JSON-lines. The magic is followed by
//! a version byte; the server echoes both, and rejects versions it does
//! not speak by closing the connection.
//!
//! ## Frame layout (all integers little-endian)
//!
//! ```text
//! preamble  : [0xB7][version=0x02]                      (once, each way)
//! frame     : [len: u32][payload: len bytes]            len ≤ 1 MiB
//! request   : [0x01][id: u64][registry_version: u64]
//!             [model_id: u32][tenant: u32]
//!             [n_words: u16][sig: u64 × n_words]
//! response  : [0x02][id: u64][status: u8][flags: u8]
//!             [registry_version: u64][tenant: u32][error: utf-8 bytes…]
//! publish   : [0x03][id: u64][n_panels: u16]
//!             [len: u32][tsv: utf-8 bytes] × n_panels
//! ```
//!
//! `status`: 0 = ok, 1 = shed, 2 = error. `flags`: bit 0 = tumor,
//! bit 1 = cache hit. `registry_version` on a request names the registry
//! generation the client packed its signature against (signatures are
//! only meaningful relative to a panel universe); on a response it names
//! the generation that produced the verdict, which is how the loadgen
//! proves hot swaps lose nothing. `tenant` names the admission-control
//! account the request bills against (0 = default); responses echo it so
//! sheds are attributable to the budget they were charged to.
//!
//! Version 0x02 added the tenant fields and the publish frame; 0x01 peers
//! are rejected at the preamble — the fleet upgrades client and server
//! from the same build, so there is no mixed-version window to support.
//!
//! A **publish** frame is the control-plane half of the discover→serve
//! pipeline: its payload is one results-TSV text per panel (the exact
//! artifact `discover` writes). The server compiles them into a fresh
//! registry, arc-swaps it in (see [`crate::registry::SharedRegistry`]),
//! and acks with a response frame whose `registry_version` is the new
//! generation (status ok) or whose `error` says why the snapshot was
//! rejected — the swap is all-or-nothing.

use crate::protocol::{Response, Status};

/// First byte of a binary connection.
pub const MAGIC: u8 = 0xB7;
/// Binary protocol version this build speaks.
pub const VERSION: u8 = 0x02;
/// Payload kind: classification request.
const KIND_REQUEST: u8 = 0x01;
/// Payload kind: classification response.
const KIND_RESPONSE: u8 = 0x02;
/// Payload kind: registry publish (control plane).
pub const KIND_PUBLISH: u8 = 0x03;
/// Frames larger than this are rejected as corrupt, not buffered.
pub const MAX_FRAME: usize = 1 << 20;

/// One decoded binary message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Msg {
    /// A classification request: `sig` is the packed bit-signature over
    /// the universe of registry generation `version`'s panel `model_id`.
    Request {
        /// Caller correlation id, echoed in the response.
        id: u64,
        /// Registry generation the signature was packed against.
        version: u64,
        /// Dense panel id within that generation.
        model_id: u32,
        /// Admission-control account this request bills against.
        tenant: u32,
        /// Packed signature words (moves straight into the batch slot).
        sig: Vec<u64>,
    },
    /// A classification response.
    Response(Response),
    /// A registry publish: one results-TSV text per panel, to be compiled
    /// and arc-swapped in as the next registry generation.
    Publish {
        /// Caller correlation id, echoed in the ack response.
        id: u64,
        /// Results-TSV texts, one per panel.
        panels: Vec<String>,
    },
}

/// Append the 2-byte preamble.
pub fn encode_preamble(out: &mut Vec<u8>) {
    out.push(MAGIC);
    out.push(VERSION);
}

/// Append one request frame.
pub fn encode_request(
    out: &mut Vec<u8>,
    id: u64,
    version: u64,
    model_id: u32,
    tenant: u32,
    sig: &[u64],
) {
    let payload = 1 + 8 + 8 + 4 + 4 + 2 + 8 * sig.len();
    debug_assert!(payload <= MAX_FRAME, "request frame over MAX_FRAME");
    out.reserve(4 + payload);
    out.extend_from_slice(
        &u32::try_from(payload)
            .expect("frame length fits u32")
            .to_le_bytes(),
    );
    out.push(KIND_REQUEST);
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&model_id.to_le_bytes());
    out.extend_from_slice(&tenant.to_le_bytes());
    out.extend_from_slice(
        &u16::try_from(sig.len())
            .expect("signature fits u16 words")
            .to_le_bytes(),
    );
    for w in sig {
        out.extend_from_slice(&w.to_le_bytes());
    }
}

/// Append one response frame.
pub fn encode_response(out: &mut Vec<u8>, resp: &Response) {
    let err = if resp.status == Status::Error {
        resp.error.as_bytes()
    } else {
        &[]
    };
    let payload = 1 + 8 + 1 + 1 + 8 + 4 + err.len();
    debug_assert!(payload <= MAX_FRAME, "response frame over MAX_FRAME");
    out.reserve(4 + payload);
    out.extend_from_slice(
        &u32::try_from(payload)
            .expect("frame length fits u32")
            .to_le_bytes(),
    );
    out.push(KIND_RESPONSE);
    out.extend_from_slice(&resp.id.to_le_bytes());
    out.push(match resp.status {
        Status::Ok => 0,
        Status::Shed => 1,
        Status::Error => 2,
    });
    out.push(u8::from(resp.tumor) | (u8::from(resp.cache_hit) << 1));
    out.extend_from_slice(&resp.version.to_le_bytes());
    out.extend_from_slice(&resp.tenant.to_le_bytes());
    out.extend_from_slice(err);
}

/// Append one publish frame: one results-TSV text per panel.
///
/// # Panics
/// Panics (via the frame-length assertion) if the snapshot exceeds
/// [`MAX_FRAME`]; callers ship panels, not cohorts, so real snapshots are
/// kilobytes.
pub fn encode_publish(out: &mut Vec<u8>, id: u64, panels: &[String]) {
    let payload = 1 + 8 + 2 + panels.iter().map(|p| 4 + p.len()).sum::<usize>();
    assert!(payload <= MAX_FRAME, "publish frame over MAX_FRAME");
    out.reserve(4 + payload);
    out.extend_from_slice(
        &u32::try_from(payload)
            .expect("frame length fits u32")
            .to_le_bytes(),
    );
    out.push(KIND_PUBLISH);
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(
        &u16::try_from(panels.len())
            .expect("panel count fits u16")
            .to_le_bytes(),
    );
    for p in panels {
        out.extend_from_slice(
            &u32::try_from(p.len())
                .expect("panel text fits u32")
                .to_le_bytes(),
        );
        out.extend_from_slice(p.as_bytes());
    }
}

/// Streaming decoder: feed arbitrary TCP segments in, complete messages
/// come out. Partial frames are buffered across [`FrameDecoder::push`]
/// calls; corrupt frames poison the stream (the connection should close).
#[derive(Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    #[must_use]
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Buffer one received segment.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact before growing: long-lived connections must not
        // accumulate consumed prefixes.
        if self.pos > 0 && (self.pos == self.buf.len() || self.pos >= 64 * 1024) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered but not yet decoded.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Decode the next complete message, if one is fully buffered.
    ///
    /// # Errors
    /// A malformed frame (oversized length, unknown kind, truncated or
    /// trailing payload bytes) is unrecoverable for the stream.
    #[allow(clippy::should_implement_trait)] // fallible pull, not an Iterator
    pub fn next(&mut self) -> Result<Option<Msg>, String> {
        let avail = &self.buf[self.pos..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([avail[0], avail[1], avail[2], avail[3]]) as usize;
        if len > MAX_FRAME {
            return Err(format!("frame length {len} exceeds {MAX_FRAME}"));
        }
        if avail.len() < 4 + len {
            return Ok(None);
        }
        let payload = &avail[4..4 + len];
        let msg = decode_payload(payload)?;
        self.pos += 4 + len;
        Ok(Some(msg))
    }
}

fn decode_payload(p: &[u8]) -> Result<Msg, String> {
    let kind = *p.first().ok_or("empty frame payload")?;
    match kind {
        KIND_REQUEST => {
            if p.len() < 1 + 8 + 8 + 4 + 4 + 2 {
                return Err(format!("request frame truncated at {} bytes", p.len()));
            }
            let id = u64::from_le_bytes(p[1..9].try_into().expect("sized"));
            let version = u64::from_le_bytes(p[9..17].try_into().expect("sized"));
            let model_id = u32::from_le_bytes(p[17..21].try_into().expect("sized"));
            let tenant = u32::from_le_bytes(p[21..25].try_into().expect("sized"));
            let n_words = u16::from_le_bytes(p[25..27].try_into().expect("sized")) as usize;
            let words = &p[27..];
            if words.len() != 8 * n_words {
                return Err(format!(
                    "request signature: expected {} words ({} bytes), got {} bytes",
                    n_words,
                    8 * n_words,
                    words.len()
                ));
            }
            let sig = words
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("sized")))
                .collect();
            Ok(Msg::Request {
                id,
                version,
                model_id,
                tenant,
                sig,
            })
        }
        KIND_RESPONSE => {
            if p.len() < 1 + 8 + 1 + 1 + 8 + 4 {
                return Err(format!("response frame truncated at {} bytes", p.len()));
            }
            let id = u64::from_le_bytes(p[1..9].try_into().expect("sized"));
            let status = match p[9] {
                0 => Status::Ok,
                1 => Status::Shed,
                2 => Status::Error,
                other => return Err(format!("unknown response status byte {other}")),
            };
            let flags = p[10];
            if flags & !0b11 != 0 {
                return Err(format!("unknown response flag bits {flags:#04x}"));
            }
            let version = u64::from_le_bytes(p[11..19].try_into().expect("sized"));
            let tenant = u32::from_le_bytes(p[19..23].try_into().expect("sized"));
            let error = std::str::from_utf8(&p[23..])
                .map_err(|e| format!("error text not utf-8: {e}"))?
                .to_string();
            if status != Status::Error && !error.is_empty() {
                return Err("trailing bytes after non-error response".to_string());
            }
            Ok(Msg::Response(Response {
                id,
                status,
                tumor: flags & 1 != 0,
                cache_hit: flags & 2 != 0,
                version,
                tenant,
                error,
            }))
        }
        KIND_PUBLISH => {
            if p.len() < 1 + 8 + 2 {
                return Err(format!("publish frame truncated at {} bytes", p.len()));
            }
            let id = u64::from_le_bytes(p[1..9].try_into().expect("sized"));
            let n_panels = u16::from_le_bytes(p[9..11].try_into().expect("sized")) as usize;
            let mut panels = Vec::with_capacity(n_panels);
            let mut off = 11;
            for _ in 0..n_panels {
                if p.len() < off + 4 {
                    return Err("publish frame truncated in panel length".to_string());
                }
                let len = u32::from_le_bytes(p[off..off + 4].try_into().expect("sized")) as usize;
                off += 4;
                if p.len() < off + len {
                    return Err(format!(
                        "publish panel: expected {} bytes, {} remain",
                        len,
                        p.len() - off
                    ));
                }
                let text = std::str::from_utf8(&p[off..off + len])
                    .map_err(|e| format!("panel text not utf-8: {e}"))?
                    .to_string();
                off += len;
                panels.push(text);
            }
            if off != p.len() {
                return Err("trailing bytes after publish panels".to_string());
            }
            Ok(Msg::Publish { id, panels })
        }
        other => Err(format!("unknown frame kind {other:#04x}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_one(bytes: &[u8]) -> Msg {
        let mut d = FrameDecoder::new();
        d.push(bytes);
        let msg = d.next().unwrap().expect("complete frame");
        assert_eq!(d.pending(), 0, "no leftover bytes");
        msg
    }

    #[test]
    fn request_roundtrips() {
        let mut out = Vec::new();
        encode_request(&mut out, 42, 3, 7, 11, &[0xdead_beef, 0x1234]);
        match roundtrip_one(&out) {
            Msg::Request {
                id,
                version,
                model_id,
                tenant,
                sig,
            } => {
                assert_eq!((id, version, model_id, tenant), (42, 3, 7, 11));
                assert_eq!(sig, vec![0xdead_beef, 0x1234]);
            }
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn responses_roundtrip() {
        for resp in [
            Response::ok(1, true, false, 2),
            Response::ok(2, false, true, 9).with_tenant(5),
            Response::shed(3),
            Response::shed(7).with_tenant(u32::MAX),
            Response::error(4, "unknown model \"X\"").with_tenant(1),
        ] {
            let mut out = Vec::new();
            encode_response(&mut out, &resp);
            assert_eq!(roundtrip_one(&out), Msg::Response(resp));
        }
    }

    #[test]
    fn publish_roundtrips() {
        let panels = vec![
            "# cohort=a\thits=2\n1\tTP53,KRAS\t0.5\t3\t4\n".to_string(),
            "# cohort=b\thits=3\n1\tEGFR\t0.25\t1\t2\n".to_string(),
        ];
        let mut out = Vec::new();
        encode_publish(&mut out, 99, &panels);
        match roundtrip_one(&out) {
            Msg::Publish { id, panels: got } => {
                assert_eq!(id, 99);
                assert_eq!(got, panels);
            }
            other => panic!("decoded {other:?}"),
        }
        // Empty snapshots are representable; the server decides whether to
        // reject them.
        let mut out = Vec::new();
        encode_publish(&mut out, 1, &[]);
        assert!(
            matches!(roundtrip_one(&out), Msg::Publish { id: 1, ref panels } if panels.is_empty())
        );
    }

    #[test]
    fn corrupt_publish_frames_are_rejected() {
        let mut ok = Vec::new();
        encode_publish(&mut ok, 1, &["text".to_string()]);
        // Panel length pointing past the payload.
        let mut bad = ok.clone();
        bad[4 + 11] = 0xFF; // first panel-length low byte
        let mut d = FrameDecoder::new();
        d.push(&bad);
        assert!(d.next().is_err());
        // Panel count claiming more panels than present.
        let mut bad = ok.clone();
        bad[4 + 9] = 2; // n_panels low byte
        let mut d = FrameDecoder::new();
        d.push(&bad);
        assert!(d.next().is_err());
    }

    #[test]
    fn partial_frames_reassemble_bytewise() {
        let mut out = Vec::new();
        encode_request(&mut out, 5, 1, 0, 0, &[u64::MAX]);
        encode_response(&mut out, &Response::shed(5));
        let mut d = FrameDecoder::new();
        let mut got = Vec::new();
        for b in &out {
            d.push(&[*b]);
            while let Some(m) = d.next().unwrap() {
                got.push(m);
            }
        }
        assert_eq!(got.len(), 2);
        assert!(matches!(got[0], Msg::Request { id: 5, .. }));
        assert_eq!(got[1], Msg::Response(Response::shed(5)));
    }

    #[test]
    fn oversized_and_corrupt_frames_are_rejected() {
        // Length field over MAX_FRAME.
        let mut d = FrameDecoder::new();
        d.push(&((MAX_FRAME as u32 + 1).to_le_bytes()));
        assert!(d.next().is_err());

        // Unknown kind byte.
        let mut d = FrameDecoder::new();
        d.push(&2u32.to_le_bytes());
        d.push(&[0x77, 0x00]);
        assert!(d.next().is_err());

        // Signature word count disagrees with payload length.
        let mut ok = Vec::new();
        encode_request(&mut ok, 1, 1, 0, 0, &[1, 2]);
        let mut bad = ok.clone();
        bad[4 + 25] = 9; // n_words low byte
        let mut d = FrameDecoder::new();
        d.push(&bad);
        assert!(d.next().is_err());
    }

    #[test]
    fn compaction_keeps_long_streams_bounded() {
        let mut d = FrameDecoder::new();
        let mut frame = Vec::new();
        encode_response(&mut frame, &Response::shed(1));
        for _ in 0..10_000 {
            d.push(&frame);
            while let Some(_m) = d.next().unwrap() {}
        }
        assert!(
            d.buf.capacity() < 256 * 1024,
            "decoder buffer grew to {} bytes",
            d.buf.capacity()
        );
    }
}
