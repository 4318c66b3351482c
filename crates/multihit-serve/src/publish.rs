//! Discover→serve control plane: push a results snapshot into a live
//! server.
//!
//! `discover --publish <addr>` ends a run by compiling the winning
//! panels and shipping them to a serving front end instead of (or in
//! addition to) writing TSVs to disk. The wire carries the same TSV text
//! the filesystem would have held — one [`frame::KIND_PUBLISH`] frame
//! with every panel of the snapshot — and the server compiles the whole
//! set before swapping, so a snapshot either becomes the next registry
//! generation atomically or is rejected with the first compile error and
//! the live generation keeps serving.
//!
//! The ack is an ordinary [`crate::Response`] frame correlated by request id:
//! status `Ok` with `version` set to the freshly published generation,
//! or status `Error` carrying the rejection message. In-flight requests
//! against the old generation keep resolving (the registry keeps one
//! prior generation live — see [`crate::registry`]); requests admitted
//! after the ack see the new generation.

use crate::frame::{self, FrameDecoder, Msg};
use crate::protocol::Status;
use multihit_data::results::ResultsFile;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Correlation id for the single publish frame on a dedicated control
/// connection. Arbitrary but recognizable in packet dumps.
const PUBLISH_ID: u64 = 0x7075_626c;

/// Ship `files` to the serving front end at `addr` as one atomic
/// registry snapshot. Blocks until the server acks (or 30 s pass) and
/// returns the newly live registry generation.
///
/// # Errors
/// Connection, handshake, or I/O failures, and server-side rejections
/// (malformed TSV, duplicate panels, empty snapshot) — in every error
/// case the server keeps serving its previous generation.
pub fn publish_to(addr: &str, files: &[ResultsFile]) -> Result<u64, String> {
    let texts: Vec<String> = files.iter().map(ResultsFile::to_tsv).collect();
    publish_texts_to(addr, &texts)
}

/// [`publish_to`] for snapshots already rendered to TSV text.
///
/// # Errors
/// See [`publish_to`].
fn publish_texts_to(addr: &str, texts: &[String]) -> Result<u64, String> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| format!("publish: connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| format!("publish: set timeout: {e}"))?;
    let _ = stream.set_nodelay(true);

    // Negotiate binary: send the preamble, expect it echoed back.
    let mut wire = Vec::new();
    frame::encode_preamble(&mut wire);
    frame::encode_publish(&mut wire, PUBLISH_ID, texts);
    stream
        .write_all(&wire)
        .map_err(|e| format!("publish: send: {e}"))?;

    let mut dec = FrameDecoder::new();
    let mut buf = [0u8; 4096];
    let mut preamble_seen = 0usize;
    loop {
        let n = stream
            .read(&mut buf)
            .map_err(|e| format!("publish: read ack: {e}"))?;
        if n == 0 {
            return Err("publish: server closed before acking".to_string());
        }
        let mut bytes = &buf[..n];
        while preamble_seen < 2 && !bytes.is_empty() {
            let expect = if preamble_seen == 0 {
                frame::MAGIC
            } else {
                frame::VERSION
            };
            if bytes[0] != expect {
                return Err(format!(
                    "publish: bad preamble byte {} (got 0x{:02x})",
                    preamble_seen, bytes[0]
                ));
            }
            preamble_seen += 1;
            bytes = &bytes[1..];
        }
        dec.push(bytes);
        // At most one frame is expected on this connection; every decoded
        // frame resolves the call, so a partial frame just reads again.
        if let Some(msg) = dec
            .next()
            .map_err(|e| format!("publish: corrupt ack frame: {e}"))?
        {
            match msg {
                Msg::Response(resp) if resp.id == PUBLISH_ID => {
                    return match resp.status {
                        Status::Ok => Ok(resp.version),
                        Status::Shed => Err("publish: shed by server".to_string()),
                        Status::Error => Err(resp.error),
                    };
                }
                // Responses to unrelated ids (none expected on a control
                // connection) and anything else are protocol violations.
                other => return Err(format!("publish: unexpected frame {other:?}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::synth_results;
    use crate::registry::ModelRegistry;
    use crate::server::{ServeConfig, Server};
    use crate::tcp;
    use multihit_core::obs::Obs;
    use std::sync::Arc;

    #[test]
    fn publish_client_swaps_a_live_server() {
        let obs = Obs::enabled();
        let mut reg = ModelRegistry::new();
        reg.insert_results(&synth_results("P", 16, 8, 3, 3))
            .unwrap();
        let server = Server::start(reg, ServeConfig::default(), &obs);
        let handle = tcp::spawn(Arc::clone(&server), "127.0.0.1:0").unwrap();
        let addr = handle.addr().to_string();

        assert_eq!(server.registry().version, 1);
        let generation = publish_to(&addr, &[synth_results("Q", 20, 6, 3, 11)]).unwrap();
        assert_eq!(generation, 2);
        let live = server.registry();
        assert_eq!(live.version, 2);
        assert!(live.registry.get("Q").is_some());
        assert!(live.registry.get("P").is_none());

        // A rejected snapshot leaves generation 2 serving.
        let err = publish_texts_to(&addr, &["not\ta\tresults\tfile".to_string()]).unwrap_err();
        assert!(err.contains("panel 0"), "unexpected error: {err}");
        assert_eq!(server.registry().version, 2);

        // Empty snapshots are refused rather than blanking the registry.
        let err = publish_to(&addr, &[]).unwrap_err();
        assert!(err.contains("no panels"), "unexpected error: {err}");
        assert_eq!(server.registry().version, 2);

        handle.stop();
        let report = server.shutdown();
        assert_eq!(report.publishes, 1);
        assert_eq!(report.swaps, 1);
    }
}
