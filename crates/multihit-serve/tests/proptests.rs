//! Property-based tests for the serving layer.
//!
//! The load-bearing property: batched, sharded, cached serving returns
//! exactly what one-by-one scalar `ComboClassifier::classify` returns, for
//! every random panel, batch size, shard count, cache size, and request
//! interleaving. Plus: bounded queues shed if and only if full, and the
//! LRU cache stays consistent across evictions.

use multihit_core::bitmat::BitMatrix;
use multihit_core::obs::Obs;
use multihit_data::results::{ResultRow, ResultsFile};
use multihit_serve::cache::LruCache;
use multihit_serve::frame::{self, FrameDecoder, Msg};
use multihit_serve::queue::BoundedQueue;
use multihit_serve::{
    Admission, AdmissionConfig, InProcClient, ModelRegistry, Response, ServeConfig, Server, Status,
};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A random panel: 1–8 combinations of 1–4 genes over a ≤ 24-gene universe.
fn arb_panel() -> impl Strategy<Value = ResultsFile> {
    prop::collection::vec(prop::collection::vec(0u32..24, 1..5), 1..9).prop_map(|combos| {
        ResultsFile {
            cohort: "prop".to_string(),
            hits: combos[0].len(),
            rows: combos
                .iter()
                .enumerate()
                .map(|(i, combo)| {
                    let mut genes: Vec<String> = combo.iter().map(|g| format!("G{g}")).collect();
                    genes.dedup();
                    ResultRow {
                        iteration: i,
                        genes,
                        f: 1.0,
                        tp: 1,
                        tn: 1,
                    }
                })
                .collect(),
        }
    })
}

/// Random request gene sets (names may fall outside the panel universe).
fn arb_requests() -> impl Strategy<Value = Vec<Vec<String>>> {
    prop::collection::vec(
        prop::collection::vec(0u32..30, 0..10)
            .prop_map(|gs| gs.iter().map(|g| format!("G{g}")).collect()),
        1..80,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batched_serving_matches_scalar_classify(
        panel in arb_panel(),
        requests in arb_requests(),
        shards in 1usize..5,
        batch_max in 1usize..17,
        cache_cap in 0usize..32,
    ) {
        let obs = Obs::enabled();
        let mut reg = ModelRegistry::new();
        reg.insert_results(&panel).unwrap();
        let server = Server::start(
            reg,
            ServeConfig {
                shards,
                batch_max,
                queue_cap: 4096, // generous: nothing sheds, everything scores
                cache_cap,
                score_delay_ns: 0,
                admission: AdmissionConfig::default(),
            },
            &obs,
        );
        let compiled = server.registry().registry.get("prop").unwrap();

        // Scalar reference: one single-sample matrix per request, classified
        // by the per-sample path the batch must reproduce bit-for-bit.
        let expected: Vec<bool> = requests
            .iter()
            .map(|genes| {
                let sig = compiled.signature(genes);
                let mut m = BitMatrix::zeros(compiled.n_genes(), 1);
                for g in 0..compiled.n_genes() {
                    if (sig[g / 64] >> (g % 64)) & 1 == 1 {
                        m.set(g, 0, true);
                    }
                }
                compiled.classifier.classify(&m, 0)
            })
            .collect();

        // Interleave the requests across concurrent clients so batching
        // composes them in nondeterministic orders.
        let n_clients = shards.min(requests.len()).max(1);
        let results: Vec<(usize, bool)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..n_clients)
                .map(|c| {
                    let client = InProcClient::new(Arc::clone(&server));
                    let requests = &requests;
                    s.spawn(move || {
                        let mut out = Vec::new();
                        let mut i = c;
                        while i < requests.len() {
                            let resp = client.classify("prop", &requests[i]).expect("lost");
                            assert_eq!(resp.status, Status::Ok);
                            out.push((i, resp.tumor));
                            i += n_clients;
                        }
                        out
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        let report = server.shutdown();
        prop_assert_eq!(report.shed, 0);
        prop_assert_eq!(report.ok, requests.len() as u64);
        for (i, tumor) in results {
            prop_assert_eq!(tumor, expected[i]);
        }
    }

    #[test]
    fn queue_sheds_iff_full(cap in 1usize..9, pushes in 1usize..30) {
        let q = BoundedQueue::new(cap);
        let mut accepted = 0usize;
        for i in 0..pushes {
            match q.try_push(i) {
                Ok(()) => accepted += 1,
                Err(rejected) => {
                    // Rejection happens exactly when at capacity, and the
                    // item comes back intact.
                    prop_assert_eq!(q.len(), cap);
                    prop_assert_eq!(rejected.0, i);
                }
            }
        }
        prop_assert_eq!(accepted, pushes.min(cap));
        prop_assert_eq!(q.rejections(), (pushes - accepted) as u64);
        // Draining restores capacity: the next push is accepted again.
        if accepted == cap {
            q.pop_batch(1).unwrap();
            prop_assert!(q.try_push(usize::MAX).is_ok());
        }
    }

    #[test]
    fn cache_is_consistent_after_eviction(
        cap in 1usize..6,
        keys in prop::collection::vec(0u64..12, 1..120),
    ) {
        // The cache caches a pure function (key → key * 3). Under any
        // access pattern and eviction churn, a hit must never return a
        // value that differs from recomputation.
        let mut cache = LruCache::new(cap);
        for &k in &keys {
            match cache.get(&k) {
                Some(v) => prop_assert_eq!(v, k * 3),
                None => cache.insert(k, k * 3),
            }
            prop_assert!(cache.len() <= cap);
        }
        let (hits, misses, evictions) = cache.stats();
        prop_assert_eq!(hits + misses, keys.len() as u64);
        // Evictions can only happen once the distinct-key count exceeds cap.
        let distinct = {
            let mut ks = keys.clone();
            ks.sort_unstable();
            ks.dedup();
            ks.len()
        };
        if distinct <= cap {
            prop_assert_eq!(evictions, 0);
        }
    }

    #[test]
    fn served_verdicts_survive_cache_eviction_churn(
        panel in arb_panel(),
        picks in prop::collection::vec(0usize..6, 10..60),
    ) {
        // Cycle 6 distinct samples through a 2-entry cache: every round
        // trips evictions, and re-scored verdicts must equal cached ones.
        let obs = Obs::enabled();
        let mut reg = ModelRegistry::new();
        reg.insert_results(&panel).unwrap();
        let server = Server::start(
            reg,
            ServeConfig {
                shards: 1,
                batch_max: 1, // no intra-batch dedup: each repeat re-probes
                queue_cap: 64,
                cache_cap: 2,
                score_delay_ns: 0,
                admission: AdmissionConfig::default(),
            },
            &obs,
        );
        let compiled = server.registry().registry.get("prop").unwrap();
        let samples: Vec<Vec<String>> = (0..6)
            .map(|i| (0..24).filter(|g| (g + i) % 3 == 0).map(|g| format!("G{g}")).collect())
            .collect();
        let expected: Vec<bool> = samples
            .iter()
            .map(|genes| compiled.classify_signature(&compiled.signature(genes)))
            .collect();
        let client = InProcClient::new(Arc::clone(&server));
        for &p in &picks {
            let resp = client.classify("prop", &samples[p]).expect("lost");
            prop_assert_eq!(resp.status, Status::Ok);
            prop_assert_eq!(resp.tumor, expected[p]);
        }
        let report = server.shutdown();
        prop_assert_eq!(report.ok, picks.len() as u64);
    }

    #[test]
    fn frame_codec_roundtrips_any_message_stream(
        msgs in prop::collection::vec(arb_wire_msg(), 1..40),
    ) {
        // Encode a whole stream, decode it in one push: every message comes
        // back exactly, in order, and nothing trails.
        let mut wire = Vec::new();
        for m in &msgs {
            encode_msg(&mut wire, m);
        }
        let mut dec = FrameDecoder::new();
        dec.push(&wire);
        for m in &msgs {
            let got = dec.next().unwrap().expect("message present");
            prop_assert!(msg_eq(&got, m));
        }
        prop_assert!(dec.next().unwrap().is_none());
        prop_assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn frame_codec_reassembles_across_arbitrary_segmentation(
        msgs in prop::collection::vec(arb_wire_msg(), 1..20),
        cuts in prop::collection::vec(1usize..7, 1..64),
    ) {
        // Feed the same wire bytes in arbitrary-sized chunks (as a socket
        // would deliver them) and drain after every push: identical result.
        let mut wire = Vec::new();
        for m in &msgs {
            encode_msg(&mut wire, m);
        }
        let mut dec = FrameDecoder::new();
        let mut decoded = Vec::new();
        let mut off = 0usize;
        let mut ci = 0usize;
        while off < wire.len() {
            let step = cuts[ci % cuts.len()].min(wire.len() - off);
            ci += 1;
            dec.push(&wire[off..off + step]);
            off += step;
            while let Some(m) = dec.next().unwrap() {
                decoded.push(m);
            }
        }
        prop_assert_eq!(decoded.len(), msgs.len());
        for (got, want) in decoded.iter().zip(&msgs) {
            prop_assert!(msg_eq(got, want));
        }
    }

    #[test]
    fn truncated_frames_never_yield_messages(
        msg in arb_wire_msg(),
        keep_frac in 0.0f64..1.0,
    ) {
        // Any strict prefix of a single frame decodes to "not yet", never
        // to a message and never to garbage.
        let mut wire = Vec::new();
        encode_msg(&mut wire, &msg);
        let keep = ((wire.len() - 1) as f64 * keep_frac) as usize;
        let mut dec = FrameDecoder::new();
        dec.push(&wire[..keep]);
        prop_assert!(dec.next().unwrap().is_none());
        prop_assert_eq!(dec.pending(), keep);
        // Completing the frame releases exactly the original message.
        dec.push(&wire[keep..]);
        let got = dec.next().unwrap().expect("completed frame decodes");
        prop_assert!(msg_eq(&got, &msg));
    }

    #[test]
    fn corrupt_frames_are_rejected_not_misread(
        msg in arb_wire_msg(),
        flip_byte in 4usize..20,
        flip_bit in 0u32..8,
    ) {
        // Flip one payload bit (past the length prefix). The decoder must
        // never panic: it either rejects the frame, keeps waiting (the
        // length grew), or decodes a well-formed message — e.g. when the
        // flip lands in a field the strict validator legitimately admits.
        let mut wire = Vec::new();
        encode_msg(&mut wire, &msg);
        if flip_byte >= wire.len() {
            return Ok(());
        }
        wire[flip_byte] ^= 1 << flip_bit;
        let mut dec = FrameDecoder::new();
        dec.push(&wire);
        match dec.next() {
            Err(e) => prop_assert!(!e.is_empty()),
            Ok(None) => {}
            Ok(Some(Msg::Request { sig, .. })) => {
                prop_assert!(sig.len() <= u16::MAX as usize);
            }
            Ok(Some(Msg::Publish { panels, .. })) => {
                prop_assert!(panels.len() <= u16::MAX as usize);
            }
            Ok(Some(Msg::Response(r))) => {
                // Status byte and flag bits are strictly validated, so any
                // surviving response re-encodes cleanly.
                let mut re = Vec::new();
                frame::encode_response(&mut re, &r);
                prop_assert!(re.len() >= 4);
            }
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_immediately(extra in 1u32..1000) {
        let len = (frame::MAX_FRAME as u32) + extra;
        let mut dec = FrameDecoder::new();
        dec.push(&len.to_le_bytes());
        prop_assert!(dec.next().is_err());
    }

    #[test]
    fn admission_is_fair_under_any_tenant_mix(
        n_tenants in 2u32..6,
        total_rps in 400u64..4000,
        jitter_seed in any::<u64>(),
    ) {
        // One overloader (tenant 0, 4× its fair share) against n-1
        // well-behaved tenants (75% of theirs), driven on a virtual clock
        // for one simulated second so the accounting is exactly
        // reproducible. The properties: nobody inside their budget sheds,
        // the overloader is held near its fair share (not starved, not
        // favored), and every shed response carries the culprit tenant on
        // both wire protocols.
        let adm = Admission::new(AdmissionConfig { total_rps, burst_secs: 0.1 });
        let base = Instant::now();
        let n = n_tenants as usize;
        let fair = total_rps as f64 / n as f64;
        // Register everyone up front (one admitted request each) so the
        // fair share is n-way for the whole run.
        for t in 0..n_tenants {
            prop_assert!(adm.try_admit_at(t, base));
        }
        // Per-tenant issue rates, requests per millisecond.
        let rates: Vec<f64> = (0..n)
            .map(|t| if t == 0 { 4.0 * fair / 1000.0 } else { 0.75 * fair / 1000.0 })
            .collect();
        let mut carry = vec![0.0f64; n];
        let mut issued = vec![0u64; n];
        let mut admitted = vec![0u64; n];
        let mut last_us = vec![0u64; n];
        let mut shed_events: Vec<u32> = Vec::new();
        let mut rng = jitter_seed;
        for ms in 0..1000u64 {
            for t in 0..n {
                carry[t] += rates[t];
                while carry[t] >= 1.0 {
                    carry[t] -= 1.0;
                    // Deterministic sub-ms jitter so issue instants are not
                    // all aligned to the millisecond edge — kept monotone
                    // per tenant, as a real connection's stamps would be.
                    rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let us = (ms * 1000 + (rng >> 54)).max(last_us[t] + 1); // +0..1023 µs
                    last_us[t] = us;
                    issued[t] += 1;
                    if adm.try_admit_at(t as u32, base + Duration::from_micros(us)) {
                        admitted[t] += 1;
                    } else {
                        shed_events.push(t as u32);
                    }
                }
            }
        }
        // Well-behaved tenants are untouched by the overload next door.
        for t in 1..n {
            // A well-behaved tenant sheds nothing, whatever the neighbor does.
            prop_assert_eq!(admitted[t], issued[t]);
        }
        // The overloader is capped near its fair share: it keeps at least
        // 90% of the share (no starvation) and at most the share plus the
        // burst depth and registration slack (no favoritism).
        let over = admitted[0] as f64;
        prop_assert!(over >= 0.9 * fair, "overloader starved: {} < {}", over, fair);
        prop_assert!(
            over <= fair * (1.0 + 0.1) + total_rps as f64 * 0.1 + 2.0,
            "overloader over budget: {} vs fair {}", over, fair
        );
        // Every shed is billed to the overloader, and the attribution
        // survives both wire encodings.
        for (i, &t) in shed_events.iter().enumerate() {
            prop_assert_eq!(t, 0u32); // every shed billed to the overloader
            if i < 4 {
                let resp = Response::shed(i as u64).with_tenant(t);
                let mut wire = Vec::new();
                frame::encode_response(&mut wire, &resp);
                let mut dec = FrameDecoder::new();
                dec.push(&wire);
                match dec.next().unwrap().expect("frame decodes") {
                    Msg::Response(r) => prop_assert_eq!(r.tenant, t),
                    other => prop_assert!(false, "unexpected {:?}", other),
                }
                let parsed = Response::from_json(&resp.to_json()).expect("json round trip");
                prop_assert_eq!(parsed.tenant, t);
                prop_assert_eq!(parsed.status, Status::Shed);
            }
        }
        // The snapshot agrees with the client-side tallies.
        let snap = adm.snapshot();
        prop_assert_eq!(snap.len(), n);
        for (t, counters) in snap {
            // +1 for the registration request each tenant sent up front.
            prop_assert_eq!(counters.admitted, admitted[t as usize] + 1);
        }
    }
}

/// A random wire message: request, response (all three statuses, tenant
/// attribution included), or publish control frame.
fn arb_wire_msg() -> impl Strategy<Value = Msg> {
    (
        0u32..6,
        any::<u64>(),
        1u64..1000,
        any::<u32>(),
        prop::collection::vec(any::<u64>(), 0..9),
    )
        .prop_map(|(kind, id, version, model_id, sig)| {
            // The tuple strategy tops out at five slots; the tenant draws
            // its 32 bits from the id's high half instead.
            let tenant = (id >> 32) as u32;
            match kind {
                0 => Msg::Request {
                    id,
                    version,
                    model_id,
                    tenant,
                    sig,
                },
                1 => Msg::Publish {
                    id,
                    panels: sig.iter().map(|s| format!("panel {s:x}")).collect(),
                },
                2 => Msg::Response(
                    Response::ok(id, id & 1 == 1, version & 1 == 1, version).with_tenant(tenant),
                ),
                3 => Msg::Response(Response::shed(id).with_tenant(tenant)),
                _ => Msg::Response(Response::error(id, format!("e{:x}", id % 0x1000))),
            }
        })
}

fn encode_msg(out: &mut Vec<u8>, msg: &Msg) {
    match msg {
        Msg::Request {
            id,
            version,
            model_id,
            tenant,
            sig,
        } => frame::encode_request(out, *id, *version, *model_id, *tenant, sig),
        Msg::Publish { id, panels } => frame::encode_publish(out, *id, panels),
        Msg::Response(r) => frame::encode_response(out, r),
    }
}

fn msg_eq(a: &Msg, b: &Msg) -> bool {
    match (a, b) {
        (
            Msg::Request {
                id: ai,
                version: av,
                model_id: am,
                tenant: at,
                sig: asig,
            },
            Msg::Request {
                id: bi,
                version: bv,
                model_id: bm,
                tenant: bt,
                sig: bsig,
            },
        ) => ai == bi && av == bv && am == bm && at == bt && asig == bsig,
        (Msg::Publish { id: ai, panels: ap }, Msg::Publish { id: bi, panels: bp }) => {
            ai == bi && ap == bp
        }
        (Msg::Response(ra), Msg::Response(rb)) => {
            ra.to_json() == rb.to_json() && ra.tenant == rb.tenant
        }
        _ => false,
    }
}
