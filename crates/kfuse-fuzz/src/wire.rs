//! Wire-protocol fuzzing: random frames through encode → decode →
//! re-encode, asserting bit-identity, plus single-byte corruption probes.
//!
//! The same discipline the executor fuzzer applies to *semantics*
//! (bit-identical outputs across executors) applied to *framing*: for any
//! frame the generator can produce, `decode(encode(f))` must succeed and
//! `encode(decode(encode(f)))` must reproduce the exact bytes — the codec
//! has one canonical encoding. And for any single corrupted byte, decode
//! must fail or, in the rare case it still succeeds, re-encode to exactly
//! the corrupted bytes (never silently reinterpret); it must never panic.

use kfuse_dsl::Schedule;
use kfuse_ir::ImageId;
use kfuse_net::wire::{decode_frame, encode_frame, ErrorCode, Frame, Limits, TraceContext};
use kfuse_net::Priority;
use kfuse_sim::synthetic_image;

use crate::gen::generate;
use crate::rng::SplitMix64;

/// Half the traced frames carry a trace context (exercising the
/// version-2 encoding), half do not (exercising the pre-revision
/// version-1 bytes), so both canonical encodings stay covered.
fn random_trace(rng: &mut SplitMix64) -> Option<TraceContext> {
    rng.chance(1, 2).then(|| TraceContext {
        trace_id: rng.next_u64(),
        span_id: rng.next_u64(),
    })
}

/// Half the submits stay `Normal` (canonical version-1/2 bytes), the
/// rest split between `High` and `Low` (canonical version-3 bytes), so
/// the QoS protocol revision gets the same fuzz coverage as the trace
/// revision.
fn random_priority(rng: &mut SplitMix64) -> Priority {
    if rng.chance(1, 2) {
        Priority::Normal
    } else if rng.chance(1, 2) {
        Priority::High
    } else {
        Priority::Low
    }
}

/// Builds a deterministic pseudorandom frame for `seed`, covering every
/// frame type with type-appropriate random content (pipelines come from
/// the pipeline generator, images from `synthetic_image`).
pub fn generate_frame(seed: u64) -> Frame {
    let mut rng = SplitMix64::new(seed ^ 0x77ee_aa55_0f0f_f0f0);
    match rng.below(9) {
        0 => {
            let pipeline = generate(rng.next_u64());
            Frame::RegisterPipeline {
                name: random_name(&mut rng),
                fingerprint: pipeline.fingerprint(),
                pipeline,
            }
        }
        1 => Frame::RegisterAck {
            fingerprint: rng.next_u64(),
        },
        2 => {
            let pipeline = generate(rng.next_u64());
            let inputs = crate::make_inputs(&pipeline, rng.next_u64());
            let schedule = *rng.pick(&[Schedule::Baseline, Schedule::Basic, Schedule::Optimized]);
            Frame::Submit {
                request_id: rng.next_u64(),
                tenant: random_name(&mut rng),
                deadline_us: if rng.chance(1, 2) {
                    rng.below(1 << 30)
                } else {
                    0
                },
                schedule,
                inputs,
                priority: random_priority(&mut rng),
                trace: random_trace(&mut rng),
            }
        }
        3 => {
            let pipeline = generate(rng.next_u64());
            let n = 1 + rng.below(3) as usize;
            let outputs = (0..n)
                .map(|i| {
                    let desc = pipeline.image(pipeline.outputs()[0]).clone();
                    (ImageId(i), synthetic_image(desc, rng.next_u64()))
                })
                .collect();
            Frame::ResultOk {
                request_id: rng.next_u64(),
                outputs,
                trace: random_trace(&mut rng),
            }
        }
        4 => Frame::Error {
            request_id: rng.next_u64(),
            code: *rng.pick(&[
                ErrorCode::Malformed,
                ErrorCode::UnknownPipeline,
                ErrorCode::QueueFull,
                ErrorCode::AdmissionTimeout,
                ErrorCode::DeadlineExceeded,
                ErrorCode::Draining,
                ErrorCode::ExecFailed,
                ErrorCode::FingerprintMismatch,
                ErrorCode::InvalidPipeline,
                ErrorCode::BadInputs,
                ErrorCode::Panicked,
                ErrorCode::Unsupported,
                ErrorCode::ConnectionLimit,
            ]),
            message: random_name(&mut rng),
            trace: random_trace(&mut rng),
        },
        5 => Frame::Ping {
            token: rng.next_u64(),
        },
        6 => Frame::Pong {
            token: rng.next_u64(),
        },
        7 => Frame::Drain,
        _ => Frame::DrainAck,
    }
}

fn random_name(rng: &mut SplitMix64) -> String {
    let alphabet = b"abcdefghijklmnopqrstuvwxyz0123456789_-";
    let len = 1 + rng.below(24) as usize;
    (0..len)
        .map(|_| alphabet[rng.below(alphabet.len() as u64) as usize] as char)
        .collect()
}

/// Checks one wire seed; `Err` carries a replayable description.
pub fn check_wire_seed(seed: u64) -> Result<(), String> {
    let limits = Limits::default();
    let frame = generate_frame(seed);
    let bytes = encode_frame(&frame);

    let decoded = decode_frame(&bytes, &limits)
        .map_err(|e| format!("seed {seed}: {} failed to decode: {e}", frame.type_name()))?;
    let reencoded = encode_frame(&decoded);
    if reencoded != bytes {
        return Err(format!(
            "seed {seed}: {} re-encode differs ({} vs {} bytes)",
            frame.type_name(),
            reencoded.len(),
            bytes.len()
        ));
    }

    // Corruption probes: a handful of single-byte flips. The payload
    // checksum makes every payload flip a guaranteed decode failure; the
    // assertion here is the weaker, universally sound one — no panic, and
    // no silent reinterpretation.
    let mut rng = SplitMix64::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    for _ in 0..8 {
        let i = rng.below(bytes.len() as u64) as usize;
        let mut bad = bytes.clone();
        bad[i] ^= 1 << rng.below(8);
        match decode_frame(&bad, &limits) {
            Err(_) => {}
            Ok(frame2) => {
                if encode_frame(&frame2) != bad {
                    return Err(format!(
                        "seed {seed}: flip at byte {i} decoded to a frame that \
                         re-encodes differently (silent reinterpretation)"
                    ));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_256_wire_seeds_pass() {
        for seed in 0..256 {
            check_wire_seed(seed).unwrap();
        }
    }

    #[test]
    fn generator_covers_every_frame_type() {
        let mut seen = [false; 9];
        for seed in 0..512 {
            seen[(generate_frame(seed).type_byte() - 1) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "coverage: {seen:?}");
    }

    /// The header `encode_frame` patches in place describes the payload
    /// behind it, for every frame kind the generator produces (coverage
    /// and the decode → re-encode identity are the neighbouring tests').
    #[test]
    fn header_length_and_checksum_describe_the_payload() {
        use kfuse_net::wire::{checksum, HEADER_LEN};
        for seed in 0..512 {
            let bytes = encode_frame(&generate_frame(seed));
            let payload = &bytes[HEADER_LEN..];
            assert_eq!(bytes[8..12], (payload.len() as u32).to_le_bytes(), "{seed}");
            assert_eq!(bytes[12..16], checksum(payload).to_le_bytes(), "{seed}");
        }
    }

    /// The generator must exercise *both* canonical encodings of every
    /// traced frame type: with a trace context (version 2) and without
    /// (version 1 — the pre-revision wire bytes old clients send).
    #[test]
    fn generator_covers_traced_and_untraced_variants() {
        // [type 3, 4, 5] × [untraced, traced]
        let mut seen = [[false; 2]; 3];
        for seed in 0..2048 {
            let frame = generate_frame(seed);
            let idx = match frame.type_byte() {
                3 => 0,
                4 => 1,
                5 => 2,
                _ => continue,
            };
            seen[idx][usize::from(frame.trace().is_some())] = true;
        }
        assert!(
            seen.iter().flatten().all(|&s| s),
            "trace-context coverage: {seen:?}"
        );
    }

    /// Old-version acceptance, fuzzed: every traced frame the generator
    /// produces also decodes from its version-1 (trace-stripped) bytes.
    #[test]
    fn traced_frames_decode_as_version_1_without_context() {
        let limits = Limits::default();
        let mut checked = 0;
        for seed in 0..512 {
            let frame = generate_frame(seed);
            let Some(_) = frame.trace() else { continue };
            // Version-3 submits (non-Normal priority) carry a priority
            // prefix inside the payload; stripping the trace tail alone
            // does not produce valid version-1 bytes for them.
            if let Frame::Submit { priority, .. } = &frame {
                if *priority != Priority::Normal {
                    continue;
                }
            }
            let bytes = encode_frame(&frame);
            // Rebuild the pre-revision frame: version 1, payload minus
            // the 16 trailing trace bytes, checksum re-sealed.
            let payload = &bytes[kfuse_net::wire::HEADER_LEN..bytes.len() - 16];
            let mut old = bytes[..kfuse_net::wire::HEADER_LEN].to_vec();
            old[4] = kfuse_net::wire::VERSION;
            old[8..12].copy_from_slice(&u32::try_from(payload.len()).unwrap().to_le_bytes());
            old[12..16].copy_from_slice(&kfuse_net::wire::checksum(payload).to_le_bytes());
            old.extend_from_slice(payload);
            let decoded = decode_frame(&old, &limits)
                .unwrap_or_else(|e| panic!("seed {seed}: version-1 bytes rejected: {e}"));
            assert_eq!(decoded.trace(), None, "seed {seed}");
            assert_eq!(decoded.type_byte(), frame.type_byte(), "seed {seed}");
            // And the round trip back to version-1 bytes is canonical.
            assert_eq!(encode_frame(&decoded), old, "seed {seed}");
            checked += 1;
        }
        assert!(checked > 20, "only {checked} traced frames generated");
    }

    /// The generator must exercise every Submit QoS lane — Normal
    /// (version 1/2) plus High and Low (version 3), each with and
    /// without a trace context — so all four version-3 canonical
    /// encodings stay under fuzz.
    #[test]
    fn generator_covers_priority_lanes() {
        // [Normal, High, Low] × [untraced, traced]
        let mut seen = [[false; 2]; 3];
        for seed in 0..4096 {
            if let Frame::Submit {
                priority, trace, ..
            } = generate_frame(seed)
            {
                let lane = match priority {
                    Priority::Normal => 0,
                    Priority::High => 1,
                    Priority::Low => 2,
                };
                seen[lane][usize::from(trace.is_some())] = true;
            }
        }
        assert!(
            seen.iter().flatten().all(|&s| s),
            "priority-lane coverage (Normal, High, Low): {seen:?}"
        );
    }
}
