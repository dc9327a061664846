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
use kfuse_ir::{Image, ImageId};
use kfuse_net::wire::{decode_frame, encode_frame, ErrorCode, Frame, Limits, TraceContext};
use kfuse_net::Priority;
use kfuse_sim::synthetic_image;

use crate::gen::generate;
use crate::rng::SplitMix64;
use crate::stream::generate_stream;

/// Half the traced frames carry a trace context, half do not, so both
/// values of the presence byte stay covered.
fn random_trace(rng: &mut SplitMix64) -> Option<TraceContext> {
    rng.chance(1, 2).then(|| TraceContext {
        trace_id: rng.next_u64(),
        span_id: rng.next_u64(),
    })
}

/// Half the submits stay `Normal`, the rest split between `High` and
/// `Low`, so every value of the priority byte stays covered.
fn random_priority(rng: &mut SplitMix64) -> Priority {
    if rng.chance(1, 2) {
        Priority::Normal
    } else if rng.chance(1, 2) {
        Priority::High
    } else {
        Priority::Low
    }
}

fn random_schedule(rng: &mut SplitMix64) -> Schedule {
    *rng.pick(&[Schedule::Baseline, Schedule::Basic, Schedule::Optimized])
}

/// Input images for a freshly generated pipeline.
fn random_inputs(rng: &mut SplitMix64) -> Vec<(ImageId, Image)> {
    let pipeline = generate(rng.next_u64());
    crate::make_inputs(&pipeline, rng.next_u64())
}

/// Builds a deterministic pseudorandom frame for `seed`, drawing all 14
/// frame types (the match arms are their type bytes) with
/// type-appropriate random content: pipelines from the pipeline
/// generator, streams from [`generate_stream`], images from
/// `synthetic_image`.
pub fn generate_frame(seed: u64) -> Frame {
    let mut rng = SplitMix64::new(seed ^ 0x77ee_aa55_0f0f_f0f0);
    match rng.below(14) + 1 {
        1 => {
            let pipeline = generate(rng.next_u64());
            Frame::RegisterPipeline {
                name: random_name(&mut rng),
                fingerprint: pipeline.fingerprint(),
                pipeline,
            }
        }
        2 => Frame::RegisterAck {
            fingerprint: rng.next_u64(),
        },
        3 => {
            let inputs = random_inputs(&mut rng);
            let schedule = random_schedule(&mut rng);
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
        4 => {
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
        5 => {
            let codes: Vec<ErrorCode> = (1..=15).filter_map(ErrorCode::from_u16).collect();
            Frame::Error {
                request_id: rng.next_u64(),
                code: *rng.pick(&codes),
                message: random_name(&mut rng),
                trace: random_trace(&mut rng),
            }
        }
        6 => Frame::Ping {
            token: rng.next_u64(),
        },
        7 => Frame::Pong {
            token: rng.next_u64(),
        },
        8 => Frame::Drain,
        9 => Frame::DrainAck,
        10 => Frame::OpenSession {
            request_id: rng.next_u64(),
            tenant: random_name(&mut rng),
            schedule: random_schedule(&mut rng),
            stream: generate_stream(rng.next_u64()),
        },
        11 => Frame::SessionAck {
            request_id: rng.next_u64(),
            session_id: rng.next_u64(),
        },
        12 => Frame::SubmitFrame {
            request_id: rng.next_u64(),
            session_id: rng.next_u64(),
            inputs: random_inputs(&mut rng),
            trace: random_trace(&mut rng),
        },
        13 => Frame::CloseSession {
            request_id: rng.next_u64(),
            session_id: rng.next_u64(),
            drain: rng.chance(1, 2),
        },
        _ => Frame::CloseSessionAck {
            request_id: rng.next_u64(),
            session_id: rng.next_u64(),
            frames_completed: rng.next_u64(),
            frames_errored: rng.next_u64(),
        },
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
        let mut seen = [false; 14];
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

    /// The generator must exercise both values of the presence byte on
    /// every frame type with a trace field.
    #[test]
    fn generator_covers_traced_and_untraced_variants() {
        // [Submit, ResultOk, Error, SubmitFrame] × [untraced, traced]
        let mut seen = [[false; 2]; 4];
        for seed in 0..2048 {
            let frame = generate_frame(seed);
            let idx = match frame.type_byte() {
                3 => 0,
                4 => 1,
                5 => 2,
                12 => 3,
                _ => continue,
            };
            seen[idx][usize::from(frame.trace().is_some())] = true;
        }
        assert!(
            seen.iter().flatten().all(|&s| s),
            "trace-context coverage: {seen:?}"
        );
    }

    /// The generator must exercise every Submit priority byte, each with
    /// and without a trace context.
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
