//! Integration tests for `kfuse-runtime`: a shared multi-tenant `Runtime`
//! under concurrent mixed load must return results **bit-identical** to
//! the reference interpreter on the unfused pipeline, and repeat
//! submissions must be served from the plan cache.
//!
//! The runtime composes every moving part this workspace has: structural
//! fingerprinting (`kfuse-ir`), the fusion planner (`kfuse-core` via
//! `kfuse-dsl`), compiled plans and the tiled executor (`kfuse-sim`), and
//! the queue/cache/metrics machinery of `kfuse-runtime` itself — so these
//! tests are the closest thing to an end-to-end serving check.

use kfuse_apps::paper_apps;
use kfuse_dsl::Schedule;
use kfuse_ir::{Image, ImageId, Pipeline};
use kfuse_runtime::{Admission, Runtime, RuntimeConfig};
use kfuse_sim::{execute_reference, synthetic_image, Execution};

fn inputs_for(p: &Pipeline, seed: u64) -> Vec<(ImageId, Image)> {
    p.inputs()
        .iter()
        .map(|&id| (id, synthetic_image(p.image(id).clone(), seed)))
        .collect()
}

fn assert_outputs_match(p: &Pipeline, reference: &Execution, got: &Execution, label: &str) {
    for &id in p.outputs() {
        let r = reference.expect_image(id);
        let g = got.expect_image(id);
        assert!(
            r.bit_equal(g),
            "{label}: output {} differs, max abs diff {}",
            p.image(id).name,
            r.max_abs_diff(g)
        );
    }
}

/// N client threads × all six paper apps × both fusion schedules, hammered
/// through one shared runtime with a small queue (so backpressure blocking
/// is actually exercised). Every result must be bit-identical to
/// `execute_reference` on the unfused pipeline.
#[test]
fn concurrent_mixed_load_bit_identical_to_reference() {
    const CLIENTS: usize = 4;
    const ROUNDS: usize = 3;

    // Per-app fixtures: pipeline, inputs, and the reference oracle.
    type Fixture = (String, Pipeline, Vec<(ImageId, Image)>, Execution);
    let fixtures: Vec<Fixture> = paper_apps()
        .into_iter()
        .map(|app| {
            let p = (app.build_sized)(41, 23);
            let inputs = inputs_for(&p, 17);
            let reference = execute_reference(&p, &inputs).expect("reference executes");
            (app.name.to_string(), p, inputs, reference)
        })
        .collect();

    let rt = Runtime::new(RuntimeConfig {
        workers: 3,
        queue_capacity: 4,
        admission: Admission::Block,
        ..RuntimeConfig::default()
    });

    std::thread::scope(|s| {
        for client in 0..CLIENTS {
            let rt = &rt;
            let fixtures = &fixtures;
            s.spawn(move || {
                for round in 0..ROUNDS {
                    for (name, p, inputs, reference) in fixtures {
                        let schedule = if (client + round) % 2 == 0 {
                            Schedule::Optimized
                        } else {
                            Schedule::Basic
                        };
                        let exec = rt
                            .execute(name, p, inputs.clone(), schedule)
                            .expect("runtime executes");
                        assert_outputs_match(
                            p,
                            reference,
                            &exec,
                            &format!("{name}/client{client}/round{round}/{schedule:?}"),
                        );
                    }
                }
            });
        }
    });

    let snap = rt.metrics();
    let total_requests = (CLIENTS * ROUNDS) as u64;
    for (name, ..) in &fixtures {
        let m = snap
            .pipeline(name)
            .unwrap_or_else(|| panic!("metrics for {name}"));
        assert_eq!(m.requests, total_requests, "{name} requests");
        assert_eq!(m.completed, total_requests, "{name} completed");
        assert_eq!(m.errors, 0, "{name} errors");
        assert_eq!(m.rejected, 0, "{name} rejected");
        // Each (app, schedule) pair compiles at most a handful of times
        // (concurrent first-misses can race), and everything else hits.
        assert!(m.cache_hits > 0, "{name} saw no cache hits");
        assert_eq!(m.cache_hits + m.cache_misses, total_requests);
    }
}

/// The second submission of the same pipeline is a plan-cache hit,
/// observable through the metrics snapshot.
#[test]
fn repeat_submission_is_cache_hit() {
    let app = &paper_apps()[0]; // Harris
    let p = (app.build_sized)(33, 21);
    let rt = Runtime::new(RuntimeConfig {
        workers: 1,
        ..RuntimeConfig::default()
    });
    for seed in [3, 5] {
        rt.execute(app.name, &p, inputs_for(&p, seed), Schedule::Optimized)
            .expect("runtime executes");
    }
    let snap = rt.metrics();
    let m = snap.pipeline(app.name).expect("metrics recorded");
    assert_eq!(m.requests, 2);
    assert_eq!(m.cache_misses, 1, "first submission plans");
    assert_eq!(m.cache_hits, 1, "second submission reuses the plan");
    assert_eq!(rt.cached_plans(), 1);
    // The snapshot serializes without external crates.
    let json = kfuse_obs::render_json(&snap.families());
    let doc = kfuse_obs::parse_json(&json).expect("families document parses");
    let hits = doc.sample("kfuse_plan_cache_hits_total", &[("pipeline", app.name)]);
    assert_eq!(hits.and_then(kfuse_obs::Json::as_num), Some(1.0));
}

/// A graceful shutdown drains everything that was admitted.
#[test]
fn shutdown_drains_admitted_jobs() {
    let app = &paper_apps()[1]; // Sobel
    let p = (app.build_sized)(29, 19);
    let inputs = inputs_for(&p, 7);
    let reference = execute_reference(&p, &inputs).expect("reference executes");
    let rt = Runtime::new(RuntimeConfig {
        workers: 1,
        queue_capacity: 16,
        ..RuntimeConfig::default()
    });
    let handles: Vec<_> = (0..8)
        .map(|_| {
            rt.submit(app.name, &p, inputs.clone(), Schedule::Optimized)
                .expect("admitted")
        })
        .collect();
    rt.shutdown();
    for h in handles {
        let exec = h.wait().expect("drained job completes");
        assert_outputs_match(&p, &reference, &exec, app.name);
    }
}
