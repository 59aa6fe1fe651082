//! Plan in the simulator, execute for real: the PDC decides placements on
//! the simulated substrates, then the *same plan* drives the thread-based
//! local backend with actual closures and bytes — the deployment story a
//! Mashup user would follow (profile once, run many times).
//!
//! ```text
//! cargo run --release --example plan_then_execute
//! ```

use mashup::dag::{DependencyPattern, Task, TaskProfile, WorkflowBuilder};
use mashup::local::{FaasPool, FaasPoolConfig, LocalBackend, LocalPlacement};
use mashup::prelude::*;
use std::time::Duration;

fn main() -> Result<(), AnalysisError> {
    // A checksum pipeline: many independent hash shards, one verifier.
    let mut b = WorkflowBuilder::new("checksum");
    b.initial_input_bytes(1.0e8);
    b.begin_phase();
    let hash = b.add_task(Task::new(
        "hash",
        64,
        TaskProfile::trivial()
            .compute(8.0)
            .io(1.5e6, 64.0)
            .memory(1.5)
            .contention(2.0),
    ));
    b.begin_phase();
    let verify = b.add_task(Task::new(
        "verify",
        1,
        TaskProfile::trivial().compute(20.0).io(4096.0, 64.0),
    ));
    b.depend(verify, hash, DependencyPattern::AllToAll);
    let workflow = b.build().expect("valid workflow");

    // --- 1. PLAN on the simulated substrates -----------------------------
    let cfg = MashupConfig::aws(2);
    let outcome = Mashup::new(cfg).try_run(&workflow)?;
    println!("simulated plan (2-node cluster):");
    for d in &outcome.pdc.decisions {
        println!(
            "  {:<8} -> {:<10} (T_vm {:.1}s vs T_serverless≈{:.1}s)",
            d.name,
            d.platform.to_string(),
            d.t_vm_secs,
            d.t_serverless_est_secs
        );
    }
    println!("\nsimulated timeline:\n{}", outcome.report.render_gantt(48));

    // --- 2. EXECUTE the same plan on the local backend -------------------
    let mut backend = LocalBackend::new(
        4,
        FaasPool::new(FaasPoolConfig {
            cold_start: Duration::from_millis(15),
            keep_alive: Duration::from_secs(10),
            timeout: Duration::from_secs(30),
        }),
    );
    backend.store().put("initial", vec![7u8; 4096]);
    backend.register_fn("hash", |ctx| {
        // FNV over the shared input, salted by the component index.
        let mut h: u64 = 0xcbf29ce484222325 ^ ctx.component as u64;
        for b in ctx.inputs.iter().flat_map(|b| b.iter()) {
            h ^= *b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h.to_le_bytes().to_vec()
    });
    backend.register_fn("verify", |ctx| {
        let combined = ctx
            .inputs
            .iter()
            .map(|b| u64::from_le_bytes(b.as_ref().try_into().expect("u64")))
            .fold(0u64, |a, h| a ^ h);
        combined.to_le_bytes().to_vec()
    });

    let plan = outcome.pdc.plan.clone();
    let report = backend.run(&workflow, move |r| {
        match plan.platform(r).expect("plan covers workflow") {
            Platform::Serverless => LocalPlacement::Spawn,
            Platform::VmCluster => LocalPlacement::Pool,
        }
    });

    let digest = backend.store().must_get("out:verify:0");
    println!("local execution under the simulated plan:");
    for t in &report.tasks {
        println!(
            "  {:<8} {:?}  {:>7.1} ms  ({} cold starts)",
            t.name,
            t.placement,
            t.wall_secs * 1000.0,
            t.cold_starts
        );
    }
    println!(
        "combined digest: {:016x}  (wall {:.1} ms)",
        u64::from_le_bytes(digest.as_ref().try_into().expect("u64")),
        report.wall_secs * 1000.0
    );
    Ok(())
}
