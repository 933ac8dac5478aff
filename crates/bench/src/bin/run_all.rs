//! Regenerates the complete evaluation, in EXPERIMENTS.md order.
use pres_apps::WorkloadScale;
use pres_bench::experiments::{self, ABLATION_CAP, ATTEMPT_CAP, OVERHEAD_PROCESSORS};

fn main() {
    experiments::smoke().expect("pipeline smoke test");
    println!("{}", experiments::e1_table_bugs());
    let m = experiments::RecordingMatrix::run(OVERHEAD_PROCESSORS, WorkloadScale::Standard);
    println!("{}", m.render_overhead());
    println!("{}", m.render_logsize());
    let rows = experiments::e4_attempts(ATTEMPT_CAP);
    println!("{}", experiments::render_attempts(&rows, ATTEMPT_CAP));
    let points = experiments::e5_scalability(&[2, 4, 8, 16]);
    println!("{}", experiments::render_scalability(&points));
    let fb = experiments::e6_feedback(ABLATION_CAP);
    println!("{}", experiments::render_feedback(&fb, ABLATION_CAP));
    let certs = experiments::e7_certificates(100);
    println!("{}", experiments::render_certificates(&certs));
    let bbn = experiments::e8_bbn_sweep(&[1, 2, 4, 8, 16, 64]);
    println!("{}", experiments::render_bbn(&bbn));
    for mech in [
        pres_core::sketch::Mechanism::Sync,
        pres_core::sketch::Mechanism::Sys,
    ] {
        let rows = experiments::e9_ablation(200, mech);
        println!("{}", experiments::render_ablation_for(&rows, 200, mech));
    }
    let dist = experiments::e10_distribution(8, 300);
    println!("{}", experiments::render_distribution(&dist, 300));
}
