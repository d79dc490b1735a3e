//! Regenerates Churn, failover and session repair (see EXPERIMENTS.md). Pass --quick for a reduced sweep.
fn main() {
    arm_experiments::bin_main("e07");
}
