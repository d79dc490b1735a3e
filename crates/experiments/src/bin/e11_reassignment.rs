//! Regenerates Adaptive session reassignment (see EXPERIMENTS.md). Pass --quick for a reduced sweep.
fn main() {
    arm_experiments::bin_main("e11");
}
