//! Regenerates Load-report period trade-off (see EXPERIMENTS.md). Pass --quick for a reduced sweep.
fn main() {
    arm_experiments::bin_main("e10");
}
