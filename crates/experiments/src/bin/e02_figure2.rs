//! Regenerates Figure 2: task assignment walkthrough (see EXPERIMENTS.md). Pass --quick for a reduced sweep.
fn main() {
    arm_experiments::bin_main("e02");
}
