//! Regenerates Figure 1: resource graph and produced service graph (see EXPERIMENTS.md). Pass --quick for a reduced sweep.
fn main() {
    arm_experiments::bin_main("e01");
}
