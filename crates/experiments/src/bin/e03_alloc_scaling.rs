//! Regenerates Figure 3: allocation algorithm cost and exploration ablation (see EXPERIMENTS.md). Pass --quick for a reduced sweep.
fn main() {
    arm_experiments::bin_main("e03");
}
