//! Regenerates Load-balancing fairness vs baseline allocators (see EXPERIMENTS.md). Pass --quick for a reduced sweep.
fn main() {
    arm_experiments::bin_main("e04");
}
