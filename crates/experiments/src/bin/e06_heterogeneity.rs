//! Regenerates Heterogeneous peer capacities (see EXPERIMENTS.md). Pass --quick for a reduced sweep.
fn main() {
    arm_experiments::bin_main("e06");
}
