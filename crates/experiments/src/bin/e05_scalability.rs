//! Regenerates Scalability with the number of peers (see EXPERIMENTS.md). Pass --quick for a reduced sweep.
fn main() {
    arm_experiments::bin_main("e05");
}
