//! Regenerates Gossip convergence of inter-domain summaries (see EXPERIMENTS.md). Pass --quick for a reduced sweep.
fn main() {
    arm_experiments::bin_main("e12");
}
