//! Regenerates Local scheduling: LLS vs EDF/FIFO/SJF/IMP (see EXPERIMENTS.md). Pass --quick for a reduced sweep.
fn main() {
    arm_experiments::bin_main("e08");
}
