//! Runs every experiment (E1–E14) in sequence, printing all tables.
//! Pass --quick for reduced sweeps; full runs take a few minutes.
fn main() {
    arm_experiments::bin_main("all");
}
