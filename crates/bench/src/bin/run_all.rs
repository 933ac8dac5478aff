//! Prints the complete evaluation, E1–E10 in EXPERIMENTS.md order: the
//! text pinned in `tests/data/paper.txt`.
fn main() {
    print!("{}", pres_bench::experiments::paper());
}
