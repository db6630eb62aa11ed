fn main() {
    smr_benchmark::cli::main();
}
