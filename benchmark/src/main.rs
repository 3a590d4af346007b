//! qbench — the repo's one benchmark. See `benchmark/README.md`.

mod bench;
mod compare;
mod json;
mod layers;
mod load;
mod pass;
mod procfs;
mod schedule;
mod spans;
mod stats;
mod suite;
mod workload;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("bench") => bench::main(&args[1..]),
        Some("run") => suite::main(&args[1..], false),
        Some("trace") => suite::main(&args[1..], true),
        Some("compare") => compare::main(&args[1..]),
        _ => {
            eprintln!(
                "usage: qbench bench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]\n       \
                 qbench run|trace [--seed <n>] [--seconds <s>] [--out <file>]\n       \
                 qbench compare <base file|dir> <new file|dir>"
            );
            2
        }
    };
    std::process::exit(code);
}
