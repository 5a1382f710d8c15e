//! The `livephase` command-line entry point.
//!
//! Exit codes: 0 on success; 1 when a gate command (`lint`, `repro`,
//! `bench --gate`, `power-zoo`) completed and found violations, with the
//! report on stdout; 2 for usage, I/O, and other operational errors,
//! reported on stderr.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match livephase_cli::run(&argv) {
        Ok(report) => println!("{report}"),
        Err(e) => {
            if e.code() == 1 {
                // A gate failure's message is the report itself.
                println!("{e}");
            } else {
                eprintln!("error: {e}");
            }
            std::process::exit(e.code());
        }
    }
}
