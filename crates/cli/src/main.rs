//! `lrgp` — command-line interface to the LRGP reproduction.
//!
//! Run `lrgp help` for usage. Subcommands: generate workload files, solve
//! them with LRGP, time the engine's steps, run the simulated-annealing
//! baseline, compare the two, simulate the distributed protocol, and
//! inspect workload files. The determinism-invariant static analyzer is its
//! own binary, `lrgp-lint`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bench;
mod commands;
mod run;

use commands::{parse, Command, USAGE};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse(args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if let Command::Help = command {
        println!("{USAGE}");
        return;
    }
    if let Err(e) = run::run(command) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
