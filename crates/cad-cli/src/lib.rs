//! Library backing the `cad` command-line tool.
//!
//! The binary (`src/main.rs`) is a thin wrapper over [`run`], so the
//! whole command surface — parsing, dispatch, output formatting — is
//! unit-testable without spawning processes.
//!
//! ```text
//! cad detect   --input seq.txt [--l 5 | --delta 3.5] [--kind cad|adj|com]
//!              [--engine auto|exact|approx] [--k 50]
//! cad score    --input seq.txt [--kind cad|adj|com] [--top 20]
//! cad generate --dataset toy|gmm|enron|dblp|precip [--out seq.txt] [--seed 7]
//! ```

#![warn(missing_docs)]

pub mod cli;
pub mod commands;
pub mod watch;

pub use cli::{Cli, Command};

/// Parse arguments and run; returns the process exit code.
///
/// Exit codes: 0 success, 1 runtime error, 2 flag-parse error.
pub fn run<I: IntoIterator<Item = String>>(args: I, out: &mut dyn std::io::Write) -> i32 {
    match Cli::parse(args) {
        Ok(cli) => match commands::dispatch(&cli, out) {
            Ok(()) => 0,
            Err(e) => {
                let _ = writeln!(out, "error: {e}");
                1
            }
        },
        Err(msg) => {
            let _ = writeln!(out, "{msg}");
            2
        }
    }
}
