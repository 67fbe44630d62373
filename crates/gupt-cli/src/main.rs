//! `gupt-cli` — a command-line front-end for the GUPT runtime.
//!
//! The paper's deployment story (§3) has a data owner hosting GUPT as a
//! service; this binary is the minimal such service for local use:
//!
//! ```text
//! gupt-cli generate census --rows 32561 --seed 7 --out ages.csv
//! gupt-cli ledger init --ledger ages.ledger --budget 5.0
//! gupt-cli query --data ages.csv --ledger ages.ledger \
//!     --program mean:0 --epsilon 0.5 --range 0,150
//! gupt-cli ledger show --ledger ages.ledger
//! ```
//!
//! `--ledger` names a state directory in the format `serve --state-dir`
//! writes: one dataset's WAL segments and snapshot. It persists the
//! lifetime budget across invocations, so repeated queries genuinely
//! draw down a shared ε — the privacy accounting is not per-process.
//! One process at a time may write it: a second query or server on the
//! same directory fails at once, naming the lock file.

mod args;
mod commands;
mod programs;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&argv) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
