//! `ibox` — the command-line interface to the iBox reproduction.
//!
//! ```text
//! ibox fit <trace.{json,csv}> [-o profile.json] [--no-cross] [--with-reordering]
//! ibox simulate <profile.json> --protocol <name> [--duration S] [--seed N] [-o out.{json,csv}]
//! ibox metrics <trace.{json,csv}>
//! ibox synth --profile <name> --protocol <name> [--duration S] [--seed N] [-o trace.{json,csv}]
//! ```
//!
//! Traces are single-flow files: `.json` (the native `FlowTrace` format)
//! or `.csv` (`seq,send_ns,size,recv_ns`, empty `recv_ns` = lost).

use std::process::ExitCode;

mod args;
mod commands;
mod io;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            ibox_obs::error!("{e}");
            if let commands::CliError::Usage(_) = e {
                eprintln!();
                eprintln!("{}", commands::usage());
            }
            ExitCode::FAILURE
        }
    }
}
