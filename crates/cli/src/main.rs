//! `picl` — command-line frontend for the PiCL reproduction.
//!
//! ```text
//! picl run        --bench mcf [--scheme picl] [--instructions 10m] [--telemetry PREFIX] ...
//! picl compare    --bench mcf [--instructions 9m] [--epoch 3m] ...
//! picl crashlab   [--schemes all] [--bench mcf,gcc,lbm] [--crash-at 120k] ...
//! picl audit      --trace PREFIX.events.jsonl [--acs-gap 3]
//! picl sweep      --param acs-gap --values 0,1,3,7 [--bench gcc] ...
//! picl record     --bench lbm --out trace.picltrc [--events 100k]
//! picl replay     --trace trace.picltrc [--scheme picl] ...
//! picl store      run|dump|verify|torture|simdiff [--path store.nvm] ...
//! picl serve      run|torture [--sessions 4] [--path store.nvm] ...
//! picl ycsb       [--sessions 4] [--ops 20k] [--keys 100k] [--mix a] ...
//! picl obs        scrape|check|print|diff|overhead [--addr HOST:PORT] ...
//! picl benchmarks
//! picl help
//! ```

mod args;
mod bench;
mod commands;
mod obs;
mod serve;
mod store;

use std::process::ExitCode;

use args::Args;

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match Args::parse(raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", commands::USAGE);
            return ExitCode::FAILURE;
        }
    };
    match commands::dispatch(&parsed) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
