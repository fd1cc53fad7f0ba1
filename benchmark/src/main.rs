//! The dragonfly perf ledger: six named workloads, three end-to-end metrics,
//! a per-layer traced run.  See README.md.

mod child;
mod compare;
mod json;
mod ledger;
mod micro;
mod protocol;
mod stats;
mod surface;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: benchmark <command> [options]

  run      [--seed N] [--reps R] [--quick] [--out FILE]
           every workload R times (interleaved), the traced pass and the layer
           rows; prints the ledger as JSON; non-zero exit on a failed check
  trace    [--seed N] [--quick] [--out FILE]
           one untraced and one traced run per workload: the per-layer rows
  compare  A.json B.json
           judge ledger B against ledger A with the benchmark's own bounds;
           non-zero exit on a `worse` row or a higher failed-check share
  measure  --workload NAME --seed N --seconds S --trace 0|1
           one workload for about S seconds; the last line of standard output
           is the result object BENCHMARK.json's contract defines
  run-one  NAME [--seed N] [--quick] [--traced | --setup-only]
           (internal) one set-up and one run in this process, one JSON line
";

/// `--flag value` pairs and bare `--flag`s after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn flag(&mut self, name: &str) -> bool {
        match self.0.iter().position(|a| a == name) {
            Some(i) => {
                self.0.remove(i);
                true
            }
            None => false,
        }
    }

    fn value(&mut self, name: &str) -> Result<Option<String>, String> {
        let Some(i) = self.0.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if i + 1 >= self.0.len() {
            return Err(format!("`{name}` needs a value"));
        }
        self.0.remove(i);
        Ok(Some(self.0.remove(i)))
    }

    fn parsed<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        self.value(name)?
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("`{name} {v}`: not a valid value"))
            })
            .transpose()
    }

    fn positional(&mut self) -> Option<String> {
        let i = self.0.iter().position(|a| !a.starts_with("--"))?;
        Some(self.0.remove(i))
    }

    fn finish(self) -> Result<(), String> {
        match self.0.first() {
            None => Ok(()),
            Some(extra) => Err(format!("unexpected argument `{extra}`")),
        }
    }
}

fn read_ledger(path: &str) -> Result<json::Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn real_main() -> Result<bool, String> {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        return Err("no command given".into());
    }
    let command = argv.remove(0);
    let mut args = Args(argv);
    if cfg!(debug_assertions) && command != "compare" {
        return Err("refusing to measure a debug build: run with `cargo run --release`".into());
    }
    match command.as_str() {
        "run" | "trace" => {
            let quick = args.flag("--quick");
            let reps: usize = args.parsed("--reps")?.unwrap_or(3);
            if reps == 0 {
                return Err("`--reps` must be at least 1".into());
            }
            let opts = ledger::RunOptions {
                seed: args.parsed("--seed")?.unwrap_or(workloads::DEFAULT_SEED),
                reps: if quick { 1 } else { reps },
                quick,
                out: args.value("--out")?.map(PathBuf::from),
                trace_only: command == "trace",
            };
            args.finish()?;
            let (ledger, ok) = ledger::run_all(&opts)?;
            print!("{}", ledger.pretty());
            Ok(ok)
        }
        "compare" => {
            let (a, b) = match (args.positional(), args.positional()) {
                (Some(a), Some(b)) => (a, b),
                _ => return Err("`compare` needs two ledger files".into()),
            };
            args.finish()?;
            let (table, ok) = compare::compare(&read_ledger(&a)?, &read_ledger(&b)?)?;
            print!("{table}");
            Ok(ok)
        }
        "measure" => {
            let name = args
                .value("--workload")?
                .ok_or("`measure` needs `--workload`")?;
            let seed = args.parsed("--seed")?.ok_or("`measure` needs `--seed`")?;
            let seconds: f64 = args
                .parsed("--seconds")?
                .ok_or("`measure` needs `--seconds`")?;
            let traced = match args.value("--trace")?.as_deref() {
                Some("0") => false,
                Some("1") => true,
                _ => return Err("`measure` needs `--trace 0` or `--trace 1`".into()),
            };
            args.finish()?;
            ledger::measure(&name, seed, seconds, traced)
        }
        "run-one" => {
            let name = args.positional().ok_or("`run-one` needs a workload name")?;
            let seed = args.parsed("--seed")?.unwrap_or(workloads::DEFAULT_SEED);
            let quick = args.flag("--quick");
            let pass = match (args.flag("--traced"), args.flag("--setup-only")) {
                (false, false) => child::Pass::Plain,
                (true, false) => child::Pass::Traced,
                (false, true) => child::Pass::SetupOnly,
                (true, true) => {
                    return Err("`--traced` and `--setup-only` exclude each other".into())
                }
            };
            args.finish()?;
            let w = workloads::workload(&name, seed, quick)
                .ok_or_else(|| format!("unknown workload `{name}`"))?;
            let outcome = child::run_one(&w, pass);
            println!("{}", outcome.to_json(&w, pass).line());
            Ok(true)
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("error: {message}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
