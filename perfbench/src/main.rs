//! `perfbench`: run one workload and print its metrics. See `USAGE`.

use std::process::ExitCode;

use perfbench::alloc::CountingAlloc;
use perfbench::cli::{parse, Command, USAGE};
use perfbench::stats::quantile;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn main() -> ExitCode {
    let opts = match parse(std::env::args().skip(1)) {
        Ok(Command::Run(opts)) => opts,
        Ok(Command::Help) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = perfbench::run(&opts);
    for m in &outcome.metrics {
        println!("{:<34} {:>18.6} {}", m.name, m.value, m.unit);
    }
    let q = |p| quantile(&outcome.rates, p);
    println!(
        "# workload {} seed {}: {} jobs_per_s samples, quartiles {:.0} {:.0} {:.0}, range {:.0}..{:.0}",
        opts.workload.name(),
        opts.seed,
        outcome.rates.len(),
        q(0.25),
        q(0.5),
        q(0.75),
        q(0.0),
        q(1.0),
    );
    println!(
        "# checks: {} of {} passed",
        outcome.attempted - outcome.failed,
        outcome.attempted
    );
    if opts.trace {
        match perfbench::trace::write_spans(&opts.spans) {
            Ok(n) => println!("# {n} spans written to {}", opts.spans.display()),
            Err(e) => {
                eprintln!("perfbench: writing {}: {e}", opts.spans.display());
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{}", outcome.json());
    ExitCode::SUCCESS
}
