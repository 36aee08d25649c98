//! Command-line entry point; prints progress, the machine, and the result
//! line last.

use hyscale_e2ebench::output::{machine_line, END_TO_END, PER_LAYER};
use hyscale_e2ebench::{run, Settings};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let settings = match Settings::parse(&args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload paper-mix|cohort-flood|graph-storm \
                 [--seed N] [--seconds S] [--trace 0|1] [--size full|tiny]"
            );
            std::process::exit(2);
        }
    };
    println!("{}", machine_line());
    let outcome = run(&settings);
    // Checkpoints and journals live only as long as the invocation.
    let _ = std::fs::remove_dir_all(&settings.scratch);
    if let Some(parent) = settings.scratch.parent() {
        // Only succeeds once no other invocation is using it.
        let _ = std::fs::remove_dir(parent);
    }
    let expected: &[(&str, &str)] = if settings.trace {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    for (name, unit) in expected {
        if let Some(v) = outcome.get(name) {
            println!("metric {name} = {v} {unit}");
        }
    }
    for e in &outcome.errors {
        println!("check failed: {e}");
    }
    match outcome.json(expected) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(1);
        }
    }
}
