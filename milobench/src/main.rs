//! `milobench --workload <ctrl10k|micro_timed|serve_soak> [--seed N]
//! [--seconds N] [--trace 0|1] [--tiny]`
//!
//! Prints human-readable detail lines, then one JSON result line. Exits
//! 0 when every output passed its checks, 1 when one failed, 2 on a
//! usage or set-up error.

use milobench::flows::{self, Workload};
use milobench::host::Normalizer;
use milobench::report::{self, Outcome};
use milobench::{env, soak, stats, Spec};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

fn parse_args() -> Result<Spec, String> {
    let mut spec = Spec {
        workload: String::new(),
        seed: 7,
        seconds: 16,
        traced: false,
        tiny: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            spec.tiny = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => spec.workload = value.clone(),
            "--seed" => spec.seed = number()?,
            "--seconds" => spec.seconds = number()?,
            "--trace" => {
                spec.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(spec)
}

enum Inputs {
    Flows(Workload, Vec<flows::Design>),
    Soak(Box<soak::Inputs>),
}

fn setup(spec: &Spec) -> Result<Inputs, String> {
    let inputs = match spec.workload.as_str() {
        "ctrl10k" => Inputs::Flows(Workload::Ctrl10k, Workload::Ctrl10k.designs(spec.tiny)?),
        "micro_timed" => Inputs::Flows(
            Workload::MicroTimed,
            Workload::MicroTimed.designs(spec.tiny)?,
        ),
        "serve_soak" => Inputs::Soak(Box::new(soak::setup(spec.seed, spec.seconds, spec.tiny)?)),
        other => return Err(format!("unknown workload {other:?}")),
    };
    flows::warm_up()?;
    Ok(inputs)
}

fn main() {
    let settings = env::fix_environment();
    let spec = match parse_args() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("milobench: {e}");
            std::process::exit(2);
        }
    };
    println!("{settings}");
    println!(
        "run: workload={} seed={} seconds={} trace={} tiny={} serve_cache_bytes={} \
         serve_workers=1 serve_cache_dir=none host_threads={}",
        spec.workload,
        spec.seed,
        spec.seconds,
        u8::from(spec.traced),
        spec.tiny,
        soak::CACHE_BYTES,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );

    let mut norm = Normalizer::new();
    let mut setup_times = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUPS {
        norm.reopen();
        let (built, _, scaled) = norm.time(|| setup(&spec));
        match built {
            Ok(i) => inputs = Some(i),
            Err(e) => {
                eprintln!("milobench: set-up failed: {e}");
                std::process::exit(2);
            }
        }
        setup_times.push(scaled);
    }
    let inputs = inputs.expect("at least one set-up ran");
    let setup_s = stats::median(&setup_times);
    println!("setup: {SETUPS} set-ups, normalized seconds {setup_times:?}");

    let mut outcome = Outcome::default();
    match &inputs {
        Inputs::Flows(w, designs) => {
            flows::run(*w, &spec, setup_s, designs, &mut norm, &mut outcome)
        }
        Inputs::Soak(i) => soak::run(i, &spec, setup_s, &mut norm, &mut outcome),
    }
    outcome.set("host.ref_ms", norm.ref_ms());
    println!("host: kernel median {:.4} ms", norm.ref_ms());
    // Shut the daemon down and join the host sampler before exiting.
    drop(inputs);
    drop(norm);

    let names = if spec.traced {
        report::per_layer()
    } else {
        report::end_to_end()
    };
    println!("{}", outcome.line(&names));
    if outcome.failed > 0 || outcome.attempted == 0 {
        std::process::exit(1);
    }
}
