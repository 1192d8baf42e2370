//! The repository benchmark: one command, three workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <tpcc-cold|tpcc-warm|service-mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run builds its inputs from `--seed`, measures a window of
//! `--seconds`, checks the program's outputs (the correctness gates), and
//! prints a report whose last line is one JSON object: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. A
//! traced run records spans around every call the benchmark makes into the
//! program's public API and writes them to `.perfbench/` at the checkout
//! root. Any failed gate exits with status 1. `--scale tiny` and
//! `--sabotage <tamper|expect>` exist for the smoke test.

mod machine;
mod report;
mod service;
mod stats;
mod tpcc;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use ccdb_tpcc::TpccScale;

use report::Workload;
use trace::Tracer;

/// Deliberate faults that must make a gate fire.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Sabotage {
    /// Alter a committed tuple on disk before the final audit.
    Tamper,
    /// Expect a value other than the sealed one from every verified read.
    Expect,
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tiny: bool,
    pub sabotage: Option<Sabotage>,
}

const USAGE: &str = "usage: ccdb-perfbench --workload <tpcc-cold|tpcc-warm|service-mixed> \
                     --seed <n> --seconds <s> --trace <0|1> [--scale tiny] \
                     [--sabotage tamper|expect]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::TpccCold,
        seed: 0,
        seconds: 10.0,
        trace: false,
        tiny: false,
        sabotage: None,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value for {flag}: {value} ({e})");
        match flag.as_str() {
            "--workload" => workload = Workload::parse(&value),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            "--scale" => args.tiny = value == "tiny",
            "--sabotage" => {
                args.sabotage = match value.as_str() {
                    "tamper" => Some(Sabotage::Tamper),
                    "expect" => Some(Sabotage::Expect),
                    _ => return Err(format!("unknown sabotage {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload names none of the three workloads")?;
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Scratch space under the checkout root, removed when the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..").join(".perfbench")
}

fn tpcc_sizes(args: &Args) -> tpcc::Sizes {
    let cold = args.workload == Workload::TpccCold;
    if args.tiny {
        return tpcc::Sizes {
            scale: TpccScale::tiny(),
            cache_pages: if cold { 24 } else { 8192 },
            nominal_txn_per_s: if cold { 200.0 } else { 500.0 },
            setups: 2,
            verified_reads: 4,
        };
    }
    tpcc::Sizes {
        scale: TpccScale::small(2),
        cache_pages: if cold { 192 } else { 32_768 },
        nominal_txn_per_s: if cold { 185.0 } else { 500.0 },
        setups: 5,
        verified_reads: 160,
    }
}

fn service_sizes(args: &Args) -> service::Sizes {
    if args.tiny {
        return service::Sizes {
            preload_keys: 200,
            key_space: 800,
            setups: 2,
            nominal_txn_per_s: 200.0,
            direct_proofs: 4,
        };
    }
    service::Sizes {
        preload_keys: 4000,
        key_space: 16_000,
        setups: 5,
        nominal_txn_per_s: 850.0,
        direct_proofs: 16,
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let out_dir = out_dir();
    let work = WorkDir(out_dir.join(format!("run-{}", std::process::id())));
    std::fs::create_dir_all(&work.0).map_err(|e| format!("{}: {e}", work.0.display()))?;
    let mut tracer = Tracer::new(args.trace, Instant::now());
    let k = tracer.wrap("crypto.kernels", 0, None, machine::kernels);
    let (mut outcome, tracer) = match args.workload {
        Workload::TpccCold | Workload::TpccWarm => {
            tpcc::run(args, &tpcc_sizes(args), &work.0, tracer)
        }
        Workload::ServiceMixed => service::run(args, &service_sizes(args), &work.0, tracer),
    }
    .map_err(|e| format!("workload error: {e}"))?;
    outcome.set("peak_rss_mb", machine::peak_rss_mb());
    outcome.set("crypto.sha256_4k_us", k.sha256_4k_us);
    outcome.set("crypto.lamport_verify_us", k.lamport_verify_us);
    outcome.set("crypto.addhash_fold_us", k.addhash_fold_us);
    let workload_name = args.workload.name();
    println!(
        "perfbench workload={workload_name} seed={} seconds={} trace={}",
        args.seed, args.seconds, args.trace as u8
    );
    println!("{}", machine::describe());
    println!(
        "kernels: sha256_4k_us={:.3} lamport_verify_us={:.3} addhash_fold_us={:.3}",
        k.sha256_4k_us, k.lamport_verify_us, k.addhash_fold_us
    );
    if args.trace {
        let path = out_dir.join(format!("trace-{workload_name}-seed{}.jsonl", args.seed));
        tracer.write_jsonl(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans: {} written to {}", tracer.spans().len(), path.display());
    }
    Ok(outcome.print(args.workload, args.trace))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perfbench: a correctness gate failed");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
