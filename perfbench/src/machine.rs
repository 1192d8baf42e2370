//! The machine block and the `ccdb_crypto` kernel rates printed with every
//! run, so per-layer counts (KiB hashed, signatures checked, folds) can be
//! turned into estimated time on the machine that produced them.

use std::hint::black_box;
use std::time::Instant;

use ccdb_crypto::{sha256, AddHash, LamportKeyPair};

use crate::stats::median;

/// One line describing where the numbers came from.
pub fn describe() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let yn = |b: bool| if b { "yes" } else { "no" };
    #[cfg(target_arch = "x86_64")]
    let flags = format!(
        "sha_ni={} avx512f={} avx2={}",
        yn(std::arch::is_x86_feature_detected!("sha")),
        yn(std::arch::is_x86_feature_detected!("avx512f")),
        yn(std::arch::is_x86_feature_detected!("avx2")),
    );
    #[cfg(not(target_arch = "x86_64"))]
    let flags = "sha_ni=no avx512f=no avx2=no".to_string();
    format!(
        "machine: nproc={nproc} {flags} rustc=\"{}\" fsync=off io_latency_emulation=off",
        env!("PERFBENCH_RUSTC_VERSION"),
    )
}

/// Per-call kernel costs in µs, each the median of five timed batches.
pub struct Kernels {
    pub sha256_4k_us: f64,
    pub lamport_verify_us: f64,
    pub addhash_fold_us: f64,
}

fn per_call_us(iters: u32, mut f: impl FnMut()) -> f64 {
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_secs_f64() * 1e6 / f64::from(iters)
        })
        .collect();
    median(&batches)
}

pub fn kernels() -> Kernels {
    let page: Vec<u8> = (0..4096u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8).collect();
    let sha256_4k_us = per_call_us(400, || {
        black_box(sha256(black_box(&page)));
    });
    let kp = LamportKeyPair::from_seed(&[7; 32]);
    let msg = sha256(b"ccdb perfbench epoch head");
    let sig = kp.sign(&msg);
    let lamport_verify_us = per_call_us(40, || {
        assert!(black_box(kp.public_key()).verify(black_box(&msg), black_box(&sig)));
    });
    let tuple = &page[..100];
    let mut acc = AddHash::new();
    let addhash_fold_us = per_call_us(2000, || {
        acc.add(black_box(tuple));
    });
    black_box(acc);
    Kernels { sha256_4k_us, lamport_verify_us, addhash_fold_us }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
