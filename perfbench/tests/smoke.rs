//! The benchmark's smoke test: tiny-scale runs of every workload, traced
//! and untraced, must print every metric `BENCHMARK.json` names with its
//! unit, and deliberate faults must make the correctness gates fire.
//!
//! `cargo test --release --manifest-path perfbench/Cargo.toml`

use std::collections::BTreeMap;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["tpcc-cold", "tpcc-warm", "service-mixed"];

/// A JSON value; only what `BENCHMARK.json` and the result line use.
#[derive(Debug)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser { b: text.as_bytes(), i: 0 };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.b.len(), "trailing bytes after JSON value");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("{other:?} is not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            other => panic!("{other:?} is not an array"),
        }
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.b[self.i], c, "expected {} at byte {}", c as char, self.i);
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.b[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.b[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else { panic!("object key must be a string") };
                    self.eat(b':');
                    m.insert(k, self.value());
                    self.ws();
                    self.i += 1;
                    if self.b[self.i - 1] == b'}' {
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut v = Vec::new();
                self.ws();
                if self.b[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(v);
                }
                loop {
                    v.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.b[self.i - 1] == b']' {
                        return Json::Arr(v);
                    }
                }
            }
            b'"' => {
                let start = self.i + 1;
                self.i = start;
                while self.b[self.i] != b'"' {
                    assert_ne!(self.b[self.i], b'\\', "escapes are not expected here");
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.b[start..self.i - 1].to_vec()).expect("utf-8"))
            }
            b't' | b'f' | b'n' => {
                for (word, v) in
                    [("true", Json::Bool(true)), ("false", Json::Bool(false)), ("null", Json::Null)]
                {
                    if self.b[self.i..].starts_with(word.as_bytes()) {
                        self.i += word.len();
                        return v;
                    }
                }
                panic!("bad literal at byte {}", self.i)
            }
            _ => {
                let start = self.i;
                while self.i < self.b.len() && b"+-.eE0123456789".contains(&self.b[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.b[start..self.i]).expect("ascii");
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
            }
        }
    }
}

fn benchmark() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    benchmark()
        .get(section)
        .arr()
        .iter()
        .map(|m| (m.get("name").str().to_string(), m.get("unit").str().to_string()))
        .collect()
}

struct Run {
    code: i32,
    stdout: String,
}

fn run(workload: &str, trace: u8, extra: &[&str]) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_ccdb-perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1", "--scale", "tiny"])
        .args(["--trace", &trace.to_string()])
        .args(extra)
        .output()
        .expect("spawn the benchmark");
    Run {
        code: out.status.code().unwrap_or(-1),
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
    }
}

/// The result object on the last line of standard output.
fn result(r: &Run) -> Json {
    Json::parse(r.stdout.lines().last().expect("the run printed nothing"))
}

fn assert_metrics(workload: &str, trace: u8) {
    let r = run(workload, trace, &[]);
    let res = result(&r);
    assert_eq!(r.code, 0, "{workload} trace={trace} failed:\n{}", r.stdout);
    assert!(matches!(res.get("correct"), Json::Bool(true)));
    let Json::Num(attempted) = res.get("attempted") else { panic!("attempted is not a number") };
    assert!(*attempted >= 1.0);
    let Json::Obj(metrics) = res.get("metrics") else { panic!("metrics is not an object") };
    let want = declared(if trace == 0 { "end_to_end" } else { "per_layer" });
    assert_eq!(metrics.len(), want.len(), "{workload} trace={trace}: metric count");
    for (name, unit) in want {
        let m = metrics.get(&name).unwrap_or_else(|| panic!("{workload}: {name} not printed"));
        assert_eq!(m.get("unit").str(), unit, "{workload}: unit of {name}");
        assert!(matches!(m.get("value"), Json::Num(v) if v.is_finite()), "{workload}: {name}");
    }
}

#[test]
fn tpcc_cold_prints_every_metric() {
    assert_metrics("tpcc-cold", 0);
    assert_metrics("tpcc-cold", 1);
}

#[test]
fn tpcc_warm_prints_every_metric() {
    assert_metrics("tpcc-warm", 0);
    assert_metrics("tpcc-warm", 1);
}

#[test]
fn service_mixed_prints_every_metric() {
    assert_metrics("service-mixed", 0);
    assert_metrics("service-mixed", 1);
}

/// Each sabotage must fail the run through the named gates.
#[test]
fn correctness_gates_fire() {
    for workload in WORKLOADS {
        let tamper_gates: &[&str] = if workload == "service-mixed" {
            &["audit_clean", "no_tamper_alert"]
        } else {
            &["audit_clean"]
        };
        for (sabotage, gates) in [("tamper", tamper_gates), ("expect", &["verified_reads"][..])] {
            let r = run(workload, 0, &["--sabotage", sabotage]);
            assert_eq!(r.code, 1, "{workload} --sabotage {sabotage} did not fail:\n{}", r.stdout);
            for gate in gates {
                assert!(
                    r.stdout.contains(&format!("gate {gate}: FAILED")),
                    "{workload} --sabotage {sabotage} did not fail gate {gate}:\n{}",
                    r.stdout
                );
            }
            assert!(matches!(result(&r).get("correct"), Json::Bool(false)));
        }
    }
}

#[test]
fn bad_arguments_exit_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_ccdb-perfbench"))
        .args(["--workload", "no-such-workload", "--seed", "1", "--seconds", "1", "--trace", "0"])
        .output()
        .expect("spawn the benchmark");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
