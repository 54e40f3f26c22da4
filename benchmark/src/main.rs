//! `benchmark`: the repository's one benchmark command.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! benchmark run [--seed N] [--seconds S] [--traced] [--smoke]
//! benchmark compare PARENT.txt CHANGE.txt
//! benchmark bless
//! ```
//!
//! The first form runs one workload and prints `workload metric value unit
//! n=<samples>` lines, then one JSON line: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. `run` runs every
//! workload, each in its own child process so memory and set-up belong to
//! that workload. `compare` judges two sets of runs metric by metric.
//! `bless` rewrites the golden pins. See README.md.

mod compare;
mod edge;
mod golden;
mod ledger;
mod load;
mod report;
mod repro;
mod stats;
mod wire;

use edge::{EdgeLoad, Mix};
use std::process::ExitCode;
use std::time::Duration;

/// How a workload generates its traffic.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    Repro,
    Edge(EdgeLoad),
}

/// The workloads, in `BENCHMARK.json` order. The rates are fixed here so
/// every commit is measured under the same load.
pub const WORKLOADS: [(&str, Kind); 4] = [
    ("repro", Kind::Repro),
    ("edge_warm", Kind::Edge(edge::WARM)),
    (
        "edge_cold",
        Kind::Edge(EdgeLoad {
            mix: Mix::Cold,
            r_mid: 600.0,
            observed: false,
        }),
    ),
    (
        "edge_observed",
        Kind::Edge(EdgeLoad {
            mix: Mix::Warm,
            r_mid: 600.0,
            observed: true,
        }),
    ),
];

/// Phase lengths of one run, derived from `--seconds`; `--smoke` cuts
/// every phase to a tenth.
#[derive(Debug, Clone)]
pub struct Lengths {
    /// Set-ups per run (an edge workload's `setup_s` is their median);
    /// also the fewest passes `repro` makes.
    pub setups: usize,
    /// Requests of the unloaded phase.
    pub unloaded: usize,
    /// The measured phase: the open-loop mid step of an edge workload,
    /// the experiment passes of `repro`.
    pub mid: Duration,
    /// The traced run's mid step; the traced run spends the rest of its
    /// time on the ladder and the in-process replay.
    pub traced_mid: Duration,
    /// One step of the traced run's ladder.
    pub step: Duration,
}

impl Lengths {
    pub fn new(seconds: f64, smoke: bool) -> Lengths {
        let s = if smoke { seconds * 0.1 } else { seconds };
        Lengths {
            setups: if smoke { 1 } else { 5 },
            unloaded: if smoke { 10 } else { 100 },
            mid: Duration::from_secs_f64(s),
            traced_mid: Duration::from_secs_f64(s * 0.25),
            step: Duration::from_secs_f64(s * 0.025),
        }
    }
}

struct Args {
    rest: Vec<String>,
}

impl Args {
    fn flag(&mut self, name: &str) -> bool {
        let before = self.rest.len();
        self.rest.retain(|a| a != name);
        self.rest.len() != before
    }

    fn value(&mut self, name: &str) -> Result<Option<String>, String> {
        let Some(i) = self.rest.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if i + 1 >= self.rest.len() {
            return Err(format!("{name} needs a value"));
        }
        let v = self.rest.remove(i + 1);
        self.rest.remove(i);
        Ok(Some(v))
    }

    fn parsed<T: std::str::FromStr>(&mut self, name: &str, default: T) -> Result<T, String> {
        match self.value(name)? {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value for {name}: {v}")),
        }
    }

    fn done(self) -> Result<(), String> {
        match self.rest.first() {
            None => Ok(()),
            Some(a) => Err(format!("unexpected argument {a}")),
        }
    }
}

const USAGE: &str = "usage: benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n       benchmark run [--seed N] [--seconds S] [--traced] [--smoke]\n       benchmark compare PARENT.txt CHANGE.txt\n       benchmark bless";

fn main() -> ExitCode {
    let mut args = Args {
        rest: std::env::args().skip(1).collect(),
    };
    let result = match args.rest.first().map(String::as_str) {
        Some("run") => {
            args.rest.remove(0);
            run_all(args)
        }
        Some("compare") => {
            args.rest.remove(0);
            match args.rest.as_slice() {
                [a, b] => compare::main(a, b),
                _ => Err(USAGE.to_string()),
            }
        }
        Some("bless") => bless(),
        _ => run_one(args),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// One workload in this process.
fn run_one(mut args: Args) -> Result<ExitCode, String> {
    let name = args.value("--workload")?.ok_or("--workload is required")?;
    let seed = args.parsed("--seed", golden::DEFAULT_SEED)?;
    let seconds: f64 = args.parsed("--seconds", 20.0)?;
    let trace: u8 = args.parsed("--trace", 0)?;
    let smoke = args.flag("--smoke");
    args.done()?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    if trace > 1 {
        return Err(format!("--trace must be 0 or 1, got {trace}"));
    }
    let kind = WORKLOADS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, k)| k)
        .ok_or_else(|| format!("unknown workload {name}"))?;
    let lengths = Lengths::new(seconds, smoke);
    let traced = trace == 1;
    let out = match (kind, traced) {
        (Kind::Repro, false) => repro::run(seed, &lengths),
        (Kind::Edge(load), false) => edge::run(load, seed, &lengths),
        (kind, true) => ledger::run(kind, seed, &lengths),
    };
    print!("{}", out.render(&name, traced));
    Ok(if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Every workload, each in a child process running the first form.
fn run_all(mut args: Args) -> Result<ExitCode, String> {
    let seed: u64 = args.parsed("--seed", golden::DEFAULT_SEED)?;
    let seconds: f64 = args.parsed("--seconds", 20.0)?;
    let traced = args.flag("--traced");
    let smoke = args.flag("--smoke");
    args.done()?;
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let mut ok = true;
    for (name, _) in WORKLOADS {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", name, "--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }]);
        if smoke {
            cmd.arg("--smoke");
        }
        let status = cmd
            .status()
            .map_err(|e| format!("start the {name} child: {e}"))?;
        ok &= status.success();
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn bless() -> Result<ExitCode, String> {
    let (edge_txt, repro_txt) = golden::render();
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("golden");
    for (file, text) in [("edge.txt", edge_txt), ("repro.txt", repro_txt)] {
        std::fs::write(dir.join(file), text).map_err(|e| format!("write golden/{file}: {e}"))?;
    }
    eprintln!("rewrote {}", dir.display());
    Ok(ExitCode::SUCCESS)
}
