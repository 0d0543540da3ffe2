//! `bench`: the repository's benchmark. See `benchmark/README.md`.

mod compare;
mod json;
mod layers;
mod measure;
mod metrics;
mod oracle;
mod spans;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use json::Json;
use measure::{Budget, Outcome};
use metrics::{contract_end_to_end, contract_per_layer};
use workloads::{Workload, DEFAULT_SEED};

const USAGE: &str = "\
bench: end-to-end and per-layer benchmark of the SENN simulator

  bench run --workload <name|all> [--seed S] [--reps N] [--out FILE] [--quick]
      Prints every end-to-end metric by name with its unit and checks
      correctness. One process per workload; one untimed warm-up repetition,
      then N (default 5) timed ones.
  bench trace --workload <name> [--seed S] [--out FILE] [--quick]
      The separate traced run: per-layer metrics, spans in
      <out-dir>/trace-<name>.jsonl.
  bench aa [--seed S] [--reps N] [--out FILE] [--quick]
      Runs every workload's full set twice and holds the two against each
      other and the bounds; writes the spread it saw (default
      benchmark/noise_floor.json).
  bench compare A.json B.json
      Two `bench run` outputs row by row, A the base.
  bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
      The BENCHMARK.json form: measures for s seconds and prints one JSON
      object as the last line.
  bench manifest
      Prints BENCHMARK.json as the metric and workload tables define it.

  --out-dir DIR   where span files and scratch files go (default benchmark/out)
  --quick         a tenth of the simulated duration; for smoke tests only
  workloads: county_road million_free rural_uplink downtown_snnn
  default seed 20060402 (20060403 is held out for later claims)
";

/// Parsed command line: positional words and `--key value` options.
#[derive(Debug)]
struct Args {
    words: Vec<String>,
    options: Vec<(String, String)>,
    quick: bool,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            words: Vec::new(),
            options: Vec::new(),
            quick: false,
        };
        let mut raw = raw.peekable();
        while let Some(arg) = raw.next() {
            match arg.strip_prefix("--") {
                Some("quick") => args.quick = true,
                Some(key) => {
                    let value = raw.next().ok_or_else(|| format!("--{key} needs a value"))?;
                    args.options.push((key.to_string(), value));
                }
                None => args.words.push(arg),
            }
        }
        Ok(args)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.options
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("--{key}: '{text}' is not a valid number")),
        }
    }

    fn allow(&self, known: &[&str]) -> Result<(), String> {
        match self
            .options
            .iter()
            .find(|(k, _)| !known.contains(&k.as_str()))
        {
            Some((k, _)) => Err(format!("unknown option --{k}")),
            None => Ok(()),
        }
    }

    fn workload(&self) -> Result<Workload, String> {
        let name = self.get("workload").ok_or("--workload is required")?;
        Workload::from_name(name).ok_or_else(|| format!("unknown workload '{name}'"))
    }

    fn out_dir(&self) -> PathBuf {
        PathBuf::from(self.get("out-dir").unwrap_or("benchmark/out"))
    }
}

fn main() -> ExitCode {
    // `senn_par::worker_count` reads this variable; a stray value in the
    // caller's environment would change what the shard fan-out measures.
    std::env::remove_var("SENN_THREADS");
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() || raw.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return if raw.is_empty() {
            ExitCode::from(2)
        } else {
            ExitCode::SUCCESS
        };
    }
    let outcome = Args::parse(raw.into_iter()).and_then(|args| {
        match args.words.first().map(String::as_str) {
            Some("run") => run(&args),
            Some("trace") => traced(&args),
            Some("aa") => aa(&args),
            Some("compare") => compared(&args),
            Some("manifest") => {
                print!("{}", manifest().encode_pretty());
                Ok(true)
            }
            Some(other) => Err(format!("unknown command '{other}'")),
            None => contract(&args),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("bench: {message}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// How the driver starts the benchmark, from the root of a checkout.
const COMMAND: [&str; 10] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--bin",
    "bench",
    "--",
];

/// Seconds one run measures. Sized to the cap on all runs together: about
/// 30 s per invocation with the last repetition's overrun and the set-up
/// top-up, which still holds four repetitions of the longest workload.
const RUN_SECONDS: f64 = 25.0;

/// `BENCHMARK.json`, from the tables in `metrics.rs` and `workloads.rs`.
fn manifest() -> Json {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        ("command", strings(&COMMAND)),
        ("paths", strings(&["benchmark"])),
        ("run_seconds", Json::Num(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                Workload::ALL
                    .into_iter()
                    .map(|w| {
                        Json::obj([("name", Json::str(w.name())), ("why", Json::str(w.why()))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                contract_end_to_end()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                contract_per_layer()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The box and the build, recorded with every stored result.
fn environment(seed: u64, reps: usize, quick: bool) -> Json {
    let first_line = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.lines().next().map(str::to_string))
            .unwrap_or_else(|| "unknown".to_string())
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("rustc", Json::str(first_line("rustc", &["-V"]))),
        (
            "git_commit",
            Json::str(first_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::Num(seed as f64)),
        ("reps", Json::Num(reps as f64)),
        ("quick", Json::Bool(quick)),
    ])
}

fn document(kind: &str, env: Json, workloads: Vec<Json>) -> Json {
    Json::obj([
        ("schema", Json::Num(1.0)),
        ("kind", Json::str(kind)),
        ("env", env),
        ("workloads", Json::Arr(workloads)),
    ])
}

fn write_file(path: &Path, doc: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.encode_pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

fn read_file(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `bench run`.
fn run(args: &Args) -> Result<bool, String> {
    args.allow(&["workload", "seed", "reps", "out", "out-dir"])?;
    let seed = args.number("seed", DEFAULT_SEED)?;
    let reps: usize = args.number("reps", 5)?;
    if reps == 0 {
        return Err("--reps must be at least 1".into());
    }
    let out = args.get("out").map(PathBuf::from);
    let (ok, workloads) = if args.get("workload") == Some("all") {
        run_all(seed, reps, args.quick, &args.out_dir())?
    } else {
        let outcome = measure::measure(args.workload()?, seed, args.quick, Budget::Reps(reps));
        print!("{}", outcome.report());
        (outcome.correct(), vec![outcome.to_json()])
    };
    if let Some(path) = out {
        let doc = document("run", environment(seed, reps, args.quick), workloads);
        write_file(&path, &doc)?;
    }
    Ok(ok)
}

/// Every workload in a process of its own, one after the other, so that
/// each `peak_rss_mb` is that workload's alone.
fn run_all(
    seed: u64,
    reps: usize,
    quick: bool,
    out_dir: &Path,
) -> Result<(bool, Vec<Json>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut ok = true;
    let mut workloads = Vec::new();
    for w in Workload::ALL {
        let scratch = out_dir.join(format!(".run-{}-{}.json", w.name(), std::process::id()));
        let mut child = Command::new(&exe);
        child
            .args(["run", "--workload", w.name()])
            .args(["--seed", &seed.to_string(), "--reps", &reps.to_string()])
            .arg("--out")
            .arg(&scratch);
        if quick {
            child.arg("--quick");
        }
        let status = child
            .status()
            .map_err(|e| format!("cannot start the {} run: {e}", w.name()))?;
        ok &= status.success();
        let doc = read_file(&scratch);
        let _ = std::fs::remove_file(&scratch);
        let doc = doc?;
        let stored = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .and_then(|a| a.first())
            .ok_or_else(|| format!("the {} run left no result", w.name()))?;
        workloads.push(stored.clone());
    }
    Ok((ok, workloads))
}

/// `bench trace`.
fn traced(args: &Args) -> Result<bool, String> {
    args.allow(&["workload", "seed", "out", "out-dir"])?;
    let seed = args.number("seed", DEFAULT_SEED)?;
    let outcome = trace::trace(args.workload()?, seed, args.quick, &args.out_dir())
        .map_err(|e| format!("cannot write the span file: {e}"))?;
    print!("{}", outcome.report());
    if let Some(path) = args.get("out") {
        let doc = document(
            "trace",
            environment(seed, 1, args.quick),
            vec![outcome.to_json()],
        );
        write_file(Path::new(path), &doc)?;
    }
    Ok(outcome.correct())
}

/// `bench compare`.
fn compared(args: &Args) -> Result<bool, String> {
    args.allow(&["out-dir"])?;
    let [_, a, b] = args.words.as_slice() else {
        return Err("compare takes exactly two files".into());
    };
    let result = compare::compare(&read_file(Path::new(a))?, &read_file(Path::new(b))?)?;
    print!("{}", result.report());
    Ok(!result.regressed() && result.count_changes.is_empty())
}

/// `bench aa`: the same commit against itself. The spread it finds is the
/// noise floor the bounds have to clear.
fn aa(args: &Args) -> Result<bool, String> {
    args.allow(&["seed", "reps", "out", "out-dir"])?;
    let seed = args.number("seed", DEFAULT_SEED)?;
    let reps: usize = args.number("reps", 5)?;
    let out = PathBuf::from(args.get("out").unwrap_or("benchmark/noise_floor.json"));
    let env = environment(seed, reps, args.quick);
    let mut sets = Vec::new();
    let mut ok = true;
    for label in ["A", "B"] {
        println!("== set {label} ==");
        let (set_ok, workloads) = run_all(seed, reps, args.quick, &args.out_dir())?;
        ok &= set_ok;
        sets.push(document("run", env.clone(), workloads));
    }
    let result = compare::compare(&sets[0], &sets[1])?;
    println!("== A/A: two full sets of the same commit ==");
    print!("{}", result.report());
    let mut rows = Vec::new();
    for r in &result.rows {
        let within = r.worse_by.abs() <= r.allowed;
        if !within {
            println!(
                "A/A EXCEEDS ITS BOUND: {} {} moved {:+.2}% of {:.6} (bound {:.0}%): raise --reps",
                r.workload,
                r.metric.name,
                100.0 * r.worse_share(),
                r.a.value,
                100.0 * r.metric.bound
            );
        }
        ok &= within;
        rows.push(Json::obj([
            ("workload", Json::str(r.workload.as_str())),
            ("metric", Json::str(r.metric.name)),
            ("unit", Json::str(r.metric.unit)),
            ("median_a", Json::Num(r.a.value)),
            ("median_b", Json::Num(r.b.value)),
            ("worse_share_of_a", Json::Num(r.worse_share())),
            ("bound", Json::Num(r.metric.bound)),
            ("bound_abs", Json::Num(r.metric.bound_abs)),
            ("within_bound", Json::Bool(within)),
        ]));
    }
    ok &= result.count_changes.is_empty();
    let doc = Json::obj([
        ("schema", Json::Num(1.0)),
        ("kind", Json::str("aa")),
        ("env", env),
        (
            "exact_counts_identical",
            Json::Bool(result.count_changes.is_empty()),
        ),
        ("rows", Json::Arr(rows)),
    ]);
    write_file(&out, &doc)?;
    println!("A/A spread written to {}", out.display());
    Ok(ok)
}

/// The `BENCHMARK.json` form. The last line of standard output is the one
/// JSON object the contract asks for.
fn contract(args: &Args) -> Result<bool, String> {
    args.allow(&["workload", "seed", "seconds", "trace", "out-dir"])?;
    let workload = args.workload()?;
    let seed = args.number("seed", DEFAULT_SEED)?;
    let seconds: f64 = args.number("seconds", 10.0)?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be a positive number".into());
    }
    let line = match args.get("trace").unwrap_or("0") {
        "0" => {
            let outcome = measure::measure(workload, seed, args.quick, Budget::Seconds(seconds));
            print!("{}", outcome.report());
            result_line(&outcome)
        }
        "1" => {
            let outcome = trace::trace(workload, seed, args.quick, &args.out_dir())
                .map_err(|e| format!("cannot write the span file: {e}"))?;
            print!("{}", outcome.report());
            let metrics = contract_per_layer().map(|m| {
                let value = outcome.values.get(m.name).unwrap_or(f64::NAN);
                (m.name, reading(value, m.unit))
            });
            Json::obj([
                ("correct", Json::Bool(outcome.correct())),
                ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
                ("failed", Json::Num(outcome.failed as f64)),
                ("metrics", Json::obj(metrics)),
            ])
        }
        other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
    };
    println!("{}", line.encode());
    Ok(line.get("correct").and_then(Json::as_bool) == Some(true))
}

fn reading(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// `attempted` and `failed` are operations over all timed repetitions.
fn result_line(outcome: &Outcome) -> Json {
    let reps = outcome.reps.len() as u64;
    let readings = outcome.readings();
    let metrics = contract_end_to_end().map(|m| {
        let r = readings
            .iter()
            .find(|r| r.metric.name == m.name)
            .expect("every end-to-end metric is read");
        (m.name, reading(r.value, m.unit))
    });
    Json::obj([
        ("correct", Json::Bool(outcome.correct())),
        (
            "attempted",
            Json::Num((outcome.ops_total() * reps).max(1) as f64),
        ),
        ("failed", Json::Num((outcome.ops_failed() * reps) as f64)),
        ("metrics", Json::obj(metrics)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_what_the_tables_define() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let on_disk = read_file(&path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            manifest(),
            "regenerate with `bench manifest > BENCHMARK.json`"
        );
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.len() <= 64 * 1024);
        for part in COMMAND {
            assert!(part.len() <= 200 && !part.starts_with('/') && !part.contains(".."));
        }
        for w in Workload::ALL {
            assert!(json::valid_name(w.name()));
        }
    }

    #[test]
    fn arguments_parse_or_explain() {
        let parse = |line: &str| Args::parse(line.split_whitespace().map(str::to_string));
        let args = parse("run --workload county_road --reps 3 --quick").unwrap();
        assert_eq!(args.words, vec!["run"]);
        assert!(args.quick);
        assert_eq!(args.workload().unwrap(), Workload::CountyRoad);
        assert_eq!(args.number("reps", 5usize), Ok(3));
        assert_eq!(args.number("seed", 7u64), Ok(7));
        assert!(args.allow(&["workload", "reps"]).is_ok());
        assert!(args.allow(&["workload"]).unwrap_err().contains("--reps"));
        assert!(parse("run --workload")
            .unwrap_err()
            .contains("needs a value"));
        let bad = parse("run --workload nowhere --reps many").unwrap();
        assert!(bad.workload().unwrap_err().contains("nowhere"));
        assert!(bad.number("reps", 5usize).unwrap_err().contains("many"));
    }
}
