//! The repository benchmark.
//!
//! ```text
//! dcgn_benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! dcgn_benchmark run all|<workload> [--seed n] [--seconds s]
//! dcgn_benchmark check             [--seed n]
//! dcgn_benchmark selftest          [--seed n] [--seconds s]
//! ```
//!
//! The first form is what `BENCHMARK.json` names: one workload, measured in
//! this process, every metric printed by name and the result object as the
//! last line of standard output.  `--trace 0` gives the end-to-end metrics
//! (tracing off), `--trace 1` the per-layer ones (counters differenced
//! around the timed window, software-only and raw-MPI twins, standalone
//! layer probes and the traced pass).  The other forms run that first form
//! in child processes, one per workload, so that peak RSS and the global
//! metrics registry are per workload.  See `README.md`.

mod json;
mod measure;
mod probes;
mod spec;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use crate::measure::Outcome;
use crate::stats::worsening;
use crate::workloads::Workload;

const DEFAULT_SECONDS: f64 = 12.0;
const DEFAULT_SEED: u64 = 1;

/// One line per metric: name, value, unit.
fn print_metrics(indent: &str, names: &[&'static str], value: impl Fn(&str) -> f64) {
    for name in names {
        println!(
            "{indent}{name:<36} {:>16.4} {}",
            value(name),
            spec::unit_of(name).unwrap_or("")
        );
    }
}

/// The result object of the benchmark contract, holding the metrics `names`
/// in that order.  Values are printed with all their digits.
fn result_object(
    correct: bool,
    attempted: u64,
    failed: u64,
    names: &[&'static str],
    value: impl Fn(&str) -> f64,
) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|name| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(name),
                value(name),
                json::quote(spec::unit_of(name).unwrap_or(""))
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// Print every metric by name with its unit, then the result object as the
/// last line.  A metric the pass did not produce reads 0.
fn report(workload: Workload, seed: u64, names: &[&'static str], outcome: &Outcome) {
    println!(
        "workload {} seed {seed} nproc {}",
        workload.name(),
        sys::nproc()
    );
    for e in &outcome.errors {
        println!("error: {e}");
    }
    let value = |name: &str| outcome.metrics.get(name).copied().unwrap_or(0.0);
    print_metrics("", names, value);
    println!(
        "{}",
        result_object(
            outcome.correct(),
            outcome.attempted.max(1),
            outcome.failed,
            names,
            value
        )
    );
}

fn end_to_end_names() -> Vec<&'static str> {
    spec::END_TO_END.iter().map(|m| m.name).collect()
}

fn per_layer_names() -> Vec<&'static str> {
    spec::PER_LAYER.iter().map(|m| m.name).collect()
}

// ---------------------------------------------------------------------------
// Suites: one child process per workload and trace mode
// ---------------------------------------------------------------------------

/// What a child run reported, read back from its last line.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

fn run_child(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!("child exited with {}:\n{stdout}", output.status));
    }
    let last = stdout.lines().last().unwrap_or("");
    let doc = json::parse(last).map_err(|e| format!("child result line: {e}"))?;
    let field = |name: &str| {
        doc.get(name)
            .ok_or_else(|| format!("child result lacks {name}"))
    };
    let metrics = field("metrics")?
        .as_object()
        .ok_or("metrics is not an object")?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(ChildResult {
        correct: field("correct")?.as_bool().unwrap_or(false),
        attempted: field("attempted")?.as_f64().unwrap_or(0.0) as u64,
        failed: field("failed")?.as_f64().unwrap_or(0.0) as u64,
        metrics,
    })
}

impl ChildResult {
    fn value(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    fn to_json(&self, names: &[&'static str]) -> String {
        result_object(self.correct, self.attempted, self.failed, names, |n| {
            self.value(n)
        })
    }
}

/// `run all|<workload>`: both passes of each workload, printed by name and
/// written to `<out>/results.json`.  Fails if any operation failed.
fn run_suite(
    workloads: &[Workload],
    seed: u64,
    seconds: f64,
    out_dir: &Path,
) -> Result<(), String> {
    let mut entries = Vec::new();
    let mut all_correct = true;
    for &workload in workloads {
        println!(
            "{} (seed {seed}, {seconds} s per pass, nproc {})",
            workload.name(),
            sys::nproc()
        );
        let e2e = run_child(workload, seed, seconds, false)?;
        println!("  end to end (tracing off)");
        print_metrics("    ", &end_to_end_names(), |n| e2e.value(n));
        let layers = run_child(workload, seed, seconds, true)?;
        println!("  per layer");
        print_metrics("    ", &per_layer_names(), |n| layers.value(n));
        all_correct &= e2e.correct && layers.correct;
        entries.push(format!(
            "{}: {{\"end_to_end\": {}, \"per_layer\": {}}}",
            json::quote(workload.name()),
            e2e.to_json(&end_to_end_names()),
            layers.to_json(&per_layer_names())
        ));
    }
    let doc = format!(
        "{{\"seed\": {seed}, \"seconds\": {seconds}, \"nproc\": {}, \"cost_model\": \"g92_cluster\", \"workloads\": {{\n{}\n}}}}\n",
        sys::nproc(),
        entries.join(",\n")
    );
    let path = out_dir.join("results.json");
    std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(&path, doc))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("results written to {}", path.display());
    if all_correct {
        Ok(())
    } else {
        Err("some operations failed their checks".into())
    }
}

/// `check`: short rounds of every workload in this process; stops at the
/// first workload with a failed operation.
fn check(seed: u64) -> Result<(), String> {
    for workload in Workload::ALL {
        let outcome = measure::check(workload, seed);
        println!(
            "check {:<20} attempted {:>6} failed {}",
            workload.name(),
            outcome.attempted,
            outcome.failed
        );
        if !outcome.correct() {
            return Err(format!(
                "{}: {} of {} operations failed {:?}",
                workload.name(),
                outcome.failed,
                outcome.attempted,
                outcome.errors
            ));
        }
    }
    Ok(())
}

/// `selftest`: the end-to-end suite twice on the same build, side by side;
/// fails if any metric of any workload got worse or better by more than its
/// bound, i.e. if the benchmark cannot tell noise from change.
fn selftest(seed: u64, seconds: f64) -> Result<(), String> {
    let mut sets: Vec<Vec<ChildResult>> = Vec::new();
    for set in 0..2 {
        println!("selftest: set {} of 2", set + 1);
        let results: Result<Vec<_>, _> = Workload::ALL
            .into_iter()
            .map(|w| run_child(w, seed, seconds, false))
            .collect();
        sets.push(results?);
    }
    let mut outside = Vec::new();
    println!(
        "{:<20} {:<12} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    for (i, workload) in Workload::ALL.into_iter().enumerate() {
        for metric in spec::END_TO_END {
            let (first, second) = (sets[0][i].value(metric.name), sets[1][i].value(metric.name));
            let change = worsening(first, second, metric.lower_is_better);
            let verdict = if change.abs() > metric.bound {
                "OUTSIDE"
            } else {
                ""
            };
            println!(
                "{:<20} {:<12} {first:>14.4} {second:>14.4} {:>+8.2}% {:>6.0}% {verdict}",
                workload.name(),
                metric.name,
                change * 100.0,
                metric.bound * 100.0
            );
            if change.abs() > metric.bound {
                outside.push(format!("{}/{}", workload.name(), metric.name));
            }
        }
        if !(sets[0][i].correct && sets[1][i].correct) {
            outside.push(format!("{}/correct", workload.name()));
        }
    }
    if outside.is_empty() {
        println!("selftest: both sets agree within every bound");
        Ok(())
    } else {
        Err(format!("outside their bound: {}", outside.join(", ")))
    }
}

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

struct Args {
    command: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: Vec::new(),
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = raw.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => args.workload = Some(value(arg)?),
            "--seed" => {
                args.seed = value(arg)?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?
            }
            "--seconds" => {
                args.seconds = value(arg)?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or("--seconds takes a number in (0, 600]")?
            }
            "--trace" => {
                args.trace = match value(arg)?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            word => args.command.push(word.to_string()),
        }
    }
    Ok(args)
}

/// Where traces and `results.json` go: `benchmark/out` when run from the
/// repository root (as `BENCHMARK.json` does), `out` from inside `benchmark/`.
fn out_dir() -> PathBuf {
    if PathBuf::from("benchmark/Cargo.toml").is_file() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

fn workload_named(name: &str) -> Result<Workload, String> {
    Workload::from_name(name).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name}; one of: {}", names.join(", "))
    })
}

fn run(raw: &[String]) -> Result<(), String> {
    let args = parse_args(raw)?;
    let command: Vec<&str> = args.command.iter().map(String::as_str).collect();
    match (command.as_slice(), &args.workload) {
        ([], Some(name)) => {
            let workload = workload_named(name)?;
            let (names, outcome) = if args.trace {
                let outcome = measure::layers(workload, args.seed, args.seconds, &out_dir());
                (per_layer_names(), outcome)
            } else {
                let outcome = measure::end_to_end(workload, args.seed, args.seconds);
                (end_to_end_names(), outcome)
            };
            report(workload, args.seed, &names, &outcome);
            Ok(())
        }
        (["run", "all"], None) => run_suite(&Workload::ALL, args.seed, args.seconds, &out_dir()),
        (["run", name], None) => run_suite(
            &[workload_named(name)?],
            args.seed,
            args.seconds,
            &out_dir(),
        ),
        (["check"], None) => check(args.seed),
        (["selftest"], None) => selftest(args.seed, args.seconds),
        _ => Err(
            "usage: --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                  | run all|<workload> | check | selftest"
                .into(),
        ),
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match run(&raw) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dcgn_benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn names_in(doc: &json::Value, key: &str) -> Vec<json::Value> {
        doc.get(key)
            .and_then(json::Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
            .to_vec()
    }

    fn text<'a>(entry: &'a json::Value, key: &str) -> &'a str {
        entry.get(key).and_then(json::Value::as_str).unwrap_or("")
    }

    /// The names this binary emits are exactly the names `BENCHMARK.json`
    /// declares, with the same unit, direction and bound.
    #[test]
    fn emitted_names_equal_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let legal = |name: &str| {
            !name.is_empty()
                && name.len() <= 64
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };

        let declared: Vec<String> = names_in(&doc, "workloads")
            .iter()
            .map(|w| text(w, "name").to_string())
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(declared, ours);

        let e2e = names_in(&doc, "end_to_end");
        assert_eq!(e2e.len(), spec::END_TO_END.len());
        for (entry, ours) in e2e.iter().zip(spec::END_TO_END) {
            assert_eq!(text(entry, "name"), ours.name);
            assert_eq!(text(entry, "unit"), ours.unit, "{}", ours.name);
            let better = if ours.lower_is_better {
                "lower"
            } else {
                "higher"
            };
            assert_eq!(text(entry, "better"), better, "{}", ours.name);
            let bound = entry.get("bound").and_then(json::Value::as_f64);
            assert_eq!(bound, Some(ours.bound), "{}", ours.name);
        }

        let layers = names_in(&doc, "per_layer");
        assert_eq!(layers.len(), spec::PER_LAYER.len());
        for (entry, ours) in layers.iter().zip(spec::PER_LAYER) {
            assert_eq!(text(entry, "name"), ours.name);
            assert_eq!(text(entry, "unit"), ours.unit, "{}", ours.name);
            let better = if ours.lower_is_better {
                "lower"
            } else {
                "higher"
            };
            assert_eq!(text(entry, "better"), better, "{}", ours.name);
        }

        let all: Vec<&str> = end_to_end_names()
            .into_iter()
            .chain(per_layer_names())
            .chain(ours)
            .collect();
        assert!(all.iter().all(|n| legal(n)), "illegal name in {all:?}");
        let unique: BTreeSet<&str> = all.iter().copied().collect();
        assert_eq!(unique.len(), all.len(), "a name is used twice");
    }

    #[test]
    fn command_line_forms() {
        let to_vec = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&to_vec(
            "--workload stream_cpu_4MiB --seed 9 --seconds 2.5 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("stream_cpu_4MiB"));
        assert_eq!((a.seed, a.seconds, a.trace), (9, 2.5, true));
        assert!(a.command.is_empty());
        let b = parse_args(&to_vec("run all --seconds 3")).unwrap();
        assert_eq!(b.command, ["run", "all"]);
        assert_eq!((b.seed, b.seconds), (DEFAULT_SEED, 3.0));
        assert!(parse_args(&to_vec("--seconds 0")).is_err());
        assert!(parse_args(&to_vec("--trace 2")).is_err());
        assert!(parse_args(&to_vec("--seed")).is_err());
        assert!(parse_args(&to_vec("--bogus 1")).is_err());
        assert!(workload_named("nope").is_err());
    }
}
