//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-hot|dump --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a human-readable report, then, as the last line, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Scratch files and span dumps go to `.perfbench_out/`
//! under the working directory. See `perfbench/README.md`.

mod cycle;
mod dump;
mod layers;
mod serve;
mod trace;
mod util;

use std::path::{Path, PathBuf};
use trace::Tracer;
use util::Metrics;

/// Where scratch stores, span dumps and the last results live.
const OUT_DIR: &str = ".perfbench_out";
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// The held-out seed the benchmark's own tests run, kept out of
/// tuning so a later claim can be confirmed on it.
pub const HELD_OUT_SEED: u64 = 0x5EED_2025;

/// How one run is sized.
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub setup_reps: usize,
    pub min_passes: usize,
    pub work_dir: PathBuf,
}

/// What a workload reports.
pub struct Outcome {
    /// The end-to-end metrics as measured on the run's core.
    pub e2e: Metrics,
    pub layer: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    /// Cache hit rate over the window (`serve-hot`).
    pub hit_rate: f64,
    /// Write-then-read-back cycles measured (`dump`).
    pub cycles: usize,
    /// Median milliseconds of the reference work over the run.
    pub reference_ms: f64,
    /// Share of `dump_mJ_per_MB` that is compute energy, which scales
    /// with time; the rest is the PFS model's.
    pub compute_share: f64,
}

impl Outcome {
    /// The end-to-end metrics at reference speed, which the JSON reports:
    /// see [`util::REFERENCE_MS`].
    pub fn at_reference(&self) -> Metrics {
        util::at_reference(&self.e2e, self.reference_ms, self.compute_share)
    }
}

/// End-to-end metrics printed in every report that the untraced JSON
/// leaves out. The p99 of `serve-hot` moves 2-3x with the load of the
/// shared host, in spells longer than a run, so it can hold no bound;
/// it travels with the traced run's per-layer metrics, which have none.
/// (`fail_frac` is left out too: it is 0 on a healthy run and travels
/// as the JSON's `failed` / `attempted`.)
const UNBOUNDED_E2E: [&str; 1] = ["req_p99_us"];

pub const WORKLOADS: [&str; 2] = ["serve-hot", "dump"];

/// Runs `workload`; the work directory is removed afterwards.
pub fn run_workload(workload: &str, cfg: &RunConfig, tracer: &Tracer) -> Result<Outcome, String> {
    std::fs::create_dir_all(&cfg.work_dir)
        .map_err(|e| format!("{}: {e}", cfg.work_dir.display()))?;
    let out = match workload {
        "serve-hot" => serve::run(cfg, tracer),
        "dump" => dump::run(cfg, tracer),
        other => Err(format!("unknown workload {other:?}")),
    };
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    out
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(a.seconds > 0.0 && a.seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(a)
}

/// Saves this run's end-to-end values and, when the other tracing mode
/// of the same workload has run before, prints traced − untraced.
fn overhead(out_dir: &Path, args: &Args, e2e: &Metrics) {
    let file = |trace: bool| {
        out_dir.join(format!(
            "e2e-{}-trace{}.txt",
            args.workload,
            u8::from(trace)
        ))
    };
    let lines: Vec<String> = e2e
        .0
        .iter()
        .map(|(n, v, u)| format!("{n} {v:?} {u} {}", args.seed))
        .collect();
    let _ = std::fs::write(file(args.trace), lines.join("\n"));
    let Ok(other) = std::fs::read_to_string(file(!args.trace)) else {
        println!(
            "\ntracing overhead: run this workload with --trace {} to report it",
            u8::from(!args.trace)
        );
        return;
    };
    println!("\ntracing overhead (traced - untraced; the other mode's last run):");
    for line in other.lines() {
        let f: Vec<&str> = line.split(' ').collect();
        let (Some(name), Some(Ok(v)), Some(unit), Some(seed)) = (
            f.first(),
            f.get(1).map(|v| v.parse::<f64>()),
            f.get(2),
            f.get(3),
        ) else {
            continue;
        };
        let Some(mine) = e2e.get(name) else { continue };
        let (traced, untraced) = if args.trace { (mine, v) } else { (v, mine) };
        println!(
            "  {name:<24} {:>14.4} {unit:<6} ({:+.2}%; other run seed {seed})",
            traced - untraced,
            100.0 * (traced - untraced) / untraced
        );
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload serve-hot|dump --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let out_dir = PathBuf::from(OUT_DIR);
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        setup_reps: SETUP_REPS,
        min_passes: dump::MIN_PASSES,
        work_dir: out_dir.join(format!("work-{}", std::process::id())),
    };
    let tracer = Tracer::new(args.trace);
    util::one_malloc_arena();
    let cores = util::nproc();
    let pinned = util::pin_to_one_core();
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} | {cores} cores, measured on {} | energy {} on {:?} (modeled unless the backend says rapl)",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        pinned.map_or("any core (pinning failed)".into(), |c| format!("core {c}")),
        cycle::Energy::new().backend(),
        cycle::CPU,
    );
    let out = match run_workload(&args.workload, &cfg, &tracer) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    for n in &out.notes {
        println!("  {n}");
    }
    let mode = if args.trace { "traced" } else { "untraced" };
    out.e2e
        .print(&format!("\nend-to-end ({mode}), as measured:"));
    let scaled = out.at_reference();
    scaled.print(&format!(
        "\nend-to-end ({mode}), at reference speed: the reference work took {:.4} ms here, {} ms on the reference core:",
        out.reference_ms,
        util::REFERENCE_MS
    ));
    overhead(&out_dir, &args, &scaled);

    let metrics = if args.trace {
        out.layer.print("\nper-layer:");
        let path = out_dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => println!("\n{} spans written to {}", tracer.len(), path.display()),
            Err(e) => println!("\nspans not written: {e}"),
        }
        println!("span summary (name, count, total ms, self ms):");
        for (name, (n, total, own)) in tracer.summary() {
            println!("  {name:<32} {n:>8} {total:>12.3} {own:>12.3}");
        }
        let mut layer = out.layer;
        layer.0.extend(
            scaled
                .0
                .into_iter()
                .filter(|(n, _, _)| UNBOUNDED_E2E.contains(&n.as_str())),
        );
        layer
    } else {
        Metrics(
            scaled
                .0
                .into_iter()
                .filter(|(n, _, _)| n != "fail_frac" && !UNBOUNDED_E2E.contains(&n.as_str()))
                .collect(),
        )
    };
    let finite = metrics.0.iter().all(|(_, v, _)| v.is_finite());
    let correct = out.failed == 0 && out.attempted > 0 && finite;
    if !finite {
        eprintln!("perfbench: a metric could not be computed");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted,
        out.failed,
        metrics.to_json()
    );
    std::process::exit(if correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    //! Workload sanity checks, run on the held-out seed with short
    //! windows: `cargo test --release --manifest-path perfbench/Cargo.toml`.
    use super::*;

    fn short(name: &str) -> RunConfig {
        RunConfig {
            seed: HELD_OUT_SEED,
            seconds: 2.0,
            setup_reps: 1,
            min_passes: 1,
            work_dir: PathBuf::from(OUT_DIR).join(format!("test-{name}-{}", std::process::id())),
        }
    }

    fn run(workload: &str, trace: bool) -> Outcome {
        let tracer = Tracer::new(trace);
        let out = run_workload(workload, &short(workload), &tracer).expect("workload runs");
        assert!(out.attempted > 0);
        assert_eq!(
            out.failed, 0,
            "{workload}: {} of {} operations failed",
            out.failed, out.attempted
        );
        out
    }

    /// `"name"` values of one list in BENCHMARK.json.
    fn declared(list: &str) -> Vec<String> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to perfbench/");
        let start = text.find(&format!("\"{list}\"")).expect("list present");
        let body = &text[start..start + text[start..].find(']').expect("list closes")];
        body.split("\"name\"")
            .skip(1)
            .filter_map(|s| s.split('"').nth(1).map(str::to_string))
            .collect()
    }

    #[test]
    fn serve_hot_hits_every_request_after_warm_up() {
        let out = run("serve-hot", false);
        assert_eq!(out.hit_rate, 1.0);
    }

    #[test]
    fn dump_covers_three_fields_by_five_codecs() {
        let out = run("dump", false);
        assert_eq!(
            dump::FIELDS.len() * eblcio_codec::CompressorId::ALL.len(),
            15
        );
        assert_eq!(out.cycles % 15, 0);
        assert!(out.cycles >= 15);
    }

    #[test]
    fn every_declared_metric_is_reported() {
        let e2e = declared("end_to_end");
        let layer = declared("per_layer");
        assert!(e2e.iter().any(|n| n == "setup_s"));
        for w in WORKLOADS {
            let untraced = run(w, false);
            for n in &e2e {
                assert!(untraced.e2e.get(n).is_some_and(f64::is_finite), "{w}: {n}");
            }
            let traced = run(w, true);
            for n in layer
                .iter()
                .filter(|n| !UNBOUNDED_E2E.contains(&n.as_str()))
            {
                assert!(
                    traced.layer.get(n).is_some_and(f64::is_finite),
                    "{w} traced: {n}"
                );
            }
            assert_eq!(
                traced.layer.0.len() + UNBOUNDED_E2E.len(),
                layer.len(),
                "{w}: undeclared per-layer metrics"
            );
        }
    }
}
