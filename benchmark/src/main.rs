//! One benchmark for design → generate → validate.
//!
//! ```text
//! kron-e2e-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each invocation runs one workload in its own process.  Untraced
//! (`--trace 0`), it times batches of set-ups before the first pass and
//! after every timed pass (their median is `setup_s`), discards one warm-up
//! pass, then runs timed passes for `--seconds` and checks every output;
//! the other end-to-end metrics are medians over the timed passes.
//! Traced (`--trace 1`), it alternates untraced and traced passes of the
//! workload (their ratio is the tracing overhead), runs one traced pass of
//! every other workload and the per-layer probes, so every layer is
//! reported, and writes the spans to
//! `.bench_out/trace-<workload>-<seed>.jsonl`.  The last line of standard
//! output is the result as one JSON object.

mod check;
mod design;
mod kron;
mod probes;
mod rmat;
mod shards;
mod sys;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use crate::design::DesignPaper;
use crate::kron::KronCount;
use crate::rmat::RmatCount;
use crate::shards::PermutedShards;
use crate::trace::Tracer;

/// The workloads, in the order the benchmark documents them.
const WORKLOADS: [&str; 4] = [
    "design_paper",
    "kron_count",
    "kron_permuted_shards",
    "rmat_count",
];

/// Set-up samples taken before the first pass and again after every timed
/// pass; `setup_s` is the median of all of them.  Spread over the whole
/// run, the samples see the same host as the passes, and the median does
/// not hang on which second of the host's contention they fell in.
const SETUP_SAMPLES_PER_GAP: usize = 40;
/// Target duration of one set-up sample, in seconds.
const SETUP_BATCH_S: f64 = 0.01;
/// Most memory the workloads built in one set-up sample may hold.
const SETUP_BATCH_BYTES: usize = 16 << 20;

/// Where the benchmark writes: shard directories and trace files.
const SCRATCH: &str = ".bench_out";

pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub scratch: PathBuf,
}

/// Where a traced pass records its spans.
pub struct PassTrace {
    pub tracer: Arc<Tracer>,
    pub prefix: String,
    pub pass: u32,
}

/// One pass: its wall time, its output size, workload-specific figures
/// (printed under their names) and the verdict of its checks.
pub struct Outcome {
    pub seconds: f64,
    pub edges: u64,
    pub parts: Vec<(&'static str, f64)>,
    pub check: Result<(), String>,
}

pub trait Workload: Sized {
    /// Values the checks compare against, computed once and apart from the
    /// program.
    type Expected;
    fn expected(config: &Config) -> Self::Expected;
    /// One-off work before the first pass; timed as `setup_s`.
    fn setup(config: &Config) -> Result<Self, String>;
    /// One pass.  `Err` is an operation the program failed; a wrong output
    /// is reported in `Outcome::check`.
    fn pass(
        &mut self,
        expected: &Self::Expected,
        trace: Option<&PassTrace>,
    ) -> Result<Outcome, String>;
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Pass counts and the first problems seen.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    wrong: u64,
    problems: Vec<String>,
}

impl Tally {
    fn note(&mut self, problem: String) {
        if self.problems.len() < 5 {
            self.problems.push(problem);
        }
    }

    /// A warm-up pass: its time is discarded, its verdict is kept.
    fn warm_up(&mut self, result: Result<Outcome, String>) {
        match result {
            Ok(Outcome {
                check: Err(problem),
                ..
            }) => {
                self.wrong += 1;
                self.note(format!("warm-up pass: wrong output: {problem}"));
            }
            Err(error) => self.note(format!("warm-up pass failed: {error}")),
            Ok(_) => {}
        }
    }

    /// Count one attempted pass; keep its outcome if it ran.
    fn count(&mut self, result: Result<Outcome, String>) -> Option<Outcome> {
        self.attempted += 1;
        match result {
            Ok(outcome) => {
                if let Err(problem) = &outcome.check {
                    self.wrong += 1;
                    self.note(format!("wrong output: {problem}"));
                }
                Some(outcome)
            }
            Err(error) => {
                self.failed += 1;
                self.note(format!("failed: {error}"));
                None
            }
        }
    }
}

fn print_result(tally: &Tally, metrics: &[(&str, f64, &str)]) {
    for problem in &tally.problems {
        println!("problem: {problem}");
    }
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.wrong == 0,
        tally.attempted,
        tally.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let separator = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{separator}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    println!("{json}");
}

/// Append SETUP_SAMPLES_PER_GAP set-up samples to `setups`, in seconds
/// per set-up.  Set-ups take microseconds, near the clock's resolution, so
/// each sample times a batch of `batch` of them.  The batch's slots are
/// allocated and touched by one more, discarded, sample first, so a sample
/// times set-ups, not the growth of the vector that holds them; the built
/// workloads are dropped outside the timed region.  `batch` holds at most
/// SETUP_BATCH_BYTES of workloads, and the vector is freed on return, so
/// it takes no memory while a pass runs.  Every pass empties its shard
/// directory first, so set-ups made between passes disturb none.
fn sample_setups<W: Workload>(
    config: &Config,
    batch: usize,
    setups: &mut Vec<f64>,
) -> Result<(), String> {
    let mut built: Vec<W> = Vec::with_capacity(batch);
    for sample in 0..=SETUP_SAMPLES_PER_GAP {
        let started = Instant::now();
        for _ in 0..batch {
            built.push(W::setup(config)?);
        }
        if sample > 0 {
            setups.push(started.elapsed().as_secs_f64() / batch as f64);
        }
        built.clear();
    }
    Ok(())
}

/// The untraced run: set-up samples, a warm-up, then timed passes with
/// more set-up samples after each.
fn measure<W: Workload>(name: &str, config: &Config) -> Result<(), String> {
    let expected = W::expected(config);
    let started = Instant::now();
    drop(W::setup(config)?);
    let most = (SETUP_BATCH_BYTES / std::mem::size_of::<W>().max(1)) as f64;
    let batch = (SETUP_BATCH_S / started.elapsed().as_secs_f64()).clamp(1.0, most) as usize;
    let mut setups = Vec::new();
    sample_setups::<W>(config, batch, &mut setups)?;
    let mut workload = W::setup(config)?;
    let mut tally = Tally::default();
    tally.warm_up(workload.pass(&expected, None));
    let mut outcomes = Vec::new();
    let started = Instant::now();
    while tally.attempted == 0 || started.elapsed().as_secs_f64() < config.seconds {
        outcomes.extend(tally.count(workload.pass(&expected, None)));
        sample_setups::<W>(config, batch, &mut setups)?;
    }
    drop(workload);
    if outcomes.is_empty() {
        print_result(&tally, &[]);
        return Err("every timed pass failed".into());
    }

    let seconds: Vec<f64> = outcomes.iter().map(|o| o.seconds).collect();
    let pass_s = median(&seconds);
    let setup_s = median(&setups);
    let peak_rss_mib = sys::peak_rss_mib().ok_or("VmHWM unreadable")?;

    println!(
        "workload {name}  seed {}  passes {}",
        config.seed,
        outcomes.len()
    );
    println!("provenance {}", sys::provenance(&config.scratch));
    // The issue-level names of each workload's end-to-end figures.
    let rates: Vec<f64> = outcomes
        .iter()
        .map(|o| o.edges as f64 / o.seconds / 1e6)
        .collect();
    match name {
        "design_paper" => println!("design_s {pass_s} s"),
        "kron_count" | "rmat_count" => {
            println!(
                "gen_medges_per_s {} Medges/s  ({} edges per pass)",
                median(&rates),
                outcomes[0].edges
            )
        }
        _ => {}
    }
    let mut parts: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for outcome in &outcomes {
        for &(part, value) in &outcome.parts {
            parts.entry(part).or_default().push(value);
        }
    }
    for (part, values) in &parts {
        println!("{part} {}", median(values));
    }
    if seconds.len() >= 40 {
        // The highest percentile with at least ten passes beyond it.
        let mut sorted = seconds.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = sorted.len() - 11;
        println!(
            "pass_s p{:.0} {} s over {} passes",
            100.0 * (rank + 1) as f64 / sorted.len() as f64,
            sorted[rank],
            sorted.len()
        );
    }
    print_result(
        &tally,
        &[
            ("pass_s", pass_s, "s"),
            ("setup_s", setup_s, "s"),
            ("peak_rss_mib", peak_rss_mib, "MiB"),
        ],
    );
    Ok(())
}

/// The values of one part over `outcomes`, in order.
fn parts_of(outcomes: &[Outcome], name: &str) -> Vec<f64> {
    outcomes
        .iter()
        .flat_map(|o| o.parts.iter().filter(|(part, _)| *part == name))
        .map(|&(_, value)| value)
        .collect()
}

/// Per-layer figures taken from the traced passes `passes` of workload
/// `name`, for the layers that workload owns.
fn span_metrics(
    name: &str,
    tracer: &Tracer,
    passes: &[u32],
    outcomes: &[Outcome],
) -> Vec<probes::Metric> {
    let per_pass = |span: &str| -> f64 {
        let values: Vec<f64> = passes
            .iter()
            .map(|p| tracer.busy_s(&format!("{name}/p{p}/"), span))
            .collect();
        median(&values)
    };
    let value = |what: &str| -> f64 {
        let values: Vec<f64> = passes
            .iter()
            .flat_map(|p| tracer.values(&format!("{name}/p{p}"), what))
            .collect();
        median(&values)
    };
    match name {
        "design_paper" => vec![
            (
                "core.degree_distribution_s",
                per_pass("KroneckerDesign::degree_distribution"),
                "s",
            ),
            (
                "core.triangles_s",
                per_pass("KroneckerDesign::triangles"),
                "s",
            ),
            (
                "core.design_search_s",
                per_pass("DesignSearch::search"),
                "s",
            ),
            (
                "core.support_points",
                outcomes[0]
                    .parts
                    .iter()
                    .find(|(part, _)| *part == "core.support_points")
                    .map_or(f64::NAN, |&(_, count)| count),
                "count",
            ),
        ],
        "kron_count" => vec![
            ("gen.source.prepare_s", per_pass("EdgeSource::prepare"), "s"),
            (
                "gen.metrics.self_s",
                per_pass("pipeline.deliver") - per_pass("EdgeSink::consume"),
                "s",
            ),
            (
                "gen.balance_max_over_mean",
                value("balance_max_over_mean"),
                "ratio",
            ),
        ],
        "kron_permuted_shards" => {
            let write = |span: &str| -> f64 {
                let values: Vec<f64> = passes
                    .iter()
                    .map(|p| tracer.busy_s(&format!("{name}/p{p}/write/"), span))
                    .collect();
                median(&values)
            };
            vec![
                ("gen.sink.consume_s", write("EdgeSink::consume"), "s"),
                ("gen.sink.finish_s", write("EdgeSink::finish"), "s"),
            ]
        }
        _ => Vec::new(),
    }
}

/// Set up `W` afresh and run one traced pass of it.
fn traced_passes<W: Workload>(
    name: &str,
    config: &Config,
    tracer: &Arc<Tracer>,
    tally: &mut Tally,
) -> Result<Vec<probes::Metric>, String> {
    let expected = W::expected(config);
    let mut workload = W::setup(config)?;
    let trace = PassTrace {
        tracer: Arc::clone(tracer),
        prefix: format!("{name}/p0"),
        pass: 0,
    };
    let outcomes: Vec<Outcome> = tally
        .count(workload.pass(&expected, Some(&trace)))
        .into_iter()
        .collect();
    if outcomes.is_empty() {
        return Err(format!("the traced {name} pass failed"));
    }
    Ok(span_metrics(name, tracer, &[0], &outcomes))
}

/// The traced run of `W`: alternating untraced and traced passes, then one
/// traced pass of every other workload and every probe.
fn trace_run<W: Workload>(name: &str, config: &Config) -> Result<(), String> {
    let tracer = Tracer::new();
    let expected = W::expected(config);
    let mut workload = W::setup(config)?;
    let mut tally = Tally::default();
    tally.warm_up(workload.pass(&expected, None));
    let (mut untraced, mut traced, mut passes) = (vec![], vec![], vec![]);
    let (mut cpu, mut wall) = (0.0, 0.0);
    let started = Instant::now();
    let mut pass = 0u32;
    while pass == 0 || started.elapsed().as_secs_f64() < config.seconds {
        let cpu_before = sys::cpu_seconds().ok_or("CPU time unreadable")?;
        if let Some(outcome) = tally.count(workload.pass(&expected, None)) {
            cpu += sys::cpu_seconds().ok_or("CPU time unreadable")? - cpu_before;
            wall += outcome.seconds;
            untraced.push(outcome);
        }
        let trace = PassTrace {
            tracer: Arc::clone(&tracer),
            prefix: format!("{name}/p{pass}"),
            pass,
        };
        if let Some(outcome) = tally.count(workload.pass(&expected, Some(&trace))) {
            traced.push(outcome);
            passes.push(pass);
        }
        pass += 1;
    }
    drop(workload);
    if untraced.is_empty() || traced.is_empty() {
        print_result(&tally, &[]);
        return Err("no untraced or no traced pass ran".into());
    }
    let mut layers: Vec<probes::Metric> = span_metrics(name, &tracer, &passes, &traced);
    for other in WORKLOADS.into_iter().filter(|w| *w != name) {
        layers.extend(match other {
            "design_paper" => traced_passes::<DesignPaper>(other, config, &tracer, &mut tally)?,
            "kron_count" => traced_passes::<KronCount>(other, config, &tracer, &mut tally)?,
            "kron_permuted_shards" => {
                traced_passes::<PermutedShards>(other, config, &tracer, &mut tally)?
            }
            _ => traced_passes::<RmatCount>(other, config, &tracer, &mut tally)?,
        });
    }
    layers.extend(probes::kron_count(&KronCount::setup(config)?)?);
    layers.extend(probes::rmat_sampler(config.seed)?);
    layers.extend(probes::rmat_stream(config.seed)?);
    layers.extend(probes::permuted_shards(&PermutedShards::setup(config)?)?);
    layers.push(("proc.cpu_util", cpu / (wall * sys::nproc() as f64), "ratio"));
    // A traced shard pass writes through plain per-worker sinks, which
    // publish no manifest and keep no progress journal, so on that
    // workload the overhead is taken on the replay half alone, where the
    // traced and the untraced pass do the same work.
    let (overhead_of, traced_s, untraced_s) = if name == "kron_permuted_shards" {
        (
            "replay half",
            median(&parts_of(&traced, "replay_s")),
            median(&parts_of(&untraced, "replay_s")),
        )
    } else {
        (
            "pass",
            median(&traced.iter().map(|o| o.seconds).collect::<Vec<_>>()),
            median(&untraced.iter().map(|o| o.seconds).collect::<Vec<_>>()),
        )
    };
    layers.push(("trace.overhead_ratio", traced_s / untraced_s, "ratio"));

    std::fs::create_dir_all(&config.scratch).map_err(|e| e.to_string())?;
    let path = config
        .scratch
        .join(format!("trace-{name}-{}.jsonl", config.seed));
    std::fs::write(&path, tracer.to_jsonl()).map_err(|e| e.to_string())?;
    println!("workload {name}  seed {}  traced run", config.seed);
    println!("provenance {}", sys::provenance(&config.scratch));
    println!("spans written to {}", path.display());
    println!(
        "tracing overhead: traced {overhead_of} {traced_s:.4} s vs untraced {untraced_s:.4} s \
         ({} + {} passes)",
        traced.len(),
        untraced.len()
    );
    for (span, seconds) in tracer.self_times() {
        println!("self time {span:<40} {seconds:.4} s");
    }
    layers.sort_by_key(|(metric, _, _)| PER_LAYER.iter().position(|m| m == metric));
    print_result(&tally, &layers);
    Ok(())
}

/// Every per-layer metric, in output order.
const PER_LAYER: [&str; 24] = [
    "core.degree_distribution_s",
    "core.triangles_s",
    "core.design_search_s",
    "core.support_points",
    "gen.source.prepare_s",
    "gen.source.kron_medges_per_s",
    "rmat.sample_medges_per_s",
    "sparse.histogram_medges_per_s",
    "sparse.histogram_rmat_medges_per_s",
    "check.label_sums_medges_per_s",
    "check.quadrants_medges_per_s",
    "gen.metrics.self_s",
    "gen.permute.medges_per_s",
    "gen.permute.walk_ratio",
    "gen.codec.encode_medges_per_s",
    "gen.codec.decode_medges_per_s",
    "gen.codec.bytes_per_edge",
    "gen.checksum.mib_per_s",
    "gen.sink.consume_s",
    "gen.sink.finish_s",
    "gen.replay.source_medges_per_s",
    "gen.balance_max_over_mean",
    "proc.cpu_util",
    "trace.overhead_ratio",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut named: BTreeMap<String, String> = BTreeMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag}"))?;
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        named.insert(key.to_string(), value);
    }
    let get = |key: &str| named.get(key).ok_or_else(|| format!("--{key} is required"));
    let workload = get("workload")?.clone();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|_| "--seconds takes a number")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must lie in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed: get("seed")?
            .parse()
            .map_err(|_| "--seed takes a whole number")?,
        seconds,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other}")),
        },
    })
}

fn run(args: &Args) -> Result<(), String> {
    let config = Config {
        seed: args.seed,
        seconds: args.seconds,
        scratch: PathBuf::from(SCRATCH),
    };
    std::fs::create_dir_all(&config.scratch).map_err(|e| e.to_string())?;
    let name = args.workload.as_str();
    match (name, args.trace) {
        ("design_paper", false) => measure::<DesignPaper>(name, &config),
        ("kron_count", false) => measure::<KronCount>(name, &config),
        ("kron_permuted_shards", false) => measure::<PermutedShards>(name, &config),
        ("rmat_count", false) => measure::<RmatCount>(name, &config),
        ("design_paper", true) => trace_run::<DesignPaper>(name, &config),
        ("kron_count", true) => trace_run::<KronCount>(name, &config),
        ("kron_permuted_shards", true) => trace_run::<PermutedShards>(name, &config),
        _ => trace_run::<RmatCount>(name, &config),
    }
}

fn main() {
    let started = Instant::now();
    let outcome = parse_args().and_then(|args| run(&args));
    eprintln!(
        "benchmark process ran {:.1} s",
        started.elapsed().as_secs_f64()
    );
    if let Err(error) = outcome {
        eprintln!("error: {error}");
        std::process::exit(1);
    }
}
