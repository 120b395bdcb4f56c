//! One seeded benchmark of the networked OctopusFS stack.
//!
//! ```text
//! perfbench --workload <bulk_rw|meta_churn|tiered_hot> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Boots a loopback `NetCluster` (4 workers, in-memory stores), drives the
//! workload through `RemoteFs` with closed-loop clients, checks every reply
//! against the generator's model, and prints every metric by name and unit.
//! The last line of standard output is one JSON object: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.

mod gen;
mod host;
mod layers;
mod stats;
mod workload;

use std::fmt::Write as _;
use std::time::Duration;

use gen::Class;
use stats::{median, Record};
use workload::{prepare, run_window, sweep, Prepared, Scale, Tracing, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).cloned().ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = Workload::parse(&name).ok_or(format!("unknown workload {name}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace").as_deref() {
        Ok("0") | Err(_) => false,
        Ok("1") => true,
        Ok(v) => return Err(format!("--trace must be 0 or 1, not {v}")),
    };
    Ok(Args { workload, seed, seconds, trace })
}

/// A metric as printed and as emitted in the JSON line.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    note: String,
}

/// The end-to-end metrics of one window. Rates are medians over time
/// slices of the window, p50s are pooled, and a p99 (only where the run
/// holds at least 1000 samples) is the median of the slices' p99s.
fn end_to_end(p: &Prepared, rec: &Record, wall_s: f64) -> Vec<Metric> {
    let m = |name: &str, value: f64, unit: &'static str, note: String| Metric {
        name: name.into(),
        value,
        unit,
        note,
    };
    let calls = &rec.calls;
    let k = stats::slice_count(calls.len());
    let rate = |class: Option<Class>| {
        stats::sliced(calls, wall_s, k, |c, len| {
            c.iter()
                .filter(|c| class.is_none_or(|k| c.class == k))
                .map(|c| match class {
                    Some(_) => c.bytes as f64 / 1e6,
                    None => 1.0,
                })
                .sum::<f64>()
                / len
        })
    };
    let slices = format!("median of {k} slice(s)");
    let mut out = vec![
        m("setup_s", median(&p.setup_s), "s", format!("median of {} set-ups", p.setup_s.len())),
        m("write_mb_s", rate(Some(Class::Write)), "MB/s", slices.clone()),
        m("read_mb_s", rate(Some(Class::Read)), "MB/s", slices.clone()),
        m("ops_s", rate(None), "1/s", format!("{} calls, {slices}", calls.len())),
    ];
    for (name, class) in [("read", Class::Read), ("write", Class::Write), ("meta", Class::Meta)] {
        // Under 1000 samples there is no p99; the slot repeats the p50
        // (every run must print every metric) and says so.
        let t = stats::tail(&rec.samples(class));
        out.push(m(&format!("{name}_p50_us"), t.p50, "us", format!("n={}", t.n)));
        let (value, note) = match t.p99 {
            Some(_) => {
                let k = stats::slice_count(t.n);
                let p99 = stats::sliced(calls, wall_s, k, |c, _| {
                    let mut v: Vec<f64> =
                        c.iter().filter(|c| c.class == class).map(|c| c.us).collect();
                    v.sort_by(f64::total_cmp);
                    stats::quantile(&v, 0.99)
                });
                (p99, format!("n={}, median of {k} slice(s)", t.n))
            }
            None => (t.p50, format!("n={} < 1000: no p99, this is the p50", t.n)),
        };
        out.push(m(&format!("{name}_p99_us"), value, "us", note));
    }
    out.push(m("peak_rss_mib", host::peak_rss_mib(), "MiB", String::new()));
    out
}

fn json_line(correct: bool, rec: &Record, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        rec.attempted.max(1),
        rec.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            s,
            "{}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            if i > 0 { ", " } else { "" },
            m.name,
            m.unit
        );
    }
    s.push_str("}}");
    s
}

fn print_table(metrics: &[Metric]) {
    for m in metrics {
        println!("  {:<34} {:>14.4} {:<7} {}", m.name, m.value, m.unit, m.note);
    }
}

fn run(a: &Args) -> Result<bool, String> {
    let scale = Scale::full();
    let w = a.workload;
    let nproc = host::nproc();
    println!(
        "perfbench workload={} seed={} seconds={} trace={} | host nproc={nproc} profile={} commit={} rustc=\"{}\" pacing={}",
        w.name(),
        a.seed,
        a.seconds,
        u8::from(a.trace),
        host::profile(),
        host::commit(),
        host::rustc(),
        if w.pacing() { "on" } else { "off" },
    );
    let mut p = prepare(w, &scale, a.seed)?;
    let warm = run_window(&mut p, scale.warmup, None);
    // A traced run splits its time between an untraced and a traced
    // window, so it costs no more than an untraced run.
    let dur = Duration::from_secs_f64(if a.trace { a.seconds / 2.0 } else { a.seconds });

    let cpu0 = host::cpu_seconds();
    let win = run_window(&mut p, dur, None);
    let cpu_untraced = host::cpu_seconds() - cpu0;

    let mut traced = None;
    if a.trace {
        let before =
            (p.cluster.metrics_snapshot().map_err(|e| e.to_string())?, layers::client_snapshot(&p));
        let tracing = Tracing {
            bench: octopus_common::TraceCollector::with_capacity("bench", 1 << 22),
            every: w.trace_every(),
        };
        let cpu0 = host::cpu_seconds();
        let t = run_window(&mut p, dur, Some(&tracing));
        let cpu_s = host::cpu_seconds() - cpu0;
        let after =
            (p.cluster.metrics_snapshot().map_err(|e| e.to_string())?, layers::client_snapshot(&p));
        let scrapes =
            layers::Scrapes { cluster: (before.0, after.0), clients: (before.1, after.1) };
        traced = Some((t, scrapes, cpu_s));
    }

    // Warm-up failures and sweep mismatches fail the run and count toward
    // `failed` (each as one attempted check).
    let mut rec = win.record;
    rec.attempted += warm.record.failed;
    rec.failed += warm.record.failed;
    rec.errors.extend(warm.record.errors);
    for e in sweep(&p) {
        rec.attempted += 1;
        rec.fail(e);
    }
    let correct = rec.failed == 0;
    let e2e = end_to_end(&p, &rec, win.wall_s);
    println!("end-to-end ({:.2} s window, {} client(s), closed loop):", win.wall_s, w.clients());
    print_table(&e2e);
    println!(
        "  {:<34} {:>14.6} {:<7} {} of {} calls and checks failed",
        "fail_frac",
        rec.failed as f64 / rec.attempted.max(1) as f64,
        "ratio",
        rec.failed,
        rec.attempted,
    );
    println!(
        "  {:<34} {:>14.4} {:<7}",
        "host.cpu_util (untraced)",
        cpu_untraced / (win.wall_s * nproc as f64),
        "ratio"
    );
    for e in &rec.errors {
        println!("  FAIL {e}");
    }
    println!("correct: {correct}");

    let metrics = match traced {
        None => e2e,
        Some((t, scrapes, cpu_s)) => {
            let probes = layers::run_probes(&p, &scale, a.seed);
            let paths = layers::critical_paths(&t.spans);
            let inputs = layers::LayerInputs {
                p: &p,
                scrapes: &scrapes,
                traced: &t.record,
                traced_wall_s: t.wall_s,
                untraced: &rec,
                spans: &t.spans,
                paths: &paths,
                cpu_s,
                nproc,
                probes: &probes,
            };
            let values = layers::compute(&inputs);
            let units = layers::metric_units();
            let table = layers::render(&values, &units, &paths);
            let dir = std::path::Path::new("perfbench/out");
            let stem = format!("{}-seed{}", w.name(), a.seed);
            let written = std::fs::create_dir_all(dir).and_then(|_| {
                let spans = octopus_common::TraceSnapshot { spans: t.spans.clone() };
                std::fs::write(dir.join(format!("{stem}.spans.jsonl")), spans.to_jsonl())?;
                std::fs::write(dir.join(format!("{stem}.layers.txt")), &table)
            });
            println!("per-layer ({:.2} s traced window, {} spans):", t.wall_s, t.spans.len());
            print!("{table}");
            match written {
                Ok(()) => println!("spans and table written to {}/{stem}.*", dir.display()),
                Err(e) => println!("could not write spans: {e}"),
            }
            rec.merge(t.record);
            let unit: std::collections::BTreeMap<String, &'static str> =
                units.into_iter().collect();
            values
                .into_iter()
                .map(|(name, value)| Metric { unit: unit[&name], name, value, note: String::new() })
                .collect()
        }
    };
    let correct = correct && rec.failed == 0;
    println!("{}", json_line(correct, &rec, &metrics));
    Ok(correct)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <bulk_rw|meta_churn|tiered_hot> --seed N --seconds S --trace <0|1>");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
