//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, prints every metric by name with its unit, writes
//! the full report (and, traced, the spans) under `perfbench/out/`, and
//! ends with one JSON line: `{"correct", "attempted", "failed",
//! "metrics"}` carrying the end-to-end metrics untraced and the
//! per-layer metrics traced. Exits non-zero if any output check failed.
//! `--out <dir>` moves the output directory.

use std::path::PathBuf;
use uset_perfbench::{calib, run, Metric, Options, Report, Sizes};

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        sizes: Sizes::standard(),
        out_dir: PathBuf::from("perfbench/out"),
        helper_exe: std::env::current_exe()
            .map_err(|e| format!("cannot locate the benchmark binary: {e}"))?,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?.clone(),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => opts.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if opts.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if !opts.seconds.is_finite() || opts.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(opts)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json(ms: &[Metric]) -> Vec<String> {
    ms.iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect()
}

fn print_table(r: &Report, trace: bool) {
    println!("== {} ==", r.workload);
    for (k, v) in &r.meta {
        println!("  meta {k:<28} {v}");
    }
    println!(
        "  attempted {}  failed {}  correct {}",
        r.attempted,
        r.failed,
        r.correct()
    );
    for f in &r.failures {
        println!("  FAILED: {f}");
    }
    println!(
        "  end-to-end{}:",
        if trace { " (untraced half)" } else { "" }
    );
    for m in &r.end_to_end {
        println!("    {:<36} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!("  per-layer:");
    for m in &r.per_layer {
        println!("    {:<36} {:>14.4} {}", m.name, m.value, m.unit);
    }
}

fn write_outputs(opts: &Options, r: &Report) {
    let stem = format!(
        "{}-seed{}-trace{}",
        r.workload,
        opts.seed,
        u8::from(opts.trace)
    );
    let mut body = vec![
        format!("\"workload\": {}", json_str(&r.workload)),
        format!("\"correct\": {}", r.correct()),
        format!("\"attempted\": {}", r.attempted),
        format!("\"failed\": {}", r.failed),
    ];
    let fails: Vec<String> = r.failures.iter().map(|f| json_str(f)).collect();
    body.push(format!("\"failures\": [{}]", fails.join(", ")));
    let meta: Vec<String> = r
        .meta
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    body.push(format!("\"meta\": {{{}}}", meta.join(", ")));
    body.push(format!(
        "\"end_to_end\": {{{}}}",
        metrics_json(&r.end_to_end).join(", ")
    ));
    body.push(format!(
        "\"per_layer\": {{{}}}",
        metrics_json(&r.per_layer).join(", ")
    ));
    let path = opts.out_dir.join(format!("report-{stem}.json"));
    if let Err(e) = std::fs::write(&path, format!("{{{}}}\n", body.join(", "))) {
        eprintln!("could not write {}: {e}", path.display());
    }
    if let Some(spans) = &r.spans {
        let path = opts.out_dir.join(format!("spans-{stem}.jsonl"));
        if let Err(e) = std::fs::write(&path, spans) {
            eprintln!("could not write {}: {e}", path.display());
        }
    }
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some(calib::HELPER_FLAG) {
        std::process::exit(i32::from(calib::serve().is_err()));
    }
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let r = match run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", opts.workload);
            std::process::exit(1);
        }
    };
    print_table(&r, opts.trace);
    write_outputs(&opts, &r);
    let set = if opts.trace { &r.per_layer } else { &r.end_to_end };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct(),
        r.attempted,
        r.failed,
        metrics_json(set).join(", ")
    );
    if !r.correct() {
        std::process::exit(1);
    }
}
