//! `tyche-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]`
//!
//! Runs one workload for `--seconds` and prints a human-readable block,
//! then, as the last line of standard output, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics` (every end-to-end
//! metric, or with `--trace 1` every per-layer metric). With `--out` the
//! full provenance record is also written to `<dir>`.

use std::path::Path;
use std::process::ExitCode;

use tyche_perfbench::common::Limit;
use tyche_perfbench::report::Workload;

fn usage() -> ExitCode {
    eprintln!(
        "usage: tyche-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let Some(workload) = flag("--workload").as_deref().and_then(Workload::parse) else {
        return usage();
    };
    let Some(seed) = flag("--seed").and_then(|s| s.parse::<u64>().ok()) else {
        return usage();
    };
    let limit = match flag("--seconds").map(|s| s.parse::<f64>()) {
        Some(Ok(s)) if s > 0.0 && s.is_finite() => Limit::Seconds(s),
        _ => return usage(),
    };
    let traced = match flag("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(_) => return usage(),
    };
    let report = tyche_perfbench::run(workload, seed, limit, traced);
    print!("{}", report.render());
    if let Some(dir) = flag("--out") {
        let dir = Path::new(&dir);
        let file = dir.join(format!(
            "{}-seed{}-trace{}.json",
            workload.name(),
            seed,
            u8::from(traced)
        ));
        let doc = report.provenance(Path::new(".")).to_compact();
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&file, doc + "\n")) {
            Ok(()) => println!("  provenance written to {}", file.display()),
            Err(e) => {
                eprintln!("cannot write {}: {e}", file.display());
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{}", report.result_line());
    ExitCode::SUCCESS
}
