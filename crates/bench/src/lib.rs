//! # qaoa-gnn-bench — the experiment harness
//!
//! One binary per paper artifact or ablation, plus the smoke and load
//! bins `scripts/ci.sh` runs (see `src/bin/`). The experiment binaries
//! print a human-readable table to stdout and write a CSV under
//! `target/experiments/` so the numbers in EXPERIMENTS.md can be
//! regenerated; the smoke bins exit non-zero when a check fails. Timings
//! of the pipeline and serving layers come from `perfbench/`.
//!
//! | Binary | Purpose |
//! |--------|---------|
//! | `fig2_distributions` | Fig. 2a/2b dataset histograms |
//! | `fig3_ar_by_size` | Fig. 3 possible AR by graph size |
//! | `fig4_ar_by_degree` | Fig. 4 possible AR by degree |
//! | `fig5_table1` | Fig. 5 per-graph AR series + Table 1 improvements |
//! | `ablation_sdp` | §3.3 SDP threshold / selective-rate sweep |
//! | `ablation_fixed_angle` | §3.3 fixed-angle label-quality study |
//! | `ablation_arch` | §4.1 architecture hyper-parameter sweep |
//! | `ablation_weighted` | §7 weighted-graph limitation |
//! | `ablation_noise` | warm-start advantage under depolarizing noise |
//! | `landscape_scan` | ruggedness of the p = 1 objective |
//! | `artifact_smoke` | saved artifacts predict bit-exactly in a fresh process |
//! | `serve_smoke` | env-armed fault degrades the guarded predictor visibly |
//! | `serve_load` | closed-loop latency, saturation shedding, mid-traffic hot-swaps |
//! | `chaos_soak` | seeded fault schedule replays to a bit-identical digest |
//! | `crash_resume` | SIGKILLed-and-resumed pipeline reproduces the control artifact |
//!
//! The `fig*` and `ablation_*` binaries except `ablation_noise` honor
//! `QAOA_GNN_FULL=1` for paper-scale runs and default to a CI-sized
//! configuration (see [`qaoa_gnn::pipeline::PipelineConfig::from_env`]).

use std::fs;
use std::io;
use std::path::PathBuf;

use qaoa_gnn::dataset::LabelReport;
use qaoa_gnn::pipeline::PipelineConfig;
use qaoa_gnn::Dataset;

/// Labels the configured dataset through the checked, checkpointable
/// engine — the shared front half of every experiment binary. Honors
/// `config.checkpoint_dir` (set it via `QAOA_GNN_CHECKPOINT_DIR` to make
/// an interrupted run resumable) and prints any per-graph failures instead
/// of dying on them.
///
/// # Panics
///
/// Panics on an invalid dataset spec or a broken checkpoint journal.
pub fn label_dataset(config: &PipelineConfig) -> Dataset {
    if let Some(dir) = &config.checkpoint_dir {
        println!("checkpoint journal: {}", dir.display());
    }
    let (dataset, report) = Dataset::generate_checked(
        &config.dataset,
        &config.labeling,
        config.seed,
        config.checkpoint_dir.as_deref(),
    )
    .unwrap_or_else(|e| panic!("labeling failed: {e}"));
    print_label_report(&report);
    dataset
}

/// Prints a one-line summary of labeling failures; silent when clean.
pub fn print_label_report(report: &LabelReport) {
    if report.failures.is_empty() {
        return;
    }
    let recovered = report.failures.iter().filter(|f| f.recovered).count();
    println!(
        "label failures: {}/{} graphs ({} recovered by retry, {} skipped: {:?})",
        report.failures.len(),
        report.total,
        recovered,
        report.unrecovered().len(),
        report.unrecovered()
    );
}

/// Directory experiment CSVs are written to (`target/experiments/`),
/// created on first use.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn experiments_dir() -> io::Result<PathBuf> {
    // CARGO_MANIFEST_DIR = crates/bench; the workspace target dir is two up.
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments");
    fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Writes a CSV file into [`experiments_dir`] and returns its path.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_csv(name: &str, header: &[&str], rows: &[Vec<String>]) -> io::Result<PathBuf> {
    let path = experiments_dir()?.join(name);
    let mut out = String::new();
    out.push_str(&header.join(","));
    out.push('\n');
    for row in rows {
        out.push_str(&row.join(","));
        out.push('\n');
    }
    fs::write(&path, out)?;
    Ok(path)
}

/// Prints an aligned text table.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&header_cells));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Formats a float with 4 decimal places (the tables' standard precision).
pub fn f4(v: f64) -> String {
    format!("{v:.4}")
}

/// Formats a float with 2 decimal places (Table 1 precision).
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// The value after flag `name` in `args` (`--requests 500`), parsed;
/// `None` when the flag is absent, has no value, or does not parse.
pub fn parse_flag(args: &[String], name: &str) -> Option<usize> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiments_dir_is_created() {
        let dir = experiments_dir().unwrap();
        assert!(dir.is_dir());
    }

    #[test]
    fn csv_round_trip() {
        let path = write_csv(
            "unit_test.csv",
            &["a", "b"],
            &[vec!["1".into(), "2".into()]],
        )
        .unwrap();
        let text = fs::read_to_string(&path).unwrap();
        assert_eq!(text, "a,b\n1,2\n");
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f4(1.0 / 3.0), "0.3333");
        assert_eq!(f2(3.275), "3.27");
    }

    #[test]
    fn parse_flag_reads_the_following_value() {
        let args: Vec<String> = ["--smoke", "--requests", "500", "--pool", "x", "--swaps"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(parse_flag(&args, "--requests"), Some(500));
        assert_eq!(parse_flag(&args, "--pool"), None, "unparsable");
        assert_eq!(parse_flag(&args, "--swaps"), None, "no value");
        assert_eq!(parse_flag(&args, "--burst"), None, "absent");
    }
}
