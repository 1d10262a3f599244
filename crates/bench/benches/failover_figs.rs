//! **Figures 8–14** — fail-over throughput over time (paper §6.3–6.4).
//!
//! One experiment — run a mix, inject a compute or memory fault at t,
//! sample committed tps (`pandora_workloads::run_failover`) — over the
//! rows of [`pandora_bench::FIGURES`]. Every figure by default;
//! `cargo bench -p pandora-bench --bench failover_figs -- fig9 fig13`
//! selects some.

use pandora::mean_tps;
use pandora_bench::{print_series, print_table, run_failover, Figure, FIGURES};

fn run_figure(fig: &Figure) {
    println!("\n# {}", fig.caption.replace('\n', "\n# "));
    let series: Vec<_> = fig
        .series
        .iter()
        .map(|s| (s.label, run_failover((fig.workload)(), (fig.config)(), &fig.spec(s))))
        .collect();

    let mut headers = vec!["mean tps".to_string()];
    headers.extend(fig.windows.iter().map(|&(name, from, to)| {
        format!("{name} [{:.1},{:.1})s", from as f64 / 1e3, to as f64 / 1e3)
    }));
    if fig.windows.len() > 1 {
        headers.push("last/first".into());
    }
    let rows: Vec<Vec<String>> = series
        .iter()
        .map(|(label, samples)| {
            let means: Vec<f64> =
                fig.windows.iter().map(|&(_, from, to)| mean_tps(samples, from, to)).collect();
            let mut row = vec![label.to_string()];
            row.extend(means.iter().map(|m| format!("{m:.0}")));
            if let [first, .., last] = means[..] {
                row.push(format!("{:.2}x", last / first.max(1.0)));
            }
            row
        })
        .collect();
    let headers: Vec<&str> = headers.iter().map(String::as_str).collect();
    print_table(&format!("{} — summary", fig.id), &headers, &rows);
    print_series(fig.title, &series, 250);
}

fn main() {
    // `cargo bench` appends `--bench`; every other argument names a figure.
    let wanted: Vec<String> = std::env::args().skip(1).filter(|a| !a.starts_with('-')).collect();
    if let Some(unknown) = wanted.iter().find(|id| Figure::by_id(id).is_none()) {
        let known: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
        eprintln!("unknown figure {unknown:?}; known: {}", known.join(" "));
        std::process::exit(2);
    }
    for fig in FIGURES.iter().filter(|f| wanted.is_empty() || wanted.iter().any(|w| w == f.id)) {
        run_figure(fig);
    }
}
