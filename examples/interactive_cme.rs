//! Interactive CME analysis (Section 5.2 of the paper): print the full
//! equation system of a nest, walk the miss-finding algorithm vector by
//! vector, and inspect the concrete miss points — the drill-down a
//! programmer would use to understand *why* a loop misses.
//!
//! Run with `cargo run --release --example interactive_cme [N]`.

use cme::cache::CacheConfig;
use cme::core::{AnalysisOptions, Analyzer, CmeSystem};
use cme::kernels::mmult_with_bases;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n: i64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(16);
    let cache = CacheConfig::new(1024, 1, 32, 4)?;
    let nest = mmult_with_bases(n, 0, n * n, 2 * n * n);
    println!("Nest:\n{nest}\nCache: {cache}\n");

    // The symbolic system (what the optimizers manipulate).
    let system = CmeSystem::generate(&nest, cache);
    for re in &system.per_ref {
        let label = nest.reference(re.dest).label();
        println!("reference {label}: {} reuse vectors", re.groups.len());
        for g in re.groups.iter().take(3) {
            println!("  along {}", g.reuse);
            for eq in g.replacements.iter().take(2) {
                println!("    {eq}");
            }
        }
        if re.groups.len() > 3 {
            println!("  ... {} more vectors", re.groups.len() - 3);
        }
    }

    // The per-vector progression (Figure 8 style) with miss points kept.
    let opts = AnalysisOptions::builder()
        .exact_equation_counts(true)
        .collect_miss_points(true)
        .build();
    let analysis = Analyzer::new(cache).options(opts).analyze(&nest);
    println!("\nmiss-finding progression:");
    for r in &analysis.per_ref {
        println!("  {}:", r.label);
        for v in &r.vectors {
            if v.examined == 0 {
                continue;
            }
            println!(
                "    along {:<28} examined {:>8}, cold {:>8}, repl misses {:>8}",
                v.reuse.to_string(),
                v.examined,
                v.cold_solutions,
                v.replacement_misses
            );
            if v.cold_solutions == 0 && v.replacement_misses == 0 && v.examined > 0 {
                break; // everything resolved as hits; later vectors are noise
            }
        }
        println!(
            "    => {} cold + {} replacement misses",
            r.cold_misses, r.replacement_misses
        );
        if let Some((p, along)) = r.replacement_miss_points.first() {
            println!(
                "    first replacement miss at iteration {:?} (found along vector #{along})",
                p
            );
        }
    }
    println!("\ntotal: {} misses", analysis.total_misses());

    // Which cache sets carry the pressure? (Interactive drill-down.)
    let hist = cme::cache::miss_histogram_by_set(&nest, cache);
    let max = hist.iter().copied().max().unwrap_or(0).max(1);
    println!("\nper-set miss pressure ({} sets):", hist.len());
    for (s, &m) in hist.iter().enumerate() {
        if m == 0 {
            continue;
        }
        let bar = "#".repeat((m * 40 / max) as usize);
        println!("  set {s:>3}: {m:>8} {bar}");
    }
    Ok(())
}
