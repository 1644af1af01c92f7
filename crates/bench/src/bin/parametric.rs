//! Regenerates the **Section 5.1.3 parametric analysis** example: the miss
//! count of the `alv` loop as a quasi-polynomial (Ehrhart-style) function
//! of the inter-array spacing, minimized in closed form instead of by
//! exhaustive counting.
//!
//! ```text
//! cargo run --release -p cme-bench --bin parametric
//! ```

use cme_bench::BenchArgs;
use cme_core::{Analyzer, SweepParameter, SweepRequest};
use cme_ir::ArrayId;
use cme_kernels::alv_with_layout;

fn main() {
    let cache = BenchArgs::from_env().cache();
    let (nu, nh) = (61i64, 30i64);
    let base_spacing = nu * nh; // packed
    println!("# Parametric padding of alv: misses as a function of ΔB offset");
    println!("# cache: {cache}");
    // The parameter only moves the second array's base, exactly the
    // engine's fast path: one Analyzer session amortizes equation
    // generation and cascade solving across every sampled spacing.
    let mut analyzer = Analyzer::new(cache);
    let nest = alv_with_layout(nu, nh, nu, base_spacing);
    let shift = SweepParameter::BaseSpacing {
        array: ArrayId::from_index(1),
    };
    let count = (cache.size_elems() * 4) as usize;
    let res = analyzer
        .sweep(&nest, &SweepRequest::new(shift, 0, count, 1))
        .expect("alv sweep analyzes");
    println!("result: {res}");
    if let Some(f) = &res.function {
        println!("miss(p) = {f}");
    }
    println!(
        "range width {count} evaluated with only {} counts",
        res.evaluations
    );
    // Verify against brute force on a subrange.
    let brute = (0..=511)
        .map(|p| {
            let nest = alv_with_layout(nu, nh, nu, base_spacing + p);
            analyzer.analyze(&nest).total_misses()
        })
        .min()
        .expect("nonempty range");
    println!("brute-force minimum over the first 512 offsets: {brute}");
    assert!(res.best_misses <= brute, "parametric optimum must match");
}
