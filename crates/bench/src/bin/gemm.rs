//! GEMM kernel micro-benchmark (not a paper experiment — the hot-loop
//! lever of the ROADMAP's "as fast as the hardware allows" north star).
//!
//! Measures GFLOP/s of the naive reference loops against the cache-blocked
//! kernel layer (`doduo_tensor::kernels`) at transformer-relevant shapes —
//! the mini encoder's projections, FFN halves, per-head attention scores,
//! and backward dW/dX products — across all three matmul variants, each on
//! the one thread that calls it. Forward (`nn`) shapes additionally
//! measure the int8 `QuantizedLinear` path (Gop/s, counting one
//! multiply-accumulate as two ops like the f32 cells) and its speedup over
//! the blocked f32 kernel. Writes the measurements to `BENCH_gemm.json`
//! and checks two bars: blocked ≥ 2x naive at the mini-encoder shapes, and
//! int8 over blocked f32 at its best mini-encoder shape — a bar that
//! depends on the vector tier, see [`int8_bar`]. Both
//! are clocks, so a `[FAIL]` is reported (`repro` counts them) but does not
//! fail the process; only a file that breaks its schema does.
//!
//! Run: `cargo run --release -p doduo-bench --bin gemm -- --scale quick`

use doduo_bench::report::Report;
use doduo_bench::{ExpOptions, Scale};
use doduo_tensor::kernels::{
    matmul_blocked, matmul_naive, matmul_nt_blocked, matmul_nt_naive, matmul_tn_blocked,
    matmul_tn_naive, Tier,
};
use doduo_tensor::{QuantizedLinear, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Which of the three kernel variants a shape exercises.
#[derive(Clone, Copy, PartialEq)]
enum Variant {
    Nn,
    Nt,
    Tn,
}

impl Variant {
    fn name(self) -> &'static str {
        match self {
            Variant::Nn => "nn",
            Variant::Nt => "nt",
            Variant::Tn => "tn",
        }
    }
}

/// One benchmarked shape: `m`×`k` times `k`×`n` (in the variant's layout).
struct Shape {
    label: &'static str,
    variant: Variant,
    m: usize,
    k: usize,
    n: usize,
    /// Counts toward the ≥2x mini-encoder acceptance bar.
    mini: bool,
}

struct Cell {
    label: &'static str,
    variant: &'static str,
    m: usize,
    k: usize,
    n: usize,
    mini: bool,
    naive_gflops: f64,
    blocked_gflops: f64,
    /// The int8 `QuantizedLinear` forward, in Gop/s (same op count as the
    /// f32 cells). `None` for shapes the quantized layer does not serve
    /// (`nt`/`tn` are training-only products).
    int8_gops: Option<f64>,
}

/// What the int8 kernel of `tier` delivers over the blocked f32 kernel at
/// its best mini-encoder shape. The f32 step is one fused multiply-add on
/// every tier; the int8 tiles multiply four (`vpdpbusd`, 6 rows × 32
/// columns) or two (`vpmaddwd`, 4 rows × 16 columns) products per lane and
/// instruction. Measured on a 2-processor AVX-512 VNNI host, the best
/// mini-encoder shape ran 1.9–3.4x the 6×32 zmm f32 tile on VNNI and
/// 1.5–1.7x the 6×16 ymm tile with both forced to AVX2. A one-row kernel
/// read 1.03–1.38x on VNNI and 0.7–1.1x on AVX2, so these bars catch its
/// return.
fn int8_bar(tier: Tier) -> f64 {
    match tier {
        Tier::Avx512 => 2.0,
        Tier::Avx2 => 1.3,
        Tier::Portable => 1.0,
    }
}

/// Median seconds per call of `f`, batching calls so each timed sample
/// spans at least a few milliseconds.
fn time_per_call(mut f: impl FnMut(), min_total_secs: f64) -> f64 {
    f(); // warm-up: faults pages, fills packing scratch
    let probe = Instant::now();
    f();
    let once = probe.elapsed().as_secs_f64().max(1e-7);
    let batch = (5e-3 / once).ceil() as usize;
    let mut samples = Vec::new();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < min_total_secs || samples.len() < 5 {
        let s0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(s0.elapsed().as_secs_f64() / batch as f64);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    samples[samples.len() / 2]
}

fn main() {
    let opts = ExpOptions::from_args_for(
        "GEMM kernel bench: naive vs blocked vs int8, writes BENCH_gemm.json",
    );
    let started = Instant::now();
    let min_secs = match opts.scale {
        Scale::Full => 0.4,
        Scale::Quick => 0.12,
    };

    // The mini encoder (96 hidden, 4 heads, 384 FFN) serialized at the
    // paper's 32-token column budget yields sequences around 76 tokens and
    // up to max_seq = 192; those are the shapes every training step and
    // every `BatchAnnotator` forward grinds through.
    let shapes = [
        Shape { label: "attn_proj_s76", variant: Variant::Nn, m: 76, k: 96, n: 96, mini: true },
        Shape { label: "ffn_up_s76", variant: Variant::Nn, m: 76, k: 96, n: 384, mini: true },
        Shape { label: "ffn_down_s76", variant: Variant::Nn, m: 76, k: 384, n: 96, mini: true },
        Shape { label: "attn_proj_s192", variant: Variant::Nn, m: 192, k: 96, n: 96, mini: true },
        Shape { label: "ffn_up_s192", variant: Variant::Nn, m: 192, k: 96, n: 384, mini: true },
        Shape { label: "vocab_head_s76", variant: Variant::Nn, m: 76, k: 96, n: 1024, mini: false },
        Shape { label: "attn_scores_h24", variant: Variant::Nt, m: 76, k: 24, n: 76, mini: false },
        Shape { label: "grad_dx_s76", variant: Variant::Nt, m: 76, k: 96, n: 96, mini: true },
        Shape { label: "grad_dw_s76", variant: Variant::Tn, m: 96, k: 76, n: 96, mini: true },
        Shape { label: "grad_dw_ffn", variant: Variant::Tn, m: 96, k: 76, n: 384, mini: true },
        Shape { label: "square_256", variant: Variant::Nn, m: 256, k: 256, n: 256, mini: false },
    ];

    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut cells: Vec<Cell> = Vec::new();
    for s in &shapes {
        // Operands in the layout each variant consumes: nt takes B as
        // [n, k], tn takes A as [k, m].
        let (a, b) = match s.variant {
            Variant::Nn => {
                (Tensor::randn(s.m, s.k, 1.0, &mut rng), Tensor::randn(s.k, s.n, 1.0, &mut rng))
            }
            Variant::Nt => {
                (Tensor::randn(s.m, s.k, 1.0, &mut rng), Tensor::randn(s.n, s.k, 1.0, &mut rng))
            }
            Variant::Tn => {
                (Tensor::randn(s.k, s.m, 1.0, &mut rng), Tensor::randn(s.k, s.n, 1.0, &mut rng))
            }
        };
        let flops = 2.0 * s.m as f64 * s.n as f64 * s.k as f64;
        let gflops = |secs: f64| flops / secs / 1e9;

        let naive: &dyn Fn(&Tensor, &Tensor) -> Tensor = match s.variant {
            Variant::Nn => &matmul_naive,
            Variant::Nt => &matmul_nt_naive,
            Variant::Tn => &matmul_tn_naive,
        };
        let blocked: &dyn Fn(&Tensor, &Tensor) -> Tensor = match s.variant {
            Variant::Nn => &matmul_blocked,
            Variant::Nt => &matmul_nt_blocked,
            Variant::Tn => &matmul_tn_blocked,
        };

        let naive_gflops = gflops(time_per_call(
            || {
                std::hint::black_box(naive(&a, &b));
            },
            min_secs,
        ));
        let blocked_gflops = gflops(time_per_call(
            || {
                std::hint::black_box(blocked(&a, &b));
            },
            min_secs,
        ));
        // The inference-path int8 layer only computes `x·W + b` (`nn`); the
        // transposed variants are training-only, so they have no int8 cell.
        let int8_gops = (s.variant == Variant::Nn).then(|| {
            let bias = Tensor::zeros(1, s.n);
            let q = QuantizedLinear::from_f32(&b, &bias);
            gflops(time_per_call(
                || {
                    std::hint::black_box(q.forward(&a));
                },
                min_secs,
            ))
        });
        eprintln!(
            "[gemm] {:<16} {} {}x{}x{}: naive {:>6.2} GFLOP/s, blocked {:>6.2}, int8 {}",
            s.label,
            s.variant.name(),
            s.m,
            s.k,
            s.n,
            naive_gflops,
            blocked_gflops,
            int8_gops.map(|g| format!("{g:.2} Gop/s")).unwrap_or_else(|| "-".into()),
        );
        cells.push(Cell {
            label: s.label,
            variant: s.variant.name(),
            m: s.m,
            k: s.k,
            n: s.n,
            mini: s.mini,
            naive_gflops,
            blocked_gflops,
            int8_gops,
        });
    }

    let mut r = Report::new(
        "GEMM kernels (naive vs cache-blocked vs int8)",
        &[
            "shape",
            "variant",
            "m",
            "k",
            "n",
            "naive GF/s",
            "blocked GF/s",
            "speedup",
            "int8 Gop/s",
            "int8 vs f32",
        ],
    );
    let mut min_mini_speedup = f64::INFINITY;
    let mut max_mini_int8_speedup = 0.0f64;
    for c in &cells {
        let blocked = c.blocked_gflops;
        let speedup = blocked / c.naive_gflops;
        if c.mini {
            min_mini_speedup = min_mini_speedup.min(speedup);
            if let Some(gops) = c.int8_gops {
                max_mini_int8_speedup = max_mini_int8_speedup.max(gops / blocked);
            }
        }
        r.row(&[
            c.label.to_string(),
            c.variant.to_string(),
            c.m.to_string(),
            c.k.to_string(),
            c.n.to_string(),
            format!("{:.2}", c.naive_gflops),
            format!("{blocked:.2}"),
            format!("{speedup:.2}x"),
            c.int8_gops.map(|g| format!("{g:.2}")).unwrap_or_else(|| "-".into()),
            c.int8_gops.map(|g| format!("{:.2}x", g / blocked)).unwrap_or_else(|| "-".into()),
        ]);
    }
    r.check(
        format!("blocked >= 2x naive at mini-encoder shapes (min {min_mini_speedup:.2}x)"),
        min_mini_speedup >= 2.0,
    );
    let (f32_tier, int8_tier) = (Tier::detect(), Tier::detect_int8());
    let bar = int8_bar(int8_tier);
    r.check(
        format!(
            "int8 ({}) >= {bar}x blocked f32 ({}) at >= 1 mini-encoder shape (max \
             {max_mini_int8_speedup:.2}x)",
            int8_tier.name(),
            f32_tier.name()
        ),
        max_mini_int8_speedup >= bar,
    );
    r.print();

    let json = render_json(&opts, &cells, min_mini_speedup, max_mini_int8_speedup);
    if let Err(e) = doduo_bench::artifact::write_checked("BENCH_gemm.json", &json) {
        eprintln!("[gemm] FAILED: {e}");
        std::process::exit(1);
    }
    eprintln!("[gemm] wrote BENCH_gemm.json, total elapsed {:?}", started.elapsed());
}

fn render_json(
    opts: &ExpOptions,
    cells: &[Cell],
    min_mini_speedup: f64,
    max_mini_int8_speedup: f64,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"gemm\",\n");
    out.push_str(&format!("  \"scale\": \"{:?}\",\n", opts.scale).to_lowercase());
    out.push_str(&format!("  \"seed\": {},\n", opts.seed));
    out.push_str(&doduo_bench::stages::HostMeta::detect(opts.scale).json_line());
    out.push_str("  \"shapes\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let int8 = match c.int8_gops {
            Some(g) => format!(
                ", \"int8_gops_1t\": {g:.3}, \"speedup_int8_1t_vs_blocked_1t\": {:.3}",
                g / c.blocked_gflops
            ),
            None => String::new(),
        };
        out.push_str(&format!(
            "    {{\"label\": \"{}\", \"variant\": \"{}\", \"m\": {}, \"k\": {}, \"n\": {}, \
             \"mini_encoder\": {}, \"naive_gflops\": {:.3}, \"blocked_gflops\": {:.3}, \
             \"speedup_blocked_1t_vs_naive\": {:.3}{}}}{}\n",
            c.label,
            c.variant,
            c.m,
            c.k,
            c.n,
            c.mini,
            c.naive_gflops,
            c.blocked_gflops,
            c.blocked_gflops / c.naive_gflops,
            int8,
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"min_speedup_blocked_1t_vs_naive_mini_shapes\": {min_mini_speedup:.3},\n"
    ));
    out.push_str(&format!(
        "  \"max_speedup_int8_1t_vs_blocked_1t_mini_shapes\": {max_mini_int8_speedup:.3}\n"
    ));
    out.push_str("}\n");
    out
}
