//! The response-stream digest depends only on the seed: two runs agree,
//! and so do pool widths 1 and 2. Run in release mode:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use bcc_perfbench::report::Opts;

fn digest(workload: &str, seed: u64, threads: usize) -> u64 {
    let opts = Opts {
        seed,
        seconds: 0.05,
        trace: false,
        threads,
        universe_seed: None,
    };
    let run = bcc_perfbench::run(workload, &opts);
    assert!(run.correct(), "{workload} seed {seed}: a check failed");
    run.digest()
}

#[test]
fn serve_digest_is_stable_across_runs_and_pool_widths() {
    let one = digest("serve-umd317", 5, 1);
    assert_eq!(one, digest("serve-umd317", 5, 1), "two runs at width 1");
    assert_eq!(one, digest("serve-umd317", 5, 2), "width 1 against width 2");
    assert_ne!(
        one,
        digest("serve-umd317", 6, 1),
        "the seed drives the stream"
    );
}
