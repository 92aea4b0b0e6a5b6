//! Integration test: a small E4-style sweep, persisted through the CSV
//! report path and re-parsed, reproduces the paper's §5 shape — the
//! fetch-on-write penalty varies inversely with block size and is nearly
//! independent of cache size.

use std::path::PathBuf;

use cachegc::core::report::{Cell, Table};
use cachegc::core::{EngineConfig, ExperimentConfig, Runner, WriteMissPolicy, FAST};
use cachegc::workloads::Workload;

/// Run the rewrite workload at tiny scale under both write-miss policies
/// and tabulate the fetch-on-write penalty per (cache size, block size).
fn e4_penalty_table() -> Table {
    let mut cfg_wv = ExperimentConfig::paper();
    cfg_wv.cache_sizes = vec![32 << 10, 256 << 10];
    cfg_wv.block_sizes = vec![16, 64, 256];
    let cfg_fow = cfg_wv
        .clone()
        .with_write_miss(WriteMissPolicy::FetchOnWrite);

    // Drive the engine the way the sweep binaries do: on a two-worker
    // crew, so the persisted numbers come off the same code path a
    // `--jobs 2 --csv` invocation uses.
    let engine = EngineConfig::jobs(2);
    let runner = Runner::new(engine);
    let w = Workload::Rewrite.scaled(1);
    let wv = runner.control(w, &cfg_wv).expect("write-validate sweep");
    let fow = runner.control(w, &cfg_fow).expect("fetch-on-write sweep");

    let mut t = Table::new("e4_penalty", &["cache_bytes", "block_bytes", "delta"]);
    for &size in &cfg_wv.cache_sizes {
        for &block in &cfg_wv.block_sizes {
            let a = wv.cache_overhead(wv.cell(size, block).unwrap(), &FAST);
            let b = fow.cache_overhead(fow.cell(size, block).unwrap(), &FAST);
            t.row(vec![
                Cell::Bytes(size.into()),
                Cell::Bytes(block.into()),
                Cell::Float(b - a, 6),
            ]);
        }
    }
    t
}

#[test]
fn e4_shape_survives_csv_roundtrip() {
    let table = e4_penalty_table();

    let dir = std::env::temp_dir().join("cachegc_sweep_csv_test");
    let _ = std::fs::remove_dir_all(&dir);
    let path: PathBuf = dir.join("e4_penalty.csv");
    table.write_csv(&path).expect("persist CSV");

    // Re-parse the persisted file, not the in-memory table: the assertion
    // is about what a later PR diffing `results/` would actually read.
    let text = std::fs::read_to_string(&path).expect("read CSV back");
    let mut lines = text.lines();
    assert_eq!(lines.next(), Some("cache_bytes,block_bytes,delta"));
    let mut rows: Vec<(u64, u64, f64)> = Vec::new();
    for line in lines {
        let fields: Vec<&str> = line.split(',').collect();
        assert_eq!(fields.len(), 3, "uniform arity: {line}");
        rows.push((
            fields[0].parse().expect("cache bytes"),
            fields[1].parse().expect("block bytes"),
            fields[2].parse().expect("delta"),
        ));
    }
    assert_eq!(rows.len(), 6, "2 cache sizes x 3 block sizes");
    let delta = |size: u64, block: u64| -> f64 {
        rows.iter()
            .find(|r| r.0 == size && r.1 == block)
            .unwrap_or_else(|| panic!("row {size}/{block}"))
            .2
    };

    for &size in &[32u64 << 10, 256 << 10] {
        // Fetch-on-write always costs something: every write miss now
        // stalls for a memory fetch that write-validate elides.
        for &block in &[16u64, 64, 256] {
            assert!(
                delta(size, block) > 0.0,
                "fetch-on-write must cost extra at {size}/{block}"
            );
        }
        // The paper's §5 shape: the penalty varies inversely with block
        // size (smaller blocks => more write misses => more fetches).
        assert!(
            delta(size, 16) > delta(size, 64) && delta(size, 64) > delta(size, 256),
            "penalty must fall with block size at cache size {size}"
        );
    }
    // ... and is nearly independent of cache size.
    for &block in &[16u64, 64, 256] {
        let (a, b) = (delta(32 << 10, block), delta(256 << 10, block));
        let rel = (a - b).abs() / a.max(b);
        assert!(
            rel < 0.5,
            "penalty should be nearly cache-size independent at block {block}: \
             32k={a:.4} 256k={b:.4} (rel diff {rel:.2})"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}
