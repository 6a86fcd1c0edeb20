//! Expected results for the fixed inputs, kept as whitespace-separated
//! tables under `expected/` and compiled into the binary.
//!
//! `sim_table3.tsv` holds each Table 3 model's cycles, committed
//! instructions and mispredicts when run to completion with
//! `SimOptions::default()`. `compile_cold.tsv` holds each fixed compile
//! input's netlist instance and connection counts and its analysis
//! finding count. The benchmark's tests cross-check the simulator that
//! produced the first table against the independent reference simulator.

use std::collections::BTreeMap;

/// Parses a table: one `key value...` row per line, `#` starts a comment.
pub fn parse(text: &str) -> BTreeMap<String, Vec<i64>> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let mut cols = l.split_whitespace();
            let key = cols.next().expect("non-empty row").to_string();
            let values = cols
                .map(|c| {
                    c.parse()
                        .unwrap_or_else(|_| panic!("bad number `{c}` in `{l}`"))
                })
                .collect();
            (key, values)
        })
        .collect()
}

/// `model → [cycles, committed, mispredicts]`.
pub fn sim_table3() -> BTreeMap<String, Vec<i64>> {
    parse(include_str!("../expected/sim_table3.tsv"))
}

/// `input → [instances, connections, findings]`.
pub fn compile_cold() -> BTreeMap<String, Vec<i64>> {
    parse(include_str!("../expected/compile_cold.tsv"))
}
