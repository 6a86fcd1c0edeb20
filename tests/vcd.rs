//! The VCD writer checked by an independent reader: on model E with every
//! instance watched (well over the 94 one-character identifier codes), the
//! per-signal value sequences parsed back from `to_vcd` must equal the
//! firing log they were written from.

use std::collections::{BTreeMap, HashMap};

use lss_models::{compile_model, model};
use lss_sim::{build, to_vcd, FiringRecord, SimOptions};
use lss_types::Datum;

type Waves = BTreeMap<String, Vec<(u64, String)>>;

/// A minimal VCD reader: `$var` lines map identifier codes to signal
/// names, `#t` lines set the time, and value lines (`b<bits> <id>`,
/// `r<real> <id>`, `0<id>`, `1<id>`) append `(time, value)` to a signal.
fn read_vcd(text: &str) -> Waves {
    let mut names: HashMap<&str, &str> = HashMap::new();
    let mut waves = Waves::new();
    let mut lines = text.lines();
    for line in lines.by_ref() {
        if line.starts_with("$enddefinitions") {
            break;
        }
        if let Some(var) = line.strip_prefix("$var ") {
            let fields: Vec<&str> = var.split_whitespace().collect();
            let (id, name) = (fields[2], fields[3]);
            assert!(names.insert(id, name).is_none(), "VCD id `{id}` reused");
        }
    }
    let mut time = 0;
    for line in lines {
        if let Some(t) = line.strip_prefix('#') {
            time = t.parse().expect("VCD timestamp");
            continue;
        }
        let (value, id) = match line.as_bytes()[0] {
            b'b' => {
                let (bits, id) = line[1..].split_once(' ').expect("vector change");
                let v = u64::from_str_radix(bits, 2).expect("binary value") as i64;
                (v.to_string(), id)
            }
            b'r' => {
                let (real, id) = line[1..].split_once(' ').expect("real change");
                (real.to_string(), id)
            }
            b'0' | b'1' => (line[..1].to_string(), &line[1..]),
            _ => panic!("unexpected VCD line `{line}`"),
        };
        let name = names
            .get(id)
            .unwrap_or_else(|| panic!("undeclared id `{id}`"));
        waves
            .entry(name.to_string())
            .or_default()
            .push((time, value));
    }
    waves
}

fn first_int(datum: &Datum) -> Option<i64> {
    match datum {
        Datum::Int(v) => Some(*v),
        Datum::Bool(b) => Some(*b as i64),
        Datum::Array(items) => items.iter().find_map(first_int),
        Datum::Struct(fields) => fields.iter().find_map(|(_, v)| first_int(v)),
        _ => None,
    }
}

/// The firing log as the waves a VCD of it should carry.
fn expected_waves(log: &[FiringRecord]) -> Waves {
    let mut waves = Waves::new();
    for r in log {
        let value = match &r.value {
            Datum::Bool(b) => Some(u8::from(*b).to_string()),
            Datum::Float(v) => Some(v.to_string()),
            other => first_int(other).map(|v| v.to_string()),
        };
        if let Some(value) = value {
            let name = format!("{}.{}[{}]", r.path, r.port, r.lane).replace(' ', "_");
            waves.entry(name).or_default().push((r.cycle, value));
        }
    }
    waves
}

#[test]
fn model_e_vcd_reads_back_as_the_firing_log() {
    let compiled = compile_model(model('E').expect("model E")).expect("compile");
    let mut sim = build(
        &compiled.netlist,
        &lss_corelib::registry(),
        SimOptions::default(),
    )
    .expect("build");
    sim.watch("");
    sim.run(200).expect("run");
    let log = sim.firing_log();
    let waves = read_vcd(&to_vcd(log, "1ns"));
    assert!(
        waves.len() > 94,
        "only {} signals: the test must exceed one-character VCD ids",
        waves.len()
    );
    assert!(
        waves == expected_waves(log),
        "VCD waves differ from the firing log"
    );
}
